(** Generic in-order pipeline cost model.

    Each retired instruction reports the abstract resources it reads and
    writes, its result latency, and its functional-unit class; the engine
    charges issue cycles, operand-interlock stalls, and taken-branch
    penalties. Deliberately coarse: the effects the reproduction needs
    (scheduling hides load/FP latency and SFI overhead in interlock cycles;
    the superscalar PPC pays for long-latency compares; Pentium pairing)
    all appear at this granularity.

    Resource ids: 0..31 integer registers, 32..63 float registers, 64
    condition codes, 65 FP condition, 66+ free for target use. *)

type unit_class = IU | FPU | LSU | BRU

val resources : int
(** Resource ids run from 0 to [resources - 1]. *)

type config = {
  issue_width : int;
  dual_issue_rule : unit_class -> unit_class -> bool;
      (** may these two classes issue in the same cycle, in order? *)
  taken_branch_penalty : int;
}

(** {2 One instruction's costs}

    A {!cost} is one int: the resources an instruction reads (its uses,
    at most four) and writes (its defs, at most three), each list packed
    into an int as {!uses} below returns it, its latency (cycles until the
    defs are usable), its functional-unit class, and whether it loads or
    stores. Building one allocates nothing. *)

type cost = int

val one : int -> int
(** The packed list of one resource id.
    @raise Invalid_argument if the id is outside 0..79. *)

val two : int -> int -> int
val three : int -> int -> int -> int

val cons : int -> int -> int
(** [cons r p]: resource [r], then the packed list [p]. *)

val append : int -> int -> int

val cost : int -> unit_class -> int -> int -> cost
(** [cost latency unit uses defs].
    @raise Invalid_argument if [uses] holds more than four resources,
    [defs] more than three, or [latency] is outside 0..511. *)

val load : cost
val store : cost
(** Flags to [lor] into a cost: the instruction loads, or stores. *)

val cost_uses : cost -> int
val cost_defs : cost -> int
val is_load : cost -> bool
val is_store : cost -> bool

type costs
(** The costs of a run of instructions decoded for stepping, in one flat
    table of ints, so a retired instruction allocates nothing. *)

val costs : int -> costs
(** A table for [n] instructions, each to be {!set} before it is stepped. *)

val set : costs -> int -> cost -> unit
(** [set c k w] records [w] as instruction [k] of [c]. *)

(** {2 Reading a table back}

    Resource lists stay packed, one int each: zero is the empty list. *)

val uses : costs -> int -> int
val defs : costs -> int -> int
val latency : costs -> int -> int

val first : int -> int
(** The id of a non-empty packed list's first resource. *)

val rest : int -> int
(** A non-empty packed list without its first resource. *)

val mem : int -> int -> bool
(** [mem r p]: resource [r] is in packed list [p]. *)

val meets : int -> int -> bool
(** The two packed lists share a resource. *)

val ready_at : int array -> int -> int -> int
(** [ready_at board p t]: the latest of [t] and the ready cycles
    [board] holds for the resources of [p]. A board is indexed by
    resource id: it holds {!resources} cycles. *)

val set_ready : int array -> int -> int -> unit
(** [set_ready board p c] marks every resource of [p] ready at [c]. *)

type t

val create : config -> t
(** @raise Invalid_argument if [issue_width] is outside 1..63. *)

val retire : t -> costs -> int array -> int -> taken_branch:bool -> unit
(** [retire t c counts k] accounts one retired instruction, number [k] of
    [c], and adds one to [counts.(k)]: the model's definition, and the
    slow path of {!segment}.
    @raise Invalid_argument if [k] is outside [c] or [counts]. *)

val step : t -> costs -> int array -> int -> int -> taken_at:int -> unit
(** [step t c counts first last ~taken_at] retires instructions [first]
    to [last] in order, instruction [taken_at] taking its branch (-1:
    none does). A run that stops inside a segment steps what it retired
    of it. *)

val cycles : t -> int
(** Total simulated cycles so far. *)

(** {2 Retiring a segment at a time}

    A segment is the straight-line run of instructions a simulator
    retires from the slot where execution entered up to its next control
    instruction, and that instruction's delay slot when it executes. Its
    effect on the model depends only on the issue state and, relative to
    the cycle it starts in, on when the resources it reads before writing
    them become ready; so a memo keyed by those replays it exactly. The
    model keeps a bound on every ready cycle, so a segment entered with
    every resource ready is keyed by the issue state alone. *)

type memo
(** Segment results for one {!costs} table under one {!config}, in one
    flat pool of ints, two index ints per slot plus a few ints per
    segment, with a hit counter each. *)

val memo : int -> memo
(** An empty memo for [n] slots. *)

val reset : memo -> int -> unit
(** [reset m n] empties [m] for [n] slots, keeping its storage. [m]
    must have been made for at least [n] slots. *)

val memo_words : memo -> int
(** The ints [m]'s segment entries take, its index not included. *)

val segment : t -> memo -> costs -> int array -> int -> int -> taken_at:int -> unit
(** [segment t m c counts first last ~taken_at] does what {!step} does,
    for a whole segment: [first] is where execution entered, [last] the
    last instruction retired, and [taken_at] the control instruction when
    its branch is taken, or -1. [m] keeps one entry per [first] and
    whether the branch is taken, as they fix a simulator's range; a call
    whose [last] is not the entry's is stepped. The result comes from
    [m] when [m] holds it for [t]'s state; otherwise the segment is
    stepped and the result stored, unless the segment reads more than
    eight resources before writing them or one of them is ready more
    than 63 cycles ahead. A result from [m] leaves [t] exactly as
    stepping would, but adds one to the entry's hit counter instead of
    to [counts]: {!fold_hits} moves the hits into [counts].
    @raise Invalid_argument if the range is outside [c], [counts] or
    [m]. *)

val fold_hits : memo -> int array -> int -> unit
(** [fold_hits m counts n] adds the hits of each entry of [m] for the
    first [n] slots to the counts of the entry's slots, and clears
    them. After it, [counts] is what {!step} would have counted. *)

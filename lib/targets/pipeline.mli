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

type attrs = {
  uses : int list;
  defs : int list;
  latency : int;
  unit_ : unit_class;
  is_load : bool;
  is_store : bool;
}

type config = {
  issue_width : int;
  dual_issue_rule : unit_class -> unit_class -> bool;
      (** may these two classes issue in the same cycle, in order? *)
  taken_branch_penalty : int;
}

type costs
(** The {!attrs} of a run of instructions decoded for stepping: resource
    lists packed into ints in one flat table, so a retired instruction
    allocates nothing. *)

val costs : int -> costs
(** A table for [n] instructions, each to be {!set} before it is stepped. *)

val set : costs -> int -> attrs -> unit
(** [set c k a] decodes [a] as instruction [k] of [c].
    @raise Invalid_argument if a resource id is outside 0..79 or a list
    holds more than eight. *)

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

val step : t -> costs -> int -> taken_branch:bool -> unit
(** [step t c k] accounts one retired instruction, number [k] of [c]. *)

val cycles : t -> int
(** Total simulated cycles so far. *)

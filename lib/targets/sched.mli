(** Local (basic-block) list scheduling, generic over target instructions.

    The main translator optimization the paper measures (§4.2, Table 5):
    hides load/FP/compare latencies in pipeline interlock slots and, on
    delay-slot architectures, fills branch delay slots. The paper's
    observation that scheduling hides part of the SFI overhead falls out
    naturally: sandboxing instructions are short-latency ALU operations
    that fit into interlock bubbles. *)

type 'a info = {
  cost : 'a -> Pipeline.cost;
  is_barrier : 'a -> bool;  (** calls/host calls: nothing moves across *)
}

(** [Greedy] approximates the paper's translators; [Critical_path] is the
    vendor-compiler tier's stronger heuristic. *)
type quality = Greedy | Critical_path

type 'a t
(** A scheduler for one translation: [info] and the scratch arrays every
    block reuses. Not safe to share between domains. *)

val create : 'a info -> 'a t
(** Takes the domain's scratch arrays, left by the last [release], or
    makes new ones. *)

val release : 'a t -> unit
(** Gives [t]'s scratch arrays back to the domain; [t] is not used
    again. *)

val schedule :
  'a t -> quality:quality -> 'a array -> int -> int -> int array -> int -> unit
(** [schedule t ~quality src lo hi dst d] writes the indices [lo] to
    [hi - 1] of the slots of [src] into [dst] from [d], in a
    semantics-preserving order. Dependences are RAW/WAR/WAW on
    registers, a conservative memory order (stores in program order,
    loads ordered against stores both ways), and barriers. *)

val fills_delay_slot : 'a t -> branch_cost:Pipeline.cost -> 'a -> bool
(** Whether a scheduled body's last slot may move into the delay slot of
    a branch of cost [branch_cost]: false on any RAW/WAW/WAR hazard
    against the branch, or when the slot is a barrier. *)

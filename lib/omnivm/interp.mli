(** Reference interpreter for linked OmniVM executables.

    The semantic baseline every translator must agree with: the
    differential test suite runs each program here and on all four target
    simulators and requires identical observable behaviour. The interpreter
    is given a host-call handler (the runtime environment) and knows
    nothing about what the host exports beyond the calling convention.

    It runs its text decoded once into packed op words ({!decode}); a host
    that runs a module many times keeps one decode and passes it to every
    run. *)

type t = {
  iregs : int array;
      (** the 16 canonical Word32 registers, r0 pinned to 0, then the
          sink that writes to r0 are decoded to *)
  fregs : float array;  (** 16 *)
  mem : Memory.t;
  text : int Instr.t array;
  mutable pc : int;  (** instruction index *)
  mutable icount : int;  (** dynamic instructions executed *)
  mutable exited : int option;
  mutable handler : int;  (** VM-fault handler code address; 0 = none *)
}

type hcall_outcome = Continue | Exit of int

type host_iface = { on_hcall : t -> int -> hcall_outcome }

val get_reg : t -> Reg.t -> int
val set_reg : t -> Reg.t -> int -> unit
(** Register access for hosts.
    @raise Invalid_argument outside r0..r15. *)

val get_freg : t -> Reg.t -> float
val set_freg : t -> Reg.t -> float -> unit

val create : Exe.t -> Memory.t -> t
(** Fresh machine state at the executable's entry point, with sp and gp
    initialized per the ABI. *)

type code
(** A text decoded into op words: immutable, holding no run state, so
    one decode may back any number of concurrent runs of its text. *)

val decode : int Instr.t array -> code
(** Decode a linked text segment (typically [exe.Exe.text]). Total and
    pure, linear in the text: a field that would fault (a register
    outside r0..r15, a label outside the text, an [Ext]/[Ins] field
    outside the word) decodes to an instruction raising that fault when
    it executes. *)

type outcome = Exited of int | Faulted of Fault.t | Out_of_fuel

val run :
  ?fuel:int ->
  ?watchdog:Watchdog.t ->
  ?code:code ->
  host_iface ->
  t ->
  outcome
(** Run to completion, delivering faults to the module's registered
    handler when one is set. [code] must be the decode of [t]'s text;
    omitted, the run decodes the text itself. [fuel] bounds the steps
    (a host call that exits on the last unit of fuel ends the run
    [Out_of_fuel]). When [watchdog] is given it is polled every
    {!Watchdog.poll_every} steps; expiry raises [Fault.Deadline_exceeded]
    through the same delivery path.
    @raise Invalid_argument when an instruction names a register outside
    r0..r15, or when [code] was decoded from a text of another length. *)

(** Execution supervision: crash reports, quarantine, deterministic replay.

    The paper's virtual exception model makes a faulting module a normal,
    recoverable event; this module makes it a structured, actionable one:

    - a {!report} captures the fault, the machine state at the fault, the
      request that provoked it, and the module's wire bytes — a
      self-contained replay bundle with a stable JSON form;
    - {!replay} re-executes a bundle in-process and {!check_replay}
      asserts the same fault reproduces (deterministic faults only);
    - {!Quarantine} is a per-digest circuit breaker: a module that faults
      deterministically [threshold] times is refused for [ttl_s] seconds
      instead of burning translate+execute cost. *)

module Fault = Omnivm.Fault
module Machine = Omni_targets.Machine

val watchdog :
  ?poll_every:int -> budget_s:float -> unit -> Omnivm.Watchdog.t
(** A watchdog over {!Omni_util.Clock.monotonic} expiring [budget_s]
    seconds from now. *)

val transient : Fault.t -> bool
(** A transient fault depends on conditions outside the module's control
    (currently only [Deadline_exceeded]); transient faults never count
    toward quarantine and replay does not assert their reproduction. *)

(** One faulted run, fully described. *)
type report = {
  r_fault : Fault.t;
  r_engine : Exec.engine;
  r_sfi : bool;
  r_mode : Machine.mode option;
      (** the explicit translation mode the run was given ([Service]'s
          [?mode], [omnirun --sfi-pad]); [None] means the mode derives
          from [r_sfi] through {!Exec.resolve}. It is recorded in the
          terms the wire can express: a policy's mode, [protect_reads]
          and pad over the standard layout, or a native tier. Reports
          written before the field existed read back as [None]. *)
  r_producer : string option;
      (** the front-end that produced the module (e.g. ["minic"],
          ["stackvm"]), when the submitter declared one — a crash report
          names which producer's output misbehaved *)
  r_digest : Omni_util.Fnv64.t;  (** content digest of [r_wire] *)
  r_fuel : int option;  (** the request's instruction budget *)
  r_fuel_spent : int;  (** instructions executed before the fault *)
  r_pc : int;  (** see {!Exec.crash_site} for engine-specific meaning *)
  r_regs : int array;  (** the 16 OmniVM integer registers at the fault *)
  r_window_base : int;
  r_window : string;  (** memory around the faulting address, if any *)
  r_wire : string;  (** the module bytes: the replay bundle *)
}

val of_run :
  engine:Exec.engine ->
  sfi:bool ->
  ?mode:Machine.mode ->
  ?producer:string ->
  ?fuel:int ->
  wire:string ->
  Exec.run_result ->
  report option
(** [Some report] iff the run faulted. *)

exception Bad_report of string

val to_json : report -> string
(** One-line JSON object; byte fields are hex-encoded, so the document
    never needs string escaping. *)

val of_json : string -> report
(** Inverse of {!to_json}.
    @raise Bad_report on malformed input. *)

val filename : report -> string
(** Conventional file name ([crash-<digest>-<engine>-<fault>.json]) for
    [omnirun --crash-dir]. *)

val write_report : dir:string -> report -> string
(** Write the report as JSON under its {!filename} in [dir], creating
    the directory (and parents) if missing; returns the path written —
    the one way [omnirun --crash-dir] and the daemon drop reports. *)

val pp : Format.formatter -> report -> unit
(** Multi-line human-readable rendering with a register dump and hexdump
    window. *)

val replay :
  ?watchdog:Omnivm.Watchdog.t -> ?engine:Exec.engine -> report -> Exec.run_result
(** Re-execute the bundled request in-process through {!Exec.run}:
    decode [r_wire], resolve the configuration from [r_sfi] and [r_mode]
    with {!Exec.resolve} as the original run did, run with
    [r_fuel] on [r_engine] (or [engine] when overridden, e.g. to check a
    fault reproduces across architectures). A transient bundle with no
    fuel of its own (and no [watchdog] given) is bounded by
    [r_fuel_spent] — replay always terminates, even for a module that
    only stopped because the wall clock ran out. *)

(** Outcome of {!check_replay}. *)
type verdict =
  | Reproduced  (** the replayed run faulted identically *)
  | Transient of Machine.outcome
      (** the original fault was wall-clock dependent; no assertion made *)
  | Diverged of Machine.outcome  (** the replayed run behaved differently *)

val check_replay :
  ?watchdog:Omnivm.Watchdog.t -> ?engine:Exec.engine -> report -> verdict

(** Per-digest circuit breaker over deterministic faults. *)
module Quarantine : sig
  type config = {
    threshold : int;  (** deterministic faults before the breaker trips *)
    ttl_s : float;  (** how long a tripped breaker refuses the digest *)
    clock : Omni_util.Clock.t;  (** injectable for tests *)
  }

  val default_config : config
  (** threshold 3, ttl 300 s, {!Omni_util.Clock.monotonic}. *)

  type t

  exception
    Quarantined of {
      digest : Omni_util.Fnv64.t;
      fault : Fault.t;  (** the last deterministic fault recorded *)
      until_s : float;  (** clock reading at which the TTL expires *)
    }

  val create : config -> t
  (** @raise Invalid_argument unless [threshold > 0] and [ttl_s > 0]. *)

  val check : t -> Omni_util.Fnv64.t -> unit
  (** Gate a request: no-op for healthy digests; removes an entry whose
      TTL has expired (fresh chances).
      @raise Quarantined while the digest's breaker is tripped. *)

  val note : t -> Omni_util.Fnv64.t -> Machine.outcome -> bool
  (** Record one run's outcome. Deterministic faults strike; a clean exit
      resets the strike count; transient faults and fuel exhaustion are
      neutral. Returns [true] when this note tripped the breaker. *)

  val clear : t -> Omni_util.Fnv64.t -> bool
  (** Manually lift a quarantine; [false] if the digest was not
      quarantined. *)

  val clear_all : t -> int
  (** Lift every quarantine; returns how many were lifted. *)

  val active : t -> (Omni_util.Fnv64.t * float) list
  (** Currently-quarantined digests with their expiry times. *)

  val strikes : t -> Omni_util.Fnv64.t -> int
  (** Current strike count (0 for unknown digests). *)
end

(** Cooperative wall-clock watchdog.

    Fuel bounds work; the watchdog bounds time. Each engine polls the
    watchdog every {!poll_every} instructions and, once the deadline has
    passed, raises {!Fault.Vm_fault} [Deadline_exceeded] — so the fault is
    delivered to a module-registered handler (or aborts the run) exactly
    like any other fault, on every engine.

    The clock is injected so tests can script it; pass
    [Omni_util.Clock.monotonic] for real deadlines. *)

type t

val default_poll_every : int
(** 16384 — cheap enough to be invisible (see the bench [isolation]
    section) yet fine-grained enough for sub-millisecond deadlines. *)

val make : ?poll_every:int -> clock:Omni_util.Clock.t -> budget_s:float -> unit -> t
(** A watchdog whose deadline is [budget_s] seconds after [clock]'s
    current reading.
    @raise Invalid_argument if [poll_every <= 0] or [budget_s < 0]. *)

val poll_every : t -> int
val expired : t -> bool

val check : t -> unit
(** @raise Fault.Vm_fault [Deadline_exceeded] once {!expired}. *)

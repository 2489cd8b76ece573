(** A clock with an injectable source.

    Every product timer reads one of these: spans and histograms
    ({!Omni_obs.Trace}, {!Omni_obs.Metrics}), retry deadlines, watchdogs
    and quarantine TTLs. Each defaults to {!monotonic}; tests inject a
    {!manual} or {!fn} clock and obtain deterministic durations. *)

type t

val monotonic : t
(** Wall seconds from CLOCK_MONOTONIC, since an arbitrary origin: never
    steps back, and measures latency (sleeps and blocked reads included),
    not CPU. *)

val monotonic_ns : unit -> int
(** The {!monotonic} clock in integer nanoseconds, read without
    allocating — for accumulating many short intervals. *)

val manual : ?start:float -> unit -> t
(** A clock that only moves when told to ([start] defaults to 0). *)

val fn : (unit -> float) -> t
(** A clock read from an arbitrary source — how tests script a clock
    that moves on every read (e.g. to expire a watchdog at a chosen
    poll). *)

val now : t -> float

val advance : t -> float -> unit
(** Advance a manual clock by a non-negative step.
    @raise Invalid_argument on a clock that is not manual, or a negative
    step. *)

val set : t -> float -> unit
(** Set a manual clock to an absolute time not before its current reading.
    @raise Invalid_argument on a clock that is not manual, or a backwards
    jump. *)

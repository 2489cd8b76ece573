(** A clock with an injectable source.

    Timings in the observability layer ({!Omni_obs.Trace},
    {!Omni_obs.Metrics}) are read from one of these, so tests can inject a
    {!manual} clock and obtain deterministic durations. *)

type t

val cpu : t
(** Process CPU seconds from [Sys.time], summed over every domain; not
    wall time. A span timed on it measures the CPU the whole process
    spent while the span was open, which equals its latency only when
    one domain is busy and nothing blocks. *)

val monotonic : t
(** Wall seconds from CLOCK_MONOTONIC, since an arbitrary origin: never
    steps back, and unlike {!cpu} it measures latency, not CPU. *)

val monotonic_ns : unit -> int
(** The {!monotonic} clock in integer nanoseconds, read without
    allocating — for accumulating many short intervals. *)

val manual : ?start:float -> unit -> t
(** A clock that only moves when told to ([start] defaults to 0). *)

val fn : (unit -> float) -> t
(** A clock read from an arbitrary source — how layers with access to
    [Unix.gettimeofday] inject real wall time without this library
    depending on unix (e.g. the execution watchdog's deadline clock). *)

val now : t -> float

val advance : t -> float -> unit
(** Advance a manual clock by a non-negative step.
    @raise Invalid_argument on a clock that is not manual, or a negative
    step. *)

val set : t -> float -> unit
(** Set a manual clock to an absolute time not before its current reading.
    @raise Invalid_argument on a clock that is not manual, or a backwards
    jump. *)

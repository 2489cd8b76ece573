(** Retry policy for clients of the distribution protocol.

    A {!policy} is pure data — attempts, exponential backoff, jitter,
    an overall deadline; {!run} executes it against an operation,
    re-raising on terminal errors and retrying on transient ones. All
    time flows through an injectable {!env} (clock, sleep, PRNG), so the
    whole schedule is testable under a manual clock in microseconds with
    zero real sleeping ([test/test_fault.ml] qchecks the schedule).

    Classification is the caller's ({!val-run}'s [classify]); {!val-classify}
    is the standard transport-level verdict — timeouts, connection
    resets, and refused dials are retryable, everything else terminal.
    {!Client} extends it with protocol knowledge. Submit and Run are safe
    to retry: execution is deterministic and the store content-addressed,
    so a duplicate delivery returns the same handle and the same result. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay_s : float;  (** delay before the first retry *)
  backoff : float;  (** multiplier per further retry *)
  jitter : float;
      (** fraction of the delay randomized: each delay is scaled by a
          factor drawn uniformly from [1 - jitter, 1 + jitter] *)
  deadline_s : float;
      (** overall budget from first attempt; a retry never sleeps past
          it ([infinity] = none) *)
}

val default : policy
(** 4 attempts, 10 ms base, doubling, 10% jitter, 5 s deadline. *)

val delay_for : policy -> rand:(unit -> float) -> int -> float
(** The delay after failed attempt [n] (1-based):
    [base * backoff^(n-1)], jittered, clamped to >= 0. [rand] draws
    uniformly from [0, 1). *)

(** The injectable time/randomness environment. *)
type env = {
  clock : Omni_util.Clock.t;
  sleep : float -> unit;
  rand : unit -> float;  (** uniform in [0, 1) *)
}

val sys_env : env
(** Monotonic clock, [Unix.sleepf], a fixed-seed {!Omni_util.Lcg}
    stream: backoff sleeps and blocked reads count toward the deadline. *)

val manual_env : ?start:float -> ?seed:int -> unit -> env
(** A fresh manual clock whose [sleep] advances it — deterministic
    schedules with zero real waiting. *)

type verdict = Retryable | Terminal

val classify : exn -> verdict
(** {!Transport.Timeout} and connection-level [Unix.Unix_error]s
    (refused, reset, aborted, unreachable, missing socket file, broken
    pipe, timed out) are [Retryable]; every other exception is
    [Terminal]. *)

val run :
  ?env:env ->
  ?on_retry:(attempt:int -> delay_s:float -> exn -> unit) ->
  classify:(exn -> verdict) ->
  policy ->
  (attempt:int -> 'a) ->
  'a
(** Run [f ~attempt:1], retrying per the policy. A [Terminal] failure,
    attempt exhaustion, or a delay that would cross the deadline
    re-raises the last exception unchanged. [on_retry] observes each
    scheduled retry before its sleep (attempt numbers the {e failed}
    attempt).
    @raise Invalid_argument if [max_attempts < 1]. *)

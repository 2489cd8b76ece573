(* Retry policy: pure data executed under an injectable environment.

   The schedule is exact by construction — delay n is
   base * backoff^(n-1), jittered by a factor from [1-j, 1+j] — and a
   retry is only scheduled when it fits the deadline, so the policy can
   never sleep past its budget (a qcheck'd property). *)

module Clock = Omni_util.Clock
module Lcg = Omni_util.Lcg

type policy = {
  max_attempts : int;
  base_delay_s : float;
  backoff : float;
  jitter : float;
  deadline_s : float;
}

let default =
  {
    max_attempts = 4;
    base_delay_s = 0.01;
    backoff = 2.0;
    jitter = 0.1;
    deadline_s = 5.0;
  }

let delay_for p ~rand n =
  let d = p.base_delay_s *. (p.backoff ** float_of_int (n - 1)) in
  let d =
    if p.jitter <= 0.0 then d
    else d *. (1.0 +. (p.jitter *. ((2.0 *. rand ()) -. 1.0)))
  in
  if d > 0.0 then d else 0.0

type env = {
  clock : Clock.t;
  sleep : float -> unit;
  rand : unit -> float;
}

let sys_env =
  let rng = Lcg.create 0x5eed in
  {
    clock = Clock.monotonic;
    sleep = (fun s -> if s > 0.0 then Unix.sleepf s);
    rand = (fun () -> Lcg.float rng);
  }

let manual_env ?(start = 0.0) ?(seed = 0x5eed) () =
  let clock = Clock.manual ~start () in
  let rng = Lcg.create seed in
  {
    clock;
    sleep = (fun s -> if s > 0.0 then Clock.advance clock s);
    rand = (fun () -> Lcg.float rng);
  }

type verdict = Retryable | Terminal

let classify = function
  | Transport.Timeout -> Retryable
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED
        | Unix.EPIPE | Unix.ENOENT | Unix.EHOSTUNREACH | Unix.ENETUNREACH
        | Unix.ENETDOWN | Unix.ETIMEDOUT | Unix.EINTR | Unix.EAGAIN ),
        _,
        _ ) ->
      Retryable
  | _ -> Terminal

let run ?(env = sys_env) ?(on_retry = fun ~attempt:_ ~delay_s:_ _ -> ())
    ~classify policy f =
  if policy.max_attempts < 1 then invalid_arg "Retry.run: max_attempts < 1";
  let start = Clock.now env.clock in
  let rec go n =
    match f ~attempt:n with
    | v -> v
    | exception e -> (
        match classify e with
        | Terminal -> raise e
        | Retryable ->
            if n >= policy.max_attempts then raise e
            else
              let d = delay_for policy ~rand:env.rand n in
              let elapsed = Clock.now env.clock -. start in
              (* never sleep past the deadline: better to surface the
                 failure with budget to spare than to blow the budget *)
              if elapsed +. d > policy.deadline_s then raise e
              else begin
                on_retry ~attempt:n ~delay_s:d e;
                env.sleep d;
                go (n + 1)
              end)
  in
  go 1

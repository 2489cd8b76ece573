(* The resilience layer: fault injection, retry policy, admission limits.

   Load-bearing properties:

   - the fault matrix: for every single-fault plan — each kind, each
     direction, frame and byte sites — a retrying loopback client's run
     result is bit-identical to the in-process Api.run path, on all four
     target architectures with SFI on. An injected fault is never a
     hang, a crash, or a silently wrong answer;
   - the retry policy is exact (qcheck'd): it never sleeps past its
     deadline, its gaps follow the backoff schedule to the float, it
     never exceeds max_attempts, and terminal errors are never retried;
   - admission limits answer typed E_limit_exceeded refusals — terminal
     for the retry policy — and are counted under net.limit.rejected;
   - a dead daemon degrades to in-process execution under
     `Fallback_local, counted under net.fallback;
   - a server survives 1,000 seeded faulty requests with the fault,
     retry, and request counters accounting for all of them. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Metrics = Omni_obs.Metrics
module Trace = Omni_obs.Trace
module Clock = Omni_util.Clock
module Frame = Omni_net.Frame
module Msg = Omni_net.Message
module Transport = Omni_net.Transport
module Server = Omni_net.Server
module Client = Omni_net.Client
module Fault = Omni_net.Fault
module Retry = Omni_net.Retry

let fuel = 50_000_000

let hello_src =
  {| int g = 7;
     int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
     int main(void) {
       int i;
       for (i = 0; i < 5; i++) { print_int(f(i + 5) + g); putchar(32); }
       putchar(10);
       return 0; } |}

let hello_bytes = lazy (Api.compile ~name:"hello" hello_src)

let check_same_result what (a : Exec.run_result) (b : Exec.run_result) =
  Alcotest.(check string) (what ^ ": output") a.Exec.output b.Exec.output;
  Alcotest.(check int) (what ^ ": exit code") a.Exec.exit_code b.Exec.exit_code;
  Alcotest.(check int) (what ^ ": instructions") a.Exec.instructions
    b.Exec.instructions;
  Alcotest.(check bool)
    (what ^ ": outcome + stats")
    true
    (a.Exec.outcome = b.Exec.outcome && a.Exec.stats = b.Exec.stats)

(* --- the fault matrix --- *)

let archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let local_results =
  lazy
    (List.map
       (fun arch ->
         ( arch,
           Api.run
             { Api.default_request with
               engine = Exec.Target arch;
               fuel = Some fuel }
             (Api.Wire (Lazy.force hello_bytes)) ))
       archs)

(* Every kind x direction, at frame starts, skewed into headers and
   payloads, and at absolute byte offsets. Send frames (client->server):
   0 = Submit, 1.. = Run. Recv frames (server->client): 0 = Submitted,
   1.. = Ran. Skews poke at specific header fields: 0 = magic, 4 =
   version, 7 = length, >= 18 = payload (checksummed). *)
let matrix_plans =
  [ ("send/drop@f0", Fault.fault Fault.Drop Fault.Send (Fault.Frame 0));
    ("send/corrupt@f0.magic",
     Fault.fault ~skew:0 Fault.Corrupt Fault.Send (Fault.Frame 0));
    ("send/corrupt@f0.version",
     Fault.fault ~skew:4 Fault.Corrupt Fault.Send (Fault.Frame 0));
    ("send/corrupt@f1.payload",
     Fault.fault ~skew:24 Fault.Corrupt Fault.Send (Fault.Frame 1));
    ("send/truncate@f0",
     Fault.fault ~skew:10 Fault.Truncate Fault.Send (Fault.Frame 0));
    ("send/truncate@f1",
     Fault.fault ~skew:5 Fault.Truncate Fault.Send (Fault.Frame 1));
    ("send/stall@f0", Fault.fault Fault.Stall Fault.Send (Fault.Frame 0));
    ("send/stall@f2", Fault.fault Fault.Stall Fault.Send (Fault.Frame 2));
    ("send/close@f1", Fault.fault Fault.Close Fault.Send (Fault.Frame 1));
    ("send/drop@b40", Fault.fault Fault.Drop Fault.Send (Fault.Byte 40));
    ("recv/drop@f0", Fault.fault Fault.Drop Fault.Recv (Fault.Frame 0));
    ("recv/corrupt@f0.payload",
     Fault.fault ~skew:20 Fault.Corrupt Fault.Recv (Fault.Frame 0));
    ("recv/corrupt@f1.length",
     Fault.fault ~skew:7 Fault.Corrupt Fault.Recv (Fault.Frame 1));
    ("recv/truncate@f0",
     Fault.fault ~skew:12 Fault.Truncate Fault.Recv (Fault.Frame 0));
    ("recv/stall@f1", Fault.fault Fault.Stall Fault.Recv (Fault.Frame 1));
    ("recv/close@f0", Fault.fault Fault.Close Fault.Recv (Fault.Frame 0));
    ("recv/corrupt@b2", Fault.fault Fault.Corrupt Fault.Recv (Fault.Byte 2)) ]

let fault_matrix () =
  let bytes = Lazy.force hello_bytes in
  let locals = Lazy.force local_results in
  List.iter
    (fun (what, plan) ->
      let svc = Service.of_config Service.default_config in
      let server = Server.create svc in
      let armed = Fault.arm ~metrics:(Service.metrics svc) plan in
      let retry = { Retry.default with Retry.max_attempts = 6 } in
      let client =
        Client.loopback ~retry ~env:(Retry.manual_env ()) ~fault:armed server
      in
      let h = Client.submit client bytes in
      List.iter
        (fun (arch, local) ->
          let remote = Client.run ~engine:(Exec.Target arch) ~sfi:true ~fuel client h in
          check_same_result
            (Printf.sprintf "%s/%s" what (Arch.name arch))
            local remote)
        locals;
      Alcotest.(check int) (what ^ ": fired exactly once") 1
        (Fault.injected armed);
      (* the server is still serving after the storm *)
      Client.ping client)
    matrix_plans

(* A seeded probabilistic plan at a punishing rate: every call still
   either succeeds bit-identically or fails with a typed error. *)
let fault_seeded_matrix () =
  let bytes = Lazy.force hello_bytes in
  let locals = Lazy.force local_results in
  List.iter
    (fun seed ->
      let svc = Service.of_config Service.default_config in
      let server = Server.create svc in
      let armed =
        Fault.arm ~metrics:(Service.metrics svc)
          (Fault.seeded ~seed ~rate:0.2 ())
      in
      let retry = { Retry.default with Retry.max_attempts = 12 } in
      let client =
        Client.loopback ~retry ~env:(Retry.manual_env ()) ~fault:armed server
      in
      let h = Client.submit client bytes in
      List.iter
        (fun (arch, local) ->
          let remote = Client.run ~engine:(Exec.Target arch) ~sfi:true ~fuel client h in
          check_same_result
            (Printf.sprintf "seed=%d/%s" seed (Arch.name arch))
            local remote)
        locals)
    [ 1; 7; 42 ]

(* --- retry policy properties (qcheck) --- *)

exception Boom

let retryable_only = function Boom -> Retry.Retryable | _ -> Retry.Terminal

let gen_policy =
  let open QCheck.Gen in
  let* max_attempts = int_range 1 8
  and* base_ms = int_range 0 100
  and* backoff_c = int_range 100 300
  and* jitter_c = int_range 0 50
  and* deadline_ms = int_range 0 500 in
  return
    {
      Retry.max_attempts;
      base_delay_s = float_of_int base_ms /. 1000.;
      backoff = float_of_int backoff_c /. 100.;
      jitter = float_of_int jitter_c /. 100.;
      deadline_s = float_of_int deadline_ms /. 1000.;
    }

let qcheck_deadline =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"retry: never sleeps past the deadline"
       (QCheck.make gen_policy)
       (fun policy ->
         let env = Retry.manual_env () in
         let start = Clock.now env.Retry.clock in
         (match Retry.run ~env ~classify:retryable_only policy (fun ~attempt:_ -> raise Boom) with
         | () -> false
         | exception Boom ->
             Clock.now env.Retry.clock -. start <= policy.Retry.deadline_s)))

let qcheck_schedule =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"retry: gaps follow the backoff schedule exactly"
       (QCheck.make gen_policy)
       (fun policy ->
         (* jitter off, deadline off: the schedule is the closed form *)
         let policy =
           { policy with Retry.jitter = 0.; deadline_s = infinity }
         in
         let clock = Clock.manual () in
         let sleeps = ref [] in
         let env =
           { Retry.clock;
             sleep =
               (fun s ->
                 sleeps := s :: !sleeps;
                 Clock.advance clock s);
             rand = (fun () -> 0.5) }
         in
         let calls = ref 0 in
         (match Retry.run ~env ~classify:retryable_only policy (fun ~attempt ->
              incr calls;
              Alcotest.(check int) "attempt numbering" !calls attempt;
              raise Boom) with
         | () -> false
         | exception Boom ->
             let expected =
               List.init (policy.Retry.max_attempts - 1) (fun i ->
                   policy.Retry.base_delay_s
                   *. (policy.Retry.backoff ** float_of_int i))
             in
             !calls = policy.Retry.max_attempts
             && List.rev !sleeps = expected)))

let qcheck_terminal_stops =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"retry: terminal errors are never retried"
       (QCheck.make gen_policy)
       (fun policy ->
         let calls = ref 0 in
         match
           Retry.run
             ~env:(Retry.manual_env ())
             ~classify:(fun _ -> Retry.Terminal)
             policy
             (fun ~attempt:_ ->
               incr calls;
               raise Boom)
         with
         | () -> false
         | exception Boom -> !calls = 1))

let retry_unit () =
  (* succeeds on attempt 3 of 5: two sleeps, then the value *)
  let env = Retry.manual_env () in
  let calls = ref 0 in
  let v =
    Retry.run ~env ~classify:retryable_only
      { Retry.default with Retry.max_attempts = 5 }
      (fun ~attempt ->
        incr calls;
        if attempt < 3 then raise Boom else attempt * 10)
  in
  Alcotest.(check int) "value through" 30 v;
  Alcotest.(check int) "three calls" 3 !calls;
  (* on_retry observes each scheduled retry *)
  let seen = ref [] in
  (match
     Retry.run ~env
       ~on_retry:(fun ~attempt ~delay_s:_ _ -> seen := attempt :: !seen)
       ~classify:retryable_only
       { Retry.default with Retry.max_attempts = 3 }
       (fun ~attempt:_ -> raise Boom)
   with
  | () -> Alcotest.fail "always-failing op returned"
  | exception Boom -> ());
  Alcotest.(check (list int)) "retries observed" [ 2; 1 ] !seen;
  (* max_attempts < 1 is a caller bug *)
  match
    Retry.run ~classify:retryable_only
      { Retry.default with Retry.max_attempts = 0 }
      (fun ~attempt:_ -> ())
  with
  | () -> Alcotest.fail "accepted max_attempts = 0"
  | exception Invalid_argument _ -> ()

(* The real environment's deadline is wall time: backoff sleeps (and, in
   a client, blocked reads) use up the budget, though they burn no CPU. *)
let retry_sys_env_deadline () =
  let policy =
    { Retry.max_attempts = 50; base_delay_s = 0.01; backoff = 1.0;
      jitter = 0.0; deadline_s = 0.05 }
  in
  let calls = ref 0 in
  let t0 = Clock.now Clock.monotonic in
  (match
     Retry.run ~env:Retry.sys_env ~classify:Client.classify policy
       (fun ~attempt:_ ->
         incr calls;
         raise Transport.Timeout)
   with
  | () -> Alcotest.fail "always-failing op returned"
  | exception Transport.Timeout -> ());
  let wall = Clock.now Clock.monotonic -. t0 in
  Alcotest.(check bool) (Printf.sprintf "%d attempts <= 6" !calls) true
    (!calls <= 6);
  Alcotest.(check bool) (Printf.sprintf "%.3f s wall < 0.2 s" wall) true
    (wall < 0.2)

let classification () =
  let check what want e =
    Alcotest.(check bool) what true (Client.classify e = want)
  in
  check "connection lost -> retryable" Retry.Retryable
    (Client.Connection_lost "x");
  check "timeout -> retryable" Retry.Retryable Transport.Timeout;
  check "bad frame -> retryable" Retry.Retryable
    (Client.Remote_error (Msg.E_bad_frame, "x"));
  check "econnreset -> retryable" Retry.Retryable
    (Unix.Unix_error (Unix.ECONNRESET, "read", ""));
  check "decode -> terminal" Retry.Terminal
    (Client.Remote_error (Msg.E_decode, "x"));
  check "verifier -> terminal" Retry.Terminal
    (Client.Remote_error (Msg.E_verifier_rejected, "x"));
  check "limit -> terminal" Retry.Terminal
    (Client.Remote_error (Msg.E_limit_exceeded, "x"));
  check "protocol -> terminal" Retry.Terminal (Client.Protocol_error "x");
  check "random exn -> terminal" Retry.Terminal Boom

(* --- admission limits --- *)

let limit_counter svc =
  Metrics.value (Metrics.counter (Service.metrics svc) "net.limit.rejected")

let limits_module_bytes () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.max_module_bytes = 16 }
      svc
  in
  let client = Client.loopback server in
  (match Client.submit client bytes with
  | _ -> Alcotest.fail "oversized module admitted"
  | exception Client.Remote_error (Msg.E_limit_exceeded, _) -> ());
  Alcotest.(check int) "limit rejection counted" 1 (limit_counter svc);
  (* the refusal is terminal: a retrying client does not spin on it *)
  let armed_client =
    Client.loopback
      ~retry:{ Retry.default with Retry.max_attempts = 5 }
      ~env:(Retry.manual_env ()) server
  in
  (match Client.submit armed_client bytes with
  | _ -> Alcotest.fail "oversized module admitted under retry"
  | exception Client.Remote_error (Msg.E_limit_exceeded, _) -> ());
  Alcotest.(check int) "no retry on a limit refusal" 2 (limit_counter svc);
  Client.ping client

let limits_fuel () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.max_fuel = 10 }
      svc
  in
  let client = Client.loopback server in
  let h = Client.submit client bytes in
  (* an explicit ask above the ceiling is refused *)
  (match Client.run ~fuel:1_000_000 client h with
  | _ -> Alcotest.fail "over-ceiling fuel admitted"
  | exception Client.Remote_error (Msg.E_limit_exceeded, _) -> ());
  (* an unfueled request is clamped to the ceiling: it runs out *)
  let r = Client.run client h in
  Alcotest.(check bool) "clamped run exhausts fuel" true
    (r.Exec.outcome = Machine.Out_of_fuel);
  (* an explicit ask below the ceiling is honored *)
  let r = Client.run ~fuel:5 client h in
  Alcotest.(check bool) "small explicit fuel admitted" true
    (r.Exec.outcome = Machine.Out_of_fuel)

let limits_per_conn () =
  let svc = Service.of_config Service.default_config in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.max_requests_per_conn = 2 }
      svc
  in
  (* without retry: the third request on the connection is refused *)
  let client = Client.loopback server in
  Client.ping client;
  Client.ping client;
  (match Client.ping client with
  | () -> Alcotest.fail "request cap not enforced"
  | exception Client.Remote_error (Msg.E_limit_exceeded, _) -> ());
  (* a fresh dial gets a fresh session *)
  let client2 = Client.loopback server in
  Client.ping client2;
  (* byte cap: one big submit blows it *)
  let svc2 = Service.of_config Service.default_config in
  let server2 =
    Server.create
      ~config:{ Server.default_config with Server.max_conn_bytes = 64 }
      svc2
  in
  let client3 = Client.loopback server2 in
  (match Client.submit client3 (Lazy.force hello_bytes) with
  | _ -> Alcotest.fail "byte cap not enforced"
  | exception Client.Remote_error (Msg.E_limit_exceeded, _) -> ());
  Alcotest.(check int) "byte-cap rejection counted" 1 (limit_counter svc2)

(* --- fallback to local execution --- *)

let fallback_local () =
  let bytes = Lazy.force hello_bytes in
  (* a client whose wire is dead on arrival, with a retry policy that
     fails fast under a manual clock *)
  let dead_client () =
    let a, b = Transport.pair ~name:"dead" () in
    Transport.close b;
    Client.of_conn
      ~retry:{ Retry.default with Retry.max_attempts = 2 }
      ~env:(Retry.manual_env ()) a
  in
  (* default `Fail: the transport failure surfaces *)
  (match
     Api.run
       { Api.default_request with
         fuel = Some fuel;
         remote = Some (dead_client ()) }
       (Api.Wire bytes)
   with
  | _ -> Alcotest.fail "dead daemon answered"
  | exception Client.Connection_lost _ -> ());
  (* `Fallback_local: same result as a plain local run, and counted *)
  let reg = Metrics.create () in
  let tracer = Trace.make ~metrics:reg Trace.Null in
  let local =
    Api.run { Api.default_request with fuel = Some fuel } (Api.Wire bytes)
  in
  let degraded =
    Api.run
      { Api.default_request with
        fuel = Some fuel;
        remote = Some (dead_client ());
        on_unreachable = `Fallback_local;
        trace = Some tracer }
      (Api.Wire bytes)
  in
  check_same_result "fallback = local" local degraded;
  Alcotest.(check int) "net.fallback counted" 1
    (Metrics.value (Metrics.counter reg "net.fallback"))

(* --- survival: 1,000 seeded faulty requests --- *)

let survival_1000 () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let reg = Service.metrics svc in
  let tracer = Trace.make ~metrics:reg Trace.Null in
  let server = Server.create ~tracer svc in
  let armed =
    Fault.arm ~metrics:reg (Fault.seeded ~seed:42 ~rate:0.05 ())
  in
  let client =
    Client.loopback
      ~retry:{ Retry.default with Retry.max_attempts = 8 }
      ~env:(Retry.manual_env ()) ~fault:armed server
  in
  let requests = 1000 in
  Trace.with_current tracer (fun () ->
      let h = Client.submit client bytes in
      for i = 1 to requests - 1 do
        if i mod 100 = 0 then
          (* sprinkle real executions among the pings *)
          let r = Client.run ~fuel client h in
          Alcotest.(check int) "run exits 0" 0 r.Exec.exit_code
        else Client.ping client
      done);
  let injected = Fault.injected armed in
  let counter name = Metrics.value (Metrics.counter reg name) in
  (* at rate 0.05 over >= 2000 frames the plan must have fired often *)
  Alcotest.(check bool) "faults actually injected" true (injected >= 20);
  Alcotest.(check int) "injected faults are counted" injected
    (counter "net.fault.injected");
  (* every damaged attempt is retried; one attempt can absorb at most
     the faults of its own request and response *)
  let retries = counter "net.retry" in
  Alcotest.(check bool) "retries happened" true (retries > 0);
  Alcotest.(check bool) "retries <= injected faults" true
    (retries <= injected);
  (* the server answered every surviving attempt: at least one handled
     request per client call, plus the retried duplicates *)
  Alcotest.(check bool) "server handled every request" true
    (counter "net.requests" >= requests);
  Alcotest.(check bool) "server accounted the duplicates" true
    (counter "net.requests" <= requests + retries + injected);
  (* and it is still alive *)
  Client.ping client

let () =
  Alcotest.run "fault"
    [ ("matrix",
       [ Alcotest.test_case "single-fault plans x archs" `Quick fault_matrix;
         Alcotest.test_case "seeded plans x archs" `Quick fault_seeded_matrix ]);
      ("retry",
       [ qcheck_deadline; qcheck_schedule; qcheck_terminal_stops;
         Alcotest.test_case "unit" `Quick retry_unit;
         Alcotest.test_case "sys_env deadline is wall time" `Quick
           retry_sys_env_deadline;
         Alcotest.test_case "classification" `Quick classification ]);
      ("limits",
       [ Alcotest.test_case "module bytes" `Quick limits_module_bytes;
         Alcotest.test_case "fuel ceiling" `Quick limits_fuel;
         Alcotest.test_case "per-connection caps" `Quick limits_per_conn ]);
      ("degrade", [ Alcotest.test_case "fallback local" `Quick fallback_local ]);
      ("survival",
       [ Alcotest.test_case "1000 seeded faulty requests" `Quick survival_1000 ]) ]

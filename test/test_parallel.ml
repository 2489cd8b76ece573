(* The concurrency contract of the serving stack.

   Load-bearing properties:

   - one [Service.t] shared by several domains answers bit-identically
     to a serial run of the same schedule, and its counters add up
     EXACTLY afterwards — every cold miss is one translation of one
     distinct configuration, everything else hits (the per-shard lock is
     held across translate-and-admit, so racing cold misses cannot
     double-translate);
   - the content-addressed store deduplicates concurrent submits of the
     same bytes down to one module;
   - [Workq] is a bounded FIFO whose [try_push] refuses instead of
     blocking, and whose [close] wakes blocked consumers;
   - a full accept queue sheds connections with a typed [E_overloaded]
     response — sent before any request work, counted under
     [net.overloaded], and classified retryable by the client. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Counters = Omni_service.Counters
module Frame = Omni_net.Frame
module Msg = Omni_net.Message
module Transport = Omni_net.Transport
module Server = Omni_net.Server
module Client = Omni_net.Client
module Workq = Omni_net.Workq
module Retry = Omni_net.Retry
module Metrics = Omni_obs.Metrics
module Lcg = Omni_util.Lcg

let fuel = 50_000_000

let hello_src =
  {| int g = 7;
     int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
     int main(void) {
       int i;
       for (i = 0; i < 5; i++) { print_int(f(i + 5) + g); putchar(32); }
       putchar(10);
       return 0; } |}

let loop_src =
  {| int main(void) {
       int i; int s = 0;
       for (i = 0; i < 300; i++) s = s + i * 5;
       print_int(s); putchar(10); return 0; } |}

let hello_bytes = lazy (Api.compile ~name:"hello" hello_src)
let loop_bytes = lazy (Api.compile ~name:"loop" loop_src)
let domains = 4

(* --- workq --- *)

let workq_fifo_bounded () =
  let q = Workq.create ~depth:2 () in
  Alcotest.(check int) "depth" 2 (Workq.depth q);
  Alcotest.(check bool) "push 1" true (Workq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Workq.try_push q 2);
  Alcotest.(check bool) "push 3 refused at depth" false (Workq.try_push q 3);
  Alcotest.(check int) "length" 2 (Workq.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Workq.pop q);
  Alcotest.(check bool) "slot freed" true (Workq.try_push q 3);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Workq.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Workq.pop q);
  Alcotest.(check (option int)) "empty" None (Workq.try_pop q)

let workq_close () =
  let q = Workq.create ~depth:4 () in
  Alcotest.(check bool) "push" true (Workq.try_push q 7);
  Workq.close q;
  Alcotest.(check bool) "closed" true (Workq.closed q);
  Alcotest.(check bool) "push after close" false (Workq.try_push q 8);
  Alcotest.(check (option int)) "pop abandons after close" None (Workq.pop q);
  Alcotest.(check (option int)) "try_pop drains" (Some 7) (Workq.try_pop q);
  Alcotest.(check (option int)) "drained" None (Workq.try_pop q);
  Workq.close q (* idempotent *)

let workq_close_wakes_blocked_pop () =
  let q : int Workq.t = Workq.create ~depth:4 () in
  let consumer = Domain.spawn (fun () -> Workq.pop q) in
  (* the consumer blocks on the empty queue; close must wake it *)
  Unix.sleepf 0.05;
  Workq.close q;
  Alcotest.(check (option int)) "woken with None" None (Domain.join consumer)

(* --- the overloaded error class --- *)

let overloaded_roundtrip () =
  Alcotest.(check int) "code 9" 9 (Msg.err_class_code Msg.E_overloaded);
  Alcotest.(check string) "name" "overloaded"
    (Msg.err_class_name Msg.E_overloaded);
  let fr = Msg.encode_resp (Msg.Error (Msg.E_overloaded, "busy")) in
  match Msg.decode_resp fr with
  | Ok (Msg.Error (Msg.E_overloaded, "busy")) -> ()
  | _ -> Alcotest.fail "E_overloaded did not survive the codec"

let overloaded_is_retryable () =
  let verdict = function Retry.Retryable -> "retryable" | _ -> "terminal" in
  Alcotest.(check string) "overloaded retryable" "retryable"
    (verdict (Client.classify (Client.Remote_error (Msg.E_overloaded, "q"))));
  Alcotest.(check string) "internal terminal" "terminal"
    (verdict (Client.classify (Client.Remote_error (Msg.E_internal, "x"))))

(* --- service hammer: N domains, one service, exact counters --- *)

(* A seeded schedule over (module, arch, sfi). Interp is excluded on
   purpose: with every run translated, the cache arithmetic below is
   exact — misses = distinct configurations, everything else hits. *)
let schedule n =
  let rng = Lcg.create 77 in
  Array.init n (fun _ ->
      ( Lcg.int rng 2,
        List.nth [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ] (Lcg.int rng 4),
        Lcg.int rng 4 > 0 ))

let distinct_configs sched =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace tbl c ()) sched;
  Hashtbl.length tbl

let run_schedule svc handles sched i =
  let m, arch, sfi = sched.(i) in
  Service.instantiate ~engine:(Exec.Target arch) ~sfi ~fuel svc handles.(m)

let check_same i (a : Exec.run_result) (b : Exec.run_result) =
  if
    a.Exec.output <> b.Exec.output
    || a.Exec.exit_code <> b.Exec.exit_code
    || a.Exec.instructions <> b.Exec.instructions
    || a.Exec.cycles <> b.Exec.cycles
  then Alcotest.failf "request %d diverged from the serial reference" i

let hammer_service () =
  let n = 48 in
  let sched = schedule n in
  let bytes = [| Lazy.force hello_bytes; Lazy.force loop_bytes |] in
  (* serial reference on its own service *)
  let ref_svc = Service.of_config Service.default_config in
  let ref_handles = Array.map (Service.submit ref_svc) bytes in
  let reference = Array.init n (run_schedule ref_svc ref_handles sched) in
  (* the shared service, hammered by [domains] domains on a stride *)
  let svc = Service.of_config Service.default_config in
  let handles = Array.map (Service.submit svc) bytes in
  let results = Array.make n None in
  let worker d () =
    let i = ref d in
    while !i < n do
      results.(!i) <- Some (run_schedule svc handles sched !i);
      i := !i + domains
    done
  in
  List.init domains (fun d -> Domain.spawn (worker d))
  |> List.iter Domain.join;
  Array.iteri
    (fun i r ->
      match r with
      | Some r -> check_same i reference.(i) r
      | None -> Alcotest.failf "request %d never ran" i)
    results;
  let configs = distinct_configs sched in
  let c = Service.stats svc in
  Alcotest.(check int) "misses = distinct configs" configs
    c.Counters.s_misses;
  Alcotest.(check int) "translations = misses" configs
    c.Counters.s_translations;
  Alcotest.(check int) "every other admission hit" (n - configs)
    c.Counters.s_hits;
  Alcotest.(check int) "instantiations = requests" n
    c.Counters.s_instantiations;
  Alcotest.(check int) "no admission failures" 0 c.Counters.s_verify_fail

let store_concurrent_dedup () =
  let svc = Service.of_config Service.default_config in
  let bytes = Lazy.force hello_bytes in
  let per_domain = 4 in
  let submitter () =
    for _ = 1 to per_domain do
      ignore (Service.submit svc bytes)
    done
  in
  List.init domains (fun _ -> Domain.spawn submitter)
  |> List.iter Domain.join;
  let c = Service.stats svc in
  Alcotest.(check int) "one module" 1 c.Counters.s_modules;
  Alcotest.(check int) "all submits counted" (domains * per_domain)
    c.Counters.s_submits;
  Alcotest.(check int) "rest deduplicated" ((domains * per_domain) - 1)
    c.Counters.s_dedup_hits;
  Alcotest.(check int) "bytes stored once" (String.length bytes)
    c.Counters.s_bytes_stored

(* --- predecode cache hammer: fast-engine runs share one program --- *)

(* [domains] domains repeatedly run the same two digests on the fast
   engine. The predecode counters must be EXACT: one miss per distinct
   digest (the shard lock is held across compile, so racing first runs
   cannot double-compile), a hit for every other run — and all runs agree
   with a serial interp reference byte-for-byte. *)
let hammer_predecode () =
  let bytes = [| Lazy.force hello_bytes; Lazy.force loop_bytes |] in
  let per_domain = 6 in
  let svc = Service.of_config Service.default_config in
  let handles = Array.map (Service.submit svc) bytes in
  let expected =
    Array.map
      (fun h ->
        (Service.instantiate ~engine:Exec.Interp ~sfi:true ~fuel svc h)
          .Exec.output)
      handles
  in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let m = (d + i) mod 2 in
      let r =
        Service.instantiate ~engine:Exec.Fast ~sfi:true ~fuel svc handles.(m)
      in
      if r.Exec.output <> expected.(m) then
        Alcotest.fail "fast run diverged from interp reference"
    done
  in
  List.init domains (fun d -> Domain.spawn (worker d))
  |> List.iter Domain.join;
  let n = domains * per_domain in
  let c = Service.stats svc in
  Alcotest.(check int) "misses = distinct digests" 2
    c.Counters.s_predecode_misses;
  Alcotest.(check int) "every other run hit" (n - 2)
    c.Counters.s_predecode_hits

(* --- persistent store hammer: 4 domains, mid-run reopen --- *)

(* The same exact-counter discipline as [hammer_service], but over a
   journaled store with a service restart in the middle: phase 1 hammers
   a persistent service (runs racing re-submits on the same shards),
   then the service closes and a second one recovers from the same
   simulated disk and serves phase 2. Every response must match the
   serial non-persistent reference bit for bit, the recovered
   translations must serve warm (witness re-checks, zero re-translations
   of phase-1 configurations), and the persist.* counters must add up
   EXACTLY: appends = modules + distinct certified configurations, and
   the restore path journals nothing. *)
let hammer_persistent_store () =
  let n = 48 in
  let rng = Lcg.create 99 in
  (* sfi stays on so every translation carries a witness and the append
     arithmetic below is exact (uncertified entries are never persisted) *)
  let sched =
    Array.init n (fun _ ->
        ( Lcg.int rng 2,
          List.nth [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]
            (Lcg.int rng 4) ))
  in
  let bytes = [| Lazy.force hello_bytes; Lazy.force loop_bytes |] in
  let half = n / 2 in
  let distinct lo hi =
    let tbl = Hashtbl.create 16 in
    for i = lo to hi - 1 do
      Hashtbl.replace tbl sched.(i) ()
    done;
    tbl
  in
  let d1 = distinct 0 half in
  let fresh2 =
    let tbl = Hashtbl.create 16 in
    for i = half to n - 1 do
      if not (Hashtbl.mem d1 sched.(i)) then Hashtbl.replace tbl sched.(i) ()
    done;
    tbl
  in
  let run svc handles i =
    let m, arch = sched.(i) in
    Service.instantiate ~engine:(Exec.Target arch) ~sfi:true ~fuel svc
      handles.(m)
  in
  (* serial reference on a non-persistent service *)
  let ref_svc = Service.of_config Service.default_config in
  let ref_handles = Array.map (Service.submit ref_svc) bytes in
  let reference = Array.init n (run ref_svc ref_handles) in
  let io = Omni_persist.Io.sim () in
  let persisted =
    { Service.default_config with Service.persist = Some io }
  in
  let results = Array.make n None in
  let hammer svc handles lo hi =
    let worker d () =
      let i = ref (lo + d) in
      while !i < hi do
        (* racing re-submits share shards with the runs; dedup keeps
           them off the journal *)
        ignore (Service.submit svc bytes.(fst sched.(!i)));
        results.(!i) <- Some (run svc handles !i);
        i := !i + domains
      done
    in
    List.init domains (fun d -> Domain.spawn (worker d))
    |> List.iter Domain.join
  in
  let svc1 = Service.of_config persisted in
  let handles1 = Array.map (Service.submit svc1) bytes in
  hammer svc1 handles1 0 half;
  let c1 = Service.stats svc1 in
  Alcotest.(check int) "phase 1 journaled modules + distinct configs"
    (2 + Hashtbl.length d1)
    c1.Counters.s_persist_append;
  Service.close svc1;
  (* mid-run reopen over the same disk *)
  let svc2 = Service.of_config persisted in
  let handles2 = Array.map (Service.submit svc2) bytes in
  hammer svc2 handles2 half n;
  Array.iteri
    (fun i r ->
      match r with
      | Some r -> check_same i reference.(i) r
      | None -> Alcotest.failf "request %d never ran" i)
    results;
  let c2 = Service.stats svc2 in
  Alcotest.(check int) "replayed all of phase 1"
    (2 + Hashtbl.length d1)
    c2.Counters.s_persist_replay;
  Alcotest.(check int) "recovered all of phase 1"
    (2 + Hashtbl.length d1)
    c2.Counters.s_persist_recovered;
  Alcotest.(check int) "quarantined nothing" 0
    c2.Counters.s_persist_quarantined;
  Alcotest.(check int) "tore nothing" 0 c2.Counters.s_persist_torn;
  Alcotest.(check int) "phase 2 journaled only unseen configs"
    (Hashtbl.length fresh2)
    c2.Counters.s_persist_append;
  Alcotest.(check int) "phase 2 translated only unseen configs"
    (Hashtbl.length fresh2)
    c2.Counters.s_translations;
  Alcotest.(check int) "no full-verify fallback on recovered entries" 0
    c2.Counters.s_cert_full_verify;
  Alcotest.(check int) "every warm hit re-checked its witness"
    (n - half - Hashtbl.length fresh2)
    c2.Counters.s_cert_checks

(* --- server dispatch hammer: handle_request from several domains --- *)

let hammer_server_dispatch () =
  let svc = Service.of_config Service.default_config in
  let server = Server.create svc in
  let handle =
    match Server.handle_request server (Msg.Submit (Lazy.force hello_bytes)) with
    | Msg.Submitted d -> d
    | _ -> Alcotest.fail "submit refused"
  in
  let run arch =
    Server.handle_request server
      (Msg.Run
         {
           Msg.rs_handle = handle;
           rs_engine = Exec.Target arch;
           rs_sfi = true;
           rs_mode = Msg.M_default;
           rs_fuel = Some fuel;
           rs_deadline_s = None;
           rs_want_cert = false;
         })
  in
  let expected =
    match run Arch.X86 with
    | Msg.Ran (r, _) -> r.Exec.output
    | _ -> Alcotest.fail "reference run refused"
  in
  let worker () =
    for i = 0 to 23 do
      let arch = if i mod 2 = 0 then Arch.X86 else Arch.Mips in
      match run arch with
      | Msg.Ran (r, _) ->
          if r.Exec.output <> expected then
            Alcotest.fail "concurrent dispatch diverged"
      | _ -> Alcotest.fail "concurrent run refused"
    done
  in
  List.init 2 (fun _ -> Domain.spawn worker) |> List.iter Domain.join

(* --- backpressure: a full queue sheds with a typed refusal --- *)

let read_error_resp conn =
  match Frame.read (Transport.recv conn) with
  | Error e -> Alcotest.failf "no response frame: %s" (Frame.error_to_string e)
  | Ok fr -> (
      match Msg.decode_resp fr with
      | Ok (Msg.Error (cls, msg)) -> (cls, msg)
      | Ok _ -> Alcotest.fail "expected an Error response"
      | Error msg -> Alcotest.failf "undecodable response: %s" msg)

let backpressure_sheds_typed () =
  let reg = Metrics.create () in
  let svc = Service.of_config ~metrics:reg Service.default_config in
  let config =
    { Server.default_config with pool_size = 2; queue_depth = 2 }
  in
  let server = Server.create ~config svc in
  (* no pool_start: the queue stays full, deterministically *)
  let pool = Server.pool_create server in
  let offer () =
    let client_end, server_end = Transport.pair ~name:"bp" () in
    (client_end, Server.pool_offer pool server_end)
  in
  let _, v1 = offer () in
  let _, v2 = offer () in
  let shed_client, v3 = offer () in
  Alcotest.(check bool) "first queued" true (v1 = `Queued);
  Alcotest.(check bool) "second queued" true (v2 = `Queued);
  Alcotest.(check bool) "third shed" true (v3 = `Shed);
  let cls, msg = read_error_resp shed_client in
  Alcotest.(check string) "typed refusal" "overloaded"
    (Msg.err_class_name cls);
  Alcotest.(check bool) "says the queue is full" true
    (String.length msg > 0);
  Alcotest.(check int) "counted under net.overloaded" 1
    (Metrics.value (Metrics.counter reg "net.overloaded"));
  (* stopping an unstarted pool disposes of the queued connections *)
  Server.pool_stop pool;
  let _, v4 = offer () in
  Alcotest.(check bool) "closed pool sheds" true (v4 = `Shed)

(* --- the batch driver --- *)

(* Dealing a batch to several domains changes only its elapsed time:
   request, failure and instruction totals equal the serial batch's. *)
let batch_domains_match_serial () =
  let failing = Api.compile ~name:"fail" "int main(void) { return 3; }" in
  let batch () =
    let svc = Service.of_config Service.default_config in
    let hs =
      List.map (Service.submit svc)
        [ Lazy.force hello_bytes; Lazy.force loop_bytes; failing ]
    in
    let reqs =
      Array.of_list
        (List.concat_map
           (fun h ->
             List.map
               (fun e ->
                 { Service.rq_handle = h; rq_engine = e; rq_sfi = true })
               [ Exec.Interp; Exec.Target Arch.Mips; Exec.Target Arch.X86 ])
           (hs @ hs))
    in
    (svc, reqs)
  in
  let serial =
    let svc, reqs = batch () in
    Service.run_batch ~fuel svc reqs
  in
  let parallel =
    let svc, reqs = batch () in
    Service.run_batch ~fuel ~domains:2 svc reqs
  in
  Alcotest.(check int) "requests" 18 parallel.Service.br_requests;
  Alcotest.(check int) "failures" 6 serial.Service.br_failures;
  Alcotest.(check int) "same failures" serial.Service.br_failures
    parallel.Service.br_failures;
  Alcotest.(check int) "same instructions" serial.Service.br_instructions
    parallel.Service.br_instructions

let () =
  Alcotest.run "parallel"
    [ ("workq",
       [ Alcotest.test_case "bounded fifo" `Quick workq_fifo_bounded;
         Alcotest.test_case "close semantics" `Quick workq_close;
         Alcotest.test_case "close wakes blocked pop" `Quick
           workq_close_wakes_blocked_pop ]);
      ("overloaded",
       [ Alcotest.test_case "codec roundtrip + code" `Quick
           overloaded_roundtrip;
         Alcotest.test_case "retry classification" `Quick
           overloaded_is_retryable ]);
      ("hammer",
       [ Alcotest.test_case "shared service, 4 domains" `Quick hammer_service;
         Alcotest.test_case "concurrent store dedup" `Quick
           store_concurrent_dedup;
         Alcotest.test_case "predecode cache, 4 domains" `Quick
           hammer_predecode;
         Alcotest.test_case "persistent store, 4 domains + reopen" `Quick
           hammer_persistent_store;
         Alcotest.test_case "server dispatch, 2 domains" `Quick
           hammer_server_dispatch ]);
      ("batch",
       [ Alcotest.test_case "2 domains = serial totals" `Quick
           batch_domains_match_serial ]);
      ("backpressure",
       [ Alcotest.test_case "full queue sheds typed" `Quick
           backpressure_sheds_typed ]) ]

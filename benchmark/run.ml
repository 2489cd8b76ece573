(* One benchmark run of one workload: set-up, the untraced closed loop
   that yields the end-to-end metrics, and the traced replay that yields
   the per-layer ledger. Every timing is read from one monotonic clock. *)

module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Store = Omni_service.Store
module Counters = Omni_service.Counters
module Client = Omni_net.Client
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* --- the metric catalogue (BENCHMARK.json lists the same names) --- *)

let end_to_end =
  [ ("setup_s", "s");
    ("req_per_s", "req/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("server_peak_rss_mb", "MiB");
    ("sfi_cycles_ratio", "x") ]

let engine_names = List.map Exec.engine_name Inputs.engines

let layer_spans =
  [ "net.encode"; "net.decode"; "store.submit"; "store.lookup"; "cache.hit";
    "cache.miss"; "runtime.load" ]
  @ List.map (fun e -> "exec.run." ^ e) engine_names

let per_layer =
  List.concat_map
    (fun s ->
      [ (s ^ ".p50_us", "us"); (s ^ ".mean_us", "us"); (s ^ ".share", "fraction") ])
    layer_spans
  @ [ ("request.p50_us", "us");
      ("request.mean_us", "us");
      ("net.rtt_us", "us");
      ("targets.translate_us", "us");
      ("cert.certify_us", "us");
      ("cache.hit_ratio", "fraction");
      ("cache.evictions_per_req", "count/req");
      ("net.bytes_per_req", "bytes/req") ]
  @ List.map (fun e -> ("exec.instr_per_req." ^ e, "instr/req")) engine_names
  @ List.map
      (fun a -> ("exec.cycles_per_req." ^ Arch.name a, "cycles/req"))
      Inputs.archs
  @ List.map (fun e -> ("exec.ns_per_instr." ^ e, "ns/instr")) engine_names
  @ [ ("gc.major_words_per_req", "words/req");
      ("gc.major_collections_per_req", "count/req");
      ("ledger.coverage", "fraction");
      ("trace.overhead", "x") ]

(* --- outcome bookkeeping --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies_ms : float list;  (** of the requests that succeeded *)
  mutable busy_ns : int;  (** wall time spent inside measured passes *)
  mutable peaks_mb : float list;
      (** VmHWM of the process hosting the service, after each pass *)
  sfi_cycles : (int * Arch.t, int) Hashtbl.t;  (** per (module, arch) *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    latencies_ms = [];
    busy_ns = 0;
    peaks_mb = [];
    sfi_cycles = Hashtbl.create 64;
  }

(* A mismatch, a typed error or an exception fails the request; the first
   five of the process are reported and the run carries on. *)
let reported = ref 0

let failure t what msg =
  t.failed <- t.failed + 1;
  incr reported;
  if !reported <= 5 then Printf.eprintf "omnibench: %s: %s\n%!" what msg

(* Run one request under [f] and check its result against the oracle;
   returns the elapsed ns and the result when the request succeeded. *)
let attempt t (inputs : Inputs.t) (rq : Inputs.request) f =
  let m = inputs.modules.(rq.m) in
  let what = m.name ^ " on " ^ Exec.engine_name rq.engine in
  t.attempted <- t.attempted + 1;
  let t0 = now_ns () in
  match f () with
  | exception (Sys.Break as e) -> raise e
  | exception e ->
      failure t what (Printexc.to_string e);
      None
  | (r : Exec.run_result) ->
      let dt = now_ns () - t0 in
      if not (String.equal r.output m.output) then (
        failure t what "output differs from the oracle's";
        None)
      else if r.exit_code <> m.exit_code then (
        failure t what
          (Printf.sprintf "exit %d, oracle %d" r.exit_code m.exit_code);
        None)
      else (
        (match rq.engine with
        | Exec.Target a -> Hashtbl.replace t.sfi_cycles (rq.m, a) r.cycles
        | Exec.Interp | Exec.Fast -> ());
        Some (dt, r))

(* One untraced pass: every request timed and checked, then a reading of
   the peak memory of the process hosting the service. *)
let timed_pass t inputs reqs ~call ~peak_mb =
  let t0 = now_ns () in
  Array.iter
    (fun rq ->
      match attempt t inputs rq (fun () -> call rq) with
      | Some (dt, _) ->
          t.latencies_ms <- (float_of_int dt *. 1e-6) :: t.latencies_ms
      | None -> ())
    reqs;
  t.busy_ns <- t.busy_ns + (now_ns () - t0);
  t.peaks_mb <- peak_mb () :: t.peaks_mb

(* --- sessions: how a workload reaches the system --- *)

type session = {
  pass : tally -> Inputs.request array -> unit;
      (** one untraced pass of the closed loop *)
  rtt_us : unit -> float;  (** p50 of 1000 pings; 0 with no daemon *)
}

let pings (d : Daemon.t) =
  Stats.median
    (List.init 1000 (fun _ ->
         let t0 = now_ns () in
         Client.ping d.client;
         float_of_int (now_ns () - t0) *. 1e-3))

let peak_of (d : Daemon.t) = Daemon.peak_rss_mb (string_of_int d.pid)

(* One long-lived omnid; modules submitted once, then Run only. *)
let warm_wire (inputs : Inputs.t) k =
  Daemon.with_daemon (fun d ->
      let handles =
        Array.map (fun (m : Inputs.modul) -> Client.submit d.client m.wire)
          inputs.modules
      in
      k
        {
          pass =
            (fun t reqs ->
              timed_pass t inputs reqs ~peak_mb:(fun () -> peak_of d)
                ~call:(fun (rq : Inputs.request) ->
                  Client.run ~engine:rq.engine ~sfi:true d.client handles.(rq.m)));
          rtt_us = (fun () -> pings d);
        })

(* A fresh omnid per pass, so every Submit+Run is cold and every pass does
   the same work however many passes fit in the run. *)
let cold_wire (inputs : Inputs.t) k =
  k
    {
      pass =
        (fun t reqs ->
          Daemon.with_daemon (fun d ->
              timed_pass t inputs reqs ~peak_mb:(fun () -> peak_of d)
                ~call:(fun (rq : Inputs.request) ->
                  let h = Client.submit d.client inputs.modules.(rq.m).wire in
                  Client.run ~engine:rq.engine ~sfi:true d.client h)));
      rtt_us = (fun () -> Daemon.with_daemon pings);
    }

(* The service in this process, called directly: no protocol at all. *)
let inproc (inputs : Inputs.t) k =
  let svc = Service.of_config Service.default_config in
  let handles =
    Array.map (fun (m : Inputs.modul) -> Service.submit svc m.wire)
      inputs.modules
  in
  k
    {
      pass =
        (fun t reqs ->
          timed_pass t inputs reqs
            ~peak_mb:(fun () -> Daemon.peak_rss_mb "self")
            ~call:(fun (rq : Inputs.request) ->
              Service.instantiate ~engine:rq.engine ~sfi:true svc handles.(rq.m)));
      rtt_us = (fun () -> 0.);
    }

(* --- the workloads --- *)

type workload = {
  name : string;
  inputs : smoke:bool -> seed:int -> Inputs.t;
  session : 'a. Inputs.t -> (session -> 'a) -> 'a;
  warmup : Inputs.request array -> Inputs.request array;
      (** the part of the requests the warm-up runs, in canonical order:
          the first requests a daemon serves set its peak memory, so their
          order must not depend on the seed *)
  wire : bool;  (** the replay crosses the protocol codec *)
  cold : bool;  (** every request submits a new module to a fresh store *)
}

let workloads =
  [ {
      name = "tiny-wire";
      inputs = (fun ~smoke:_ ~seed -> Inputs.tiny ~seed);
      session = warm_wire;
      warmup = Fun.id;
      wire = true;
      cold = false;
    };
    {
      name = "cold-wire";
      inputs =
        (fun ~smoke ~seed -> Inputs.cold ~seed ~n:(if smoke then 20 else 320));
      session = cold_wire;
      warmup = (fun p -> Array.sub p 0 (min 32 (Array.length p)));
      wire = true;
      cold = true;
    };
    {
      name = "spec-inproc";
      inputs = (fun ~smoke:_ ~seed -> Inputs.spec ~seed);
      session = inproc;
      warmup = Fun.id;
      wire = false;
      cold = false;
    } ]

(* --- set-up --- *)

(* Simulated cycles of the native-cc baseline (unsandboxed, every
   translator optimization) for each (module, arch) the pass runs. *)
let native_cycles (inputs : Inputs.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (rq : Inputs.request) ->
      match rq.engine with
      | Exec.Target arch when not (Hashtbl.mem tbl (rq.m, arch)) ->
          let m = inputs.modules.(rq.m) in
          let exe = Omnivm.Wire.decode m.wire in
          let tr =
            Exec.translate ~mode:(Machine.Native Machine.Cc)
              ~opts:Machine.all_opts arch exe
          in
          let r = Exec.run_translated tr (Exec.load exe) in
          if r.output <> m.output || r.exit_code <> m.exit_code then
            failwith
              (Printf.sprintf "%s: the native-cc baseline on %s disagrees with \
                               the oracle" m.name (Arch.name arch));
          Hashtbl.replace tbl (rq.m, arch) r.cycles
      | _ -> ())
    inputs.requests;
  tbl

(* Set up [reps] times and hand the last set-up to [k] with the median
   set-up time. One set-up: make the inputs and their oracle outputs,
   compute the native baselines, reach the system, submit, and run one
   untimed warm-up pass. *)
let with_setup w ~smoke ~seed ~reps k =
  let once k =
    let t0 = now_ns () in
    let inputs = w.inputs ~smoke ~seed in
    let natives = native_cycles inputs in
    w.session inputs (fun s ->
        s.pass (tally ()) (w.warmup inputs.requests);
        k inputs natives s (since t0))
  in
  let earlier = List.init (reps - 1) (fun _ -> once (fun _ _ _ dt -> dt)) in
  once (fun inputs natives s dt ->
      k inputs natives s (Stats.median (dt :: earlier)))

(* --- the untraced closed loop --- *)

(* Whole passes until [seconds] have elapsed (at least one), so every run
   measures the same request mix. *)
let measure s (inputs : Inputs.t) ~seconds t =
  let t0 = now_ns () in
  let rec go k =
    s.pass t (Inputs.pass inputs k);
    if since t0 < seconds then go (k + 1)
  in
  go 1

let sfi_cycles_ratio natives sfi =
  Stats.geomean
    (Hashtbl.fold
       (fun key native acc ->
         match Hashtbl.find_opt sfi key with
         | Some c -> (float_of_int c /. float_of_int native) :: acc
         | None -> acc)
       natives [])

let end_to_end_values t ~setup_s ~natives =
  let lat = t.latencies_ms in
  [ ("setup_s", setup_s);
    ( "req_per_s",
      Stats.ratio (float_of_int (List.length lat)) (float_of_int t.busy_ns *. 1e-9) );
    ("latency_p50_ms", Stats.percentile ~pct:50 lat);
    ("latency_p95_ms", Stats.percentile ~pct:95 lat);
    (* a fresh daemon per pass gives one peak per pass; a long-lived host
       gives its running peak, which a median reads mid-run *)
    ("server_peak_rss_mb", Stats.median t.peaks_mb);
    ("sfi_cycles_ratio", sfi_cycles_ratio natives t.sfi_cycles) ]

(* --- the traced replay --- *)

type exec_totals = { mutable reqs : int; mutable instr : int; mutable cycles : int }

type trace = {
  led : Ledger.t;
  counters : Counters.t;
  mutable requests : int;
  mutable bytes : int;
  mutable translate_us : float list;
  mutable certify_us : float list;
  mutable gc_words : float;
  mutable gc_collections : int;
  per_engine : (string, exec_totals) Hashtbl.t;
}

(* The load-time work a cache miss does, re-run outside the request on
   the same module: it splits [cache.miss] into translation and
   certification. *)
let time_translation tr (st : Replay.t) h arch =
  let mode, opts = Replay.sandboxed arch in
  let exe = Store.exe st.store h in
  let t0 = now_ns () in
  let p = Exec.translate ~mode ~opts arch exe in
  let t1 = now_ns () in
  ignore (Exec.certify ~module_digest:(Store.digest h) ~mode ~opts p);
  let t2 = now_ns () in
  tr.translate_us <- (float_of_int (t1 - t0) *. 1e-3) :: tr.translate_us;
  tr.certify_us <- (float_of_int (t2 - t1) *. 1e-3) :: tr.certify_us

let traced_request tr t (inputs : Inputs.t) (st : Replay.t) handle
    (rq : Inputs.request) =
  let g0 = Gc.quick_stat () in
  let h = ref None in
  let ok =
    attempt t inputs rq (fun () ->
        Ledger.request tr.led (fun () ->
            let hd =
              match handle with
              | Some hd -> hd
              | None -> Replay.submit st inputs.modules.(rq.m).wire
            in
            h := Some hd;
            Replay.run st hd rq.engine))
  in
  let g1 = Gc.quick_stat () in
  tr.requests <- tr.requests + 1;
  tr.gc_words <- tr.gc_words +. (g1.major_words -. g0.major_words);
  tr.gc_collections <-
    tr.gc_collections + (g1.major_collections - g0.major_collections);
  match (ok, !h) with
  | Some (_, r), Some hd ->
      let e = Exec.engine_name rq.engine in
      let x =
        match Hashtbl.find_opt tr.per_engine e with
        | Some x -> x
        | None ->
            let x = { reqs = 0; instr = 0; cycles = 0 } in
            Hashtbl.replace tr.per_engine e x;
            x
      in
      x.reqs <- x.reqs + 1;
      x.instr <- x.instr + r.Exec.instructions;
      x.cycles <- x.cycles + r.Exec.cycles;
      (match rq.engine with
      | Exec.Target arch -> time_translation tr st hd arch
      | Exec.Interp | Exec.Fast -> ())
  | _ -> ()

(* Replay the pass in-process for [seconds] (at least one pass). Warm
   workloads submit once and prime the cache and pre-decoded programs
   outside any request, as the daemon's warm-up pass did; cold ones use a
   fresh store and cache per pass, as the daemon side does. *)
let replay w (inputs : Inputs.t) ~seconds t =
  let tr =
    {
      led = Ledger.create now_ns;
      counters = Counters.create ();
      requests = 0;
      bytes = 0;
      translate_us = [];
      certify_us = [];
      gc_words = 0.;
      gc_collections = 0;
      per_engine = Hashtbl.create 8;
    }
  in
  let fresh () = Replay.create ~wire:w.wire ~counters:tr.counters tr.led in
  let shared =
    if w.cold then None
    else
      let st = fresh () in
      let handles =
        Array.map (fun (m : Inputs.modul) -> Store.submit st.store m.wire)
          inputs.modules
      in
      Array.iter
        (fun (rq : Inputs.request) -> Replay.prime st handles.(rq.m) rq.engine)
        inputs.requests;
      Some (st, handles)
  in
  Counters.reset tr.counters;
  let t0 = now_ns () in
  let rec go k =
    let st = match shared with Some (st, _) -> st | None -> fresh () in
    let bytes0 = st.bytes in
    Array.iter
      (fun (rq : Inputs.request) ->
        let handle = Option.map (fun (_, hs) -> hs.(rq.m)) shared in
        traced_request tr t inputs st handle rq)
      (Inputs.pass inputs k);
    tr.bytes <- tr.bytes + (st.bytes - bytes0);
    if since t0 < seconds then go (k + 1)
  in
  go 1;
  tr

let per_layer_values tr ~untraced_p50_ms ~rtt_us =
  let c = Counters.snapshot tr.counters in
  let agg = Ledger.summarize (Ledger.spans tr.led) in
  let durations name =
    match Hashtbl.find_opt agg name with
    | Some a -> a.Ledger.durations
    | None -> []
  in
  let self name =
    match Hashtbl.find_opt agg name with
    | Some a -> float_of_int a.Ledger.self_ns
    | None -> 0.
  in
  let request_ns = Stats.sum (durations "request") in
  let span_values s =
    [ (s ^ ".p50_us", Stats.median (durations s) *. 1e-3);
      (s ^ ".mean_us", Stats.mean (durations s) *. 1e-3);
      (s ^ ".share", Stats.ratio (self s) request_ns) ]
  in
  let n = float_of_int tr.requests in
  let engine e = Hashtbl.find_opt tr.per_engine e in
  let per_req e f =
    match engine e with
    | Some x -> Stats.ratio (float_of_int (f x)) (float_of_int x.reqs)
    | None -> 0.
  in
  let request_p50_ms = Stats.median (durations "request") *. 1e-6 in
  List.concat_map span_values layer_spans
  @ [ ("request.p50_us", request_p50_ms *. 1e3);
      ("request.mean_us", Stats.mean (durations "request") *. 1e-3);
      ("net.rtt_us", rtt_us);
      ("targets.translate_us", Stats.median tr.translate_us);
      ("cert.certify_us", Stats.median tr.certify_us);
      ( "cache.hit_ratio",
        Stats.ratio (float_of_int c.s_hits) (float_of_int (c.s_hits + c.s_misses)) );
      ("cache.evictions_per_req", Stats.ratio (float_of_int c.s_evictions) n);
      ("net.bytes_per_req", Stats.ratio (float_of_int tr.bytes) n) ]
  @ List.map (fun e -> ("exec.instr_per_req." ^ e, per_req e (fun x -> x.instr)))
      engine_names
  @ List.map
      (fun a ->
        let e = Arch.name a in
        ("exec.cycles_per_req." ^ e, per_req e (fun x -> x.cycles)))
      Inputs.archs
  @ List.map
      (fun e ->
        ( "exec.ns_per_instr." ^ e,
          match engine e with
          | Some x ->
              Stats.ratio (Stats.sum (durations ("exec.run." ^ e)))
                (float_of_int x.instr)
          | None -> 0. ))
      engine_names
  @ [ ("gc.major_words_per_req", Stats.ratio tr.gc_words n);
      ( "gc.major_collections_per_req",
        Stats.ratio (float_of_int tr.gc_collections) n );
      ("ledger.coverage", 1. -. Stats.ratio (self "request") request_ns);
      ("trace.overhead", Stats.ratio request_p50_ms untraced_p50_ms) ]

let write_spans path led =
  Daemon.ensure_out_dir ();
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Ledger.json_line s);
          output_char oc '\n')
        (Ledger.spans led))

(* --- one run --- *)

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list option;  (** with tracing only *)
}

(* With tracing, the untraced loop and the replay each get half of
   [seconds]. A smoke run sets up once and runs single passes. *)
let run w ~seed ~seconds ~traced ~smoke =
  let reps = if smoke then 1 else 3 in
  with_setup w ~smoke ~seed ~reps (fun inputs natives s setup_s ->
      Printf.printf "omnibench: %s seed %d schedule_digest %s\n%!" w.name seed
        (Inputs.digest inputs);
      let t = tally () in
      let share = if traced then seconds /. 2. else seconds in
      measure s inputs ~seconds:share t;
      let e2e = end_to_end_values t ~setup_s ~natives in
      let n = List.length t.latencies_ms in
      Printf.printf "omnibench: %d latency samples, %d beyond p95%s\n%!" n
        (Stats.beyond ~pct:95 n)
        (if Stats.supported ~pct:95 n then ""
         else " (fewer than 10: p95 is not resolved)");
      let layers =
        if not traced then None
        else
          let rtt_us = s.rtt_us () in
          let tr = replay w inputs ~seconds:share t in
          write_spans
            (Filename.concat Daemon.out_dir
               (Printf.sprintf "%s-seed%d.spans.jsonl" w.name seed))
            tr.led;
          Some
            (per_layer_values tr ~untraced_p50_ms:(List.assoc "latency_p50_ms" e2e)
               ~rtt_us)
      in
      { attempted = t.attempted; failed = t.failed; e2e; layers })

(* The result line: every metric of [catalogue], in order, with its unit.
   Values are printed with all their digits. *)
let result_line ~catalogue r values =
  let metric (name, unit) =
    let v = List.assoc name values in
    if not (Float.is_finite v) then failwith (name ^ " is not a finite number");
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric catalogue))

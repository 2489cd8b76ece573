module Machine = Omni_targets.Machine
module Metrics = Omni_obs.Metrics
module Trace = Omni_obs.Trace

type config = {
  cache_capacity : int;
  quarantine : Supervise.Quarantine.config option;
  deadline_s : float option;
  watchdog_poll : int option;
  on_crash : (Supervise.report -> unit) option;
  persist : Omni_persist.Io.t option;
}

let default_config =
  {
    cache_capacity = 256;
    quarantine = None;
    deadline_s = None;
    watchdog_poll = None;
    on_crash = None;
    persist = None;
  }

type t = {
  store : Store.t;
  cache : Cache.t;
  c : Counters.t;
  quarantine : Supervise.Quarantine.t option;
  deadline_s : float option; (* default wall-clock budget per run *)
  watchdog_poll : int option;
  clock : Omni_util.Clock.t; (* drives watchdog deadlines *)
  on_crash : (Supervise.report -> unit) option;
  persist : Omni_persist.Store.t option;
  recovery : Omni_persist.Store.recovered option;
}

let of_config ?metrics ?(clock = Omni_util.Clock.monotonic) (cfg : config) =
  let c = Counters.create ?metrics () in
  (* Open the journal (running total recovery) before the in-memory
     layers exist, then replay the proven survivors into them through
     the restore paths — which count no client traffic and never
     re-journal. Modules go first: translations reference them. *)
  let persist, recovery =
    match cfg.persist with
    | None -> (None, None)
    | Some io ->
        let p, r = Omni_persist.Store.open_ ~metrics:(Counters.metrics c) io in
        (Some p, Some r)
  in
  let store = Store.create ~counters:c ?persist () in
  let cache = Cache.create ~capacity:cfg.cache_capacity ?persist c in
  (match recovery with
  | None -> ()
  | Some r ->
      List.iter
        (fun bytes -> ignore (Store.restore store bytes))
        r.Omni_persist.Store.r_modules;
      List.iter (Cache.restore cache) r.Omni_persist.Store.r_translations);
  {
    store;
    cache;
    c;
    quarantine = Option.map Supervise.Quarantine.create cfg.quarantine;
    deadline_s = cfg.deadline_s;
    watchdog_poll = cfg.watchdog_poll;
    clock;
    on_crash = cfg.on_crash;
    persist;
    recovery;
  }

let recovery t = t.recovery

let close t =
  match t.persist with
  | None -> ()
  | Some p ->
      Omni_persist.Store.flush p;
      Omni_persist.Store.close p

let submit ?producer t bytes = Store.submit ?producer t.store bytes
let find t digest = Store.find t.store digest
let metrics t = Counters.metrics t.c

let clear_quarantine t digest =
  match t.quarantine with
  | None -> false
  | Some q ->
      let cleared = Supervise.Quarantine.clear q digest in
      if cleared then Metrics.incr t.c.Counters.quarantine_cleared;
      cleared

let quarantined t =
  match t.quarantine with
  | None -> []
  | Some q -> Supervise.Quarantine.active q

(* Post-run supervision: count and report the crash, feed the quarantine.
   The quarantine is fed every outcome (clean exits reset strikes); the
   crash report is only materialized when someone will read it. *)
let supervise_result t h ~engine ~sfi ?mode ?fuel (res : Exec.run_result) =
  let digest = Store.digest h in
  (match res.Exec.outcome with
  | Machine.Faulted f ->
      Metrics.incr t.c.Counters.crash_reports;
      if f = Omnivm.Fault.Deadline_exceeded then
        Metrics.incr t.c.Counters.deadline_exceeded;
      (match t.on_crash with
      | None -> ()
      | Some k -> (
          match
            Supervise.of_run ~engine ~sfi ?mode
              ?producer:(Store.producer t.store h)
              ?fuel ~wire:(Store.bytes t.store h) res
          with
          | Some report -> k report
          | None -> ()))
  | Machine.Exited _ | Machine.Out_of_fuel -> ());
  (match t.quarantine with
  | None -> ()
  | Some q ->
      if Supervise.Quarantine.note q digest res.Exec.outcome then
        Metrics.incr t.c.Counters.quarantine_trips);
  res

let instantiate ?(engine = Exec.Interp) ?(sfi = true) ?mode ?opts ?fuel
    ?deadline_s t h =
  (* Gate on the quarantine before any translation or instantiation work:
     a refused request must cost nothing but this table lookup. *)
  (match t.quarantine with
  | None -> ()
  | Some q -> (
      try Supervise.Quarantine.check q (Store.digest h)
      with Supervise.Quarantine.Quarantined _ as e ->
        Metrics.incr t.c.Counters.quarantine_refused;
        raise e));
  let watchdog =
    match (deadline_s, t.deadline_s) with
    | None, None -> None
    | Some b, _ | None, Some b ->
        Some
          (Omnivm.Watchdog.make ?poll_every:t.watchdog_poll ~clock:t.clock
             ~budget_s:b ())
  in
  let img = Omni_runtime.Loader.instantiate (Store.blueprint t.store h) in
  Metrics.incr t.c.Counters.instantiations;
  (* The image never leaves this function: once the result holds copies
     of what it needs (output, crash window), its pages go back to the
     domain's free list for the next request. *)
  let res =
    Fun.protect
      ~finally:(fun () -> Omnivm.Memory.release img.Omni_runtime.Loader.mem)
    @@ fun () ->
    match engine with
    | Exec.Interp -> Exec.run_interp ?fuel ?watchdog img
    | Exec.Fast ->
        Exec.run_fast ?fuel ?watchdog
          ~program:(Store.predecoded t.store h)
          img
    | Exec.Target arch ->
        let mode, opts = Exec.resolve ~sfi ?mode ?opts arch in
        let key = Cache.key ~digest:(Store.digest h) ~arch ~mode ~opts in
        let tr =
          Cache.find_or_translate t.cache key img.Omni_runtime.Loader.exe
        in
        Exec.run_translated ?fuel ?watchdog tr img
  in
  supervise_result t h ~engine ~sfi ?mode ?fuel res

let cached ?sfi ?mode ?opts ~arch t h =
  let mode, opts = Exec.resolve ?sfi ?mode ?opts arch in
  Cache.peek t.cache (Cache.key ~digest:(Store.digest h) ~arch ~mode ~opts)

let certificate ?sfi ?mode ?opts ~arch t h =
  match cached ?sfi ?mode ?opts ~arch t h with
  | Some e -> e.Cache.cert
  | None -> None

let stats t = Counters.snapshot t.c

type request = {
  rq_handle : Store.handle;
  rq_engine : Exec.engine;
  rq_sfi : bool;
}

type batch_report = {
  br_requests : int;
  br_failures : int;
  br_instructions : int;
  br_elapsed_s : float;
  br_rps : float;
}

(* Requests are dealt round-robin to [domains] workers, all driving this
   one shared service. Elapsed time is monotonic wall time: CPU seconds
   sum across domains and would overstate the cost of a parallel batch. *)
let run_batch ?fuel ?(domains = 1) t (reqs : request array) : batch_report =
  let n = max 1 domains in
  let drive d () =
    let failures = ref 0 and instructions = ref 0 in
    Array.iteri
      (fun i r ->
        if i mod n = d then begin
          let res =
            instantiate ~engine:r.rq_engine ~sfi:r.rq_sfi ?fuel t r.rq_handle
          in
          if res.Exec.exit_code <> 0 then incr failures;
          instructions := !instructions + res.Exec.instructions
        end)
      reqs;
    (!failures, !instructions)
  in
  let now () = Omni_util.Clock.(now monotonic) in
  let t0 = now () in
  let totals =
    if n = 1 then [ drive 0 () ]
    else List.map Domain.join (List.init n (fun d -> Domain.spawn (drive d)))
  in
  let dt = now () -. t0 in
  let requests = Array.length reqs in
  {
    br_requests = requests;
    br_failures = List.fold_left (fun a (f, _) -> a + f) 0 totals;
    br_instructions = List.fold_left (fun a (_, i) -> a + i) 0 totals;
    br_elapsed_s = dt;
    br_rps = (if dt > 0.0 then float_of_int requests /. dt else 0.0);
  }

let render_batch r =
  Printf.sprintf
    "batch: %d requests (%d failed), %d simulated instructions, %.3fs wall, \
     %.1f req/s\n"
    r.br_requests r.br_failures r.br_instructions r.br_elapsed_s r.br_rps

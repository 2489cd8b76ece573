(* omnid: the mobile-code distribution daemon.

     omnid --socket PATH | --port N [--host ADDR]
           [--cache-capacity N] [--max-frame BYTES] [--timeout SECS]
           [--max-module-bytes N] [--max-fuel N]
           [--max-requests-per-conn N] [--max-conn-bytes N]
           [--deadline SECS] [--max-deadline SECS]
           [--quarantine N] [--quarantine-ttl SECS] [--require-cert]
           [--pool N] [--queue-depth N] [--fair-slice N]
           [--store-dir DIR]
           [--metrics] [--trace | --trace-file FILE] [--once]

   Listens on a Unix-domain socket (--socket) or TCP (--port), and
   serves the frame protocol: Ping, Submit (wire bytes -> content
   handle), Run (handle x engine/sfi/mode/fuel -> full run result),
   Stats (service counters as JSON). Every module is untrusted input:
   malformed frames, malformed modules, unknown handles, and SFI
   verifier refusals all come back as typed Error responses; the daemon
   keeps serving.

   --pool N serves with N worker domains draining a bounded accept
   queue (--queue-depth); when the queue is full new connections are
   refused with a typed "overloaded" error clients retry with backoff.
   --fair-slice bounds how many requests one connection can hold a
   worker before it is parked behind waiting connections.

   --store-dir DIR journals every submitted module and the omni-cert/1
   certificate of every certified translation to a crash-safe on-disk
   store (Omni_persist): a restart replays the journal, translates each
   journaled configuration once from its recovered module, proves the
   code against its certificate, and serves warm from the first
   request, with no translation. The store is the one digest index, so
   a Run of a recovered digest needs no resubmit, and a client's
   retried Run still succeeds. SIGTERM and SIGINT drain gracefully:
   stop accepting, finish in-flight pool work, flush the journal, and
   commit the clean-shutdown marker so the next start skips the
   per-instruction witness check. kill -9 gets no marker — recovery
   then re-checks everything and quarantines anything that lies.

   --metrics dumps the full metrics registry (net.* counters, serving
   counters, per-phase timings) to stderr on exit.
   --once exits after the first connection closes (for smoke tests;
   forces the serial --pool 1 path). *)

module Service = Omni_service.Service
module Net = Omni_net
module Metrics = Omni_obs.Metrics
module Trace = Omni_obs.Trace

let () =
  let socket = ref "" in
  let port = ref 0 in
  let host = ref "127.0.0.1" in
  let cache_capacity = ref 256 in
  let max_frame = ref Net.Frame.max_payload in
  let timeout = ref 30.0 in
  let max_module_bytes = ref 0 in
  let max_fuel = ref 0 in
  let max_requests_per_conn = ref 0 in
  let max_conn_bytes = ref 0 in
  let deadline = ref 0.0 in
  let max_deadline = ref 0.0 in
  let quarantine = ref 0 in
  let quarantine_ttl = ref 300.0 in
  let require_cert = ref false in
  let pool = ref 1 in
  let queue_depth = ref Net.Server.default_config.Net.Server.queue_depth in
  let fair_slice = ref Net.Server.default_config.Net.Server.fair_slice in
  let store_dir = ref "" in
  let metrics_dump = ref false in
  let trace_file = ref "" in
  let trace_flag = ref false in
  let once = ref false in
  let spec =
    [ ("--socket", Arg.Set_string socket, "PATH listen on a Unix-domain socket");
      ("--port", Arg.Set_int port, "N listen on TCP port N");
      ("--host", Arg.Set_string host,
       "ADDR TCP interface to bind (default 127.0.0.1)");
      ("--cache-capacity", Arg.Set_int cache_capacity,
       "N translation-cache capacity; 0 disables caching (default 256)");
      ("--max-frame", Arg.Set_int max_frame,
       Printf.sprintf "BYTES frame payload cap (default %d)"
         Net.Frame.max_payload);
      ("--timeout", Arg.Set_float timeout,
       " per-request read timeout in seconds; 0 disables (default 30)");
      ("--max-module-bytes", Arg.Set_int max_module_bytes,
       "N largest module a Submit may carry; 0 = unlimited (default)");
      ("--max-fuel", Arg.Set_int max_fuel,
       "N fuel ceiling per Run; 0 = unlimited (default)");
      ("--max-requests-per-conn", Arg.Set_int max_requests_per_conn,
       "N requests admitted per connection; 0 = unlimited (default)");
      ("--max-conn-bytes", Arg.Set_int max_conn_bytes,
       "N frame bytes admitted per connection; 0 = unlimited (default)");
      ("--deadline", Arg.Set_float deadline,
       "SECS default wall-clock budget per run; 0 = none (default)");
      ("--max-deadline", Arg.Set_float max_deadline,
       "SECS deadline ceiling per Run; 0 = unlimited (default)");
      ("--quarantine", Arg.Set_int quarantine,
       "N quarantine a module after N deterministic faults; 0 = off (default)");
      ("--quarantine-ttl", Arg.Set_float quarantine_ttl,
       "SECS how long a quarantined module stays refused (default 300)");
      ("--require-cert", Arg.Set require_cert,
       " refuse uncertified translated runs (certificate-invalid) and \
        attach the safety certificate to every Run response");
      ("--pool", Arg.Set_int pool,
       "N worker domains serving concurrently; 1 = serial (default)");
      ("--queue-depth", Arg.Set_int queue_depth,
       Printf.sprintf
         "N connections the accept queue holds before shedding (default %d)"
         !queue_depth);
      ("--fair-slice", Arg.Set_int fair_slice,
       Printf.sprintf
         "N requests one connection may hold a worker before parking \
          (default %d)"
         !fair_slice);
      ("--store-dir", Arg.Set_string store_dir,
       "DIR journal modules and certified translations to a crash-safe \
        on-disk store (created if missing); restart recovers them");
      ("--metrics", Arg.Set metrics_dump,
       " dump the metrics registry to stderr on exit");
      ("--trace", Arg.Set trace_flag,
       " emit one JSON line per request span to stderr");
      ("--trace-file", Arg.Set_string trace_file,
       "FILE emit request spans to FILE");
      ("--once", Arg.Set once, " exit after the first connection closes") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "stray argument %S" a)))
    "omnid --socket PATH | --port N";
  let addr =
    match (!socket, !port) with
    | "", 0 ->
        prerr_endline "omnid: one of --socket PATH or --port N is required";
        exit 2
    | path, 0 -> Net.Transport.Unix_sock path
    | "", p -> Net.Transport.Tcp (!host, p)
    | _ ->
        prerr_endline "omnid: --socket and --port are exclusive";
        exit 2
  in
  (* a client vanishing mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let metrics = Metrics.create () in
  let tracer =
    let emit oc =
      Trace.make ~metrics
        (Trace.Emit
           (fun s ->
             output_string oc (Trace.json_line s);
             output_char oc '\n';
             flush oc))
    in
    if !trace_file <> "" then emit (open_out !trace_file)
    else if !trace_flag then emit stderr
    else Trace.make ~metrics Trace.Null
  in
  (* Recovery translates every journaled configuration: it runs under the
     daemon's tracer, so its spans and counts show like serving's. *)
  let svc =
    Trace.with_current tracer @@ fun () ->
    Service.of_config ~metrics
      {
        Service.default_config with
        Service.cache_capacity = !cache_capacity;
        quarantine =
          (if !quarantine > 0 then
             Some
               {
                 Omni_service.Supervise.Quarantine.default_config with
                 threshold = !quarantine;
                 ttl_s = !quarantine_ttl;
               }
           else None);
        deadline_s = (if !deadline > 0.0 then Some !deadline else None);
        persist =
          (if !store_dir <> "" then
             Some (Omni_persist.Io.real ~dir:!store_dir)
           else None);
      }
  in
  (match Service.recovery svc with
  | None -> ()
  | Some r ->
      Printf.eprintf "omnid: store recovery (%s): %s%!" !store_dir
        (Omni_persist.Store.render_recovered r));
  let server =
    Net.Server.create
      ~config:
        {
          Net.Server.max_frame = !max_frame;
          read_timeout_s = !timeout;
          max_module_bytes = !max_module_bytes;
          max_fuel = !max_fuel;
          max_requests_per_conn = !max_requests_per_conn;
          max_conn_bytes = !max_conn_bytes;
          max_deadline_s = !max_deadline;
          require_cert = !require_cert;
          pool_size = (if !once then 1 else !pool);
          queue_depth = !queue_depth;
          fair_slice = !fair_slice;
        }
      ~tracer svc
  in
  if !metrics_dump then
    at_exit (fun () ->
        prerr_string (Metrics.render (Metrics.snapshot (Service.metrics svc))));
  (* Graceful drain: the handler only raises a flag; the accept loop
     polls it, stops accepting, finishes in-flight pool work (workers
     joined by Server.serve), and then the journal is flushed and the
     clean-shutdown marker committed below. A second signal during the
     drain still kills the process the hard way (recovery handles it). *)
  let draining = ref false in
  let quit _ = if !draining then exit 1 else draining := true in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle quit)
   with Invalid_argument _ -> ());
  let listen_fd =
    try Net.Server.listen addr
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "omnid: cannot listen on %s: %s\n"
        (Net.Transport.address_to_string addr)
        (Unix.error_message e);
      exit 2
  in
  (match addr with
  | Net.Transport.Unix_sock path ->
      at_exit (fun () -> try Sys.remove path with Sys_error _ -> ())
  | Net.Transport.Tcp _ -> ());
  (* readiness line: smoke tests and supervisors wait for it *)
  Printf.printf "omnid: listening on %s\n%!"
    (Net.Transport.address_to_string addr);
  (if !once then
     let rec loop () =
       if not !draining then
         match Unix.accept listen_fd with
         | fd, _ ->
             Net.Server.serve_conn server
               (Net.Transport.of_fd ~descr:"client" fd)
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
     in
     loop ()
   else
     (* Server.serve polls [stop] between accepts; with --pool it also
        starts the domain pool, sheds with a typed overloaded error when
        the queue is full, and joins the workers when the drain begins —
        every accepted connection finishes before serve returns *)
     Net.Server.serve ~stop:(fun () -> !draining) server listen_fd);
  (* drained: flush the journal and commit the clean-shutdown marker *)
  Service.close svc

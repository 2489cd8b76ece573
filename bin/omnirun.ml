(* omnirun: host application that loads and executes mobile OmniVM modules.

   Single-load mode (the original host):

     omnirun [--trace[=FILE]] [run] module.omni
             [--engine interp|mips|sparc|ppc|x86] [--no-sfi] [--stats]
             [--deadline SECS] [--crash-dir DIR]
             [--remote ADDR] [--read-timeout SECS]
             [--retries N] [--retry-base SECS] [--retry-deadline SECS]
             [--fallback-local]
             [--loopback] [--fault-rate P] [--fault-seed N]

   With --remote, the module is submitted to a live omnid daemon (ADDR
   is a Unix-socket path or host:port) and executed there; output, exit
   code, and statistics are the daemon's, bit-identical to a local run.
   --stats then additionally prints the daemon's metrics registry.

   Resilience: --retries N arms a retry policy (N attempts, exponential
   backoff from --retry-base, overall --retry-deadline) under which
   transient failures — timeouts, lost connections, frames damaged in
   transit — re-dial and re-send; --fallback-local degrades to
   in-process execution when the daemon stays unreachable (the result
   is identical — execution is deterministic). --loopback serves the
   request from an in-process daemon over the in-memory transport; with
   --fault-rate P each frame is damaged with probability P (seeded by
   --fault-seed, so runs reproduce) — the fault-smoke check drives
   exactly this.

   Serving mode — many loads of few modules through the content-addressed
   store and memoizing translation cache:

     omnirun [--trace[=FILE]] serve mod1.omni [mod2.omni ...]
             [--engine E] [--no-sfi] [--requests N] [--cache-cap K]
             [--stats] [--metrics]

   runs N requests round-robin over the given modules (each request on a
   fresh isolated image) and reports throughput. --stats prints the
   metrics registry (serving counters, phase histograms) as one JSON
   line; --metrics prints the same registry as a table.
   Identical module files are deduplicated; only the first request per
   (module, engine, SFI config) pays the translator.

   Supervision: --deadline bounds the run's wall-clock time (a module
   exceeding it faults with deadline_exceeded, reported like any other
   fault); --crash-dir writes a self-contained crash report — fault,
   registers, memory window, the module bytes — as one JSON file per
   faulted run. Such a report is a replay bundle:

     omnirun replay crash-....json [--engine E]

   re-executes it in-process and asserts the same fault reproduces
   (deterministic faults; a deadline fault is transient and only
   re-observed, never asserted). Exit status: 0 reproduced/transient,
   1 diverged.

   Guest front-end — lift a StackVM guest program (assembly text or GSTK
   bytecode) to an OmniVM wire module:

     omnirun lift guest.gasm [-o out.omni] [--pool N]
             [--run [--oracle] [--engine E] [--no-sfi] [--crash-dir DIR]]

   Without --run, writes the lifted module (default <input>.omni). With
   --run, executes it directly; --oracle additionally runs the guest
   reference interpreter and exits 1 unless output and exit code are
   bit-identical. Crash reports record producer "stackvm"; plain runs
   of pre-built modules can declare their origin with
   omnirun module.omni --producer NAME.

   --trace emits one JSON line per completed pipeline span (decode, load,
   translate, verify, run, ...) to stderr, or to FILE with --trace=FILE. *)

module Api = Omniware.Api
module Service = Omni_service.Service
module Supervise = Omni_service.Supervise
module Trace = Omni_obs.Trace
module Metrics = Omni_obs.Metrics

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --trace[=FILE] is pulled out of argv by a pre-scan: Arg cannot express
   a flag whose value is optional. *)
let extract_trace argv =
  let trace = ref `Off in
  let rest =
    List.filter
      (fun a ->
        if String.equal a "--trace" then begin
          trace := `Stderr;
          false
        end
        else if String.length a >= 8 && String.equal (String.sub a 0 8) "--trace="
        then begin
          trace := `File (String.sub a 8 (String.length a - 8));
          false
        end
        else true)
      (Array.to_list argv)
  in
  (!trace, Array.of_list rest)

(* Run [f] under a span tracer emitting JSON lines, handing [f] the
   tracer's metrics registry so it can report per-phase breakdowns.
   With tracing off, [f None] runs under the ambient null tracer. *)
let with_tracer trace (f : Metrics.t option -> 'a) : 'a =
  match trace with
  | `Off -> f None
  | (`Stderr | `File _) as dest ->
      let oc, close =
        match dest with
        | `Stderr -> (stderr, fun () -> flush stderr)
        | `File path ->
            let oc = open_out path in
            (oc, fun () -> close_out oc)
      in
      let metrics = Metrics.create () in
      let tracer =
        Trace.make ~metrics
          (Trace.Emit
             (fun s ->
               output_string oc (Trace.json_line s);
               output_char oc '\n'))
      in
      Fun.protect ~finally:close (fun () ->
          Trace.with_current tracer (fun () -> f (Some metrics)))

let parse_engine ~who s =
  match Api.engine_of_string s with
  | Ok e -> e
  | Error msg ->
      Printf.eprintf "%s: %s\n" who msg;
      exit 2

let run_single trace args =
  let input = ref None in
  let engine = ref "interp" in
  let sfi = ref true in
  let sfi_pad = ref "" in
  let stats = ref false in
  let deadline = ref 0.0 in
  let crash_dir = ref "" in
  let remote = ref "" in
  let read_timeout = ref 0.0 in
  let retries = ref 0 in
  let retry_base = ref Omni_net.Retry.default.Omni_net.Retry.base_delay_s in
  let retry_deadline = ref Omni_net.Retry.default.Omni_net.Retry.deadline_s in
  let fallback_local = ref false in
  let loopback = ref false in
  let fault_rate = ref 0.0 in
  let fault_seed = ref 42 in
  let want_cert = ref false in
  let producer = ref "" in
  let spec =
    [ ("--engine", Arg.Set_string engine,
       "ENGINE interp|fast|mips|sparc|ppc|x86 (default interp)");
      ("--no-sfi", Arg.Clear sfi, " translate without software fault isolation");
      ("--sfi-pad", Arg.Set_string sfi_pad,
       "MODE pad SFI masking sequences: none|nop|align|guard8 (translated \
        engines; default none)");
      ("--stats", Arg.Set stats, " print execution statistics");
      ("--deadline", Arg.Set_float deadline,
       "SECS wall-clock budget; exceeding it is a deadline_exceeded fault");
      ("--crash-dir", Arg.Set_string crash_dir,
       "DIR write a JSON crash report there if the module faults");
      ("--remote", Arg.Set_string remote,
       "ADDR submit + run on a live omnid (socket path or host:port)");
      ("--read-timeout", Arg.Set_float read_timeout,
       "SECS bound each response read; 0 = no bound (default)");
      ("--retries", Arg.Set_int retries,
       "N retry transient failures, N attempts total (default 0 = off)");
      ("--retry-base", Arg.Set_float retry_base,
       Printf.sprintf "SECS first-retry delay, doubling after (default %g)"
         Omni_net.Retry.default.Omni_net.Retry.base_delay_s);
      ("--retry-deadline", Arg.Set_float retry_deadline,
       Printf.sprintf "SECS overall retry budget (default %g)"
         Omni_net.Retry.default.Omni_net.Retry.deadline_s);
      ("--fallback-local", Arg.Set fallback_local,
       " run in-process if the daemon stays unreachable");
      ("--loopback", Arg.Set loopback,
       " serve from an in-process daemon over the in-memory transport");
      ("--fault-rate", Arg.Set_float fault_rate,
       "P damage each loopback frame with probability P (default 0)");
      ("--fault-seed", Arg.Set_int fault_seed,
       "N PRNG seed for --fault-rate (default 42)");
      ("--cert", Arg.Set want_cert,
       " report the translation's safety certificate (remote runs fetch \
        it from the daemon and re-check it locally; disables \
        --fallback-local)");
      ("--producer", Arg.Set_string producer,
       "NAME record which front-end produced the module (minic|stackvm) \
        in crash reports") ]
  in
  Arg.parse_argv args spec
    (fun f ->
      (* tolerate an explicit "run" subcommand word *)
      if String.equal f "run" && !input = None then () else input := Some f)
    "omnirun [run] <module.omni>";
  match !input with
  | None ->
      prerr_endline "omnirun: no module";
      exit 2
  | Some path ->
      let eng = parse_engine ~who:"omnirun" !engine in
      let req_mode =
        match !sfi_pad with
        | "" -> None
        | s -> (
            match Omni_sfi.Policy.pad_of_string s with
            | Some pad ->
                if not !sfi then begin
                  prerr_endline
                    "omnirun: --sfi-pad requires SFI (drop --no-sfi)";
                  exit 2
                end;
                Some
                  (Omni_targets.Machine.Mobile (Omni_sfi.Policy.make ~pad ()))
            | None ->
                Printf.eprintf
                  "omnirun: unknown --sfi-pad %S (none|nop|align|guard8)\n" s;
                exit 2)
      in
      (match !producer with
      | "" -> ()
      | p -> (
          match Api.producer_of_string p with
          | Ok _ -> ()
          | Error msg ->
              Printf.eprintf "omnirun: %s\n" msg;
              exit 2));
      if !fault_rate > 0.0 && not !loopback then begin
        prerr_endline "omnirun: --fault-rate requires --loopback";
        exit 2
      end;
      let retry =
        if !retries <= 0 then None
        else
          Some
            {
              Omni_net.Retry.default with
              Omni_net.Retry.max_attempts = !retries;
              base_delay_s = !retry_base;
              deadline_s = !retry_deadline;
            }
      in
      let client =
        if !loopback then begin
          let svc = Service.of_config Service.default_config in
          let server = Omni_net.Server.create svc in
          let fault =
            if !fault_rate > 0.0 then
              Some
                (Omni_net.Fault.arm
                   ~metrics:(Service.metrics svc)
                   (Omni_net.Fault.seeded ~seed:!fault_seed ~rate:!fault_rate
                      ()))
            else None
          in
          (* manual-clock env: the backoff schedule runs without real
             sleeping — loopback retries are instantaneous *)
          Some
            (Omni_net.Client.loopback ?retry
               ~env:(Omni_net.Retry.manual_env ())
               ?fault server)
        end
        else if !remote = "" then None
        else
          match Omni_net.Transport.parse_address !remote with
          | Error msg ->
              Printf.eprintf "omnirun: %s\n" msg;
              exit 2
          | Ok addr -> (
              try
                Some
                  (Omni_net.Client.connect ?retry
                     ~read_timeout:!read_timeout addr)
              with Unix.Unix_error (e, _, _) when not !fallback_local ->
                Printf.eprintf "omnirun: cannot reach %s: %s\n" !remote
                  (Unix.error_message e);
                exit 2
              | Unix.Unix_error (e, _, _) ->
                (* --fallback-local covers a dead daemon at dial time too *)
                Printf.eprintf
                  "omnirun: cannot reach %s (%s); running locally\n" !remote
                  (Unix.error_message e);
                None)
      in
      let code =
        with_tracer trace @@ fun tm ->
        let wire = read_file path in
        let req =
          { Api.default_request with engine = eng; sfi = !sfi;
            mode = req_mode;
            deadline_s = (if !deadline > 0.0 then Some !deadline else None);
            remote = client;
            on_unreachable =
              (if !fallback_local then `Fallback_local else `Fail) }
        in
        let result, remote_cert =
          match client with
          | Some c when !want_cert ->
              (* fetch the witness with the result; the client's retry
                 policy still applies, but there is no local fallback —
                 certificates only come from the daemon *)
              let h = Omni_net.Client.submit c wire in
              Omni_net.Client.run_cert ~engine:eng ~sfi:!sfi
                ~mode:(Omni_net.Message.mode_spec_of_mode req_mode)
                ?deadline_s:(if !deadline > 0.0 then Some !deadline else None)
                ~want_cert:true c h
          | _ -> (Api.run req (Api.Wire wire), None)
        in
        if !want_cert then begin
          let module Exec = Omni_service.Exec in
          let module Cert = Omni_cert.Certificate in
          match eng with
          | Api.Interp | Api.Fast ->
              prerr_endline
                "omnirun: --cert: interpreter runs carry no certificate"
          | Api.Target _ when not !sfi ->
              prerr_endline
                "omnirun: --cert: unsandboxed translations are not \
                 certified"
          | Api.Target arch -> (
              let digest = Omni_util.Fnv64.digest_string wire in
              let mode, opts = Exec.resolve ?mode:req_mode arch in
              (* translate locally and check the witness against it:
                 translation is pure, so the daemon's certificate must
                 hold here too *)
              let tr =
                lazy (Exec.translate ~mode ~opts arch (Omnivm.Wire.decode wire))
              in
              let check_local cert origin =
                match
                  Exec.check_cert ~module_digest:digest ~mode ~opts cert
                    (Lazy.force tr)
                with
                | Ok () ->
                    Printf.eprintf "certificate:   %s (%s; check ok)\n"
                      (Cert.summary cert) origin
                | Error msg ->
                    Printf.eprintf "certificate:   INVALID (%s): %s\n" origin
                      msg
              in
              match remote_cert with
              | Some enc -> (
                  match Cert.decode enc with
                  | Ok cert -> check_local cert "from daemon"
                  | Error e ->
                      Printf.eprintf
                        "certificate:   INVALID (from daemon): %s\n"
                        (Cert.decode_error_to_string e))
              | None when client <> None ->
                  prerr_endline
                    "certificate:   none (daemon offered no certificate)"
              | None -> (
                  match
                    Exec.certify ~module_digest:digest ~mode ~opts
                      (Lazy.force tr)
                  with
                  | Ok cert -> check_local cert "local"
                  | Error msg ->
                      Printf.eprintf "certificate:   REFUSED: %s\n" msg))
        end;
        (* The crash site travels in the run result, so the report is the
           same whether the module faulted here or on the daemon. *)
        if !crash_dir <> "" then
          Option.iter
            (fun report ->
              let file = Supervise.write_report ~dir:!crash_dir report in
              Printf.eprintf "omnirun: crash report written to %s\n" file)
            (Supervise.of_run ~engine:eng ~sfi:!sfi ?mode:req_mode
               ?producer:(if !producer = "" then None else Some !producer)
               ~wire result);
        print_string result.Api.output;
        if !stats then begin
          Printf.eprintf "engine:        %s\n" (Api.engine_name eng);
          Printf.eprintf "instructions:  %d\n" result.Api.instructions;
          Printf.eprintf "cycles:        %d\n" result.Api.cycles;
          (match client with
          | Some c -> Printf.eprintf "remote stats:  %s\n" (Omni_net.Client.stats_json c)
          | None -> ());
          match tm with
          | Some m -> prerr_string (Metrics.render_phases (Metrics.snapshot m))
          | None -> ()
        end;
        Option.iter Omni_net.Client.close client;
        result.Api.exit_code
      in
      exit code

let run_serve trace args =
  let inputs = ref [] in
  let engine = ref "interp" in
  let sfi = ref true in
  let requests = ref 16 in
  let cache_cap = ref 256 in
  let domains = ref 1 in
  let stats = ref false in
  let metrics_dump = ref false in
  let store_dir = ref "" in
  let spec =
    [ ("--engine", Arg.Set_string engine,
       "ENGINE interp|mips|sparc|ppc|x86 (default interp)");
      ("--store-dir", Arg.Set_string store_dir,
       "DIR journal modules and certified translations to a crash-safe \
        on-disk store (created if missing); a previous run's store is \
        recovered before the batch, so translations are served warm");
      ("--no-sfi", Arg.Clear sfi, " translate without software fault isolation");
      ("--requests", Arg.Set_int requests,
       "N total requests, round-robin over the modules (default 16)");
      ("--domains", Arg.Set_int domains,
       "N drive the batch from N domains sharing one service (default 1)");
      ("--cache-cap", Arg.Set_int cache_cap,
       "K translation-cache capacity; 0 disables caching (default 256)");
      ("--cache-capacity", Arg.Set_int cache_cap,
       "N same as --cache-cap (omnid spells it this way)");
      ("--stats", Arg.Set stats, " print service counters as JSON");
      ("--metrics", Arg.Set metrics_dump,
       " dump the full metrics registry (counters + phase timings)") ]
  in
  Arg.parse_argv args spec
    (fun f -> inputs := f :: !inputs)
    "omnirun serve <module.omni>...";
  let inputs = List.rev !inputs in
  if inputs = [] then begin
    prerr_endline "omnirun serve: no modules";
    exit 2
  end;
  let eng = parse_engine ~who:"omnirun serve" !engine in
  let code =
    with_tracer trace @@ fun tm ->
    (* Share one registry between the tracer's phase histograms and the
       service's counters so --metrics shows both. *)
    let cfg =
      {
        Service.default_config with
        Service.cache_capacity = !cache_cap;
        persist =
          (if !store_dir <> "" then
             Some (Omni_persist.Io.real ~dir:!store_dir)
           else None);
      }
    in
    let svc =
      match tm with
      | Some m -> Service.of_config ~metrics:m cfg
      | None -> Service.of_config cfg
    in
    (match Service.recovery svc with
    | None -> ()
    | Some r ->
        Printf.eprintf "omnirun serve: store recovery (%s): %s%!" !store_dir
          (Omni_persist.Store.render_recovered r));
    let handles =
      List.map (fun path -> Service.submit svc (read_file path)) inputs
    in
    let harr = Array.of_list handles in
    let reqs =
      Array.init !requests (fun i ->
          { Service.rq_handle = harr.(i mod Array.length harr);
            rq_engine = eng; rq_sfi = !sfi })
    in
    let report = Service.run_batch ~domains:!domains svc reqs in
    (* clean shutdown: flush the journal, commit the marker *)
    Service.close svc;
    print_string (Service.render_batch report);
    let snap = Metrics.snapshot (Service.metrics svc) in
    if !stats then print_endline (Metrics.to_json snap);
    if !metrics_dump then print_string (Metrics.render snap);
    if report.Service.br_failures = 0 then 0 else 1
  in
  exit code

(* omnirun store: offline inspection and maintenance of a --store-dir.
   stat is a cheap physical description; fsck replays the journal with
   every proof forced (witness obligations included) and reports what
   would be recovered, quarantined, or dropped; compact rewrites the
   store as a fresh generation holding only the survivors. Exit 0: store
   healthy (fsck: nothing quarantined or torn); 1: issues found. *)
let run_store _trace args =
  let dir = ref "" in
  let verb = ref "" in
  let spec =
    [ ("--store-dir", Arg.Set_string dir, "DIR the store directory") ]
  in
  Arg.parse_argv args spec
    (fun a ->
      if !verb = "" then verb := a
      else if !dir = "" then dir := a
      else raise (Arg.Bad (Printf.sprintf "stray argument %S" a)))
    "omnirun store stat|fsck|compact [--store-dir] DIR";
  if !verb = "" || !dir = "" then begin
    prerr_endline "omnirun store: usage: omnirun store stat|fsck|compact DIR";
    exit 2
  end;
  if not (Sys.file_exists !dir) then begin
    Printf.eprintf "omnirun store: no such directory %s\n" !dir;
    exit 2
  end;
  let module P = Omni_persist.Store in
  let io = Omni_persist.Io.real ~dir:!dir in
  match !verb with
  | "stat" ->
      print_string (P.render_stat (P.stat io));
      exit 0
  | "fsck" ->
      let r = P.fsck io in
      print_string (P.render_recovered r);
      exit (if r.P.r_quarantined = [] && r.P.r_torn = 0 then 0 else 1)
  | "compact" ->
      let r, (before, after) = P.compact io in
      print_string (P.render_recovered r);
      Printf.printf "compacted: %d -> %d bytes\n" before after;
      exit 0
  | other ->
      Printf.eprintf "omnirun store: unknown action %s (stat|fsck|compact)\n"
        other;
      exit 2

(* omnirun cert: translate + certify + check one module per architecture,
   printing the witness summaries. With --mutate SEED, additionally derive
   a batch of deterministic certificate corruptions (byte flips) from the
   seed and insist every one is rejected by decode or by the checker —
   what `make cert-smoke` drives. Exit 0: all checks passed (and, with
   --mutate, all mutants rejected); 1: a witness failed or a mutant was
   accepted. *)
let run_cert trace args =
  let module Exec = Omni_service.Exec in
  let module Cert = Omni_cert.Certificate in
  let input = ref None in
  let engine = ref "all" in
  let mutate = ref 0 in
  let mutants = ref 64 in
  let spec =
    [ ("--engine", Arg.Set_string engine,
       "ENGINE mips|sparc|ppc|x86, or all (default all)");
      ("--mutate", Arg.Set_int mutate,
       "SEED corrupt the certificate deterministically; every mutant must \
        be rejected");
      ("--mutants", Arg.Set_int mutants,
       "N how many corruptions to derive from the seed (default 64)") ]
  in
  Arg.parse_argv args spec
    (fun f -> input := Some f)
    "omnirun cert <module.omni>";
  match !input with
  | None ->
      prerr_endline "omnirun cert: no module";
      exit 2
  | Some path ->
      let archs =
        match Api.engines_of_string !engine with
        | Error msg ->
            Printf.eprintf "omnirun cert: %s\n" msg;
            exit 2
        | Ok engines -> (
            match
              List.filter_map
                (function
                  | Api.Target a -> Some a
                  | Api.Interp | Api.Fast -> None)
                engines
            with
            | [] ->
                prerr_endline
                  "omnirun cert: the interpreter runs no translated code; \
                   pick a target architecture";
                exit 2
            | archs -> archs)
      in
      let wire = read_file path in
      let exe = Omnivm.Wire.decode wire in
      let digest = Omni_util.Fnv64.digest_string wire in
      let failures = ref 0 in
      let code =
        with_tracer trace @@ fun _ ->
        List.iter
          (fun arch ->
            let name = Omni_targets.Arch.name arch in
            let mode, opts = Exec.resolve arch in
            let tr = Exec.translate ~mode ~opts arch exe in
            match Exec.certify ~module_digest:digest ~mode ~opts tr with
            | Error msg ->
                Printf.printf "%-5s FAIL certify: %s\n" name msg;
                incr failures
            | Ok cert -> (
                let enc = Cert.encode cert in
                match Cert.decode enc with
                | Error e ->
                    Printf.printf "%-5s FAIL decode: %s\n" name
                      (Cert.decode_error_to_string e);
                    incr failures
                | Ok cert' -> (
                    match
                      Exec.check_cert ~module_digest:digest ~mode ~opts cert'
                        tr
                    with
                    | Error msg ->
                        Printf.printf "%-5s FAIL check: %s\n" name msg;
                        incr failures
                    | Ok () ->
                        Printf.printf "%-5s ok    %s\n" name
                          (Cert.summary cert);
                        if !mutate <> 0 then begin
                          let rng =
                            Omni_util.Lcg.create (!mutate + Hashtbl.hash name)
                          in
                          let accepted = ref 0 in
                          for _ = 1 to !mutants do
                            let b = Bytes.of_string enc in
                            let i = Omni_util.Lcg.int rng (Bytes.length b) in
                            let bit = 1 lsl Omni_util.Lcg.int rng 8 in
                            Bytes.set b i
                              (Char.chr
                                 (Char.code (Bytes.get b i) lxor bit));
                            match Cert.decode (Bytes.to_string b) with
                            | Error _ -> ()
                            | Ok m -> (
                                match
                                  Exec.check_cert ~module_digest:digest ~mode
                                    ~opts m tr
                                with
                                | Error _ -> ()
                                | Ok () -> incr accepted)
                          done;
                          (* byte flips die on the self-digest; also lie at
                             the obligation level (kind swaps on a decoded
                             witness) so the checker proper is exercised *)
                          let nobs = Array.length cert.Cert.obs in
                          if nobs > 0 then
                            for _ = 1 to min !mutants nobs do
                              let j = Omni_util.Lcg.int rng nobs in
                              let ob = cert.Cert.obs.(j) in
                              let kinds =
                                List.filter
                                  (fun k -> k <> ob.Omni_sfi.Witness.kind)
                                  Omni_sfi.Witness.all_kinds
                              in
                              let k' =
                                List.nth kinds
                                  (Omni_util.Lcg.int rng (List.length kinds))
                              in
                              let obs' = Array.copy cert.Cert.obs in
                              obs'.(j) <- { ob with Omni_sfi.Witness.kind = k' };
                              let m = { cert with Cert.obs = obs' } in
                              match
                                Exec.check_cert ~module_digest:digest ~mode
                                  ~opts m tr
                              with
                              | Error _ -> ()
                              | Ok () -> incr accepted
                            done;
                          if !accepted > 0 then begin
                            Printf.printf
                              "%-5s FAIL mutate: %d corrupted certificates \
                               accepted\n"
                              name !accepted;
                            incr failures
                          end
                          else
                            Printf.printf
                              "%-5s ok    all corrupted certificates \
                               rejected (%d byte flips + %d kind swaps)\n"
                              name !mutants (min !mutants nobs)
                        end)))
          archs;
        if !failures = 0 then 0 else 1
      in
      exit code

let outcome_string = function
  | Omni_targets.Machine.Exited c -> Printf.sprintf "exited with code %d" c
  | Omni_targets.Machine.Faulted f ->
      Printf.sprintf "faulted (%s)" (Omnivm.Fault.to_string f)
  | Omni_targets.Machine.Out_of_fuel -> "ran out of fuel"

let run_replay trace args =
  let input = ref None in
  let engine = ref "" in
  let quiet = ref false in
  let spec =
    [ ("--engine", Arg.Set_string engine,
       "ENGINE replay on this engine instead of the report's own");
      ("--quiet", Arg.Set quiet, " suppress the report rendering") ]
  in
  Arg.parse_argv args spec
    (fun f -> input := Some f)
    "omnirun replay <crash-report.json>";
  match !input with
  | None ->
      prerr_endline "omnirun replay: no crash report";
      exit 2
  | Some path ->
      let report =
        try Supervise.of_json (read_file path)
        with Supervise.Bad_report msg ->
          Printf.eprintf "omnirun replay: %s: %s\n" path msg;
          exit 2
      in
      let engine =
        if !engine = "" then None
        else Some (parse_engine ~who:"omnirun replay" !engine)
      in
      if not !quiet then Format.printf "%a@." Supervise.pp report;
      let code =
        with_tracer trace @@ fun _ ->
        match Supervise.check_replay ?engine report with
        | Supervise.Reproduced ->
            print_endline "replay: fault reproduced";
            0
        | Supervise.Transient outcome ->
            Printf.printf "replay: transient fault; this run %s\n"
              (outcome_string outcome);
            0
        | Supervise.Diverged outcome ->
            Printf.printf "replay: DIVERGED; this run %s\n"
              (outcome_string outcome);
            1
      in
      exit code

(* Lift a StackVM guest program (assembly text, or GSTK bytecode detected
   by magic) to an OmniVM wire module: the guest-ISA front-end as a CLI.
   Default writes <input>.omni next to the input; --run executes the
   lifted module instead (through the same Api.run path as any other
   module, so --crash-dir reports carry producer "stackvm"); --oracle
   additionally runs the guest reference interpreter and asserts
   bit-identical output and exit code. *)
let run_lift trace args =
  let module Guest = Omni_guest in
  let input = ref None in
  let out = ref "" in
  let pool = ref Guest.Lift.default_options.Guest.Lift.pool in
  let do_run = ref false in
  let oracle = ref false in
  let engine = ref "interp" in
  let sfi = ref true in
  let crash_dir = ref "" in
  let spec =
    [ ("-o", Arg.Set_string out,
       "FILE write the lifted wire module here (default <input>.omni)");
      ("--pool", Arg.Set_int pool,
       "N registers for operand-stack slots, 1-9 (default 9; deeper \
        stacks spill to the frame)");
      ("--run", Arg.Set do_run,
       " execute the lifted module instead of writing it");
      ("--oracle", Arg.Set oracle,
       " with --run: also run the guest reference interpreter and \
        assert identical output and exit code (exit 1 on divergence)");
      ("--engine", Arg.Set_string engine,
       "ENGINE interp (default) | mips | sparc | ppc | x86");
      ("--no-sfi", Arg.Clear sfi, " translate without sandboxing checks");
      ("--crash-dir", Arg.Set_string crash_dir,
       "DIR write a crash report there if the lifted module faults") ]
  in
  Arg.parse_argv args spec
    (fun f -> input := Some f)
    "omnirun lift <guest.gasm|guest.gstk>";
  match !input with
  | None ->
      prerr_endline "omnirun lift: no guest program";
      exit 2
  | Some path ->
      let src = read_file path in
      if !pool < 1 || !pool > 9 then begin
        prerr_endline "omnirun lift: --pool must be in 1..9";
        exit 2
      end;
      (* Bytecode starts with the GSTK magic; anything else is assembly. *)
      let program =
        let r =
          if String.length src >= 4 && String.equal (String.sub src 0 4) "GSTK"
          then
            match Guest.Bytecode.decode src with
            | Ok p -> Guest.Validate.check p |> Result.map (fun _ -> p)
            | Error _ as e -> e
          else Guest.Asm.assemble src
        in
        match r with
        | Ok p -> p
        | Error e ->
            Printf.eprintf "omnirun lift: %s: %s\n" path
              (Guest.Error.to_string e);
            exit 2
      in
      let code =
        with_tracer trace @@ fun _ ->
        let options = { Guest.Lift.pool = !pool } in
        let wire =
          match Guest.Lift.lift_wire ~options program with
          | Ok w -> w
          | Error e ->
              Printf.eprintf "omnirun lift: %s: %s\n" path
                (Guest.Error.to_string e);
              exit 2
        in
        if not !do_run then begin
          let out =
            if !out <> "" then !out else Filename.remove_extension path ^ ".omni"
          in
          Out_channel.with_open_bin out (fun oc -> output_string oc wire);
          Printf.eprintf "omnirun lift: wrote %s (%d bytes)\n" out
            (String.length wire);
          0
        end
        else begin
          let eng = parse_engine ~who:"omnirun lift" !engine in
          let result =
            Api.run
              { Api.default_request with engine = eng; sfi = !sfi }
              (Api.Wire wire)
          in
          if !crash_dir <> "" then
            Option.iter
              (fun report ->
                let file = Supervise.write_report ~dir:!crash_dir report in
                Printf.eprintf "omnirun lift: crash report written to %s\n"
                  file)
              (Supervise.of_run ~engine:eng ~sfi:!sfi ~producer:"stackvm"
                 ~wire result);
          print_string result.Api.output;
          if !oracle then begin
            let o = Guest.Interp.run program in
            let oracle_exit = Guest.Interp.exit_code o.Guest.Interp.outcome in
            if
              String.equal o.Guest.Interp.output result.Api.output
              && oracle_exit = result.Api.exit_code
            then begin
              Printf.eprintf
                "omnirun lift: oracle agrees (exit %d, %d output bytes)\n"
                oracle_exit
                (String.length result.Api.output);
              result.Api.exit_code
            end
            else begin
              Printf.eprintf
                "omnirun lift: DIVERGED from oracle: lifted exit %d \
                 (%d output bytes), oracle exit %d (%d output bytes)\n"
                result.Api.exit_code
                (String.length result.Api.output)
                oracle_exit
                (String.length o.Guest.Interp.output);
              1
            end
          end
          else result.Api.exit_code
        end
      in
      exit code

let () =
  let trace, argv = extract_trace Sys.argv in
  let subcommand name runner =
    (* re-seat argv so Arg reports "omnirun <name>" on errors *)
    runner trace
      (Array.append
         [| argv.(0) ^ " " ^ name |]
         (Array.sub argv 2 (Array.length argv - 2)))
  in
  try
    if Array.length argv > 1 && argv.(1) = "serve" then
      subcommand "serve" run_serve
    else if Array.length argv > 1 && argv.(1) = "replay" then
      subcommand "replay" run_replay
    else if Array.length argv > 1 && argv.(1) = "cert" then
      subcommand "cert" run_cert
    else if Array.length argv > 1 && argv.(1) = "lift" then
      subcommand "lift" run_lift
    else if Array.length argv > 1 && argv.(1) = "store" then
      subcommand "store" run_store
    else run_single trace argv
  with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Sys_error msg ->
      Printf.eprintf "omnirun: %s\n" msg;
      exit 2
  | Omnivm.Wire.Bad_module msg | Omni_targets.Translate.Translate_error msg ->
      Printf.eprintf "omnirun: malformed module: %s\n" msg;
      exit 2
  | Omni_net.Client.Remote_error (cls, msg) ->
      Printf.eprintf "omnirun: remote %s error: %s\n"
        (Omni_net.Message.err_class_name cls)
        msg;
      exit 2
  | Omni_net.Client.Protocol_error msg ->
      Printf.eprintf "omnirun: protocol error: %s\n" msg;
      exit 2
  | Omni_net.Client.Connection_lost msg ->
      Printf.eprintf "omnirun: connection lost: %s\n" msg;
      exit 2
  | Omni_net.Transport.Timeout ->
      prerr_endline "omnirun: remote read timed out";
      exit 2
  | Invalid_argument msg ->
      (* the local surface for resource-limit refusals, remote or not *)
      Printf.eprintf "omnirun: limit exceeded: %s\n" msg;
      exit 2

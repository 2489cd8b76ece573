(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index and EXPERIMENTS.md
   for recorded results).

     dune exec bench/main.exe                 -- everything, test size
     dune exec bench/main.exe -- --size ref   -- everything, reference size
     dune exec bench/main.exe -- table1 figure1 speed bechamel ...

   All relative-time numbers come from the simulated pipeline cycle counts;
   [speed] and [bechamel] measure real wall-clock translation time (the
   paper's load-time-matters argument), the latter with statistically
   sound measurement via Bechamel. *)

module E = Omni_harness.Experiments
module Gate = Omni_harness.Gate
module W = Omni_workloads.Workloads

let sections =
  [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure1";
    "figure2"; "ablation"; "ablation-reads"; "speed"; "service"; "remote";
    "resilience"; "isolation"; "phases"; "cert"; "concurrency"; "guest";
    "fastpath"; "persistence"; "bechamel" ]

(* --- the persisted snapshot + regression gate (BENCH_N.json) ----------

   [json] re-measures every subsystem's hot paths and writes the latest
   BENCH_N.json at the repo root. [gate] additionally diffs the new
   numbers against that snapshot's [hot_paths] before overwriting it:
   any named path more than 20% slower (and by more than 10us absolute —
   20% of a 30us path is timer noise) — in the per-key minimum over up
   to five measurement attempts, so a one-off host interference spike
   never fails a build — fails the gate (exit 1); hot paths that only
   exist in one of the two snapshots are skipped and summarized in one
   stderr line, so adding or retiring a subsystem never trips the gate —
   or shrinks it — silently. With no snapshot present the first run
   seeds BENCH_1.json and passes.
   The classification logic lives in Omni_harness.Gate, where the test
   suite exercises it against synthetic snapshot pairs. *)

(* The highest-numbered snapshot is both the baseline and the file the
   fresh numbers overwrite. *)
let snapshot_file =
  Option.value ~default:"BENCH_1.json"
    (Gate.latest_snapshot (Array.to_list (Sys.readdir ".")))

let write_snapshot ~size =
  let json = E.bench_snapshot ~size in
  let oc = open_out snapshot_file in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s (%d hot paths)\n" snapshot_file
    (List.length (Gate.hot_paths_of_json json));
  json

let run_gate ~size =
  let previous =
    if not (Sys.file_exists snapshot_file) then None
    else
      Some
        (Gate.hot_paths_of_json
           (In_channel.with_open_bin snapshot_file In_channel.input_all))
  in
  let fresh = Gate.hot_paths_of_json (write_snapshot ~size) in
  match previous with
  | None | Some [] ->
      Printf.printf "bench-gate: baseline seeded (%d hot paths); PASS\n"
        (List.length fresh)
  | Some old ->
      (* A regression must survive re-measurement: on FAIL, re-run the
         snapshot (up to [max_attempts] total) and gate on the per-key
         minimum across attempts — the stable estimator under host
         interference. A genuine slowdown is slow in every attempt; a
         scheduler or frequency-scaling spike is not. The written
         snapshot is the last attempt's full snapshot. *)
      let max_attempts = 5 in
      let rec attempt n fresh =
        let d = Gate.diff ~baseline:old ~fresh () in
        if d.Gate.d_regressions <> [] && n < max_attempts then begin
          Printf.eprintf
            "bench-gate: %d hot path(s) over threshold on attempt %d/%d; \
             re-measuring\n%!"
            (List.length d.Gate.d_regressions) n max_attempts;
          (* brief cool-down: back-to-back attempts measure a host still
             hot (and frequency-throttled) from the previous one *)
          Unix.sleep 3;
          attempt (n + 1)
            (Gate.merge_min fresh
               (Gate.hot_paths_of_json (write_snapshot ~size)))
        end
        else d
      in
      let d = attempt 1 fresh in
      (* Un-gated keys go to stderr so a silently-shrinking gate is
         visible in CI logs without failing the run. *)
      (match Gate.skip_summary d with
      | None -> ()
      | Some line -> prerr_endline line);
      List.iter
        (fun r -> print_endline (Gate.render_regression r))
        d.Gate.d_regressions;
      if d.Gate.d_regressions = [] then
        Printf.printf "bench-gate: %d hot paths within %.0f%% of the \
                       previous snapshot; PASS\n"
          d.Gate.d_compared
          (100. *. (Gate.default_threshold -. 1.))
      else begin
        Printf.printf "bench-gate: FAIL (%d of %d hot paths regressed)\n"
          (List.length d.Gate.d_regressions)
          d.Gate.d_compared;
        exit 1
      end

let run_section ~size name =
  let t0 = Unix.gettimeofday () in
  (match name with
  | "table1" -> print_string (E.table1 ~size)
  | "table2" -> print_string (E.table2 ~size)
  | "table3" -> print_string (E.table3 ~size)
  | "table4" -> print_string (E.table4 ~size)
  | "table5" -> print_string (E.table5 ~size)
  | "table6" -> print_string (E.table6 ~size)
  | "figure1" -> print_string (E.figure1 ~size)
  | "figure2" -> print_string (E.figure2 ())
  | "ablation" -> print_string (E.ablation_sfi_opt ~size)
  | "ablation-reads" -> print_string (E.ablation_read_protection ~size)
  | "speed" -> print_string (E.translation_speed ~size)
  | "service" -> print_string (E.service_amortization ~size)
  | "remote" -> print_string (E.remote_overhead ~size)
  | "resilience" -> print_string (E.resilience ~size)
  | "isolation" -> print_string (E.isolation ~size)
  | "phases" -> print_string (E.phase_breakdown ~size)
  | "cert" -> print_string (E.cert_amortization ~size)
  | "concurrency" -> print_string (E.concurrency ~size)
  | "guest" -> print_string (E.guest_front_end ~size)
  | "fastpath" -> print_string (E.fastpath ~size)
  | "persistence" -> print_string (E.persistence ~size)
  | "json" -> ignore (write_snapshot ~size)
  | "gate" -> run_gate ~size
  | "bechamel" -> Bechamel_bench.run ~size
  | other -> Printf.eprintf "unknown section %s\n" other);
  Printf.printf "[%s took %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let size = ref W.Test in
  let picked = ref [] in
  let spec =
    [ ("--size",
       Arg.String (fun s -> size := if s = "ref" then W.Ref else W.Test),
       "test|ref workload size (default test)") ]
  in
  Arg.parse spec (fun s -> picked := s :: !picked) "bench [sections]";
  let todo = if !picked = [] then sections else List.rev !picked in
  Printf.printf "omniware benchmark harness (size: %s)\n\n%!"
    (match !size with W.Test -> "test" | W.Ref -> "ref");
  List.iter (run_section ~size:!size) todo

(* The benchmark regression gate (Omni_harness.Gate) against synthetic
   snapshot pairs: the hot-path scanner, the regression threshold
   semantics (strictly-above fails, exactly-at passes, zero baselines
   never trip), and the skip bookkeeping for keys that exist in only one
   snapshot — the gate must neither fail on them nor lose them
   silently. *)

module Gate = Omni_harness.Gate

(* a synthetic snapshot, written by the snapshot writer itself *)
let snap hot =
  Gate.json_of_sections ~size:"test"
    [ ("service",
       { Gate.rows = [ ("x86", [ ("cold_us", 1234); ("warm_us", 56) ]) ]; hot })
    ]

let pairs =
  Alcotest.(list (pair string int))

let scanner_roundtrip () =
  let hot = [ ("phase.run.mean", 42); ("service.warm.x86", 0);
              ("persist.cold_us", 31415) ] in
  Alcotest.check pairs "all pairs survive" hot
    (Gate.hot_paths_of_json (snap hot));
  (* the nested objects before hot_paths are not mistaken for it *)
  Alcotest.check pairs "empty object" [] (Gate.hot_paths_of_json (snap []))

(* the writer's hot paths read back through the gate's scanner: every
   section's keys, in section order, and no row field among them *)
let writer_roundtrip () =
  let sections =
    [ ("phases",
       { Gate.rows = [ ("run", [ ("count", 24); ("mean_us", 63201) ]) ];
         hot = [ ("phase.run.mean", 63201) ] });
      ("resilience",
       { Gate.rows = [ ("rate_0.05", [ ("round_us", 533309) ]) ]; hot = [] });
      ("empty", { Gate.rows = []; hot = [] });
      ("cert",
       { Gate.rows =
           [ ("x86/sandbox+reads",
              [ ("full_verify_us", 565); ("witness_check_us", 62) ]) ];
         hot =
           [ ("cert.full_verify.x86.sandbox+reads", 565);
             ("cert.witness_check.x86.sandbox+reads", 62) ] }) ]
  in
  let read =
    Gate.hot_paths_of_json (Gate.json_of_sections ~size:"ref" sections)
  in
  Alcotest.check pairs "same keys, values and order"
    (List.concat_map (fun (_, e) -> e.Gate.hot) sections)
    read;
  List.iter
    (fun (_, e) ->
      List.iter
        (fun (_, fields) ->
          List.iter
            (fun (field, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "row field %s not gated" field)
                false (List.mem_assoc field read))
            fields)
        e.Gate.rows)
    sections

let scanner_total_on_garbage () =
  List.iter
    (fun text ->
      Alcotest.check pairs
        (Printf.sprintf "no pairs from %S" text)
        [] (Gate.hot_paths_of_json text))
    [ ""; "{}"; "not json at all"; "{\"hot_paths\""; "{\"hot_paths\": {";
      "\"hot_paths\" with no object" ]

let diff ?threshold baseline fresh =
  Gate.diff ?threshold ~baseline ~fresh ()

let gate_passes_within_threshold () =
  let d = diff [ ("a", 100); ("b", 50) ] [ ("a", 110); ("b", 45) ] in
  Alcotest.(check int) "compared both" 2 d.Gate.d_compared;
  Alcotest.(check int) "no regressions" 0 (List.length d.Gate.d_regressions);
  Alcotest.(check bool) "nothing skipped" true
    (Gate.skip_summary d = None)

let gate_fails_above_threshold () =
  let d = diff [ ("a", 100) ] [ ("a", 121) ] in
  match d.Gate.d_regressions with
  | [ ("a", 100, 121) ] ->
      let line = Gate.render_regression ("a", 100, 121) in
      Alcotest.(check bool) "rendered with both values" true
        (String.length line > 0
        && String.index_opt line 'R' <> None)
  | _ -> Alcotest.fail "a 21% slowdown must regress at threshold 1.20"

let gate_exactly_at_threshold_passes () =
  (* 120 is not strictly above 1.20 * 100 *)
  let d = diff [ ("a", 100) ] [ ("a", 120) ] in
  Alcotest.(check int) "at-threshold passes" 0
    (List.length d.Gate.d_regressions)

let gate_zero_baseline_never_trips () =
  let d = diff [ ("a", 0) ] [ ("a", 50_000) ] in
  Alcotest.(check int) "zero baseline skipped from gating" 0
    (List.length d.Gate.d_regressions);
  Alcotest.(check int) "but still compared" 1 d.Gate.d_compared

let gate_custom_threshold () =
  let d = diff ~threshold:2.0 [ ("a", 100) ] [ ("a", 199) ] in
  Alcotest.(check int) "within 2x" 0 (List.length d.Gate.d_regressions);
  let d = diff ~threshold:2.0 [ ("a", 100) ] [ ("a", 201) ] in
  Alcotest.(check int) "above 2x" 1 (List.length d.Gate.d_regressions)

let gate_new_key_skipped () =
  (* a new hot path has no baseline: skipped, named in the summary, and
     gated once a written snapshot holds it *)
  let d = diff [ ("a", 100) ] [ ("a", 100); ("persist.cold_us", 1) ] in
  Alcotest.(check (list string)) "new key listed" [ "persist.cold_us" ]
    d.Gate.d_new;
  Alcotest.(check int) "not gated" 0 (List.length d.Gate.d_regressions);
  match Gate.skip_summary d with
  | Some line ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "summary names the key" true
        (contains line "persist.cold_us");
      Alcotest.(check bool) "one line" true
        (not (String.contains line '\n'))
  | None -> Alcotest.fail "skipped keys must be summarized"

let gate_dropped_key_skipped () =
  let d = diff [ ("a", 100); ("retired", 9) ] [ ("a", 100) ] in
  Alcotest.(check (list string)) "dropped key listed" [ "retired" ]
    d.Gate.d_dropped;
  Alcotest.(check int) "only the shared key compared" 1 d.Gate.d_compared;
  Alcotest.(check bool) "summarized" true (Gate.skip_summary d <> None)

let gate_empty_baseline () =
  let d = diff [] [ ("a", 1); ("b", 2) ] in
  Alcotest.(check int) "nothing compared" 0 d.Gate.d_compared;
  Alcotest.(check int) "nothing regressed" 0
    (List.length d.Gate.d_regressions);
  Alcotest.(check int) "everything new" 2 (List.length d.Gate.d_new)

(* absolute slack: a relative regression under [default_min_delta] µs of
   absolute slowdown is timer noise on a tiny path, not a regression —
   but a tiny path that blows through both bars still trips *)
let gate_small_delta_is_noise () =
  let d = diff [ ("cert.check", 32) ] [ ("cert.check", 39) ] in
  Alcotest.(check int) "+22%% but only 7us: not a regression" 0
    (List.length d.Gate.d_regressions)

let gate_small_base_large_delta_trips () =
  let d = diff [ ("cert.check", 30) ] [ ("cert.check", 45) ] in
  Alcotest.(check int) "+50%% and 15us: regression" 1
    (List.length d.Gate.d_regressions)

let gate_custom_min_delta () =
  let fine =
    Gate.diff ~min_delta:0 ~baseline:[ ("a", 32) ] ~fresh:[ ("a", 39) ] ()
  in
  Alcotest.(check int) "min_delta 0 restores the pure ratio test" 1
    (List.length fine.Gate.d_regressions)

(* re-measurement merge: per-key minimum, fresh's key set — one noisy
   attempt must not fail the gate, but a genuine regression (slow in
   every attempt) must survive the merge and still trip it *)
let merge_min_absorbs_spike () =
  let spiky = [ ("a", 250); ("b", 50) ] in
  let retry = [ ("a", 205); ("b", 55) ] in
  Alcotest.(check pairs) "per-key minimum"
    [ ("a", 205); ("b", 50) ]
    (Gate.merge_min spiky retry);
  let d = diff [ ("a", 200); ("b", 50) ] (Gate.merge_min spiky retry) in
  Alcotest.(check int) "spike absorbed, no regression" 0
    (List.length d.Gate.d_regressions)

let merge_min_keeps_real_regression () =
  let first = [ ("a", 260) ] and second = [ ("a", 255) ] in
  let d = diff [ ("a", 200) ] (Gate.merge_min first second) in
  Alcotest.(check pairs) "min of two slow samples" [ ("a", 255) ]
    (Gate.merge_min first second);
  Alcotest.(check int) "still regressed" 1 (List.length d.Gate.d_regressions)

let merge_min_key_set_is_fresh () =
  Alcotest.(check pairs) "new key passes through, dropped key gone"
    [ ("a", 7); ("fresh-only", 3) ]
    (Gate.merge_min
       [ ("a", 9); ("prev-only", 1) ]
       [ ("a", 7); ("fresh-only", 3) ])

let latest_snapshot_is_numeric () =
  Alcotest.(check (option string)) "highest N, numerically"
    (Some "BENCH_10.json")
    (Gate.latest_snapshot
       [ "BENCH_9.json"; "BENCH_10.json"; "BENCH_7.json"; "BENCH.json";
         "BENCH_x.json" ]);
  Alcotest.(check (option string)) "no match" None
    (Gate.latest_snapshot [ "BENCH.json"; "BENCH_.json"; "README.md" ])

(* writing never overwrites a baseline: the next N after the latest *)
let next_snapshot_follows_latest () =
  Alcotest.(check string) "none yet" "BENCH_1.json" (Gate.next_snapshot []);
  Alcotest.(check string) "numeric successor" "BENCH_11.json"
    (Gate.next_snapshot [ "BENCH_9.json"; "BENCH_10.json" ]);
  Alcotest.(check string) "malformed names ignored" "BENCH_1.json"
    (Gate.next_snapshot [ "BENCH_.json"; "BENCH.json"; "README.md" ])

let () =
  Alcotest.run "gate"
    [ ("scanner",
       [ Alcotest.test_case "snapshot roundtrip" `Quick scanner_roundtrip;
         Alcotest.test_case "writer roundtrip" `Quick writer_roundtrip;
         Alcotest.test_case "total on garbage" `Quick
           scanner_total_on_garbage ]);
      ("threshold",
       [ Alcotest.test_case "passes within" `Quick
           gate_passes_within_threshold;
         Alcotest.test_case "fails above" `Quick gate_fails_above_threshold;
         Alcotest.test_case "exactly at passes" `Quick
           gate_exactly_at_threshold_passes;
         Alcotest.test_case "zero baseline never trips" `Quick
           gate_zero_baseline_never_trips;
         Alcotest.test_case "custom threshold" `Quick gate_custom_threshold;
         Alcotest.test_case "small delta is noise" `Quick
           gate_small_delta_is_noise;
         Alcotest.test_case "small base, large delta trips" `Quick
           gate_small_base_large_delta_trips;
         Alcotest.test_case "custom min delta" `Quick
           gate_custom_min_delta ]);
      ("skips",
       [ Alcotest.test_case "new key" `Quick gate_new_key_skipped;
         Alcotest.test_case "dropped key" `Quick gate_dropped_key_skipped;
         Alcotest.test_case "empty baseline seeds" `Quick
           gate_empty_baseline ]);
      ("snapshot-file",
       [ Alcotest.test_case "latest BENCH_N.json" `Quick
           latest_snapshot_is_numeric;
         Alcotest.test_case "next BENCH_N.json" `Quick
           next_snapshot_follows_latest ]);
      ("re-measure",
       [ Alcotest.test_case "spike absorbed" `Quick merge_min_absorbs_spike;
         Alcotest.test_case "real regression survives" `Quick
           merge_min_keeps_real_regression;
         Alcotest.test_case "key set is fresh's" `Quick
           merge_min_key_set_is_fresh ]) ]

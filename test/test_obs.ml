(* Observability layer: span tracer + metrics registry.

   Determinism comes from the injectable manual clock; the load-bearing
   property is the last one — installing a tracer must never change what a
   run computes (output, exit code, instruction and cycle counts), it may
   only describe it. *)

module Clock = Omni_util.Clock

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0
module Trace = Omni_obs.Trace
module Metrics = Omni_obs.Metrics
module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine

(* --- spans under a fake clock --- *)

let span_nesting () =
  let clk = Clock.manual () in
  let col = Trace.collector () in
  let t = Trace.make ~clock:clk (Trace.Collect col) in
  Trace.with_span t "run" (fun () ->
      Clock.advance clk 1.0;
      Trace.with_span t ~attrs:[ ("arch", "mips") ] "translate" (fun () ->
          Clock.advance clk 0.25);
      Trace.with_span t "verify" (fun () -> Clock.advance clk 0.125);
      Clock.advance clk 0.5);
  match Trace.collected col with
  | [ tr; ve; run ] ->
      (* completion order: children first *)
      Alcotest.(check string) "first completed" "translate" tr.Trace.name;
      Alcotest.(check string) "second completed" "verify" ve.Trace.name;
      Alcotest.(check string) "last completed" "run" run.Trace.name;
      (* ids are allocated in open order; parents/depths reflect nesting *)
      Alcotest.(check int) "root id" 1 run.Trace.id;
      Alcotest.(check int) "root parent" 0 run.Trace.parent;
      Alcotest.(check int) "root depth" 0 run.Trace.depth;
      Alcotest.(check int) "translate parent" 1 tr.Trace.parent;
      Alcotest.(check int) "translate depth" 1 tr.Trace.depth;
      Alcotest.(check int) "verify parent" 1 ve.Trace.parent;
      Alcotest.(check bool) "sibling ids ordered" true
        (ve.Trace.id > tr.Trace.id);
      (* fake-clock timings are exact *)
      Alcotest.(check (float 0.0)) "translate start" 1.0 tr.Trace.start_s;
      Alcotest.(check (float 0.0)) "translate dur" 0.25 tr.Trace.dur_s;
      Alcotest.(check (float 0.0)) "verify dur" 0.125 ve.Trace.dur_s;
      Alcotest.(check (float 0.0)) "root dur" 1.875 run.Trace.dur_s;
      Alcotest.(check
                  (list (pair string string)))
        "attrs kept" [ ("arch", "mips") ] tr.Trace.attrs
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let span_error_attr () =
  let clk = Clock.manual () in
  let col = Trace.collector () in
  let t = Trace.make ~clock:clk (Trace.Collect col) in
  (try
     Trace.with_span t "boom" (fun () -> failwith "translator bug")
   with Failure _ -> ());
  match Trace.collected col with
  | [ s ] ->
      Alcotest.(check bool) "error attr present" true
        (List.mem_assoc "error" s.Trace.attrs)
  | _ -> Alcotest.fail "span not closed on exception"

let end_without_begin () =
  let t = Trace.make (Trace.Collect (Trace.collector ())) in
  Alcotest.check_raises "unbalanced end"
    (Invalid_argument "Trace.end_span: no open span") (fun () ->
      Trace.end_span t)

let null_tracer_inert () =
  (* every probe on the null tracer is a no-op, including end_span *)
  Trace.end_span Trace.null;
  Trace.begin_span Trace.null "x";
  Trace.phase "y" (fun () -> ());
  Trace.count "c";
  Trace.observe "h" 1.0;
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null)

let phase_histograms_fed () =
  let clk = Clock.manual () in
  let m = Metrics.create () in
  (* Null sink: spans are discarded but the registry still collects *)
  let t = Trace.make ~clock:clk ~metrics:m Trace.Null in
  Trace.with_current t (fun () ->
      Trace.phase "translate" (fun () -> Clock.advance clk 0.5);
      Trace.phase "translate" (fun () -> Clock.advance clk 0.25);
      Trace.phase "run" (fun () -> Clock.advance clk 2.0));
  let h = Metrics.histogram m "phase.translate" in
  Alcotest.(check int) "two translate samples" 2 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "summed" 0.75 (Metrics.histogram_sum h);
  let table = Metrics.render_phases (Metrics.snapshot m) in
  Alcotest.(check bool) "breakdown lists translate" true
    (contains ~affix:"translate" table)

(* --- tallies: one registry update per name per translation --- *)

let tally_flushes_once () =
  let m = Metrics.create () in
  let t = Trace.make ~metrics:m Trace.Null in
  Trace.with_current t (fun () ->
      let tl = Trace.tally () in
      for _ = 1 to 5 do
        Trace.tally_count tl "translate.x";
        Trace.tally_count tl ~by:2 "translate.y";
        let t0 = Trace.tally_clock tl in
        Alcotest.(check bool) "an on tally reads the clock" true (t0 > 0);
        Trace.tally_add_time tl "pass.p" (Trace.tally_clock tl - t0)
      done;
      Alcotest.(check int) "nothing before the flush" 0
        (Metrics.histogram_count (Metrics.histogram m "pass.p"));
      Trace.flush tl;
      Trace.flush tl);
  Alcotest.(check int) "counts summed" 5
    (Metrics.value (Metrics.counter m "translate.x"));
  Alcotest.(check int) "by summed" 10
    (Metrics.value (Metrics.counter m "translate.y"));
  Alcotest.(check int) "one observation for five runs" 1
    (Metrics.histogram_count (Metrics.histogram m "pass.p"));
  (* with no registry the tally is off: it reads no clock *)
  let tl = Trace.tally () in
  Alcotest.(check int) "off tally reads no clock" 0 (Trace.tally_clock tl);
  Trace.tally_add_time tl "pass.p" 3;
  Trace.tally_count tl "translate.x";
  Trace.flush tl

let translation_passes_once () =
  let exe =
    Api.compile_exe ~name:"passes"
      "int f(int n) { int s; int i; s = 1;\n\
      \  for (i = 0; i < n; i++) { if (s > 9) s = s - 3; else s = s * 2; }\n\
      \  return s; }\n\
       int main(void) { print_int(f(12)); putchar(10); return 0; }\n"
  in
  let m = Metrics.create () in
  let t = Trace.make ~metrics:m Trace.Null in
  Trace.with_current t (fun () ->
      ignore (Api.translate Arch.Mips exe);
      ignore (Api.translate Arch.Mips exe));
  let count name = Metrics.histogram_count (Metrics.histogram m name) in
  (* many blocks each translation, one observation each *)
  Alcotest.(check int) "pass.schedule" 2 (count "pass.schedule");
  Alcotest.(check int) "pass.delay_slot" 2 (count "pass.delay_slot");
  Alcotest.(check bool) "sfi checks counted" true
    (Metrics.value (Metrics.counter m "translate.sfi_checks") > 0)

let monotonic_clock () =
  let a = Clock.now Clock.monotonic in
  let b = Clock.now Clock.monotonic in
  Alcotest.(check bool) "never steps back" true (b >= a && a > 0.0);
  match Clock.advance Clock.monotonic 1.0 with
  | () -> Alcotest.fail "advanced the monotonic clock"
  | exception Invalid_argument _ -> ()

(* The default tracer clock is wall time: a span around a sleep lasts at
   least the sleep, though the process spends no CPU in it. *)
let default_clock_measures_latency () =
  let c = Trace.collector () in
  let t = Trace.make (Trace.Collect c) in
  Trace.with_span t "sleep" (fun () -> Unix.sleepf 0.02);
  match Trace.collected c with
  | [ s ] ->
      Alcotest.(check bool)
        (Printf.sprintf "dur_s %.4f >= 0.02" s.Trace.dur_s)
        true (s.Trace.dur_s >= 0.02)
  | _ -> Alcotest.fail "expected one span"

(* --- histogram bucket boundaries --- *)

let bucket_boundaries () =
  (* powers of two sit at the bottom of their bucket: [2^k, 2^(k+1)) *)
  List.iter
    (fun k ->
      let v = Float.ldexp 1.0 k in
      let i = Metrics.bucket_index v in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "upper(2^%d)" k)
        (Float.ldexp 1.0 (k + 1))
        (Metrics.bucket_upper i);
      (* just below the boundary falls one bucket lower *)
      let below = v *. 0.999 in
      Alcotest.(check bool)
        (Printf.sprintf "below 2^%d in lower bucket" k)
        true
        (Metrics.bucket_index below < i))
    [ -20; -10; -1; 0; 1; 10; 20 ];
  (* non-positive and NaN land in the underflow bucket *)
  Alcotest.(check int) "zero" 0 (Metrics.bucket_index 0.0);
  Alcotest.(check int) "negative" 0 (Metrics.bucket_index (-3.0));
  Alcotest.(check int) "nan" 0 (Metrics.bucket_index Float.nan);
  (* every positive in-range value is inside its bucket *)
  List.iter
    (fun v ->
      let i = Metrics.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper" v)
        true
        (v < Metrics.bucket_upper i);
      Alcotest.(check bool)
        (Printf.sprintf "%g >= lower" v)
        true
        (i = 0 || v >= Metrics.bucket_upper (i - 1)))
    [ 1e-9; 0.003; 0.5; 1.0; 1.5; 7.0; 1000.0 ]

let histogram_snapshot_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "t" in
  List.iter (Metrics.observe h) [ 0.3; 0.4; 1.5; 100.0 ];
  let s = Metrics.snapshot m in
  let hs = List.assoc "t" s.Metrics.histograms in
  Alcotest.(check int) "count" 4 hs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "sum" 102.2 hs.Metrics.hs_sum;
  (* 0.3 and 0.4 share bucket [0.25, 0.5); 1.5 and 100.0 are alone *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets"
    [ (0.5, 2); (2.0, 1); (128.0, 1) ]
    hs.Metrics.hs_buckets

(* --- counters survive snapshot + reset --- *)

let counters_survive_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "service.hits" in
  let g = Metrics.gauge m "cache.size" in
  Metrics.incr ~by:3 c;
  Metrics.set g 7.0;
  let s1 = Metrics.snapshot m in
  Alcotest.(check int) "counted" 3 (List.assoc "service.hits" s1.Metrics.counters);
  Metrics.reset m;
  let s2 = Metrics.snapshot m in
  (* registration survives, reading is zeroed *)
  Alcotest.(check int) "zeroed" 0 (List.assoc "service.hits" s2.Metrics.counters);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0
    (List.assoc "cache.size" s2.Metrics.gauges);
  (* the old handle still works after reset *)
  Metrics.incr c;
  Alcotest.(check int) "handle alive" 1 (Metrics.value c);
  (* snapshots are immutable: s1 unchanged *)
  Alcotest.(check int) "snapshot immutable" 3
    (List.assoc "service.hits" s1.Metrics.counters)

let kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  match Metrics.histogram m "x" with
  | _ -> Alcotest.fail "same name, different kind admitted"
  | exception Invalid_argument _ -> ()

let json_escaping () =
  let s =
    { Trace.id = 1; parent = 0; depth = 0; name = "a\"b\\c"; attrs = [];
      start_s = 0.0; dur_s = 0.001 }
  in
  let line = Trace.json_line s in
  Alcotest.(check bool) "escaped" true
    (contains ~affix:{|"a\"b\\c"|} line)

(* --- qcheck: tracing is observationally inert --- *)

let gen_minic_program rng =
  let ri n = Random.State.int rng n in
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "int f(int n) { int s; int i; s = %d;\n\
    \  for (i = 0; i < n; i++) { s = s * %d + i; if (s > 100000) s = s - %d; }\n\
    \  return s; }\n"
    (ri 50) (2 + ri 5) (50_000 + ri 50_000);
  Printf.bprintf buf
    "int main(void) { print_int(f(%d)); putchar(10); return 0; }\n"
    (5 + ri 40);
  Buffer.contents buf

let trace_is_inert (seed : int) : bool =
  let rng = Random.State.make [| seed |] in
  let src = gen_minic_program rng in
  let arch = List.nth Arch.all (Random.State.int rng (List.length Arch.all)) in
  let sfi = Random.State.int rng 2 = 0 in
  let exe = Api.compile_exe ~name:"rand" src in
  let fuel = 50_000_000 in
  let plain =
    {
      Api.default_request with
      engine = Api.Target arch;
      sfi;
      fuel = Some fuel;
    }
  in
  let untraced = Api.run plain (Api.Exe exe) in
  let col = Trace.collector () in
  let m = Metrics.create () in
  let tracer = Trace.make ~metrics:m (Trace.Collect col) in
  let traced = Api.run { plain with trace = Some tracer } (Api.Exe exe) in
  let spans = Trace.collected col in
  String.equal traced.Api.output untraced.Api.output
  && traced.Api.exit_code = untraced.Api.exit_code
  && traced.Api.instructions = untraced.Api.instructions
  && traced.Api.cycles = untraced.Api.cycles
  && traced.Api.outcome = untraced.Api.outcome
  (* and the trace actually described the pipeline *)
  && List.exists (fun s -> s.Trace.name = "translate") spans
  && List.exists (fun s -> s.Trace.name = "run") spans
  && List.exists (fun s -> s.Trace.name = "load") spans
  && Trace.current () == Trace.null

let qcheck_inert =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"tracing never changes a run's result"
       QCheck.(make ~print:string_of_int Gen.int)
       trace_is_inert)

let () =
  Alcotest.run "obs"
    [ ("spans",
       [ Alcotest.test_case "nesting and ordering" `Quick span_nesting;
         Alcotest.test_case "error attr on exception" `Quick span_error_attr;
         Alcotest.test_case "unbalanced end raises" `Quick end_without_begin;
         Alcotest.test_case "null tracer is inert" `Quick null_tracer_inert;
         Alcotest.test_case "phase histograms fed" `Quick phase_histograms_fed;
         Alcotest.test_case "tally flushes once" `Quick tally_flushes_once;
         Alcotest.test_case "one pass observation per translation" `Quick
           translation_passes_once;
         Alcotest.test_case "monotonic clock" `Quick monotonic_clock;
         Alcotest.test_case "default clock measures latency" `Quick
           default_clock_measures_latency;
         Alcotest.test_case "json escaping" `Quick json_escaping ]);
      ("metrics",
       [ Alcotest.test_case "bucket boundaries" `Quick bucket_boundaries;
         Alcotest.test_case "snapshot buckets" `Quick histogram_snapshot_buckets;
         Alcotest.test_case "counters survive reset" `Quick
           counters_survive_reset;
         Alcotest.test_case "kind mismatch rejected" `Quick
           kind_mismatch_rejected ]);
      ("identity", [ qcheck_inert ]) ]

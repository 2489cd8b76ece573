(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the beyond-the-paper sections (see DESIGN.md's
   experiment index and EXPERIMENTS.md for recorded results).

     dune exec bench/main.exe                 -- every section, test size
     dune exec bench/main.exe -- --size ref   -- every section, reference size
     dune exec bench/main.exe -- table1 figure1 speed ...
     dune exec bench/main.exe -- cycles       -- every cycle section
     dune exec bench/main.exe -- gate         -- every timed section

   The sections are Omni_harness.Experiments.sections; an unknown name
   exits 2 before anything is measured. Section text goes to stdout and
   each section's wall time to stderr.

   A cycle section prints simulated cycle counts and ratios of them,
   which are the same on every host: test/bench_cycles.txt pins the
   test-size text of [cycles] byte for byte (dune runtest), and
   bench_output_ref.txt pins the reference-size text. A timed section
   prints wall-clock times, and gates only ratios of two times measured
   in the same invocation, each against the fixed bound written beside
   its section: any ratio outside its bound exits 1 once every picked
   section has run. No time is compared with one measured in another
   run or on another host. *)

module E = Omni_harness.Experiments
module W = Omni_workloads.Workloads

let now () = Omni_util.Clock.(now monotonic)

let named pick = List.filter_map pick E.sections

let groups =
  [ ("cycles", named (function n, E.Cycles _ -> Some n | _ -> None));
    ("gate", named (function n, E.Timed _ -> Some n | _ -> None)) ]

(* Print one section; the checks it made, [] for a cycle section. *)
let run ~size name =
  let t0 = now () in
  let checks =
    match List.assoc name E.sections with
    | E.Cycles f ->
        print_string (f ~size);
        []
    | E.Timed f ->
        let text, checks = f ~size in
        print_string text;
        if checks <> [] then print_newline ();
        List.iter (fun c -> print_endline (E.render_check c)) checks;
        checks
  in
  print_newline ();
  Printf.eprintf "[%s took %.1fs]\n%!" name (now () -. t0);
  checks

let () =
  let size = ref W.Test in
  let picked = ref [] in
  let spec =
    [ ("--size",
       Arg.String (fun s -> size := if s = "ref" then W.Ref else W.Test),
       "test|ref workload size (default test)") ]
  in
  Arg.parse spec (fun s -> picked := s :: !picked) "bench [sections]";
  let valid = List.map fst E.sections @ List.map fst groups in
  (match List.filter (fun s -> not (List.mem s valid)) !picked with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown section(s) %s (valid: %s)\n"
        (String.concat ", " (List.rev unknown))
        (String.concat ", " valid);
      exit 2);
  let todo =
    if !picked = [] then List.map fst E.sections
    else
      List.concat_map
        (fun s -> Option.value ~default:[ s ] (List.assoc_opt s groups))
        (List.rev !picked)
  in
  Printf.printf "omniware benchmark harness (size: %s)\n\n%!"
    (match !size with W.Test -> "test" | W.Ref -> "ref");
  let checks = List.concat_map (run ~size:!size) todo in
  if checks <> [] then begin
    let failed = List.filter (fun c -> not (E.within c)) checks in
    Printf.printf "bench: %d of %d ratios within their bounds; %s\n"
      (List.length checks - List.length failed)
      (List.length checks)
      (if failed = [] then "PASS" else "FAIL");
    if failed <> [] then exit 1
  end

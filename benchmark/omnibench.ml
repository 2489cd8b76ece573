(* omnibench: the end-to-end benchmark of the Omniware serving stack.

     omnibench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     omnibench --smoke

   Runs one workload (tiny-wire, cold-wire or spec-inproc; see
   benchmark/README.md) as a closed loop with one client, then prints one
   JSON line as the last line of standard output: whether every output
   matched its oracle, requests attempted and failed, and the end-to-end
   metrics — or, with --trace 1, the per-layer metrics of a traced replay.
   --smoke runs one pass of every workload, untraced and traced, and
   prints both lines for each. *)

open Omnibench_lib

let () =
  let workload = ref "" in
  let seed = ref 1996 in
  let seconds = ref 20. in
  let trace = ref 0 in
  let smoke = ref false in
  let names = List.map (fun (w : Run.workload) -> w.name) Run.workloads in
  Arg.parse
    [ ("--workload", Arg.Symbol (names, ( := ) workload), " the workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1996)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Int (( := ) trace), "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " one pass of every workload, untraced and traced") ]
    (fun a -> raise (Arg.Bad ("stray argument " ^ a)))
    "omnibench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --smoke";
  (* An interrupted run still stops and reaps its daemons: the signal
     unwinds through their finalizers. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  let runs =
    if !smoke then List.map (fun w -> (w, 0., true)) Run.workloads
    else
      match List.find_opt (fun (w : Run.workload) -> w.name = !workload) Run.workloads with
      | Some w when !trace = 0 || !trace = 1 -> [ (w, !seconds, !trace = 1) ]
      | _ ->
          prerr_endline "omnibench: --workload NAME and --trace 0|1 are required";
          exit 2
  in
  try
    List.iter
      (fun ((w : Run.workload), seconds, traced) ->
        let r = Run.run w ~seed:!seed ~seconds ~traced ~smoke:!smoke in
        if !smoke || not traced then
          print_endline (Run.result_line ~catalogue:Run.end_to_end r r.e2e);
        Option.iter
          (fun layers ->
            print_endline (Run.result_line ~catalogue:Run.per_layer r layers))
          r.layers)
      runs
  with
  | Sys.Break ->
      prerr_endline "omnibench: interrupted";
      exit 1
  | e ->
      Printf.eprintf "omnibench: %s\n%!" (Printexc.to_string e);
      exit 1

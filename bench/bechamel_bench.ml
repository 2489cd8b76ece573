(* Bechamel wall-clock benchmarks for the load-time operations the paper
   argues must be fast (section 3: "translation of OmniVM must be fast"):
   per-architecture translation (with SFI), wire decoding, and whole-module
   compilation. One Test.make per measured operation. *)

open Bechamel
module Api = Omniware.Api
module Machine = Omni_targets.Machine
module W = Omni_workloads.Workloads

let make_tests ~size =
  let w = W.compress ~size in
  let exe = Minic.Driver.compile_exe ~name:w.W.name w.W.source in
  let wire = Omnivm.Wire.encode exe in
  let mode = Machine.Mobile (Omni_sfi.Policy.make ()) in
  let translate_test arch =
    Test.make
      ~name:(Printf.sprintf "translate-%s" (Omni_targets.Arch.name arch))
      (Staged.stage (fun () ->
           ignore (Api.translate ~mode ~opts:(Api.mobile_opts arch) arch exe)))
  in
  [ translate_test Omni_targets.Arch.Mips;
    translate_test Omni_targets.Arch.Sparc;
    translate_test Omni_targets.Arch.Ppc;
    translate_test Omni_targets.Arch.X86;
    Test.make ~name:"wire-decode"
      (Staged.stage (fun () -> ignore (Omnivm.Wire.decode wire)));
    Test.make ~name:"compile-minic"
      (Staged.stage (fun () ->
           ignore (Minic.Driver.compile_exe ~name:w.W.name w.W.source)))
  ]

let benchmark b tests =
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw =
    List.map
      (fun test ->
        List.map
          (fun t -> (Test.Elt.name t, Benchmark.run cfg instances t))
          (Test.elements test))
      tests
    |> List.concat
  in
  List.iter
    (fun (name, m) ->
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let result = Analyze.one ols Toolkit.Instance.monotonic_clock m in
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          Printf.bprintf b "  %-20s %12.0f ns/run  (%.2f ms)\n" name est
            (est /. 1e6)
      | _ -> Printf.bprintf b "  %-20s (no estimate)\n" name)
    raw

let run ~size =
  let b = Buffer.create 512 in
  Buffer.add_string b "Bechamel wall-clock: load-time operations\n";
  benchmark b (make_tests ~size);
  Buffer.contents b

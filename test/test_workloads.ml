(* Workload integration tests: each SPEC92-analogue program must produce
   identical output on the oracle, the OmniVM interpreter, and all four
   target simulators, with and without SFI. This is the end-to-end
   integrity check behind every number in the benchmark tables. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module W = Omni_workloads.Workloads

let engines = [ "interp"; "mips"; "sparc"; "ppc"; "x86" ]

let check_workload (w : W.t) () =
  let tp = Minic.Driver.typed_program_with_stdlib w.W.source in
  let expected =
    match Minic.Oracle.run ~fuel:500_000_000 tp with
    | Minic.Oracle.Exited 0, out -> out
    | Minic.Oracle.Failed m, _ -> Alcotest.failf "oracle failed: %s" m
    | _ -> Alcotest.fail "oracle did not exit 0"
  in
  Alcotest.(check bool) "produces output" true (String.length expected > 0);
  let exe = Minic.Driver.compile_exe ~name:w.W.name w.W.source in
  List.iter
    (fun engine ->
      List.iter
        (fun sfi ->
          let e = Result.get_ok (Api.engine_of_string engine) in
          if not (e = Api.Interp && not sfi) then begin
            let r =
              Api.run
                { Api.default_request with
                  engine = e; sfi; fuel = Some 1_000_000_000 }
                (Api.Exe exe)
            in
            (match r.Api.outcome with
            | Machine.Exited 0 -> ()
            | Machine.Exited c -> Alcotest.failf "%s exited %d" engine c
            | Machine.Faulted f ->
                Alcotest.failf "%s faulted: %s" engine (Omnivm.Fault.to_string f)
            | Machine.Out_of_fuel -> Alcotest.failf "%s out of fuel" engine);
            Alcotest.(check string)
              (Printf.sprintf "%s sfi=%b" engine sfi)
              expected r.Api.output
          end)
        [ true; false ])
    engines

(* guard mode (the virtual exception model's check-and-trap variant) is
   transparent to honest code: identical output, and no guard ever fires *)
let guard_mode_transparent (w : W.t) () =
  let exe = Minic.Driver.compile_exe ~name:w.W.name w.W.source in
  let expected =
    let r =
      Api.run { Api.default_request with fuel = Some 1_000_000_000 }
        (Api.Exe exe)
    in
    r.Api.output
  in
  List.iter
    (fun arch ->
      let mode =
        Machine.Mobile (Omni_sfi.Policy.make ~mode:Omni_sfi.Policy.Guard ())
      in
      let img = Api.load exe in
      let tr = Api.translate ~mode ~opts:(Api.mobile_opts arch) arch exe in
      let r = Api.run_translated ~fuel:1_000_000_000 tr img in
      (match r.Api.outcome with
      | Machine.Exited 0 -> ()
      | Machine.Faulted f ->
          Alcotest.failf "%s guard fired on honest code: %s"
            (Omni_targets.Arch.name arch) (Omnivm.Fault.to_string f)
      | _ -> Alcotest.fail "guard run failed");
      Alcotest.(check string)
        (Omni_targets.Arch.name arch ^ " guard output")
        expected r.Api.output)
    Omni_targets.Arch.all

(* the wire format round-trips complete workloads *)
let wire_roundtrip (w : W.t) () =
  let exe = Minic.Driver.compile_exe ~name:w.W.name w.W.source in
  let exe' = Omnivm.Wire.decode (Omnivm.Wire.encode exe) in
  Alcotest.(check int) "text" (Array.length exe.Omnivm.Exe.text)
    (Array.length exe'.Omnivm.Exe.text);
  let r =
    Api.run { Api.default_request with fuel = Some 1_000_000_000 }
      (Api.Exe exe')
  in
  match r.Api.outcome with
  | Machine.Exited 0 -> ()
  | _ -> Alcotest.fail "decoded module failed to run"

(* characteristic instruction mixes: alvinn is FP-heavy, compress is
   load/store heavy, eqntott branch heavy -- these shapes drive the paper's
   per-benchmark effects, so pin them down *)
let instruction_mixes () =
  let stats (w : W.t) =
    let exe = Minic.Driver.compile_exe ~name:w.W.name w.W.source in
    let r =
      Api.run
        { Api.default_request with
          engine = Api.Target Omni_targets.Arch.Mips;
          fuel = Some 1_000_000_000 }
        (Api.Exe exe)
    in
    Option.get r.Api.stats
  in
  let s_alvinn = stats (W.alvinn ~size:W.Test) in
  let s_compress = stats (W.compress ~size:W.Test) in
  let s_eqntott = stats (W.eqntott ~size:W.Test) in
  let frac part whole = float_of_int part /. float_of_int whole in
  (* compress touches memory a lot *)
  Alcotest.(check bool) "compress load+store fraction > 20%" true
    (frac (s_compress.Machine.loads + s_compress.Machine.stores)
       s_compress.Machine.instructions
    > 0.20);
  (* eqntott branches a lot *)
  Alcotest.(check bool) "eqntott branch fraction > 6%" true
    (frac s_eqntott.Machine.branches s_eqntott.Machine.instructions > 0.06);
  (* alvinn performs more cycles/instr than compress on mips (fp latency) *)
  Alcotest.(check bool) "alvinn cpi > 1" true
    (frac s_alvinn.Machine.cycles s_alvinn.Machine.instructions > 1.0)

let () =
  let ws = W.all ~size:W.Test in
  Alcotest.run "workloads"
    [ ("differential",
       List.map
         (fun (w : W.t) ->
           Alcotest.test_case w.W.name `Slow (check_workload w))
         ws);
      ("guard",
       List.map
         (fun (w : W.t) ->
           Alcotest.test_case w.W.name `Slow (guard_mode_transparent w))
         ws);
      ("wire",
       List.map
         (fun (w : W.t) ->
           Alcotest.test_case w.W.name `Quick (wire_roundtrip w))
         ws);
      ("mixes", [ Alcotest.test_case "instruction mixes" `Slow instruction_mixes ])
    ]

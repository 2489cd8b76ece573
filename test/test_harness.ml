(* Experiment-harness tests: run the table machinery over a micro-workload
   and check the structural properties the paper's results rest on, without
   paying for full benchmark runs. *)

module E = Omni_harness.Experiments
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch

(* a small but non-trivial program exercising int, fp, memory, and calls *)
let micro : Omni_workloads.Workloads.t =
  {
    Omni_workloads.Workloads.name = "micro";
    source =
      {| int tab[64];
         double acc = 0.0;
         int mix(int x) { return (x * 31 + 7) ^ (x >> 3); }
         int bits(int x) { int n; n = 0; while (x != 0) { n += x & 1; x = (x >> 1) & 0x7FFFFFFF; } return n; }
         int main(void) {
           int i; int s;
           for (i = 0; i < 64; i++) tab[i] = mix(i);
           s = 0;
           for (i = 0; i < 64; i++) s += (tab[i] & 0xFF) + bits(tab[i]);
           acc = (double)s / 3.0;
           print_int(s); putchar(10);
           print_float(acc); putchar(10);
           return 0;
         } |};
  }

let all_archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let ratios_sane () =
  List.iter
    (fun arch ->
      let r = E.ratio micro arch E.Mobile_sfi E.Native_cc in
      Alcotest.(check bool)
        (Printf.sprintf "%s sfi/cc ratio %.2f in [1.0, 2.5]" (Arch.name arch) r)
        true
        (r >= 0.99 && r <= 2.5);
      let r45 = E.ratio micro arch E.Mobile_nosfi E.Native_cc in
      Alcotest.(check bool)
        (Printf.sprintf "%s sfi >= no-sfi" (Arch.name arch))
        true (r >= r45 -. 0.001))
    all_archs

let sfi_overhead_positive () =
  (* SFI must cost something but not dominate *)
  List.iter
    (fun arch ->
      let sfi = E.measure micro arch E.Mobile_sfi in
      let nosfi = E.measure micro arch E.Mobile_nosfi in
      Alcotest.(check bool)
        (Printf.sprintf "%s sfi cycles >= no-sfi" (Arch.name arch))
        true
        (sfi.E.m_cycles >= nosfi.E.m_cycles);
      let over =
        float_of_int sfi.E.m_cycles /. float_of_int nosfi.E.m_cycles
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s sfi overhead %.2f < 1.5" (Arch.name arch) over)
        true (over < 1.5))
    all_archs

let translator_opts_help () =
  List.iter
    (fun arch ->
      let opt = E.measure micro arch E.Mobile_sfi in
      let noopt = E.measure micro arch E.Mobile_sfi_noopt in
      Alcotest.(check bool)
        (Printf.sprintf "%s translator opts don't hurt" (Arch.name arch))
        true
        (opt.E.m_cycles <= noopt.E.m_cycles))
    all_archs

let omni_counts_consistent () =
  (* every configuration executes the same number of OmniVM instructions:
     the Core-origin discipline in the translators *)
  List.iter
    (fun arch ->
      let a = E.measure micro arch E.Mobile_sfi in
      let b = E.measure micro arch E.Mobile_nosfi in
      Alcotest.(check int)
        (Printf.sprintf "%s omni instruction counts agree" (Arch.name arch))
        a.E.m_omni_instructions b.E.m_omni_instructions)
    all_archs;
  (* and across architectures *)
  let base = (E.measure micro Arch.Mips E.Mobile_sfi).E.m_omni_instructions in
  List.iter
    (fun arch ->
      Alcotest.(check int)
        (Printf.sprintf "%s omni count matches mips" (Arch.name arch))
        base
        (E.measure micro arch E.Mobile_sfi).E.m_omni_instructions)
    all_archs

let expansion_profile_shape () =
  (* Figure 1 structural facts *)
  let profile arch =
    match (E.measure micro arch E.Mobile_sfi).E.m_stats with
    | Some s -> Machine.expansion_profile s
    | None -> Alcotest.fail "no stats"
  in
  let get k p = List.assoc k p in
  let mips = profile Arch.Mips in
  let ppc = profile Arch.Ppc in
  Alcotest.(check bool) "mips has delay-slot nops" true (get "bnop" mips > 0.0);
  Alcotest.(check (float 0.0)) "ppc has no delay slots" 0.0 (get "bnop" ppc);
  Alcotest.(check bool) "ppc executes more compares" true
    (get "cmp" ppc > get "cmp" mips);
  Alcotest.(check bool) "ppc shorter sfi sequence" true
    (get "sfi" ppc < get "sfi" mips);
  Alcotest.(check bool) "some sfi overhead on mips" true (get "sfi" mips > 0.0)

let regfile_monotone () =
  (* Table 2: fewer registers cannot be faster *)
  let cycles n =
    (E.measure ~regfile_size:n micro Arch.Sparc E.Mobile_sfi).E.m_cycles
  in
  let c8 = cycles 8 and c12 = cycles 12 and c16 = cycles 16 in
  Alcotest.(check bool)
    (Printf.sprintf "8 regs (%d) >= 12 regs (%d)" c8 c12)
    true (c8 >= c12);
  Alcotest.(check bool)
    (Printf.sprintf "12 regs (%d) >= 16 regs (%d)" c12 c16)
    true (c12 >= c16)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let table_rendering () =
  (* tables render and contain every workload row (micro only, via direct
     render call) *)
  let s =
    E.render_ratio_table ~title:"T" ~columns:[ "a"; "b" ] ~rows:[ "x"; "y" ]
      ~cell:(fun r c -> if r = "x" && c = "a" then Some 1.25 else Some 2.0)
  in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "has average row" true (contains s "average");
  Alcotest.(check bool) "has the cell" true (contains s "1.25")

let bounds () =
  let c lo hi v = { E.ck_name = "r"; ck_value = v; ck_lo = lo; ck_hi = hi } in
  Alcotest.(check bool) "inside" true (E.within (c 2.0 infinity 3.1));
  Alcotest.(check bool) "on the bound" true (E.within (c 0.8 1.25 1.25));
  Alcotest.(check bool) "below" false (E.within (c 2.0 infinity 1.02));
  Alcotest.(check bool) "above" false (E.within (c 0.8 1.25 1.3));
  Alcotest.(check bool) "nan" false (E.within (c 0.8 1.25 Float.nan));
  Alcotest.(check bool) "rendered as a failure" true
    (contains (E.render_check (c 2.0 infinity 1.02)) "FAIL")

let () =
  Alcotest.run "harness"
    [ ("experiments",
       [ Alcotest.test_case "ratios sane" `Slow ratios_sane;
         Alcotest.test_case "sfi overhead" `Slow sfi_overhead_positive;
         Alcotest.test_case "translator opts" `Slow translator_opts_help;
         Alcotest.test_case "omni counts" `Slow omni_counts_consistent;
         Alcotest.test_case "expansion profile" `Slow expansion_profile_shape;
         Alcotest.test_case "regfile monotone" `Slow regfile_monotone ]);
      ("rendering",
       [ Alcotest.test_case "ratio table" `Quick table_rendering;
         Alcotest.test_case "ratio bounds" `Quick bounds ])
    ]

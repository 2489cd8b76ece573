(* Target-machine tests: translators, schedulers, delay slots, pipeline
   cost model, and the native baseline tiers. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch
module Risc = Omni_targets.Risc
module P = Omni_targets.Pipeline
module S = Omni_targets.Sched

let sandbox = Machine.Mobile (Omni_sfi.Policy.make ())

let compile_asm src =
  Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"t" src ]

let translate_risc arch ?(mode = sandbox) ?opts exe =
  match Api.translate ~mode ?opts arch exe with
  | Api.T_risc p -> p
  | Api.T_x86 _ -> assert false

(* --- scheduler: random straight-line blocks preserve semantics --- *)

type sched_ins =
  | Op of int * int * int (* rd := ra + 7*rb + 1 *)
  | Ld of int * int (* rd := mem[cell] *)
  | St of int * int (* mem[cell] := ra *)

let sched_attrs = function
  | Op (rd, ra, rb) ->
      { P.uses = [ ra; rb ]; defs = [ rd ]; latency = 2; unit_ = P.IU;
        is_load = false; is_store = false }
  | Ld (rd, _) ->
      { P.uses = []; defs = [ rd ]; latency = 2; unit_ = P.IU;
        is_load = true; is_store = false }
  | St (_, ra) ->
      { P.uses = [ ra ]; defs = []; latency = 1; unit_ = P.IU;
        is_load = false; is_store = true }

let sched_info = { S.attrs = sched_attrs; is_barrier = (fun _ -> false) }

(* One scheduler for every block, as in a translation: each block must
   leave its scratch state clean for the next. *)
let sched = S.create sched_info

let sched_exec prog =
  let regs = Array.init 8 (fun i -> (i * 13) + 1) in
  let mem = Array.make 4 5 in
  Array.iter
    (function
      | Op (rd, ra, rb) -> regs.(rd) <- (regs.(ra) + (regs.(rb) * 7) + 1) land 0xFFFF
      | Ld (rd, c) -> regs.(rd) <- mem.(c)
      | St (c, ra) -> mem.(c) <- regs.(ra))
    prog;
  (Array.to_list regs, Array.to_list mem)

let gen_block_upto max_len =
  QCheck.Gen.(
    list_size (int_range 1 max_len)
      (oneof
         [ map3 (fun a b c -> Op (a, b, c)) (int_bound 7) (int_bound 7) (int_bound 7);
           map2 (fun a b -> Ld (a, b)) (int_bound 7) (int_bound 3);
           map2 (fun a b -> St (a, b)) (int_bound 3) (int_bound 7) ])
    >>= fun l -> return (Array.of_list l))

let gen_block = gen_block_upto 14

let preserves prog =
  sched_exec (S.schedule_body sched ~quality:S.Greedy prog) = sched_exec prog
  && sched_exec (S.schedule_body sched ~quality:S.Critical_path prog)
     = sched_exec prog

let scheduler_preserves =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"list scheduling preserves semantics"
       (QCheck.make gen_block) preserves)

(* Blocks longer than the scratch arrays start out: they grow, and the
   short blocks after them still schedule correctly. *)
let scheduler_preserves_long =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"list scheduling preserves semantics on long blocks"
       (QCheck.make QCheck.Gen.(pair (gen_block_upto 90) gen_block))
       (fun (long, short) -> preserves long && preserves short))

let delay_slot_filler_safe =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"delay slot filler respects hazards"
       (QCheck.make
          QCheck.Gen.(pair gen_block (int_bound 7)))
       (fun (prog, breg) ->
         (* a "branch" that reads breg and writes reg 7 (like a call) *)
         let battrs =
           { P.uses = [ breg ]; defs = [ 7 ]; latency = 1; unit_ = P.BRU;
             is_load = false; is_store = false }
         in
         let body, filler = S.fill_delay_slot sched ~branch_attrs:battrs prog in
         match filler with
         | None -> true
         | Some f ->
             (* executing body+branch-effects+filler must equal prog+branch *)
             let a = sched_exec (Array.append body [| f |]) in
             let b = sched_exec prog in
             (* the filler must not touch breg's value or reg 7 *)
             let fa = sched_attrs f in
             a = b
             && (not (List.mem 7 fa.P.uses))
             && (not (List.mem 7 fa.P.defs))
             && not (List.mem breg fa.P.defs)))

(* --- golden translations: check key sequences per architecture --- *)

let strings_of p =
  Array.map (fun (s : Risc.slot) -> Risc.string_of_instr s.Risc.i) p.Risc.code
  |> Array.to_list

let origins_of p =
  Array.map (fun (s : Risc.slot) -> s.Risc.origin) p.Risc.code |> Array.to_list

let store_sfi_sequences () =
  let exe =
    compile_asm
      {|
        .text
        .globl main
main:   sw r3, 0(r2)
        hcall 0
|}
  in
  (* mips: and + or + store *)
  let mips = translate_risc Arch.Mips exe in
  Alcotest.(check (list string))
    "mips sandbox sequence"
    [ "and sd, o2, dm"; "or sd, sd, db"; "sw o3, 0(sd)"; "hcall 0" ]
    (strings_of mips);
  (* ppc: indexed store drops the or (paper 4.3) *)
  let ppc = translate_risc Arch.Ppc exe in
  Alcotest.(check (list string))
    "ppc sandbox sequence (shorter)"
    [ "and sd, o2, dm"; "swx o3, db(sd)"; "hcall 0" ]
    (strings_of ppc);
  (* sfi origins are tagged *)
  Alcotest.(check bool) "sfi origin count mips" true
    (List.length (List.filter (fun o -> o = Machine.Sfi) (origins_of mips)) = 2);
  Alcotest.(check bool) "sfi origin count ppc" true
    (List.length (List.filter (fun o -> o = Machine.Sfi) (origins_of ppc)) = 1)

let branch_models () =
  let exe =
    compile_asm
      {|
        .text
        .globl main
main:   blt r2, r3, main
        hcall 0
|}
  in
  (* mips: slt + bne; sparc/ppc: cmp + branch-on-cc *)
  let mips = strings_of (translate_risc Arch.Mips exe) in
  Alcotest.(check bool) "mips uses slt" true
    (List.exists (fun s -> s = "slt t24, o2, o3") mips);
  let sparc = strings_of (translate_risc Arch.Sparc exe) in
  Alcotest.(check bool) "sparc uses cmp" true
    (List.exists (fun s -> s = "cmp o2, o3") sparc);
  (* branch against zero is a single instruction on mips *)
  let exe0 =
    compile_asm "
        .text
        .globl main
main:   bgei r2, 0, main
        hcall 0
" in
  let mips0 = translate_risc Arch.Mips exe0 in
  let cmps =
    List.length
      (List.filter (fun o -> o = Machine.Cmp) (origins_of mips0))
  in
  Alcotest.(check int) "no compare for branch-vs-zero on mips" 0 cmps

let large_immediates () =
  let exe =
    compile_asm
      {|
        .text
        .globl main
main:   li r2, 305419896   ; 0x12345678
        addi r3, r2, 100000
        hcall 0
|}
  in
  let mips = translate_risc Arch.Mips exe in
  let ldis =
    List.length (List.filter (fun o -> o = Machine.Ldi) (origins_of mips))
  in
  Alcotest.(check bool) "mips needs lui parts" true (ldis >= 2);
  (* the vendor tier models perfect constant handling: no ldi expansion *)
  let cc = translate_risc Arch.Mips ~mode:(Machine.Native Machine.Cc)
      ~opts:Machine.all_opts exe in
  let ldis_cc =
    List.length (List.filter (fun o -> o = Machine.Ldi) (origins_of cc))
  in
  Alcotest.(check int) "native cc has no ldi" 0 ldis_cc

let delay_slots_emitted () =
  let exe =
    compile_asm
      {|
        .text
        .globl main
main:   beq r2, r3, main
        hcall 0
|}
  in
  let no_fill =
    translate_risc Arch.Mips ~opts:Machine.no_opts exe
  in
  (* branch followed by a bnop nop *)
  let rec has_bnop = function
    | [] -> false
    | (s : Risc.slot) :: _ when s.Risc.origin = Machine.Bnop -> true
    | _ :: rest -> has_bnop rest
  in
  Alcotest.(check bool) "mips nop in delay slot" true
    (has_bnop (Array.to_list no_fill.Risc.code));
  (* ppc has no delay slots *)
  let ppc = translate_risc Arch.Ppc ~opts:Machine.no_opts exe in
  Alcotest.(check bool) "ppc has no bnop" false
    (has_bnop (Array.to_list ppc.Risc.code))

(* delay-slot filling must preserve program behaviour: compile a branchy
   program and run with and without filling *)
let delay_fill_semantics () =
  let src =
    {| int collatz(int n) {
         int steps;
         steps = 0;
         while (n != 1) {
           if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
           steps++;
         }
         return steps;
       }
       int main(void) {
         int i; int s;
         s = 0;
         for (i = 1; i < 40; i++) s += collatz(i);
         print_int(s); putchar(10);
         return 0;
       } |}
  in
  let exe = Minic.Driver.compile_exe ~name:"collatz" src in
  let out opts arch =
    let img = Api.load exe in
    let tr = Api.translate ~mode:sandbox ~opts arch exe in
    let r = Api.run_translated ~fuel:50_000_000 tr img in
    (match r.Api.outcome with
    | Machine.Exited 0 -> ()
    | _ -> Alcotest.fail "run failed");
    r.Api.output
  in
  List.iter
    (fun arch ->
      let base = out Machine.no_opts arch in
      Alcotest.(check string)
        (Arch.name arch ^ " fill preserves semantics")
        base
        (out Machine.all_opts arch);
      Alcotest.(check string)
        (Arch.name arch ^ " sched-only preserves semantics")
        base
        (out { Machine.no_opts with schedule = true } arch))
    [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

(* scheduling should not increase cycle counts (on straight-line FP code it
   should decrease them) *)
let scheduling_helps () =
  let src =
    {| double a[64]; double b[64];
       int main(void) {
         int i; double s;
         for (i = 0; i < 64; i++) { a[i] = (double)i * 0.5; b[i] = (double)(64 - i); }
         s = 0.0;
         for (i = 0; i < 64; i++) s += a[i] * b[i] + a[i];
         print_int((int)s); putchar(10);
         return 0;
       } |}
  in
  let exe = Minic.Driver.compile_exe ~name:"dot" src in
  let cycles opts =
    let img = Api.load exe in
    let tr = Api.translate ~mode:sandbox ~opts Arch.Mips exe in
    let r = Api.run_translated ~fuel:50_000_000 tr img in
    r.Api.cycles
  in
  let unsched = cycles Machine.no_opts in
  let sched = cycles { Machine.no_opts with schedule = true;
                       fill_delay_slots = true } in
  Alcotest.(check bool)
    (Printf.sprintf "scheduled (%d) <= unscheduled (%d)" sched unsched)
    true (sched <= unsched)

(* gp addressing shortens global access on sparc *)
let gp_addressing () =
  let exe =
    compile_asm
      {|
        .data
g:      .word 7
        .text
        .globl main
main:   lw r2, g(r0)
        hcall 0
|}
  in
  let without =
    translate_risc Arch.Sparc ~opts:{ Machine.all_opts with use_gp = false } exe
  in
  let with_gp = translate_risc Arch.Sparc ~opts:Machine.all_opts exe in
  Alcotest.(check bool) "gp saves instructions" true
    (Array.length with_gp.Risc.code < Array.length without.Risc.code);
  (* and execution still works *)
  let img = Api.load exe in
  let o, _, _ =
    Omni_targets.Risc_sim.run ~fuel:1000 with_gp img.Omni_runtime.Loader.mem
      img.Omni_runtime.Loader.host
  in
  match o with
  | Machine.Exited 7 -> () (* hcall 0 takes r1; r1 = junk... just check exit *)
  | Machine.Exited _ -> ()
  | _ -> Alcotest.fail "gp run failed"

(* native tiers: cc is at least as fast as gcc, both at least as fast as
   mobile code with SFI *)
let tier_ordering () =
  let w = Omni_workloads.Workloads.eqntott ~size:Omni_workloads.Workloads.Test in
  let exe = Minic.Driver.compile_exe ~name:"eq" w.Omni_workloads.Workloads.source in
  List.iter
    (fun arch ->
      let run mode opts =
        let img = Api.load exe in
        let tr = Api.translate ~mode ~opts arch exe in
        let r = Api.run_translated ~fuel:500_000_000 tr img in
        (match r.Api.outcome with
        | Machine.Exited 0 -> ()
        | _ -> Alcotest.fail "tier run failed");
        r.Api.cycles
      in
      let cc = run (Machine.Native Machine.Cc) Machine.all_opts in
      let gcc = run (Machine.Native Machine.Gcc) Machine.all_opts in
      let mobile = run sandbox (Api.mobile_opts arch) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cc (%d) <= gcc (%d)" (Arch.name arch) cc gcc)
        true (cc <= gcc);
      Alcotest.(check bool)
        (Printf.sprintf "%s: gcc (%d) <= mobile+sfi (%d)" (Arch.name arch) gcc mobile)
        true (gcc <= mobile))
    [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

(* the guard-zone SFI optimization (paper 4.4 forecast): semantics are
   preserved, cycles never increase, and the verifier still accepts *)
let sfi_opt_correct () =
  let w = Omni_workloads.Workloads.li ~size:Omni_workloads.Workloads.Test in
  let exe = Minic.Driver.compile_exe ~name:"li" w.Omni_workloads.Workloads.source in
  let interp =
    Api.run { Api.default_request with fuel = Some 500_000_000 } (Api.Exe exe)
  in
  List.iter
    (fun arch ->
      let run opts =
        let img = Api.load exe in
        let tr = Api.translate ~mode:sandbox ~opts arch exe in
        let r = Api.run_translated ~fuel:500_000_000 tr img in
        (match r.Api.outcome with
        | Machine.Exited 0 -> ()
        | _ -> Alcotest.fail "sfi_opt run failed");
        (r.Api.output, r.Api.cycles, tr)
      in
      let base_out, base_cycles, _ = run (Api.mobile_opts arch) in
      let opt_out, opt_cycles, tr =
        run { (Api.mobile_opts arch) with Machine.sfi_opt = true }
      in
      Alcotest.(check string) (Arch.name arch ^ " output preserved")
        interp.Api.output opt_out;
      Alcotest.(check string) (Arch.name arch ^ " same as unoptimized")
        base_out opt_out;
      Alcotest.(check bool)
        (Printf.sprintf "%s opt (%d) <= base (%d)" (Arch.name arch)
           opt_cycles base_cycles)
        true
        (opt_cycles <= base_cycles);
      (* the verifier must still accept the optimized code *)
      match tr with
      | Api.T_risc p -> (
          match Omni_targets.Risc_verify.verify p with
          | Ok () -> ()
          | Error { Omni_sfi.Verifier.index; reason } ->
              Alcotest.failf "%s: verifier rejected sfi_opt code at %d: %s"
                (Arch.name arch) index reason)
      | Api.T_x86 _ -> ())
    [ Arch.Mips; Arch.Sparc; Arch.Ppc ]

(* pipeline model sanity *)
let pipeline_unit () =
  let cfg =
    { P.issue_width = 1; dual_issue_rule = (fun _ _ -> false);
      taken_branch_penalty = 0 }
  in
  let step t a =
    let c = P.costs 1 in
    P.set c 0 a;
    P.step t c 0 ~taken_branch:false
  in
  let t = P.create cfg in
  let simple = { P.uses = []; defs = [ 1 ]; latency = 1; unit_ = P.IU;
                 is_load = false; is_store = false } in
  step t simple;
  step t simple;
  Alcotest.(check int) "two independent ops, 1/cycle" 2 (P.cycles t);
  (* load-use interlock *)
  let t = P.create cfg in
  let load = { P.uses = []; defs = [ 2 ]; latency = 3; unit_ = P.IU;
               is_load = true; is_store = false } in
  let use = { P.uses = [ 2 ]; defs = [ 3 ]; latency = 1; unit_ = P.IU;
              is_load = false; is_store = false } in
  step t load;
  step t use;
  Alcotest.(check int) "load-use stall" 4 (P.cycles t);
  (* dual issue *)
  let cfg2 = { cfg with P.issue_width = 2; dual_issue_rule = (fun _ _ -> true) } in
  let t = P.create cfg2 in
  let op d = { simple with P.defs = [ d ] } in
  step t (op 1);
  step t (op 2);
  step t (op 3);
  step t (op 4);
  Alcotest.(check int) "2-wide pairs" 2 (P.cycles t)

(* --- golden simulator statistics ---

   The cycle model prices SFI, so any drift in it changes every reported
   overhead. These are the statistics of the six spec-inproc programs (the
   four SPEC92 analogues and the two guest kernels, Test size) under the
   default mobile translation on every target, pinned to the values the
   list-walking cost model produced. *)

module W = Omni_workloads.Workloads

let spec_programs =
  lazy
    (List.map
       (fun (w : W.t) ->
         ( w.W.name,
           Omnivm.Wire.decode (Minic.Driver.compile_wire ~name:w.W.name w.W.source)
         ))
       (W.all ~size:W.Test)
    @ List.map
        (fun (g : W.Guest.t) ->
          match Result.bind (Omni_guest.Asm.assemble g.W.Guest.asm)
                  Omni_guest.Lift.lift_wire with
          | Ok wire -> (g.W.Guest.name, Omnivm.Wire.decode wire)
          | Error e -> failwith (Omni_guest.Error.to_string e))
        (W.Guest.all ~size:W.Test))

let targets = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let run_spec arch exe =
  let tr = Api.translate ~mode:sandbox arch exe in
  let img = Api.load exe in
  Api.run_translated ~fuel:1_000_000_000 tr img

type golden = {
  g_instrs : int;
  g_cycles : int;
  g_loads : int;
  g_stores : int;
  g_branches : int;
  g_taken : int;
  g_by_origin : int list; (* core addr cmp ldi bnop sfi *)
  g_output : string; (* FNV-64 of the output *)
}

let golden_of (r : Api.run_result) =
  let s = Option.get r.Api.stats in
  {
    g_instrs = s.Machine.instructions;
    g_cycles = s.Machine.cycles;
    g_loads = s.Machine.loads;
    g_stores = s.Machine.stores;
    g_branches = s.Machine.branches;
    g_taken = s.Machine.taken_branches;
    g_by_origin = Array.to_list s.Machine.by_origin;
    g_output = Omni_util.Fnv64.to_hex (Omni_util.Fnv64.digest_string r.Api.output);
  }

let golden_stats =
  [
    ( ("li", "mips"),
      { g_instrs = 310607; g_cycles = 330416; g_loads = 58742; g_stores = 39362;
        g_branches = 14630; g_taken = 6559;
        g_by_origin = [ 204286; 22481; 2016; 3182; 29642; 49000 ];
        g_output = "3d4b3cce08678ab1" } );
    ( ("li", "sparc"),
      { g_instrs = 298667; g_cycles = 329017; g_loads = 58742; g_stores = 39362;
        g_branches = 14630; g_taken = 6559;
        g_by_origin = [ 204286; 0; 14673; 36; 30672; 49000 ];
        g_output = "3d4b3cce08678ab1" } );
    ( ("li", "ppc"),
      { g_instrs = 279990; g_cycles = 312242; g_loads = 58742; g_stores = 39362;
        g_branches = 14630; g_taken = 6559;
        g_by_origin = [ 204286; 22481; 14673; 2195; 0; 36355 ];
        g_output = "3d4b3cce08678ab1" } );
    ( ("li", "x86"),
      { g_instrs = 378592; g_cycles = 371652; g_loads = 112027; g_stores = 71850;
        g_branches = 14630; g_taken = 6559;
        g_by_origin = [ 204286; 93614; 13721; 0; 0; 66971 ];
        g_output = "3d4b3cce08678ab1" } );
    ( ("compress", "mips"),
      { g_instrs = 1657346; g_cycles = 2055435; g_loads = 262824; g_stores = 85480;
        g_branches = 93200; g_taken = 70437;
        g_by_origin = [ 1081424; 187468; 56857; 70115; 140920; 120562 ];
        g_output = "ade13e4a4a427208" } );
    ( ("compress", "sparc"),
      { g_instrs = 1500069; g_cycles = 1987692; g_loads = 262824; g_stores = 85480;
        g_branches = 93200; g_taken = 70437;
        g_by_origin = [ 1081424; 0; 93200; 63963; 140920; 120562 ];
        g_output = "ade13e4a4a427208" } );
    ( ("compress", "ppc"),
      { g_instrs = 1503237; g_cycles = 2035241; g_loads = 262824; g_stores = 85480;
        g_branches = 93200; g_taken = 70437;
        g_by_origin = [ 1081424; 187468; 93200; 63950; 0; 77195 ];
        g_output = "ade13e4a4a427208" } );
    ( ("compress", "x86"),
      { g_instrs = 2034800; g_cycles = 2317839; g_loads = 527526; g_stores = 247230;
        g_branches = 93200; g_taken = 70437;
        g_by_origin = [ 1081424; 679333; 93200; 0; 0; 180843 ];
        g_output = "ade13e4a4a427208" } );
    ( ("alvinn", "mips"),
      { g_instrs = 634718; g_cycles = 943818; g_loads = 107316; g_stores = 17250;
        g_branches = 32858; g_taken = 29961;
        g_by_origin = [ 486419; 37491; 32026; 11130; 39582; 28070 ];
        g_output = "09c19759ed84fda7" } );
    ( ("alvinn", "sparc"),
      { g_instrs = 610047; g_cycles = 923137; g_loads = 107316; g_stores = 17250;
        g_branches = 32858; g_taken = 29961;
        g_by_origin = [ 486419; 10368; 33690; 11918; 39582; 28070 ];
        g_output = "09c19759ed84fda7" } );
    ( ("alvinn", "ppc"),
      { g_instrs = 584936; g_cycles = 915987; g_loads = 107316; g_stores = 17250;
        g_branches = 32858; g_taken = 29961;
        g_by_origin = [ 486419; 37491; 33690; 11130; 0; 16206 ];
        g_output = "09c19759ed84fda7" } );
    ( ("alvinn", "x86"),
      { g_instrs = 943400; g_cycles = 1395862; g_loads = 319718; g_stores = 151825;
        g_branches = 32858; g_taken = 29961;
        g_by_origin = [ 486419; 381186; 33690; 0; 0; 42105 ];
        g_output = "09c19759ed84fda7" } );
    ( ("eqntott", "mips"),
      { g_instrs = 4104741; g_cycles = 5085958; g_loads = 646640; g_stores = 94010;
        g_branches = 354547; g_taken = 174328;
        g_by_origin = [ 2690929; 277127; 258524; 121360; 594622; 162179 ];
        g_output = "fb386e7b878d757b" } );
    ( ("eqntott", "sparc"),
      { g_instrs = 3883805; g_cycles = 5046784; g_loads = 646640; g_stores = 94010;
        g_branches = 354547; g_taken = 174328;
        g_by_origin = [ 2690929; 0; 354547; 76809; 599341; 162179 ];
        g_output = "fb386e7b878d757b" } );
    ( ("eqntott", "ppc"),
      { g_instrs = 3541049; g_cycles = 5179423; g_loads = 646640; g_stores = 94010;
        g_branches = 354547; g_taken = 174328;
        g_by_origin = [ 2690929; 277127; 354547; 86992; 0; 131454 ];
        g_output = "fb386e7b878d757b" } );
    ( ("eqntott", "x86"),
      { g_instrs = 5415042; g_cycles = 6268271; g_loads = 1579532; g_stores = 869529;
        g_branches = 354547; g_taken = 174328;
        g_by_origin = [ 2690929; 2127003; 353843; 0; 0; 243267 ];
        g_output = "fb386e7b878d757b" } );
    ( ("g_checksum", "mips"),
      { g_instrs = 35053; g_cycles = 37745; g_loads = 6540; g_stores = 4625;
        g_branches = 2315; g_taken = 1541;
        g_by_origin = [ 25817; 0; 1540; 1540; 2316; 3840 ];
        g_output = "2d28e924c221e240" } );
    ( ("g_checksum", "sparc"),
      { g_instrs = 35828; g_cycles = 39288; g_loads = 6540; g_stores = 4625;
        g_branches = 2315; g_taken = 1541;
        g_by_origin = [ 25817; 0; 2315; 1156; 2700; 3840 ];
        g_output = "2d28e924c221e240" } );
    ( ("g_checksum", "ppc"),
      { g_instrs = 32360; g_cycles = 38908; g_loads = 6540; g_stores = 4625;
        g_branches = 2315; g_taken = 1541;
        g_by_origin = [ 25817; 0; 2315; 1540; 0; 2688 ];
        g_output = "2d28e924c221e240" } );
    ( ("g_checksum", "x86"),
      { g_instrs = 40045; g_cycles = 42718; g_loads = 12310; g_stores = 10009;
        g_branches = 2315; g_taken = 1541;
        g_by_origin = [ 25817; 7305; 2315; 0; 0; 4608 ];
        g_output = "2d28e924c221e240" } );
    ( ("g_sort", "mips"),
      { g_instrs = 37601; g_cycles = 39823; g_loads = 5937; g_stores = 1877;
        g_branches = 4772; g_taken = 2739;
        g_by_origin = [ 25734; 0; 3381; 2040; 4772; 1674 ];
        g_output = "12a3efa6fa5e0aee" } );
    ( ("g_sort", "sparc"),
      { g_instrs = 37098; g_cycles = 39415; g_loads = 5937; g_stores = 1877;
        g_branches = 4772; g_taken = 2739;
        g_by_origin = [ 25734; 0; 4772; 98; 4820; 1674 ];
        g_output = "12a3efa6fa5e0aee" } );
    ( ("g_sort", "ppc"),
      { g_instrs = 33477; g_cycles = 43712; g_loads = 5937; g_stores = 1877;
        g_branches = 4772; g_taken = 2739;
        g_by_origin = [ 25734; 0; 4772; 2040; 0; 931 ];
        g_output = "12a3efa6fa5e0aee" } );
    ( ("g_sort", "x86"),
      { g_instrs = 38221; g_cycles = 36747; g_loads = 11143; g_stores = 6433;
        g_branches = 4772; g_taken = 2739;
        g_by_origin = [ 25734; 5345; 4772; 0; 0; 2370 ];
        g_output = "12a3efa6fa5e0aee" } );
  ]

let golden_simulator_stats () =
  List.iter
    (fun (name, exe) ->
      List.iter
        (fun arch ->
          let got = golden_of (run_spec arch exe) in
          match List.assoc_opt (name, Arch.name arch) golden_stats with
          | Some want when want = got -> ()
          | Some want ->
              Alcotest.failf
                "%s on %s: instructions %d cycles %d loads %d stores %d \
                 branches %d taken %d by_origin [%s] output %s; expected \
                 %d %d %d %d %d %d [%s] %s"
                name (Arch.name arch) got.g_instrs got.g_cycles got.g_loads
                got.g_stores got.g_branches got.g_taken
                (String.concat ";" (List.map string_of_int got.g_by_origin))
                got.g_output want.g_instrs want.g_cycles want.g_loads
                want.g_stores want.g_branches want.g_taken
                (String.concat ";" (List.map string_of_int want.g_by_origin))
                want.g_output
          | None -> Alcotest.failf "%s on %s: no golden entry" name (Arch.name arch))
        targets)
    (Lazy.force spec_programs)

(* The simulators allocate nothing per retired instruction: what a run
   allocates is its set-up, its first decoding of each slot it reaches,
   and its output, which a few hundred thousand instructions dilute far
   below this bound. *)
let simulator_allocation () =
  List.iter
    (fun name ->
      let exe = List.assoc name (Lazy.force spec_programs) in
      List.iter
        (fun arch ->
          let tr = Api.translate ~mode:sandbox arch exe in
          let img = Api.load exe in
          let before = Gc.minor_words () in
          let r = Api.run_translated ~fuel:1_000_000_000 tr img in
          let words = Gc.minor_words () -. before in
          let per_instr = words /. float_of_int r.Api.instructions in
          if per_instr > 0.05 then
            Alcotest.failf "%s on %s: %.3f minor words per instruction" name
              (Arch.name arch) per_instr)
        targets)
    [ "compress"; "eqntott" ]

(* --- golden translations ---

   One FNV-64 digest over the code fingerprint and the encoded
   certificate of every translation of a fixed module set: seeded guest
   programs, seeded MiniC loops and the spec-inproc programs, on every
   target, under the default mobile translation and under the vendor tier
   with every optimization (the only configuration that schedules by
   critical path). Recorded before the scheduler moved to packed costs;
   any change to what a translator emits, or to a certificate, moves it. *)

module Exec = Omni_service.Exec

let golden_modules =
  lazy
    (List.init 32 (fun seed ->
         let rng = Random.State.make [| 0x90de; seed |] in
         let p = Omni_guest.Gen.program rng in
         match Omni_guest.Lift.lift_wire p with
         | Ok wire -> wire
         | Error e -> failwith (Omni_guest.Error.to_string e))
    @ List.init 10 (fun k ->
          Minic.Driver.compile_wire ~name:(Printf.sprintf "loop%d" k)
            (Printf.sprintf
               "int step(int x) { return (x * %d + %d) & 65535; }\n\
                int main(void) {\n\
               \  int i; int acc = %d; double f = 1.5;\n\
               \  for (i = 0; i < %d; i = i + 1) {\n\
               \    acc = acc ^ step(acc + i); f = f * 1.25 + 0.5;\n\
               \  }\n\
               \  print_int(acc + (int) f); putchar(10);\n\
               \  return 0;\n\
                }\n"
               ((k * 7919) + 3) ((k * 104729) + 1) (k * 31) (8 + k)))
    @ List.map
        (fun (w : W.t) -> Minic.Driver.compile_wire ~name:w.W.name w.W.source)
        (W.all ~size:W.Test))

let golden_configs =
  [ (sandbox, None); (Machine.Native Machine.Cc, Some Machine.all_opts) ]

let translation_digest () =
  List.fold_left
    (fun h wire ->
      let exe = Omnivm.Wire.decode wire in
      let module_digest = Omni_util.Fnv64.digest_string wire in
      List.fold_left
        (fun h arch ->
          List.fold_left
            (fun h (mode, opts) ->
              let tr = Exec.translate ~mode ?opts arch exe in
              let opts =
                match opts with Some o -> o | None -> Exec.mobile_opts arch
              in
              let h = Omni_util.Fnv64.mix_int h 0 in
              let h =
                Omni_util.Fnv64.digest_string ~seed:h
                  (Omni_util.Fnv64.to_hex (Exec.fingerprint tr))
              in
              match Exec.certify ~module_digest ~mode ~opts tr with
              | Ok c ->
                  Omni_util.Fnv64.digest_string ~seed:h
                    (Omni_cert.Certificate.encode c)
              | Error e -> Omni_util.Fnv64.digest_string ~seed:h e)
            h golden_configs)
        h targets)
    0L (Lazy.force golden_modules)

let golden_translation_digest = "a6f5350d5061ac2f"

let golden_translations () =
  Alcotest.(check int) "modules" 46 (List.length (Lazy.force golden_modules));
  Alcotest.(check string) "translation digest" golden_translation_digest
    (Omni_util.Fnv64.to_hex (translation_digest ()))

(* --- cold admission forces no minor collection ---

   In OCaml 5 an array over 256 words seeded with a young element, as
   [Array.init] and [Array.of_list] seed theirs, forces a minor
   collection. Under a minor heap far larger than what admitting one
   module allocates, decoding, translating and certifying a module of
   more than 256 instructions must then collect nothing. *)
let no_forced_minor_collections () =
  let wire =
    List.fold_left
      (fun best w -> if String.length w > String.length best then w else best)
      "" (Lazy.force golden_modules |> List.filteri (fun k _ -> k < 32))
  in
  let module_digest = Omni_util.Fnv64.digest_string wire in
  let n = Array.length (Omnivm.Wire.decode wire).Omnivm.Exe.text in
  if n <= 256 then Alcotest.failf "module of %d instructions is too small" n;
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  List.iter
    (fun arch ->
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      let exe = Omnivm.Wire.decode wire in
      let tr = Exec.translate ~mode:sandbox arch exe in
      (match
         Exec.certify ~module_digest ~mode:sandbox ~opts:(Exec.mobile_opts arch)
           tr
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: certify refused: %s" (Arch.name arch) e);
      let collections = (Gc.quick_stat ()).Gc.minor_collections - before in
      if collections <> 0 then
        Alcotest.failf "%s: %d minor collections admitting %d instructions"
          (Arch.name arch) collections n)
    targets

(* x86 register homes *)
let x86_homes () =
  let open Omni_targets.X86 in
  Alcotest.(check bool) "sp is esp" true (int_home Omnivm.Reg.sp = Hreg esp);
  Alcotest.(check bool) "r0 is zero" true (int_home 0 = Hzero);
  (match int_home 7 with
  | Hmem a -> Alcotest.(check int) "r7 home" (Omnivm.Layout.regsave_int_addr 7) a
  | _ -> Alcotest.fail "r7 should live in memory");
  match int_home 1 with
  | Hreg _ -> ()
  | _ -> Alcotest.fail "r1 should have a register home"

let () =
  Alcotest.run "targets"
    [ ("scheduler",
       [ scheduler_preserves; scheduler_preserves_long;
         delay_slot_filler_safe ]);
      ("translation",
       [ Alcotest.test_case "sfi store sequences" `Quick store_sfi_sequences;
         Alcotest.test_case "branch models" `Quick branch_models;
         Alcotest.test_case "large immediates" `Quick large_immediates;
         Alcotest.test_case "delay slots emitted" `Quick delay_slots_emitted;
         Alcotest.test_case "delay fill semantics" `Quick delay_fill_semantics;
         Alcotest.test_case "scheduling helps" `Quick scheduling_helps;
         Alcotest.test_case "gp addressing" `Quick gp_addressing;
         Alcotest.test_case "tier ordering" `Quick tier_ordering;
         Alcotest.test_case "sfi guard-zone opt" `Quick sfi_opt_correct;
         Alcotest.test_case "golden translations" `Quick golden_translations;
         Alcotest.test_case "cold admission forces no minor collection" `Quick
           no_forced_minor_collections ]);
      ("pipeline",
       [ Alcotest.test_case "cost model" `Quick pipeline_unit;
         Alcotest.test_case "golden simulator stats" `Quick golden_simulator_stats;
         Alcotest.test_case "simulators allocate nothing per instruction" `Quick
           simulator_allocation ]);
      ("x86", [ Alcotest.test_case "register homes" `Quick x86_homes ])
    ]

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

let gen_block =
  QCheck.Gen.(
    list_size (int_range 1 14)
      (oneof
         [ map3 (fun a b c -> Op (a, b, c)) (int_bound 7) (int_bound 7) (int_bound 7);
           map2 (fun a b -> Ld (a, b)) (int_bound 7) (int_bound 3);
           map2 (fun a b -> St (a, b)) (int_bound 3) (int_bound 7) ])
    >>= fun l -> return (Array.of_list l))

let scheduler_preserves =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"list scheduling preserves semantics"
       (QCheck.make gen_block)
       (fun prog ->
         sched_exec (S.schedule_body sched_info ~quality:S.Greedy prog)
         = sched_exec prog
         && sched_exec (S.schedule_body sched_info ~quality:S.Critical_path prog)
            = sched_exec prog))

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
         let body, filler = S.fill_delay_slot sched_info ~branch_attrs:battrs prog in
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
  let t = P.create cfg in
  let simple = { P.uses = []; defs = [ 1 ]; latency = 1; unit_ = P.IU;
                 is_load = false; is_store = false } in
  P.step t simple ~taken_branch:false;
  P.step t simple ~taken_branch:false;
  Alcotest.(check int) "two independent ops, 1/cycle" 2 (P.cycles t);
  (* load-use interlock *)
  let t = P.create cfg in
  let load = { P.uses = []; defs = [ 2 ]; latency = 3; unit_ = P.IU;
               is_load = true; is_store = false } in
  let use = { P.uses = [ 2 ]; defs = [ 3 ]; latency = 1; unit_ = P.IU;
              is_load = false; is_store = false } in
  P.step t load ~taken_branch:false;
  P.step t use ~taken_branch:false;
  Alcotest.(check int) "load-use stall" 4 (P.cycles t);
  (* dual issue *)
  let cfg2 = { cfg with P.issue_width = 2; dual_issue_rule = (fun _ _ -> true) } in
  let t = P.create cfg2 in
  let op d = { simple with P.defs = [ d ] } in
  P.step t (op 1) ~taken_branch:false;
  P.step t (op 2) ~taken_branch:false;
  P.step t (op 3) ~taken_branch:false;
  P.step t (op 4) ~taken_branch:false;
  Alcotest.(check int) "2-wide pairs" 2 (P.cycles t)

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
    [ ("scheduler", [ scheduler_preserves; delay_slot_filler_safe ]);
      ("translation",
       [ Alcotest.test_case "sfi store sequences" `Quick store_sfi_sequences;
         Alcotest.test_case "branch models" `Quick branch_models;
         Alcotest.test_case "large immediates" `Quick large_immediates;
         Alcotest.test_case "delay slots emitted" `Quick delay_slots_emitted;
         Alcotest.test_case "delay fill semantics" `Quick delay_fill_semantics;
         Alcotest.test_case "scheduling helps" `Quick scheduling_helps;
         Alcotest.test_case "gp addressing" `Quick gp_addressing;
         Alcotest.test_case "tier ordering" `Quick tier_ordering;
         Alcotest.test_case "sfi guard-zone opt" `Quick sfi_opt_correct ]);
      ("pipeline", [ Alcotest.test_case "cost model" `Quick pipeline_unit ]);
      ("x86", [ Alcotest.test_case "register homes" `Quick x86_homes ])
    ]

(* Target-machine tests: translators, schedulers, delay slots, pipeline
   cost model, and the native baseline tiers. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch
module Risc = Omni_targets.Risc
module P = Omni_targets.Pipeline
module VI = Omnivm.Instr
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

let sched_cost = function
  | Op (rd, ra, rb) -> P.cost 2 P.IU (P.two ra rb) (P.one rd)
  | Ld (rd, _) -> P.cost 2 P.IU 0 (P.one rd) lor P.load
  | St (_, ra) -> P.cost 1 P.IU (P.one ra) 0 lor P.store

let sched_info = { S.cost = sched_cost; is_barrier = (fun _ -> false) }

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

(* [prog] scheduled as a translation schedules a block: a range of a
   wider buffer, its slots' indices written into a layout at an offset. *)
let scheduled quality prog =
  let n = Array.length prog in
  let pad = Op (0, 0, 0) in
  let src = Array.concat [ [| pad; pad |]; prog; [| pad |] ] in
  let dst = Array.make (n + 3) (-1) in
  S.schedule sched ~quality src 2 (n + 2) dst 1;
  Array.init n (fun k -> src.(dst.(k + 1)))

let preserves prog =
  sched_exec (scheduled S.Greedy prog) = sched_exec prog
  && sched_exec (scheduled S.Critical_path prog) = sched_exec prog

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
         let bcost = P.cost 1 P.BRU (P.one breg) (P.one 7) in
         let n = Array.length prog in
         let f = prog.(n - 1) in
         (not (S.fills_delay_slot sched ~branch_cost:bcost f))
         ||
         let body = Array.sub prog 0 (n - 1) in
         (* executing body+branch-effects+filler must equal prog+branch *)
         let a = sched_exec (Array.append body [| f |]) in
         let b = sched_exec prog in
         (* the filler must not touch breg's value or reg 7 *)
         let fc = sched_cost f in
         a = b
         && (not (P.mem 7 (P.cost_uses fc)))
         && (not (P.mem 7 (P.cost_defs fc)))
         && not (P.mem breg (P.cost_defs fc))))

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
    Omni_targets.Sim.run ~fuel:1000 (Api.T_risc with_gp)
      img.Omni_runtime.Loader.mem img.Omni_runtime.Loader.host
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
  let step t w =
    let c = P.costs 1 in
    P.set c 0 w;
    P.retire t c [| 0 |] 0 ~taken_branch:false
  in
  let t = P.create cfg in
  let simple = P.cost 1 P.IU 0 (P.one 1) in
  step t simple;
  step t simple;
  Alcotest.(check int) "two independent ops, 1/cycle" 2 (P.cycles t);
  (* load-use interlock *)
  let t = P.create cfg in
  let load = P.cost 3 P.IU 0 (P.one 2) lor P.load in
  let use = P.cost 1 P.IU (P.one 2) (P.one 3) in
  step t load;
  step t use;
  Alcotest.(check int) "load-use stall" 4 (P.cycles t);
  (* dual issue *)
  let cfg2 = { cfg with P.issue_width = 2; dual_issue_rule = (fun _ _ -> true) } in
  let t = P.create cfg2 in
  let op d = P.cost 1 P.IU 0 (P.one d) in
  step t (op 1);
  step t (op 2);
  step t (op 3);
  step t (op 4);
  Alcotest.(check int) "2-wide pairs" 2 (P.cycles t)

(* --- segment memo: a replayed segment equals a stepped one ---

   Random segments of 1-12 slots on each target's pipeline, entered one
   to eight times, each time from the state a short random prefix of
   stepped instructions leaves, with the branch taken or not: mostly
   short latencies, so that entry states repeat and the memo is replayed
   as often as it is refilled. After every call the memoized pipeline
   and its counts must equal a copy stepped one [retire] at a time: the
   whole scoreboard, the cycle, the issue count and the last unit class
   ([P.t] holds only ints and arrays of them, so [=] compares all of
   it). Resource pools of 16 and 80 make segments with more exposed uses
   than a key holds, and latencies up to 80 make uses ready further
   ahead than a key field holds. *)

let pipeline_configs =
  [| Risc.pipeline_config Risc.mips_cfg; Risc.pipeline_config Risc.sparc_cfg;
     Risc.pipeline_config Risc.ppc_cfg; Omni_targets.X86.pipeline_config |]

let gen_seg_cost resources =
  QCheck.Gen.(
    let packed most =
      map
        (List.fold_left (fun p r -> P.cons r p) 0)
        (list_size (int_bound most) (int_bound (resources - 1)))
    in
    map4
      (fun latency unit_ uses defs -> P.cost latency unit_ uses defs)
      (frequency [ (4, int_bound 2); (1, int_bound 80) ])
      (oneofl [ P.IU; P.FPU; P.LSU; P.BRU ])
      (packed 4) (packed 3))

(* (target, segment, whether its last slot is a delay slot, entries:
   the prefix stepped before each and whether the branch is taken) *)
let gen_seg_case =
  QCheck.Gen.(
    int_bound 3 >>= fun target ->
    oneofl [ 4; 8; 16; 80 ] >>= fun resources ->
    let cost = gen_seg_cost resources in
    list_size (int_range 1 12) cost >>= fun segment ->
    bool >>= fun delay ->
    list_size (int_range 1 8) (pair (list_size (int_bound 3) cost) bool)
    >>= fun entries -> return (target, segment, delay, entries))

let print_seg_case (target, segment, delay, entries) =
  let costs l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "target %d delay %b segment [%s] entries %s" target delay
    (costs segment)
    (String.concat "; "
       (List.map (fun (p, taken) -> Printf.sprintf "[%s] %b" (costs p) taken)
          entries))

let memo_equals_stepping (target, segment, delay, entries) =
  let cfg = pipeline_configs.(target) in
  let slots = Array.of_list (segment @ List.concat_map fst entries) in
  let n = Array.length slots in
  let c = P.costs n in
  Array.iteri (P.set c) slots;
  let last = List.length segment - 1 in
  let branch = if delay && last > 0 then last - 1 else last in
  let memoized = P.create cfg and stepped = P.create cfg in
  let counts_m = Array.make n 0 and counts_s = Array.make n 0 in
  let memo = P.memo n in
  let next = ref (last + 1) in
  List.for_all
    (fun (prefix, taken) ->
      List.iter
        (fun _ ->
          P.retire memoized c counts_m !next ~taken_branch:false;
          P.retire stepped c counts_s !next ~taken_branch:false;
          incr next)
        prefix;
      let taken_at = if taken then branch else -1 in
      P.segment memoized memo c counts_m 0 last ~taken_at;
      for k = 0 to last do
        P.retire stepped c counts_s k ~taken_branch:(k = taken_at)
      done;
      P.fold_hits memo counts_m n;
      memoized = stepped && counts_m = counts_s)
    entries

let segment_memo_exact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"segment memo equals stepping"
       (QCheck.make ~print:print_seg_case gen_seg_case)
       memo_equals_stepping)

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

let check_golden name arch (r : Api.run_result) =
  let got = golden_of r in
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
  | None -> Alcotest.failf "%s on %s: no golden entry" name (Arch.name arch)

let golden_simulator_stats () =
  List.iter
    (fun (name, exe) ->
      List.iter (fun arch -> check_golden name arch (run_spec arch exe)) targets)
    (Lazy.force spec_programs)

(* A run takes its domain's spare decoded table, whose slots past the new
   program's end still hold the last run's tags and counts, and whose
   memo held the last run's segments: a smaller program run after a
   larger one must fold only its own counts, and neither may replay a
   segment the other stored. *)
let recycled_table () =
  let progs = Lazy.force spec_programs in
  List.iter
    (fun arch ->
      let slots name =
        match Api.translate ~mode:sandbox arch (List.assoc name progs) with
        | Api.T_risc p -> Array.length p.Risc.code
        | Api.T_x86 p -> Array.length p.Omni_targets.X86.code
      in
      if slots "eqntott" <= slots "g_sort" then
        Alcotest.failf "%s: eqntott is not the larger program" (Arch.name arch);
      List.iter
        (fun name -> check_golden name arch (run_spec arch (List.assoc name progs)))
        [ "eqntott"; "g_sort"; "eqntott"; "g_sort" ])
    targets

(* --- exit-path goldens ---

   The clean exits above are one way out of a simulator run; these pin
   the others, recorded before the per-instruction path was rewritten.
   Each case is one line: the outcome, every [Machine.stats] field, where
   the run stopped (the native pc, and a digest of the sixteen OmniVM
   registers read the way a crash site reads them) and a digest of the
   output. *)

module Sim = Omni_targets.Sim
module Fnv64 = Omni_util.Fnv64

let outcome_string = function
  | Machine.Exited c -> Printf.sprintf "exit %d" c
  | Machine.Faulted f -> "fault " ^ Omnivm.Fault.to_string f
  | Machine.Out_of_fuel -> "out of fuel"

let exit_line ?fuel ?watchdog tr exe =
  let img = Api.load exe in
  let mem = img.Omni_runtime.Loader.mem in
  let host = img.Omni_runtime.Loader.host in
  let outcome, s, st = Sim.run ?fuel ?watchdog tr mem host in
  let pc = st.Sim.pc and regs = Array.init 16 (Sim.omni_reg st) in
  Printf.sprintf
    "%s; instrs %d cycles %d loads %d stores %d branches %d taken %d omni %d \
     origins %s; pc %d regs %s; output %s"
    (outcome_string outcome) s.Machine.instructions s.Machine.cycles
    s.Machine.loads s.Machine.stores s.Machine.branches
    s.Machine.taken_branches s.Machine.omni_instructions
    (String.concat "/" (Array.to_list (Array.map string_of_int s.Machine.by_origin)))
    pc
    (Fnv64.to_hex (Array.fold_left Fnv64.mix_int 0L regs))
    (Fnv64.to_hex (Fnv64.digest_string (Omni_runtime.Host.output host)))

(* A clock that reads one second later each time: a watchdog's deadline
   is then a pure function of how often the engine polls. *)
let counting_clock () =
  let t = ref 0.0 in
  Omni_util.Clock.fn (fun () ->
      t := !t +. 1.0;
      !t)

let guard = Machine.Mobile (Omni_sfi.Policy.make ~mode:Omni_sfi.Policy.Guard ())

(* [body] after [main:], optionally behind a handler that prints the
   fault code and exits 0. *)
let fault_module ~handler body =
  compile_asm
    (Printf.sprintf
       {|
        .text
        .globl main
handler:
        hcall 2            ; print_int(r1 = fault code)
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
main:
%s
%s
|}
       (if handler then "        li r1, handler\n        hcall 7" else "")
       body)

let wild_store =
  Printf.sprintf
    {|
        li r2, %d
        li r3, 1
        sw r3, 0(r2)       ; outside the data segment: the guard traps
        li r1, 99
        hcall 2
        li r1, 1
        hcall 0
|}
    Omnivm.Layout.host_base

let spin = {|
        li r4, 0
loop:   addi r4, r4, 1
        j loop
|}

(* A fault inside the handler: delivery cleared it, so the run aborts. *)
let fault_in_handler =
  compile_asm
    {|
        .text
        .globl main
handler:
        li r2, 0
        li r3, 1
        div r3, r3, r2
main:
        li r1, handler
        hcall 7
        li r2, 0
        li r3, 4
        div r3, r3, r2
|}

(* Sparc code with every conditional branch whose delay slot is an
   unfilled nop marked annulling: the nop is skipped when the branch
   falls through, so the program still computes the same result. *)
let annul_nop_slots = function
  | Api.T_risc p ->
      let code = p.Risc.code in
      Api.T_risc
        { p with
          Risc.code =
            Array.mapi
              (fun k (s : Risc.slot) ->
                match s.Risc.i with
                | (Risc.Br_cc _ | Risc.Br_cmp _ | Risc.Fbr _)
                  when k + 1 < Array.length code
                       && code.(k + 1).Risc.i = Risc.Nop ->
                    { s with Risc.annul = true }
                | _ -> s)
              code }
  | Api.T_x86 _ as tr -> tr

(* Fuel budgets that run out right after a branch: on the delay slot
   (mips, sparc), or on the instruction after an annulled branch that
   fell through (sparc). *)
let landing_fuels = function
  | Arch.Mips -> [ ("delay slot", 1001); ("delay slot", 1004) ]
  | Arch.Sparc -> [ ("delay slot", 1004); ("delay slot", 1015) ]
  | Arch.Ppc | Arch.X86 -> []

let annulled_fuels = [ 1033; 1069 ]

(* Sixteen consecutive budgets in a hot loop: every position in a
   straight-line run of code, a branch and its delay slot included, is
   the one a run stops on for one of them. *)
let hot_fuels = List.init 16 (fun k -> 20001 + k)

let exit_cases arch =
  let program name =
    let exe = List.assoc name (Lazy.force spec_programs) in
    (exe, lazy (Api.translate ~mode:sandbox arch exe))
  in
  let g_sort, sort_tr = program "g_sort" in
  let sort ?fuel ?watchdog () = exit_line ?fuel ?watchdog (Lazy.force sort_tr) g_sort in
  let eqntott_exe, eqntott_tr = program "eqntott" in
  let eqntott ?fuel ?watchdog () =
    exit_line ?fuel ?watchdog (Lazy.force eqntott_tr) eqntott_exe
  in
  let asm ?(mode = sandbox) ?fuel ?watchdog exe () =
    exit_line ?fuel ?watchdog (Api.translate ~mode arch exe) exe
  in
  let watchdog ~poll_every ~budget_s =
    Omnivm.Watchdog.make ~poll_every ~clock:(counting_clock ()) ~budget_s ()
  in
  List.map
    (fun fuel -> (Printf.sprintf "g_sort fuel %d" fuel, fun () -> sort ~fuel ()))
    ([ 0; 1; 2; 3; 17; 1000 ] @ hot_fuels)
  @ List.map
      (fun fuel ->
        (Printf.sprintf "eqntott fuel %d" fuel, fun () -> eqntott ~fuel ()))
      hot_fuels
  @ List.map
      (fun (what, fuel) ->
        (Printf.sprintf "g_sort fuel %d (%s)" fuel what, fun () -> sort ~fuel ()))
      (landing_fuels arch)
  @ (if arch <> Arch.Sparc then []
     else
       let annulled = lazy (annul_nop_slots (Lazy.force sort_tr)) in
       ( "annulled g_sort",
         fun () -> exit_line (Lazy.force annulled) g_sort )
       :: List.map
            (fun fuel ->
              ( Printf.sprintf "annulled g_sort fuel %d" fuel,
                fun () -> exit_line ~fuel (Lazy.force annulled) g_sort ))
            annulled_fuels)
  @ [ ( "handled wild store",
        asm ~mode:guard (fault_module ~handler:true wild_store) );
      ( "unhandled wild store",
        asm ~mode:guard (fault_module ~handler:false wild_store) );
      ( "unhandled division by zero",
        asm
          (fault_module ~handler:false
             "        li r2, 0\n        li r3, 4\n        div r3, r3, r2") );
      ("fault in handler", asm fault_in_handler);
      ( "watchdog",
        fun () ->
          asm ~watchdog:(watchdog ~poll_every:7 ~budget_s:20.0)
            (fault_module ~handler:false spin) () );
      ( "watchdog to handler",
        fun () ->
          asm ~watchdog:(watchdog ~poll_every:5 ~budget_s:9.0)
            (fault_module ~handler:true spin) () );
      ( "g_sort watchdog",
        fun () -> sort ~watchdog:(watchdog ~poll_every:3 ~budget_s:1000.0) () );
      ( "g_sort watchdog and fuel",
        fun () ->
          sort ~fuel:2500 ~watchdog:(watchdog ~poll_every:3 ~budget_s:1000.0) ()
      );
      (* polled every step, so the deadline lands inside the hot loop's
         straight-line code *)
      ( "eqntott watchdog",
        fun () -> eqntott ~watchdog:(watchdog ~poll_every:1 ~budget_s:20003.0) ()
      ) ]

let exit_goldens =
  [
    (("g_sort fuel 0", "mips"),
     "out of fuel; instrs 0 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 0 origins 0/0/0/0/0/0; pc 0 regs e917f0614d381712; output cbf29ce484222325");
    (("g_sort fuel 1", "mips"),
     "out of fuel; instrs 1 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/0/0; pc 0 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 2", "mips"),
     "out of fuel; instrs 2 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/1/0; pc 26 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 3", "mips"),
     "out of fuel; instrs 3 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/0/1/0; pc 27 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 17", "mips"),
     "out of fuel; instrs 17 cycles 17 loads 0 stores 11 branches 0 taken 0 omni 15 origins 15/0/0/1/1/0; pc 41 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 1000", "mips"),
     "out of fuel; instrs 1000 cycles 1028 loads 141 stores 95 branches 84 taken 56 omni 773 origins 773/0/57/57/57/56; pc 44 regs 4cf45cab2979c803; output cbf29ce484222325");
    (("g_sort fuel 20001", "mips"),
     "out of fuel; instrs 20001 cycles 21107 loads 3078 stores 908 branches 2607 taken 1504 omni 13694 origins 13694/0/1841/1124/2560/782; pc 158 regs a611fa66b548de9b; output cbf29ce484222325");
    (("g_sort fuel 1001 (delay slot)", "mips"),
     "out of fuel; instrs 1001 cycles 1029 loads 141 stores 95 branches 85 taken 57 omni 774 origins 774/0/57/57/57/56; pc 44 regs 4cf45cab2979c803; output cbf29ce484222325");
    (("g_sort fuel 1004 (delay slot)", "mips"),
     "out of fuel; instrs 1004 cycles 1032 loads 141 stores 95 branches 86 taken 57 omni 776 origins 776/0/57/57/58/56; pc 49 regs 188a0670a4e5e7fe; output cbf29ce484222325");
    (("handled wild store", "mips"),
     "exit 0; instrs 12 cycles 12 loads 0 stores 0 branches 0 taken 0 omni 9 origins 9/0/0/2/0/1; pc 5 regs b9a8154781820bf3; output 07f8bc07b4ba5002");
    (("unhandled wild store", "mips"),
     "fault access violation: write at 0x40000000; instrs 4 cycles 4 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/1/0/1; pc 8 regs b9a8154781820bf3; output cbf29ce484222325");
    (("unhandled division by zero", "mips"),
     "fault integer division by zero; instrs 3 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 3 origins 3/0/0/0/0/0; pc 7 regs 08c480769d5d8816; output cbf29ce484222325");
    (("fault in handler", "mips"),
     "fault integer division by zero; instrs 9 cycles 9 loads 0 stores 0 branches 0 taken 0 omni 8 origins 8/0/0/1/0/0; pc 2 regs 2a246c5edeab6614; output cbf29ce484222325");
    (("watchdog", "mips"),
     "fault wall-clock deadline exceeded; instrs 277 cycles 277 loads 0 stores 0 branches 0 taken 0 omni 277 origins 277/0/0/0/0/0; pc 6 regs 6a3630a5c5fc7a1c; output cbf29ce484222325");
    (("watchdog to handler", "mips"),
     "fault wall-clock deadline exceeded; instrs 88 cycles 88 loads 0 stores 0 branches 0 taken 0 omni 87 origins 87/0/0/1/0/0; pc 4 regs 297289056f37287a; output 08175e07b4d460d7");
    (("g_sort watchdog", "mips"),
     "fault wall-clock deadline exceeded; instrs 3509 cycles 3662 loads 524 stores 238 branches 389 taken 236 omni 2547 origins 2547/0/267/193/342/160; pc 121 regs 73595d262cee1b84; output cbf29ce484222325");
    (("g_sort watchdog and fuel", "mips"),
     "out of fuel; instrs 2500 cycles 2595 loads 368 stores 194 branches 253 taken 159 omni 1863 origins 1863/0/171/138/206/122; pc 148 regs fc952ace6b9b9f1a; output cbf29ce484222325");
    (("g_sort fuel 0", "sparc"),
     "out of fuel; instrs 0 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 0 origins 0/0/0/0/0/0; pc 0 regs e917f0614d381712; output cbf29ce484222325");
    (("g_sort fuel 1", "sparc"),
     "out of fuel; instrs 1 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/0/0; pc 0 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 2", "sparc"),
     "out of fuel; instrs 2 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/1/0; pc 26 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 3", "sparc"),
     "out of fuel; instrs 3 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/0/1/0; pc 27 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 17", "sparc"),
     "out of fuel; instrs 17 cycles 17 loads 0 stores 11 branches 0 taken 0 omni 15 origins 15/0/0/1/1/0; pc 41 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 1000", "sparc"),
     "out of fuel; instrs 1000 cycles 1054 loads 134 stores 90 branches 80 taken 53 omni 732 origins 732/0/80/55/81/52; pc 64 regs 24fa6e62038c453b; output cbf29ce484222325");
    (("g_sort fuel 20001", "sparc"),
     "out of fuel; instrs 20001 cycles 21167 loads 3112 stores 918 branches 2635 taken 1520 omni 13842 origins 13842/0/2636/97/2636/790; pc 111 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 1004 (delay slot)", "sparc"),
     "out of fuel; instrs 1004 cycles 1058 loads 134 stores 90 branches 81 taken 54 omni 735 origins 735/0/81/55/81/52; pc 67 regs b966ed9ec063b11c; output cbf29ce484222325");
    (("g_sort fuel 1015 (delay slot)", "sparc"),
     "out of fuel; instrs 1015 cycles 1069 loads 135 stores 91 branches 81 taken 54 omni 743 origins 743/0/81/55/82/54; pc 79 regs d5b0b3d209a63025; output cbf29ce484222325");
    (("annulled g_sort", "sparc"),
     "exit 0; instrs 35065 cycles 37382 loads 5937 stores 1877 branches 4772 taken 2739 omni 25734 origins 25734/0/4772/98/2787/1674; pc 283 regs fe3c37ebe05d33a2; output 12a3efa6fa5e0aee");
    (("annulled g_sort fuel 1033", "sparc"),
     "out of fuel; instrs 1033 cycles 1089 loads 141 stores 95 branches 86 taken 57 omni 776 origins 776/0/86/57/58/56; pc 52 regs 188a0670a4e5e7fe; output cbf29ce484222325");
    (("annulled g_sort fuel 1069", "sparc"),
     "out of fuel; instrs 1069 cycles 1127 loads 146 stores 98 branches 89 taken 59 omni 803 origins 803/0/89/59/60/58; pc 52 regs ca490e80bd94747e; output cbf29ce484222325");
    (("handled wild store", "sparc"),
     "exit 0; instrs 12 cycles 12 loads 0 stores 0 branches 0 taken 0 omni 9 origins 9/0/0/2/0/1; pc 5 regs b9a8154781820bf3; output 07f8bc07b4ba5002");
    (("unhandled wild store", "sparc"),
     "fault access violation: write at 0x40000000; instrs 4 cycles 4 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/1/0/1; pc 8 regs b9a8154781820bf3; output cbf29ce484222325");
    (("unhandled division by zero", "sparc"),
     "fault integer division by zero; instrs 3 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 3 origins 3/0/0/0/0/0; pc 7 regs 08c480769d5d8816; output cbf29ce484222325");
    (("fault in handler", "sparc"),
     "fault integer division by zero; instrs 9 cycles 9 loads 0 stores 0 branches 0 taken 0 omni 8 origins 8/0/0/1/0/0; pc 2 regs 2a246c5edeab6614; output cbf29ce484222325");
    (("watchdog", "sparc"),
     "fault wall-clock deadline exceeded; instrs 277 cycles 277 loads 0 stores 0 branches 0 taken 0 omni 277 origins 277/0/0/0/0/0; pc 6 regs 6a3630a5c5fc7a1c; output cbf29ce484222325");
    (("watchdog to handler", "sparc"),
     "fault wall-clock deadline exceeded; instrs 88 cycles 88 loads 0 stores 0 branches 0 taken 0 omni 87 origins 87/0/0/1/0/0; pc 4 regs 297289056f37287a; output 08175e07b4d460d7");
    (("g_sort watchdog", "sparc"),
     "fault wall-clock deadline exceeded; instrs 3493 cycles 3689 loads 510 stores 234 branches 377 taken 229 omni 2485 origins 2485/0/377/97/378/156; pc 138 regs 815129daa917ff24; output cbf29ce484222325");
    (("g_sort watchdog and fuel", "sparc"),
     "out of fuel; instrs 2500 cycles 2637 loads 353 stores 191 branches 240 taken 152 omni 1802 origins 1802/0/240/97/241/120; pc 163 regs 9375484edeb295fd; output cbf29ce484222325");
    (("g_sort fuel 0", "ppc"),
     "out of fuel; instrs 0 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 0 origins 0/0/0/0/0/0; pc 0 regs e917f0614d381712; output cbf29ce484222325");
    (("g_sort fuel 1", "ppc"),
     "out of fuel; instrs 1 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/0/0; pc 24 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 2", "ppc"),
     "out of fuel; instrs 2 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/0/0/0; pc 25 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 3", "ppc"),
     "out of fuel; instrs 3 cycles 3 loads 0 stores 1 branches 0 taken 0 omni 3 origins 3/0/0/0/0/0; pc 26 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 17", "ppc"),
     "out of fuel; instrs 17 cycles 17 loads 1 stores 11 branches 0 taken 0 omni 16 origins 16/0/0/1/0/0; pc 40 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 1000", "ppc"),
     "out of fuel; instrs 1000 cycles 1121 loads 149 stores 99 branches 90 taken 60 omni 819 origins 819/0/90/61/0/30; pc 69 regs 2e1c9b969c156fe3; output cbf29ce484222325");
    (("g_sort fuel 20001", "ppc"),
     "out of fuel; instrs 20001 cycles 26174 loads 3461 stores 1010 branches 2939 taken 1693 omni 15364 origins 15364/0/2939/1262/0/436; pc 145 regs 9cbbdaf428eedbf4; output cbf29ce484222325");
    (("handled wild store", "ppc"),
     "exit 0; instrs 12 cycles 12 loads 0 stores 0 branches 0 taken 0 omni 9 origins 9/0/0/2/0/1; pc 5 regs b9a8154781820bf3; output 07f8bc07b4ba5002");
    (("unhandled wild store", "ppc"),
     "fault access violation: write at 0x40000000; instrs 4 cycles 4 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/1/0/1; pc 8 regs b9a8154781820bf3; output cbf29ce484222325");
    (("unhandled division by zero", "ppc"),
     "fault integer division by zero; instrs 3 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 3 origins 3/0/0/0/0/0; pc 7 regs 08c480769d5d8816; output cbf29ce484222325");
    (("fault in handler", "ppc"),
     "fault integer division by zero; instrs 9 cycles 9 loads 0 stores 0 branches 0 taken 0 omni 8 origins 8/0/0/1/0/0; pc 2 regs 2a246c5edeab6614; output cbf29ce484222325");
    (("watchdog", "ppc"),
     "fault wall-clock deadline exceeded; instrs 139 cycles 71 loads 0 stores 0 branches 0 taken 0 omni 139 origins 139/0/0/0/0/0; pc 6 regs d65bde9418bef097; output cbf29ce484222325");
    (("watchdog to handler", "ppc"),
     "fault wall-clock deadline exceeded; instrs 48 cycles 28 loads 0 stores 0 branches 0 taken 0 omni 47 origins 47/0/0/1/0/0; pc 4 regs cfd067fb779d6106; output 08175e07b4d460d7");
    (("g_sort watchdog", "ppc"),
     "fault wall-clock deadline exceeded; instrs 2999 cycles 3647 loads 488 stores 228 branches 357 taken 218 omni 2387 origins 2387/0/357/180/0/75; pc 136 regs a0b5a63d79f31ece; output cbf29ce484222325");
    (("g_sort watchdog and fuel", "ppc"),
     "out of fuel; instrs 2500 cycles 2985 loads 400 stores 204 branches 281 taken 175 omni 2005 origins 2005/0/281/149/0/65; pc 124 regs a3f1813ebed92b6b; output cbf29ce484222325");
    (("g_sort fuel 0", "x86"),
     "out of fuel; instrs 0 cycles 1 loads 0 stores 0 branches 0 taken 0 omni 0 origins 0/0/0/0/0/0; pc 0 regs e917f0614d381712; output cbf29ce484222325");
    (("g_sort fuel 1", "x86"),
     "out of fuel; instrs 1 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 1 origins 1/0/0/0/0/0; pc 31 regs 9a14d9dda3fe9966; output cbf29ce484222325");
    (("g_sort fuel 2", "x86"),
     "out of fuel; instrs 2 cycles 2 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/0/0/0; pc 32 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 3", "x86"),
     "out of fuel; instrs 3 cycles 3 loads 0 stores 1 branches 0 taken 0 omni 3 origins 3/0/0/0/0/0; pc 33 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 17", "x86"),
     "out of fuel; instrs 17 cycles 13 loads 2 stores 11 branches 0 taken 0 omni 15 origins 15/2/0/0/0/0; pc 47 regs f4984722f5d6aa9a; output cbf29ce484222325");
    (("g_sort fuel 1000", "x86"),
     "out of fuel; instrs 1000 cycles 1134 loads 322 stores 284 branches 69 taken 46 omni 630 origins 630/232/69/0/0/69; pc 87 regs 12cf16f1a96751ea; output cbf29ce484222325");
    (("g_sort fuel 20001", "x86"),
     "out of fuel; instrs 20001 cycles 19246 loads 5822 stores 3382 branches 2563 taken 1479 omni 13479 origins 13479/2804/2563/0/0/1155; pc 119 regs 0dc5f56bbb627016; output cbf29ce484222325");
    (("handled wild store", "x86"),
     "exit 0; instrs 11 cycles 6 loads 0 stores 0 branches 0 taken 0 omni 9 origins 9/0/0/0/0/2; pc 5 regs b9a8154781820bf3; output 07f8bc07b4ba5002");
    (("unhandled wild store", "x86"),
     "fault access violation: write at 0x40000000; instrs 4 cycles 3 loads 0 stores 0 branches 0 taken 0 omni 2 origins 2/0/0/0/0/2; pc 8 regs b9a8154781820bf3; output cbf29ce484222325");
    (("unhandled division by zero", "x86"),
     "fault integer division by zero; instrs 5 cycles 4 loads 0 stores 0 branches 0 taken 0 omni 3 origins 3/2/0/0/0/0; pc 9 regs 08c480769d5d8816; output cbf29ce484222325");
    (("fault in handler", "x86"),
     "fault integer division by zero; instrs 12 cycles 9 loads 0 stores 0 branches 0 taken 0 omni 8 origins 8/4/0/0/0/0; pc 4 regs 2a246c5edeab6614; output cbf29ce484222325");
    (("watchdog", "x86"),
     "fault wall-clock deadline exceeded; instrs 139 cycles 71 loads 0 stores 0 branches 0 taken 0 omni 139 origins 139/0/0/0/0/0; pc 6 regs d65bde9418bef097; output cbf29ce484222325");
    (("watchdog to handler", "x86"),
     "fault wall-clock deadline exceeded; instrs 48 cycles 25 loads 0 stores 0 branches 0 taken 0 omni 48 origins 48/0/0/0/0/0; pc 4 regs d9da6baa4f4c8b87; output 08175e07b4d460d7");
    (("g_sort watchdog", "x86"),
     "fault wall-clock deadline exceeded; instrs 2999 cycles 3230 loads 934 stores 736 branches 270 taken 169 omni 1950 origins 1950/587/270/0/0/192; pc 171 regs 438ab96e525ecb25; output cbf29ce484222325");
    (("g_sort watchdog and fuel", "x86"),
     "out of fuel; instrs 2500 cycles 2760 loads 794 stores 658 branches 201 taken 130 omni 1606 origins 1606/527/202/0/0/165; pc 121 regs a0c784ed9a7ec304; output cbf29ce484222325");
    (("g_sort fuel 20002", "mips"),
     "out of fuel; instrs 20002 cycles 21108 loads 3078 stores 909 branches 2607 taken 1504 omni 13695 origins 13695/0/1841/1124/2560/782; pc 159 regs a611fa66b548de9b; output cbf29ce484222325");
    (("g_sort fuel 20003", "mips"),
     "out of fuel; instrs 20003 cycles 21109 loads 3079 stores 909 branches 2607 taken 1504 omni 13696 origins 13696/0/1841/1124/2560/782; pc 160 regs d5101141cf347aa4; output cbf29ce484222325");
    (("g_sort fuel 20004", "mips"),
     "out of fuel; instrs 20004 cycles 21110 loads 3079 stores 909 branches 2607 taken 1504 omni 13697 origins 13697/0/1841/1124/2560/782; pc 161 regs d8bc0cf946bf5333; output cbf29ce484222325");
    (("g_sort fuel 20005", "mips"),
     "out of fuel; instrs 20005 cycles 21111 loads 3079 stores 909 branches 2607 taken 1504 omni 13698 origins 13698/0/1841/1124/2560/782; pc 162 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20006", "mips"),
     "out of fuel; instrs 20006 cycles 21112 loads 3079 stores 909 branches 2607 taken 1504 omni 13699 origins 13699/0/1841/1124/2560/782; pc 162 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20007", "mips"),
     "out of fuel; instrs 20007 cycles 21113 loads 3079 stores 910 branches 2607 taken 1504 omni 13700 origins 13700/0/1841/1124/2560/782; pc 106 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20008", "mips"),
     "out of fuel; instrs 20008 cycles 21114 loads 3080 stores 910 branches 2607 taken 1504 omni 13701 origins 13701/0/1841/1124/2560/782; pc 107 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20009", "mips"),
     "out of fuel; instrs 20009 cycles 21115 loads 3080 stores 910 branches 2607 taken 1504 omni 13702 origins 13702/0/1841/1124/2560/782; pc 108 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20010", "mips"),
     "out of fuel; instrs 20010 cycles 21116 loads 3080 stores 910 branches 2607 taken 1504 omni 13702 origins 13702/0/1842/1124/2560/782; pc 109 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20011", "mips"),
     "out of fuel; instrs 20011 cycles 21117 loads 3080 stores 910 branches 2608 taken 1504 omni 13703 origins 13703/0/1842/1124/2560/782; pc 109 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20012", "mips"),
     "out of fuel; instrs 20012 cycles 21118 loads 3080 stores 910 branches 2608 taken 1504 omni 13703 origins 13703/0/1842/1124/2561/782; pc 111 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20013", "mips"),
     "out of fuel; instrs 20013 cycles 21119 loads 3080 stores 910 branches 2608 taken 1504 omni 13704 origins 13704/0/1842/1124/2561/782; pc 111 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20014", "mips"),
     "out of fuel; instrs 20014 cycles 21120 loads 3080 stores 910 branches 2608 taken 1504 omni 13705 origins 13705/0/1842/1124/2561/782; pc 114 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("g_sort fuel 20015", "mips"),
     "out of fuel; instrs 20015 cycles 21121 loads 3080 stores 910 branches 2609 taken 1504 omni 13706 origins 13706/0/1842/1124/2561/782; pc 114 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("g_sort fuel 20016", "mips"),
     "out of fuel; instrs 20016 cycles 21122 loads 3080 stores 910 branches 2609 taken 1504 omni 13706 origins 13706/0/1842/1124/2562/782; pc 116 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("eqntott fuel 20001", "mips"),
     "out of fuel; instrs 20001 cycles 33557 loads 2212 stores 1071 branches 972 taken 676 omni 11484 origins 11484/2166/948/2036/1944/1423; pc 946 regs a251a759c9d5a0cc; output cbf29ce484222325");
    (("eqntott fuel 20002", "mips"),
     "out of fuel; instrs 20002 cycles 33558 loads 2212 stores 1071 branches 972 taken 676 omni 11484 origins 11484/2166/948/2036/1944/1424; pc 947 regs a251a759c9d5a0cc; output cbf29ce484222325");
    (("eqntott fuel 20003", "mips"),
     "out of fuel; instrs 20003 cycles 33559 loads 2212 stores 1071 branches 972 taken 676 omni 11484 origins 11484/2166/948/2036/1944/1425; pc 948 regs a251a759c9d5a0cc; output cbf29ce484222325");
    (("eqntott fuel 20004", "mips"),
     "out of fuel; instrs 20004 cycles 33560 loads 2212 stores 1071 branches 972 taken 676 omni 11485 origins 11485/2166/948/2036/1944/1425; pc 948 regs a251a759c9d5a0cc; output cbf29ce484222325");
    (("eqntott fuel 20005", "mips"),
     "out of fuel; instrs 20005 cycles 33561 loads 2212 stores 1072 branches 972 taken 676 omni 11486 origins 11486/2166/948/2036/1944/1425; pc 929 regs a251a759c9d5a0cc; output cbf29ce484222325");
    (("eqntott fuel 20006", "mips"),
     "out of fuel; instrs 20006 cycles 33562 loads 2212 stores 1072 branches 972 taken 676 omni 11487 origins 11487/2166/948/2036/1944/1425; pc 930 regs 3367c61638bfb79f; output cbf29ce484222325");
    (("eqntott fuel 20007", "mips"),
     "out of fuel; instrs 20007 cycles 33563 loads 2212 stores 1072 branches 972 taken 676 omni 11488 origins 11488/2166/948/2036/1944/1425; pc 931 regs 8a953a5e74c9b04a; output cbf29ce484222325");
    (("eqntott fuel 20008", "mips"),
     "out of fuel; instrs 20008 cycles 33564 loads 2212 stores 1072 branches 972 taken 676 omni 11489 origins 11489/2166/948/2036/1944/1425; pc 931 regs 8a953a5e74c9b04a; output cbf29ce484222325");
    (("eqntott fuel 20009", "mips"),
     "out of fuel; instrs 20009 cycles 33565 loads 2212 stores 1072 branches 972 taken 676 omni 11490 origins 11490/2166/948/2036/1944/1425; pc 904 regs db95faf002147855; output cbf29ce484222325");
    (("eqntott fuel 20010", "mips"),
     "out of fuel; instrs 20010 cycles 33566 loads 2212 stores 1072 branches 972 taken 676 omni 11490 origins 11490/2167/948/2036/1944/1425; pc 905 regs db95faf002147855; output cbf29ce484222325");
    (("eqntott fuel 20011", "mips"),
     "out of fuel; instrs 20011 cycles 33567 loads 2213 stores 1072 branches 972 taken 676 omni 11491 origins 11491/2167/948/2036/1944/1425; pc 906 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("eqntott fuel 20012", "mips"),
     "out of fuel; instrs 20012 cycles 33569 loads 2213 stores 1072 branches 972 taken 676 omni 11491 origins 11491/2167/949/2036/1944/1425; pc 907 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("eqntott fuel 20013", "mips"),
     "out of fuel; instrs 20013 cycles 33570 loads 2213 stores 1072 branches 973 taken 676 omni 11492 origins 11492/2167/949/2036/1944/1425; pc 907 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("eqntott fuel 20014", "mips"),
     "out of fuel; instrs 20014 cycles 33571 loads 2213 stores 1072 branches 973 taken 676 omni 11492 origins 11492/2167/949/2036/1945/1425; pc 909 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("eqntott fuel 20015", "mips"),
     "out of fuel; instrs 20015 cycles 33572 loads 2213 stores 1072 branches 973 taken 676 omni 11493 origins 11493/2167/949/2036/1945/1425; pc 909 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("eqntott fuel 20016", "mips"),
     "out of fuel; instrs 20016 cycles 33573 loads 2213 stores 1072 branches 973 taken 676 omni 11493 origins 11493/2167/949/2036/1946/1425; pc 962 regs 3fff898ffe4a9996; output cbf29ce484222325");
    (("g_sort fuel 20002", "sparc"),
     "out of fuel; instrs 20002 cycles 21168 loads 3112 stores 918 branches 2636 taken 1520 omni 13843 origins 13843/0/2636/97/2636/790; pc 111 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20003", "sparc"),
     "out of fuel; instrs 20003 cycles 21169 loads 3112 stores 918 branches 2636 taken 1520 omni 13843 origins 13843/0/2636/97/2637/790; pc 113 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20004", "sparc"),
     "out of fuel; instrs 20004 cycles 21170 loads 3112 stores 918 branches 2636 taken 1520 omni 13844 origins 13844/0/2636/97/2637/790; pc 113 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20005", "sparc"),
     "out of fuel; instrs 20005 cycles 21171 loads 3112 stores 918 branches 2636 taken 1520 omni 13845 origins 13845/0/2636/97/2637/790; pc 116 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20006", "sparc"),
     "out of fuel; instrs 20006 cycles 21172 loads 3112 stores 918 branches 2636 taken 1520 omni 13845 origins 13845/0/2637/97/2637/790; pc 117 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20007", "sparc"),
     "out of fuel; instrs 20007 cycles 21173 loads 3112 stores 918 branches 2637 taken 1520 omni 13846 origins 13846/0/2637/97/2637/790; pc 117 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20008", "sparc"),
     "out of fuel; instrs 20008 cycles 21174 loads 3112 stores 918 branches 2637 taken 1520 omni 13846 origins 13846/0/2637/97/2638/790; pc 119 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20009", "sparc"),
     "out of fuel; instrs 20009 cycles 21175 loads 3113 stores 918 branches 2637 taken 1520 omni 13847 origins 13847/0/2637/97/2638/790; pc 120 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20010", "sparc"),
     "out of fuel; instrs 20010 cycles 21177 loads 3113 stores 918 branches 2637 taken 1520 omni 13847 origins 13847/0/2638/97/2638/790; pc 121 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20011", "sparc"),
     "out of fuel; instrs 20011 cycles 21178 loads 3113 stores 918 branches 2638 taken 1521 omni 13848 origins 13848/0/2638/97/2638/790; pc 121 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20012", "sparc"),
     "out of fuel; instrs 20012 cycles 21179 loads 3113 stores 918 branches 2638 taken 1521 omni 13848 origins 13848/0/2638/97/2639/790; pc 124 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20013", "sparc"),
     "out of fuel; instrs 20013 cycles 21180 loads 3113 stores 918 branches 2638 taken 1521 omni 13849 origins 13849/0/2638/97/2639/790; pc 125 regs c40c26e37f56620f; output cbf29ce484222325");
    (("g_sort fuel 20014", "sparc"),
     "out of fuel; instrs 20014 cycles 21181 loads 3113 stores 918 branches 2638 taken 1521 omni 13850 origins 13850/0/2638/97/2639/790; pc 126 regs a434ea9c3fa29477; output cbf29ce484222325");
    (("g_sort fuel 20015", "sparc"),
     "out of fuel; instrs 20015 cycles 21182 loads 3113 stores 918 branches 2638 taken 1521 omni 13851 origins 13851/0/2638/97/2639/790; pc 127 regs 8ed047c1a796ab97; output cbf29ce484222325");
    (("g_sort fuel 20016", "sparc"),
     "out of fuel; instrs 20016 cycles 21183 loads 3114 stores 918 branches 2638 taken 1521 omni 13852 origins 13852/0/2638/97/2639/790; pc 128 regs 1d99eb5abdb65eec; output cbf29ce484222325");
    (("eqntott fuel 20001", "sparc"),
     "out of fuel; instrs 20001 cycles 37019 loads 2474 stores 1200 branches 1088 taken 756 omni 12859 origins 12859/0/1088/2279/2181/1594; pc 504 regs d120b904c96e2b16; output cbf29ce484222325");
    (("eqntott fuel 20002", "sparc"),
     "out of fuel; instrs 20002 cycles 37020 loads 2474 stores 1200 branches 1088 taken 756 omni 12859 origins 12859/0/1088/2279/2181/1595; pc 505 regs d120b904c96e2b16; output cbf29ce484222325");
    (("eqntott fuel 20003", "sparc"),
     "out of fuel; instrs 20003 cycles 37021 loads 2474 stores 1200 branches 1088 taken 756 omni 12860 origins 12860/0/1088/2279/2181/1595; pc 505 regs d120b904c96e2b16; output cbf29ce484222325");
    (("eqntott fuel 20004", "sparc"),
     "out of fuel; instrs 20004 cycles 37022 loads 2474 stores 1200 branches 1088 taken 756 omni 12860 origins 12860/0/1088/2279/2182/1595; pc 927 regs d120b904c96e2b16; output cbf29ce484222325");
    (("eqntott fuel 20005", "sparc"),
     "out of fuel; instrs 20005 cycles 37023 loads 2474 stores 1200 branches 1088 taken 756 omni 12861 origins 12861/0/1088/2279/2182/1595; pc 928 regs b083350a0b705fe9; output cbf29ce484222325");
    (("eqntott fuel 20006", "sparc"),
     "out of fuel; instrs 20006 cycles 37059 loads 2474 stores 1200 branches 1088 taken 756 omni 12861 origins 12861/0/1089/2279/2182/1595; pc 929 regs b083350a0b705fe9; output cbf29ce484222325");
    (("eqntott fuel 20007", "sparc"),
     "out of fuel; instrs 20007 cycles 37060 loads 2474 stores 1200 branches 1089 taken 757 omni 12862 origins 12862/0/1089/2279/2182/1595; pc 929 regs b083350a0b705fe9; output cbf29ce484222325");
    (("eqntott fuel 20008", "sparc"),
     "out of fuel; instrs 20008 cycles 37061 loads 2474 stores 1200 branches 1089 taken 757 omni 12862 origins 12862/0/1089/2279/2183/1595; pc 933 regs b083350a0b705fe9; output cbf29ce484222325");
    (("eqntott fuel 20009", "sparc"),
     "out of fuel; instrs 20009 cycles 37062 loads 2475 stores 1200 branches 1089 taken 757 omni 12863 origins 12863/0/1089/2279/2183/1595; pc 934 regs 94493e5c4e308850; output cbf29ce484222325");
    (("eqntott fuel 20010", "sparc"),
     "out of fuel; instrs 20010 cycles 37063 loads 2476 stores 1200 branches 1089 taken 757 omni 12864 origins 12864/0/1089/2279/2183/1595; pc 935 regs bb5fd9e86519c13a; output cbf29ce484222325");
    (("eqntott fuel 20011", "sparc"),
     "out of fuel; instrs 20011 cycles 37065 loads 2476 stores 1200 branches 1089 taken 757 omni 12865 origins 12865/0/1089/2279/2183/1595; pc 936 regs e3abc932b4913e29; output cbf29ce484222325");
    (("eqntott fuel 20012", "sparc"),
     "out of fuel; instrs 20012 cycles 37070 loads 2476 stores 1200 branches 1089 taken 757 omni 12866 origins 12866/0/1089/2279/2183/1595; pc 937 regs 8a9bb0272b4fb3c0; output cbf29ce484222325");
    (("eqntott fuel 20013", "sparc"),
     "out of fuel; instrs 20013 cycles 37071 loads 2476 stores 1200 branches 1089 taken 757 omni 12867 origins 12867/0/1089/2279/2183/1595; pc 938 regs aec31cfe7ae4ede8; output cbf29ce484222325");
    (("eqntott fuel 20014", "sparc"),
     "out of fuel; instrs 20014 cycles 37072 loads 2476 stores 1200 branches 1089 taken 757 omni 12867 origins 12867/0/1089/2279/2183/1596; pc 939 regs aec31cfe7ae4ede8; output cbf29ce484222325");
    (("eqntott fuel 20015", "sparc"),
     "out of fuel; instrs 20015 cycles 37073 loads 2476 stores 1200 branches 1089 taken 757 omni 12867 origins 12867/0/1089/2279/2183/1597; pc 940 regs aec31cfe7ae4ede8; output cbf29ce484222325");
    (("eqntott fuel 20016", "sparc"),
     "out of fuel; instrs 20016 cycles 37074 loads 2476 stores 1201 branches 1089 taken 757 omni 12868 origins 12868/0/1089/2279/2183/1597; pc 941 regs aec31cfe7ae4ede8; output cbf29ce484222325");
    (("g_sort fuel 20002", "ppc"),
     "out of fuel; instrs 20002 cycles 26175 loads 3461 stores 1010 branches 2939 taken 1693 omni 15364 origins 15364/0/2939/1262/0/437; pc 146 regs 9cbbdaf428eedbf4; output cbf29ce484222325");
    (("g_sort fuel 20003", "ppc"),
     "out of fuel; instrs 20003 cycles 26176 loads 3461 stores 1011 branches 2939 taken 1693 omni 15365 origins 15365/0/2939/1262/0/437; pc 147 regs 9cbbdaf428eedbf4; output cbf29ce484222325");
    (("g_sort fuel 20004", "ppc"),
     "out of fuel; instrs 20004 cycles 26177 loads 3462 stores 1011 branches 2939 taken 1693 omni 15366 origins 15366/0/2939/1262/0/437; pc 148 regs d0d67218141a536b; output cbf29ce484222325");
    (("g_sort fuel 20005", "ppc"),
     "out of fuel; instrs 20005 cycles 26178 loads 3462 stores 1011 branches 2939 taken 1693 omni 15367 origins 15367/0/2939/1262/0/437; pc 149 regs d8bc0cf946bf5333; output cbf29ce484222325");
    (("g_sort fuel 20006", "ppc"),
     "out of fuel; instrs 20006 cycles 26179 loads 3462 stores 1011 branches 2939 taken 1693 omni 15368 origins 15368/0/2939/1262/0/437; pc 150 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20007", "ppc"),
     "out of fuel; instrs 20007 cycles 26180 loads 3462 stores 1012 branches 2939 taken 1693 omni 15369 origins 15369/0/2939/1262/0/437; pc 151 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20008", "ppc"),
     "out of fuel; instrs 20008 cycles 26181 loads 3462 stores 1012 branches 2939 taken 1693 omni 15370 origins 15370/0/2939/1262/0/437; pc 100 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20009", "ppc"),
     "out of fuel; instrs 20009 cycles 26181 loads 3463 stores 1012 branches 2939 taken 1693 omni 15371 origins 15371/0/2939/1262/0/437; pc 101 regs afcb9863bf1de2b2; output cbf29ce484222325");
    (("g_sort fuel 20010", "ppc"),
     "out of fuel; instrs 20010 cycles 26182 loads 3463 stores 1012 branches 2939 taken 1693 omni 15372 origins 15372/0/2939/1262/0/437; pc 102 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20011", "ppc"),
     "out of fuel; instrs 20011 cycles 26183 loads 3463 stores 1012 branches 2939 taken 1693 omni 15372 origins 15372/0/2940/1262/0/437; pc 103 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20012", "ppc"),
     "out of fuel; instrs 20012 cycles 26186 loads 3463 stores 1012 branches 2940 taken 1693 omni 15373 origins 15373/0/2940/1262/0/437; pc 104 regs 5a76fcd09bb02993; output cbf29ce484222325");
    (("g_sort fuel 20013", "ppc"),
     "out of fuel; instrs 20013 cycles 26187 loads 3463 stores 1012 branches 2940 taken 1693 omni 15374 origins 15374/0/2940/1262/0/437; pc 105 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("g_sort fuel 20014", "ppc"),
     "out of fuel; instrs 20014 cycles 26188 loads 3463 stores 1012 branches 2940 taken 1693 omni 15375 origins 15375/0/2940/1262/0/437; pc 107 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("g_sort fuel 20015", "ppc"),
     "out of fuel; instrs 20015 cycles 26188 loads 3463 stores 1012 branches 2940 taken 1693 omni 15375 origins 15375/0/2941/1262/0/437; pc 108 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("g_sort fuel 20016", "ppc"),
     "out of fuel; instrs 20016 cycles 26191 loads 3463 stores 1012 branches 2941 taken 1693 omni 15376 origins 15376/0/2941/1262/0/437; pc 109 regs 3e8c59affebb036f; output cbf29ce484222325");
    (("eqntott fuel 20001", "ppc"),
     "out of fuel; instrs 20001 cycles 37362 loads 2494 stores 1210 branches 1098 taken 762 omni 12972 origins 12972/2449/1098/2292/0/1190; pc 786 regs a6d30c869a5c8caf; output cbf29ce484222325");
    (("eqntott fuel 20002", "ppc"),
     "out of fuel; instrs 20002 cycles 37363 loads 2495 stores 1210 branches 1098 taken 762 omni 12973 origins 12973/2449/1098/2292/0/1190; pc 787 regs 11d3706b28c82baa; output cbf29ce484222325");
    (("eqntott fuel 20003", "ppc"),
     "out of fuel; instrs 20003 cycles 37365 loads 2495 stores 1210 branches 1098 taken 762 omni 12973 origins 12973/2449/1099/2292/0/1190; pc 788 regs 11d3706b28c82baa; output cbf29ce484222325");
    (("eqntott fuel 20004", "ppc"),
     "out of fuel; instrs 20004 cycles 37369 loads 2495 stores 1210 branches 1099 taken 763 omni 12974 origins 12974/2449/1099/2292/0/1190; pc 790 regs 11d3706b28c82baa; output cbf29ce484222325");
    (("eqntott fuel 20005", "ppc"),
     "out of fuel; instrs 20005 cycles 37370 loads 2495 stores 1210 branches 1099 taken 763 omni 12975 origins 12975/2449/1099/2292/0/1190; pc 405 regs 11d3706b28c82baa; output cbf29ce484222325");
    (("eqntott fuel 20006", "ppc"),
     "out of fuel; instrs 20006 cycles 37370 loads 2495 stores 1210 branches 1099 taken 763 omni 12976 origins 12976/2449/1099/2292/0/1190; pc 406 regs 12c09c04edb361fa; output cbf29ce484222325");
    (("eqntott fuel 20007", "ppc"),
     "out of fuel; instrs 20007 cycles 37371 loads 2495 stores 1211 branches 1099 taken 763 omni 12977 origins 12977/2449/1099/2292/0/1190; pc 407 regs 12c09c04edb361fa; output cbf29ce484222325");
    (("eqntott fuel 20008", "ppc"),
     "out of fuel; instrs 20008 cycles 37372 loads 2495 stores 1211 branches 1099 taken 763 omni 12977 origins 12977/2450/1099/2292/0/1190; pc 408 regs 12c09c04edb361fa; output cbf29ce484222325");
    (("eqntott fuel 20009", "ppc"),
     "out of fuel; instrs 20009 cycles 37373 loads 2496 stores 1211 branches 1099 taken 763 omni 12978 origins 12978/2450/1099/2292/0/1190; pc 409 regs f7ce3efc9ffab0ef; output cbf29ce484222325");
    (("eqntott fuel 20010", "ppc"),
     "out of fuel; instrs 20010 cycles 37374 loads 2496 stores 1211 branches 1099 taken 763 omni 12978 origins 12978/2450/1099/2293/0/1190; pc 410 regs f7ce3efc9ffab0ef; output cbf29ce484222325");
    (("eqntott fuel 20011", "ppc"),
     "out of fuel; instrs 20011 cycles 37375 loads 2496 stores 1211 branches 1099 taken 763 omni 12978 origins 12978/2450/1099/2294/0/1190; pc 411 regs f7ce3efc9ffab0ef; output cbf29ce484222325");
    (("eqntott fuel 20012", "ppc"),
     "out of fuel; instrs 20012 cycles 37376 loads 2496 stores 1211 branches 1099 taken 763 omni 12979 origins 12979/2450/1099/2294/0/1190; pc 412 regs dd800db5ce4606ea; output cbf29ce484222325");
    (("eqntott fuel 20013", "ppc"),
     "out of fuel; instrs 20013 cycles 37377 loads 2496 stores 1211 branches 1099 taken 763 omni 12979 origins 12979/2450/1099/2295/0/1190; pc 413 regs dd800db5ce4606ea; output cbf29ce484222325");
    (("eqntott fuel 20014", "ppc"),
     "out of fuel; instrs 20014 cycles 37378 loads 2496 stores 1211 branches 1099 taken 763 omni 12979 origins 12979/2450/1099/2296/0/1190; pc 414 regs dd800db5ce4606ea; output cbf29ce484222325");
    (("eqntott fuel 20015", "ppc"),
     "out of fuel; instrs 20015 cycles 37379 loads 2496 stores 1211 branches 1099 taken 763 omni 12979 origins 12979/2451/1099/2296/0/1190; pc 415 regs dd800db5ce4606ea; output cbf29ce484222325");
    (("eqntott fuel 20016", "ppc"),
     "out of fuel; instrs 20016 cycles 37381 loads 2496 stores 1211 branches 1099 taken 763 omni 12980 origins 12980/2451/1099/2296/0/1190; pc 416 regs cdcdee7ae19a36db; output cbf29ce484222325");
    (("g_sort fuel 20002", "x86"),
     "out of fuel; instrs 20002 cycles 19246 loads 5822 stores 3383 branches 2563 taken 1479 omni 13480 origins 13480/2804/2563/0/0/1155; pc 120 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20003", "x86"),
     "out of fuel; instrs 20003 cycles 19248 loads 5823 stores 3383 branches 2563 taken 1479 omni 13480 origins 13480/2804/2564/0/0/1155; pc 121 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20004", "x86"),
     "out of fuel; instrs 20004 cycles 19249 loads 5823 stores 3383 branches 2564 taken 1479 omni 13481 origins 13481/2804/2564/0/0/1155; pc 122 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20005", "x86"),
     "out of fuel; instrs 20005 cycles 19250 loads 5823 stores 3383 branches 2564 taken 1479 omni 13482 origins 13482/2804/2564/0/0/1155; pc 123 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20006", "x86"),
     "out of fuel; instrs 20006 cycles 19251 loads 5823 stores 3383 branches 2564 taken 1479 omni 13483 origins 13483/2804/2564/0/0/1155; pc 125 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20007", "x86"),
     "out of fuel; instrs 20007 cycles 19251 loads 5823 stores 3383 branches 2564 taken 1479 omni 13483 origins 13483/2804/2565/0/0/1155; pc 126 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20008", "x86"),
     "out of fuel; instrs 20008 cycles 19252 loads 5823 stores 3383 branches 2565 taken 1479 omni 13484 origins 13484/2804/2565/0/0/1155; pc 127 regs d17f18175a0b216f; output cbf29ce484222325");
    (("g_sort fuel 20009", "x86"),
     "out of fuel; instrs 20009 cycles 19253 loads 5824 stores 3383 branches 2565 taken 1479 omni 13485 origins 13485/2804/2565/0/0/1155; pc 128 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20010", "x86"),
     "out of fuel; instrs 20010 cycles 19255 loads 5824 stores 3383 branches 2565 taken 1479 omni 13485 origins 13485/2804/2566/0/0/1155; pc 129 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20011", "x86"),
     "out of fuel; instrs 20011 cycles 19257 loads 5824 stores 3383 branches 2566 taken 1480 omni 13486 origins 13486/2804/2566/0/0/1155; pc 131 regs c556e88df9ee9c97; output cbf29ce484222325");
    (("g_sort fuel 20012", "x86"),
     "out of fuel; instrs 20012 cycles 19257 loads 5824 stores 3383 branches 2566 taken 1480 omni 13486 origins 13486/2805/2566/0/0/1155; pc 132 regs 8783d9b567c5eaa7; output cbf29ce484222325");
    (("g_sort fuel 20013", "x86"),
     "out of fuel; instrs 20013 cycles 19258 loads 5824 stores 3383 branches 2566 taken 1480 omni 13487 origins 13487/2805/2566/0/0/1155; pc 133 regs c40c26e37f56620f; output cbf29ce484222325");
    (("g_sort fuel 20014", "x86"),
     "out of fuel; instrs 20014 cycles 19259 loads 5824 stores 3383 branches 2566 taken 1480 omni 13488 origins 13488/2805/2566/0/0/1155; pc 134 regs a434ea9c3fa29477; output cbf29ce484222325");
    (("g_sort fuel 20015", "x86"),
     "out of fuel; instrs 20015 cycles 19260 loads 5824 stores 3383 branches 2566 taken 1480 omni 13489 origins 13489/2805/2566/0/0/1155; pc 135 regs 8ed047c1a796ab97; output cbf29ce484222325");
    (("g_sort fuel 20016", "x86"),
     "out of fuel; instrs 20016 cycles 19261 loads 5825 stores 3383 branches 2566 taken 1480 omni 13490 origins 13490/2805/2566/0/0/1155; pc 136 regs 1d99eb5abdb65eec; output cbf29ce484222325");
    (("eqntott fuel 20001", "x86"),
     "out of fuel; instrs 20001 cycles 32107 loads 4099 stores 1965 branches 912 taken 629 omni 10720 origins 10720/6377/912/0/0/1992; pc 1303 regs c24264743bd8c3f0; output cbf29ce484222325");
    (("eqntott fuel 20002", "x86"),
     "out of fuel; instrs 20002 cycles 32116 loads 4099 stores 1965 branches 912 taken 629 omni 10720 origins 10720/6378/912/0/0/1992; pc 1304 regs 05e178d203c95b81; output cbf29ce484222325");
    (("eqntott fuel 20003", "x86"),
     "out of fuel; instrs 20003 cycles 32117 loads 4099 stores 1965 branches 912 taken 629 omni 10720 origins 10720/6379/912/0/0/1992; pc 1305 regs 05e178d203c95b81; output cbf29ce484222325");
    (("eqntott fuel 20004", "x86"),
     "out of fuel; instrs 20004 cycles 32118 loads 4100 stores 1965 branches 912 taken 629 omni 10721 origins 10721/6379/912/0/0/1992; pc 1306 regs 05e178d203c95b81; output cbf29ce484222325");
    (("eqntott fuel 20005", "x86"),
     "out of fuel; instrs 20005 cycles 32120 loads 4100 stores 1966 branches 912 taken 629 omni 10721 origins 10721/6380/912/0/0/1992; pc 1307 regs fd6f63920c6525e1; output cbf29ce484222325");
    (("eqntott fuel 20006", "x86"),
     "out of fuel; instrs 20006 cycles 32120 loads 4100 stores 1966 branches 912 taken 629 omni 10721 origins 10721/6381/912/0/0/1992; pc 1308 regs e092ecd113693642; output cbf29ce484222325");
    (("eqntott fuel 20007", "x86"),
     "out of fuel; instrs 20007 cycles 32121 loads 4101 stores 1966 branches 912 taken 629 omni 10722 origins 10722/6381/912/0/0/1992; pc 1309 regs 8f73eb245cdff333; output cbf29ce484222325");
    (("eqntott fuel 20008", "x86"),
     "out of fuel; instrs 20008 cycles 32123 loads 4102 stores 1966 branches 912 taken 629 omni 10723 origins 10723/6381/912/0/0/1992; pc 1310 regs 8f73eb245cdff333; output cbf29ce484222325");
    (("eqntott fuel 20009", "x86"),
     "out of fuel; instrs 20009 cycles 32125 loads 4102 stores 1967 branches 912 taken 629 omni 10723 origins 10723/6382/912/0/0/1992; pc 1311 regs fe311d3979a1880d; output cbf29ce484222325");
    (("eqntott fuel 20010", "x86"),
     "out of fuel; instrs 20010 cycles 32125 loads 4103 stores 1967 branches 912 taken 629 omni 10723 origins 10723/6383/912/0/0/1992; pc 1312 regs fe311d3979a1880d; output cbf29ce484222325");
    (("eqntott fuel 20011", "x86"),
     "out of fuel; instrs 20011 cycles 32127 loads 4103 stores 1967 branches 912 taken 629 omni 10724 origins 10724/6383/912/0/0/1992; pc 1313 regs fe311d3979a1880d; output cbf29ce484222325");
    (("eqntott fuel 20012", "x86"),
     "out of fuel; instrs 20012 cycles 32136 loads 4103 stores 1967 branches 912 taken 629 omni 10724 origins 10724/6384/912/0/0/1992; pc 1314 regs 2b80f25a7dceb04c; output cbf29ce484222325");
    (("eqntott fuel 20013", "x86"),
     "out of fuel; instrs 20013 cycles 32137 loads 4103 stores 1967 branches 912 taken 629 omni 10724 origins 10724/6385/912/0/0/1992; pc 1315 regs 0bd35b80e59c59c7; output cbf29ce484222325");
    (("eqntott fuel 20014", "x86"),
     "out of fuel; instrs 20014 cycles 32138 loads 4104 stores 1967 branches 912 taken 629 omni 10725 origins 10725/6385/912/0/0/1992; pc 1316 regs 0bd35b80e59c59c7; output cbf29ce484222325");
    (("eqntott fuel 20015", "x86"),
     "out of fuel; instrs 20015 cycles 32138 loads 4104 stores 1967 branches 912 taken 629 omni 10725 origins 10725/6386/912/0/0/1992; pc 1317 regs 4c42639976d758bf; output cbf29ce484222325");
    (("eqntott fuel 20016", "x86"),
     "out of fuel; instrs 20016 cycles 32140 loads 4104 stores 1967 branches 912 taken 629 omni 10726 origins 10726/6386/912/0/0/1992; pc 1318 regs e76ce3e5b62d480a; output cbf29ce484222325");
    (("eqntott watchdog", "mips"),
     "fault wall-clock deadline exceeded; instrs 23353 cycles 39245 loads 2574 stores 1249 branches 1134 taken 789 omni 13390 origins 13390/2529/1106/2394/2273/1661; pc 905 regs 92220e73e5395877; output cbf29ce484222325");
    (("eqntott watchdog", "sparc"),
     "fault wall-clock deadline exceeded; instrs 23830 cycles 44074 loads 2956 stores 1422 branches 1299 taken 904 omni 15342 origins 15342/0/1300/2693/2594/1901; pc 986 regs 8adabb11b397e5f0; output cbf29ce484222325");
    (("eqntott watchdog", "ppc"),
     "fault wall-clock deadline exceeded; instrs 20002 cycles 37363 loads 2495 stores 1210 branches 1098 taken 762 omni 12973 origins 12973/2449/1098/2292/0/1190; pc 787 regs 11d3706b28c82baa; output cbf29ce484222325");
    (("eqntott watchdog", "x86"),
     "fault wall-clock deadline exceeded; instrs 20002 cycles 32116 loads 4099 stores 1965 branches 912 taken 629 omni 10720 origins 10720/6378/912/0/0/1992; pc 1304 regs 05e178d203c95b81; output cbf29ce484222325");
  ]

let exit_path_goldens () =
  let bad =
    List.concat_map
      (fun arch ->
        List.filter_map
          (fun (case, run) ->
            let got = run () in
            let key = (case, Arch.name arch) in
            if List.assoc_opt key exit_goldens = Some got then None
            else Some (Printf.sprintf "(( %S, %S ),\n %S);" case (Arch.name arch) got))
          (exit_cases arch))
      targets
  in
  if bad <> [] then
    Alcotest.failf "%d exit paths differ; got:\n%s" (List.length bad)
      (String.concat "\n" bad)

(* --- per-form goldens ---

   One line per instruction form each simulator decodes, run as a few
   slots patched over the [trap] markers of a small translated program
   whose prologue seeds the registers and the data: the outcome (or the
   exception the run raised), every [Machine.stats] field, the native pc,
   a digest of every native register and the compare state, a digest of
   the data segment's first bytes and one of the output. A patched
   branch targets the marker [form_taken] slots past the patch, so the
   trap a run stops on says where control went. Recorded before the
   simulators decoded slots into op words; the hostile cases (registers
   out of range, labels past either end, fields beyond 32 bits, an index
   scale of 3, a pool index past the pool) pin that a field is either
   held exactly or refused as it always was. *)

let form_exe =
  lazy
    (compile_asm
       {|
        .data
buf:    .word 0x12345678, 0x89abcdef, 0xfffffffe, 7
        .word 0x7fffffff, 0x80000000, 0xfedcba98, 3
        .double 2.5, -0.75
        .space 64
        .text
        .globl main
main:
        li r1, 0x12345678
        la r2, buf
        li r3, -7
        li r4, 4
        li r5, -2147483648
        li r6, -1
        li r7, 0
        li r8, 3
        la r9, tgt
        la r10, main
        addi r10, r10, 4
        li r11, 0x7fffffff
        li r12, 40
        fli.d f1, 1.25
        fli.d f2, -3.5
        fli.d f3, 10000000000.0
        fli.d f4, 0.1
        fli.s f5, 0.3
        fli.d f6, 7.0
        trap 1
        trap 2
        trap 3
        trap 4
        trap 5
        trap 6
        trap 7
        trap 8
        trap 9
        trap 10
        trap 11
        trap 12
        .globl tgt
tgt:    trap 20
        trap 21
|})

(* Where a patched branch goes: the marker that many slots past the
   first patched one. *)
let form_taken = 8

let form_line tr =
  let exe = Lazy.force form_exe in
  let img = Api.load exe in
  let mem = img.Omni_runtime.Loader.mem in
  let host = img.Omni_runtime.Loader.host in
  let fuel = 10_000 in
  let f64 h x = Fnv64.mix_int h (Int64.to_int (Int64.bits_of_float x)) in
  match
    let o, s, st = Sim.run ~fuel tr mem host in
    (* the family's own registers: all but the last, which only decoding
       names (RISC's r0 sink, x86's missing base) *)
    let h = ref 0L in
    for r = 0 to Array.length st.Sim.regs - 2 do
      h := Fnv64.mix_int !h st.Sim.regs.(r)
    done;
    Array.iter (fun x -> h := f64 !h x) st.Sim.fregs;
    h := Fnv64.mix_int !h st.Sim.cc_a;
    h := Fnv64.mix_int !h st.Sim.cc_b;
    (o, s, st.Sim.pc, Fnv64.mix_int !h (Bool.to_int st.Sim.fcc))
  with
  | exception e -> "exception " ^ Printexc.to_string e
  | outcome, s, pc, regs ->
      let m = ref 0L in
      let base = Omnivm.Layout.data_base in
      for k = 0 to ((Omnivm.Layout.reserved_data + 128) / 4) - 1 do
        m := Fnv64.mix_int !m (Omnivm.Memory.load32 mem (base + (4 * k)))
      done;
      Printf.sprintf
        "%s; instrs %d cycles %d loads %d stores %d branches %d taken %d \
         origins %s; pc %d regs %s mem %s; output %s"
        (outcome_string outcome) s.Machine.instructions s.Machine.cycles
        s.Machine.loads s.Machine.stores s.Machine.branches
        s.Machine.taken_branches
        (String.concat "/"
           (Array.to_list (Array.map string_of_int s.Machine.by_origin)))
        pc (Fnv64.to_hex regs) (Fnv64.to_hex !m)
        (Fnv64.to_hex (Fnv64.digest_string (Omni_runtime.Host.output host)))

(* The first [trap 1] marker. *)
let form_marker n is_trap1 =
  let rec go k =
    if k >= n then Alcotest.fail "no trap 1 marker" else if is_trap1 k then k
    else go (k + 1)
  in
  go 0

let risc_form_cases ~delay =
  let open Risc in
  let o = map_reg in
  let br i = if delay then [ i; Nop ] else [ i ] in
  let binops =
    VI.[ Add; Sub; Mul; Div; Divu; Rem; Remu; And; Or; Xor; Sll; Srl; Sra;
         Slt; Sltu ]
  in
  let widths = VI.[ (W8, true); (W8, false); (W16, true); (W16, false);
                    (W32, true); (W32, false) ] in
  let conds = VI.[ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ] in
  let fops = VI.[ Fadd; Fsub; Fmul; Fdiv ] in
  let precs = VI.[ Single; Double ] in
  let wname (w, s) = VI.load_name w s ^ if s then " s" else " u" in
  let forms =
    List.concat_map
      (fun op ->
        let n = VI.binop_name op in
        [ ("alu " ^ n, fun _ -> [ Alu (op, o 12, o 3, o 4) ]);
          ("alui " ^ n, fun _ -> [ Alui (op, o 12, o 3, 3) ]);
          ("alui neg " ^ n, fun _ -> [ Alui (op, o 12, o 1, -5) ]);
          ("alu. " ^ n, fun _ -> [ Alu_record (op, o 12, o 3, o 4) ]) ])
      binops
    @ List.map
        (fun op ->
          ( "alu by zero " ^ VI.binop_name op,
            fun _ -> [ Alu (op, o 12, o 3, o 7) ] ))
        VI.[ Div; Divu; Rem; Remu ]
    @ [ ("alui div by zero", fun _ -> [ Alui (VI.Div, o 12, o 3, 0) ]);
        ("alu. rem by zero", fun _ -> [ Alu_record (VI.Rem, o 12, o 3, o 7) ]);
        ("alu min div -1", fun _ -> [ Alu (VI.Div, o 12, o 5, o 6) ]);
        ("alu min rem -1", fun _ -> [ Alu (VI.Rem, o 12, o 5, o 6) ]);
        ("alu sll by 31", fun _ -> [ Alu (VI.Sll, o 12, o 1, o 11) ]);
        ("alu sra by 31", fun _ -> [ Alu (VI.Sra, o 12, o 5, o 11) ]);
        ("alu to zero", fun _ -> [ Alu (VI.Add, 0, o 3, o 4) ]);
        ("alu. to zero", fun _ -> [ Alu_record (VI.Sub, 0, o 3, o 4) ]);
        ("lui", fun _ -> [ Lui (o 12, 0x12340000) ]);
        ("lui neg", fun _ -> [ Lui (o 12, -65536) ]) ]
    @ List.concat_map
        (fun ((w, s) as ws) ->
          [ ("load " ^ wname ws, fun _ -> [ Load (w, s, o 12, o 2, 4) ]);
            ("load_x " ^ wname ws, fun _ -> [ Load_x (w, s, o 12, o 2, o 4) ]);
            ("load to zero " ^ wname ws, fun _ -> [ Load (w, s, 0, o 2, 4) ]) ])
        widths
    @ List.concat_map
        (fun w ->
          [ ("store " ^ VI.store_name w, fun _ -> [ Store (w, o 1, o 2, 8) ]);
            ("store_x " ^ VI.store_name w, fun _ -> [ Store_x (w, o 3, o 2, o 4) ]) ])
        VI.[ W8; W16; W32 ]
    @ [ ("load misaligned", fun _ -> [ Load (VI.W32, false, o 12, o 2, 2) ]);
        ("store outside data", fun _ -> [ Store (VI.W32, o 1, o 1, 0) ]);
        ("fload", fun _ -> [ Fload (7, o 2, 32) ]);
        ("fstore", fun _ -> [ Fstore (2, o 2, 48) ]);
        ("fload_s", fun _ -> [ Fload_s (7, o 2, 0) ]);
        ("fstore_s", fun _ -> [ Fstore_s (2, o 2, 48) ]);
        ("fload_x", fun _ -> [ Fload_x (7, o 2, o 4) ]);
        ("fstore_x", fun _ -> [ Fstore_x (1, o 2, o 4) ]);
        ("fld_pool", fun _ -> [ Fld_pool (7, 0) ]) ]
    @ List.concat_map
        (fun op ->
          List.map
            (fun pr ->
              ( Printf.sprintf "fop %s.%s" (VI.fbinop_name op) (VI.prec_suffix pr),
                fun _ -> [ Fop (op, pr, 7, 1, 2) ] ))
            precs)
        fops
    @ List.map
        (fun op -> ("fun1 " ^ VI.funop_name op, fun _ -> [ Fun1 (op, 7, 2) ]))
        VI.[ Fneg; Fabs; Fmov ]
    @ List.concat_map
        (fun op ->
          [ ("fcmp " ^ VI.fcmp_name op, fun _ -> [ Fcmp (op, 1, 2) ]);
            ("fcmp rev " ^ VI.fcmp_name op, fun _ -> [ Fcmp (op, 2, 1) ]) ])
        VI.[ Feq; Flt; Fle ]
    @ [ ("fcc_to_reg false", fun _ -> [ Fcc_to_reg (o 12) ]);
        ("fcc_to_reg true", fun _ -> [ Fcmp (VI.Flt, 2, 1); Fcc_to_reg (o 12) ]);
        ("cvt_f_i", fun _ -> [ Cvt_f_i (7, o 3) ]);
        ("cvt_i_f", fun _ -> [ Cvt_i_f (o 12, 2) ]);
        ("cvt_i_f saturates", fun _ -> [ Cvt_i_f (o 12, 3) ]);
        ("cvt_d_s", fun _ -> [ Cvt_d_s (7, 4) ]);
        ("cvt_s_d", fun _ -> [ Cvt_s_d (7, 4) ]);
        ("cmp", fun _ -> [ Cmp (o 3, o 4) ]);
        ("cmpi", fun _ -> [ Cmpi (o 3, -7) ]) ]
    @ List.concat_map
        (fun c ->
          let n = VI.cond_name c in
          List.concat_map
            (fun (pair, x, y) ->
              [ ("cc_to_reg " ^ n ^ pair, fun _ -> [ Cmp (x, y); Cc_to_reg (c, o 12) ]);
                ("br_cc " ^ n ^ pair, fun l -> Cmp (x, y) :: br (Br_cc (c, l)));
                ("br_cmp " ^ n ^ pair, fun l -> br (Br_cmp (c, x, y, l))) ])
            [ ("", o 3, o 4); (" rev", o 4, o 3); (" same", o 4, o 4) ])
        conds
    @ [ ("fbr true", fun l -> Fcmp (VI.Flt, 2, 1) :: br (Fbr (true, l)));
        ("fbr false", fun l -> Fcmp (VI.Flt, 2, 1) :: br (Fbr (false, l)));
        ("j", fun l -> br (J l));
        ("call", fun l -> br (Call (l, 0x10000040)));
        ("call_ind entry", fun _ -> br (Call_ind (o 9, 0x10000040)));
        ("call_ind non-entry", fun _ -> br (Call_ind (o 10, 0x10000040)));
        ("jmp_ind entry", fun _ -> br (Jmp_ind (o 9)));
        ("jmp_ind non-entry", fun _ -> br (Jmp_ind (o 10)));
        ("jmp_ind outside code", fun _ -> br (Jmp_ind (o 3)));
        ("delay slot alu", fun l ->
          if delay then [ J l; Alu (VI.Add, o 12, o 3, o 4) ] else [ J l ]);
        ("guard_data pass", fun _ -> [ Guard_data (o 2) ]);
        ("guard_data fail", fun _ -> [ Guard_data (o 1) ]);
        ("guard_code pass", fun _ -> [ Guard_code (o 9) ]);
        ("guard_code fail", fun _ -> [ Guard_code (o 2) ]);
        ("trapi", fun _ -> [ Trapi 5 ]);
        ("hcall print_int", fun _ -> [ Hcall 2 ]);
        ("hcall exit", fun _ -> [ Hcall 0 ]);
        ("nop", fun _ -> [ Nop ]) ]
  in
  let hostile =
    [ ("rd 32", fun _ -> [ Alu (VI.Add, 32, o 3, o 4) ]);
      ("ra 32", fun _ -> [ Alu (VI.Add, o 12, 32, o 4) ]);
      ("rd -1", fun _ -> [ Alu (VI.Add, -1, o 3, o 4) ]);
      ("alui rd 32", fun _ -> [ Alui (VI.Add, 32, o 3, 1) ]);
      ("load rd 32", fun _ -> [ Load (VI.W32, false, 32, o 2, 0) ]);
      ("store base 32", fun _ -> [ Store (VI.W32, o 1, 32, 0) ]);
      ("fop fd 32", fun _ -> [ Fop (VI.Fadd, VI.Double, 32, 1, 2) ]);
      ("fload fd -1", fun _ -> [ Fload (-1, o 2, 0) ]);
      ("cc_to_reg rd 32", fun _ -> [ Cc_to_reg (VI.Eq, 32) ]);
      ("br_cmp ra 32", fun l -> br (Br_cmp (VI.Eq, 32, o 4, l)));
      ("jmp_ind 32", fun _ -> br (Jmp_ind 32));
      ("call_ind -1", fun _ -> br (Call_ind (-1, 0x10000040)));
      ("guard_data 32", fun _ -> [ Guard_data 32 ]);
      ("j past end", fun l -> br (J (l + 1000)));
      ("j far past end", fun _ -> br (J (1 lsl 40)));
      ("j negative", fun _ -> br (J (-3)));
      ("br_cmp negative", fun _ -> br (Br_cmp (VI.Eq, o 3, o 3, -5)));
      ("call negative", fun _ -> br (Call (-2, 0x10000040)));
      ("call ret beyond 32 bits", fun l -> br (Call (l, 0x110000040)));
      ("load disp beyond 32 bits", fun _ -> [ Load (VI.W32, false, o 12, o 2, (1 lsl 32) + 4) ]);
      ("store disp beyond 32 bits", fun _ -> [ Store (VI.W32, o 1, o 2, (1 lsl 40) + 8) ]);
      ("fload disp negative", fun _ -> [ Fload (7, o 2, -(1 lsl 36) + 32) ]);
      ("alui imm beyond 32 bits", fun _ -> [ Alui (VI.Add, o 12, o 3, (1 lsl 32) + 5) ]);
      ("alui imm beyond 63 bits", fun _ -> [ Alui (VI.Xor, o 12, o 3, min_int + 9) ]);
      ("cmpi imm beyond 32 bits", fun _ -> [ Cmpi (o 3, (1 lsl 33) - 7); Cc_to_reg (VI.Eq, o 12) ]);
      ("lui beyond 32 bits", fun _ -> [ Lui (o 12, 0x123450000) ]);
      ("fld_pool past the pool", fun _ -> [ Fld_pool (7, 1000) ]);
      ("fld_pool negative", fun _ -> [ Fld_pool (7, -1) ]);
      ("trapi beyond 32 bits", fun _ -> [ Trapi ((1 lsl 40) + 3) ]);
      ("hcall unknown", fun _ -> [ Hcall 99 ]) ]
  in
  (forms, List.map (fun (n, f) -> ("hostile " ^ n, f)) hostile)

let x86_form_cases () =
  let open Omni_targets.X86 in
  let home r = M (mabs (Omnivm.Layout.regsave_int_addr r)) in
  let bm d = mbase ebx d in
  let b d = M (bm d) in
  let ixm ?(base = Some ebx) r s d = { base; index = Some (r, s); disp = d } in
  let ix ?base r s d = M (ixm ?base r s d) in
  let alus = [ Add; Sub; And; Or; Xor ] in
  let shops = [ Shl; Shr; Sar ] in
  let conds = VI.[ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ] in
  let forms =
    [ ("mov r r", fun _ -> [ Mov (R eax, R ecx) ]);
      ("mov r i", fun _ -> [ Mov (R eax, I 0x1234) ]);
      ("mov r m abs", fun _ -> [ Mov (R eax, home 5) ]);
      ("mov r m base", fun _ -> [ Mov (R eax, b 4) ]);
      ("mov r m index", fun _ -> [ Mov (R eax, ix edi 2 4) ]);
      ("mov r m index no base", fun _ ->
        [ Mov (R eax, ix ~base:None edi 1 (Omnivm.Layout.regsave_int_addr 4)) ]);
      ("mov m abs r", fun _ -> [ Mov (home 7, R esi) ]);
      ("mov m base r", fun _ -> [ Mov (b 8, R ecx) ]);
      ("mov m index r", fun _ -> [ Mov (ix edi 4 0, R ecx) ]);
      ("mov m base i", fun _ -> [ Mov (b 12, I (-9)) ]);
      ("mov m abs i", fun _ -> [ Mov (home 8, I 77) ]);
      ("mov m m", fun _ -> [ Mov (b 8, home 5) ]);
      ("mov m outside data", fun _ -> [ Mov (M (mbase ecx 0), R esi) ]) ]
    @ List.map
        (fun (w, s) ->
          ( Printf.sprintf "load %s %b" (VI.load_name w s) s,
            fun _ -> [ Load (w, s, eax, bm 4) ] ))
        VI.[ (W8, true); (W8, false); (W16, true); (W16, false); (W32, true);
             (W32, false) ]
    @ List.concat_map
        (fun w ->
          [ ("store r " ^ VI.store_name w, fun _ -> [ Store (w, bm 8, R ecx) ]);
            ("store i " ^ VI.store_name w, fun _ -> [ Store (w, bm 8, I 0x1ff) ]);
            ("store m " ^ VI.store_name w, fun _ -> [ Store (w, bm 8, home 5) ]) ])
        VI.[ W8; W16; W32 ]
    @ List.concat_map
        (fun op ->
          let n = aluop_name op in
          [ ("alu r r " ^ n, fun _ -> [ Alu (op, R esi, R edi) ]);
            ("alu r i " ^ n, fun _ -> [ Alu (op, R esi, I 0x0f0f) ]);
            ("alu r m " ^ n, fun _ -> [ Alu (op, R esi, b 4) ]);
            ("alu m r " ^ n, fun _ -> [ Alu (op, b 4, R ecx) ]);
            ("alu m i " ^ n, fun _ -> [ Alu (op, home 5, I 3) ]);
            ("alu m m " ^ n, fun _ -> [ Alu (op, b 4, home 6) ]) ])
        alus
    @ List.concat_map
        (fun op ->
          let n = shop_name op in
          [ ("shift r " ^ n, fun _ -> [ Shift (op, R esi, 3) ]);
            ("shift m " ^ n, fun _ -> [ Shift (op, b 4, 4) ]);
            ("shiftv r " ^ n, fun _ -> [ Shiftv (op, R esi, edi) ]);
            ("shiftv m " ^ n, fun _ -> [ Shiftv (op, b 4, edi) ]) ])
        shops
    @ [ ("imul r", fun _ -> [ Imul (esi, R edi) ]);
        ("imul i", fun _ -> [ Imul (esi, I (-3)) ]);
        ("imul m", fun _ -> [ Imul (esi, b 4) ]);
        ("cdq", fun _ -> [ Mov (R eax, I (-100)); Cdq ]);
        ("idiv r", fun _ -> [ Mov (R eax, I (-100)); Cdq; Idiv (R edi, true) ]);
        ("div r", fun _ -> [ Mov (R eax, I (-100)); Mov (R edx, I 0); Idiv (R edi, false) ]);
        ("idiv i", fun _ -> [ Mov (R eax, I 100); Cdq; Idiv (I 7, true) ]);
        ("div i", fun _ -> [ Mov (R eax, I 100); Mov (R edx, I 0); Idiv (I 7, false) ]);
        ("idiv m", fun _ -> [ Mov (R eax, I 100); Cdq; Idiv (b 4, true) ]);
        ("div m", fun _ -> [ Mov (R eax, I 100); Mov (R edx, I 0); Idiv (b 4, false) ]);
        ("idiv by zero", fun _ -> [ Mov (R eax, I 100); Cdq; Idiv (I 0, true) ]);
        ("div by zero", fun _ -> [ Mov (R eax, I 100); Mov (R edx, I 0); Idiv (R edx, false) ]);
        ("idiv min by -1", fun _ ->
          [ Mov (R eax, I (-0x80000000)); Cdq; Idiv (I (-1), true) ]);
        ("lea base", fun _ -> [ Lea (eax, bm 4) ]);
        ("lea index", fun _ -> [ Lea (eax, ixm edi 8 (-4)) ]);
        ("lea abs", fun _ -> [ Lea (eax, mabs 0x1234) ]) ]
    @ List.map
        (fun (n, a, b) -> ("cmp " ^ n, fun _ -> [ Cmp (a, b); Setcc (VI.Lt, eax) ]))
        [ ("r r", R esi, R edi); ("r i", R esi, I 5); ("r m", R esi, b 4);
          ("m r", b 4, R esi); ("m i", b 4, I 3); ("i r", I 3, R esi);
          ("i i", I 3, I 4); ("i m", I 3, b 4); ("m m", home 5, b 4);
          ("m outside data", M (mbase ecx 0), I 0) ]
    @ List.concat_map
        (fun c ->
          let n = VI.cond_name c in
          List.concat_map
            (fun (pair, x, y) ->
              [ ("setcc " ^ n ^ pair, fun _ -> [ Cmp (x, y); Setcc (c, eax) ]);
                ("jcc " ^ n ^ pair, fun l -> [ Cmp (x, y); Jcc (c, l) ]) ])
            [ ("", R esi, R edi); (" rev", R edi, R esi); (" same", R edi, R edi) ])
        conds
    @ [ ("jmp", fun l -> [ Jmp l ]);
        ("jmp_ind r entry", fun _ -> [ Mov (R eax, home 9); Jmp_ind (R eax) ]);
        ("jmp_ind m entry", fun _ -> [ Jmp_ind (home 9) ]);
        ("jmp_ind m non-entry", fun _ -> [ Jmp_ind (home 10) ]);
        ("jmp_ind i misaligned", fun _ -> [ Jmp_ind (I 0x10000001) ]);
        ("call", fun l -> [ Call (l, 0x10000040) ]);
        ("call_ind r entry", fun _ -> [ Mov (R eax, home 9); Call_ind (R eax, 0x10000040) ]);
        ("call_ind m entry", fun _ -> [ Call_ind (home 9, 0x10000040) ]);
        ("call_ind m non-entry", fun _ -> [ Call_ind (home 10, 0x10000040) ]);
        ("call_ind i outside code", fun _ -> [ Call_ind (I 5, 0x10000040) ]) ]
    @ List.concat_map
        (fun op ->
          List.map
            (fun pr ->
              ( Printf.sprintf "fop %s.%s" (VI.fbinop_name op) (VI.prec_suffix pr),
                fun _ -> [ Fop (op, pr, 6, 0, 1) ] ))
            VI.[ Single; Double ])
        VI.[ Fadd; Fsub; Fmul; Fdiv ]
    @ List.map
        (fun op -> ("fun1 " ^ VI.funop_name op, fun _ -> [ Fun1 (op, 6, 1) ]))
        VI.[ Fneg; Fabs; Fmov ]
    @ [ ("fload single", fun _ -> [ Fload (VI.Single, 6, bm 0) ]);
        ("fload double", fun _ -> [ Fload (VI.Double, 6, bm 32) ]);
        ("fstore single", fun _ -> [ Fstore (VI.Single, 1, bm 48) ]);
        ("fstore double", fun _ -> [ Fstore (VI.Double, 1, bm 48) ]);
        ("fld_pool", fun _ -> [ Fld_pool (6, 0) ]) ]
    @ List.concat_map
        (fun op ->
          [ ("fcmp " ^ VI.fcmp_name op, fun _ -> [ Fcmp (op, 0, 1) ]);
            ("fcmp rev " ^ VI.fcmp_name op, fun _ -> [ Fcmp (op, 1, 0) ]) ])
        VI.[ Feq; Flt; Fle ]
    @ [ ("fcc_to_reg false", fun _ -> [ Fcc_to_reg eax ]);
        ("fcc_to_reg true", fun _ -> [ Fcmp (VI.Flt, 1, 0); Fcc_to_reg eax ]);
        ("cvt_f_i r", fun _ -> [ Cvt_f_i (6, R esi) ]);
        ("cvt_f_i i", fun _ -> [ Cvt_f_i (6, I 9) ]);
        ("cvt_f_i m", fun _ -> [ Cvt_f_i (6, b 4) ]);
        ("cvt_i_f", fun _ -> [ Cvt_i_f (eax, 1) ]);
        ("cvt_i_f saturates", fun _ -> [ Cvt_i_f (eax, 2) ]);
        ("guard_data pass", fun _ -> [ Guard_data ebx ]);
        ("guard_data fail", fun _ -> [ Guard_data ecx ]);
        ("guard_code pass", fun _ -> [ Mov (R eax, home 9); Guard_code eax ]);
        ("guard_code fail", fun _ -> [ Guard_code ebx ]);
        ("trapi", fun _ -> [ Trapi 5 ]);
        ("hcall print_int", fun _ -> [ Hcall 2 ]);
        ("hcall exit", fun _ -> [ Hcall 0 ]);
        ("nop", fun _ -> [ Nop ]) ]
  in
  let big = (1 lsl 40) + 4 in
  let hostile =
    [ ("mov r8", fun _ -> [ Mov (R 8, R ecx) ]);
      ("mov from r8", fun _ -> [ Mov (R eax, R 8) ]);
      ("alu r -1", fun _ -> [ Alu (Add, R (-1), R ecx) ]);
      ("base r8", fun _ -> [ Mov (R eax, M (mbase 8 0)) ]);
      ("index r8", fun _ -> [ Mov (R eax, ix 8 1 0) ]);
      ("lea r8", fun _ -> [ Lea (8, bm 4) ]);
      ("setcc r8", fun _ -> [ Setcc (VI.Eq, 8) ]);
      ("fop fp8", fun _ -> [ Fop (VI.Fadd, VI.Double, 8, 0, 1) ]);
      ("guard_data r8", fun _ -> [ Guard_data 8 ]);
      ("shiftv count r8", fun _ -> [ Shiftv (Shl, R esi, 8) ]);
      ("jmp past end", fun l -> [ Jmp (l + 1000) ]);
      ("jmp far past end", fun _ -> [ Jmp (1 lsl 40) ]);
      ("jmp negative", fun _ -> [ Jmp (-4) ]);
      ("jcc negative", fun _ -> [ Cmp (R esi, R esi); Jcc (VI.Eq, -1) ]);
      ("call negative", fun _ -> [ Call (-2, 0x10000040) ]);
      ("call ret beyond 32 bits", fun l -> [ Call (l, 0x110000040) ]);
      ("disp beyond 32 bits", fun _ -> [ Mov (R eax, M (mbase ebx big)) ]);
      ("abs disp beyond 32 bits", fun _ ->
        [ Mov (R eax, M (mabs ((1 lsl 44) + Omnivm.Layout.regsave_int_addr 5))) ]);
      ("imm beyond 32 bits", fun _ -> [ Mov (R eax, I ((1 lsl 35) + 9)) ]);
      ("cmp imm beyond 32 bits", fun _ ->
        [ Cmp (R esi, I ((1 lsl 32) - 7)); Setcc (VI.Eq, eax) ]);
      ("store both beyond 32 bits", fun _ -> [ Store (VI.W32, mbase ebx big, I big) ]);
      ("shift count beyond 31", fun _ -> [ Shift (Shl, R esi, 35) ]);
      ("scale 3", fun _ -> [ Mov (R eax, ix edi 3 0) ]);
      ("scale 3 store imm", fun _ -> [ Mov (ix edi 3 0, I 0x55) ]);
      ("scale 3 lea", fun _ -> [ Lea (eax, ixm edi 3 (-1)) ]);
      ("scale with bit 31", fun _ -> [ Lea (eax, ixm edi 0x80000003 5) ]);
      ("scale beyond 32 bits", fun _ -> [ Lea (eax, ixm edi ((1 lsl 33) + 2) 5) ]);
      ("scale negative", fun _ -> [ Mov (R eax, ix ~base:None edi (-1) big) ]);
      ("scale 3 cmp m m", fun _ ->
        [ Cmp (ix edi 0x80000003 big, home 5); Setcc (VI.Lt, eax) ]);
      ("scale 3 call_ind", fun _ -> [ Call_ind (ix edi 3 big, 0x110000040) ]);
      ("fld_pool past the pool", fun _ -> [ Fld_pool (6, 1000) ]);
      ("fld_pool negative", fun _ -> [ Fld_pool (6, -1) ]);
      ("mov to immediate", fun _ -> [ Mov (I 3, R ecx) ]);
      ("alu to immediate", fun _ -> [ Alu (Add, I 3, R ecx) ]);
      ("shift immediate", fun _ -> [ Shift (Shl, I 3, 1) ]);
      ("trapi beyond 32 bits", fun _ -> [ Trapi ((1 lsl 40) + 3) ]);
      ("hcall unknown", fun _ -> [ Hcall 99 ]) ]
  in
  (forms, List.map (fun (n, f) -> ("hostile " ^ n, f)) hostile)

(* Every case of [arch], each as (name, line). *)
let form_results arch =
  let tr = Api.translate ~mode:sandbox arch (Lazy.force form_exe) in
  match tr with
  | Api.T_risc p ->
      let n = Array.length p.Risc.code in
      let k = form_marker n (fun k -> p.Risc.code.(k).Risc.i = Risc.Trapi 1) in
      let forms, hostile = risc_form_cases ~delay:p.Risc.cfg.Risc.has_delay_slot in
      List.map
        (fun (name, f) ->
          let code = Array.copy p.Risc.code in
          List.iteri
            (fun j i -> code.(k + j) <- Risc.mk Machine.Core i)
            (f (k + form_taken));
          (name, form_line (Api.T_risc { p with Risc.code })))
        (forms @ hostile)
  | Api.T_x86 p ->
      let module X = Omni_targets.X86 in
      let n = Array.length p.X.code in
      let k = form_marker n (fun k -> p.X.code.(k).X.i = X.Trapi 1) in
      let forms, hostile = x86_form_cases () in
      List.map
        (fun (name, f) ->
          let code = Array.copy p.X.code in
          List.iteri
            (fun j i -> code.(k + j) <- X.mk Machine.Core i)
            (f (k + form_taken));
          (name, form_line (Api.T_x86 { p with X.code })))
        (forms @ hostile)

let form_goldens_file = "form_goldens.txt"

let form_goldens () =
  let want = Hashtbl.create 1024 in
  In_channel.with_open_text form_goldens_file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l -> (
            match String.split_on_char '|' l with
            | [ arch; case; line ] -> Hashtbl.replace want (arch, case) line; go ()
            | _ -> go ())
      in
      go ());
  let got =
    List.concat_map
      (fun arch ->
        List.map (fun (case, line) -> (Arch.name arch, case, line)) (form_results arch))
      targets
  in
  let bad =
    List.filter
      (fun (arch, case, line) -> Hashtbl.find_opt want (arch, case) <> Some line)
      got
  in
  if bad <> [] || Hashtbl.length want <> List.length got then
    Alcotest.failf "%d of %d forms differ (%d goldens); got:\n%s" (List.length bad)
      (List.length got) (Hashtbl.length want)
      (String.concat "\n"
         (List.map (fun (a, c, l) -> String.concat "|" [ a; c; l ]) bad))

(* --- opcode classes ---

   [Sim.decode] reads a slot's control, conditional-branch and host-call
   flags off its opcode's range, and the two families share one opcode
   space. So every form of the per-form lists that decodes must get the
   flags of its constructor, and each x86 form that is a RISC instruction
   (Jcc, Jmp, Trapi, Hcall, Nop) must pack to its RISC twin's op words,
   bit for bit. *)

let decode_one tr =
  let t = Machine.take_table 1 in
  let r =
    match Sim.decode tr t 0 with
    | exception Invalid_argument _ -> None (* refused: the goldens pin it *)
    | tag -> Some (tag, (t.Machine.ops.(0), t.Machine.ops.(1)))
  in
  Machine.give_table t;
  r

let opcode_classes () =
  let module X = Omni_targets.X86 in
  let exe = Lazy.force form_exe in
  let risc, x86 =
    match (Api.translate ~mode:sandbox Arch.Sparc exe,
           Api.translate ~mode:sandbox Arch.X86 exe) with
    | Api.T_risc r, Api.T_x86 x -> (r, x)
    | _ -> Alcotest.fail "Sparc and x86 translate to their own families"
  in
  let risc_one i = Api.T_risc { risc with Risc.code = [| Risc.mk Machine.Core i |] } in
  let x86_one i = Api.T_x86 { x86 with X.code = [| X.mk Machine.Core i |] } in
  let check what (control, branch, hcall) tr =
    Option.map
      (fun (tag, words) ->
        let has f = tag land f <> 0 in
        if has Machine.tag_control <> control || has Machine.tag_branch <> branch
           || has Machine.tag_hcall <> hcall
        then Alcotest.failf "%s: tag %#x" what tag;
        words)
      (decode_one tr)
  in
  let instrs (forms, hostile) =
    List.concat_map (fun (name, f) -> List.map (fun i -> (name, i)) (f 5))
      (forms @ hostile)
  in
  List.iter
    (fun (name, i) ->
      let cls =
        match i with
        | Risc.Br_cc _ | Risc.Br_cmp _ | Risc.Fbr _ -> (true, true, false)
        | Risc.Hcall _ -> (false, false, true)
        | i -> (Risc.is_control i, false, false)
      in
      ignore (check ("risc " ^ name) cls (risc_one i)))
    (instrs (risc_form_cases ~delay:true));
  let twins = Hashtbl.create 5 in
  List.iter
    (fun (name, i) ->
      let cls =
        match i with
        | X.Jcc _ -> (true, true, false)
        | X.Hcall _ -> (false, false, true)
        | i -> (X.is_control i, false, false)
      in
      let twin =
        match i with
        | X.Jcc (c, l) -> Some ("jcc", Risc.Br_cc (c, l))
        | X.Jmp l -> Some ("jmp", Risc.J l)
        | X.Trapi n -> Some ("trapi", Risc.Trapi n)
        | X.Hcall n -> Some ("hcall", Risc.Hcall n)
        | X.Nop -> Some ("nop", Risc.Nop)
        | _ -> None
      in
      match (check ("x86 " ^ name) cls (x86_one i), twin) with
      | Some words, Some (kind, r) ->
          Hashtbl.replace twins kind ();
          if Option.map snd (decode_one (risc_one r)) <> Some words then
            Alcotest.failf "x86 %s packs apart from its RISC twin" name
      | _ -> ())
    (instrs (x86_form_cases ()));
  Alcotest.(check int) "every twin is among the forms" 5 (Hashtbl.length twins)

(* Memo storage is proportional to the code: on every spec program and
   target, a run's segment entries and its two index ints per slot take
   at most 8 ints per slot. *)
let memo_storage () =
  List.iter
    (fun (name, exe) ->
      List.iter
        (fun arch ->
          let img = Api.load exe in
          let mem = img.Omni_runtime.Loader.mem in
          let host = img.Omni_runtime.Loader.host in
          let fuel = 1_000_000_000 in
          let _, _, st =
            Sim.run ~fuel (Api.translate ~mode:sandbox arch exe) mem host
          in
          let table = st.Sim.table and slots = st.Sim.slots in
          let words = P.memo_words table.Machine.memo + (2 * slots) in
          if words > 8 * slots then
            Alcotest.failf "%s on %s: %d memo ints for %d slots" name
              (Arch.name arch) words slots)
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
    (List.map fst (Lazy.force spec_programs))

(* --- whole runs equal stepping ---

   A straight run that has been stepped once runs whole when entered with
   more fuel and more polls left than its length. A watchdog on a clock
   that never moves, polled every instruction, always has one poll left,
   so under it every instruction is stepped: the reference. The two must
   end alike (outcome, every statistic, pc, registers, output and the
   data at both ends of the data segment) on runs to exit, on runs cut
   by fuel at every offset of a segment of each program's hot loop, and,
   at every
   fuel budget, on a program that faults inside a straight run into its
   handler, three times. *)

let stepped_watchdog () =
  Omnivm.Watchdog.make ~poll_every:1 ~clock:(Omni_util.Clock.manual ())
    ~budget_s:1.0 ()

type sim_end = {
  e_outcome : Machine.outcome;
  e_stats : Machine.stats;
  e_pc : int;
  e_regs : int array;
  e_fregs : int64 array;
  e_output : string;
  e_data : string; (* FNV-64 of the data segment's two ends *)
}

let sim_end ?watchdog ?(ends = 0x10000) ~fuel tr exe =
  let img = Api.load exe in
  let mem = img.Omni_runtime.Loader.mem in
  let host = img.Omni_runtime.Loader.host in
  let bits = Array.map Int64.bits_of_float in
  let e_outcome, e_stats, st = Sim.run ~fuel ?watchdog tr mem host in
  let e_pc = st.Sim.pc and e_regs = st.Sim.regs and e_fregs = bits st.Sim.fregs in
  let module L = Omnivm.Layout in
  let window addr = Omnivm.Memory.read_bytes mem ~addr ~len:ends in
  let e_data =
    Omni_util.Fnv64.to_hex
      (Omni_util.Fnv64.digest_string
         (Bytes.to_string (window L.data_base)
         ^ Bytes.to_string (window (L.data_base + L.data_size - ends))))
  in
  { e_outcome; e_stats; e_pc; e_regs; e_fregs; e_data;
    e_output = Omni_runtime.Host.output host }

(* The stepped end of a run with [fuel], after checking that the whole
   run ends alike. *)
let whole_equals_stepped ?ends what tr exe fuel =
  let whole = sim_end ?ends ~fuel tr exe in
  let stepped = sim_end ?ends ~watchdog:(stepped_watchdog ()) ~fuel tr exe in
  if whole <> stepped then
    Alcotest.failf "%s, fuel %d: whole runs %d instructions %d cycles, \
                    stepping %d and %d"
      what fuel whole.e_stats.Machine.instructions whole.e_stats.Machine.cycles
      stepped.e_stats.Machine.instructions stepped.e_stats.Machine.cycles;
  stepped

let is_control tr pc =
  match tr with
  | Api.T_risc p ->
      pc >= 0 && pc < Array.length p.Risc.code
      && Risc.is_control p.Risc.code.(pc).Risc.i
  | Api.T_x86 p ->
      let code = p.Omni_targets.X86.code in
      pc >= 0 && pc < Array.length code
      && Omni_targets.X86.is_control code.(pc).Omni_targets.X86.i

let whole_runs_spec () =
  List.iter
    (fun (name, exe) ->
      List.iter
        (fun arch ->
          let tr = Api.translate ~mode:sandbox arch exe in
          let what = Printf.sprintf "%s on %s" name (Arch.name arch) in
          let total =
            (whole_equals_stepped what tr exe 1_000_000_000).e_stats
              .Machine.instructions
          in
          (* from a quarter of the way in, budgets until the run has
             stopped on a control slot twice: every offset of the
             segment between *)
          let rec cut fuel stops =
            if stops < 2 && fuel < (total / 4) + 1000 then
              let e = whole_equals_stepped what tr exe fuel in
              cut (fuel + 1) (if is_control tr e.e_pc then stops + 1 else stops)
            else if stops < 2 then
              Alcotest.failf "%s: no segment ends near fuel %d" what (total / 4)
          in
          cut (total / 4) 0)
        targets)
    (Lazy.force spec_programs)

(* [spin] divides by zero inside its loop's straight body once [i]
   reaches [k] or, with [m] = 1, first passes the host call that ends
   the body's first straight run a string outside every region. The
   handler counts the fault and spins again, re-arming itself twice: a
   division, a host call and a division are delivered to it, and a
   second host call fault ends the run. *)
let faulting_source =
  {|
int acc;
int rounds;
char empty[4];
void spin(int k, int m) {
  int i;
  for (i = 0; i < 100; i = i + 1) {
    print_str(empty + (i / k) * m * 20000000);
    acc = (acc + 1000 / (k - i) + i * 3) & 65535;
  }
}
void h(int code) {
  rounds = rounds + 1;
  print_int(code); putchar(32); print_int(acc); putchar(10);
  if (rounds < 3) set_handler(&h);
  spin(30 - rounds * 7, rounds & 1);
}
int main(void) { set_handler(&h); spin(30, 0); return 1; }
|}

let whole_runs_fault () =
  let exe =
    Omnivm.Wire.decode (Minic.Driver.compile_wire ~name:"spin" faulting_source)
  in
  List.iter
    (fun arch ->
      let tr = Api.translate ~mode:sandbox arch exe in
      let what = Printf.sprintf "spin on %s" (Arch.name arch) in
      let last = whole_equals_stepped what tr exe 1_000_000_000 in
      (match last.e_outcome with
      | Machine.Faulted (Omnivm.Fault.Access_violation _)
        when List.length (String.split_on_char '\n' last.e_output) = 4 -> ()
      | _ -> Alcotest.failf "%s: the handler did not run three times" what);
      let total = last.e_stats.Machine.instructions in
      for fuel = 0 to total do
        ignore (whole_equals_stepped ~ends:0x1000 what tr exe fuel)
      done)
    targets

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

(* Two digests over every module x target x config. The translation
   digest was recorded when the code fingerprint was FNV-1a over a
   [Marshal] image of the program; it folds that fingerprint, computed by
   a test-local copy, and passes it to [Exec.certify] as [~code_fp], so
   it still pins the translated code and every certificate byte. The
   fingerprint digest folds [Exec.fingerprint] itself, the structural
   fold that certificates and journals bind today. *)
let translation_digests ?(tracer = fun _ -> Omni_obs.Trace.null) () =
  List.fold_left
    (fun (h, hf) wire ->
      let exe = Omnivm.Wire.decode wire in
      let module_digest = Omni_util.Fnv64.digest_string wire in
      List.fold_left
        (fun (h, hf) arch ->
          List.fold_left
            (fun (h, hf) (mode, opts) ->
              let tr =
                Omni_obs.Trace.with_current (tracer arch) (fun () ->
                    Exec.translate ~mode ?opts arch exe)
              in
              let opts =
                match opts with Some o -> o | None -> Exec.mobile_opts arch
              in
              let code_fp = Marshal_fingerprint.of_translated tr in
              let h = Omni_util.Fnv64.mix_int h 0 in
              let h =
                Omni_util.Fnv64.digest_string ~seed:h
                  (Omni_util.Fnv64.to_hex code_fp)
              in
              let h =
                match Exec.certify ~module_digest ~mode ~opts ~code_fp tr with
                | Ok c ->
                    Omni_util.Fnv64.digest_string ~seed:h
                      (Omni_cert.Certificate.encode c)
                | Error e -> Omni_util.Fnv64.digest_string ~seed:h e
              in
              ( h,
                Omni_util.Fnv64.digest_string ~seed:hf
                  (Omni_util.Fnv64.to_hex (Exec.fingerprint tr)) ))
            (h, hf) golden_configs)
        (h, hf) targets)
    (0L, 0L) (Lazy.force golden_modules)

let golden_translation_digest = "a6f5350d5061ac2f"
let golden_fingerprint_digest = "427d4a1d9e33a3cd"

(* Per target, over the same translations: the total of every
   [translate.*] counter the translators tally, and how many translations
   ran each [pass.*] (one observation each). The digests pin the code;
   these pin what [Translate.run] counts while producing it. *)
let golden_tallies =
  [ ( Arch.Mips,
      "translate.delay_slot_nops=5188 translate.delay_slots_filled=3726 \
       translate.gp_uses=771 translate.omni_instrs=46086 \
       translate.sfi_checks=630 translate.sfi_checks_elided=1619 \
       pass.delay_slot=92 pass.schedule=92" );
    ( Arch.Sparc,
      "translate.delay_slot_nops=5317 translate.delay_slots_filled=3597 \
       translate.gp_uses=1496 translate.omni_instrs=46086 \
       translate.sfi_checks=630 translate.sfi_checks_elided=1619 \
       pass.delay_slot=92 pass.schedule=46" );
    ( Arch.Ppc,
      "translate.gp_uses=771 translate.omni_instrs=46086 \
       translate.peephole_folds=10 translate.sfi_checks=630 \
       translate.sfi_checks_elided=1619 pass.peephole=46 pass.schedule=92" );
    ( Arch.X86,
      "translate.omni_instrs=46086 translate.peephole_folds=54 \
       translate.sfi_checks=630 translate.sfi_checks_elided=1619 \
       pass.peephole=92 pass.schedule=60" ) ]

let tally_line (m : Omni_obs.Metrics.t) =
  let snap = Omni_obs.Metrics.snapshot m in
  let has p n = String.starts_with ~prefix:p n in
  String.concat " "
    (List.filter_map
       (fun (n, v) ->
         if has "translate." n then Some (Printf.sprintf "%s=%d" n v) else None)
       snap.Omni_obs.Metrics.counters
    @ List.filter_map
        (fun (n, (h : Omni_obs.Metrics.hist_snapshot)) ->
          if has "pass." n then Some (Printf.sprintf "%s=%d" n h.hs_count)
          else None)
        snap.Omni_obs.Metrics.histograms)

let golden_translations () =
  Alcotest.(check int) "modules" 46 (List.length (Lazy.force golden_modules));
  let registries =
    List.map (fun a -> (a, Omni_obs.Metrics.create ())) targets
  in
  let tracers =
    List.map
      (fun (a, m) -> (a, Omni_obs.Trace.make ~metrics:m Omni_obs.Trace.Null))
      registries
  in
  let h, hf = translation_digests ~tracer:(fun a -> List.assoc a tracers) () in
  Alcotest.(check string) "translation digest" golden_translation_digest
    (Omni_util.Fnv64.to_hex h);
  Alcotest.(check string) "fingerprint digest" golden_fingerprint_digest
    (Omni_util.Fnv64.to_hex hf);
  List.iter
    (fun (a, m) ->
      Alcotest.(check string)
        (Arch.name a ^ " tallies")
        (List.assoc a golden_tallies)
        (tally_line m))
    registries

(* Translation allocates a bounded number of minor words per OmniVM
   instruction: its slots, their instructions and little else. Over the
   golden modules in the default mobile configuration the count is
   deterministic for a build, once a first pass has sized the buffers a
   domain keeps between translations; each bound sits a little above
   it. *)
let translation_alloc_bounds =
  [ (Arch.Mips, 17.5); (Arch.Sparc, 17.0); (Arch.Ppc, 16.5); (Arch.X86, 30.0) ]

let translation_allocation () =
  let exes = List.map Omnivm.Wire.decode (Lazy.force golden_modules) in
  let n =
    List.fold_left (fun a e -> a + Array.length e.Omnivm.Exe.text) 0 exes
  in
  List.iter
    (fun arch ->
      let pass () =
        List.iter (fun e -> ignore (Exec.translate ~mode:sandbox arch e)) exes
      in
      pass ();
      let before = Gc.minor_words () in
      pass ();
      let per_instr = (Gc.minor_words () -. before) /. float_of_int n in
      if per_instr > List.assoc arch translation_alloc_bounds then
        Alcotest.failf "%s: %.2f minor words per OmniVM instruction"
          (Arch.name arch) per_instr)
    targets

(* --- every other translation configuration ---

   The golden digests cover the default mobile translation and the
   vendor tier. This one covers the rest, over the same modules and
   targets: each padding mode (whose [Pad_align] parity is relative to
   the chunk an OmniVM instruction translates to), read protection,
   check-and-trap mode, the guard-zone store optimization, the portable
   compiler tier, an unprotected mobile module, and padding with read
   protection under every optimization. It folds the code fingerprint,
   the declared masking counts and the certificate (or its refusal). *)

let other_configs arch =
  let mobile = Exec.mobile_opts arch in
  let mk ?mode ?protect_reads ?pad () =
    Machine.Mobile (Omni_sfi.Policy.make ?mode ?protect_reads ?pad ())
  in
  [ (mk ~pad:Omni_sfi.Policy.Pad_nop (), mobile);
    (mk ~pad:Omni_sfi.Policy.Pad_align (), mobile);
    (mk ~pad:Omni_sfi.Policy.Pad_guard8 (), mobile);
    (mk ~protect_reads:true (), mobile);
    (mk ~mode:Omni_sfi.Policy.Guard (), mobile);
    (sandbox, { mobile with Machine.sfi_opt = true });
    (Machine.Native Machine.Gcc, Machine.all_opts);
    (Machine.Mobile Omni_sfi.Policy.off, mobile);
    ( mk ~protect_reads:true ~pad:Omni_sfi.Policy.Pad_align (),
      { Machine.all_opts with Machine.sfi_opt = true } ) ]

let config_digest () =
  List.fold_left
    (fun h wire ->
      let exe = Omnivm.Wire.decode wire in
      let module_digest = Omni_util.Fnv64.digest_string wire in
      List.fold_left
        (fun h arch ->
          List.fold_left
            (fun h (mode, opts) ->
              let tr = Exec.translate ~mode ~opts arch exe in
              let decl =
                match tr with
                | Exec.T_risc p -> p.Risc.decl
                | Exec.T_x86 p -> p.Omni_targets.X86.decl
              in
              let h =
                Omni_util.Fnv64.digest_string ~seed:h
                  (Omni_util.Fnv64.to_hex (Exec.fingerprint tr))
              in
              let h = Omni_util.Fnv64.mix_int h decl.Machine.data_masks in
              let h = Omni_util.Fnv64.mix_int h decl.Machine.code_masks in
              match Exec.certify ~module_digest ~mode ~opts tr with
              | Ok c ->
                  Omni_util.Fnv64.digest_string ~seed:h
                    (Omni_cert.Certificate.encode c)
              | Error e -> Omni_util.Fnv64.digest_string ~seed:h e)
            h (other_configs arch))
        h targets)
    0L (Lazy.force golden_modules)

let golden_config_digest = "cf6b2abd73c51345"

let golden_other_configs () =
  Alcotest.(check string) "all-configurations digest" golden_config_digest
    (Omni_util.Fnv64.to_hex (config_digest ()))

(* --- the structural fingerprint: every field counts ---

   A translated program's fingerprint must change with any single field:
   a slot's instruction (every constructor of both [instr] types, from
   the per-form cases, against every other form), its origin, its annul
   flag, [entry], one [addr_map] entry, one pool float by its bits, one
   [cfg] field, [n_omni]; and equal programs fingerprint equal. *)

let form_instrs (forms, hostile) =
  lazy (Array.of_list (List.concat_map (fun (_, f) -> f 5) (forms @ hostile)))

(* [~delay:true] only adds the delay-slot [Nop]s *)
let fp_risc_forms = form_instrs (risc_form_cases ~delay:true)
let fp_x86_forms = form_instrs (x86_form_cases ())

(* Every instruction one field away from [i]: each operand, register and
   sub-operation changed in turn. *)
let nb = function VI.Add -> VI.Sub | _ -> VI.Add
let nw = function VI.W8 -> VI.W16 | _ -> VI.W8
let nc = function VI.Eq -> VI.Ne | _ -> VI.Eq
let nfo = function VI.Fadd -> VI.Fsub | _ -> VI.Fadd
let np = function VI.Single -> VI.Double | VI.Double -> VI.Single
let nfu = function VI.Fneg -> VI.Fabs | _ -> VI.Fneg
let nfc = function VI.Feq -> VI.Flt | _ -> VI.Feq

let risc_variants (i : Risc.instr) : Risc.instr list =
  let open Risc in
  let s = succ in
  match i with
  | Alu (o, a, b, c) ->
      [ Alu (nb o, a, b, c); Alu (o, s a, b, c); Alu (o, a, s b, c);
        Alu (o, a, b, s c) ]
  | Alui (o, a, b, c) ->
      [ Alui (nb o, a, b, c); Alui (o, s a, b, c); Alui (o, a, s b, c);
        Alui (o, a, b, s c) ]
  | Alu_record (o, a, b, c) ->
      [ Alu_record (nb o, a, b, c); Alu_record (o, s a, b, c);
        Alu_record (o, a, s b, c); Alu_record (o, a, b, s c) ]
  | Lui (a, v) -> [ Lui (s a, v); Lui (a, s v) ]
  | Load (w, g, a, b, d) ->
      [ Load (nw w, g, a, b, d); Load (w, not g, a, b, d); Load (w, g, s a, b, d);
        Load (w, g, a, s b, d); Load (w, g, a, b, s d) ]
  | Store (w, a, b, d) ->
      [ Store (nw w, a, b, d); Store (w, s a, b, d); Store (w, a, s b, d);
        Store (w, a, b, s d) ]
  | Load_x (w, g, a, b, c) ->
      [ Load_x (nw w, g, a, b, c); Load_x (w, not g, a, b, c); Load_x (w, g, s a, b, c);
        Load_x (w, g, a, s b, c); Load_x (w, g, a, b, s c) ]
  | Store_x (w, a, b, c) ->
      [ Store_x (nw w, a, b, c); Store_x (w, s a, b, c);
        Store_x (w, a, s b, c); Store_x (w, a, b, s c) ]
  | Fload (a, b, d) -> [ Fload (s a, b, d); Fload (a, s b, d); Fload (a, b, s d) ]
  | Fstore (a, b, d) -> [ Fstore (s a, b, d); Fstore (a, s b, d); Fstore (a, b, s d) ]
  | Fload_s (a, b, d) -> [ Fload_s (s a, b, d); Fload_s (a, s b, d); Fload_s (a, b, s d) ]
  | Fstore_s (a, b, d) -> [ Fstore_s (s a, b, d); Fstore_s (a, s b, d); Fstore_s (a, b, s d) ]
  | Fload_x (a, b, c) -> [ Fload_x (s a, b, c); Fload_x (a, s b, c); Fload_x (a, b, s c) ]
  | Fstore_x (a, b, c) -> [ Fstore_x (s a, b, c); Fstore_x (a, s b, c); Fstore_x (a, b, s c) ]
  | Fld_pool (a, k) -> [ Fld_pool (s a, k); Fld_pool (a, s k) ]
  | Fop (o, p, a, b, c) ->
      [ Fop (nfo o, p, a, b, c); Fop (o, np p, a, b, c); Fop (o, p, s a, b, c);
        Fop (o, p, a, s b, c); Fop (o, p, a, b, s c) ]
  | Fun1 (o, a, b) -> [ Fun1 (nfu o, a, b); Fun1 (o, s a, b); Fun1 (o, a, s b) ]
  | Fcmp (o, a, b) -> [ Fcmp (nfc o, a, b); Fcmp (o, s a, b); Fcmp (o, a, s b) ]
  | Fcc_to_reg a -> [ Fcc_to_reg (s a) ]
  | Cvt_f_i (a, b) -> [ Cvt_f_i (s a, b); Cvt_f_i (a, s b) ]
  | Cvt_i_f (a, b) -> [ Cvt_i_f (s a, b); Cvt_i_f (a, s b) ]
  | Cvt_d_s (a, b) -> [ Cvt_d_s (s a, b); Cvt_d_s (a, s b) ]
  | Cvt_s_d (a, b) -> [ Cvt_s_d (s a, b); Cvt_s_d (a, s b) ]
  | Cmp (a, b) -> [ Cmp (s a, b); Cmp (a, s b) ]
  | Cmpi (a, k) -> [ Cmpi (s a, k); Cmpi (a, s k) ]
  | Br_cc (c, l) -> [ Br_cc (nc c, l); Br_cc (c, s l) ]
  | Br_cmp (c, a, b, l) ->
      [ Br_cmp (nc c, a, b, l); Br_cmp (c, s a, b, l); Br_cmp (c, a, s b, l);
        Br_cmp (c, a, b, s l) ]
  | Fbr (f, l) -> [ Fbr (not f, l); Fbr (f, s l) ]
  | J l -> [ J (s l) ]
  | Call (l, r) -> [ Call (s l, r); Call (l, s r) ]
  | Call_ind (a, r) -> [ Call_ind (s a, r); Call_ind (a, s r) ]
  | Jmp_ind a -> [ Jmp_ind (s a) ]
  | Guard_data a -> [ Guard_data (s a) ]
  | Guard_code a -> [ Guard_code (s a) ]
  | Cc_to_reg (c, a) -> [ Cc_to_reg (nc c, a); Cc_to_reg (c, s a) ]
  | Trapi n -> [ Trapi (s n) ]
  | Hcall n -> [ Hcall (s n) ]
  | Nop -> []

let x86_variants (i : Omni_targets.X86.instr) : Omni_targets.X86.instr list =
  let open Omni_targets.X86 in
  let s = succ in
  let mems (m : mem) =
    [ { m with
        base =
          (match m.base with
          | None -> Some eax
          | Some r -> if r = eax then None else Some (s r)) };
      { m with
        index =
          (match m.index with None -> Some (ecx, 1) | Some (r, k) -> Some (s r, k)) };
      { m with disp = s m.disp } ]
    @ (match m.index with Some (r, k) -> [ { m with index = Some (r, s k) } ] | None -> [])
  in
  let ops = function
    | R r -> [ R (s r); I r ]
    | I v -> [ I (s v); R v ]
    | M m -> List.map (fun m -> M m) (mems m)
  in
  let na = function Add -> Sub | _ -> Add and ns = function Shl -> Shr | _ -> Shl in
  let map f l = List.map f l in
  match i with
  | Mov (d, x) -> map (fun d -> Mov (d, x)) (ops d) @ map (fun x -> Mov (d, x)) (ops x)
  | Load (w, g, d, m) ->
      [ Load (nw w, g, d, m); Load (w, not g, d, m); Load (w, g, s d, m) ]
      @ map (fun m -> Load (w, g, d, m)) (mems m)
  | Store (w, m, x) ->
      (Store (nw w, m, x) :: map (fun m -> Store (w, m, x)) (mems m))
      @ map (fun x -> Store (w, m, x)) (ops x)
  | Alu (o, d, x) ->
      (Alu (na o, d, x) :: map (fun d -> Alu (o, d, x)) (ops d))
      @ map (fun x -> Alu (o, d, x)) (ops x)
  | Shift (o, d, k) ->
      [ Shift (ns o, d, k); Shift (o, d, s k) ] @ map (fun d -> Shift (o, d, k)) (ops d)
  | Shiftv (o, d, c) ->
      [ Shiftv (ns o, d, c); Shiftv (o, d, s c) ]
      @ map (fun d -> Shiftv (o, d, c)) (ops d)
  | Imul (d, x) -> Imul (s d, x) :: map (fun x -> Imul (d, x)) (ops x)
  | Idiv (x, g) -> Idiv (x, not g) :: map (fun x -> Idiv (x, g)) (ops x)
  | Cdq -> []
  | Lea (d, m) -> Lea (s d, m) :: map (fun m -> Lea (d, m)) (mems m)
  | Cmp (a, b) -> map (fun a -> Cmp (a, b)) (ops a) @ map (fun b -> Cmp (a, b)) (ops b)
  | Setcc (c, d) -> [ Setcc (nc c, d); Setcc (c, s d) ]
  | Jcc (c, l) -> [ Jcc (nc c, l); Jcc (c, s l) ]
  | Jmp l -> [ Jmp (s l) ]
  | Jmp_ind x -> map (fun x -> Jmp_ind x) (ops x)
  | Call (l, r) -> [ Call (s l, r); Call (l, s r) ]
  | Call_ind (x, r) -> Call_ind (x, s r) :: map (fun x -> Call_ind (x, r)) (ops x)
  | Fop (o, p, a, b, c) ->
      [ Fop (nfo o, p, a, b, c); Fop (o, np p, a, b, c); Fop (o, p, s a, b, c);
        Fop (o, p, a, s b, c); Fop (o, p, a, b, s c) ]
  | Fun1 (o, a, b) -> [ Fun1 (nfu o, a, b); Fun1 (o, s a, b); Fun1 (o, a, s b) ]
  | Fload (p, a, m) ->
      [ Fload (np p, a, m); Fload (p, s a, m) ] @ map (fun m -> Fload (p, a, m)) (mems m)
  | Fstore (p, a, m) ->
      [ Fstore (np p, a, m); Fstore (p, s a, m) ]
      @ map (fun m -> Fstore (p, a, m)) (mems m)
  | Fld_pool (a, k) -> [ Fld_pool (s a, k); Fld_pool (a, s k) ]
  | Fcmp (o, a, b) -> [ Fcmp (nfc o, a, b); Fcmp (o, s a, b); Fcmp (o, a, s b) ]
  | Fcc_to_reg d -> [ Fcc_to_reg (s d) ]
  | Cvt_f_i (a, x) -> Cvt_f_i (s a, x) :: map (fun x -> Cvt_f_i (a, x)) (ops x)
  | Cvt_i_f (d, a) -> [ Cvt_i_f (s d, a); Cvt_i_f (d, s a) ]
  | Guard_data r -> [ Guard_data (s r) ]
  | Guard_code r -> [ Guard_code (s r) ]
  | Trapi n -> [ Trapi (s n) ]
  | Hcall n -> [ Hcall (s n) ]
  | Nop -> []

(* Constructors seen, by [Obj] representation: the tag of a constructor
   with arguments, or the value of a constant one. *)
let constructors instrs =
  List.sort_uniq compare
    (List.map
       (fun i ->
         let r = Obj.repr i in
         if Obj.is_int r then `Const (Obj.obj r : int) else `Block (Obj.tag r))
       (Array.to_list instrs))

let fingerprint_covers_constructors () =
  Alcotest.(check int) "risc constructors" 38
    (List.length (constructors (Lazy.force fp_risc_forms)));
  Alcotest.(check int) "x86 constructors" 31
    (List.length (constructors (Lazy.force fp_x86_forms)))

let fp_base arch =
  let tr = Exec.translate ~mode:sandbox arch (Lazy.force form_exe) in
  (* the form module's pool may be empty; give it two constants *)
  match tr with
  | Exec.T_risc p -> Exec.T_risc { p with Risc.pool = [| 1.5; 2.5 |] }
  | Exec.T_x86 p ->
      Exec.T_x86 { p with Omni_targets.X86.pool = [| 1.5; 2.5 |] }

let fp_bases = lazy (List.map (fun a -> (a, fp_base a)) targets)

let fp_floats =
  [| 0.0; -0.0; Float.nan; Int64.float_of_bits 0x7FF8_0000_0000_0002L;
     Int64.float_of_bits 0xFFF8_0000_0000_0001L; 1.5; Float.infinity |]

type fp_mut =
  | Fp_instr of int * int * int (* slot, form a, form b *)
  | Fp_origin of int * int (* slot, origin *)
  | Fp_annul of int
  | Fp_entry
  | Fp_addr_map of int
  | Fp_pool of int * int * int (* pool index, float a, float b *)
  | Fp_cfg of int
  | Fp_n_omni

let gen_fp_mut =
  let open QCheck.Gen in
  let big = int_bound 100_000 in
  oneof
    [ map3 (fun s a b -> Fp_instr (s, a, b)) big big big;
      map2 (fun s o -> Fp_origin (s, o)) big (int_bound 5);
      map (fun s -> Fp_annul s) big;
      return Fp_entry;
      map (fun k -> Fp_addr_map k) big;
      map3 (fun k a b -> Fp_pool (k, a, b)) (int_bound 1)
        (int_bound (Array.length fp_floats - 1))
        (int_bound (Array.length fp_floats - 1));
      map (fun k -> Fp_cfg k) (int_bound 15);
      return Fp_n_omni ]

(* One cfg field bumped; [k] picks which. *)
let bump_cfg (c : Risc.cfg) k =
  let open Risc in
  match k with
  | 0 -> { c with arch = (if c.arch = Mips then Sparc else Mips) }
  | 1 -> { c with imm_bits = c.imm_bits + 1 }
  | 2 ->
      { c with branch_model =
                 (if c.branch_model = Cond_reg then Fused_compare else Cond_reg) }
  | 3 -> { c with has_delay_slot = not c.has_delay_slot }
  | 4 -> { c with has_annul = not c.has_annul }
  | 5 -> { c with has_indexed = not c.has_indexed }
  | 6 -> { c with issue_width = c.issue_width + 1 }
  | 7 -> { c with load_latency = c.load_latency + 1 }
  | 8 -> { c with mul_latency = c.mul_latency + 1 }
  | 9 -> { c with div_latency = c.div_latency + 1 }
  | 10 -> { c with fadd_latency = c.fadd_latency + 1 }
  | 11 -> { c with fmul_latency = c.fmul_latency + 1 }
  | 12 -> { c with fdiv_latency = c.fdiv_latency + 1 }
  | 13 -> { c with cmp_latency = c.cmp_latency + 1 }
  | 14 -> { c with fcmp_latency = c.fcmp_latency + 1 }
  | _ -> { c with taken_branch_penalty = c.taken_branch_penalty + 1 }

(* The two programs a mutation compares, and whether they are equal. *)
let fp_pair tr mut =
  let module X = Omni_targets.X86 in
  let origin o = List.nth Machine.all_origins o in
  let other o cur = if origin o = cur then (o + 1) mod 6 else o in
  (* [tr] with slot [s] (taken modulo the code length) rewritten by [f] *)
  let risc p s f =
    let code = Array.copy p.Risc.code in
    let s = s mod Array.length code in
    code.(s) <- f code.(s);
    Exec.T_risc { p with Risc.code }
  and x86 p s f =
    let code = Array.copy p.X.code in
    let s = s mod Array.length code in
    code.(s) <- f code.(s);
    Exec.T_x86 { p with X.code }
  in
  let pick forms a = forms.(a mod Array.length forms) in
  match (tr, mut) with
  | Exec.T_risc p, Fp_instr (s, a, b) ->
      let a = pick (Lazy.force fp_risc_forms) a
      and b = pick (Lazy.force fp_risc_forms) b in
      let at i = risc p s (fun sl -> { sl with Risc.i }) in
      (at a, at b, compare a b = 0)
  | Exec.T_x86 p, Fp_instr (s, a, b) ->
      let a = pick (Lazy.force fp_x86_forms) a
      and b = pick (Lazy.force fp_x86_forms) b in
      let at i = x86 p s (fun sl -> { sl with X.i }) in
      (at a, at b, compare a b = 0)
  | Exec.T_risc p, Fp_origin (s, o) ->
      ( tr,
        risc p s (fun sl ->
            { sl with Risc.origin = origin (other o sl.Risc.origin) }),
        false )
  | Exec.T_x86 p, Fp_origin (s, o) ->
      (tr, x86 p s (fun sl -> { sl with X.origin = origin (other o sl.X.origin) }), false)
  | Exec.T_risc p, Fp_annul s ->
      (tr, risc p s (fun sl -> { sl with Risc.annul = not sl.Risc.annul }), false)
  | Exec.T_risc p, Fp_entry ->
      (tr, Exec.T_risc { p with Risc.entry = p.Risc.entry + 1 }, false)
  | Exec.T_x86 p, Fp_entry -> (tr, Exec.T_x86 { p with X.entry = p.X.entry + 1 }, false)
  | Exec.T_risc p, Fp_addr_map k ->
      let m = Array.copy p.Risc.addr_map in
      let k = k mod Array.length m in
      m.(k) <- m.(k) + 1;
      (tr, Exec.T_risc { p with Risc.addr_map = m }, false)
  | Exec.T_x86 p, Fp_addr_map k ->
      let m = Array.copy p.X.addr_map in
      let k = k mod Array.length m in
      m.(k) <- m.(k) + 1;
      (tr, Exec.T_x86 { p with X.addr_map = m }, false)
  | _, Fp_pool (k, a, b) ->
      let pool v =
        let pl = [| 1.5; 2.5 |] in
        pl.(k) <- fp_floats.(v);
        match tr with
        | Exec.T_risc p -> Exec.T_risc { p with Risc.pool = pl }
        | Exec.T_x86 p -> Exec.T_x86 { p with X.pool = pl }
      in
      ( pool a,
        pool b,
        Int64.equal (Int64.bits_of_float fp_floats.(a))
          (Int64.bits_of_float fp_floats.(b)) )
  | Exec.T_risc p, Fp_cfg k ->
      (tr, Exec.T_risc { p with Risc.cfg = bump_cfg p.Risc.cfg k }, false)
  | Exec.T_risc p, Fp_n_omni ->
      (tr, Exec.T_risc { p with Risc.n_omni = p.Risc.n_omni + 1 }, false)
  | Exec.T_x86 p, Fp_n_omni -> (tr, Exec.T_x86 { p with X.n_omni = p.X.n_omni + 1 }, false)
  | Exec.T_x86 _, (Fp_annul _ | Fp_cfg _) -> (tr, tr, true) (* RISC-only fields *)

let fingerprint_sensitivity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000
       ~name:"fingerprint changes with any single field"
       (QCheck.make QCheck.Gen.(pair (int_bound 3) gen_fp_mut))
       (fun (a, mut) ->
         let _, tr = List.nth (Lazy.force fp_bases) a in
         let p1, p2, equal = fp_pair tr mut in
         Exec.fingerprint p1 = Exec.fingerprint p2 = equal))

(* Exhaustive over the forms: every instruction against each of its
   one-field variants, placed in the middle slot of a translation. *)
let fingerprint_single_field () =
  List.iter
    (fun (arch, tr) ->
      (* forms are numbered: hostile ones have no printable text *)
      let check n a b fa fb =
        if compare a b = 0 then
          Alcotest.failf "%s: variant of form %d is not a change" (Arch.name arch) n;
        if Exec.fingerprint fa = Exec.fingerprint fb then
          Alcotest.failf "%s: form %d and a one-field variant fingerprint equal"
            (Arch.name arch) n
      in
      match tr with
      | Exec.T_risc p ->
          let k = Array.length p.Risc.code / 2 in
          let at i =
            let code = Array.copy p.Risc.code in
            code.(k) <- { (code.(k)) with Risc.i };
            Exec.T_risc { p with Risc.code }
          in
          Array.iteri
            (fun n a ->
              List.iter (fun b -> check n a b (at a) (at b)) (risc_variants a))
            (Lazy.force fp_risc_forms)
      | Exec.T_x86 p ->
          let module X = Omni_targets.X86 in
          let k = Array.length p.X.code / 2 in
          let at i =
            let code = Array.copy p.X.code in
            code.(k) <- { (code.(k)) with X.i };
            Exec.T_x86 { p with X.code }
          in
          Array.iteri
            (fun n a ->
              List.iter (fun b -> check n a b (at a) (at b)) (x86_variants a))
            (Lazy.force fp_x86_forms))
    (Lazy.force fp_bases)

let fingerprint_of_retranslation () =
  List.iter
    (fun wire ->
      let exe = Omnivm.Wire.decode wire in
      List.iter
        (fun arch ->
          let a = Exec.translate ~mode:sandbox arch exe in
          let b = Exec.translate ~mode:sandbox arch (Omnivm.Wire.decode wire) in
          if a == b || Exec.fingerprint a <> Exec.fingerprint b then
            Alcotest.failf "%s: two translations fingerprint apart"
              (Arch.name arch))
        targets)
    (List.filteri (fun k _ -> k mod 5 = 0) (Lazy.force golden_modules))

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
         Alcotest.test_case "golden translations, other configurations"
           `Quick golden_other_configs;
         Alcotest.test_case "fingerprint covers every constructor" `Quick
           fingerprint_covers_constructors;
         Alcotest.test_case "one-field variants fingerprint apart" `Quick
           fingerprint_single_field;
         fingerprint_sensitivity;
         Alcotest.test_case "retranslation fingerprints equal" `Quick
           fingerprint_of_retranslation;
         Alcotest.test_case "cold admission forces no minor collection" `Quick
           no_forced_minor_collections ]);
      ("pipeline",
       [ Alcotest.test_case "cost model" `Quick pipeline_unit;
         segment_memo_exact;
         Alcotest.test_case "golden simulator stats" `Quick golden_simulator_stats;
         Alcotest.test_case "exit-path goldens" `Quick exit_path_goldens;
         Alcotest.test_case "per-form goldens" `Quick form_goldens;
         Alcotest.test_case "opcode classes" `Quick opcode_classes;
         Alcotest.test_case "recycled decoded table" `Quick recycled_table;
         Alcotest.test_case "memo storage per slot" `Quick memo_storage;
         Alcotest.test_case "simulators allocate nothing per instruction" `Quick
           simulator_allocation;
         Alcotest.test_case "translation allocation per instruction" `Quick
           translation_allocation;
         Alcotest.test_case "whole runs equal stepping" `Quick whole_runs_spec;
         Alcotest.test_case "whole runs equal stepping through faults" `Quick
           whole_runs_fault ]);
      ("x86", [ Alcotest.test_case "register homes" `Quick x86_homes ])
    ]

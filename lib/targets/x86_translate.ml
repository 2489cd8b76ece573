(* Load-time translator: OmniVM -> x86.

   Two-address selection with memory operands: OmniVM registers without an
   x86 home are used directly as memory operands where the ISA allows,
   which is why the register shortage costs relatively little (paper 3.2).
   32-bit immediates are free on x86, so there is no ldi expansion, and
   32-bit displacements make OmniVM's addressing map 1:1 (section 3.4).

   SFI uses immediate masks (no dedicated mask registers needed):
       lea eax, [addr] ; and eax, data_mask ; or eax, data_base ;
       mov [eax], src
   The translator optimizations are FP scheduling and peephole (redundant
   compare elimination), as in the paper.

   This file is the x86 half of translation: one instruction's chunk,
   the peephole and which blocks are scheduled. Block cutting, the
   address map, label patching and the emitter are [Translate]'s, which
   reads the mode's SFI policy into the emitter ([e.policy]). *)

open X86
module VI = Omnivm.Instr
module W = Omni_util.Word32
module L = Omnivm.Layout
module Policy = Omni_sfi.Policy
module Trace = Omni_obs.Trace

let emit e origin i = Translate.push e (mk origin i)
let emit_pad e = Translate.emit_pad e (fun () -> mk Machine.Sfi Nop)

(* scratch memory word (the unused home of OmniVM r0) *)
let slot0 = L.regsave_int_addr 0

(* operand for reading an omni register *)
let rop r =
  match int_home r with
  | Hzero -> I 0
  | Hreg x -> R x
  | Hmem a -> M (mabs a)

(* bring an omni register into a given scratch x86 register *)
let to_scratch e origin r scratch =
  match int_home r with
  | Hzero ->
      emit e origin (Mov (R scratch, I 0));
      scratch
  | Hreg x -> x
  | Hmem a ->
      emit e origin (Mov (R scratch, M (mabs a)));
      scratch

(* write scratch/eax into an omni register's home *)
let from_value e origin r (src : operand) =
  match int_home r with
  | Hzero -> ()
  | Hreg x -> (
      match src with
      | R s when s = x -> ()
      | _ -> emit e origin (Mov (R x, src)))
  | Hmem a -> (
      match src with
      | M _ ->
          emit e origin (Mov (R eax, src));
          emit e origin (Mov (M (mabs a), R eax))
      | _ -> emit e origin (Mov (M (mabs a), src)))

(* memory operand for omni address base+disp; may use eax *)
let addr_mem e origin base disp : mem =
  match int_home base with
  | Hzero -> mabs disp
  | Hreg x -> mbase x disp
  | Hmem a ->
      emit e origin (Mov (R eax, M (mabs a)));
      mbase eax disp

(* fp operand handling *)
let fsrc e origin f scratch =
  match float_home f with
  | FHreg x -> x
  | FHmem a ->
      emit e origin (Fload (VI.Double, scratch, mabs a));
      scratch

let fdst_apply e origin f (compute : int -> unit) =
  match float_home f with
  | FHreg x -> compute x
  | FHmem a ->
      compute fp_scratch2;
      emit e origin (Fstore (VI.Double, fp_scratch2, mabs a))

(* --- translation of one OmniVM instruction --- *)

let aluop_of = function
  | VI.Add -> Some Add
  | VI.Sub -> Some Sub
  | VI.And -> Some And
  | VI.Or -> Some Or
  | VI.Xor -> Some Xor
  | _ -> None

let shop_of = function
  | VI.Sll -> Some Shl
  | VI.Srl -> Some Shr
  | VI.Sra -> Some Sar
  | _ -> None

(* dst := a op b where b is an operand; three-address via scratch *)
let emit_alu3 e rd a_op (b : operand) op =
  (* dst in a register we can clobber *)
  match int_home rd with
  | Hzero ->
      (* result discarded; still evaluate for flags parity: skip *)
      ()
  | Hreg d ->
      let b = match b with R s when s = d -> b | _ -> b in
      (match a_op with
      | R s when s = d -> emit e Machine.Core (Alu (op, R d, b))
      | _ -> (
          match b with
          | R s when s = d ->
              (* d is the second operand: go through eax *)
              emit e Machine.Addr (Mov (R eax, a_op));
              emit e Machine.Core (Alu (op, R eax, b));
              emit e Machine.Addr (Mov (R d, R eax))
          | _ ->
              emit e Machine.Addr (Mov (R d, a_op));
              emit e Machine.Core (Alu (op, R d, b))))
  | Hmem a ->
      emit e Machine.Addr (Mov (R eax, a_op));
      emit e Machine.Core (Alu (op, R eax, b));
      emit e Machine.Addr (Mov (M (mabs a), R eax))

let translate_binop e op rd rs1 (b : operand) =
  match aluop_of op with
  | Some aop -> emit_alu3 e rd (rop rs1) b aop
  | None -> (
      match shop_of op with
      | Some sop -> (
          match b with
          | I k -> (
              let k = k land 31 in
              match int_home rd with
              | Hzero -> ()
              | Hreg d ->
                  (match rop rs1 with
                  | R s when s = d -> ()
                  | src -> emit e Machine.Addr (Mov (R d, src)));
                  emit e Machine.Core (Shift (sop, R d, k))
              | Hmem a ->
                  emit e Machine.Addr (Mov (R eax, rop rs1));
                  emit e Machine.Core (Shift (sop, R eax, k));
                  emit e Machine.Addr (Mov (M (mabs a), R eax)))
          | b ->
              (* variable shift: count through edx *)
              emit e Machine.Addr (Mov (R edx, b));
              (match int_home rd with
              | Hzero -> ()
              | Hreg d ->
                  (match rop rs1 with
                  | R s when s = d -> ()
                  | src -> emit e Machine.Addr (Mov (R d, src)));
                  emit e Machine.Core (Shiftv (sop, R d, edx))
              | Hmem a ->
                  emit e Machine.Addr (Mov (R eax, rop rs1));
                  emit e Machine.Core (Shiftv (sop, R eax, edx));
                  emit e Machine.Addr (Mov (M (mabs a), R eax))))
      | None -> (
          match op with
          | VI.Mul ->
              emit e Machine.Addr (Mov (R eax, rop rs1));
              emit e Machine.Core (Imul (eax, b));
              from_value e Machine.Addr rd (R eax)
          | VI.Div | VI.Divu | VI.Rem | VI.Remu ->
              let signed = op = VI.Div || op = VI.Rem in
              emit e Machine.Addr (Mov (R eax, rop rs1));
              if signed then emit e Machine.Addr Cdq
              else emit e Machine.Addr (Mov (R edx, I 0));
              let divisor =
                match b with
                | I _ ->
                    emit e Machine.Addr (Store (VI.W32, mabs slot0, b));
                    M (mabs slot0)
                | R r when r = eax || r = edx ->
                    emit e Machine.Addr (Store (VI.W32, mabs slot0, b));
                    M (mabs slot0)
                | x -> x
              in
              emit e Machine.Core (Idiv (divisor, signed));
              let result =
                if op = VI.Div || op = VI.Divu then R eax else R edx
              in
              from_value e Machine.Addr rd result
          | VI.Slt | VI.Sltu ->
              let a_op = rop rs1 in
              let a_op, b =
                match (a_op, b) with
                | M _, M _ ->
                    emit e Machine.Addr (Mov (R eax, a_op));
                    (R eax, b)
                | _ -> (a_op, b)
              in
              let a_op =
                match a_op with
                | I _ ->
                    emit e Machine.Addr (Mov (R eax, a_op));
                    R eax
                | x -> x
              in
              emit e Machine.Cmp (Cmp (a_op, b));
              let c = if op = VI.Slt then VI.Lt else VI.Ltu in
              (match int_home rd with
              | Hzero -> ()
              | Hreg d -> emit e Machine.Core (Setcc (c, d))
              | Hmem a ->
                  emit e Machine.Core (Setcc (c, eax));
                  emit e Machine.Addr (Mov (M (mabs a), R eax)))
          | _ -> Translate.error "unhandled x86 binop"))

let sandbox_store e ~base ~disp ~(do_store : mem -> unit) =
  if Translate.unchecked_store e ~sp:Omnivm.Reg.sp base disp then begin
    let m = addr_mem e Machine.Addr base disp in
    do_store m
  end
  else begin
    (* address into eax, then mask *)
    (match int_home base with
    | Hzero -> emit e Machine.Sfi (Mov (R eax, I disp))
    | Hreg x -> emit e Machine.Sfi (Lea (eax, mbase x disp))
    | Hmem a ->
        emit e Machine.Sfi (Mov (R eax, M (mabs a)));
        if disp <> 0 then emit e Machine.Sfi (Lea (eax, mbase eax disp)));
    Trace.tally_count e.Translate.tally "translate.sfi_checks";
    match Translate.sfi_mode e with
    | Policy.Sandbox ->
        Translate.declare_data_mask e;
        emit e Machine.Sfi (Alu (And, R eax, I L.data_mask));
        emit e Machine.Sfi (Alu (Or, R eax, I L.data_base));
        emit_pad e;
        do_store (mbase eax 0)
    | Policy.Guard ->
        emit e Machine.Sfi (Guard_data eax);
        do_store (mbase eax 0)
    | Policy.Off -> assert false
  end

(* optional read protection: sandbox a load address into eax *)
let sandbox_load e ~base ~disp ~(do_load : mem -> unit) =
  if
    Translate.sfi_mode e = Policy.Off
    || (not e.Translate.policy.Policy.protect_reads)
    || Translate.statically_safe e ~sp:Omnivm.Reg.sp base disp
  then do_load (addr_mem e Machine.Addr base disp)
  else begin
    (match int_home base with
    | Hzero -> emit e Machine.Sfi (Mov (R eax, I disp))
    | Hreg x -> emit e Machine.Sfi (Lea (eax, mbase x disp))
    | Hmem a ->
        emit e Machine.Sfi (Mov (R eax, M (mabs a)));
        if disp <> 0 then emit e Machine.Sfi (Lea (eax, mbase eax disp)));
    Trace.tally_count e.Translate.tally "translate.sfi_checks";
    match Translate.sfi_mode e with
    | Policy.Sandbox ->
        Translate.declare_data_mask e;
        emit e Machine.Sfi (Alu (And, R eax, I L.data_mask));
        emit e Machine.Sfi (Alu (Or, R eax, I L.data_base));
        emit_pad e;
        do_load (mbase eax 0)
    | Policy.Guard ->
        emit e Machine.Sfi (Guard_data eax);
        do_load (mbase eax 0)
    | Policy.Off -> assert false
  end

let sandbox_code_operand e (x : operand) : operand =
  match Translate.sfi_mode e with
  | Policy.Off -> x
  | Policy.Sandbox ->
      Translate.declare_code_mask e;
      emit e Machine.Sfi (Mov (R eax, x));
      emit e Machine.Sfi (Alu (And, R eax, I (L.code_mask land lnot 3)));
      emit e Machine.Sfi (Alu (Or, R eax, I L.code_base));
      emit_pad e;
      R eax
  | Policy.Guard ->
      emit e Machine.Sfi (Mov (R eax, x));
      emit e Machine.Sfi (Guard_code eax);
      R eax

let resandbox_sp e =
  match Translate.sfi_mode e with
  | Policy.Off -> ()
  | Policy.Sandbox ->
      emit e Machine.Sfi (Alu (And, R esp, I L.data_mask));
      emit e Machine.Sfi (Alu (Or, R esp, I L.data_base))
  | Policy.Guard -> emit e Machine.Sfi (Guard_data esp)

let translate_instr e ~idx (ins : int VI.t) =
  let ret_addr = Omnivm.Exe.code_addr (idx + 1) in
  (match ins with
  | VI.Nop -> emit e Machine.Core Nop
  | VI.Li (rd, v) -> (
      match int_home rd with
      | Hzero -> emit e Machine.Core Nop
      | Hreg d -> emit e Machine.Core (Mov (R d, I v))
      | Hmem a -> emit e Machine.Core (Store (VI.W32, mabs a, I v)))
  | VI.Binop (op, rd, rs1, rs2) -> translate_binop e op rd rs1 (rop rs2)
  | VI.Binopi (op, rd, rs1, imm) -> translate_binop e op rd rs1 (I imm)
  | VI.Load (w, signed, rd, base, off) ->
      sandbox_load e ~base ~disp:off ~do_load:(fun m ->
          match int_home rd with
          | Hzero -> emit e Machine.Core Nop
          | Hreg d -> emit e Machine.Core (Load (w, signed, d, m))
          | Hmem a ->
              emit e Machine.Core (Load (w, signed, edx, m));
              emit e Machine.Addr (Mov (M (mabs a), R edx)))
  | VI.Store (w, rv, base, off) ->
      (* the value must be a register or immediate; eax holds the sandboxed
         address, so route memory-homed values through edx *)
      let src =
        match rop rv with
        | M m ->
            emit e Machine.Addr (Mov (R edx, M m));
            R edx
        | x -> x
      in
      sandbox_store e ~base ~disp:off ~do_store:(fun m ->
          emit e Machine.Core (Store (w, m, src)))
  | VI.Fload (prec, fd, base, off) ->
      sandbox_load e ~base ~disp:off ~do_load:(fun m ->
          fdst_apply e Machine.Addr fd (fun d ->
              emit e Machine.Core (Fload (prec, d, m))))
  | VI.Fstore (prec, fv, base, off) ->
      let v = fsrc e Machine.Addr fv fp_scratch1 in
      sandbox_store e ~base ~disp:off ~do_store:(fun m ->
          emit e Machine.Core (Fstore (prec, v, m)))
  | VI.Fbinop (op, prec, fd, fs1, fs2) ->
      let a = fsrc e Machine.Addr fs1 fp_scratch1 in
      let b = fsrc e Machine.Addr fs2 fp_scratch2 in
      fdst_apply e Machine.Addr fd (fun d ->
          emit e Machine.Core (Fop (op, prec, d, a, b)))
  | VI.Funop (op, _prec, fd, fs) ->
      let a = fsrc e Machine.Addr fs fp_scratch1 in
      fdst_apply e Machine.Addr fd (fun d ->
          emit e Machine.Core (Fun1 (op, d, a)))
  | VI.Fcmp (op, _prec, rd, fs1, fs2) -> (
      let a = fsrc e Machine.Addr fs1 fp_scratch1 in
      let b = fsrc e Machine.Addr fs2 fp_scratch2 in
      emit e Machine.Cmp (Fcmp (op, a, b));
      match int_home rd with
      | Hzero -> emit e Machine.Core Nop
      | Hreg d -> emit e Machine.Core (Fcc_to_reg d)
      | Hmem adr ->
          emit e Machine.Core (Fcc_to_reg edx);
          emit e Machine.Addr (Mov (M (mabs adr), R edx)))
  | VI.Fli (_prec, fd, v) ->
      let i = Translate.pool_const e v in
      fdst_apply e Machine.Addr fd (fun d ->
          emit e Machine.Core (Fld_pool (d, i)))
  | VI.Cvt_f_i (_prec, fd, rs) ->
      fdst_apply e Machine.Addr fd (fun d ->
          emit e Machine.Core (Cvt_f_i (d, rop rs)))
  | VI.Cvt_i_f (_prec, rd, fs) -> (
      let a = fsrc e Machine.Addr fs fp_scratch1 in
      match int_home rd with
      | Hzero -> emit e Machine.Core Nop
      | Hreg d -> emit e Machine.Core (Cvt_i_f (d, a))
      | Hmem adr ->
          emit e Machine.Core (Cvt_i_f (edx, a));
          emit e Machine.Addr (Mov (M (mabs adr), R edx)))
  | VI.Cvt_d_s (fd, fs) | VI.Cvt_s_d (fd, fs) ->
      (* narrow through memory: store single, load single *)
      let a = fsrc e Machine.Addr fs fp_scratch1 in
      emit e Machine.Addr (Fstore (VI.Single, a, mabs slot0));
      fdst_apply e Machine.Addr fd (fun d ->
          emit e Machine.Core (Fload (VI.Single, d, mabs slot0)))
  | VI.Br (c, a, b, addr) ->
      let a_op = rop a and b_op = rop b in
      let a_op, b_op =
        match (a_op, b_op) with
        | M _, M _ ->
            emit e Machine.Addr (Mov (R eax, a_op));
            (R eax, b_op)
        | I _, _ ->
            emit e Machine.Addr (Mov (R eax, a_op));
            (R eax, b_op)
        | _ -> (a_op, b_op)
      in
      emit e Machine.Cmp (Cmp (a_op, b_op));
      emit e Machine.Core (Jcc (c, Translate.label e addr))
  | VI.Bri (c, a, imm, addr) ->
      let a_op =
        match rop a with
        | I v ->
            emit e Machine.Addr (Mov (R eax, I v));
            R eax
        | x -> x
      in
      emit e Machine.Cmp (Cmp (a_op, I imm));
      emit e Machine.Core (Jcc (c, Translate.label e addr))
  | VI.J addr -> emit e Machine.Core (Jmp (Translate.label e addr))
  | VI.Jal addr -> emit e Machine.Core (Call (Translate.label e addr, ret_addr))
  | VI.Jr rs ->
      let x = sandbox_code_operand e (rop rs) in
      emit e Machine.Core (Jmp_ind x)
  | VI.Jalr (rd, rs) ->
      if rd = Omnivm.Reg.ra then begin
        let x = sandbox_code_operand e (rop rs) in
        emit e Machine.Core (Call_ind (x, ret_addr))
      end
      else begin
        (* unusual link register *)
        emit e Machine.Addr (Store (VI.W32, mabs slot0, R ebp));
        let x = sandbox_code_operand e (rop rs) in
        emit e Machine.Core (Call_ind (x, ret_addr));
        from_value e Machine.Addr rd (R ebp);
        emit e Machine.Addr (Mov (R ebp, M (mabs slot0)))
      end
  | VI.Ext (rd, rs, pos, len) ->
      let k1 = 32 - (8 * (pos + len)) in
      let k2 = 32 - (8 * len) in
      emit e Machine.Addr (Mov (R eax, rop rs));
      if k1 > 0 then emit e Machine.Addr (Shift (Shl, R eax, k1));
      emit e Machine.Core (Shift (Shr, R eax, k2));
      from_value e Machine.Addr rd (R eax)
  | VI.Ins (rd, rs, pos, len) ->
      let mask = (1 lsl (8 * len)) - 1 in
      emit e Machine.Addr (Mov (R eax, rop rs));
      emit e Machine.Addr (Alu (And, R eax, I mask));
      if pos > 0 then emit e Machine.Addr (Shift (Shl, R eax, 8 * pos));
      emit e Machine.Addr (Mov (R edx, rop rd));
      emit e Machine.Addr
        (Alu (And, R edx, I (W.of_int (lnot (mask lsl (8 * pos))))));
      emit e Machine.Core (Alu (Or, R edx, R eax));
      from_value e Machine.Addr rd (R edx)
  | VI.Hcall n -> emit e Machine.Core (Hcall n)
  | VI.Trap n -> emit e Machine.Core (Trapi n));
  if Translate.unsafe_sp_write e ins then resandbox_sp e

(* --- peephole: drop a Cmp-vs-0 whose operand was just computed --- *)

(* Compacts the block [lo, hi) of [code] in place and returns its new
   end. *)
let redundant_cmp (code : slot array) lo hi =
  let defines_flags_on (i : instr) (x : operand) =
    match (i, x) with
    | Alu (_, R d, _), R r -> d = r
    | Shift (_, R d, _), R r -> d = r
    | _ -> false
  in
  let folds a c b =
    match (c.i, b.i) with
    | Cmp (x, I 0), Jcc ((VI.Eq | VI.Ne), _) -> defines_flags_on a.i x
    | _ -> false
  in
  let w = ref lo and j = ref lo in
  while !j < hi do
    let a = code.(!j) in
    if !w <> !j then code.(!w) <- a;
    incr w;
    if !j + 2 < hi && folds a code.(!j + 1) code.(!j + 2) then j := !j + 2
    else incr j
  done;
  !w

(* --- whole-module translation --- *)

let is_barrier_slot (s : slot) =
  match s.i with
  | Hcall _ | Guard_data _ | Guard_code _ | Trapi _ | Idiv _ -> true
  | _ -> false

(* A static slot to seed arrays with: in OCaml 5, seeding an array
   longer than 256 words with a young block forces a minor collection. *)
let placeholder = { i = Nop; origin = Machine.Bnop }

let spare : slot Translate.spare = Translate.spare ()

let sched_info : slot Sched.info =
  { Sched.cost = (fun s -> cost_of s.i); is_barrier = is_barrier_slot }

let has_fp (code : slot array) lo hi =
  let rec from k = k < hi && (unit_of code.(k).i = Pipeline.FPU || from (k + 1)) in
  from lo

let map_label f s =
  match s.i with
  | Jcc (c, l) -> { s with i = Jcc (c, f l) }
  | Jmp l -> { s with i = Jmp (f l) }
  | Call (l, r) -> { s with i = Call (f l, r) }
  | _ -> s

let translate ~(mode : Machine.mode) ~(opts : Machine.topts)
    (exe : Omnivm.Exe.t) : program =
  (* the mobile x86 translator schedules only FP code (paper 4); the
     vendor-compiler tier schedules every block *)
  let schedules =
    match mode with
    | Machine.Native Machine.Cc -> fun _ _ _ -> true
    | Machine.Native Machine.Gcc | Machine.Mobile _ -> has_fp
  in
  let p =
    Translate.run
      {
        Translate.translate_instr;
        at_leader = ignore;
        is_control = (fun s -> is_control s.i);
        placeholder;
        spare;
        sched_info;
        peephole = Some redundant_cmp;
        schedules;
        delay_nop = None;
        map_label;
      }
      ~mode ~opts exe
  in
  { code = p.Translate.code; entry = p.Translate.entry;
    addr_map = p.Translate.addr_map; pool = p.Translate.pool;
    n_omni = Array.length exe.Omnivm.Exe.text; decl = p.Translate.decl }

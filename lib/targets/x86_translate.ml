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
   compare elimination), as in the paper. *)

open X86
module VI = Omnivm.Instr
module W = Omni_util.Word32
module L = Omnivm.Layout
module Trace = Omni_obs.Trace

exception Translate_error of string

let terror fmt = Printf.ksprintf (fun s -> raise (Translate_error s)) fmt

type emitter = {
  mutable slots : slot list; (* reversed *)
  mutable pool : float list;
  mutable pool_n : int;
  decl : Machine.sfi_decl; (* shared across chunks; masking counts *)
  tally : Trace.tally; (* shared across chunks *)
}

let emit e origin i = e.slots <- mk origin i :: e.slots

let pool_const e v =
  let rec find i = function
    | [] ->
        e.pool <- v :: e.pool;
        e.pool_n <- e.pool_n + 1;
        e.pool_n - 1
    | x :: rest -> if Float.equal x v then e.pool_n - 1 - i else find (i + 1) rest
  in
  find 0 e.pool

(* scratch memory word (the unused home of OmniVM r0) *)
let slot0 = L.regsave_int_addr 0

let sfi_mode (mode : Machine.mode) =
  match mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.mode
  | Machine.Native _ -> Omni_sfi.Policy.Off

let protect_reads (mode : Machine.mode) =
  match mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.protect_reads
  | Machine.Native _ -> false

let sfi_pad (mode : Machine.mode) =
  match mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.pad
  | Machine.Native _ -> Omni_sfi.Policy.Pad_none

(* Effective guard-zone bound for statically-safe displacements; widened
   under [Pad_guard8]. *)
let guard_bound mode = Omni_sfi.Policy.guard_zone_of_pad (sfi_pad mode)

(* Padding of the sandboxing sequence (the instruction-padding paper's
   knob). Called between the mask/box pair and the protected memory op;
   never used on the esp re-sandboxing triple (verified by adjacency). *)
let emit_pad e mode =
  match sfi_pad mode with
  | Omni_sfi.Policy.Pad_none | Omni_sfi.Policy.Pad_guard8 -> ()
  | Omni_sfi.Policy.Pad_nop -> emit e Machine.Sfi Nop
  | Omni_sfi.Policy.Pad_align ->
      (* pad so the protected op lands on an even slot of this chunk *)
      if List.length e.slots land 1 = 1 then emit e Machine.Sfi Nop

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

let store_statically_safe mode base disp =
  (base = Omnivm.Reg.sp && disp >= 0 && disp < guard_bound mode)
  || (base = 0 && L.in_data disp)

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

let omni_index_of_addr addr =
  let off = addr - L.code_base in
  if off < 0 || off land 3 <> 0 then None else Some (off / 4)

let target_of addr =
  match omni_index_of_addr addr with
  | Some i -> i
  | None -> terror "branch to non-code address 0x%x" addr

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
          | _ -> terror "unhandled x86 binop"))

let sandbox_store e mode ~base ~disp ~(do_store : mem -> unit) =
  if sfi_mode mode = Omni_sfi.Policy.Off || store_statically_safe mode base disp
  then begin
    if sfi_mode mode <> Omni_sfi.Policy.Off then
      Trace.tally_count e.tally "translate.sfi_checks_elided";
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
    Trace.tally_count e.tally "translate.sfi_checks";
    match sfi_mode mode with
    | Omni_sfi.Policy.Sandbox ->
        e.decl.Machine.data_masks <- e.decl.Machine.data_masks + 1;
        emit e Machine.Sfi (Alu (And, R eax, I L.data_mask));
        emit e Machine.Sfi (Alu (Or, R eax, I L.data_base));
        emit_pad e mode;
        do_store (mbase eax 0)
    | Omni_sfi.Policy.Guard ->
        emit e Machine.Sfi (Guard_data eax);
        do_store (mbase eax 0)
    | Omni_sfi.Policy.Off -> assert false
  end

(* optional read protection: sandbox a load address into eax *)
let sandbox_load e mode ~base ~disp ~(do_load : mem -> unit) =
  if
    sfi_mode mode = Omni_sfi.Policy.Off
    || (not (protect_reads mode))
    || store_statically_safe mode base disp
  then do_load (addr_mem e Machine.Addr base disp)
  else begin
    (match int_home base with
    | Hzero -> emit e Machine.Sfi (Mov (R eax, I disp))
    | Hreg x -> emit e Machine.Sfi (Lea (eax, mbase x disp))
    | Hmem a ->
        emit e Machine.Sfi (Mov (R eax, M (mabs a)));
        if disp <> 0 then emit e Machine.Sfi (Lea (eax, mbase eax disp)));
    Trace.tally_count e.tally "translate.sfi_checks";
    match sfi_mode mode with
    | Omni_sfi.Policy.Sandbox ->
        e.decl.Machine.data_masks <- e.decl.Machine.data_masks + 1;
        emit e Machine.Sfi (Alu (And, R eax, I L.data_mask));
        emit e Machine.Sfi (Alu (Or, R eax, I L.data_base));
        emit_pad e mode;
        do_load (mbase eax 0)
    | Omni_sfi.Policy.Guard ->
        emit e Machine.Sfi (Guard_data eax);
        do_load (mbase eax 0)
    | Omni_sfi.Policy.Off -> assert false
  end

let sandbox_code_operand e mode (x : operand) : operand =
  match sfi_mode mode with
  | Omni_sfi.Policy.Off -> x
  | Omni_sfi.Policy.Sandbox ->
      e.decl.Machine.code_masks <- e.decl.Machine.code_masks + 1;
      emit e Machine.Sfi (Mov (R eax, x));
      emit e Machine.Sfi (Alu (And, R eax, I (L.code_mask land lnot 3)));
      emit e Machine.Sfi (Alu (Or, R eax, I L.code_base));
      emit_pad e mode;
      R eax
  | Omni_sfi.Policy.Guard ->
      emit e Machine.Sfi (Mov (R eax, x));
      emit e Machine.Sfi (Guard_code eax);
      R eax

let resandbox_sp e mode =
  match sfi_mode mode with
  | Omni_sfi.Policy.Off -> ()
  | Omni_sfi.Policy.Sandbox ->
      emit e Machine.Sfi (Alu (And, R esp, I L.data_mask));
      emit e Machine.Sfi (Alu (Or, R esp, I L.data_base))
  | Omni_sfi.Policy.Guard -> emit e Machine.Sfi (Guard_data esp)

let sp_write_safe mode (ins : int VI.t) =
  match ins with
  | VI.Binopi ((VI.Add | VI.Sub), rd, rs, imm)
    when rd = Omnivm.Reg.sp && rs = Omnivm.Reg.sp
         && abs imm < guard_bound mode ->
      true
  | _ -> false

let writes_sp (ins : int VI.t) =
  match ins with
  | VI.Binop (_, rd, _, _) | VI.Binopi (_, rd, _, _) | VI.Li (rd, _)
  | VI.Load (_, _, rd, _, _) | VI.Ext (rd, _, _, _) | VI.Ins (rd, _, _, _)
  | VI.Cvt_i_f (_, rd, _) | VI.Fcmp (_, _, rd, _, _) ->
      rd = Omnivm.Reg.sp
  | VI.Jalr (rd, _) -> rd = Omnivm.Reg.sp
  | _ -> false

let translate_instr mode e ~idx (ins : int VI.t) =
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
      sandbox_load e mode ~base ~disp:off ~do_load:(fun m ->
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
      sandbox_store e mode ~base ~disp:off ~do_store:(fun m ->
          emit e Machine.Core (Store (w, m, src)))
  | VI.Fload (prec, fd, base, off) ->
      sandbox_load e mode ~base ~disp:off ~do_load:(fun m ->
          fdst_apply e Machine.Addr fd (fun d ->
              emit e Machine.Core (Fload (prec, d, m))))
  | VI.Fstore (prec, fv, base, off) ->
      let v = fsrc e Machine.Addr fv fp_scratch1 in
      sandbox_store e mode ~base ~disp:off ~do_store:(fun m ->
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
      let i = pool_const e v in
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
      emit e Machine.Core (Jcc (c, target_of addr))
  | VI.Bri (c, a, imm, addr) ->
      let a_op =
        match rop a with
        | I v ->
            emit e Machine.Addr (Mov (R eax, I v));
            R eax
        | x -> x
      in
      emit e Machine.Cmp (Cmp (a_op, I imm));
      emit e Machine.Core (Jcc (c, target_of addr))
  | VI.J addr -> emit e Machine.Core (Jmp (target_of addr))
  | VI.Jal addr -> emit e Machine.Core (Call (target_of addr, ret_addr))
  | VI.Jr rs ->
      let x = sandbox_code_operand e mode (rop rs) in
      emit e Machine.Core (Jmp_ind x)
  | VI.Jalr (rd, rs) ->
      if rd = Omnivm.Reg.ra then begin
        let x = sandbox_code_operand e mode (rop rs) in
        emit e Machine.Core (Call_ind (x, ret_addr))
      end
      else begin
        (* unusual link register *)
        emit e Machine.Addr (Store (VI.W32, mabs slot0, R ebp));
        let x = sandbox_code_operand e mode (rop rs) in
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
  if writes_sp ins && not (sp_write_safe mode ins) then resandbox_sp e mode

(* --- peephole: drop a Cmp-vs-0 whose operand was just computed --- *)

let redundant_cmp (slots : slot list) : slot list =
  let defines_flags_on (i : instr) (x : operand) =
    match (i, x) with
    | Alu (_, R d, _), R r -> d = r
    | Shift (_, R d, _), R r -> d = r
    | _ -> false
  in
  let rec go = function
    | a :: { i = Cmp (x, I 0); _ } :: (({ i = Jcc ((VI.Eq | VI.Ne), _); _ } :: _) as rest)
      when defines_flags_on a.i x ->
        a :: go rest
    | s :: rest -> s :: go rest
    | [] -> []
  in
  go slots

(* --- whole-module translation --- *)

let leaders (exe : Omnivm.Exe.t) : bool array =
  let n = Array.length exe.Omnivm.Exe.text in
  let lead = Array.make n false in
  let mark addr =
    match omni_index_of_addr addr with
    | Some i when i >= 0 && i < n -> lead.(i) <- true
    | _ -> ()
  in
  if n > 0 then lead.(0) <- true;
  mark exe.Omnivm.Exe.entry;
  List.iter (fun (_, addr) -> mark addr) exe.Omnivm.Exe.symbols;
  Array.iteri
    (fun i ins ->
      (match VI.label ins with Some addr -> mark addr | None -> ());
      match ins with
      | VI.Br _ | VI.Bri _ | VI.J _ | VI.Jal _ | VI.Jr _ | VI.Jalr _
      | VI.Trap _ ->
          if i + 1 < n then lead.(i + 1) <- true
      | _ -> ())
    exe.Omnivm.Exe.text;
  lead

let is_barrier_slot (s : slot) =
  match s.i with
  | Hcall _ | Guard_data _ | Guard_code _ | Trapi _ | Idiv _ -> true
  | _ -> false

(* A static slot to seed arrays with (see [Machine.array_of_list]). *)
let placeholder = { i = Nop; origin = Machine.Bnop }

let sched_info : slot Sched.info =
  { Sched.attrs = (fun s -> attrs s.i); is_barrier = is_barrier_slot }

let has_fp (slots : slot list) =
  List.exists (fun s -> unit_of s.i = Pipeline.FPU) slots

let translate ~(mode : Machine.mode) ~(opts : Machine.topts)
    (exe : Omnivm.Exe.t) : program =
  let text = exe.Omnivm.Exe.text in
  let n = Array.length text in
  let lead = leaders exe in
  let decl = Machine.new_sfi_decl () in
  let tally = Trace.tally () in
  let pool = { slots = []; pool = []; pool_n = 0; decl; tally } in
  let chunks = Array.make n [] in
  for i = 0 to n - 1 do
    let e =
      { slots = []; pool = pool.pool; pool_n = pool.pool_n; decl; tally }
    in
    translate_instr mode e ~idx:i text.(i);
    pool.pool <- e.pool;
    pool.pool_n <- e.pool_n;
    chunks.(i) <- List.rev e.slots
  done;
  let blocks = ref [] in
  let cur = ref [] in
  for i = n - 1 downto 0 do
    cur := i :: !cur;
    if lead.(i) then begin
      blocks := !cur :: !blocks;
      cur := []
    end
  done;
  (* the downward scan already leaves blocks in ascending order *)
  let blocks = !blocks in
  let quality =
    match mode with
    | Machine.Native Machine.Cc -> Sched.Critical_path
    | _ -> Sched.Greedy
  in
  let out = ref [] in
  let out_n = ref 0 in
  let addr_map = Array.make n (-1) in
  let sched = Sched.create sched_info in
  let emit_out s =
    out := s :: !out;
    incr out_n
  in
  List.iter
    (fun omni_indices ->
      match omni_indices with
      | [] -> ()
      | first :: _ ->
          addr_map.(first) <- !out_n;
          let slots = List.concat_map (fun i -> chunks.(i)) omni_indices in
          let slots =
            if opts.Machine.peephole then begin
              let before = List.length slots in
              let slots' =
                Trace.tally_time tally "pass.peephole" (fun () ->
                    redundant_cmp slots)
              in
              Trace.tally_count tally ~by:(before - List.length slots')
                "translate.peephole_folds";
              slots'
            end
            else slots
          in
          let rec split acc = function
            | [ s ] when is_control s.i -> (List.rev acc, Some s)
            | [] -> (List.rev acc, None)
            | s :: rest -> split (s :: acc) rest
          in
          let body, ctrl = split [] slots in
          let schedule_this =
            opts.Machine.schedule
            && (quality = Sched.Critical_path || has_fp body)
            (* the mobile x86 translator schedules only FP code (paper 4) *)
          in
          let body = Machine.array_of_list ~dummy:placeholder body in
          let body =
            if schedule_this then
              Trace.tally_time tally "pass.schedule" (fun () ->
                  Sched.schedule_body sched ~quality body)
            else body
          in
          Array.iter emit_out body;
          (match ctrl with Some c -> emit_out c | None -> ()))
    blocks;
  Trace.flush tally;
  let code = Machine.array_of_list ~dummy:placeholder (List.rev !out) in
  let patch_target i =
    if i < 0 || i >= n || addr_map.(i) < 0 then
      terror "branch targets non-leader omni instruction %d" i
    else addr_map.(i)
  in
  Array.iteri
    (fun idx s ->
      let i' =
        match s.i with
        | Jcc (c, l) -> Jcc (c, patch_target l)
        | Jmp l -> Jmp (patch_target l)
        | Call (l, r) -> Call (patch_target l, r)
        | i -> i
      in
      code.(idx) <- { s with i = i' })
    code;
  let entry =
    match omni_index_of_addr exe.Omnivm.Exe.entry with
    | Some i when i >= 0 && i < n && addr_map.(i) >= 0 -> addr_map.(i)
    | _ -> terror "bad entry point"
  in
  { code; entry; addr_map; pool = Array.of_list (List.rev pool.pool);
    n_omni = n; decl }

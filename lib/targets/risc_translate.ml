(* Load-time translator: OmniVM -> parameterized RISC target.

   Responsibilities (paper sections 3-4):
   - one-or-more native instructions per OmniVM instruction, with every
     extra instruction tagged by why it exists (Figure 1's categories:
     addr / cmp / ldi / bnop / sfi),
   - software fault isolation on unsafe stores and indirect branches
     (sandboxing by default; guard/trap mode for the virtual exception
     model; statically safe accesses — sp-relative with small offsets and
     constant in-segment addresses — are left unchecked),
   - translator optimizations: local instruction scheduling, branch delay
     slot filling, global-pointer addressing, and a peephole pass
     (PowerPC record-form compare folding for the vendor-compiler tier).

   The [Native] modes reuse this machinery as compiler baselines: no SFI,
   and for the [Cc] tier an effectively unlimited immediate field (modeling
   the vendor compiler's superior instruction selection and constant
   handling) plus critical-path scheduling.

   Discipline: each OmniVM instruction's translation contains exactly one
   [Core]-tagged native instruction, so dynamic [Core] counts equal dynamic
   OmniVM instruction counts.

   This file is the RISC half of translation: one instruction's chunk,
   the record-form peephole and the delay-slot target. Block cutting,
   the address map, label patching and the emitter are [Translate]'s,
   which reads the mode's SFI policy into the emitter ([e.policy]). *)

open Risc
module VI = Omnivm.Instr
module W = Omni_util.Word32
module L = Omnivm.Layout
module Policy = Omni_sfi.Policy
module Trace = Omni_obs.Trace

type t = {
  cfg : cfg;
  mode : Machine.mode;
  opts : Machine.topts;
  mutable sfi_cache : (int * int * bool) option;
      (* (native base reg, displacement, boxed?) currently held sandboxed in
         the dedicated data register; used by the sfi_opt guard-zone
         optimization (paper 4.4) *)
}

let emit e origin i = Translate.push e (mk origin i)
let emit_pad e = Translate.emit_pad e (fun () -> mk Machine.Sfi Nop)

let fits bits v = v >= -(1 lsl (bits - 1)) && v < 1 lsl (bits - 1)

(* Effective immediate width: the vendor-compiler tier is modeled as having
   no immediate-size limitations (perfect constant handling). *)
let eff_bits t =
  match t.mode with Machine.Native Machine.Cc -> 30 | _ -> t.cfg.imm_bits

let gp_value t = L.data_base + (1 lsl (t.cfg.imm_bits - 1))

let use_gp t = t.opts.Machine.use_gp

(* Materialize a 32-bit constant into [rd]. The final instruction carries
   [last_origin]; preceding high-part instructions carry [hi_origin]. *)
let mat_imm t e ~hi_origin ~last_origin rd v =
  if fits (eff_bits t) v then emit e last_origin (Alui (VI.Add, rd, r_zero, v))
  else begin
    let low_bits = t.cfg.imm_bits - 3 in
    let low = v land ((1 lsl low_bits) - 1) in
    let high = W.of_int (v - low) in
    emit e hi_origin (Lui (rd, high));
    emit e last_origin (Alui (VI.Or, rd, rd, low))
  end

(* Compute base+disp into a usable (base_reg, small_disp) pair for a memory
   access; emits address-expansion instructions as needed. *)
let mem_addr t e ~origin base disp =
  let bits = eff_bits t in
  if base = r_zero then begin
    (* absolute address *)
    if fits bits disp then (r_zero, disp)
    else if use_gp t && fits t.cfg.imm_bits (disp - gp_value t) then begin
      Trace.tally_count e.Translate.tally "translate.gp_uses";
      (r_gp, disp - gp_value t)
    end
    else begin
      let low_bits = t.cfg.imm_bits - 3 in
      let low = disp land ((1 lsl low_bits) - 1) in
      emit e origin (Lui (r_scratch1, W.of_int (disp - low)));
      (r_scratch1, low)
    end
  end
  else if fits bits disp then (base, disp)
  else begin
    let low_bits = t.cfg.imm_bits - 3 in
    let low = disp land ((1 lsl low_bits) - 1) in
    emit e origin (Lui (r_scratch1, W.of_int (disp - low)));
    emit e origin (Alu (VI.Add, r_scratch1, r_scratch1, base));
    (r_scratch1, low)
  end

(* Emit the SFI-protected (or direct) store of [emit_store : base -> disp ->
   unit] to address base+disp. Under [indexed] (the default) a target with
   indexed addressing masks the address and has [emit_store] store at
   data base + dedicated register, given as base -1. *)
let sfi_store ?(indexed = true) t e ~base ~disp
    ~(emit_store : core:bool -> int -> int -> unit) =
  if Translate.unchecked_store e ~sp:omni_sp base disp then begin
    let b, d = mem_addr t e ~origin:Machine.Addr base disp in
    emit_store ~core:true b d
  end
  else
  match Translate.sfi_mode e with
  | Policy.Off -> assert false
  | Policy.Sandbox
    when t.opts.Machine.sfi_opt
         && (match t.sfi_cache with
            | Some (b, d0, boxed) ->
                b = base && boxed && abs (disp - d0) < Translate.guard_zone e
            | None -> false) ->
      (* guard-zone reuse: the dedicated register already holds a sandboxed
         address for this base; a small displacement from it cannot leave
         the segment's guard zone, so no new check is needed *)
      Trace.tally_count e.Translate.tally "translate.sfi_checks_elided";
      let d0 = match t.sfi_cache with Some (_, d, _) -> d | None -> 0 in
      emit_store ~core:true r_sfi_data (disp - d0)
  | Policy.Sandbox ->
      Trace.tally_count e.Translate.tally "translate.sfi_checks";
      (* address into a single register, then mask into the segment *)
      let asrc =
        if disp = 0 then base
        else if fits (eff_bits t) disp then begin
          emit e Machine.Sfi (Alui (VI.Add, r_sfi_data, base, disp));
          r_sfi_data
        end
        else begin
          mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
            r_scratch1 disp;
          emit e Machine.Sfi (Alu (VI.Add, r_sfi_data, base, r_scratch1));
          r_sfi_data
        end
      in
      Translate.declare_data_mask e;
      emit e Machine.Sfi (Alu (VI.And, r_sfi_data, asrc, r_data_mask));
      if t.cfg.has_indexed && indexed then begin
        (* indexed addressing shortens the PPC check sequence (paper 4.3) *)
        emit_pad e;
        emit_store ~core:true (-1) (-1) (* special-cased by caller *);
        t.sfi_cache <- (if t.opts.Machine.sfi_opt then Some (base, disp, false)
                        else None)
      end
      else begin
        emit e Machine.Sfi (Alu (VI.Or, r_sfi_data, r_sfi_data, r_data_base));
        emit_pad e;
        emit_store ~core:true r_sfi_data 0;
        t.sfi_cache <- (if t.opts.Machine.sfi_opt then Some (base, disp, true)
                        else None)
      end
  | Policy.Guard ->
      Trace.tally_count e.Translate.tally "translate.sfi_checks";
      let areg =
        if disp = 0 then base
        else begin
          (if fits (eff_bits t) disp then
             emit e Machine.Sfi (Alui (VI.Add, r_scratch1, base, disp))
           else begin
             mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
               r_scratch1 disp;
             emit e Machine.Sfi (Alu (VI.Add, r_scratch1, r_scratch1, base))
           end);
          r_scratch1
        end
      in
      emit e Machine.Sfi (Guard_data areg);
      emit_store ~core:true areg 0

(* Read protection (optional; paper section 1 cites it as an SFI capability
   Omniware had not incorporated): route unsafe loads through the same
   dedicated-register discipline as stores. *)
let sfi_load t e ~base ~disp ~(emit_load : int -> int -> unit) =
  if
    Translate.sfi_mode e = Policy.Off
    || (not e.Translate.policy.Policy.protect_reads)
    || Translate.statically_safe e ~sp:omni_sp base disp
    || (base = r_gp)
  then begin
    let b, d = mem_addr t e ~origin:Machine.Addr base disp in
    emit_load b d
  end
  else
    match Translate.sfi_mode e with
    | Policy.Off -> assert false
    | Policy.Sandbox ->
        let asrc =
          if disp = 0 then base
          else if fits (eff_bits t) disp then begin
            emit e Machine.Sfi (Alui (VI.Add, r_sfi_data, base, disp));
            r_sfi_data
          end
          else begin
            mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
              r_scratch1 disp;
            emit e Machine.Sfi (Alu (VI.Add, r_sfi_data, base, r_scratch1));
            r_sfi_data
          end
        in
        Translate.declare_data_mask e;
        emit e Machine.Sfi (Alu (VI.And, r_sfi_data, asrc, r_data_mask));
        emit e Machine.Sfi (Alu (VI.Or, r_sfi_data, r_sfi_data, r_data_base));
        emit_pad e;
        emit_load r_sfi_data 0;
        t.sfi_cache <- None
    | Policy.Guard ->
        let areg =
          if disp = 0 then base
          else begin
            (if fits (eff_bits t) disp then
               emit e Machine.Sfi (Alui (VI.Add, r_scratch1, base, disp))
             else begin
               mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
                 r_scratch1 disp;
               emit e Machine.Sfi (Alu (VI.Add, r_scratch1, r_scratch1, base))
             end);
            r_scratch1
          end
        in
        emit e Machine.Sfi (Guard_data areg);
        emit_load areg 0

(* Sandbox an indirect branch target into a register safe to jump through. *)
let sfi_code_target e reg =
  match Translate.sfi_mode e with
  | Policy.Off -> reg
  | Policy.Sandbox ->
      Translate.declare_code_mask e;
      emit e Machine.Sfi (Alu (VI.And, r_sfi_code, reg, r_code_mask));
      emit e Machine.Sfi (Alu (VI.Or, r_sfi_code, r_sfi_code, r_code_base));
      emit_pad e;
      r_sfi_code
  | Policy.Guard ->
      emit e Machine.Sfi (Guard_code reg);
      reg

(* Re-establish the sp-in-segment invariant after an unsafe sp write. *)
let resandbox_sp e =
  match Translate.sfi_mode e with
  | Policy.Off -> ()
  | Policy.Sandbox ->
      emit e Machine.Sfi (Alu (VI.And, omni_sp, omni_sp, r_data_mask));
      emit e Machine.Sfi (Alu (VI.Or, omni_sp, omni_sp, r_data_base))
  | Policy.Guard -> emit e Machine.Sfi (Guard_data omni_sp)

(* --- branches --- *)

(* Negate-for-swap helpers live in Omnivm.Instr. Branch label operands hold
   OMNI INSTRUCTION INDICES during chunk construction; [Translate] patches
   them to native indices at the end. *)

let unsigned_cond = function
  | VI.Ltu | VI.Leu | VI.Gtu | VI.Geu -> true
  | _ -> false

let translate_branch t e c a b target =
  let a = map_reg a and b = map_reg b in
  match t.cfg.branch_model with
  | Fused_compare -> (
      match c with
      | VI.Eq | VI.Ne -> emit e Machine.Core (Br_cmp (c, a, b, target))
      | _ when b = r_zero && not (unsigned_cond c) ->
          emit e Machine.Core (Br_cmp (c, a, r_zero, target))
      | VI.Ltu | VI.Gtu | VI.Leu | VI.Geu | VI.Lt | VI.Gt | VI.Le | VI.Ge ->
          let slt x y =
            if unsigned_cond c then Alu (VI.Sltu, r_scratch1, x, y)
            else Alu (VI.Slt, r_scratch1, x, y)
          in
          let cmp_i, sense =
            match c with
            | VI.Lt | VI.Ltu -> (slt a b, VI.Ne)
            | VI.Ge | VI.Geu -> (slt a b, VI.Eq)
            | VI.Gt | VI.Gtu -> (slt b a, VI.Ne)
            | VI.Le | VI.Leu -> (slt b a, VI.Eq)
            | VI.Eq | VI.Ne -> assert false
          in
          emit e Machine.Cmp cmp_i;
          emit e Machine.Core (Br_cmp (sense, r_scratch1, r_zero, target)))
  | Cond_codes | Cond_reg ->
      if b = r_zero then emit e Machine.Cmp (Cmpi (a, 0))
      else emit e Machine.Cmp (Cmp (a, b));
      emit e Machine.Core (Br_cc (c, target))

let rec translate_branch_imm t e c a imm target =
  let an = map_reg a in
  if imm = 0 then translate_branch t e c a 0 target
  else
    match t.cfg.branch_model with
    | Fused_compare -> (
        match c with
        | VI.Eq | VI.Ne ->
            mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
              r_scratch2 imm;
            emit e Machine.Core (Br_cmp (c, an, r_scratch2, target))
        | VI.Lt | VI.Ge when fits (eff_bits t) imm ->
            emit e Machine.Cmp (Alui (VI.Slt, r_scratch1, an, imm));
            let sense = if c = VI.Lt then VI.Ne else VI.Eq in
            emit e Machine.Core (Br_cmp (sense, r_scratch1, r_zero, target))
        | VI.Ltu | VI.Geu when fits (eff_bits t) imm ->
            emit e Machine.Cmp (Alui (VI.Sltu, r_scratch1, an, imm));
            let sense = if c = VI.Ltu then VI.Ne else VI.Eq in
            emit e Machine.Core (Br_cmp (sense, r_scratch1, r_zero, target))
        | VI.Le | VI.Gt when imm <> W.max_int32 && fits (eff_bits t) (imm + 1)
          ->
            emit e Machine.Cmp (Alui (VI.Slt, r_scratch1, an, imm + 1));
            let sense = if c = VI.Le then VI.Ne else VI.Eq in
            emit e Machine.Core (Br_cmp (sense, r_scratch1, r_zero, target))
        | _ ->
            mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
              r_scratch2 imm;
            translate_branch_reg2 t e c an r_scratch2 target)
    | Cond_codes | Cond_reg ->
        if fits t.cfg.imm_bits imm || fits (eff_bits t) imm then begin
          emit e Machine.Cmp (Cmpi (an, imm));
          emit e Machine.Core (Br_cc (c, target))
        end
        else begin
          mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
            r_scratch2 imm;
          emit e Machine.Cmp (Cmp (an, r_scratch2));
          emit e Machine.Core (Br_cc (c, target))
        end

(* like translate_branch but with pre-mapped native registers *)
and translate_branch_reg2 t e c a b target =
  match t.cfg.branch_model with
  | Fused_compare -> (
      match c with
      | VI.Eq | VI.Ne -> emit e Machine.Core (Br_cmp (c, a, b, target))
      | _ ->
          let slt x y =
            if unsigned_cond c then Alu (VI.Sltu, r_scratch1, x, y)
            else Alu (VI.Slt, r_scratch1, x, y)
          in
          let cmp_i, sense =
            match c with
            | VI.Lt | VI.Ltu -> (slt a b, VI.Ne)
            | VI.Ge | VI.Geu -> (slt a b, VI.Eq)
            | VI.Gt | VI.Gtu -> (slt b a, VI.Ne)
            | VI.Le | VI.Leu -> (slt b a, VI.Eq)
            | VI.Eq | VI.Ne -> assert false
          in
          emit e Machine.Cmp cmp_i;
          emit e Machine.Core (Br_cmp (sense, r_scratch1, r_zero, target)))
  | Cond_codes | Cond_reg ->
      emit e Machine.Cmp (Cmp (a, b));
      emit e Machine.Core (Br_cc (c, target))

(* --- per-instruction translation --- *)

(* Native registers an OmniVM instruction writes (for sfi-cache
   invalidation). Conservative: host calls clobber the result register. *)
let omni_defs (ins : int VI.t) : int list =
  match ins with
  | VI.Binop (_, rd, _, _) | VI.Binopi (_, rd, _, _) | VI.Li (rd, _)
  | VI.Load (_, _, rd, _, _) | VI.Ext (rd, _, _, _) | VI.Ins (rd, _, _, _)
  | VI.Cvt_i_f (_, rd, _) | VI.Fcmp (_, _, rd, _, _) ->
      [ map_reg rd ]
  | VI.Jal _ -> [ omni_ra ]
  | VI.Jalr (rd, _) -> [ map_reg rd; omni_ra ]
  | VI.Hcall _ -> [ map_reg 1 ]
  | VI.Store _ | VI.Fstore _ | VI.Fload _ | VI.Fbinop _ | VI.Funop _
  | VI.Fli _ | VI.Cvt_f_i _ | VI.Cvt_d_s _ | VI.Cvt_s_d _ | VI.Br _
  | VI.Bri _ | VI.J _ | VI.Jr _ | VI.Trap _ | VI.Nop ->
      []

(* Translate one OmniVM instruction (at omni index [idx]) into [e].
   Branch/jump targets are encoded as omni instruction indices. *)
let translate_instr t e ~idx (ins : int VI.t) =
  let m = map_reg in
  let ret_addr = Omnivm.Exe.code_addr (idx + 1) in
  (match ins with
  | VI.Nop -> emit e Machine.Core Nop
  | VI.Li (rd, v) ->
      (* addresses near the global pointer can be formed in one instr *)
      if (not (fits (eff_bits t) v))
         && use_gp t
         && fits t.cfg.imm_bits (v - gp_value t)
      then begin
        Trace.tally_count e.Translate.tally "translate.gp_uses";
        emit e Machine.Core (Alui (VI.Add, m rd, r_gp, v - gp_value t))
      end
      else
        mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Core (m rd) v
  | VI.Binop (op, rd, rs1, rs2) -> (
      match (op, t.cfg.branch_model) with
      | (VI.Slt | VI.Sltu), (Cond_codes | Cond_reg) ->
          emit e Machine.Cmp (Cmp (m rs1, m rs2));
          let c = if op = VI.Slt then VI.Lt else VI.Ltu in
          emit e Machine.Core (Cc_to_reg (c, m rd))
      | _ -> emit e Machine.Core (Alu (op, m rd, m rs1, m rs2)))
  | VI.Binopi (op, rd, rs1, imm) -> (
      match (op, t.cfg.branch_model) with
      | (VI.Slt | VI.Sltu), (Cond_codes | Cond_reg) ->
          if fits (eff_bits t) imm then emit e Machine.Cmp (Cmpi (m rs1, imm))
          else begin
            mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
              r_scratch2 imm;
            emit e Machine.Cmp (Cmp (m rs1, r_scratch2))
          end;
          let c = if op = VI.Slt then VI.Lt else VI.Ltu in
          emit e Machine.Core (Cc_to_reg (c, m rd))
      | _ ->
          if fits (eff_bits t) imm then
            emit e Machine.Core (Alui (op, m rd, m rs1, imm))
          else begin
            mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi
              r_scratch2 imm;
            emit e Machine.Core (Alu (op, m rd, m rs1, r_scratch2))
          end)
  | VI.Load (w, signed, rd, base, off) ->
      sfi_load t e ~base:(m base) ~disp:off ~emit_load:(fun b d ->
          emit e Machine.Core (Load (w, signed, m rd, b, d)))
  | VI.Store (w, rv, base, off) ->
      sfi_store t e ~base:(m base) ~disp:off ~emit_store:(fun ~core b d ->
          ignore core;
          if b = -1 then
            (* PPC indexed sandbox form *)
            emit e Machine.Core (Store_x (w, m rv, r_data_base, r_sfi_data))
          else emit e Machine.Core (Store (w, m rv, b, d)))
  | VI.Fload (prec, fd, base, off) ->
      sfi_load t e ~base:(m base) ~disp:off ~emit_load:(fun b d ->
          match prec with
          | VI.Double -> emit e Machine.Core (Fload (fd, b, d))
          | VI.Single -> emit e Machine.Core (Fload_s (fd, b, d)))
  | VI.Fstore (prec, fv, base, off) ->
      (* there is no indexed single-precision store: a single is stored
         through the boxed dedicated register, as without indexing *)
      sfi_store ~indexed:(prec = VI.Double) t e ~base:(m base) ~disp:off
        ~emit_store:(fun ~core b d ->
          ignore core;
          if b = -1 then emit e Machine.Core (Fstore_x (fv, r_data_base, r_sfi_data))
          else
            match prec with
            | VI.Double -> emit e Machine.Core (Fstore (fv, b, d))
            | VI.Single -> emit e Machine.Core (Fstore_s (fv, b, d)))
  | VI.Fbinop (op, prec, fd, fs1, fs2) ->
      emit e Machine.Core (Fop (op, prec, fd, fs1, fs2))
  | VI.Funop (op, _prec, fd, fs) -> emit e Machine.Core (Fun1 (op, fd, fs))
  | VI.Fcmp (op, _prec, rd, fs1, fs2) ->
      emit e Machine.Cmp (Fcmp (op, fs1, fs2));
      emit e Machine.Core (Fcc_to_reg (m rd))
  | VI.Fli (_prec, fd, v) ->
      let i = Translate.pool_const e v in
      emit e Machine.Core (Fld_pool (fd, i))
  | VI.Cvt_f_i (_prec, fd, rs) -> emit e Machine.Core (Cvt_f_i (fd, m rs))
  | VI.Cvt_i_f (_prec, rd, fs) -> emit e Machine.Core (Cvt_i_f (m rd, fs))
  | VI.Cvt_d_s (fd, fs) -> emit e Machine.Core (Cvt_d_s (fd, fs))
  | VI.Cvt_s_d (fd, fs) -> emit e Machine.Core (Cvt_s_d (fd, fs))
  | VI.Br (c, a, b, addr) -> translate_branch t e c a b (Translate.label e addr)
  | VI.Bri (c, a, imm, addr) ->
      translate_branch_imm t e c a imm (Translate.label e addr)
  | VI.J addr -> emit e Machine.Core (J (Translate.label e addr))
  | VI.Jal addr -> emit e Machine.Core (Call (Translate.label e addr, ret_addr))
  | VI.Jr rs ->
      let tr = sfi_code_target e (m rs) in
      emit e Machine.Core (Jmp_ind tr)
  | VI.Jalr (rd, rs) ->
      if rd = Omnivm.Reg.ra then begin
        let tr = sfi_code_target e (m rs) in
        emit e Machine.Core (Call_ind (tr, ret_addr))
      end
      else begin
        (* unusual link register: save/restore ra around the call *)
        emit e Machine.Addr (Alui (VI.Add, r_scratch2, omni_ra, 0));
        let tr = sfi_code_target e (m rs) in
        emit e Machine.Core (Call_ind (tr, ret_addr));
        emit e Machine.Addr (Alui (VI.Add, m rd, omni_ra, 0));
        emit e Machine.Addr (Alui (VI.Add, omni_ra, r_scratch2, 0))
      end
  | VI.Ext (rd, rs, pos, len) ->
      (* rd := (rs << (32-8(pos+len))) >>u (32-8len): shifts always fit *)
      let k1 = 32 - (8 * (pos + len)) in
      let k2 = 32 - (8 * len) in
      if k1 = 0 then emit e Machine.Core (Alui (VI.Srl, m rd, m rs, k2 - k1))
      else begin
        emit e Machine.Addr (Alui (VI.Sll, r_scratch1, m rs, k1));
        emit e Machine.Core (Alui (VI.Srl, m rd, r_scratch1, k2))
      end
  | VI.Ins (rd, rs, pos, len) ->
      (* the field of [rs] first: [rs] may be [rd] *)
      let mask = (1 lsl (8 * len)) - 1 in
      mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi r_scratch2
        mask;
      emit e Machine.Addr (Alu (VI.And, r_scratch2, m rs, r_scratch2));
      if pos > 0 then
        emit e Machine.Addr (Alui (VI.Sll, r_scratch2, r_scratch2, 8 * pos));
      mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi r_scratch1
        (lnot (mask lsl (8 * pos)));
      emit e Machine.Addr (Alu (VI.And, m rd, m rd, r_scratch1));
      emit e Machine.Core (Alu (VI.Or, m rd, m rd, r_scratch2))
  | VI.Hcall n -> emit e Machine.Core (Hcall n)
  | VI.Trap n -> emit e Machine.Core (Trapi n));
  (* sp safety invariant *)
  if Translate.unsafe_sp_write e ins then resandbox_sp e;
  (* sfi-cache invalidation: the cached base register may have changed *)
  (match t.sfi_cache with
  | Some (b, _, _) when List.mem b (omni_defs ins) -> t.sfi_cache <- None
  | _ -> ())

(* --- record-form peephole (PowerPC, vendor tier) --- *)

let record_form_ok = function
  | VI.Add | VI.Sub | VI.And | VI.Or | VI.Xor | VI.Sll | VI.Srl | VI.Sra ->
      true
  | _ -> false

(* Fold a compare-with-zero into the instruction that computed the compared
   value (PowerPC record forms, xlc-style). The defining ALU need not be
   adjacent: we search back through the block as long as neither the
   compared register nor the condition register is touched in between.
   Compacts the block [lo, hi) of [code] in place and returns its new end.
   A dropped compare is followed by the branch, which reads the condition
   register, so no later search passes where it was. *)
let apply_record_forms (code : slot array) lo hi =
  let writes_reg r i =
    Pipeline.mem r (Pipeline.cost_defs (cost_of ppc_cfg i))
  in
  let touches_cc i =
    let w = cost_of ppc_cfg i in
    Pipeline.mem cc_id (Pipeline.cost_defs w)
    || Pipeline.mem cc_id (Pipeline.cost_uses w)
  in
  let w = ref lo in
  for j = lo to hi - 1 do
    let s = code.(j) in
    let drop =
      match s.i with
      | Cmpi (rc, 0) when j + 1 < hi -> (
          (* only when a conditional branch consumes it next *)
          match code.(j + 1).i with
          | Br_cc _ ->
              let rec back k =
                k >= lo
                &&
                match code.(k).i with
                | Alu (op, rd, ra, rb) when rd = rc && record_form_ok op ->
                    code.(k) <- { (code.(k)) with i = Alu_record (op, rd, ra, rb) };
                    true
                | i when writes_reg rc i || touches_cc i -> false
                | _ -> back (k - 1)
              in
              back (!w - 1)
          | _ -> false)
      | _ -> false
    in
    if not drop then begin
      if !w <> j then code.(!w) <- s;
      incr w
    end
  done;
  !w

(* --- whole-module translation --- *)

let is_barrier_slot (s : slot) =
  match s.i with
  | Hcall _ | Guard_data _ | Guard_code _ | Trapi _ -> true
  | _ -> false

(* A static slot to seed arrays with: in OCaml 5, seeding an array
   longer than 256 words with a young block forces a minor collection. *)
let placeholder = { i = Nop; origin = Machine.Bnop; annul = false }

let spare : slot Translate.spare = Translate.spare ()

let sched_info cfg : slot Sched.info =
  {
    Sched.cost = (fun s -> cost_of cfg s.i);
    is_barrier = is_barrier_slot;
  }

let map_label f s =
  match s.i with
  | Br_cc (c, l) -> { s with i = Br_cc (c, f l) }
  | Br_cmp (c, a, b, l) -> { s with i = Br_cmp (c, a, b, f l) }
  | Fbr (x, l) -> { s with i = Fbr (x, f l) }
  | J l -> { s with i = J (f l) }
  | Call (l, r) -> { s with i = Call (f l, r) }
  | _ -> s

let translate cfg ~(mode : Machine.mode) ~(opts : Machine.topts)
    (exe : Omnivm.Exe.t) : program =
  let t = { cfg; mode; opts; sfi_cache = None } in
  let record_forms =
    match mode with
    | Machine.Native Machine.Cc when cfg.branch_model = Cond_reg ->
        Some apply_record_forms
    | Machine.Native _ | Machine.Mobile _ -> None
  in
  let p =
    Translate.run
      {
        Translate.translate_instr = translate_instr t;
        at_leader = (fun () -> t.sfi_cache <- None);
        is_control = (fun s -> is_control s.i);
        placeholder;
        spare;
        sched_info = sched_info cfg;
        peephole = record_forms;
        schedules = (fun _ _ _ -> true);
        delay_nop =
          (if cfg.has_delay_slot then Some (fun () -> mk Machine.Bnop Nop)
           else None);
        map_label;
      }
      ~mode ~opts exe
  in
  { cfg; code = p.Translate.code; entry = p.Translate.entry;
    addr_map = p.Translate.addr_map; pool = p.Translate.pool;
    n_omni = Array.length exe.Omnivm.Exe.text; decl = p.Translate.decl }

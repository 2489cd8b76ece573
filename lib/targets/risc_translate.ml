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
   OmniVM instruction counts. *)

open Risc
module VI = Omnivm.Instr
module W = Omni_util.Word32
module L = Omnivm.Layout
module Trace = Omni_obs.Trace

type tconfig = {
  cfg : cfg;
  mode : Machine.mode;
  opts : Machine.topts;
  mutable sfi_cache : (int * int * bool) option;
      (* (native base reg, displacement, boxed?) currently held sandboxed in
         the dedicated data register; used by the sfi_opt guard-zone
         optimization (paper 4.4) *)
}

(* Chunk emitter for one OmniVM instruction's translation. *)
type emitter = {
  mutable slots : slot list; (* reversed *)
  mutable pool : float list; (* reversed *)
  mutable pool_n : int;
  decl : Machine.sfi_decl; (* shared across chunks; masking counts *)
  tally : Trace.tally; (* shared across chunks *)
}

let emit e origin i = e.slots <- mk origin i :: e.slots

let pool_const e v =
  (* small pool; linear search for sharing *)
  let rec find i = function
    | [] ->
        e.pool <- v :: e.pool;
        e.pool_n <- e.pool_n + 1;
        e.pool_n - 1
    | x :: rest ->
        if Float.equal x v then e.pool_n - 1 - i else find (i + 1) rest
  in
  find 0 e.pool

let fits bits v = v >= -(1 lsl (bits - 1)) && v < 1 lsl (bits - 1)

(* Effective immediate width: the vendor-compiler tier is modeled as having
   no immediate-size limitations (perfect constant handling). *)
let eff_bits t =
  match t.mode with Machine.Native Machine.Cc -> 30 | _ -> t.cfg.imm_bits

let gp_value t = L.data_base + (1 lsl (t.cfg.imm_bits - 1))

let use_gp t = t.opts.Machine.use_gp

let sfi_mode t =
  match t.mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.mode
  | Machine.Native _ -> Omni_sfi.Policy.Off

let protect_reads t =
  match t.mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.protect_reads
  | Machine.Native _ -> false

let sfi_pad t =
  match t.mode with
  | Machine.Mobile p -> p.Omni_sfi.Policy.pad
  | Machine.Native _ -> Omni_sfi.Policy.Pad_none

(* Effective guard-zone bound for statically-safe displacements; widened
   under [Pad_guard8]. *)
let guard_bound t = Omni_sfi.Policy.guard_zone_of_pad (sfi_pad t)

(* Padding of the sandboxing sequence (the instruction-padding paper's
   knob). Called between the mask/box pair and the protected memory op;
   never used on the sp re-sandboxing triple (verified by adjacency). *)
let emit_pad t e =
  match sfi_pad t with
  | Omni_sfi.Policy.Pad_none | Omni_sfi.Policy.Pad_guard8 -> ()
  | Omni_sfi.Policy.Pad_nop -> emit e Machine.Sfi Nop
  | Omni_sfi.Policy.Pad_align ->
      (* pad so the protected op lands on an even slot of this chunk *)
      if List.length e.slots land 1 = 1 then emit e Machine.Sfi Nop

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
      Trace.tally_count e.tally "translate.gp_uses";
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

(* Statically safe store addresses need no SFI check. *)
let store_statically_safe t base disp =
  (base = omni_sp && disp >= 0 && disp < guard_bound t)
  || (base = r_zero && L.in_data disp)

(* Emit the SFI-protected (or direct) store of [emit_store : base -> disp ->
   unit] to address base+disp. *)
let sfi_store t e ~base ~disp ~(emit_store : core:bool -> int -> int -> unit) =
  if sfi_mode t = Omni_sfi.Policy.Off || store_statically_safe t base disp
  then begin
    let b, d = mem_addr t e ~origin:Machine.Addr base disp in
    emit_store ~core:true b d
  end
  else
  match sfi_mode t with
  | Omni_sfi.Policy.Off -> assert false
  | Omni_sfi.Policy.Sandbox
    when t.opts.Machine.sfi_opt
         && (match t.sfi_cache with
            | Some (b, d0, boxed) ->
                b = base && boxed && abs (disp - d0) < guard_bound t
            | None -> false) ->
      (* guard-zone reuse: the dedicated register already holds a sandboxed
         address for this base; a small displacement from it cannot leave
         the segment's guard zone, so no new check is needed *)
      Trace.tally_count e.tally "translate.sfi_checks_elided";
      let d0 = match t.sfi_cache with Some (_, d, _) -> d | None -> 0 in
      emit_store ~core:true r_sfi_data (disp - d0)
  | Omni_sfi.Policy.Sandbox ->
      Trace.tally_count e.tally "translate.sfi_checks";
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
      e.decl.Machine.data_masks <- e.decl.Machine.data_masks + 1;
      emit e Machine.Sfi (Alu (VI.And, r_sfi_data, asrc, r_data_mask));
      if t.cfg.has_indexed then begin
        (* indexed addressing shortens the PPC check sequence (paper 4.3) *)
        emit_pad t e;
        emit_store ~core:true (-1) (-1) (* special-cased by caller *);
        t.sfi_cache <- (if t.opts.Machine.sfi_opt then Some (base, disp, false)
                        else None)
      end
      else begin
        emit e Machine.Sfi (Alu (VI.Or, r_sfi_data, r_sfi_data, r_data_base));
        emit_pad t e;
        emit_store ~core:true r_sfi_data 0;
        t.sfi_cache <- (if t.opts.Machine.sfi_opt then Some (base, disp, true)
                        else None)
      end
  | Omni_sfi.Policy.Guard ->
      Trace.tally_count e.tally "translate.sfi_checks";
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
    sfi_mode t = Omni_sfi.Policy.Off
    || (not (protect_reads t))
    || store_statically_safe t base disp
    || (base = r_gp)
    || (base = r_zero && L.in_data disp)
  then begin
    let b, d = mem_addr t e ~origin:Machine.Addr base disp in
    emit_load b d
  end
  else
    match sfi_mode t with
    | Omni_sfi.Policy.Off -> assert false
    | Omni_sfi.Policy.Sandbox ->
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
        e.decl.Machine.data_masks <- e.decl.Machine.data_masks + 1;
        emit e Machine.Sfi (Alu (VI.And, r_sfi_data, asrc, r_data_mask));
        emit e Machine.Sfi (Alu (VI.Or, r_sfi_data, r_sfi_data, r_data_base));
        emit_pad t e;
        emit_load r_sfi_data 0;
        t.sfi_cache <- None
    | Omni_sfi.Policy.Guard ->
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
let sfi_code_target t e reg =
  match sfi_mode t with
  | Omni_sfi.Policy.Off -> reg
  | Omni_sfi.Policy.Sandbox ->
      e.decl.Machine.code_masks <- e.decl.Machine.code_masks + 1;
      emit e Machine.Sfi (Alu (VI.And, r_sfi_code, reg, r_code_mask));
      emit e Machine.Sfi (Alu (VI.Or, r_sfi_code, r_sfi_code, r_code_base));
      emit_pad t e;
      r_sfi_code
  | Omni_sfi.Policy.Guard ->
      emit e Machine.Sfi (Guard_code reg);
      reg

(* Re-establish the sp-in-segment invariant after an unsafe sp write. *)
let resandbox_sp t e =
  match sfi_mode t with
  | Omni_sfi.Policy.Off -> ()
  | Omni_sfi.Policy.Sandbox ->
      emit e Machine.Sfi (Alu (VI.And, omni_sp, omni_sp, r_data_mask));
      emit e Machine.Sfi (Alu (VI.Or, omni_sp, omni_sp, r_data_base))
  | Omni_sfi.Policy.Guard -> emit e Machine.Sfi (Guard_data omni_sp)

(* Does this OmniVM instruction leave sp safe without re-sandboxing? *)
let sp_write_safe t (ins : int VI.t) =
  match ins with
  | VI.Binopi ((VI.Add | VI.Sub), rd, rs, imm)
    when rd = Omnivm.Reg.sp && rs = Omnivm.Reg.sp && abs imm < guard_bound t ->
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

(* --- branches --- *)

(* Negate-for-swap helpers live in Omnivm.Instr. Branch label operands hold
   OMNI INSTRUCTION INDICES during chunk construction; they are patched to
   native indices at the end. *)

let omni_index_of_addr addr =
  let off = addr - L.code_base in
  if off < 0 || off land 3 <> 0 then None else Some (off / 4)

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

exception Translate_error of string

let terror fmt = Printf.ksprintf (fun s -> raise (Translate_error s)) fmt

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
  let target_of addr =
    match omni_index_of_addr addr with
    | Some i -> i
    | None -> terror "branch to non-code address 0x%x" addr
  in
  (match ins with
  | VI.Nop -> emit e Machine.Core Nop
  | VI.Li (rd, v) ->
      (* addresses near the global pointer can be formed in one instr *)
      if (not (fits (eff_bits t) v))
         && use_gp t
         && fits t.cfg.imm_bits (v - gp_value t)
      then begin
        Trace.tally_count e.tally "translate.gp_uses";
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
      sfi_store t e ~base:(m base) ~disp:off ~emit_store:(fun ~core b d ->
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
      let i = pool_const e v in
      emit e Machine.Core (Fld_pool (fd, i))
  | VI.Cvt_f_i (_prec, fd, rs) -> emit e Machine.Core (Cvt_f_i (fd, m rs))
  | VI.Cvt_i_f (_prec, rd, fs) -> emit e Machine.Core (Cvt_i_f (m rd, fs))
  | VI.Cvt_d_s (fd, fs) -> emit e Machine.Core (Cvt_d_s (fd, fs))
  | VI.Cvt_s_d (fd, fs) -> emit e Machine.Core (Cvt_s_d (fd, fs))
  | VI.Br (c, a, b, addr) -> translate_branch t e c a b (target_of addr)
  | VI.Bri (c, a, imm, addr) ->
      translate_branch_imm t e c a imm (target_of addr)
  | VI.J addr -> emit e Machine.Core (J (target_of addr))
  | VI.Jal addr -> emit e Machine.Core (Call (target_of addr, ret_addr))
  | VI.Jr rs ->
      let tr = sfi_code_target t e (m rs) in
      emit e Machine.Core (Jmp_ind tr)
  | VI.Jalr (rd, rs) ->
      if rd = Omnivm.Reg.ra then begin
        let tr = sfi_code_target t e (m rs) in
        emit e Machine.Core (Call_ind (tr, ret_addr))
      end
      else begin
        (* unusual link register: save/restore ra around the call *)
        emit e Machine.Addr (Alui (VI.Add, r_scratch2, omni_ra, 0));
        let tr = sfi_code_target t e (m rs) in
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
      let mask = (1 lsl (8 * len)) - 1 in
      mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi r_scratch1
        (lnot (mask lsl (8 * pos)));
      emit e Machine.Addr (Alu (VI.And, m rd, m rd, r_scratch1));
      mat_imm t e ~hi_origin:Machine.Ldi ~last_origin:Machine.Ldi r_scratch1
        mask;
      emit e Machine.Addr (Alu (VI.And, r_scratch1, m rs, r_scratch1));
      if pos > 0 then
        emit e Machine.Addr (Alui (VI.Sll, r_scratch1, r_scratch1, 8 * pos));
      emit e Machine.Core (Alu (VI.Or, m rd, m rd, r_scratch1))
  | VI.Hcall n -> emit e Machine.Core (Hcall n)
  | VI.Trap n -> emit e Machine.Core (Trapi n));
  (* sp safety invariant *)
  if writes_sp ins && not (sp_write_safe t ins) then resandbox_sp t e;
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
   compared register nor the condition register is touched in between. *)
let apply_record_forms (slots : slot list) : slot list =
  let arr = Array.of_list slots in
  let n = Array.length arr in
  let writes_reg r i =
    Pipeline.mem r (Pipeline.cost_defs (cost_of ppc_cfg i))
  in
  let touches_cc i =
    let w = cost_of ppc_cfg i in
    Pipeline.mem cc_id (Pipeline.cost_defs w)
    || Pipeline.mem cc_id (Pipeline.cost_uses w)
  in
  let drop = Array.make n false in
  for j = 0 to n - 1 do
    match arr.(j).i with
    | Cmpi (rc, 0) when j + 1 < n ->
        (* only when a conditional branch consumes it next *)
        (match arr.(j + 1).i with
        | Br_cc _ ->
            let rec back k =
              if k < 0 then ()
              else
                match arr.(k).i with
                | Alu (op, rd, ra, rb) when rd = rc && record_form_ok op ->
                    arr.(k) <- { (arr.(k)) with i = Alu_record (op, rd, ra, rb) };
                    drop.(j) <- true
                | i when writes_reg rc i || touches_cc i -> ()
                | _ -> back (k - 1)
            in
            back (j - 1)
        | _ -> ())
    | _ -> ()
  done;
  let out = ref [] in
  for j = n - 1 downto 0 do
    if not drop.(j) then out := arr.(j) :: !out
  done;
  !out

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
  | Hcall _ | Guard_data _ | Guard_code _ | Trapi _ -> true
  | _ -> false

(* A static slot to seed arrays with (see [Machine.array_of_list]). *)
let placeholder = { i = Nop; origin = Machine.Bnop; annul = false }

let sched_info cfg : slot Sched.info =
  {
    Sched.cost = (fun s -> cost_of cfg s.i);
    is_barrier = is_barrier_slot;
  }

let translate (t : tconfig) (exe : Omnivm.Exe.t) : program =
  let text = exe.Omnivm.Exe.text in
  let n = Array.length text in
  let lead = leaders exe in
  let decl = Machine.new_sfi_decl () in
  let tally = Trace.tally () in
  let pool = { slots = []; pool = []; pool_n = 0; decl; tally } in
  (* chunk per omni instruction; the constant pool threads through *)
  let chunks = Array.make n [] in
  for i = 0 to n - 1 do
    if lead.(i) then t.sfi_cache <- None;
    let e =
      { slots = []; pool = pool.pool; pool_n = pool.pool_n; decl; tally }
    in
    translate_instr t e ~idx:i text.(i);
    pool.pool <- e.pool;
    pool.pool_n <- e.pool_n;
    chunks.(i) <- List.rev e.slots
  done;
  (* group into blocks of omni indices *)
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
  (* process each block: peephole, schedule, delay slots *)
  let quality =
    match t.mode with
    | Machine.Native Machine.Cc -> Sched.Critical_path
    | _ -> Sched.Greedy
  in
  let sched = Sched.create (sched_info t.cfg) in
  let out = ref [] in
  let out_n = ref 0 in
  let addr_map = Array.make n (-1) in
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
            if t.opts.Machine.peephole && t.cfg.branch_model = Cond_reg then
              match t.mode with
              | Machine.Native Machine.Cc ->
                  let before = List.length slots in
                  let slots' =
                    Trace.tally_time tally "pass.peephole" (fun () ->
                        apply_record_forms slots)
                  in
                  Trace.tally_count tally ~by:(before - List.length slots')
                    "translate.peephole_folds";
                  slots'
              | _ -> slots
            else slots
          in
          (* split body / trailing control *)
          let rec split acc = function
            | [ s ] when is_control s.i -> (List.rev acc, Some s)
            | [] -> (List.rev acc, None)
            | s :: rest -> split (s :: acc) rest
          in
          let body, ctrl = split [] slots in
          let body = Machine.array_of_list ~dummy:placeholder body in
          let body =
            if t.opts.Machine.schedule then
              Trace.tally_time tally "pass.schedule" (fun () ->
                  Sched.schedule_body sched ~quality body)
            else body
          in
          (match ctrl with
          | None -> Array.iter emit_out body
          | Some c ->
              if t.cfg.has_delay_slot then begin
                let body, filler =
                  if t.opts.Machine.fill_delay_slots then
                    Trace.tally_time tally "pass.delay_slot" (fun () ->
                        Sched.fill_delay_slot sched
                          ~branch_cost:(cost_of t.cfg c.i) body)
                  else (body, None)
                in
                Array.iter emit_out body;
                emit_out c;
                match filler with
                | Some f ->
                    Trace.tally_count tally "translate.delay_slots_filled";
                    emit_out f
                | None ->
                    Trace.tally_count tally "translate.delay_slot_nops";
                    emit_out (mk Machine.Bnop Nop)
              end
              else begin
                Array.iter emit_out body;
                emit_out c
              end))
    blocks;
  Trace.flush tally;
  let code = Machine.array_of_list ~dummy:placeholder (List.rev !out) in
  (* patch branch targets: omni index -> native index *)
  let patch_target i =
    if i < 0 || i >= n || addr_map.(i) < 0 then
      terror "branch targets non-leader omni instruction %d" i
    else addr_map.(i)
  in
  Array.iteri
    (fun idx s ->
      let i' =
        match s.i with
        | Br_cc (c, l) -> Br_cc (c, patch_target l)
        | Br_cmp (c, a, b, l) -> Br_cmp (c, a, b, patch_target l)
        | Fbr (f, l) -> Fbr (f, patch_target l)
        | J l -> J (patch_target l)
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
  {
    cfg = t.cfg;
    code;
    entry;
    addr_map;
    pool = Array.of_list (List.rev pool.pool);
    n_omni = n;
    decl;
  }

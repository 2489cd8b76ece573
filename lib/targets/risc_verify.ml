(* SFI verification adapter for the RISC targets: one linear scan that
   summarizes each slot of translated code as an abstract event and has
   [Omni_sfi.Verifier] judge it on the spot.

   This is the load-time check a distrustful host can run over translated
   code before executing it. The dedicated registers may be used as address
   scratch, so the check is a small state machine per dedicated register:

     Dirty --(and reg, x, segment_mask)--> Masked
     Masked --(or reg, reg, segment_base)--> Boxed
     any other write --> Dirty

   A plain store through the data-dedicated register requires Boxed; the
   PowerPC indexed form [st rv, base_reg(dedicated)] requires exactly
   Masked (base comes from the reserved base register). Indirect branches
   through the code-dedicated register require Boxed. Because translated
   control flow can only enter at instruction-chunk leaders (enforced
   dynamically by the address map), the linear scan is sound.

   The scan stops at the first failure, builds no per-slot event array,
   and pushes each obligation as it is found; [verify] is the same scan
   with the witness dropped. *)

open Risc
module V = Omni_sfi.Verifier

(* Dedicated-register states, as plain ints. *)
let dirty = 0
let masked_data = 1
let masked_code = 2
let boxed_data = 3
let boxed_code = 4

type state = {
  mutable sd : int;
  mutable sc : int;
  mutable scratch_known : bool;
  mutable scratch_const : int;
      (* known constant in the translator scratch register (from lui):
         lets the scan prove statically-safe absolute stores to globals *)
  mutable reset_after : int;
      (* on delay-slot architectures, the slot after which state resets *)
}

(* State of dedicated register [r]; -1 if [r] is not dedicated. *)
let ded st r =
  if r = r_sfi_data then st.sd else if r = r_sfi_code then st.sc else -1

let set st r v =
  if r = r_sfi_data then st.sd <- v else if r = r_sfi_code then st.sc <- v

let dedicated r = r = r_sfi_data || r = r_sfi_code

let reset st =
  st.sd <- dirty;
  st.sc <- dirty;
  st.scratch_known <- false

(* The integer register an instruction writes as a data destination; -1
   if none. Calls and host calls write fixed registers the scan does not
   track. *)
let dest = function
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Alu_record (_, rd, _, _)
  | Lui (rd, _) | Load (_, _, rd, _, _) | Load_x (_, _, rd, _, _)
  | Cvt_i_f (rd, _) | Fcc_to_reg rd | Cc_to_reg (_, rd) ->
      rd
  | Store _ | Store_x _ | Fload _ | Fstore _ | Fload_s _ | Fstore_s _
  | Fload_x _ | Fstore_x _ | Fld_pool _ | Fop _ | Fun1 _ | Fcmp _
  | Cvt_f_i _ | Cvt_d_s _ | Cvt_s_d _ | Cmp _ | Cmpi _ | Br_cc _ | Br_cmp _
  | Fbr _ | J _ | Call _ | Call_ind _ | Jmp_ind _ | Guard_data _
  | Guard_code _ | Trapi _ | Hcall _ | Nop ->
      -1

(* The sp-clobber exception: the translator re-sandboxes sp right after an
   arbitrary write, as [and sp,sp,dm; or sp,sp,db] or [guardd sp]. *)
let resandboxed code i =
  let n = Array.length code in
  (i + 2 < n
  && (match (code.(i + 1).i, code.(i + 2).i) with
     | Alu (Omnivm.Instr.And, a, _, m), Alu (Omnivm.Instr.Or, b, _, base) ->
         a = omni_sp && m = r_data_mask && b = omni_sp && base = r_data_base
     | _ -> false))
  || (i + 1 < n
     && match code.(i + 1).i with Guard_data r -> r = omni_sp | _ -> false)

(* The event of slot [i], updating the state past it. *)
let step st (p : program) i : V.event =
  let ins = p.code.(i).i in
  let rd = dest ins in
  (* track the scratch register's constant value for absolute addressing *)
  (match ins with
  | Lui (r, v) when r = r_scratch1 ->
      st.scratch_known <- true;
      st.scratch_const <- v
  | _ -> if rd = r_scratch1 then st.scratch_known <- false);
  let ev =
    match ins with
    (* masking: enters Masked *)
    | Alu (Omnivm.Instr.And, r, _, m) when dedicated r && m = r_data_mask ->
        set st r masked_data;
        V.Sandbox_data_mask
    | Alu (Omnivm.Instr.And, r, _, m) when dedicated r && m = r_code_mask ->
        set st r masked_code;
        V.Sandbox_code_mask
    (* boxing: Masked -> Boxed *)
    | Alu (Omnivm.Instr.Or, r, rs, rb) when dedicated r && rs = r ->
        let s = ded st r in
        if s = masked_data && rb = r_data_base then begin
          set st r boxed_data;
          V.Sandbox_data_box
        end
        else if s = masked_code && rb = r_code_base then begin
          set st r boxed_code;
          V.Sandbox_code_box
        end
        else begin
          set st r dirty;
          V.Neutral
        end
    (* any other write to a dedicated register: address staging, fine,
       but the register becomes dirty *)
    | _ when dedicated rd ->
        set st rd dirty;
        V.Neutral
    (* the stack-pointer invariant *)
    | Alui ((Omnivm.Instr.Add | Omnivm.Instr.Sub), r, rs, k)
      when r = omni_sp && rs = omni_sp ->
        V.Sp_adjust_const k
    | Alu (Omnivm.Instr.And, r, _, m) when r = omni_sp && m = r_data_mask ->
        V.Neutral (* first half of an sp re-sandbox *)
    | Alu (Omnivm.Instr.Or, r, rs, rb)
      when r = omni_sp && rs = omni_sp && rb = r_data_base ->
        V.Neutral
    | _ when rd = omni_sp ->
        (* unsafe sp write: only acceptable if immediately re-sandboxed *)
        if resandboxed p.code i then V.Sp_resandboxed
        else V.Sp_clobber (string_of_instr ins)
    (* the scratch register receiving a known constant is a positive fact
       (it licenses lui-based absolute stores), so it carries an event *)
    | Lui (r, _) when r = r_scratch1 -> V.Lui_const
    (* stores *)
    | Store (_, _, base, disp) | Fstore (_, base, disp) | Fstore_s (_, base, disp)
      ->
        let s = ded st base in
        if s = boxed_data then V.Store_via_dedicated { disp }
        else if s >= 0 then V.Store_unsafe (string_of_instr ins)
        else if base = omni_sp then V.Store_via_sp { disp }
        else if base = r_zero && Omnivm.Layout.in_data disp then V.Store_abs
        else if base = r_gp then V.Store_gp
          (* gp is a reserved in-segment constant *)
        else if
          base = r_scratch1 && st.scratch_known
          && Omnivm.Layout.in_data (st.scratch_const + disp)
        then V.Store_via_lui (* lui-based absolute store to a known global *)
        else V.Store_unsafe (string_of_instr ins)
    | Store_x (_, _, b1, b2) | Fstore_x (_, b1, b2) ->
        if b1 = r_data_base && ded st b2 = masked_data then V.Store_indexed
        else V.Store_unsafe (string_of_instr ins)
    (* indirect control flow *)
    | Jmp_ind r | Call_ind (r, _) ->
        if ded st r = boxed_code then V.Jump_via_dedicated
        else V.Jump_unsafe (string_of_instr ins)
    | _ -> V.Neutral
  in
  (* At control-flow boundaries all state resets (a conservative join).
     On delay-slot architectures the reset happens after the delay slot,
     which logically belongs before its branch. *)
  if st.reset_after = i then reset st;
  if is_control ins then
    if p.cfg.has_delay_slot then st.reset_after <- i + 1 else reset st;
  ev

let scan ?max_disp ~witness (p : program) =
  let st =
    { sd = dirty; sc = dirty; scratch_known = false; scratch_const = 0;
      reset_after = -1 }
  in
  V.scan ?max_disp ~witness (Array.length p.code) (step st p)

(* Verify a translated program satisfies the SFI invariants. Note: this
   only makes sense for code translated in Sandbox mode; Guard-mode checks
   and unprotected native code will (correctly) fail. *)
let verify ?max_disp (p : program) : (unit, V.failure) result =
  Result.map ignore (scan ?max_disp ~witness:false p)

(* Certifying verification: the same scan, but on acceptance it returns
   the safety obligations as a witness. The translator's declared masking
   counts are cross-checked downstream (Omni_cert.Check), tying the
   witness to what the translator actually laid down. *)
let certify ?max_disp (p : program) :
    (Omni_sfi.Witness.obligation array, V.failure) result =
  scan ?max_disp ~witness:true p

(* SFI verification adapter for the x86 target: one linear scan that
   summarizes each slot as an abstract event and has
   [Omni_sfi.Verifier] judge it on the spot (see Risc_verify).

   x86 sandboxing uses immediate masks through the eax scratch register:

       lea/mov eax, <address> ; and eax, data_mask ; or eax, data_base ;
       mov [eax], src

   so the state machine tracks eax: Dirty -> Masked (and with a segment
   mask immediate) -> Boxed (or with the matching base immediate). Stores
   through [eax] require Boxed-data; indirect branches through eax require
   Boxed-code. Absolute stores to in-segment constants (globals and the
   reserved register-home area) and small esp-relative stores are
   statically safe. State resets at control-flow instructions. *)

open X86
module V = Omni_sfi.Verifier
module L = Omnivm.Layout

(* eax states, as plain ints *)
let dirty = 0
let masked_data = 1
let masked_code = 2
let boxed_data = 3
let boxed_code = 4

let code_mask_imm = L.code_mask land lnot 3

(* The integer registers [i] writes, as a bit set: [X86.cost_of]'s defs
   restricted to the eight GPRs. A copy of its own, as [Omni_cert.Check]
   keeps one, so the two checks share no code with the cost model. *)
let int_defs (i : instr) =
  match i with
  | Mov (R d, _) | Load (_, _, d, _) | Alu (_, R d, _) | Shift (_, R d, _)
  | Shiftv (_, R d, _) | Imul (d, _) | Lea (d, _) | Setcc (_, d)
  | Fcc_to_reg d | Cvt_i_f (d, _) ->
      1 lsl d
  | Idiv _ -> (1 lsl eax) lor (1 lsl edx)
  | Cdq -> 1 lsl edx
  | Call _ | Call_ind _ -> 1 lsl ebp
  | Hcall _ -> 1 lsl ecx
  | Mov ((M _ | I _), _) | Store _ | Alu (_, (M _ | I _), _)
  | Shift (_, (M _ | I _), _) | Shiftv (_, (M _ | I _), _) | Cmp _ | Jcc _
  | Jmp _ | Jmp_ind _ | Fop _ | Fun1 _ | Fload _ | Fstore _ | Fld_pool _
  | Fcmp _ | Cvt_f_i _ | Guard_data _ | Guard_code _ | Trapi _ | Nop ->
      0

(* Neutralize sp-clobbers that are immediately re-sandboxed. *)
let resandboxed code i =
  let n = Array.length code in
  (i + 2 < n
  && (match (code.(i + 1).i, code.(i + 2).i) with
     | Alu (And, R a, I m), Alu (Or, R b, I bs) ->
         a = esp && m = L.data_mask && b = esp && bs = L.data_base
     | _ -> false))
  || (i + 1 < n
     && match code.(i + 1).i with Guard_data r -> r = esp | _ -> false)

(* The event of slot [i], updating the eax state past it. *)
let step eax_state code i : V.event =
  let ins = code.(i).i in
  let defs = int_defs ins in
  let event =
    match ins with
    | Alu (And, R r, I m) when r = eax ->
        if m = L.data_mask then begin
          eax_state := masked_data;
          V.Sandbox_data_mask
        end
        else if m = code_mask_imm then begin
          eax_state := masked_code;
          V.Sandbox_code_mask
        end
        else begin
          eax_state := dirty;
          V.Neutral
        end
    | Alu (Or, R r, I b) when r = eax ->
        if !eax_state = masked_data && b = L.data_base then begin
          eax_state := boxed_data;
          V.Sandbox_data_box
        end
        else if !eax_state = masked_code && b = L.code_base then begin
          eax_state := boxed_code;
          V.Sandbox_code_box
        end
        else begin
          eax_state := dirty;
          V.Neutral
        end
    (* esp discipline *)
    | Alu ((Add | Sub), R r, I k) when r = esp -> V.Sp_adjust_const k
    | Alu (And, R r, I m) when r = esp && m = L.data_mask -> V.Neutral
    | Alu (Or, R r, I b) when r = esp && b = L.data_base -> V.Neutral
    | _ when defs land (1 lsl esp) <> 0 && not (is_control ins) ->
        if resandboxed code i then V.Sp_resandboxed
        else V.Sp_clobber (string_of_instr ins)
    (* stores *)
    | Mov (M m, _) | Store (_, m, _) | Fstore (_, _, m) -> (
        match (m.base, m.index) with
        | None, None when L.in_data m.disp -> V.Store_abs
        | Some r, None when r = esp -> V.Store_via_sp { disp = m.disp }
        | Some r, None when r = eax && !eax_state = boxed_data ->
            V.Store_via_dedicated { disp = m.disp }
        | _ -> V.Store_unsafe (string_of_instr ins))
    | Alu (_, M m, _) | Shift (_, M m, _) | Shiftv (_, M m, _) -> (
        (* read-modify-write memory operands *)
        match (m.base, m.index) with
        | None, None when L.in_data m.disp -> V.Store_abs
        | Some r, None when r = esp -> V.Store_via_sp { disp = m.disp }
        | _ -> V.Store_unsafe (string_of_instr ins))
    (* indirect control flow *)
    | Jmp_ind x | Call_ind (x, _) -> (
        match x with
        | R r when r = eax && !eax_state = boxed_code -> V.Jump_via_dedicated
        | _ -> V.Jump_unsafe (string_of_instr ins))
    | _ -> V.Neutral
  in
  (* any other write to eax dirties it *)
  (match ins with
  | Alu ((And | Or), R r, I _) when r = eax -> ()
  | _ -> if defs land (1 lsl eax) <> 0 then eax_state := dirty);
  if is_control ins then eax_state := dirty;
  event

let scan ?max_disp ~witness (p : program) =
  V.scan ?max_disp ~witness (Array.length p.code) (step (ref dirty) p.code)

let verify ?max_disp (p : program) : (unit, V.failure) result =
  Result.map ignore (scan ?max_disp ~witness:false p)

(* Certifying verification: the same scan, returning the obligations the
   accepted stream established (see Risc_verify.certify). *)
let certify ?max_disp (p : program) :
    (Omni_sfi.Witness.obligation array, V.failure) result =
  scan ?max_disp ~witness:true p

(* SFI verification adapter for the x86 target.

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

type seg = Seg_data | Seg_code

type ded = Dirty | Masked of seg | Boxed of seg

let code_mask_imm = L.code_mask land lnot 3

let summarize_instr (eax_state : ded ref) (i : instr) : V.event =
  (* the resources [i] writes, read once for both the esp and eax tests *)
  let defs = Pipeline.cost_defs (cost_of i) in
  let event =
    match i with
    | Alu (And, R r, I m) when r = eax ->
        if m = L.data_mask then begin
          eax_state := Masked Seg_data;
          V.Sandbox_data_mask
        end
        else if m = code_mask_imm then begin
          eax_state := Masked Seg_code;
          V.Sandbox_code_mask
        end
        else begin
          eax_state := Dirty;
          V.Neutral
        end
    | Alu (Or, R r, I b) when r = eax -> (
        match !eax_state with
        | Masked Seg_data when b = L.data_base ->
            eax_state := Boxed Seg_data;
            V.Sandbox_data_box
        | Masked Seg_code when b = L.code_base ->
            eax_state := Boxed Seg_code;
            V.Sandbox_code_box
        | _ ->
            eax_state := Dirty;
            V.Neutral)
    (* esp discipline *)
    | Alu ((Add | Sub), R r, I k) when r = esp -> V.Sp_adjust_const k
    | Alu (And, R r, I m) when r = esp && m = L.data_mask -> V.Neutral
    | Alu (Or, R r, I b) when r = esp && b = L.data_base -> V.Neutral
    | i when Pipeline.mem esp defs && not (is_control i) ->
        V.Sp_clobber (string_of_instr i)
    (* stores *)
    | Mov (M m, _) | Store (_, m, _) | Fstore (_, _, m) -> (
        match (m.base, m.index) with
        | None, None when L.in_data m.disp -> V.Store_abs
        | Some r, None when r = esp ->
            V.Store_via_sp { disp = m.disp }
        | Some r, None when r = eax -> (
            match !eax_state with
            | Boxed Seg_data -> V.Store_via_dedicated { disp = m.disp }
            | _ -> V.Store_unsafe (string_of_instr i))
        | _ -> V.Store_unsafe (string_of_instr i))
    | Alu (_, M m, _) | Shift (_, M m, _) | Shiftv (_, M m, _) -> (
        (* read-modify-write memory operands *)
        match (m.base, m.index) with
        | None, None when L.in_data m.disp -> V.Store_abs
        | Some r, None when r = esp -> V.Store_via_sp { disp = m.disp }
        | _ -> V.Store_unsafe (string_of_instr i))
    (* indirect control flow *)
    | Jmp_ind x | Call_ind (x, _) -> (
        match x with
        | R r when r = eax && !eax_state = Boxed Seg_code ->
            V.Jump_via_dedicated
        | _ -> V.Jump_unsafe (string_of_instr i))
    | Guard_data _ | Guard_code _ -> V.Neutral
    | _ -> V.Neutral
  in
  (* any other write to eax dirties it *)
  (match i with
  | Alu ((And | Or), R r, I _) when r = eax -> ()
  | _ when Pipeline.mem eax defs -> eax_state := Dirty
  | _ -> ());
  if is_control i then eax_state := Dirty;
  event

(* Neutralize sp-clobbers that are immediately re-sandboxed. *)
let summarize (p : program) : V.event array =
  let eax_state = ref Dirty in
  let events =
    Array.map (fun (s : slot) -> summarize_instr eax_state s.i) p.code
  in
  Array.iteri
    (fun i e ->
      match e with
      | V.Sp_clobber _
        when i + 2 < Array.length events
             && (match (p.code.(i + 1).i, p.code.(i + 2).i) with
                | Alu (And, R a, I m), Alu (Or, R b, I bs) ->
                    a = esp && m = L.data_mask && b = esp && bs = L.data_base
                | _ -> false) ->
          events.(i) <- V.Sp_resandboxed
      | V.Sp_clobber _
        when i + 1 < Array.length events
             && (match p.code.(i + 1).i with
                | Guard_data r -> r = esp
                | _ -> false) ->
          events.(i) <- V.Sp_resandboxed
      | _ -> ())
    events;
  events

let verify ?max_disp (p : program) = V.verify ?max_disp (summarize p)

(* Certifying verification: the same scan, returning the obligations the
   accepted stream established (see Risc_verify.certify). *)
let certify ?max_disp (p : program) :
    (Omni_sfi.Witness.obligation array, V.failure) result =
  V.certify ?max_disp (summarize p)

(* The witness checker: the small, independent half of proof-carrying
   translation.

   [check] validates a certificate against translated code in ONE linear
   pass ([check_risc] or [check_x86], by target family). The discipline
   that keeps the checker honest:

   - Obligations are payload-free claims; every fact is re-read from the
     instruction at the claimed index, so a witness cannot assert
     anything the code does not exhibit.
   - Instructions not covered by an obligation must pass a shallow
     harmless test: anything that stores, branches indirectly, or writes
     the stack pointer demands an obligation; uncovered writes merely
     dirty the checker's register state (conservative, never permissive).
   - The checker mirrors the full verifier's conservative control-flow
     joins (state killed at control, after the delay slot on delay-slot
     architectures) via kill barriers: each state value remembers where
     it was established, each control transfer schedules a kill point,
     and a read is live only if no kill point separates it from its
     establishment — so it accepts no path the verifier would question.
   - The translator's declared masking counts are cross-checked against
     the witness, so a witness that omits masking claims — or a producer
     that drifts from the translators — is caught structurally.

   Soundness invariant: [check cert p = Ok ()] implies the full
   verifier accepts [p]. The checker is cheaper because it replays
   *decisions* (one comparison chain per instruction) instead of
   re-deriving them: no event array, no attribute/def-use lists, no
   string formatting — no allocation at all on the accept path.

   Unlike the verifier, nothing here is generic over a target adapter:
   deliberately small, independent code is the trusted base. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Witness = Omni_sfi.Witness
module Policy = Omni_sfi.Policy
module Fnv64 = Omni_util.Fnv64
module L = Omnivm.Layout
module R = Omni_targets.Risc
module X = Omni_targets.X86
module VI = Omnivm.Instr

type error =
  | Not_sandbox  (** certificates only exist for Sandbox-mode translations *)
  | Arch_mismatch of { expected : Arch.t; got : Arch.t }
  | Module_digest_mismatch
  | Code_fingerprint_mismatch
  | Opts_mismatch
  | Pad_mismatch of { expected : Policy.pad; got : Policy.pad }
  | Layout_mismatch
  | Length_mismatch of { expected : int; got : int }
  | Obligation_out_of_range of { ox : int }
  | Obligation_disorder of { ox : int }
  | Obligation_mismatch of { ox : int; kind : Witness.kind }
  | Uncovered_unsafe of { ox : int }
  | Count_mismatch of { seg : string; declared : int; witnessed : int }

let error_to_string = function
  | Not_sandbox -> "certificate applies only to Sandbox-mode translations"
  | Arch_mismatch { expected; got } ->
      Printf.sprintf "architecture mismatch: certificate is for %s, code is %s"
        (Arch.name got) (Arch.name expected)
  | Module_digest_mismatch -> "module digest mismatch"
  | Code_fingerprint_mismatch -> "translated-code fingerprint mismatch"
  | Opts_mismatch -> "translator options or SFI policy mismatch"
  | Pad_mismatch { expected; got } ->
      Printf.sprintf
        "SFI padding-mode mismatch: certificate is for %s, policy wants %s"
        (Policy.pad_name got) (Policy.pad_name expected)
  | Layout_mismatch -> "sandbox layout (base/mask) mismatch"
  | Length_mismatch { expected; got } ->
      Printf.sprintf "instruction count mismatch: certificate %d, code %d" got
        expected
  | Obligation_out_of_range { ox } ->
      Printf.sprintf "obligation index %d out of range" ox
  | Obligation_disorder { ox } ->
      Printf.sprintf "obligations out of order at index %d" ox
  | Obligation_mismatch { ox; kind } ->
      Printf.sprintf "instruction %d does not discharge obligation %s" ox
        (Witness.kind_name kind)
  | Uncovered_unsafe { ox } ->
      Printf.sprintf "instruction %d is unsafe and carries no obligation" ox
  | Count_mismatch { seg; declared; witnessed } ->
      Printf.sprintf
        "%s masking count mismatch: translator declared %d, witness has %d"
        seg declared witnessed

exception Reject of error

let reject e = raise (Reject e)

(* --- binding: does this certificate speak about this translation? --- *)

let bind (c : Certificate.t) ~(module_digest : Fnv64.t) ~(arch : Arch.t)
    ~(mode : Machine.mode) ~(opts : Machine.topts) ~(code_fp : Fnv64.t) :
    (unit, error) result =
  match mode with
  | Machine.Native _ -> Error Not_sandbox
  | Machine.Mobile p ->
      if p.Policy.mode <> Policy.Sandbox then Error Not_sandbox
      else if c.Certificate.arch <> arch then
        Error (Arch_mismatch { expected = arch; got = c.Certificate.arch })
      else if not (Fnv64.equal c.Certificate.module_digest module_digest) then
        Error Module_digest_mismatch
      else if not (Fnv64.equal c.Certificate.code_fp code_fp) then
        Error Code_fingerprint_mismatch
      else if
        c.Certificate.opts <> opts
        || c.Certificate.protect_reads <> p.Policy.protect_reads
      then Error Opts_mismatch
      else if c.Certificate.pad <> p.Policy.pad then
        Error
          (Pad_mismatch { expected = p.Policy.pad; got = c.Certificate.pad })
      else if
        c.Certificate.data_base <> L.data_base
        || c.Certificate.data_mask <> L.data_mask
        || c.Certificate.code_base <> L.code_base
        || c.Certificate.code_mask <> L.code_mask
      then Error Layout_mismatch
      else Ok ()

(* Obligation arrays from [Certificate.decode] are strictly increasing and
   in range by construction; hand-built ones (tests, adversaries calling
   the checker directly) are caught by the main scan's per-obligation
   bounds test and re-diagnosed here for the precise error. *)
let check_order (obs : Witness.obligation array) (n_code : int) =
  let prev = ref (-1) in
  Array.iter
    (fun (ob : Witness.obligation) ->
      let ox = ob.Witness.ox in
      if ox < 0 || ox >= n_code then reject (Obligation_out_of_range { ox });
      if ox <= !prev then reject (Obligation_disorder { ox });
      prev := ox)
    obs

(* The mask counts are accumulated by the main scan (no separate pass)
   and cross-checked against the translator's declaration here. *)
let check_counts (decl : Machine.sfi_decl) ~data_masks ~code_masks =
  if data_masks <> decl.Machine.data_masks then
    reject
      (Count_mismatch
         { seg = "data";
           declared = decl.Machine.data_masks;
           witnessed = data_masks });
  if code_masks <> decl.Machine.code_masks then
    reject
      (Count_mismatch
         { seg = "code";
           declared = decl.Machine.code_masks;
           witnessed = code_masks })

(* Dedicated/scratch register states. Plain ints: no allocation. *)
let dirty = 0
let masked_d = 1
let masked_c = 2
let boxed_d = 3
let boxed_c = 4

let no_const = min_int

(* --- RISC (mips / sparc / ppc) --- *)

(* Destination integer register of an instruction; -1 if none. Mirrors
   [Risc.cost_of] defs restricted to the integer file. *)
let risc_dest (i : R.instr) : int =
  match i with
  | R.Alu (_, rd, _, _)
  | R.Alui (_, rd, _, _)
  | R.Alu_record (_, rd, _, _)
  | R.Lui (rd, _)
  | R.Load (_, _, rd, _, _)
  | R.Load_x (_, _, rd, _, _)
  | R.Cvt_i_f (rd, _)
  | R.Fcc_to_reg rd
  | R.Cc_to_reg (_, rd) ->
      rd
  | R.Call (_, _) | R.Call_ind (_, _) -> R.omni_ra
  | R.Hcall _ -> R.map_reg 1
  | _ -> -1

let check_risc (c : Certificate.t) (p : R.program) : (unit, error) result =
  let code = p.R.code in
  let n = Array.length code in
  try
    if c.Certificate.n_code <> n then
      reject (Length_mismatch { expected = n; got = c.Certificate.n_code });
    let obs = c.Certificate.obs in
    let nobs = Array.length obs in
    let max_disp = Policy.guard_zone_of_pad c.Certificate.pad in
    (* Cross-module register constants hoisted into locals: without
       flambda every [R.r_*] reference is a load from the module block,
       and the loop below touches several per instruction. *)
    let sp = R.omni_sp in
    let reg_d = R.r_sfi_data and reg_c = R.r_sfi_code in
    let mask_d = R.r_data_mask and base_d = R.r_data_base in
    let mask_c = R.r_code_mask and base_c = R.r_code_base in
    let scratch = R.r_scratch1 in
    let rzero = R.r_zero and rgp = R.r_gp in
    let sd = ref dirty and sc = ref dirty in
    let sd_at = ref 0 and sc_at = ref 0 in
    let lui = ref no_const in
    let lui_at = ref 0 in
    (* mask counts, accumulated in the covered arms below instead of a
       separate [count_masks] pass *)
    let n_md = ref 0 and n_mc = ref 0 in
    (* Control-flow joins kill checker state, exactly as the verifier's
       reset does — but instead of a per-instruction "pending reset"
       test, each state value records the index where it was established
       ([sd_at] / [sc_at] / [lui_at]) and each control transfer at [c]
       schedules a kill point [p = c + inc] ([inc] = 1 on delay-slot
       architectures: state stays usable in the slot and dies after it).
       A value set at [a] and read at [i] is dead iff some kill point
       [p] satisfies [a <= p < i]. Kill points are scheduled in
       increasing order, and every one except the latest is [< i] at any
       read (its control sits at least two instructions back), so
       remembering the two most recent points [kb1 <= kb2] decides the
       predicate exactly:

         dead(a, i)  <=>  kb1 >= a  ||  (kb2 >= a && kb2 < i)

       This moves all join bookkeeping off the per-instruction path:
       controls update two cells, reads test two cells, and the
       (dominant) uncovered straight-line instructions pay nothing. *)
    let kb1 = ref (-1) and kb2 = ref (-1) in
    (* the register-state reads/writes are open-coded in the arms below:
       without flambda a [state]/[set] helper is an indirect closure call
       on a path taken for a third or more of the instructions *)
    (* the blessed sp re-sandbox follows instruction i *)
    let resandbox_follows i =
      (i + 2 < n
      && (match (code.(i + 1).R.i, code.(i + 2).R.i) with
         | R.Alu (VI.And, a, _, m), R.Alu (VI.Or, b, _, base) ->
             a = sp && m = mask_d && b = sp && base = base_d
         | _ -> false))
      || i + 1 < n
         && (match code.(i + 1).R.i with
            | R.Guard_data r -> r = sp
            | _ -> false)
    in
    let inc = if p.R.cfg.R.has_delay_slot then 1 else 0 in
    (* Register ids fit in a word, so one shift+mask replaces the
       four-compare chain for the (dominant) writes to ordinary
       registers; the chain only runs for the special ones. *)
    let special =
      (1 lsl sp) lor (1 lsl reg_d) lor (1 lsl reg_c) lor (1 lsl scratch)
    in
    (* The scan is driven by the witness: obligation positions are known
       up front, so each round handles one obligation — a tight inner
       loop walks the uncovered gap before it (paying no per-instruction
       "is this covered?" compare), then the covered instruction is
       matched against its claimed kind. A final sentinel round
       ([ox = n]) scans the tail gap. *)
    let pos = ref 0 in
    for j = 0 to nobs do
      let ox =
        if j < nobs then (Array.unsafe_get obs j).Witness.ox else n
      in
      if j < nobs && (ox < !pos || ox >= n) then begin
        (* out of range, out of order, or duplicate: re-scan for the
           precise error ([check_order] always finds one here) *)
        check_order obs n;
        reject (Obligation_out_of_range { ox })
      end;
      for i = !pos to ox - 1 do
        (* uncovered: must be shallowly harmless. [i < ox <= n] keeps the
           unchecked read in range. One match; the register bookkeeping
           is inlined rather than via [risc_dest] so the hot path costs a
           single constructor dispatch. *)
        match (Array.unsafe_get code i).R.i with
        | R.Store _ | R.Store_x _ | R.Fstore _ | R.Fstore_s _ | R.Fstore_x _
        | R.Jmp_ind _ | R.Call_ind _ ->
            reject (Uncovered_unsafe { ox = i })
        | R.Alu (op, rd, rs, rb) ->
            if (1 lsl rd) land special <> 0 then
              if rd = sp then (
                (* only the blessed re-sandbox halves may touch sp *)
                match op with
                | VI.And when rb = mask_d -> ()
                | VI.Or when rs = sp && rb = base_d -> ()
                | _ -> reject (Uncovered_unsafe { ox = i }))
              else if rd = reg_d then sd := dirty
              else if rd = reg_c then sc := dirty
              else lui := no_const
        | R.Alui (_, rd, _, _)
        | R.Alu_record (_, rd, _, _)
        | R.Lui (rd, _)
        | R.Load (_, _, rd, _, _)
        | R.Load_x (_, _, rd, _, _)
        | R.Cvt_i_f (rd, _)
        | R.Fcc_to_reg rd
        | R.Cc_to_reg (_, rd) ->
            if (1 lsl rd) land special <> 0 then
              if rd = sp then reject (Uncovered_unsafe { ox = i })
              else if rd = reg_d then sd := dirty
              else if rd = reg_c then sc := dirty
              else lui := no_const
        | R.Br_cc _ | R.Br_cmp _ | R.Fbr _ | R.J _ | R.Call _ ->
            kb1 := !kb2;
            kb2 := i + inc
        | _ -> () (* [Hcall]/[Guard]/[Trapi] write fixed safe registers;
                     the rest write nothing the checker tracks *)
      done;
      if j < nobs then begin
        (* covered: [ox < n] was checked above, so the unchecked reads
           are in range *)
        let i = ox in
        let kind = (Array.unsafe_get obs j).Witness.kind in
        let ins = (Array.unsafe_get code i).R.i in
        let ok =
          match kind with
          | Witness.Mask_data -> (
              match ins with
              | R.Alu (VI.And, rd, _, rm)
                when rm = mask_d && (rd = reg_d || rd = reg_c) ->
                  (if rd = reg_d then (
                     sd := masked_d;
                     sd_at := i)
                   else (
                     sc := masked_d;
                     sc_at := i));
                  incr n_md;
                  true
              | _ -> false)
          | Witness.Mask_code -> (
              match ins with
              | R.Alu (VI.And, rd, _, rm)
                when rm = mask_c && (rd = reg_d || rd = reg_c) ->
                  (if rd = reg_d then (
                     sd := masked_c;
                     sd_at := i)
                   else (
                     sc := masked_c;
                     sc_at := i));
                  incr n_mc;
                  true
              | _ -> false)
          | Witness.Box_data -> (
              match ins with
              | R.Alu (VI.Or, rd, rs, rb) when rs = rd && rb = base_d ->
                  if rd = reg_d && !sd = masked_d && !kb1 < !sd_at && (!kb2 < !sd_at || !kb2 >= i) then (
                    sd := boxed_d;
                    sd_at := i;
                    true)
                  else if rd = reg_c && !sc = masked_d && !kb1 < !sc_at && (!kb2 < !sc_at || !kb2 >= i) then (
                    sc := boxed_d;
                    sc_at := i;
                    true)
                  else false
              | _ -> false)
          | Witness.Box_code -> (
              match ins with
              | R.Alu (VI.Or, rd, rs, rb) when rs = rd && rb = base_c ->
                  if rd = reg_d && !sd = masked_c && !kb1 < !sd_at && (!kb2 < !sd_at || !kb2 >= i) then (
                    sd := boxed_c;
                    sd_at := i;
                    true)
                  else if rd = reg_c && !sc = masked_c && !kb1 < !sc_at && (!kb2 < !sc_at || !kb2 >= i) then (
                    sc := boxed_c;
                    sc_at := i;
                    true)
                  else false
              | _ -> false)
          | Witness.Store_sandboxed -> (
              match ins with
              | R.Store (_, _, b, d) | R.Fstore (_, b, d) | R.Fstore_s (_, b, d)
                ->
                  ((b = reg_d && !sd = boxed_d && !kb1 < !sd_at && (!kb2 < !sd_at || !kb2 >= i))
                  || (b = reg_c && !sc = boxed_d && !kb1 < !sc_at && (!kb2 < !sc_at || !kb2 >= i)))
                  && d > -max_disp && d < max_disp
              | _ -> false)
          | Witness.Store_indexed -> (
              match ins with
              | R.Store_x (_, _, b1, b2) | R.Fstore_x (_, b1, b2) ->
                  b1 = base_d
                  && ((b2 = reg_d && !sd = masked_d && !kb1 < !sd_at && (!kb2 < !sd_at || !kb2 >= i))
                     || (b2 = reg_c && !sc = masked_d && !kb1 < !sc_at && (!kb2 < !sc_at || !kb2 >= i)))
              | _ -> false)
          | Witness.Store_sp -> (
              match ins with
              | R.Store (_, _, b, d) | R.Fstore (_, b, d) | R.Fstore_s (_, b, d)
                ->
                  b = sp && d > -max_disp && d < max_disp
              | _ -> false)
          | Witness.Store_abs -> (
              match ins with
              | R.Store (_, _, b, d) | R.Fstore (_, b, d) | R.Fstore_s (_, b, d)
                ->
                  b = rzero && L.in_data d
              | _ -> false)
          | Witness.Store_gp -> (
              match ins with
              | R.Store (_, _, b, _) | R.Fstore (_, b, _) | R.Fstore_s (_, b, _)
                ->
                  b = rgp
              | _ -> false)
          | Witness.Lui_const -> (
              match ins with
              | R.Lui (rd, v) when rd = scratch ->
                  lui := v;
                  lui_at := i;
                  true
              | _ -> false)
          | Witness.Store_lui -> (
              match ins with
              | R.Store (_, _, b, d) | R.Fstore (_, b, d) | R.Fstore_s (_, b, d)
                ->
                  b = scratch && !lui <> no_const && !kb1 < !lui_at && (!kb2 < !lui_at || !kb2 >= i)
                  && L.in_data (!lui + d)
              | _ -> false)
          | Witness.Jump_sandboxed -> (
              match ins with
              | R.Jmp_ind r | R.Call_ind (r, _) ->
                  (r = reg_d && !sd = boxed_c && !kb1 < !sd_at && (!kb2 < !sd_at || !kb2 >= i))
                  || (r = reg_c && !sc = boxed_c && !kb1 < !sc_at && (!kb2 < !sc_at || !kb2 >= i))
              | _ -> false)
          | Witness.Sp_adjust -> (
              match ins with
              | R.Alui ((VI.Add | VI.Sub), rd, rs, kk) ->
                  rd = sp && rs = sp && abs kk < max_disp
              | _ -> false)
          | Witness.Sp_resandboxed ->
              risc_dest ins = sp && resandbox_follows i
        in
        if not ok then reject (Obligation_mismatch { ox = i; kind });
        (* the only control transfers an obligation can cover are the
           sandboxed indirect jumps *)
        if kind = Witness.Jump_sandboxed then begin
          kb1 := !kb2;
          kb2 := i + inc
        end
      end;
      pos := ox + 1
    done;
    check_counts p.R.decl ~data_masks:!n_md ~code_masks:!n_mc;
    Ok ()
  with Reject e -> Error e

(* --- x86 --- *)

(* Does [ins] write integer register [r]? Mirrors [X86.cost_of] defs. *)
let x86_writes (r : int) (ins : X.instr) : bool =
  match ins with
  | X.Mov (X.R d, _)
  | X.Load (_, _, d, _)
  | X.Lea (d, _)
  | X.Setcc (_, d)
  | X.Fcc_to_reg d
  | X.Cvt_i_f (d, _)
  | X.Imul (d, _)
  | X.Alu (_, X.R d, _)
  | X.Shift (_, X.R d, _)
  | X.Shiftv (_, X.R d, _) ->
      d = r
  | X.Idiv _ -> r = X.eax || r = X.edx
  | X.Cdq -> r = X.edx
  | X.Call _ | X.Call_ind _ -> r = X.ebp
  | X.Hcall _ -> r = X.ecx
  | _ -> false

let x86_code_mask_imm = L.code_mask land lnot 3

let check_x86 (c : Certificate.t) (p : X.program) : (unit, error) result =
  let code = p.X.code in
  let n = Array.length code in
  try
    if c.Certificate.n_code <> n then
      reject (Length_mismatch { expected = n; got = c.Certificate.n_code });
    let obs = c.Certificate.obs in
    let nobs = Array.length obs in
    let max_disp = Policy.guard_zone_of_pad c.Certificate.pad in
    (* Cross-module constants hoisted into locals (see [check_risc]) *)
    let r_eax = X.eax and r_esp = X.esp in
    let dmask = L.data_mask and dbase = L.data_base in
    let cbase = L.code_base and cmask = x86_code_mask_imm in
    let eax = ref dirty in
    let n_md = ref 0 and n_mc = ref 0 in
    let small d = d > -max_disp && d < max_disp in
    let resandbox_follows i =
      (i + 2 < n
      && (match (code.(i + 1).X.i, code.(i + 2).X.i) with
         | X.Alu (X.And, X.R a, X.I m), X.Alu (X.Or, X.R b, X.I bs) ->
             a = r_esp && m = dmask && b = r_esp && bs = dbase
         | _ -> false))
      || i + 1 < n
         && (match code.(i + 1).X.i with
            | X.Guard_data r -> r = r_esp
            | _ -> false)
    in
    (* witness-driven scan, exactly as in [check_risc]: per obligation,
       a tight gap loop then the covered match; a sentinel round scans
       the tail *)
    let pos = ref 0 in
    for j = 0 to nobs do
      let ox =
        if j < nobs then (Array.unsafe_get obs j).Witness.ox else n
      in
      if j < nobs && (ox < !pos || ox >= n) then begin
        check_order obs n;
        reject (Obligation_out_of_range { ox })
      end;
      for i = !pos to ox - 1 do
        (* uncovered: one match with the control-flow reset folded in;
           register bookkeeping inlined rather than via [x86_writes] so
           the hot path costs a single dispatch. [i < ox <= n] keeps the
           unchecked read in range. *)
        match (Array.unsafe_get code i).X.i with
        | X.Mov (X.M _, _)
        | X.Store _ | X.Fstore _
        | X.Alu (_, X.M _, _)
        | X.Shift (_, X.M _, _)
        | X.Shiftv (_, X.M _, _)
        | X.Jmp_ind _ | X.Call_ind _ ->
            reject (Uncovered_unsafe { ox = i })
        | X.Alu (op, X.R r, src) ->
            if r = r_esp then (
              (* only the blessed re-sandbox halves may touch esp *)
              match (op, src) with
              | X.And, X.I m when m = dmask -> ()
              | X.Or, X.I b when b = dbase -> ()
              | _ -> reject (Uncovered_unsafe { ox = i }))
            else if r = r_eax then eax := dirty
        | X.Mov (X.R r, _)
        | X.Load (_, _, r, _)
        | X.Lea (r, _)
        | X.Setcc (_, r)
        | X.Fcc_to_reg r
        | X.Cvt_i_f (r, _)
        | X.Imul (r, _)
        | X.Shift (_, X.R r, _)
        | X.Shiftv (_, X.R r, _) ->
            if r = r_esp then reject (Uncovered_unsafe { ox = i })
            else if r = r_eax then eax := dirty
        | X.Idiv _ -> eax := dirty
        | X.Jcc _ | X.Jmp _ | X.Call _ -> eax := dirty (* control: reset *)
        | _ -> () (* [Cdq]/[Hcall] write fixed safe registers; the rest
                     write nothing the checker tracks *)
      done;
      if j < nobs then begin
        (* covered: [ox < n] was checked above, so the unchecked reads
           are in range *)
        let i = ox in
        let kind = (Array.unsafe_get obs j).Witness.kind in
        let ins = (Array.unsafe_get code i).X.i in
        let ok =
          match kind with
          | Witness.Mask_data -> (
              match ins with
              | X.Alu (X.And, X.R r, X.I m) when r = r_eax && m = dmask ->
                  eax := masked_d;
                  incr n_md;
                  true
              | _ -> false)
          | Witness.Mask_code -> (
              match ins with
              | X.Alu (X.And, X.R r, X.I m) when r = r_eax && m = cmask ->
                  eax := masked_c;
                  incr n_mc;
                  true
              | _ -> false)
          | Witness.Box_data -> (
              match ins with
              | X.Alu (X.Or, X.R r, X.I b)
                when r = r_eax && b = dbase && !eax = masked_d ->
                  eax := boxed_d;
                  true
              | _ -> false)
          | Witness.Box_code -> (
              match ins with
              | X.Alu (X.Or, X.R r, X.I b)
                when r = r_eax && b = cbase && !eax = masked_c ->
                  eax := boxed_c;
                  true
              | _ -> false)
          | Witness.Store_sandboxed -> (
              match ins with
              | X.Mov (X.M m, _) | X.Store (_, m, _) | X.Fstore (_, _, m) -> (
                  match (m.X.base, m.X.index) with
                  | Some r, None ->
                      r = r_eax && !eax = boxed_d && small m.X.disp
                  | _ -> false)
              | _ -> false)
          | Witness.Store_sp -> (
              match ins with
              | X.Mov (X.M m, _)
              | X.Store (_, m, _)
              | X.Fstore (_, _, m)
              | X.Alu (_, X.M m, _)
              | X.Shift (_, X.M m, _)
              | X.Shiftv (_, X.M m, _) -> (
                  match (m.X.base, m.X.index) with
                  | Some r, None -> r = r_esp && small m.X.disp
                  | _ -> false)
              | _ -> false)
          | Witness.Store_abs -> (
              match ins with
              | X.Mov (X.M m, _)
              | X.Store (_, m, _)
              | X.Fstore (_, _, m)
              | X.Alu (_, X.M m, _)
              | X.Shift (_, X.M m, _)
              | X.Shiftv (_, X.M m, _) -> (
                  match (m.X.base, m.X.index) with
                  | None, None -> L.in_data m.X.disp
                  | _ -> false)
              | _ -> false)
          | Witness.Jump_sandboxed -> (
              match ins with
              | X.Jmp_ind (X.R r) | X.Call_ind (X.R r, _) ->
                  r = r_eax && !eax = boxed_c
              | _ -> false)
          | Witness.Sp_adjust -> (
              match ins with
              | X.Alu ((X.Add | X.Sub), X.R r, X.I kk) ->
                  r = r_esp && abs kk < max_disp
              | _ -> false)
          | Witness.Sp_resandboxed ->
              x86_writes X.esp ins
              && (not (X.is_control ins))
              && resandbox_follows i
          | Witness.Store_indexed | Witness.Store_gp | Witness.Lui_const
          | Witness.Store_lui ->
              false (* RISC-only claims can never hold on x86 *)
        in
        if not ok then reject (Obligation_mismatch { ox = i; kind });
        (* the only control transfers an obligation can cover are the
           sandboxed indirect jumps, after which eax state resets *)
        if kind = Witness.Jump_sandboxed then eax := dirty
      end;
      pos := ox + 1
    done;
    check_counts p.X.decl ~data_masks:!n_md ~code_masks:!n_mc;
    Ok ()
  with Reject e -> Error e

(* The one dispatch on the target family for a certificate check. *)
let check c (tr : Omni_targets.Translated.t) =
  match tr with
  | Omni_targets.Translated.T_risc p -> check_risc c p
  | Omni_targets.Translated.T_x86 p -> check_x86 c p

(* Static SFI verifier over an abstract view of translated native code.

   Each target summarizes its instructions as the events below, one
   instruction at a time inside [scan]; the verifier checks the
   Wahbe-style invariant:

   1. dedicated registers are written only by the blessed sandboxing
      sequence (so their contents always point into the proper segment,
      even between the two halves of the sequence), and
   2. every unsafe store's address and every indirect branch target is a
      dedicated register with a small displacement.

   Because the invariant is per-instruction (not per-path), a linear scan
   suffices: no control-flow analysis is needed, which is what makes
   load-time verification cheap.

   The same scan doubles as the witness producer for proof-carrying
   translation: every event that attests a positive safety fact maps to
   exactly one {!Witness.kind}, so a certifying scan returns the
   per-instruction obligation list an untrusting host can later re-check
   in one cheap pass (see {!Omni_cert.Check}). Deriving obligations from
   the verifier's own judgment of each event (rather than from a separate
   producer) keeps the witness tied to the exact facts full verification
   establishes. *)

type event =
  | Sandbox_data_mask (* dedicated := x & data_mask *)
  | Sandbox_data_box (* dedicated := dedicated | data_base (was Masked) *)
  | Sandbox_code_mask
  | Sandbox_code_box
  | Store_via_dedicated of { disp : int }
  | Store_indexed (* ppc store indexed off the reserved data base *)
  | Store_via_sp of { disp : int }
  | Store_abs (* absolute store to a constant in-segment address *)
  | Store_gp (* store through the reserved global pointer *)
  | Lui_const (* scratch := known constant (absolute-store staging) *)
  | Store_via_lui (* store via the scratch constant, landing in-segment *)
  | Store_unsafe of string
  | Jump_via_dedicated
  | Jump_unsafe of string
  | Sp_adjust_const of int (* sp := sp + small constant *)
  | Sp_resandboxed (* arbitrary sp write immediately re-sandboxed *)
  | Sp_clobber of string (* sp written from an arbitrary value, unsandboxed *)
  | Neutral

type failure = { index : int; reason : string }

(* Shared judgment: an event either fails, passes without a claim
   (Neutral), or passes by virtue of one checkable obligation. *)
let judge max_disp (i : int) (ev : event) :
    (Witness.kind option, failure) result =
  let fail reason = Error { index = i; reason } in
  match ev with
  | Sandbox_data_mask -> Ok (Some Witness.Mask_data)
  | Sandbox_data_box -> Ok (Some Witness.Box_data)
  | Sandbox_code_mask -> Ok (Some Witness.Mask_code)
  | Sandbox_code_box -> Ok (Some Witness.Box_code)
  | Store_via_dedicated { disp } ->
      (* small negative displacements fall into the guard zone below
         the segment (unmapped), which is equally safe *)
      if disp > -max_disp && disp < max_disp then
        Ok (Some Witness.Store_sandboxed)
      else fail (Printf.sprintf "store displacement %d too large" disp)
  | Store_indexed -> Ok (Some Witness.Store_indexed)
  | Store_via_sp { disp } ->
      if disp > -max_disp && disp < max_disp then Ok (Some Witness.Store_sp)
      else fail (Printf.sprintf "sp-relative displacement %d too large" disp)
  | Store_abs -> Ok (Some Witness.Store_abs)
  | Store_gp -> Ok (Some Witness.Store_gp)
  | Lui_const -> Ok (Some Witness.Lui_const)
  | Store_via_lui -> Ok (Some Witness.Store_lui)
  | Store_unsafe what -> fail (Printf.sprintf "unprotected store: %s" what)
  | Jump_via_dedicated -> Ok (Some Witness.Jump_sandboxed)
  | Jump_unsafe what ->
      fail (Printf.sprintf "unprotected indirect branch: %s" what)
  | Sp_adjust_const k ->
      if abs k < max_disp then Ok (Some Witness.Sp_adjust)
      else fail (Printf.sprintf "sp adjusted by %d (too large)" k)
  | Sp_resandboxed -> Ok (Some Witness.Sp_resandboxed)
  | Sp_clobber what ->
      fail (Printf.sprintf "sp set from arbitrary value by %s" what)
  | Neutral -> Ok None

(* [scan] calls [judge] itself: an optional argument passed on costs an
   allocation per call. *)
let classify ?(max_disp = Policy.safe_sp_disp) i ev = judge max_disp i ev

let scan ?(max_disp = Policy.safe_sp_disp) ~witness n (event : int -> event)
    : (Witness.obligation array, failure) result =
  let rec go i count obs =
    if i >= n then begin
      let a = Array.make count { Witness.ox = 0; kind = Witness.Mask_data } in
      (* [obs] is in reverse index order; fill from the back *)
      List.iteri (fun j ob -> a.(count - 1 - j) <- ob) obs;
      Ok a
    end
    else
      match judge max_disp i (event i) with
      | Ok (Some kind) when witness ->
          go (i + 1) (count + 1) ({ Witness.ox = i; kind } :: obs)
      | Ok _ -> go (i + 1) count obs
      | Error f -> Error f
  in
  go 0 0 []

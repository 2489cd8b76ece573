(** Static SFI verifier over an abstract view of translated native code.

    Each target summarizes its instructions as the events below, one at a
    time inside {!scan} (see {!Omni_targets.Risc_verify} and
    {!Omni_targets.X86_verify}); the verifier checks the Wahbe-style
    invariant: every unsafe store and indirect branch goes through a
    properly sandboxed dedicated register, stack-pointer discipline is
    maintained, and all displacements stay within the segment guard zone.

    The check is a linear scan — per-instruction, not per-path — which is
    what makes load-time verification cheap.

    The same scan is the witness producer for proof-carrying translation:
    with [~witness:true], {!scan} returns the accepted stream's
    obligations (one per event that attests a positive safety fact), in
    instruction order. *)

type event =
  | Sandbox_data_mask
      (** dedicated register masked for the data segment (enters Masked) *)
  | Sandbox_data_box
      (** dedicated register boxed with the data base (Masked -> Boxed) *)
  | Sandbox_code_mask
  | Sandbox_code_box
  | Store_via_dedicated of { disp : int }
  | Store_indexed
      (** ppc: store indexed off the reserved data-base register with a
          Masked(data) offset register *)
  | Store_via_sp of { disp : int }
  | Store_abs  (** absolute store to a constant in-segment address *)
  | Store_gp  (** store through the reserved global pointer *)
  | Lui_const  (** translator scratch register := known constant *)
  | Store_via_lui  (** store via the scratch constant, landing in-segment *)
  | Store_unsafe of string
  | Jump_via_dedicated
  | Jump_unsafe of string
  | Sp_adjust_const of int
  | Sp_resandboxed
      (** arbitrary sp write that the following instruction(s) immediately
          re-sandbox — the one blessed exception to the sp invariant *)
  | Sp_clobber of string
  | Neutral  (** no bearing on the SFI invariant *)

type failure = { index : int; reason : string }

val classify :
  ?max_disp:int -> int -> event -> (Witness.kind option, failure) result
(** The one judgment: the event of instruction [i] fails (with [i] as the
    failure's index), passes without a claim ([Neutral]), or passes by
    virtue of one checkable obligation. [max_disp] is the guard-zone
    bound displacements are checked against (default
    {!Policy.safe_sp_disp}); pass {!Policy.guard_zone} of the translation
    policy when judging code produced under [Pad_guard8]. *)

val scan :
  ?max_disp:int ->
  witness:bool ->
  int ->
  (int -> event) ->
  (Witness.obligation array, failure) result
(** [scan ~witness n event] judges instructions [0 .. n-1] in order with
    {!classify}, calling [event i] once per index, in increasing order (a
    target keeps its register state between calls), and stops at the
    first failure. With [witness] it returns the obligations of the
    accepted stream, in strictly increasing instruction order (at most
    one per instruction); without, an empty array. Both accept exactly
    the same streams. *)

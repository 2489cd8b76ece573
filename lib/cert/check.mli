(** The witness checker: validates a certificate against translated code
    in one linear, allocation-free pass.

    Soundness invariant: if {!check} accepts, the full verifier
    ({!Omni_targets.Risc_verify.verify} /
    {!Omni_targets.X86_verify.verify}) accepts the same program. The
    checker is deliberately small and shares no code with the verifier,
    so a bug in the producer cannot silently license unsafe code. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Witness = Omni_sfi.Witness

type error =
  | Not_sandbox
      (** certificates only exist for Sandbox-mode translations *)
  | Arch_mismatch of { expected : Arch.t; got : Arch.t }
  | Module_digest_mismatch
  | Code_fingerprint_mismatch
  | Opts_mismatch
  | Pad_mismatch of { expected : Omni_sfi.Policy.pad; got : Omni_sfi.Policy.pad }
      (** the certificate was minted under a different SFI padding mode *)
  | Layout_mismatch
  | Length_mismatch of { expected : int; got : int }
  | Obligation_out_of_range of { ox : int }
  | Obligation_disorder of { ox : int }
  | Obligation_mismatch of { ox : int; kind : Witness.kind }
      (** the instruction at [ox] does not discharge the claimed kind *)
  | Uncovered_unsafe of { ox : int }
      (** an instruction that demands an obligation has none *)
  | Count_mismatch of { seg : string; declared : int; witnessed : int }
      (** witness masking counts disagree with the translator's declaration *)

val error_to_string : error -> string

val bind :
  Certificate.t ->
  module_digest:Omni_util.Fnv64.t ->
  arch:Arch.t ->
  mode:Machine.mode ->
  opts:Machine.topts ->
  code_fp:Omni_util.Fnv64.t ->
  (unit, error) result
(** Does this certificate speak about this exact translation? Checks
    mode (must be Sandbox), architecture, module digest, code
    fingerprint, translator options + [protect_reads], and sandbox
    layout — everything except the per-instruction obligations. *)

val check : Certificate.t -> Omni_targets.Translated.t -> (unit, error) result
(** Validate the obligations against a translated program, RISC family
    (MIPS, SPARC, PowerPC) or x86, in one linear pass. Does NOT call
    {!bind}; callers bind first. *)

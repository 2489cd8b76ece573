(** The [omni-cert/1] witness format: a translation-safety certificate.

    A certificate carries the per-instruction safety obligations that a
    certifying verification produced ({!Omni_sfi.Verifier.scan}),
    bound to one specific translation by (module digest × architecture ×
    SFI policy × translator options × sandbox layout × code fingerprint).
    Hosts re-establish safety of cached or shipped code by the cheap
    linear check in {!Check} instead of a full re-verification.

    The binary encoding is versioned and self-delimiting with a trailing
    content digest; {!decode} is total on arbitrary bytes. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Witness = Omni_sfi.Witness

val format_name : string
(** ["omni-cert/1"]. *)

type t = {
  arch : Arch.t;
  module_digest : Omni_util.Fnv64.t;  (** digest of the module bytes *)
  code_fp : Omni_util.Fnv64.t;  (** fingerprint of the translated code *)
  protect_reads : bool;  (** SFI policy bit the witness depends on *)
  pad : Omni_sfi.Policy.pad;
      (** masking-sequence layout variant (determines the displacement
          bound the obligations were checked against); flags bits 6–7 *)
  opts : Machine.topts;  (** translator options used *)
  data_base : int;  (** sandbox layout facts the obligations reference *)
  data_mask : int;
  code_base : int;
  code_mask : int;
  n_code : int;  (** number of native instructions covered *)
  obs : Witness.obligation array;  (** strictly increasing by [ox] *)
}

val make :
  arch:Arch.t ->
  module_digest:Omni_util.Fnv64.t ->
  code_fp:Omni_util.Fnv64.t ->
  protect_reads:bool ->
  pad:Omni_sfi.Policy.pad ->
  opts:Machine.topts ->
  n_code:int ->
  Witness.obligation array ->
  t
(** Build a certificate for the ambient {!Omnivm.Layout} sandbox. *)

val equal : t -> t -> bool

val encode : t -> string

type decode_error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Bad_arch of int
  | Bad_kind of int
  | Bad_order  (** obligation indices not strictly increasing *)
  | Bad_index  (** obligation index outside the code array *)
  | Oversized  (** a varint field exceeds any plausible value *)
  | Trailing_garbage
  | Bad_self_digest

val decode_error_to_string : decode_error -> string

val decode : string -> (t, decode_error) result
(** Total on arbitrary bytes: never raises. [decode (encode c)] returns
    [Ok c] (the codec round-trips). *)

val summary : t -> string
(** One-line human-readable description (for [omnirun --cert]). *)

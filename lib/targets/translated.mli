(** A module translated for one of the targets: what the translation
    cache holds, what the journal stores, and what a certificate's code
    fingerprint names. *)

type t = T_risc of Risc.program | T_x86 of X86.program

val arch : t -> Arch.t

val fingerprint : t -> Omni_util.Fnv64.t
(** Content digest of the program; equal programs have equal
    fingerprints. Certificates bind it and journal recovery recomputes
    it, so its value must never change for a given program. *)

(** A module translated for one of the targets: what the translation
    cache holds, what the journal stores, and what a certificate's code
    fingerprint names. *)

type t = T_risc of Risc.program | T_x86 of X86.program

val arch : t -> Arch.t

val fingerprint : t -> Omni_util.Fnv64.t
(** Content digest of the program, tagged by target family; equal
    programs have equal fingerprints. It is structural: a word-at-a-time
    fold ({!Omni_util.Fnv64.word_prime}), with no copy of the program,
    over every field that makes the code — the RISC [cfg]; each slot's
    constructor, operands (an x86 memory operand's base, index, scale and
    displacement), origin and RISC annul flag; [entry]; [addr_map]; the
    pool floats by their bits; and [n_omni]. The declared masking counts
    ([decl]) stay out. Certificates bind it and journal recovery
    recomputes it, so its value must not change for a given program: a
    journal whose certificates bind another definition recovers its
    modules but quarantines its translations. *)

(** A module translated for one of the targets: what the translation
    cache holds, what journal recovery re-derives, and what a
    certificate's code fingerprint names. *)

type t = T_risc of Risc.program | T_x86 of X86.program

val translate :
  Arch.t -> mode:Machine.mode -> opts:Machine.topts -> Omnivm.Exe.t -> t
(** Load-time translation for [arch], a pure function of its inputs.
    Runs in a [translate] span and counts [translate.omni_instrs].
    Raises {!Translate.Translate_error} on a module the translators
    cannot translate. *)

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

(** Engine-agnostic load/translate/execute layer.

    This is the implementation behind the {!Omniware.Api} façade, housed
    here so the serving stack (store, translation cache, service) can
    drive translation and execution without depending on the façade. The
    façade re-exports these types with equations, so [Api.run_result] and
    [Exec.run_result] are the same type. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine

(** An execution engine: the OmniVM reference interpreter, decoding the
    text per run ([Interp]) or reusing the store's cached decode
    ([Fast]), or load-time translation to a simulated target processor. *)
type engine = Interp | Fast | Target of Arch.t

val engine_of_string : string -> (engine, string) result
(** Recognizes ["interp"], ["fast"], ["mips"], ["sparc"], ["ppc"],
    ["x86"]; the error message names the valid engines (for CLI error
    reporting). *)

val valid_engines : string
(** The recognized engine names, comma-separated (for error messages). *)

val engine_name : engine -> string

val mobile_opts : Arch.t -> Machine.topts
(** The per-architecture translator-optimization defaults the paper
    describes (section 4). *)

(** Machine state at the instant a fault aborted the run. [cs_regs] is
    always the sixteen OmniVM integer registers, read back through each
    engine's register mapping so reports are comparable across engines;
    [cs_pc] is an OmniVM code address on the interpreter and a native
    instruction index on the simulators. *)
type crash_site = {
  cs_pc : int;
  cs_regs : int array;  (** 16 *)
  cs_window_base : int;  (** address of [cs_window.[0]]; -1 if no window *)
  cs_window : string;
      (** raw bytes around the faulting address, clamped to its mapped
          region; empty for faults without an (in-bounds) address *)
}

(** Result of running a module. *)
type run_result = {
  output : string;  (** everything the module printed via host calls *)
  exit_code : int;  (** argument of the exit host call; -1 if it faulted *)
  outcome : Machine.outcome;
  instructions : int;  (** dynamic (native) instructions executed *)
  cycles : int;  (** simulated pipeline cycles (= instructions on interp) *)
  stats : Machine.stats option;  (** detailed statistics; None for interp *)
  crash : crash_site option;  (** [Some] iff [outcome] is [Faulted] *)
}

val load :
  ?map_host_region:bool ->
  ?allow:Omnivm.Hostcall.t list ->
  Omnivm.Exe.t ->
  Omni_runtime.Loader.image

val run_interp :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  Omni_runtime.Loader.image ->
  run_result
(** Run under the OmniVM reference interpreter. Every engine owns its
    "no fuel" default (unbounded); [fuel] is passed through as given. *)

val run_fast :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  ?program:Omnivm.Interp.code ->
  Omni_runtime.Loader.image ->
  run_result
(** {!run_interp} over [program], a decode of the image's text made
    before the run (see {!Omni_service.Store.predecoded}); omitted, the
    run decodes the text itself. *)

(** A translated module, ready to execute on its target simulator. *)
type translated = Omni_targets.Translated.t =
  | T_risc of Omni_targets.Risc.program
  | T_x86 of Omni_targets.X86.program

val resolve :
  ?sfi:bool ->
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  Arch.t ->
  Machine.mode * Machine.topts
(** The one sandbox-configuration decision, shared by every path that
    turns a request into a translation ({!translate}, {!run}, the
    service, crash-report replay, the wire and the CLI): an explicit
    [mode] wins; otherwise [sfi] (default [true]) selects the sandboxing
    policy for the standard module layout, and [false] no protection.
    [opts] defaults to {!mobile_opts}. *)

val translate :
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  Arch.t ->
  Omnivm.Exe.t ->
  translated
(** Load-time translation, configured by {!resolve}: [mode] defaults to
    sandboxed mobile code, [opts] to {!mobile_opts}. *)

val run_translated :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  translated ->
  Omni_runtime.Loader.image ->
  run_result

val run :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  ?sfi:bool ->
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  engine ->
  Omni_runtime.Loader.image ->
  run_result
(** The one local run path: run the image's executable on [engine]. A
    target engine translates it under the configuration {!resolve}
    picks from [sfi], [mode] and [opts]; the interpreters ignore them.
    [Api.run] without a service, crash-report replay and the tests all
    run through here. *)

val verify : ?mode:Machine.mode -> translated -> (unit, string) result
(** Run the target's static SFI verifier over the translated code — the
    cheap admission check a distrustful host applies before executing
    (and before reusing cached) sandboxed code. Pass the translation
    [mode] so the displacement bound matches its padding variant
    ([Pad_guard8] widens the guard zone); omitted, the default bound is
    used. *)

val equal_translated : translated -> translated -> bool
(** Structural equality. Translation is a pure function of
    (exe, arch, mode, opts), so equal inputs yield equal programs — the
    invariant the translation cache's memoization rests on. *)

val fingerprint : translated -> Omni_util.Fnv64.t
(** {!Omni_targets.Translated.fingerprint}: content digest of the
    translated program; equal programs have equal fingerprints. *)

val arch_of : translated -> Arch.t

val certify :
  module_digest:Omni_util.Fnv64.t ->
  mode:Machine.mode ->
  opts:Machine.topts ->
  ?code_fp:Omni_util.Fnv64.t ->
  translated ->
  (Omni_cert.Certificate.t, string) result
(** Run the certifying verifier: like {!verify}, but on success also
    produce the safety witness binding this exact translation (module
    digest × arch × policy × opts × code fingerprint). The certificate
    re-establishes safety later via {!check_cert} at a fraction of the
    cost. Certification accepts exactly the programs {!verify} accepts.
    Pass [code_fp] when the fingerprint is already known (the cache
    computes it once per miss for its entry) to skip recomputing it.
    Traced as the ["certify"] phase. *)

val check_cert :
  module_digest:Omni_util.Fnv64.t ->
  mode:Machine.mode ->
  opts:Machine.topts ->
  ?code_fp:Omni_util.Fnv64.t ->
  Omni_cert.Certificate.t ->
  translated ->
  (unit, string) result
(** Validate a certificate against a translated program: binding checks
    first ({!Omni_cert.Check.bind}), then the one-pass obligation check.
    Pass [code_fp] when the fingerprint is already known (the cache
    stores it per entry) to skip recomputing it. Traced as the
    ["cert.check"] phase. *)

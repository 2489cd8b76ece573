(** Omniware: the public API of the mobile-code system.

    The lifecycle of a mobile program:

    + a producer compiles source to a mobile module — portable bytes
      ({!compile}),
    + a host loads the bytes, mapping the module's segmented address space
      and granting it a set of host services ({!load}),
    + the host translates the module for its own processor at load time,
      inlining software-fault-isolation checks unless the module is trusted
      ({!translate}),
    + the translated module runs; the host observes its output, exit
      status, and execution statistics ({!run_translated}).

    {!run} bundles the last three steps. A host serving many loads of the
    same modules sets the request's [service] field to a {!Service}
    (content-addressed module store + memoizing translation cache). *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Risc = Omni_targets.Risc
module Risc_translate = Omni_targets.Risc_translate
module X86 = Omni_targets.X86
module X86_translate = Omni_targets.X86_translate
module Sim = Omni_targets.Sim

module Exec = Omni_service.Exec
(** The execution machinery behind this façade; the types below are
    equations onto its types. *)

module Service = Omni_service.Service
(** The serving front-end (store + translation cache + batch driver). *)

module Supervise = Omni_service.Supervise
(** Execution supervision: crash reports, module quarantine, and
    deterministic replay (see {!request}'s [deadline_s] field). *)

module Trace = Omni_obs.Trace
(** Span-based pipeline tracing (see {!run}'s [trace] field). *)

module Metrics = Omni_obs.Metrics
(** The metrics registry behind tracing and serving counters. *)

module Net = Omni_net
(** The distribution protocol: frame codec, transports, [omnid] server
    loop, and the remote client (see {!run}'s [remote] field). *)

(** An execution engine: the OmniVM reference interpreter, decoding the
    text per run ([Interp]) or reusing a decode made once per module
    ([Fast]), or load-time translation to a simulated target processor. *)
type engine = Exec.engine = Interp | Fast | Target of Arch.t

val engine_of_string : string -> (engine, string) result
(** Recognizes ["interp"], ["fast"], ["mips"], ["sparc"], ["ppc"], ["x86"];
    [Error msg] names the valid engines for an unknown string. *)

val engine_name : engine -> string
(** Inverse of {!engine_of_string} on the recognized names. *)

val engines_of_string : string -> (engine list, string) result
(** The canonical multi-engine parser for CLI surfaces: ["all"] is every
    target architecture (the interpreter translates nothing, so it is
    not in ["all"]); any single {!engine_of_string} name is a
    one-element list; [Error msg] names the valid spellings. *)

val mobile_opts : Arch.t -> Machine.topts
(** The per-architecture translator-optimization defaults the paper
    describes: Mips/PPC translators schedule locally, the Sparc translator
    uses a global pointer and fills delay slots without scheduling, the x86
    translator schedules only floating-point code. *)

(** Machine state at the instant a fault aborted a run (the sixteen OmniVM
    integer registers, and a hexdump window around the faulting address
    when it has one). See {!Exec.crash_site}. *)
type crash_site = Exec.crash_site = {
  cs_pc : int;
  cs_regs : int array;
  cs_window_base : int;
  cs_window : string;
}

(** Result of running a module. *)
type run_result = Exec.run_result = {
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
(** Map the module's segments and instantiate its host environment.
    [allow] restricts which host services the module may call (default:
    all). [map_host_region] additionally maps a region standing in for
    host-owned memory, used to demonstrate SFI containment. *)

(** A translated module, ready to execute on its target simulator. *)
type translated = Exec.translated =
  | T_risc of Risc.program
  | T_x86 of X86.program

val translate :
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  Arch.t ->
  Omnivm.Exe.t ->
  translated
(** Load-time translation. [mode] defaults to sandboxed mobile code;
    [Machine.Native] modes produce the compiler baselines used by the
    benchmark harness. [opts] defaults to {!mobile_opts}. *)

val run_translated :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  translated ->
  Omni_runtime.Loader.image ->
  run_result

module Producer = Omni_producer.Producer

val producers : Producer.t list
(** The registered front-ends: [minic] (the C-subset compiler) and
    [stackvm] (the guest-ISA bytecode lifter, {!Omni_guest.Lift}). Every
    producer yields the same artifact — wire bytes with the standard
    entry convention — so the run/serve/store layers never distinguish
    them. *)

val producer_of_string : string -> (Producer.t, string) result

(** What to run: an in-memory executable, wire-format bytes as they
    arrive from a producer, or source text paired with the front-end
    that understands it. *)
type source =
  | Exe of Omnivm.Exe.t
  | Wire of string
  | Text of { producer : Producer.t; unit_name : string; text : string }
      (** compiled by {!run} exactly once, before any engine or network
          work; a refusal raises [Producer.Error]. On the serving path
          the producer's name is recorded with the stored module and
          flows into crash reports. *)

(** One fully-specified run. Build by overriding {!default_request}:
    [{ default_request with engine = Target Arch.Mips; fuel = Some 10_000 }]. *)
type request = {
  engine : engine;
  sfi : bool;
      (** sandbox mobile code (default true; ignored when [mode] is given) *)
  mode : Machine.mode option;
      (** explicit translation mode; [None] derives one from [sfi]
          ({!Exec.resolve} decides, on every path) *)
  opts : Machine.topts option;  (** [None] = {!mobile_opts} of the target *)
  fuel : int option;  (** instruction budget; [None] = unbounded *)
  deadline_s : float option;
      (** wall-clock budget in seconds; a run exceeding it faults with
          [Deadline_exceeded], reported like any other fault. Travels
          with remote requests; [None] = no deadline (or the server's
          default on the remote path) *)
  trace : Trace.t option;
      (** tracer installed for the duration of the run; [None] inherits the
          ambient tracer (which defaults to the zero-cost null tracer) *)
  service : Service.t option;
      (** when set, admission goes through the service's content-addressed
          store and translation through its memoizing cache *)
  remote : Net.Client.t option;
      (** when set, the run happens on a remote daemon: the module bytes
          are submitted over the wire and executed there, taking
          precedence over [service]; [opts] and [trace] do not travel
          ([trace] still scopes the local client side). The client's
          own retry policy governs transient failures *)
  on_unreachable : [ `Fail | `Fallback_local ];
      (** what a remote run does when the daemon cannot be reached —
          read timeout, lost connection, connect failure — after the
          client's retry policy (if any) is exhausted: re-raise
          ([`Fail], the default), or degrade to in-process execution
          ([`Fallback_local]; deterministic execution makes the result
          identical, and counter [net.fallback] records the
          degradation) *)
}

val default_request : request
(** Interpreter engine, SFI on, derived mode/opts, unbounded fuel,
    ambient tracing, no service, no fallback. *)

val run : request -> source -> run_result
(** The one entry point: load + translate + run as specified by the
    request.
    On the remote path, typed protocol errors are re-raised as the same
    exceptions the local paths use (malformed bytes as
    [Omnivm.Wire.Bad_module], verifier refusal as [Cache.Rejected],
    foreign handles as [Store.Unknown_handle], resource caps as
    [Invalid_argument]), so callers handle one error surface.
    @raise Store.Unknown_handle, Cache.Rejected on service-path errors.
    @raise Net.Client.Remote_error, Net.Client.Protocol_error on remote
    failures outside those classes. *)

val compile :
  ?options:Minic.Driver.options ->
  ?with_stdlib:bool ->
  name:string ->
  string ->
  string
(** Compile MiniC source to wire-format bytes: the shippable mobile-code
    artifact (crt0 + the MiniC runtime library + the program, linked). *)

val compile_exe :
  ?options:Minic.Driver.options ->
  ?with_stdlib:bool ->
  name:string ->
  string ->
  Omnivm.Exe.t
(** Like {!compile} but yields the decoded executable directly. *)

val lift_guest :
  ?options:Omni_guest.Lift.options ->
  string ->
  (string, Omni_guest.Error.t) result
(** Lift StackVM guest {e bytecode} bytes (the [GSTK] format) to an
    OmniVM wire module — decode, validate, lift, link. Never raises on
    bad guest input; see {!Omni_guest.Lift.lift_bytes}. *)

val lift_guest_asm :
  ?options:Omni_guest.Lift.options ->
  string ->
  (string, Omni_guest.Error.t) result
(** Like {!lift_guest}, starting from guest {e assembly} text (see
    {!Omni_guest.Asm} for the syntax). *)

(* Engine-agnostic load/translate/execute layer (the implementation behind
   the Omniware.Api façade — see exec.mli for why it lives here).

   Every phase is wrapped in an ambient Omni_obs.Trace span — translate,
   verify, run — and execution statistics (instructions, cycles, faults,
   host calls) are mirrored into the tracer's metrics registry, so a
   traced request yields a full per-phase breakdown with no change to the
   results it returns. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Risc = Omni_targets.Risc
module Risc_verify = Omni_targets.Risc_verify
module X86 = Omni_targets.X86
module Sim = Omni_targets.Sim
module X86_verify = Omni_targets.X86_verify
module Trace = Omni_obs.Trace

type engine =
  | Interp
  | Fast
  | Target of Arch.t

let valid_engines = "interp, fast, mips, sparc, ppc, x86"

let engine_of_string = function
  | "interp" -> Ok Interp
  | "fast" -> Ok Fast
  | s -> (
      match Arch.of_string s with
      | Some a -> Ok (Target a)
      | None ->
          Error
            (Printf.sprintf "unknown engine %S (valid engines: %s)" s
               valid_engines))

let engine_name = function
  | Interp -> "interp"
  | Fast -> "fast"
  | Target a -> Arch.name a

(* Per-architecture mobile-translator optimization defaults, following the
   paper (section 4): Mips and PowerPC translators schedule locally; the
   Sparc translator does not schedule but uses a global pointer and fills
   delay slots; the x86 translator does floating-point scheduling and
   peephole only. *)
let mobile_opts (a : Arch.t) : Machine.topts =
  match a with
  | Arch.Mips ->
      { schedule = true; fill_delay_slots = true; use_gp = false;
        peephole = true; sfi_opt = false }
  | Arch.Sparc ->
      { schedule = false; fill_delay_slots = true; use_gp = true;
        peephole = true; sfi_opt = false }
  | Arch.Ppc ->
      { schedule = true; fill_delay_slots = false; use_gp = false;
        peephole = true; sfi_opt = false }
  | Arch.X86 ->
      { schedule = true; fill_delay_slots = false; use_gp = false;
        peephole = true; sfi_opt = false }

(* Machine state at the instant a fault aborted the run, for crash
   reports. The register file is the sixteen OmniVM integer registers
   read back through each engine's register mapping, so reports are
   comparable across engines. [cs_pc] is an OmniVM code address on the
   interpreter and a native instruction index on the simulators (the
   translators keep no reverse address map). *)
type crash_site = {
  cs_pc : int;
  cs_regs : int array; (* 16 *)
  cs_window_base : int; (* absolute address of cs_window.[0]; -1 if none *)
  cs_window : string; (* raw bytes around the faulting address *)
}

type run_result = {
  output : string;
  exit_code : int;
  outcome : Machine.outcome;
  instructions : int;
  cycles : int;
  stats : Machine.stats option; (* None for the interpreter *)
  crash : crash_site option; (* Some iff outcome is Faulted *)
}

(* Hexdump window: up to 32 bytes either side of the faulting address,
   clamped to its mapped region; empty when the fault has no address or
   the address is unmapped (the common case for wild accesses). *)
let window_around mem fault =
  match Omnivm.Fault.addr_of fault with
  | None -> (-1, "")
  | Some addr -> (
      match Omnivm.Memory.region_of mem addr with
      | None -> (-1, "")
      | Some r ->
          let base = Omnivm.Memory.base r in
          let lo = max base (addr - 32) in
          let hi = min (base + Omnivm.Memory.size r) (addr + 32) in
          if hi <= lo then (-1, "")
          else
            ( lo,
              Bytes.to_string
                (Omnivm.Memory.read_bytes mem ~addr:lo ~len:(hi - lo)) ))

(* Mirror one run's statistics into the ambient metrics registry. *)
let record_exec ~engine (img : Omni_runtime.Loader.image) (r : run_result) =
  Trace.count ~by:r.instructions "exec.instructions";
  Trace.count ~by:r.cycles "exec.cycles";
  Trace.count ~by:img.Omni_runtime.Loader.host.Omni_runtime.Host.ticks
    "exec.hostcalls";
  (match r.outcome with
  | Machine.Faulted _ -> Trace.count "exec.faults"
  | Machine.Exited _ | Machine.Out_of_fuel -> ());
  Trace.count ("exec.runs." ^ engine)

(* The one result builder every engine shares. [pc] and [reg] (the
   sixteen OmniVM registers, read through the engine's register mapping)
   become the crash site when the run faulted. *)
let result ~engine (img : Omni_runtime.Loader.image) outcome ~instructions
    ~cycles ~stats ~pc ~reg mem =
  let crash =
    match outcome with
    | Machine.Faulted f ->
        let cs_window_base, cs_window = window_around mem f in
        Some { cs_pc = pc; cs_regs = Array.init 16 reg; cs_window_base;
               cs_window }
    | Machine.Exited _ | Machine.Out_of_fuel -> None
  in
  let r =
    {
      output = Omni_runtime.Host.output img.Omni_runtime.Loader.host;
      exit_code = (match outcome with Machine.Exited c -> c | _ -> -1);
      outcome;
      instructions;
      cycles;
      stats;
      crash;
    }
  in
  record_exec ~engine img r;
  r

(* --- loading and running --- *)

let load ?(map_host_region = false) ?allow exe =
  Omni_runtime.Loader.load ?allow ~map_host_region exe

(* Both interpreters run on an [Interp.t]; only the loader call and the
   engine label differ. *)
let interpreted ~engine run (img : Omni_runtime.Loader.image) : run_result =
  Trace.phase "run" ~attrs:[ ("engine", engine) ] @@ fun () ->
  let outcome, (st : Omnivm.Interp.t) = run img in
  result ~engine img outcome ~instructions:st.icount ~cycles:st.icount
    ~stats:None
    ~pc:(Omnivm.Exe.code_addr st.pc)
    ~reg:(Omnivm.Interp.get_reg st) st.mem

let run_interp ?fuel ?watchdog img =
  interpreted ~engine:"interp" (Omni_runtime.Loader.run_interp ?fuel ?watchdog)
    img

let run_fast ?fuel ?watchdog ?program img =
  interpreted ~engine:"fast"
    (Omni_runtime.Loader.run_fast ?fuel ?watchdog ?program)
    img

(* The one sandbox-configuration decision. An explicit [mode] wins;
   otherwise [sfi] (default on) picks the sandboxing policy for the
   standard layout or no protection. [opts] defaults to the paper's
   per-arch translator options. *)
let resolve ?(sfi = true) ?mode ?opts arch =
  let mode =
    match mode with
    | Some m -> m
    | None ->
        Machine.Mobile
          (if sfi then Omni_sfi.Policy.make () else Omni_sfi.Policy.off)
  in
  let opts = match opts with Some o -> o | None -> mobile_opts arch in
  (mode, opts)

(* Translate a loaded module for a target architecture. *)
type translated = Omni_targets.Translated.t =
  | T_risc of Risc.program
  | T_x86 of X86.program

let translate ?mode ?opts (arch : Arch.t) (exe : Omnivm.Exe.t) : translated =
  let mode, opts = resolve ?mode ?opts arch in
  Omni_targets.Translated.translate arch ~mode ~opts exe

let arch_of = Omni_targets.Translated.arch
let arch_name tr = Arch.name (arch_of tr)

let run_translated ?fuel ?watchdog (tr : translated)
    (img : Omni_runtime.Loader.image) : run_result =
  let engine = arch_name tr in
  Trace.phase "run" ~attrs:[ ("engine", engine) ] @@ fun () ->
  let { Omni_runtime.Loader.mem; host; _ } = img in
  let o, s, st = Sim.run ?fuel ?watchdog tr mem host in
  result ~engine img o ~instructions:s.Machine.instructions
    ~cycles:s.Machine.cycles ~stats:(Some s) ~pc:st.Sim.pc ~reg:(Sim.omni_reg st)
    mem

let run ?fuel ?watchdog ?sfi ?mode ?opts engine
    (img : Omni_runtime.Loader.image) =
  match engine with
  | Interp -> run_interp ?fuel ?watchdog img
  | Fast -> run_fast ?fuel ?watchdog img
  | Target arch ->
      let mode, opts = resolve ?sfi ?mode ?opts arch in
      let tr = translate ~mode ~opts arch img.Omni_runtime.Loader.exe in
      run_translated ?fuel ?watchdog tr img

(* --- structural identity and verification of translated programs --- *)

let verify ?mode (tr : translated) : (unit, string) result =
  Trace.phase "verify" ~attrs:[ ("arch", arch_name tr) ]
  @@ fun () ->
  (* [mode] widens the displacement bound for [Pad_guard8] translations;
     omitting it keeps the default guard zone. *)
  let max_disp =
    Option.map (fun m -> Omni_sfi.Policy.guard_zone (Machine.sfi_policy m)) mode
  in
  let fail { Omni_sfi.Verifier.index; reason } =
    Error (Printf.sprintf "instruction %d: %s" index reason)
  in
  match tr with
  | T_risc p -> (
      match Risc_verify.verify ?max_disp p with
      | Ok () -> Ok ()
      | Error f -> fail f)
  | T_x86 p -> (
      match X86_verify.verify ?max_disp p with
      | Ok () -> Ok ()
      | Error f -> fail f)

let equal_translated (a : translated) (b : translated) =
  match (a, b) with
  | T_risc pa, T_risc pb -> Risc.equal_program pa pb
  | T_x86 pa, T_x86 pb -> X86.equal_program pa pb
  | _ -> false

let fingerprint = Omni_targets.Translated.fingerprint

(* --- certification: produce-once / check-cheap safety witnesses --- *)

let certify ~(module_digest : Omni_util.Fnv64.t) ~(mode : Machine.mode)
    ~(opts : Machine.topts) ?code_fp (tr : translated) :
    (Omni_cert.Certificate.t, string) result =
  Trace.phase "certify" ~attrs:[ ("arch", arch_name tr) ]
  @@ fun () ->
  let { Omni_sfi.Policy.protect_reads; pad; _ } as policy =
    Machine.sfi_policy mode
  in
  let max_disp = Omni_sfi.Policy.guard_zone policy in
  let fail { Omni_sfi.Verifier.index; reason } =
    Error (Printf.sprintf "instruction %d: %s" index reason)
  in
  let mk n_code obs =
    let code_fp =
      match code_fp with Some fp -> fp | None -> fingerprint tr
    in
    Omni_cert.Certificate.make ~arch:(arch_of tr) ~module_digest ~code_fp
      ~protect_reads ~pad ~opts ~n_code obs
  in
  match tr with
  | T_risc p -> (
      match Risc_verify.certify ~max_disp p with
      | Ok obs -> Ok (mk (Array.length p.Risc.code) obs)
      | Error f -> fail f)
  | T_x86 p -> (
      match X86_verify.certify ~max_disp p with
      | Ok obs -> Ok (mk (Array.length p.X86.code) obs)
      | Error f -> fail f)

let check_cert ~(module_digest : Omni_util.Fnv64.t) ~(mode : Machine.mode)
    ~(opts : Machine.topts) ?code_fp (cert : Omni_cert.Certificate.t)
    (tr : translated) : (unit, string) result =
  Trace.phase "cert.check" ~attrs:[ ("arch", arch_name tr) ]
  @@ fun () ->
  (* [code_fp] lets callers that already hold the fingerprint (the cache
     stores it with each entry) skip recomputing it — that hash is most
     of the checking cost for small programs. *)
  let code_fp = match code_fp with Some fp -> fp | None -> fingerprint tr in
  match
    Result.bind
      (Omni_cert.Check.bind cert ~module_digest ~arch:(arch_of tr) ~mode ~opts
         ~code_fp)
      (fun () -> Omni_cert.Check.check cert tr)
  with
  | Ok () -> Ok ()
  | Error e -> Error (Omni_cert.Check.error_to_string e)

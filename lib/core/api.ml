(* Omniware: the public API tying the system together.

   A host application (a) obtains a mobile module's wire bytes (compiled
   from MiniC or assembled by hand), (b) loads it — mapping the segmented
   address space and instantiating the host-call environment, (c) picks an
   execution engine: the OmniVM reference interpreter, or a load-time
   translation to one of the four simulated target machines, with SFI
   applied unless the module is trusted, and (d) runs it, observing output,
   exit status, and execution statistics.

   The execution machinery lives in Omni_service.Exec (so the serving
   stack — content-addressed store + memoizing translation cache — can
   drive it without depending on this façade); the types are re-exported
   here with equations, so Api.run_result and Exec.run_result are the same
   type. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Risc = Omni_targets.Risc
module Risc_translate = Omni_targets.Risc_translate
module X86 = Omni_targets.X86
module X86_translate = Omni_targets.X86_translate
module Sim = Omni_targets.Sim
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Supervise = Omni_service.Supervise
module Trace = Omni_obs.Trace
module Metrics = Omni_obs.Metrics
module Net = Omni_net

type engine = Exec.engine =
  | Interp
  | Fast
  | Target of Arch.t

let engine_of_string = Exec.engine_of_string
let engine_name = Exec.engine_name

(* The canonical multi-engine parser — "all" fans out to every target
   architecture (the interpreter translates nothing, so "all" means "all
   translators"); a single name parses as a one-element list. The
   omnirun subcommands used to hand-roll this. *)
let engines_of_string = function
  | "all" -> Ok (List.map (fun a -> Target a) Arch.all)
  | s -> (
      match engine_of_string s with
      | Ok e -> Ok [ e ]
      | Error _ ->
          Error
            (Printf.sprintf "unknown engine %S (valid engines: %s, all)" s
               Exec.valid_engines))
let mobile_opts = Exec.mobile_opts

type crash_site = Exec.crash_site = {
  cs_pc : int;
  cs_regs : int array;
  cs_window_base : int;
  cs_window : string;
}

type run_result = Exec.run_result = {
  output : string;
  exit_code : int;
  outcome : Machine.outcome;
  instructions : int;
  cycles : int;
  stats : Machine.stats option; (* None for the interpreter *)
  crash : crash_site option;
}

(* --- loading and running --- *)

let load = Exec.load

type translated = Exec.translated =
  | T_risc of Risc.program
  | T_x86 of X86.program

let translate = Exec.translate
let run_translated = Exec.run_translated

(* --- the unified run entry point --- *)

module Producer = Omni_producer.Producer

(* The registered front-ends. Every producer yields the same artifact —
   wire bytes with the standard entry convention — so everything below
   this point is producer-agnostic. *)
let producers : Producer.t list =
  [ Minic.Driver.producer; Omni_guest.Lift.producer ]

let producer_of_string s =
  match List.find_opt (fun p -> String.equal (Producer.name p) s) producers with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown producer %S (valid producers: %s)" s
           (String.concat ", " (List.map Producer.name producers)))

type source =
  | Exe of Omnivm.Exe.t
  | Wire of string
  | Text of { producer : Producer.t; unit_name : string; text : string }

type request = {
  engine : engine;
  sfi : bool;
  mode : Machine.mode option;
  opts : Machine.topts option;
  fuel : int option;
  deadline_s : float option;
  trace : Trace.t option;
  service : Service.t option;
  remote : Net.Client.t option;
  on_unreachable : [ `Fail | `Fallback_local ];
}

let default_request =
  {
    engine = Interp;
    sfi = true;
    mode = None;
    opts = None;
    fuel = None;
    deadline_s = None;
    trace = None;
    service = None;
    remote = None;
    on_unreachable = `Fail;
  }

let wire_of_source = function
  | Wire b -> b
  | Exe exe -> Omnivm.Wire.encode exe
  | Text { producer; unit_name; text } ->
      Producer.compile_exn producer ~name:unit_name text

let run_remote (client : Net.Client.t) (r : request) (src : source) :
    run_result =
  let bytes = wire_of_source src in
  (* Re-raise remote refusals as the exceptions the local paths use, so
     a request is handled identically whether the service is in-process
     or behind a socket. *)
  try
    let h = Net.Client.submit client bytes in
    Net.Client.run ~engine:r.engine ~sfi:r.sfi
      ~mode:(Net.Message.mode_spec_of_mode r.mode)
      ?fuel:r.fuel ?deadline_s:r.deadline_s client h
  with
  | Net.Client.Remote_error (Net.Message.E_decode, msg) ->
      raise (Omnivm.Wire.Bad_module msg)
  | Net.Client.Remote_error (Net.Message.E_unknown_handle, _) ->
      raise Omni_service.Store.Unknown_handle
  | Net.Client.Remote_error (Net.Message.E_verifier_rejected, msg) ->
      raise (Omni_service.Cache.Rejected msg)
  | Net.Client.Remote_error (Net.Message.E_limit_exceeded, msg) ->
      invalid_arg msg

let run (r : request) (src : source) : run_result =
  (* A [Text] source compiles exactly once per run, up front — the
     producer's typed [Producer.Error] propagates before any engine or
     network work starts. *)
  let produced =
    match src with
    | Text { producer; _ } -> Some (Producer.name producer)
    | Exe _ | Wire _ -> None
  in
  let src =
    match src with Text _ -> Wire (wire_of_source src) | s -> s
  in
  let local () =
    match r.service with
    | Some service ->
        (* The serving path: admission goes through the service's
           content-addressed store and translation through its memo cache —
           repeated loads of the same bytes skip decoding and translation
           entirely. *)
        let bytes = wire_of_source src in
        let h = Service.submit ?producer:produced service bytes in
        Service.instantiate ~engine:r.engine ~sfi:r.sfi ?mode:r.mode
          ?opts:r.opts ?fuel:r.fuel ?deadline_s:r.deadline_s service h
    | None ->
        let watchdog =
          Option.map
            (fun budget_s -> Supervise.watchdog ~budget_s ())
            r.deadline_s
        in
        let img =
          match src with
          | Text _ -> assert false (* normalized to Wire above *)
          | Exe exe -> load exe
          | Wire b -> Omni_runtime.Loader.load_wire b
        in
        Exec.run ?fuel:r.fuel ?watchdog ~sfi:r.sfi ?mode:r.mode ?opts:r.opts
          r.engine img
  in
  let go () =
    match r.remote with
    | None -> local ()
    | Some client -> (
        try run_remote client r src with
        | ( Net.Transport.Timeout
          | Net.Client.Connection_lost _
          | Unix.Unix_error _ ) as e -> (
            (* The daemon is unreachable (past any retry policy the
               client carries). Degrade to in-process execution if the
               request allows — same bytes, same result. *)
            match r.on_unreachable with
            | `Fail -> raise e
            | `Fallback_local ->
                Trace.count "net.fallback";
                local ()))
  in
  match r.trace with
  | None -> go () (* inherit whatever tracer is ambient *)
  | Some t -> Trace.with_current t go

(* --- compilation (re-exported for hosts embedding the front-ends) --- *)

let compile = Minic.Driver.compile_wire
let compile_exe = Minic.Driver.compile_exe

(* The guest-ISA front-end: StackVM bytecode (or its assembly text)
   lifted to an OmniVM wire module. *)
let lift_guest = Omni_guest.Lift.lift_bytes

let lift_guest_asm ?options source =
  match Omni_guest.Asm.assemble source with
  | Error e -> Error e
  | Ok p -> Omni_guest.Lift.lift_wire ?options p

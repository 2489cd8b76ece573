(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (section 4). See DESIGN.md for the experiment index.

   All numbers are simulated cycle counts from the target pipeline models;
   each table reports execution time RELATIVE to a native-compiler baseline
   on the same simulated machine, exactly as the paper does. Every run's
   output is validated against the OmniVM interpreter's output, so a
   reported number can never come from a miscompiled run. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch

type config =
  | Mobile_sfi (* translated, SFI on, per-arch translator opts *)
  | Mobile_nosfi
  | Mobile_sfi_noopt (* translator optimizations disabled *)
  | Mobile_nosfi_noopt
  | Mobile_sfi_opt (* + the guard-zone SFI optimization of paper 4.4 *)
  | Mobile_sfi_reads (* + read protection (cited in paper 1, not measured) *)
  | Native_cc
  | Native_gcc

let config_name = function
  | Mobile_sfi -> "sfi"
  | Mobile_nosfi -> "no-sfi"
  | Mobile_sfi_noopt -> "sfi/noopt"
  | Mobile_nosfi_noopt -> "no-sfi/noopt"
  | Mobile_sfi_opt -> "sfi/opt"
  | Mobile_sfi_reads -> "sfi/reads"
  | Native_cc -> "native-cc"
  | Native_gcc -> "native-gcc"

let all_archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

type measurement = {
  m_cycles : int;
  m_instructions : int;
  m_omni_instructions : int;
  m_stats : Machine.stats option;
}

exception Harness_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Harness_error s)) fmt

(* Compile + expected-output cache, keyed by (workload, regfile size). *)
type prepared = {
  p_name : string;
  p_exe : Omnivm.Exe.t;
  p_expected : string;
}

let prepare_cache : (string * int, prepared) Hashtbl.t = Hashtbl.create 16

let prepare ?(regfile_size = 16) (w : Omni_workloads.Workloads.t) : prepared =
  match Hashtbl.find_opt prepare_cache (w.name, regfile_size) with
  | Some p -> p
  | None ->
      let options = { Minic.Driver.opt_level = Minic.Opt.O2; regfile_size } in
      let exe = Minic.Driver.compile_exe ~options ~name:w.name w.source in
      let r =
        Api.run { Api.default_request with fuel = Some 4_000_000_000 }
          (Api.Exe exe)
      in
      (match r.Api.outcome with
      | Machine.Exited 0 -> ()
      | Machine.Exited c -> fail "%s exited %d under the interpreter" w.name c
      | Machine.Faulted f ->
          fail "%s faulted under the interpreter: %s" w.name
            (Omnivm.Fault.to_string f)
      | Machine.Out_of_fuel -> fail "%s ran out of fuel" w.name);
      let p = { p_name = w.name; p_exe = exe; p_expected = r.Api.output } in
      Hashtbl.replace prepare_cache (w.name, regfile_size) p;
      p

let mode_and_opts arch = function
  | Mobile_sfi ->
      (Machine.Mobile (Omni_sfi.Policy.make ()), Api.mobile_opts arch)
  | Mobile_nosfi -> (Machine.Mobile Omni_sfi.Policy.off, Api.mobile_opts arch)
  | Mobile_sfi_noopt ->
      (Machine.Mobile (Omni_sfi.Policy.make ()), Machine.no_opts)
  | Mobile_nosfi_noopt -> (Machine.Mobile Omni_sfi.Policy.off, Machine.no_opts)
  | Mobile_sfi_opt ->
      ( Machine.Mobile (Omni_sfi.Policy.make ()),
        { (Api.mobile_opts arch) with Machine.sfi_opt = true } )
  | Mobile_sfi_reads ->
      ( Machine.Mobile (Omni_sfi.Policy.make ~protect_reads:true ()),
        Api.mobile_opts arch )
  | Native_cc -> (Machine.Native Machine.Cc, Machine.all_opts)
  | Native_gcc -> (Machine.Native Machine.Gcc, Machine.all_opts)

let run_cache : (string * int * string * string, measurement) Hashtbl.t =
  Hashtbl.create 64

(* Run one (workload, arch, config) cell; validates output. *)
let measure ?(regfile_size = 16) (w : Omni_workloads.Workloads.t)
    (arch : Arch.t) (config : config) : measurement =
  let key = (w.name, regfile_size, Arch.name arch, config_name config) in
  match Hashtbl.find_opt run_cache key with
  | Some m -> m
  | None ->
      let p = prepare ~regfile_size w in
      let mode, opts = mode_and_opts arch config in
      let r =
        Api.run
          { Api.default_request with
            engine = Api.Target arch; mode = Some mode; opts = Some opts;
            fuel = Some 4_000_000_000 }
          (Api.Exe p.p_exe)
      in
      (match r.Api.outcome with
      | Machine.Exited 0 -> ()
      | Machine.Exited c ->
          fail "%s/%s/%s exited %d" w.name (Arch.name arch)
            (config_name config) c
      | Machine.Faulted f ->
          fail "%s/%s/%s faulted: %s" w.name (Arch.name arch)
            (config_name config) (Omnivm.Fault.to_string f)
      | Machine.Out_of_fuel ->
          fail "%s/%s/%s out of fuel" w.name (Arch.name arch)
            (config_name config));
      if not (String.equal r.Api.output p.p_expected) then
        fail "%s/%s/%s produced wrong output" w.name (Arch.name arch)
          (config_name config);
      let stats = r.Api.stats in
      let m =
        {
          m_cycles = r.Api.cycles;
          m_instructions = r.Api.instructions;
          m_omni_instructions =
            (match stats with
            | Some s -> s.Machine.omni_instructions
            | None -> 0);
          m_stats = stats;
        }
      in
      Hashtbl.replace run_cache key m;
      m

let ratio ?regfile_size w arch num den =
  let a = measure ?regfile_size w arch num in
  let b = measure w arch den in
  float_of_int a.m_cycles /. float_of_int b.m_cycles

(* --- table rendering --- *)

let render_ratio_table ~title ~columns ~rows ~(cell : string -> string -> float option)
    : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let w = 11 in
  Buffer.add_string buf (Printf.sprintf "%-10s" "program");
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%*s" w c)) columns;
  Buffer.add_char buf '\n';
  let totals = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%-10s" r);
      List.iter
        (fun c ->
          match cell r c with
          | Some v ->
              Hashtbl.replace totals c
                (v :: Option.value ~default:[] (Hashtbl.find_opt totals c));
              Buffer.add_string buf (Printf.sprintf "%*.2f" w v)
          | None -> Buffer.add_string buf (Printf.sprintf "%*s" w "-"))
        columns;
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (Printf.sprintf "%-10s" "average");
  List.iter
    (fun c ->
      match Hashtbl.find_opt totals c with
      | Some vs ->
          let avg = List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs) in
          Buffer.add_string buf (Printf.sprintf "%*.2f" w avg)
      | None -> Buffer.add_string buf (Printf.sprintf "%*s" w "-"))
    columns;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- the tables --- *)

let workloads ~size = Omni_workloads.Workloads.all ~size

(* Table 1: translated + SFI relative to native cc. *)
let table1 ~size =
  let ws = workloads ~size in
  render_ratio_table
    ~title:
      "Table 1: execution time of translated code with SFI, relative to \
       native code (cc)"
    ~columns:(List.map Arch.name all_archs)
    ~rows:(List.map (fun (w : Omni_workloads.Workloads.t) -> w.name) ws)
    ~cell:(fun r c ->
      let w = List.find (fun (w : Omni_workloads.Workloads.t) -> w.name = r) ws in
      let arch = Option.get (Arch.of_string c) in
      Some (ratio w arch Mobile_sfi Native_cc))

(* Table 2: average overhead vs Sparc native for register file sizes. *)
let table2 ~size =
  let ws = workloads ~size in
  let sizes = [ 8; 10; 12; 14; 16 ] in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Table 2: average execution time of mobile code relative to native \
     Sparc (cc),\nfor OmniVM register file sizes\n";
  Buffer.add_string buf "registers   overhead\n";
  List.iter
    (fun n ->
      let rs =
        List.map
          (fun w -> ratio ~regfile_size:n w Arch.Sparc Mobile_sfi Native_cc)
          ws
      in
      let avg = List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) in
      Buffer.add_string buf (Printf.sprintf "%9d   %8.2f\n" n avg))
    sizes;
  Buffer.contents buf

(* Tables 3/4/5: SFI and no-SFI columns per architecture. *)
let sfi_pair_table ~size ~title ~num_sfi ~num_nosfi ~den =
  let ws = workloads ~size in
  let columns =
    List.concat_map
      (fun a -> [ Arch.name a ^ "+sfi"; Arch.name a ])
      all_archs
  in
  render_ratio_table ~title ~columns
    ~rows:(List.map (fun (w : Omni_workloads.Workloads.t) -> w.name) ws)
    ~cell:(fun r c ->
      let w = List.find (fun (w : Omni_workloads.Workloads.t) -> w.name = r) ws in
      let sfi = Filename.check_suffix c "+sfi" in
      let aname = if sfi then Filename.chop_suffix c "+sfi" else c in
      let arch = Option.get (Arch.of_string aname) in
      Some (ratio w arch (if sfi then num_sfi else num_nosfi) den))

let table3 ~size =
  sfi_pair_table ~size
    ~title:
      "Table 3: execution time of mobile code relative to native code (cc)"
    ~num_sfi:Mobile_sfi ~num_nosfi:Mobile_nosfi ~den:Native_cc

let table4 ~size =
  sfi_pair_table ~size
    ~title:
      "Table 4: execution time of mobile code relative to native code (gcc)"
    ~num_sfi:Mobile_sfi ~num_nosfi:Mobile_nosfi ~den:Native_gcc

let table5 ~size =
  sfi_pair_table ~size
    ~title:
      "Table 5: execution time of mobile code without translator \
       optimizations,\nrelative to native code (cc)"
    ~num_sfi:Mobile_sfi_noopt ~num_nosfi:Mobile_nosfi_noopt ~den:Native_cc

let table6 ~size =
  let ws = workloads ~size in
  render_ratio_table
    ~title:
      "Table 6: execution time of native code (gcc) relative to native \
       code (cc)"
    ~columns:(List.map Arch.name all_archs)
    ~rows:(List.map (fun (w : Omni_workloads.Workloads.t) -> w.name) ws)
    ~cell:(fun r c ->
      let w = List.find (fun (w : Omni_workloads.Workloads.t) -> w.name = r) ws in
      let arch = Option.get (Arch.of_string c) in
      Some (ratio w arch Native_gcc Native_cc))

(* Figure 1: dynamic expansion by origin on Mips and PowerPC. *)
let figure1 ~size =
  let ws = workloads ~size in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 1: expansion introduced by translation (extra native \
     instructions\nper OmniVM instruction executed, by origin; translated \
     with SFI)\n\n";
  List.iter
    (fun arch ->
      Buffer.add_string buf (Printf.sprintf "[%s]\n" (Arch.name arch));
      Buffer.add_string buf (Printf.sprintf "%-10s" "program");
      List.iter
        (fun o ->
          if o <> Machine.Core then
            Buffer.add_string buf (Printf.sprintf "%8s" (Machine.origin_name o)))
        Machine.all_origins;
      Buffer.add_string buf (Printf.sprintf "%8s\n" "total");
      List.iter
        (fun (w : Omni_workloads.Workloads.t) ->
          let m = measure w arch Mobile_sfi in
          match m.m_stats with
          | None -> ()
          | Some s ->
              Buffer.add_string buf (Printf.sprintf "%-10s" w.name);
              let profile = Machine.expansion_profile s in
              let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 profile in
              List.iter
                (fun (_, v) -> Buffer.add_string buf (Printf.sprintf "%8.3f" v))
                profile;
              Buffer.add_string buf (Printf.sprintf "%8.3f\n" total))
        ws;
      (* a small ASCII bar chart of the totals *)
      Buffer.add_char buf '\n')
    [ Arch.Mips; Arch.Ppc ];
  Buffer.contents buf

(* Figure 2: the universal mobile-code substrate (structural). *)
let figure2 () =
  String.concat "\n"
    [ "Figure 2: a universal substrate for mobile code";
      "";
      "   C       MiniC     (any language with an OmniVM compiler)";
      "   |         |";
      "   +----+----+";
      "        v";
      "   OmniVM mobile module  (one artifact, shipped unchanged)";
      "        |";
      "        |  load-time translation + software fault isolation";
      "        v";
      "  +---------+---------+---------+---------+";
      "  |  MIPS   |  SPARC  | PowerPC |   x86   |";
      "  | R4400   |         |   601   | Pentium |";
      "  +---------+---------+---------+---------+";
      "" ]

(* Translation-speed measurement (the paper's load-time argument). *)
let translation_speed ~size =
  let ws = workloads ~size in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Translation speed: OmniVM instructions translated per second (load \
     time)\n";
  Buffer.add_string buf (Printf.sprintf "%-10s %10s" "program" "omni-instrs");
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "%12s" (Arch.name a)))
    all_archs;
  Buffer.add_char buf '\n';
  List.iter
    (fun (w : Omni_workloads.Workloads.t) ->
      let p = prepare w in
      let n = Array.length p.p_exe.Omnivm.Exe.text in
      Buffer.add_string buf (Printf.sprintf "%-10s %10d" w.name n);
      List.iter
        (fun arch ->
          let mode = Machine.Mobile (Omni_sfi.Policy.make ()) in
          let opts = Api.mobile_opts arch in
          let t0 = Sys.time () in
          let reps = 20 in
          for _ = 1 to reps do
            ignore (Api.translate ~mode ~opts arch p.p_exe)
          done;
          let dt = (Sys.time () -. t0) /. float_of_int reps in
          let rate = float_of_int n /. dt /. 1e6 in
          Buffer.add_string buf (Printf.sprintf "%10.1fM" rate))
        all_archs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.contents buf

(* Ablation (beyond the paper's measurements): the SFI-check optimization
   the paper forecast in section 4.4 ("we expect optimization will cut this
   overhead in half"): reuse of the sandboxed dedicated register across
   nearby stores to the same base. Reported as SFI overhead relative to the
   same translator without SFI, with and without the optimization. *)
let ablation_sfi_opt ~size =
  let ws = workloads ~size in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation: SFI overhead with the guard-zone check optimization\n\
     (overhead = cycles relative to the same translator without SFI)\n";
  Buffer.add_string buf (Printf.sprintf "%-10s" "program");
  let archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc ] in
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%12s%12s" (Arch.name a) "+opt"))
    archs;
  Buffer.add_char buf '\n';
  let totals = Array.make (List.length archs * 2) 0.0 in
  List.iter
    (fun (w : Omni_workloads.Workloads.t) ->
      Buffer.add_string buf (Printf.sprintf "%-10s" w.name);
      List.iteri
        (fun i a ->
          let base = ratio w a Mobile_sfi Mobile_nosfi in
          let opt = ratio w a Mobile_sfi_opt Mobile_nosfi in
          totals.(2 * i) <- totals.(2 * i) +. base;
          totals.((2 * i) + 1) <- totals.((2 * i) + 1) +. opt;
          Buffer.add_string buf (Printf.sprintf "%12.3f%12.3f" base opt))
        archs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.add_string buf (Printf.sprintf "%-10s" "average");
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%12.3f" (t /. float_of_int (List.length ws))))
    totals;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Ablation: the cost of full read protection (paper section 1: "Software
   fault isolation can also support efficient read protection...
   Omniware does not yet incorporate these capabilities"). Reported as
   total protection overhead relative to no SFI at all. *)
let ablation_read_protection ~size =
  let ws = workloads ~size in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation: write-only SFI (the paper's configuration) vs full\n\
     read+write protection, relative to unprotected translation\n";
  Buffer.add_string buf (Printf.sprintf "%-10s" "program");
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%12s%12s" (Arch.name a) "+reads"))
    all_archs;
  Buffer.add_char buf '\n';
  let totals = Array.make (List.length all_archs * 2) 0.0 in
  List.iter
    (fun (w : Omni_workloads.Workloads.t) ->
      Buffer.add_string buf (Printf.sprintf "%-10s" w.name);
      List.iteri
        (fun i a ->
          let wr = ratio w a Mobile_sfi Mobile_nosfi in
          let full = ratio w a Mobile_sfi_reads Mobile_nosfi in
          totals.(2 * i) <- totals.(2 * i) +. wr;
          totals.((2 * i) + 1) <- totals.((2 * i) + 1) +. full;
          Buffer.add_string buf (Printf.sprintf "%12.3f%12.3f" wr full))
        all_archs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.add_string buf (Printf.sprintf "%-10s" "average");
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%12.3f" (t /. float_of_int (List.length ws))))
    totals;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Serving experiment (beyond the paper): cold vs warm translation
   amortization. The paper's load-time argument is that translation must be
   fast because every load pays it; a serving host goes one step further
   and pays the translator once per (module, arch, config), re-verifying
   cached code on every subsequent load. Each request still gets a fresh
   isolated image. *)
let service_amortization ~size =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let ws = workloads ~size in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Service: cold vs warm loads through the memoizing translation cache\n\
     (every request instantiates a fresh isolated image; a cold load pays\n\
     translate + verify, a warm load pays static re-verification only)\n\n";
  let svc = Svc.of_config Svc.default_config in
  (* Trace with a Null sink into the service's own registry: no span
     storage, but every phase lands in the "phase.*" histograms, so the
     breakdown below and the serving counters come from one place. *)
  let tracer =
    Omni_obs.Trace.make ~metrics:(Svc.metrics svc) Omni_obs.Trace.Null
  in
  Omni_obs.Trace.with_current tracer @@ fun () ->
  let handles =
    List.map
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        (w, p, Svc.submit svc (Omnivm.Wire.encode p.p_exe)))
      ws
  in
  let fuel = 4_000_000_000 in
  let load_all ~check arch =
    List.iter
      (fun ((w : Omni_workloads.Workloads.t), p, h) ->
        let r = Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h in
        if check && not (String.equal r.Exec.output p.p_expected) then
          fail "service: %s/%s produced wrong output" w.name (Arch.name arch))
      handles
  in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %15s %15s %10s\n" "arch" "cold-load (ms)"
       "warm-load (ms)" "amortize");
  let warm_rounds = 3 in
  List.iter
    (fun arch ->
      let cold0 = (Svc.stats svc).SC.s_cold_translate_s in
      load_all ~check:true arch;
      let cold = (Svc.stats svc).SC.s_cold_translate_s -. cold0 in
      let warm0 = (Svc.stats svc).SC.s_warm_admit_s in
      for _ = 1 to warm_rounds do
        load_all ~check:true arch
      done;
      let warm =
        ((Svc.stats svc).SC.s_warm_admit_s -. warm0)
        /. float_of_int warm_rounds
      in
      Buffer.add_string buf
        (Printf.sprintf "%-8s %15.2f %15.2f %9.0fx\n" (Arch.name arch)
           (1e3 *. cold) (1e3 *. warm)
           (cold /. Float.max 1e-9 warm)))
    all_archs;
  (* Throughput of a fully warm mix through the batch driver. *)
  let reqs =
    Array.of_list
      (List.concat_map
         (fun (_, _, h) ->
           List.map
             (fun arch ->
               { Svc.rq_handle = h; rq_engine = Exec.Target arch;
                 rq_sfi = true })
             all_archs)
         handles)
  in
  let report = Svc.run_batch ~fuel svc reqs in
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Svc.render_batch report);
  let snap = Omni_obs.Metrics.snapshot (Svc.metrics svc) in
  Buffer.add_string buf (Omni_obs.Metrics.render snap);
  let c = Svc.stats svc in
  let distinct = List.length handles * List.length all_archs in
  Buffer.add_string buf
    (Printf.sprintf
       "invariant: translations (%d) = distinct configs (%d), hits (%d) > 0: \
        %s\n"
       c.SC.s_translations distinct c.SC.s_hits
       (if c.SC.s_translations = distinct && c.SC.s_hits > 0 then "OK"
        else "VIOLATED"));
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Omni_obs.Metrics.render_phases snap);
  Buffer.contents buf

(* Per-phase pipeline breakdown (the observability tentpole, end to end):
   compile each workload from source, ship the bytes through the serving
   path (decode, load, translate, verify) and run on the interpreter and
   every target — all under a Null-sink tracer feeding one metrics
   registry, so the table below is exactly what the span instrumentation
   recorded, with no harness-side timing. *)
let phase_breakdown ~size =
  let module Svc = Omni_service.Service in
  let module Exec = Omni_service.Exec in
  let ws = workloads ~size in
  let m = Omni_obs.Metrics.create () in
  let tracer = Omni_obs.Trace.make ~metrics:m Omni_obs.Trace.Null in
  Omni_obs.Trace.with_current tracer @@ fun () ->
  let svc = Svc.of_config ~metrics:m Svc.default_config in
  let fuel = 4_000_000_000 in
  List.iter
    (fun (w : Omni_workloads.Workloads.t) ->
      let bytes = Minic.Driver.compile_wire ~name:w.name w.source in
      let h = Svc.submit svc bytes in
      ignore (Svc.instantiate ~fuel svc h);
      List.iter
        (fun arch ->
          ignore (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h))
        all_archs)
    ws;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Per-phase pipeline breakdown: compile -> decode -> load -> translate\n\
     -> verify -> run, as recorded by the span tracer's metrics registry\n\
     (every workload, interpreter + all four targets, serving path)\n\n";
  Buffer.add_string buf
    (Omni_obs.Metrics.render_phases (Omni_obs.Metrics.snapshot m));
  Buffer.contents buf

(* Remote serving overhead: the same requests through the distribution
   protocol — frame encode/checksum/decode both ways over the in-memory
   pair transport, zero scheduling noise — against the identical requests
   on the in-process service. The delta is the pure protocol cost of
   putting the translation cache behind a wire. *)
let remote_overhead ~size =
  let module Svc = Omni_service.Service in
  let module Exec = Omni_service.Exec in
  let module Net = Omni_net in
  let ws = workloads ~size in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Remote serving: cold vs warm round trips through the distribution\n\
     protocol (in-memory pair transport) vs the in-process service.\n\
     Every remote run's output is validated against the local result.\n\n";
  let fuel = 4_000_000_000 in
  (* remote stack: service behind a server behind the loopback client *)
  let svc_r = Svc.of_config Svc.default_config in
  let server = Net.Server.create svc_r in
  let client = Net.Client.loopback server in
  (* ping round trip: the protocol floor (frame codec + dispatch only) *)
  let pings = 1000 in
  let t0 = Sys.time () in
  for _ = 1 to pings do
    Net.Client.ping client
  done;
  let ping_us = 1e6 *. (Sys.time () -. t0) /. float_of_int pings in
  Buffer.add_string buf
    (Printf.sprintf "protocol floor: %.1f us per ping round trip\n\n" ping_us);
  (* identical module set on both stacks *)
  let prepared =
    List.map
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        (p, Omnivm.Wire.encode p.p_exe))
      ws
  in
  let svc_l = Svc.of_config Svc.default_config in
  let remote_handles =
    List.map (fun (p, bytes) -> (p, Net.Client.submit client bytes)) prepared
  in
  let local_handles =
    List.map (fun (p, bytes) -> (p, Svc.submit svc_l bytes)) prepared
  in
  let time f =
    let t0 = Sys.time () in
    f ();
    Sys.time () -. t0
  in
  let remote_round arch ~check () =
    List.iter
      (fun (p, h) ->
        let r = Net.Client.run ~engine:(Exec.Target arch) ~fuel client h in
        if check && not (String.equal r.Exec.output p.p_expected) then
          fail "remote: %s/%s produced wrong output" p.p_name (Arch.name arch))
      remote_handles
  in
  let local_round arch () =
    List.iter
      (fun (_, h) ->
        ignore (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc_l h))
      local_handles
  in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %15s %15s %15s %10s\n" "arch" "cold-remote (ms)"
       "warm-remote (ms)" "warm-local (ms)" "overhead");
  let warm_rounds = 3 in
  List.iter
    (fun arch ->
      let cold_r = time (remote_round arch ~check:true) in
      let warm_r =
        time (fun () ->
            for _ = 1 to warm_rounds do
              remote_round arch ~check:true ()
            done)
        /. float_of_int warm_rounds
      in
      ignore (time (local_round arch));
      let warm_l =
        time (fun () ->
            for _ = 1 to warm_rounds do
              local_round arch ()
            done)
        /. float_of_int warm_rounds
      in
      Buffer.add_string buf
        (Printf.sprintf "%-8s %15.2f %15.2f %15.2f %9.2fx\n" (Arch.name arch)
           (1e3 *. cold_r) (1e3 *. warm_r) (1e3 *. warm_l)
           (warm_r /. Float.max 1e-9 warm_l)))
    all_archs;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "remote service counters: ";
  Buffer.add_string buf (Net.Client.stats_json client);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Resilience under injected faults: the same serving loop as
   remote_overhead, but the loopback wire is wrapped in the seeded fault
   injector and the client retries under a manual clock (backoff is
   accounted, never actually slept). Every run's output is still
   validated bit-for-bit against the in-process service — the claim is
   not "it mostly works", it is "a faulty wire costs retries, never
   answers". *)
let resilience ~size =
  let module Svc = Omni_service.Service in
  let module Exec = Omni_service.Exec in
  let module Net = Omni_net in
  let ws = workloads ~size in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Resilience: loopback serving throughput under seeded fault injection\n\
     (drop/corrupt/truncate/stall/close at rate p per frame), retrying\n\
     client, manual clock. Outputs validated against the local service.\n\n";
  let fuel = 4_000_000_000 in
  let prepared =
    List.map
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        (p, Omnivm.Wire.encode p.p_exe))
      ws
  in
  let svc_l = Svc.of_config Svc.default_config in
  let local_handles =
    List.map (fun (p, bytes) -> (p, Svc.submit svc_l bytes)) prepared
  in
  let local_output arch h =
    (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc_l h).Exec.output
  in
  let rounds = 3 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %10s %10s %10s %10s %12s\n" "rate" "requests"
       "injected" "retries" "rejected" "round (ms)");
  List.iter
    (fun rate ->
      let svc = Svc.of_config Svc.default_config in
      let server = Net.Server.create svc in
      let retry = { Net.Retry.default with max_attempts = 12 } in
      let env = Net.Retry.manual_env () in
      let armed =
        if rate > 0. then
          Some
            (Net.Fault.arm ~metrics:(Svc.metrics svc)
               (Net.Fault.seeded ~seed:42 ~rate ()))
        else None
      in
      let client = Net.Client.loopback ~retry ~env ?fault:armed server in
      (* retry/fallback counters land on the ambient tracer's registry;
         point it at the service's so one snapshot tells the story *)
      let tracer =
        Omni_obs.Trace.make ~metrics:(Svc.metrics svc) Omni_obs.Trace.Null
      in
      Omni_obs.Trace.with_current tracer @@ fun () ->
      let handles =
        List.map
          (fun (p, bytes) -> (p, Net.Client.submit client bytes))
          prepared
      in
      let round () =
        List.iter
          (fun arch ->
            List.iter
              (fun (p, h) ->
                let r =
                  Net.Client.run ~engine:(Exec.Target arch) ~fuel client h
                in
                let lh = List.assq p local_handles in
                if not (String.equal r.Exec.output (local_output arch lh))
                then
                  fail "resilience: %s/%s wrong output at fault rate %g"
                    p.p_name (Arch.name arch) rate)
              handles)
          all_archs
      in
      let t0 = Sys.time () in
      for _ = 1 to rounds do
        round ()
      done;
      let per_round = 1e3 *. (Sys.time () -. t0) /. float_of_int rounds in
      let reg = Svc.metrics svc in
      let c name = Omni_obs.Metrics.value (Omni_obs.Metrics.counter reg name) in
      Buffer.add_string buf
        (Printf.sprintf "%-8g %10d %10d %10d %10d %12.2f\n" rate
           (c "net.requests")
           (match armed with
           | Some a -> Net.Fault.injected a
           | None -> 0)
           (c "net.retry") (c "net.limit.rejected") per_round))
    [ 0.0; 0.01; 0.05 ];
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Watchdog overhead: the wall-clock deadline is polled cooperatively —
   one counter decrement per instruction, a clock reading every K
   instructions. Measured against a no-watchdog baseline with the
   deadline far in the future: the cost of being interruptible, not of
   being interrupted. Outputs are validated bit-for-bit — an armed
   watchdog must never perturb execution. *)
let isolation ~size =
  let module Exec = Omni_service.Exec in
  let module Supervise = Omni_service.Supervise in
  let ws = workloads ~size in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Isolation: wall-clock watchdog poll overhead on the interpreter\n\
     (whole workload suite per round; deadline far in the future).\n\n";
  let fuel = 4_000_000_000 in
  let prepared = List.map prepare ws in
  let round poll_every () =
    List.iter
      (fun p ->
        let img = Exec.load p.p_exe in
        let watchdog =
          Option.map
            (fun k -> Supervise.watchdog ~poll_every:k ~budget_s:1e9 ())
            poll_every
        in
        let r = Exec.run_interp ~fuel ?watchdog img in
        if not (String.equal r.Exec.output p.p_expected) then
          fail "isolation: %s wrong output under watchdog" p.p_name)
      prepared
  in
  let rounds = 3 in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to rounds do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int rounds
  in
  (* warm the prepare cache so compilation never lands in a timing *)
  ignore (time (round None));
  let base = time (round None) in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %12s %10s\n" "poll every" "round (ms)" "overhead");
  Buffer.add_string buf
    (Printf.sprintf "%-12s %12.2f %10s\n" "off" (1e3 *. base) "1.00x");
  List.iter
    (fun k ->
      let t = time (round (Some k)) in
      Buffer.add_string buf
        (Printf.sprintf "%-12d %12.2f %9.2fx\n" k (1e3 *. t)
           (t /. Float.max 1e-9 base)))
    [ 1_024; 16_384; 65_536 ];
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Proof-carrying translation: produce-once / check-cheap. For each arch
   and each certifiable SFI policy, translate + certify every workload
   once (the cold-path cost, paid per distinct module), then time the
   full static verifier against the witness checker on identical
   translated code — the two candidate costs of a warm cache admission.
   Certification only applies to Sandbox-mode policies (Guard and Off
   translations carry no Wahbe-style masking sequences to witness). *)

let cert_policies =
  [ ("sandbox", Omni_sfi.Policy.make ());
    ("sandbox+reads", Omni_sfi.Policy.make ~protect_reads:true ()) ]

type cert_cell = {
  cc_arch : string;
  cc_policy : string;
  cc_produce_s : float;  (* certify the whole suite once *)
  cc_full_s : float;  (* full static re-verify, whole suite, per round *)
  cc_check_s : float;  (* witness check, whole suite, per round *)
  cc_bytes : int;  (* total encoded omni-cert/1 bytes for the suite *)
}

let cert_measure ~size : cert_cell list =
  let module Exec = Omni_service.Exec in
  let module Cert = Omni_cert.Certificate in
  let ws = workloads ~size in
  List.concat_map
    (fun arch ->
      List.map
        (fun (pname, pol) ->
          let mode = Machine.Mobile pol in
          let opts = Api.mobile_opts arch in
          let items =
            List.map
              (fun (w : Omni_workloads.Workloads.t) ->
                let p = prepare w in
                let digest =
                  Omni_util.Fnv64.digest_string (Omnivm.Wire.encode p.p_exe)
                in
                (p, digest, Exec.translate ~mode ~opts arch p.p_exe))
              ws
          in
          let t0 = Sys.time () in
          let certs =
            List.map
              (fun (p, digest, tr) ->
                match Exec.certify ~module_digest:digest ~mode ~opts tr with
                | Ok c -> (p, digest, tr, Exec.fingerprint tr, c)
                | Error msg ->
                    fail "cert: %s/%s/%s refused certification: %s" p.p_name
                      (Arch.name arch) pname msg)
              items
          in
          let produce = Sys.time () -. t0 in
          let bytes =
            List.fold_left
              (fun acc (_, _, _, _, c) -> acc + String.length (Cert.encode c))
              0 certs
          in
          (* Warm-admission candidate A: the full static verifier — what
             every cache hit paid before witnesses existed. *)
          let run_full () =
            List.iter
              (fun ((p : prepared), _, tr, _, _) ->
                match Exec.verify tr with
                | Ok () -> ()
                | Error msg ->
                    fail "cert: full verify refused %s/%s/%s: %s" p.p_name
                      (Arch.name arch) pname msg)
              certs
          in
          (* Warm-admission candidate B: the witness check (the cache
             stores the code fingerprint, so pass it as the cache does). *)
          let run_check () =
            List.iter
              (fun ((p : prepared), digest, tr, fp, c) ->
                match
                  Exec.check_cert ~module_digest:digest ~mode ~opts
                    ~code_fp:fp c tr
                with
                | Ok () -> ()
                | Error msg ->
                    fail "cert: witness check refused %s/%s/%s: %s" p.p_name
                      (Arch.name arch) pname msg)
              certs
          in
          (* Adaptive paired timing: per candidate, double the batch until
             one batch takes at least 50ms of CPU time (so neither number
             sits at the clock's resolution floor), then time the two
             candidates ALTERNATELY for five rounds and keep each one's
             minimum. Alternation matters: external interference (other
             tenants, frequency shifts) arrives in bursts longer than one
             batch, so back-to-back batches of the two candidates see the
             same conditions and the per-candidate minima land in the same
             quiet window — where sequential timing lets a burst inflate
             one column but not the other. The min is the right estimator
             for "how fast is this code": interference is additive. *)
          let calibrate f =
            f ();
            (* warmup *)
            let rec go batch =
              let t0 = Sys.time () in
              for _ = 1 to batch do
                f ()
              done;
              if Sys.time () -. t0 >= 0.05 then batch else go (batch * 2)
            in
            go 1
          in
          let batch_full = calibrate run_full in
          let batch_check = calibrate run_check in
          let best_full = ref infinity and best_check = ref infinity in
          for _ = 1 to 5 do
            let t0 = Sys.time () in
            for _ = 1 to batch_full do
              run_full ()
            done;
            let e = Sys.time () -. t0 in
            if e < !best_full then best_full := e;
            let t0 = Sys.time () in
            for _ = 1 to batch_check do
              run_check ()
            done;
            let e = Sys.time () -. t0 in
            if e < !best_check then best_check := e
          done;
          let full = !best_full /. float_of_int batch_full in
          let check = !best_check /. float_of_int batch_check in
          {
            cc_arch = Arch.name arch;
            cc_policy = pname;
            cc_produce_s = produce;
            cc_full_s = full;
            cc_check_s = check;
            cc_bytes = bytes;
          })
        cert_policies)
    all_archs

(* End-to-end honesty check for the numbers above: run every workload
   twice per arch through a serving stack — the second (warm) admission
   goes through the witness check — and insist the output is bit-identical
   to the interpreter's, and that the witness path actually ran. *)
let cert_validate ~size =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let ws = workloads ~size in
  let svc = Svc.of_config Svc.default_config in
  let fuel = 4_000_000_000 in
  let handles =
    List.map
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        (p, Svc.submit svc (Omnivm.Wire.encode p.p_exe)))
      ws
  in
  List.iter
    (fun arch ->
      List.iter
        (fun ((p : prepared), h) ->
          for _ = 1 to 2 do
            let r = Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h in
            if not (String.equal r.Exec.output p.p_expected) then
              fail "cert: %s/%s wrong output on the witness-checked path"
                p.p_name (Arch.name arch)
          done)
        handles)
    all_archs;
  let c = Svc.stats svc in
  if c.SC.s_cert_checks = 0 then
    fail "cert: warm admissions never took the witness-check path";
  if c.SC.s_verify_fail > 0 then
    fail "cert: %d warm admissions were rejected" c.SC.s_verify_fail;
  c

let cert_amortization ~size =
  let module SC = Omni_service.Counters in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Proof-carrying translation: produce-once safety witnesses vs per-hit\n\
     full re-verification (whole workload suite per cell; produce = certify\n\
     once, the other columns are one warm admission of the suite).\n\n";
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-14s %12s %16s %18s %9s %7s\n" "arch" "policy"
       "produce (ms)" "full-verify (ms)" "witness-check (ms)" "speedup"
       "bytes");
  let cells = cert_measure ~size in
  let min_speedup = ref infinity in
  List.iter
    (fun c ->
      let speedup = c.cc_full_s /. Float.max 1e-9 c.cc_check_s in
      if speedup < !min_speedup then min_speedup := speedup;
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-14s %12.2f %16.3f %18.3f %8.1fx %7d\n"
           c.cc_arch c.cc_policy (1e3 *. c.cc_produce_s) (1e3 *. c.cc_full_s)
           (1e3 *. c.cc_check_s) speedup c.cc_bytes))
    cells;
  let stats = cert_validate ~size in
  Buffer.add_string buf
    (Printf.sprintf
       "\nwitness-checked serving path: outputs bit-identical to the\n\
        interpreter on every workload x arch (%d witness checks, %d full\n\
        re-verifies, %d failures); minimum speedup %.1fx (gate: >= 5x)\n"
       stats.SC.s_cert_checks stats.SC.s_cert_full_verify
       stats.SC.s_verify_fail !min_speedup);
  if !min_speedup < 5.0 then
    Buffer.add_string buf "WARNING: speedup below the 5x acceptance gate\n";
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parallel serving: seeded concurrent load on one shared server ---

   A burst of seeded requests dispatched through ONE shared server — one
   service, one sharded store and cache, atomic counters — by D worker
   domains, D in {1, 2, 4, 8}, each calling [Server.handle_request]
   directly (the same dispatch the domain pool's workers run, minus the
   socket plumbing). Request i belongs to worker (i mod D). Correctness
   is asserted, not hoped for: every response is digested and compared
   bit-for-bit against a serial reference round, and the service
   counters must add up exactly — every miss is one distinct translation
   configuration, every other admission a hit, instantiations equal to
   requests served. Latency is per-request wall time around the
   dispatch; round time and throughput use the wall clock
   ([Unix.gettimeofday]) because the CPU clock sums across domains. *)

type conc_row = {
  cy_domains : int;
  cy_wall_s : float;  (** round wall time, spawn to last join *)
  cy_rps : float;
  cy_p50_us : int;
  cy_p95_us : int;
  cy_p99_us : int;
}

type conc_run = {
  cy_rows : conc_row list;
  cy_requests : int;  (** requests per round *)
  cy_tenants : int;  (** distinct tenant modules in the mix *)
  cy_configs : int;  (** distinct (module, arch, sfi) translation configs *)
  cy_serial_cpu_s : float;  (** CPU time of the one-domain round *)
  cy_cores : int;  (** [Domain.recommended_domain_count ()] *)
}

(* Four small tenant modules with distinct outputs and distinct dynamic
   shapes (arithmetic loop, recursion, memory traffic, I/O chatter).
   The paper suite would be the wrong load here: its runs are tens of
   milliseconds of pure simulation each, which swamps the serving-layer
   effects this experiment is about. Small modules give request service
   times in the low milliseconds, where dispatch, cache, and scheduling
   contention are actually visible. *)
let conc_tenants =
  [
    ( "conc-sum",
      {| int main(void) {
           int i; int s = 0;
           for (i = 0; i < 800; i++) s = s + i * 3;
           print_int(s); putchar(10); return 0; } |} );
    ( "conc-fib",
      {| int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
         int main(void) { print_int(f(13)); putchar(10); return 0; } |} );
    ( "conc-mem",
      {| int a[256];
         int main(void) {
           int i; int s = 0;
           for (i = 0; i < 256; i++) a[i] = i * 7;
           for (i = 0; i < 256; i++) s = s + a[255 - i];
           print_int(s); putchar(10); return 0; } |} );
    ( "conc-io",
      {| int main(void) {
           int i;
           for (i = 0; i < 40; i++) { print_int(i * i); putchar(32); }
           putchar(10); return 0; } |} );
  ]

let concurrency_measure ~size : conc_run =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let module Net = Omni_net in
  let module M = Net.Message in
  let fuel = 50_000_000 in
  let n =
    match size with Omni_workloads.Workloads.Test -> 192 | _ -> 384
  in
  let svc = Svc.of_config Svc.default_config in
  let server = Net.Server.create svc in
  let handles =
    conc_tenants
    |> List.map (fun (name, src) ->
           match
             Net.Server.handle_request server (M.Submit (Api.compile ~name src))
           with
           | M.Submitted d -> d
           | _ -> fail "concurrency: submit refused")
    |> Array.of_list
  in
  let rng = Omni_util.Lcg.create 1996 in
  let schedule =
    Array.init n (fun _ ->
        let h = handles.(Omni_util.Lcg.int rng (Array.length handles)) in
        let arch = List.nth all_archs (Omni_util.Lcg.int rng 4) in
        let sfi = Omni_util.Lcg.int rng 4 > 0 in
        {
          M.rs_handle = h;
          rs_engine = Exec.Target arch;
          rs_sfi = sfi;
          rs_mode = M.M_default;
          rs_fuel = Some fuel;
          rs_deadline_s = None;
          rs_want_cert = false;
        })
  in
  let configs =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun rs -> Hashtbl.replace tbl (rs.M.rs_handle, rs.M.rs_engine, rs.M.rs_sfi) ())
      schedule;
    Hashtbl.length tbl
  in
  let dispatch i =
    let fr = M.encode_resp (Net.Server.handle_request server (M.Run schedule.(i))) in
    Omni_util.Fnv64.digest_string
      (Printf.sprintf "%d:%s" fr.Net.Frame.tag fr.Net.Frame.payload)
  in
  (* The serial reference round doubles as the warm-up: after it, every
     configuration the schedule can ask for is cached, and its answers
     are the bit-identity baseline for every concurrent round. *)
  let reference = Array.init n dispatch in
  let after_ref = Svc.stats svc in
  if after_ref.SC.s_misses <> configs then
    fail "concurrency: %d misses for %d distinct configs" after_ref.SC.s_misses
      configs;
  if after_ref.SC.s_hits + after_ref.SC.s_misses <> n then
    fail "concurrency: reference round saw %d cache lookups for %d requests"
      (after_ref.SC.s_hits + after_ref.SC.s_misses)
      n;
  let run_round domains =
    let lat = Array.make n 0. in
    let out = Array.make n 0L in
    let work d () =
      let i = ref d in
      while !i < n do
        let t0 = Unix.gettimeofday () in
        out.(!i) <- dispatch !i;
        lat.(!i) <- Unix.gettimeofday () -. t0;
        i := !i + domains
      done
    in
    let w0 = Unix.gettimeofday () in
    let c0 = Sys.time () in
    let workers = List.init domains (fun d -> Domain.spawn (work d)) in
    List.iter Domain.join workers;
    let wall = Unix.gettimeofday () -. w0 in
    let cpu = Sys.time () -. c0 in
    Array.iteri
      (fun i d ->
        if not (Int64.equal d reference.(i)) then
          fail "concurrency: request %d diverged under %d domains" i domains)
      out;
    Array.sort compare lat;
    let pct p = int_of_float (1e6 *. lat.(min (n - 1) (p * n / 100))) in
    ( {
        cy_domains = domains;
        cy_wall_s = wall;
        cy_rps = float_of_int n /. Float.max 1e-9 wall;
        cy_p50_us = pct 50;
        cy_p95_us = pct 95;
        cy_p99_us = pct 99;
      },
      cpu )
  in
  let pool_sizes = [ 1; 2; 4; 8 ] in
  let measured = List.map run_round pool_sizes in
  let final = Svc.stats svc in
  let rounds = List.length pool_sizes in
  if final.SC.s_misses <> configs then
    fail "concurrency: warm rounds translated (%d misses, expected %d)"
      final.SC.s_misses configs;
  if final.SC.s_hits <> after_ref.SC.s_hits + (rounds * n) then
    fail "concurrency: hit counter lost updates (%d, expected %d)"
      final.SC.s_hits
      (after_ref.SC.s_hits + (rounds * n));
  if final.SC.s_instantiations <> (rounds + 1) * n then
    fail "concurrency: %d instantiations for %d dispatches"
      final.SC.s_instantiations
      ((rounds + 1) * n);
  if final.SC.s_verify_fail > 0 then
    fail "concurrency: %d warm admissions rejected" final.SC.s_verify_fail;
  {
    cy_rows = List.map fst measured;
    cy_requests = n;
    cy_tenants = Array.length handles;
    cy_configs = configs;
    cy_serial_cpu_s = snd (List.hd measured);
    cy_cores = Domain.recommended_domain_count ();
  }

let concurrency ~size =
  let c = concurrency_measure ~size in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "Parallel serving: %d seeded warm requests (%d distinct translation\n\
     configurations across %d tenant modules x 4 archs, SFI mostly on)\n\
     dispatched through one shared server by D worker domains. Every round's\n\
     responses are bit-identical to the serial reference and the shared\n\
     counters sum exactly, or this table refuses to print.\n\n"
    c.cy_requests c.cy_configs c.cy_tenants;
  Printf.bprintf buf "%-8s %11s %9s %10s %10s %10s\n" "domains" "wall (ms)"
    "req/s" "p50 (us)" "p95 (us)" "p99 (us)";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-8d %11.1f %9.0f %10d %10d %10d\n" r.cy_domains
        (1e3 *. r.cy_wall_s) r.cy_rps r.cy_p50_us r.cy_p95_us r.cy_p99_us)
    c.cy_rows;
  Printf.bprintf buf
    "\nhost reports %d recommended domain(s): domains beyond the physical\n\
     cores contend on the minor-GC stop-the-world barrier, so oversizing\n\
     the pool adds tail latency without adding throughput — size pools to\n\
     cores, not tenants.\n\n"
    c.cy_cores;
  Buffer.contents buf

(* --- guest front-end: StackVM -> OmniVM lifting ----------------------- *)

(* Assemble + oracle-run + lift cache for the guest workloads. The oracle
   output is the ground truth every lifted run must reproduce byte for
   byte, exactly as [prepare] uses the OmniVM interpreter for MiniC. *)
type gprepared = {
  g_name : string;
  g_prog : Omni_guest.Isa.program;
  g_exe : Omnivm.Exe.t;
  g_expected : string;
  g_oracle_steps : int; (* guest ops the oracle executed *)
}

let gprepare_cache : (string, gprepared) Hashtbl.t = Hashtbl.create 8

let gprepare (w : Omni_workloads.Workloads.Guest.t) : gprepared =
  match Hashtbl.find_opt gprepare_cache w.name with
  | Some g -> g
  | None ->
      let prog =
        match Omni_guest.Asm.assemble w.asm with
        | Ok p -> p
        | Error e -> fail "%s: %s" w.name (Omni_guest.Error.to_string e)
      in
      let o = Omni_guest.Interp.run ~fuel:2_000_000_000 prog in
      (match o.Omni_guest.Interp.outcome with
      | Omni_guest.Interp.Exited 0 -> ()
      | Omni_guest.Interp.Exited c ->
          fail "%s exited %d under the guest oracle" w.name c
      | Omni_guest.Interp.Faulted f ->
          fail "%s faulted under the guest oracle: %s" w.name
            (Omnivm.Fault.to_string f)
      | Omni_guest.Interp.Out_of_fuel -> fail "%s oracle out of fuel" w.name);
      let exe =
        match Omni_guest.Lift.lift_exe prog with
        | Ok e -> e
        | Error e -> fail "%s lift: %s" w.name (Omni_guest.Error.to_string e)
      in
      let g =
        {
          g_name = w.name;
          g_prog = prog;
          g_exe = exe;
          g_expected = o.Omni_guest.Interp.output;
          g_oracle_steps = o.Omni_guest.Interp.steps;
        }
      in
      Hashtbl.replace gprepare_cache w.name g;
      g

(* Wall-clock lift time (assemble excluded: bytes-in is the product's
   ingestion path), best-effort averaged over reps like [translation_speed]. *)
(* Best-of-batches: lifting one workload takes ~10us, where scheduler
   jitter swamps a single average. The minimum over several batches is
   the standard noise-robust statistic for a deterministic hot path —
   it is what the bench gate diffs, so it must be reproducible. *)
let glift_time (g : gprepared) : float =
  let reps = 50 and batches = 5 in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (Omni_guest.Lift.lift_exe g.g_prog)
    done;
    let per = (Sys.time () -. t0) /. float_of_int reps in
    if per < !best then best := per
  done;
  !best

(* Run the lifted module and validate against the oracle's output. *)
let grun (g : gprepared) ~engine ?mode ?opts () : Api.run_result =
  let r =
    Api.run
      { Api.default_request with engine; mode; opts; fuel = Some 2_000_000_000 }
      (Api.Exe g.g_exe)
  in
  (match r.Api.outcome with
  | Machine.Exited 0 -> ()
  | Machine.Exited c -> fail "%s (lifted) exited %d" g.g_name c
  | Machine.Faulted f ->
      fail "%s (lifted) faulted: %s" g.g_name (Omnivm.Fault.to_string f)
  | Machine.Out_of_fuel -> fail "%s (lifted) out of fuel" g.g_name);
  if not (String.equal r.Api.output g.g_expected) then
    fail "%s (lifted) diverged from the guest oracle" g.g_name;
  r

let guest_front_end ~size =
  let ws = Omni_workloads.Workloads.Guest.all ~size in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Guest front-end: StackVM bytecode lifted to OmniVM\n\
     (every run below validated byte-for-byte against the guest oracle)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "%-12s %9s %12s %12s %10s\n" "program" "lift-us"
       "guest-steps" "omni-instrs" "expansion");
  List.iter
    (fun (w : Omni_workloads.Workloads.Guest.t) ->
      let g = gprepare w in
      let lift_s = glift_time g in
      let r = grun g ~engine:Api.Interp () in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %9.0f %12d %12d %9.1fx\n" g.g_name
           (1e6 *. lift_s) g.g_oracle_steps r.Api.instructions
           (float_of_int r.Api.instructions
           /. float_of_int (max 1 g.g_oracle_steps))))
    ws;
  Buffer.add_string buf
    "\nSFI overhead of the lifted modules (cycles relative to the same\n\
     translator without SFI):\n";
  Buffer.add_string buf (Printf.sprintf "%-12s" "program");
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "%9s" (Arch.name a)))
    all_archs;
  Buffer.add_char buf '\n';
  let totals = Array.make (List.length all_archs) 0.0 in
  List.iter
    (fun (w : Omni_workloads.Workloads.Guest.t) ->
      let g = gprepare w in
      Buffer.add_string buf (Printf.sprintf "%-12s" g.g_name);
      List.iteri
        (fun i arch ->
          let cycles config =
            let mode, opts = mode_and_opts arch config in
            (grun g ~engine:(Api.Target arch) ~mode ~opts ()).Api.cycles
          in
          let ratio =
            float_of_int (cycles Mobile_sfi)
            /. float_of_int (max 1 (cycles Mobile_nosfi))
          in
          totals.(i) <- totals.(i) +. ratio;
          Buffer.add_string buf (Printf.sprintf "%9.3f" ratio))
        all_archs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.add_string buf (Printf.sprintf "%-12s" "average");
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%9.3f" (t /. float_of_int (List.length ws))))
    totals;
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* --- the fast path: pre-decoded threaded interpreter ------------------

   Two measurements. First, steady-state wall-clock time per retired
   OmniVM instruction under the pre-decoded closure-threaded interpreter
   ({!Omnivm.Fastinterp}) against the baseline decode-as-you-go
   interpreter, over both workload families (MiniC-compiled and
   guest-lifted), outputs validated bit-for-bit. The one-time pre-decode
   (compile + fusion) is reported separately — the serving stack
   amortizes it through {!Omni_service.Store.predecoded}. Second, the
   SFI-overhead table gains a padding dimension: each translation-time
   pad mode ({!Omni_sfi.Policy.pad}) re-lays-out the masking sequences,
   and the table reports its simulated-cycle cost per arch. *)

type fast_cell = {
  fc_name : string;
  fc_family : string; (* "minic" | "guest" *)
  fc_instrs : int; (* source instructions retired *)
  fc_len : int; (* static program length *)
  fc_fused : int; (* fused pairs the peephole pass selected *)
  fc_predecode_s : float; (* one-time compile + fuse *)
  fc_interp_s : float; (* best-of-batches run wall clock *)
  fc_fast_s : float;
}

let fast_cache : (string, fast_cell list) Hashtbl.t = Hashtbl.create 4

let fastpath_measure ~size : fast_cell list =
  let module Exec = Omni_service.Exec in
  let skey =
    match size with Omni_workloads.Workloads.Test -> "test" | _ -> "ref"
  in
  match Hashtbl.find_opt fast_cache skey with
  | Some cs -> cs
  | None ->
      let fuel = 4_000_000_000 in
      let batches = 3 and reps = 2 in
      let cell ~family name (exe : Omnivm.Exe.t) expected : fast_cell =
        let text = exe.Omnivm.Exe.text in
        let program = Omnivm.Fastinterp.compile text in
        let predecode_s =
          (* lifting-style best-of-batches: pre-decode is ~microseconds *)
          let preps = 20 in
          let best = ref infinity in
          for _ = 1 to batches do
            let t0 = Sys.time () in
            for _ = 1 to preps do
              ignore (Omnivm.Fastinterp.compile text)
            done;
            let per = (Sys.time () -. t0) /. float_of_int preps in
            if per < !best then best := per
          done;
          !best
        in
        let timed run =
          (* a fresh image per rep (run state is consumed); images are
             loaded outside the timed region, runs inside *)
          let best = ref infinity and instrs = ref 0 in
          for _ = 1 to batches do
            let imgs = Array.init reps (fun _ -> Exec.load exe) in
            let t0 = Sys.time () in
            let rs = Array.map (fun img -> (run img : Exec.run_result)) imgs in
            let per = (Sys.time () -. t0) /. float_of_int reps in
            Array.iter
              (fun (r : Exec.run_result) ->
                (match r.Exec.outcome with
                | Machine.Exited 0 -> ()
                | _ -> fail "%s: fast-path bench run did not exit 0" name);
                if not (String.equal r.Exec.output expected) then
                  fail "%s: fast-path bench produced wrong output" name;
                instrs := r.Exec.instructions)
              rs;
            if per < !best then best := per
          done;
          (!best, !instrs)
        in
        let interp_s, instrs = timed (fun img -> Exec.run_interp ~fuel img) in
        let fast_s, fast_instrs =
          timed (fun img -> Exec.run_fast ~fuel ~program img)
        in
        if fast_instrs <> instrs then
          fail "%s: fast path retired %d instructions, interpreter %d" name
            fast_instrs instrs;
        {
          fc_name = name;
          fc_family = family;
          fc_instrs = instrs;
          fc_len = Omnivm.Fastinterp.length program;
          fc_fused = Omnivm.Fastinterp.fused program;
          fc_predecode_s = predecode_s;
          fc_interp_s = interp_s;
          fc_fast_s = fast_s;
        }
      in
      let minic =
        List.map
          (fun (w : Omni_workloads.Workloads.t) ->
            let p = prepare w in
            cell ~family:"minic" p.p_name p.p_exe p.p_expected)
          (workloads ~size)
      in
      let guest =
        List.map
          (fun (w : Omni_workloads.Workloads.Guest.t) ->
            let g = gprepare w in
            cell ~family:"guest" g.g_name g.g_exe g.g_expected)
          (Omni_workloads.Workloads.Guest.all ~size)
      in
      let cs = minic @ guest in
      Hashtbl.replace fast_cache skey cs;
      cs

(* Simulated cycles of one (workload, arch, pad) cell, validated and
   cached like [measure] — the padding dimension of the SFI tables. *)
let pad_run_cache : (string * string * string, int) Hashtbl.t =
  Hashtbl.create 64

let pad_cycles (w : Omni_workloads.Workloads.t) (arch : Arch.t)
    (pad : Omni_sfi.Policy.pad) : int =
  let pname = Omni_sfi.Policy.pad_name pad in
  let key = (w.name, Arch.name arch, pname) in
  match Hashtbl.find_opt pad_run_cache key with
  | Some c -> c
  | None ->
      let p = prepare w in
      let mode = Machine.Mobile (Omni_sfi.Policy.make ~pad ()) in
      let r =
        Api.run
          { Api.default_request with
            engine = Api.Target arch; mode = Some mode;
            opts = Some (Api.mobile_opts arch); fuel = Some 4_000_000_000 }
          (Api.Exe p.p_exe)
      in
      (match r.Api.outcome with
      | Machine.Exited 0 -> ()
      | _ ->
          fail "%s/%s/pad=%s did not exit 0" w.name (Arch.name arch) pname);
      if not (String.equal r.Api.output p.p_expected) then
        fail "%s/%s/pad=%s produced wrong output" w.name (Arch.name arch)
          pname;
      Hashtbl.replace pad_run_cache key r.Api.cycles;
      r.Api.cycles

let fastpath ~size =
  let cells = fastpath_measure ~size in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Fast path: pre-decoded threaded interpreter vs the baseline \
     interpreter\n\
     (wall-clock ns per retired OmniVM instruction; outputs validated \
     bit-for-bit;\npre-decode is the one-time compile+fusion cost the \
     service's decode cache amortizes)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-6s %10s %7s %12s %10s %10s %8s\n" "program"
       "family" "instrs" "fused%" "predecode-us" "interp-ns" "fast-ns"
       "speedup");
  let per_ns c s = 1e9 *. s /. float_of_int (max 1 c.fc_instrs) in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-6s %10d %6.1f%% %12.1f %10.2f %10.2f %7.2fx\n"
           c.fc_name c.fc_family c.fc_instrs
           (100.0 *. float_of_int c.fc_fused /. float_of_int (max 1 c.fc_len))
           (1e6 *. c.fc_predecode_s) (per_ns c c.fc_interp_s)
           (per_ns c c.fc_fast_s)
           (c.fc_interp_s /. Float.max 1e-12 c.fc_fast_s)))
    cells;
  List.iter
    (fun family ->
      let fs = List.filter (fun c -> c.fc_family = family) cells in
      if fs <> [] then begin
        let sum f = List.fold_left (fun a c -> a +. f c) 0.0 fs in
        Buffer.add_string buf
          (Printf.sprintf
             "%-12s %-6s %10s %7s %12s %10.2f %10.2f %7.2fx\n"
             ("avg/" ^ family) family "-" "-" "-"
             (1e9 *. sum (fun c -> c.fc_interp_s)
             /. sum (fun c -> float_of_int (max 1 c.fc_instrs)))
             (1e9 *. sum (fun c -> c.fc_fast_s)
             /. sum (fun c -> float_of_int (max 1 c.fc_instrs)))
             (sum (fun c -> c.fc_interp_s)
             /. Float.max 1e-12 (sum (fun c -> c.fc_fast_s))))
      end)
    [ "minic"; "guest" ];
  Buffer.add_char buf '\n';
  let ws = workloads ~size in
  Buffer.add_string buf
    "SFI overhead by padding mode: translated cycles relative to native \
     code (cc)\n(pad=none is the plain SFI column of Tables 1/3)\n\n";
  List.iter
    (fun arch ->
      Buffer.add_string buf
        (render_ratio_table
           ~title:(Printf.sprintf "  [%s]" (Arch.name arch))
           ~columns:
             (List.map Omni_sfi.Policy.pad_name Omni_sfi.Policy.all_pads)
           ~rows:
             (List.map (fun (w : Omni_workloads.Workloads.t) -> w.name) ws)
           ~cell:(fun r c ->
             let w =
               List.find
                 (fun (w : Omni_workloads.Workloads.t) -> w.name = r)
                 ws
             in
             let pad = Option.get (Omni_sfi.Policy.pad_of_string c) in
             Some
               (float_of_int (pad_cycles w arch pad)
               /. float_of_int (max 1 (measure w arch Native_cc).m_cycles))));
      Buffer.add_char buf '\n')
    all_archs;
  Buffer.contents buf

(* --- persistence: crash-safe store restart costs (PR 10) --------------

   One serving round (submit + translate on X86) is measured four ways:
   with no store attached (the baseline), cold with journaling on (the
   append overhead), reopened after a simulated kill -9 (dirty recovery:
   journal replay + full witness re-proof), and reopened after a graceful
   close (the clean-marker fast path). The warm serving round on the
   recovered service shows the payoff: zero translations, only
   witness re-checks. *)

type persist_cell = {
  pc_baseline_s : float; (* cold round, no store attached *)
  pc_cold_s : float; (* cold round, journaling every admit *)
  pc_dirty_restart_s : float; (* reopen after kill -9 (no marker) *)
  pc_clean_restart_s : float; (* reopen after graceful close *)
  pc_warm_round_s : float; (* serving round on the recovered service *)
  pc_records : int; (* journal records on disk *)
  pc_seg_bytes : int;
  pc_recovered : int; (* records re-admitted on the dirty restart *)
  pc_cert_checks : int; (* witness checks during the warm round *)
  pc_full_verifies : int; (* full verifies there — stays 0 *)
  pc_translations : int; (* translations there — stays 0 *)
}

let persist_measure ~size : persist_cell =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let ws = workloads ~size in
  (* The round is submit + translate + a fuel-capped run: execution cost
     is identical cold and warm and is not what this section measures —
     capping it keeps the admission path (translation vs witness
     re-check) visible instead of drowned in simulated instructions. *)
  let fuel = 5_000 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omni-bench-persist-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  let round svc =
    List.iter
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        let h = Svc.submit svc (Omnivm.Wire.encode p.p_exe) in
        ignore (Svc.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h))
      ws
  in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (Sys.time () -. t0, r)
  in
  let persisted () =
    { Svc.default_config with Svc.persist = Some (Omni_persist.Io.real ~dir) }
  in
  (* untimed warm-up: fill the prepare cache and pay one-time lazy
     initialization so the first timed round isn't charged for it *)
  round (Svc.of_config Svc.default_config);
  let pc_baseline_s =
    let best = ref infinity in
    for _ = 1 to 3 do
      let s, () = time (fun () -> round (Svc.of_config Svc.default_config)) in
      if s < !best then best := s
    done;
    !best
  in
  (* cold requires an empty store, so each iteration wipes the directory;
     the last iteration's (never-closed) store is what the restarts below
     recover *)
  let pc_cold_s =
    let best = ref infinity in
    for _ = 1 to 3 do
      cleanup ();
      let svc = Svc.of_config (persisted ()) in
      let s, () = time (fun () -> round svc) in
      if s < !best then best := s
    done;
    !best
  in
  (* kill -9: drop the service without close — no clean marker. Opening
     consumes the marker (a store is dirty until the next close), so the
     dirty restart repeats without re-killing and can be taken
     best-of-three like the other scheduler-sensitive paths. *)
  let pc_dirty_restart_s, svc_warm =
    let best = ref infinity and last = ref None in
    for _ = 1 to 3 do
      let s, svc = time (fun () -> Svc.of_config (persisted ())) in
      if s < !best then best := s;
      last := Some svc
    done;
    (!best, Option.get !last)
  in
  let recovered =
    match Svc.recovery svc_warm with
    | Some r ->
        List.length r.Omni_persist.Store.r_modules
        + List.length r.Omni_persist.Store.r_translations
    | None -> 0
  in
  (* the warm round is idempotent (submits dedupe, the cache hits), so
     it too repeats; the counters are captured after the first round *)
  let first_warm_s, () = time (fun () -> round svc_warm) in
  let stats = Svc.stats svc_warm in
  let pc_warm_round_s =
    let best = ref first_warm_s in
    for _ = 1 to 2 do
      let s, () = time (fun () -> round svc_warm) in
      if s < !best then best := s
    done;
    !best
  in
  (* graceful shutdown commits the marker: the next open is the fast path *)
  Svc.close svc_warm;
  (* each clean open consumes the marker and each close rewrites it, so
     this too repeats *)
  let pc_clean_restart_s =
    let best = ref infinity in
    for _ = 1 to 3 do
      let s, svc = time (fun () -> Svc.of_config (persisted ())) in
      if s < !best then best := s;
      Svc.close svc
    done;
    !best
  in
  let st = Omni_persist.Store.stat (Omni_persist.Io.real ~dir) in
  {
    pc_baseline_s;
    pc_cold_s;
    pc_dirty_restart_s;
    pc_clean_restart_s;
    pc_warm_round_s;
    pc_records = st.Omni_persist.Store.st_records;
    pc_seg_bytes = st.Omni_persist.Store.st_seg_bytes;
    pc_recovered = recovered;
    pc_cert_checks = stats.SC.s_cert_checks;
    pc_full_verifies = stats.SC.s_cert_full_verify;
    pc_translations = stats.SC.s_translations;
  }

let persistence ~size =
  let c = persist_measure ~size in
  let ms s = 1e3 *. s in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Persistence: crash-safe store restart costs (X86, submit+translate \
     round)\n\n";
  Printf.bprintf b "  cold round, no store attached   %8.2f ms\n"
    (ms c.pc_baseline_s);
  Printf.bprintf b
    "  cold round, journaling on       %8.2f ms  (journal overhead %+.2f \
     ms)\n"
    (ms c.pc_cold_s)
    (ms (c.pc_cold_s -. c.pc_baseline_s));
  Printf.bprintf b
    "  dirty restart (kill -9)         %8.2f ms  (replay + witness \
     re-proof, %d records)\n"
    (ms c.pc_dirty_restart_s) c.pc_recovered;
  Printf.bprintf b "  clean restart (marker)          %8.2f ms\n"
    (ms c.pc_clean_restart_s);
  Printf.bprintf b
    "  warm round after recovery       %8.2f ms  (%.1fx vs cold; %d \
     witness checks, %d full verifies, %d translations)\n"
    (ms c.pc_warm_round_s)
    (c.pc_cold_s /. Float.max 1e-9 c.pc_warm_round_s)
    c.pc_cert_checks c.pc_full_verifies c.pc_translations;
  Printf.bprintf b "  store: %d records, %d segment bytes\n" c.pc_records
    c.pc_seg_bytes;
  Buffer.add_string b
    (if c.pc_warm_round_s < c.pc_cold_s && c.pc_translations = 0 then
       "  => recovered translations served warm: no re-translation after \
        restart\n"
     else "  => WARNING: warm round did not beat cold\n");
  Buffer.contents b

(* --- machine-readable benchmark snapshot (BENCH_N.json) ---------------

   A compact re-measurement of the hot paths of every subsystem bench,
   emitted as stable JSON so successive runs can be diffed ([make
   bench-gate]). All times are integer microseconds of CPU time
   ([Sys.time]), which keeps the file parseable by the repo's small
   integer-only JSON readers and the numbers stable under scheduler
   noise. The [hot_paths] object is the gate's contract: flat
   name -> microseconds, nothing else promised to stay. *)

let bench_snapshot ~size : string =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let module Net = Omni_net in
  let us s = int_of_float (1e6 *. s) in
  let fuel = 4_000_000_000 in
  let ws = workloads ~size in
  let hot : (string * int) list ref = ref [] in
  let hot_add name v = hot := (name, v) :: !hot in
  (* phases: serving path under a Null tracer, per-phase histograms *)
  let m = Omni_obs.Metrics.create () in
  let phase_section =
    let tracer = Omni_obs.Trace.make ~metrics:m Omni_obs.Trace.Null in
    Omni_obs.Trace.with_current tracer @@ fun () ->
    let svc = Svc.of_config ~metrics:m Svc.default_config in
    List.iter
      (fun (w : Omni_workloads.Workloads.t) ->
        let p = prepare w in
        let h = Svc.submit svc (Omnivm.Wire.encode p.p_exe) in
        ignore (Svc.instantiate ~fuel svc h);
        List.iter
          (fun arch ->
            ignore (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h))
          all_archs)
      ws;
    let snap = Omni_obs.Metrics.snapshot m in
    List.filter_map
      (fun (name, (hs : Omni_obs.Metrics.hist_snapshot)) ->
        let n = String.length name in
        if n > 6 && String.sub name 0 6 = "phase." then begin
          let phase = String.sub name 6 (n - 6) in
          let mean =
            hs.Omni_obs.Metrics.hs_sum
            /. float_of_int (max 1 hs.Omni_obs.Metrics.hs_count)
          in
          (match phase with
          | "translate" | "verify" | "run" ->
              hot_add (Printf.sprintf "phase.%s.mean" phase) (us mean)
          | _ -> ());
          Some
            (Printf.sprintf
               "    \"%s\": {\"count\": %d, \"total_us\": %d, \"mean_us\": %d}"
               phase hs.Omni_obs.Metrics.hs_count
               (us hs.Omni_obs.Metrics.hs_sum)
               (us mean))
        end
        else None)
      snap.Omni_obs.Metrics.histograms
  in
  (* service: cold vs warm admission per arch, via the serving counters *)
  let service_section =
    let svc = Svc.of_config Svc.default_config in
    let handles =
      List.map
        (fun (w : Omni_workloads.Workloads.t) ->
          let p = prepare w in
          Svc.submit svc (Omnivm.Wire.encode p.p_exe))
        ws
    in
    let load_all arch =
      List.iter
        (fun h ->
          ignore (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h))
        handles
    in
    List.map
      (fun arch ->
        let cold0 = (Svc.stats svc).SC.s_cold_translate_s in
        load_all arch;
        let cold = (Svc.stats svc).SC.s_cold_translate_s -. cold0 in
        (* the warm round is ~100 us of re-verification: best of three so
           the gate judges the path, not the scheduler *)
        let warm = ref infinity in
        for _ = 1 to 3 do
          let warm0 = (Svc.stats svc).SC.s_warm_admit_s in
          load_all arch;
          let w = (Svc.stats svc).SC.s_warm_admit_s -. warm0 in
          if w < !warm then warm := w
        done;
        let warm = !warm in
        hot_add (Printf.sprintf "service.warm.%s" (Arch.name arch)) (us warm);
        Printf.sprintf "    \"%s\": {\"cold_us\": %d, \"warm_us\": %d}"
          (Arch.name arch) (us cold) (us warm))
      all_archs
  in
  (* remote: warm round trips over the loopback pair vs in-process *)
  let remote_section =
    let svc_r = Svc.of_config Svc.default_config in
    let server = Net.Server.create svc_r in
    let client = Net.Client.loopback server in
    let svc_l = Svc.of_config Svc.default_config in
    let prepared =
      List.map
        (fun (w : Omni_workloads.Workloads.t) ->
          Omnivm.Wire.encode (prepare w).p_exe)
        ws
    in
    let rh = List.map (Net.Client.submit client) prepared in
    let lh = List.map (Svc.submit svc_l) prepared in
    let time f =
      let t0 = Sys.time () in
      f ();
      Sys.time () -. t0
    in
    List.map
      (fun arch ->
        let remote_round () =
          List.iter
            (fun h ->
              ignore (Net.Client.run ~engine:(Exec.Target arch) ~fuel client h))
            rh
        in
        let local_round () =
          List.iter
            (fun h ->
              ignore (Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc_l h))
            lh
        in
        ignore (time remote_round);
        ignore (time local_round);
        let warm_r = time remote_round in
        let warm_l = time local_round in
        hot_add (Printf.sprintf "remote.warm.%s" (Arch.name arch)) (us warm_r);
        Printf.sprintf
          "    \"%s\": {\"warm_remote_us\": %d, \"warm_local_us\": %d}"
          (Arch.name arch) (us warm_r) (us warm_l))
      all_archs
  in
  (* resilience: one loopback round per fault rate, retrying client *)
  let resilience_section =
    List.map
      (fun rate ->
        let svc = Svc.of_config Svc.default_config in
        let server = Net.Server.create svc in
        let retry = { Net.Retry.default with max_attempts = 12 } in
        let env = Net.Retry.manual_env () in
        let fault =
          if rate > 0. then Some (Net.Fault.arm (Net.Fault.seeded ~seed:42 ~rate ()))
          else None
        in
        let client = Net.Client.loopback ~retry ~env ?fault server in
        let handles = List.map
            (fun (w : Omni_workloads.Workloads.t) ->
              Net.Client.submit client (Omnivm.Wire.encode (prepare w).p_exe))
            ws
        in
        let t0 = Sys.time () in
        List.iter
          (fun h ->
            ignore
              (Net.Client.run ~engine:(Exec.Target Arch.X86) ~fuel client h))
          handles;
        let round = Sys.time () -. t0 in
        let key = Printf.sprintf "rate_%g" rate in
        Printf.sprintf "    \"%s\": {\"round_us\": %d}" key (us round))
      [ 0.0; 0.05 ]
  in
  (* isolation: watchdog poll overhead at one representative K *)
  let isolation_section =
    let module Supervise = Omni_service.Supervise in
    let prepared = List.map prepare ws in
    let round poll_every () =
      List.iter
        (fun (p : prepared) ->
          let img = Exec.load p.p_exe in
          let watchdog =
            Option.map
              (fun k -> Supervise.watchdog ~poll_every:k ~budget_s:1e9 ())
              poll_every
          in
          ignore (Exec.run_interp ~fuel ?watchdog img))
        prepared
    in
    let time f =
      let t0 = Sys.time () in
      f ();
      Sys.time () -. t0
    in
    ignore (time (round None));
    let base = time (round None) in
    let polled = time (round (Some 16_384)) in
    hot_add "isolation.poll_16384" (us polled);
    [ Printf.sprintf "    \"off\": {\"round_us\": %d}" (us base);
      Printf.sprintf "    \"poll_16384\": {\"round_us\": %d}" (us polled) ]
  in
  (* cert: the tentpole numbers — full verify vs witness check *)
  let cert_section =
    List.map
      (fun c ->
        hot_add
          (Printf.sprintf "cert.full_verify.%s.%s" c.cc_arch c.cc_policy)
          (us c.cc_full_s);
        hot_add
          (Printf.sprintf "cert.witness_check.%s.%s" c.cc_arch c.cc_policy)
          (us c.cc_check_s);
        Printf.sprintf
          "    \"%s/%s\": {\"produce_us\": %d, \"full_verify_us\": %d, \
           \"witness_check_us\": %d, \"speedup_x100\": %d, \"bytes\": %d}"
          c.cc_arch c.cc_policy (us c.cc_produce_s) (us c.cc_full_s)
          (us c.cc_check_s)
          (int_of_float (100. *. c.cc_full_s /. Float.max 1e-9 c.cc_check_s))
          c.cc_bytes)
      (cert_measure ~size)
  in
  ignore (cert_validate ~size);
  (* guest front-end: lift time per workload (the gated hot path), plus
     oracle-vs-lifted sizes for the record *)
  let guest_section =
    List.map
      (fun (w : Omni_workloads.Workloads.Guest.t) ->
        let g = gprepare w in
        let lift_s = glift_time g in
        let r = grun g ~engine:Api.Interp () in
        hot_add (Printf.sprintf "guest.lift.%s" g.g_name) (us lift_s);
        Printf.sprintf
          "    \"%s\": {\"lift_us\": %d, \"guest_steps\": %d, \
           \"omni_instrs\": %d}"
          g.g_name (us lift_s) g.g_oracle_steps r.Api.instructions)
      (Omni_workloads.Workloads.Guest.all ~size)
  in
  (* concurrency: seeded concurrent load on one shared server; the gate
     metric is the one-domain round's CPU time — the multi-domain walls
     depend on the host's core count, so they are reported, not gated *)
  let concurrency_section =
    let c = concurrency_measure ~size in
    hot_add "concurrency.round_us" (us c.cy_serial_cpu_s);
    List.map
      (fun r ->
        Printf.sprintf
          "    \"domains_%d\": {\"wall_us\": %d, \"throughput_rps\": %d, \
           \"p50_us\": %d, \"p95_us\": %d, \"p99_us\": %d}"
          r.cy_domains (us r.cy_wall_s)
          (int_of_float r.cy_rps)
          r.cy_p50_us r.cy_p95_us r.cy_p99_us)
      c.cy_rows
    @ [
        Printf.sprintf
          "    \"load\": {\"requests\": %d, \"configs\": %d, \
           \"host_cores\": %d}"
          c.cy_requests c.cy_configs c.cy_cores;
      ]
  in
  (* fast path: steady-state fast vs baseline interpreter per workload
     (both families) plus the pad × arch cycle ratios; the gate metric is
     the whole-suite round per engine *)
  let fastpath_section =
    let cells = fastpath_measure ~size in
    let interp_round =
      List.fold_left (fun a c -> a +. c.fc_interp_s) 0.0 cells
    in
    let fast_round = List.fold_left (fun a c -> a +. c.fc_fast_s) 0.0 cells in
    hot_add "fastpath.round.interp" (us interp_round);
    hot_add "fastpath.round.fast" (us fast_round);
    let per_cell =
      List.map
        (fun c ->
          Printf.sprintf
            "    \"%s\": {\"instrs\": %d, \"fused\": %d, \
             \"predecode_us\": %d, \"interp_us\": %d, \"fast_us\": %d, \
             \"speedup_x100\": %d}"
            c.fc_name c.fc_instrs c.fc_fused
            (us c.fc_predecode_s) (us c.fc_interp_s) (us c.fc_fast_s)
            (int_of_float
               (100. *. c.fc_interp_s /. Float.max 1e-9 c.fc_fast_s)))
        cells
    in
    let pad_rows =
      List.concat_map
        (fun arch ->
          List.map
            (fun pad ->
              let rel w =
                float_of_int (pad_cycles w arch pad)
                /. float_of_int (max 1 (measure w arch Native_cc).m_cycles)
              in
              let avg =
                List.fold_left (fun a w -> a +. rel w) 0.0 ws
                /. float_of_int (List.length ws)
              in
              Printf.sprintf "    \"pad/%s/%s\": {\"rel_cc_x100\": %d}"
                (Arch.name arch)
                (Omni_sfi.Policy.pad_name pad)
                (int_of_float (100. *. avg)))
            Omni_sfi.Policy.all_pads)
        all_archs
    in
    per_cell @ pad_rows
  in
  (* persistence: restart costs of the crash-safe store. Only the
     CPU-dominated paths are gated (journaled cold round, warm round);
     the restart timings are disk-bound — a few ms of fsync and page
     cache — and jitter past the gate's 20% threshold on a shared host
     even under a best-of-3 minimum, so they are reported in the
     "restart" row below but not gated. *)
  let persist_section =
    let c = persist_measure ~size in
    hot_add "persist.cold_us" (us c.pc_cold_s);
    hot_add "persist.warm_round_us" (us c.pc_warm_round_s);
    [ Printf.sprintf
        "    \"cold\": {\"baseline_us\": %d, \"journaled_us\": %d, \
         \"append_overhead_us\": %d}"
        (us c.pc_baseline_s) (us c.pc_cold_s)
        (max 0 (us (c.pc_cold_s -. c.pc_baseline_s)));
      Printf.sprintf
        "    \"restart\": {\"dirty_us\": %d, \"clean_us\": %d, \
         \"warm_round_us\": %d, \"recovered\": %d}"
        (us c.pc_dirty_restart_s) (us c.pc_clean_restart_s)
        (us c.pc_warm_round_s) c.pc_recovered;
      Printf.sprintf
        "    \"store\": {\"records\": %d, \"segment_bytes\": %d, \
         \"cert_checks\": %d, \"full_verifies\": %d, \"translations\": %d}"
        c.pc_records c.pc_seg_bytes c.pc_cert_checks c.pc_full_verifies
        c.pc_translations ]
  in
  let obj name lines =
    Printf.sprintf "  \"%s\": {\n%s\n  }" name (String.concat ",\n" lines)
  in
  let hot_lines =
    List.rev_map
      (fun (name, v) -> Printf.sprintf "    \"%s\": %d" name v)
      !hot
  in
  String.concat ""
    [ "{\n";
      Printf.sprintf "  \"schema\": \"omni-bench/1\",\n";
      Printf.sprintf "  \"size\": \"%s\",\n"
        (match size with Omni_workloads.Workloads.Test -> "test" | _ -> "ref");
      obj "phases" phase_section; ",\n";
      obj "service" service_section; ",\n";
      obj "remote" remote_section; ",\n";
      obj "resilience" resilience_section; ",\n";
      obj "isolation" isolation_section; ",\n";
      obj "cert" cert_section; ",\n";
      obj "guest" guest_section; ",\n";
      obj "concurrency" concurrency_section; ",\n";
      obj "fastpath" fastpath_section; ",\n";
      obj "persistence" persist_section; ",\n";
      obj "hot_paths" hot_lines; "\n}\n" ]

let all_tables ~size =
  String.concat "\n"
    [ table1 ~size; table2 ~size; table3 ~size; table4 ~size; table5 ~size;
      table6 ~size; figure1 ~size; figure2 () ]

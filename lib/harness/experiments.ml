(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (section 4). See DESIGN.md for the experiment index.

   The paper's tables are simulated cycle counts from the target pipeline
   models (the cycle sections; the timed sections come after them); each
   table reports execution time RELATIVE to a native-compiler baseline
   on the same simulated machine, exactly as the paper does. Every run's
   output is validated against the OmniVM interpreter's output, so a
   reported number can never come from a miscompiled run. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch

(* Every timing below reads wall seconds from the one product clock. *)
let now () = Omni_util.Clock.(now monotonic)

type config =
  | Mobile_sfi (* translated, SFI on, per-arch translator opts *)
  | Mobile_nosfi
  | Mobile_sfi_noopt (* translator optimizations disabled *)
  | Mobile_nosfi_noopt
  | Mobile_sfi_opt (* + the guard-zone SFI optimization of paper 4.4 *)
  | Mobile_sfi_reads (* + read protection (cited in paper 1, not measured) *)
  | Mobile_sfi_pad of Omni_sfi.Policy.pad (* SFI under one pad mode *)
  | Native_cc
  | Native_gcc

let config_name = function
  | Mobile_sfi -> "sfi"
  | Mobile_nosfi -> "no-sfi"
  | Mobile_sfi_noopt -> "sfi/noopt"
  | Mobile_nosfi_noopt -> "no-sfi/noopt"
  | Mobile_sfi_opt -> "sfi/opt"
  | Mobile_sfi_reads -> "sfi/reads"
  | Mobile_sfi_pad pad -> "sfi/pad=" ^ Omni_sfi.Policy.pad_name pad
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
  | Mobile_sfi_pad pad ->
      (Machine.Mobile (Omni_sfi.Policy.make ~pad ()), Api.mobile_opts arch)
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

(* Translation-speed measurement (the paper's load-time argument): per
   program and target, the best of [k] timings of [reps] translations, as
   OmniVM instructions translated per second, and the minor words one
   translation allocates per OmniVM instruction ("w/i"). A first
   translation, untimed, sizes the buffers a domain keeps between
   translations. *)
let translation_speed ~size =
  let ws = workloads ~size in
  let k = 7 and reps = 5 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Translation speed: OmniVM instructions translated per second (load \
     time), best of 7\n";
  Buffer.add_string buf (Printf.sprintf "%-10s %10s" "program" "omni-instrs");
  List.iter
    (fun a -> Buffer.add_string buf (Printf.sprintf "%10s %5s" (Arch.name a) "w/i"))
    all_archs;
  Buffer.add_char buf '\n';
  List.iter
    (fun (w : Omni_workloads.Workloads.t) ->
      let p = prepare w in
      let n = Array.length p.p_exe.Omnivm.Exe.text in
      Buffer.add_string buf (Printf.sprintf "%-10s %10d" w.name n);
      List.iter
        (fun arch ->
          let mode, opts = Omni_service.Exec.resolve arch in
          let translate () = ignore (Api.translate ~mode ~opts arch p.p_exe) in
          translate ();
          let w0 = Gc.minor_words () in
          translate ();
          let words = (Gc.minor_words () -. w0) /. float_of_int n in
          let best = ref infinity in
          for _ = 1 to k do
            let t0 = now () in
            for _ = 1 to reps do
              translate ()
            done;
            best := Float.min !best ((now () -. t0) /. float_of_int reps)
          done;
          let rate = float_of_int n /. !best /. 1e6 in
          Buffer.add_string buf (Printf.sprintf "%9.1fM %5.1f" rate words))
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

(* --- beyond the paper: the timed sections ------------------------------

   Each section below is one [*_measure ~size] returning a record, and a
   table rendering it. Times are monotonic wall seconds ([now], or the
   serving histograms' for the service section), printed in µs through
   [us]. They differ between hosts and between runs, so no time is ever
   compared with one measured elsewhere: what a timed section gates is a
   ratio of two times it measured itself, in the same invocation,
   against a fixed bound written beside the section ([*_bound], the
   ranges measured at test size quoted with it). *)

let fuel = 4_000_000_000
let us s = int_of_float (1e6 *. s)

type check = { ck_name : string; ck_value : float; ck_lo : float; ck_hi : float }

let check name (ck_lo, ck_hi) ck_value = { ck_name = name; ck_value; ck_lo; ck_hi }

(* NaN (a 0/0 ratio) is outside every bound. *)
let within c = c.ck_lo <= c.ck_value && c.ck_value <= c.ck_hi

let render_check c =
  Printf.sprintf "%-4s %-36s %6.2fx   bound [%.2f, %s"
    (if within c then "ok" else "FAIL")
    c.ck_name c.ck_value c.ck_lo
    (if c.ck_hi = infinity then "inf)" else Printf.sprintf "%.2f]" c.ck_hi)

(* Serving: cold vs warm translation amortization. A serving host pays
   the translator once per (module, arch, config) and re-admits cached
   code on every later load; every request still gets a fresh isolated
   image. Cold is the first round's translate time; warm is the best of
   three rounds' admission time — a warm round is ~100 us, so the minimum
   judges the path, not the scheduler. *)
type service_row = { sv_arch : Arch.t; sv_cold_s : float; sv_warm_s : float }

let service_measure ~size : service_row list =
  let module Svc = Omni_service.Service in
  let module SC = Omni_service.Counters in
  let module Exec = Omni_service.Exec in
  let svc = Svc.of_config Svc.default_config in
  let handles =
    List.map
      (fun w ->
        let p = prepare w in
        (p, Svc.submit svc (Omnivm.Wire.encode p.p_exe)))
      (workloads ~size)
  in
  let admit_time counter arch =
    let t0 = counter (Svc.stats svc) in
    List.iter
      (fun (p, h) ->
        let r = Svc.instantiate ~engine:(Exec.Target arch) ~fuel svc h in
        if not (String.equal r.Exec.output p.p_expected) then
          fail "service: %s/%s produced wrong output" p.p_name (Arch.name arch))
      handles;
    counter (Svc.stats svc) -. t0
  in
  let rows =
    List.map
      (fun arch ->
        let sv_cold_s = admit_time (fun c -> c.SC.s_cold_translate_s) arch in
        let sv_warm_s =
          List.fold_left Float.min infinity
            (List.init 3 (fun _ ->
                 admit_time (fun c -> c.SC.s_warm_admit_s) arch))
        in
        { sv_arch = arch; sv_cold_s; sv_warm_s })
      all_archs
  in
  let c = Svc.stats svc in
  let distinct = List.length handles * List.length all_archs in
  if c.SC.s_translations <> distinct || c.SC.s_hits = 0 then
    fail "service: %d translations for %d distinct configs, %d hits"
      c.SC.s_translations distinct c.SC.s_hits;
  rows

let service_table rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Service: cold vs warm loads through the memoizing translation cache\n\
     (every request instantiates a fresh isolated image; a cold load pays\n\
     translate + certify, a warm load pays re-admission only; warm is the\n\
     best of three rounds)\n\n";
  Printf.bprintf b "%-8s %15s %15s %10s\n" "arch" "cold-load (us)"
    "warm-load (us)" "amortize";
  List.iter
    (fun r ->
      Printf.bprintf b "%-8s %15d %15d %9.0fx\n" (Arch.name r.sv_arch)
        (us r.sv_cold_s) (us r.sv_warm_s)
        (r.sv_cold_s /. Float.max 1e-9 r.sv_warm_s))
    rows;
  Buffer.contents b

(* cold / warm load per arch: 7.4-34x measured. A warm load that paid
   the translator again read 1.3-2.7x. *)
let service_bound = (3.0, infinity)

let service_checks rows =
  List.map
    (fun r ->
      check
        (Printf.sprintf "service %s cold/warm" (Arch.name r.sv_arch))
        service_bound
        (r.sv_cold_s /. Float.max 1e-9 r.sv_warm_s))
    rows

(* Resilience under injected faults: the loopback wire is wrapped in the
   seeded fault injector and the client retries under a manual clock
   (backoff is accounted, never slept). Every run's output is validated
   bit-for-bit — the claim is not "it mostly works", it is "a faulty wire
   costs retries, never answers". *)
type resilience_row = {
  rs_rate : float;
  rs_requests : int;
  rs_injected : int;
  rs_retries : int;
  rs_rejected : int;
  rs_round_s : float;  (* one X86 round over the suite *)
}

let resilience_measure ~size : resilience_row list =
  let module Svc = Omni_service.Service in
  let module Exec = Omni_service.Exec in
  let module Net = Omni_net in
  let prepared =
    List.map
      (fun w ->
        let p = prepare w in
        (p, Omnivm.Wire.encode p.p_exe))
      (workloads ~size)
  in
  List.map
    (fun rate ->
      let svc = Svc.of_config Svc.default_config in
      let reg = Svc.metrics svc in
      let retry = { Net.Retry.default with max_attempts = 12 } in
      let armed =
        if rate > 0. then
          Some
            (Net.Fault.arm ~metrics:reg (Net.Fault.seeded ~seed:42 ~rate ()))
        else None
      in
      let client =
        Net.Client.loopback ~retry ~env:(Net.Retry.manual_env ()) ?fault:armed
          (Net.Server.create svc)
      in
      (* retry counters land on the ambient tracer's registry; point it at
         the service's so one registry tells the story *)
      let tracer = Omni_obs.Trace.make ~metrics:reg Omni_obs.Trace.Null in
      Omni_obs.Trace.with_current tracer @@ fun () ->
      let handles =
        List.map
          (fun (p, bytes) -> (p, Net.Client.submit client bytes))
          prepared
      in
      let t0 = now () in
      List.iter
        (fun (p, h) ->
          let r =
            Net.Client.run ~engine:(Exec.Target Arch.X86) ~fuel client h
          in
          if not (String.equal r.Exec.output p.p_expected) then
            fail "resilience: %s/x86 wrong output at fault rate %g" p.p_name
              rate)
        handles;
      let rs_round_s = now () -. t0 in
      let c name = Omni_obs.Metrics.value (Omni_obs.Metrics.counter reg name) in
      {
        rs_rate = rate;
        rs_requests = c "net.requests";
        rs_injected = Option.fold ~none:0 ~some:Net.Fault.injected armed;
        rs_retries = c "net.retry";
        rs_rejected = c "net.limit.rejected";
        rs_round_s;
      })
    [ 0.0; 0.01; 0.05 ]

let resilience_table rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Resilience: loopback serving under seeded fault injection\n\
     (drop/corrupt/truncate/stall/close at rate p per frame), retrying\n\
     client, manual clock; one X86 round of the suite per rate, outputs\n\
     validated.\n\n";
  Printf.bprintf b "%-8s %10s %10s %10s %10s %12s\n" "rate" "requests"
    "injected" "retries" "rejected" "round (us)";
  List.iter
    (fun r ->
      Printf.bprintf b "%-8g %10d %10d %10d %10d %12d\n" r.rs_rate
        r.rs_requests r.rs_injected r.rs_retries r.rs_rejected
        (us r.rs_round_s))
    rows;
  Buffer.contents b

(* Watchdog overhead: the wall-clock deadline is polled cooperatively —
   one counter decrement per instruction, a clock reading every K
   instructions. Measured against a no-watchdog baseline with the
   deadline far in the future: the cost of being interruptible, not of
   being interrupted. Each side is the best of five rounds, the two
   sides alternating so a burst of host interference lands on both.
   Outputs are validated bit-for-bit — an armed watchdog must never
   perturb execution. *)
let isolation_poll = 16_384

type isolation_run = { is_off_s : float; is_polled_s : float }

let isolation_measure ~size : isolation_run =
  let module Exec = Omni_service.Exec in
  let module Supervise = Omni_service.Supervise in
  let prepared = List.map prepare (workloads ~size) in
  (* images are loaded, and the heap collected, outside the timed region:
     each side times its runs alone, not a major collection that the
     other side's loads left due *)
  let round poll_every =
    let imgs = List.map (fun p -> (p, Exec.load p.p_exe)) prepared in
    Gc.full_major ();
    let t0 = now () in
    let rs =
      List.map
        (fun (p, img) ->
          let watchdog =
            Option.map
              (fun k -> Supervise.watchdog ~poll_every:k ~budget_s:1e9 ())
              poll_every
          in
          (p, Exec.run_interp ~fuel ?watchdog img))
        imgs
    in
    let t = now () -. t0 in
    List.iter
      (fun (p, (r : Exec.run_result)) ->
        if not (String.equal r.Exec.output p.p_expected) then
          fail "isolation: %s wrong output under watchdog" p.p_name)
      rs;
    t
  in
  (* warm-up round: the first run of the suite pays one-time costs *)
  ignore (round None);
  let off = ref infinity and polled = ref infinity in
  for _ = 1 to 5 do
    off := Float.min !off (round None);
    polled := Float.min !polled (round (Some isolation_poll))
  done;
  { is_off_s = !off; is_polled_s = !polled }

let isolation_table r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "Isolation: wall-clock watchdog poll overhead on the interpreter\n\
     (one round of the whole workload suite, best of five alternating\n\
     rounds per side; deadline far in the future).\n\n";
  Printf.bprintf b "%-12s %12s %10s\n" "poll every" "round (us)" "overhead";
  Printf.bprintf b "%-12s %12d %10s\n" "off" (us r.is_off_s) "1.00x";
  Printf.bprintf b "%-12d %12d %9.2fx\n" isolation_poll (us r.is_polled_s)
    (r.is_polled_s /. Float.max 1e-9 r.is_off_s);
  Buffer.contents b

(* polled / off: 1.00-1.14x measured; the slack is for a busy host. A
   poll on every instruction reads about 6.5x. *)
let isolation_bound = (0.67, 1.5)

let isolation_checks r =
  [ check "isolation polled/off" isolation_bound
      (r.is_polled_s /. Float.max 1e-9 r.is_off_s) ]

(* Proof-carrying translation: produce-once / check-cheap. For each arch
   and each certifiable SFI policy, translate every workload, then time
   certifying it (the cold-path cost, paid per distinct module), the full
   static verifier and the witness checker on identical translated code —
   the last two are the candidate costs of a warm cache admission.
   Certification only applies to Sandbox-mode policies (Guard and Off
   translations carry no Wahbe-style masking sequences to witness). *)

let cert_policies =
  [ ("sandbox", Omni_sfi.Policy.make ());
    ("sandbox+reads", Omni_sfi.Policy.make ~protect_reads:true ()) ]

type cert_cell = {
  cc_arch : string;
  cc_policy : string;
  cc_produce_s : float;  (* certify the whole suite, per round *)
  cc_full_s : float;  (* full static re-verify, whole suite, per round *)
  cc_check_s : float;  (* witness check, whole suite, per round *)
  cc_bytes : int;  (* total encoded omni-cert/1 bytes for the suite *)
}

let cert_cells ~size : cert_cell list =
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
          let certify (p, digest, tr) =
            match Exec.certify ~module_digest:digest ~mode ~opts tr with
            | Ok c -> c
            | Error msg ->
                fail "cert: %s/%s/%s refused certification: %s" p.p_name
                  (Arch.name arch) pname msg
          in
          let certs =
            List.map
              (fun ((p, digest, tr) as item) ->
                (p, digest, tr, Exec.fingerprint tr, certify item))
              items
          in
          let bytes =
            List.fold_left
              (fun acc (_, _, _, _, c) -> acc + String.length (Cert.encode c))
              0 certs
          in
          (* The cold-miss candidate: certify every module, fingerprint
             included, as a miss does. *)
          let run_produce () = List.iter (fun item -> ignore (certify item)) items in
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
             one batch takes at least 50ms (so no number sits at the
             clock's resolution floor), then time the candidates
             ALTERNATELY for five rounds and keep each one's
             minimum. Alternation matters: external interference (other
             tenants, frequency shifts) arrives in bursts longer than one
             batch, so back-to-back batches of the candidates see the
             same conditions and the per-candidate minima land in the same
             quiet window — where sequential timing lets a burst inflate
             one column but not the others. The min is the right estimator
             for "how fast is this code": interference is additive. *)
          let calibrate f =
            f ();
            (* warmup *)
            let rec go batch =
              let t0 = now () in
              for _ = 1 to batch do
                f ()
              done;
              if now () -. t0 >= 0.05 then batch else go (batch * 2)
            in
            go 1
          in
          let candidates = [| run_produce; run_full; run_check |] in
          let batches = Array.map calibrate candidates in
          let best = Array.make (Array.length candidates) infinity in
          for _ = 1 to 5 do
            Array.iteri
              (fun k f ->
                let t0 = now () in
                for _ = 1 to batches.(k) do
                  f ()
                done;
                best.(k) <- Float.min best.(k) (now () -. t0))
              candidates
          done;
          let per k = best.(k) /. float_of_int batches.(k) in
          {
            cc_arch = Arch.name arch;
            cc_policy = pname;
            cc_produce_s = per 0;
            cc_full_s = per 1;
            cc_check_s = per 2;
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
  let svc = Svc.of_config Svc.default_config in
  let handles =
    List.map
      (fun w ->
        let p = prepare w in
        (p, Svc.submit svc (Omnivm.Wire.encode p.p_exe)))
      (workloads ~size)
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

type cert_run = {
  ct_cells : cert_cell list;
  ct_served : Omni_service.Counters.snapshot;  (* of the validation stack *)
}

let cert_measure ~size =
  let ct_cells = cert_cells ~size in
  { ct_cells; ct_served = cert_validate ~size }

let cert_speedup c = c.cc_full_s /. Float.max 1e-9 c.cc_check_s

let cert_table r =
  let module SC = Omni_service.Counters in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Proof-carrying translation: produce-once safety witnesses vs per-hit\n\
     full re-verification (whole workload suite per cell, best of five\n\
     alternating rounds; produce = certify the suite as cold misses do, the\n\
     other columns are one warm admission of the suite).\n\n";
  Printf.bprintf b "%-6s %-14s %12s %16s %18s %9s %7s\n" "arch" "policy"
    "produce (us)" "full-verify (us)" "witness-check (us)" "speedup" "bytes";
  List.iter
    (fun c ->
      Printf.bprintf b "%-6s %-14s %12d %16d %18d %8.2fx %7d\n" c.cc_arch
        c.cc_policy (us c.cc_produce_s) (us c.cc_full_s) (us c.cc_check_s)
        (cert_speedup c) c.cc_bytes)
    r.ct_cells;
  let min_speedup =
    List.fold_left (fun a c -> Float.min a (cert_speedup c)) infinity r.ct_cells
  in
  Printf.bprintf b
    "\nwitness-checked serving path: outputs bit-identical to the\n\
     interpreter on every workload x arch (%d witness checks, %d full\n\
     re-verifies, %d failures); minimum speedup %.1fx\n"
    r.ct_served.SC.s_cert_checks r.ct_served.SC.s_cert_full_verify
    r.ct_served.SC.s_verify_fail min_speedup;
  Buffer.contents b

(* full verify / witness check per cell: 2.65-4.03x measured. A witness
   check that ran the full verifier read 0.98-1.19x. *)
let cert_bound = (1.8, infinity)

let cert_checks r =
  List.map
    (fun c ->
      check
        (Printf.sprintf "cert %s/%s full/check" c.cc_arch c.cc_policy)
        cert_bound (cert_speedup c))
    r.ct_cells

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

(* Lift time (assemble excluded: bytes-in is the product's ingestion
   path), best of batches: lifting one workload takes ~10us, where
   scheduler jitter swamps a single average. The minimum over several
   batches is the standard noise-robust statistic for a deterministic hot
   path. *)
let glift_time (g : gprepared) : float =
  let reps = 50 and batches = 5 in
  let best = ref infinity in
  for _ = 1 to batches do
    let t0 = now () in
    for _ = 1 to reps do
      ignore (Omni_guest.Lift.lift_exe g.g_prog)
    done;
    let per = (now () -. t0) /. float_of_int reps in
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


(* Guest front-end, the cycle half: the oracle-steps vs lifted-instructions
   expansion, and the SFI overhead of the lifted modules per arch. Every
   run is validated against the guest oracle. *)
let guest_sfi ~size =
  let rows =
    List.map
      (fun w ->
        let g = gprepare w in
        let sfi arch =
          let cycles config =
            let mode, opts = mode_and_opts arch config in
            (grun g ~engine:(Api.Target arch) ~mode ~opts ()).Api.cycles
          in
          float_of_int (cycles Mobile_sfi)
          /. float_of_int (max 1 (cycles Mobile_nosfi))
        in
        ( g,
          (grun g ~engine:Api.Interp ()).Api.instructions,
          List.map sfi all_archs ))
      (Omni_workloads.Workloads.Guest.all ~size)
  in
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Guest front-end: StackVM bytecode lifted to OmniVM\n\
     (every run below validated byte-for-byte against the guest oracle)\n\n";
  Printf.bprintf b "%-12s %12s %12s %10s\n" "program" "guest-steps"
    "omni-instrs" "expansion";
  List.iter
    (fun (g, instrs, _) ->
      Printf.bprintf b "%-12s %12d %12d %9.1fx\n" g.g_name g.g_oracle_steps
        instrs
        (float_of_int instrs /. float_of_int (max 1 g.g_oracle_steps)))
    rows;
  Buffer.add_string b
    "\nSFI overhead of the lifted modules (cycles relative to the same\n\
     translator without SFI):\n";
  Printf.bprintf b "%-12s" "program";
  List.iter (fun a -> Printf.bprintf b "%9s" (Arch.name a)) all_archs;
  Buffer.add_char b '\n';
  let row name ratios =
    Printf.bprintf b "%-12s" name;
    List.iter (Printf.bprintf b "%9.3f") ratios;
    Buffer.add_char b '\n'
  in
  List.iter (fun (g, _, sfi) -> row g.g_name sfi) rows;
  row "average"
    (List.mapi
       (fun i _ ->
         List.fold_left (fun a (_, _, sfi) -> a +. List.nth sfi i) 0.0 rows
         /. float_of_int (List.length rows))
       all_archs);
  Buffer.contents b

(* Guest front-end, the timed half: lift time per workload. *)
let guest_measure ~size =
  List.map
    (fun w ->
      let g = gprepare w in
      (g.g_name, glift_time g))
    (Omni_workloads.Workloads.Guest.all ~size)

let guest_table rows =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "Guest front-end: StackVM bytecode lifted to OmniVM, lift time\n\
     (assemble excluded; best of five batches of 50 lifts)\n\n";
  Printf.bprintf b "%-12s %9s\n" "program" "lift-us";
  List.iter
    (fun (name, lift_s) -> Printf.bprintf b "%-12s %9d\n" name (us lift_s))
    rows;
  Buffer.contents b

(* --- the fast path: the interpreter over a cached decode -------------

   Steady-state wall-clock time per retired OmniVM instruction under the
   interpreter decoding its text per run ([interp]) against the same loop
   over a decode made once ([fast]), over both workload families
   (MiniC-compiled and guest-lifted), outputs validated bit-for-bit. The
   one-time decode ({!Omnivm.Interp.decode}) is reported separately — the
   serving stack amortizes it through {!Omni_service.Store.predecoded}. *)

type fast_cell = {
  fc_name : string;
  fc_family : string; (* "minic" | "guest" *)
  fc_instrs : int; (* source instructions retired *)
  fc_predecode_s : float; (* one-time decode *)
  fc_interp_s : float; (* best-of-batches run wall clock *)
  fc_fast_s : float;
}

let fast_cells ~size : fast_cell list =
  let module Exec = Omni_service.Exec in
  let batches = 3 and reps = 2 in
  let cell ~family name (exe : Omnivm.Exe.t) expected : fast_cell =
    let text = exe.Omnivm.Exe.text in
    let program = Omnivm.Interp.decode text in
    let predecode_s =
      (* lifting-style best-of-batches: a decode is ~microseconds *)
      let preps = 20 in
      let best = ref infinity in
      for _ = 1 to batches do
        let t0 = now () in
        for _ = 1 to preps do
          ignore (Omnivm.Interp.decode text)
        done;
        let per = (now () -. t0) /. float_of_int preps in
        if per < !best then best := per
      done;
      !best
    in
    (* one batch: a fresh image per rep (run state is consumed), loaded
       outside the timed region; the runs inside *)
    let batch run =
      let imgs = Array.init reps (fun _ -> Exec.load exe) in
      let t0 = now () in
      let rs = Array.map (fun img -> (run img : Exec.run_result)) imgs in
      let per = (now () -. t0) /. float_of_int reps in
      Array.iter
        (fun (r : Exec.run_result) ->
          (match r.Exec.outcome with
          | Machine.Exited 0 -> ()
          | _ -> fail "%s: fast-path bench run did not exit 0" name);
          if not (String.equal r.Exec.output expected) then
            fail "%s: fast-path bench produced wrong output" name)
        rs;
      (per, rs.(0).Exec.instructions)
    in
    (* the two engines alternate batch by batch, so a burst of host
       interference lands on both; each keeps its best batch *)
    let interp_s = ref infinity and fast_s = ref infinity in
    let instrs = ref 0 and fast_instrs = ref 0 in
    for _ = 1 to batches do
      let per, n = batch (fun img -> Exec.run_interp ~fuel img) in
      interp_s := Float.min !interp_s per;
      instrs := n;
      let per, n = batch (fun img -> Exec.run_fast ~fuel ~program img) in
      fast_s := Float.min !fast_s per;
      fast_instrs := n
    done;
    let interp_s = !interp_s and fast_s = !fast_s in
    let instrs = !instrs and fast_instrs = !fast_instrs in
    if fast_instrs <> instrs then
      fail "%s: fast path retired %d instructions, interpreter %d" name
        fast_instrs instrs;
    {
      fc_name = name;
      fc_family = family;
      fc_instrs = instrs;
      fc_predecode_s = predecode_s;
      fc_interp_s = interp_s;
      fc_fast_s = fast_s;
    }
  in
  let minic =
    List.map
      (fun w ->
        let p = prepare w in
        cell ~family:"minic" p.p_name p.p_exe p.p_expected)
      (workloads ~size)
  in
  let guest =
    List.map
      (fun w ->
        let g = gprepare w in
        cell ~family:"guest" g.g_name g.g_exe g.g_expected)
      (Omni_workloads.Workloads.Guest.all ~size)
  in
  minic @ guest

let fast_speedup c = c.fc_interp_s /. Float.max 1e-12 c.fc_fast_s

let fastpath_table cells =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "Fast path: the interpreter over a cached decode vs decoding per run\n\
     (wall-clock ns per retired OmniVM instruction; outputs validated \
     bit-for-bit;\npredecode is the one-time decode the service's decode \
     cache amortizes)\n\n";
  Printf.bprintf b "%-12s %-6s %10s %12s %10s %10s %8s\n" "program"
    "family" "instrs" "predecode-us" "interp-ns" "fast-ns" "speedup";
  let per_ns c s = 1e9 *. s /. float_of_int (max 1 c.fc_instrs) in
  List.iter
    (fun c ->
      Printf.bprintf b "%-12s %-6s %10d %12d %10.2f %10.2f %7.2fx\n"
        c.fc_name c.fc_family c.fc_instrs (us c.fc_predecode_s)
        (per_ns c c.fc_interp_s) (per_ns c c.fc_fast_s) (fast_speedup c))
    cells;
  List.iter
    (fun family ->
      let fs = List.filter (fun c -> c.fc_family = family) cells in
      if fs <> [] then begin
        let sum f = List.fold_left (fun a c -> a +. f c) 0.0 fs in
        let instrs = sum (fun c -> float_of_int (max 1 c.fc_instrs)) in
        Printf.bprintf b "%-12s %-6s %10s %12s %10.2f %10.2f %7.2fx\n"
          ("avg/" ^ family) family "-" "-"
          (1e9 *. sum (fun c -> c.fc_interp_s) /. instrs)
          (1e9 *. sum (fun c -> c.fc_fast_s) /. instrs)
          (sum (fun c -> c.fc_interp_s)
          /. Float.max 1e-12 (sum (fun c -> c.fc_fast_s)))
      end)
    [ "minic"; "guest" ];
  Buffer.contents b

(* interp / fast over the whole round: 0.87-1.13x measured. Both run the
   same loop, so either side going much slower than the other fails. *)
let fastpath_bound = (0.75, 1.33)

let fastpath_checks cells =
  let round f = List.fold_left (fun a c -> a +. f c) 0.0 cells in
  [ check "fastpath interp/fast" fastpath_bound
      (round (fun c -> c.fc_interp_s)
      /. Float.max 1e-12 (round (fun c -> c.fc_fast_s))) ]

(* SFI overhead by translation-time pad mode ({!Omni_sfi.Policy.pad}):
   each mode re-lays-out the masking sequences, and the table reports its
   simulated-cycle cost per arch. *)
let pad_modes ~size =
  let ws = workloads ~size in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "SFI overhead by padding mode: translated cycles relative to native \
     code (cc)\n(pad=none is the plain SFI column of Tables 1/3)\n\n";
  List.iter
    (fun arch ->
      Buffer.add_string b
        (render_ratio_table
           ~title:(Printf.sprintf "  [%s]" (Arch.name arch))
           ~columns:(List.map Omni_sfi.Policy.pad_name Omni_sfi.Policy.all_pads)
           ~rows:(List.map (fun (w : Omni_workloads.Workloads.t) -> w.name) ws)
           ~cell:(fun r c ->
             let w =
               List.find (fun (w : Omni_workloads.Workloads.t) -> w.name = r) ws
             in
             let pad =
               List.find
                 (fun p -> Omni_sfi.Policy.pad_name p = c)
                 Omni_sfi.Policy.all_pads
             in
             Some (ratio w arch (Mobile_sfi_pad pad) Native_cc)));
      Buffer.add_char b '\n')
    all_archs;
  Buffer.contents b

(* --- persistence: crash-safe store restart costs ----------------------

   One serving round (submit + translate on X86) is measured four ways:
   with no store attached (the baseline), cold with journaling on (the
   append overhead), reopened after a simulated kill -9 (dirty recovery:
   journal replay, re-translation of every journaled configuration and
   full witness re-proof), and reopened after a graceful close (the
   clean-marker fast path: no obligation check). The warm serving round
   on the recovered service shows the payoff: zero translations, only
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
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
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
  if stats.SC.s_translations <> 0 then
    fail "persistence: %d re-translations after recovery"
      stats.SC.s_translations;
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


let persist_overhead c = max 0 (us c.pc_cold_s - us c.pc_baseline_s)

let persistence_table c =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Persistence: crash-safe store restart costs (X86, submit+translate \
     round)\n\n";
  Printf.bprintf b "  cold round, no store attached   %8d us\n"
    (us c.pc_baseline_s);
  Printf.bprintf b
    "  cold round, journaling on       %8d us  (journal overhead %+d us)\n"
    (us c.pc_cold_s) (persist_overhead c);
  Printf.bprintf b
    "  dirty restart (kill -9)         %8d us  (replay + re-translation + \
     witness re-proof, %d records)\n"
    (us c.pc_dirty_restart_s) c.pc_recovered;
  Printf.bprintf b "  clean restart (marker)          %8d us\n"
    (us c.pc_clean_restart_s);
  Printf.bprintf b
    "  warm round after recovery       %8d us  (%.1fx vs cold; %d \
     witness checks, %d full verifies, %d translations)\n"
    (us c.pc_warm_round_s)
    (c.pc_cold_s /. Float.max 1e-9 c.pc_warm_round_s)
    c.pc_cert_checks c.pc_full_verifies c.pc_translations;
  Printf.bprintf b "  store: %d records, %d segment bytes\n" c.pc_records
    c.pc_seg_bytes;
  Buffer.contents b

(* journaled cold round / warm round after recovery: 5.0-9.8x over 12
   runs on a 2-vCPU host (8.5-16.3x while the journal stored code: the
   journaled cold round got cheaper). A recovered store that translated
   again would pay the translator in both rounds. *)
let persistence_bound = (3.0, infinity)

let persistence_checks c =
  [ check "persistence cold/warm" persistence_bound
      (c.pc_cold_s /. Float.max 1e-9 c.pc_warm_round_s) ]

(* --- the section registry ------------------------------------------- *)

type section =
  | Cycles of (size:Omni_workloads.Workloads.size -> string)
  | Timed of (size:Omni_workloads.Workloads.size -> string * check list)

let timed measure table checks =
  Timed
    (fun ~size ->
      let r = measure ~size in
      (table r, checks r))

let unchecked measure table = timed measure table (fun _ -> [])

let sections =
  [ ("table1", Cycles table1);
    ("table2", Cycles table2);
    ("table3", Cycles table3);
    ("table4", Cycles table4);
    ("table5", Cycles table5);
    ("table6", Cycles table6);
    ("figure1", Cycles figure1);
    ("figure2", Cycles (fun ~size:_ -> figure2 ()));
    ("ablation", Cycles ablation_sfi_opt);
    ("ablation-reads", Cycles ablation_read_protection);
    ("guest-sfi", Cycles guest_sfi);
    ("pads", Cycles pad_modes);
    ("speed", unchecked translation_speed Fun.id);
    ("service", timed service_measure service_table service_checks);
    ("resilience", unchecked resilience_measure resilience_table);
    ("isolation", timed isolation_measure isolation_table isolation_checks);
    ("cert", timed cert_measure cert_table cert_checks);
    ("guest", unchecked guest_measure guest_table);
    ("fastpath", timed fast_cells fastpath_table fastpath_checks);
    ("persistence",
     timed persist_measure persistence_table persistence_checks) ]


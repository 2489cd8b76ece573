(* Execution supervision: crash reports, quarantine, deterministic replay.

   Load-bearing properties:

   - engine parity of fault delivery: every engine (both interpreters +
     four simulated targets) delivers the same fault code — including
     deadline_exceeded — to a registered handler in r1 and clears the
     handler on delivery (a second fault aborts);
   - the watchdog is deterministic under an injectable clock, fires as
     deadline_exceeded through the ordinary delivery path, and never
     counts toward quarantine (transient);
   - crash reports are a total JSON round-trip (qcheck'd over arbitrary
     faults, register files, and byte windows), and a report is a replay
     bundle: re-execution reproduces the fault on the report's own
     engine and on every other architecture, under the explicit SFI mode
     the original run was given;
   - the quarantine breaker obeys its laws (qcheck'd): trips exactly at
     the threshold, TTL expiry grants fresh chances, a clean exit resets
     strikes, transient faults and fuel exhaustion are neutral;
   - a service under a 1,000-request hostile mix survives, refuses
     quarantined modules without paying the translator, produces exactly
     one report per fault, and keeps serving healthy modules. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Counters = Omni_service.Counters
module Supervise = Omni_service.Supervise
module Quarantine = Supervise.Quarantine
module Clock = Omni_util.Clock
module Fnv64 = Omni_util.Fnv64
module Fault = Omnivm.Fault
module Watchdog = Omnivm.Watchdog

let fuel = 50_000_000

(* A clock that advances [step] seconds per reading: watchdog behaviour
   becomes a pure function of how often the engine polls. *)
let ticking ?(step = 0.001) () =
  let t = ref 0.0 in
  Clock.fn (fun () ->
      t := !t +. step;
      !t)

let engines =
  [ Exec.Interp; Exec.Fast; Exec.Target Arch.Mips; Exec.Target Arch.Sparc;
    Exec.Target Arch.Ppc; Exec.Target Arch.X86 ]

let assemble src = Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"t" src ]

(* --- source modules --- *)

let crashy_bytes =
  lazy (Api.compile ~name:"crashy" "int main(void) { int x = 0; return 1 / x; }")

let spin_bytes =
  lazy (Api.compile ~name:"spin" "int main(void) { while (1) { } return 0; }")

let hello_bytes =
  lazy
    (Api.compile ~name:"hello"
       {| int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
          int main(void) { print_int(f(12)); putchar(10); return 0; } |})

(* The handler prints the delivered fault code and exits cleanly. *)
let report_handler_exe body =
  assemble
    (Printf.sprintf
       {|
        .text
        .globl main
handler:
        hcall 2            ; print_int(r1 = fault code)
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
main:
        li r1, handler
        hcall 7            ; set_handler
%s
|}
       body)

let div_fault_body = {|
        li r2, 0
        li r3, 4
        div r3, r3, r2
        li r1, 1
        hcall 0
|}

let spin_body = {|
loop:
        j loop
|}

(* --- engine parity of fault delivery --- *)

(* (scenario name, expected printed code, run it on the engine) *)
let parity_scenarios =
  [ ( "division_by_zero",
      Fault.code Fault.Division_by_zero,
      fun engine ->
        Exec.run ~fuel engine
          (Exec.load (report_handler_exe div_fault_body)) );
    ( "deadline_exceeded",
      Fault.code Fault.Deadline_exceeded,
      fun engine ->
        let w =
          Watchdog.make ~poll_every:256 ~clock:(ticking ()) ~budget_s:0.01 ()
        in
        Exec.run ~fuel ~watchdog:w engine
          (Exec.load (report_handler_exe spin_body)) ) ]

let qcheck_engine_parity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"every engine delivers the same fault code in r1"
       QCheck.(
         make
           Gen.(pair (oneofl engines) (oneofl parity_scenarios))
           ~print:(fun (e, (name, _, _)) ->
             Printf.sprintf "%s/%s" (Exec.engine_name e) name))
       (fun (engine, (_, code, run)) ->
         let r = run engine in
         r.Exec.outcome = Machine.Exited 0
         && r.Exec.output = Printf.sprintf "%d\n" code))

(* Delivery must clear the handler: a second fault inside the handler
   aborts the run instead of looping through delivery forever. *)
let handler_cleared () =
  let exe =
    assemble
      {|
        .text
        .globl main
handler:
        li r2, 0
        li r3, 1
        div r3, r3, r2     ; faults again: handler is gone, must abort
main:
        li r1, handler
        hcall 7
        li r2, 0
        li r3, 4
        div r3, r3, r2
|}
  in
  List.iter
    (fun engine ->
      let r = Exec.run ~fuel engine (Exec.load exe) in
      Alcotest.(check bool)
        (Exec.engine_name engine ^ ": second fault aborts")
        true
        (r.Exec.outcome = Machine.Faulted Fault.Division_by_zero))
    engines

(* --- watchdog --- *)

let watchdog_fires () =
  let exe = Omnivm.Wire.decode (Lazy.force spin_bytes) in
  List.iter
    (fun engine ->
      let w =
        Watchdog.make ~poll_every:256 ~clock:(ticking ()) ~budget_s:0.01 ()
      in
      let r = Exec.run ~fuel ~watchdog:w engine (Exec.load exe) in
      Alcotest.(check bool)
        (Exec.engine_name engine ^ ": deadline fault")
        true
        (r.Exec.outcome = Machine.Faulted Fault.Deadline_exceeded);
      Alcotest.(check bool)
        (Exec.engine_name engine ^ ": crash site captured")
        true (r.Exec.crash <> None))
    engines

let watchdog_spares_finishers () =
  (* A generous budget under the same ticking clock: the module finishes
     first and the watchdog never shows in the outcome. *)
  let exe = Omnivm.Wire.decode (Lazy.force hello_bytes) in
  let w =
    Watchdog.make ~poll_every:256 ~clock:(ticking ()) ~budget_s:1e6 ()
  in
  let r = Exec.run ~fuel ~watchdog:w Exec.Interp (Exec.load exe) in
  Alcotest.(check bool) "exited 0" true (r.Exec.outcome = Machine.Exited 0)

let watchdog_rejects_nonsense () =
  (match Watchdog.make ~poll_every:0 ~clock:(ticking ()) ~budget_s:1.0 () with
  | _ -> Alcotest.fail "accepted poll_every = 0"
  | exception Invalid_argument _ -> ());
  match Watchdog.make ~clock:(ticking ()) ~budget_s:(-1.0) () with
  | _ -> Alcotest.fail "accepted a negative budget"
  | exception Invalid_argument _ -> ()

(* --- crash reports: construction and JSON round-trip --- *)

let report_of_crashy ?(engine = Exec.Interp) () =
  let wire = Lazy.force crashy_bytes in
  let sfi = true in
  let r =
    Api.run
      { Api.default_request with engine; sfi; fuel = Some fuel }
      (Api.Wire wire)
  in
  match Supervise.of_run ~engine ~sfi ~fuel ~wire r with
  | Some report -> report
  | None -> Alcotest.fail "crashy run produced no report"

let report_fields () =
  let wire = Lazy.force crashy_bytes in
  let report = report_of_crashy () in
  Alcotest.(check bool) "fault" true
    (report.Supervise.r_fault = Fault.Division_by_zero);
  Alcotest.(check bool) "digest is the wire digest" true
    (report.Supervise.r_digest = Fnv64.digest_string wire);
  Alcotest.(check int) "sixteen registers" 16
    (Array.length report.Supervise.r_regs);
  Alcotest.(check bool) "spent instructions recorded" true
    (report.Supervise.r_fuel_spent > 0);
  Alcotest.(check string) "bundle carries the module" wire
    report.Supervise.r_wire;
  (* a clean run produces no report *)
  let hello = Lazy.force hello_bytes in
  let ok =
    Api.run { Api.default_request with fuel = Some fuel } (Api.Wire hello)
  in
  Alcotest.(check bool) "no report for a clean exit" true
    (Supervise.of_run ~engine:Exec.Interp ~sfi:true ~fuel ~wire:hello ok
    = None)

let gen_fault =
  let open QCheck.Gen in
  let addr = int_range 0 0xFFFF_FFFF in
  oneof
    [ map2
        (fun addr access -> Fault.Access_violation { addr; access })
        addr
        (oneofl [ Fault.Read; Fault.Write; Fault.Execute ]);
      map2 (fun addr width -> Fault.Misaligned { addr; width }) addr
        (oneofl [ 2; 4 ]);
      return Fault.Division_by_zero;
      map (fun pc -> Fault.Illegal_instruction { pc }) addr;
      map (fun index -> Fault.Unauthorized_host_call { index }) (int_bound 31);
      return Fault.Stack_overflow;
      map (fun n -> Fault.Explicit_trap n) (int_bound 255);
      return Fault.Deadline_exceeded ]

let gen_mode =
  let open QCheck.Gen in
  oneof
    [ map3
        (fun mode protect_reads pad ->
          Machine.Mobile (Omni_sfi.Policy.make ~mode ~protect_reads ~pad ()))
        (oneofl Omni_sfi.Policy.[ Off; Sandbox; Guard ])
        bool
        (oneofl Omni_sfi.Policy.all_pads);
      map (fun t -> Machine.Native t) (oneofl Machine.[ Gcc; Cc ]) ]

let gen_report =
  let open QCheck.Gen in
  let bytes = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 80) in
  let* r_fault = gen_fault
  and* r_engine = oneofl engines
  and* r_sfi = bool
  and* r_mode = opt gen_mode
  and* r_producer = opt (oneofl [ "minic"; "stackvm" ])
  and* r_digest = map Int64.of_int int
  and* r_fuel = opt (int_bound 1_000_000)
  and* r_fuel_spent = int_bound 1_000_000
  and* r_pc = int_range (-1) 0xFFFF_FFFF
  and* regs = array_size (return 16) small_signed_int
  and* r_window_base = int_range (-1) 0xFFFF_FFFF
  and* r_window = bytes
  and* r_wire = bytes in
  return
    {
      Supervise.r_fault;
      r_engine;
      r_sfi;
      r_mode;
      r_producer;
      r_digest;
      r_fuel;
      r_fuel_spent;
      r_pc;
      r_regs = regs;
      r_window_base;
      r_window;
      r_wire;
    }

let qcheck_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"report JSON round-trip"
       (QCheck.make gen_report ~print:Supervise.to_json)
       (fun r -> Supervise.of_json (Supervise.to_json r) = r))

let json_rejects_garbage () =
  let reject what text =
    match Supervise.of_json text with
    | _ -> Alcotest.failf "accepted %s" what
    | exception Supervise.Bad_report _ -> ()
  in
  reject "empty input" "";
  reject "non-object" "[1,2]";
  reject "missing fields" {|{"schema":"omni-crash/1"}|};
  reject "unknown schema" {|{"schema":"omni-crash/999"}|};
  let good = Supervise.to_json (report_of_crashy ()) in
  reject "truncated document" (String.sub good 0 (String.length good - 5));
  reject "trailing garbage" (good ^ "x");
  reject "string escapes" {|{"schema":"omni-crash/1"}|}

(* regression: [omnirun --crash-dir DIR] with a missing DIR must create
   it (parents included) instead of failing the write at fault time *)
let write_report_creates_missing_dir () =
  let report = report_of_crashy () in
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omni-test-crashdir-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat (Filename.concat base "nested") "deep" in
  let cleanup () =
    if Sys.file_exists dir then
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
    List.iter
      (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
      [ dir; Filename.concat base "nested"; base ]
  in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  let path = Supervise.write_report ~dir report in
  Alcotest.(check bool) "report written" true (Sys.file_exists path);
  Alcotest.(check string) "under the requested dir" dir
    (Filename.dirname path);
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Alcotest.(check bool) "round-trips" true
    (Supervise.of_json (String.trim text) = report);
  (* writing again into the now-existing dir is fine and lands on the
     same conventional filename *)
  let path2 = Supervise.write_report ~dir report in
  Alcotest.(check string) "stable path" path path2

(* --- replay --- *)

let replay_reproduces_everywhere () =
  (* A bundle captured on one engine must reproduce on its own engine and
     on every other architecture: the fault is a property of the module,
     not of the machine that first observed it. *)
  let report = report_of_crashy ~engine:(Exec.Target Arch.Mips) () in
  List.iter
    (fun engine ->
      match Supervise.check_replay ~engine report with
      | Supervise.Reproduced -> ()
      | Supervise.Transient o | Supervise.Diverged o ->
          Alcotest.failf "%s: did not reproduce (%s)"
            (Exec.engine_name engine)
            (match o with
            | Machine.Exited n -> Printf.sprintf "exited %d" n
            | Machine.Faulted f -> Fault.to_string f
            | Machine.Out_of_fuel -> "out of fuel"))
    engines;
  (* and round-tripping through JSON first changes nothing *)
  let rt = Supervise.of_json (Supervise.to_json report) in
  Alcotest.(check bool) "replay after round-trip" true
    (Supervise.check_replay rt = Supervise.Reproduced)

let replay_divergence_detected () =
  (* Claim a different fault than the module actually commits: replay
     must call the bundle out instead of rubber-stamping it. *)
  let report =
    { (report_of_crashy ()) with Supervise.r_fault = Fault.Stack_overflow }
  in
  match Supervise.check_replay report with
  | Supervise.Diverged (Machine.Faulted Fault.Division_by_zero) -> ()
  | _ -> Alcotest.fail "forged bundle was not detected"

let replay_transient_terminates () =
  (* A deadline bundle of a spinning module has no bound of its own; the
     replay must terminate anyway (bounded by the original's progress)
     and assert nothing. *)
  let wire = Lazy.force spin_bytes in
  let w = Watchdog.make ~poll_every:256 ~clock:(ticking ()) ~budget_s:0.01 () in
  let r =
    Exec.run_interp ~fuel ~watchdog:w
      (Exec.load (Omnivm.Wire.decode wire))
  in
  let report =
    Option.get (Supervise.of_run ~engine:Exec.Interp ~sfi:true ~wire r)
  in
  match Supervise.check_replay report with
  | Supervise.Transient _ -> ()
  | Supervise.Reproduced | Supervise.Diverged _ ->
      Alcotest.fail "transient fault was asserted"

(* The wild store of test_sfi.ml: two stores into host memory, then a
   clean exit. Sandboxing masks them into the data segment, so only an
   explicit mode makes them fault: a Guard policy traps, and a native
   baseline stores to the unmapped host region. *)
let wild_store_exe =
  lazy
    (assemble
       (Printf.sprintf
          {|
        .text
        .globl main
main:   li r2, %d
        li r3, 0x5A5A5A5A
        sw r3, 0(r2)
        sw r3, 16(r2)
        li r1, 0
        hcall 0
|}
          Omnivm.Layout.host_base))

let replay_explicit_mode () =
  (* A report of a run served under an explicit mode must replay under
     that mode, not under the one its sfi flag alone derives. *)
  let wire = Omnivm.Wire.encode (Lazy.force wild_store_exe) in
  let guard =
    Machine.Mobile (Omni_sfi.Policy.make ~mode:Omni_sfi.Policy.Guard ())
  in
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun arch ->
          let what = Printf.sprintf "%s/%s" (Arch.name arch) mname in
          let reports = ref [] in
          let svc =
            Service.of_config
              { Service.default_config with
                on_crash = Some (fun r -> reports := r :: !reports) }
          in
          let h = Service.submit svc wire in
          let r =
            Service.instantiate ~engine:(Exec.Target arch) ~mode ~fuel svc h
          in
          (match r.Exec.outcome with
          | Machine.Faulted
              (Fault.Access_violation { access = Fault.Write; _ }) ->
              ()
          | _ -> Alcotest.failf "%s: expected a write violation" what);
          let report =
            match !reports with
            | [ report ] -> report
            | l -> Alcotest.failf "%s: %d reports" what (List.length l)
          in
          Alcotest.(check bool) (what ^ ": mode recorded") true
            (report.Supervise.r_mode = Some mode);
          let rt = Supervise.of_json (Supervise.to_json report) in
          Alcotest.(check bool) (what ^ ": JSON round-trip") true
            (rt = report);
          List.iter
            (fun (how, report) ->
              match Supervise.check_replay report with
              | Supervise.Reproduced -> ()
              | Supervise.Transient o | Supervise.Diverged o ->
                  Alcotest.failf "%s: %s replay did not reproduce (%s)" what
                    how
                    (match o with
                    | Machine.Exited n -> Printf.sprintf "exited %d" n
                    | Machine.Faulted f -> Fault.to_string f
                    | Machine.Out_of_fuel -> "out of fuel"))
            [ ("in-memory", report); ("round-tripped", rt) ])
        Arch.all)
    [ ("guard", guard); ("native-gcc", Machine.Native Machine.Gcc) ]

let replay_reads_reports_without_mode () =
  (* A report written before the mode field existed still parses, as
     [None], and replays as it always did: mode derived from sfi. *)
  let report = report_of_crashy ~engine:(Exec.Target Arch.Ppc) () in
  let json = Supervise.to_json report in
  let has_mode =
    let k = {|"mode"|} in
    let n = String.length k in
    let rec at i =
      i + n <= String.length json && (String.sub json i n = k || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "no mode field written for a derived mode" false
    has_mode;
  let old = Supervise.of_json json in
  Alcotest.(check bool) "mode reads back as None" true
    (old.Supervise.r_mode = None);
  Alcotest.(check bool) "replays" true
    (Supervise.check_replay old = Supervise.Reproduced)

(* --- quarantine laws --- *)

let gen_threshold = QCheck.Gen.int_range 1 6

let qcheck_quarantine_threshold =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"quarantine trips exactly at the threshold"
       QCheck.(make gen_threshold ~print:string_of_int)
       (fun threshold ->
         let clock = Clock.manual () in
         let q =
           Quarantine.create { Quarantine.threshold; ttl_s = 10.0; clock }
         in
         let d = 0xBEEFL in
         let ok = ref true in
         for i = 1 to threshold - 1 do
           let tripped = Quarantine.note q d (Machine.Faulted Fault.Division_by_zero) in
           ok := !ok && (not tripped) && Quarantine.strikes q d = i;
           (match Quarantine.check q d with
           | () -> ()
           | exception Quarantine.Quarantined _ -> ok := false)
         done;
         let tripped =
           Quarantine.note q d (Machine.Faulted Fault.Division_by_zero)
         in
         ok := !ok && tripped;
         (match Quarantine.check q d with
         | () -> ok := false
         | exception Quarantine.Quarantined { digest; _ } ->
             ok := !ok && digest = d);
         (* tripping is edge-triggered: further notes do not re-trip *)
         let again =
           Quarantine.note q d (Machine.Faulted Fault.Division_by_zero)
         in
         !ok && not again))

let qcheck_quarantine_ttl =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"TTL expiry grants fresh chances"
       QCheck.(make gen_threshold ~print:string_of_int)
       (fun threshold ->
         let clock = Clock.manual () in
         let q =
           Quarantine.create { Quarantine.threshold; ttl_s = 10.0; clock }
         in
         let d = 1L in
         for _ = 1 to threshold do
           ignore (Quarantine.note q d (Machine.Faulted Fault.Stack_overflow))
         done;
         let quarantined =
           match Quarantine.check q d with
           | () -> false
           | exception Quarantine.Quarantined _ -> true
         in
         Clock.advance clock 10.5;
         (match Quarantine.check q d with
         | () -> ()
         | exception Quarantine.Quarantined _ ->
             QCheck.Test.fail_report "still quarantined after TTL");
         (* fresh chances: the strike count restarted from zero *)
         quarantined && Quarantine.strikes q d = 0))

let quarantine_classification () =
  let clock = Clock.manual () in
  let q = Quarantine.create { Quarantine.threshold = 2; ttl_s = 10.0; clock } in
  let d = 7L in
  (* transient faults and fuel exhaustion never strike *)
  for _ = 1 to 10 do
    ignore (Quarantine.note q d (Machine.Faulted Fault.Deadline_exceeded));
    ignore (Quarantine.note q d Machine.Out_of_fuel)
  done;
  Alcotest.(check int) "transient runs never strike" 0 (Quarantine.strikes q d);
  (* a clean exit resets accumulated strikes *)
  ignore (Quarantine.note q d (Machine.Faulted Fault.Division_by_zero));
  Alcotest.(check int) "one strike" 1 (Quarantine.strikes q d);
  ignore (Quarantine.note q d (Machine.Exited 0));
  Alcotest.(check int) "clean exit resets" 0 (Quarantine.strikes q d);
  (* clear lifts an active quarantine *)
  ignore (Quarantine.note q d (Machine.Faulted Fault.Division_by_zero));
  ignore (Quarantine.note q d (Machine.Faulted Fault.Division_by_zero));
  Alcotest.(check bool) "tripped" true
    (match Quarantine.check q d with
    | () -> false
    | exception Quarantine.Quarantined _ -> true);
  Alcotest.(check bool) "clear lifts" true (Quarantine.clear q d);
  Quarantine.check q d;
  Alcotest.(check bool) "clearing twice is false" false (Quarantine.clear q d);
  (* config validation *)
  (match Quarantine.create { Quarantine.threshold = 0; ttl_s = 1.0; clock } with
  | _ -> Alcotest.fail "accepted threshold 0"
  | exception Invalid_argument _ -> ());
  match Quarantine.create { Quarantine.threshold = 1; ttl_s = 0.0; clock } with
  | _ -> Alcotest.fail "accepted ttl 0"
  | exception Invalid_argument _ -> ()

(* --- service integration --- *)

let service_quarantines () =
  let clock = Clock.manual () in
  let reports = ref [] in
  let svc =
    Service.of_config
      { Service.default_config with
        quarantine = Some { Quarantine.threshold = 2; ttl_s = 60.0; clock };
        on_crash = Some (fun r -> reports := r :: !reports) }
  in
  let h = Service.submit svc (Lazy.force crashy_bytes) in
  let engine = Exec.Target Arch.Mips in
  let faulted () =
    let r = Service.instantiate ~engine ~fuel svc h in
    Alcotest.(check bool) "faulted" true
      (r.Exec.outcome = Machine.Faulted Fault.Division_by_zero)
  in
  faulted ();
  faulted ();
  let translations_before = (Service.stats svc).Counters.s_translations in
  (* tripped: refusals are typed and pay no translation or execution *)
  for _ = 1 to 5 do
    match Service.instantiate ~engine ~fuel svc h with
    | _ -> Alcotest.fail "quarantined module ran"
    | exception Quarantine.Quarantined _ -> ()
  done;
  let c = Service.stats svc in
  Alcotest.(check int) "refusals skip the translator" translations_before
    c.Counters.s_translations;
  Alcotest.(check int) "one trip" 1 c.Counters.s_quarantine_trips;
  Alcotest.(check int) "five refusals" 5 c.Counters.s_quarantine_refused;
  Alcotest.(check int) "a report per fault" 2 c.Counters.s_crash_reports;
  Alcotest.(check int) "hook saw both" 2 (List.length !reports);
  Alcotest.(check int) "one digest listed" 1
    (List.length (Service.quarantined svc));
  (* manual clear re-admits the module (which promptly faults again) *)
  let digest = Fnv64.digest_string (Lazy.force crashy_bytes) in
  Alcotest.(check bool) "cleared" true (Service.clear_quarantine svc digest);
  Alcotest.(check int) "clear counted" 1
    (Service.stats svc).Counters.s_quarantine_cleared;
  faulted ()

let service_deadline () =
  (* Service-wide deadline under an injectable clock: a spinning module
     faults with deadline_exceeded; the fault is transient, so even many
     such runs never quarantine the module. *)
  let svc =
    Service.of_config ~clock:(ticking ())
      { Service.default_config with
        quarantine =
          Some { Quarantine.default_config with clock = Clock.manual () };
        deadline_s = Some 0.01;
        watchdog_poll = Some 64 }
  in
  let h = Service.submit svc (Lazy.force spin_bytes) in
  for _ = 1 to 5 do
    let r = Service.instantiate ~fuel svc h in
    Alcotest.(check bool) "deadline fault" true
      (r.Exec.outcome = Machine.Faulted Fault.Deadline_exceeded)
  done;
  let c = Service.stats svc in
  Alcotest.(check int) "deadline faults counted" 5
    c.Counters.s_deadline_exceeded;
  Alcotest.(check int) "never quarantined" 0 c.Counters.s_quarantine_trips;
  Alcotest.(check int) "never refused" 0 c.Counters.s_quarantine_refused;
  (* a per-call deadline overrides the service default: a generous one
     lets a healthy module finish *)
  let hh = Service.submit svc (Lazy.force hello_bytes) in
  let r = Service.instantiate ~fuel ~deadline_s:1e6 svc hh in
  Alcotest.(check bool) "healthy module finishes" true
    (r.Exec.outcome = Machine.Exited 0)

(* --- survival: 1,000 hostile requests --- *)

let survival_1000 () =
  let reports = ref 0 in
  let svc =
    Service.of_config ~clock:(ticking ())
      { Service.default_config with
        quarantine =
          Some
            { Quarantine.threshold = 3; ttl_s = 1e9; clock = Clock.manual () };
        watchdog_poll = Some 64;
        on_crash = Some (fun _ -> incr reports) }
  in
  let good = Service.submit svc (Lazy.force hello_bytes) in
  let crashy = Service.submit svc (Lazy.force crashy_bytes) in
  let spin = Service.submit svc (Lazy.force spin_bytes) in
  let engine = Exec.Target Arch.Mips in
  let faults = ref 0 and refused = ref 0 and ok = ref 0 in
  for i = 1 to 1000 do
    match i mod 10 with
    | 0 -> (
        (* a deterministic faulter: three strikes, then refusals *)
        match Service.instantiate ~engine ~fuel svc crashy with
        | r ->
            Alcotest.(check bool) "crashy faults" true
              (r.Exec.outcome = Machine.Faulted Fault.Division_by_zero);
            incr faults
        | exception Quarantine.Quarantined _ -> incr refused)
    | 5 ->
        (* a spinner under a deadline: transient faults, never refused *)
        let r = Service.instantiate ~fuel ~deadline_s:0.01 svc spin in
        Alcotest.(check bool) "spin hits the deadline" true
          (r.Exec.outcome = Machine.Faulted Fault.Deadline_exceeded);
        incr faults
    | _ ->
        let r = Service.instantiate ~engine ~fuel svc good in
        Alcotest.(check int) "good module exits 0" 0 r.Exec.exit_code;
        incr ok
  done;
  let c = Service.stats svc in
  Alcotest.(check int) "three faults then quarantined" 3
    ((1000 / 10) - !refused);
  Alcotest.(check int) "every fault has exactly one report" !faults !reports;
  Alcotest.(check int) "counters agree with the hook" !faults
    c.Counters.s_crash_reports;
  Alcotest.(check int) "one breaker trip" 1 c.Counters.s_quarantine_trips;
  Alcotest.(check int) "every refusal counted" !refused
    c.Counters.s_quarantine_refused;
  Alcotest.(check int) "transient faults all counted" 100
    c.Counters.s_deadline_exceeded;
  Alcotest.(check int) "healthy traffic unharmed" 800 !ok;
  (* refusals are free: only two configurations ever paid the translator
     (good and crashy on mips; the spinner runs interpreted) *)
  Alcotest.(check int) "refusals never translated" 2 c.Counters.s_translations;
  (* and the service still serves *)
  let r = Service.instantiate ~engine ~fuel svc good in
  Alcotest.(check int) "still serving" 0 r.Exec.exit_code

let () =
  Alcotest.run "supervise"
    [ ("parity",
       [ qcheck_engine_parity;
         Alcotest.test_case "delivery clears the handler" `Quick
           handler_cleared ]);
      ("watchdog",
       [ Alcotest.test_case "fires on every engine" `Quick watchdog_fires;
         Alcotest.test_case "spares finishing runs" `Quick
           watchdog_spares_finishers;
         Alcotest.test_case "rejects nonsense configs" `Quick
           watchdog_rejects_nonsense ]);
      ("reports",
       [ Alcotest.test_case "fields" `Quick report_fields;
         qcheck_json_roundtrip;
         Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
         Alcotest.test_case "write_report creates missing dir" `Quick
           write_report_creates_missing_dir ]);
      ("replay",
       [ Alcotest.test_case "reproduces on every engine" `Quick
           replay_reproduces_everywhere;
         Alcotest.test_case "detects divergence" `Quick
           replay_divergence_detected;
         Alcotest.test_case "explicit mode reproduces" `Quick
           replay_explicit_mode;
         Alcotest.test_case "reports without a mode replay" `Quick
           replay_reads_reports_without_mode;
         Alcotest.test_case "transient replay terminates" `Quick
           replay_transient_terminates ]);
      ("quarantine",
       [ qcheck_quarantine_threshold; qcheck_quarantine_ttl;
         Alcotest.test_case "classification + clear" `Quick
           quarantine_classification ]);
      ("service",
       [ Alcotest.test_case "quarantine end to end" `Quick service_quarantines;
         Alcotest.test_case "deadline end to end" `Quick service_deadline ]);
      ("survival",
       [ Alcotest.test_case "1000 hostile requests" `Quick survival_1000 ]) ]

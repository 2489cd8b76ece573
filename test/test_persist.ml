(* Crash-safety of the persistent store (lib/persist).

   The load-bearing property: after ANY failure the fault layer can
   inject — a crash at every mutating operation, torn and bit-flipped
   writes, short reads, dropped fsyncs, crashes on either side of a
   rename, and crashes during recovery itself — reopening the store
   either recovers a record bit-identically or refuses it with a typed
   quarantine reason. Never an escaped exception, never divergent bytes.

   The matrix below enumerates 200+ seeded fault cases over one fixed
   workload (two modules + three certified translations produced once
   through the real serving path). Alongside it: the clean-marker fast
   path, the witness-recheck counters on a recovered cache, fingerprint
   parity between the persist layer and the live path, and compaction
   dropping a corrupted record. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Counters = Omni_service.Counters
module Cache = Omni_service.Cache
module Io = Omni_persist.Io
module Store = Omni_persist.Store
module Fnv64 = Omni_util.Fnv64

let fuel = 50_000_000

let hello_src =
  {| int g = 7;
     int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
     int main(void) {
       int i;
       for (i = 0; i < 5; i++) { print_int(f(i + 5) + g); putchar(32); }
       putchar(10);
       return 0; } |}

let loop_src =
  {| int main(void) {
       int i; int s = 0;
       for (i = 0; i < 300; i++) s = s + i * 5;
       print_int(s); putchar(10); return 0; } |}

let hello_bytes = lazy (Api.compile ~name:"hello" hello_src)
let loop_bytes = lazy (Api.compile ~name:"loop" loop_src)

let persisted io =
  { Service.default_config with Service.persist = Some io }

(* The corpus: a store populated once through the real serving path
   (submit + certified X86/Mips translations), then read back. The fault
   matrix replays these exact records, so it never pays translation. *)
let corpus =
  lazy
    (let io = Io.sim () in
     let svc = Service.of_config (persisted io) in
     let h1 = Service.submit svc (Lazy.force hello_bytes) in
     let h2 = Service.submit svc (Lazy.force loop_bytes) in
     ignore (Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h1);
     ignore (Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h2);
     ignore (Service.instantiate ~engine:(Exec.Target Arch.Mips) ~fuel svc h1);
     Service.close svc;
     let r = Store.fsck io in
     if r.Store.r_quarantined <> [] || r.Store.r_torn <> 0 then
       failwith "corpus store did not fsck clean";
     if
       List.length r.Store.r_modules <> 2
       || List.length r.Store.r_translations <> 3
     then failwith "corpus store incomplete";
     (r.Store.r_modules, r.Store.r_translations))

(* Replay the corpus through the store API: open, append everything,
   close. Deterministic, so the fault plan indexes its kill points. *)
let replay_workload io =
  let mods, trs = Lazy.force corpus in
  let t, _ = Store.open_ io in
  List.iter (Store.append_module t) mods;
  List.iter
    (fun (rt : Store.rtrans) ->
      Store.append_translation t ~cert:rt.Store.rt_cert)
    trs;
  Store.close t

(* Recovery may itself crash (the fault plan can point past the workload)
   — then the machine reboots and recovers again. Anything but a clean
   return or a simulated crash is a bug. *)
let rec open_with_reboots ~case io attempts =
  match Store.open_ io with
  | t, r -> (t, r)
  | exception Io.Crashed _ when attempts < 8 ->
      Io.reboot io;
      open_with_reboots ~case io (attempts + 1)
  | exception e ->
      Alcotest.failf "%s: recovery raised %s" case (Printexc.to_string e)

let check_recovery ~case io =
  let mods, trs = Lazy.force corpus in
  let _, r = open_with_reboots ~case io 0 in
  (* safety: every recovered byte is bit-identical to an appended one *)
  List.iter
    (fun m ->
      if not (List.mem m mods) then
        Alcotest.failf "%s: recovered module diverges from what was stored"
          case)
    r.Store.r_modules;
  List.iter
    (fun (rt : Store.rtrans) ->
      let matches (o : Store.rtrans) =
        o.Store.rt_module = rt.Store.rt_module
        && Exec.arch_of o.Store.rt_prog = Exec.arch_of rt.Store.rt_prog
        && Exec.fingerprint o.Store.rt_prog = Exec.fingerprint rt.Store.rt_prog
        && o.Store.rt_fp = rt.Store.rt_fp
      in
      if not (List.exists matches trs) then
        Alcotest.failf
          "%s: recovered translation diverges from what was stored" case)
    r.Store.r_translations;
  (* the first open truncated the torn tails: with the faults disarmed, a
     second scan must see the same store with nothing left to drop *)
  Io.disarm io;
  let _, r2 = Store.open_ io in
  if r2.Store.r_torn <> 0 then
    Alcotest.failf "%s: torn tail survived the truncation" case;
  if
    List.length r2.Store.r_modules <> List.length r.Store.r_modules
    || List.length r2.Store.r_translations
       <> List.length r.Store.r_translations
  then Alcotest.failf "%s: recovery is not idempotent" case;
  r

(* One matrix case: run the workload under the armed faults; on a crash
   the machine reboots; either way the power is cut before recovery (a
   completed workload is fully fsynced, so this loses nothing it was
   ever promised). [crash_only] marks fault plans that cannot corrupt or
   silently lose bytes — if such a workload ran to completion, recovery
   must be total. *)
let run_case (case, crash_only, faults) =
  let io = Io.sim ~faults () in
  let completed =
    match replay_workload io with
    | () -> true
    | exception Io.Crashed _ -> false
  in
  Io.reboot io;
  let r = check_recovery ~case io in
  if completed && crash_only then begin
    let mods, trs = Lazy.force corpus in
    if
      List.length r.Store.r_modules <> List.length mods
      || List.length r.Store.r_translations <> List.length trs
      || r.Store.r_quarantined <> []
      || r.Store.r_torn <> 0
    then
      Alcotest.failf
        "%s: workload completed under a pure-crash plan but recovery was \
         partial (%d+%d of %d+%d, %d quarantined, %d torn)"
        case
        (List.length r.Store.r_modules)
        (List.length r.Store.r_translations)
        (List.length mods) (List.length trs)
        (List.length r.Store.r_quarantined)
        r.Store.r_torn
  end

let matrix_cases () =
  (* measure the kill-point space on a fault-free run *)
  let io0 = Io.sim () in
  replay_workload io0;
  let m = Io.mutations io0 in
  let cases = ref [] in
  let add case crash_only faults = cases := (case, crash_only, faults) :: !cases in
  (* crash just before every mutating operation (and past the end) *)
  for k = 0 to m + 2 do
    add (Printf.sprintf "crash@%d" k) true [ Io.Crash_at k ]
  done;
  (* torn writes: every op, several tear points *)
  for k = 0 to m - 1 do
    List.iter
      (fun keep ->
        add
          (Printf.sprintf "torn@%d.keep%d" k keep)
          true
          [ Io.Torn_write { op = k; keep } ])
      [ 0; 1; 3; 7 ]
  done;
  (* silent single-bit media corruption: every op, two bit positions *)
  for k = 0 to m - 1 do
    List.iter
      (fun bit ->
        add
          (Printf.sprintf "bitflip@%d.bit%d" k bit)
          false
          [ Io.Bit_flip { op = k; bit } ])
      [ 0; 13 ]
  done;
  (* crashes on either side of every rename commit point *)
  for k = 0 to 3 do
    add (Printf.sprintf "pre-rename@%d" k) true [ Io.Crash_before_rename k ];
    add (Printf.sprintf "post-rename@%d" k) true [ Io.Crash_after_rename k ]
  done;
  (* a disk that acknowledges fsync but loses the bytes, plus a crash *)
  add "fsync-dropped" false [ Io.Drop_fsync ];
  for k = 0 to m - 1 do
    add
      (Printf.sprintf "fsync-dropped+crash@%d" k)
      false
      [ Io.Drop_fsync; Io.Crash_at k ]
  done;
  (* reads that lose their tails, per file and depth *)
  List.iter
    (fun file ->
      List.iter
        (fun drop ->
          add
            (Printf.sprintf "short-read:%s-%d" file drop)
            false
            [ Io.Short_read { file; drop } ])
        [ 1; 2; 3; 5; 9; 13 ])
    [ "seg-0000.dat"; "journal-0000.wal"; "current"; "clean" ];
  !cases

let fault_matrix () =
  let cases = matrix_cases () in
  if List.length cases < 200 then
    Alcotest.failf "fault matrix shrank to %d cases (wanted >= 200)"
      (List.length cases);
  List.iter run_case cases

let fault_free_roundtrip () =
  let io = Io.sim () in
  replay_workload io;
  Io.reboot io;
  (* power cut after a graceful close: everything durable, marker valid *)
  let _, r = Store.open_ io in
  Alcotest.(check bool) "clean marker honored" true r.Store.r_clean;
  Alcotest.(check int) "modules" 2 (List.length r.Store.r_modules);
  Alcotest.(check int) "translations" 3 (List.length r.Store.r_translations);
  Alcotest.(check int) "nothing torn" 0 r.Store.r_torn;
  Alcotest.(check int) "nothing quarantined" 0
    (List.length r.Store.r_quarantined);
  Alcotest.(check int) "replayed = stored" 5 r.Store.r_replayed

let garbage_store_opens_empty () =
  let io = Io.sim () in
  Io.append io "seg-0000.dat" "this is not a segment record";
  Io.append io "journal-0000.wal" "nor is this a journal";
  Io.append io "current" "17 notahexdigest";
  Io.append io "clean" "lies all the way down";
  List.iter (Io.fsync io) [ "seg-0000.dat"; "journal-0000.wal"; "current"; "clean" ];
  let _, r = Store.open_ io in
  Alcotest.(check bool) "not clean" false r.Store.r_clean;
  Alcotest.(check int) "no modules" 0 (List.length r.Store.r_modules);
  Alcotest.(check int) "no translations" 0
    (List.length r.Store.r_translations)

(* a valid store whose journal grew a torn tail: full recovery + 1 torn *)
let torn_journal_tail () =
  let io = Io.sim () in
  replay_workload io;
  Io.append io "journal-0000.wal" (String.make 11 '\xFF');
  let _, r = Store.open_ io in
  Alcotest.(check int) "all records recovered" 5
    (List.length r.Store.r_modules + List.length r.Store.r_translations);
  Alcotest.(check int) "tail dropped" 1 r.Store.r_torn;
  Alcotest.(check bool) "marker no longer vouches" false r.Store.r_clean

(* --- the serving path over a recovered store ------------------------- *)

let warm_hits_recheck_witness () =
  let io = Io.sim () in
  let svc = Service.of_config (persisted io) in
  let h = Service.submit svc (Lazy.force hello_bytes) in
  let cold = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h in
  (* kill -9: drop the service without close — recovery runs dirty *)
  let svc2 = Service.of_config (persisted io) in
  (match Service.recovery svc2 with
  | Some r ->
      Alcotest.(check bool) "dirty restart" false r.Store.r_clean;
      Alcotest.(check int) "recovered both records" 2
        (List.length r.Store.r_modules + List.length r.Store.r_translations)
  | None -> Alcotest.fail "persistent service reported no recovery");
  let h2 = Service.submit svc2 (Lazy.force hello_bytes) in
  let warm = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc2 h2 in
  Alcotest.(check string) "bit-identical output" cold.Exec.output
    warm.Exec.output;
  Alcotest.(check int) "same exit" cold.Exec.exit_code warm.Exec.exit_code;
  Alcotest.(check int) "same instruction count" cold.Exec.instructions
    warm.Exec.instructions;
  let c = Service.stats svc2 in
  Alcotest.(check int) "no re-translation" 0 c.Counters.s_translations;
  Alcotest.(check int) "no full verifier run" 0 c.Counters.s_verifications;
  Alcotest.(check int) "no full-verify fallback" 0
    c.Counters.s_cert_full_verify;
  Alcotest.(check int) "the warm hit re-checked the witness" 1
    c.Counters.s_cert_checks;
  Alcotest.(check int) "replayed" 2 c.Counters.s_persist_replay;
  Alcotest.(check int) "recovered" 2 c.Counters.s_persist_recovered;
  Alcotest.(check int) "restore paths journaled nothing" 0
    c.Counters.s_persist_append

let clean_marker_fast_path () =
  let io = Io.sim () in
  let svc = Service.of_config (persisted io) in
  let h = Service.submit svc (Lazy.force hello_bytes) in
  ignore (Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h);
  Service.close svc;
  let svc2 = Service.of_config (persisted io) in
  (match Service.recovery svc2 with
  | Some r -> Alcotest.(check bool) "clean restart" true r.Store.r_clean
  | None -> Alcotest.fail "no recovery report");
  (* close rewrites the marker: clean restarts chain *)
  Service.close svc2;
  let svc3 = Service.of_config (persisted io) in
  match Service.recovery svc3 with
  | Some r ->
      Alcotest.(check bool) "still clean" true r.Store.r_clean;
      Alcotest.(check int) "still everything" 2
        (List.length r.Store.r_modules + List.length r.Store.r_translations)
  | None -> Alcotest.fail "no recovery report"

(* the persist layer recomputes exactly the live path's fingerprint, so
   recovered code binds against certificates minted at admission *)
let fingerprint_parity () =
  let io = Io.sim () in
  let svc = Service.of_config (persisted io) in
  let h = Service.submit svc (Lazy.force hello_bytes) in
  ignore (Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h);
  ignore (Service.instantiate ~engine:(Exec.Target Arch.Mips) ~fuel svc h);
  let live_fp arch =
    match Service.cached ~arch svc h with
    | Some e -> e.Cache.fp
    | None -> Alcotest.fail "translation not cached"
  in
  Service.close svc;
  let r = Store.fsck io in
  Alcotest.(check int) "two translations on disk" 2
    (List.length r.Store.r_translations);
  List.iter
    (fun (rt : Store.rtrans) ->
      let arch = Exec.arch_of rt.Store.rt_prog in
      Alcotest.(check bool)
        (Printf.sprintf "fingerprint parity on %s" (Arch.name arch))
        true
        (Exec.fingerprint rt.Store.rt_prog = rt.Store.rt_fp
        && rt.Store.rt_fp = live_fp arch))
    r.Store.r_translations

(* A store journaled when the code fingerprint was FNV-1a over a
   [Marshal] image of the program: its certificates bind that older
   value. Reopening recovers every module, refuses every translation as
   unbound (counted), and the next Run re-translates and succeeds. *)
let marshal_fingerprint_upgrade () =
  let mods, trs = Lazy.force corpus in
  let io = Io.sim () in
  let t, _ = Store.open_ io in
  List.iter (Store.append_module t) mods;
  List.iter
    (fun (rt : Store.rtrans) ->
      let cert =
        match
          Exec.certify ~module_digest:rt.Store.rt_module ~mode:rt.Store.rt_mode
            ~opts:rt.Store.rt_opts
            ~code_fp:(Marshal_fingerprint.of_translated rt.Store.rt_prog)
            rt.Store.rt_prog
        with
        | Ok c -> c
        | Error e -> Alcotest.failf "certify: %s" e
      in
      Store.append_translation t ~cert)
    trs;
  Store.close t;
  let svc = Service.of_config (persisted io) in
  (match Service.recovery svc with
  | Some r ->
      Alcotest.(check int) "every module recovered" (List.length mods)
        (List.length r.Store.r_modules);
      Alcotest.(check int) "no translation recovered" 0
        (List.length r.Store.r_translations);
      Alcotest.(check int) "every translation quarantined" (List.length trs)
        (List.length
           (List.filter
              (function Store.Cert_unbound _ -> true | _ -> false)
              r.Store.r_quarantined))
  | None -> Alcotest.fail "persistent service reported no recovery");
  let c = Service.stats svc in
  Alcotest.(check int) "quarantine counted" (List.length trs)
    c.Counters.s_persist_quarantined;
  let h = Service.submit svc (Lazy.force hello_bytes) in
  let r = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h in
  Alcotest.(check int) "run succeeds" 0 r.Exec.exit_code;
  let c = Service.stats svc in
  Alcotest.(check int) "re-translated" 1 c.Counters.s_translations;
  Alcotest.(check int) "no warm admission of the stale entry" 0
    c.Counters.s_cert_checks;
  Service.close svc

(* A translation record is its certificate, so recovery derives the
   configuration from it: [Mobile (Policy.make ~protect_reads ~pad ())]
   and the certificate's [opts]. Every certifiable configuration on
   every target must come back under exactly the key the live cache
   used, with the live fingerprint, and serve warm. *)
let every_configuration_recovers () =
  let module Machine = Omni_targets.Machine in
  let module Policy = Omni_sfi.Policy in
  let configs arch =
    let base = Exec.mobile_opts arch in
    let mobile ?protect_reads ?pad () =
      Machine.Mobile (Policy.make ?protect_reads ?pad ())
    in
    [ ("default", mobile (), base);
      ("protect_reads", mobile ~protect_reads:true (), base);
      ("Pad_nop", mobile ~pad:Policy.Pad_nop (), base);
      ("Pad_align", mobile ~pad:Policy.Pad_align (), base);
      ("Pad_guard8", mobile ~pad:Policy.Pad_guard8 (), base);
      ("sfi_opt", mobile (), { base with Machine.sfi_opt = true }) ]
  in
  let cases =
    List.concat_map
      (fun arch ->
        List.map
          (fun (name, mode, opts) ->
            (Printf.sprintf "%s/%s" (Arch.name arch) name, arch, mode, opts))
          (configs arch))
      Arch.all
  in
  let io = Io.sim () in
  let svc = Service.of_config (persisted io) in
  let h = Service.submit svc (Lazy.force hello_bytes) in
  let live =
    List.map
      (fun (what, arch, mode, opts) ->
        let r =
          Service.instantiate ~engine:(Exec.Target arch) ~mode ~opts ~fuel svc h
        in
        match Service.cached ~arch ~mode ~opts svc h with
        | Some e -> (r, e.Cache.fp)
        | None -> Alcotest.failf "%s: translation not cached" what)
      cases
  in
  (* kill -9: drop the service without close, so recovery runs dirty *)
  let svc2 = Service.of_config (persisted io) in
  let r =
    match Service.recovery svc2 with
    | Some r -> r
    | None -> Alcotest.fail "persistent service reported no recovery"
  in
  Alcotest.(check int) "nothing quarantined" 0
    (List.length r.Store.r_quarantined);
  Alcotest.(check int) "every configuration recovered" (List.length cases)
    (List.length r.Store.r_translations);
  let h2 = Service.submit svc2 (Lazy.force hello_bytes) in
  List.iter2
    (fun (what, arch, mode, opts) ((cold : Exec.run_result), fp) ->
      let recovered =
        List.filter
          (fun (rt : Store.rtrans) ->
            Exec.arch_of rt.Store.rt_prog = arch
            && rt.Store.rt_mode = mode && rt.Store.rt_opts = opts)
          r.Store.r_translations
      in
      (match recovered with
      | [ rt ] ->
          Alcotest.(check bool) (what ^ ": live fingerprint") true
            (rt.Store.rt_fp = fp)
      | l ->
          Alcotest.failf "%s: %d recovered translations under the live key"
            what (List.length l));
      let before = Service.stats svc2 in
      let warm =
        Service.instantiate ~engine:(Exec.Target arch) ~mode ~opts ~fuel svc2 h2
      in
      let after = Service.stats svc2 in
      Alcotest.(check string) (what ^ ": same output") cold.Exec.output
        warm.Exec.output;
      Alcotest.(check int) (what ^ ": one witness check") 1
        (after.Counters.s_cert_checks - before.Counters.s_cert_checks);
      Alcotest.(check int) (what ^ ": no translation") 0
        (after.Counters.s_translations - before.Counters.s_translations))
    cases live

(* The record layout a journal had while it stored code: module
   digest(8) | cert len(4) | omni-cert/1 bytes | a Marshal image of
   (mode, opts, program). Here the image has another layout, standing in
   for a journal written by another build; all checksums are valid. The
   record must be refused as a certificate that does not decode; the
   module recovers and the next Run translates afresh. *)
let foreign_layout_record_refused () =
  let hello = Lazy.force hello_bytes in
  let _, trs = Lazy.force corpus in
  let cert =
    match
      List.find_opt
        (fun (rt : Store.rtrans) ->
          rt.Store.rt_module = Fnv64.digest_string hello
          && Exec.arch_of rt.Store.rt_prog = Arch.X86)
        trs
    with
    | Some rt -> rt.Store.rt_cert
    | None -> Alcotest.fail "corpus has no X86 translation of hello"
  in
  let io = Io.sim () in
  let t, _ = Store.open_ io in
  Store.append_module t hello;
  let cert_bytes = Omni_cert.Certificate.encode cert in
  let payload =
    let b = Buffer.create 1024 in
    Buffer.add_int64_le b (Fnv64.digest_string hello);
    Buffer.add_int32_le b (Int32.of_int (String.length cert_bytes));
    Buffer.add_string b cert_bytes;
    Buffer.add_string b (Marshal.to_string (1, 2, 3) []);
    Buffer.contents b
  in
  let record =
    let b = Buffer.create 1024 in
    Buffer.add_char b '\002';
    Buffer.add_int32_le b (Int32.of_int (String.length payload));
    Buffer.add_string b payload;
    Buffer.add_int64_le b (Fnv64.digest_string (Buffer.contents b));
    Buffer.contents b
  in
  let offset = Option.get (Io.size io "seg-0000.dat") in
  let jrec =
    let b = Buffer.create 37 in
    Buffer.add_int64_le b 1L;
    Buffer.add_char b '\002';
    Buffer.add_int64_le b (Int64.of_int offset);
    Buffer.add_int32_le b (Int32.of_int (String.length record));
    Buffer.add_int64_le b (Fnv64.digest_string payload);
    Buffer.add_int64_le b (Fnv64.digest_string (Buffer.contents b));
    Buffer.contents b
  in
  Io.append io "seg-0000.dat" record;
  Io.fsync io "seg-0000.dat";
  Io.append io "journal-0000.wal" jrec;
  Io.fsync io "journal-0000.wal";
  let svc = Service.of_config (persisted io) in
  (match Service.recovery svc with
  | Some r ->
      Alcotest.(check int) "both records replayed" 2 r.Store.r_replayed;
      Alcotest.(check int) "module recovered" 1
        (List.length r.Store.r_modules);
      Alcotest.(check int) "no translation recovered" 0
        (List.length r.Store.r_translations);
      Alcotest.(check bool) "refused as a certificate that does not decode"
        true
        (match r.Store.r_quarantined with
        | [ Store.Bad_cert { seq = 1; _ } ] -> true
        | _ -> false)
  | None -> Alcotest.fail "persistent service reported no recovery");
  let h = Service.submit svc hello in
  let run = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h in
  Alcotest.(check int) "run succeeds" 0 run.Exec.exit_code;
  let c = Service.stats svc in
  Alcotest.(check int) "re-translated" 1 c.Counters.s_translations;
  Alcotest.(check int) "quarantine counted" 1 c.Counters.s_persist_quarantined;
  Service.close svc

(* A module whose dead jump leaves its text is admitted (the
   interpreters run it) but does not translate. A certificate that names
   it must be refused at recovery with a typed reason: recovery
   translates, and the translator's refusal must not escape [open_]. *)
let untranslatable_module_refused () =
  let module VI = Omnivm.Instr in
  let wire =
    Omnivm.Wire.encode
      { Omnivm.Exe.text = [| VI.Li (1, 0); VI.Hcall 0;
                             VI.J (Omnivm.Exe.code_addr 3) |];
        entry = Omnivm.Layout.code_base; data = Bytes.empty; bss_size = 0;
        symbols = [] }
  in
  let cert =
    Omni_cert.Certificate.make ~arch:Arch.X86
      ~module_digest:(Fnv64.digest_string wire) ~code_fp:0L
      ~protect_reads:false ~pad:Omni_sfi.Policy.Pad_none
      ~opts:(Exec.mobile_opts Arch.X86) ~n_code:0 [||]
  in
  let io = Io.sim () in
  let t, _ = Store.open_ io in
  Store.append_module t wire;
  Store.append_translation t ~cert;
  let _, r = Store.open_ io in
  Alcotest.(check int) "module recovered" 1 (List.length r.Store.r_modules);
  Alcotest.(check int) "no translation recovered" 0
    (List.length r.Store.r_translations);
  Alcotest.(check bool) "refused as unbound" true
    (match r.Store.r_quarantined with
    | [ Store.Cert_unbound { seq = 1; _ } ] -> true
    | _ -> false)

let compact_drops_corruption () =
  let io = Io.sim () in
  replay_workload io;
  (* flip the last byte of the segment (inside the final record's
     checksum): truncate one byte, append its complement *)
  let seg = Option.get (Io.read io "seg-0000.dat") in
  let n = String.length seg in
  Io.truncate io "seg-0000.dat" (n - 1);
  Io.append io "seg-0000.dat"
    (String.make 1 (Char.chr (Char.code seg.[n - 1] lxor 0xFF)));
  let r = Store.fsck io in
  Alcotest.(check int) "one record quarantined" 1
    (List.length r.Store.r_quarantined);
  Alcotest.(check int) "the rest recovered" 4
    (List.length r.Store.r_modules + List.length r.Store.r_translations);
  let r2, (before, after) = Store.compact io in
  Alcotest.(check int) "compaction saw the same store" 4
    (List.length r2.Store.r_modules + List.length r2.Store.r_translations);
  Alcotest.(check bool) "compaction shrank the store" true (after < before);
  let r3 = Store.fsck io in
  Alcotest.(check bool) "compacted store is clean" true r3.Store.r_clean;
  Alcotest.(check int) "nothing quarantined after compact" 0
    (List.length r3.Store.r_quarantined);
  Alcotest.(check int) "survivors intact" 4
    (List.length r3.Store.r_modules + List.length r3.Store.r_translations)

(* --- the wire over a recovered store ----------------------------------

   A daemon restarted over its store directory serves what the journal
   recovered by digest: a client retrying a Run across the restart gets
   [Ran] with the pre-restart output, with no resubmit. The server
   resolves digests in the store, so a restored module is as runnable as
   a submitted one; a digest nobody submitted is still unknown. *)

module Server = Omni_net.Server
module Msg = Omni_net.Message

let wire_run server digest engine =
  Server.handle_request server
    (Msg.Run
       { Msg.rs_handle = digest; rs_engine = engine; rs_sfi = true;
         rs_mode = Msg.M_default; rs_fuel = Some fuel; rs_deadline_s = None;
         rs_want_cert = false })

let ran what = function
  | Msg.Ran (r, _) -> r
  | Msg.Error (_, msg) -> Alcotest.failf "%s: error response: %s" what msg
  | _ -> Alcotest.failf "%s: unexpected response" what

let recovered_digests_run_by_wire () =
  let engines = [ Exec.Interp; Exec.Target Arch.X86 ] in
  List.iter
    (fun clean ->
      let restart = if clean then "clean restart" else "dirty restart" in
      let io = Io.sim () in
      let server = Server.create (Service.of_config (persisted io)) in
      let digest =
        match
          Server.handle_request server (Msg.Submit (Lazy.force hello_bytes))
        with
        | Msg.Submitted d -> d
        | _ -> Alcotest.fail "submit refused"
      in
      let before =
        List.map
          (fun e -> ran (Exec.engine_name e) (wire_run server digest e))
          engines
      in
      if clean then Service.close (Server.service server);
      let svc2 = Service.of_config (persisted io) in
      (match Service.recovery svc2 with
      | Some r ->
          Alcotest.(check int) (restart ^ ": recovered modules") 1
            (List.length r.Store.r_modules)
      | None -> Alcotest.fail "persistent service reported no recovery");
      let server2 = Server.create svc2 in
      List.iter2
        (fun e (r : Exec.run_result) ->
          let what = restart ^ ", " ^ Exec.engine_name e in
          let r' = ran what (wire_run server2 digest e) in
          Alcotest.(check string) (what ^ ": same output") r.Exec.output
            r'.Exec.output;
          Alcotest.(check int) (what ^ ": same exit") r.Exec.exit_code
            r'.Exec.exit_code)
        engines before;
      let c = Service.stats svc2 in
      Alcotest.(check int) (restart ^ ": no resubmit") 0 c.Counters.s_submits;
      Alcotest.(check int) (restart ^ ": translation recovered, not redone") 0
        c.Counters.s_translations;
      let stranger = Int64.logxor digest 1L in
      match wire_run server2 stranger Exec.Interp with
      | Msg.Error (Msg.E_unknown_handle, msg) ->
          Alcotest.(check string) (restart ^ ": unknown digest message")
            (Printf.sprintf "no module %s on this server"
               (Fnv64.to_hex stranger))
            msg
      | _ -> Alcotest.failf "%s: ran a digest never submitted" restart)
    [ true; false ]

let () =
  Alcotest.run "persist"
    [ ("matrix",
       [ Alcotest.test_case "200+ kill-point x fault cases" `Quick
           fault_matrix ]);
      ("recovery",
       [ Alcotest.test_case "fault-free roundtrip survives power cut" `Quick
           fault_free_roundtrip;
         Alcotest.test_case "garbage store opens empty" `Quick
           garbage_store_opens_empty;
         Alcotest.test_case "torn journal tail dropped" `Quick
           torn_journal_tail ]);
      ("service",
       [ Alcotest.test_case "warm hits re-check the witness" `Quick
           warm_hits_recheck_witness;
         Alcotest.test_case "clean-marker fast path chains" `Quick
           clean_marker_fast_path;
         Alcotest.test_case "fingerprint parity with the live path" `Quick
           fingerprint_parity;
         Alcotest.test_case "marshal-fingerprint store re-translates" `Quick
           marshal_fingerprint_upgrade;
         Alcotest.test_case "every configuration recovers to its live key"
           `Quick every_configuration_recovers;
         Alcotest.test_case "foreign-layout record is a typed refusal" `Quick
           foreign_layout_record_refused;
         Alcotest.test_case "untranslatable module's certificate refused"
           `Quick untranslatable_module_refused;
         Alcotest.test_case "recovered digests run by wire" `Quick
           recovered_digests_run_by_wire ]);
      ("compact",
       [ Alcotest.test_case "drops a corrupted record" `Quick
           compact_drops_corruption ]) ]

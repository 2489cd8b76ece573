(* The distribution protocol: codec totality and end-to-end serving.

   Load-bearing properties:

   - the frame and message codecs are total: encode-then-decode is the
     identity, and NO byte string — truncated, bit-flipped, oversized,
     garbage — makes a decoder raise (qcheck'd);
   - a module submitted and run through the protocol produces results
     bit-identical to the in-process Api.run path, for every engine,
     with and without SFI;
   - every hostile input (bad magic, truncated frame, oversized frame,
     corrupt payload, unknown tag, malformed module, unknown handle,
     verifier-rejected translation) yields a typed Error response and
     the server keeps serving well-formed requests afterwards. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Risc = Omni_targets.Risc
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Cache = Omni_service.Cache
module Counters = Omni_service.Counters
module Frame = Omni_net.Frame
module Msg = Omni_net.Message
module Transport = Omni_net.Transport
module Server = Omni_net.Server
module Client = Omni_net.Client

let fuel = 50_000_000

(* The in-process run every remote x86 result is compared with. *)
let local_x86 bytes =
  Api.run
    { Api.default_request with engine = Exec.Target Arch.X86; fuel = Some fuel }
    (Api.Wire bytes)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ["service.cache.hits":N] with N >= 1 somewhere in a one-line registry
   JSON object. *)
let hits_positive json =
  let key = "\"service.cache.hits\":" in
  let nl = String.length key and hl = String.length json in
  let rec go i =
    if i + nl >= hl then false
    else if String.sub json i nl = key then
      match json.[i + nl] with '1' .. '9' -> true | _ -> go (i + 1)
    else go (i + 1)
  in
  go 0

let hello_src =
  {| int g = 7;
     int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
     int main(void) {
       int i;
       for (i = 0; i < 5; i++) { print_int(f(i + 5) + g); putchar(32); }
       putchar(10);
       return 0; } |}

let hello_bytes = lazy (Api.compile ~name:"hello" hello_src)

let check_same_result what (a : Exec.run_result) (b : Exec.run_result) =
  Alcotest.(check string) (what ^ ": output") a.Exec.output b.Exec.output;
  Alcotest.(check int) (what ^ ": exit code") a.Exec.exit_code b.Exec.exit_code;
  Alcotest.(check int) (what ^ ": instructions") a.Exec.instructions
    b.Exec.instructions;
  Alcotest.(check int) (what ^ ": cycles") a.Exec.cycles b.Exec.cycles;
  Alcotest.(check bool)
    (what ^ ": outcome + stats")
    true
    (a.Exec.outcome = b.Exec.outcome && a.Exec.stats = b.Exec.stats)

(* --- frame codec --- *)

let frame_roundtrip () =
  List.iter
    (fun (tag, payload) ->
      let fr = { Frame.tag; payload } in
      let bytes = Frame.encode fr in
      (match Frame.decode bytes ~pos:0 with
      | Ok (fr', stop) ->
          Alcotest.(check bool) "decode = id" true (fr' = fr);
          Alcotest.(check int) "consumed all" (String.length bytes) stop
      | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e));
      (* the stream decoder, through a deliberately dribbling reader *)
      let pos = ref 0 in
      let recv buf off len =
        let n = min 3 (min len (String.length bytes - !pos)) in
        Bytes.blit_string bytes !pos buf off n;
        pos := !pos + n;
        n
      in
      match Frame.read recv with
      | Ok fr' -> Alcotest.(check bool) "read = id" true (fr' = fr)
      | Error e -> Alcotest.failf "read failed: %s" (Frame.error_to_string e))
    [ (0, ""); (0x42, "hello"); (0xff, String.make 5000 '\x00');
      (7, String.init 256 Char.chr) ]

let frame_hostile () =
  let good = Frame.encode { Frame.tag = 1; payload = "payload" } in
  let expect what want got =
    Alcotest.(check string) what want
      (match got with
      | Ok _ -> "ok"
      | Error e -> (
          match (e : Frame.error) with
          | Frame.Eof -> "eof"
          | Frame.Truncated -> "truncated"
          | Frame.Bad_magic -> "bad-magic"
          | Frame.Bad_version _ -> "bad-version"
          | Frame.Too_large _ -> "too-large"
          | Frame.Corrupt -> "corrupt"))
  in
  expect "empty = eof" "eof" (Frame.decode "" ~pos:0);
  expect "bad magic" "bad-magic"
    (Frame.decode ("XMNI" ^ String.sub good 4 (String.length good - 4)) ~pos:0);
  let bad_ver = Bytes.of_string good in
  Bytes.set bad_ver 4 '\x63';
  expect "bad version" "bad-version"
    (Frame.decode (Bytes.to_string bad_ver) ~pos:0);
  expect "truncated header" "truncated" (Frame.decode (String.sub good 0 9) ~pos:0);
  expect "truncated payload" "truncated"
    (Frame.decode (String.sub good 0 (String.length good - 2)) ~pos:0);
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt (Frame.header_size + 2) 'X';
  expect "corrupt payload" "corrupt" (Frame.decode (Bytes.to_string corrupt) ~pos:0);
  let oversized = Bytes.of_string good in
  Bytes.set_int32_be oversized 6 0x7fffffffl;
  expect "oversized" "too-large"
    (Frame.decode (Bytes.to_string oversized) ~pos:0)

(* qcheck: arbitrary (tag, payload) frames round-trip; arbitrary
   corruption of the encoding decodes to Ok or Error, never an escaping
   exception. *)
let qcheck_frame_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"frame: roundtrip + corruption total"
       QCheck.(
         triple (int_bound 255) (string_of_size (Gen.int_bound 300))
           (pair small_nat small_nat))
       (fun (tag, payload, (mut_pos, mut_byte)) ->
         let fr = { Frame.tag; payload } in
         let bytes = Frame.encode fr in
         let roundtrips =
           match Frame.decode bytes ~pos:0 with
           | Ok (fr', _) -> fr' = fr
           | Error _ -> false
         in
         (* flip one byte somewhere, then also truncate: decode must
            stay total on both *)
         let mutated = Bytes.of_string bytes in
         let p = mut_pos mod Bytes.length mutated in
         Bytes.set mutated p
           (Char.chr (Char.code (Bytes.get mutated p) lxor (1 + (mut_byte mod 255))));
         let mutated = Bytes.to_string mutated in
         let truncated = String.sub bytes 0 (mut_pos mod (String.length bytes + 1)) in
         let total s =
           match Frame.decode s ~pos:0 with Ok _ | Error _ -> true
         in
         roundtrips && total mutated && total truncated))

(* --- message codec --- *)

let gen_err_class =
  QCheck.Gen.oneofl
    [ Msg.E_decode; Msg.E_verifier_rejected; Msg.E_unknown_handle;
      Msg.E_limit_exceeded; Msg.E_internal; Msg.E_bad_frame;
      Msg.E_certificate_invalid ]

let gen_engine =
  QCheck.Gen.oneofl
    [ Exec.Interp; Exec.Fast; Exec.Target Arch.Mips; Exec.Target Arch.Sparc;
      Exec.Target Arch.Ppc; Exec.Target Arch.X86 ]

let gen_mode =
  let open QCheck.Gen in
  oneof
    [ return Msg.M_default;
      (let* pmode =
         oneofl [ Omni_sfi.Policy.Off; Omni_sfi.Policy.Sandbox; Omni_sfi.Policy.Guard ]
       in
       let* protect_reads = bool in
       let* pad = oneofl Omni_sfi.Policy.all_pads in
       return (Msg.M_policy { pmode; protect_reads; pad }));
      map
        (fun cc -> Msg.M_native (if cc then Machine.Cc else Machine.Gcc))
        bool ]

let gen_fault =
  let open QCheck.Gen in
  let access = oneofl [ Omnivm.Fault.Read; Omnivm.Fault.Write; Omnivm.Fault.Execute ] in
  oneof
    [ (let* addr = nat and* a = access in
       return (Omnivm.Fault.Access_violation { addr; access = a }));
      (let* addr = nat and* width = oneofl [ 1; 2; 4 ] in
       return (Omnivm.Fault.Misaligned { addr; width }));
      return Omnivm.Fault.Division_by_zero;
      map (fun pc -> Omnivm.Fault.Illegal_instruction { pc }) nat;
      map (fun index -> Omnivm.Fault.Unauthorized_host_call { index }) nat;
      return Omnivm.Fault.Stack_overflow;
      map (fun c -> Omnivm.Fault.Explicit_trap c) nat;
      return Omnivm.Fault.Deadline_exceeded ]

let gen_outcome =
  let open QCheck.Gen in
  oneof
    [ map (fun c -> Machine.Exited c) (int_range (-1) 255);
      map (fun f -> Machine.Faulted f) gen_fault;
      return Machine.Out_of_fuel ]

let gen_stats =
  let open QCheck.Gen in
  let* instructions = nat
  and* by_origin = array_repeat 6 nat
  and* cycles = nat
  and* loads = nat
  and* stores = nat
  and* branches = nat
  and* taken_branches = nat
  and* omni_instructions = nat in
  return
    { Machine.instructions; by_origin; cycles; loads; stores; branches;
      taken_branches; omni_instructions }

let gen_crash =
  let open QCheck.Gen in
  let* cs_pc = nat
  and* cs_regs = array_repeat 16 nat
  and* cs_window_base = int_range (-1) 1_000_000
  and* cs_window = string_size (int_bound 64) in
  return { Exec.cs_pc; cs_regs; cs_window_base; cs_window }

let gen_result =
  let open QCheck.Gen in
  let* output = string_size (int_bound 100)
  and* exit_code = int_range (-1) 255
  and* outcome = gen_outcome
  and* instructions = nat
  and* cycles = nat
  and* stats = opt gen_stats
  and* crash = opt gen_crash in
  return { Exec.output; exit_code; outcome; instructions; cycles; stats; crash }

let gen_req =
  let open QCheck.Gen in
  oneof
    [ return Msg.Ping;
      map (fun s -> Msg.Submit s) (string_size (int_bound 200));
      (let* rs_handle = map Int64.of_int nat
       and* rs_engine = gen_engine
       and* rs_sfi = bool
       and* rs_mode = gen_mode
       and* rs_fuel = opt nat
       and* rs_deadline_s = opt (map float_of_int (int_bound 1000))
       and* rs_want_cert = bool in
       return
         (Msg.Run
            { Msg.rs_handle; rs_engine; rs_sfi; rs_mode; rs_fuel;
              rs_deadline_s; rs_want_cert }));
      return Msg.Stats ]

let gen_resp =
  let open QCheck.Gen in
  oneof
    [ return Msg.Pong;
      map (fun d -> Msg.Submitted (Int64.of_int d)) nat;
      (let* r = gen_result
       and* cert = opt (string_size (int_bound 120)) in
       return (Msg.Ran (r, cert)));
      map (fun s -> Msg.Stats_json s) (string_size (int_bound 100));
      (let* cls = gen_err_class and* m = string_size (int_bound 80) in
       return (Msg.Error (cls, m))) ]

let qcheck_message_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"message: encode/decode = id"
       (QCheck.make (QCheck.Gen.pair gen_req gen_resp))
       (fun (req, resp) ->
         Msg.decode_req (Msg.encode_req req) = Ok req
         && Msg.decode_resp (Msg.encode_resp resp) = Ok resp))

(* The wire form of an explicit mode and its resolution are one inverse
   pair: every mode_spec survives the trip through Machine.mode, so what
   a client asks for is what the server runs. *)
let qcheck_mode_spec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"message: mode_spec_of_mode (mode_of_spec s) = s"
       (QCheck.make gen_mode) (fun spec ->
         let mode = Msg.mode_of_spec spec in
         Msg.mode_spec_of_mode mode = spec
         && (spec = Msg.M_default) = (mode = None)
         && Option.fold ~none:true
              ~some:(fun m ->
                Msg.mode_of_spec (Msg.mode_spec_of_mode (Some m)) = Some m)
              mode))

let qcheck_message_corruption =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"message: corrupted payloads decode to Error, never raise"
       (QCheck.make
          QCheck.Gen.(triple (pair gen_req gen_resp) small_nat small_nat))
       (fun ((req, resp), pos, delta) ->
         let total_req (fr : Frame.t) =
           match Msg.decode_req fr with Ok _ | Error _ -> true
         in
         let total_resp (fr : Frame.t) =
           match Msg.decode_resp fr with Ok _ | Error _ -> true
         in
         let mutate (fr : Frame.t) =
           let p = fr.Frame.payload in
           if String.length p = 0 then { fr with Frame.payload = "\x9f" }
           else
             let b = Bytes.of_string p in
             let i = pos mod Bytes.length b in
             Bytes.set b i
               (Char.chr
                  (Char.code (Bytes.get b i) lxor (1 + (delta mod 255))));
             { fr with Frame.payload = Bytes.to_string b }
         in
         let truncate (fr : Frame.t) =
           let p = fr.Frame.payload in
           { fr with Frame.payload = String.sub p 0 (pos mod (String.length p + 1)) }
         in
         let rf = Msg.encode_req req and pf = Msg.encode_resp resp in
         total_req (mutate rf) && total_req (truncate rf)
         && total_resp (mutate pf)
         && total_resp (truncate pf)
         (* a response never parses as a request and vice versa *)
         && (match Msg.decode_req pf with Error _ -> true | Ok _ -> false)
         && (match Msg.decode_resp rf with Error _ -> true | Ok _ -> false)))

(* --- end-to-end over the in-memory transport --- *)

let with_loopback f =
  let svc = Service.of_config Service.default_config in
  let server = Server.create svc in
  let client = Client.loopback server in
  f svc server client

let e2e_identity () =
  with_loopback @@ fun svc _server client ->
  Client.ping client;
  let bytes = Lazy.force hello_bytes in
  let h = Client.submit client bytes in
  let h2 = Client.submit client bytes in
  Alcotest.(check bool) "submit is idempotent" true (Int64.equal h h2);
  (* interpreter + all four targets × SFI on/off, against Api.run *)
  List.iter
    (fun engine ->
      List.iter
        (fun sfi ->
          let remote = Client.run ~engine ~sfi ~fuel client h in
          let local =
            Api.run
              { Api.default_request with engine; sfi; fuel = Some fuel }
              (Api.Wire bytes)
          in
          check_same_result
            (Printf.sprintf "%s/sfi=%b" (Exec.engine_name engine) sfi)
            local remote)
        [ true; false ])
    [ Exec.Interp; Exec.Target Arch.Mips; Exec.Target Arch.Sparc;
      Exec.Target Arch.Ppc; Exec.Target Arch.X86 ];
  (* warm runs hit the translation cache *)
  let c = Service.stats svc in
  Alcotest.(check int) "one module" 1 c.Counters.s_modules;
  Alcotest.(check bool) "cache consulted" true (c.Counters.s_misses > 0);
  let r1 = Client.run ~engine:(Exec.Target Arch.Mips) ~fuel client h in
  let r2 = Client.run ~engine:(Exec.Target Arch.Mips) ~fuel client h in
  check_same_result "warm = warm" r1 r2;
  let c' = Service.stats svc in
  Alcotest.(check bool) "hits advanced" true
    (c'.Counters.s_hits > c.Counters.s_hits);
  (* stats travel as JSON *)
  let json = Client.stats_json client in
  Alcotest.(check bool) "stats json mentions hits" true
    (contains json "\"service.cache.hits\":")

(* Each serving event lands in exactly one instrument. [Server.create]'s
   default tracer shares the service's registry, so a layer that bumped
   its [Counters] instrument and also an ambient [Trace.count] under the
   same name counted the event twice. *)
let one_count_per_event () =
  let svc = Service.of_config Service.default_config in
  let server = Server.create svc in
  let bytes = Lazy.force hello_bytes in
  let submit () =
    match Server.handle_request server (Msg.Submit bytes) with
    | Msg.Submitted h -> h
    | _ -> Alcotest.fail "submit refused"
  in
  let h = submit () in
  ignore (submit ());
  let run engine =
    match
      Server.handle_request server
        (Msg.Run
           { Msg.rs_handle = h; rs_engine = engine; rs_sfi = true;
             rs_mode = Msg.M_default; rs_fuel = Some fuel;
             rs_deadline_s = None; rs_want_cert = false })
    with
    | Msg.Ran _ -> ()
    | _ -> Alcotest.fail "run refused"
  in
  run Exec.Fast;
  run Exec.Fast;
  (* one cold target run, then one warm *)
  run (Exec.Target Arch.Mips);
  run (Exec.Target Arch.Mips);
  let counters =
    (Omni_obs.Metrics.snapshot (Service.metrics svc)).Omni_obs.Metrics.counters
  in
  let value name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.failf "%s not registered" name
  in
  Alcotest.(check int) "vm.predecode.miss" 1 (value "vm.predecode.miss");
  Alcotest.(check int) "vm.predecode.hit" 1 (value "vm.predecode.hit");
  Alcotest.(check int) "service.dedup_hits" 1 (value "service.dedup_hits");
  Alcotest.(check int) "service.cache.hits" 1 (value "service.cache.hits");
  Alcotest.(check int) "service.cache.cert_check" 1
    (value "service.cache.cert_check");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not registered") false
        (List.mem_assoc name counters))
    [ "cache.hits"; "cache.misses"; "cache.cert.check"; "store.dedup_hits" ]

(* A target run's certificate goes out only when asked for: a default
   server answers a run without [rs_want_cert] with no certificate, cold
   or warm, and attaches one when the client asks. *)
let certificate_only_when_asked () =
  let server = Server.create (Service.of_config Service.default_config) in
  let h =
    match Server.handle_request server (Msg.Submit (Lazy.force hello_bytes)) with
    | Msg.Submitted h -> h
    | _ -> Alcotest.fail "submit refused"
  in
  let run want =
    match
      Server.handle_request server
        (Msg.Run
           { Msg.rs_handle = h; rs_engine = Exec.Target Arch.Mips;
             rs_sfi = true; rs_mode = Msg.M_default; rs_fuel = Some fuel;
             rs_deadline_s = None; rs_want_cert = want })
    with
    | Msg.Ran (_, cert) -> cert
    | _ -> Alcotest.fail "run refused"
  in
  Alcotest.(check bool) "cold run, not asked" true (run false = None);
  Alcotest.(check bool) "warm run, not asked" true (run false = None);
  Alcotest.(check bool) "warm run, asked" true (Option.is_some (run true))

let e2e_native_mode () =
  with_loopback @@ fun _svc _server client ->
  let bytes = Lazy.force hello_bytes in
  let h = Client.submit client bytes in
  let remote =
    Client.run ~engine:(Exec.Target Arch.Ppc)
      ~mode:(Msg.M_native Machine.Gcc) ~fuel client h
  in
  let local =
    Api.run
      { Api.default_request with
        engine = Exec.Target Arch.Ppc;
        mode = Some (Machine.Native Machine.Gcc);
        fuel = Some fuel }
      (Api.Wire bytes)
  in
  check_same_result "native-gcc baseline over the wire" local remote

(* --- hostile inputs --- *)

(* Push raw bytes at the server and read back one raw frame. *)
let raw_exchange server bytes =
  let c, s = Transport.pair () in
  Transport.on_stall c (fun () -> ignore (Server.step server s));
  Transport.send c bytes;
  let r = Frame.read (Transport.recv c) in
  Transport.close c;
  r

let expect_error_resp what cls r =
  match r with
  | Ok fr -> (
      match Msg.decode_resp fr with
      | Ok (Msg.Error (c, _)) ->
          Alcotest.(check string) what (Msg.err_class_name cls)
            (Msg.err_class_name c)
      | Ok _ -> Alcotest.failf "%s: expected Error response" what
      | Error m -> Alcotest.failf "%s: bad response: %s" what m)
  | Error e ->
      Alcotest.failf "%s: no response frame: %s" what (Frame.error_to_string e)

let hostile_frames () =
  with_loopback @@ fun _svc server client ->
  let alive what =
    Client.ping client;
    ignore what
  in
  let good = Frame.encode (Msg.encode_req Msg.Ping) in
  (* bad magic *)
  expect_error_resp "bad magic" Msg.E_bad_frame
    (raw_exchange server ("EVIL" ^ String.sub good 4 (String.length good - 4)));
  alive "after bad magic";
  (* foreign version *)
  let bad_ver = Bytes.of_string good in
  Bytes.set bad_ver 4 '\x07';
  expect_error_resp "bad version" Msg.E_bad_frame
    (raw_exchange server (Bytes.to_string bad_ver));
  alive "after bad version";
  (* oversized declared length: build a header claiming 2 GiB *)
  let oversized = Bytes.of_string good in
  Bytes.set_int32_be oversized 6 0x7fff_ffffl;
  expect_error_resp "oversized" Msg.E_bad_frame
    (raw_exchange server (Bytes.to_string oversized));
  alive "after oversized";
  (* short read: header promises 64 payload bytes, stream ends early *)
  let submit = Frame.encode (Msg.encode_req (Msg.Submit (String.make 64 'x'))) in
  expect_error_resp "short read" Msg.E_bad_frame
    (raw_exchange server (String.sub submit 0 (String.length submit - 10)));
  alive "after short read";
  (* corrupt payload byte: checksum catches it *)
  let corrupt = Bytes.of_string submit in
  Bytes.set corrupt (Frame.header_size + 5) '\x00';
  expect_error_resp "corrupt payload" Msg.E_bad_frame
    (raw_exchange server (Bytes.to_string corrupt));
  alive "after corruption";
  (* unknown request tag *)
  expect_error_resp "unknown tag" Msg.E_decode
    (raw_exchange server (Frame.encode { Frame.tag = 0x7f; payload = "" }));
  alive "after unknown tag"

(* Frame payloads at the admission boundary: empty, exactly at the cap,
   one byte over. The cap refusal is a framing-level E_bad_frame (an
   oversized declared length is indistinguishable from a corrupted
   length field); honest size admission is the server's module-byte
   quota, tested in test_fault.ml. *)
let frame_boundaries () =
  let svc = Service.of_config Service.default_config in
  let cap = 64 in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.max_frame = cap }
      svc
  in
  (* empty payload: Ping is an empty-payload frame *)
  (match raw_exchange server (Frame.encode (Msg.encode_req Msg.Ping)) with
  | Ok fr ->
      Alcotest.(check bool) "empty-payload frame serves" true
        (Msg.decode_resp fr = Ok Msg.Pong)
  | Error e -> Alcotest.failf "no pong: %s" (Frame.error_to_string e));
  (* a payload exactly at the cap clears framing: the message layer's
     unknown-tag refusal proves the frame itself was admitted *)
  expect_error_resp "payload at cap" Msg.E_decode
    (raw_exchange server
       (Frame.encode { Frame.tag = 0x7f; payload = String.make cap 'a' }));
  (* one byte over the cap is refused at the framing layer *)
  expect_error_resp "payload one over cap" Msg.E_bad_frame
    (raw_exchange server
       (Frame.encode { Frame.tag = 0x7f; payload = String.make (cap + 1) 'a' }));
  (* and the server still serves *)
  match raw_exchange server (Frame.encode (Msg.encode_req Msg.Ping)) with
  | Ok fr ->
      Alcotest.(check bool) "still serving after cap refusal" true
        (Msg.decode_resp fr = Ok Msg.Pong)
  | Error e -> Alcotest.failf "server died: %s" (Frame.error_to_string e)

let hostile_requests () =
  with_loopback @@ fun _svc _server client ->
  (* malformed module bytes *)
  (match Client.submit client "not a module" with
  | _ -> Alcotest.fail "server admitted garbage"
  | exception Client.Remote_error (Msg.E_decode, _) -> ());
  Client.ping client;
  (* unknown handle *)
  (match Client.run ~fuel client 0xdeadbeefL with
  | _ -> Alcotest.fail "server ran a module it never saw"
  | exception Client.Remote_error (Msg.E_unknown_handle, _) -> ());
  Client.ping client;
  (* a well-formed request still works on the very same connection *)
  let h = Client.submit client (Lazy.force hello_bytes) in
  let r = Client.run ~fuel client h in
  Alcotest.(check int) "exit 0 after hostile traffic" 0 r.Exec.exit_code

(* A module whose entry is no instruction of its text is refused at
   Submit as a decode error; a static label outside the text is refused
   as a decode error by every translating engine, while the interpreters,
   which never reach the dead jump, run the module. *)
let hostile_entries_and_labels () =
  with_loopback @@ fun _svc _server client ->
  let module VI = Omnivm.Instr in
  let exe entry text =
    Omnivm.Wire.encode
      { Omnivm.Exe.text; entry; data = Bytes.empty; bss_size = 0;
        symbols = [] }
  in
  let exits = [| VI.Li (1, 0); VI.Hcall 0 |] in
  let base = Omnivm.Layout.code_base in
  List.iter
    (fun (what, entry) ->
      match Client.submit client (exe entry exits) with
      | _ -> Alcotest.failf "server admitted a module with %s" what
      | exception Client.Remote_error (Msg.E_decode, _) -> ())
    [ ("a misaligned entry", base + 2); ("an entry below the text", base - 4);
      ("an entry past the text", Omnivm.Exe.code_addr 2) ];
  Client.ping client;
  let h =
    Client.submit client
      (exe base (Array.append exits [| VI.J (Omnivm.Exe.code_addr 3) |]))
  in
  List.iter
    (fun engine ->
      match (engine, Client.run ~engine ~fuel client h) with
      | (Exec.Interp | Exec.Fast), r ->
          Alcotest.(check int) (Exec.engine_name engine) 0 r.Exec.exit_code
      | Exec.Target _, _ ->
          Alcotest.failf "%s translated a jump past the text"
            (Exec.engine_name engine)
      | exception Client.Remote_error (Msg.E_decode, _) -> ())
    (Exec.Interp :: Exec.Fast :: List.map (fun a -> Exec.Target a) Arch.all);
  Client.ping client

(* Corrupt the server's translation cache in place: the per-hit static
   verifier must refuse to let the poisoned code reach a simulator, the
   client must see a typed error, and the daemon must keep serving. *)
let verifier_rejected () =
  with_loopback @@ fun svc _server client ->
  let bytes = Lazy.force hello_bytes in
  let h = Client.submit client bytes in
  let r = Client.run ~engine:(Exec.Target Arch.Mips) ~fuel client h in
  Alcotest.(check int) "clean run first" 0 r.Exec.exit_code;
  (* same bytes -> same handle on the server's own store *)
  let local_h = Service.submit svc bytes in
  (match Service.cached ~arch:Arch.Mips svc local_h with
  | Some e -> (
      match e.Cache.tr with
      | Exec.T_risc p ->
          let bad = if Risc.omni_sp = 20 then 21 else 20 in
          p.Risc.code.(0) <-
            Risc.mk Machine.Core (Risc.Store (Omnivm.Instr.W32, bad, bad, 0))
      | Exec.T_x86 _ -> Alcotest.fail "mips entry is not risc?")
  | None -> Alcotest.fail "no cached mips entry");
  (match Client.run ~engine:(Exec.Target Arch.Mips) ~fuel client h with
  | _ -> Alcotest.fail "poisoned cache entry reached the simulator"
  | exception Client.Remote_error (Msg.E_verifier_rejected, _) -> ());
  (* the daemon survives and other configurations still serve *)
  Client.ping client;
  let r = Client.run ~engine:(Exec.Target Arch.Sparc) ~fuel client h in
  Alcotest.(check int) "sparc still serves" 0 r.Exec.exit_code

(* --- the Api facade's remote path --- *)

let api_remote_path () =
  with_loopback @@ fun _svc _server client ->
  let bytes = Lazy.force hello_bytes in
  let remote_req =
    { Api.default_request with
      engine = Exec.Target Arch.X86;
      fuel = Some fuel;
      remote = Some client }
  in
  let remote = Api.run remote_req (Api.Wire bytes) in
  check_same_result "remote run = local run" (local_x86 bytes) remote;
  (* remote refusals surface as the local exceptions *)
  match Api.run remote_req (Api.Wire "garbage") with
  | _ -> Alcotest.fail "garbage ran"
  | exception Omnivm.Wire.Bad_module _ -> ()

(* --- real Unix socket, daemon in a forked child --- *)

let socket_skip reason = Printf.eprintf "net socket test: SKIP (%s)\n%!" reason

let socket_e2e () =
  if not Sys.unix then socket_skip "not a Unix platform"
  else
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "omni_net_test_%d.sock" (Unix.getpid ()))
    in
    (try Sys.remove path with Sys_error _ -> ());
    match Server.listen (Transport.Unix_sock path) with
    | exception _ -> socket_skip "cannot bind a Unix-domain socket"
    | listen_fd -> (
        match Unix.fork () with
        | exception _ ->
            Unix.close listen_fd;
            (try Sys.remove path with Sys_error _ -> ());
            socket_skip "cannot fork"
        | 0 ->
            (* child: a daemon — sequential accept loop, killed by the
               parent. _exit so alcotest's at_exit never runs here. *)
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
             with Invalid_argument _ -> ());
            let svc = Service.of_config Service.default_config in
            let server = Server.create svc in
            (try Server.serve server listen_fd with _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close listen_fd;
            Fun.protect
              ~finally:(fun () ->
                (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid);
                try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                (* wait for the daemon to come up *)
                let rec conn tries =
                  match Transport.connect (Transport.Unix_sock path) with
                  | c -> c
                  | exception Unix.Unix_error _ when tries > 0 ->
                      Unix.sleepf 0.05;
                      conn (tries - 1)
                in
                let c = conn 100 in
                Transport.set_read_timeout c 30.;
                let client = Client.of_conn c in
                Client.ping client;
                let bytes = Lazy.force hello_bytes in
                let h = Client.submit client bytes in
                let remote =
                  Client.run ~engine:(Exec.Target Arch.X86) ~fuel client h
                in
                check_same_result "socket run = local run" (local_x86 bytes)
                  remote;
                (* The daemon serves one connection at a time: close this
                   one so the next is served now, rather than when the
                   daemon's 30 s idle timeout races the client's own. *)
                Client.close client;
                (* hostile frame on a second connection; the daemon
                   answers with a typed error and survives *)
                let c2 = Transport.connect (Transport.Unix_sock path) in
                Transport.set_read_timeout c2 30.;
                let good = Frame.encode (Msg.encode_req Msg.Ping) in
                Transport.send c2
                  ("EVIL" ^ String.sub good 4 (String.length good - 4));
                expect_error_resp "socket bad magic" Msg.E_bad_frame
                  (Frame.read (Transport.recv c2));
                Transport.close c2;
                (* warm run on a fresh connection: the daemon's cache hits *)
                let c3 = Transport.connect (Transport.Unix_sock path) in
                Transport.set_read_timeout c3 30.;
                let client3 = Client.of_conn c3 in
                let h3 = Client.submit client3 bytes in
                let again =
                  Client.run ~engine:(Exec.Target Arch.X86) ~fuel client3 h3
                in
                check_same_result "warm socket run" remote again;
                let json = Client.stats_json client3 in
                Alcotest.(check bool) "daemon reports a cache hit" true
                  (hits_positive json);
                Client.close client3))

(* A daemon that stalls mid-frame: the first connection answers with 7
   bytes of a Pong frame and then hangs past the client's read timeout.
   The retrying client must classify the Transport.Timeout as transient,
   re-dial, and succeed against the (by then well-behaved) daemon. *)
let socket_stall_retry () =
  if not Sys.unix then socket_skip "not a Unix platform"
  else
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "omni_net_stall_%d.sock" (Unix.getpid ()))
    in
    (try Sys.remove path with Sys_error _ -> ());
    match Server.listen (Transport.Unix_sock path) with
    | exception _ -> socket_skip "cannot bind a Unix-domain socket"
    | listen_fd -> (
        match Unix.fork () with
        | exception _ ->
            Unix.close listen_fd;
            (try Sys.remove path with Sys_error _ -> ());
            socket_skip "cannot fork"
        | 0 ->
            (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
             with Invalid_argument _ -> ());
            (* first connection: read the request, send a truncated
               response, hang past the client's read timeout *)
            (try
               let fd, _ = Unix.accept listen_fd in
               let conn = Transport.of_fd fd in
               Transport.set_read_timeout conn 5.;
               ignore (Frame.read (Transport.recv conn));
               let pong = Frame.encode (Msg.encode_resp Msg.Pong) in
               Transport.send conn (String.sub pong 0 7);
               Unix.sleepf 0.8;
               Transport.close conn
             with _ -> ());
            (* then behave *)
            let svc = Service.of_config Service.default_config in
            let server = Server.create svc in
            (try Server.serve server listen_fd with _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close listen_fd;
            Fun.protect
              ~finally:(fun () ->
                (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid);
                try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                let retry =
                  { Omni_net.Retry.default with
                    Omni_net.Retry.max_attempts = 5;
                    base_delay_s = 0.6 }
                in
                let client =
                  Client.connect ~retry ~read_timeout:0.4
                    (Transport.Unix_sock path)
                in
                let reg = Omni_obs.Metrics.create () in
                let tracer = Omni_obs.Trace.make ~metrics:reg Omni_obs.Trace.Null in
                Omni_obs.Trace.with_current tracer (fun () ->
                    Client.ping client;
                    let bytes = Lazy.force hello_bytes in
                    let h = Client.submit client bytes in
                    let remote =
                      Client.run ~engine:(Exec.Target Arch.X86) ~fuel client h
                    in
                    check_same_result "post-stall run = local run"
                      (local_x86 bytes) remote);
                Alcotest.(check bool) "the stalled attempt was retried" true
                  (Omni_obs.Metrics.value
                     (Omni_obs.Metrics.counter reg "net.retry")
                  >= 1);
                Client.close client))

(* --- framing over a real socket pair --- *)

(* A connected Unix-domain socket pair wrapped as two connections, closed
   afterwards; skipped like the daemon tests where sockets are missing. *)
let with_socketpair f =
  if not Sys.unix then socket_skip "not a Unix platform"
  else
    match Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> socket_skip "cannot make a socket pair"
    | a, b ->
        let ca = Transport.of_fd ~descr:"a" a
        and cb = Transport.of_fd ~descr:"b" b in
        Fun.protect
          ~finally:(fun () ->
            Transport.close ca;
            Transport.close cb)
          (fun () -> f ca cb)

let expect_frame what want = function
  | Ok fr ->
      Alcotest.(check int) (what ^ ": tag") want.Frame.tag fr.Frame.tag;
      Alcotest.(check string) (what ^ ": payload") want.Frame.payload
        fr.Frame.payload
  | Error e -> Alcotest.failf "%s: %s" what (Frame.error_to_string e)

(* Two frames in one write: the first read buffers both, and the second
   frame comes out of the buffer without another read. *)
let socket_two_frames_one_write () =
  with_socketpair @@ fun w r ->
  let f1 = { Frame.tag = 1; payload = "first" }
  and f2 = { Frame.tag = 2; payload = String.make 300 'x' } in
  Transport.send w (Frame.encode f1 ^ Frame.encode f2);
  Transport.set_read_timeout r 5.;
  expect_frame "frame 1" f1 (Frame.read (Transport.recv r));
  expect_frame "frame 2" f2 (Frame.read (Transport.recv r));
  Alcotest.(check int) "both frames from one read" 1 (Transport.reads r)

(* One frame in three pieces, cut inside the header and inside the body.
   Each piece is written just before the reader asks for more, so every
   cut reaches the reader as its own read. *)
let socket_frame_in_pieces () =
  with_socketpair @@ fun w r ->
  let fr = { Frame.tag = 3; payload = "a frame in three pieces" } in
  let bytes = Frame.encode fr in
  let cut1 = 7 and cut2 = Frame.header_size + 5 in
  let pieces =
    ref
      [ String.sub bytes 0 cut1;
        String.sub bytes cut1 (cut2 - cut1);
        String.sub bytes cut2 (String.length bytes - cut2) ]
  in
  let feed () =
    match !pieces with
    | p :: rest ->
        Transport.send w p;
        pieces := rest
    | [] -> ()
  in
  Transport.set_read_timeout r 5.;
  expect_frame "reassembled" fr
    (Frame.read (fun b pos len ->
         feed ();
         Transport.recv r b pos len));
  Alcotest.(check int) "one read per piece" 3 (Transport.reads r)

(* A Submit frame larger than the receive buffer; the writer runs in its
   own domain, since the socket may not hold the whole frame at once. *)
let socket_large_submit () =
  with_socketpair @@ fun w r ->
  let modbytes = String.init 100_000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let fr = Msg.encode_req (Msg.Submit modbytes) in
  let writer = Domain.spawn (fun () -> Transport.send w (Frame.encode fr)) in
  Transport.set_read_timeout r 5.;
  let got = Frame.read (Transport.recv r) in
  Domain.join writer;
  expect_frame "100 KB submit" fr got;
  match Result.map Msg.decode_req got with
  | Ok (Ok (Msg.Submit b)) ->
      Alcotest.(check bool) "module bytes intact" true (String.equal b modbytes)
  | _ -> Alcotest.fail "not a Submit"

let socket_eof_mid_frame () =
  with_socketpair @@ fun w r ->
  let bytes = Frame.encode { Frame.tag = 1; payload = "cut short" } in
  Transport.send w (String.sub bytes 0 (String.length bytes / 2));
  Transport.close w;
  Transport.set_read_timeout r 5.;
  match Frame.read (Transport.recv r) with
  | Error Frame.Truncated -> ()
  | Ok _ -> Alcotest.fail "half a frame decoded"
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Frame.error_to_string e)

let socket_stall_mid_header () =
  with_socketpair @@ fun w r ->
  let bytes = Frame.encode { Frame.tag = 1; payload = "stalled" } in
  Transport.send w (String.sub bytes 0 7);
  Transport.set_read_timeout r 0.2;
  match Frame.read (Transport.recv r) with
  | exception Transport.Timeout -> ()
  | Ok _ -> Alcotest.fail "a stalled frame decoded"
  | Error e ->
      Alcotest.failf "expected Timeout, got %s" (Frame.error_to_string e)

(* The server's read timeout: a peer sends half a frame and stalls; the
   connection is closed and counted under net.timeouts. *)
let server_read_timeout () =
  with_socketpair @@ fun peer srv ->
  let svc = Service.of_config Service.default_config in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.read_timeout_s = 0.2 }
      svc
  in
  let ping = Frame.encode (Msg.encode_req Msg.Ping) in
  Transport.send peer (String.sub ping 0 (String.length ping / 2));
  Server.serve_conn server srv;
  Alcotest.(check bool) "server closed the connection" true
    (Transport.closed srv);
  let counter name =
    Omni_obs.Metrics.value
      (Omni_obs.Metrics.counter (Service.metrics svc) name)
  in
  Alcotest.(check int) "net.timeouts" 1 (counter "net.timeouts");
  Alcotest.(check int) "no response sent" 0 (counter "net.bytes_out");
  Transport.set_read_timeout peer 5.;
  Alcotest.(check int) "the peer sees end of stream" 0
    (Transport.recv peer (Bytes.create 1) 0 1)

(* A warm Run over a Unix socket costs the server one read(2) and the
   client one: each frame arrives whole in the receive buffer. *)
let warm_run_one_read () =
  with_socketpair @@ fun client srv ->
  let svc = Service.of_config Service.default_config in
  let server = Server.create svc in
  let session = Server.new_session () in
  let net_reads () =
    Omni_obs.Metrics.value
      (Omni_obs.Metrics.counter (Service.metrics svc) "net.reads")
  in
  Transport.set_read_timeout client 5.;
  Transport.set_read_timeout srv 5.;
  let call req =
    Transport.send client (Frame.encode (Msg.encode_req req));
    (match Server.step ~session server srv with
    | `Handled -> ()
    | `Closed -> Alcotest.fail "server closed the connection");
    match Result.map Msg.decode_resp (Frame.read (Transport.recv client)) with
    | Ok (Ok resp) -> resp
    | _ -> Alcotest.fail "no response"
  in
  let h =
    match call (Msg.Submit (Lazy.force hello_bytes)) with
    | Msg.Submitted h -> h
    | _ -> Alcotest.fail "submit refused"
  in
  let run =
    Msg.Run
      { Msg.rs_handle = h; rs_engine = Exec.Target Arch.X86; rs_sfi = true;
        rs_mode = Msg.M_default; rs_fuel = Some fuel; rs_deadline_s = None;
        rs_want_cert = false }
  in
  let ran () =
    match call run with
    | Msg.Ran (r, _) -> r
    | _ -> Alcotest.fail "run refused"
  in
  let cold = ran () in
  let server_before = net_reads () and client_before = Transport.reads client in
  let warm = ran () in
  check_same_result "warm run = cold run" cold warm;
  Alcotest.(check int) "one server read per warm Run" 1
    (net_reads () - server_before);
  Alcotest.(check int) "one client read per response" 1
    (Transport.reads client - client_before);
  Alcotest.(check int) "net.reads counts every server read"
    (Transport.reads srv) (net_reads ())

let () =
  Alcotest.run "net"
    [ ("frame",
       [ Alcotest.test_case "roundtrip" `Quick frame_roundtrip;
         Alcotest.test_case "hostile bytes" `Quick frame_hostile;
         qcheck_frame_total ]);
      ("message",
       [ qcheck_message_roundtrip; qcheck_mode_spec_roundtrip;
         qcheck_message_corruption ]);
      ("e2e",
       [ Alcotest.test_case "identity across engines × SFI" `Quick
           e2e_identity;
         Alcotest.test_case "native baseline mode" `Quick e2e_native_mode;
         Alcotest.test_case "api remote path" `Quick api_remote_path;
         Alcotest.test_case "one count per serving event" `Quick
           one_count_per_event;
         Alcotest.test_case "certificate only when asked" `Quick
           certificate_only_when_asked ]);
      ("hostile",
       [ Alcotest.test_case "frames" `Quick hostile_frames;
         Alcotest.test_case "frame boundaries" `Quick frame_boundaries;
         Alcotest.test_case "requests" `Quick hostile_requests;
         Alcotest.test_case "entries and labels" `Quick
           hostile_entries_and_labels;
         Alcotest.test_case "verifier rejection" `Quick verifier_rejected ]);
      ("socket",
       [ Alcotest.test_case "daemon over unix socket" `Quick socket_e2e;
         Alcotest.test_case "stalled daemon, retrying client" `Quick
           socket_stall_retry;
         Alcotest.test_case "two frames in one write" `Quick
           socket_two_frames_one_write;
         Alcotest.test_case "one frame in three pieces" `Quick
           socket_frame_in_pieces;
         Alcotest.test_case "submit larger than the buffer" `Quick
           socket_large_submit;
         Alcotest.test_case "end of stream mid-frame" `Quick
           socket_eof_mid_frame;
         Alcotest.test_case "stall mid-header times out" `Quick
           socket_stall_mid_header;
         Alcotest.test_case "server read timeout" `Quick server_read_timeout;
         Alcotest.test_case "one read per warm run" `Quick warm_run_one_read ]) ]

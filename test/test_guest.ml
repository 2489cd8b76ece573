(* The guest front-end's guarantees, end to end:

   1. codec: [Bytecode.decode (encode p)] gives back [p], and the decoder
      is total — arbitrary bytes and mutated encodings yield a typed
      result, never an exception;
   2. differential: for seeded random guest programs (valid, terminating
      and fault-free by construction), the lifted OmniVM module produces
      bit-identical output and exit code to the [Interp] oracle on the
      interpreter and on all four target simulators, with SFI on and off,
      and with a starved register pool so every spill path runs;
   3. refusal is typed: malformed bytecode, stack-discipline violations,
      bad targets and unknown host calls come back as [Error.t] values
      (and through the shared [Producer] surface as producer errors),
      never as exceptions or silently-wrong modules;
   4. lifted modules are first-class downstream: certificates produced
      for their translations check, and serving one through the
      memoizing [Service] cache returns bit-identical results warm and
      cold with the producer name recorded on the stored module. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Exec = Omni_service.Exec
module Service = Omni_service.Service
module Counters = Omni_service.Counters
module Guest = Omni_guest
module Producer = Omni_producer.Producer
module Fnv64 = Omni_util.Fnv64

let all_archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let gen_program seed =
  Guest.Gen.program (Random.State.make [| 0x57ac; seed |])

let lift_ok ?options p =
  match Guest.Lift.lift_exe ?options p with
  | Ok exe -> exe
  | Error e -> Alcotest.failf "lift refused: %s" (Guest.Error.to_string e)

(* --- 1. codec ---------------------------------------------------------- *)

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"decode (encode p) = Ok p"
       QCheck.(make Gen.int)
       (fun seed ->
         let p = gen_program seed in
         match Guest.Bytecode.decode (Guest.Bytecode.encode p) with
         | Ok p' -> Guest.Bytecode.equal p p'
         | Error e ->
             QCheck.Test.fail_reportf "decode refused its own encoding: %s"
               (Guest.Error.to_string e)))

let qcheck_decode_total_garbage =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"decode is total on arbitrary bytes"
       QCheck.(string_gen Gen.char)
       (fun bytes ->
         match Guest.Bytecode.decode bytes with
         | Ok _ | Error _ -> true))

(* Structured hostility: take a real encoding, then truncate it or flip a
   byte. Every mutant must still decode to a typed result. *)
let qcheck_decode_total_mutants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"decode is total on mutated encodings"
       QCheck.(pair (make Gen.int) (pair small_nat small_nat))
       (fun (seed, (pos, salt)) ->
         let enc = Guest.Bytecode.encode (gen_program seed) in
         let n = String.length enc in
         let mutant =
           if salt land 1 = 0 then String.sub enc 0 (pos mod (n + 1))
           else begin
             let b = Bytes.of_string enc in
             let i = pos mod n in
             Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (salt mod 255))));
             Bytes.to_string b
           end
         in
         match Guest.Bytecode.decode mutant with
         | Ok _ | Error _ -> true))

(* --- 2. the differential guarantee ------------------------------------ *)

let fuel = 50_000_000

(* Oracle vs lifted module, across every engine and SFI mode, plus a
   pool-starved lift (pool = 2) that spills most of the operand stack. *)
let qcheck_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"oracle = lifted on every engine"
       QCheck.(make Gen.int)
       (fun seed ->
         let p = gen_program seed in
         let o = Guest.Interp.run ~fuel p in
         (match o.Guest.Interp.outcome with
         | Guest.Interp.Exited _ -> ()
         | Guest.Interp.Faulted f ->
             QCheck.Test.fail_reportf
               "generated program faulted on the oracle (generator bug): %s"
               (Omnivm.Fault.to_string f)
         | Guest.Interp.Out_of_fuel ->
             QCheck.Test.fail_reportf
               "generated program ran out of fuel (generator bug)");
         let expect_exit = Guest.Interp.exit_code o.Guest.Interp.outcome in
         let check what (r : Api.run_result) =
           if not (String.equal r.Api.output o.Guest.Interp.output) then
             QCheck.Test.fail_reportf "seed %d: %s output diverged" seed what;
           if r.Api.exit_code <> expect_exit then
             QCheck.Test.fail_reportf "seed %d: %s exit %d, oracle %d" seed
               what r.Api.exit_code expect_exit;
           true
         in
         let run ?(sfi = true) engine exe =
           Api.run
             { Api.default_request with engine; sfi; fuel = Some fuel }
             (Api.Exe exe)
         in
         let exe = lift_ok p in
         let ok =
           check "interp" (run Api.Interp exe)
           && List.for_all
                (fun arch ->
                  List.for_all
                    (fun sfi ->
                      check
                        (Printf.sprintf "%s/sfi=%b" (Arch.name arch) sfi)
                        (run ~sfi (Api.Target arch) exe))
                    [ true; false ])
                all_archs
         in
         (* starved pool: same seeds through the spill paths *)
         let spilly = lift_ok ~options:{ Guest.Lift.pool = 2 } p in
         ok
         && check "interp/pool=2" (run Api.Interp spilly)
         && check "mips/pool=2" (run (Api.Target Arch.Mips) spilly)))

(* --- 3. typed refusal -------------------------------------------------- *)

let asm_exn src =
  match Guest.Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assemble: %s" (Guest.Error.to_string e)

let expect_error what r (classify : Guest.Error.t -> bool) =
  match r with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e ->
      if not (classify e) then
        Alcotest.failf "%s: wrong error %s" what (Guest.Error.to_string e)

let lift_errors_typed () =
  (* malformed bytecode *)
  expect_error "empty input" (Guest.Lift.lift_bytes "") (function
    | Guest.Error.Truncated _ | Guest.Error.Bad_magic -> true
    | _ -> false);
  expect_error "bad magic" (Guest.Lift.lift_bytes "NOPE00000000") (function
    | Guest.Error.Bad_magic -> true
    | _ -> false);
  let good = Guest.Bytecode.encode (asm_exn ".mem 0\n.func main 0 0\npush 0 halt\n") in
  expect_error "truncated body"
    (Guest.Lift.lift_bytes (String.sub good 0 (String.length good - 3)))
    (function Guest.Error.Truncated _ -> true | _ -> false);
  (* an unknown host-call byte inside an otherwise-valid stream: patch the
     encoded [sys print_int] (opcode 0x0F, operand 0x00) to service 9 *)
  let with_sys =
    Guest.Bytecode.encode
      (asm_exn ".mem 0\n.func main 0 0\npush 1 sys print_int push 0 halt\n")
  in
  let patched =
    let b = Bytes.of_string with_sys in
    let rec find i =
      if i + 1 >= Bytes.length b then
        Alcotest.fail "sys opcode not found in encoding"
      else if Bytes.get b i = '\x0F' && Bytes.get b (i + 1) = '\x00' then i
      else find (i + 1)
    in
    Bytes.set b (find 0 + 1) '\x09';
    Bytes.to_string b
  in
  expect_error "unknown host call" (Guest.Lift.lift_bytes patched) (function
    | Guest.Error.Unknown_host { code = 9; _ } -> true
    | _ -> false);
  (* stack discipline *)
  expect_error "underflow"
    (Guest.Lift.lift_exe (asm_exn ".mem 0\n.func main 0 0\nadd push 0 halt\n"))
    (function Guest.Error.Stack_underflow _ -> true | _ -> false);
  expect_error "join-depth mismatch"
    (Guest.Lift.lift_exe
       (asm_exn
          ".mem 0\n.func main 0 1\nget 0 brz deep push 1\ndeep: push 2 drop \
           push 0 halt\n"))
    (function Guest.Error.Stack_mismatch _ -> true | _ -> false);
  expect_error "no main"
    (Guest.Lift.lift_exe (asm_exn ".mem 0\n.func helper 0 0\npush 0 halt\n"))
    (function Guest.Error.No_main -> true | _ -> false)

(* The same refusals through the uniform Producer surface: typed producer
   errors naming the producer and stage, still never an exception. *)
let producer_errors_typed () =
  let stackvm =
    match Api.producer_of_string "stackvm" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  (match Producer.compile stackvm ~name:"bad" "push push push" with
  | Ok _ -> Alcotest.fail "parse error accepted"
  | Error e ->
      Alcotest.(check string) "producer" "stackvm" e.Producer.e_producer;
      Alcotest.(check string) "stage" "parse" e.Producer.e_stage);
  (match Producer.compile stackvm ~name:"bad" ".mem 0\n.func main 0 0\nadd\n" with
  | Ok _ -> Alcotest.fail "underflow accepted"
  | Error e -> Alcotest.(check string) "stage" "lift" e.Producer.e_stage);
  match Api.producer_of_string "cobol" with
  | Ok _ -> Alcotest.fail "unknown producer resolved"
  | Error msg ->
      if not (String.length msg > 0) then Alcotest.fail "empty error"

(* --- 4. first-class downstream ---------------------------------------- *)

let subject =
  ".mem 8\n\
   .func main 0 2\n\
   push 6 set 0\n\
   loop: get 0 brz done\n\
   get 0 get 1 add set 1\n\
   get 0 push 1 sub set 0\n\
   get 0 push 7 and get 1 stm\n\
   jmp loop\n\
   done: get 1 sys print_int push 10 sys put_char push 0 halt\n"

(* Certificates are produced and checked on lifted modules exactly as on
   compiled ones — the safety story does not depend on the front-end. *)
let certificates_on_lifted () =
  let exe = lift_ok (asm_exn subject) in
  let bytes = Omnivm.Wire.encode exe in
  let digest = Fnv64.digest_string bytes in
  List.iter
    (fun arch ->
      let mode = Machine.Mobile (Omni_sfi.Policy.make ()) in
      let opts = Api.mobile_opts arch in
      let tr = Exec.translate ~mode ~opts arch exe in
      match Exec.certify ~module_digest:digest ~mode ~opts tr with
      | Error msg -> Alcotest.failf "%s: certify: %s" (Arch.name arch) msg
      | Ok cert -> (
          match Exec.check_cert ~module_digest:digest ~mode ~opts cert tr with
          | Ok () -> ()
          | Error msg ->
              Alcotest.failf "%s: witness check: %s" (Arch.name arch) msg))
    all_archs

(* Serving identity: a lifted module through the memoizing service answers
   bit-identically warm and cold, and the store remembers who produced it. *)
let cached_serving_identity () =
  let p = asm_exn subject in
  let oracle = Guest.Interp.run p in
  let wire = Omnivm.Wire.encode (lift_ok p) in
  let svc = Service.of_config Service.default_config in
  let run () =
    Api.run
      { Api.default_request with
        engine = Api.Target Arch.Mips;
        service = Some svc }
      (Api.Text
         { producer = Omni_guest.Lift.producer;
           unit_name = "subject";
           text = subject })
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check string) "cold = oracle" oracle.Guest.Interp.output
    cold.Api.output;
  Alcotest.(check string) "warm = cold" cold.Api.output warm.Api.output;
  Alcotest.(check int) "exit" cold.Api.exit_code warm.Api.exit_code;
  let stats = Service.stats svc in
  if stats.Counters.s_hits < 1 then
    Alcotest.fail "second serving did not hit the translation cache";
  (* the stored module carries its producer name (first submitter wins) *)
  let store = Omni_service.Store.create () in
  let h = Omni_service.Store.submit ~producer:"stackvm" store wire in
  Alcotest.(check (option string))
    "producer recorded" (Some "stackvm")
    (Omni_service.Store.producer store h)

(* Both producers feed the same downstream: compile the same computation
   from MiniC and from guest assembly; both modules run through the same
   request and agree on the answer. *)
let producers_uniform () =
  let minic_src =
    "int main(void) { int i; int s; s = 0; for (i = 6; i > 0; i--) s = s + \
     i; print_int(s); putchar(10); return 0; }"
  in
  let run producer text =
    Api.run
      { Api.default_request with engine = Api.Target Arch.X86 }
      (Api.Text { producer; unit_name = "uniform"; text })
  in
  let a = run Minic.Driver.producer minic_src in
  let b = run Omni_guest.Lift.producer subject in
  Alcotest.(check string) "same answer" a.Api.output b.Api.output;
  Alcotest.(check int) "same exit" a.Api.exit_code b.Api.exit_code;
  Alcotest.(check (list string))
    "registered producers" [ "minic"; "stackvm" ]
    (List.map Producer.name Api.producers)

let () =
  Alcotest.run "guest"
    [ ("codec",
       [ qcheck_roundtrip; qcheck_decode_total_garbage;
         qcheck_decode_total_mutants ]);
      ("differential", [ qcheck_differential ]);
      ("errors",
       [ Alcotest.test_case "lift errors are typed" `Quick lift_errors_typed;
         Alcotest.test_case "producer errors are typed" `Quick
           producer_errors_typed ]);
      ("downstream",
       [ Alcotest.test_case "certificates on lifted modules" `Quick
           certificates_on_lifted;
         Alcotest.test_case "cached serving identity" `Quick
           cached_serving_identity;
         Alcotest.test_case "producers are uniform" `Quick producers_uniform ])
    ]

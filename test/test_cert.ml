(* Proof-carrying translation: the certificate subsystem's honesty tests.

   Four properties keep the produce-once / check-cheap scheme trustworthy:

   1. the [omni-cert/1] codec round-trips and its decoder is total on
      arbitrary bytes (a hostile wire cannot crash a host);
   2. every certifying verification yields a witness the independent
      checker accepts — across all architectures and certifiable SFI
      policies, through an encode/decode round trip;
   3. mutation: corrupted witnesses (bit flips, obligation drops /
      reorders / duplications, digest swaps) and corrupted code are
      refused — formally, an accepted witness NEVER licenses code the
      full verifier would reject;
   4. the cache's warm admission refuses a poisoned entry and counts the
      refusal ([service.cache.verify_fail]).

   Plus an exhaustive small-memory model check that the masking algebra
   the obligations attest (mask-then-box) can only produce in-segment
   addresses. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Exec = Omni_service.Exec
module Cache = Omni_service.Cache
module Counters = Omni_service.Counters
module Metrics = Omni_obs.Metrics
module Cert = Omni_cert.Certificate
module Check = Omni_cert.Check
module Witness = Omni_sfi.Witness
module Policy = Omni_sfi.Policy
module Fnv64 = Omni_util.Fnv64
module R = Omni_targets.Risc
module X = Omni_targets.X86
module L = Omnivm.Layout

(* A module with stores (locals, globals, computed), calls, loops and
   indirect control flow, so every obligation kind the translators emit
   shows up in its witnesses. *)
let subject_src =
  {| int g = 7;
     int tab[16];
     int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
     int main(void) {
       int i;
       for (i = 0; i < 16; i++) tab[i] = f(i % 9) + g;
       for (i = 0; i < 16; i++) g = g + tab[15 - i];
       print_int(g); putchar(10);
       return 0; } |}

let subject_bytes = lazy (Api.compile ~name:"cert-subject" subject_src)
let subject_exe = lazy (Omnivm.Wire.decode (Lazy.force subject_bytes))
let subject_digest = lazy (Fnv64.digest_string (Lazy.force subject_bytes))

let policies =
  [ ("sandbox", Policy.make ());
    ("sandbox+reads", Policy.make ~protect_reads:true ());
    (* the padded masking-sequence variants: certificates must mint,
       check, and survive the mutation battery under every pad mode *)
    ("sandbox+padnop", Policy.make ~pad:Policy.Pad_nop ());
    ("sandbox+padalign", Policy.make ~pad:Policy.Pad_align ());
    ("sandbox+guard8", Policy.make ~pad:Policy.Pad_guard8 ()) ]

(* One translated + certified configuration, memoized across tests. *)
type setup = {
  s_mode : Machine.mode;
  s_opts : Machine.topts;
  s_tr : Exec.translated;
  s_cert : Cert.t;
}

let setups : (Arch.t * string, setup) Hashtbl.t = Hashtbl.create 8

let setup arch pname =
  match Hashtbl.find_opt setups (arch, pname) with
  | Some s -> s
  | None ->
      let pol = List.assoc pname policies in
      let s_mode = Machine.Mobile pol in
      let s_opts = Api.mobile_opts arch in
      let s_tr =
        Exec.translate ~mode:s_mode ~opts:s_opts arch (Lazy.force subject_exe)
      in
      let s_cert =
        match
          Exec.certify ~module_digest:(Lazy.force subject_digest) ~mode:s_mode
            ~opts:s_opts s_tr
        with
        | Ok c -> c
        | Error msg ->
            Alcotest.failf "setup %s/%s: certification refused: %s"
              (Arch.name arch) pname msg
      in
      let s = { s_mode; s_opts; s_tr; s_cert } in
      Hashtbl.replace setups (arch, pname) s;
      s

let check_with s cert =
  Exec.check_cert ~module_digest:(Lazy.force subject_digest) ~mode:s.s_mode
    ~opts:s.s_opts cert s.s_tr

(* --- generators --- *)

let gen_kind = QCheck.Gen.oneofl Witness.all_kinds
let gen_arch = QCheck.Gen.oneofl [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let gen_digest = QCheck.Gen.map Int64.of_int QCheck.Gen.int

let gen_topts =
  let open QCheck.Gen in
  let* schedule = bool
  and* fill_delay_slots = bool
  and* use_gp = bool
  and* peephole = bool
  and* sfi_opt = bool in
  return { Machine.schedule; fill_delay_slots; use_gp; peephole; sfi_opt }

(* An arbitrary well-formed certificate: obligation indices strictly
   increasing within [0, n_code). *)
let gen_cert =
  let open QCheck.Gen in
  let* arch = gen_arch
  and* module_digest = gen_digest
  and* code_fp = gen_digest
  and* protect_reads = bool
  and* pad = oneofl Policy.all_pads
  and* opts = gen_topts
  and* n_code = int_range 1 2000 in
  let* raw = list_size (int_bound 60) (int_bound (n_code - 1)) in
  let oxs = List.sort_uniq compare raw in
  let* obs =
    flatten_l
      (List.map
         (fun ox -> map (fun kind -> { Witness.ox; kind }) gen_kind)
         oxs)
  in
  return
    (Cert.make ~arch ~module_digest ~code_fp ~protect_reads ~pad ~opts ~n_code
       (Array.of_list obs))

let cert_arbitrary = QCheck.make ~print:Cert.summary gen_cert

(* --- 1. codec: round trip + decoder totality --- *)

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"omni-cert/1: decode (encode c) = Ok c"
       cert_arbitrary (fun c ->
         match Cert.decode (Cert.encode c) with
         | Ok c' -> Cert.equal c c'
         | Error e ->
             QCheck.Test.fail_reportf "decode failed: %s"
               (Cert.decode_error_to_string e)))

(* Byte flips and truncations never crash the decoder, and never decode
   to a certificate different from the original (the trailing content
   digest catches tampering). *)
let qcheck_decode_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"omni-cert/1: decode total + tamper-evident"
       (QCheck.make
          QCheck.Gen.(quad gen_cert (int_bound 10_000) (int_bound 7) bool))
       (fun (c, pos, bit, truncate) ->
         let enc = Cert.encode c in
         let n = String.length enc in
         let mutated =
           if truncate then String.sub enc 0 (pos mod (n + 1))
           else begin
             let b = Bytes.of_string enc in
             let p = pos mod n in
             Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
             Bytes.to_string b
           end
         in
         match Cert.decode mutated with
         | Error _ -> true
         | Ok c' ->
             (* accepting tampered bytes is only sound if they still mean
                the same certificate (e.g. a flip undone by truncation
                can't happen — but equality is the honest criterion) *)
             Cert.equal c c'))

let qcheck_garbage_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"omni-cert/1: decode total on garbage"
       QCheck.(string_of_size (Gen.int_bound 300))
       (fun s ->
         match Cert.decode s with Ok _ -> true | Error _ -> true))

(* --- 2. certify -> check agreement, all archs x certifiable policies --- *)

let certify_then_check () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, _) ->
          let s = setup arch pname in
          (* through the wire: encode, decode, then check *)
          let cert =
            match Cert.decode (Cert.encode s.s_cert) with
            | Ok c -> c
            | Error e ->
                Alcotest.failf "%s/%s: decode: %s" (Arch.name arch) pname
                  (Cert.decode_error_to_string e)
          in
          match check_with s cert with
          | Ok () -> ()
          | Error msg ->
              Alcotest.failf "%s/%s: checker refused honest witness: %s"
                (Arch.name arch) pname msg)
        policies)
    Arch.all

(* The binding layer: every way a certificate can speak about the wrong
   translation has a typed refusal. *)
let binding_refusals () =
  let s = setup Arch.Mips "sandbox" in
  let c = s.s_cert in
  let digest = Lazy.force subject_digest in
  let fp = Exec.fingerprint s.s_tr in
  let bind ?(c = c) ?(digest = digest) ?(arch = Arch.Mips) ?(mode = s.s_mode)
      ?(opts = s.s_opts) ?(fp = fp) () =
    Check.bind c ~module_digest:digest ~arch ~mode ~opts ~code_fp:fp
  in
  let expect what err r =
    if r <> Error err then Alcotest.failf "bind: expected %s refusal" what
  in
  (match bind () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest binding refused: %s" (Check.error_to_string e));
  expect "native-mode" Check.Not_sandbox
    (bind ~mode:(Machine.Native Machine.Cc) ());
  expect "guard-mode" Check.Not_sandbox
    (bind ~mode:(Machine.Mobile (Policy.make ~mode:Policy.Guard ())) ());
  expect "arch"
    (Check.Arch_mismatch { expected = Arch.Sparc; got = Arch.Mips })
    (bind ~arch:Arch.Sparc ());
  expect "module-digest" Check.Module_digest_mismatch
    (bind ~digest:(Int64.lognot digest) ());
  expect "code-fingerprint" Check.Code_fingerprint_mismatch
    (bind ~fp:(Int64.lognot fp) ());
  expect "opts" Check.Opts_mismatch
    (bind ~opts:{ s.s_opts with Machine.peephole = not s.s_opts.Machine.peephole } ());
  expect "policy-bit" Check.Opts_mismatch
    (bind ~mode:(Machine.Mobile (Policy.make ~protect_reads:true ())) ())

(* A certificate is bound to its padding mode: one minted under pad A
   must refuse to vouch for a run configured with pad B, in both
   directions, with the typed [Pad_mismatch] refusal. *)
let pad_cross_reuse_refused () =
  let digest = Lazy.force subject_digest in
  let pad_policies =
    [ (Policy.Pad_none, "sandbox"); (Policy.Pad_nop, "sandbox+padnop");
      (Policy.Pad_align, "sandbox+padalign");
      (Policy.Pad_guard8, "sandbox+guard8") ]
  in
  List.iter
    (fun arch ->
      List.iter
        (fun (cert_pad, cert_pname) ->
          List.iter
            (fun (run_pad, _) ->
              if cert_pad <> run_pad then begin
                let s = setup arch cert_pname in
                (* everything else matches: same translation, same opts —
                   only the requested pad differs *)
                let run_mode =
                  Machine.Mobile (Policy.make ~pad:run_pad ())
                in
                match
                  Check.bind s.s_cert ~module_digest:digest ~arch
                    ~mode:run_mode ~opts:s.s_opts
                    ~code_fp:(Exec.fingerprint s.s_tr)
                with
                | Error (Check.Pad_mismatch { expected; got })
                  when expected = run_pad && got = cert_pad ->
                    ()
                | Error e ->
                    Alcotest.failf "%s %s->%s: wrong refusal: %s"
                      (Arch.name arch) (Policy.pad_name cert_pad)
                      (Policy.pad_name run_pad) (Check.error_to_string e)
                | Ok () ->
                    Alcotest.failf "%s: pad=%s certificate reused for pad=%s"
                      (Arch.name arch) (Policy.pad_name cert_pad)
                      (Policy.pad_name run_pad)
              end)
            pad_policies)
        pad_policies)
    Arch.all

(* --- 3. mutation: no accepted-but-unsafe witness --- *)

(* Obligation kinds whose *removal* leaves a sound, checkable witness:
   they claim positive facts (a boxed register, a known scratch
   constant) that only license LATER obligations — dropping one merely
   makes the checker more conservative. Every other kind covers an
   instruction the checker would otherwise flag as unsafe, or is
   cross-checked against the translator's declared masking counts. *)
let benign_drop = function
  | Witness.Box_data | Witness.Box_code | Witness.Lui_const -> true
  | _ -> false

let drop_at a i =
  Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let dup_at a i =
  Array.init
    (Array.length a + 1)
    (fun j -> if j <= i then a.(j) else a.(j - 1))

let swap_adjacent a i =
  let b = Array.copy a in
  let t = b.(i) in
  b.(i) <- b.(i + 1);
  b.(i + 1) <- t;
  b

(* Swap two instructions of a translated program (in place on a copy):
   the generic code corruption. *)
let swap_code tr i j =
  match tr with
  | Exec.T_risc p ->
      let code = Array.copy p.R.code in
      let t = code.(i) in
      code.(i) <- code.(j);
      code.(j) <- t;
      Exec.T_risc { p with R.code }
  | Exec.T_x86 p ->
      let code = Array.copy p.X.code in
      let t = code.(i) in
      code.(i) <- code.(j);
      code.(j) <- t;
      Exec.T_x86 { p with X.code }

(* Check a certificate against (possibly corrupted) code, bypassing the
   fingerprint binding: the point is that the obligation scan itself —
   not just the content hash — refuses code that no longer discharges
   the claims. *)
let raw_check = Check.check

(* The full verifier must judge under the same displacement bound the
   policy grants (Pad_guard8 widens it), or honest guard-zone code would
   read as unsafe. *)
let full_verify ~pad tr =
  let max_disp = Policy.guard_zone_of_pad pad in
  match tr with
  | Exec.T_risc p -> (
      match Omni_targets.Risc_verify.verify ~max_disp p with
      | Ok () -> true
      | Error _ -> false)
  | Exec.T_x86 p -> (
      match Omni_targets.X86_verify.verify ~max_disp p with
      | Ok () -> true
      | Error _ -> false)

let pad_of_setup s =
  match s.s_mode with
  | Machine.Mobile p -> p.Policy.pad
  | Machine.Native _ -> Policy.Pad_none

type mutation =
  | M_bit_flip of int * int
  | M_drop of int
  | M_dup of int
  | M_reorder of int
  | M_digest_swap of bool (* false: module digest; true: code fingerprint *)
  | M_code_swap of int * int

let gen_mutation =
  let open QCheck.Gen in
  oneof
    [ map2 (fun p b -> M_bit_flip (p, b)) (int_bound 100_000) (int_bound 7);
      map (fun i -> M_drop i) (int_bound 100_000);
      map (fun i -> M_dup i) (int_bound 100_000);
      map (fun i -> M_reorder i) (int_bound 100_000);
      map (fun b -> M_digest_swap b) bool;
      map2 (fun i j -> M_code_swap (i, j)) (int_bound 100_000)
        (int_bound 100_000) ]

let mutation_case arch (pname, mut) =
  let s = setup arch pname in
  let cert = s.s_cert in
  let obs = cert.Cert.obs in
  let nobs = Array.length obs in
  let with_obs obs = { cert with Cert.obs } in
  match mut with
  | M_bit_flip (pos, bit) -> (
      (* a flipped encoded witness must never silently check out as
         something else *)
      let enc = Cert.encode cert in
      let b = Bytes.of_string enc in
      let p = pos mod Bytes.length b in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
      match Cert.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok c' -> Cert.equal c' cert || check_with s c' <> Ok ())
  | M_drop i ->
      nobs = 0
      ||
      let i = i mod nobs in
      let accepted = check_with s (with_obs (drop_at obs i)) = Ok () in
      (* an accepted drop weakens the witness but cannot license unsafe
         code (the code is unchanged); it is only possible for the
         positive-fact kinds *)
      (not accepted) || benign_drop obs.(i).Witness.kind
  | M_dup i ->
      nobs = 0
      ||
      let i = i mod nobs in
      check_with s (with_obs (dup_at obs i)) <> Ok ()
  | M_reorder i ->
      nobs < 2
      ||
      let i = i mod (nobs - 1) in
      check_with s (with_obs (swap_adjacent obs i)) <> Ok ()
  | M_digest_swap fp ->
      let c' =
        if fp then
          { cert with Cert.code_fp = Int64.lognot cert.Cert.code_fp }
        else
          { cert with
            Cert.module_digest = Int64.lognot cert.Cert.module_digest }
      in
      check_with s c' <> Ok ()
  | M_code_swap (i, j) -> (
      let n =
        match s.s_tr with
        | Exec.T_risc p -> Array.length p.R.code
        | Exec.T_x86 p -> Array.length p.X.code
      in
      let i = i mod n and j = j mod n in
      let tr' = swap_code s.s_tr i j in
      (* THE soundness property: if the checker accepts the witness
         against the corrupted code, the full verifier must too — zero
         accepted-but-unsafe outcomes *)
      match raw_check cert tr' with
      | Ok () -> full_verify ~pad:(pad_of_setup s) tr'
      | Error _ -> true)

let qcheck_mutations arch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:600
       ~name:
         (Printf.sprintf "mutation: no accepted-but-unsafe witness (%s)"
            (Arch.name arch))
       (QCheck.make
          QCheck.Gen.(
            pair (oneofl (List.map fst policies)) gen_mutation))
       (fun case -> mutation_case arch case))

(* The code mutants above, drawn deterministically: per arch x policy,
   the honest translation and 40 swaps (alternately two arbitrary slots
   and a slot with one of its next three, where mask / box / store
   sequences break), judged by the full and the certifying verifier.
   [verdict_goldens.txt] pins every verdict, first failure and
   obligation list. *)
let mutant_verdicts () =
  let got =
    List.concat
      (List.mapi
         (fun ai arch ->
           List.concat
             (List.mapi
                (fun pi (pname, _) ->
                  let s = setup arch pname in
                  let n =
                    match s.s_tr with
                    | Exec.T_risc p -> Array.length p.R.code
                    | Exec.T_x86 p -> Array.length p.X.code
                  in
                  let rng = Random.State.make [| 0xce47; ai; pi |] in
                  let judge name tr =
                    ( String.concat "/" [ Arch.name arch; pname; name ],
                      Verdicts.verdict
                        ~module_digest:(Lazy.force subject_digest)
                        ~mode:s.s_mode ~opts:s.s_opts tr )
                  in
                  judge "honest" s.s_tr
                  :: List.init 40 (fun k ->
                         let i = Random.State.int rng n in
                         let j =
                           if k land 1 = 0 then Random.State.int rng n
                           else min (n - 1) (i + 1 + Random.State.int rng 3)
                         in
                         judge
                           (Printf.sprintf "swap %d %d" i j)
                           (swap_code s.s_tr i j)))
                policies))
         Arch.all)
  in
  Verdicts.check "cert" got

(* --- 4. exhaustive small-memory model of the masking algebra --- *)

(* The Mask/Box obligations attest exactly [(a land mask) lor base]
   address arithmetic. Over an exhaustive small model (every 16-bit
   address, stretched across the word by three strides, plus negatives
   and extremes), the result must land inside the segment — there is no
   input, however hostile, that masks outside the sandbox. Run per
   target family: the RISC targets sandbox via the reserved mask/base
   registers, x86 via inline immediates (its code mask additionally
   word-aligns the target). *)
let masking_model () =
  let check_addr a =
    let d = a land L.data_mask lor L.data_base in
    if not (L.in_data d) then
      Alcotest.failf "data masking escaped: 0x%x -> 0x%x" a d;
    let c = a land L.code_mask lor L.code_base in
    if not (L.in_code c) then
      Alcotest.failf "code masking escaped: 0x%x -> 0x%x" a c;
    (* the x86 immediate variant: also forces word alignment *)
    let xm = L.code_mask land lnot 3 in
    let xc = a land xm lor L.code_base in
    if not (L.in_code xc && xc land 3 = 0) then
      Alcotest.failf "x86 code masking escaped: 0x%x -> 0x%x" a xc
  in
  for a = 0 to 0xFFFF do
    check_addr a;
    check_addr (a lsl 8);
    check_addr (a lsl 16)
  done;
  List.iter check_addr
    [ -1; min_int; max_int; L.data_base - 1; L.data_base;
      L.data_base + L.data_mask; L.data_base + L.data_mask + 1;
      L.code_base; L.code_base + L.code_mask + 1 ];
  (* and the in-segment identity the translators rely on: sandboxing an
     already-sandboxed address is a no-op *)
  let p = Policy.make () in
  for off = 0 to 0xFFFF do
    let a = L.data_base + (off land L.data_mask) in
    if Policy.sandbox_data p a <> a then
      Alcotest.failf "data sandbox not idempotent at 0x%x" a
  done

(* --- 5. cache: poisoned entries are refused and counted --- *)

let cache_verify_fail () =
  let counters = Counters.create () in
  let cache = Cache.create counters in
  let digest = Lazy.force subject_digest in
  let mode = Machine.Mobile (Policy.make ()) in
  let opts = Api.mobile_opts Arch.Mips in
  let key = Cache.key ~digest ~arch:Arch.Mips ~mode ~opts in
  let exe = Lazy.force subject_exe in
  (* cold: certifying verification; warm: witness check *)
  ignore (Cache.find_or_translate cache key exe);
  ignore (Cache.find_or_translate cache key exe);
  let snap = Counters.snapshot counters in
  Alcotest.(check int) "cold full verification" 1 snap.Counters.s_verifications;
  Alcotest.(check int) "warm witness check" 1 snap.Counters.s_cert_checks;
  Alcotest.(check int) "no failures yet" 0 snap.Counters.s_verify_fail;
  (* corrupt the cached witness: claim a different module *)
  (match Cache.peek cache key with
  | Some e ->
      let poisoned =
        match e.Cache.cert with
        | Some c ->
            { c with Cert.module_digest = Int64.lognot c.Cert.module_digest }
        | None -> Alcotest.fail "verified entry carries no witness"
      in
      Cache.inject cache key { e with Cache.cert = Some poisoned }
  | None -> Alcotest.fail "no cached entry");
  (match Cache.find_or_translate cache key exe with
  | _ -> Alcotest.fail "poisoned entry admitted"
  | exception Cache.Rejected _ -> ());
  let snap = Counters.snapshot counters in
  Alcotest.(check int) "failure counted" 1 snap.Counters.s_verify_fail;
  (* and the counter is surfaced to operators *)
  let json =
    Omni_obs.Metrics.to_json
      (Omni_obs.Metrics.snapshot (Counters.metrics counters))
  in
  let has_field =
    let needle = "\"service.cache.verify_fail\":1" in
    let ln = String.length needle and n = String.length json in
    let rec go i = i + ln <= n && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "verify_fail in registry JSON" true has_field

let () =
  Alcotest.run "cert"
    [ ("codec",
       [ qcheck_roundtrip; qcheck_decode_total; qcheck_garbage_total ]);
      ("agreement",
       [ Alcotest.test_case "certify -> check, all archs x policies" `Quick
           certify_then_check;
         Alcotest.test_case "binding refusals" `Quick binding_refusals;
         Alcotest.test_case "cross-pad reuse refused" `Quick
           pad_cross_reuse_refused ]);
      ("mutation",
       List.map qcheck_mutations Arch.all
       @ [ Alcotest.test_case "mutant verdict goldens" `Quick mutant_verdicts ]);
      ("model",
       [ Alcotest.test_case "exhaustive masking algebra" `Quick masking_model ]);
      ("cache",
       [ Alcotest.test_case "poisoned entry refused + counted" `Quick
           cache_verify_fail ]) ]

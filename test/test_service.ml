(* The serving stack: content-addressed module store + memoizing
   translation cache + service front-end.

   The load-bearing property is the cache invariant: a run served from the
   translation cache must be observationally identical (output, exit code,
   instruction and cycle counts) to an uncached run of the same request,
   across all four target architectures, with and without SFI — and cached
   sandboxed artifacts must still pass the static SFI verifier on every
   hit. *)

module Api = Omniware.Api
module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Exec = Omni_service.Exec
module Store = Omni_service.Store
module Cache = Omni_service.Cache
module Counters = Omni_service.Counters
module Lru = Omni_service.Lru
module Service = Omni_service.Service
module Metrics = Omni_obs.Metrics

let fuel = 50_000_000

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
  Alcotest.(check int) (what ^ ": cycles") a.Exec.cycles b.Exec.cycles

(* --- store --- *)

let store_dedup () =
  let svc = Service.of_config Service.default_config in
  let bytes = Lazy.force hello_bytes in
  let h1 = Service.submit svc bytes in
  let h2 = Service.submit svc bytes in
  Alcotest.(check bool) "same handle" true (Store.equal_handle h1 h2);
  let c = Service.stats svc in
  Alcotest.(check int) "one module" 1 c.Counters.s_modules;
  Alcotest.(check int) "one dedup hit" 1 c.Counters.s_dedup_hits;
  Alcotest.(check int) "two submits" 2 c.Counters.s_submits;
  Alcotest.(check int) "bytes stored once" (String.length bytes)
    c.Counters.s_bytes_stored

let store_rejects_garbage () =
  let svc = Service.of_config Service.default_config in
  match Service.submit svc "not a module" with
  | _ -> Alcotest.fail "store admitted malformed bytes"
  | exception Omnivm.Wire.Bad_module _ -> ()

let store_digests_differ () =
  let b1 = Lazy.force hello_bytes in
  let b2 = Api.compile ~name:"other" "int main(void) { return 1; }" in
  let svc = Service.of_config Service.default_config in
  let h1 = Service.submit svc b1 in
  let h2 = Service.submit svc b2 in
  Alcotest.(check bool) "distinct handles" false (Store.equal_handle h1 h2);
  Alcotest.(check int) "two modules" 2 (Service.stats svc).Counters.s_modules

(* --- observational identity of cached runs --- *)

let identity_one ~arch ~sfi () =
  let bytes = Lazy.force hello_bytes in
  let engine = Exec.Target arch in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  let cold = Service.instantiate ~engine ~sfi ~fuel svc h in
  let warm = Service.instantiate ~engine ~sfi ~fuel svc h in
  let c = Service.stats svc in
  Alcotest.(check int) "one translation" 1 c.Counters.s_translations;
  Alcotest.(check int) "one miss" 1 c.Counters.s_misses;
  Alcotest.(check int) "one hit" 1 c.Counters.s_hits;
  check_same_result "warm vs cold" cold warm;
  (* and both must match the uncached façade path *)
  let direct =
    Api.run
      { Api.default_request with engine; sfi; fuel = Some fuel }
      (Api.Wire bytes)
  in
  check_same_result "cold vs uncached" direct cold;
  Alcotest.(check bool) "exited 0" true (cold.Exec.exit_code = 0)

let identity_cases =
  List.concat_map
    (fun arch ->
      List.map
        (fun sfi ->
          Alcotest.test_case
            (Printf.sprintf "%s sfi=%b" (Arch.name arch) sfi)
            `Quick (identity_one ~arch ~sfi))
        [ true; false ])
    Arch.all

let interp_cached () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  let r1 = Service.instantiate ~fuel svc h in
  let r2 = Service.instantiate ~fuel svc h in
  check_same_result "interp twice" r1 r2;
  let direct =
    Api.run { Api.default_request with fuel = Some fuel } (Api.Wire bytes)
  in
  check_same_result "interp vs uncached" direct r1;
  let c = Service.stats svc in
  Alcotest.(check int) "interp never translates" 0 c.Counters.s_translations;
  Alcotest.(check int) "two instantiations" 2 c.Counters.s_instantiations

(* Every request's image gives its pages back when the run is over, and
   the next request's image, built on those pages, computes the same
   result on every engine. *)
let instantiate_recycles_pages () =
  let module M = Omnivm.Memory in
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  List.iter
    (fun engine ->
      (* empty the free list, so what is on it afterwards is this run's *)
      let drain = M.create () in
      let n = M.recycled_pages () in
      if n > 0 then begin
        ignore (M.map drain ~name:"d" ~base:0x1000 ~size:(n * 4096) ~perm:M.perm_rw);
        M.blit_in drain ~addr:0x1000 (Bytes.make (n * 4096) '\xA5')
      end;
      let r1 = Service.instantiate ~engine ~fuel svc h in
      Alcotest.(check bool)
        (Exec.engine_name engine ^ ": pages recycled")
        true
        (M.recycled_pages () > 0);
      let r2 = Service.instantiate ~engine ~fuel svc h in
      check_same_result (Exec.engine_name engine ^ " on recycled pages") r1 r2)
    (Exec.Interp :: Exec.Fast :: List.map (fun a -> Exec.Target a) Arch.all)

(* --- verifier admission of cached artifacts --- *)

let cached_artifacts_verify () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  List.iter
    (fun arch ->
      ignore (Service.instantiate ~engine:(Exec.Target arch) ~fuel svc h);
      ignore (Service.instantiate ~engine:(Exec.Target arch) ~fuel svc h);
      match Service.cached ~arch svc h with
      | None -> Alcotest.failf "%s: no cached entry" (Arch.name arch)
      | Some e ->
          Alcotest.(check bool)
            (Arch.name arch ^ ": admitted with a certificate")
            true
            (e.Cache.cert <> None);
          (match Exec.verify e.Cache.tr with
          | Ok () -> ()
          | Error reason ->
              Alcotest.failf "%s: cached artifact rejected: %s"
                (Arch.name arch) reason);
          Alcotest.(check bool)
            (Arch.name arch ^ ": fingerprint stable")
            true
            (Omni_util.Fnv64.equal e.Cache.fp (Exec.fingerprint e.Cache.tr)))
    Arch.all;
  let c = Service.stats svc in
  (* 4 archs × 1 cold full (certifying) verification; the warm admission
     is a witness check against the stored certificate, not a re-verify *)
  Alcotest.(check int) "full verifier ran per cold load" 4
    c.Counters.s_verifications;
  Alcotest.(check int) "warm admissions witness-checked" 4
    c.Counters.s_cert_checks;
  Alcotest.(check int) "no witness fell back to full verify" 0
    c.Counters.s_cert_full_verify;
  Alcotest.(check int) "no admission failed" 0 c.Counters.s_verify_fail

let nosfi_not_applicable () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  ignore
    (Service.instantiate ~engine:(Exec.Target Arch.Mips) ~sfi:false ~fuel svc h);
  (match Service.cached ~arch:Arch.Mips ~sfi:false svc h with
  | Some e ->
      Alcotest.(check bool) "no certificate without SFI" true
        (e.Cache.cert = None)
  | None -> Alcotest.fail "no cached entry");
  let c = Service.stats svc in
  Alcotest.(check int) "no verifier run without SFI" 0 c.Counters.s_verifications

(* A cache hit must re-translate nothing even when the translation is
   structurally re-derivable: check the memoized program IS the fresh one. *)
let cached_equals_fresh () =
  let bytes = Lazy.force hello_bytes in
  let exe = Omnivm.Wire.decode bytes in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  List.iter
    (fun arch ->
      ignore (Service.instantiate ~engine:(Exec.Target arch) ~fuel svc h);
      let fresh = Api.translate arch exe in
      match Service.cached ~arch svc h with
      | None -> Alcotest.failf "%s: no cached entry" (Arch.name arch)
      | Some e ->
          Alcotest.(check bool)
            (Arch.name arch ^ ": cached = fresh translation")
            true
            (Exec.equal_translated e.Cache.tr fresh);
          Alcotest.(check bool)
            (Arch.name arch ^ ": fingerprints agree")
            true
            (Omni_util.Fnv64.equal (Exec.fingerprint fresh)
               (Exec.fingerprint e.Cache.tr)))
    Arch.all

(* --- LRU unit tests --- *)

let lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check (option (pair string int)))
    "add a" None (Lru.add l "a" 1);
  Alcotest.(check (option (pair string int)))
    "add b" None (Lru.add l "b" 2);
  (* touch a so b becomes LRU *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  Alcotest.(check (option (pair string int)))
    "add c evicts b" (Some ("b", 2)) (Lru.add l "c" 3);
  Alcotest.(check (list string)) "recency c,a" [ "c"; "a" ]
    (Lru.keys_mru_first l);
  Alcotest.(check (option int)) "b gone" None (Lru.find l "b");
  (* replacing a key promotes it without eviction *)
  Alcotest.(check (option (pair string int)))
    "replace a" None (Lru.add l "a" 10);
  Alcotest.(check (list string)) "recency a,c" [ "a"; "c" ]
    (Lru.keys_mru_first l);
  Alcotest.(check (option int)) "peek keeps order" (Some 3) (Lru.peek l "c");
  Alcotest.(check (list string)) "peek did not promote" [ "a"; "c" ]
    (Lru.keys_mru_first l)

let lru_capacity_zero () =
  let l = Lru.create ~capacity:0 in
  Alcotest.(check (option (pair string int)))
    "add is a no-op" None (Lru.add l "a" 1);
  Alcotest.(check int) "stores nothing" 0 (Lru.length l);
  Alcotest.(check (option int)) "never hits" None (Lru.find l "a")

let cache_capacity_zero_disables () =
  let bytes = Lazy.force hello_bytes in
  let svc =
    Service.of_config { Service.default_config with cache_capacity = 0 }
  in
  let h = Service.submit svc bytes in
  let r1 = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h in
  let r2 = Service.instantiate ~engine:(Exec.Target Arch.X86) ~fuel svc h in
  check_same_result "uncached runs agree" r1 r2;
  let c = Service.stats svc in
  Alcotest.(check int) "no hits" 0 c.Counters.s_hits;
  Alcotest.(check int) "every load translates" 2 c.Counters.s_translations

let cache_eviction_counted () =
  let bytes = Lazy.force hello_bytes in
  let svc =
    Service.of_config { Service.default_config with cache_capacity = 1 }
  in
  let h = Service.submit svc bytes in
  let run arch =
    ignore (Service.instantiate ~engine:(Exec.Target arch) ~fuel svc h)
  in
  run Arch.Mips;
  run Arch.Sparc;
  (* mips evicted *)
  run Arch.Mips;
  let c = Service.stats svc in
  Alcotest.(check int) "three translations" 3 c.Counters.s_translations;
  Alcotest.(check int) "two evictions" 2 c.Counters.s_evictions;
  Alcotest.(check int) "no hits at capacity 1" 0 c.Counters.s_hits

(* --- Api.run through a service --- *)

let service_run_matches () =
  let bytes = Lazy.force hello_bytes in
  let svc = Service.of_config Service.default_config in
  let req =
    { Api.default_request with engine = Exec.Target Arch.Ppc; fuel = Some fuel }
  in
  let direct = Api.run req (Api.Wire bytes) in
  let served = { req with service = Some svc } in
  let c1 = Api.run served (Api.Wire bytes) in
  let c2 = Api.run served (Api.Wire bytes) in
  check_same_result "cached vs direct" direct c1;
  check_same_result "second cached" direct c2;
  let c = Service.stats svc in
  Alcotest.(check int) "deduped" 1 c.Counters.s_dedup_hits;
  Alcotest.(check int) "hit on second" 1 c.Counters.s_hits

(* --- qcheck: random programs × random configs --- *)

let gen_minic_program rng =
  let ri n = Random.State.int rng n in
  let gen_expr depth vars =
    let buf = Buffer.create 64 in
    let rec go depth =
      if depth = 0 || ri 4 = 0 then
        match ri 3 with
        | 0 -> Buffer.add_string buf (string_of_int (ri 100 - 50))
        | _ -> Buffer.add_string buf (List.nth vars (ri (List.length vars)))
      else begin
        Buffer.add_char buf '(';
        go (depth - 1);
        Buffer.add_string buf
          (match ri 9 with
          | 0 -> " + " | 1 -> " - " | 2 -> " * " | 3 -> " < " | 4 -> " == "
          | 5 -> " & " | 6 -> " ^ " | 7 -> " | " | _ -> " != ");
        go (depth - 1);
        Buffer.add_char buf ')'
      end
    in
    go depth;
    Buffer.contents buf
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "int f(int a, int b, int c) {\n";
  let vars = ref [ "a"; "b"; "c" ] in
  let nlocals = 1 + ri 5 in
  for i = 0 to nlocals - 1 do
    Printf.bprintf buf "  int v%d;\n" i
  done;
  for i = 0 to nlocals - 1 do
    Printf.bprintf buf "  v%d = %s;\n" i (gen_expr (1 + ri 3) !vars);
    vars := Printf.sprintf "v%d" i :: !vars
  done;
  Printf.bprintf buf
    "  { int i; int s; s = 0; for (i = 0; i < %d; i++) { s += %s; } return \
     s; }\n}\n"
    (1 + ri 5) (gen_expr 2 !vars);
  Printf.bprintf buf
    "int main(void) { print_int(f(%d, %d, %d)); putchar(10); return 0; }\n"
    (ri 20) (ri 20) (ri 20);
  Buffer.contents buf

(* Random translation config: arch, SFI on/off, and a random-but-valid
   combination of translator optimizations. *)
let gen_config rng =
  let ri n = Random.State.int rng n in
  let arch = List.nth Arch.all (ri (List.length Arch.all)) in
  let sfi = ri 2 = 0 in
  let opts =
    if ri 2 = 0 then None
    else
      Some
        { Machine.schedule = ri 2 = 0;
          fill_delay_slots = ri 2 = 0;
          use_gp = ri 2 = 0;
          peephole = ri 2 = 0;
          sfi_opt = ri 2 = 0 }
  in
  (arch, sfi, opts)

let service_matches_uncached (seed : int) : bool =
  let rng = Random.State.make [| seed |] in
  let src = gen_minic_program rng in
  let arch, sfi, opts = gen_config rng in
  let bytes = Api.compile ~name:"rand" src in
  let svc = Service.of_config Service.default_config in
  let h = Service.submit svc bytes in
  let engine = Exec.Target arch in
  let cold = Service.instantiate ~engine ~sfi ?opts ~fuel svc h in
  let warm = Service.instantiate ~engine ~sfi ?opts ~fuel svc h in
  let direct =
    Api.run
      { Api.default_request with engine; sfi; opts; fuel = Some fuel }
      (Api.Exe (Omnivm.Wire.decode bytes))
  in
  let c = Service.stats svc in
  c.Counters.s_hits = 1
  && c.Counters.s_translations = 1
  && cold.Exec.output = direct.Exec.output
  && warm.Exec.output = direct.Exec.output
  && cold.Exec.exit_code = direct.Exec.exit_code
  && warm.Exec.exit_code = direct.Exec.exit_code
  && cold.Exec.instructions = direct.Exec.instructions
  && warm.Exec.instructions = direct.Exec.instructions
  && cold.Exec.cycles = direct.Exec.cycles
  && warm.Exec.cycles = direct.Exec.cycles

let qcheck_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"random program × config: cached run = uncached run"
       QCheck.(make ~print:string_of_int Gen.int)
       service_matches_uncached)

(* --- one registry behind every stats surface --- *)

(* Every instrument a fresh service registers. This is the one list of
   names outside [Counters.create]: a counter added there must be added
   here too, and then shows up in every surface without further edits. *)
let golden_counters =
  [ "exec.crash.reports"; "exec.deadline.exceeded"; "persist.append";
    "persist.quarantined"; "persist.recovered"; "persist.replay";
    "persist.torn"; "service.bytes_stored"; "service.cache.cert_check";
    "service.cache.cert_full_verify"; "service.cache.evictions";
    "service.cache.hits"; "service.cache.misses";
    "service.cache.verify_fail"; "service.dedup_hits";
    "service.instantiations"; "service.modules";
    "service.quarantine.cleared"; "service.quarantine.refused";
    "service.quarantine.trips"; "service.submits"; "service.translations";
    "service.verifications"; "vm.predecode.hit"; "vm.predecode.miss" ]

let golden_histograms = [ "service.cold_translate_s"; "service.warm_admit_s" ]

let registry_golden_key_set () =
  let svc = Service.of_config Service.default_config in
  let snap = Metrics.snapshot (Service.metrics svc) in
  Alcotest.(check (list string)) "counters" golden_counters
    (List.map fst snap.Metrics.counters);
  Alcotest.(check (list string)) "gauges" [] (List.map fst snap.Metrics.gauges);
  Alcotest.(check (list string)) "histograms" golden_histograms
    (List.map fst snap.Metrics.histograms)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The wire [Stats] reply is the registry's JSON: every serving
   instrument, the server's own [net.*] counters, and the [phase.*]
   histograms its tracer feeds, with the typed snapshot's values. *)
let stats_reply_is_registry () =
  let svc = Service.of_config Service.default_config in
  let client = Omni_net.Client.loopback (Omni_net.Server.create svc) in
  let h = Omni_net.Client.submit client (Lazy.force hello_bytes) in
  for _ = 1 to 2 do
    ignore (Omni_net.Client.run ~engine:(Exec.Target Arch.Mips) ~fuel client h)
  done;
  let json = Omni_net.Client.stats_json client in
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (contains json ("\"" ^ name ^ "\":")))
    (golden_counters @ golden_histograms @ [ "net.requests" ]);
  Alcotest.(check bool) "a phase histogram" true (contains json "\"phase.");
  let hits = (Service.stats svc).Counters.s_hits in
  Alcotest.(check bool) "warm run hit" true (hits > 0);
  Alcotest.(check bool) "hits agree with the typed snapshot" true
    (contains json (Printf.sprintf "\"service.cache.hits\":%d," hits))

let () =
  Alcotest.run "service"
    [ ("store",
       [ Alcotest.test_case "dedup by content" `Quick store_dedup;
         Alcotest.test_case "rejects malformed bytes" `Quick
           store_rejects_garbage;
         Alcotest.test_case "distinct content, distinct handles" `Quick
           store_digests_differ ]);
      ("identity", identity_cases);
      ("engines",
       [ Alcotest.test_case "interp served from store" `Quick interp_cached;
         Alcotest.test_case "instantiate recycles pages" `Quick
           instantiate_recycles_pages ]);
      ("verification",
       [ Alcotest.test_case "cached artifacts pass the verifier" `Quick
           cached_artifacts_verify;
         Alcotest.test_case "no verification without SFI" `Quick
           nosfi_not_applicable;
         Alcotest.test_case "cached = fresh translation" `Quick
           cached_equals_fresh ]);
      ("lru",
       [ Alcotest.test_case "eviction order" `Quick lru_eviction_order;
         Alcotest.test_case "capacity 0" `Quick lru_capacity_zero;
         Alcotest.test_case "cache capacity 0 disables" `Quick
           cache_capacity_zero_disables;
         Alcotest.test_case "evictions counted" `Quick cache_eviction_counted ]);
      ("facade",
       [ Alcotest.test_case "service run = direct run" `Quick
           service_run_matches ]);
      ("qcheck", [ qcheck_identity ]);
      ("stats-surface",
       [ Alcotest.test_case "golden key set" `Quick registry_golden_key_set;
         Alcotest.test_case "stats reply is the registry" `Quick
           stats_reply_is_registry ]) ]

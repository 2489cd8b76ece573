module Machine = Omni_targets.Machine
module Metrics = Omni_obs.Metrics

(* The key embeds every input of the (pure) translator: module identity by
   content digest, target architecture, translation mode (including the
   full SFI policy), and translator options. All components are pure data,
   as Lru's polymorphic hashing requires. *)
type key = {
  k_digest : Omni_util.Fnv64.t;
  k_arch : Omni_targets.Arch.t;
  k_mode : Machine.mode;
  k_opts : Machine.topts;
}

let key ~digest ~arch ~mode ~opts =
  { k_digest = digest; k_arch = arch; k_mode = mode; k_opts = opts }

type entry = {
  tr : Exec.translated;
  fp : Omni_util.Fnv64.t;
  cert : Omni_cert.Certificate.t option;
      (* the safety witness minted at admission: the entry's admission
         record, present iff the configuration is sandboxed *)
}

exception Rejected of string

(* Sharded by module digest: every configuration of one module lands in
   one shard (so a small capacity still evicts among them, as the
   single-LRU cache did), while distinct modules spread across shards and
   never contend. An entry is immutable once inserted — the warm-path
   admission check runs on it after the shard lock is dropped. Shard
   locks are leaf-level; a cold miss holds its shard's lock across
   translate + certify, which serializes same-shard cold misses and in
   return makes the counters exact: one miss and one translation per
   distinct configuration, everything else a hit. *)
type shard = { mu : Mutex.t; lru : (key, entry) Lru.t }

type t = {
  shards : shard array;
  c : Counters.t;
  persist : Omni_persist.Store.t option;
      (* write-behind: certified cold translations are journaled under
         the shard lock; entries without a witness are not persisted
         (recovery could not re-prove them) *)
}

let default_capacity = 256

let create ?(capacity = default_capacity) ?persist c =
  let n = Store.shards in
  (* capacity 0 disables caching entirely; otherwise each shard gets an
     equal slice, at least 1, so total capacity rounds up to a multiple
     of the shard count *)
  let per_shard = if capacity <= 0 then 0 else max 1 ((capacity + n - 1) / n) in
  { shards = Array.init n (fun _ ->
        { mu = Mutex.create (); lru = Lru.create ~capacity:per_shard });
    c; persist }

let shard t (k : key) =
  t.shards.(Int64.to_int k.k_digest land (Store.shards - 1))

let capacity t =
  Array.fold_left (fun acc s -> acc + Lru.capacity s.lru) 0 t.shards

let length t =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.mu (fun () -> Lru.length s.lru))
    0 t.shards

(* The admission check: sandboxed code must pass the static SFI verifier
   before it may run, whether freshly translated or pulled from the cache.
   Guard-mode and unprotected translations carry no Wahbe-style masking
   sequences, so the verifier does not apply to them. *)
let verdict_applicable (k : key) =
  (Machine.sfi_policy k.k_mode).Omni_sfi.Policy.mode = Omni_sfi.Policy.Sandbox

(* Fresh admission (misses): run the certifying verifier, which both
   performs the full static check and mints the witness that makes every
   later warm admission cheap. [fp] is the entry's code fingerprint,
   computed once per miss for both. *)
let admit t k tr ~fp =
  if verdict_applicable k then begin
    Metrics.incr t.c.Counters.verifications;
    match
      Exec.certify ~module_digest:k.k_digest ~mode:k.k_mode ~opts:k.k_opts
        ~code_fp:fp tr
    with
    | Ok cert -> Some cert
    | Error reason -> raise (Rejected reason)
  end
  else None

(* Warm admission (hits): the stored witness replaces the full re-verify.
   An entry without a witness (it was cached unsandboxed but the key
   demands verification — impossible today, kept as a safety net) falls
   back to the full verifier, observable as [cache.cert.full_verify].

   A failed warm admission previously looked like nothing at all in the
   counters (neither hit nor miss — the Rejected raise skipped both): it
   is now counted as [cache.verify_fail] before the raise. *)
let readmit t (k : key) (e : entry) =
  if verdict_applicable k then begin
    let result =
      match e.cert with
      | Some cert ->
          Metrics.incr t.c.Counters.cert_checks;
          Exec.check_cert ~module_digest:k.k_digest ~mode:k.k_mode
            ~opts:k.k_opts ~code_fp:e.fp cert e.tr
      | None ->
          Metrics.incr t.c.Counters.cert_full_verify;
          Metrics.incr t.c.Counters.verifications;
          Exec.verify e.tr
    in
    match result with
    | Ok () -> ()
    | Error reason ->
        Metrics.incr t.c.Counters.verify_fail;
        raise (Rejected reason)
  end

(* The one LRU add, under the shard lock: the miss path and [restore]
   both insert through it, so both count the evictions they cause. *)
let add t s k e =
  match Lru.add s.lru k e with
  | Some _ -> Metrics.incr t.c.Counters.evictions
  | None -> ()

let seconds_since t0 =
  float_of_int (Omni_util.Clock.monotonic_ns () - t0) *. 1e-9

(* Warm path: the entry is immutable, so the witness check runs outside
   any lock. *)
let hit t k (e : entry) t0 =
  readmit t k e;
  Metrics.incr t.c.Counters.hits;
  Metrics.observe t.c.Counters.warm_admit (seconds_since t0);
  e.tr

let find_or_translate t (k : key) (exe : Omnivm.Exe.t) : Exec.translated =
  let t0 = Omni_util.Clock.monotonic_ns () in
  let s = shard t k in
  match Mutex.protect s.mu (fun () -> Lru.find s.lru k) with
  | Some e -> hit t k e t0
  | None -> (
      (* Re-check under the lock: another domain may have filled the
         entry since the probe above. The loser of that race counts a
         hit, keeping misses == distinct configurations. *)
      let filled =
        Mutex.protect s.mu @@ fun () ->
        match Lru.find s.lru k with
        | Some e -> Either.Left e
        | None ->
            let tr =
              Exec.translate ~mode:k.k_mode ~opts:k.k_opts k.k_arch exe
            in
            Metrics.incr t.c.Counters.translations;
            let fp = Exec.fingerprint tr in
            let cert = admit t k tr ~fp in
            add t s k { tr; fp; cert };
            (match (t.persist, cert) with
            | Some p, Some cert -> Omni_persist.Store.append_translation p ~cert
            | _ -> ());
            Metrics.incr t.c.Counters.misses;
            Either.Right tr
      in
      match filled with
      | Either.Left e -> hit t k e t0
      | Either.Right tr ->
          Metrics.observe t.c.Counters.cold_translate (seconds_since t0);
          tr)

let peek t k =
  let s = shard t k in
  Mutex.protect s.mu (fun () -> Lru.peek s.lru k)

(* Recovery re-admission: the translation was re-derived and proven at
   replay (bound to its certificate, witness re-checked on a dirty
   restart), so it enters with its certificate — every later warm hit
   still re-checks the witness in [readmit], exactly like an entry the
   live path minted. Counts no miss and no translation (recovery's
   translation shows in its own [translate] span) and is never
   re-journaled. *)
let restore t (rt : Omni_persist.Store.rtrans) =
  let tr = rt.Omni_persist.Store.rt_prog in
  let k =
    {
      k_digest = rt.Omni_persist.Store.rt_module;
      k_arch = Exec.arch_of tr;
      k_mode = rt.Omni_persist.Store.rt_mode;
      k_opts = rt.Omni_persist.Store.rt_opts;
    }
  in
  let e =
    { tr; fp = rt.Omni_persist.Store.rt_fp;
      cert = Some rt.Omni_persist.Store.rt_cert }
  in
  let s = shard t k in
  Mutex.protect s.mu @@ fun () ->
  if not (Lru.mem s.lru k) then add t s k e

(* Test hook: the mli's invariant says a corrupted cache cannot reach a
   simulator; tests corrupt an entry with this and watch the warm
   admission refuse it. *)
let inject t k e =
  let s = shard t k in
  Mutex.protect s.mu (fun () -> ignore (Lru.add s.lru k e))

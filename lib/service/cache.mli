(** Memoizing translation cache.

    Translation is a pure function of (module bytes, arch, mode, opts), so
    its result can be cached across loads. Entries are keyed by the
    module's content digest plus the full translation configuration and
    held under LRU eviction with a configurable capacity (0 disables
    caching).

    {b Invariant}: a cache hit is observationally identical to a fresh
    translation. This holds because (a) keys embed every input of the
    (pure) translator, (b) the store guarantees a digest names one byte
    string, and (c) every hit still passes an admission check before the
    cached code can reach a simulator. Since PR 6 that check is the cheap
    certificate check ({!Exec.check_cert}) against the witness minted at
    insertion — proof-carrying translation — rather than a full re-run of
    the verifier; a corrupted cache still cannot reach the simulator.
    [test/test_service.ml] and [test/test_cert.ml] check the invariant
    end to end.

    Sandboxed translations that fail the verifier are rejected and never
    cached. *)

module Machine = Omni_targets.Machine

type key

val key :
  digest:Omni_util.Fnv64.t ->
  arch:Omni_targets.Arch.t ->
  mode:Machine.mode ->
  opts:Machine.topts ->
  key
(** [mode] and [opts] must be the resolved values actually passed to the
    translator (after defaulting), so equal configurations share an
    entry. *)

type entry = {
  tr : Exec.translated;
  fp : Omni_util.Fnv64.t;  (** fingerprint at insertion time *)
  cert : Omni_cert.Certificate.t option;
      (** safety witness minted at insertion, and the entry's only
          admission record: [Some] iff the static SFI verifier passed a
          Sandbox-mode translation, [None] when there is nothing to
          verify (SFI off, Guard mode, or a native baseline) *)
}

exception Rejected of string
(** The static SFI verifier rejected a sandboxed translation (fresh or
    cached) — the code never reaches a simulator. *)

type t

val create : ?capacity:int -> ?persist:Omni_persist.Store.t -> Counters.t -> t
(** [persist] attaches a journaled on-disk store: certified cold
    translations are journaled (write-behind, under the shard lock) so a
    restart recovers them instead of re-translating; entries without a
    witness (SFI off, Guard mode, native baselines) are never persisted
    because recovery could not re-prove them.
    Default capacity: 256 translation configurations, spread over
    {!Store.shards} independent LRUs
    partitioned by module digest — every configuration of one module
    shares a shard, distinct modules rarely contend. Each shard gets an
    equal slice of [capacity], at least 1, so the effective capacity
    rounds up to a multiple of the shard count; capacity 0 still
    disables caching entirely. All operations are safe from multiple
    domains, and the counters stay exact under races: one miss and one
    translation per distinct configuration, every other access a hit. *)

val capacity : t -> int
(** Effective total capacity (sum over shards; see {!create}). *)

val length : t -> int

val find_or_translate : t -> key -> Omnivm.Exe.t -> Exec.translated
(** The memoized translator. On a miss: translate, certify (full
    verification + witness minting, counted in [service.verifications]),
    cache, count a translation. On a hit: check the stored witness
    (counted in [service.cache.cert_check]) and return the cached
    program, touching neither the translator nor the full verifier. A
    hit whose admission check fails counts as
    [service.cache.verify_fail] before raising.
    @raise Rejected as described above. *)

val peek : t -> key -> entry option
(** Inspect a cached entry without promoting it (for tests and
    introspection). *)

val restore : t -> Omni_persist.Store.rtrans -> unit
(** Re-admit a translation recovered (and proven) by the persistent
    store's replay: enters with its certificate, counts neither a miss
    nor a translation (an eviction it causes is counted, as on the miss
    path), and is not re-journaled. Warm hits
    on restored entries still re-check the witness like any other entry
    — [cache.cert.check] rises, [cache.cert.full_verify] does not. *)

val inject : t -> key -> entry -> unit
(** Test hook: overwrite a cached entry, simulating cache corruption.
    The next hit's admission check must refuse the poisoned entry
    (raising {!Rejected} and counting [service.cache.verify_fail]) —
    the invariant documented above. Not for production use. *)

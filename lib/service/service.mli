(** The serving front-end: many loads of few modules, translated once.

    Ties the content-addressed {!Store} and the memoizing translation
    {!Cache} behind a two-call protocol:

    + {!submit} admits wire bytes (validated, deduplicated) and returns a
      content-derived handle;
    + {!instantiate} stamps out a fresh isolated image for the handle and
      runs it on the requested engine, reusing the cached translation for
      its (arch, mode, opts) configuration when one exists; the image's
      own executable feeds the translator, so a warm run reads the store
      once.

    Every layer reports into one {!Counters.t} set of instruments
    (snapshot via {!stats}), and
    {!run_batch} drives a request mix end to end, reporting throughput —
    the serving analogue of the paper's "translation must be fast"
    load-time argument: a production host pays the translator once per
    configuration, not once per load.

    {b Concurrency}: one [t] is safe to share across domains. The store
    and cache are sharded by module digest behind per-shard mutexes,
    counters are atomic, and the quarantine serializes behind its own
    lock, so {!submit} / {!instantiate} from a server's worker pool need
    no external locking and lose no counter updates. [on_crash] may be
    invoked concurrently and must be thread-safe itself. *)

module Machine = Omni_targets.Machine

type t

(** Everything that shapes a service, as one documented record — build
    one with [{ default_config with ... }]. *)
type config = {
  cache_capacity : int;
      (** translation-cache bound (default 256 configurations; 0
          disables caching — every target run translates) *)
  quarantine : Supervise.Quarantine.config option;
      (** per-digest circuit breaker ({!Supervise.Quarantine}); [None]
          (default) disables it *)
  deadline_s : float option;
      (** wall-clock budget per run, overridable per call *)
  watchdog_poll : int option;  (** deadline poll interval, instructions *)
  on_crash : (Supervise.report -> unit) option;
      (** invoked (possibly concurrently) for every faulted run *)
  persist : Omni_persist.Io.t option;
      (** filesystem for the journaled on-disk store
          ({!Omni_persist.Store}); [None] (default) keeps everything
          in memory. Opening the service runs total recovery over it
          (see {!recovery}); pair with {!close} for the clean-shutdown
          fast path. *)
}

val default_config : config

val of_config : ?metrics:Omni_obs.Metrics.t -> ?clock:Omni_util.Clock.t ->
  config -> t
(** The one constructor. [metrics] is the registry the service's
    counters are registered in (default: a fresh one) — pass the
    registry of a {!Omni_obs.Trace} tracer to land serving counters and
    per-phase timings in one place. [clock] (default
    {!Omni_util.Clock.monotonic}) drives watchdog deadlines; both are
    capabilities rather than configuration, hence not in {!config}. *)

val metrics : t -> Omni_obs.Metrics.t
(** The backing metrics registry (serving counters + anything else
    registered in it). *)

val recovery : t -> Omni_persist.Store.recovered option
(** What opening the persistent store recovered (validated modules and
    translations re-admitted, quarantined records, torn tails); [None]
    when the service has no persistence configured. *)

val close : t -> unit
(** Flush the journal and commit the clean-shutdown marker, so the next
    open takes the fast recovery path. No-op without persistence; call
    after the last submit/instantiate (further persisted admissions
    raise). *)

val submit : ?producer:string -> t -> string -> Store.handle
(** Admit module bytes; see {!Store.submit} for validation, errors, and
    the [producer] attribution (which flows into crash reports). *)

val find : t -> Omni_util.Fnv64.t -> Store.handle option
(** The handle of the module stored under a content digest — submitted
    or restored by recovery — if any ({!Store.find}). What a server
    resolves a wire digest with: the store is the one digest index. *)

val instantiate :
  ?engine:Exec.engine ->
  ?sfi:bool ->
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  ?fuel:int ->
  ?deadline_s:float ->
  t ->
  Store.handle ->
  Exec.run_result
(** Run the module named by the handle on a fresh isolated image.
    The engine defaults to the interpreter; a target engine's
    configuration comes from {!Exec.resolve} on [sfi] (default true),
    [mode] and [opts], as on every other run path. A faulted run's crash
    report records [sfi] and [mode], so it replays under the same
    configuration. [deadline_s] overrides the service-wide wall-clock
    budget for this run.
    @raise Store.Unknown_handle on a foreign handle.
    @raise Cache.Rejected if the SFI verifier rejects the translation.
    @raise Supervise.Quarantine.Quarantined when the module's breaker is
    tripped — refused before any translation or instantiation work. *)

val clear_quarantine : t -> Omni_util.Fnv64.t -> bool
(** Manually lift a digest's quarantine; counted in
    [service.quarantine.cleared]. [false] when the digest was not
    quarantined (or no quarantine is configured). *)

val quarantined : t -> (Omni_util.Fnv64.t * float) list
(** Currently-quarantined digests with expiry times (empty when no
    quarantine is configured). *)

val cached :
  ?sfi:bool ->
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  arch:Omni_targets.Arch.t ->
  t ->
  Store.handle ->
  Cache.entry option
(** The cached translation {!instantiate} would reuse for this handle and
    configuration, if present; does not perturb recency order. *)

val certificate :
  ?sfi:bool ->
  ?mode:Machine.mode ->
  ?opts:Machine.topts ->
  arch:Omni_targets.Arch.t ->
  t ->
  Store.handle ->
  Omni_cert.Certificate.t option
(** The safety witness stored beside the cached translation (see
    {!Exec.certify}); [None] when nothing is cached or the entry carries
    no certificate. Does not perturb recency order. *)

val stats : t -> Counters.snapshot
(** An immutable typed reading of the shared counters (see
    {!Counters.snapshot}). Every stats surface — the wire [Stats] reply,
    [--stats], [--metrics] — renders [Metrics.snapshot (metrics t)]
    instead, which also carries whatever else shares the registry. *)

(** One request of a batch: which module, which engine, SFI on/off. *)
type request = {
  rq_handle : Store.handle;
  rq_engine : Exec.engine;
  rq_sfi : bool;
}

type batch_report = {
  br_requests : int;
  br_failures : int;  (** requests that did not exit 0 *)
  br_instructions : int;  (** total simulated instructions retired *)
  br_elapsed_s : float;  (** wall-clock seconds for the whole batch *)
  br_rps : float;  (** requests per wall-clock second *)
}

val run_batch :
  ?fuel:int -> ?domains:int -> t -> request array -> batch_report
(** Run every request, dealt round-robin to [domains] (default 1)
    domains that share this service, and time the batch on
    {!Omni_util.Clock.monotonic}. The request, failure and instruction
    totals do not depend on [domains]. *)

val render_batch : batch_report -> string
(** One line: totals, wall-clock seconds and requests per second. *)

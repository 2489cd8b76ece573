(** Instrumentation shared by every layer of the serving stack.

    One set of named instruments in one {!Omni_obs.Metrics} registry per
    {!Service.t}, threaded through the module store and the translation
    cache so a single {!snapshot} describes the whole pipeline — and so
    the registry is the single source of truth shared with the tracer's
    per-phase histograms. The two histograms hold
    {!Omni_util.Clock.monotonic} seconds: the latency of each admission,
    not CPU time. Every stats surface renders the registry
    ([Metrics.snapshot (metrics t)]), so a new instrument registered in
    {!create} shows up everywhere without further edits. Each serving
    event is counted here and nowhere else: the store and the cache bump
    these instruments, never an ambient [Trace.count] of their own. *)

module Metrics = Omni_obs.Metrics

type t = {
  m : Metrics.t;  (** the backing registry *)
  (* module store *)
  submits : Metrics.counter;  (** total [submit] calls *)
  modules : Metrics.counter;  (** distinct modules admitted *)
  dedup_hits : Metrics.counter;  (** submits deduplicated by digest *)
  bytes_stored : Metrics.counter;  (** wire bytes held (deduplicated) *)
  predecode_hits : Metrics.counter;
      (** fast-engine runs served a shared pre-decoded program *)
  predecode_misses : Metrics.counter;
      (** fast-engine runs that compiled the program (once per digest) *)
  (* translation cache *)
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  translations : Metrics.counter;  (** actual translator runs (= misses) *)
  verifications : Metrics.counter;  (** full static SFI verifier runs *)
  cert_checks : Metrics.counter;
      (** warm admissions via cheap certificate check *)
  cert_full_verify : Metrics.counter;
      (** warm admissions that had to fall back to a full re-verify *)
  verify_fail : Metrics.counter;
      (** cache hits whose admission check failed (rejected, not a miss) *)
  cold_translate : Metrics.histogram;
      (** seconds of translate + admission per miss *)
  warm_admit : Metrics.histogram;  (** seconds of re-verification per hit *)
  (* service front-end *)
  instantiations : Metrics.counter;  (** images stamped out *)
  (* execution supervision (see {!Supervise}) *)
  quarantine_trips : Metrics.counter;  (** breakers tripped *)
  quarantine_refused : Metrics.counter;  (** requests refused while tripped *)
  quarantine_cleared : Metrics.counter;  (** manual clears *)
  crash_reports : Metrics.counter;  (** faulted runs reported *)
  deadline_exceeded : Metrics.counter;  (** watchdog faults among them *)
  (* persistent store (see {!Omni_persist.Store}; both layers share these
     instruments by registry name dedupe) *)
  persist_append : Metrics.counter;  (** records journaled to disk *)
  persist_replay : Metrics.counter;  (** journal records replayed at open *)
  persist_recovered : Metrics.counter;  (** records re-admitted after proof *)
  persist_quarantined : Metrics.counter;  (** records refused, with reason *)
  persist_torn : Metrics.counter;  (** torn tails dropped *)
}

val create : ?metrics:Metrics.t -> unit -> t
(** Register the serving instruments in [metrics] (default: a fresh
    registry). *)

val metrics : t -> Metrics.t
val reset : t -> unit

(** Immutable reading of every instrument — what {!Service.stats}
    returns. *)
type snapshot = {
  s_submits : int;
  s_modules : int;
  s_dedup_hits : int;
  s_bytes_stored : int;
  s_predecode_hits : int;
  s_predecode_misses : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_translations : int;
  s_verifications : int;
  s_cert_checks : int;
  s_cert_full_verify : int;
  s_verify_fail : int;
  s_cold_translate_s : float;  (** total seconds across cold translates *)
  s_warm_admit_s : float;  (** total seconds across warm admissions *)
  s_instantiations : int;
  s_quarantine_trips : int;
  s_quarantine_refused : int;
  s_quarantine_cleared : int;
  s_crash_reports : int;
  s_deadline_exceeded : int;
  s_persist_append : int;
  s_persist_replay : int;
  s_persist_recovered : int;
  s_persist_quarantined : int;
  s_persist_torn : int;
}

val snapshot : t -> snapshot

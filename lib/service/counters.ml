(* Serving-stack instrumentation, rebased onto the Omni_obs.Metrics
   registry: every field is a named instrument in one registry per
   Service.t, so service stats, the bench harness, and `omnirun serve
   --metrics` all read one source of truth (and the phase histograms the
   tracer records land in the same registry). *)

module Metrics = Omni_obs.Metrics

type t = {
  m : Metrics.t;
  (* module store *)
  submits : Metrics.counter;
  modules : Metrics.counter;
  dedup_hits : Metrics.counter;
  bytes_stored : Metrics.counter;
  predecode_hits : Metrics.counter;
  predecode_misses : Metrics.counter;
  (* translation cache *)
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  translations : Metrics.counter;
  verifications : Metrics.counter;
  cert_checks : Metrics.counter;
  cert_full_verify : Metrics.counter;
  verify_fail : Metrics.counter;
  cold_translate : Metrics.histogram;
  warm_admit : Metrics.histogram;
  (* service front-end *)
  instantiations : Metrics.counter;
  (* execution supervision *)
  quarantine_trips : Metrics.counter;
  quarantine_refused : Metrics.counter;
  quarantine_cleared : Metrics.counter;
  crash_reports : Metrics.counter;
  deadline_exceeded : Metrics.counter;
  (* persistent store (names shared with Omni_persist via registry
     dedupe: both layers read and bump the same instruments) *)
  persist_append : Metrics.counter;
  persist_replay : Metrics.counter;
  persist_recovered : Metrics.counter;
  persist_quarantined : Metrics.counter;
  persist_torn : Metrics.counter;
}

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  {
    m;
    submits = Metrics.counter m "service.submits";
    modules = Metrics.counter m "service.modules";
    dedup_hits = Metrics.counter m "service.dedup_hits";
    bytes_stored = Metrics.counter m "service.bytes_stored";
    predecode_hits = Metrics.counter m "vm.predecode.hit";
    predecode_misses = Metrics.counter m "vm.predecode.miss";
    hits = Metrics.counter m "service.cache.hits";
    misses = Metrics.counter m "service.cache.misses";
    evictions = Metrics.counter m "service.cache.evictions";
    translations = Metrics.counter m "service.translations";
    verifications = Metrics.counter m "service.verifications";
    cert_checks = Metrics.counter m "service.cache.cert_check";
    cert_full_verify = Metrics.counter m "service.cache.cert_full_verify";
    verify_fail = Metrics.counter m "service.cache.verify_fail";
    cold_translate = Metrics.histogram m "service.cold_translate_s";
    warm_admit = Metrics.histogram m "service.warm_admit_s";
    instantiations = Metrics.counter m "service.instantiations";
    quarantine_trips = Metrics.counter m "service.quarantine.trips";
    quarantine_refused = Metrics.counter m "service.quarantine.refused";
    quarantine_cleared = Metrics.counter m "service.quarantine.cleared";
    crash_reports = Metrics.counter m "exec.crash.reports";
    deadline_exceeded = Metrics.counter m "exec.deadline.exceeded";
    persist_append = Metrics.counter m "persist.append";
    persist_replay = Metrics.counter m "persist.replay";
    persist_recovered = Metrics.counter m "persist.recovered";
    persist_quarantined = Metrics.counter m "persist.quarantined";
    persist_torn = Metrics.counter m "persist.torn";
  }

let metrics t = t.m
let reset t = Metrics.reset t.m

(* --- immutable snapshot --- *)

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
  s_cold_translate_s : float;
  s_warm_admit_s : float;
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

let snapshot t : snapshot =
  {
    s_submits = Metrics.value t.submits;
    s_modules = Metrics.value t.modules;
    s_dedup_hits = Metrics.value t.dedup_hits;
    s_bytes_stored = Metrics.value t.bytes_stored;
    s_predecode_hits = Metrics.value t.predecode_hits;
    s_predecode_misses = Metrics.value t.predecode_misses;
    s_hits = Metrics.value t.hits;
    s_misses = Metrics.value t.misses;
    s_evictions = Metrics.value t.evictions;
    s_translations = Metrics.value t.translations;
    s_verifications = Metrics.value t.verifications;
    s_cert_checks = Metrics.value t.cert_checks;
    s_cert_full_verify = Metrics.value t.cert_full_verify;
    s_verify_fail = Metrics.value t.verify_fail;
    s_cold_translate_s = Metrics.histogram_sum t.cold_translate;
    s_warm_admit_s = Metrics.histogram_sum t.warm_admit;
    s_instantiations = Metrics.value t.instantiations;
    s_quarantine_trips = Metrics.value t.quarantine_trips;
    s_quarantine_refused = Metrics.value t.quarantine_refused;
    s_quarantine_cleared = Metrics.value t.quarantine_cleared;
    s_crash_reports = Metrics.value t.crash_reports;
    s_deadline_exceeded = Metrics.value t.deadline_exceeded;
    s_persist_append = Metrics.value t.persist_append;
    s_persist_replay = Metrics.value t.persist_replay;
    s_persist_recovered = Metrics.value t.persist_recovered;
    s_persist_quarantined = Metrics.value t.persist_quarantined;
    s_persist_torn = Metrics.value t.persist_torn;
  }

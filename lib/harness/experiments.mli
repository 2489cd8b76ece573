(** Experiment harness: regenerates every table and figure of the paper's
    evaluation section. See DESIGN.md for the experiment index and
    EXPERIMENTS.md for recorded paper-vs-measured results.

    All relative-time numbers are simulated pipeline cycle counts; every
    run's output is validated against the OmniVM reference interpreter
    before its numbers are used. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine

(** One measured configuration of the translation pipeline. *)
type config =
  | Mobile_sfi  (** translated, sandboxed, per-arch translator opts *)
  | Mobile_nosfi
  | Mobile_sfi_noopt  (** translator optimizations disabled (Table 5) *)
  | Mobile_nosfi_noopt
  | Mobile_sfi_opt  (** + the guard-zone SFI optimization (paper §4.4) *)
  | Mobile_sfi_reads  (** + read protection (cited in §1, not measured) *)
  | Native_cc  (** vendor-compiler baseline *)
  | Native_gcc  (** portable-compiler baseline *)

val config_name : config -> string

type measurement = {
  m_cycles : int;
  m_instructions : int;
  m_omni_instructions : int;
  m_stats : Machine.stats option;
}

exception Harness_error of string

val measure :
  ?regfile_size:int ->
  Omni_workloads.Workloads.t ->
  Arch.t ->
  config ->
  measurement
(** Run one cell (cached); validates the run's output.
    @raise Harness_error on faults or wrong output. *)

val ratio :
  ?regfile_size:int ->
  Omni_workloads.Workloads.t ->
  Arch.t ->
  config ->
  config ->
  float
(** [ratio w arch num den] = cycles(num) / cycles(den). *)

val render_ratio_table :
  title:string ->
  columns:string list ->
  rows:string list ->
  cell:(string -> string -> float option) ->
  string
(** Text table with a computed average row (the paper's table format). *)

(** {2 The paper's artifacts} — each returns the rendered table/figure. *)

val table1 : size:Omni_workloads.Workloads.size -> string
val table2 : size:Omni_workloads.Workloads.size -> string
val table3 : size:Omni_workloads.Workloads.size -> string
val table4 : size:Omni_workloads.Workloads.size -> string
val table5 : size:Omni_workloads.Workloads.size -> string
val table6 : size:Omni_workloads.Workloads.size -> string
val figure1 : size:Omni_workloads.Workloads.size -> string
val figure2 : unit -> string

val ablation_sfi_opt : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: measures its §4.4 forecast that SFI-check
    optimization would halve the SFI overhead. *)

val ablation_read_protection : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: the cost of the read-protection capability §1 cites
    but Omniware did not incorporate. *)

val translation_speed : size:Omni_workloads.Workloads.size -> string
(** Wall-clock OmniVM-instructions-per-second for each translator. *)

val service_amortization : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: cold vs warm load times through the memoizing
    translation service ({!Omni_service.Service}) — each workload × arch
    is translated once, then served from cache with static
    re-verification; reports amortization, batch throughput, and the
    service counters. *)

val phase_breakdown : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: where the pipeline's time goes — compile, decode,
    load, translate, verify, run — as recorded by the
    {!Omni_obs.Trace} span instrumentation into a
    {!Omni_obs.Metrics} registry (no harness-side timing). *)

val remote_overhead : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: cold vs warm round trips through the distribution
    protocol ({!Omni_net}, in-memory pair transport) against the same
    requests on the in-process service — the protocol cost of serving
    mobile code over a wire, plus the per-ping protocol floor. *)

val resilience : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: loopback serving throughput under seeded fault
    injection ({!Omni_net.Fault}) at rates 0 / 1% / 5% per frame, with a
    retrying client on a manual clock. Every run's output is validated
    against the in-process service; reports requests, injected faults,
    retries, and round time per rate. *)

val isolation : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: the cost of execution supervision — the
    wall-clock watchdog's cooperative poll ({!Omnivm.Watchdog}) at
    K ∈ {1k, 16k, 64k} instructions against a no-watchdog baseline,
    outputs validated bit-for-bit (an armed watchdog with a generous
    deadline must never perturb execution). *)

val cert_amortization : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: proof-carrying translation ({!Omni_cert}) — the
    one-time cost of certifying a translation against the per-hit cost
    of a full static re-verification vs the witness check, per arch ×
    certifiable SFI policy, plus an end-to-end validation that the
    witness-checked serving path produces bit-identical output. *)

val concurrency : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: parallel multi-tenant serving — a burst of seeded
    requests dispatched through one shared {!Omni_net.Server} by
    D ∈ \{1, 2, 4, 8\} worker domains (the domain pool's dispatch, minus
    sockets), reporting wall time, throughput, and p50/p95/p99 request
    latency per pool size. Every concurrent round must answer
    bit-identically to a serial reference round and the shared service
    counters must sum exactly, or the experiment aborts. *)

val guest_front_end : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: the StackVM guest front-end ({!Omni_guest}) — lift
    time, oracle-steps vs lifted OmniVM instruction expansion, and the
    SFI overhead of lifted modules per arch. Every run is validated
    byte-for-byte against the guest reference interpreter. *)

val fastpath : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: the pre-decoded closure-threaded fast path
    ({!Omnivm.Fastinterp}) against the baseline interpreter —
    steady-state wall-clock per retired OmniVM instruction on both
    workload families (MiniC-compiled and guest-lifted, outputs
    validated bit-for-bit), fusion statistics and the one-time
    pre-decode cost, plus the SFI-overhead table extended with a
    padding dimension: simulated cycles relative to native (cc) for
    every translation-time pad mode ({!Omni_sfi.Policy.pad}) per arch. *)

val persistence : size:Omni_workloads.Workloads.size -> string
(** Beyond the paper: restart costs of the crash-safe persistent store
    ({!Omni_persist}) — one submit+translate round measured with no
    store, cold with journaling (the append overhead), reopened dirty
    (kill -9: journal replay plus full witness re-proof of every
    translation) and reopened clean (the shutdown-marker fast path),
    then served warm from the recovered cache: zero re-translations,
    witness checks only. *)

val bench_snapshot : size:Omni_workloads.Workloads.size -> string
(** Machine-readable snapshot of every subsystem bench's hot paths
    (the contents of the latest [BENCH_N.json]): stable JSON, integer
    microseconds of CPU time, with a flat ["hot_paths"] object that
    [make bench-gate] diffs across runs. The ["concurrency"] section
    additionally reports wall-clock throughput/latency per pool size;
    only its one-domain round is gated (multi-domain walls depend on the
    host's cores). *)

val all_tables : size:Omni_workloads.Workloads.size -> string

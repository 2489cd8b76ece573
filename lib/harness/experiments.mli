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
  | Mobile_sfi_pad of Omni_sfi.Policy.pad
      (** SFI with the masking sequences laid out under one pad mode *)
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

val figure2 : unit -> string
(** Figure 2, the universal mobile-code substrate (structural). *)

(** {2 The bench sections} *)

(** How a section is measured and rendered. *)
type section =
  | Table of (size:Omni_workloads.Workloads.size -> string)
      (** a paper table, figure or ablation: simulated cycle counts,
          rendered as text only *)
  | Snapshot of
      (size:Omni_workloads.Workloads.size -> string * Gate.entry)
      (** a beyond-the-paper section: measured once, and that one record
          rendered both as its text table and as its snapshot entry *)

val sections : (string * section) list
(** Every section by its command-line name, in run order. The paper's
    artifacts come first ([table1]–[table6], [figure1], [figure2],
    [ablation], [ablation-reads], [speed]). The snapshot sections follow:
    [phases] (per-phase pipeline time from the span tracer), [service]
    (cold vs warm admission through the translation cache), [resilience]
    (loopback serving under seeded fault injection), [isolation]
    (watchdog poll overhead), [cert] (full verify vs witness check),
    [guest] (StackVM lifting), [fastpath] (the interpreter over a cached
    decode against decoding per run, and SFI cycles per pad mode) and
    [persistence] (journaled store restart costs). Every run's output is validated before its numbers
    are used. *)

val bench_snapshot : size:Omni_workloads.Workloads.size -> string * string
(** [(tables, json)]: measures every [Snapshot] section once, in
    {!sections} order, and returns their text tables and the snapshot
    file ({!Gate.json_of_sections}) — the contents of a [BENCH_N.json],
    whose flat ["hot_paths"] object [make bench-gate] diffs. Both
    renderings read the same records, so the tables show exactly the
    numbers written. Times are integer microseconds of monotonic wall
    time ({!Omni_util.Clock.monotonic}). *)

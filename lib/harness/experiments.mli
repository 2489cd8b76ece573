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

(** {2 The bench sections} *)

(** A timed ratio and the fixed bound it is gated against. *)
type check = {
  ck_name : string;
  ck_value : float;  (** a ratio of two times measured in one invocation *)
  ck_lo : float;  (** inclusive bounds; [ck_hi] may be [infinity] *)
  ck_hi : float;
}

val within : check -> bool
(** [ck_lo <= ck_value <= ck_hi]; a NaN ratio is outside every bound. *)

val render_check : check -> string
(** One line: ["ok"] or ["FAIL"], the name, the ratio and its bound. *)

(** How a section is measured. *)
type section =
  | Cycles of (size:Omni_workloads.Workloads.size -> string)
      (** simulated cycles and counts: the same text on every host, so
          the test-size output is pinned byte for byte by a golden *)
  | Timed of
      (size:Omni_workloads.Workloads.size -> string * check list)
      (** wall-clock times: its text table, and the ratios it gates
          against its own bounds *)

val sections : (string * section) list
(** Every section by its command-line name, in run order. The cycle
    sections are the paper's artifacts ([table1]–[table6], [figure1],
    [figure2], [ablation], [ablation-reads]) and two beyond-the-paper
    tables: [guest-sfi] (expansion and SFI overhead of StackVM modules
    lifted to OmniVM) and [pads] (SFI cycles per pad mode). The timed
    sections follow: [speed] (translation time and allocation),
    [service] (cold vs warm admission through the translation cache),
    [resilience] (loopback serving under seeded fault injection),
    [isolation] (watchdog poll overhead), [cert] (full verify vs witness
    check), [guest] (StackVM lift time), [fastpath] (the interpreter
    over a cached decode against decoding per run) and [persistence]
    (journaled store restart costs). [speed], [resilience] and [guest]
    gate no ratio. Every run's output is validated before its numbers
    are used. *)

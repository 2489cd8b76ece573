(** The benchmark regression gate, as a pure library.

    [make bench-gate] re-measures every subsystem's hot paths and diffs
    the fresh snapshot against the latest one. This module holds the
    logic the gate shares with its tests: writing a snapshot and
    extracting its flat [hot_paths] object, classifying every key as
    regressed / new / dropped, summarizing the skipped keys in one
    stderr line, and naming the snapshot files. The binary in
    [bench/main.ml] only does I/O. *)

(** One bench section's snapshot entry. *)
type entry = {
  rows : (string * (string * int) list) list;
      (** named rows of integer fields, written for the record *)
  hot : (string * int) list;
      (** the keys this section gates, with their values in µs *)
}

val json_of_sections : size:string -> (string * entry) list -> string
(** The snapshot file: a schema tag, the workload [size], one object per
    section holding its rows, and one flat ["hot_paths"] object that
    concatenates every section's [hot] keys in order. Row fields never
    become gated keys. Names are written verbatim, so they must not need
    JSON escaping. *)

val hot_paths_of_json : string -> (string * int) list
(** Extract the flat ["name": int] pairs of the ["hot_paths"] object.
    The writer is {!json_of_sections} and the schema is stable, so a
    scanner suffices — no JSON library in the tree. Malformed input
    yields [[]], never an exception. *)

(** Outcome of diffing a fresh snapshot against a baseline. *)
type diff = {
  d_regressions : (string * int * int) list;
      (** [(name, before_us, now_us)] for every gated key slower than
          [threshold * before]; order follows the fresh snapshot *)
  d_new : string list;
      (** fresh keys with no baseline — skipped until a written snapshot
          holds them *)
  d_dropped : string list;
      (** baseline keys missing from the fresh snapshot — skipped *)
  d_compared : int;  (** keys present (and gated) in both snapshots *)
}

val default_threshold : float
(** 1.20: a hot path may be up to 20% slower before the gate fails. *)

val default_min_delta : int
(** 10 (µs): the absolute slack below which a relative regression is
    noise — 20% of a 30µs path is 6µs, under the timer's effective
    granularity on a shared host. *)

val diff :
  ?threshold:float ->
  ?min_delta:int ->
  baseline:(string * int) list ->
  fresh:(string * int) list ->
  unit ->
  diff
(** Classify every key of both snapshots. A key regresses when its
    baseline value is positive, [now > threshold *. before]
    (strictly: landing exactly on the threshold passes), and the
    absolute slowdown exceeds [min_delta] — so a few-µs wobble on a
    tiny path never trips the gate. Keys with a zero or negative
    baseline are compared but can never regress — sub-microsecond
    paths round to 0 and would otherwise trip on noise. *)

val merge_min : (string * int) list -> (string * int) list -> (string * int) list
(** [merge_min prev fresh] is [fresh] with every key that also appears
    in [prev] replaced by the smaller of the two samples (key order and
    the key *set* are [fresh]'s). The minimum is the stable estimator
    for timing under interference: re-measuring a regressed run and
    gating on the per-key minimum absorbs one-off noise spikes while a
    genuine slowdown survives every re-measurement. *)

val skip_summary : diff -> string option
(** One stderr line naming the keys the gate skipped (new and dropped),
    or [None] when nothing was skipped — a silently-shrinking gate is
    visible in CI logs without failing the run, and without drowning
    them in one line per key. *)

val latest_snapshot : string list -> string option
(** The snapshot to gate against: among file names of the form
    [BENCH_<N>.json] (N decimal digits), the one with the largest N,
    compared numerically so [BENCH_10.json] beats [BENCH_9.json]. Other
    names are ignored; [None] when none matches. *)

val next_snapshot : string list -> string
(** The snapshot to write: [BENCH_<N+1>.json] for the largest N that
    {!latest_snapshot} would pick, or [BENCH_1.json] when none matches,
    so writing a snapshot never overwrites a baseline. *)

val render_regression : string * int * int -> string
(** ["bench-gate: REGRESSION name: 10us -> 15us (+50%)"]. *)

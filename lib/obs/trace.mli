(** Span-based tracer for the mobile-code pipeline.

    A span covers one phase of one request — compile, decode, load,
    translate, verify, run — with attributes and a duration read from an
    injectable monotonic clock ({!Omni_util.Clock}), so tests are
    deterministic. Spans nest; each completed span records its parent id
    and depth.

    Instrumented layers reach the tracer ambiently through {!current} /
    {!phase}; the default is {!null}, whose probes reduce to a single
    branch — tracing a disabled pipeline costs (nearly) nothing.

    A tracer may carry a {!Metrics} registry: every completed span then
    also lands in histogram ["phase.<name>"], so even a [Null]-sink tracer
    yields a per-phase time breakdown. *)

(** A completed span. *)
type span = {
  id : int;  (** 1-based, in span-open order *)
  parent : int;  (** id of the enclosing span; 0 for roots *)
  depth : int;  (** 0 for roots *)
  name : string;  (** phase label *)
  attrs : (string * string) list;
  start_s : float;
  dur_s : float;
}

(** In-memory accumulation of completed spans (for tests and tools). *)
type collector

val collector : unit -> collector

val collected : collector -> span list
(** Completed spans in completion order (children before parents). *)

(** Where completed spans go. *)
type sink =
  | Null  (** discard (metrics, if any, still collect) *)
  | Collect of collector
  | Emit of (span -> unit)  (** e.g. a JSON-lines writer *)

type t

val null : t
(** The disabled tracer: every operation is a no-op. *)

val make : ?clock:Omni_util.Clock.t -> ?metrics:Metrics.t -> sink -> t
(** A live tracer. [clock] defaults to {!Omni_util.Clock.monotonic}, so a
    span's duration is its latency; [metrics] receives a
    ["phase.<name>"] histogram sample per completed span. *)

val enabled : t -> bool
val metrics : t -> Metrics.t option

val begin_span : t -> ?attrs:(string * string) list -> string -> unit
val end_span : t -> unit
(** @raise Invalid_argument when no span is open (on a live tracer). *)

val add_attr : t -> string -> string -> unit
(** Attach an attribute to the innermost open span (no-op when none). *)

val with_span :
  t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Exception-safe begin/end; a raising body still closes the span, with
    an ["error"] attribute. *)

val clone : t -> t
(** A tracer sharing [t]'s clock, sink, and metrics registry, with a
    private span stack and id counter. Each worker domain of a server
    pool installs a clone so concurrent requests cannot corrupt one
    another's span stacks; the shared registry still aggregates phase
    timings across all clones. Span ids restart per clone. An [Emit]
    sink shared by clones must itself be thread-safe.
    [clone null] is [null]. *)

(** {1 The ambient tracer}

    One current tracer per {e domain} (domain-local storage); [Api.run]
    and omnirun scope it per request with {!with_current}. A freshly
    spawned domain starts with {!null} until it installs its own —
    typically a {!clone} of its parent's. *)

val current : unit -> t
val set_current : t -> unit

val with_current : t -> (unit -> 'a) -> 'a
(** Run with the given tracer current, restoring the previous one. *)

(** {2 Probes} — all on the ambient tracer, all no-ops when disabled. *)

val phase : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span] on the current tracer. *)

val attr : string -> string -> unit

val count : ?by:int -> string -> unit
(** Bump a counter in the current tracer's registry, if it has one. *)

val observe : string -> float -> unit
(** Record a histogram sample in the current tracer's registry. *)

val timed : string -> (unit -> 'a) -> 'a
(** Time [f] into histogram [name], on the tracer's clock, when the
    current tracer carries a registry — per-pass attribution for a pass
    that runs once (the MiniC compiler's). *)

(** {2 Tallies}

    Probes that fire per basic block or per instruction (the
    translators') go to a tally, which is local to one translation, and
    reach the registry once when it is flushed. *)

type tally

val tally : unit -> tally
(** A new tally, on if the current tracer carries a registry. An off
    tally's probes cost a branch. *)

val tally_count : ?by:int -> tally -> string -> unit
(** Add to the tally's count [name]. *)

val tally_clock : tally -> int
(** The monotonic clock in nanoseconds if the tally is on, else 0: a
    caller that runs several passes back to back per block times them
    from shared readings, and adds each pass's total once. *)

val tally_add_time : tally -> string -> int -> unit
(** Add nanoseconds to the tally's pass [name]. *)

val flush : tally -> unit
(** Land each count in the registry as one bump of counter [name], and
    each pass as one observation of histogram [name] holding its total
    seconds; then empty the tally. Does nothing for an off tally. *)

val json_line : span -> string
(** One span as a single JSON line (omnirun's [--trace] output). *)

(* Span-based tracer for the mobile-code pipeline.

   A span covers one phase of one request — compile, decode, load,
   translate, verify, run — with attributes (arch, module name, ...) and a
   duration read from an injectable monotonic clock. Spans form a stack:
   begin/end pairs nest, and a completed span records its parent and
   depth, so a line-oriented consumer can reconstruct the tree.

   The tracer is reached ambiently (one [current] tracer per process, set
   per request by [Api.run] / omnirun) so instrumentation probes deep in
   the translators need no plumbing. The default tracer is [null]: every
   probe first checks [t.on] and falls through in a couple of
   instructions, which is what keeps tracing zero-cost when disabled.

   Completed spans also feed the tracer's optional metrics registry
   (histogram "phase.<name>"), so a run traced with a Null sink still
   yields the per-phase time breakdown. *)

module Clock = Omni_util.Clock

type span = {
  id : int;  (* 1-based, in span-open order *)
  parent : int;  (* id of the enclosing span; 0 for roots *)
  depth : int;  (* 0 for roots *)
  name : string;
  attrs : (string * string) list;
  start_s : float;
  dur_s : float;
}

type collector = { mutable collected_rev : span list }

let collector () = { collected_rev = [] }
let collected c = List.rev c.collected_rev

type sink =
  | Null
  | Collect of collector
  | Emit of (span -> unit)

type open_span = {
  o_id : int;
  o_parent : int;
  o_depth : int;
  o_name : string;
  mutable o_attrs : (string * string) list;
  o_start : float;
}

type t = {
  on : bool;
  clock : Clock.t;
  sink : sink;
  m : Metrics.t option;
  mutable next_id : int;
  mutable stack : open_span list;
}

let null =
  { on = false; clock = Clock.monotonic; sink = Null; m = None; next_id = 1;
    stack = [] }

let make ?(clock = Clock.monotonic) ?metrics sink =
  { on = true; clock; sink; m = metrics; next_id = 1; stack = [] }

let enabled t = t.on
let metrics t = t.m

let emit t (s : span) =
  (match t.sink with
  | Null -> ()
  | Collect c -> c.collected_rev <- s :: c.collected_rev
  | Emit f -> f s);
  match t.m with
  | None -> ()
  | Some m ->
      Metrics.observe (Metrics.histogram m ("phase." ^ s.name)) s.dur_s

let begin_span t ?(attrs = []) name =
  if t.on then begin
    let parent, depth =
      match t.stack with
      | [] -> (0, 0)
      | o :: _ -> (o.o_id, o.o_depth + 1)
    in
    let o =
      { o_id = t.next_id; o_parent = parent; o_depth = depth; o_name = name;
        o_attrs = attrs; o_start = Clock.now t.clock }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- o :: t.stack
  end

let end_span t =
  if t.on then
    match t.stack with
    | [] -> invalid_arg "Trace.end_span: no open span"
    | o :: rest ->
        t.stack <- rest;
        emit t
          { id = o.o_id; parent = o.o_parent; depth = o.o_depth;
            name = o.o_name; attrs = List.rev o.o_attrs; start_s = o.o_start;
            dur_s = Clock.now t.clock -. o.o_start }

let add_attr t k v =
  if t.on then
    match t.stack with
    | [] -> ()
    | o :: _ -> o.o_attrs <- (k, v) :: o.o_attrs

let with_span t ?attrs name f =
  if not t.on then f ()
  else begin
    begin_span t ?attrs name;
    match f () with
    | r ->
        end_span t;
        r
    | exception e ->
        add_attr t "error" (Printexc.to_string e);
        end_span t;
        raise e
  end

(* --- the ambient tracer ---

   One ambient tracer per *domain*, not per process: a span stack is
   execution-context state, so a pool of server domains sharing a single
   [ref] would interleave each other's spans. Domain-local storage gives
   every domain the null tracer until it installs its own (typically a
   [clone] of the server's — same sink and registry, private stack). *)

let cur = Domain.DLS.new_key (fun () -> null)
let current () = Domain.DLS.get cur
let set_current t = Domain.DLS.set cur t

let with_current t f =
  let old = Domain.DLS.get cur in
  Domain.DLS.set cur t;
  match f () with
  | r ->
      Domain.DLS.set cur old;
      r
  | exception e ->
      Domain.DLS.set cur old;
      raise e

(* A tracer sharing [t]'s clock, sink, and metrics registry, with a
   private span stack and id counter — what each worker domain of a pool
   installs so concurrent requests do not corrupt one another's stacks.
   Span ids restart per clone; consumers correlate within one domain's
   stream (the registry, being shared and thread-safe, still aggregates
   phase timings across all clones). An [Emit] sink shared by clones must
   itself be thread-safe. *)
let clone t =
  if not t.on then null
  else { on = true; clock = t.clock; sink = t.sink; m = t.m; next_id = 1;
         stack = [] }

(* Probes on the ambient tracer. Each starts with a one-branch enabled
   check so a disabled pipeline pays (nearly) nothing. *)

let phase ?attrs name f =
  let t = Domain.DLS.get cur in
  if not t.on then f () else with_span t ?attrs name f

let attr k v =
  let t = Domain.DLS.get cur in
  if t.on then add_attr t k v

let count ?(by = 1) name =
  match (Domain.DLS.get cur).m with
  | None -> ()
  | Some m -> Metrics.incr ~by (Metrics.counter m name)

let observe name v =
  match (Domain.DLS.get cur).m with
  | None -> ()
  | Some m -> Metrics.observe (Metrics.histogram m name) v

(* Time [f] into histogram [name] when the ambient tracer carries a
   registry — per-pass attribution for a compiler pass that runs once. *)
let timed name f =
  let t = Domain.DLS.get cur in
  match t.m with
  | None -> f ()
  | Some m ->
      let t0 = Clock.now t.clock in
      let r = f () in
      Metrics.observe (Metrics.histogram m name) (Clock.now t.clock -. t0);
      r

(* --- tallies ---

   A translator's passes and counters fire once per basic block or per
   instruction; reaching the registry each time (a clock read on each
   side, a lookup under the registry lock) would cost more than the
   passes. A tally keeps them for one translation instead: counts by
   name, and the time spent in each named pass on the monotonic clock.
   [flush] then lands each in the registry once — one counter bump per
   name, one histogram observation per pass holding its total. A tally
   opened while the ambient tracer has no registry is off: its probes
   cost a branch and [flush] does nothing. *)

type tally = {
  tm : Metrics.t option;
  mutable counts : (string * int ref) list;
  mutable passes : (string * int ref) list; (* ns *)
}

let tally () = { tm = (Domain.DLS.get cur).m; counts = []; passes = [] }

let rec add_to cells name v =
  match cells with
  | [] -> false
  | (n, r) :: rest ->
      if String.equal n name then begin
        r := !r + v;
        true
      end
      else add_to rest name v

let tally_count ?(by = 1) t name =
  match t.tm with
  | Some _ when not (add_to t.counts name by) ->
      t.counts <- (name, ref by) :: t.counts
  | Some _ | None -> ()

let tally_clock t =
  match t.tm with None -> 0 | Some _ -> Clock.monotonic_ns ()

let tally_add_time t name ns =
  match t.tm with
  | Some _ when not (add_to t.passes name ns) ->
      t.passes <- (name, ref ns) :: t.passes
  | Some _ | None -> ()

let flush t =
  match t.tm with
  | None -> ()
  | Some m ->
      List.iter
        (fun (n, c) -> Metrics.incr ~by:!c (Metrics.counter m n))
        t.counts;
      List.iter
        (fun (n, ns) ->
          Metrics.observe (Metrics.histogram m n) (float_of_int !ns *. 1e-9))
        t.passes;
      t.counts <- [];
      t.passes <- []

(* --- line-oriented JSON output --- *)

let json_line (s : span) =
  let b = Buffer.create 160 in
  Printf.bprintf b
    "{\"span\":\"%s\",\"id\":%d,\"parent\":%d,\"depth\":%d,\"start_ms\":%.3f,\"dur_ms\":%.3f"
    (Metrics.json_escape s.name) s.id s.parent s.depth (1e3 *. s.start_s)
    (1e3 *. s.dur_s);
  if s.attrs <> [] then begin
    Buffer.add_string b ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":\"%s\"" (Metrics.json_escape k)
          (Metrics.json_escape v))
      s.attrs;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

(* Metrics registry: named counters, gauges, and log-bucketed histograms.

   One registry describes one measured subsystem (a service instance, a
   benchmark run, an omnirun invocation). Instruments are registered by
   name on first use and survive {!reset}: resetting zeroes the readings
   but keeps every registration, so a long-lived server can publish
   per-interval snapshots without re-plumbing its probes.

   Every instrument is safe to drive from multiple domains: counters and
   gauges are lock-free ([Atomic]); each histogram serializes its
   observations behind its own mutex (an observation is a three-field
   update that must stay consistent); the registry table itself is locked
   only on registration, snapshot, and reset — the hot paths (incr,
   observe) never touch the registry lock. Lock order: registry mutex
   before histogram mutexes, and a histogram mutex is the innermost lock
   in the whole system — no code holding one calls anything else.

   Histograms are log-bucketed in powers of two: a value v > 0 falls in
   the bucket [2^(e-1), 2^e) containing it, so durations spanning
   nanoseconds to hours need only ~60 buckets and bucket boundaries are
   exact in floating point. *)

type counter = { c_value : int Atomic.t }
type gauge = { g_value : float Atomic.t }

(* Bucket i covers [2^(i - bucket_zero - 1), 2^(i - bucket_zero)); values
   <= 0 land in bucket 0 (an underflow bucket with upper bound 2^-min). *)
let bucket_zero = 40 (* smallest finite bucket upper bound: 2^-40 s *)
let bucket_count = 72 (* largest: 2^31 s *)

type histogram = {
  h_mu : Mutex.t;
  buckets : int array; (* bucket_count cells *)
  mutable h_count : int;
  mutable h_sum : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { mu : Mutex.t; tbl : (string, instrument) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 32 }

let register t name mk describe =
  Mutex.protect t.mu @@ fun () ->
  match Hashtbl.find_opt t.tbl name with
  | Some i -> i
  | None ->
      let i = mk () in
      Hashtbl.replace t.tbl name i;
      ignore describe;
      i

let counter t name =
  match
    register t name (fun () -> Counter { c_value = Atomic.make 0 }) "counter"
  with
  | Counter c -> c
  | _ -> invalid_arg (name ^ " is registered as a non-counter")

let gauge t name =
  match
    register t name (fun () -> Gauge { g_value = Atomic.make 0.0 }) "gauge"
  with
  | Gauge g -> g
  | _ -> invalid_arg (name ^ " is registered as a non-gauge")

let histogram t name =
  match
    register t name
      (fun () ->
        Histogram { h_mu = Mutex.create ();
                    buckets = Array.make bucket_count 0; h_count = 0;
                    h_sum = 0.0 })
      "histogram"
  with
  | Histogram h -> h
  | _ -> invalid_arg (name ^ " is registered as a non-histogram")

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let value c = Atomic.get c.c_value
let set g v = Atomic.set g.g_value v
let gauge_value g = Atomic.get g.g_value

(* Index of the bucket whose range [2^(e-1), 2^e) contains v. [frexp]
   gives v = m * 2^e with m in [0.5, 1), i.e. exactly that range. *)
let bucket_index v =
  if v <= 0.0 || v <> v then 0
  else
    let _, e = Float.frexp v in
    max 0 (min (bucket_count - 1) (e + bucket_zero))

(* Upper bound of bucket i (inclusive top bucket soaks up overflow). *)
let bucket_upper i = Float.ldexp 1.0 (i - bucket_zero)

let observe h v =
  let i = bucket_index v in
  Mutex.protect h.h_mu @@ fun () ->
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let histogram_count h = Mutex.protect h.h_mu (fun () -> h.h_count)
let histogram_sum h = Mutex.protect h.h_mu (fun () -> h.h_sum)

(* --- snapshots --- *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list;
      (* (upper bound, count) for non-empty buckets, ascending *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let snapshot t : snapshot =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  ( Mutex.protect t.mu @@ fun () ->
    Hashtbl.iter
      (fun name i ->
        match i with
        | Counter c -> cs := (name, Atomic.get c.c_value) :: !cs
        | Gauge g -> gs := (name, Atomic.get g.g_value) :: !gs
        | Histogram h ->
            (* registry mutex before histogram mutex: the one nested pair *)
            Mutex.protect h.h_mu @@ fun () ->
            let buckets = ref [] in
            for i = bucket_count - 1 downto 0 do
              if h.buckets.(i) > 0 then
                buckets := (bucket_upper i, h.buckets.(i)) :: !buckets
            done;
            hs :=
              (name, { hs_count = h.h_count; hs_sum = h.h_sum;
                       hs_buckets = !buckets })
              :: !hs)
      t.tbl );
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !cs;
    gauges = List.sort by_name !gs;
    histograms = List.sort by_name !hs;
  }

let reset t =
  Mutex.protect t.mu @@ fun () ->
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_value 0.0
      | Histogram h ->
          Mutex.protect h.h_mu @@ fun () ->
          Array.fill h.buckets 0 bucket_count 0;
          h.h_count <- 0;
          h.h_sum <- 0.0)
    t.tbl

(* --- rendering --- *)

let render (s : snapshot) =
  let b = Buffer.create 512 in
  List.iter (fun (n, v) -> Printf.bprintf b "%-40s %12d\n" n v) s.counters;
  List.iter (fun (n, v) -> Printf.bprintf b "%-40s %12.3f\n" n v) s.gauges;
  List.iter
    (fun (n, h) ->
      let mean = if h.hs_count = 0 then 0.0 else h.hs_sum /. float h.hs_count in
      Printf.bprintf b "%-40s count %8d  sum %10.3fms  mean %8.3fms\n" n
        h.hs_count (1e3 *. h.hs_sum) (1e3 *. mean))
    s.histograms;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  (* JSON has no infinities; a %g float is both compact and round-trippable
     enough for metrics *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_json (s : snapshot) =
  let b = Buffer.create 1024 in
  let field first = if !first then first := false else Buffer.add_char b ',' in
  Buffer.add_string b "{\"counters\":{";
  let f = ref true in
  List.iter
    (fun (n, v) ->
      field f;
      Printf.bprintf b "\"%s\":%d" (json_escape n) v)
    s.counters;
  Buffer.add_string b "},\"gauges\":{";
  let f = ref true in
  List.iter
    (fun (n, v) ->
      field f;
      Printf.bprintf b "\"%s\":%s" (json_escape n) (json_float v))
    s.gauges;
  Buffer.add_string b "},\"histograms\":{";
  let f = ref true in
  List.iter
    (fun (n, h) ->
      field f;
      Printf.bprintf b "\"%s\":{\"count\":%d,\"sum\":%s,\"buckets\":["
        (json_escape n) h.hs_count (json_float h.hs_sum);
      let g = ref true in
      List.iter
        (fun (ub, c) ->
          field g;
          Printf.bprintf b "[%s,%d]" (json_float ub) c)
        h.hs_buckets;
      Buffer.add_string b "]}")
    s.histograms;
  Buffer.add_string b "}}";
  Buffer.contents b

(* Per-phase time table for histograms named "phase.<name>" — the bench
   harness's breakdown and `omnirun serve --metrics` both use it. *)
let render_phases (s : snapshot) =
  let b = Buffer.create 256 in
  let phases =
    List.filter_map
      (fun (n, h) ->
        if String.length n > 6 && String.sub n 0 6 = "phase." then
          Some (String.sub n 6 (String.length n - 6), h)
        else None)
      s.histograms
  in
  if phases = [] then Buffer.add_string b "(no phase timings recorded)\n"
  else begin
    let total = List.fold_left (fun a (_, h) -> a +. h.hs_sum) 0.0 phases in
    Printf.bprintf b "%-12s %8s %12s %12s %7s\n" "phase" "count" "total (ms)"
      "mean (ms)" "share";
    List.iter
      (fun (n, h) ->
        let mean =
          if h.hs_count = 0 then 0.0 else h.hs_sum /. float h.hs_count
        in
        Printf.bprintf b "%-12s %8d %12.3f %12.4f %6.1f%%\n" n h.hs_count
          (1e3 *. h.hs_sum) (1e3 *. mean)
          (if total > 0.0 then 100.0 *. h.hs_sum /. total else 0.0))
      phases
  end;
  Buffer.contents b

(* Request-scoped spans, recorded by the benchmark around its own calls
   into each layer. Spans live in memory until the run ends; nothing is
   written while requests are timed.

   Every span carries its request id, its own id and its parent's id, so
   the spans of one request form a tree rooted at the ["request"] span. A
   span's self time is its duration minus the durations of its direct
   children; the self times of a request's spans therefore add up to the
   request's duration exactly, and the share of that total the layer spans
   cover is the ledger's coverage. *)

type span = {
  req : int;
  id : int;
  parent : int;  (** -1 for a request root *)
  name : string;
  t0 : int;  (** ns *)
  t1 : int;
}

type t = {
  clock : unit -> int;  (** ns on one monotonic clock *)
  mutable closed : span list;  (** newest first *)
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable next : int;
  mutable req : int;
}

let create clock = { clock; closed = []; stack = []; next = 0; req = 0 }

(* [name] is read when the span closes, so a span can be named by what the
   call turned out to do (a cache hit or a miss). *)
let span_dyn t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = t.clock () in
  let close () =
    let t1 = t.clock () in
    t.stack <- List.tl t.stack;
    t.closed <- { req = t.req; id; parent; name = name (); t0; t1 } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let span t name f = span_dyn t (fun () -> name) f

let request t f =
  t.req <- t.req + 1;
  span t "request" f

let spans t = List.rev t.closed

(* Self time of every span, by id. *)
let self_times spans =
  let self = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace self s.id (s.t1 - s.t0)) spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace self s.parent
          (Hashtbl.find self s.parent - (s.t1 - s.t0)))
    spans;
  self

(* Per span name: its durations (ns) and its total self time (ns). *)
type agg = { durations : float list; self_ns : int }

let summarize spans =
  let self = self_times spans in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ durations = []; self_ns = 0 }
      in
      Hashtbl.replace by_name s.name
        {
          durations = float_of_int (s.t1 - s.t0) :: a.durations;
          self_ns = a.self_ns + Hashtbl.find self s.id;
        })
    spans;
  by_name

let json_line (s : span) =
  Printf.sprintf
    {|{"req":%d,"id":%d,"parent":%d,"name":"%s","start_ns":%d,"end_ns":%d}|}
    s.req s.id s.parent s.name s.t0 s.t1

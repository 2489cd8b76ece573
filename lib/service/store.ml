module Fnv64 = Omni_util.Fnv64
module Metrics = Omni_obs.Metrics
module Trace = Omni_obs.Trace

type handle = Fnv64.t

let digest h = h
let digest_hex = Fnv64.to_hex
let equal_handle = Fnv64.equal

type entry = {
  e_bytes : string;
  e_exe : Omnivm.Exe.t;
  e_blueprint : Omni_runtime.Loader.blueprint;
  e_producer : string option; (* front-end attribution, first submitter wins *)
}

(* Sharded by digest so concurrent submits and lookups of unrelated
   modules never contend. Each shard is an independent table behind its
   own mutex; an entry, once inserted, is immutable, so a reference
   returned by a lookup stays valid after the lock is dropped. Shard
   locks are leaf-level: nothing is called while holding one except the
   decoder/blueprint builder (pure) and atomic counter bumps. *)
type shard = {
  mu : Mutex.t;
  tbl : (Fnv64.t, entry) Hashtbl.t;
  (* interpreter decodes, filled lazily on the first fast-engine run of
     a digest. A decode is immutable and carries no run state, so one is
     shared by every concurrent run. *)
  ptbl : (Fnv64.t, Omnivm.Interp.code) Hashtbl.t;
}

type t = {
  shards : shard array;
  c : Counters.t;
  persist : Omni_persist.Store.t option;
      (* write-behind: fresh admissions are journaled to disk under the
         shard lock, so the on-disk order is an admission order *)
}

(* A power of two, so a digest picks its shard with a mask. *)
let shards = 8

let create ?counters ?persist () =
  let c = match counters with Some c -> c | None -> Counters.create () in
  { shards = Array.init shards (fun _ ->
        { mu = Mutex.create (); tbl = Hashtbl.create 16;
          ptbl = Hashtbl.create 16 });
    c; persist }

let shard t (d : Fnv64.t) = t.shards.(Int64.to_int d land (shards - 1))

let locked mu f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

exception Collision of handle
exception Unknown_handle

(* The shard lock is held across decode + blueprint so that concurrent
   submits of the same new module stay exactly accounted: one of them
   inserts (counting [modules] and [bytes_stored] once), every other
   counts [dedup_hits]. Cold submits of same-shard modules serialize;
   distinct shards proceed in parallel. *)
let submit ?producer t bytes =
  let h = Fnv64.digest_string bytes in
  Metrics.incr t.c.Counters.submits;
  let s = shard t h in
  ( locked s.mu @@ fun () ->
    match Hashtbl.find_opt s.tbl h with
    | Some e ->
        if not (String.equal e.e_bytes bytes) then raise (Collision h);
        Metrics.incr t.c.Counters.dedup_hits
    | None ->
        let exe =
          Trace.phase "decode"
            ~attrs:[ ("bytes", string_of_int (String.length bytes)) ]
            (fun () -> Omnivm.Wire.decode bytes)
        in
        let bp = Omni_runtime.Loader.blueprint exe in
        Hashtbl.replace s.tbl h
          { e_bytes = bytes; e_exe = exe; e_blueprint = bp;
            e_producer = producer };
        Metrics.incr t.c.Counters.modules;
        Metrics.incr ~by:(String.length bytes) t.c.Counters.bytes_stored;
        (match t.persist with
        | Some p -> Omni_persist.Store.append_module p bytes
        | None -> ()) );
  h

(* Recovery re-admission: the bytes come from the persistent store's
   validated replay, so they count as modules held ([modules],
   [bytes_stored]) but not as client traffic ([submits], [dedup_hits])
   — and they are never re-journaled. *)
let restore t bytes =
  let h = Fnv64.digest_string bytes in
  let s = shard t h in
  ( locked s.mu @@ fun () ->
    match Hashtbl.find_opt s.tbl h with
    | Some _ -> ()
    | None ->
        let exe = Omnivm.Wire.decode bytes in
        let bp = Omni_runtime.Loader.blueprint exe in
        Hashtbl.replace s.tbl h
          { e_bytes = bytes; e_exe = exe; e_blueprint = bp;
            e_producer = None };
        Metrics.incr t.c.Counters.modules;
        Metrics.incr ~by:(String.length bytes) t.c.Counters.bytes_stored );
  h

let entry t h =
  let s = shard t h in
  match locked s.mu (fun () -> Hashtbl.find_opt s.tbl h) with
  | Some e -> e
  | None -> raise Unknown_handle

(* The shard lock is held across the decode (pure, like the wire decoder
   in [submit]) so the hit/miss accounting is exact under concurrency:
   the first fast run of a digest counts one miss and decodes; every
   other run — including ones racing the first — counts a hit and shares
   the same decode. *)
let predecoded t h =
  let s = shard t h in
  locked s.mu @@ fun () ->
  match Hashtbl.find_opt s.ptbl h with
  | Some p ->
      Metrics.incr t.c.Counters.predecode_hits;
      p
  | None -> (
      match Hashtbl.find_opt s.tbl h with
      | None -> raise Unknown_handle
      | Some e ->
          Metrics.incr t.c.Counters.predecode_misses;
          let p =
            Trace.phase "predecode" (fun () ->
                Omnivm.Interp.decode e.e_exe.Omnivm.Exe.text)
          in
          Hashtbl.replace s.ptbl h p;
          p)

let bytes t h = (entry t h).e_bytes
let exe t h = (entry t h).e_exe
let blueprint t h = (entry t h).e_blueprint
let producer t h = (entry t h).e_producer

let modules t =
  Array.fold_left
    (fun acc s -> acc + locked s.mu (fun () -> Hashtbl.length s.tbl))
    0 t.shards

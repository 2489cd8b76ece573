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

exception Collision of handle
exception Unknown_handle

(* The one insert, shared by [submit] and [restore]. The shard lock is
   held across decode + blueprint so that concurrent admissions of the
   same new module stay exactly accounted: one of them inserts (counting
   [modules] and [bytes_stored] once) and is told it was fresh; every
   other finds the entry. A fresh module is journaled under the same
   lock when [journal] is set, so no translation of it can reach the
   journal first. Cold admissions of same-shard modules serialize;
   distinct shards proceed in parallel. *)
let insert ?producer ~journal t bytes =
  let h = Fnv64.digest_string bytes in
  let s = shard t h in
  let fresh =
    Mutex.protect s.mu @@ fun () ->
    match Hashtbl.find_opt s.tbl h with
    | Some e ->
        if not (String.equal e.e_bytes bytes) then raise (Collision h);
        false
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
        | Some p when journal -> Omni_persist.Store.append_module p bytes
        | _ -> ());
        true
  in
  (h, fresh)

let submit ?producer t bytes =
  Metrics.incr t.c.Counters.submits;
  let h, fresh = insert ?producer ~journal:true t bytes in
  if not fresh then Metrics.incr t.c.Counters.dedup_hits;
  h

(* Recovery re-admission: the bytes come from the persistent store's
   validated replay, so they count as modules held but not as client
   traffic ([submits], [dedup_hits]), and they are never re-journaled. *)
let restore t bytes = fst (insert ~journal:false t bytes)

let find t d =
  let s = shard t d in
  if Mutex.protect s.mu (fun () -> Hashtbl.mem s.tbl d) then Some d else None

let entry t h =
  let s = shard t h in
  match Mutex.protect s.mu (fun () -> Hashtbl.find_opt s.tbl h) with
  | Some e -> e
  | None -> raise Unknown_handle

(* The shard lock is held across the decode (pure, like the wire decoder
   in [submit]) so the hit/miss accounting is exact under concurrency:
   the first fast run of a digest counts one miss and decodes; every
   other run — including ones racing the first — counts a hit and shares
   the same decode. *)
let predecoded t h =
  let s = shard t h in
  Mutex.protect s.mu @@ fun () ->
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
    (fun acc s -> acc + Mutex.protect s.mu (fun () -> Hashtbl.length s.tbl))
    0 t.shards

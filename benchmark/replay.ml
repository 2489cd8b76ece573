(* The traced replay: one request as an explicit chain of the public calls
   that [omnid] and [Service.instantiate] compose, each wrapped in a span.

   Layer by layer, in request order: the protocol codec ([Omni_net]
   Message + Frame), the module store, the translation cache (a hit is a
   certificate check; a miss translates and certifies), the loader, and
   the execution engine. Over the wire both directions are encoded and
   decoded, as client and server would; in-process requests skip the
   codec. *)

module Exec = Omni_service.Exec
module Store = Omni_service.Store
module Cache = Omni_service.Cache
module Counters = Omni_service.Counters
module Metrics = Omni_obs.Metrics
module Machine = Omni_targets.Machine
module Frame = Omni_net.Frame
module Message = Omni_net.Message

type t = {
  led : Ledger.t;
  wire : bool;
  counters : Counters.t;
  store : Store.t;
  cache : Cache.t;
  mutable bytes : int;  (** frame bytes both ways *)
}

(* A fresh store and cache shaped like the service's defaults. *)
let create ~wire ~counters led =
  {
    led;
    wire;
    counters;
    store = Store.create ~counters ();
    cache = Cache.create counters;
    bytes = 0;
  }

let decode_frame s =
  match Frame.decode s ~pos:0 with
  | Ok (fr, _) -> fr
  | Error e -> failwith ("frame: " ^ Frame.error_to_string e)

let ok = function Ok v -> v | Error msg -> failwith ("message: " ^ msg)

(* One message across the codec: encode on the sending side, decode on
   the receiving one. *)
let send t encode decode msg =
  let bytes =
    Ledger.span t.led "net.encode" (fun () -> Frame.encode (encode msg))
  in
  t.bytes <- t.bytes + String.length bytes;
  Ledger.span t.led "net.decode" (fun () -> ok (decode (decode_frame bytes)))

let request t req =
  if t.wire then send t Message.encode_req Message.decode_req req else req

let respond t resp =
  if t.wire then send t Message.encode_resp Message.decode_resp resp else resp

let submit t wire_bytes =
  match request t (Message.Submit wire_bytes) with
  | Message.Submit bytes ->
      let h = Ledger.span t.led "store.submit" (fun () -> Store.submit t.store bytes) in
      ignore (respond t (Message.Submitted (Store.digest h)));
      h
  | _ -> failwith "submit: request changed in transit"

(* The translation configuration a Run with SFI on resolves to. *)
let sandboxed arch =
  (Machine.Mobile (Omni_sfi.Policy.make ()), Exec.mobile_opts arch)

let cache_key h arch =
  let mode, opts = sandboxed arch in
  Cache.key ~digest:(Store.digest h) ~arch ~mode ~opts

let translated t h exe arch =
  let misses = Metrics.value t.counters.Counters.misses in
  Ledger.span_dyn t.led
    (fun () ->
      if Metrics.value t.counters.Counters.misses > misses then "cache.miss"
      else "cache.hit")
    (fun () -> Cache.find_or_translate t.cache (cache_key h arch) exe)

let run_spec h engine =
  Message.Run
    {
      Message.rs_handle = Store.digest h;
      rs_engine = engine;
      rs_sfi = true;
      rs_mode = Message.M_default;
      rs_fuel = None;
      rs_deadline_s = None;
      rs_want_cert = false;
    }

let run t h engine =
  let engine =
    match request t (run_spec h engine) with
    | Message.Run rs -> rs.Message.rs_engine
    | _ -> failwith "run: request changed in transit"
  in
  let exe, bp, program =
    Ledger.span t.led "store.lookup" (fun () ->
        ( Store.exe t.store h,
          Store.blueprint t.store h,
          match engine with
          | Exec.Fast -> Some (Store.predecoded t.store h)
          | _ -> None ))
  in
  let tr =
    match engine with
    | Exec.Target arch -> Some (translated t h exe arch)
    | _ -> None
  in
  let img =
    Ledger.span t.led "runtime.load" (fun () ->
        Omni_runtime.Loader.instantiate bp)
  in
  let res =
    Ledger.span t.led ("exec.run." ^ Exec.engine_name engine) (fun () ->
        match (tr, program) with
        | Some tr, _ -> Exec.run_translated tr img
        | None, Some program -> Exec.run_fast ~program img
        | None, None -> Exec.run_interp img)
  in
  match respond t (Message.Ran (res, None)) with
  | Message.Ran (res, _) -> res
  | _ -> failwith "run: response changed in transit"

(* Fill the cache and the pre-decoded programs a run of [engine] will
   reuse, without running anything and outside any span. *)
let prime t h engine =
  match engine with
  | Exec.Interp -> ()
  | Exec.Fast -> ignore (Store.predecoded t.store h)
  | Exec.Target arch ->
      ignore
        (Cache.find_or_translate t.cache (cache_key h arch) (Store.exe t.store h))

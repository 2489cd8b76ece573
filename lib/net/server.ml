(* The serve loop: frames in, frames out, the process never dies.

   Dispatch is three layers of admission, each mapping failure to a
   typed Error response: the frame codec (magic/version/length/checksum),
   the message codec (tags/bounds), and the service itself (module
   decode, segment fit, digest lookup in the store, SFI verification).
   Only a framing-level failure costs the connection — once the byte
   stream is out of sync there is no safe way to find the next frame —
   and even then the client is told why first.

   On top of dispatch sit the admission quotas: module size, fuel
   ceiling, per-connection request and byte caps. A quota refusal is an
   ordinary E_limit_exceeded response — typed, counted
   (net.limit.rejected), terminal for the client's retry policy. *)

module Service = Omni_service.Service
module Store = Omni_service.Store
module Cache = Omni_service.Cache
module Supervise = Omni_service.Supervise
module Metrics = Omni_obs.Metrics
module Trace = Omni_obs.Trace
module M = Message

type config = {
  max_frame : int;
  read_timeout_s : float;
  max_module_bytes : int;
  max_fuel : int;
  max_requests_per_conn : int;
  max_conn_bytes : int;
  max_deadline_s : float;
  require_cert : bool;
  pool_size : int;
  queue_depth : int;
  fair_slice : int;
}

let default_config =
  {
    max_frame = Frame.max_payload;
    read_timeout_s = 30.;
    max_module_bytes = 0;
    max_fuel = 0;
    max_requests_per_conn = 0;
    max_conn_bytes = 0;
    max_deadline_s = 0.;
    require_cert = false;
    pool_size = 1;
    queue_depth = 64;
    fair_slice = 32;
  }

type session = { mutable s_requests : int; mutable s_bytes : int }

let new_session () = { s_requests = 0; s_bytes = 0 }

type t = {
  svc : Service.t;
  cfg : config;
  tracer : Trace.t;
  (* each domain traces into its own clone of [tracer] (shared sink and
     registry, private span stack), so pool workers cannot corrupt one
     another's stacks; lazily initialized per domain *)
  local_tracer : Trace.t Domain.DLS.key;
  (* net.* counters, registered in the service's own registry *)
  connections : Metrics.counter;
  requests : Metrics.counter;
  req_ping : Metrics.counter;
  req_submit : Metrics.counter;
  req_run : Metrics.counter;
  req_stats : Metrics.counter;
  errors : Metrics.counter;
  frame_errors : Metrics.counter;
  limit_rejected : Metrics.counter;
  timeouts : Metrics.counter;
  reads : Metrics.counter;
  bytes_in : Metrics.counter;
  bytes_out : Metrics.counter;
  overloaded : Metrics.counter;
}

let create ?(config = default_config) ?tracer svc =
  let reg = Service.metrics svc in
  let tracer =
    match tracer with
    | Some t -> t
    | None -> Trace.make ~metrics:reg Trace.Null
  in
  let c name = Metrics.counter reg name in
  {
    svc;
    cfg = config;
    tracer;
    local_tracer = Domain.DLS.new_key (fun () -> Trace.clone tracer);
    connections = c "net.connections";
    requests = c "net.requests";
    req_ping = c "net.req.ping";
    req_submit = c "net.req.submit";
    req_run = c "net.req.run";
    req_stats = c "net.req.stats";
    errors = c "net.errors";
    frame_errors = c "net.frame_errors";
    limit_rejected = c "net.limit.rejected";
    timeouts = c "net.timeouts";
    reads = c "net.reads";
    bytes_in = c "net.bytes_in";
    bytes_out = c "net.bytes_out";
    overloaded = c "net.overloaded";
  }

let service t = t.svc
let config t = t.cfg

let req_name = function
  | M.Ping -> "ping"
  | M.Submit _ -> "submit"
  | M.Run _ -> "run"
  | M.Stats -> "stats"

(* The safety certificate the cache holds for this run configuration, if
   any. Only translated runs have one; a [peek], so recency is not
   perturbed. *)
let certificate_for t ~engine ~sfi ~mode h =
  match engine with
  | Omni_service.Exec.Interp -> None
  | Omni_service.Exec.Fast -> None
  | Omni_service.Exec.Target arch ->
      Service.certificate ~sfi ?mode ~arch t.svc h

let dispatch t (req : M.req) : M.resp =
  match req with
  | M.Ping -> M.Pong
  | M.Stats ->
      M.Stats_json (Metrics.to_json (Metrics.snapshot (Service.metrics t.svc)))
  | M.Submit bytes when
      t.cfg.max_module_bytes > 0
      && String.length bytes > t.cfg.max_module_bytes ->
      M.Error
        ( M.E_limit_exceeded,
          Printf.sprintf "module is %d bytes; this server admits at most %d"
            (String.length bytes) t.cfg.max_module_bytes )
  | M.Submit bytes -> (
      match Service.submit t.svc bytes with
      | h -> M.Submitted (Store.digest h)
      | exception Omnivm.Wire.Bad_module msg -> M.Error (M.E_decode, msg)
      | exception Invalid_argument msg -> M.Error (M.E_limit_exceeded, msg)
      | exception Store.Collision _ ->
          M.Error (M.E_internal, "content digest collision"))
  | M.Run rs when
      t.cfg.max_fuel > 0
      && (match rs.M.rs_fuel with Some f -> f > t.cfg.max_fuel | None -> false)
    ->
      M.Error
        ( M.E_limit_exceeded,
          Printf.sprintf "fuel %d exceeds this server's ceiling of %d"
            (Option.get rs.M.rs_fuel) t.cfg.max_fuel )
  | M.Run rs when
      (match rs.M.rs_deadline_s with
      | Some d ->
          (not (Float.is_finite d))
          || d < 0.
          || (t.cfg.max_deadline_s > 0. && d > t.cfg.max_deadline_s)
      | None -> false) ->
      M.Error
        ( M.E_limit_exceeded,
          Printf.sprintf
            "deadline %gs is invalid or exceeds this server's ceiling of %gs"
            (Option.get rs.M.rs_deadline_s) t.cfg.max_deadline_s )
  | M.Run rs -> (
      (* the wire names a module by digest; the store is the one index *)
      match Service.find t.svc rs.M.rs_handle with
      | None ->
          M.Error
            ( M.E_unknown_handle,
              Printf.sprintf "no module %s on this server"
                (Omni_util.Fnv64.to_hex rs.M.rs_handle) )
      | Some h -> (
          (* an unfueled request runs under the server's ceiling, if any;
             deadlines resolve the same way *)
          let fuel =
            match (rs.M.rs_fuel, t.cfg.max_fuel) with
            | (Some _ as f), _ -> f
            | None, 0 -> None
            | None, m -> Some m
          in
          let deadline_s =
            match (rs.M.rs_deadline_s, t.cfg.max_deadline_s) with
            | (Some _ as d), _ -> d
            | None, 0. -> None
            | None, m -> Some m
          in
          (* M_default is [None]: the service hands the decision to
             Exec.resolve, as a local run does — the bit-identity
             guarantee. *)
          let mode = M.mode_of_spec rs.M.rs_mode in
          match
            Service.instantiate ~engine:rs.M.rs_engine ~sfi:rs.M.rs_sfi
              ?mode ?fuel ?deadline_s t.svc h
          with
          | r -> (
              (* The run's admission path already validated the witness
                 (fresh translations are certified, cache hits are
                 witness-checked), so attaching is a cache peek plus an
                 encode. In require-cert mode a translated run whose
                 configuration yields no certificate (SFI off, Guard
                 mode, native baseline) is refused: this daemon only
                 serves runs whose safety it can hand over. The
                 reference interpreter carries no translation and is
                 exempt. *)
              let sent = rs.M.rs_want_cert || t.cfg.require_cert in
              let cert =
                if sent then
                  certificate_for t ~engine:rs.M.rs_engine ~sfi:rs.M.rs_sfi
                    ~mode h
                else None
              in
              match (cert, t.cfg.require_cert, rs.M.rs_engine) with
              | None, true, Omni_service.Exec.Target _ ->
                  M.Error
                    ( M.E_certificate_invalid,
                      "this server requires certified translations; this \
                       run configuration has no safety certificate" )
              | _ -> M.Ran (r, Option.map Omni_cert.Certificate.encode cert))
          | exception Cache.Rejected msg ->
              M.Error (M.E_verifier_rejected, msg)
          | exception Omni_targets.Translate.Translate_error msg ->
              M.Error (M.E_decode, msg)
          | exception Store.Unknown_handle ->
              M.Error (M.E_unknown_handle, "handle expired")
          | exception Invalid_argument msg ->
              M.Error (M.E_limit_exceeded, msg)
          | exception Supervise.Quarantine.Quarantined { digest; fault; _ }
            ->
              M.Error
                ( M.E_quarantined,
                  Printf.sprintf
                    "module %s is quarantined after repeated faults \
                     (fault-code=%d %s)"
                    (Omni_util.Fnv64.to_hex digest)
                    (Omnivm.Fault.code fault)
                    (Omnivm.Fault.to_string fault) )
          (* A fault that escapes as an exception (rather than a Faulted
             outcome) is still the module's crash, not the daemon's: give
             it its own class so clients do not retry it as an internal
             hiccup. *)
          | exception Omnivm.Fault.Vm_fault f ->
              M.Error (M.E_module_fault, M.fault_message f)))

let handle_request t (req : M.req) : M.resp =
  Metrics.incr t.requests;
  Metrics.incr
    (match req with
    | M.Ping -> t.req_ping
    | M.Submit _ -> t.req_submit
    | M.Run _ -> t.req_run
    | M.Stats -> t.req_stats);
  let resp =
    Trace.with_current (Domain.DLS.get t.local_tracer) (fun () ->
        Trace.phase "net.request" ~attrs:[ ("msg", req_name req) ] (fun () ->
            try dispatch t req
            with e ->
              M.Error
                ( M.E_internal,
                  "unexpected exception: " ^ Printexc.to_string e )))
  in
  (match resp with M.Error _ -> Metrics.incr t.errors | _ -> ());
  resp

let send_resp t conn resp =
  (* every limit refusal, whatever produced it, is counted here *)
  (match resp with
  | M.Error (M.E_limit_exceeded, _) -> Metrics.incr t.limit_rejected
  | _ -> ());
  let bytes = Frame.encode (M.encode_resp resp) in
  Metrics.incr ~by:(String.length bytes) t.bytes_out;
  Transport.send conn bytes

(* A session-quota refusal: answer, count, drop the connection. The
   client may re-dial for a fresh session. *)
let over_quota t conn msg =
  Metrics.incr t.requests;
  Metrics.incr t.errors;
  send_resp t conn (M.Error (M.E_limit_exceeded, msg));
  `Closed

(* One frame off the connection, its read(2) calls added to net.reads
   whether it arrives, fails or times out. *)
let read_frame t conn =
  let before = Transport.reads conn in
  let count () = Metrics.incr ~by:(Transport.reads conn - before) t.reads in
  match Frame.read ~max:t.cfg.max_frame (Transport.recv conn) with
  | r ->
      count ();
      r
  | exception e ->
      count ();
      raise e

let step ?session t conn =
  match read_frame t conn with
  | Error Frame.Eof -> `Closed
  | Error e ->
      (* Framing is lost: answer with a typed error, then drop the
         connection. The daemon itself keeps serving. Every frame-level
         failure — including an oversized declared length, which is
         indistinguishable from a corrupted length field — is
         E_bad_frame: damaged in transit, retryable. Size admission
         proper (max_module_bytes) happens at dispatch, where the bytes
         are intact and the refusal is honest. *)
      Metrics.incr t.frame_errors;
      Metrics.incr t.requests;
      Metrics.incr t.errors;
      send_resp t conn (M.Error (M.E_bad_frame, Frame.error_to_string e));
      `Closed
  | Ok fr -> (
      let frame_bytes = Frame.header_size + String.length fr.Frame.payload in
      Metrics.incr ~by:frame_bytes t.bytes_in;
      let quota =
        match session with
        | None -> Ok ()
        | Some s ->
            s.s_requests <- s.s_requests + 1;
            s.s_bytes <- s.s_bytes + frame_bytes;
            if
              t.cfg.max_requests_per_conn > 0
              && s.s_requests > t.cfg.max_requests_per_conn
            then
              Error
                (Printf.sprintf "connection exceeded its request cap of %d"
                   t.cfg.max_requests_per_conn)
            else if t.cfg.max_conn_bytes > 0 && s.s_bytes > t.cfg.max_conn_bytes
            then
              Error
                (Printf.sprintf "connection exceeded its byte cap of %d"
                   t.cfg.max_conn_bytes)
            else Ok ()
      in
      match quota with
      | Error msg -> over_quota t conn msg
      | Ok () ->
          let resp =
            match M.decode_req fr with
            | Ok req -> handle_request t req
            | Error msg ->
                Metrics.incr t.requests;
                Metrics.incr t.errors;
                M.Error (M.E_decode, "bad request: " ^ msg)
          in
          send_resp t conn resp;
          `Handled)

let serve_conn t conn =
  Metrics.incr t.connections;
  Transport.set_read_timeout conn t.cfg.read_timeout_s;
  let session = new_session () in
  let rec loop () =
    match step ~session t conn with
    | `Handled -> loop ()
    | `Closed -> ()
    | exception Transport.Timeout -> Metrics.incr t.timeouts
    | exception _ -> Metrics.incr t.errors
  in
  Fun.protect ~finally:(fun () -> Transport.close conn) loop

(* --- the domain pool --- *)

(* The accept loop becomes a producer: it offers each accepted
   connection to a bounded queue and sheds with a typed E_overloaded
   refusal when the queue is full — backpressure a client's retry
   policy can absorb, instead of unbounded queueing the host cannot.

   Fairness: a worker serves at most [fair_slice] requests from one
   connection, then, if other connections are waiting, parks it back on
   the queue and takes the next — one chatty tenant cannot monopolize a
   worker while others starve. A parked connection keeps its session,
   so per-connection quotas span parks. *)

type pool = {
  srv : t;
  wq : (Transport.conn * session) Workq.t;
  mutable workers : unit Domain.t list;
}

let pool_create t =
  { srv = t; wq = Workq.create ~depth:(max 1 t.cfg.queue_depth) ();
    workers = [] }

let pool_offer pool conn =
  let t = pool.srv in
  Metrics.incr t.connections;
  Transport.set_read_timeout conn t.cfg.read_timeout_s;
  if Workq.try_push pool.wq (conn, new_session ()) then `Queued
  else begin
    (* refused before any work: safe and explicitly retryable *)
    Metrics.incr t.overloaded;
    Metrics.incr t.errors;
    (try
       send_resp t conn
         (M.Error
            ( M.E_overloaded,
              Printf.sprintf
                "server work queue is full (%d connections waiting); retry \
                 with backoff"
                (Workq.length pool.wq) ))
     with _ -> ());
    (try Transport.close conn with _ -> ());
    `Shed
  end

(* Serve one connection until it closes or its slice runs out with
   others waiting. Parking can fail (the queue filled meanwhile); then
   the worker just keeps serving — a live connection is never dropped
   for fairness. *)
let rec drain pool conn session budget =
  let t = pool.srv in
  match step ~session t conn with
  | `Closed -> Transport.close conn
  | exception Transport.Timeout ->
      Metrics.incr t.timeouts;
      Transport.close conn
  | exception _ ->
      Metrics.incr t.errors;
      Transport.close conn
  | `Handled ->
      if
        budget <= 1
        && Workq.length pool.wq > 0
        && Workq.try_push pool.wq (conn, session)
      then () (* parked; whichever worker pops it resumes the session *)
      else
        drain pool conn session
          (if budget <= 1 then t.cfg.fair_slice else budget - 1)

let worker_loop pool =
  let rec next () =
    match Workq.pop pool.wq with
    | None -> () (* closed: do not start new work *)
    | Some (conn, session) ->
        drain pool conn session pool.srv.cfg.fair_slice;
        next ()
  in
  next ()

let pool_start pool =
  if pool.workers <> [] then invalid_arg "Server.pool_start: already started";
  pool.workers <-
    List.init
      (max 1 pool.srv.cfg.pool_size)
      (fun _ -> Domain.spawn (fun () -> worker_loop pool))

let pool_stop pool =
  Workq.close pool.wq;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  (* dispose of connections the close abandoned *)
  let rec drop () =
    match Workq.try_pop pool.wq with
    | None -> ()
    | Some (conn, _) ->
        (try Transport.close conn with _ -> ());
        drop ()
  in
  drop ()

(* --- sockets --- *)

let listen addr =
  (match addr with
  | Transport.Unix_sock path -> (
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Transport.Tcp _ -> ());
  let domain =
    match addr with
    | Transport.Unix_sock _ -> Unix.PF_UNIX
    | Transport.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Transport.sockaddr_of_address addr);
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let accept_loop ~stop listen_fd handle =
  while not (stop ()) do
    (* poll so [stop] is consulted even with no traffic *)
    match Unix.select [ listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept listen_fd with
        | fd, _ -> handle (Transport.of_fd ~descr:"client" fd)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve ?(stop = fun () -> false) t listen_fd =
  if t.cfg.pool_size <= 1 then
    (* the pre-pool path, unchanged: accept, serve to completion, repeat *)
    accept_loop ~stop listen_fd (serve_conn t)
  else begin
    let pool = pool_create t in
    pool_start pool;
    Fun.protect
      ~finally:(fun () -> pool_stop pool)
      (fun () ->
        accept_loop ~stop listen_fd (fun conn ->
            ignore (pool_offer pool conn)))
  end

(* The calling side. A call is one frame out, one frame in; resilience
   is layered on top as pure policy: classify what went wrong, and when
   it is transient and the policy allows, abandon the connection,
   re-dial, and send again. Submit and Run are idempotent (deterministic
   execution over a content-addressed store), so a retry after a lost
   response is safe — at worst the server does the same work twice and
   answers the same bytes. *)

module Exec = Omni_service.Exec
module Trace = Omni_obs.Trace
module M = Message

exception Remote_error of M.err_class * string
exception Protocol_error of string
exception Connection_lost of string

type t = {
  mutable conn : Transport.conn;
  redial : (unit -> Transport.conn) option;
  env : Retry.env;
  retry : Retry.policy option;
}

let of_conn ?retry ?(env = Retry.sys_env) conn =
  { conn; redial = None; env; retry }

let connect ?retry ?(env = Retry.sys_env) ?(read_timeout = 0.) addr =
  let dial () =
    let conn = Transport.connect addr in
    if read_timeout > 0. then Transport.set_read_timeout conn read_timeout;
    conn
  in
  { conn = dial (); redial = Some dial; env; retry }

let loopback ?retry ?(env = Retry.sys_env) ?fault server =
  let dial () =
    let client_end, server_end = Transport.pair ~name:"loopback" () in
    let session = Server.new_session () in
    (* When the client waits for a response, run the server for one
       request — a synchronous cycle with no threads, no descriptors. *)
    Transport.on_stall client_end (fun () ->
        ignore (Server.step ~session server server_end));
    match fault with
    | None -> client_end
    | Some armed -> Fault.wrap armed client_end
  in
  { conn = dial (); redial = Some dial; env; retry }

let close t = Transport.close t.conn
let descr t = Transport.descr t.conn

let classify = function
  | Connection_lost _ -> Retry.Retryable
  | Remote_error (M.E_bad_frame, _) -> Retry.Retryable
  (* an overloaded refusal happens before any work, so a backed-off
     resend is both safe and the intended recovery *)
  | Remote_error (M.E_overloaded, _) -> Retry.Retryable
  | e -> Retry.classify e

let call_once t req =
  Transport.send t.conn (Frame.encode (M.encode_req req));
  match Frame.read (Transport.recv t.conn) with
  | Error e ->
      (* The response never arrived intact: the stream ended, stalled, or
         carried a damaged frame. The connection is unusable — but the
         request may simply be re-sent on a fresh one. *)
      raise (Connection_lost (Frame.error_to_string e))
  | Ok fr -> (
      match M.decode_resp fr with
      | Error msg -> raise (Protocol_error msg)
      | Ok (M.Error (cls, msg)) -> raise (Remote_error (cls, msg))
      | Ok resp -> resp)

let call t req =
  match t.retry with
  | None -> call_once t req
  | Some policy ->
      let redial () =
        match t.redial with
        | Some d ->
            (try Transport.close t.conn with _ -> ());
            t.conn <- d ()
        | None -> ()
      in
      Retry.run ~env:t.env
        ~on_retry:(fun ~attempt:_ ~delay_s:_ _ ->
          Trace.count "net.retry";
          redial ())
        ~classify policy
        (fun ~attempt ->
          Trace.phase "net.attempt"
            ~attrs:[ ("n", string_of_int attempt) ]
            (fun () -> call_once t req))

let unexpected what = raise (Protocol_error ("unexpected response to " ^ what))

let ping t = match call t M.Ping with M.Pong -> () | _ -> unexpected "ping"

let submit t bytes =
  match call t (M.Submit bytes) with
  | M.Submitted d -> d
  | _ -> unexpected "submit"

let run_cert ?(engine = Exec.Interp) ?(sfi = true) ?(mode = M.M_default)
    ?fuel ?deadline_s ?(want_cert = false) t handle =
  match
    call t
      (M.Run
         {
           M.rs_handle = handle;
           rs_engine = engine;
           rs_sfi = sfi;
           rs_mode = mode;
           rs_fuel = fuel;
           rs_deadline_s = deadline_s;
           rs_want_cert = want_cert;
         })
  with
  | M.Ran (r, cert) -> (r, cert)
  | _ -> unexpected "run"

let run ?engine ?sfi ?mode ?fuel ?deadline_s t handle =
  fst (run_cert ?engine ?sfi ?mode ?fuel ?deadline_s t handle)

let stats_json t =
  match call t M.Stats with
  | M.Stats_json j -> j
  | _ -> unexpected "stats"

(** The client side: submit and run mobile modules against a daemon.

    One synchronous request/response call per operation. Three ways to
    get a connection: {!connect} (a live [omnid] over a Unix or TCP
    socket), {!of_conn} (any transport), and {!loopback} (an in-process
    server over the in-memory pair — byte-for-byte the same protocol,
    zero scheduling nondeterminism; what the tests and the remote
    benchmark use).

    Every constructor takes an optional {!Retry.policy}. With one, a
    {!call} that fails transiently — read timeout, lost connection,
    frame damaged in transit ([E_bad_frame]) — abandons the connection,
    re-dials (sockets re-connect the address; loopbacks open a fresh
    pair and session), and re-sends, under the policy's backoff and
    deadline. Submit and Run are safe to retry: execution is
    deterministic and the store content-addressed, so a duplicate
    delivery yields the same handle and the same result. Terminal
    responses ([E_decode], [E_verifier_rejected], [E_limit_exceeded],
    [E_module_fault], [E_quarantined], …) are never retried — in
    particular a crashed module stays crashed on every retry, which is
    exactly what [E_module_fault]'s dedicated class (rather than
    [E_internal]) lets a client conclude. Each scheduled retry bumps [net.retry] on the
    ambient tracer's registry, and each attempt runs under a
    ["net.attempt"] span. *)

module Exec = Omni_service.Exec

exception Remote_error of Message.err_class * string
(** The server answered with a typed protocol error. *)

exception Protocol_error of string
(** The byte stream is speaking the protocol wrongly at the semantic
    level: undecodable response message, or a response kind that does
    not answer the request. Terminal — retrying cannot help. *)

exception Connection_lost of string
(** The response never arrived intact: end of stream, truncation, or a
    frame damaged in transit. The connection is unusable, but the
    request may be re-sent on a fresh one — retryable. *)

type t

val connect :
  ?retry:Retry.policy ->
  ?env:Retry.env ->
  ?read_timeout:float ->
  Transport.address ->
  t
(** [read_timeout] (seconds, default none) bounds each response read so
    a stalled daemon surfaces as {!Transport.Timeout} instead of a hang;
    it is re-applied on every re-dial.
    @raise Unix.Unix_error when the daemon is not reachable (the initial
    dial is not retried — wrap {!connect} itself if that is wanted). *)

val of_conn : ?retry:Retry.policy -> ?env:Retry.env -> Transport.conn -> t
(** No re-dial is possible: with [retry], transient failures are
    re-attempted on the {e same} connection (useful only if it can
    recover — otherwise the retry loop fails fast on the dead wire). *)

val loopback :
  ?retry:Retry.policy ->
  ?env:Retry.env ->
  ?fault:Fault.armed ->
  Server.t ->
  t
(** A connection to [server] over the in-memory pair transport: each
    client read hands control to the server for one {!Server.step},
    under a fresh per-dial {!Server.session}. [fault] wraps every dialed
    connection with the given armed plan — the fault-matrix tests drive
    exactly this. *)

val close : t -> unit
val descr : t -> string

val classify : exn -> Retry.verdict
(** The client's retry classification: {!Connection_lost},
    [Remote_error (E_bad_frame, _)], [Remote_error (E_overloaded, _)]
    (the server shed the request before doing any work), and everything
    {!Retry.classify} deems transient (timeouts, connection-level
    [Unix_error]s) are [Retryable]; all other errors — including every
    other {!Remote_error} class — are [Terminal]. *)

val call : t -> Message.req -> Message.resp
(** Send one request, read one response — under the retry policy, if
    the client has one. Raises {!Remote_error} on an [Error] response,
    {!Connection_lost} on wire trouble, {!Protocol_error} on semantic
    protocol violation; the typed wrappers below are the usual
    interface. *)

val ping : t -> unit

val submit : t -> string -> int64
(** Admit wire-format module bytes; returns the content handle
    ({!Omni_util.Fnv64} digest) to pass to {!run}. *)

val run :
  ?engine:Exec.engine ->
  ?sfi:bool ->
  ?mode:Message.mode_spec ->
  ?fuel:int ->
  ?deadline_s:float ->
  t ->
  int64 ->
  Exec.run_result
(** Execute a submitted module remotely. Defaults mirror [Api.run]:
    interpreter engine, SFI on, derived mode, server-default fuel and
    wall-clock deadline. A module that exceeds [deadline_s] faults with
    [Deadline_exceeded], reported in the result's outcome like any other
    fault. *)

val run_cert :
  ?engine:Exec.engine ->
  ?sfi:bool ->
  ?mode:Message.mode_spec ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?want_cert:bool ->
  t ->
  int64 ->
  Exec.run_result * string option
(** Like {!run}, but with [~want_cert:true] also returns the encoded
    [omni-cert/1] safety certificate the server holds for this
    translation ([None] for interpreter runs, uncertified configurations,
    or servers that predate certificates — the response arity is the
    same either way). Decode with [Omni_cert.Certificate.decode]. *)

val stats_json : t -> string
(** The daemon's whole metrics registry as one JSON line
    ({!Omni_obs.Metrics.to_json}): serving counters, [net.*] counters
    and [phase.*] histograms. *)

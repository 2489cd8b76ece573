(** The serving side of the distribution protocol.

    A server wraps an {!Omni_service.Service} — the content-addressed
    store and memoizing translation cache — behind the frame protocol.
    The network boundary is the SFI admission boundary: every incoming
    frame is untrusted, so every failure anywhere in
    decode/load/translate/verify/execute maps to a typed
    {!Message.Error} response and the process keeps serving. The only
    way a connection ends is end-of-stream, a read timeout, a frame so
    malformed that framing sync is lost (bad magic, bad version,
    oversized or corrupt frame), or a blown session quota — and even
    then the {e daemon} survives; only that connection closes, after the
    client is sent the typed error.

    A Run names its module by content digest, and the server resolves it
    in the service's store ({!Service.find}), the one digest index; the
    server keeps no table of its own. So any module the store holds is
    runnable by digest: one submitted on an earlier connection, by an
    in-process caller of the same service, or restored from the journal
    after a restart, with no resubmit.

    Admission quotas ({!config}) bound what any one client can ask for:
    module size, fuel per run, requests and bytes per connection. Every
    quota refusal is an ordinary [E_limit_exceeded] response — typed,
    terminal for the client's retry policy, and counted under
    [net.limit.rejected].

    Observability: [net.*] counters (connections, requests by kind,
    error responses by class, limit rejections, bytes in/out, frame
    errors, timeouts, and [net.reads], the [read(2)] calls made on
    client sockets) are registered in the service's own metrics
    registry, and every request runs under a ["net.request"] span on the
    server's tracer, so remote serving lands in the same registry/tracer
    as the rest of the pipeline. *)

module Service = Omni_service.Service

type config = {
  max_frame : int;  (** payload cap enforced before allocation *)
  read_timeout_s : float;
      (** per-request socket read timeout; 0. disables *)
  max_module_bytes : int;
      (** largest module a Submit may carry; 0 = unlimited *)
  max_fuel : int;
      (** fuel ceiling per Run: explicit requests above it are refused,
          unfueled requests are clamped to it; 0 = unlimited *)
  max_requests_per_conn : int;
      (** requests admitted per connection before it is closed with a
          limit refusal; 0 = unlimited *)
  max_conn_bytes : int;
      (** total frame bytes admitted per connection; 0 = unlimited *)
  max_deadline_s : float;
      (** wall-clock deadline ceiling per Run: explicit requests above it
          (or non-finite/negative) are refused, deadline-less requests
          are clamped to it; 0. = unlimited *)
  require_cert : bool;
      (** refuse translated runs whose configuration yields no safety
          certificate (SFI off, Guard mode, native baselines) with
          [E_certificate_invalid], and attach the certificate to every
          [Ran] response; the reference interpreter is exempt (it runs
          no translated code). What [omnid --require-cert] sets. *)
  pool_size : int;
      (** worker domains draining the accept queue; 1 (the default)
          keeps the sequential accept-serve loop *)
  queue_depth : int;
      (** connections the accept queue holds before {!serve} sheds new
          ones with a typed [E_overloaded] refusal (clamped to >= 1) *)
  fair_slice : int;
      (** requests one worker serves from one connection before parking
          it behind waiting connections — per-tenant fairness *)
}

val default_config : config
(** {!Frame.max_payload}, a 30 s read timeout, every quota unlimited,
    certificates optional, pool of 1 (sequential), queue depth 64,
    fair slice 32. *)

type t

val create : ?config:config -> ?tracer:Omni_obs.Trace.t -> Service.t -> t
(** [tracer] defaults to a [Null]-sink tracer over the service's
    metrics registry — no span storage, but per-phase [phase.*]
    histograms (including [phase.net.request]) still accumulate. *)

val service : t -> Service.t
val config : t -> config

(** Per-connection accounting for the session quotas. *)
type session

val new_session : unit -> session
(** A fresh session — what {!serve_conn} opens per accepted connection,
    and what the loopback client opens per dial. *)

val handle_request : t -> Message.req -> Message.resp
(** Dispatch one already-decoded request. Never raises: exceptions from
    the service layers are mapped to {!Message.Error} classes —
    malformed module bytes to [E_decode], quota and segment-fit
    violations to [E_limit_exceeded], a Run digest the service's store
    does not hold to [E_unknown_handle], SFI verifier refusals to
    [E_verifier_rejected], quarantined modules to [E_quarantined],
    module crashes that escape as exceptions to [E_module_fault]
    (message prefixed with the fault code — see
    {!Message.fault_code_of_message}), anything else to [E_internal]. *)

val step : ?session:session -> t -> Transport.conn -> [ `Handled | `Closed ]
(** Read one frame, answer it. [`Closed] means the connection is done:
    clean end of stream, a framing-level error, or a blown session quota
    (the typed [Error] response is sent first). Every framing-level
    error — bad magic, bad version, checksum mismatch, truncation, and
    an oversized declared length (indistinguishable from a corrupted
    length field) — answers [E_bad_frame], retryable; module-size
    admission proper is [max_module_bytes], refused at dispatch with
    [E_limit_exceeded]. Without [session] the per-connection quotas are
    not enforced. The in-memory loopback drives this directly. *)

val serve_conn : t -> Transport.conn -> unit
(** [step] until [`Closed] (or a read timeout), then close the
    connection; runs under a fresh {!session}. Never raises. *)

(** {1 The domain pool}

    With [pool_size > 1], {!serve} becomes a producer: accepted
    connections are offered to a bounded {!Workq} drained by a pool of
    worker domains. A full queue sheds the connection with a typed
    [E_overloaded] response (counted under [net.overloaded]) — explicit
    backpressure the client's retry policy absorbs — and a worker parks
    any connection that has held it for [fair_slice] requests while
    others wait, so one chatty tenant cannot starve the rest.

    The pieces are exposed so tests can drive them deterministically
    (offer past the depth without workers, assert the typed refusal). *)

type pool

val pool_create : t -> pool
(** A pool over this server's config ([pool_size], [queue_depth],
    [fair_slice]); no workers run until {!pool_start}. *)

val pool_offer : pool -> Transport.conn -> [ `Queued | `Shed ]
(** Offer an accepted connection. [`Shed] means the queue was full: the
    connection was answered with [E_overloaded] and closed — before any
    request work, so resending is safe. Counts [net.connections] either
    way, [net.overloaded] (and [net.errors]) on shed. *)

val pool_start : pool -> unit
(** Spawn the worker domains ([pool_size], at least 1).
    @raise Invalid_argument if already started. *)

val pool_stop : pool -> unit
(** Close the queue, join the workers (each finishes the connection it
    is serving), and close any connections left queued. *)

(** {1 Listening (sockets)} *)

val listen : Transport.address -> Unix.file_descr
(** Bind and listen. [Unix_sock path] unlinks a stale socket file first;
    [Tcp (host, port)] binds the given interface.
    @raise Unix.Unix_error when the address cannot be bound. *)

val serve : ?stop:(unit -> bool) -> t -> Unix.file_descr -> unit
(** The accept loop. With [pool_size <= 1] (the default): accept,
    {!serve_conn}, repeat — the original sequential behaviour. With a
    larger pool: start it, offer every accepted connection ({!pool_offer}
    semantics, shedding with [E_overloaded] when the queue is full), and
    stop it (joining the workers) when [stop] fires. Polls [stop]
    between accepts (default: never stop). Does not close the listening
    descriptor. *)

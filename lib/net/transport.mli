(** Byte-stream transports carrying protocol frames.

    One abstraction, two implementations:

    - {!pair}: a fully in-memory, single-threaded duplex pair for
      deterministic tests and for the loopback client — no file
      descriptors, no scheduling, byte-for-byte the same frames as the
      socket path;
    - {!of_fd}: a Unix/TCP socket with a receive buffer and a kernel
      receive timeout.

    A connection is a [recv]/[send]/[close] triple with [Unix.read]-style
    receive semantics (0 = end of stream), which is exactly what
    {!Frame.read} consumes.

    A socket connection reads through a 4 KiB receive buffer: one
    [read(2)] fills it with whatever the peer has sent, and later
    {!recv}s are served from it until it is empty. {!Frame.read} asks
    for the 18-byte header and then the body, so a frame that fits the
    buffer costs one [read(2)], not two. A [recv] of at least the
    buffer's size, made while the buffer is empty, reads straight into
    the caller's bytes. There is no [select] before a read: the read timeout is the
    socket's own [SO_RCVTIMEO], so a warm request costs the server one
    read and one write. *)

type conn

exception Timeout
(** Raised by {!recv} on a socket connection whose read timeout (see
    {!set_read_timeout}) expires while it waits for bytes. *)

val recv : conn -> bytes -> int -> int -> int
(** [recv c buf pos len] reads at most [len] bytes into [buf] at [pos];
    returns the count, 0 at end of stream. May return short counts. On a
    socket it may return bytes buffered by an earlier read; such a
    [recv] never blocks, so it can neither wait nor time out. A reset or
    broken connection reads as end of stream. *)

val send : conn -> string -> unit
(** Write the whole string (loops over partial writes). *)

val close : conn -> unit
(** Idempotent. *)

val closed : conn -> bool

val set_read_timeout : conn -> float -> unit
(** Seconds before a blocked {!recv} raises {!Timeout}; [0.] (or any
    value that is not positive and finite) disables.
    On a socket this is the kernel receive timeout ([SO_RCVTIMEO]): it
    bounds each read that refills the buffer, so it fires only while
    waiting for bytes that have not arrived.
    A no-op on in-memory connections (their reads never block).
    @raise Unix.Unix_error if the descriptor is not a socket. *)

val reads : conn -> int
(** The [read(2)] calls made so far on a socket connection; 0 on
    in-memory and custom connections. *)

val descr : conn -> string
(** Human-readable endpoint name (for logs and error messages). *)

(** {1 In-memory pair} *)

val pair : ?name:string -> unit -> conn * conn
(** Two connected endpoints backed by in-process byte queues: bytes
    [send]-ed on one side become [recv]-able on the other, in order.
    [recv] on an empty queue consults the stall hook (below) once, then
    reports end of stream — nothing ever blocks. [close]-ing either side
    ends the stream for both. *)

val on_stall : conn -> (unit -> unit) -> unit
(** Install a hook run when [recv] on this in-memory endpoint finds its
    queue empty — the loopback client uses it to hand control to the
    server so a synchronous request/response cycle needs no threads.
    @raise Invalid_argument on a socket or custom connection. *)

(** {1 Custom connections} *)

val make :
  ?descr:string ->
  ?close:(unit -> unit) ->
  ?set_timeout:(float -> unit) ->
  recv:(bytes -> int -> int -> int) ->
  send:(string -> unit) ->
  unit ->
  conn
(** A connection whose operations are the given functions — how wrappers
    (notably the {!Fault} injector) interpose on an existing connection.
    [recv] has [Unix.read] semantics and may raise {!Timeout}; [close]
    (default: nothing) runs once on the first {!close}; [set_timeout]
    receives {!set_read_timeout} calls (default: ignored). *)

(** {1 Sockets} *)

(** Where a daemon lives: a Unix-domain socket path, or a TCP
    host/port. *)
type address = Unix_sock of string | Tcp of string * int

val parse_address : string -> (address, string) result
(** ["host:port"] (or [":port"], defaulting the host to 127.0.0.1)
    parses as {!Tcp}; anything else is a Unix-domain socket path. *)

val address_to_string : address -> string
val sockaddr_of_address : address -> Unix.sockaddr

val connect : address -> conn
(** Open a client connection.
    @raise Unix.Unix_error when the daemon is not reachable. *)

val of_fd : ?descr:string -> Unix.file_descr -> conn
(** Wrap a connected, blocking socket. Any blocking stream descriptor
    reads and writes, but only a socket takes a read timeout. *)

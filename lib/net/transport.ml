exception Timeout

(* An in-memory unidirectional byte queue. A Buffer plus a read offset,
   compacted when fully drained; single-threaded by construction. *)
type queue = { buf : Buffer.t; mutable off : int; mutable eof : bool }

let queue () = { buf = Buffer.create 256; off = 0; eof = false }

let queue_avail q = Buffer.length q.buf - q.off

let queue_read q b pos len =
  let n = min len (queue_avail q) in
  if n > 0 then begin
    Buffer.blit q.buf q.off b pos n;
    q.off <- q.off + n;
    if q.off = Buffer.length q.buf then begin
      Buffer.clear q.buf;
      q.off <- 0
    end
  end;
  n

type impl =
  | Mem of {
      inbox : queue;
      outbox : queue;
      mutable stall : (unit -> unit) option;
    }
  | Fd of sock
  | Custom of {
      c_recv : bytes -> int -> int -> int;
      c_send : string -> unit;
      c_close : unit -> unit;
      c_timeout : float -> unit;
    }

(* A socket with its receive buffer. [rbuf.(rpos .. rlen-1)] holds bytes
   already read from the kernel and not yet handed to a caller; they
   belong to the connection, so they outlive any one reader of it (a
   parked pool connection keeps them for the worker that resumes it). *)
and sock = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  mutable reads : int;
}

type conn = { impl : impl; name : string; mutable closed : bool }

(* One frame of the protocol's usual traffic (a Run request, a Ran
   response) fits with room to spare; the rest of a larger frame's body
   is read straight into the caller's bytes. *)
let rbuf_size = 4096

let descr c = c.name
let closed c = c.closed

(* --- in-memory pair --- *)

let pair ?(name = "mem") () =
  let a_to_b = queue () and b_to_a = queue () in
  let mk inbox outbox side =
    {
      impl = Mem { inbox; outbox; stall = None };
      name = Printf.sprintf "%s:%s" name side;
      closed = false;
    }
  in
  (mk b_to_a a_to_b "a", mk a_to_b b_to_a "b")

let on_stall c f =
  match c.impl with
  | Mem m -> m.stall <- Some f
  | Fd _ | Custom _ -> invalid_arg "Transport.on_stall: not an in-memory pair"

(* --- custom connections (wrappers, e.g. fault injectors) --- *)

let make ?(descr = "custom") ?(close = Fun.id) ?(set_timeout = fun _ -> ())
    ~recv ~send () =
  {
    impl =
      Custom { c_recv = recv; c_send = send; c_close = close; c_timeout = set_timeout };
    name = descr;
    closed = false;
  }

(* --- common operations --- *)

let close c =
  if not c.closed then begin
    c.closed <- true;
    match c.impl with
    | Mem m ->
        (* end the stream in both directions *)
        m.inbox.eof <- true;
        m.outbox.eof <- true
    | Fd f -> ( try Unix.close f.fd with Unix.Unix_error _ -> ())
    | Custom k -> k.c_close ()
  end

let set_read_timeout c seconds =
  match c.impl with
  | Mem _ -> ()
  | Fd f ->
      (* the kernel reads a zero timeval as "never" and a negative one as
         "at once": a positive timeout is kept at least a microsecond, and
         any other value (zero, negative, NaN, infinite) disables it *)
      let s =
        if seconds > 0. && Float.is_finite seconds then Float.max seconds 1e-6
        else 0.
      in
      Unix.setsockopt_float f.fd Unix.SO_RCVTIMEO s
  | Custom k -> k.c_timeout seconds

(* One read(2). The kernel enforces the receive timeout (SO_RCVTIMEO):
   a read that waits past it fails with EAGAIN. *)
let read_fd f b pos len =
  f.reads <- f.reads + 1;
  match Unix.read f.fd b pos len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

(* Hand over buffered bytes; never blocks. *)
let take f b pos len =
  let n = min len (f.rlen - f.rpos) in
  Bytes.blit f.rbuf f.rpos b pos n;
  f.rpos <- f.rpos + n;
  n

let reads c = match c.impl with Fd f -> f.reads | Mem _ | Custom _ -> 0

let recv c b pos len =
  if len = 0 then 0
  else
    match c.impl with
    | Mem m ->
        let n = queue_read m.inbox b pos len in
        if n > 0 then n
        else if m.inbox.eof || c.closed then 0
        else (
          (match m.stall with Some f -> f () | None -> ());
          queue_read m.inbox b pos len)
    | Fd f ->
        if c.closed then 0
        else if f.rpos < f.rlen then take f b pos len
        else if len >= rbuf_size then read_fd f b pos len
        else begin
          let n = read_fd f f.rbuf 0 rbuf_size in
          f.rpos <- 0;
          f.rlen <- n;
          take f b pos len
        end
    | Custom k -> if c.closed then 0 else k.c_recv b pos len

let send c s =
  match c.impl with
  | Mem m ->
      if c.closed || m.outbox.eof then ()
      else Buffer.add_string m.outbox.buf s
  | Fd f ->
      if c.closed then ()
      else begin
        let len = String.length s in
        let sent = ref 0 in
        (try
           while !sent < len do
             let n =
               Unix.write_substring f.fd s !sent (len - !sent)
             in
             if n <= 0 then raise Exit else sent := !sent + n
           done
         with
        | Exit -> ()
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            (* peer went away mid-response; the serve loop notices on the
               next read *)
            ())
      end
  | Custom k -> if c.closed then () else k.c_send s

let of_fd ?(descr = "fd") fd =
  {
    impl =
      Fd
        {
          fd;
          rbuf = Bytes.create rbuf_size;
          rpos = 0;
          rlen = 0;
          reads = 0;
        };
    name = descr;
    closed = false;
  }

(* --- addresses --- *)

type address = Unix_sock of string | Tcp of string * int

let parse_address s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port %S in address %S" port s))
  | _ -> if s = "" then Error "empty address" else Ok (Unix_sock s)

let address_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of_address = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "resolve", host)))
      in
      Unix.ADDR_INET (ip, port)

let connect addr =
  let domain =
    match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of_address addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  of_fd ~descr:(address_to_string addr) fd

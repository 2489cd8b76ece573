(* Bounded MPMC queue: one mutex, one condition, one stdlib Queue.

   The simplicity is deliberate — the items are accepted connections, so
   queue operations are nanoseconds against milliseconds of request
   work; a lock-free ring would buy nothing. The bound makes it a
   backpressure device: try_push refuses instead of growing, and the
   refusal is what the server turns into a typed E_overloaded response.

   Close semantics: close wakes every blocked pop, which then returns
   None even if items remain queued — a stopping pool must not start new
   work. The items it abandons are recovered with try_pop (which ignores
   the closed flag) and disposed of by the closer. *)

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  d : int; (* <= 0: unbounded *)
  mutable is_closed : bool;
}

let create ~depth () =
  { mu = Mutex.create (); nonempty = Condition.create (); q = Queue.create ();
    d = depth; is_closed = false }

let depth t = t.d

let length t = Mutex.protect t.mu (fun () -> Queue.length t.q)
let closed t = Mutex.protect t.mu (fun () -> t.is_closed)

let try_push t x =
  Mutex.protect t.mu @@ fun () ->
  if t.is_closed || (t.d > 0 && Queue.length t.q >= t.d) then false
  else begin
    Queue.add x t.q;
    Condition.signal t.nonempty;
    true
  end

let pop t =
  Mutex.protect t.mu @@ fun () ->
  let rec wait () =
    if t.is_closed then None
    else if Queue.is_empty t.q then begin
      Condition.wait t.nonempty t.mu;
      wait ()
    end
    else Some (Queue.take t.q)
  in
  wait ()

let try_pop t =
  Mutex.protect t.mu @@ fun () ->
  if Queue.is_empty t.q then None else Some (Queue.take t.q)

let close t =
  Mutex.protect t.mu @@ fun () ->
  if not t.is_closed then begin
    t.is_closed <- true;
    Condition.broadcast t.nonempty
  end

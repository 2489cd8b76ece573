(* Cooperative wall-clock watchdog.

   Fuel bounds *work* but not *time*: a module spinning on slow host calls
   or simply granted a huge budget can hold an engine far longer than the
   host intends. The watchdog bounds time the same way every other fault is
   bounded — cooperatively. Engines consult [expired] every [poll_every]
   instructions and raise [Fault.Deadline_exceeded] when the deadline has
   passed, so the fault flows through the ordinary handler-delivery
   mechanism and engine parity is preserved.

   The clock is injected so tests can script it; real deadlines run on
   [Clock.monotonic] (see [Supervise.watchdog]). *)

type t = {
  clock : Omni_util.Clock.t;
  deadline : float;
  poll_every : int;
}

let default_poll_every = 16_384

let make ?(poll_every = default_poll_every) ~clock ~budget_s () =
  if poll_every <= 0 then invalid_arg "Watchdog.make: poll_every must be > 0";
  if budget_s < 0.0 then invalid_arg "Watchdog.make: negative budget";
  { clock; deadline = Omni_util.Clock.now clock +. budget_s; poll_every }

let poll_every t = t.poll_every
let expired t = Omni_util.Clock.now t.clock >= t.deadline

let check t =
  if expired t then raise (Fault.Vm_fault Fault.Deadline_exceeded)

(* A clock with an injectable source.

   Every timing the product records flows through one of these, so tests
   can substitute a manual clock and obtain deterministic span durations,
   deadlines and histogram contents. The real clock is CLOCK_MONOTONIC,
   read through bechamel's allocation-free stub: wall time that never
   steps back, and several times cheaper to read than a CPU-time
   syscall. *)

type t =
  | Monotonic
  | Manual of float ref
  | Fn of (unit -> float)

let monotonic = Monotonic
let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())
let manual ?(start = 0.0) () = Manual (ref start)
let fn f = Fn f

let now = function
  | Monotonic -> float_of_int (monotonic_ns ()) *. 1e-9
  | Manual r -> !r
  | Fn f -> f ()

let advance c dt =
  match c with
  | Monotonic | Fn _ ->
      invalid_arg "Clock.advance: only a manual clock advances"
  | Manual r ->
      if dt < 0.0 then invalid_arg "Clock.advance: negative step";
      r := !r +. dt

let set c v =
  match c with
  | Monotonic | Fn _ ->
      invalid_arg "Clock.set: only a manual clock can be set"
  | Manual r ->
      if v < !r then invalid_arg "Clock.set: clock must be monotonic";
      r := v

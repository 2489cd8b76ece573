(* The workloads' inputs: the modules, their oracle outputs, and one pass's
   request order, all generated from the seed.

   The producers (the MiniC compiler and the StackVM assembler/lifter) run
   here, during set-up only: the system under test receives nothing but the
   wire bytes. Expected outputs come from the two reference interpreters —
   [Minic.Oracle] on the typed source and [Omni_guest.Interp] on the guest
   program — never from an engine under test. *)

module Exec = Omni_service.Exec
module Arch = Omni_targets.Arch
module Fnv64 = Omni_util.Fnv64
module W = Omni_workloads.Workloads

type modul = {
  name : string;
  wire : string;
  output : string;  (** what the oracle printed *)
  exit_code : int;  (** the oracle's exit status *)
}

type request = { m : int;  (** index into [modules] *) engine : Exec.engine }

type t = {
  seed : int;
  modules : modul array;
  requests : request array;  (** one pass's requests, in canonical order *)
}

let archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let engines =
  Exec.Interp :: Exec.Fast :: List.map (fun a -> Exec.Target a) archs

let minic ?with_stdlib ~name source =
  match
    Minic.Oracle.run ~fuel:500_000_000
      (Minic.Driver.typed_program_with_stdlib source)
  with
  | Minic.Oracle.Exited exit_code, output ->
      {
        name;
        wire = Minic.Driver.compile_wire ?with_stdlib ~name source;
        output;
        exit_code;
      }
  | _ -> failwith (name ^ ": the MiniC oracle did not exit")

let guest ~name (p : Omni_guest.Isa.program) =
  let o = Omni_guest.Interp.run p in
  match (o.Omni_guest.Interp.outcome, Omni_guest.Lift.lift_wire p) with
  | Omni_guest.Interp.Exited code, Ok wire ->
      { name; wire; output = o.Omni_guest.Interp.output; exit_code = code }
  | _, Error e -> failwith (name ^ ": " ^ Omni_guest.Error.to_string e)
  | _ -> failwith (name ^ ": the guest oracle did not exit")

let guest_asm ~name text =
  match Omni_guest.Asm.assemble text with
  | Ok p -> guest ~name p
  | Error e -> failwith (name ^ ": " ^ Omni_guest.Error.to_string e)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The [k]-th pass: every request once, in an order drawn from the seed
   and [k]. Successive passes visit different orders, so no single order's
   luck (which request pays for a collection, which allocations coincide)
   decides a run. *)
let pass t k =
  shuffle (Random.State.make [| t.seed; 0x9a55; k |]) (Array.copy t.requests)

(* Every module on every engine. *)
let every_engine ~seed modules =
  let requests =
    Array.of_list
      (List.concat_map
         (fun m -> List.map (fun engine -> { m; engine }) engines)
         (List.init (Array.length modules) Fun.id))
  in
  { seed; modules; requests }

(* tiny-wire: 4 MiniC and 4 StackVM modules that print one seeded
   constant and exit, so protocol, admission and load dominate. *)
let tiny ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let k () = Random.State.int rng 1_000_000 in
  let modules =
    Array.init 8 (fun i ->
        let name = Printf.sprintf "tiny%d" i in
        if i < 4 then
          minic ~with_stdlib:false ~name
            (Printf.sprintf
               "int main(void) { int x = %d; print_int(x + %d); putchar(10); \
                return 0; }"
               (k ()) (k ()))
        else
          guest_asm ~name
            (Printf.sprintf
               ".func main 0 0\n push %d\n sys print_int\n push 10\n sys \
                put_char\n push 0\n halt\n"
               (k ())))
  in
  every_engine ~seed modules

(* A short MiniC loop whose constants come from the seed, so every module
   is distinct bytes with a distinct output. *)
let minic_loop rng ~name =
  let k lo hi = lo + Random.State.int rng (hi - lo) in
  minic ~name
    (Printf.sprintf
       "int step(int x) { return (x * %d + %d) & 65535; }\n\
        int main(void) {\n\
       \  int i; int acc = %d;\n\
       \  for (i = 0; i < %d; i = i + 1) { acc = acc ^ step(acc + i); }\n\
       \  print_int(acc); putchar(10);\n\
       \  return 0;\n\
        }\n"
       (k 3 100_000) (k 1 1_000_000) (k 0 1_000_000) (k 8 40))

(* cold-wire: [n] distinct modules, three in four seeded guest programs
   lifted to OmniVM and one in four a seeded MiniC loop, each to run once
   on an architecture drawn from the seed. *)
let cold ~seed ~n =
  let rng = Random.State.make [| seed; 2 |] in
  let seen = Hashtbl.create n in
  let rec fresh i =
    let name = Printf.sprintf "cold%d" i in
    let m =
      if i mod 4 = 0 then minic_loop rng ~name
      else
        guest ~name
          (Omni_guest.Gen.program
             (Random.State.make [| seed; i; Random.State.bits rng |]))
    in
    if Hashtbl.mem seen m.wire then fresh i
    else (
      Hashtbl.add seen m.wire ();
      m)
  in
  let modules = Array.init n fresh in
  let arch () = List.nth archs (Random.State.int rng (List.length archs)) in
  let requests = Array.init n (fun m -> { m; engine = Exec.Target (arch ()) }) in
  { seed; modules; requests }

(* spec-inproc: the four SPEC92-analogue MiniC programs and the two guest
   kernels at Test size; only the request order depends on the seed. *)
let spec ~seed =
  let minics =
    List.map
      (fun (w : W.t) -> minic ~name:w.W.name w.W.source)
      (W.all ~size:W.Test)
  in
  let guests =
    List.map
      (fun (g : W.Guest.t) -> guest_asm ~name:g.W.Guest.name g.W.Guest.asm)
      (W.Guest.all ~size:W.Test)
  in
  every_engine ~seed (Array.of_list (minics @ guests))

(* One digest over every module's bytes, the requests and the first
   pass's order (later orders follow from the same seed): equal seeds must
   give equal digests, so both sides of a comparison see the same work. *)
let digest t =
  let d =
    Array.fold_left
      (fun d m -> Fnv64.digest_string ~seed:d m.wire)
      (Fnv64.digest_string "omnibench") t.modules
  in
  let add d r =
    Fnv64.digest_string ~seed:(Fnv64.mix_int d r.m) (Exec.engine_name r.engine)
  in
  Fnv64.to_hex
    (Array.fold_left add (Array.fold_left add d t.requests) (pass t 0))

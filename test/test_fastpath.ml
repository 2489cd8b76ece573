(* Fast-path differential harness: the interpreter over a decode made
   before the run (the [fast] engine, as the service's decode cache runs
   it) must be observably BIT-IDENTICAL to the interpreter decoding per
   run — same outcome, same fault at the same machine state, same dynamic
   instruction count, same fuel accounting, same watchdog poll cadence —
   and must agree with all four target simulators on observable
   behaviour across SFI modes and padding variants.

   Three program families feed the harness: random straight-line/branchy
   assembly ("tame": self-terminating, in-bounds, so sandboxing is
   transparent and every engine must agree), random fault-seeking assembly
   ("wild": out-of-bounds traffic, division by zero, traps, handlers,
   loops — compared interp vs fast exactly, fault-for-fault), and the
   deterministic workload families (MiniC SPEC-analogues and guest-lifted
   StackVM programs). Together the seeded families exceed 300 programs. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Policy = Omni_sfi.Policy
module W = Omni_workloads.Workloads
module Loader = Omni_runtime.Loader
module Host = Omni_runtime.Host
module Interp = Omnivm.Interp
module Fault = Omnivm.Fault
module Watchdog = Omnivm.Watchdog
module Clock = Omni_util.Clock
module Exec = Omni_service.Exec

let outcome_str = function
  | Interp.Exited c -> Printf.sprintf "exited %d" c
  | Interp.Faulted f -> "faulted: " ^ Fault.to_string f
  | Interp.Out_of_fuel -> "out of fuel"

(* --- exact machine-level snapshots --- *)

type snap = {
  s_outcome : Interp.outcome;
  s_icount : int;
  s_pc : int;
  s_regs : int array;
  s_fregs : int64 array; (* bitwise, so NaN payloads compare *)
  s_handler : int;
  s_output : string;
}

let snap ~engine ?fuel ?watchdog exe : snap =
  let img = Loader.load exe in
  let outcome, st =
    match engine with
    | `Interp -> Loader.run_interp ?fuel ?watchdog img
    | `Fast ->
        Loader.run_fast ?fuel ?watchdog
          ~program:(Interp.decode exe.Omnivm.Exe.text) img
  in
  {
    s_outcome = outcome;
    s_icount = st.Interp.icount;
    s_pc = st.Interp.pc;
    s_regs = Array.copy st.Interp.iregs;
    s_fregs = Array.map Int64.bits_of_float st.Interp.fregs;
    s_handler = st.Interp.handler;
    s_output = Host.output img.Loader.host;
  }

let equal_snap a b =
  a.s_outcome = b.s_outcome
  && a.s_icount = b.s_icount
  && a.s_pc = b.s_pc
  && a.s_handler = b.s_handler
  && a.s_regs = b.s_regs
  && a.s_fregs = b.s_fregs
  && String.equal a.s_output b.s_output

let explain a b =
  if a.s_outcome <> b.s_outcome then
    Printf.sprintf "outcome: interp=%s fast=%s" (outcome_str a.s_outcome)
      (outcome_str b.s_outcome)
  else if a.s_icount <> b.s_icount then
    Printf.sprintf "icount: interp=%d fast=%d" a.s_icount b.s_icount
  else if a.s_pc <> b.s_pc then
    Printf.sprintf "pc: interp=%d fast=%d" a.s_pc b.s_pc
  else if a.s_handler <> b.s_handler then "handler differs"
  else if a.s_regs <> b.s_regs then "integer registers differ"
  else if a.s_fregs <> b.s_fregs then "float registers differ"
  else if not (String.equal a.s_output b.s_output) then "output differs"
  else "equal"

let check_exact name ?fuel ?(fuels = []) exe =
  let at fuel =
    let a = snap ~engine:`Interp ?fuel exe in
    let b = snap ~engine:`Fast ?fuel exe in
    if not (equal_snap a b) then
      Alcotest.failf "%s (fuel=%s): %s" name
        (match fuel with None -> "default" | Some f -> string_of_int f)
        (explain a b)
  in
  at fuel;
  List.iter (fun f -> at (Some f)) fuels

(* --- random program generators --- *)

let buf_size = 256

(* Self-terminating, in-bounds programs: every engine — interpreter,
   fast path, and all four sandboxed simulators — must agree exactly. *)
let gen_tame (rng : Random.State.t) : string =
  let ri n = Random.State.int rng n in
  let b = Buffer.create 1024 in
  let reg () = 1 + ri 9 in
  let imm () =
    match ri 5 with
    | 0 -> 0
    | 1 -> ri 100 - 50
    | 2 -> 0x7FFFFFFF
    | 3 -> (1 lsl ri 31) - ri 2
    | _ -> ri 1000000 - 500000
  in
  Buffer.add_string b "        .data\nbuf:    .space 264\n        .text\n";
  Buffer.add_string b "        .globl main\nmain:\n";
  for r = 1 to 9 do
    Printf.bprintf b "        li r%d, %d\n" r (imm ())
  done;
  Printf.bprintf b "        li r10, buf\n";
  let n = 8 + ri 32 in
  let label = ref 0 in
  let pending = ref [] in
  for i = 0 to n - 1 do
    List.iter (fun (at, l) -> if at = i then Printf.bprintf b ".L%d:\n" l)
      !pending;
    match ri 10 with
    | 0 | 1 | 2 ->
        let ops = [| "add"; "sub"; "mul"; "and"; "or"; "xor"; "slt"; "sltu" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    | 3 | 4 ->
        (* li-then-use: a constant feeding the next operation *)
        let d = reg () in
        Printf.bprintf b "        li r%d, %d\n" d (imm ());
        let ops = [| "add"; "xor"; "or"; "and" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) d (reg ())
    | 5 ->
        let ops = [| "slli"; "srli"; "srai" |] in
        Printf.bprintf b "        %s r%d, r%d, %d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (ri 32)
    | 6 ->
        (* load-use pairs *)
        let off = 4 * ri (buf_size / 4) in
        let d = reg () in
        Printf.bprintf b "        sw r%d, %d(r10)\n" (reg ()) off;
        Printf.bprintf b "        lw r%d, %d(r10)\n" d off;
        Printf.bprintf b "        add r%d, r%d, r%d\n" (reg ()) d (reg ())
    | 7 | 8 ->
        (* forward compare-and-branch *)
        let l = !label in
        incr label;
        let skip = 1 + ri 4 in
        (if ri 2 = 0 then
           let conds = [| "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" |] in
           Printf.bprintf b "        %s r%d, r%d, .L%d\n"
             conds.(ri (Array.length conds)) (reg ()) (reg ()) l
         else
           let conds = [| "beqi"; "bnei"; "blti"; "bgei" |] in
           Printf.bprintf b "        %s r%d, %d, .L%d\n"
             conds.(ri (Array.length conds)) (reg ()) (imm ()) l);
        pending := (min (n - 1) (i + skip), l) :: !pending
    | _ ->
        let d = reg () in
        Printf.bprintf b "        ori r%d, r%d, 1\n" d d;
        let ops = [| "div"; "divu"; "rem"; "remu" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) d
  done;
  List.iter (fun (_, l) -> Printf.bprintf b ".L%d:\n" l) !pending;
  for r = 2 to 9 do
    Printf.bprintf b "        xor r1, r1, r%d\n" r
  done;
  Buffer.add_string b "        hcall 2\n        li r1, 10\n        hcall 1\n";
  Buffer.add_string b "        li r1, 0\n        hcall 0\n";
  Buffer.contents b

(* Fault-seeking programs: out-of-bounds traffic, division by zero,
   explicit traps, misaligned accesses, optional fault handlers, backward
   loops (exercised under small fuel). Interp vs fast must agree exactly,
   fault-for-fault, at the same machine state. *)
let gen_wild (rng : Random.State.t) : string =
  let ri n = Random.State.int rng n in
  let b = Buffer.create 1024 in
  let reg () = 1 + ri 9 in
  let imm () = ri 1000000 - 500000 in
  let with_handler = ri 2 = 0 in
  Buffer.add_string b "        .data\nbuf:    .space 264\n        .text\n";
  Buffer.add_string b "        .globl main\n";
  if with_handler then
    (* print the fault code, then exit 7 *)
    Buffer.add_string b
      "handler:\n        hcall 2\n        li r1, 7\n        hcall 0\n";
  Buffer.add_string b "main:\n";
  if with_handler then
    Buffer.add_string b "        li r1, handler\n        hcall 7\n";
  for r = 1 to 9 do
    Printf.bprintf b "        li r%d, %d\n" r (imm ())
  done;
  Printf.bprintf b "        li r10, buf\n";
  let n = 6 + ri 24 in
  let label = ref 0 in
  let pending = ref [] in
  for i = 0 to n - 1 do
    List.iter (fun (at, l) -> if at = i then Printf.bprintf b ".L%d:\n" l)
      !pending;
    match ri 12 with
    | 0 | 1 ->
        let ops = [| "add"; "sub"; "mul"; "xor"; "slt" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    | 2 ->
        let d = reg () in
        Printf.bprintf b "        li r%d, %d\n" d (imm ());
        Printf.bprintf b "        add r%d, r%d, r%d\n" (reg ()) d (reg ())
    | 3 ->
        (* possibly wild address: in-bounds, far out-of-bounds, or odd *)
        let addr =
          match ri 3 with
          | 0 -> 4 * ri (buf_size / 4)
          | 1 -> 0x3F000000 + ri 64
          | _ -> 1 + (4 * ri (buf_size / 4))
        in
        let w = [| ("sw", "lw"); ("sh", "lhu"); ("sb", "lbu") |].(ri 3) in
        if ri 2 = 0 then
          Printf.bprintf b "        %s r%d, %d(r10)\n" (fst w) (reg ()) addr
        else Printf.bprintf b "        %s r%d, %d(r10)\n" (snd w) (reg ()) addr
    | 4 ->
        (* division that may well be by zero *)
        (if ri 2 = 0 then Printf.bprintf b "        li r%d, 0\n" (reg ()));
        let ops = [| "div"; "divu"; "rem"; "remu" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    | 5 -> Printf.bprintf b "        trap %d\n" (ri 8)
    | 6 | 7 ->
        let l = !label in
        incr label;
        let conds = [| "beq"; "bne"; "blt"; "bge" |] in
        Printf.bprintf b "        %s r%d, r%d, .L%d\n"
          conds.(ri (Array.length conds)) (reg ()) (reg ()) l;
        pending := (min (n - 1) (i + 1 + ri 4), l) :: !pending
    | 8 ->
        (* a backward self-loop headed by a countdown: terminates, or runs
           the fuel out — both must match exactly *)
        let c = reg () in
        Printf.bprintf b "        li r%d, %d\n" c (ri 64);
        Printf.bprintf b ".B%d:\n" i;
        Printf.bprintf b "        addi r%d, r%d, -1\n" c c;
        Printf.bprintf b "        bnei r%d, 0, .B%d\n" c i
    | _ ->
        Printf.bprintf b "        addi r%d, r%d, %d\n" (reg ()) (reg ())
          (ri 100 - 50)
  done;
  List.iter (fun (_, l) -> Printf.bprintf b ".L%d:\n" l) !pending;
  Buffer.add_string b "        li r1, 0\n        hcall 0\n";
  Buffer.contents b

let assemble src =
  Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"fastpath" src ]

(* --- property 1: tame programs agree on every engine, every pad --- *)

let pads = Policy.all_pads

let tame_property seed =
  let src = gen_tame (Random.State.make [| seed |]) in
  let exe = assemble src in
  (* exact interp/fast identity, at full and at starved fuel *)
  check_exact
    (Printf.sprintf "tame seed=%d" seed)
    ~fuel:5_000_000
    ~fuels:[ 1 + (seed land 63); 17 ]
    exe;
  (* observable agreement with every simulator, under a per-seed pad *)
  let pad = List.nth pads (abs seed mod List.length pads) in
  let expected =
    let r =
      Api.run { Api.default_request with fuel = Some 5_000_000 } (Api.Exe exe)
    in
    (r.Api.outcome, r.Api.output)
  in
  (match expected with
  | Machine.Exited 0, _ -> ()
  | o, _ -> Alcotest.failf "tame seed=%d: interp %s" seed
              (match o with
               | Machine.Exited c -> Printf.sprintf "exited %d" c
               | Machine.Faulted f -> Fault.to_string f
               | Machine.Out_of_fuel -> "out of fuel"));
  List.iter
    (fun arch ->
      let mode = Machine.Mobile (Policy.make ~pad ()) in
      let r =
        Api.run
          { Api.default_request with
            engine = Api.Target arch; mode = Some mode; fuel = Some 5_000_000 }
          (Api.Exe exe)
      in
      if (r.Api.outcome, r.Api.output) <> expected then
        Alcotest.failf "tame seed=%d: %s pad=%s disagrees" seed
          (Omni_targets.Arch.name arch) (Policy.pad_name pad))
    Omni_targets.Arch.all;
  true

(* --- property 2: wild programs are fault-for-fault identical --- *)

let wild_property seed =
  let src = gen_wild (Random.State.make [| seed |]) in
  let exe = assemble src in
  check_exact
    (Printf.sprintf "wild seed=%d" seed)
    ~fuel:200_000
    ~fuels:[ 1; 2; 3 + (seed land 31); 100 + (seed land 255) ]
    exe;
  true

(* --- property 3: fuel is charged per source instruction ---

   For any fuel budget f, the run over a cached decode retires exactly
   the instructions the run decoding its own text retires. *)
let fuel_law (seed, fuel) =
  let src = gen_tame (Random.State.make [| seed |]) in
  let exe = assemble src in
  let a = snap ~engine:`Interp ~fuel exe in
  let b = snap ~engine:`Fast ~fuel exe in
  if not (equal_snap a b) then
    Alcotest.failf "fuel law seed=%d fuel=%d: %s" seed fuel (explain a b);
  (match a.s_outcome with
  | Interp.Out_of_fuel -> assert (a.s_icount <= fuel)
  | _ -> ());
  true

(* --- property 4: watchdog poll cadence is unchanged ---

   A counting clock observes exactly one [Clock.now] per poll (plus one at
   [Watchdog.make]); a cached decode must not change how often a run
   polls. *)
let poll_count ~engine ~every exe =
  let polls = ref 0 in
  let clock = Clock.fn (fun () -> incr polls; 0.0) in
  let w = Watchdog.make ~poll_every:every ~clock ~budget_s:1e9 () in
  ignore (snap ~engine ~fuel:100_000 ~watchdog:w exe);
  !polls - 1 (* make consumed one reading *)

let poll_law (seed, every) =
  let src = gen_tame (Random.State.make [| seed |]) in
  let exe = assemble src in
  let a = poll_count ~engine:`Interp ~every exe in
  let b = poll_count ~engine:`Fast ~every exe in
  if a <> b then
    Alcotest.failf "poll law seed=%d every=%d: interp polled %d, fast %d"
      seed every a b;
  true

(* --- satellite 3: deadlines fire within poll_every instructions ---

   Under an injectable clock that advances one second per reading, a
   budget of [k] seconds expires at the (k+1)-th poll — so the fault must
   land within poll_every source instructions of the k-th poll, and at
   the exact same machine state on both engines. *)
let deadline_within_k () =
  (* an effectively infinite loop *)
  let src =
    {|
        .text
        .globl main
main:   li r2, 0
loop:   li r3, 1
        add r2, r2, r3
        slti r4, r2, 2
        beqi r4, 99, loop
        j loop
|}
  in
  let exe = assemble src in
  List.iter
    (fun every ->
      List.iter
        (fun k ->
          let run engine =
            let clock =
              let t = ref (-1.0) in
              Clock.fn (fun () -> t := !t +. 1.0; !t)
            in
            let w =
              Watchdog.make ~poll_every:every ~clock
                ~budget_s:(float_of_int k) ()
            in
            snap ~engine ~fuel:10_000_000 ~watchdog:w exe
          in
          let a = run `Interp in
          let b = run `Fast in
          if not (equal_snap a b) then
            Alcotest.failf "deadline every=%d k=%d: %s" every k (explain a b);
          (match a.s_outcome with
          | Interp.Faulted Fault.Deadline_exceeded -> ()
          | o -> Alcotest.failf "deadline every=%d k=%d: got %s" every k
                   (outcome_str o));
          (* expired at poll k+1, i.e. within (k+1) * every instructions *)
          if a.s_icount > (k + 1) * every then
            Alcotest.failf
              "deadline every=%d k=%d: fired after %d instructions (> %d)"
              every k a.s_icount ((k + 1) * every))
        [ 0; 1; 3 ])
    [ 1; 2; 7; 64 ]

(* --- the deterministic workload families --- *)

let minic_exe (w : W.t) = Minic.Driver.compile_exe ~name:w.W.name w.W.source

let guest_exe (g : W.Guest.t) =
  match Omni_guest.Asm.assemble g.W.Guest.asm with
  | Error e -> Alcotest.failf "guest %s: %s" g.W.Guest.name
                 (Omni_guest.Error.to_string e)
  | Ok p -> (
      match Omni_guest.Lift.lift_exe p with
      | Error e -> Alcotest.failf "guest %s: %s" g.W.Guest.name
                     (Omni_guest.Error.to_string e)
      | Ok exe -> exe)

let workload_exact (name, exe) () =
  check_exact name ~fuel:500_000_000 ~fuels:[ 1; 1000 ] exe

(* each workload, on each simulator, under each padding mode, matches the
   fast path's observable behaviour *)
let workload_matrix (name, exe) () =
  let fast = snap ~engine:`Fast ~fuel:500_000_000 exe in
  (match fast.s_outcome with
  | Interp.Exited 0 -> ()
  | o -> Alcotest.failf "%s: fast %s" name (outcome_str o));
  List.iter
    (fun arch ->
      List.iter
        (fun pad ->
          let mode = Machine.Mobile (Policy.make ~pad ()) in
          let r =
            Api.run
              { Api.default_request with
                engine = Api.Target arch; mode = Some mode;
                fuel = Some 500_000_000 }
              (Api.Exe exe)
          in
          (match r.Api.outcome with
          | Machine.Exited 0 -> ()
          | Machine.Exited c ->
              Alcotest.failf "%s %s pad=%s: exited %d" name
                (Omni_targets.Arch.name arch) (Policy.pad_name pad) c
          | Machine.Faulted f ->
              Alcotest.failf "%s %s pad=%s: %s" name
                (Omni_targets.Arch.name arch) (Policy.pad_name pad)
                (Fault.to_string f)
          | Machine.Out_of_fuel ->
              Alcotest.failf "%s %s pad=%s: out of fuel" name
                (Omni_targets.Arch.name arch) (Policy.pad_name pad));
          Alcotest.(check string)
            (Printf.sprintf "%s %s pad=%s output" name
               (Omni_targets.Arch.name arch) (Policy.pad_name pad))
            fast.s_output r.Api.output)
        pads)
    Omni_targets.Arch.all

(* --- certificates mint and check under every padding mode --- *)

let cert_pad_matrix () =
  let w = W.compress ~size:W.Test in
  let exe = minic_exe w in
  let wire = Omnivm.Wire.encode exe in
  let digest = Omni_util.Fnv64.digest_string wire in
  List.iter
    (fun arch ->
      let opts = Exec.mobile_opts arch in
      List.iter
        (fun pad ->
          let mode = Machine.Mobile (Policy.make ~pad ()) in
          let tr = Exec.translate ~mode ~opts arch exe in
          match Exec.certify ~module_digest:digest ~mode ~opts tr with
          | Error msg ->
              Alcotest.failf "certify %s pad=%s: %s"
                (Omni_targets.Arch.name arch) (Policy.pad_name pad) msg
          | Ok cert -> (
              match
                Exec.check_cert ~module_digest:digest ~mode ~opts cert tr
              with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "check %s pad=%s: %s"
                    (Omni_targets.Arch.name arch) (Policy.pad_name pad) msg))
        pads)
    Omni_targets.Arch.all

(* --- wiring --- *)

let qtest ~count name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make gen) prop)

let () =
  let minic_workloads =
    List.map (fun w -> (w.W.name, minic_exe w)) (W.all ~size:W.Test)
  in
  let guest_workloads =
    List.map
      (fun g -> (g.W.Guest.name, guest_exe g))
      (W.Guest.all ~size:W.Test)
  in
  let workloads = minic_workloads @ guest_workloads in
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          qtest ~count:160 "tame: all engines, all pads agree"
            QCheck.Gen.(map (fun s -> s) small_signed_int)
            tame_property;
          qtest ~count:160 "wild: interp = fast, fault-for-fault"
            QCheck.Gen.(map (fun s -> s) int)
            wild_property;
        ] );
      ( "fusion-laws",
        [
          qtest ~count:120 "fuel charged per source instruction"
            QCheck.Gen.(pair small_signed_int (int_bound 2000))
            fuel_law;
          qtest ~count:60 "watchdog poll cadence unchanged"
            QCheck.Gen.(pair small_signed_int (int_range 1 64))
            poll_law;
          Alcotest.test_case "deadline fires within poll_every" `Quick
            deadline_within_k;
        ] );
      ( "workloads",
        List.map
          (fun (name, exe) ->
            Alcotest.test_case (name ^ " exact") `Quick
              (workload_exact (name, exe)))
          workloads
        @ List.map
            (fun (name, exe) ->
              Alcotest.test_case (name ^ " matrix") `Slow
                (workload_matrix (name, exe)))
            workloads );
      ( "certificates",
        [
          Alcotest.test_case "mint+check under every pad" `Quick
            cert_pad_matrix;
        ] );
    ]

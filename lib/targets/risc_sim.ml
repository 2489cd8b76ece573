(* Functional + cycle-approximate simulator for translated RISC code.

   Executes the structured native instructions over the module's segmented
   memory, dispatches host calls through the runtime host, models branch
   delay slots (with Sparc-style annulment), and feeds every retired
   instruction to the generic pipeline cost model. A slot's costs are
   decoded the first time it executes, so retiring an instruction
   allocates nothing; its statistics are counted per slot and folded
   when the run ends (see [Machine.finish]). *)

open Risc
module W = Omni_util.Word32
module VI = Omnivm.Instr
module Mem = Omnivm.Memory

type state = {
  prog : program;
  regs : int array; (* 32, canonical word32; index 0 pinned to zero *)
  fregs : float array; (* 32 *)
  mutable cc_a : int; (* last compare operand pair *)
  mutable cc_b : int;
  mutable fcc : bool;
  mutable pc : int; (* native index *)
  mem : Mem.t;
  host : Omni_runtime.Host.t;
  mutable handler : int; (* omni code address, 0 = none *)
  mutable exited : int option;
  stats : Machine.stats;
  pipe : Pipeline.t;
  table : Machine.table; (* [prog.code]'s costs; the run's until it ends *)
}

(* [Word32.of_int] in line: the low 32 bits, sign-extended. *)
let canon v = (v lsl 31) asr 31

(* [regs.(0)] is never written, so it reads as zero. *)
let get st r = st.regs.(r)
let set st r v = if r <> 0 then st.regs.(r) <- canon v

let is_branch = function Br_cc _ | Br_cmp _ | Fbr _ -> true | _ -> false

let create (prog : program) mem host =
  let st =
    {
      prog;
      regs = Array.make 32 0;
      fregs = Array.make 32 0.0;
      cc_a = 0;
      cc_b = 0;
      fcc = false;
      pc = prog.entry;
      mem;
      host;
      handler = 0;
      exited = None;
      stats = Machine.new_stats ();
      pipe = Pipeline.create (pipeline_config prog.cfg);
      table = Machine.take_table (Array.length prog.code);
    }
  in
  let module L = Omnivm.Layout in
  set st r_data_mask L.data_mask;
  set st r_data_base L.data_base;
  set st r_code_mask (L.code_mask land lnot 3);
  set st r_code_base L.code_base;
  set st r_gp (L.data_base + (1 lsl (prog.cfg.imm_bits - 1)));
  set st (map_reg Omnivm.Reg.sp) L.initial_sp;
  set st (map_reg Omnivm.Reg.gp) L.data_base;
  st

let fault f = raise (Omnivm.Fault.Vm_fault f)

(* Map an OmniVM code address to a native index; faults on addresses that
   are not valid entry points (function entries, branch targets, return
   points). *)
let native_of_omni st addr =
  let off = addr - Omnivm.Layout.code_base in
  if off < 0 || off land 3 <> 0 || off / 4 >= Array.length st.prog.addr_map
  then fault (Access_violation { addr; access = Execute })
  else
    let n = st.prog.addr_map.(off / 4) in
    if n < 0 then fault (Access_violation { addr; access = Execute })
    else n

(* [VI.eval_binop], in line but for division, with the same arithmetic
   as [Word32]'s: the low 32 bits of [a * b] are those of the unsigned
   product [W.mul] builds. *)
let binop op a b =
  match op with
  | VI.Add -> canon (a + b)
  | VI.Sub -> canon (a - b)
  | VI.Mul -> canon (a * b)
  | VI.And -> canon (a land b)
  | VI.Or -> canon (a lor b)
  | VI.Xor -> canon (a lxor b)
  | VI.Sll -> canon (a lsl (b land 31))
  | VI.Srl -> canon ((a land 0xFFFFFFFF) lsr (b land 31))
  | VI.Sra -> canon (a asr (b land 31))
  | VI.Slt -> if a < b then 1 else 0
  | VI.Sltu -> if a land 0xFFFFFFFF < b land 0xFFFFFFFF then 1 else 0
  | VI.Div | VI.Divu | VI.Rem | VI.Remu -> VI.eval_binop op a b

(* [W.to_unsigned (W.add a (W.of_int disp))], in line. *)
let eff st base disp = (get st base + disp) land 0xFFFFFFFF

let do_load st w signed addr =
  match (w, signed) with
  | VI.W8, false -> Mem.load8 st.mem addr
  | VI.W8, true -> W.sext8 (Mem.load8 st.mem addr)
  | VI.W16, false -> Mem.load16 st.mem addr
  | VI.W16, true -> W.sext16 (Mem.load16 st.mem addr)
  | VI.W32, _ -> Mem.load32 st.mem addr

let do_store st w addr v =
  match w with
  | VI.W8 -> Mem.store8 st.mem addr v
  | VI.W16 -> Mem.store16 st.mem addr v
  | VI.W32 -> Mem.store32 st.mem addr v

(* [Mem.load_float] and [Mem.store_float] without boxing: a float that
   crosses into another module is boxed, an int is not. An 8-byte load is
   two 4-byte loads, low half first, as [Mem] defines it. *)
let[@inline] load_float mem a =
  let lo = Mem.load32 mem a in
  let hi = Mem.load32 mem (a + 4) in
  Int64.float_of_bits
    (Int64.logor
       (Int64.of_int (lo land 0xFFFFFFFF))
       (Int64.shift_left (Int64.of_int hi) 32))

let[@inline] store_float mem a f =
  let b = Int64.bits_of_float f in
  Mem.store_words mem a (Int64.to_int b)
    (Int64.to_int (Int64.shift_right_logical b 32))

let[@inline] load_single mem a =
  Int32.float_of_bits (Int32.of_int (Mem.load32 mem a land 0xFFFFFFFF))

let[@inline] store_single mem a f =
  Mem.store32 mem a (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)

let round_single f = Int32.float_of_bits (Int32.bits_of_float f)

let hcall st n =
  let req =
    {
      Omni_runtime.Host.index = n;
      arg = (fun i -> get st (map_reg (1 + i)));
      farg = (fun i -> st.fregs.(1 + i));
      set_ret = (fun v -> set st (map_reg 1) v);
      mem = st.mem;
    }
  in
  match Omni_runtime.Host.handle st.host req with
  | Omni_runtime.Host.Continue -> ()
  | Omni_runtime.Host.Exit code -> st.exited <- Some code
  | Omni_runtime.Host.Set_handler addr -> st.handler <- addr

(* Execute a non-control instruction. *)
let exec_simple st (i : instr) =
  match i with
  | Alu (op, rd, ra, rb) -> set st rd (binop op (get st ra) (get st rb))
  | Alui (op, rd, ra, imm) ->
      set st rd (binop op (get st ra) (canon imm))
  | Alu_record (op, rd, ra, rb) ->
      let v = binop op (get st ra) (get st rb) in
      set st rd v;
      st.cc_a <- v;
      st.cc_b <- 0
  | Lui (rd, v) -> set st rd (W.of_int v)
  | Load (w, s, rd, b, d) -> set st rd (do_load st w s (eff st b d))
  | Load_x (w, s, rd, a, b) ->
      set st rd (do_load st w s (W.to_unsigned (W.add (get st a) (get st b))))
  | Store (w, rv, b, d) -> do_store st w (eff st b d) (get st rv)
  | Store_x (w, rv, a, b) ->
      do_store st w (W.to_unsigned (W.add (get st a) (get st b))) (get st rv)
  | Fload (fd, b, d) -> st.fregs.(fd) <- load_float st.mem (eff st b d)
  | Fstore (fv, b, d) -> store_float st.mem (eff st b d) st.fregs.(fv)
  | Fload_s (fd, b, d) -> st.fregs.(fd) <- load_single st.mem (eff st b d)
  | Fstore_s (fv, b, d) -> store_single st.mem (eff st b d) st.fregs.(fv)
  | Fload_x (fd, a, b) ->
      st.fregs.(fd) <-
        load_float st.mem ((get st a + get st b) land 0xFFFFFFFF)
  | Fstore_x (fv, a, b) ->
      store_float st.mem ((get st a + get st b) land 0xFFFFFFFF) st.fregs.(fv)
  | Fld_pool (fd, i) -> st.fregs.(fd) <- st.prog.pool.(i)
  | Fop (op, prec, fd, fa, fb) ->
      let a = st.fregs.(fa) and b = st.fregs.(fb) in
      let v =
        match op with
        | VI.Fadd -> a +. b
        | VI.Fsub -> a -. b
        | VI.Fmul -> a *. b
        | VI.Fdiv -> a /. b
      in
      st.fregs.(fd) <-
        (match prec with VI.Single -> round_single v | VI.Double -> v)
  | Fun1 (op, fd, fa) ->
      let a = st.fregs.(fa) in
      st.fregs.(fd) <-
        (match op with
        | VI.Fneg -> -.a
        | VI.Fabs -> Float.abs a
        | VI.Fmov -> a)
  | Fcmp (op, fa, fb) ->
      let a = st.fregs.(fa) and b = st.fregs.(fb) in
      st.fcc <-
        (match op with VI.Feq -> a = b | VI.Flt -> a < b | VI.Fle -> a <= b)
  | Fcc_to_reg rd -> set st rd (if st.fcc then 1 else 0)
  | Cvt_f_i (fd, ra) -> st.fregs.(fd) <- float_of_int (get st ra)
  | Cvt_i_f (rd, fa) ->
      let f = st.fregs.(fa) in
      let v =
        if Float.is_nan f then 0
        else if f >= 2147483648.0 then W.max_int32
        else if f <= -2147483649.0 then W.min_int32
        else W.of_int (int_of_float f)
      in
      set st rd v
  | Cvt_d_s (fd, fa) | Cvt_s_d (fd, fa) ->
      st.fregs.(fd) <- round_single st.fregs.(fa)
  | Cmp (a, b) ->
      st.cc_a <- get st a;
      st.cc_b <- get st b
  | Cmpi (a, imm) ->
      st.cc_a <- get st a;
      st.cc_b <- W.of_int imm
  | Cc_to_reg (c, rd) -> set st rd (if VI.eval_cond c st.cc_a st.cc_b then 1 else 0)
  | Guard_data r ->
      let a = W.to_unsigned (get st r) in
      if not (Omnivm.Layout.in_data a) then
        fault (Access_violation { addr = a; access = Write })
  | Guard_code r ->
      let a = W.to_unsigned (get st r) in
      if not (Omnivm.Layout.in_code a) then
        fault (Access_violation { addr = a; access = Execute })
  | Trapi n -> fault (Explicit_trap n)
  | Hcall n -> hcall st n
  | Nop -> ()
  | Br_cc _ | Br_cmp _ | Fbr _ | J _ | Call _ | Call_ind _ | Jmp_ind _ ->
      assert false

(* Slot [k]'s tag, decoding the slot the first time it executes. *)
let[@inline never] decode st k =
  let s = st.prog.code.(k) in
  Machine.decode st.table k (cost_of st.prog.cfg s.i) s.origin
    ~branch:(is_branch s.i) ~control:(is_control s.i)
    ~hcall:(match s.i with Hcall _ -> true | _ -> false)

(* Evaluate whether a control instruction branches, and to where: the
   native index, or -1 if it falls through. *)
let control_target st (i : instr) =
  match i with
  | Br_cc (c, l) -> if VI.eval_cond c st.cc_a st.cc_b then l else -1
  | Br_cmp (c, a, b, l) -> if VI.eval_cond c (get st a) (get st b) then l else -1
  | Fbr (flag, l) -> if st.fcc = flag then l else -1
  | J l -> l
  | Call (l, ret) ->
      set st omni_ra ret;
      l
  | Call_ind (r, ret) ->
      let target = native_of_omni st (W.to_unsigned (get st r)) in
      set st omni_ra ret;
      target
  | Jmp_ind r -> native_of_omni st (W.to_unsigned (get st r))
  | _ -> assert false

let deliver_fault st f =
  if st.handler = 0 then raise (Omnivm.Fault.Vm_fault f)
  else begin
    let h = st.handler in
    st.handler <- 0;
    set st (map_reg 1) (Omnivm.Fault.code f);
    st.pc <- native_of_omni st h
  end

exception Out_of_fuel_exn
exception Exit_exn

(* The run is one loop inside one exception handler, entered again only
   after a fault is delivered to the module's handler. Fuel and the
   watchdog are countdowns local to the loop: [fuel] is what the run may
   still retire (the instruction it runs out on is not retired), [poll]
   the steps until the watchdog's clock is next read, the scheme of
   Interp.run; with no watchdog it never reaches zero. A step is polled
   once, its delay slot included; a delay slot spends fuel of its own. A
   run leaves the loop on a host call that exits, on running out of fuel,
   or on a fault it cannot deliver. *)
let run ?(fuel = max_int) ?watchdog (prog : program) mem host :
    Machine.outcome * Machine.stats * state =
  let st = create prog mem host in
  let code = prog.code in
  let n = Array.length code in
  let delay = prog.cfg.has_delay_slot in
  let pipe = st.pipe and stats = st.stats in
  let { Machine.costs; tags; counts } = st.table in
  let every =
    match watchdog with
    | Some w -> Omnivm.Watchdog.poll_every w
    | None -> max_int
  in
  let fuel = ref fuel and poll = ref every in
  let outcome = ref None in
  let deliver f =
    match deliver_fault st f with
    | () -> ()
    | exception Omnivm.Fault.Vm_fault f -> outcome := Some (Machine.Faulted f)
  in
  while Option.is_none !outcome do
    match
      while true do
        decr poll;
        if !poll <= 0 then begin
          poll := every;
          Option.iter Omnivm.Watchdog.check watchdog
        end;
        let pc = st.pc in
        if pc < 0 || pc >= n then
          fault (Access_violation { addr = pc; access = Execute });
        decr fuel;
        if !fuel < 0 then raise_notrace Out_of_fuel_exn;
        let tag =
          let t = Array.unsafe_get tags pc in
          if t >= 0 then t else decode st pc
        in
        if tag land (Machine.tag_control lor Machine.tag_hcall) = 0 then begin
          Pipeline.retire pipe costs counts pc ~taken_branch:false;
          exec_simple st (Array.unsafe_get code pc).i;
          st.pc <- pc + 1
        end
        else if tag land Machine.tag_control = 0 then begin
          Pipeline.retire pipe costs counts pc ~taken_branch:false;
          exec_simple st (Array.unsafe_get code pc).i;
          st.pc <- pc + 1;
          if Option.is_some st.exited then raise_notrace Exit_exn
        end
        else begin
          let s = Array.unsafe_get code pc in
          let target = control_target st s.i in
          let taken = target >= 0 in
          if taken && tag land Machine.tag_branch <> 0 then
            stats.Machine.taken_branches <- stats.Machine.taken_branches + 1;
          Pipeline.retire pipe costs counts pc ~taken_branch:taken;
          if delay then begin
            (* execute the delay slot unless annulled *)
            let d = pc + 1 in
            if d < n && not (s.annul && not taken) then begin
              decr fuel;
              if !fuel < 0 then raise_notrace Out_of_fuel_exn;
              if Array.unsafe_get tags d < 0 then ignore (decode st d);
              Pipeline.retire pipe costs counts d ~taken_branch:false;
              exec_simple st (Array.unsafe_get code d).i
            end;
            st.pc <- (if taken then target else pc + 2);
            if Option.is_some st.exited then raise_notrace Exit_exn
          end
          else st.pc <- (if taken then target else pc + 1)
        end
      done
    with
    | () -> ()
    | exception Out_of_fuel_exn -> outcome := Some Machine.Out_of_fuel
    | exception Exit_exn ->
        outcome := Some (Machine.Exited (Option.get st.exited))
    | exception Omnivm.Fault.Vm_fault f -> deliver f
    | exception W.Division_by_zero -> deliver Omnivm.Fault.Division_by_zero
  done;
  Machine.finish stats pipe st.table n;
  (Option.get !outcome, stats, st)

(* Functional + cycle-approximate simulator for translated x86 code. Like
   [Risc_sim], it decodes a slot's costs the first time the slot executes,
   so retiring an instruction allocates nothing, charges the pipeline
   model a segment at a time, and counts per slot, folding the counts
   when the run ends. *)

open X86
module W = Omni_util.Word32
module VI = Omnivm.Instr
module Mem = Omnivm.Memory

type state = {
  prog : program;
  regs : int array; (* 8 *)
  fps : float array; (* 8 *)
  mutable cc_a : int; (* last compare operand pair *)
  mutable cc_b : int;
  mutable fcc : bool;
  mutable pc : int;
  mem : Mem.t;
  host : Omni_runtime.Host.t;
  mutable handler : int;
  mutable exited : int option;
  stats : Machine.stats;
  pipe : Pipeline.t;
  table : Machine.table; (* [prog.code]'s costs; the run's until it ends *)
}

let is_branch = function Jcc _ -> true | _ -> false

let create prog mem host =
  let st =
    {
      prog;
      regs = Array.make 8 0;
      fps = Array.make 8 0.0;
      cc_a = 0;
      cc_b = 0;
      fcc = false;
      pc = prog.entry;
      mem;
      host;
      handler = 0;
      exited = None;
      stats = Machine.new_stats ();
      pipe = Pipeline.create pipeline_config;
      table = Machine.take_table (Array.length prog.code);
    }
  in
  st.regs.(esp) <- Omnivm.Layout.initial_sp;
  (* omni gp (r13) lives in its memory home *)
  Mem.store32 mem
    (Omnivm.Layout.regsave_int_addr Omnivm.Reg.gp)
    Omnivm.Layout.data_base;
  st

let fault f = raise (Omnivm.Fault.Vm_fault f)

let native_of_omni st addr =
  let off = addr - Omnivm.Layout.code_base in
  if off < 0 || off land 3 <> 0 || off / 4 >= Array.length st.prog.addr_map
  then fault (Access_violation { addr; access = Execute })
  else
    let n = st.prog.addr_map.(off / 4) in
    if n < 0 then fault (Access_violation { addr; access = Execute })
    else n

let eff st (m : mem) =
  let b = match m.base with Some r -> st.regs.(r) | None -> 0 in
  let i = match m.index with Some (r, s) -> st.regs.(r) * s | None -> 0 in
  (b + i + m.disp) land 0xFFFFFFFF

(* [Word32.of_int] in line: the low 32 bits, sign-extended. *)
let canon v = (v lsl 31) asr 31

let value st = function
  | R r -> st.regs.(r)
  | I v -> canon v
  | M m -> Mem.load32 st.mem (eff st m)

let set_reg st r v = st.regs.(r) <- canon v

let write st dst v =
  match dst with
  | R r -> set_reg st r v
  | M m -> Mem.store32 st.mem (eff st m) v
  | I _ -> invalid_arg "x86 write to immediate"

let hcall st n =
  let home_get r =
    match int_home r with
    | Hzero -> 0
    | Hreg x -> st.regs.(x)
    | Hmem a -> Mem.load32 st.mem a
  in
  let req =
    {
      Omni_runtime.Host.index = n;
      arg = (fun i -> home_get (1 + i));
      farg =
        (fun i ->
          match float_home (1 + i) with
          | FHreg x -> st.fps.(x)
          | FHmem a -> Mem.load_float st.mem a);
      set_ret =
        (fun v ->
          match int_home 1 with
          | Hreg x -> set_reg st x v
          | Hmem a -> Mem.store32 st.mem a v
          | Hzero -> ());
      mem = st.mem;
    }
  in
  match Omni_runtime.Host.handle st.host req with
  | Omni_runtime.Host.Continue -> ()
  | Omni_runtime.Host.Exit code -> st.exited <- Some code
  | Omni_runtime.Host.Set_handler addr -> st.handler <- addr

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

let exec_simple st (i : instr) =
  match i with
  | Mov (dst, src) -> write st dst (value st src)
  | Load (w, signed, d, m) ->
      let a = eff st m in
      let v =
        match (w, signed) with
        | VI.W8, false -> Mem.load8 st.mem a
        | VI.W8, true -> W.sext8 (Mem.load8 st.mem a)
        | VI.W16, false -> Mem.load16 st.mem a
        | VI.W16, true -> W.sext16 (Mem.load16 st.mem a)
        | VI.W32, _ -> Mem.load32 st.mem a
      in
      set_reg st d v
  | Store (w, m, src) -> (
      let a = eff st m in
      let v = value st src in
      match w with
      | VI.W8 -> Mem.store8 st.mem a v
      | VI.W16 -> Mem.store16 st.mem a v
      | VI.W32 -> Mem.store32 st.mem a v)
  | Alu (op, dst, src) ->
      let a = value st dst and b = value st src in
      let v =
        match op with
        | Add -> canon (a + b)
        | Sub -> canon (a - b)
        | And -> canon (a land b)
        | Or -> canon (a lor b)
        | Xor -> canon (a lxor b)
      in
      write st dst v;
      st.cc_a <- v;
      st.cc_b <- 0
  | Shift (op, dst, k) ->
      let a = value st dst in
      let v =
        match op with
        | Shl -> W.shift_left a k
        | Shr -> W.shift_right_logical a k
        | Sar -> W.shift_right_arith a k
      in
      write st dst v;
      st.cc_a <- v;
      st.cc_b <- 0
  | Shiftv (op, dst, c) ->
      let a = value st dst in
      let k = W.to_unsigned st.regs.(c) land 31 in
      let v =
        match op with
        | Shl -> W.shift_left a k
        | Shr -> W.shift_right_logical a k
        | Sar -> W.shift_right_arith a k
      in
      write st dst v;
      st.cc_a <- v;
      st.cc_b <- 0
  | Imul (d, src) -> set_reg st d (W.mul st.regs.(d) (value st src))
  | Idiv (src, signed) ->
      let a = st.regs.(eax) and b = value st src in
      if signed then begin
        let q = W.div a b and r = W.rem a b in
        set_reg st eax q;
        set_reg st edx r
      end
      else begin
        let q = W.divu a b and r = W.remu a b in
        set_reg st eax q;
        set_reg st edx r
      end
  | Cdq -> set_reg st edx (if st.regs.(eax) < 0 then -1 else 0)
  | Lea (d, m) -> set_reg st d (eff st m)
  | Cmp (a, b) ->
      (* [b] before [a], the order the operand pair was evaluated in: a
         compare whose operands both fault reports the same fault *)
      let y = value st b in
      st.cc_a <- value st a;
      st.cc_b <- y
  | Setcc (c, d) -> set_reg st d (if VI.eval_cond c st.cc_a st.cc_b then 1 else 0)
  | Fop (op, prec, d, a, b) ->
      let x = st.fps.(a) and y = st.fps.(b) in
      let v =
        match op with
        | VI.Fadd -> x +. y
        | VI.Fsub -> x -. y
        | VI.Fmul -> x *. y
        | VI.Fdiv -> x /. y
      in
      st.fps.(d) <-
        (match prec with VI.Single -> round_single v | VI.Double -> v)
  | Fun1 (op, d, a) ->
      let x = st.fps.(a) in
      st.fps.(d) <-
        (match op with
        | VI.Fneg -> -.x
        | VI.Fabs -> Float.abs x
        | VI.Fmov -> x)
  | Fload (prec, d, m) ->
      let a = eff st m in
      st.fps.(d) <-
        (match prec with
        | VI.Single -> load_single st.mem a
        | VI.Double -> load_float st.mem a)
  | Fstore (prec, v, m) -> (
      let a = eff st m in
      match prec with
      | VI.Single -> store_single st.mem a st.fps.(v)
      | VI.Double -> store_float st.mem a st.fps.(v))
  | Fld_pool (d, i) -> st.fps.(d) <- st.prog.pool.(i)
  | Fcmp (op, a, b) ->
      let x = st.fps.(a) and y = st.fps.(b) in
      st.fcc <-
        (match op with VI.Feq -> x = y | VI.Flt -> x < y | VI.Fle -> x <= y)
  | Fcc_to_reg d -> set_reg st d (if st.fcc then 1 else 0)
  | Cvt_f_i (d, src) -> st.fps.(d) <- float_of_int (value st src)
  | Cvt_i_f (d, a) ->
      let f = st.fps.(a) in
      let v =
        if Float.is_nan f then 0
        else if f >= 2147483648.0 then W.max_int32
        else if f <= -2147483649.0 then W.min_int32
        else W.of_int (int_of_float f)
      in
      set_reg st d v
  | Guard_data r ->
      let a = W.to_unsigned st.regs.(r) in
      if not (Omnivm.Layout.in_data a) then
        fault (Access_violation { addr = a; access = Write })
  | Guard_code r ->
      let a = W.to_unsigned st.regs.(r) in
      if not (Omnivm.Layout.in_code a) then
        fault (Access_violation { addr = a; access = Execute })
  | Trapi n -> fault (Explicit_trap n)
  | Hcall n -> hcall st n
  | Nop -> ()
  | Jcc _ | Jmp _ | Jmp_ind _ | Call _ | Call_ind _ -> assert false

(* The native index a control instruction transfers to, or -1 if it
   falls through. *)
let control_target st (i : instr) =
  match i with
  | Jcc (c, l) -> if VI.eval_cond c st.cc_a st.cc_b then l else -1
  | Jmp l -> l
  | Jmp_ind x -> native_of_omni st (W.to_unsigned (value st x))
  | Call (l, ret) ->
      set_reg st ebp ret;
      l
  | Call_ind (x, ret) ->
      let t = native_of_omni st (W.to_unsigned (value st x)) in
      set_reg st ebp ret;
      t
  | _ -> assert false

(* Slot [k]'s tag, decoding the slot the first time it executes. *)
let[@inline never] decode st k =
  let s = st.prog.code.(k) in
  Machine.decode st.table k (cost_of s.i) s.origin
    ~branch:(is_branch s.i) ~control:(is_control s.i)
    ~hcall:(match s.i with Hcall _ -> true | _ -> false)

let deliver_fault st f =
  if st.handler = 0 then raise (Omnivm.Fault.Vm_fault f)
  else begin
    let h = st.handler in
    st.handler <- 0;
    (match int_home 1 with
    | Hreg x -> st.regs.(x) <- Omnivm.Fault.code f
    | Hmem a -> Mem.store32 st.mem a (Omnivm.Fault.code f)
    | Hzero -> ());
    st.pc <- native_of_omni st h
  end

exception Out_of_fuel_exn
exception Exit_exn

(* One loop inside one exception handler, with fuel and the watchdog as
   local countdowns, charging the pipeline model a segment at a time:
   see Risc_sim.run. *)
let run ?(fuel = max_int) ?watchdog (prog : program) mem host :
    Machine.outcome * Machine.stats * state =
  let st = create prog mem host in
  let code = prog.code in
  let n = Array.length code in
  let pipe = st.pipe and stats = st.stats in
  let { Machine.costs; tags; counts; memo } = st.table in
  let every =
    match watchdog with
    | Some w -> Omnivm.Watchdog.poll_every w
    | None -> max_int
  in
  let fuel = ref fuel and poll = ref every in
  let seg = ref 0 and retired = ref (-1) in
  let outcome = ref None in
  let deliver f =
    match deliver_fault st f with
    | () -> ()
    | exception Omnivm.Fault.Vm_fault f -> outcome := Some (Machine.Faulted f)
  in
  while Option.is_none !outcome do
    seg := st.pc;
    retired := st.pc - 1;
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
          retired := pc;
          exec_simple st (Array.unsafe_get code pc).i;
          st.pc <- pc + 1
        end
        else if tag land Machine.tag_control = 0 then begin
          retired := pc;
          exec_simple st (Array.unsafe_get code pc).i;
          st.pc <- pc + 1;
          if Option.is_some st.exited then raise_notrace Exit_exn
        end
        else begin
          let target = control_target st (Array.unsafe_get code pc).i in
          let taken = target >= 0 in
          if taken && tag land Machine.tag_branch <> 0 then
            stats.Machine.taken_branches <- stats.Machine.taken_branches + 1;
          Pipeline.segment pipe memo costs counts !seg pc
            ~taken_at:(if taken then pc else -1);
          st.pc <- (if taken then target else pc + 1);
          seg := st.pc;
          retired := st.pc - 1
        end
      done
    with
    | () -> ()
    | exception e -> (
        Pipeline.step pipe costs counts !seg !retired ~taken_at:(-1);
        match e with
        | Out_of_fuel_exn -> outcome := Some Machine.Out_of_fuel
        | Exit_exn -> outcome := Some (Machine.Exited (Option.get st.exited))
        | Omnivm.Fault.Vm_fault f -> deliver f
        | W.Division_by_zero -> deliver Omnivm.Fault.Division_by_zero
        | e -> raise e)
  done;
  Machine.finish stats pipe st.table n;
  (Option.get !outcome, stats, st)

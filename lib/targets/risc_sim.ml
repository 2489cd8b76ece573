(* Functional + cycle-approximate simulator for translated RISC code.

   Executes translated native code over the module's segmented memory,
   dispatches host calls through the runtime host, models branch delay
   slots (with Sparc-style annulment), and charges the generic pipeline
   cost model for what it retires, a segment of straight-line code at a
   time. The first time a slot executes, [decode] checks its instruction
   once and packs it into two op words, a dense opcode and its fields
   (see "op words" below), beside the slot's costs; from then on the
   slot runs by one jump on that opcode, with no match on the
   instruction and no allocation. A straight run of slots that has been
   stepped once runs whole from then on, one loop of [exec] with fuel
   and the watchdog charged once (see [run]). Statistics are counted per
   slot and per memo entry, and folded when the run ends (see
   [Machine.finish]). *)

open Risc
module W = Omni_util.Word32
module VI = Omnivm.Instr
module Mem = Omnivm.Memory

type state = {
  prog : program;
  regs : int array;
      (* 32, canonical word32, and the sink [decode] names for writes to
         r0 (index 0 stays zero) *)
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

(* [regs.(0)] is never written (a decoded write to r0 goes to [sink]),
   so it reads as zero. *)
let get st r = st.regs.(r)
let set st r v = if r <> 0 then st.regs.(r) <- canon v

let create (prog : program) mem host =
  let st =
    {
      prog;
      regs = Array.make 33 0;
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

(* --- op words ---

   The first time a slot executes, [decode] packs its instruction into
   two ints in the run's table. Word [a] holds a dense opcode in bits
   0-7, naming the constructor together with its ALU operation, width
   and signedness, condition or precision, so executing the slot is one
   jump on it; then three register fields, [rd] in bits 8-13 and [ra],
   [rb] in bits 14-18 and 19-23; and a 32-bit immediate in bits 24-55,
   canonical when read. Word [b] holds the one field that needs all of
   an int: a displacement, a branch's label, a pool index, a trap or
   host-call number, exactly as the instruction has it.

   Every field is checked here, once: a register outside 0-31 is
   refused with the exception a bounds check raises, as the register
   file refused it before it was decoded, and so is a pool index
   outside the pool. An immediate or return address is held as the
   32-bit value execution would have canonicalised it to. A write to r0
   names register 32, a sink nothing reads, so execution writes
   registers without testing for r0 and reads them unchecked. *)

let sink = 32

let[@inline] reg r =
  if r < 0 || r > 31 then invalid_arg "index out of bounds" else r
let[@inline] dst r = if reg r = 0 then sink else r

let[@inline] word op rd ra rb imm =
  op lor (rd lsl 8) lor (ra lsl 14) lor (rb lsl 19)
  lor ((imm land 0xFFFFFFFF) lsl 24)

(* Bit 56 of word [a]: the slot is a branch that annuls its delay slot
   when it falls through. *)
let annul = 1 lsl 56

let[@inline] rd a = (a lsr 8) land 63
let[@inline] ra a = (a lsr 14) land 31
let[@inline] rb a = (a lsr 19) land 31
let[@inline] imm a = (a lsl 7) asr 31

let[@inline] put ops k a b =
  ops.(2 * k) <- a;
  ops.((2 * k) + 1) <- b

(* Pack slot [k]'s [i] into [ops]. The opcodes, in the order [exec] and
   [branch] take them: Alu 0-14, Alui 15-29 and Alu_record 30-44 (by
   [VI.binop_index]), Lui 45, Load 46-50 (by [VI.load_index]), Store
   51-53 (by [VI.store_index]), Load_x 54-58, Store_x 59-61, Fload
   62, Fstore 63, Fload_s 64, Fstore_s 65, Fload_x 66, Fstore_x 67,
   Fld_pool 68, Fop 69-76 (by [VI.fop_index]), Fun1 77-79, Fcmp
   80-82, Fcc_to_reg 83, Cvt_f_i 84, Cvt_i_f 85, Cvt_d_s and Cvt_s_d
   86, Cmp 87, Cmpi 88, Cc_to_reg 89-98 (by [VI.cond_index]),
   Guard_data 99, Guard_code 100, Trapi 101, Hcall 102, Nop 103; the
   control instructions Br_cc 104-113, Br_cmp 114-123, Fbr 124 (on
   true) and 125, J 126, Call 127, Call_ind 128, Jmp_ind 129. *)
let pack (prog : program) ops k (i : instr) =
  match i with
  | Alu (op, d, x, y) ->
      put ops k (word (VI.binop_index op) (dst d) (reg x) (reg y) 0) 0
  | Alui (op, d, x, v) ->
      put ops k (word (15 + VI.binop_index op) (dst d) (reg x) 0 v) 0
  | Alu_record (op, d, x, y) ->
      put ops k (word (30 + VI.binop_index op) (dst d) (reg x) (reg y) 0) 0
  | Lui (d, v) -> put ops k (word 45 (dst d) 0 0 v) 0
  | Load (w, s, d, base, disp) ->
      put ops k (word (46 + VI.load_index w s) (dst d) (reg base) 0 0) disp
  | Store (w, v, base, disp) ->
      put ops k (word (51 + VI.store_index w) (reg v) (reg base) 0 0) disp
  | Load_x (w, s, d, x, y) ->
      put ops k (word (54 + VI.load_index w s) (dst d) (reg x) (reg y) 0) 0
  | Store_x (w, v, x, y) ->
      put ops k (word (59 + VI.store_index w) (reg v) (reg x) (reg y) 0) 0
  | Fload (f, base, disp) -> put ops k (word 62 (reg f) (reg base) 0 0) disp
  | Fstore (f, base, disp) -> put ops k (word 63 (reg f) (reg base) 0 0) disp
  | Fload_s (f, base, disp) -> put ops k (word 64 (reg f) (reg base) 0 0) disp
  | Fstore_s (f, base, disp) -> put ops k (word 65 (reg f) (reg base) 0 0) disp
  | Fload_x (f, x, y) -> put ops k (word 66 (reg f) (reg x) (reg y) 0) 0
  | Fstore_x (f, x, y) -> put ops k (word 67 (reg f) (reg x) (reg y) 0) 0
  | Fld_pool (f, n) ->
      if n < 0 || n >= Array.length prog.pool then
        invalid_arg "index out of bounds";
      put ops k (word 68 (reg f) 0 0 0) n
  | Fop (op, prec, f, x, y) ->
      put ops k (word (69 + VI.fop_index op prec) (reg f) (reg x) (reg y) 0) 0
  | Fun1 (op, f, x) ->
      let o = match op with VI.Fneg -> 77 | VI.Fabs -> 78 | VI.Fmov -> 79 in
      put ops k (word o (reg f) (reg x) 0 0) 0
  | Fcmp (op, x, y) ->
      let o = match op with VI.Feq -> 80 | VI.Flt -> 81 | VI.Fle -> 82 in
      put ops k (word o 0 (reg x) (reg y) 0) 0
  | Fcc_to_reg d -> put ops k (word 83 (dst d) 0 0 0) 0
  | Cvt_f_i (f, x) -> put ops k (word 84 (reg f) (reg x) 0 0) 0
  | Cvt_i_f (d, f) -> put ops k (word 85 (dst d) (reg f) 0 0) 0
  | Cvt_d_s (f, x) | Cvt_s_d (f, x) -> put ops k (word 86 (reg f) (reg x) 0 0) 0
  | Cmp (x, y) -> put ops k (word 87 0 (reg x) (reg y) 0) 0
  | Cmpi (x, v) -> put ops k (word 88 0 (reg x) 0 v) 0
  | Cc_to_reg (c, d) -> put ops k (word (89 + VI.cond_index c) (dst d) 0 0 0) 0
  | Guard_data r -> put ops k (word 99 0 (reg r) 0 0) 0
  | Guard_code r -> put ops k (word 100 0 (reg r) 0 0) 0
  | Trapi n -> put ops k (word 101 0 0 0 0) n
  | Hcall n -> put ops k (word 102 0 0 0 0) n
  | Nop -> put ops k (word 103 0 0 0 0) 0
  | Br_cc (c, l) -> put ops k (word (104 + VI.cond_index c) 0 0 0 0) l
  | Br_cmp (c, x, y, l) ->
      put ops k (word (114 + VI.cond_index c) 0 (reg x) (reg y) 0) l
  | Fbr (flag, l) -> put ops k (word (if flag then 124 else 125) 0 0 0 0) l
  | J l -> put ops k (word 126 0 0 0 0) l
  | Call (l, ret) -> put ops k (word 127 0 0 0 ret) l
  | Call_ind (r, ret) -> put ops k (word 128 0 (reg r) 0 ret) 0
  | Jmp_ind r -> put ops k (word 129 0 (reg r) 0 0) 0

(* Slot [k]'s tag, decoding the slot the first time it executes. *)
let[@inline never] decode st k =
  let s = st.prog.code.(k) in
  let w = cost_of st.prog.cfg s.i in
  let ops = st.table.Machine.ops in
  pack st.prog ops k s.i;
  if s.annul then ops.(2 * k) <- ops.(2 * k) lor annul;
  (* the opcode ranges [pack] lists *)
  let op = ops.(2 * k) land 255 in
  Machine.decode st.table k w s.origin ~branch:(op >= 104 && op <= 125)
    ~control:(op >= 104) ~hcall:(op = 102)

(* Registers, read and written unchecked: [decode] checked every field. *)
let[@inline] rg (regs : int array) k = Array.unsafe_get regs k
let[@inline] wr (regs : int array) k v = Array.unsafe_set regs k (canon v)
let[@inline] fr (fregs : float array) k = Array.unsafe_get fregs k
let[@inline] fw (fregs : float array) k (v : float) = Array.unsafe_set fregs k v
let[@inline] flag b = if b then 1 else 0
let[@inline] ltu x y = x land 0xFFFFFFFF < y land 0xFFFFFFFF
let[@inline] leu x y = x land 0xFFFFFFFF <= y land 0xFFFFFFFF

(* The address [base + disp] and the indexed address [ra + rb]. *)
let[@inline] ea regs a b = (rg regs (ra a) + b) land 0xFFFFFFFF
let[@inline] ex regs a = (rg regs (ra a) + rg regs (rb a)) land 0xFFFFFFFF

let[@inline] record st regs a v =
  let v = canon v in
  Array.unsafe_set regs (rd a) v;
  st.cc_a <- v;
  st.cc_b <- 0

let[@inline] cvt_i_f f =
  if Float.is_nan f then 0
  else if f >= 2147483648.0 then W.max_int32
  else if f <= -2147483649.0 then W.min_int32
  else W.of_int (int_of_float f)

let guard_data a =
  let a = W.to_unsigned a in
  if not (Omnivm.Layout.in_data a) then
    fault (Access_violation { addr = a; access = Write })

let guard_code a =
  let a = W.to_unsigned a in
  if not (Omnivm.Layout.in_code a) then
    fault (Access_violation { addr = a; access = Execute })

(* Execute a slot that does not transfer control, from its op words: in
   line in [run]'s loop, where most slots retire, and through [exec_call]
   where a host call or a delay slot does. *)
let[@inline] exec st a b =
  let regs = st.regs in
  match a land 255 with
  | 0 -> wr regs (rd a) (rg regs (ra a) + rg regs (rb a))
  | 1 -> wr regs (rd a) (rg regs (ra a) - rg regs (rb a))
  | 2 -> wr regs (rd a) (rg regs (ra a) * rg regs (rb a))
  | 3 -> wr regs (rd a) (W.div (rg regs (ra a)) (rg regs (rb a)))
  | 4 -> wr regs (rd a) (W.divu (rg regs (ra a)) (rg regs (rb a)))
  | 5 -> wr regs (rd a) (W.rem (rg regs (ra a)) (rg regs (rb a)))
  | 6 -> wr regs (rd a) (W.remu (rg regs (ra a)) (rg regs (rb a)))
  | 7 -> wr regs (rd a) (rg regs (ra a) land rg regs (rb a))
  | 8 -> wr regs (rd a) (rg regs (ra a) lor rg regs (rb a))
  | 9 -> wr regs (rd a) (rg regs (ra a) lxor rg regs (rb a))
  | 10 -> wr regs (rd a) (rg regs (ra a) lsl (rg regs (rb a) land 31))
  | 11 ->
      wr regs (rd a) ((rg regs (ra a) land 0xFFFFFFFF) lsr (rg regs (rb a) land 31))
  | 12 -> wr regs (rd a) (rg regs (ra a) asr (rg regs (rb a) land 31))
  | 13 -> wr regs (rd a) (flag (rg regs (ra a) < rg regs (rb a)))
  | 14 -> wr regs (rd a) (flag (ltu (rg regs (ra a)) (rg regs (rb a))))
  | 15 -> wr regs (rd a) (rg regs (ra a) + imm a)
  | 16 -> wr regs (rd a) (rg regs (ra a) - imm a)
  | 17 -> wr regs (rd a) (rg regs (ra a) * imm a)
  | 18 -> wr regs (rd a) (W.div (rg regs (ra a)) (imm a))
  | 19 -> wr regs (rd a) (W.divu (rg regs (ra a)) (imm a))
  | 20 -> wr regs (rd a) (W.rem (rg regs (ra a)) (imm a))
  | 21 -> wr regs (rd a) (W.remu (rg regs (ra a)) (imm a))
  | 22 -> wr regs (rd a) (rg regs (ra a) land imm a)
  | 23 -> wr regs (rd a) (rg regs (ra a) lor imm a)
  | 24 -> wr regs (rd a) (rg regs (ra a) lxor imm a)
  | 25 -> wr regs (rd a) (rg regs (ra a) lsl (imm a land 31))
  | 26 -> wr regs (rd a) ((rg regs (ra a) land 0xFFFFFFFF) lsr (imm a land 31))
  | 27 -> wr regs (rd a) (rg regs (ra a) asr (imm a land 31))
  | 28 -> wr regs (rd a) (flag (rg regs (ra a) < imm a))
  | 29 -> wr regs (rd a) (flag (ltu (rg regs (ra a)) (imm a)))
  | 30 -> record st regs a (rg regs (ra a) + rg regs (rb a))
  | 31 -> record st regs a (rg regs (ra a) - rg regs (rb a))
  | 32 -> record st regs a (rg regs (ra a) * rg regs (rb a))
  | 33 -> record st regs a (W.div (rg regs (ra a)) (rg regs (rb a)))
  | 34 -> record st regs a (W.divu (rg regs (ra a)) (rg regs (rb a)))
  | 35 -> record st regs a (W.rem (rg regs (ra a)) (rg regs (rb a)))
  | 36 -> record st regs a (W.remu (rg regs (ra a)) (rg regs (rb a)))
  | 37 -> record st regs a (rg regs (ra a) land rg regs (rb a))
  | 38 -> record st regs a (rg regs (ra a) lor rg regs (rb a))
  | 39 -> record st regs a (rg regs (ra a) lxor rg regs (rb a))
  | 40 -> record st regs a (rg regs (ra a) lsl (rg regs (rb a) land 31))
  | 41 ->
      record st regs a
        ((rg regs (ra a) land 0xFFFFFFFF) lsr (rg regs (rb a) land 31))
  | 42 -> record st regs a (rg regs (ra a) asr (rg regs (rb a) land 31))
  | 43 -> record st regs a (flag (rg regs (ra a) < rg regs (rb a)))
  | 44 -> record st regs a (flag (ltu (rg regs (ra a)) (rg regs (rb a))))
  | 45 -> Array.unsafe_set regs (rd a) (imm a)
  | 46 -> Array.unsafe_set regs (rd a) (W.sext8 (Mem.load8 st.mem (ea regs a b)))
  | 47 -> Array.unsafe_set regs (rd a) (Mem.load8 st.mem (ea regs a b))
  | 48 -> Array.unsafe_set regs (rd a) (W.sext16 (Mem.load16 st.mem (ea regs a b)))
  | 49 -> Array.unsafe_set regs (rd a) (Mem.load16 st.mem (ea regs a b))
  | 50 -> Array.unsafe_set regs (rd a) (Mem.load32 st.mem (ea regs a b))
  | 51 -> Mem.store8 st.mem (ea regs a b) (rg regs (rd a))
  | 52 -> Mem.store16 st.mem (ea regs a b) (rg regs (rd a))
  | 53 -> Mem.store32 st.mem (ea regs a b) (rg regs (rd a))
  | 54 -> Array.unsafe_set regs (rd a) (W.sext8 (Mem.load8 st.mem (ex regs a)))
  | 55 -> Array.unsafe_set regs (rd a) (Mem.load8 st.mem (ex regs a))
  | 56 -> Array.unsafe_set regs (rd a) (W.sext16 (Mem.load16 st.mem (ex regs a)))
  | 57 -> Array.unsafe_set regs (rd a) (Mem.load16 st.mem (ex regs a))
  | 58 -> Array.unsafe_set regs (rd a) (Mem.load32 st.mem (ex regs a))
  | 59 -> Mem.store8 st.mem (ex regs a) (rg regs (rd a))
  | 60 -> Mem.store16 st.mem (ex regs a) (rg regs (rd a))
  | 61 -> Mem.store32 st.mem (ex regs a) (rg regs (rd a))
  | 62 -> fw st.fregs (rd a) (load_float st.mem (ea regs a b))
  | 63 -> store_float st.mem (ea regs a b) (fr st.fregs (rd a))
  | 64 -> fw st.fregs (rd a) (load_single st.mem (ea regs a b))
  | 65 -> store_single st.mem (ea regs a b) (fr st.fregs (rd a))
  | 66 -> fw st.fregs (rd a) (load_float st.mem (ex regs a))
  | 67 -> store_float st.mem (ex regs a) (fr st.fregs (rd a))
  | 68 -> fw st.fregs (rd a) (Array.unsafe_get st.prog.pool b)
  | 69 ->
      fw st.fregs (rd a) (round_single (fr st.fregs (ra a) +. fr st.fregs (rb a)))
  | 70 -> fw st.fregs (rd a) (fr st.fregs (ra a) +. fr st.fregs (rb a))
  | 71 ->
      fw st.fregs (rd a) (round_single (fr st.fregs (ra a) -. fr st.fregs (rb a)))
  | 72 -> fw st.fregs (rd a) (fr st.fregs (ra a) -. fr st.fregs (rb a))
  | 73 ->
      fw st.fregs (rd a) (round_single (fr st.fregs (ra a) *. fr st.fregs (rb a)))
  | 74 -> fw st.fregs (rd a) (fr st.fregs (ra a) *. fr st.fregs (rb a))
  | 75 ->
      fw st.fregs (rd a) (round_single (fr st.fregs (ra a) /. fr st.fregs (rb a)))
  | 76 -> fw st.fregs (rd a) (fr st.fregs (ra a) /. fr st.fregs (rb a))
  | 77 -> fw st.fregs (rd a) (-.fr st.fregs (ra a))
  | 78 -> fw st.fregs (rd a) (Float.abs (fr st.fregs (ra a)))
  | 79 -> fw st.fregs (rd a) (fr st.fregs (ra a))
  | 80 -> st.fcc <- fr st.fregs (ra a) = fr st.fregs (rb a)
  | 81 -> st.fcc <- fr st.fregs (ra a) < fr st.fregs (rb a)
  | 82 -> st.fcc <- fr st.fregs (ra a) <= fr st.fregs (rb a)
  | 83 -> Array.unsafe_set regs (rd a) (flag st.fcc)
  | 84 -> fw st.fregs (rd a) (float_of_int (rg regs (ra a)))
  | 85 -> Array.unsafe_set regs (rd a) (cvt_i_f (fr st.fregs (ra a)))
  | 86 -> fw st.fregs (rd a) (round_single (fr st.fregs (ra a)))
  | 87 ->
      st.cc_a <- rg regs (ra a);
      st.cc_b <- rg regs (rb a)
  | 88 ->
      st.cc_a <- rg regs (ra a);
      st.cc_b <- imm a
  | 89 -> Array.unsafe_set regs (rd a) (flag (st.cc_a = st.cc_b))
  | 90 -> Array.unsafe_set regs (rd a) (flag (st.cc_a <> st.cc_b))
  | 91 -> Array.unsafe_set regs (rd a) (flag (st.cc_a < st.cc_b))
  | 92 -> Array.unsafe_set regs (rd a) (flag (st.cc_a <= st.cc_b))
  | 93 -> Array.unsafe_set regs (rd a) (flag (st.cc_b < st.cc_a))
  | 94 -> Array.unsafe_set regs (rd a) (flag (st.cc_b <= st.cc_a))
  | 95 -> Array.unsafe_set regs (rd a) (flag (ltu st.cc_a st.cc_b))
  | 96 -> Array.unsafe_set regs (rd a) (flag (leu st.cc_a st.cc_b))
  | 97 -> Array.unsafe_set regs (rd a) (flag (ltu st.cc_b st.cc_a))
  | 98 -> Array.unsafe_set regs (rd a) (flag (leu st.cc_b st.cc_a))
  | 99 -> guard_data (rg regs (ra a))
  | 100 -> guard_code (rg regs (ra a))
  | 101 -> fault (Explicit_trap b)
  | 102 -> hcall st b
  | 103 -> ()
  | _ -> invalid_arg "Risc_sim: control instruction in a delay slot"

let[@inline never] exec_call st a b = exec st a b

(* Evaluate a control slot from its op words: where it branches, as a
   native index, or -1 if it falls through. *)
let[@inline] branch st a b =
  let regs = st.regs in
  match a land 255 with
  | 104 -> if st.cc_a = st.cc_b then b else -1
  | 105 -> if st.cc_a <> st.cc_b then b else -1
  | 106 -> if st.cc_a < st.cc_b then b else -1
  | 107 -> if st.cc_a <= st.cc_b then b else -1
  | 108 -> if st.cc_b < st.cc_a then b else -1
  | 109 -> if st.cc_b <= st.cc_a then b else -1
  | 110 -> if ltu st.cc_a st.cc_b then b else -1
  | 111 -> if leu st.cc_a st.cc_b then b else -1
  | 112 -> if ltu st.cc_b st.cc_a then b else -1
  | 113 -> if leu st.cc_b st.cc_a then b else -1
  | 114 -> if rg regs (ra a) = rg regs (rb a) then b else -1
  | 115 -> if rg regs (ra a) <> rg regs (rb a) then b else -1
  | 116 -> if rg regs (ra a) < rg regs (rb a) then b else -1
  | 117 -> if rg regs (ra a) <= rg regs (rb a) then b else -1
  | 118 -> if rg regs (rb a) < rg regs (ra a) then b else -1
  | 119 -> if rg regs (rb a) <= rg regs (ra a) then b else -1
  | 120 -> if ltu (rg regs (ra a)) (rg regs (rb a)) then b else -1
  | 121 -> if leu (rg regs (ra a)) (rg regs (rb a)) then b else -1
  | 122 -> if ltu (rg regs (rb a)) (rg regs (ra a)) then b else -1
  | 123 -> if leu (rg regs (rb a)) (rg regs (ra a)) then b else -1
  | 124 -> if st.fcc then b else -1
  | 125 -> if st.fcc then -1 else b
  | 126 -> b
  | 127 ->
      Array.unsafe_set regs omni_ra (imm a);
      b
  | 128 ->
      let target = native_of_omni st (W.to_unsigned (rg regs (ra a))) in
      Array.unsafe_set regs omni_ra (imm a);
      target
  | _ -> native_of_omni st (W.to_unsigned (rg regs (ra a)))

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
   or on a fault it cannot deliver.

   Execution goes a straight run at a time: the slots from where it
   entered up to the next control instruction or host call, which ends
   it. The first time a straight run is stepped from its first slot to
   its end, its length goes into the table's [runs]; entered again with
   more fuel and more polls left than that and its ending slot, it runs
   whole, as one loop of [exec], and fuel and polls are charged once for
   the run and the ending slot. Its slots have all been decoded, and
   none stops, so no step of it could have done anything else: only
   [exec] runs. A fault inside it leaves fuel, polls, pc and [retired]
   as stepping would have. A run that cannot go whole is stepped; either
   way the ending slot then executes.

   The pipeline model is charged a segment at a time
   ([Pipeline.segment]): the slots from [seg], where execution entered,
   to the next control instruction and its delay slot. Until then
   [retired] is the last slot of it that retired, and [taken_at] the
   control instruction once it has retired taking its branch, so
   whichever way the loop is left, what retired is stepped. A faulting
   instruction has retired, unless it is a control instruction whose
   target faults. *)
let run ?(fuel = max_int) ?watchdog (prog : program) mem host :
    Machine.outcome * Machine.stats * state =
  let st = create prog mem host in
  let code = prog.code in
  let n = Array.length code in
  let delay = prog.cfg.has_delay_slot in
  let pipe = st.pipe and stats = st.stats in
  let { Machine.costs; ops; tags; counts; runs; memo } = st.table in
  let stops = Machine.tag_control lor Machine.tag_hcall in
  let every =
    match watchdog with
    | Some w -> Omnivm.Watchdog.poll_every w
    | None -> max_int
  in
  let fuel = ref fuel and poll = ref every in
  let seg = ref 0 and retired = ref (-1) and taken_at = ref (-1) in
  let outcome = ref None in
  let deliver f =
    match deliver_fault st f with
    | () -> ()
    | exception Omnivm.Fault.Vm_fault f -> outcome := Some (Machine.Faulted f)
  in
  while Option.is_none !outcome do
    seg := st.pc;
    retired := st.pc - 1;
    taken_at := -1;
    match
      while true do
        (* [st.pc] starts a straight run; [pc] is the slot that ends it,
           a control instruction or a host call, once it is stepped *)
        let first = st.pc in
        let len = if first >= 0 && first < n then Array.unsafe_get runs first else 0 in
        let pc =
          if len > 0 && !fuel > len + 1 && !poll > len + 1 then begin
            let j = ref first in
            (match
               while !j < first + len do
                 let k = !j in
                 exec st (Array.unsafe_get ops (2 * k))
                   (Array.unsafe_get ops ((2 * k) + 1));
                 j := k + 1
               done
             with
             | () -> ()
             | exception e ->
                 (* stepping had spent a step on each slot up to [!j] *)
                 fuel := !fuel - (!j - first + 1);
                 poll := !poll - (!j - first + 1);
                 retired := !j;
                 st.pc <- !j;
                 raise e);
            (* and one on the slot that ends the run *)
            fuel := !fuel - (len + 1);
            poll := !poll - (len + 1);
            retired := first + len - 1;
            st.pc <- first + len;
            first + len
          end
          else begin
            let stop = ref (-1) in
            while !stop < 0 do
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
              if tag land stops = 0 then begin
                retired := pc;
                exec st (Array.unsafe_get ops (2 * pc))
                  (Array.unsafe_get ops ((2 * pc) + 1));
                st.pc <- pc + 1
              end
              else begin
                if pc > first then Array.unsafe_set runs first (pc - first);
                stop := pc
              end
            done;
            !stop
          end
        in
        let tag = Array.unsafe_get tags pc in
        let a = Array.unsafe_get ops (2 * pc)
        and b = Array.unsafe_get ops ((2 * pc) + 1) in
        if tag land Machine.tag_control = 0 then begin
          retired := pc;
          exec_call st a b;
          st.pc <- pc + 1;
          if Option.is_some st.exited then raise_notrace Exit_exn
        end
        else begin
          let target = branch st a b in
          let taken = target >= 0 in
          if taken && tag land Machine.tag_branch <> 0 then
            stats.Machine.taken_branches <- stats.Machine.taken_branches + 1;
          let taken_pc = if taken then pc else -1 in
          let last =
            (* execute the delay slot unless annulled *)
            if delay && pc + 1 < n && (taken || a land annul = 0) then begin
              let d = pc + 1 in
              retired := pc;
              taken_at := taken_pc;
              decr fuel;
              if !fuel < 0 then raise_notrace Out_of_fuel_exn;
              if Array.unsafe_get tags d < 0 then ignore (decode st d);
              retired := d;
              exec_call st (Array.unsafe_get ops (2 * d))
                (Array.unsafe_get ops ((2 * d) + 1));
              taken_at := -1;
              d
            end
            else pc
          in
          Pipeline.segment pipe memo costs counts !seg last ~taken_at:taken_pc;
          st.pc <- (if taken then target else if delay then pc + 2 else pc + 1);
          seg := st.pc;
          retired := st.pc - 1;
          if Option.is_some st.exited then raise_notrace Exit_exn
        end
      done
    with
    | () -> ()
    | exception e -> (
        Pipeline.step pipe costs counts !seg !retired ~taken_at:!taken_at;
        match e with
        | Out_of_fuel_exn -> outcome := Some Machine.Out_of_fuel
        | Exit_exn -> outcome := Some (Machine.Exited (Option.get st.exited))
        | Omnivm.Fault.Vm_fault f -> deliver f
        | W.Division_by_zero -> deliver Omnivm.Fault.Division_by_zero
        | e -> raise e)
  done;
  Machine.finish stats pipe st.table n;
  (Option.get !outcome, stats, st)

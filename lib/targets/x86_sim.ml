(* Functional + cycle-approximate simulator for translated x86 code. Like
   [Risc_sim], it decodes a slot the first time the slot executes, its
   costs and two op words whose dense opcode names the instruction with
   its operation and operand shapes, so a retired slot runs by one jump
   on an int and allocates nothing; it runs a straight run whole once it
   has been stepped, charges the pipeline model a segment at a time, and
   counts per slot and per memo entry, folding the counts when the run
   ends. *)

open X86
module W = Omni_util.Word32
module VI = Omnivm.Instr
module Mem = Omnivm.Memory

type state = {
  prog : program;
  regs : int array; (* 8, and register 8, a missing base, reading zero *)
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


let create prog mem host =
  let st =
    {
      prog;
      regs = Array.make 9 0;
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

(* [Word32.of_int] in line: the low 32 bits, sign-extended. *)
let canon v = (v lsl 31) asr 31

let set_reg st r v = st.regs.(r) <- canon v

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

(* --- op words ---

   The first time a slot executes, [decode] packs its instruction into
   two ints in the run's table, as [Risc_sim] does. Word [a] holds a
   dense opcode in bits 0-7, naming the constructor together with its
   ALU or shift operation, width and signedness, condition or precision
   and the shape of its operands (register, immediate or memory), so
   executing the slot is one jump on it; then register [f1] in bits
   8-11 and [f2] in bits 12-15; a memory operand's index register in
   bits 16-18 (a third register, for [Fop]) and whether it has one in
   bit 19; and a 32-bit immediate or return address in bits 20-51,
   canonical when read. A memory operand's base is [f2], 8 when it has
   none: register 8 reads as zero and is never written. Word [b] holds
   a memory operand's displacement in its low 32 bits and its index
   scale's low 31 bits above them, the scale's bit 31 being bit 52 of
   [a]; otherwise a branch's label, a pool index, a trap or host-call
   number, or a second immediate, exactly. Address arithmetic is modulo
   2^32, so a displacement or scale is held exactly as far as any
   address can tell.

   Every field is checked here, once: a register outside 0-7 is refused
   with the exception a bounds check raises, as the register file
   refused it before it was decoded, and so is a pool index outside the
   pool; a destination that is an immediate is refused as a write to it
   always was. An instruction with two memory operands holds the second
   (which must not be indexed) in [f1] and the immediate field and
   takes opcode 111, its operation in bits 53-62 of [a]; one with two
   indexed memory operands has more fields than two words hold, and is
   refused. *)

let no_base = 8
let indexed = 1 lsl 19

let[@inline] reg r = if r < 0 || r > 7 then invalid_arg "index out of bounds" else r

let[@inline] word op r1 r2 v =
  op lor (r1 lsl 8) lor (r2 lsl 12) lor ((v land 0xFFFFFFFF) lsl 20)

let[@inline] f1 a = (a lsr 8) land 15
let[@inline] f2 a = (a lsr 12) land 15
let[@inline] f3 a = (a lsr 16) land 7
let[@inline] v32 a = (a lsl 11) asr 31

(* A memory operand's fields of word [a], and its word [b]. *)
let[@inline] mem_a (m : mem) =
  let base = (match m.base with Some r -> reg r | None -> no_base) lsl 12 in
  match m.index with
  | None -> base
  | Some (r, s) ->
      base lor (reg r lsl 16) lor indexed lor (((s lsr 31) land 1) lsl 52)

let[@inline] mem_b (m : mem) =
  let s = match m.index with Some (_, s) -> s land 0x7FFFFFFF | None -> 0 in
  (m.disp land 0xFFFFFFFF) lor (s lsl 32)

let check = function R r -> ignore (reg r) | I _ -> () | M m -> ignore (mem_a m)

let to_immediate () = invalid_arg "x86 write to immediate"

let[@inline] alu_index = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4
let[@inline] shift_index = function Shl -> 0 | Shr -> 2 | Sar -> 4

let[@inline] put ops k a b =
  ops.(2 * k) <- a;
  ops.((2 * k) + 1) <- b

let[@inline] put_mem ops k a m = put ops k (a lor mem_a m) (mem_b m)

(* Opcode 111: the primary operand is the indexed one, else the
   destination. *)
let put_two_mem ops k kind dst src =
  let on_dst = dst.index <> None || src.index = None in
  let p = if on_dst then dst else src and q = if on_dst then src else dst in
  if q.index <> None then invalid_arg "X86_sim: two indexed memory operands";
  let q_base = match q.base with Some r -> reg r | None -> no_base in
  put_mem ops k
    (word 111 q_base 0 q.disp lor (((2 * kind) + Bool.to_int on_dst) lsl 53))
    p

(* Pack slot [k]'s [i] into [ops]. The opcodes, in the order [exec] and
   [branch] take them: Mov 0-4 (r r, r i, r m, m r, m i), Load 5-9 (by
   [VI.load_index]), Store 10-12 from a register and 13-15 of an
   immediate (by [VI.store_index]), Alu 16-40 (five shapes, r r, r
   i, r m, m r, m i, of five operations each, by [alu_index]), Shift
   41-46 and Shiftv 47-52 (register then memory, by [shift_index]),
   Imul 53-55 (r, i, m), Idiv 56-61 (r, i, m; unsigned then signed),
   Cdq 62, Lea 63, Cmp 64-71 (r r, r i, r m, m r, m i, i r, i i, i m),
   Setcc 72-81 (by [VI.cond_index]), Fop 82-89 (by
   [VI.fop_index]), Fun1 90-92, Fload 93-94 and Fstore 95-96
   (single, double), Fld_pool 97, Fcmp 98-100, Fcc_to_reg 101, Cvt_f_i
   102-104 (r, i, m), Cvt_i_f 105, Guard_data 106, Guard_code 107,
   Trapi 108, Hcall 109, Nop 110, two memory operands 111 (Mov 0, Alu
   1-5, Cmp 6, Store 7-9); the control instructions Jcc 112-121, Jmp
   122, Jmp_ind 123-125 and Call 126, Call_ind 127-129 (r, i, m). *)
let pack (prog : program) ops k (i : instr) =
  match i with
  | Mov (R d, R x) -> put ops k (word 0 (reg d) (reg x) 0) 0
  | Mov (R d, I v) -> put ops k (word 1 (reg d) 0 v) 0
  | Mov (R d, M m) -> put_mem ops k (word 2 (reg d) 0 0) m
  | Mov (M m, R x) -> put_mem ops k (word 3 (reg x) 0 0) m
  | Mov (M m, I v) -> put_mem ops k (word 4 0 0 v) m
  | Mov (M m, M m') -> put_two_mem ops k 0 m m'
  | Mov (I _, x) -> check x; to_immediate ()
  | Load (w, s, d, m) ->
      put_mem ops k (word (5 + VI.load_index w s) (reg d) 0 0) m
  | Store (w, m, R x) ->
      put_mem ops k (word (10 + VI.store_index w) (reg x) 0 0) m
  | Store (w, m, I v) -> put_mem ops k (word (13 + VI.store_index w) 0 0 v) m
  | Store (w, m, M m') -> put_two_mem ops k (7 + VI.store_index w) m m'
  | Alu (op, R d, R x) -> put ops k (word (16 + alu_index op) (reg d) (reg x) 0) 0
  | Alu (op, R d, I v) -> put ops k (word (21 + alu_index op) (reg d) 0 v) 0
  | Alu (op, R d, M m) -> put_mem ops k (word (26 + alu_index op) (reg d) 0 0) m
  | Alu (op, M m, R x) -> put_mem ops k (word (31 + alu_index op) (reg x) 0 0) m
  | Alu (op, M m, I v) -> put_mem ops k (word (36 + alu_index op) 0 0 v) m
  | Alu (op, M m, M m') -> put_two_mem ops k (1 + alu_index op) m m'
  | Alu (_, I _, x) -> check x; to_immediate ()
  | Shift (op, R d, n) ->
      put ops k (word (41 + shift_index op) (reg d) 0 (n land 31)) 0
  | Shift (op, M m, n) ->
      put_mem ops k (word (42 + shift_index op) 0 0 (n land 31)) m
  | Shift (_, I _, _) -> to_immediate ()
  | Shiftv (op, R d, c) ->
      put ops k (word (47 + shift_index op) (reg d) (reg c) 0) 0
  | Shiftv (op, M m, c) -> put_mem ops k (word (48 + shift_index op) (reg c) 0 0) m
  | Shiftv (_, I _, c) -> ignore (reg c); to_immediate ()
  | Imul (d, R x) -> put ops k (word 53 (reg d) (reg x) 0) 0
  | Imul (d, I v) -> put ops k (word 54 (reg d) 0 v) 0
  | Imul (d, M m) -> put_mem ops k (word 55 (reg d) 0 0) m
  | Idiv (R x, signed) -> put ops k (word (56 + Bool.to_int signed) (reg x) 0 0) 0
  | Idiv (I v, signed) -> put ops k (word (58 + Bool.to_int signed) 0 0 v) 0
  | Idiv (M m, signed) -> put_mem ops k (word (60 + Bool.to_int signed) 0 0 0) m
  | Cdq -> put ops k (word 62 0 0 0) 0
  | Lea (d, m) -> put_mem ops k (word 63 (reg d) 0 0) m
  | Cmp (R x, R y) -> put ops k (word 64 (reg x) (reg y) 0) 0
  | Cmp (R x, I v) -> put ops k (word 65 (reg x) 0 v) 0
  | Cmp (R x, M m) -> put_mem ops k (word 66 (reg x) 0 0) m
  | Cmp (M m, R y) -> put_mem ops k (word 67 (reg y) 0 0) m
  | Cmp (M m, I v) -> put_mem ops k (word 68 0 0 v) m
  | Cmp (I v, R y) -> put ops k (word 69 (reg y) 0 v) 0
  | Cmp (I v, I w) -> put ops k (word 70 0 0 v) (canon w)
  | Cmp (I v, M m) -> put_mem ops k (word 71 0 0 v) m
  | Cmp (M m, M m') -> put_two_mem ops k 6 m m'
  | Setcc (c, d) -> put ops k (word (72 + VI.cond_index c) (reg d) 0 0) 0
  | Fop (op, prec, d, x, y) ->
      let o = 82 + VI.fop_index op prec in
      put ops k (word o (reg d) (reg x) 0 lor (reg y lsl 16)) 0
  | Fun1 (op, d, x) ->
      let o = match op with VI.Fneg -> 90 | VI.Fabs -> 91 | VI.Fmov -> 92 in
      put ops k (word o (reg d) (reg x) 0) 0
  | Fload (prec, d, m) ->
      let o = match prec with VI.Single -> 93 | VI.Double -> 94 in
      put_mem ops k (word o (reg d) 0 0) m
  | Fstore (prec, x, m) ->
      let o = match prec with VI.Single -> 95 | VI.Double -> 96 in
      put_mem ops k (word o (reg x) 0 0) m
  | Fld_pool (d, n) ->
      if n < 0 || n >= Array.length prog.pool then
        invalid_arg "index out of bounds";
      put ops k (word 97 (reg d) 0 0) n
  | Fcmp (op, x, y) ->
      let o = match op with VI.Feq -> 98 | VI.Flt -> 99 | VI.Fle -> 100 in
      put ops k (word o (reg x) (reg y) 0) 0
  | Fcc_to_reg d -> put ops k (word 101 (reg d) 0 0) 0
  | Cvt_f_i (d, R x) -> put ops k (word 102 (reg d) (reg x) 0) 0
  | Cvt_f_i (d, I v) -> put ops k (word 103 (reg d) 0 v) 0
  | Cvt_f_i (d, M m) -> put_mem ops k (word 104 (reg d) 0 0) m
  | Cvt_i_f (d, x) -> put ops k (word 105 (reg d) (reg x) 0) 0
  | Guard_data r -> put ops k (word 106 (reg r) 0 0) 0
  | Guard_code r -> put ops k (word 107 (reg r) 0 0) 0
  | Trapi n -> put ops k (word 108 0 0 0) n
  | Hcall n -> put ops k (word 109 0 0 0) n
  | Nop -> put ops k (word 110 0 0 0) 0
  | Jcc (c, l) -> put ops k (word (112 + VI.cond_index c) 0 0 0) l
  | Jmp l -> put ops k (word 122 0 0 0) l
  | Jmp_ind (R x) -> put ops k (word 123 (reg x) 0 0) 0
  | Jmp_ind (I v) -> put ops k (word 124 0 0 0) (canon v)
  | Jmp_ind (M m) -> put_mem ops k (word 125 0 0 0) m
  | Call (l, ret) -> put ops k (word 126 0 0 ret) l
  | Call_ind (R x, ret) -> put ops k (word 127 (reg x) 0 ret) 0
  | Call_ind (I v, ret) -> put ops k (word 128 0 0 ret) (canon v)
  | Call_ind (M m, ret) -> put_mem ops k (word 129 0 0 ret) m

(* Slot [k]'s tag, decoding the slot the first time it executes. *)
let[@inline never] decode st k =
  let s = st.prog.code.(k) in
  let w = cost_of s.i in
  let ops = st.table.Machine.ops in
  pack st.prog ops k s.i;
  (* the opcode ranges [pack] lists *)
  let op = ops.(2 * k) land 255 in
  Machine.decode st.table k w s.origin ~branch:(op >= 112 && op <= 121)
    ~control:(op >= 112) ~hcall:(op = 109)

(* Registers, read and written unchecked: [decode] checked every field. *)
let[@inline] rg (regs : int array) k = Array.unsafe_get regs k
let[@inline] wr (regs : int array) k v = Array.unsafe_set regs k (canon v)
let[@inline] fr (fps : float array) k = Array.unsafe_get fps k
let[@inline] fw (fps : float array) k (v : float) = Array.unsafe_set fps k v
let[@inline] flag b = if b then 1 else 0
let[@inline] ltu x y = x land 0xFFFFFFFF < y land 0xFFFFFFFF
let[@inline] leu x y = x land 0xFFFFFFFF <= y land 0xFFFFFFFF

let[@inline never] eff_indexed regs a b =
  let scale = (b lsr 32) lor (((a lsr 52) land 1) lsl 31) in
  (rg regs (f2 a) + (rg regs (f3 a) * scale) + b) land 0xFFFFFFFF

(* The address of the memory operand. *)
let[@inline] eff regs a b =
  if a land indexed = 0 then (rg regs (f2 a) + b) land 0xFFFFFFFF
  else eff_indexed regs a b

(* Set the destination register [f1] or the memory word at [addr] to an
   ALU or shift result, and the compare state to (result, 0). *)
let[@inline] alu_r st regs a v =
  let v = canon v in
  Array.unsafe_set regs (f1 a) v;
  st.cc_a <- v;
  st.cc_b <- 0

let[@inline] alu_m st addr v =
  let v = canon v in
  Mem.store32 st.mem addr v;
  st.cc_a <- v;
  st.cc_b <- 0

let alu k x y =
  match k with
  | 0 -> x + y
  | 1 -> x - y
  | 2 -> x land y
  | 3 -> x lor y
  | _ -> x lxor y

let cvt_i_f f =
  if Float.is_nan f then 0
  else if f >= 2147483648.0 then W.max_int32
  else if f <= -2147483649.0 then W.min_int32
  else W.of_int (int_of_float f)

let idiv st signed y =
  let x = st.regs.(eax) in
  if signed then begin
    let q = W.div x y and r = W.rem x y in
    set_reg st eax q;
    set_reg st edx r
  end
  else begin
    let q = W.divu x y and r = W.remu x y in
    set_reg st eax q;
    set_reg st edx r
  end

let guard_data a =
  let a = W.to_unsigned a in
  if not (Omnivm.Layout.in_data a) then
    fault (Access_violation { addr = a; access = Write })

let guard_code a =
  let a = W.to_unsigned a in
  if not (Omnivm.Layout.in_code a) then
    fault (Access_violation { addr = a; access = Execute })

(* Opcode 111: the operand [b] and [f2] describe, and the one [f1] and
   the immediate field do, in the order the instruction names them. *)
let two_mem st a b =
  let regs = st.regs and mem = st.mem in
  let p = eff regs a b and q = (rg regs (f1 a) + v32 a) land 0xFFFFFFFF in
  let op = a lsr 53 in
  let on_dst = op land 1 = 1 in
  let dst = if on_dst then p else q and src = if on_dst then q else p in
  match op lsr 1 with
  | 0 -> Mem.store32 mem dst (Mem.load32 mem src)
  | 6 ->
      let y = Mem.load32 mem src in
      st.cc_a <- Mem.load32 mem dst;
      st.cc_b <- y
  | 7 -> Mem.store8 mem dst (Mem.load32 mem src)
  | 8 -> Mem.store16 mem dst (Mem.load32 mem src)
  | 9 -> Mem.store32 mem dst (Mem.load32 mem src)
  | k ->
      let x = Mem.load32 mem dst in
      let y = Mem.load32 mem src in
      alu_m st dst (alu (k - 1) x y)

(* Execute a slot that does not transfer control, from its op words: in
   line in [run]'s loop, where most slots retire, and through [exec_call]
   where a host call or a delay slot does. *)
let[@inline] exec st a b =
  let regs = st.regs and fps = st.fps and mem = st.mem in
  match a land 255 with
  | 0 -> Array.unsafe_set regs (f1 a) (rg regs (f2 a))
  | 1 -> Array.unsafe_set regs (f1 a) (v32 a)
  | 2 -> Array.unsafe_set regs (f1 a) (Mem.load32 mem (eff regs a b))
  | 3 -> Mem.store32 mem (eff regs a b) (rg regs (f1 a))
  | 4 -> Mem.store32 mem (eff regs a b) (v32 a)
  | 5 -> Array.unsafe_set regs (f1 a) (W.sext8 (Mem.load8 mem (eff regs a b)))
  | 6 -> Array.unsafe_set regs (f1 a) (Mem.load8 mem (eff regs a b))
  | 7 -> Array.unsafe_set regs (f1 a) (W.sext16 (Mem.load16 mem (eff regs a b)))
  | 8 -> Array.unsafe_set regs (f1 a) (Mem.load16 mem (eff regs a b))
  | 9 -> Array.unsafe_set regs (f1 a) (Mem.load32 mem (eff regs a b))
  | 10 -> Mem.store8 mem (eff regs a b) (rg regs (f1 a))
  | 11 -> Mem.store16 mem (eff regs a b) (rg regs (f1 a))
  | 12 -> Mem.store32 mem (eff regs a b) (rg regs (f1 a))
  | 13 -> Mem.store8 mem (eff regs a b) (v32 a)
  | 14 -> Mem.store16 mem (eff regs a b) (v32 a)
  | 15 -> Mem.store32 mem (eff regs a b) (v32 a)
  | 16 -> alu_r st regs a (rg regs (f1 a) + rg regs (f2 a))
  | 17 -> alu_r st regs a (rg regs (f1 a) - rg regs (f2 a))
  | 18 -> alu_r st regs a (rg regs (f1 a) land rg regs (f2 a))
  | 19 -> alu_r st regs a (rg regs (f1 a) lor rg regs (f2 a))
  | 20 -> alu_r st regs a (rg regs (f1 a) lxor rg regs (f2 a))
  | 21 -> alu_r st regs a (rg regs (f1 a) + v32 a)
  | 22 -> alu_r st regs a (rg regs (f1 a) - v32 a)
  | 23 -> alu_r st regs a (rg regs (f1 a) land v32 a)
  | 24 -> alu_r st regs a (rg regs (f1 a) lor v32 a)
  | 25 -> alu_r st regs a (rg regs (f1 a) lxor v32 a)
  | 26 -> alu_r st regs a (rg regs (f1 a) + Mem.load32 mem (eff regs a b))
  | 27 -> alu_r st regs a (rg regs (f1 a) - Mem.load32 mem (eff regs a b))
  | 28 -> alu_r st regs a (rg regs (f1 a) land Mem.load32 mem (eff regs a b))
  | 29 -> alu_r st regs a (rg regs (f1 a) lor Mem.load32 mem (eff regs a b))
  | 30 -> alu_r st regs a (rg regs (f1 a) lxor Mem.load32 mem (eff regs a b))
  | 31 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m + rg regs (f1 a))
  | 32 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m - rg regs (f1 a))
  | 33 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m land rg regs (f1 a))
  | 34 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m lor rg regs (f1 a))
  | 35 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m lxor rg regs (f1 a))
  | 36 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m + v32 a)
  | 37 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m - v32 a)
  | 38 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m land v32 a)
  | 39 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m lor v32 a)
  | 40 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 mem m lxor v32 a)
  | 41 -> alu_r st regs a (W.shift_left (rg regs (f1 a)) (v32 a))
  | 42 ->
      let m = eff regs a b in
      alu_m st m (W.shift_left (Mem.load32 mem m) (v32 a))
  | 43 -> alu_r st regs a (W.shift_right_logical (rg regs (f1 a)) (v32 a))
  | 44 ->
      let m = eff regs a b in
      alu_m st m (W.shift_right_logical (Mem.load32 mem m) (v32 a))
  | 45 -> alu_r st regs a (W.shift_right_arith (rg regs (f1 a)) (v32 a))
  | 46 ->
      let m = eff regs a b in
      alu_m st m (W.shift_right_arith (Mem.load32 mem m) (v32 a))
  | 47 -> alu_r st regs a (W.shift_left (rg regs (f1 a)) (rg regs (f2 a)))
  | 48 ->
      let m = eff regs a b in
      let x = Mem.load32 mem m in
      alu_m st m (W.shift_left x (rg regs (f1 a)))
  | 49 -> alu_r st regs a (W.shift_right_logical (rg regs (f1 a)) (rg regs (f2 a)))
  | 50 ->
      let m = eff regs a b in
      let x = Mem.load32 mem m in
      alu_m st m (W.shift_right_logical x (rg regs (f1 a)))
  | 51 -> alu_r st regs a (W.shift_right_arith (rg regs (f1 a)) (rg regs (f2 a)))
  | 52 ->
      let m = eff regs a b in
      let x = Mem.load32 mem m in
      alu_m st m (W.shift_right_arith x (rg regs (f1 a)))
  | 53 -> wr regs (f1 a) (W.mul (rg regs (f1 a)) (rg regs (f2 a)))
  | 54 -> wr regs (f1 a) (W.mul (rg regs (f1 a)) (v32 a))
  | 55 -> wr regs (f1 a) (W.mul (rg regs (f1 a)) (Mem.load32 mem (eff regs a b)))
  | 56 -> idiv st false (rg regs (f1 a))
  | 57 -> idiv st true (rg regs (f1 a))
  | 58 -> idiv st false (v32 a)
  | 59 -> idiv st true (v32 a)
  | 60 -> idiv st false (Mem.load32 mem (eff regs a b))
  | 61 -> idiv st true (Mem.load32 mem (eff regs a b))
  | 62 -> Array.unsafe_set regs edx (if rg regs eax < 0 then -1 else 0)
  | 63 -> Array.unsafe_set regs (f1 a) (canon (eff regs a b))
  | 64 ->
      st.cc_a <- rg regs (f1 a);
      st.cc_b <- rg regs (f2 a)
  | 65 ->
      st.cc_a <- rg regs (f1 a);
      st.cc_b <- v32 a
  | 66 ->
      let y = Mem.load32 mem (eff regs a b) in
      st.cc_a <- rg regs (f1 a);
      st.cc_b <- y
  | 67 ->
      st.cc_a <- Mem.load32 mem (eff regs a b);
      st.cc_b <- rg regs (f1 a)
  | 68 ->
      st.cc_a <- Mem.load32 mem (eff regs a b);
      st.cc_b <- v32 a
  | 69 ->
      st.cc_a <- v32 a;
      st.cc_b <- rg regs (f1 a)
  | 70 ->
      st.cc_a <- v32 a;
      st.cc_b <- b
  | 71 ->
      st.cc_b <- Mem.load32 mem (eff regs a b);
      st.cc_a <- v32 a
  | 72 -> Array.unsafe_set regs (f1 a) (flag (st.cc_a = st.cc_b))
  | 73 -> Array.unsafe_set regs (f1 a) (flag (st.cc_a <> st.cc_b))
  | 74 -> Array.unsafe_set regs (f1 a) (flag (st.cc_a < st.cc_b))
  | 75 -> Array.unsafe_set regs (f1 a) (flag (st.cc_a <= st.cc_b))
  | 76 -> Array.unsafe_set regs (f1 a) (flag (st.cc_b < st.cc_a))
  | 77 -> Array.unsafe_set regs (f1 a) (flag (st.cc_b <= st.cc_a))
  | 78 -> Array.unsafe_set regs (f1 a) (flag (ltu st.cc_a st.cc_b))
  | 79 -> Array.unsafe_set regs (f1 a) (flag (leu st.cc_a st.cc_b))
  | 80 -> Array.unsafe_set regs (f1 a) (flag (ltu st.cc_b st.cc_a))
  | 81 -> Array.unsafe_set regs (f1 a) (flag (leu st.cc_b st.cc_a))
  | 82 -> fw fps (f1 a) (round_single (fr fps (f2 a) +. fr fps (f3 a)))
  | 83 -> fw fps (f1 a) (fr fps (f2 a) +. fr fps (f3 a))
  | 84 -> fw fps (f1 a) (round_single (fr fps (f2 a) -. fr fps (f3 a)))
  | 85 -> fw fps (f1 a) (fr fps (f2 a) -. fr fps (f3 a))
  | 86 -> fw fps (f1 a) (round_single (fr fps (f2 a) *. fr fps (f3 a)))
  | 87 -> fw fps (f1 a) (fr fps (f2 a) *. fr fps (f3 a))
  | 88 -> fw fps (f1 a) (round_single (fr fps (f2 a) /. fr fps (f3 a)))
  | 89 -> fw fps (f1 a) (fr fps (f2 a) /. fr fps (f3 a))
  | 90 -> fw fps (f1 a) (-.fr fps (f2 a))
  | 91 -> fw fps (f1 a) (Float.abs (fr fps (f2 a)))
  | 92 -> fw fps (f1 a) (fr fps (f2 a))
  | 93 -> fw fps (f1 a) (load_single mem (eff regs a b))
  | 94 -> fw fps (f1 a) (load_float mem (eff regs a b))
  | 95 -> store_single mem (eff regs a b) (fr fps (f1 a))
  | 96 -> store_float mem (eff regs a b) (fr fps (f1 a))
  | 97 -> fw fps (f1 a) (Array.unsafe_get st.prog.pool b)
  | 98 -> st.fcc <- fr fps (f1 a) = fr fps (f2 a)
  | 99 -> st.fcc <- fr fps (f1 a) < fr fps (f2 a)
  | 100 -> st.fcc <- fr fps (f1 a) <= fr fps (f2 a)
  | 101 -> Array.unsafe_set regs (f1 a) (flag st.fcc)
  | 102 -> fw fps (f1 a) (float_of_int (rg regs (f2 a)))
  | 103 -> fw fps (f1 a) (float_of_int (v32 a))
  | 104 -> fw fps (f1 a) (float_of_int (Mem.load32 mem (eff regs a b)))
  | 105 -> Array.unsafe_set regs (f1 a) (cvt_i_f (fr fps (f2 a)))
  | 106 -> guard_data (rg regs (f1 a))
  | 107 -> guard_code (rg regs (f1 a))
  | 108 -> fault (Explicit_trap b)
  | 109 -> hcall st b
  | 110 -> ()
  | _ -> two_mem st a b

let[@inline never] exec_call st a b = exec st a b

(* Evaluate a control slot from its op words: where it branches, as a
   native index, or -1 if it falls through. *)
let[@inline] branch st a b =
  let regs = st.regs in
  match a land 255 with
  | 112 -> if st.cc_a = st.cc_b then b else -1
  | 113 -> if st.cc_a <> st.cc_b then b else -1
  | 114 -> if st.cc_a < st.cc_b then b else -1
  | 115 -> if st.cc_a <= st.cc_b then b else -1
  | 116 -> if st.cc_b < st.cc_a then b else -1
  | 117 -> if st.cc_b <= st.cc_a then b else -1
  | 118 -> if ltu st.cc_a st.cc_b then b else -1
  | 119 -> if leu st.cc_a st.cc_b then b else -1
  | 120 -> if ltu st.cc_b st.cc_a then b else -1
  | 121 -> if leu st.cc_b st.cc_a then b else -1
  | 122 -> b
  | 123 -> native_of_omni st (W.to_unsigned (rg regs (f1 a)))
  | 124 -> native_of_omni st (W.to_unsigned b)
  | 125 -> native_of_omni st (W.to_unsigned (Mem.load32 st.mem (eff regs a b)))
  | 126 ->
      Array.unsafe_set regs ebp (v32 a);
      b
  | 127 ->
      let t = native_of_omni st (W.to_unsigned (rg regs (f1 a))) in
      Array.unsafe_set regs ebp (v32 a);
      t
  | 128 ->
      let t = native_of_omni st (W.to_unsigned b) in
      Array.unsafe_set regs ebp (v32 a);
      t
  | _ ->
      let x = Mem.load32 st.mem (eff regs a b) in
      let t = native_of_omni st (W.to_unsigned x) in
      Array.unsafe_set regs ebp (v32 a);
      t

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
   local countdowns, running a straight run whole once it has been
   stepped and charging the pipeline model a segment at a time: see
   Risc_sim.run. *)
let run ?(fuel = max_int) ?watchdog (prog : program) mem host :
    Machine.outcome * Machine.stats * state =
  let st = create prog mem host in
  let code = prog.code in
  let n = Array.length code in
  let pipe = st.pipe and stats = st.stats in
  let { Machine.costs; ops; tags; counts; runs; memo } = st.table in
  let stops = Machine.tag_control lor Machine.tag_hcall in
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

(* Functional + cycle-approximate simulator for translated code, both
   target families.

   Executes translated native code over the module's segmented memory,
   dispatches host calls through the runtime host, models branch delay
   slots (with Sparc-style annulment) where the RISC family has them, and
   charges the generic pipeline cost model for what it retires, a segment
   of straight-line code at a time. The first time a slot executes,
   [decode] checks its instruction once and packs it into two op words,
   an opcode and its fields (see "op words" below), beside the slot's
   costs; from then on the slot runs by one jump on that opcode, with no
   match on the instruction and no allocation. The two families share
   one opcode space, so an x86 instruction whose fields and effect equal
   a RISC one runs on the RISC opcode. A straight run of slots that has
   been stepped once runs whole from then on, one loop of [exec] with
   fuel and the watchdog charged once (see [run]). Statistics are counted
   per slot and per memo entry, and folded when the run ends (see
   [Machine.finish]).

   What differs per family is what [decode] packs, the initial
   registers, and the homes through which OmniVM registers are read and
   written ([omni_reg]). Everything on the path of a retired instruction
   stays in this module, with no closure or functor between the loop and
   [exec]: the dev profile compiles with -opaque and without flambda, so
   a call across modules is never inlined and a closure makes every
   retired instruction an indirect call. *)

module W = Omni_util.Word32
module VI = Omnivm.Instr
module Mem = Omnivm.Memory

type state = {
  prog : Translated.t;
  slots : int; (* [prog]'s length *)
  addr_map : int array; (* [prog]'s *)
  pool : float array; (* [prog]'s *)
  regs : int array;
      (* the family's registers, canonical word32, and one more that
         [decode] names: RISC's 32 and the sink for writes to r0 (index 0
         stays zero), or x86's 8 and register 8, a missing base, which is
         never written *)
  fregs : float array; (* RISC's 32, x86's 8 *)
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
  table : Machine.table; (* [prog]'s costs; the run's until it ends *)
}

(* [Word32.of_int] in line: the low 32 bits, sign-extended. *)
let canon v = (v lsl 31) asr 31

(* --- per family: initial registers and register homes --- *)

let create (prog : Translated.t) mem host =
  let make ~slots ~addr_map ~pool ~entry ~regs ~fregs config =
    {
      prog; slots; addr_map; pool;
      regs = Array.make regs 0;
      fregs = Array.make fregs 0.0;
      cc_a = 0; cc_b = 0; fcc = false;
      pc = entry; mem; host; handler = 0; exited = None;
      stats = Machine.new_stats ();
      pipe = Pipeline.create config;
      table = Machine.take_table slots;
    }
  in
  let module L = Omnivm.Layout in
  match prog with
  | Translated.T_risc p ->
      let st =
        make ~slots:(Array.length p.Risc.code) ~addr_map:p.Risc.addr_map
          ~pool:p.Risc.pool ~entry:p.Risc.entry ~regs:33 ~fregs:32
          (Risc.pipeline_config p.Risc.cfg)
      in
      let set r v = st.regs.(r) <- canon v in
      set Risc.r_data_mask L.data_mask;
      set Risc.r_data_base L.data_base;
      set Risc.r_code_mask (L.code_mask land lnot 3);
      set Risc.r_code_base L.code_base;
      set Risc.r_gp (L.data_base + (1 lsl (p.Risc.cfg.Risc.imm_bits - 1)));
      set (Risc.map_reg Omnivm.Reg.sp) L.initial_sp;
      set (Risc.map_reg Omnivm.Reg.gp) L.data_base;
      st
  | Translated.T_x86 p ->
      let st =
        make ~slots:(Array.length p.X86.code) ~addr_map:p.X86.addr_map
          ~pool:p.X86.pool ~entry:p.X86.entry ~regs:9 ~fregs:8
          X86.pipeline_config
      in
      st.regs.(X86.esp) <- L.initial_sp;
      (* omni gp (r13) lives in its memory home *)
      Mem.store32 mem (L.regsave_int_addr Omnivm.Reg.gp) L.data_base;
      st

(* OmniVM integer register [i], where the family keeps it: the value a
   host call reads as an argument, and a crash site's register. *)
let omni_reg st i =
  match st.prog with
  | Translated.T_risc _ -> st.regs.(Risc.map_reg i)
  | Translated.T_x86 _ -> (
      match X86.int_home i with
      | X86.Hzero -> 0
      | X86.Hreg x -> st.regs.(x)
      | X86.Hmem a -> Mem.load32 st.mem a)

let set_omni_reg st i v =
  match st.prog with
  | Translated.T_risc _ ->
      let r = Risc.map_reg i in
      if r <> 0 then st.regs.(r) <- canon v
  | Translated.T_x86 _ -> (
      match X86.int_home i with
      | X86.Hzero -> ()
      | X86.Hreg x -> st.regs.(x) <- canon v
      | X86.Hmem a -> Mem.store32 st.mem a v)

let omni_freg st i =
  match st.prog with
  | Translated.T_risc _ -> st.fregs.(i)
  | Translated.T_x86 _ -> (
      match X86.float_home i with
      | X86.FHreg x -> st.fregs.(x)
      | X86.FHmem a -> Mem.load_float st.mem a)

let hcall st n =
  let req =
    {
      Omni_runtime.Host.index = n;
      arg = (fun i -> omni_reg st (1 + i));
      farg = (fun i -> omni_freg st (1 + i));
      set_ret = (fun v -> set_omni_reg st 1 v);
      mem = st.mem;
    }
  in
  match Omni_runtime.Host.handle st.host req with
  | Omni_runtime.Host.Continue -> ()
  | Omni_runtime.Host.Exit code -> st.exited <- Some code
  | Omni_runtime.Host.Set_handler addr -> st.handler <- addr

let fault f = raise (Omnivm.Fault.Vm_fault f)

(* Map an OmniVM code address to a native index; faults on addresses that
   are not valid entry points (function entries, branch targets, return
   points). *)
let native_of_omni st addr =
  let off = addr - Omnivm.Layout.code_base in
  if off < 0 || off land 3 <> 0 || off / 4 >= Array.length st.addr_map
  then fault (Access_violation { addr; access = Execute })
  else
    let n = st.addr_map.(off / 4) in
    if n < 0 then fault (Access_violation { addr; access = Execute })
    else n

let deliver_fault st f =
  if st.handler = 0 then raise (Omnivm.Fault.Vm_fault f)
  else begin
    let h = st.handler in
    st.handler <- 0;
    set_omni_reg st 1 (Omnivm.Fault.code f);
    st.pc <- native_of_omni st h
  end

(* --- op words ---

   The first time a slot executes, [decode] packs its instruction into
   two ints in the run's table. Word [a] holds an opcode in bits 0-8,
   naming the constructor together with its ALU operation, width and
   signedness, condition or precision and, on x86, the shape of its
   operands (register, immediate or memory), so executing the slot is
   one jump on it. Then three register fields, [rd] in bits 9-14 and
   [ra], [rb] in bits 15-19 and 20-24, and a 32-bit immediate (an
   immediate, a return address, a shift count) in bits 25-56, canonical
   when read. Bit 57 is a RISC branch's annul flag. Word [b] holds the
   one field that needs all of an int: a displacement, a branch's label,
   a pool index, a trap or host-call number, exactly as the instruction
   has it.

   The two families share the opcode space. An x86 instruction whose
   fields and effect equal a RISC instruction's packs to that opcode,
   its registers where RISC's sit: Jcc is Br_cc, Jmp is J, and Trapi,
   Hcall and Nop are themselves, to the same two words; a register Mov
   is an add of 0 and an immediate one Lui, a register-register Alu,
   Shiftv or Imul is the RISC record form or Mul with [rd] = [ra] and
   Imul by an immediate Alui Mul, register Cmp is Cmp or Cmpi, and Setcc, the FP register operations
   and compares, the conversions from or to a register, Fld_pool, the
   guards and the register forms of Call, Call_ind and Jmp_ind (whose
   link register is [rd]) are their RISC namesakes.

   An x86 memory operand has its base in [ra] (register 8 when it has
   none, which reads as zero), and if it is indexed its index register
   in [rb] and bit 58 set. Its word [b] holds the displacement in its low
   32 bits and the index scale's low 31 bits above them, the scale's bit
   31 being bit 59 of [a]. Address arithmetic is modulo 2^32, so a
   displacement or scale is held exactly as far as any address can tell.
   An instruction with two memory operands holds the second (which must
   not be indexed) in [rd] and the immediate field, and bit 60 says
   whether the first is the destination; one with two indexed memory
   operands has more fields than two words hold, and is refused.

   Every field is checked here, once: a register outside 0-31 (RISC) or
   0-7 (x86) is refused with the exception a bounds check raises, as the
   register file refused it before it was decoded, and so is a pool
   index outside the pool; an x86 destination that is an immediate is
   refused as a write to it always was. An immediate or return address
   is held as the 32-bit value execution would have canonicalised it to.
   A RISC write to r0 names register 32, a sink nothing reads, so
   execution writes registers without testing for r0 and reads them
   unchecked. *)

let sink = 32
let no_base = 8
let annul = 1 lsl 57
let indexed = 1 lsl 58
let on_dst = 1 lsl 60

let[@inline] reg r =
  if r < 0 || r > 31 then invalid_arg "index out of bounds" else r
let[@inline] dst r = if reg r = 0 then sink else r
let[@inline] xreg r = if r < 0 || r > 7 then invalid_arg "index out of bounds" else r

let[@inline] word op rd ra rb imm =
  op lor (rd lsl 9) lor (ra lsl 15) lor (rb lsl 20)
  lor ((imm land 0xFFFFFFFF) lsl 25)

let[@inline] opcode a = a land 511
let[@inline] rd a = (a lsr 9) land 63
let[@inline] ra a = (a lsr 15) land 31
let[@inline] rb a = (a lsr 20) land 31
let[@inline] imm a = (a lsl 6) asr 31

let[@inline] put ops k a b =
  ops.(2 * k) <- a;
  ops.((2 * k) + 1) <- b

(* Pack RISC slot [k]'s [i] into [ops]. The opcodes, in the order [exec]
   and [branch] take them: Alu 0-14, Alui 15-29 and Alu_record 30-44 (by
   [VI.binop_index]), Lui 45, Load 46-50 (by [VI.load_index]), Store
   51-53 (by [VI.store_index]), Load_x 54-58, Store_x 59-61, Fload
   62, Fstore 63, Fload_s 64, Fstore_s 65, Fload_x 66, Fstore_x 67,
   Fld_pool 68, Fop 69-76 (by [VI.fop_index]), Fun1 77-79, Fcmp
   80-82, Fcc_to_reg 83, Cvt_f_i 84, Cvt_i_f 85, Cvt_d_s and Cvt_s_d
   86, Cmp 87, Cmpi 88, Cc_to_reg 89-98 (by [VI.cond_index]),
   Guard_data 99, Guard_code 100, Trapi 101, Hcall 102, Nop 103; the
   control instructions Br_cc 104-113, Br_cmp 114-123, Fbr 124 (on
   true) and 125, J 126, Call 127, Call_ind 128, Jmp_ind 129. *)
let pack_risc (prog : Risc.program) ops k (i : Risc.instr) =
  let open Risc in
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
  | Fun1 (op, f, x) -> put ops k (word (77 + VI.funop_index op) (reg f) (reg x) 0 0) 0
  | Fcmp (op, x, y) -> put ops k (word (80 + VI.fcmp_index op) 0 (reg x) (reg y) 0) 0
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
  | Call (l, ret) -> put ops k (word 127 omni_ra 0 0 ret) l
  | Call_ind (r, ret) -> put ops k (word 128 omni_ra (reg r) 0 ret) 0
  | Jmp_ind r -> put ops k (word 129 0 (reg r) 0 0) 0

(* An x86 memory operand's fields of word [a], and its word [b]. *)
let[@inline] mem_a (m : X86.mem) =
  let base = (match m.base with Some r -> xreg r | None -> no_base) lsl 15 in
  match m.index with
  | None -> base
  | Some (r, s) ->
      base lor (xreg r lsl 20) lor indexed lor (((s lsr 31) land 1) lsl 59)

let[@inline] mem_b (m : X86.mem) =
  let s = match m.index with Some (_, s) -> s land 0x7FFFFFFF | None -> 0 in
  (m.disp land 0xFFFFFFFF) lor (s lsl 32)

let[@inline] put_mem ops k a m = put ops k (a lor mem_a m) (mem_b m)

let check = function
  | X86.R r -> ignore (xreg r)
  | X86.I _ -> ()
  | X86.M m -> ignore (mem_a m)

let to_immediate () = invalid_arg "x86 write to immediate"

let[@inline] alu_index = function
  | X86.Add -> 0 | X86.Sub -> 1 | X86.And -> 2 | X86.Or -> 3 | X86.Xor -> 4
let[@inline] shift_index = function X86.Shl -> 0 | X86.Shr -> 1 | X86.Sar -> 2

(* The RISC operation of an x86 ALU or shift operation. *)
let alu_binop = function
  | X86.Add -> VI.Add | X86.Sub -> VI.Sub | X86.And -> VI.And
  | X86.Or -> VI.Or | X86.Xor -> VI.Xor
let shift_binop = function X86.Shl -> VI.Sll | X86.Shr -> VI.Srl | X86.Sar -> VI.Sra

(* Opcodes 195-203: the primary operand is the indexed one, else the
   destination. *)
let put_two_mem ops k op (dst : X86.mem) (src : X86.mem) =
  let on_d = dst.index <> None || src.index = None in
  let p = if on_d then dst else src and q = if on_d then src else dst in
  if q.index <> None then invalid_arg "Sim: two indexed memory operands";
  let q_base = match q.base with Some r -> xreg r | None -> no_base in
  put_mem ops k (word op q_base 0 0 q.disp lor if on_d then on_dst else 0) p

(* Pack x86 slot [k]'s [i] into [ops]: to the RISC opcodes listed under
   "op words" where an x86 instruction is a RISC one, else to these, in
   the order [exec] and [branch] take them: the control instructions
   Jmp_ind 130-131 and Call_ind 132-133 (an immediate or memory target);
   Load 134-138 (by [VI.load_index]), Store 139-141 from a register and
   142-144 of an immediate (by [VI.store_index]; a Mov to or from memory
   is the 32-bit one), Alu 145-164 (four shapes, r i, r m, m r, m i, of
   five operations each, by [alu_index]), Shift 165-167 of a register
   and 168-170 of memory, Shiftv 171-173 of memory (by [shift_index]),
   Imul 174 (r m), Idiv 175-180 (r, i, m; unsigned then signed), Cdq
   181, Lea 182, Cmp 183-188 (r m, m r, m i, i r, i i, i m), Fload
   189-190 and Fstore 191-192 (single, double), Cvt_f_i 193-194 (i, m),
   and two memory operands 195-203 (Alu by [alu_index], Cmp 200, Store
   201-203 by [VI.store_index]). *)
let pack_x86 (prog : X86.program) ops k (i : X86.instr) =
  let open X86 in
  match i with
  | Mov (R d, R x) -> put ops k (word 15 (xreg d) (xreg x) 0 0) 0
  | Mov (R d, I v) -> put ops k (word 45 (xreg d) 0 0 v) 0
  | Mov (R d, M m) -> put_mem ops k (word 138 (xreg d) 0 0 0) m
  | Mov (M m, R x) -> put_mem ops k (word 141 (xreg x) 0 0 0) m
  | Mov (M m, I v) -> put_mem ops k (word 144 0 0 0 v) m
  | Mov (M m, M m') -> put_two_mem ops k 203 m m'
  | Mov (I _, x) -> check x; to_immediate ()
  | Load (w, s, d, m) ->
      put_mem ops k (word (134 + VI.load_index w s) (xreg d) 0 0 0) m
  | Store (w, m, R x) ->
      put_mem ops k (word (139 + VI.store_index w) (xreg x) 0 0 0) m
  | Store (w, m, I v) -> put_mem ops k (word (142 + VI.store_index w) 0 0 0 v) m
  | Store (w, m, M m') -> put_two_mem ops k (201 + VI.store_index w) m m'
  | Alu (op, R d, R x) ->
      let o = 30 + VI.binop_index (alu_binop op) in
      put ops k (word o (xreg d) d (xreg x) 0) 0
  | Alu (op, R d, I v) -> put ops k (word (145 + alu_index op) (xreg d) 0 0 v) 0
  | Alu (op, R d, M m) -> put_mem ops k (word (150 + alu_index op) (xreg d) 0 0 0) m
  | Alu (op, M m, R x) -> put_mem ops k (word (155 + alu_index op) (xreg x) 0 0 0) m
  | Alu (op, M m, I v) -> put_mem ops k (word (160 + alu_index op) 0 0 0 v) m
  | Alu (op, M m, M m') -> put_two_mem ops k (195 + alu_index op) m m'
  | Alu (_, I _, x) -> check x; to_immediate ()
  | Shift (op, R d, n) ->
      put ops k (word (165 + shift_index op) (xreg d) 0 0 (n land 31)) 0
  | Shift (op, M m, n) ->
      put_mem ops k (word (168 + shift_index op) 0 0 0 (n land 31)) m
  | Shift (_, I _, _) -> to_immediate ()
  | Shiftv (op, R d, c) ->
      let o = 30 + VI.binop_index (shift_binop op) in
      put ops k (word o (xreg d) d (xreg c) 0) 0
  | Shiftv (op, M m, c) ->
      put_mem ops k (word (171 + shift_index op) (xreg c) 0 0 0) m
  | Shiftv (_, I _, c) -> ignore (xreg c); to_immediate ()
  | Imul (d, R x) -> put ops k (word 2 (xreg d) d (xreg x) 0) 0
  | Imul (d, I v) -> put ops k (word 17 (xreg d) d 0 v) 0
  | Imul (d, M m) -> put_mem ops k (word 174 (xreg d) 0 0 0) m
  | Idiv (R x, signed) ->
      put ops k (word (175 + Bool.to_int signed) (xreg x) 0 0 0) 0
  | Idiv (I v, signed) -> put ops k (word (177 + Bool.to_int signed) 0 0 0 v) 0
  | Idiv (M m, signed) ->
      put_mem ops k (word (179 + Bool.to_int signed) 0 0 0 0) m
  | Cdq -> put ops k (word 181 0 0 0 0) 0
  | Lea (d, m) -> put_mem ops k (word 182 (xreg d) 0 0 0) m
  | Cmp (R x, R y) -> put ops k (word 87 0 (xreg x) (xreg y) 0) 0
  | Cmp (R x, I v) -> put ops k (word 88 0 (xreg x) 0 v) 0
  | Cmp (R x, M m) -> put_mem ops k (word 183 (xreg x) 0 0 0) m
  | Cmp (M m, R y) -> put_mem ops k (word 184 (xreg y) 0 0 0) m
  | Cmp (M m, I v) -> put_mem ops k (word 185 0 0 0 v) m
  | Cmp (I v, R y) -> put ops k (word 186 (xreg y) 0 0 v) 0
  | Cmp (I v, I w) -> put ops k (word 187 0 0 0 v) (canon w)
  | Cmp (I v, M m) -> put_mem ops k (word 188 0 0 0 v) m
  | Cmp (M m, M m') -> put_two_mem ops k 200 m m'
  | Setcc (c, d) -> put ops k (word (89 + VI.cond_index c) (xreg d) 0 0 0) 0
  | Fop (op, prec, d, x, y) ->
      let o = 69 + VI.fop_index op prec in
      put ops k (word o (xreg d) (xreg x) (xreg y) 0) 0
  | Fun1 (op, d, x) ->
      put ops k (word (77 + VI.funop_index op) (xreg d) (xreg x) 0 0) 0
  | Fload (prec, d, m) ->
      put_mem ops k (word (189 + VI.prec_index prec) (xreg d) 0 0 0) m
  | Fstore (prec, x, m) ->
      put_mem ops k (word (191 + VI.prec_index prec) (xreg x) 0 0 0) m
  | Fld_pool (d, n) ->
      if n < 0 || n >= Array.length prog.pool then
        invalid_arg "index out of bounds";
      put ops k (word 68 (xreg d) 0 0 0) n
  | Fcmp (op, x, y) ->
      put ops k (word (80 + VI.fcmp_index op) 0 (xreg x) (xreg y) 0) 0
  | Fcc_to_reg d -> put ops k (word 83 (xreg d) 0 0 0) 0
  | Cvt_f_i (d, R x) -> put ops k (word 84 (xreg d) (xreg x) 0 0) 0
  | Cvt_f_i (d, I v) -> put ops k (word 193 (xreg d) 0 0 v) 0
  | Cvt_f_i (d, M m) -> put_mem ops k (word 194 (xreg d) 0 0 0) m
  | Cvt_i_f (d, x) -> put ops k (word 85 (xreg d) (xreg x) 0 0) 0
  | Guard_data r -> put ops k (word 99 0 (xreg r) 0 0) 0
  | Guard_code r -> put ops k (word 100 0 (xreg r) 0 0) 0
  | Trapi n -> put ops k (word 101 0 0 0 0) n
  | Hcall n -> put ops k (word 102 0 0 0 0) n
  | Nop -> put ops k (word 103 0 0 0 0) 0
  | Jcc (c, l) -> put ops k (word (104 + VI.cond_index c) 0 0 0 0) l
  | Jmp l -> put ops k (word 126 0 0 0 0) l
  | Jmp_ind (R x) -> put ops k (word 129 0 (xreg x) 0 0) 0
  | Jmp_ind (I v) -> put ops k (word 130 0 0 0 0) (canon v)
  | Jmp_ind (M m) -> put_mem ops k (word 131 0 0 0 0) m
  | Call (l, ret) -> put ops k (word 127 ebp 0 0 ret) l
  | Call_ind (R x, ret) -> put ops k (word 128 ebp (xreg x) 0 ret) 0
  | Call_ind (I v, ret) -> put ops k (word 132 ebp 0 0 ret) (canon v)
  | Call_ind (M m, ret) -> put_mem ops k (word 133 ebp 0 0 ret) m

(* Slot [k] of [prog] decoded into [t]: its costs and op words; returns
   its tag. The flags read the opcode ranges the packers list: the
   conditional branches are 104-125, the control instructions 104-133
   and the host call 102. *)
let[@inline never] decode (prog : Translated.t) (t : Machine.table) k =
  let ops = t.Machine.ops in
  let w, origin =
    match prog with
    | Translated.T_risc p ->
        let s = p.Risc.code.(k) in
        let w = Risc.cost_of p.Risc.cfg s.Risc.i in
        pack_risc p ops k s.Risc.i;
        if s.Risc.annul then ops.(2 * k) <- ops.(2 * k) lor annul;
        (w, s.Risc.origin)
    | Translated.T_x86 p ->
        let s = p.X86.code.(k) in
        let w = X86.cost_of s.X86.i in
        pack_x86 p ops k s.X86.i;
        (w, s.X86.origin)
  in
  let op = opcode ops.(2 * k) in
  Machine.decode t k w origin ~branch:(op >= 104 && op <= 125)
    ~control:(op >= 104 && op <= 133) ~hcall:(op = 102)

(* --- execution helpers --- *)

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

(* Registers, read and written unchecked: [decode] checked every field. *)
let[@inline] rg (regs : int array) k = Array.unsafe_get regs k
let[@inline] wr (regs : int array) k v = Array.unsafe_set regs k (canon v)
let[@inline] fr (fregs : float array) k = Array.unsafe_get fregs k
let[@inline] fw (fregs : float array) k (v : float) = Array.unsafe_set fregs k v
let[@inline] flag b = if b then 1 else 0
let[@inline] ltu x y = x land 0xFFFFFFFF < y land 0xFFFFFFFF
let[@inline] leu x y = x land 0xFFFFFFFF <= y land 0xFFFFFFFF

(* The RISC address [ra + disp] and indexed address [ra + rb]. *)
let[@inline] ea regs a b = (rg regs (ra a) + b) land 0xFFFFFFFF
let[@inline] ex regs a = (rg regs (ra a) + rg regs (rb a)) land 0xFFFFFFFF

(* The address of an x86 memory operand. *)
let[@inline never] eff_indexed regs a b =
  let scale = (b lsr 32) lor (((a lsr 59) land 1) lsl 31) in
  (rg regs (ra a) + (rg regs (rb a) * scale) + b) land 0xFFFFFFFF

let[@inline] eff regs a b =
  if a land indexed = 0 then (rg regs (ra a) + b) land 0xFFFFFFFF
  else eff_indexed regs a b

(* Set register [rd] or the memory word at [addr] to an ALU or shift
   result, and the compare state to (result, 0). *)
let[@inline] record st regs a v =
  let v = canon v in
  Array.unsafe_set regs (rd a) v;
  st.cc_a <- v;
  st.cc_b <- 0

let[@inline] alu_m st addr v =
  let v = canon v in
  Mem.store32 st.mem addr v;
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

let idiv st signed y =
  let regs = st.regs in
  let x = regs.(X86.eax) in
  if signed then begin
    let q = W.div x y and r = W.rem x y in
    regs.(X86.eax) <- canon q;
    regs.(X86.edx) <- canon r
  end
  else begin
    let q = W.divu x y and r = W.remu x y in
    regs.(X86.eax) <- canon q;
    regs.(X86.edx) <- canon r
  end

let alu k x y =
  match k with
  | 0 -> x + y
  | 1 -> x - y
  | 2 -> x land y
  | 3 -> x lor y
  | _ -> x lxor y

(* Opcodes 195-203: the operand [b], [ra] and [rb] describe, and the one
   [rd] and the immediate field do, in the order the instruction names
   them. *)
let two_mem st a b =
  let regs = st.regs and mem = st.mem in
  let p = eff regs a b and q = (rg regs (rd a) + imm a) land 0xFFFFFFFF in
  let on_d = a land on_dst <> 0 in
  let dst = if on_d then p else q and src = if on_d then q else p in
  match opcode a with
  | 200 ->
      let y = Mem.load32 mem src in
      st.cc_a <- Mem.load32 mem dst;
      st.cc_b <- y
  | 201 -> Mem.store8 mem dst (Mem.load32 mem src)
  | 202 -> Mem.store16 mem dst (Mem.load32 mem src)
  | 203 -> Mem.store32 mem dst (Mem.load32 mem src)
  | op ->
      let x = Mem.load32 mem dst in
      let y = Mem.load32 mem src in
      alu_m st dst (alu (op - 195) x y)

(* Execute a slot that does not transfer control, from its op words: in
   line in [run]'s loop, where most slots retire, and through [exec_call]
   where a host call or a delay slot does. *)
let[@inline] exec st a b =
  let regs = st.regs in
  match opcode a with
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
  | 68 -> fw st.fregs (rd a) (Array.unsafe_get st.pool b)
  | 69 -> fw st.fregs (rd a) (round_single (fr st.fregs (ra a) +. fr st.fregs (rb a)))
  | 70 -> fw st.fregs (rd a) (fr st.fregs (ra a) +. fr st.fregs (rb a))
  | 71 -> fw st.fregs (rd a) (round_single (fr st.fregs (ra a) -. fr st.fregs (rb a)))
  | 72 -> fw st.fregs (rd a) (fr st.fregs (ra a) -. fr st.fregs (rb a))
  | 73 -> fw st.fregs (rd a) (round_single (fr st.fregs (ra a) *. fr st.fregs (rb a)))
  | 74 -> fw st.fregs (rd a) (fr st.fregs (ra a) *. fr st.fregs (rb a))
  | 75 -> fw st.fregs (rd a) (round_single (fr st.fregs (ra a) /. fr st.fregs (rb a)))
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
  | 134 -> Array.unsafe_set regs (rd a) (W.sext8 (Mem.load8 st.mem (eff regs a b)))
  | 135 -> Array.unsafe_set regs (rd a) (Mem.load8 st.mem (eff regs a b))
  | 136 -> Array.unsafe_set regs (rd a) (W.sext16 (Mem.load16 st.mem (eff regs a b)))
  | 137 -> Array.unsafe_set regs (rd a) (Mem.load16 st.mem (eff regs a b))
  | 138 -> Array.unsafe_set regs (rd a) (Mem.load32 st.mem (eff regs a b))
  | 139 -> Mem.store8 st.mem (eff regs a b) (rg regs (rd a))
  | 140 -> Mem.store16 st.mem (eff regs a b) (rg regs (rd a))
  | 141 -> Mem.store32 st.mem (eff regs a b) (rg regs (rd a))
  | 142 -> Mem.store8 st.mem (eff regs a b) (imm a)
  | 143 -> Mem.store16 st.mem (eff regs a b) (imm a)
  | 144 -> Mem.store32 st.mem (eff regs a b) (imm a)
  | 145 -> record st regs a (rg regs (rd a) + imm a)
  | 146 -> record st regs a (rg regs (rd a) - imm a)
  | 147 -> record st regs a (rg regs (rd a) land imm a)
  | 148 -> record st regs a (rg regs (rd a) lor imm a)
  | 149 -> record st regs a (rg regs (rd a) lxor imm a)
  | 150 -> record st regs a (rg regs (rd a) + Mem.load32 st.mem (eff regs a b))
  | 151 -> record st regs a (rg regs (rd a) - Mem.load32 st.mem (eff regs a b))
  | 152 -> record st regs a (rg regs (rd a) land Mem.load32 st.mem (eff regs a b))
  | 153 -> record st regs a (rg regs (rd a) lor Mem.load32 st.mem (eff regs a b))
  | 154 -> record st regs a (rg regs (rd a) lxor Mem.load32 st.mem (eff regs a b))
  | 155 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m + rg regs (rd a))
  | 156 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m - rg regs (rd a))
  | 157 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m land rg regs (rd a))
  | 158 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m lor rg regs (rd a))
  | 159 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m lxor rg regs (rd a))
  | 160 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m + imm a)
  | 161 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m - imm a)
  | 162 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m land imm a)
  | 163 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m lor imm a)
  | 164 ->
      let m = eff regs a b in
      alu_m st m (Mem.load32 st.mem m lxor imm a)
  | 165 -> record st regs a (W.shift_left (rg regs (rd a)) (imm a))
  | 166 -> record st regs a (W.shift_right_logical (rg regs (rd a)) (imm a))
  | 167 -> record st regs a (W.shift_right_arith (rg regs (rd a)) (imm a))
  | 168 ->
      let m = eff regs a b in
      alu_m st m (W.shift_left (Mem.load32 st.mem m) (imm a))
  | 169 ->
      let m = eff regs a b in
      alu_m st m (W.shift_right_logical (Mem.load32 st.mem m) (imm a))
  | 170 ->
      let m = eff regs a b in
      alu_m st m (W.shift_right_arith (Mem.load32 st.mem m) (imm a))
  | 171 ->
      let m = eff regs a b in
      let x = Mem.load32 st.mem m in
      alu_m st m (W.shift_left x (rg regs (rd a)))
  | 172 ->
      let m = eff regs a b in
      let x = Mem.load32 st.mem m in
      alu_m st m (W.shift_right_logical x (rg regs (rd a)))
  | 173 ->
      let m = eff regs a b in
      let x = Mem.load32 st.mem m in
      alu_m st m (W.shift_right_arith x (rg regs (rd a)))
  | 174 -> wr regs (rd a) (W.mul (rg regs (rd a)) (Mem.load32 st.mem (eff regs a b)))
  | 175 -> idiv st false (rg regs (rd a))
  | 176 -> idiv st true (rg regs (rd a))
  | 177 -> idiv st false (imm a)
  | 178 -> idiv st true (imm a)
  | 179 -> idiv st false (Mem.load32 st.mem (eff regs a b))
  | 180 -> idiv st true (Mem.load32 st.mem (eff regs a b))
  | 181 -> Array.unsafe_set regs X86.edx (if rg regs X86.eax < 0 then -1 else 0)
  | 182 -> Array.unsafe_set regs (rd a) (canon (eff regs a b))
  | 183 ->
      let y = Mem.load32 st.mem (eff regs a b) in
      st.cc_a <- rg regs (rd a);
      st.cc_b <- y
  | 184 ->
      st.cc_a <- Mem.load32 st.mem (eff regs a b);
      st.cc_b <- rg regs (rd a)
  | 185 ->
      st.cc_a <- Mem.load32 st.mem (eff regs a b);
      st.cc_b <- imm a
  | 186 ->
      st.cc_a <- imm a;
      st.cc_b <- rg regs (rd a)
  | 187 ->
      st.cc_a <- imm a;
      st.cc_b <- b
  | 188 ->
      st.cc_b <- Mem.load32 st.mem (eff regs a b);
      st.cc_a <- imm a
  | 189 -> fw st.fregs (rd a) (load_single st.mem (eff regs a b))
  | 190 -> fw st.fregs (rd a) (load_float st.mem (eff regs a b))
  | 191 -> store_single st.mem (eff regs a b) (fr st.fregs (rd a))
  | 192 -> store_float st.mem (eff regs a b) (fr st.fregs (rd a))
  | 193 -> fw st.fregs (rd a) (float_of_int (imm a))
  | 194 -> fw st.fregs (rd a) (float_of_int (Mem.load32 st.mem (eff regs a b)))
  | 195 | 196 | 197 | 198 | 199 | 200 | 201 | 202 | 203 -> two_mem st a b
  | _ -> invalid_arg "Sim: control instruction in a delay slot"

let[@inline never] exec_call st a b = exec st a b

(* Evaluate a control slot from its op words: where it branches, as a
   native index, or -1 if it falls through. *)
let[@inline] branch st a b =
  let regs = st.regs in
  match opcode a with
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
      Array.unsafe_set regs (rd a) (imm a);
      b
  | 128 ->
      let target = native_of_omni st (W.to_unsigned (rg regs (ra a))) in
      Array.unsafe_set regs (rd a) (imm a);
      target
  | 129 -> native_of_omni st (W.to_unsigned (rg regs (ra a)))
  | 130 -> native_of_omni st (W.to_unsigned b)
  | 131 -> native_of_omni st (W.to_unsigned (Mem.load32 st.mem (eff regs a b)))
  | 132 ->
      let target = native_of_omni st (W.to_unsigned b) in
      Array.unsafe_set regs (rd a) (imm a);
      target
  | _ ->
      let x = Mem.load32 st.mem (eff regs a b) in
      let target = native_of_omni st (W.to_unsigned x) in
      Array.unsafe_set regs (rd a) (imm a);
      target

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
let run ?(fuel = max_int) ?watchdog (prog : Translated.t) mem host :
    Machine.outcome * Machine.stats * state =
  let st = create prog mem host in
  let n = st.slots in
  let delay =
    match prog with
    | Translated.T_risc p -> p.Risc.cfg.Risc.has_delay_slot
    | Translated.T_x86 _ -> false
  in
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
                if t >= 0 then t else decode prog st.table pc
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
              if Array.unsafe_get tags d < 0 then ignore (decode prog st.table d);
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

(* Reference interpreter for linked OmniVM executables.

   This is the semantic baseline every translator must agree with: the
   differential test suite runs each program here and on all four target
   simulators and requires identical observable behaviour.

   The interpreter is given a host-call handler (the runtime environment);
   it knows nothing about what the host exports beyond the calling
   convention.

   It runs a text decoded once ([decode], see "op words" below), the way
   the target simulators run their slots: executing an instruction is one
   jump on a dense opcode, with no match on the instruction, no register
   check and no allocation. [run] is one loop inside one exception
   handler. A run decodes its text into a per-domain spare buffer; a
   server that runs a module many times decodes it once and passes the
   decode as [code] (see Store.predecoded). *)

module W = Omni_util.Word32

type t = {
  iregs : int array;
      (* 17: the 16 registers, canonical Word32 values, and the sink
         [decode] names for writes to r0 (index 0 stays zero) *)
  fregs : float array; (* 16 *)
  mem : Memory.t;
  text : int Instr.t array;
  mutable pc : int; (* instruction index into text *)
  mutable icount : int;
  mutable exited : int option;
  mutable handler : int; (* code address of VM-fault handler, 0 = none *)
}

(* The host-call handler may read/write registers and memory, terminate the
   module, or register a fault handler. *)
type hcall_outcome = Continue | Exit of int

type host_iface = { on_hcall : t -> int -> hcall_outcome }

(* [Word32.of_int] in line: the low 32 bits, sign-extended. *)
let[@inline] canon v = (v lsl 31) asr 31

let get_reg t r =
  if r < 0 || r > 15 then invalid_arg "index out of bounds" else t.iregs.(r)

let set_reg t r v =
  if r < 0 || r > 15 then invalid_arg "index out of bounds"
  else if r <> Reg.zero then t.iregs.(r) <- canon v

let get_freg t r = t.fregs.(r)
let set_freg t r v = t.fregs.(r) <- v

let create (exe : Exe.t) mem =
  let t =
    {
      iregs = Array.make 17 0;
      fregs = Array.make 16 0.0;
      mem;
      text = exe.Exe.text;
      pc = 0;
      icount = 0;
      exited = None;
      handler = 0;
    }
  in
  set_reg t Reg.sp Layout.initial_sp;
  set_reg t Reg.gp Layout.data_base;
  (match Exe.index_of_addr exe.Exe.entry with
  | Some i -> t.pc <- i
  | None -> invalid_arg "Interp.create: bad entry point");
  t

let fault f = raise (Fault.Vm_fault f)

(* [Exe.index_of_addr] in line, with the text's bounds, building no
   option: a transfer of control allocates nothing. *)
let jump_index n addr =
  let off = addr - Layout.code_base in
  if off >= 0 && off land 3 = 0 && off < Exe.instr_size * n then
    off / Exe.instr_size
  else fault (Access_violation { addr; access = Execute })

(* --- op words ---

   [decode] packs each instruction into two ints. Word [a] holds a dense
   opcode in bits 0-7, naming the constructor together with its ALU
   operation, width and signedness, condition or precision; then three
   register fields, [rd] in bits 8-13 and [ra], [rb] in bits 14-18 and
   19-23; and a 32-bit immediate in bits 24-55, canonical when read.
   Word [b] holds the one field that needs all of an int: a memory
   offset, a branch's resolved instruction index, a host-call or trap
   number, an index into the float pool, or an extract/insert mask.

   Every field is checked here, once, and an instruction that would
   fault on a field decodes to an opcode that raises, when it executes,
   what executing the instruction always raised:
   - a register outside 0-15 (only a directly built [Exe.t] holds one):
     [hostile], which redoes what the instruction did before it touched
     that register and then raises [Invalid_argument];
   - a static label outside the text or misaligned: the access
     violation its transfer of control raises, a conditional branch
     only when taken;
   - an [Ext]/[Ins] position or length outside the word: the illegal
     instruction fault.
   An immediate or return address is held as the 32-bit value execution
   canonicalises it to. A write to r0 names register 16, a sink nothing
   reads, so execution writes registers without testing for r0. *)

type code = {
  ops : int array; (* two words per instruction, and maybe spare room *)
  pool : float array; (* [Fli] constants, rounded to their precision *)
  len : int; (* instructions decoded *)
}

let sink = 16
let[@inline] dst r = if r = 0 then sink else r

let[@inline] word op rd ra rb imm =
  op lor (rd lsl 8) lor (ra lsl 14) lor (rb lsl 19)
  lor ((imm land 0xFFFFFFFF) lsl 24)

let[@inline] rd a = (a lsr 8) land 63
let[@inline] ra a = (a lsr 14) land 31
let[@inline] rb a = (a lsr 19) land 31
let[@inline] imm a = (a lsl 7) asr 31

let conds = Instr.[| Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu |]
let prec_index : Instr.fprec -> int = function Single -> 0 | Double -> 1

let regs_ok (i : int Instr.t) =
  let r x = x >= 0 && x < 16 in
  match i with
  | Binop (_, x, y, z) | Fbinop (_, _, x, y, z) | Fcmp (_, _, x, y, z) ->
      r x && r y && r z
  | Binopi (_, x, y, _) | Load (_, _, x, y, _) | Store (_, x, y, _)
  | Fload (_, x, y, _) | Fstore (_, x, y, _) | Funop (_, _, x, y)
  | Cvt_f_i (_, x, y) | Cvt_i_f (_, x, y) | Cvt_d_s (x, y) | Cvt_s_d (x, y)
  | Br (_, x, y, _) | Jalr (x, y) | Ext (x, y, _, _) | Ins (x, y, _, _) ->
      r x && r y
  | Li (x, _) | Fli (_, x, _) | Bri (_, x, _, _) | Jr x -> r x
  | J _ | Jal _ | Hcall _ | Trap _ | Nop -> true

let[@inline] round_single f = Int32.float_of_bits (Int32.bits_of_float f)

(* Pack instruction [k] of [n] into [ops], its [Fli] constant, if any,
   into [pool] at [!np]. The opcodes, in the order [run] takes them,
   with the [Instr] index that picks one in a range: Binop 0-14 and
   Binopi 15-29 ([binop_index]), Li 30, Load 31-35 ([load_index]), Store
   36-38 ([store_index]), Fload 39-40 and Fstore 41-42 (single, double),
   Fbinop 43-50 ([fop_index]), Funop 51-56 (operation, then precision),
   Fcmp 57-59, Fli 60, Cvt_f_i 61-62, Cvt_i_f 63, Cvt_d_s and Cvt_s_d
   64, Br 65-74 and Bri 75-84 ([cond_index]), J 85, Jal 86, Jr 87, Jalr
   88, Ext 89, Ins 90, Hcall 91, Trap 92, Nop 93; then the opcodes that
   raise what a bad field raised: [hostile] 94, Ext or Ins outside the
   word 95, J 96, Jal 97, Br 98 and Bri 99 to a label outside the
   text. *)
let put (ops : int array) k a b =
  ops.(2 * k) <- a;
  ops.((2 * k) + 1) <- b

(* The instruction index of label [l] in a text of [n], or -1. *)
let target n l =
  let off = l - Layout.code_base in
  if off >= 0 && off land 3 = 0 && off < Exe.instr_size * n then
    off / Exe.instr_size
  else -1

let bad_field pos len = pos < 0 || len <= 0 || pos + len > 4
let mask len = (1 lsl (8 * len)) - 1

let pack ops pool np n k (i : int Instr.t) =
  let ret = Exe.code_addr (k + 1) in
  if not (regs_ok i) then put ops k 94 0
  else
    match i with
    | Binop (op, d, x, y) ->
        put ops k (word (Instr.binop_index op) (dst d) x y 0) 0
    | Binopi (op, d, x, v) ->
        put ops k (word (15 + Instr.binop_index op) (dst d) x 0 v) 0
    | Li (d, v) -> put ops k (word 30 (dst d) 0 0 v) 0
    | Load (w, s, d, base, off) ->
        put ops k (word (31 + Instr.load_index w s) (dst d) base 0 0) off
    | Store (w, v, base, off) ->
        put ops k (word (36 + Instr.store_index w) v base 0 0) off
    | Fload (p, f, base, off) ->
        put ops k (word (39 + prec_index p) f base 0 0) off
    | Fstore (p, f, base, off) ->
        put ops k (word (41 + prec_index p) f base 0 0) off
    | Fbinop (op, p, f, x, y) ->
        put ops k (word (43 + Instr.fop_index op p) f x y 0) 0
    | Funop (op, p, f, x) ->
        let o = match op with Fneg -> 0 | Fabs -> 1 | Fmov -> 2 in
        put ops k (word (51 + (2 * o) + prec_index p) f x 0 0) 0
    | Fcmp (op, _, d, x, y) ->
        let o = match op with Feq -> 57 | Flt -> 58 | Fle -> 59 in
        put ops k (word o (dst d) x y 0) 0
    | Fli (p, f, v) ->
        pool.(!np) <- (match p with Single -> round_single v | Double -> v);
        put ops k (word 60 f 0 0 0) !np;
        incr np
    | Cvt_f_i (p, f, x) -> put ops k (word (61 + prec_index p) f x 0 0) 0
    | Cvt_i_f (_, d, f) -> put ops k (word 63 (dst d) f 0 0) 0
    | Cvt_d_s (f, x) | Cvt_s_d (f, x) -> put ops k (word 64 f x 0 0) 0
    | Br (c, x, y, l) ->
        let j = target n l in
        if j >= 0 then put ops k (word (65 + Instr.cond_index c) 0 x y 0) j
        else put ops k (word 98 (Instr.cond_index c) x y 0) l
    | Bri (c, x, v, l) ->
        let j = target n l in
        if j >= 0 then put ops k (word (75 + Instr.cond_index c) 0 x 0 v) j
        else put ops k (word 99 (Instr.cond_index c) x 0 v) l
    | J l ->
        let j = target n l in
        if j >= 0 then put ops k 85 j else put ops k 96 l
    | Jal l ->
        let j = target n l in
        if j >= 0 then put ops k (word 86 0 0 0 ret) j
        else put ops k (word 97 0 0 0 ret) l
    | Jr x -> put ops k (word 87 0 x 0 0) 0
    | Jalr (d, x) -> put ops k (word 88 (dst d) x 0 ret) 0
    | Ext (d, x, pos, len) ->
        if bad_field pos len then put ops k 95 0
        else put ops k (word 89 (dst d) x 0 (8 * pos)) (mask len)
    | Ins (d, x, pos, len) ->
        if bad_field pos len then put ops k 95 0
        else put ops k (word 90 (dst d) x d (8 * pos)) (mask len)
    | Hcall h -> put ops k 91 h
    | Trap h -> put ops k 92 h
    | Nop -> put ops k 93 0

let decode_into ops text =
  let n = Array.length text in
  let fli = ref 0 in
  Array.iter (function Instr.Fli _ -> incr fli | _ -> ()) text;
  let pool = Array.make !fli 0.0 and np = ref 0 in
  for k = 0 to n - 1 do
    pack ops pool np n k text.(k)
  done;
  { ops; pool; len = n }

let decode text = decode_into (Array.make (2 * Array.length text) 0) text

(* What [run] decodes into when it is given no [code]: a one-buffer spare
   per domain, so a server running one request after another decodes
   into the same storage instead of leaving a buffer per run to the
   major heap. Taking the spare is a straight line with no allocation,
   so no thread switch can hand it out twice. *)
let max_spare_words = 1 lsl 17

let spare : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let take_ops n =
  let s = Domain.DLS.get spare in
  let ops = !s in
  if Array.length ops >= 2 * n then begin
    s := [||];
    ops
  end
  else Array.make (2 * n) 0

let give_ops ops =
  if Array.length ops <= max_spare_words then
    let s = Domain.DLS.get spare in
    if Array.length !s < Array.length ops then s := ops

(* [Memory.load_float] and friends without boxing: a float that crosses
   into another module is boxed, an int is not. An 8-byte access is two
   4-byte accesses, low half first, as [Memory] defines it. *)
let[@inline] load_float mem a =
  let lo = Memory.load32 mem a in
  let hi = Memory.load32 mem (a + 4) in
  Int64.float_of_bits
    (Int64.logor
       (Int64.of_int (lo land 0xFFFFFFFF))
       (Int64.shift_left (Int64.of_int hi) 32))

let[@inline] store_float mem a f =
  let b = Int64.bits_of_float f in
  Memory.store_words mem a (Int64.to_int b)
    (Int64.to_int (Int64.shift_right_logical b 32))

let[@inline] load_single mem a =
  Int32.float_of_bits (Int32.of_int (Memory.load32 mem a land 0xFFFFFFFF))

let[@inline] store_single mem a f =
  Memory.store32 mem a (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)

(* Registers, read and written unchecked: [decode] checked every field.
   [r1]/[r2] read the integer registers word [a] names in [ra]/[rb],
   [f1]/[f2] the FP ones; [wr] writes [rd], canonicalising, [wc] writes
   it a value already canonical, [fw] writes FP register [rd]. *)
let[@inline] rg (regs : int array) k = Array.unsafe_get regs k
let[@inline] r1 regs a = rg regs (ra a)
let[@inline] r2 regs a = rg regs (rb a)
let[@inline] wc (regs : int array) a v = Array.unsafe_set regs (rd a) v
let[@inline] wr regs a v = wc regs a (canon v)
let[@inline] fr (fregs : float array) k = Array.unsafe_get fregs k
let[@inline] f1 fregs a = fr fregs (ra a)
let[@inline] f2 fregs a = fr fregs (rb a)
let[@inline] fw (fregs : float array) a (v : float) =
  Array.unsafe_set fregs (rd a) v
let[@inline] flag b = if b then 1 else 0
let[@inline] ltu x y = x land 0xFFFFFFFF < y land 0xFFFFFFFF
let[@inline] leu x y = x land 0xFFFFFFFF <= y land 0xFFFFFFFF

(* The address [ra + off]. *)
let[@inline] ea regs a b = (r1 regs a + b) land 0xFFFFFFFF

let[@inline] cvt_i_f f =
  if Float.is_nan f then 0
  else if f >= 2147483648.0 then W.max_int32
  else if f <= -2147483649.0 then W.min_int32
  else W.of_int (int_of_float f)

(* An instruction naming a register outside 0-15 raises
   [Invalid_argument], as indexing the register file with it would, but
   only once it touches that register: a division by zero, a faulting
   load or jump target or an extract/insert field outside the word that
   comes first raises its fault instead. *)
let hostile t (i : int Instr.t) =
  let g = get_reg t in
  let addr base off = (g base + off) land 0xFFFFFFFF in
  (match i with
  | Binop (op, _, x, y) -> ignore (Instr.eval_binop op (g x) (g y))
  | Binopi (op, _, x, v) -> ignore (Instr.eval_binop op (g x) (W.of_int v))
  | Load (w, _, _, base, off) ->
      let a = addr base off in
      ignore
        (match w with
        | W8 -> Memory.load8 t.mem a
        | W16 -> Memory.load16 t.mem a
        | W32 -> Memory.load32 t.mem a)
  | Fload (p, _, base, off) -> (
      let a = addr base off in
      match p with
      | Single -> ignore (Memory.load_single t.mem a)
      | Double -> ignore (Memory.load_float t.mem a))
  | Jalr (_, x) ->
      ignore (jump_index (Array.length t.text) (W.to_unsigned (g x)))
  | Ext (_, x, pos, len) ->
      ignore (g x);
      if pos < 0 || len <= 0 || pos + len > 4 then
        fault (Illegal_instruction { pc = 0 })
  | _ -> ());
  invalid_arg "index out of bounds"

(* Deliver a VM fault to the module's registered handler, returning the
   handler's instruction index, or re-raise if none. The handler is
   cleared on delivery to avoid fault loops; the module may re-register
   it. *)
let deliver t n f =
  if t.handler = 0 then fault f
  else begin
    let h = t.handler in
    t.handler <- 0;
    set_reg t (Reg.arg 0) (Fault.code f);
    let i = jump_index n h in
    t.pc <- i;
    i
  end

type outcome = Exited of int | Faulted of Fault.t | Out_of_fuel

exception Out_of_fuel_exn
exception Exit_exn

(* The run is one loop inside one exception handler, entered again only
   after a fault is delivered to the module's handler. Each step spends
   one unit of [fuel] (the step it runs out on is not taken), then
   counts down [poll], the steps until the watchdog's clock is next read
   (with no watchdog it never reaches zero), then checks the pc. The
   step that faults has spent its fuel; delivering the fault spends
   none. [exited] is tested only after a host call, and a run ends
   [Exited] only with fuel left after the call that exits: an exit on
   the last unit of fuel ends it [Out_of_fuel].

   [icount] is not counted per step: it is the fuel spent, less the
   steps that executed nothing ([skipped]: a watchdog expiry or a pc
   outside the text), written back whenever the host or the caller can
   see it. *)
let loop ~fuel ~every watchdog host t { ops; pool; len = n } =
  let regs = t.iregs and fregs = t.fregs and mem = t.mem in
  let fuel0 = fuel and icount0 = t.icount in
  let fuel = ref fuel and poll = ref every and pc = ref t.pc in
  let skipped = ref 0 in
  let outcome =
    ref
      (match t.exited with
      | Some code when fuel0 > 0 -> Some (Exited code)
      | _ -> None)
  in
  while Option.is_none !outcome do
    match
      while true do
        if !fuel <= 0 then raise_notrace Out_of_fuel_exn;
        decr fuel;
        decr poll;
        if !poll <= 0 then begin
          poll := every;
          match watchdog with
          | None -> ()
          | Some w -> (
              match Watchdog.check w with
              | () -> ()
              | exception e ->
                  incr skipped;
                  raise e)
        end;
        let p = !pc in
        if p < 0 || p >= n then begin
          incr skipped;
          fault (Access_violation { addr = Exe.code_addr p; access = Execute })
        end;
        let a = Array.unsafe_get ops (2 * p)
        and b = Array.unsafe_get ops ((2 * p) + 1) in
        pc :=
          match a land 255 with
          | 0 -> wr regs a (r1 regs a + r2 regs a); p + 1
          | 1 -> wr regs a (r1 regs a - r2 regs a); p + 1
          | 2 -> wr regs a (r1 regs a * r2 regs a); p + 1
          | 3 -> wr regs a (W.div (r1 regs a) (r2 regs a)); p + 1
          | 4 -> wr regs a (W.divu (r1 regs a) (r2 regs a)); p + 1
          | 5 -> wr regs a (W.rem (r1 regs a) (r2 regs a)); p + 1
          | 6 -> wr regs a (W.remu (r1 regs a) (r2 regs a)); p + 1
          | 7 -> wr regs a (r1 regs a land r2 regs a); p + 1
          | 8 -> wr regs a (r1 regs a lor r2 regs a); p + 1
          | 9 -> wr regs a (r1 regs a lxor r2 regs a); p + 1
          | 10 -> wr regs a (r1 regs a lsl (r2 regs a land 31)); p + 1
          | 11 ->
              wr regs a ((r1 regs a land 0xFFFFFFFF) lsr (r2 regs a land 31));
              p + 1
          | 12 -> wr regs a (r1 regs a asr (r2 regs a land 31)); p + 1
          | 13 -> wr regs a (flag (r1 regs a < r2 regs a)); p + 1
          | 14 -> wr regs a (flag (ltu (r1 regs a) (r2 regs a))); p + 1
          | 15 -> wr regs a (r1 regs a + imm a); p + 1
          | 16 -> wr regs a (r1 regs a - imm a); p + 1
          | 17 -> wr regs a (r1 regs a * imm a); p + 1
          | 18 -> wr regs a (W.div (r1 regs a) (imm a)); p + 1
          | 19 -> wr regs a (W.divu (r1 regs a) (imm a)); p + 1
          | 20 -> wr regs a (W.rem (r1 regs a) (imm a)); p + 1
          | 21 -> wr regs a (W.remu (r1 regs a) (imm a)); p + 1
          | 22 -> wr regs a (r1 regs a land imm a); p + 1
          | 23 -> wr regs a (r1 regs a lor imm a); p + 1
          | 24 -> wr regs a (r1 regs a lxor imm a); p + 1
          | 25 -> wr regs a (r1 regs a lsl (imm a land 31)); p + 1
          | 26 ->
              wr regs a ((r1 regs a land 0xFFFFFFFF) lsr (imm a land 31));
              p + 1
          | 27 -> wr regs a (r1 regs a asr (imm a land 31)); p + 1
          | 28 -> wr regs a (flag (r1 regs a < imm a)); p + 1
          | 29 -> wr regs a (flag (ltu (r1 regs a) (imm a))); p + 1
          | 30 -> wc regs a (imm a); p + 1
          | 31 -> wc regs a (W.sext8 (Memory.load8 mem (ea regs a b))); p + 1
          | 32 -> wc regs a (Memory.load8 mem (ea regs a b)); p + 1
          | 33 -> wc regs a (W.sext16 (Memory.load16 mem (ea regs a b))); p + 1
          | 34 -> wc regs a (Memory.load16 mem (ea regs a b)); p + 1
          | 35 -> wc regs a (Memory.load32 mem (ea regs a b)); p + 1
          | 36 -> Memory.store8 mem (ea regs a b) (rg regs (rd a)); p + 1
          | 37 -> Memory.store16 mem (ea regs a b) (rg regs (rd a)); p + 1
          | 38 -> Memory.store32 mem (ea regs a b) (rg regs (rd a)); p + 1
          | 39 -> fw fregs a (load_single mem (ea regs a b)); p + 1
          | 40 -> fw fregs a (load_float mem (ea regs a b)); p + 1
          | 41 -> store_single mem (ea regs a b) (fr fregs (rd a)); p + 1
          | 42 -> store_float mem (ea regs a b) (fr fregs (rd a)); p + 1
          | 43 -> fw fregs a (round_single (f1 fregs a +. f2 fregs a)); p + 1
          | 44 -> fw fregs a (f1 fregs a +. f2 fregs a); p + 1
          | 45 -> fw fregs a (round_single (f1 fregs a -. f2 fregs a)); p + 1
          | 46 -> fw fregs a (f1 fregs a -. f2 fregs a); p + 1
          | 47 -> fw fregs a (round_single (f1 fregs a *. f2 fregs a)); p + 1
          | 48 -> fw fregs a (f1 fregs a *. f2 fregs a); p + 1
          | 49 -> fw fregs a (round_single (f1 fregs a /. f2 fregs a)); p + 1
          | 50 -> fw fregs a (f1 fregs a /. f2 fregs a); p + 1
          | 51 -> fw fregs a (round_single (-.f1 fregs a)); p + 1
          | 52 -> fw fregs a (-.f1 fregs a); p + 1
          | 53 -> fw fregs a (round_single (Float.abs (f1 fregs a))); p + 1
          | 54 -> fw fregs a (Float.abs (f1 fregs a)); p + 1
          | 55 -> fw fregs a (round_single (f1 fregs a)); p + 1
          | 56 -> fw fregs a (f1 fregs a); p + 1
          | 57 -> wc regs a (flag (f1 fregs a = f2 fregs a)); p + 1
          | 58 -> wc regs a (flag (f1 fregs a < f2 fregs a)); p + 1
          | 59 -> wc regs a (flag (f1 fregs a <= f2 fregs a)); p + 1
          | 60 -> fw fregs a (Array.unsafe_get pool b); p + 1
          | 61 -> fw fregs a (round_single (float_of_int (r1 regs a))); p + 1
          | 62 -> fw fregs a (float_of_int (r1 regs a)); p + 1
          | 63 -> wc regs a (cvt_i_f (f1 fregs a)); p + 1
          | 64 -> fw fregs a (round_single (f1 fregs a)); p + 1
          | 65 -> if r1 regs a = r2 regs a then b else p + 1
          | 66 -> if r1 regs a <> r2 regs a then b else p + 1
          | 67 -> if r1 regs a < r2 regs a then b else p + 1
          | 68 -> if r1 regs a <= r2 regs a then b else p + 1
          | 69 -> if r2 regs a < r1 regs a then b else p + 1
          | 70 -> if r2 regs a <= r1 regs a then b else p + 1
          | 71 -> if ltu (r1 regs a) (r2 regs a) then b else p + 1
          | 72 -> if leu (r1 regs a) (r2 regs a) then b else p + 1
          | 73 -> if ltu (r2 regs a) (r1 regs a) then b else p + 1
          | 74 -> if leu (r2 regs a) (r1 regs a) then b else p + 1
          | 75 -> if r1 regs a = imm a then b else p + 1
          | 76 -> if r1 regs a <> imm a then b else p + 1
          | 77 -> if r1 regs a < imm a then b else p + 1
          | 78 -> if r1 regs a <= imm a then b else p + 1
          | 79 -> if imm a < r1 regs a then b else p + 1
          | 80 -> if imm a <= r1 regs a then b else p + 1
          | 81 -> if ltu (r1 regs a) (imm a) then b else p + 1
          | 82 -> if leu (r1 regs a) (imm a) then b else p + 1
          | 83 -> if ltu (imm a) (r1 regs a) then b else p + 1
          | 84 -> if leu (imm a) (r1 regs a) then b else p + 1
          | 85 -> b
          | 86 -> Array.unsafe_set regs Reg.ra (imm a); b
          | 87 -> jump_index n (r1 regs a land 0xFFFFFFFF)
          | 88 ->
              let target = jump_index n (r1 regs a land 0xFFFFFFFF) in
              wc regs a (imm a);
              target
          | 89 ->
              wr regs a (((r1 regs a land 0xFFFFFFFF) lsr imm a) land b);
              p + 1
          | 90 ->
              let s = imm a in
              wr regs a
                (r2 regs a land 0xFFFFFFFF land lnot (b lsl s)
                lor ((r1 regs a land b) lsl s));
              p + 1
          | 91 ->
              pc := p + 1;
              t.pc <- p + 1;
              t.icount <- icount0 + (fuel0 - !fuel) - !skipped;
              (match host.on_hcall t b with
              | Continue -> ()
              | Exit code -> t.exited <- Some code);
              if Option.is_some t.exited then raise_notrace Exit_exn;
              t.pc
          | 92 -> fault (Explicit_trap b)
          | 93 -> p + 1
          | 94 -> hostile t t.text.(p)
          | 95 -> fault (Illegal_instruction { pc = 0 })
          | 96 -> fault (Access_violation { addr = b; access = Execute })
          | 97 ->
              Array.unsafe_set regs Reg.ra (imm a);
              fault (Access_violation { addr = b; access = Execute })
          | 98 ->
              if Instr.eval_cond conds.(rd a) (r1 regs a) (r2 regs a)
              then fault (Access_violation { addr = b; access = Execute })
              else p + 1
          | _ ->
              if Instr.eval_cond conds.(rd a) (r1 regs a) (imm a) then
                fault (Access_violation { addr = b; access = Execute })
              else p + 1
      done
    with
    | () -> ()
    | exception e -> (
        t.pc <- !pc;
        t.icount <- icount0 + (fuel0 - !fuel) - !skipped;
        match e with
        | Out_of_fuel_exn -> outcome := Some Out_of_fuel
        | Exit_exn ->
            outcome :=
              Some
                (if !fuel <= 0 then Out_of_fuel
                 else Exited (Option.get t.exited))
        | Fault.Vm_fault _ | W.Division_by_zero -> (
            let f =
              match e with
              | Fault.Vm_fault f -> f
              | _ -> Fault.Division_by_zero
            in
            match deliver t n f with
            | i -> pc := i
            | exception Fault.Vm_fault f -> outcome := Some (Faulted f))
        | e -> raise e)
  done;
  Option.get !outcome

let run ?(fuel = max_int) ?watchdog ?code host t =
  let every =
    match watchdog with Some w -> Watchdog.poll_every w | None -> max_int
  in
  match code with
  | Some c ->
      if c.len <> Array.length t.text then
        invalid_arg "Interp.run: code decoded from another text";
      loop ~fuel ~every watchdog host t c
  | None -> (
      let ops = take_ops (Array.length t.text) in
      let c = decode_into ops t.text in
      match loop ~fuel ~every watchdog host t c with
      | o ->
          give_ops ops;
          o
      | exception e ->
          give_ops ops;
          raise e)

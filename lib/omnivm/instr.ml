(* The OmniVM instruction set (paper, section 3).

   A RISC-like, three-address, load/store instruction set with:
   - 32-bit immediates and 32-bit address offsets everywhere (3.4),
   - general compare-and-branch instructions on two registers or a register
     and an immediate (3.4),
   - byte/halfword/word integer memory access and IEEE single/double
     floating point (3.3),
   - endian-neutral extract/insert instructions (3.3),
   - a host-call instruction through which the runtime exports library
     functions to the module (section 4, "runtime environment").

   Instructions are polymorphic in the label type: the assembler works over
   symbolic (string) labels, linked executables over resolved 32-bit code
   addresses. *)

type binop =
  | Add | Sub | Mul | Div | Divu | Rem | Remu
  | And | Or | Xor
  | Sll | Srl | Sra
  | Slt | Sltu

type fbinop = Fadd | Fsub | Fmul | Fdiv
type funop = Fneg | Fabs | Fmov
type fcmp = Feq | Flt | Fle

(* Precision of a floating-point operation: IEEE single or double. *)
type fprec = Single | Double

type cond = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

(* Memory access widths. Loads carry signedness for sub-word widths. *)
type mem_width = W8 | W16 | W32

type 'lab t =
  | Binop of binop * Reg.t * Reg.t * Reg.t        (* rd <- rs1 op rs2 *)
  | Binopi of binop * Reg.t * Reg.t * int         (* rd <- rs1 op imm32 *)
  | Li of Reg.t * int                             (* rd <- imm32 *)
  | Load of mem_width * bool * Reg.t * Reg.t * int
      (* width, signed, rd, base, off32: rd <- mem[base + off] *)
  | Store of mem_width * Reg.t * Reg.t * int
      (* width, rv, base, off32: mem[base + off] <- rv *)
  | Fload of fprec * Reg.t * Reg.t * int          (* fd <- mem[base + off] *)
  | Fstore of fprec * Reg.t * Reg.t * int         (* mem[base + off] <- fv *)
  | Fbinop of fbinop * fprec * Reg.t * Reg.t * Reg.t
  | Funop of funop * fprec * Reg.t * Reg.t
  | Fcmp of fcmp * fprec * Reg.t * Reg.t * Reg.t  (* rd <- fs1 cmp fs2 *)
  | Fli of fprec * Reg.t * float                  (* fd <- constant *)
  | Cvt_f_i of fprec * Reg.t * Reg.t              (* fd <- (fp) rs *)
  | Cvt_i_f of fprec * Reg.t * Reg.t              (* rd <- (int) fs, trunc *)
  | Cvt_d_s of Reg.t * Reg.t                      (* fd(double) <- fs(single) *)
  | Cvt_s_d of Reg.t * Reg.t                      (* fd(single) <- fs(double) *)
  | Br of cond * Reg.t * Reg.t * 'lab             (* if rs1 cond rs2 goto l *)
  | Bri of cond * Reg.t * int * 'lab              (* if rs1 cond imm goto l *)
  | J of 'lab
  | Jal of 'lab                                   (* ra <- pc+4; goto l *)
  | Jr of Reg.t                                   (* goto rs *)
  | Jalr of Reg.t * Reg.t                         (* rd <- pc+4; goto rs *)
  | Ext of Reg.t * Reg.t * int * int
      (* rd <- bytes [pos, pos+len) of rs, zero-extended (endian-neutral) *)
  | Ins of Reg.t * Reg.t * int * int
      (* bytes [pos, pos+len) of rd <- low bytes of rs *)
  | Hcall of int                                  (* host call by index *)
  | Trap of int                                   (* raise VM exception *)
  | Nop

let map_label f = function
  | Br (c, a, b, l) -> Br (c, a, b, f l)
  | Bri (c, a, i, l) -> Bri (c, a, i, f l)
  | J l -> J (f l)
  | Jal l -> Jal (f l)
  | Binop (o, a, b, c) -> Binop (o, a, b, c)
  | Binopi (o, a, b, c) -> Binopi (o, a, b, c)
  | Li (a, b) -> Li (a, b)
  | Load (w, s, a, b, c) -> Load (w, s, a, b, c)
  | Store (w, a, b, c) -> Store (w, a, b, c)
  | Fload (p, a, b, c) -> Fload (p, a, b, c)
  | Fstore (p, a, b, c) -> Fstore (p, a, b, c)
  | Fbinop (o, p, a, b, c) -> Fbinop (o, p, a, b, c)
  | Funop (o, p, a, b) -> Funop (o, p, a, b)
  | Fcmp (o, p, a, b, c) -> Fcmp (o, p, a, b, c)
  | Fli (p, a, v) -> Fli (p, a, v)
  | Cvt_f_i (p, a, b) -> Cvt_f_i (p, a, b)
  | Cvt_i_f (p, a, b) -> Cvt_i_f (p, a, b)
  | Cvt_d_s (a, b) -> Cvt_d_s (a, b)
  | Cvt_s_d (a, b) -> Cvt_s_d (a, b)
  | Jr a -> Jr a
  | Jalr (a, b) -> Jalr (a, b)
  | Ext (a, b, p, n) -> Ext (a, b, p, n)
  | Ins (a, b, p, n) -> Ins (a, b, p, n)
  | Hcall n -> Hcall n
  | Trap n -> Trap n
  | Nop -> Nop

let label = function
  | Br (_, _, _, l) | Bri (_, _, _, l) | J l | Jal l -> Some l
  | Binop _ | Binopi _ | Li _ | Load _ | Store _ | Fload _ | Fstore _
  | Fbinop _ | Funop _ | Fcmp _ | Fli _ | Cvt_f_i _ | Cvt_i_f _ | Cvt_d_s _
  | Cvt_s_d _ | Jr _ | Jalr _ | Ext _ | Ins _ | Hcall _ | Trap _ | Nop ->
      None

(* Does control flow unconditionally leave this instruction? *)
let is_terminator = function
  | J _ | Jr _ | Trap _ -> true
  | Br _ | Bri _ | Jal _ | Jalr _ | Binop _ | Binopi _ | Li _ | Load _
  | Store _ | Fload _ | Fstore _ | Fbinop _ | Funop _ | Fcmp _ | Fli _
  | Cvt_f_i _ | Cvt_i_f _ | Cvt_d_s _ | Cvt_s_d _ | Ext _ | Ins _ | Hcall _
  | Nop ->
      false

let negate_cond = function
  | Eq -> Ne | Ne -> Eq
  | Lt -> Ge | Ge -> Lt
  | Le -> Gt | Gt -> Le
  | Ltu -> Geu | Geu -> Ltu
  | Leu -> Gtu | Gtu -> Leu

(* [swap_cond c] is the condition c' with [a c b] iff [b c' a]. *)
let swap_cond = function
  | Eq -> Eq | Ne -> Ne
  | Lt -> Gt | Gt -> Lt
  | Le -> Ge | Ge -> Le
  | Ltu -> Gtu | Gtu -> Ltu
  | Leu -> Geu | Geu -> Leu

let eval_cond c a b =
  let module W = Omni_util.Word32 in
  match c with
  | Eq -> W.eq a b
  | Ne -> not (W.eq a b)
  | Lt -> W.lt a b
  | Le -> W.le a b
  | Gt -> W.lt b a
  | Ge -> W.le b a
  | Ltu -> W.ltu a b
  | Leu -> W.leu a b
  | Gtu -> W.ltu b a
  | Geu -> W.leu b a

let eval_binop op a b =
  let module W = Omni_util.Word32 in
  match op with
  | Add -> W.add a b
  | Sub -> W.sub a b
  | Mul -> W.mul a b
  | Div -> W.div a b
  | Divu -> W.divu a b
  | Rem -> W.rem a b
  | Remu -> W.remu a b
  | And -> W.logand a b
  | Or -> W.logor a b
  | Xor -> W.logxor a b
  | Sll -> W.shift_left a (W.to_unsigned b land 31)
  | Srl -> W.shift_right_logical a (W.to_unsigned b land 31)
  | Sra -> W.shift_right_arith a (W.to_unsigned b land 31)
  | Slt -> if W.lt a b then 1 else 0
  | Sltu -> if W.ltu a b then 1 else 0

(* Dense indexes of an instruction's sub-operation, from 0, which the
   interpreter's and the simulators' decoders add to an opcode's base and
   the targets' structural fingerprints fold. *)
let binop_index = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Divu -> 4 | Rem -> 5
  | Remu -> 6 | And -> 7 | Or -> 8 | Xor -> 9 | Sll -> 10 | Srl -> 11
  | Sra -> 12 | Slt -> 13 | Sltu -> 14

let load_index w signed =
  match (w, signed) with
  | W8, true -> 0 | W8, false -> 1 | W16, true -> 2 | W16, false -> 3
  | W32, _ -> 4

let store_index = function W8 -> 0 | W16 -> 1 | W32 -> 2

let cond_index = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4
  | Ge -> 5 | Ltu -> 6 | Leu -> 7 | Gtu -> 8 | Geu -> 9

let prec_index = function Single -> 0 | Double -> 1

let fop_index op prec =
  (2 * match op with Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3)
  + prec_index prec

let funop_index = function Fneg -> 0 | Fabs -> 1 | Fmov -> 2
let fcmp_index = function Feq -> 0 | Flt -> 1 | Fle -> 2

(* --- pretty printing (canonical assembly syntax) --- *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
  | Divu -> "divu" | Rem -> "rem" | Remu -> "remu" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
  | Slt -> "slt" | Sltu -> "sltu"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let funop_name = function Fneg -> "fneg" | Fabs -> "fabs" | Fmov -> "fmov"
let fcmp_name = function Feq -> "feq" | Flt -> "flt" | Fle -> "fle"
let prec_suffix = function Single -> "s" | Double -> "d"

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt"
  | Ge -> "ge" | Ltu -> "ltu" | Leu -> "leu" | Gtu -> "gtu" | Geu -> "geu"

let load_name w signed =
  match (w, signed) with
  | W8, true -> "lb" | W8, false -> "lbu"
  | W16, true -> "lh" | W16, false -> "lhu"
  | W32, _ -> "lw"

let store_name = function W8 -> "sb" | W16 -> "sh" | W32 -> "sw"

let pp pp_lab fmt i =
  let p format = Format.fprintf fmt format in
  let r = Reg.name and f = Reg.fname in
  match i with
  | Binop (op, rd, rs1, rs2) ->
      p "%s %s, %s, %s" (binop_name op) (r rd) (r rs1) (r rs2)
  | Binopi (op, rd, rs1, imm) ->
      p "%si %s, %s, %d" (binop_name op) (r rd) (r rs1) imm
  | Li (rd, imm) -> p "li %s, %d" (r rd) imm
  | Load (w, s, rd, base, off) ->
      p "%s %s, %d(%s)" (load_name w s) (r rd) off (r base)
  | Store (w, rv, base, off) ->
      p "%s %s, %d(%s)" (store_name w) (r rv) off (r base)
  | Fload (pr, fd, base, off) ->
      p "fl%s %s, %d(%s)" (prec_suffix pr) (f fd) off (r base)
  | Fstore (pr, fv, base, off) ->
      p "fs%s %s, %d(%s)" (prec_suffix pr) (f fv) off (r base)
  | Fbinop (op, pr, fd, fs1, fs2) ->
      p "%s.%s %s, %s, %s" (fbinop_name op) (prec_suffix pr) (f fd) (f fs1)
        (f fs2)
  | Funop (op, pr, fd, fs) ->
      p "%s.%s %s, %s" (funop_name op) (prec_suffix pr) (f fd) (f fs)
  | Fcmp (op, pr, rd, fs1, fs2) ->
      p "%s.%s %s, %s, %s" (fcmp_name op) (prec_suffix pr) (r rd) (f fs1)
        (f fs2)
  | Fli (pr, fd, v) -> p "fli.%s %s, %h" (prec_suffix pr) (f fd) v
  | Cvt_f_i (pr, fd, rs) -> p "cvt.%s.w %s, %s" (prec_suffix pr) (f fd) (r rs)
  | Cvt_i_f (pr, rd, fs) -> p "cvt.w.%s %s, %s" (prec_suffix pr) (r rd) (f fs)
  | Cvt_d_s (fd, fs) -> p "cvt.d.s %s, %s" (f fd) (f fs)
  | Cvt_s_d (fd, fs) -> p "cvt.s.d %s, %s" (f fd) (f fs)
  | Br (c, rs1, rs2, l) ->
      p "b%s %s, %s, %a" (cond_name c) (r rs1) (r rs2) pp_lab l
  | Bri (c, rs1, imm, l) ->
      p "b%si %s, %d, %a" (cond_name c) (r rs1) imm pp_lab l
  | J l -> p "j %a" pp_lab l
  | Jal l -> p "jal %a" pp_lab l
  | Jr rs -> p "jr %s" (r rs)
  | Jalr (rd, rs) -> p "jalr %s, %s" (r rd) (r rs)
  | Ext (rd, rs, pos, len) -> p "ext %s, %s, %d, %d" (r rd) (r rs) pos len
  | Ins (rd, rs, pos, len) -> p "ins %s, %s, %d, %d" (r rd) (r rs) pos len
  | Hcall n -> p "hcall %d" n
  | Trap n -> p "trap %d" n
  | Nop -> p "nop"

let to_string pp_lab i = Format.asprintf "%a" (pp pp_lab) i

let pp_string_label fmt s = Format.pp_print_string fmt s
let pp_addr_label fmt a = Format.fprintf fmt "0x%08x" (a land 0xFFFFFFFF)

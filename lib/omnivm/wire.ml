(* Binary wire format for mobile OmniVM modules.

   This is the portable artifact of the system: the compiler/linker emits
   these bytes, they are shipped unchanged to any host, and the host's loader
   decodes and translates them. Layout (all little-endian):

     "OMNI" magic | u16 version | u16 flags
     u32 entry address
     u32 instruction count | u32 data length | u32 bss size | u32 symbol count
     instruction stream (variable length)
     data bytes
     symbols: { u16 name length; name bytes; u32 address } *)

exception Bad_module of string

let version = 1

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_module s)) fmt

(* --- opcode assignments --- *)

let binop_code = function
  | Instr.Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Divu -> 4 | Rem -> 5
  | Remu -> 6 | And -> 7 | Or -> 8 | Xor -> 9 | Sll -> 10 | Srl -> 11
  | Sra -> 12 | Slt -> 13 | Sltu -> 14

let binop_of_code = function
  | 0 -> Instr.Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Divu | 5 -> Rem
  | 6 -> Remu | 7 -> And | 8 -> Or | 9 -> Xor | 10 -> Sll | 11 -> Srl
  | 12 -> Sra | 13 -> Slt | 14 -> Sltu
  | c -> bad "bad binop code %d" c

let cond_code = function
  | Instr.Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5
  | Ltu -> 6 | Leu -> 7 | Gtu -> 8 | Geu -> 9

let cond_of_code = function
  | 0 -> Instr.Eq | 1 -> Ne | 2 -> Lt | 3 -> Le | 4 -> Gt | 5 -> Ge
  | 6 -> Ltu | 7 -> Leu | 8 -> Gtu | 9 -> Geu
  | c -> bad "bad cond code %d" c

let width_code w signed =
  match (w, signed) with
  | Instr.W8, false -> 0
  | Instr.W8, true -> 1
  | Instr.W16, false -> 2
  | Instr.W16, true -> 3
  | Instr.W32, _ -> 4

let width_of_code = function
  | 0 -> (Instr.W8, false)
  | 1 -> (Instr.W8, true)
  | 2 -> (Instr.W16, false)
  | 3 -> (Instr.W16, true)
  | 4 -> (Instr.W32, true)
  | c -> bad "bad width code %d" c

let swidth_code = function Instr.W8 -> 0 | W16 -> 1 | W32 -> 2

let swidth_of_code = function
  | 0 -> Instr.W8 | 1 -> W16 | 2 -> W32 | c -> bad "bad store width %d" c

let prec_code = function Instr.Single -> 0 | Double -> 1
let prec_of_code = function
  | 0 -> Instr.Single | 1 -> Double | c -> bad "bad precision %d" c

let fbinop_code = function
  | Instr.Fadd -> 0 | Fsub -> 1 | Fmul -> 2 | Fdiv -> 3

let fbinop_of_code = function
  | 0 -> Instr.Fadd | 1 -> Fsub | 2 -> Fmul | 3 -> Fdiv
  | c -> bad "bad fbinop %d" c

let funop_code = function Instr.Fneg -> 0 | Fabs -> 1 | Fmov -> 2
let funop_of_code = function
  | 0 -> Instr.Fneg | 1 -> Fabs | 2 -> Fmov | c -> bad "bad funop %d" c

let fcmp_code = function Instr.Feq -> 0 | Flt -> 1 | Fle -> 2
let fcmp_of_code = function
  | 0 -> Instr.Feq | 1 -> Flt | 2 -> Fle | c -> bad "bad fcmp %d" c

(* --- primitive writers --- *)

let w8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let w16 b v = w8 b v; w8 b (v lsr 8)
let w32 b v =
  let v = v land 0xFFFFFFFF in
  w8 b v; w8 b (v lsr 8); w8 b (v lsr 16); w8 b (v lsr 24)
let w64 b v =
  w32 b (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  w32 b (Int64.to_int (Int64.shift_right_logical v 32))

let encode_instr b (i : int Instr.t) =
  match i with
  | Nop -> w8 b 0
  | Binop (op, rd, rs1, rs2) ->
      w8 b 1; w8 b (binop_code op); w8 b rd; w8 b rs1; w8 b rs2
  | Binopi (op, rd, rs1, imm) ->
      w8 b 2; w8 b (binop_code op); w8 b rd; w8 b rs1; w32 b imm
  | Li (rd, imm) -> w8 b 3; w8 b rd; w32 b imm
  | Load (w, s, rd, base, off) ->
      w8 b 4; w8 b (width_code w s); w8 b rd; w8 b base; w32 b off
  | Store (w, rv, base, off) ->
      w8 b 5; w8 b (swidth_code w); w8 b rv; w8 b base; w32 b off
  | Fload (p, fd, base, off) ->
      w8 b 6; w8 b (prec_code p); w8 b fd; w8 b base; w32 b off
  | Fstore (p, fv, base, off) ->
      w8 b 7; w8 b (prec_code p); w8 b fv; w8 b base; w32 b off
  | Fbinop (op, p, fd, fs1, fs2) ->
      w8 b 8; w8 b ((fbinop_code op lsl 1) lor prec_code p);
      w8 b fd; w8 b fs1; w8 b fs2
  | Funop (op, p, fd, fs) ->
      w8 b 9; w8 b ((funop_code op lsl 1) lor prec_code p); w8 b fd; w8 b fs
  | Fcmp (op, p, rd, fs1, fs2) ->
      w8 b 10; w8 b ((fcmp_code op lsl 1) lor prec_code p);
      w8 b rd; w8 b fs1; w8 b fs2
  | Fli (p, fd, v) ->
      w8 b 11; w8 b (prec_code p); w8 b fd; w64 b (Int64.bits_of_float v)
  | Cvt_f_i (p, fd, rs) -> w8 b 12; w8 b (prec_code p); w8 b fd; w8 b rs
  | Cvt_i_f (p, rd, fs) -> w8 b 13; w8 b (prec_code p); w8 b rd; w8 b fs
  | Cvt_d_s (fd, fs) -> w8 b 14; w8 b fd; w8 b fs
  | Cvt_s_d (fd, fs) -> w8 b 15; w8 b fd; w8 b fs
  | Br (c, rs1, rs2, l) ->
      w8 b 16; w8 b (cond_code c); w8 b rs1; w8 b rs2; w32 b l
  | Bri (c, rs1, imm, l) ->
      w8 b 17; w8 b (cond_code c); w8 b rs1; w32 b imm; w32 b l
  | J l -> w8 b 18; w32 b l
  | Jal l -> w8 b 19; w32 b l
  | Jr rs -> w8 b 20; w8 b rs
  | Jalr (rd, rs) -> w8 b 21; w8 b rd; w8 b rs
  | Ext (rd, rs, pos, len) -> w8 b 22; w8 b rd; w8 b rs; w8 b pos; w8 b len
  | Ins (rd, rs, pos, len) -> w8 b 23; w8 b rd; w8 b rs; w8 b pos; w8 b len
  | Hcall n -> w8 b 24; w16 b n
  | Trap n -> w8 b 25; w16 b n

let encode (exe : Exe.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "OMNI";
  w16 b version;
  w16 b 0;
  w32 b exe.entry;
  w32 b (Array.length exe.text);
  w32 b (Bytes.length exe.data);
  w32 b exe.bss_size;
  w32 b (List.length exe.symbols);
  Array.iter (encode_instr b) exe.text;
  Buffer.add_bytes b exe.data;
  List.iter
    (fun (name, addr) ->
      w16 b (String.length name);
      Buffer.add_string b name;
      w32 b addr)
    exe.symbols;
  Buffer.contents b

(* --- decoding --- *)

type cursor = { s : string; mutable pos : int }

let r8 c =
  if c.pos >= String.length c.s then bad "truncated module";
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r16 c = let a = r8 c in a lor (r8 c lsl 8)
let r32 c = let a = r16 c in a lor (r16 c lsl 16)
let r64 c =
  let lo = Int64.of_int (r32 c) in
  let hi = Int64.of_int (r32 c) in
  Int64.logor lo (Int64.shift_left hi 32)

let reg c =
  let r = r8 c in
  if r > 15 then bad "bad register %d" r;
  r

let s32 v = Omni_util.Word32.of_int v

let decode_instr c : int Instr.t =
  match r8 c with
  | 0 -> Nop
  | 1 ->
      let op = binop_of_code (r8 c) in
      let rd = reg c in let rs1 = reg c in let rs2 = reg c in
      Binop (op, rd, rs1, rs2)
  | 2 ->
      let op = binop_of_code (r8 c) in
      let rd = reg c in let rs1 = reg c in let imm = s32 (r32 c) in
      Binopi (op, rd, rs1, imm)
  | 3 -> let rd = reg c in Li (rd, s32 (r32 c))
  | 4 ->
      let w, s = width_of_code (r8 c) in
      let rd = reg c in let base = reg c in
      Load (w, s, rd, base, s32 (r32 c))
  | 5 ->
      let w = swidth_of_code (r8 c) in
      let rv = reg c in let base = reg c in
      Store (w, rv, base, s32 (r32 c))
  | 6 ->
      let p = prec_of_code (r8 c) in
      let fd = reg c in let base = reg c in
      Fload (p, fd, base, s32 (r32 c))
  | 7 ->
      let p = prec_of_code (r8 c) in
      let fv = reg c in let base = reg c in
      Fstore (p, fv, base, s32 (r32 c))
  | 8 ->
      let sub = r8 c in
      let op = fbinop_of_code (sub lsr 1) and p = prec_of_code (sub land 1) in
      let fd = reg c in let fs1 = reg c in let fs2 = reg c in
      Fbinop (op, p, fd, fs1, fs2)
  | 9 ->
      let sub = r8 c in
      let op = funop_of_code (sub lsr 1) and p = prec_of_code (sub land 1) in
      let fd = reg c in let fs = reg c in
      Funop (op, p, fd, fs)
  | 10 ->
      let sub = r8 c in
      let op = fcmp_of_code (sub lsr 1) and p = prec_of_code (sub land 1) in
      let rd = reg c in let fs1 = reg c in let fs2 = reg c in
      Fcmp (op, p, rd, fs1, fs2)
  | 11 ->
      let p = prec_of_code (r8 c) in
      let fd = reg c in
      Fli (p, fd, Int64.float_of_bits (r64 c))
  | 12 ->
      let p = prec_of_code (r8 c) in
      let fd = reg c in let rs = reg c in
      Cvt_f_i (p, fd, rs)
  | 13 ->
      let p = prec_of_code (r8 c) in
      let rd = reg c in let fs = reg c in
      Cvt_i_f (p, rd, fs)
  | 14 -> let fd = reg c in let fs = reg c in Cvt_d_s (fd, fs)
  | 15 -> let fd = reg c in let fs = reg c in Cvt_s_d (fd, fs)
  | 16 ->
      let cond = cond_of_code (r8 c) in
      let rs1 = reg c in let rs2 = reg c in
      Br (cond, rs1, rs2, r32 c)
  | 17 ->
      let cond = cond_of_code (r8 c) in
      let rs1 = reg c in let imm = s32 (r32 c) in
      Bri (cond, rs1, imm, r32 c)
  | 18 -> J (r32 c)
  | 19 -> Jal (r32 c)
  | 20 -> Jr (reg c)
  | 21 -> let rd = reg c in let rs = reg c in Jalr (rd, rs)
  | 22 ->
      let rd = reg c in let rs = reg c in
      let pos = r8 c in let len = r8 c in
      Ext (rd, rs, pos, len)
  | 23 ->
      let rd = reg c in let rs = reg c in
      let pos = r8 c in let len = r8 c in
      Ins (rd, rs, pos, len)
  | 24 -> Hcall (r16 c)
  | 25 -> Trap (r16 c)
  | op -> bad "bad opcode %d" op

let decode (s : string) : Exe.t =
  let c = { s; pos = 0 } in
  if String.length s < 4 || not (String.equal (String.sub s 0 4) "OMNI") then
    bad "bad magic";
  c.pos <- 4;
  let v = r16 c in
  if v <> version then bad "unsupported version %d" v;
  let _flags = r16 c in
  let entry = r32 c in
  let count = r32 c in
  let data_len = r32 c in
  let bss_size = r32 c in
  let nsyms = r32 c in
  if count > 0x400000 then bad "unreasonable instruction count";
  (* every instruction takes at least its opcode byte *)
  if count > String.length s - c.pos then bad "truncated module";
  (* filled in place from a constant: [Array.init] seeds the array with
     the first, young, instruction, and a text over 256 instructions then
     forces a minor collection *)
  let text = Array.make count Instr.Nop in
  for k = 0 to count - 1 do
    text.(k) <- decode_instr c
  done;
  (* every engine starts at the entry: it must name an instruction *)
  (match Exe.index_of_addr entry with
  | Some i when i < count -> ()
  | _ -> bad "entry 0x%x is not an instruction of the text" entry);
  if c.pos + data_len > String.length s then bad "truncated data";
  let data = Bytes.of_string (String.sub s c.pos data_len) in
  c.pos <- c.pos + data_len;
  let symbols =
    List.init nsyms (fun _ ->
        let len = r16 c in
        if c.pos + len > String.length s then bad "truncated symbol";
        let name = String.sub s c.pos len in
        c.pos <- c.pos + len;
        let addr = r32 c in
        (name, addr))
  in
  { Exe.text; entry; data; bss_size; symbols }

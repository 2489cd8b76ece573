(* The x86 (Pentium) target.

   A two-address CISC with eight integer registers and memory operands.
   OmniVM register mapping (paper 3.2: "on the x86, some registers are
   mapped to memory locations"):

     omni r14 (sp) -> esp
     omni r1..r4   -> ecx, ebx, esi, edi      (arguments / results: hot)
     omni r15 (ra) -> ebp
     all other omni integer registers -> memory homes in the reserved
     runtime area at the bottom of the data segment
     eax, edx       -> translator scratch (also implicit in mul/div)

   Floating point: the Pentium's x87 is modeled as a flat 8-register FP
   file (fp0..fp7): omni f1..f6 map to fp0..fp5, fp6/fp7 are scratch, and
   the remaining omni float registers live in memory homes. The x87 stack
   discipline (FXCH scheduling) is abstracted away; its cost shows up in
   the model as FP operations issuing only in the U pipe (unpairable).

   Condition codes are modeled like the RISC targets: a compare records its
   operand pair, conditional jumps evaluate the condition. *)

module VI = Omnivm.Instr

type reg = int (* 0..7: eax ecx edx ebx esp ebp esi edi *)

let eax = 0
let ecx = 1
let edx = 2
let ebx = 3
let esp = 4
let ebp = 5
let esi = 6
let edi = 7

let reg_names = [| "eax"; "ecx"; "edx"; "ebx"; "esp"; "ebp"; "esi"; "edi" |]

(* Where an OmniVM integer register lives. *)
type home = Hreg of reg | Hmem of int (* absolute address *) | Hzero

let int_home (r : int) : home =
  if r = 0 then Hzero
  else if r = Omnivm.Reg.sp then Hreg esp
  else if r = Omnivm.Reg.ra then Hreg ebp
  else
    match r with
    | 1 -> Hreg ecx
    | 2 -> Hreg ebx
    | 3 -> Hreg esi
    | 4 -> Hreg edi
    | r -> Hmem (Omnivm.Layout.regsave_int_addr r)

type fhome = FHreg of int | FHmem of int

let float_home (f : int) : fhome =
  if f >= 1 && f <= 6 then FHreg (f - 1)
  else FHmem (Omnivm.Layout.regsave_float_addr f)

let fp_scratch1 = 6
let fp_scratch2 = 7

(* --- operands and instructions --- *)

type mem = {
  base : reg option;
  index : (reg * int) option; (* reg * scale (1,2,4,8) *)
  disp : int;
}

let mabs disp = { base = None; index = None; disp }
let mbase r disp = { base = Some r; index = None; disp }

type operand = R of reg | M of mem | I of int

type aluop = Add | Sub | And | Or | Xor

type shop = Shl | Shr | Sar

type instr =
  | Mov of operand * operand (* dst, src; not mem-to-mem *)
  | Load of VI.mem_width * bool * reg * mem (* movzx/movsx/mov load *)
  | Store of VI.mem_width * mem * operand (* src: R or I *)
  | Alu of aluop * operand * operand (* dst op= src *)
  | Shift of shop * operand * int
  | Shiftv of shop * operand * reg (* variable shift; count register *)
  | Imul of reg * operand
  | Idiv of operand * bool (* signed; implicit eax:edx; quotient eax, rem edx *)
  | Cdq
  | Lea of reg * mem
  | Cmp of operand * operand (* records pair for Jcc/Setcc *)
  | Setcc of VI.cond * reg (* rd := cond ? 1 : 0 (includes zero-extend) *)
  | Jcc of VI.cond * int
  | Jmp of int
  | Jmp_ind of operand (* omni code address *)
  | Call of int * int (* label, omni return address (-> ebp) *)
  | Call_ind of operand * int
  | Fop of VI.fbinop * VI.fprec * int * int * int (* flat-file pseudo-x87 *)
  | Fun1 of VI.funop * int * int
  | Fload of VI.fprec * int * mem
  | Fstore of VI.fprec * int * mem
  | Fld_pool of int * int
  | Fcmp of VI.fcmp * int * int (* sets fcc *)
  | Fcc_to_reg of reg
  | Cvt_f_i of int * operand (* fp := (double) int-operand *)
  | Cvt_i_f of reg * int
  | Guard_data of reg
  | Guard_code of reg
  | Trapi of int
  | Hcall of int
  | Nop

type slot = { i : instr; origin : Machine.origin }

let mk origin i = { i; origin }

type program = {
  code : slot array;
  entry : int;
  addr_map : int array;
  pool : float array;
  n_omni : int;
  decl : Machine.sfi_decl; (* declared SFI masking counts (certification) *)
}

let is_control = function
  | Jcc _ | Jmp _ | Jmp_ind _ | Call _ | Call_ind _ -> true
  | Mov _ | Load _ | Store _ | Alu _ | Shift _ | Shiftv _ | Imul _ | Idiv _ | Cdq
  | Lea _ | Cmp _ | Setcc _ | Fop _ | Fun1 _ | Fload _ | Fstore _
  | Fld_pool _ | Fcmp _ | Fcc_to_reg _ | Cvt_f_i _ | Cvt_i_f _
  | Guard_data _ | Guard_code _ | Trapi _ | Hcall _ | Nop ->
      false

(* --- pipeline attributes (Pentium-ish) --- *)

let fid f = 32 + f
let cc_id = 64
let fcc_id = 65

(* Packed resource lists (see [Pipeline.cost]). *)
let mem_uses (m : mem) =
  let i = match m.index with Some (r, _) -> Pipeline.one r | None -> 0 in
  match m.base with Some r -> Pipeline.cons r i | None -> i

let op_uses = function
  | R r -> Pipeline.one r
  | M m -> mem_uses m
  | I _ -> 0

let op_is_mem = function M _ -> true | R _ | I _ -> false

(* Pairing on the Pentium: simple integer ops pair U+V; shifts and FP ops
   only issue in the U pipe; a branch can issue in the V pipe after an
   integer op. We encode this with unit classes: IU pairs with IU and BRU;
   LSU (shift-class) and FPU pair with nothing. *)
let unit_of : instr -> Pipeline.unit_class = function
  | Shift (_, (R _ | M _), _) | Shiftv (_, (R _ | M _), _) | Setcc _
  | Fcc_to_reg _ ->
      Pipeline.LSU
  | Jcc _ | Jmp _ | Jmp_ind _ | Call _ | Call_ind _ -> Pipeline.BRU
  | Fop _ | Fun1 _ | Fload _ | Fstore _ | Fld_pool _ | Fcmp _ | Cvt_f_i _
  | Cvt_i_f _ ->
      Pipeline.FPU
  | Mov _ | Load _ | Store _ | Alu _ | Shift (_, I _, _) | Shiftv (_, I _, _)
  | Imul _ | Idiv _ | Cdq | Lea _ | Cmp _ | Guard_data _ | Guard_code _
  | Trapi _ | Hcall _ | Nop ->
      Pipeline.IU

(* [Pipeline.load] if the operand is in memory. *)
let mem_flag o = if op_is_mem o then Pipeline.load else 0

let cost_of (i : instr) : Pipeline.cost =
  let open Pipeline in
  let u = unit_of i in
  match i with
  | Mov (R d, src) ->
      cost (if op_is_mem src then 2 else 1) u (op_uses src) (one d) lor mem_flag src
  | Mov (M m, src) -> cost 1 u (append (op_uses src) (mem_uses m)) 0 lor store
  | Mov (I _, _) -> cost 1 u 0 0
  | Load (_, _, d, m) -> cost 2 u (mem_uses m) (one d) lor load
  | Store (_, m, src) -> cost 1 u (append (op_uses src) (mem_uses m)) 0 lor store
  | Alu (_, R d, src) ->
      cost (if op_is_mem src then 2 else 1) u (cons d (op_uses src)) (two d cc_id)
      lor mem_flag src
  | Alu (_, M m, src) ->
      cost 3 u (append (op_uses src) (mem_uses m)) (one cc_id) lor load lor store
  | Alu (_, I _, _) -> cost 1 u 0 0
  | Shift (_, R d, _) -> cost 1 u (one d) (two d cc_id)
  | Shift (_, M m, _) -> cost 3 u (mem_uses m) (one cc_id) lor load lor store
  | Shift (_, I _, _) -> cost 1 u 0 0
  | Shiftv (_, R d, c) -> cost 2 u (two d c) (two d cc_id)
  | Shiftv (_, M m, c) -> cost 3 u (cons c (mem_uses m)) (one cc_id) lor load lor store
  | Shiftv (_, I _, _) -> cost 1 u 0 0
  | Imul (d, src) -> cost 9 u (cons d (op_uses src)) (one d) lor mem_flag src
  | Idiv (src, _) ->
      cost 25 u (cons eax (cons edx (op_uses src))) (two eax edx) lor mem_flag src
  | Cdq -> cost 1 u (one eax) (one edx)
  | Lea (d, m) -> cost 1 u (mem_uses m) (one d)
  | Cmp (a, b) ->
      cost 1 u (append (op_uses a) (op_uses b)) (one cc_id)
      lor mem_flag a lor mem_flag b
  | Setcc (_, d) -> cost 1 u (one cc_id) (one d)
  | Jcc _ -> cost 1 u (one cc_id) 0
  | Jmp _ -> cost 1 u 0 0
  | Jmp_ind o -> cost 1 u (op_uses o) 0
  | Call (_, _) -> cost 1 u 0 (one ebp)
  | Call_ind (o, _) -> cost 1 u (op_uses o) (one ebp)
  | Fop (op, _, d, a, b) ->
      let lat =
        match op with VI.Fadd | VI.Fsub -> 3 | VI.Fmul -> 3 | VI.Fdiv -> 39
      in
      cost lat u (two (fid a) (fid b)) (one (fid d))
  | Fun1 (_, d, a) -> cost 1 u (one (fid a)) (one (fid d))
  | Fload (_, d, m) -> cost 2 u (mem_uses m) (one (fid d)) lor load
  | Fstore (_, v, m) -> cost 1 u (cons (fid v) (mem_uses m)) 0 lor store
  | Fld_pool (d, _) -> cost 2 u 0 (one (fid d)) lor load
  | Fcmp (_, a, b) -> cost 3 u (two (fid a) (fid b)) (one fcc_id)
  | Fcc_to_reg d -> cost 2 u (one fcc_id) (one d)
  | Cvt_f_i (d, src) -> cost 3 u (op_uses src) (one (fid d)) lor mem_flag src
  | Cvt_i_f (d, a) -> cost 3 u (one (fid a)) (one d)
  | Guard_data r | Guard_code r -> cost 1 u (one r) 0
  | Trapi _ -> cost 1 u 0 0
  | Hcall _ -> cost 1 u 0 (one ecx)
  | Nop -> cost 1 u 0 0

let pipeline_config : Pipeline.config =
  {
    Pipeline.issue_width = 2;
    dual_issue_rule =
      (fun a b ->
        match (a, b) with
        | Pipeline.IU, Pipeline.IU -> true
        | Pipeline.IU, Pipeline.BRU -> true
        | _ -> false);
    taken_branch_penalty = 1;
  }

(* --- printing --- *)

let string_of_mem (m : mem) =
  let parts =
    (match m.base with Some r -> [ reg_names.(r) ] | None -> [])
    @ (match m.index with
      | Some (r, s) -> [ Printf.sprintf "%s*%d" reg_names.(r) s ]
      | None -> [])
    @ if m.disp <> 0 || (m.base = None && m.index = None) then
        [ Printf.sprintf "0x%x" (m.disp land 0xFFFFFFFF) ]
      else []
  in
  "[" ^ String.concat "+" parts ^ "]"

let string_of_operand = function
  | R r -> reg_names.(r)
  | M m -> string_of_mem m
  | I v -> string_of_int v

let aluop_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"

let shop_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"

let string_of_instr (i : instr) =
  let p = Printf.sprintf in
  let o = string_of_operand in
  match i with
  | Mov (d, s) -> p "mov %s, %s" (o d) (o s)
  | Load (w, signed, d, m) ->
      let op =
        match (w, signed) with
        | VI.W32, _ -> "mov"
        | VI.W8, true -> "movsx8"
        | VI.W8, false -> "movzx8"
        | VI.W16, true -> "movsx16"
        | VI.W16, false -> "movzx16"
      in
      p "%s %s, %s" op reg_names.(d) (string_of_mem m)
  | Store (w, m, s) ->
      let sfx = match w with VI.W8 -> "b" | VI.W16 -> "w" | VI.W32 -> "" in
      p "mov%s %s, %s" sfx (string_of_mem m) (o s)
  | Alu (op, d, s) -> p "%s %s, %s" (aluop_name op) (o d) (o s)
  | Shift (op, d, k) -> p "%s %s, %d" (shop_name op) (o d) k
  | Shiftv (op, d, c) -> p "%s %s, %s" (shop_name op) (o d) reg_names.(c)
  | Imul (d, s) -> p "imul %s, %s" reg_names.(d) (o s)
  | Idiv (s, signed) -> p "%s %s" (if signed then "idiv" else "div") (o s)
  | Cdq -> "cdq"
  | Lea (d, m) -> p "lea %s, %s" reg_names.(d) (string_of_mem m)
  | Cmp (a, b) -> p "cmp %s, %s" (o a) (o b)
  | Setcc (c, d) -> p "set%s %s" (VI.cond_name c) reg_names.(d)
  | Jcc (c, l) -> p "j%s L%d" (VI.cond_name c) l
  | Jmp l -> p "jmp L%d" l
  | Jmp_ind x -> p "jmp %s" (o x)
  | Call (l, r) -> p "call L%d (ret 0x%x)" l r
  | Call_ind (x, r) -> p "call %s (ret 0x%x)" (o x) r
  | Fop (op, pr, d, a, b) ->
      p "%s.%s fp%d, fp%d, fp%d" (VI.fbinop_name op) (VI.prec_suffix pr) d a b
  | Fun1 (op, d, a) -> p "%s fp%d, fp%d" (VI.funop_name op) d a
  | Fload (_, d, m) -> p "fld fp%d, %s" d (string_of_mem m)
  | Fstore (_, v, m) -> p "fst %s, fp%d" (string_of_mem m) v
  | Fld_pool (d, i) -> p "fld fp%d, pool[%d]" d i
  | Fcmp (op, a, b) -> p "fcom.%s fp%d, fp%d" (VI.fcmp_name op) a b
  | Fcc_to_reg d -> p "fnstsw %s" reg_names.(d)
  | Cvt_f_i (d, s) -> p "fild fp%d, %s" d (o s)
  | Cvt_i_f (d, a) -> p "fistp %s, fp%d" reg_names.(d) a
  | Guard_data r -> p "guardd %s" reg_names.(r)
  | Guard_code r -> p "guardc %s" reg_names.(r)
  | Trapi n -> p "trap %d" n
  | Hcall n -> p "hcall %d" n
  | Nop -> "nop"

(* --- structural identity of translated programs (see Risc) --- *)

let equal_program (a : program) (b : program) = Stdlib.compare a b = 0

(* The fingerprint folds, a word at a time, each slot's constructor,
   operands (a memory operand's base, index, scale and displacement) and
   origin, then [entry], [addr_map], the pool floats by their bits and
   [n_omni] (see [Risc.fingerprint_program]). *)
let fingerprint_program (p : program) : Omni_util.Fnv64.t =
  let prime = Omni_util.Fnv64.word_prime in
  let[@inline] ( +> ) h v = (h lxor v) * prime in
  let alu = function Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4 in
  let sh = function Shl -> 0 | Shr -> 1 | Sar -> 2 in
  let mem h (m : mem) =
    let h = match m.base with None -> h +> 0 | Some r -> h +> 1 +> r in
    let h =
      match m.index with None -> h +> 0 | Some (r, s) -> h +> 1 +> r +> s
    in
    h +> m.disp
  in
  let opnd h = function
    | R r -> h +> 0 +> r
    | M m -> mem (h +> 1) m
    | I v -> h +> 2 +> v
  in
  let instr h = function
    | Mov (d, s) -> opnd (opnd (h +> 0) d) s
    | Load (w, s, d, m) ->
        mem (h +> 1 +> VI.store_index w +> Bool.to_int s +> d) m
    | Store (w, m, s) -> opnd (mem (h +> 2 +> VI.store_index w) m) s
    | Alu (op, d, s) -> opnd (opnd (h +> 3 +> alu op) d) s
    | Shift (op, d, k) -> opnd (h +> 4 +> sh op) d +> k
    | Shiftv (op, d, c) -> opnd (h +> 5 +> sh op) d +> c
    | Imul (d, s) -> opnd (h +> 6 +> d) s
    | Idiv (s, signed) -> opnd (h +> 7) s +> Bool.to_int signed
    | Cdq -> h +> 8
    | Lea (d, m) -> mem (h +> 9 +> d) m
    | Cmp (a, b) -> opnd (opnd (h +> 10) a) b
    | Setcc (c, d) -> h +> 11 +> VI.cond_index c +> d
    | Jcc (c, l) -> h +> 12 +> VI.cond_index c +> l
    | Jmp l -> h +> 13 +> l
    | Jmp_ind x -> opnd (h +> 14) x
    | Call (l, ret) -> h +> 15 +> l +> ret
    | Call_ind (x, ret) -> opnd (h +> 16) x +> ret
    | Fop (op, pr, d, a, b) -> h +> 17 +> VI.fop_index op pr +> d +> a +> b
    | Fun1 (op, d, a) -> h +> 18 +> VI.funop_index op +> d +> a
    | Fload (pr, d, m) -> mem (h +> 19 +> VI.prec_index pr +> d) m
    | Fstore (pr, v, m) -> mem (h +> 20 +> VI.prec_index pr +> v) m
    | Fld_pool (d, k) -> h +> 21 +> d +> k
    | Fcmp (op, a, b) -> h +> 22 +> VI.fcmp_index op +> a +> b
    | Fcc_to_reg d -> h +> 23 +> d
    | Cvt_f_i (d, s) -> opnd (h +> 24 +> d) s
    | Cvt_i_f (d, a) -> h +> 25 +> d +> a
    | Guard_data r -> h +> 26 +> r
    | Guard_code r -> h +> 27 +> r
    | Trapi n -> h +> 28 +> n
    | Hcall n -> h +> 29 +> n
    | Nop -> h +> 30
  in
  (* [for] loops, not [Array.iter]: a ref captured by a closure is boxed *)
  let h = ref (Omni_util.Fnv64.word_basis +> Array.length p.code) in
  for k = 0 to Array.length p.code - 1 do
    let s = p.code.(k) in
    h := instr !h s.i +> Machine.origin_index s.origin
  done;
  let h = Omni_util.Fnv64.fold_ints (!h +> p.entry) p.addr_map in
  Omni_util.Fnv64.of_words (Omni_util.Fnv64.fold_floats h p.pool +> p.n_omni)

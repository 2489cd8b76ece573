(* The three RISC targets (Mips / Sparc / PowerPC) share one parameterized
   machine: a 32-register load/store architecture whose per-architecture
   differences are captured in [cfg] — immediate field width, branch model
   (fused compare-and-branch vs condition codes vs condition register),
   branch delay slots and annulment, indexed addressing, issue width, and
   operation latencies.

   Register convention for translated code:
     0          hardwired zero
     1          SFI dedicated data-sandbox register
     2          SFI dedicated code-sandbox register
     3,4        data segment mask, base      (SFI constants)
     5,6        code segment mask, base      (SFI constants)
     7          global pointer (when the translator uses one)
     8..23     OmniVM r0..r15 (8 is unused: OmniVM r0 maps to native 0)
     24,25     translator scratch
   Floating point: OmniVM f0..f15 map to native f0..f15; f24 is scratch. *)

module VI = Omnivm.Instr

type arch = Mips | Sparc | Ppc

let arch_name = function Mips -> "mips" | Sparc -> "sparc" | Ppc -> "ppc"

(* How conditional branches are built. *)
type branch_model =
  | Fused_compare (* mips: beq/bne on two regs; b<cond>z against zero *)
  | Cond_codes (* sparc: subcc + branch-on-cc *)
  | Cond_reg (* ppc: cmp + branch-on-cr, compares have latency *)

type cfg = {
  arch : arch;
  imm_bits : int; (* signed immediate field width *)
  branch_model : branch_model;
  has_delay_slot : bool;
  has_annul : bool;
  has_indexed : bool; (* reg+reg addressing (ppc) *)
  issue_width : int;
  load_latency : int;
  mul_latency : int;
  div_latency : int;
  fadd_latency : int;
  fmul_latency : int;
  fdiv_latency : int;
  cmp_latency : int; (* latency of Cmp/Cmpi results (ppc: multi-cycle) *)
  fcmp_latency : int;
  taken_branch_penalty : int; (* for non-delay-slot archs *)
}

let mips_cfg =
  {
    arch = Mips;
    imm_bits = 16;
    branch_model = Fused_compare;
    has_delay_slot = true;
    has_annul = false;
    has_indexed = false;
    issue_width = 1;
    load_latency = 2; (* R4400 superpipelined load-use delay *)
    mul_latency = 4;
    div_latency = 36;
    fadd_latency = 4;
    fmul_latency = 5;
    fdiv_latency = 24;
    cmp_latency = 1;
    fcmp_latency = 2;
    taken_branch_penalty = 0;
  }

let sparc_cfg =
  {
    arch = Sparc;
    imm_bits = 13;
    branch_model = Cond_codes;
    has_delay_slot = true;
    has_annul = true;
    has_indexed = false;
    issue_width = 1;
    load_latency = 2;
    mul_latency = 5;
    div_latency = 36;
    fadd_latency = 3;
    fmul_latency = 3;
    fdiv_latency = 20;
    cmp_latency = 1;
    fcmp_latency = 2;
    taken_branch_penalty = 0;
  }

let ppc_cfg =
  {
    arch = Ppc;
    imm_bits = 16;
    branch_model = Cond_reg;
    has_delay_slot = false;
    has_annul = false;
    has_indexed = true;
    issue_width = 2;
    load_latency = 2;
    mul_latency = 5;
    div_latency = 36;
    fadd_latency = 3;
    fmul_latency = 3;
    fdiv_latency = 31;
    cmp_latency = 3; (* 601 compares are multi-cycle; the paper calls this out *)
    fcmp_latency = 3;
    taken_branch_penalty = 1;
  }

let cfg_of_arch = function
  | Mips -> mips_cfg
  | Sparc -> sparc_cfg
  | Ppc -> ppc_cfg

(* --- registers --- *)

let r_zero = 0
let r_sfi_data = 1
let r_sfi_code = 2
let r_data_mask = 3
let r_data_base = 4
let r_code_mask = 5
let r_code_base = 6
let r_gp = 7
let r_scratch1 = 24
let r_scratch2 = 25
let f_scratch = 24

(* OmniVM integer register -> native register *)
let map_reg r = if r = 0 then 0 else 8 + r
let omni_ra = map_reg Omnivm.Reg.ra
let omni_sp = map_reg Omnivm.Reg.sp

(* --- instructions --- *)

type instr =
  | Alu of VI.binop * int * int * int (* rd, ra, rb *)
  | Alui of VI.binop * int * int * int (* rd, ra, imm (fits field) *)
  | Alu_record of VI.binop * int * int * int
      (* ppc record form: like Alu, and sets cc to (result ? 0) *)
  | Lui of int * int (* rd := high part (value stored pre-shifted) *)
  | Load of VI.mem_width * bool * int * int * int (* rd, base, disp *)
  | Store of VI.mem_width * int * int * int (* rv, base, disp *)
  | Load_x of VI.mem_width * bool * int * int * int (* rd, ra, rb (ppc) *)
  | Store_x of VI.mem_width * int * int * int
  | Fload of int * int * int (* fd, base, disp : double *)
  | Fstore of int * int * int
  | Fload_s of int * int * int (* single precision *)
  | Fstore_s of int * int * int
  | Fload_x of int * int * int
  | Fstore_x of int * int * int
  | Fld_pool of int * int (* fd := constant pool[i] *)
  | Fop of VI.fbinop * VI.fprec * int * int * int
  | Fun1 of VI.funop * int * int
  | Fcmp of VI.fcmp * int * int (* sets fcc *)
  | Fcc_to_reg of int (* rd := fcc ? 1 : 0 *)
  | Cvt_f_i of int * int (* fd := (double) ra *)
  | Cvt_i_f of int * int (* rd := (int) fa *)
  | Cvt_d_s of int * int
  | Cvt_s_d of int * int
  | Cmp of int * int (* cc := (ra, rb) *)
  | Cmpi of int * int (* cc := (ra, imm) *)
  | Br_cc of VI.cond * int (* branch on condition codes *)
  | Br_cmp of VI.cond * int * int * int (* fused: cond, ra, rb, label *)
  | Fbr of bool * int (* branch if fcc = flag *)
  | J of int (* unconditional, label *)
  | Call of int * int (* label, omni return address (written to ra) *)
  | Call_ind of int * int (* target reg, omni return address *)
  | Jmp_ind of int (* indirect jump through reg (omni code address) *)
  | Guard_data of int (* trap unless reg points into the data segment *)
  | Guard_code of int
  | Cc_to_reg of VI.cond * int (* rd := cc satisfies cond ? 1 : 0 *)
  | Trapi of int
  | Hcall of int
  | Nop

(* One slot of translated code: instruction + provenance + (for delay-slot
   architectures) the annul flag on branches. *)
type slot = { i : instr; origin : Machine.origin; annul : bool }

let mk ?(annul = false) origin i = { i; origin; annul }

type program = {
  cfg : cfg;
  code : slot array;
  entry : int; (* native index *)
  addr_map : int array; (* omni instruction index -> native index *)
  pool : float array; (* FP constant pool *)
  n_omni : int;
  decl : Machine.sfi_decl; (* declared SFI masking counts (certification) *)
}

let is_control = function
  | Br_cc _ | Br_cmp _ | Fbr _ | J _ | Call _ | Call_ind _ | Jmp_ind _ -> true
  | Alu _ | Alui _ | Alu_record _ | Lui _ | Load _ | Store _ | Load_x _
  | Store_x _ | Fload _ | Fstore _ | Fload_s _ | Fstore_s _ | Fload_x _
  | Fstore_x _ | Fld_pool _ | Fop _ | Fun1 _ | Fcmp _ | Fcc_to_reg _
  | Cvt_f_i _ | Cvt_i_f _ | Cvt_d_s _ | Cvt_s_d _ | Cmp _ | Cmpi _
  | Guard_data _ | Guard_code _ | Cc_to_reg _ | Trapi _ | Hcall _ | Nop ->
      false

(* --- pipeline attributes --- *)

let fid f = 32 + f
let cc_id = 64
let fcc_id = 65

let alu_latency cfg = function
  | VI.Mul -> cfg.mul_latency
  | VI.Div | VI.Divu | VI.Rem | VI.Remu -> cfg.div_latency
  | _ -> 1

let cost_of cfg (i : instr) : Pipeline.cost =
  let open Pipeline in
  match i with
  | Alu (op, rd, ra, rb) -> cost (alu_latency cfg op) IU (two ra rb) (one rd)
  | Alui (op, rd, ra, _) -> cost (alu_latency cfg op) IU (one ra) (one rd)
  | Alu_record (op, rd, ra, rb) ->
      cost (alu_latency cfg op) IU (two ra rb) (two rd cc_id)
  | Lui (rd, _) -> cost 1 IU 0 (one rd)
  | Load (_, _, rd, b, _) -> cost cfg.load_latency IU (one b) (one rd) lor load
  | Load_x (_, _, rd, a, b) ->
      cost cfg.load_latency IU (two a b) (one rd) lor load
  | Store (_, rv, b, _) -> cost 1 IU (two rv b) 0 lor store
  | Store_x (_, rv, a, b) -> cost 1 IU (three rv a b) 0 lor store
  | Fload (fd, b, _) | Fload_s (fd, b, _) ->
      cost cfg.load_latency IU (one b) (one (fid fd)) lor load
  | Fload_x (fd, a, b) ->
      cost cfg.load_latency IU (two a b) (one (fid fd)) lor load
  | Fstore (fv, b, _) | Fstore_s (fv, b, _) ->
      cost 1 IU (two (fid fv) b) 0 lor store
  | Fstore_x (fv, a, b) -> cost 1 IU (three (fid fv) a b) 0 lor store
  | Fld_pool (fd, _) -> cost cfg.load_latency IU 0 (one (fid fd)) lor load
  | Fop (op, _, fd, fa, fb) ->
      let lat =
        match op with
        | VI.Fadd | VI.Fsub -> cfg.fadd_latency
        | VI.Fmul -> cfg.fmul_latency
        | VI.Fdiv -> cfg.fdiv_latency
      in
      cost lat FPU (two (fid fa) (fid fb)) (one (fid fd))
  | Fun1 (_, fd, fa) -> cost 1 FPU (one (fid fa)) (one (fid fd))
  | Fcmp (_, fa, fb) ->
      cost cfg.fcmp_latency FPU (two (fid fa) (fid fb)) (one fcc_id)
  | Fcc_to_reg rd -> cost 1 IU (one fcc_id) (one rd)
  | Cvt_f_i (fd, ra) -> cost 3 FPU (one ra) (one (fid fd))
  | Cvt_i_f (rd, fa) -> cost 3 FPU (one (fid fa)) (one rd)
  | Cvt_d_s (fd, fa) | Cvt_s_d (fd, fa) -> cost 2 FPU (one (fid fa)) (one (fid fd))
  | Cmp (a, b) -> cost cfg.cmp_latency IU (two a b) (one cc_id)
  | Cmpi (a, _) -> cost cfg.cmp_latency IU (one a) (one cc_id)
  | Br_cc (_, _) -> cost 1 BRU (one cc_id) 0
  | Br_cmp (_, a, b, _) -> cost 1 BRU (two a b) 0
  | Fbr (_, _) -> cost 1 BRU (one fcc_id) 0
  | J _ -> cost 1 BRU 0 0
  | Call (_, _) -> cost 1 BRU 0 (one omni_ra)
  | Call_ind (r, _) -> cost 1 BRU (one r) (one omni_ra)
  | Jmp_ind r -> cost 1 BRU (one r) 0
  | Guard_data r | Guard_code r -> cost 1 IU (one r) 0
  | Cc_to_reg (_, rd) -> cost 1 IU (one cc_id) (one rd)
  | Trapi _ -> cost 1 IU 0 0
  | Hcall _ -> cost 1 IU 0 (one (map_reg 1))
  | Nop -> cost 1 IU 0 0

let pipeline_config cfg : Pipeline.config =
  {
    Pipeline.issue_width = cfg.issue_width;
    dual_issue_rule =
      (fun a b ->
        match (a, b) with
        | Pipeline.IU, Pipeline.FPU | Pipeline.FPU, Pipeline.IU -> true
        | Pipeline.IU, Pipeline.BRU | Pipeline.FPU, Pipeline.BRU -> true
        | _ -> false);
    taken_branch_penalty = cfg.taken_branch_penalty;
  }

(* --- printing (debugging / golden tests) --- *)

let rn r =
  if r = 0 then "zero"
  else if r = r_sfi_data then "sd"
  else if r = r_sfi_code then "sc"
  else if r = r_data_mask then "dm"
  else if r = r_data_base then "db"
  else if r = r_code_mask then "cm"
  else if r = r_code_base then "cb"
  else if r = r_gp then "gp"
  else if r >= 8 && r <= 23 then Printf.sprintf "o%d" (r - 8)
  else Printf.sprintf "t%d" r

let fn f = Printf.sprintf "f%d" f

let string_of_instr (i : instr) =
  let p = Printf.sprintf in
  match i with
  | Alu (op, rd, ra, rb) -> p "%s %s, %s, %s" (VI.binop_name op) (rn rd) (rn ra) (rn rb)
  | Alui (op, rd, ra, imm) -> p "%si %s, %s, %d" (VI.binop_name op) (rn rd) (rn ra) imm
  | Alu_record (op, rd, ra, rb) ->
      p "%s. %s, %s, %s" (VI.binop_name op) (rn rd) (rn ra) (rn rb)
  | Lui (rd, v) -> p "lui %s, %d" (rn rd) v
  | Load (w, s, rd, b, d) -> p "%s %s, %d(%s)" (VI.load_name w s) (rn rd) d (rn b)
  | Store (w, rv, b, d) -> p "%s %s, %d(%s)" (VI.store_name w) (rn rv) d (rn b)
  | Load_x (w, s, rd, a, b) ->
      p "%sx %s, %s(%s)" (VI.load_name w s) (rn rd) (rn a) (rn b)
  | Store_x (w, rv, a, b) -> p "%sx %s, %s(%s)" (VI.store_name w) (rn rv) (rn a) (rn b)
  | Fload (fd, b, d) -> p "fld %s, %d(%s)" (fn fd) d (rn b)
  | Fstore (fv, b, d) -> p "fsd %s, %d(%s)" (fn fv) d (rn b)
  | Fload_s (fd, b, d) -> p "fls %s, %d(%s)" (fn fd) d (rn b)
  | Fstore_s (fv, b, d) -> p "fss %s, %d(%s)" (fn fv) d (rn b)
  | Fload_x (fd, a, b) -> p "fldx %s, %s(%s)" (fn fd) (rn a) (rn b)
  | Fstore_x (fv, a, b) -> p "fsdx %s, %s(%s)" (fn fv) (rn a) (rn b)
  | Fld_pool (fd, i) -> p "fldc %s, pool[%d]" (fn fd) i
  | Fop (op, pr, fd, fa, fb) ->
      p "%s.%s %s, %s, %s" (VI.fbinop_name op) (VI.prec_suffix pr) (fn fd)
        (fn fa) (fn fb)
  | Fun1 (op, fd, fa) -> p "%s %s, %s" (VI.funop_name op) (fn fd) (fn fa)
  | Fcmp (op, fa, fb) -> p "%s %s, %s" (VI.fcmp_name op) (fn fa) (fn fb)
  | Fcc_to_reg rd -> p "mffcc %s" (rn rd)
  | Cvt_f_i (fd, ra) -> p "cvt.d.w %s, %s" (fn fd) (rn ra)
  | Cvt_i_f (rd, fa) -> p "cvt.w.d %s, %s" (rn rd) (fn fa)
  | Cvt_d_s (fd, fa) -> p "cvt.d.s %s, %s" (fn fd) (fn fa)
  | Cvt_s_d (fd, fa) -> p "cvt.s.d %s, %s" (fn fd) (fn fa)
  | Cmp (a, b) -> p "cmp %s, %s" (rn a) (rn b)
  | Cmpi (a, i) -> p "cmpi %s, %d" (rn a) i
  | Br_cc (c, l) -> p "b%s L%d" (VI.cond_name c) l
  | Br_cmp (c, a, b, l) -> p "b%s %s, %s, L%d" (VI.cond_name c) (rn a) (rn b) l
  | Fbr (f, l) -> p "fb%s L%d" (if f then "t" else "f") l
  | J l -> p "j L%d" l
  | Call (l, ret) -> p "call L%d (ret 0x%x)" l ret
  | Call_ind (r, ret) -> p "callr %s (ret 0x%x)" (rn r) ret
  | Jmp_ind r -> p "jr %s" (rn r)
  | Guard_data r -> p "guardd %s" (rn r)
  | Guard_code r -> p "guardc %s" (rn r)
  | Cc_to_reg (c, rd) -> p "set%s %s" (VI.cond_name c) (rn rd)
  | Trapi n -> p "trap %d" n
  | Hcall n -> p "hcall %d" n
  | Nop -> "nop"

(* --- structural identity of translated programs ---

   Translation is a pure function of (exe, cfg, mode, opts), so two
   translations of the same inputs are structurally equal. The serving
   layer relies on this to state its cache invariant: a cached program is
   observationally identical to a fresh translation. [Stdlib.compare]
   rather than [(=)] so NaN pool constants compare equal to themselves. *)

let equal_program (a : program) (b : program) = Stdlib.compare a b = 0

(* The fingerprint folds, a word at a time, every field that makes up
   the program: [cfg], each slot's constructor, operands, origin and
   annul flag, [entry], [addr_map], the pool floats by their bits (so
   0.0 and -0.0, and NaN payloads, stay apart) and [n_omni]. [decl]
   describes the code rather than being part of it; certification
   cross-checks it. *)
let fingerprint_program (p : program) : Omni_util.Fnv64.t =
  let prime = Omni_util.Fnv64.word_prime in
  let[@inline] ( +> ) h v = (h lxor v) * prime in
  let w = VI.store_index and b = Bool.to_int in
  let instr h = function
    | Alu (op, rd, ra, rb) -> h +> 0 +> VI.binop_index op +> rd +> ra +> rb
    | Alui (op, rd, ra, k) -> h +> 1 +> VI.binop_index op +> rd +> ra +> k
    | Alu_record (op, rd, ra, rb) ->
        h +> 2 +> VI.binop_index op +> rd +> ra +> rb
    | Lui (rd, v) -> h +> 3 +> rd +> v
    | Load (wd, s, rd, base, d) -> h +> 4 +> w wd +> b s +> rd +> base +> d
    | Store (wd, rv, base, d) -> h +> 5 +> w wd +> rv +> base +> d
    | Load_x (wd, s, rd, ra, rb) -> h +> 6 +> w wd +> b s +> rd +> ra +> rb
    | Store_x (wd, rv, ra, rb) -> h +> 7 +> w wd +> rv +> ra +> rb
    | Fload (fd, base, d) -> h +> 8 +> fd +> base +> d
    | Fstore (fv, base, d) -> h +> 9 +> fv +> base +> d
    | Fload_s (fd, base, d) -> h +> 10 +> fd +> base +> d
    | Fstore_s (fv, base, d) -> h +> 11 +> fv +> base +> d
    | Fload_x (fd, ra, rb) -> h +> 12 +> fd +> ra +> rb
    | Fstore_x (fv, ra, rb) -> h +> 13 +> fv +> ra +> rb
    | Fld_pool (fd, k) -> h +> 14 +> fd +> k
    | Fop (op, pr, fd, fa, fb) -> h +> 15 +> VI.fop_index op pr +> fd +> fa +> fb
    | Fun1 (op, fd, fa) -> h +> 16 +> VI.funop_index op +> fd +> fa
    | Fcmp (op, fa, fb) -> h +> 17 +> VI.fcmp_index op +> fa +> fb
    | Fcc_to_reg rd -> h +> 18 +> rd
    | Cvt_f_i (fd, ra) -> h +> 19 +> fd +> ra
    | Cvt_i_f (rd, fa) -> h +> 20 +> rd +> fa
    | Cvt_d_s (fd, fa) -> h +> 21 +> fd +> fa
    | Cvt_s_d (fd, fa) -> h +> 22 +> fd +> fa
    | Cmp (ra, rb) -> h +> 23 +> ra +> rb
    | Cmpi (ra, k) -> h +> 24 +> ra +> k
    | Br_cc (c, l) -> h +> 25 +> VI.cond_index c +> l
    | Br_cmp (c, ra, rb, l) -> h +> 26 +> VI.cond_index c +> ra +> rb +> l
    | Fbr (f, l) -> h +> 27 +> b f +> l
    | J l -> h +> 28 +> l
    | Call (l, ret) -> h +> 29 +> l +> ret
    | Call_ind (r, ret) -> h +> 30 +> r +> ret
    | Jmp_ind r -> h +> 31 +> r
    | Guard_data r -> h +> 32 +> r
    | Guard_code r -> h +> 33 +> r
    | Cc_to_reg (c, rd) -> h +> 34 +> VI.cond_index c +> rd
    | Trapi n -> h +> 35 +> n
    | Hcall n -> h +> 36 +> n
    | Nop -> h +> 37
  in
  let c = p.cfg in
  let h =
    Omni_util.Fnv64.word_basis
    +> (match c.arch with Mips -> 0 | Sparc -> 1 | Ppc -> 2)
    +> c.imm_bits
    +> (match c.branch_model with
       | Fused_compare -> 0
       | Cond_codes -> 1
       | Cond_reg -> 2)
    +> b c.has_delay_slot +> b c.has_annul +> b c.has_indexed
    +> c.issue_width +> c.load_latency +> c.mul_latency +> c.div_latency
    +> c.fadd_latency +> c.fmul_latency +> c.fdiv_latency +> c.cmp_latency
    +> c.fcmp_latency +> c.taken_branch_penalty
  in
  (* [for] loops, not [Array.iter]: a ref captured by a closure is boxed *)
  let h = ref (h +> Array.length p.code) in
  for k = 0 to Array.length p.code - 1 do
    let s = p.code.(k) in
    h := instr !h s.i +> Machine.origin_index s.origin +> b s.annul
  done;
  let h = Omni_util.Fnv64.fold_ints (!h +> p.entry) p.addr_map in
  Omni_util.Fnv64.of_words (Omni_util.Fnv64.fold_floats h p.pool +> p.n_omni)

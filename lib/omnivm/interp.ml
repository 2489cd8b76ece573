(* Reference interpreter for linked OmniVM executables.

   This is the semantic baseline every translator must agree with: the
   differential test suite runs each program here and on all four target
   simulators and requires identical observable behaviour.

   The interpreter is given a host-call handler (the runtime environment);
   it knows nothing about what the host exports beyond the calling
   convention. *)

module W = Omni_util.Word32

type t = {
  iregs : int array; (* 16, canonical Word32 values; r0 pinned to 0 *)
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

let get_reg t r = if r = Reg.zero then 0 else t.iregs.(r)
let set_reg t r v = if r <> Reg.zero then t.iregs.(r) <- W.of_int v
let get_freg t r = t.fregs.(r)
let set_freg t r v = t.fregs.(r) <- v

let create (exe : Exe.t) mem =
  let t =
    {
      iregs = Array.make 16 0;
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

let round_single f = Int32.float_of_bits (Int32.bits_of_float f)

let apply_fbinop op prec a b =
  let v =
    match op with
    | Instr.Fadd -> a +. b
    | Instr.Fsub -> a -. b
    | Instr.Fmul -> a *. b
    | Instr.Fdiv -> a /. b
  in
  match prec with Instr.Single -> round_single v | Instr.Double -> v

let apply_funop op prec a =
  let v =
    match op with
    | Instr.Fneg -> -.a
    | Instr.Fabs -> Float.abs a
    | Instr.Fmov -> a
  in
  match prec with Instr.Single -> round_single v | Instr.Double -> v

let apply_fcmp op a b =
  let r =
    match op with
    | Instr.Feq -> a = b
    | Instr.Flt -> a < b
    | Instr.Fle -> a <= b
  in
  if r then 1 else 0

let ext_field v pos len =
  if pos < 0 || len <= 0 || pos + len > 4 then
    raise (Fault.Vm_fault (Illegal_instruction { pc = 0 }));
  let mask = (1 lsl (8 * len)) - 1 in
  (W.to_unsigned v lsr (8 * pos)) land mask

let ins_field dst src pos len =
  if pos < 0 || len <= 0 || pos + len > 4 then
    raise (Fault.Vm_fault (Illegal_instruction { pc = 0 }));
  let mask = (1 lsl (8 * len)) - 1 in
  let cleared = W.to_unsigned dst land lnot (mask lsl (8 * pos)) in
  W.of_int (cleared lor ((W.to_unsigned src land mask) lsl (8 * pos)))

(* [Exe.index_of_addr] in line, with the text's bounds, building no
   option: a transfer of control allocates nothing. *)
let jump_index t addr =
  let off = addr - Layout.code_base in
  if off >= 0 && off land 3 = 0 && off < Exe.instr_size * Array.length t.text
  then off / Exe.instr_size
  else raise (Fault.Vm_fault (Access_violation { addr; access = Execute }))

(* Execute one instruction; updates pc. *)
let step host t =
  if t.pc < 0 || t.pc >= Array.length t.text then
    raise
      (Fault.Vm_fault (Access_violation { addr = Exe.code_addr t.pc; access = Execute }));
  let i = Array.unsafe_get t.text t.pc in
  let next = t.pc + 1 in
  t.icount <- t.icount + 1;
  (match i with
  | Instr.Binop (op, rd, rs1, rs2) ->
      set_reg t rd (Instr.eval_binop op (get_reg t rs1) (get_reg t rs2));
      t.pc <- next
  | Instr.Binopi (op, rd, rs1, imm) ->
      set_reg t rd (Instr.eval_binop op (get_reg t rs1) (W.of_int imm));
      t.pc <- next
  | Instr.Li (rd, imm) ->
      set_reg t rd (W.of_int imm);
      t.pc <- next
  | Instr.Load (w, signed, rd, base, off) ->
      let addr = W.to_unsigned (W.add (get_reg t base) (W.of_int off)) in
      let v =
        match (w, signed) with
        | Instr.W8, false -> Memory.load8 t.mem addr
        | Instr.W8, true -> W.sext8 (Memory.load8 t.mem addr)
        | Instr.W16, false -> Memory.load16 t.mem addr
        | Instr.W16, true -> W.sext16 (Memory.load16 t.mem addr)
        | Instr.W32, _ -> Memory.load32 t.mem addr
      in
      set_reg t rd v;
      t.pc <- next
  | Instr.Store (w, rv, base, off) ->
      let addr = W.to_unsigned (W.add (get_reg t base) (W.of_int off)) in
      let v = get_reg t rv in
      (match w with
      | Instr.W8 -> Memory.store8 t.mem addr v
      | Instr.W16 -> Memory.store16 t.mem addr v
      | Instr.W32 -> Memory.store32 t.mem addr v);
      t.pc <- next
  | Instr.Fload (prec, fd, base, off) ->
      let addr = W.to_unsigned (W.add (get_reg t base) (W.of_int off)) in
      let v =
        match prec with
        | Instr.Single -> Memory.load_single t.mem addr
        | Instr.Double -> Memory.load_float t.mem addr
      in
      set_freg t fd v;
      t.pc <- next
  | Instr.Fstore (prec, fv, base, off) ->
      let addr = W.to_unsigned (W.add (get_reg t base) (W.of_int off)) in
      (match prec with
      | Instr.Single -> Memory.store_single t.mem addr (get_freg t fv)
      | Instr.Double -> Memory.store_float t.mem addr (get_freg t fv));
      t.pc <- next
  | Instr.Fbinop (op, prec, fd, fs1, fs2) ->
      set_freg t fd (apply_fbinop op prec (get_freg t fs1) (get_freg t fs2));
      t.pc <- next
  | Instr.Funop (op, prec, fd, fs) ->
      set_freg t fd (apply_funop op prec (get_freg t fs));
      t.pc <- next
  | Instr.Fcmp (op, _prec, rd, fs1, fs2) ->
      set_reg t rd (apply_fcmp op (get_freg t fs1) (get_freg t fs2));
      t.pc <- next
  | Instr.Fli (prec, fd, v) ->
      set_freg t fd
        (match prec with Instr.Single -> round_single v | Instr.Double -> v);
      t.pc <- next
  | Instr.Cvt_f_i (prec, fd, rs) ->
      let v = float_of_int (get_reg t rs) in
      set_freg t fd
        (match prec with Instr.Single -> round_single v | Instr.Double -> v);
      t.pc <- next
  | Instr.Cvt_i_f (_prec, rd, fs) ->
      let f = get_freg t fs in
      let v =
        if Float.is_nan f then 0
        else if f >= 2147483648.0 then W.max_int32
        else if f <= -2147483649.0 then W.min_int32
        else W.of_int (int_of_float f)
      in
      set_reg t rd v;
      t.pc <- next
  | Instr.Cvt_d_s (fd, fs) ->
      set_freg t fd (round_single (get_freg t fs));
      t.pc <- next
  | Instr.Cvt_s_d (fd, fs) ->
      set_freg t fd (round_single (get_freg t fs));
      t.pc <- next
  | Instr.Br (c, rs1, rs2, l) ->
      if Instr.eval_cond c (get_reg t rs1) (get_reg t rs2) then
        t.pc <- jump_index t l
      else t.pc <- next
  | Instr.Bri (c, rs1, imm, l) ->
      if Instr.eval_cond c (get_reg t rs1) (W.of_int imm) then
        t.pc <- jump_index t l
      else t.pc <- next
  | Instr.J l -> t.pc <- jump_index t l
  | Instr.Jal l ->
      set_reg t Reg.ra (Exe.code_addr next);
      t.pc <- jump_index t l
  | Instr.Jr rs -> t.pc <- jump_index t (W.to_unsigned (get_reg t rs))
  | Instr.Jalr (rd, rs) ->
      let target = jump_index t (W.to_unsigned (get_reg t rs)) in
      set_reg t rd (Exe.code_addr next);
      t.pc <- target
  | Instr.Ext (rd, rs, pos, len) ->
      set_reg t rd (ext_field (get_reg t rs) pos len);
      t.pc <- next
  | Instr.Ins (rd, rs, pos, len) ->
      set_reg t rd (ins_field (get_reg t rd) (get_reg t rs) pos len);
      t.pc <- next
  | Instr.Hcall n -> (
      t.pc <- next;
      match host.on_hcall t n with
      | Continue -> ()
      | Exit code -> t.exited <- Some code)
  | Instr.Trap n -> raise (Fault.Vm_fault (Explicit_trap n))
  | Instr.Nop -> t.pc <- next)

(* Deliver a VM fault to the module's registered handler, or re-raise if
   none. The handler is cleared on delivery to avoid fault loops; the module
   may re-register it. *)
let deliver_fault t fault =
  if t.handler = 0 then raise (Fault.Vm_fault fault)
  else begin
    let h = t.handler in
    t.handler <- 0;
    set_reg t (Reg.arg 0) (Fault.code fault);
    t.pc <- jump_index t h
  end

type outcome = Exited of int | Faulted of Fault.t | Out_of_fuel

let run ?(fuel = max_int) ?watchdog host t =
  (* Watchdog polling is a countdown, not a clock read per instruction:
     one decrement-and-test on the hot path, the clock touched only every
     [poll_every] instructions. [check] raises [Deadline_exceeded], which
     then flows through [deliver_fault] like any other fault. *)
  let poll =
    match watchdog with
    | None -> fun () -> ()
    | Some w ->
        let every = Watchdog.poll_every w in
        let left = ref every in
        fun () ->
          decr left;
          if !left <= 0 then begin
            left := every;
            Watchdog.check w
          end
  in
  let rec go fuel =
    if fuel <= 0 then Out_of_fuel
    else
      match t.exited with
      | Some code -> Exited code
      | None -> (
          match
            poll ();
            step host t
          with
          | () -> go (fuel - 1)
          | exception Fault.Vm_fault f -> (
              match deliver_fault t f with
              | () -> go (fuel - 1)
              | exception Fault.Vm_fault f -> Faulted f)
          | exception W.Division_by_zero -> (
              match deliver_fault t Fault.Division_by_zero with
              | () -> go (fuel - 1)
              | exception Fault.Vm_fault f -> Faulted f))
  in
  go fuel

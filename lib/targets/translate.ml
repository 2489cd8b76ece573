(* The target-independent half of load-time translation, shared by
   Risc_translate and X86_translate: how an OmniVM module is cut into
   basic blocks, how each block's native slots are laid out, and how
   OmniVM instruction indices map to native slot indices.

   A translator supplies its half as [hooks] (the way [Sched.info] gives
   the scheduler a slot's cost): the translation of one OmniVM instruction
   into an [emitter], and the per-block passes it runs. [run]
   translates every instruction into its own chunk, threading the
   constant pool through them; groups the chunks into blocks at the
   [leaders]; runs each block's peephole pass, schedule and delay-slot
   filling; and patches every branch label, an OmniVM instruction index
   while the chunks are built, to the native index of its block.

   A mode's SFI policy is read once, into the emitter, as
   [Machine.sfi_policy]: a native baseline translates under
   [Omni_sfi.Policy.off]. *)

module VI = Omnivm.Instr
module Policy = Omni_sfi.Policy
module Trace = Omni_obs.Trace

(* A module the translators cannot translate: a static label or the entry
   names no instruction of the text. *)
exception Translate_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Translate_error s)) fmt

(* --- the emitter --- *)

(* What one OmniVM instruction's translation is emitted into. One emitter
   serves a whole translation; [run] empties [slots] before each
   instruction. *)
type 'a emitter = {
  mutable slots : 'a list; (* this instruction's chunk, reversed *)
  mutable pool : float list; (* reversed *)
  mutable pool_n : int;
  n_omni : int; (* instructions in the text *)
  policy : Policy.t;
  decl : Machine.sfi_decl; (* masking counts *)
  tally : Trace.tally;
}

let push e s = e.slots <- s :: e.slots

let sfi_mode e = e.policy.Policy.mode

(* Declare one data- or code-segment masking sequence (see
   [Machine.sfi_decl]). *)
let declare_data_mask e =
  e.decl.Machine.data_masks <- e.decl.Machine.data_masks + 1

let declare_code_mask e =
  e.decl.Machine.code_masks <- e.decl.Machine.code_masks + 1

(* The constant pool's index of [v], added if new. The pool is small, so
   sharing is found by linear search. *)
let pool_const e v =
  let rec find i = function
    | [] ->
        e.pool <- v :: e.pool;
        e.pool_n <- e.pool_n + 1;
        e.pool_n - 1
    | x :: rest ->
        if Float.equal x v then e.pool_n - 1 - i else find (i + 1) rest
  in
  find 0 e.pool

(* Displacements below this bound stay in the guard zone: they need no
   check from a sandboxed base. Widened under [Pad_guard8]. *)
let guard_zone e = Policy.guard_zone e.policy

(* Padding of the sandboxing sequence (the instruction-padding paper's
   knob): [nop ()] is the target's padding slot. Called between the
   mask/box pair and the protected memory op; never used on the sp
   re-sandboxing triple, which the verifiers recognize by adjacency. *)
let emit_pad e nop =
  match e.policy.Policy.pad with
  | Policy.Pad_none | Policy.Pad_guard8 -> ()
  | Policy.Pad_nop -> push e (nop ())
  | Policy.Pad_align ->
      (* pad so the protected op lands on an even slot of this chunk *)
      if List.length e.slots land 1 = 1 then push e (nop ())

(* A store or load at [base]+[disp] that needs no check: sp-relative
   within the guard zone, or a constant data-segment address ([base] 0).
   [sp] is the stack pointer's register in the target's numbering. *)
let statically_safe e ~sp base disp =
  (base = sp && disp >= 0 && disp < guard_zone e)
  || (base = 0 && Omnivm.Layout.in_data disp)

(* Does a store at [base]+[disp] go without a check? Under SFI a
   statically safe store is an elided check, counted here once for every
   target (RISC's guard-zone reuse under [sfi_opt] counts as well, where
   it happens). *)
let unchecked_store e ~sp base disp =
  sfi_mode e = Policy.Off
  || statically_safe e ~sp base disp
     && (Trace.tally_count e.tally "translate.sfi_checks_elided";
         true)

(* Does [ins] write sp with a value that may leave the data segment, so
   the translation must re-sandbox sp after it? A small constant step
   from sp itself stays in the guard zone. *)
let unsafe_sp_write e (ins : int VI.t) =
  let sp = Omnivm.Reg.sp in
  match ins with
  | VI.Binopi ((VI.Add | VI.Sub), rd, rs, imm)
    when rd = sp && rs = sp && abs imm < guard_zone e ->
      false
  | VI.Binop (_, rd, _, _) | VI.Binopi (_, rd, _, _) | VI.Li (rd, _)
  | VI.Load (_, _, rd, _, _) | VI.Ext (rd, _, _, _) | VI.Ins (rd, _, _, _)
  | VI.Cvt_i_f (_, rd, _) | VI.Fcmp (_, _, rd, _, _) | VI.Jalr (rd, _) ->
      rd = sp
  | _ -> false

(* A branch label: the OmniVM instruction index of code address [addr],
   patched to a native index once the blocks are laid out. *)
let label e addr =
  match Omnivm.Exe.index_of_addr addr with
  | Some i when i < e.n_omni -> i
  | _ -> error "label 0x%x is not an instruction of the text" addr

(* --- blocks --- *)

(* Block leaders: the first instruction, the entry, every symbol, every
   label, and every instruction after a transfer of control. *)
let leaders (exe : Omnivm.Exe.t) : bool array =
  let n = Array.length exe.Omnivm.Exe.text in
  let lead = Array.make n false in
  let mark addr =
    match Omnivm.Exe.index_of_addr addr with
    | Some i when i < n -> lead.(i) <- true
    | _ -> ()
  in
  if n > 0 then lead.(0) <- true;
  mark exe.Omnivm.Exe.entry;
  List.iter (fun (_, addr) -> mark addr) exe.Omnivm.Exe.symbols;
  Array.iteri
    (fun i ins ->
      (match VI.label ins with Some addr -> mark addr | None -> ());
      match ins with
      | VI.Br _ | VI.Bri _ | VI.J _ | VI.Jal _ | VI.Jr _ | VI.Jalr _
      | VI.Trap _ ->
          if i + 1 < n then lead.(i + 1) <- true
      | _ -> ())
    exe.Omnivm.Exe.text;
  lead

(* A target's half of translation, over its slot type ['a]. *)
type 'a hooks = {
  translate_instr : 'a emitter -> idx:int -> int VI.t -> unit;
      (* the chunk of OmniVM instruction [idx], branch labels from [label] *)
  at_leader : unit -> unit; (* before a block's first instruction *)
  is_control : 'a -> bool; (* ends a block: split off before scheduling *)
  placeholder : 'a; (* a static slot to seed arrays with *)
  sched_info : 'a Sched.info;
  peephole : ('a list -> 'a list) option; (* the block pass, if any *)
  schedules : 'a array -> bool; (* whether a block body is scheduled *)
  delay_nop : (unit -> 'a) option;
      (* on a delay-slot target, the slot for a delay slot left empty *)
  map_label : (int -> int) -> 'a -> 'a; (* apply to a slot's label, if any *)
}

(* The native program, less what only the target knows. *)
type 'a native = {
  code : 'a array;
  entry : int; (* native index *)
  addr_map : int array; (* omni index -> native index of its block, or -1 *)
  pool : float array;
  decl : Machine.sfi_decl;
}

let run h ~(mode : Machine.mode) ~(opts : Machine.topts) (exe : Omnivm.Exe.t)
    : 'a native =
  let text = exe.Omnivm.Exe.text in
  let n = Array.length text in
  let lead = leaders exe in
  let tally = Trace.tally () in
  let e =
    { slots = []; pool = []; pool_n = 0; n_omni = n;
      policy = Machine.sfi_policy mode; decl = Machine.new_sfi_decl ();
      tally }
  in
  (* chunk per omni instruction; the constant pool threads through *)
  let chunks = Array.make n [] in
  for i = 0 to n - 1 do
    if lead.(i) then h.at_leader ();
    e.slots <- [];
    h.translate_instr e ~idx:i text.(i);
    chunks.(i) <- List.rev e.slots
  done;
  (* group into blocks of omni indices; the downward scan leaves them in
     ascending order *)
  let blocks = ref [] in
  let cur = ref [] in
  for i = n - 1 downto 0 do
    cur := i :: !cur;
    if lead.(i) then begin
      blocks := !cur :: !blocks;
      cur := []
    end
  done;
  let quality =
    match mode with
    | Machine.Native Machine.Cc -> Sched.Critical_path
    | Machine.Native Machine.Gcc | Machine.Mobile _ -> Sched.Greedy
  in
  let sched = Sched.create h.sched_info in
  let out = ref [] in
  let out_n = ref 0 in
  let addr_map = Array.make n (-1) in
  let emit_out s =
    out := s :: !out;
    incr out_n
  in
  let rec split acc = function
    | [ s ] when h.is_control s -> (List.rev acc, Some s)
    | [] -> (List.rev acc, None)
    | s :: rest -> split (s :: acc) rest
  in
  List.iter
    (fun omni_indices ->
      match omni_indices with
      | [] -> ()
      | first :: _ -> (
          addr_map.(first) <- !out_n;
          let slots = List.concat_map (fun i -> chunks.(i)) omni_indices in
          let slots =
            match h.peephole with
            | Some pass when opts.Machine.peephole ->
                let before = List.length slots in
                let slots' =
                  Trace.tally_time tally "pass.peephole" (fun () -> pass slots)
                in
                Trace.tally_count tally ~by:(before - List.length slots')
                  "translate.peephole_folds";
                slots'
            | Some _ | None -> slots
          in
          let body, ctrl = split [] slots in
          let body = Machine.array_of_list ~dummy:h.placeholder body in
          let body =
            if opts.Machine.schedule && h.schedules body then
              Trace.tally_time tally "pass.schedule" (fun () ->
                  Sched.schedule_body sched ~quality body)
            else body
          in
          match (ctrl, h.delay_nop) with
          | None, _ -> Array.iter emit_out body
          | Some c, None ->
              Array.iter emit_out body;
              emit_out c
          | Some c, Some nop -> (
              let body, filler =
                if opts.Machine.fill_delay_slots then
                  Trace.tally_time tally "pass.delay_slot" (fun () ->
                      Sched.fill_delay_slot sched
                        ~branch_cost:(h.sched_info.Sched.cost c) body)
                else (body, None)
              in
              Array.iter emit_out body;
              emit_out c;
              match filler with
              | Some f ->
                  Trace.tally_count tally "translate.delay_slots_filled";
                  emit_out f
              | None ->
                  Trace.tally_count tally "translate.delay_slot_nops";
                  emit_out (nop ()))))
    !blocks;
  Trace.flush tally;
  let code = Machine.array_of_list ~dummy:h.placeholder (List.rev !out) in
  (* every label is a leader: [label] checked it names an instruction *)
  let native i = addr_map.(i) in
  Array.iteri (fun k s -> code.(k) <- h.map_label native s) code;
  let entry =
    match Omnivm.Exe.index_of_addr exe.Omnivm.Exe.entry with
    | Some i when i < n -> addr_map.(i)
    | _ ->
        error "entry 0x%x is not an instruction of the text"
          exe.Omnivm.Exe.entry
  in
  { code; entry; addr_map; pool = Array.of_list (List.rev e.pool);
    decl = e.decl }

(* The target-independent half of load-time translation, shared by
   Risc_translate and X86_translate: how an OmniVM module is cut into
   basic blocks, how each block's native slots are laid out, and how
   OmniVM instruction indices map to native slot indices.

   A translator supplies its half as [hooks] (the way [Sched.info] gives
   the scheduler a slot's cost): the translation of one OmniVM instruction
   into an [emitter], and the per-block passes it runs. [run] emits every
   instruction's chunk into one slot buffer, threading the constant pool
   through them, and records where each chunk starts; a block is then the
   index range between two [leaders]. Each block's peephole pass compacts
   its range in place; the schedule, the delay-slot fill and the block's
   control slot then lay the block out as buffer indices, ints that cost
   no write barrier. At the end every slot is stored once into the code,
   its branch label, an OmniVM instruction index while the chunks are
   built, mapped to the native index of its block.

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

(* What one translation is emitted into: a growable slot buffer, each
   OmniVM instruction's chunk appended in order. [chunk] is where the
   current instruction's chunk begins. *)
type 'a emitter = {
  mutable buf : 'a array;
  mutable len : int; (* slots emitted *)
  mutable chunk : int;
  placeholder : 'a; (* a static slot to seed the buffer with *)
  mutable pool : float list; (* reversed *)
  mutable pool_n : int;
  n_omni : int; (* instructions in the text *)
  policy : Policy.t;
  decl : Machine.sfi_decl; (* masking counts *)
  tally : Trace.tally;
}

(* --- storage kept between translations ---

   What a translation needs only while it runs (its slot buffer, the
   chunk starts and the layout) is kept per domain between translations,
   as a simulator's table is ([Machine.take_table]): a server translating
   one module after another reuses it instead of allocating it in the
   major heap each time. Taking it is a straight line with no
   allocation, so no thread switch can hand it out twice. *)

type 'a spare = 'a array option ref Domain.DLS.key

let spare () : 'a spare = Domain.DLS.new_key (fun () -> ref None)

(* Past this many elements an array is not kept. *)
let max_spare = 1 lsl 16

(* An array of at least [n] elements, taken from [k] or made from
   [dummy]; its contents are unspecified. *)
let take (k : 'a spare) dummy n =
  let s = Domain.DLS.get k in
  match !s with
  | Some a when Array.length a >= n ->
      s := None;
      a
  | Some _ | None -> Array.make n dummy

(* Keep [a] in [k] unless [k] holds one at least as large. *)
let give (k : 'a spare) a =
  if Array.length a <= max_spare then
    let s = Domain.DLS.get k in
    match !s with
    | Some b when Array.length b >= Array.length a -> ()
    | Some _ | None -> s := Some a

let starts_spare : int spare = spare ()
let layout_spare : int spare = spare ()

(* Half as much room again, once [buf] is full. *)
let grow e =
  let cap = Array.length e.buf in
  let b = Array.make (cap + (cap / 2) + 16) e.placeholder in
  Array.blit e.buf 0 b 0 e.len;
  e.buf <- b

let push e s =
  if e.len = Array.length e.buf then grow e;
  Array.unsafe_set e.buf e.len s;
  e.len <- e.len + 1

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
      if (e.len - e.chunk) land 1 = 1 then push e (nop ())

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
  spare : 'a spare; (* the translator's slot buffer between translations *)
  sched_info : 'a Sched.info;
  peephole : ('a array -> int -> int -> int) option;
      (* the block pass, if any: compacts a range in place, returns its
         new end *)
  schedules : 'a array -> int -> int -> bool;
      (* whether a block body, a range, is scheduled *)
  delay_nop : (unit -> 'a) option;
      (* on a delay-slot target, the slot for a delay slot left empty *)
  map_label : (int -> int) -> 'a -> 'a;
      (* apply to a slot's label; a slot without one is returned as is *)
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
    { buf = take h.spare h.placeholder ((2 * n) + 16); len = 0;
      chunk = 0; placeholder = h.placeholder; pool = []; pool_n = 0;
      n_omni = n; policy = Machine.sfi_policy mode;
      decl = Machine.new_sfi_decl (); tally }
  in
  (* each instruction's chunk, in order; the constant pool threads through
     them, and [starts.(i)] is where instruction [i]'s begins *)
  let starts = take starts_spare 0 (n + 1) in
  let blocks = ref 0 in
  for i = 0 to n - 1 do
    if lead.(i) then begin
      h.at_leader ();
      incr blocks
    end;
    starts.(i) <- e.len;
    e.chunk <- e.len;
    h.translate_instr e ~idx:i text.(i)
  done;
  starts.(n) <- e.len;
  let buf = e.buf in
  let quality =
    match mode with
    | Machine.Native Machine.Cc -> Sched.Critical_path
    | Machine.Native Machine.Gcc | Machine.Mobile _ -> Sched.Greedy
  in
  let sched = Sched.create h.sched_info in
  (* The layout: native slot [k] is [buf.(slot.(k))], or an empty delay
     slot where [slot.(k)] is -1. A block grows by at most its empty delay
     slot. Each slot is stored once more, into the code, at the end. *)
  let bound = e.len + if Option.is_some h.delay_nop then !blocks else 0 in
  let slot = take layout_spare 0 bound in
  let out_n = ref 0 in
  let addr_map = Array.make n (-1) in
  let peephole =
    match h.peephole with
    | Some pass when opts.Machine.peephole -> Some pass
    | Some _ | None -> None
  in
  (* the passes' times, from one clock reading after each (-1: never
     ran), and what they counted *)
  let peep_ns = ref (-1) and sched_ns = ref (-1) and delay_ns = ref (-1) in
  let folds = ref 0 and filled = ref 0 and nops = ref 0 in
  let clock = ref 0 in
  let lap acc =
    let now = Trace.tally_clock tally in
    acc := max 0 !acc + (now - !clock);
    clock := now
  in
  let put k =
    slot.(!out_n) <- k;
    incr out_n
  in
  let first = ref 0 in
  while !first < n do
    let next = ref (!first + 1) in
    while !next < n && not lead.(!next) do
      incr next
    done;
    clock := Trace.tally_clock tally;
    addr_map.(!first) <- !out_n;
    let lo = starts.(!first) in
    let hi = ref starts.(!next) in
    (match peephole with
    | Some pass ->
        let hi' = pass buf lo !hi in
        folds := !folds + (!hi - hi');
        hi := hi';
        lap peep_ns
    | None -> ());
    let has_ctrl = !hi > lo && h.is_control buf.(!hi - 1) in
    if has_ctrl then decr hi;
    let body = !out_n in
    if opts.Machine.schedule && h.schedules buf lo !hi then begin
      Sched.schedule sched ~quality buf lo !hi slot body;
      lap sched_ns
    end
    else
      for k = 0 to !hi - lo - 1 do
        slot.(body + k) <- lo + k
      done;
    out_n := body + (!hi - lo);
    if has_ctrl then
      if Option.is_none h.delay_nop then put !hi
      else begin
        let fills =
          opts.Machine.fill_delay_slots && !out_n > body
          && Sched.fills_delay_slot sched
               ~branch_cost:(h.sched_info.Sched.cost buf.(!hi))
               buf.(slot.(!out_n - 1))
        in
        if opts.Machine.fill_delay_slots then lap delay_ns;
        if fills then begin
          (* the body's last slot moves behind the branch *)
          let last = slot.(!out_n - 1) in
          slot.(!out_n - 1) <- !hi;
          put last;
          incr filled
        end
        else begin
          put !hi;
          put (-1);
          incr nops
        end
      end;
    first := !next
  done;
  let pass name ns = if ns >= 0 then Trace.tally_add_time tally name ns in
  pass "pass.peephole" !peep_ns;
  pass "pass.schedule" !sched_ns;
  pass "pass.delay_slot" !delay_ns;
  if !peep_ns >= 0 then
    Trace.tally_count tally ~by:!folds "translate.peephole_folds";
  if !filled > 0 then
    Trace.tally_count tally ~by:!filled "translate.delay_slots_filled";
  if !nops > 0 then Trace.tally_count tally ~by:!nops "translate.delay_slot_nops";
  Trace.flush tally;
  (* every label is a leader: [label] checked it names an instruction *)
  let native i = addr_map.(i) in
  let code = Array.make !out_n h.placeholder in
  for k = 0 to !out_n - 1 do
    let i = slot.(k) in
    code.(k) <-
      (if i >= 0 then h.map_label native buf.(i) else Option.get h.delay_nop ())
  done;
  (* The buffer goes back as it is: clearing it costs a write barrier
     per slot. The slots it still points to are this translation's,
     which its code holds too, until the next translation on the domain
     overwrites them. *)
  give h.spare buf;
  give starts_spare starts;
  give layout_spare slot;
  Sched.release sched;
  let entry =
    match Omnivm.Exe.index_of_addr exe.Omnivm.Exe.entry with
    | Some i when i < n -> addr_map.(i)
    | _ ->
        error "entry 0x%x is not an instruction of the text"
          exe.Omnivm.Exe.entry
  in
  { code; entry; addr_map; pool = Array.of_list (List.rev e.pool);
    decl = e.decl }

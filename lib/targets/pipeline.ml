(* Generic in-order pipeline cost model.

   Each retired instruction reports which abstract resources it reads and
   writes, its result latency, and its functional-unit class; the engine
   charges issue cycles, operand-interlock stalls, and taken-branch
   penalties. This is deliberately a coarse model: the paper's effects we
   need (scheduling hides load/FP latency and SFI overhead in interlock
   cycles; superscalar PPC pays for long-latency compares; Pentium pairing)
   all show up at this granularity.

   Resource ids: 0..31 integer regs, 32..63 float regs, 64 condition codes,
   65 FP condition, 66+ free for target use. *)

type unit_class = IU | FPU | LSU | BRU

type attrs = {
  uses : int list;
  defs : int list;
  latency : int; (* cycles until defs are usable *)
  unit_ : unit_class;
  is_load : bool;
  is_store : bool;
}

type config = {
  issue_width : int; (* instructions per cycle *)
  dual_issue_rule : unit_class -> unit_class -> bool;
      (* may these two issue in the same cycle (in order)? *)
  taken_branch_penalty : int;
}

let resources = 80
let classes = [| IU; FPU; LSU; BRU |]
let class_index = function IU -> 0 | FPU -> 1 | LSU -> 2 | BRU -> 3

(* [attrs] as the simulators step them: three ints per instruction in
   one flat table, so a retired instruction walks ints and allocates
   nothing. Each resource list is packed into one int, seven bits per
   resource (its id + 1, lowest first, 0 ends the list); the third int is
   the latency and the unit class's index. *)
type costs = int array

let costs n = Array.make (3 * n) 0

(* [rs] packed, given [n] resources before them. *)
let rec pack n = function
  | [] -> 0
  | r :: rs ->
      if n = 8 || r < 0 || r >= resources then invalid_arg "Pipeline.set";
      (pack (n + 1) rs lsl 7) lor (r + 1)

let set c k (a : attrs) =
  c.(3 * k) <- pack 0 a.uses;
  c.((3 * k) + 1) <- pack 0 a.defs;
  c.((3 * k) + 2) <- (a.latency lsl 2) lor class_index a.unit_

(* Reading a table back, for the scheduler, which decodes each basic
   block once and then works on the same ints the simulators step. *)
let uses (c : costs) k = c.(3 * k)
let defs (c : costs) k = c.((3 * k) + 1)
let latency (c : costs) k = c.((3 * k) + 2) lsr 2

(* A packed list is non-empty iff non-zero: [first] is its head's id,
   [rest] its tail. *)
let first p = (p land 127) - 1
let rest p = p lsr 7
let rec mem r p = p <> 0 && ((p land 127) = r + 1 || mem r (p lsr 7))
let rec meets p q = p <> 0 && (mem ((p land 127) - 1) q || meets (p lsr 7) q)

type t = {
  cfg : config;
  pairs : bool array; (* [dual_issue_rule], indexed by 4 * last + next *)
  ready : int array; (* resource id -> cycle its value is ready *)
  mutable cycle : int;
  mutable issued_this_cycle : int;
  mutable last_class : int;
}

let create cfg = {
  cfg;
  pairs =
    Array.init 16 (fun i -> cfg.dual_issue_rule classes.(i / 4) classes.(i mod 4));
  ready = Array.make resources 0;
  cycle = 0;
  issued_this_cycle = 0;
  last_class = class_index IU;
}

(* Scoreboards: resource id -> cycle its value is ready. The [int array]
   annotations matter: without them these two would be polymorphic,
   paying a generic comparison and a float-array check per resource. *)
let rec ready_at (ready : int array) uses acc =
  if uses = 0 then acc
  else
    let r = Array.unsafe_get ready ((uses land 127) - 1) in
    ready_at ready (uses lsr 7) (if r > acc then r else acc)

let rec set_ready (ready : int array) defs cycle =
  if defs <> 0 then begin
    Array.unsafe_set ready ((defs land 127) - 1) cycle;
    set_ready ready (defs lsr 7) cycle
  end

(* Account one retired instruction, number [k] of [c]; returns nothing,
   accumulates in [t.cycle]. *)
let step t (c : costs) k ~taken_branch =
  let i = 3 * k in
  if i < 0 || i + 2 >= Array.length c then invalid_arg "Pipeline.step";
  let uses = Array.unsafe_get c i
  and defs = Array.unsafe_get c (i + 1)
  and meta = Array.unsafe_get c (i + 2) in
  let unit_ = meta land 3 in
  let ready_at = ready_at t.ready uses t.cycle in
  let issue_cycle =
    if ready_at > t.cycle then ready_at (* interlock stall *)
    else if t.issued_this_cycle = 0 then t.cycle
    else if
      t.issued_this_cycle < t.cfg.issue_width
      && Array.unsafe_get t.pairs ((4 * t.last_class) + unit_)
    then t.cycle
    else t.cycle + 1
  in
  if issue_cycle > t.cycle then begin
    t.cycle <- issue_cycle;
    t.issued_this_cycle <- 1
  end
  else t.issued_this_cycle <- t.issued_this_cycle + 1;
  t.last_class <- unit_;
  set_ready t.ready defs (issue_cycle + (meta lsr 2));
  if taken_branch && t.cfg.taken_branch_penalty > 0 then begin
    t.cycle <- t.cycle + t.cfg.taken_branch_penalty;
    t.issued_this_cycle <- 0
  end

let cycles t = t.cycle + 1

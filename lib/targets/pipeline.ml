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

type config = {
  issue_width : int; (* instructions per cycle *)
  dual_issue_rule : unit_class -> unit_class -> bool;
      (* may these two issue in the same cycle (in order)? *)
  taken_branch_penalty : int;
}

let resources = 80
let classes = [| IU; FPU; LSU; BRU |]
let class_index = function IU -> 0 | FPU -> 1 | LSU -> 2 | BRU -> 3

(* One instruction's costs in one int, as the translators' decoders
   produce them without allocating: its uses (at most four resources) in
   bits 0-27, its defs (at most three) in bits 28-48, each list packed
   seven bits per resource (its id + 1, lowest first, 0 ends the list);
   then the unit class's index in bits 49-50, the [load] and [store]
   flags, and the latency from bit 53. *)
type cost = int

let id r =
  if r < 0 || r >= resources then invalid_arg "Pipeline: resource id";
  r + 1

let one a = id a
let two a b = id a lor (id b lsl 7)
let three a b c = two a b lor (id c lsl 14)
let cons r p = id r lor (p lsl 7)
let rec length p = if p = 0 then 0 else 1 + length (p lsr 7)
let append p q = p lor (q lsl (7 * length p))
let load = 1 lsl 51
let store = 1 lsl 52

let cost latency unit_ uses defs =
  if length uses > 4 || length defs > 3 || latency < 0 || latency > 511 then
    invalid_arg "Pipeline.cost";
  uses lor (defs lsl 28) lor (class_index unit_ lsl 49) lor (latency lsl 53)

let cost_uses w = w land ((1 lsl 28) - 1)
let cost_defs w = (w lsr 28) land ((1 lsl 21) - 1)
let is_load w = w land load <> 0
let is_store w = w land store <> 0

(* A run of instructions' costs as the simulators step them: three ints
   per instruction in one flat table, so a retired instruction walks ints
   and allocates nothing. The first two are the packed uses and defs, the
   third the latency and the unit class's index. *)
type costs = int array

let costs n = Array.make (3 * n) 0

let set c k w =
  c.(3 * k) <- cost_uses w;
  c.((3 * k) + 1) <- cost_defs w;
  c.((3 * k) + 2) <- ((w lsr 53) lsl 2) lor ((w lsr 49) land 3)

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
  width : int; (* [issue_width] *)
  penalty : int; (* [taken_branch_penalty] *)
  pairs : bool array; (* [dual_issue_rule], indexed by 4 * last + next *)
  ready : int array; (* resource id -> cycle its value is ready *)
  mutable cycle : int;
  mutable issued_this_cycle : int;
  mutable last_class : int;
}

let create cfg = {
  width = cfg.issue_width;
  penalty = cfg.taken_branch_penalty;
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

(* Retire instruction [k] of [c]: add one to its count in [counts] and
   account it in [t.cycle]. The simulators call this once per instruction
   and the build compiles modules opaquely, so nothing here is inlined
   into them: it is one call that does all of a retirement's accounting,
   with the first resource of each list handled in line, since most lists
   hold one or two. *)
let retire t (c : costs) (counts : int array) k ~taken_branch =
  let i = 3 * k in
  if i < 0 || i + 2 >= Array.length c || k >= Array.length counts then
    invalid_arg "Pipeline.retire";
  Array.unsafe_set counts k (Array.unsafe_get counts k + 1);
  let uses = Array.unsafe_get c i
  and defs = Array.unsafe_get c (i + 1)
  and meta = Array.unsafe_get c (i + 2) in
  let unit_ = meta land 3 in
  let ready = t.ready and cycle = t.cycle in
  let ready_at =
    if uses = 0 then cycle
    else
      let r = Array.unsafe_get ready ((uses land 127) - 1) in
      let acc = if r > cycle then r else cycle in
      if uses lsr 7 = 0 then acc else ready_at ready (uses lsr 7) acc
  in
  let issue_cycle =
    if ready_at > cycle then ready_at (* interlock stall *)
    else if t.issued_this_cycle = 0 then cycle
    else if
      t.issued_this_cycle < t.width
      && Array.unsafe_get t.pairs ((4 * t.last_class) + unit_)
    then cycle
    else cycle + 1
  in
  if issue_cycle > cycle then begin
    t.cycle <- issue_cycle;
    t.issued_this_cycle <- 1
  end
  else t.issued_this_cycle <- t.issued_this_cycle + 1;
  t.last_class <- unit_;
  if defs <> 0 then begin
    let at = issue_cycle + (meta lsr 2) in
    Array.unsafe_set ready ((defs land 127) - 1) at;
    if defs lsr 7 <> 0 then set_ready ready (defs lsr 7) at
  end;
  if taken_branch && t.penalty > 0 then begin
    t.cycle <- t.cycle + t.penalty;
    t.issued_this_cycle <- 0
  end

let cycles t = t.cycle + 1

(* Generic in-order pipeline cost model.

   Each retired instruction reports which abstract resources it reads and
   writes, its result latency, and its functional-unit class; the engine
   charges issue cycles, operand-interlock stalls, and taken-branch
   penalties. This is deliberately a coarse model: the paper's effects we
   need (scheduling hides load/FP latency and SFI overhead in interlock
   cycles; superscalar PPC pays for long-latency compares; Pentium pairing)
   all show up at this granularity.

   Resource ids: 0..31 integer regs, 32..63 float regs, 64 condition codes,
   65 FP condition, 66+ free for target use.

   The simulators charge it a segment at a time through an exact memo
   ([segment] below): a segment entered in a state it has met replays
   its stored result, counted by one hit on its entry. While every
   resource is ready ([horizon] is no later than the cycle), the memo's
   key is the issue state alone. *)

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
  (* more than four (three) resources: a 7-bit group past bit 28 (21) *)
  if uses lsr 28 <> 0 || defs lsr 21 <> 0 || latency < 0 || latency > 511 then
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
  mutable horizon : int; (* no less than any cycle in [ready] *)
  mutable cycle : int;
  mutable issued_this_cycle : int;
  mutable last_class : int;
}

let create cfg =
  if cfg.issue_width < 1 || cfg.issue_width > 63 then
    invalid_arg "Pipeline.create: issue width";
  {
  width = cfg.issue_width;
  penalty = cfg.taken_branch_penalty;
  pairs =
    Array.init 16 (fun i -> cfg.dual_issue_rule classes.(i / 4) classes.(i mod 4));
  ready = Array.make resources 0;
  horizon = 0;
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
   account it in [t.cycle]. This is the slow path of [segment] below,
   which charges a whole segment with one call, and of a run that stops
   inside one; the first resource of each list is handled in line, since
   most lists hold one or two. *)
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
    if at > t.horizon then t.horizon <- at;
    Array.unsafe_set ready ((defs land 127) - 1) at;
    if defs lsr 7 <> 0 then set_ready ready (defs lsr 7) at
  end;
  if taken_branch && t.penalty > 0 then begin
    t.cycle <- t.cycle + t.penalty;
    t.issued_this_cycle <- 0
  end

let cycles t = t.cycle + 1

(* Retire [first..last] one instruction at a time, slot [taken_at]
   taking its branch (-1: none does). *)
let step t c counts first last ~taken_at =
  for k = first to last do
    retire t c counts k ~taken_branch:(k = taken_at)
  done

(* --- segment memo ---

   A segment is a straight-line run of slots [first..last]. Its effect on
   [t] depends on no register value, only on the issue state and on when
   the resources it reads before writing them (its exposed uses) become
   ready, and only relative to the cycle it starts in: shifting every
   ready cycle and the start cycle by the same amount shifts the result
   by it too. A use ready at or before the start cycle cannot stall, so
   its relative ready time clips to 0, and since the cycle only grows no
   later slot can tell the difference. So the key below — the issue
   count, the last unit class and each exposed use's clipped relative
   ready time — fixes the segment's result: the cycles it adds, the issue
   state it leaves, and the ready time, relative to the start cycle, of
   each resource it writes. When [t.horizon], a bound on every ready
   cycle, is no later than the start cycle, every field clips to 0 and
   the key is the issue state alone, with no walk over the uses.

   A memo holds one result per (first slot, taken), the range a run
   steps from a slot being fixed by those two, in a flat pool of ints:

     e     the range's last slot
     e+1   the exposed uses, packed as a resource list, or -1 when there
           are more than [key_uses] of them: such a segment is always
           stepped, and its entry ends here
     e+2   the key the result below was stepped from (-1: none yet)
     e+3   the cycles added, then the issue count in 6 bits and the unit
           class in 2
     e+4   the hits since the counts were last folded ([fold_hits])
     e+5   the latest ready time the segment writes, relative to the
           start cycle (-1: it writes none), which [t.horizon] takes
     e+6   how many distinct resources the segment writes
     e+7.. for each, its ready time relative to the start cycle, then its
           id in 7 bits

   A key packs the issue count in 6 bits, the unit class in 2, then
   [key_uses] fields of [field_bits] each: 6 + 2 + 48 bits. A use ready
   more than [field_max] cycles ahead does not fit, and a segment entered
   so is stepped without being stored. *)

type memo = {
  index : int array; (* 2 * first + taken -> entry, or -1 *)
  mutable pool : int array; (* grows as segments are first met *)
  mutable used : int;
  marks : int array; (* per resource, for [entry]; see there *)
  mutable epoch : int;
}

let key_uses = 8
let field_bits = 6
let field_max = (1 lsl field_bits) - 1
let head = 7 (* ints before an entry's writes *)

let memo n =
  { index = Array.make (2 * n) (-1); pool = [||]; used = 0;
    marks = Array.make resources 0; epoch = 0 }

let reset m n =
  Array.fill m.index 0 (2 * n) (-1);
  m.used <- 0

let memo_words m = m.used

(* The key of a segment with exposed uses [p] entered in [t]'s state, or
   -1 if a use is ready too far ahead. *)
let rec fields (ready : int array) cycle p key shift =
  if p = 0 then key
  else
    let r = Array.unsafe_get ready ((p land 127) - 1) - cycle in
    let r = if r < 0 then 0 else r in
    if r > field_max then -1
    else fields ready cycle (p lsr 7) (key lor (r lsl shift)) (shift + field_bits)

let[@inline] key t p =
  let issue = t.issued_this_cycle lor (t.last_class lsl 6) in
  if t.horizon <= t.cycle then issue else fields t.ready t.cycle p issue 8

(* Add the entry for [first..last] to the pool and return it. [marks]
   tells, for the resources seen so far, 2 * epoch: read first, and
   2 * epoch + 1: written. *)
let entry m (c : costs) first last =
  let need = m.used + head + (3 * (last - first + 1)) in
  if need > Array.length m.pool then begin
    let pool = Array.make (max need (2 * Array.length m.pool)) 0 in
    Array.blit m.pool 0 pool 0 m.used;
    m.pool <- pool
  end;
  m.epoch <- m.epoch + 1;
  let read = 2 * m.epoch and written = (2 * m.epoch) + 1 in
  let e = m.used and pool = m.pool and marks = m.marks in
  let exposed = ref 0 and uses = ref 0 and writes = ref 0 in
  for k = first to last do
    let p = ref c.(3 * k) in
    while !p <> 0 do
      let r = (!p land 127) - 1 in
      if marks.(r) < read then begin
        marks.(r) <- read;
        if !uses < key_uses then
          exposed := !exposed lor ((r + 1) lsl (7 * !uses));
        incr uses
      end;
      p := !p lsr 7
    done;
    let p = ref c.((3 * k) + 1) in
    while !p <> 0 do
      let r = (!p land 127) - 1 in
      if marks.(r) <> written then begin
        marks.(r) <- written;
        pool.(e + head + !writes) <- r;
        incr writes
      end;
      p := !p lsr 7
    done
  done;
  pool.(e) <- last;
  if !uses > key_uses then begin
    pool.(e + 1) <- -1;
    m.used <- e + 2
  end
  else begin
    pool.(e + 1) <- !exposed;
    pool.(e + 2) <- -1;
    pool.(e + 4) <- 0;
    pool.(e + 6) <- !writes;
    m.used <- e + head + !writes
  end;
  e

(* Charge [first..last] as [step] does, from the memo when the entry for
   (first, taken) holds the result for [t]'s state, and store the result
   when it does not. A hit adds one to the entry's hits, not to each
   slot's count: [fold_hits] does that once, when the counts are read. *)
let segment t m c counts first last ~taken_at =
  let slot = (2 * first) + if taken_at >= 0 then 1 else 0 in
  if first < 0 || last < first || slot >= Array.length m.index
     || (3 * last) + 2 >= Array.length c || last >= Array.length counts
  then invalid_arg "Pipeline.segment";
  let e = Array.unsafe_get m.index slot in
  let e =
    if e >= 0 then e
    else begin
      let e = entry m c first last in
      m.index.(slot) <- e;
      e
    end
  in
  (* [entry] laid out every field read below *)
  let pool = m.pool in
  let exposed = Array.unsafe_get pool (e + 1) in
  let k =
    if Array.unsafe_get pool e = last && exposed >= 0 then key t exposed
    else -1
  in
  if k < 0 then step t c counts first last ~taken_at
  else if k = Array.unsafe_get pool (e + 2) then begin
    (* a hit: the stored result, shifted to this start cycle *)
    let cycle = t.cycle and ready = t.ready in
    let r = Array.unsafe_get pool (e + 3) in
    t.cycle <- cycle + (r lsr 8);
    t.issued_this_cycle <- (r lsr 2) land 63;
    t.last_class <- r land 3;
    Array.unsafe_set pool (e + 4) (Array.unsafe_get pool (e + 4) + 1);
    let h = Array.unsafe_get pool (e + 5) in
    if h >= 0 && cycle + h > t.horizon then t.horizon <- cycle + h;
    for j = e + head to e + head - 1 + Array.unsafe_get pool (e + 6) do
      let w = Array.unsafe_get pool j in
      Array.unsafe_set ready (w land 127) (cycle + (w lsr 7))
    done
  end
  else begin
    let cycle = t.cycle and ready = t.ready and horizon = t.horizon in
    (* the latest ready time the segment writes, if any: each is at or
       after [cycle] *)
    t.horizon <- min_int;
    step t c counts first last ~taken_at;
    let latest = t.horizon in
    if latest < horizon then t.horizon <- horizon;
    pool.(e + 2) <- k;
    pool.(e + 3) <-
      ((t.cycle - cycle) lsl 8) lor (t.issued_this_cycle lsl 2) lor t.last_class;
    pool.(e + 5) <- (if latest < cycle then -1 else latest - cycle);
    for j = e + head to e + head - 1 + pool.(e + 6) do
      let id = pool.(j) land 127 in
      pool.(j) <- ((ready.(id) - cycle) lsl 7) lor id
    done
  end

(* Add each entry's hits to the counts of its slots, among the first [n]
   slots, and clear them. *)
let fold_hits m (counts : int array) n =
  let pool = m.pool in
  for slot = 0 to (2 * n) - 1 do
    let e = m.index.(slot) in
    if e >= 0 && pool.(e + 1) >= 0 && pool.(e + 4) > 0 then begin
      let h = pool.(e + 4) in
      pool.(e + 4) <- 0;
      for k = slot / 2 to pool.(e) do
        counts.(k) <- counts.(k) + h
      done
    end
  done

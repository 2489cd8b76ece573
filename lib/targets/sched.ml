(* Local (basic-block) list scheduling, generic over target instructions.

   This is the main translator optimization the paper measures (section 4.2,
   Table 5): it hides load/FP/compare latencies in pipeline interlock slots
   and, on delay-slot architectures, fills branch delay slots. The paper's
   observation that scheduling hides part of the SFI overhead falls out
   naturally: sandboxing instructions are short-latency ALU ops that slot
   into interlock bubbles.

   [quality] distinguishes the translators' greedy scheduler from the
   vendor-compiler tier's critical-path scheduler (used by the native `cc`
   baseline).

   Blocks are small (a handful of instructions) and there are many of
   them, so the cost that matters is per block, not per edge. A scheduler
   is made once per translation and owns int arrays sized to the largest
   block it has scheduled: each block's attributes are decoded once into
   the packed [Pipeline.costs] the simulators step, the dependence graph
   is an edge list threaded through two int arrays, and the register
   scoreboards are indexed by resource id. A block resets only the
   entries it touched. *)

type 'a info = {
  cost : 'a -> Pipeline.cost;
  is_barrier : 'a -> bool; (* calls / host calls: nothing moves across *)
}

type quality = Greedy | Critical_path

let flag_load = 1
let flag_store = 2
let flag_barrier = 4

type 'a t = {
  info : 'a info;
  (* per slot of the current block *)
  mutable costs : Pipeline.costs;
  mutable flags : int array;
  mutable remaining : int array; (* unscheduled predecessors; -1: scheduled *)
  mutable ready_time : int array;
  mutable height : int array; (* critical path to the block's end *)
  mutable mark : int array; (* [mark.(i) = j]: edge i -> j already added *)
  mutable head : int array; (* first edge out of the slot; -1: none *)
  mutable order : int array; (* the schedule, as slot numbers *)
  (* edges: target, and the next edge out of the same slot *)
  mutable edst : int array;
  mutable enext : int array;
  mutable n_edges : int;
  (* per resource *)
  mutable last_writer : int array; (* slot; -1: none in this block *)
  mutable reg_ready : int array; (* cycle its value is ready *)
  pair : Pipeline.costs; (* a delay-slot candidate and its branch *)
}

(* Nothing is allocated until a block needs scheduling: many
   translations schedule nothing (Sparc only fills delay slots, the
   mobile x86 translator schedules only FP blocks). *)
let create info =
  {
    info;
    costs = Pipeline.costs 0;
    flags = [||];
    remaining = [||];
    ready_time = [||];
    height = [||];
    mark = [||];
    head = [||];
    order = [||];
    edst = [||];
    enext = [||];
    n_edges = 0;
    last_writer = [||];
    reg_ready = [||];
    pair = Pipeline.costs 2;
  }

(* Room for an [n]-slot block. *)
let reserve t n =
  let cap = Array.length t.flags in
  if n > cap then begin
    if cap = 0 then begin
      t.last_writer <- Array.make Pipeline.resources (-1);
      t.reg_ready <- Array.make Pipeline.resources 0
    end;
    let cap = max n (2 * cap) in
    t.costs <- Pipeline.costs cap;
    t.flags <- Array.make cap 0;
    t.remaining <- Array.make cap 0;
    t.ready_time <- Array.make cap 0;
    t.height <- Array.make cap 0;
    t.mark <- Array.make cap (-1);
    t.head <- Array.make cap (-1);
    t.order <- Array.make cap 0
  end

(* Decode [body]'s attributes, once per slot, and clear the per-slot
   state. *)
let load t (body : 'a array) =
  let n = Array.length body in
  reserve t n;
  for k = 0 to n - 1 do
    let s = body.(k) in
    let w = t.info.cost s in
    Pipeline.set t.costs k w;
    t.flags.(k) <-
      (if Pipeline.is_load w then flag_load else 0)
      lor (if Pipeline.is_store w then flag_store else 0)
      lor if t.info.is_barrier s then flag_barrier else 0
  done;
  Array.fill t.remaining 0 n 0;
  Array.fill t.ready_time 0 n 0;
  Array.fill t.height 0 n 0;
  Array.fill t.mark 0 n (-1);
  Array.fill t.head 0 n (-1);
  t.n_edges <- 0

(* Edge i -> j (i < j), unless present: every edge into [j] is added
   while [j] is visited, so [mark] dedupes them. *)
let add_dep t i j =
  if i <> j && t.mark.(i) <> j then begin
    t.mark.(i) <- j;
    let e = t.n_edges in
    if e = Array.length t.edst then begin
      let grow a =
        let b = Array.make (max 64 (2 * e)) 0 in
        Array.blit a 0 b 0 e;
        b
      in
      t.edst <- grow t.edst;
      t.enext <- grow t.enext
    end;
    t.edst.(e) <- j;
    t.enext.(e) <- t.head.(i);
    t.head.(i) <- e;
    t.n_edges <- e + 1;
    t.remaining.(j) <- t.remaining.(j) + 1
  end

(* Reset the per-resource [board] to [v] for the resources of [p]. *)
let rec reset (board : int array) v p =
  if p <> 0 then begin
    board.(Pipeline.first p) <- v;
    reset board v (Pipeline.rest p)
  end

(* RAW: slot [j] reads the resources of [p]. *)
let rec raw t j p =
  if p <> 0 then begin
    let w = t.last_writer.(Pipeline.first p) in
    if w >= 0 then add_dep t w j;
    raw t j (Pipeline.rest p)
  end

(* WAW and WAR: slot [j] writes the resources of [p]; it follows their
   last writer and every slot that read them since. *)
let rec war_waw t j p =
  if p <> 0 then begin
    let r = Pipeline.first p in
    let w = t.last_writer.(r) in
    if w >= 0 then add_dep t w j;
    for i = w + 1 to j - 1 do
      if Pipeline.mem r (Pipeline.uses t.costs i) then add_dep t i j
    done;
    t.last_writer.(r) <- j;
    war_waw t j (Pipeline.rest p)
  end

(* The dependence graph of the loaded [n]-slot body: register RAW, WAR
   and WAW; memory conservatively (stores in total order, loads ordered
   against stores both ways); nothing crosses a barrier. *)
let build_deps t n =
  let last_barrier = ref (-1) in
  let last_store = ref (-1) in
  for j = 0 to n - 1 do
    raw t j (Pipeline.uses t.costs j);
    war_waw t j (Pipeline.defs t.costs j);
    let f = t.flags.(j) in
    if f land flag_store <> 0 then begin
      for i = 0 to j - 1 do
        let g = t.flags.(i) in
        if g land flag_store <> 0 || (g land flag_load <> 0 && i > !last_store)
        then add_dep t i j
      done;
      last_store := j
    end
    else if f land flag_load <> 0 then
      for i = 0 to j - 1 do
        if t.flags.(i) land flag_store <> 0 then add_dep t i j
      done;
    if !last_barrier >= 0 then add_dep t !last_barrier j;
    if f land flag_barrier <> 0 then begin
      for i = 0 to j - 1 do
        add_dep t i j
      done;
      last_barrier := j
    end
  done;
  for k = 0 to n - 1 do
    reset t.last_writer (-1) (Pipeline.defs t.costs k)
  done

(* Longest path (by latency) from each slot to the end of the block. *)
let critical_path t n =
  for i = n - 1 downto 0 do
    let lat = Pipeline.latency t.costs i in
    let h = ref lat in
    let e = ref t.head.(i) in
    while !e >= 0 do
      let via = t.height.(t.edst.(!e)) + lat in
      if via > !h then h := via;
      e := t.enext.(!e)
    done;
    t.height.(i) <- !h
  done

(* List-schedule the loaded [n]-slot body into [t.order]. Each step takes,
   among the slots whose predecessors are all scheduled, one whose
   operands are ready now if there is one; then the greater height
   ([Greedy] leaves every height 0); then the lower slot number. *)
let list_schedule t n =
  let clock = ref 0 in
  for count = 0 to n - 1 do
    let best = ref (-1) in
    (* downwards, so a later candidate that ties wins: lower slot *)
    for j = n - 1 downto 0 do
      if t.remaining.(j) = 0 then begin
        let tj =
          Pipeline.ready_at t.reg_ready (Pipeline.uses t.costs j)
            t.ready_time.(j)
        in
        t.ready_time.(j) <- tj;
        let b = !best in
        if b < 0 then best := j
        else
          let now_j = tj <= !clock and now_b = t.ready_time.(b) <= !clock in
          if if now_j <> now_b then now_j else t.height.(j) >= t.height.(b)
          then best := j
      end
    done;
    let j = !best in
    t.order.(count) <- j;
    t.remaining.(j) <- -1;
    let rt = t.ready_time.(j) in
    clock := (if rt > !clock then rt else !clock) + 1;
    Pipeline.set_ready t.reg_ready (Pipeline.defs t.costs j)
      (!clock - 1 + Pipeline.latency t.costs j);
    let e = ref t.head.(j) in
    while !e >= 0 do
      let s = t.edst.(!e) in
      t.remaining.(s) <- t.remaining.(s) - 1;
      e := t.enext.(!e)
    done
  done;
  for k = 0 to n - 1 do
    reset t.reg_ready 0 (Pipeline.defs t.costs k)
  done

(* Schedule a straight-line body; returns a permutation of it. *)
let schedule_body t ~quality (body : 'a array) : 'a array =
  let n = Array.length body in
  if n <= 1 then body
  else begin
    load t body;
    build_deps t n;
    (match quality with
    | Critical_path -> critical_path t n
    | Greedy -> ());
    list_schedule t n;
    (* a copy, not [Array.init]/[Array.map]: seeding a long array with a
       young element forces a minor collection *)
    let out = Array.copy body in
    for k = 0 to n - 1 do
      out.(k) <- body.(t.order.(k))
    done;
    out
  end

(* Try to move one scheduled-body instruction into the branch delay slot.
   [branch_cost] is the cost of the terminating control
   instruction. Returns (new_body, filler option).

   The candidate is the last instruction, which no later instruction can
   depend on; it moves unless the branch reads what it writes (RAW), both
   write one register (WAW), or it reads a register the branch writes
   (WAR: calls write the link register before the slot executes). *)
let fill_delay_slot t ~branch_cost (body : 'a array) : 'a array * 'a option =
  let n = Array.length body in
  if n = 0 then (body, None)
  else
    let last = body.(n - 1) in
    if t.info.is_barrier last then (body, None)
    else begin
      Pipeline.set t.pair 0 (t.info.cost last);
      Pipeline.set t.pair 1 branch_cost;
      let uses = Pipeline.uses t.pair 0 and defs = Pipeline.defs t.pair 0 in
      let b_uses = Pipeline.uses t.pair 1 and b_defs = Pipeline.defs t.pair 1 in
      if
        Pipeline.meets defs b_uses || Pipeline.meets defs b_defs
        || Pipeline.meets uses b_defs
      then (body, None)
      else (Array.sub body 0 (n - 1), Some last)
    end

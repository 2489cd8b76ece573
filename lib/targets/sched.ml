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
   them, so the cost that matters is per block, not per edge. A block is
   a range of the translation's slot buffer, and [schedule] writes its
   slots' indices, in schedule order, into the translation's layout.
   Each slot's cost is decoded once, into the packed [Pipeline.costs] the
   simulators step. Under [Greedy], a block whose slots, stepped in
   program order, never wait for an operand keeps that order, which is
   the greedy schedule, and builds no graph. Otherwise the dependence
   graph is an edge list threaded through int arrays, with no edge that
   others imply; the register scoreboards are indexed by resource id; and
   each round of the list schedule looks only at the ready slots. The
   int arrays are sized to the largest block scheduled, kept per domain
   between translations, and reset by each block only where it wrote. *)

type 'a info = {
  cost : 'a -> Pipeline.cost;
  is_barrier : 'a -> bool; (* calls / host calls: nothing moves across *)
}

type quality = Greedy | Critical_path

let flag_load = 1
let flag_store = 2
let flag_barrier = 4

(* The int arrays every block reuses. *)
type scratch = {
  (* per slot of the current block *)
  mutable costs : Pipeline.costs;
  mutable flags : int array;
  mutable remaining : int array; (* unscheduled predecessors *)
  mutable ready_time : int array; (* set once the slot is ready *)
  mutable height : int array; (* critical path to the block's end *)
  mutable mark : int array; (* [mark.(i) = j]: edge i -> j already added *)
  mutable head : int array; (* first edge out of the slot; -1: none *)
  mutable ready : int array; (* the ready slots, unordered *)
  mutable order : int array; (* the schedule, as slot numbers *)
  mutable loads : int array; (* the loads since the last store *)
  (* edges: target, and the next edge out of the same slot *)
  mutable edst : int array;
  mutable enext : int array;
  mutable n_edges : int;
  (* reads: the slot, and the next read of the same resource *)
  mutable rd_slot : int array;
  mutable rd_next : int array;
  mutable n_reads : int;
  (* per resource *)
  mutable last_writer : int array; (* slot; -1: none in this block *)
  mutable reads : int array; (* last read since its last write; -1: none *)
  mutable reg_ready : int array; (* cycle its value is ready *)
}

type 'a t = { info : 'a info; s : scratch }

(* Nothing is allocated until a block needs scheduling: many
   translations schedule nothing (Sparc only fills delay slots, the
   mobile x86 translator schedules only FP blocks). *)
let new_scratch () =
  {
    costs = Pipeline.costs 0;
    flags = [||];
    remaining = [||];
    ready_time = [||];
    height = [||];
    mark = [||];
    head = [||];
    ready = [||];
    order = [||];
    loads = [||];
    edst = [||];
    enext = [||];
    n_edges = 0;
    rd_slot = [||];
    rd_next = [||];
    n_reads = 0;
    last_writer = [||];
    reads = [||];
    reg_ready = [||];
  }

(* A domain's scratch between translations, as [Translate] keeps its
   buffers: taken by [create] (a straight line with no allocation, so no
   thread switch hands it out twice) and given back by [release]. Every
   block leaves it as it found it. *)
let spare : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create info =
  let r = Domain.DLS.get spare in
  match !r with
  | Some s ->
      r := None;
      { info; s }
  | None -> { info; s = new_scratch () }

let release t = Domain.DLS.get spare := Some t.s

(* Room for an [n]-slot block. *)
let reserve t n =
  let cap = Array.length t.flags in
  if n > cap then begin
    if cap = 0 then begin
      t.last_writer <- Array.make Pipeline.resources (-1);
      t.reads <- Array.make Pipeline.resources (-1);
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
    t.ready <- Array.make cap 0;
    t.order <- Array.make cap 0;
    t.loads <- Array.make cap 0;
    (* a slot reads at most four resources *)
    t.rd_slot <- Array.make (4 * cap) 0;
    t.rd_next <- Array.make (4 * cap) 0
  end

(* Reset the per-resource [board] to [v] for the resources of [p]. *)
let rec reset (board : int array) v p =
  if p <> 0 then begin
    board.(Pipeline.first p) <- v;
    reset board v (Pipeline.rest p)
  end

(* Decode the [n] slots of [src] from [lo], once each. Under [greedy],
   also step them in program order on the scoreboard: if none waits for
   an operand, that order is the greedy schedule (each step's lowest
   unscheduled slot is ready, and ready now), and [load] says so. *)
let load info t (src : 'a array) lo n ~greedy =
  reserve t n;
  let in_order = ref greedy and clock = ref 0 in
  for k = 0 to n - 1 do
    let s = src.(lo + k) in
    let w = info.cost s in
    Pipeline.set t.costs k w;
    t.flags.(k) <-
      (if Pipeline.is_load w then flag_load else 0)
      lor (if Pipeline.is_store w then flag_store else 0)
      lor if info.is_barrier s then flag_barrier else 0;
    if !in_order then
      if Pipeline.ready_at t.reg_ready (Pipeline.uses t.costs k) 0 > !clock then
        in_order := false
      else begin
        incr clock;
        Pipeline.set_ready t.reg_ready (Pipeline.defs t.costs k)
          (!clock - 1 + Pipeline.latency t.costs k)
      end
  done;
  if greedy then
    for k = 0 to n - 1 do
      reset t.reg_ready 0 (Pipeline.defs t.costs k)
    done;
  !in_order

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

(* RAW: slot [j] reads the resources of [p]; it follows their last
   writer, and joins their reads since. *)
let rec raw t j p =
  if p <> 0 then begin
    let r = Pipeline.first p in
    let w = t.last_writer.(r) in
    if w >= 0 then add_dep t w j;
    let x = t.n_reads in
    t.rd_slot.(x) <- j;
    t.rd_next.(x) <- t.reads.(r);
    t.reads.(r) <- x;
    t.n_reads <- x + 1;
    raw t j (Pipeline.rest p)
  end

(* WAW and WAR: slot [j] writes the resources of [p]; it follows their
   last writer and every slot that read them since, and their reads
   start again. *)
let rec war_waw t j p =
  if p <> 0 then begin
    let r = Pipeline.first p in
    let w = t.last_writer.(r) in
    if w >= 0 then add_dep t w j;
    let x = ref t.reads.(r) in
    while !x >= 0 do
      add_dep t t.rd_slot.(!x) j;
      x := t.rd_next.(!x)
    done;
    t.reads.(r) <- -1;
    t.last_writer.(r) <- j;
    war_waw t j (Pipeline.rest p)
  end

(* The dependence graph of the loaded [n]-slot body: register RAW, WAR
   and WAW; memory conservatively (stores in total order, loads ordered
   against stores both ways); nothing crosses a barrier. Stores form a
   chain and so do barriers, so a store follows only the last store and
   the loads since, a load only the last store, and a barrier the slots
   since the last barrier: every other such edge is implied by a path,
   and leaves readiness and every height as they were. *)
let build_deps t n =
  for k = 0 to n - 1 do
    t.remaining.(k) <- 0;
    t.mark.(k) <- -1;
    t.head.(k) <- -1
  done;
  t.n_edges <- 0;
  t.n_reads <- 0;
  let last_barrier = ref (-1) in
  let last_store = ref (-1) in
  let n_loads = ref 0 in
  for j = 0 to n - 1 do
    raw t j (Pipeline.uses t.costs j);
    war_waw t j (Pipeline.defs t.costs j);
    let f = t.flags.(j) in
    if f land flag_store <> 0 then begin
      if !last_store >= 0 then add_dep t !last_store j;
      for x = 0 to !n_loads - 1 do
        add_dep t t.loads.(x) j
      done;
      n_loads := 0;
      last_store := j
    end
    else if f land flag_load <> 0 then begin
      if !last_store >= 0 then add_dep t !last_store j;
      t.loads.(!n_loads) <- j;
      incr n_loads
    end;
    if !last_barrier >= 0 then add_dep t !last_barrier j;
    if f land flag_barrier <> 0 then begin
      for i = !last_barrier + 1 to j - 1 do
        add_dep t i j
      done;
      last_barrier := j
    end
  done;
  for k = 0 to n - 1 do
    reset t.last_writer (-1) (Pipeline.defs t.costs k);
    reset t.reads (-1) (Pipeline.uses t.costs k)
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

(* Slot [j] is ready: its predecessors are all scheduled, so the
   resources it reads have their last writers' ready cycles, which no
   unscheduled slot can change. *)
let make_ready t nready j =
  t.ready_time.(j) <- Pipeline.ready_at t.reg_ready (Pipeline.uses t.costs j) 0;
  t.ready.(nready) <- j;
  nready + 1

(* List-schedule the loaded [n]-slot body into [t.order]. Each step takes,
   among the ready slots, one whose operands are ready now if there is
   one; then, under [Critical_path], the greater height; then the lower
   slot number. *)
let list_schedule t ~critical n =
  let nready = ref 0 in
  for j = 0 to n - 1 do
    if t.remaining.(j) = 0 then nready := make_ready t !nready j
  done;
  let clock = ref 0 in
  for count = 0 to n - 1 do
    let bx = ref 0 in
    let b = ref t.ready.(0) in
    let now_b = ref (t.ready_time.(!b) <= !clock) in
    for x = 1 to !nready - 1 do
      let j = t.ready.(x) in
      let now_j = t.ready_time.(j) <= !clock in
      if
        if now_j <> !now_b then now_j
        else if critical && t.height.(j) <> t.height.(!b) then
          t.height.(j) > t.height.(!b)
        else j < !b
      then begin
        bx := x;
        b := j;
        now_b := now_j
      end
    done;
    let j = !b in
    decr nready;
    t.ready.(!bx) <- t.ready.(!nready);
    t.order.(count) <- j;
    let rt = t.ready_time.(j) in
    clock := (if rt > !clock then rt else !clock) + 1;
    Pipeline.set_ready t.reg_ready (Pipeline.defs t.costs j)
      (!clock - 1 + Pipeline.latency t.costs j);
    let e = ref t.head.(j) in
    while !e >= 0 do
      let s = t.edst.(!e) in
      let r = t.remaining.(s) - 1 in
      t.remaining.(s) <- r;
      if r = 0 then nready := make_ready t !nready s;
      e := t.enext.(!e)
    done
  done;
  for k = 0 to n - 1 do
    reset t.reg_ready 0 (Pipeline.defs t.costs k)
  done

(* Write the indices of the slots [lo, hi) of [src] into [dst] from
   [d], in schedule order. *)
let schedule { info; s = t } ~quality (src : 'a array) lo hi (dst : int array) d =
  let n = hi - lo in
  let critical = match quality with Critical_path -> true | Greedy -> false in
  if n < 2 || load info t src lo n ~greedy:(not critical) then
    for k = 0 to n - 1 do
      dst.(d + k) <- lo + k
    done
  else begin
    build_deps t n;
    if critical then critical_path t n;
    list_schedule t ~critical n;
    for k = 0 to n - 1 do
      dst.(d + k) <- lo + t.order.(k)
    done
  end

(* May [last], a scheduled body's last slot, which no later slot of the
   body can depend on, move into the delay slot of a branch of cost
   [branch_cost]? Not if it is a barrier, nor if the branch reads what it
   writes (RAW), both write one register (WAW), or it reads a register
   the branch writes (WAR: calls write the link register before the slot
   executes). *)
let fills_delay_slot t ~branch_cost last =
  (not (t.info.is_barrier last))
  &&
  let w = t.info.cost last in
  let uses = Pipeline.cost_uses w and defs = Pipeline.cost_defs w in
  let b_uses = Pipeline.cost_uses branch_cost
  and b_defs = Pipeline.cost_defs branch_cost in
  not
    (Pipeline.meets defs b_uses || Pipeline.meets defs b_defs
   || Pipeline.meets uses b_defs)

(* Shared definitions for the load-time translators and target simulators. *)

(* Why a native instruction exists, relative to the OmniVM instruction it
   came from. Dynamic counts per origin regenerate Figure 1 of the paper. *)
type origin =
  | Core (* direct translation of the OmniVM instruction *)
  | Addr (* addressing-mode expansion *)
  | Cmp (* compare half of a compare-and-branch *)
  | Ldi (* large-immediate materialization *)
  | Bnop (* unfilled branch delay slot *)
  | Sfi (* software fault isolation check *)

let origin_name = function
  | Core -> "core"
  | Addr -> "addr"
  | Cmp -> "cmp"
  | Ldi -> "ldi"
  | Bnop -> "bnop"
  | Sfi -> "sfi"

let all_origins = [ Core; Addr; Cmp; Ldi; Bnop; Sfi ]

let origin_index = function
  | Core -> 0
  | Addr -> 1
  | Cmp -> 2
  | Ldi -> 3
  | Bnop -> 4
  | Sfi -> 5

(* Code-quality tier of a native compiler baseline. [Cc] is the vendor
   compiler (better machine-dependent selection and scheduling), [Gcc] the
   portable compiler (the one retargeted to OmniVM in the paper). *)
type tier = Gcc | Cc

(* What the translator is producing: a sandboxed mobile module, or native
   code acting as a compiler baseline. *)
type mode = Mobile of Omni_sfi.Policy.t | Native of tier

let sfi_policy = function
  | Mobile p -> p
  | Native _ -> Omni_sfi.Policy.off

(* Translator optimizations (paper section 4.2: these are the cheap
   load-time optimizations; everything heavier belongs in the compiler). *)
type topts = {
  schedule : bool; (* local instruction scheduling *)
  fill_delay_slots : bool;
  use_gp : bool; (* global-pointer addressing of the data segment *)
  peephole : bool;
  sfi_opt : bool;
      (* the paper's future-work SFI optimization (4.4): reuse the
         sandboxed dedicated register for nearby stores to the same base,
         relying on the segment guard zone for the small displacement.
         Off by default: the paper's measured configuration predates it. *)
}

let all_opts = { schedule = true; fill_delay_slots = true; use_gp = true;
                 peephole = true; sfi_opt = false }

let no_opts = { schedule = false; fill_delay_slots = false; use_gp = false;
                peephole = false; sfi_opt = false }

(* What the translator declares it laid down while sandboxing: the number
   of data- and code-segment masking instructions it emitted. Carried on
   the translated program and cross-checked against the certifying
   verifier's witness (Omni_cert.Check), so producer and checker cannot
   silently drift apart. Scheduling reorders instructions but never adds
   or removes masks, so the counts survive every later pass. *)
type sfi_decl = {
  mutable data_masks : int;
  mutable code_masks : int;
}

let new_sfi_decl () = { data_masks = 0; code_masks = 0 }

(* --- execution statistics --- *)

type stats = {
  mutable instructions : int; (* dynamic native instructions *)
  by_origin : int array; (* indexed by origin_index *)
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable omni_instructions : int; (* dynamic OmniVM instructions *)
}

let new_stats () =
  {
    instructions = 0;
    by_origin = Array.make 6 0;
    cycles = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    taken_branches = 0;
    omni_instructions = 0;
  }

(* --- decoded slots ---

   A simulator run decodes each slot the first time it executes into a
   [table]: the slot's [Pipeline.costs], and a tag packing what is
   counted when it retires, its origin index in the low three bits, then
   the flags below (-1: not yet decoded). A retirement only adds one to
   the slot's count; [finish] folds the counts into the run's [stats]
   once, when it ends. A table is the run's alone while it runs;
   afterwards it goes back to a one-table spare per domain, so a server
   running one request after another decodes into the same storage
   instead of leaving a table per run to the major heap. Tables are not
   part of a translated program, which is marshalled into the journal
   and fingerprinted into certificates. *)

let tag_load = 8
let tag_store = 16
let tag_branch = 32 (* conditional: counted in [branches] *)
let tag_control = 64 (* transfers control; its target is evaluated *)
let tag_hcall = 128 (* a host call: the run may exit after it *)

type table = {
  costs : Pipeline.costs;
  tags : int array;
  counts : int array; (* times each slot retired in this run *)
}

let max_spare_slots = 1 lsl 16

let spare : table option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A table for [n] slots, none decoded or run. Taking the spare is a
   straight line with no allocation, so no thread switch can hand it out
   twice. Only its first [n] slots are reset: nothing reads past them. *)
let take_table n =
  let s = Domain.DLS.get spare in
  match !s with
  | Some t when Array.length t.tags >= n ->
      s := None;
      Array.fill t.tags 0 n (-1);
      Array.fill t.counts 0 n 0;
      t
  | Some _ | None ->
      { costs = Pipeline.costs n; tags = Array.make n (-1);
        counts = Array.make n 0 }

(* Keep [t] as the spare unless the spare is at least as large. *)
let give_table t =
  let n = Array.length t.tags in
  if n <= max_spare_slots then
    let s = Domain.DLS.get spare in
    match !s with
    | Some k when Array.length k.tags >= n -> ()
    | Some _ | None -> s := Some t

(* Decode slot [k], of cost [w], into [t]; returns its tag.
   [branch]: a conditional branch; [control]: it transfers control;
   [hcall]: a host call. *)
let decode t k w origin ~branch ~control ~hcall =
  Pipeline.set t.costs k w;
  let tag =
    origin_index origin
    lor (if Pipeline.is_load w then tag_load else 0)
    lor (if Pipeline.is_store w then tag_store else 0)
    lor (if branch then tag_branch else 0)
    lor (if control then tag_control else 0)
    lor if hcall then tag_hcall else 0
  in
  t.tags.(k) <- tag;
  tag

(* End a run over the first [n] slots of [t]: fold their counts into [s],
   which holds only the live [taken_branches] so far, read the cycles off
   [pipe], and give [t] back. *)
let finish s pipe t n =
  for k = 0 to n - 1 do
    let c = t.counts.(k) in
    if c <> 0 then begin
      let tag = t.tags.(k) in
      let oi = tag land 7 in
      s.instructions <- s.instructions + c;
      s.by_origin.(oi) <- s.by_origin.(oi) + c;
      if tag land tag_load <> 0 then s.loads <- s.loads + c;
      if tag land tag_store <> 0 then s.stores <- s.stores + c;
      if tag land tag_branch <> 0 then s.branches <- s.branches + c
    end
  done;
  s.omni_instructions <- s.by_origin.(origin_index Core);
  s.cycles <- Pipeline.cycles pipe;
  give_table t

type outcome =
  | Exited of int
  | Faulted of Omnivm.Fault.t
  | Out_of_fuel

(* Expansion profile: extra native instructions per OmniVM instruction,
   split by origin (Figure 1's y-axis). *)
let expansion_profile stats =
  let base = float_of_int (max 1 stats.omni_instructions) in
  List.filter_map
    (fun o ->
      match o with
      | Core -> None
      | _ ->
          Some
            ( origin_name o,
              float_of_int stats.by_origin.(origin_index o) /. base ))
    all_origins

(* [Array.of_list l], seeded with [dummy] instead of [l]'s head: in OCaml
   5, seeding an array longer than 256 words with a young block forces a
   minor collection. [dummy] should be a static constant. *)
let array_of_list ~dummy l =
  let a = Array.make (List.length l) dummy in
  List.iteri (fun k x -> a.(k) <- x) l;
  a

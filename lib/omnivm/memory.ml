(* Segmented byte-addressed memory with host-imposed permissions.

   The address space is a small set of mapped regions (code, data, host,
   ...). Multi-byte values are stored little-endian: OmniVM data formats are
   endian-neutral (paper 3.3), so an implementation picks an order; ours is
   little-endian and the [Ext]/[Ins] instructions give programs portable
   byte access.

   Each region is a table of 4 KiB pages. A region starts out sharing the
   pages of its initial contents: every never-written page is the one
   shared zero page, and a loaded module's initialized data pages belong
   to the loader's blueprint. Shared pages are never written. The first
   write to a page — a guest store or the trusted [blit_in] — gives the
   region its own copy (and its own copies of the tables leading to it),
   so mapping a 16 MiB segment from shared pages copies nothing and an
   instance holds only the pages it has written.

   [release] hands a finished memory's own pages to a small per-domain
   free list, from which later first writes take their copies: a server
   running one request after another reuses the same few pages instead
   of leaving each request's pages to the major heap. A page on the list
   belongs to no region, and a reused page is overwritten whole before
   any region can read it. *)

type perm = { read : bool; write : bool; execute : bool }

let perm_rw = { read = true; write = true; execute = false }
let perm_r = { read = true; write = false; execute = false }
let perm_rx = { read = true; write = false; execute = true }
let perm_rwx = { read = true; write = true; execute = true }

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* A region's page table has two levels, a directory of leaves of 64
   pages each, so that the tables an instance copies on its first writes
   are small young blocks (a 16 MiB segment: a 64-entry directory and one
   64-entry leaf per 256 KiB touched) rather than one 4096-entry array. *)
let leaf_bits = 6
let leaf_mask = (1 lsl leaf_bits) - 1
let leaf_shift = page_bits + leaf_bits

(* The one zero page every untouched page of every region points at, and
   the leaf of zero pages every untouched leaf is. *)
let zero_page = Bytes.make page_size '\000'
let zero_leaf = Array.make (1 lsl leaf_bits) zero_page

(* An immutable page table: each page is [zero_page] or a page that no
   region ever writes, each leaf [zero_leaf] or a leaf no region writes. *)
type pages = Bytes.t array array

let leaf_count size = (size + (1 lsl leaf_shift) - 1) lsr leaf_shift

let pages ~size ~at src =
  let len = Bytes.length src in
  if size <= 0 || at < 0 || at + len > size then invalid_arg "Memory.pages";
  let dir = Array.make (leaf_count size) zero_leaf in
  if len > 0 then
    for i = at lsr page_bits to (at + len - 1) lsr page_bits do
      let page_lo = i lsl page_bits in
      let lo = max at page_lo and hi = min (at + len) (page_lo + page_size) in
      let page = Bytes.make page_size '\000' in
      Bytes.blit src (lo - at) page (lo - page_lo) (hi - lo);
      if not (Bytes.equal page zero_page) then begin
        let j = i lsr leaf_bits in
        if dir.(j) == zero_leaf then dir.(j) <- Array.copy zero_leaf;
        dir.(j).(i land leaf_mask) <- page
      end
    done;
  dir

type region = {
  name : string;
  base : int;
  size : int;
  mutable perm : perm;
  init : pages; (* shared, never written *)
  mutable dir : Bytes.t array array;
      (* physically [init] until the first write; then a leaf is [init]'s
         until the first write to one of its pages *)
}

let base r = r.base
let size r = r.size

type t = {
  mutable regions : region array;
  mutable last : region; (* the region of the latest access *)
  mutable resident : int; (* pages this memory owns *)
}

let no_region =
  { name = ""; base = 0; size = 0; perm = perm_r; init = [||]; dir = [||] }

let create () = { regions = [||]; last = no_region; resident = 0 }
let resident_pages t = t.resident

(* The calling domain's free pages: [pages.(0 .. count - 1)]. Only pages
   some region owned go here, never a shared page. Each push and pop is
   a straight line with no allocation or call that could switch threads
   between reading [count] and writing it. *)
type free_list = { pages : Bytes.t array; mutable count : int }

let free_bound = 256 (* pages: 1 MiB per domain *)

let free =
  Domain.DLS.new_key (fun () ->
      { pages = Array.make free_bound zero_page; count = 0 })

let recycled_pages () = (Domain.DLS.get free).count

(* A copy of page [src]: a free page overwritten whole, or a new one. *)
let copy_page src =
  let fl = Domain.DLS.get free in
  let n = fl.count - 1 in
  if n < 0 then Bytes.copy src
  else begin
    let page = fl.pages.(n) in
    fl.pages.(n) <- zero_page;
    fl.count <- n;
    Bytes.blit src 0 page 0 page_size;
    page
  end

let map ?init t ~name ~base ~size ~perm =
  if size <= 0 then invalid_arg "Memory.map: size";
  if base land page_mask <> 0 then invalid_arg "Memory.map: base not page aligned";
  let init =
    match init with
    | None -> Array.make (leaf_count size) zero_leaf
    | Some p ->
        if Array.length p <> leaf_count size then
          invalid_arg "Memory.map: init size";
        p
  in
  Array.iter
    (fun r' ->
      if base < r'.base + r'.size && r'.base < base + size then
        invalid_arg "Memory.map: overlapping regions")
    t.regions;
  let r = { name; base; size; perm; init; dir = init } in
  t.regions <- Array.append t.regions [| r |];
  r

let region_of t addr =
  Array.find_opt (fun r -> addr >= r.base && addr < r.base + r.size) t.regions

let set_perm t name perm =
  match Array.find_opt (fun r -> String.equal r.name name) t.regions with
  | Some r -> r.perm <- perm
  | None -> invalid_arg "Memory.set_perm: unknown region"

(* Unmap every region and put the pages they own on the free list; the
   tables go back to their initial (shared) state, so nothing left
   reachable from [t] or its regions leads to a released page. *)
let release t =
  let fl = Domain.DLS.get free in
  let give page =
    let n = fl.count in
    if n < free_bound then begin
      fl.pages.(n) <- page;
      fl.count <- n + 1
    end
  in
  Array.iter
    (fun r ->
      if r.dir != r.init then
        Array.iteri
          (fun j leaf ->
            let shared = r.init.(j) in
            if leaf != shared then
              Array.iteri
                (fun k page -> if page != shared.(k) then give page)
                leaf)
          r.dir;
      r.dir <- r.init)
    t.regions;
  t.regions <- [||];
  t.last <- no_region;
  t.resident <- 0

let fault addr access = raise (Fault.Vm_fault (Access_violation { addr; access }))

(* The region holding [addr]: one range check against the region of the
   previous access, a scan of the few mapped regions otherwise. *)
let[@inline never] scan t addr access =
  match region_of t addr with
  | Some r ->
      t.last <- r;
      r
  | None -> fault addr access

let[@inline] region t addr access =
  let r = t.last in
  let off = addr - r.base in
  if off >= 0 && off < r.size then r else scan t addr access

(* The region of a [width]-byte access at [addr], after the permission
   check at [addr] and the region-end check at [addr + width - 1]: an
   access straddling the end of its region is a violation there. *)
let[@inline] check t addr width access =
  let r = region t addr access in
  let ok =
    match access with
    | Fault.Read -> r.perm.read
    | Fault.Write -> r.perm.write
    | Fault.Execute -> r.perm.execute
  in
  if not ok then fault addr access;
  if addr - r.base + width > r.size then fault (addr + width - 1) access;
  r

(* The page holding byte [off] of region [r]. *)
let[@inline] page r off =
  Array.unsafe_get
    (Array.unsafe_get r.dir (off lsr leaf_shift))
    ((off lsr page_bits) land leaf_mask)

(* Page [k] of leaf [j] of [r] for writing: the region's own copy, made
   on first write, after copying the directory and the leaf if the region
   does not own them yet. *)
let[@inline never] own t r j k =
  if r.dir == r.init then r.dir <- Array.copy r.init;
  let leaf = r.dir.(j) in
  let leaf =
    if leaf != r.init.(j) then leaf
    else
      let copy = Array.copy leaf in
      r.dir.(j) <- copy;
      copy
  in
  let page = copy_page leaf.(k) in
  leaf.(k) <- page;
  t.resident <- t.resident + 1;
  page

(* The page holding byte [off] of [r], owned by [r]. *)
let[@inline] writable_page t r off =
  let j = off lsr leaf_shift and k = (off lsr page_bits) land leaf_mask in
  let page = Array.unsafe_get (Array.unsafe_get r.dir j) k in
  if page != Array.unsafe_get (Array.unsafe_get r.init j) k then page
  else own t r j k

(* Byte [off] of region [r]: the fallback for accesses that straddle a
   page boundary. *)
let get_byte r off = Char.code (Bytes.unsafe_get (page r off) (off land page_mask))

let set_byte t r off v =
  Bytes.unsafe_set (writable_page t r off) (off land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* Loads return canonical Word32 values (unsigned for sub-word widths). *)

let load8 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 1 Fault.Read in
  get_byte r (addr - r.base)

let store8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 1 Fault.Write in
  set_byte t r (addr - r.base) v

let load16 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 2 Fault.Read in
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 2 then
    Bytes.get_uint16_le (page r off) po
  else get_byte r off lor (get_byte r (off + 1) lsl 8)

let store16 t addr v =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 2 Fault.Write in
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 2 then
    Bytes.set_uint16_le (writable_page t r off) po (v land 0xFFFF)
  else (
    set_byte t r off v;
    set_byte t r (off + 1) (v lsr 8))

let load32 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 4 Fault.Read in
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page r off) po)
  else
    Omni_util.Word32.of_bytes (get_byte r off)
      (get_byte r (off + 1))
      (get_byte r (off + 2))
      (get_byte r (off + 3))

(* The write half of [store32], after its checks have passed. *)
let write32 t r addr v =
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 4 then
    Bytes.set_int32_le (writable_page t r off) po (Int32.of_int v)
  else
    for i = 0 to 3 do
      set_byte t r (off + i) (v lsr (8 * i))
    done

let store32 t addr v =
  let addr = addr land 0xFFFFFFFF in
  write32 t (check t addr 4 Fault.Write) addr v

(* An 8-byte access is two 4-byte halves, each checked as [load32] and
   [store32] check it. When the low half's checks pass and all 8 bytes lie
   in one page of its region, the high half's checks pass too, and the
   access is one page read or write; otherwise it is made half by half. *)

let load64_halves t addr =
  let lo = load32 t addr land 0xFFFFFFFF in
  let hi = load32 t (addr + 4) land 0xFFFFFFFF in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let[@inline] load64 t addr =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 4 Fault.Read in
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 8 && off + 8 <= r.size then
    Bytes.get_int64_le (page r off) po
  else load64_halves t addr

(* Both halves are checked before either is written: a store that faults
   leaves memory untouched. *)
let store64_halves t addr lo hi =
  let lo_addr = addr land 0xFFFFFFFF and hi_addr = (addr + 4) land 0xFFFFFFFF in
  let lo_r = check t lo_addr 4 Fault.Write in
  let hi_r = check t hi_addr 4 Fault.Write in
  write32 t lo_r lo_addr lo;
  write32 t hi_r hi_addr hi

let store_words t addr lo hi =
  let addr = addr land 0xFFFFFFFF in
  let r = check t addr 4 Fault.Write in
  let off = addr - r.base in
  let po = off land page_mask in
  if po <= page_size - 8 && off + 8 <= r.size then
    Bytes.set_int64_le (writable_page t r off) po
      (Int64.logor
         (Int64.of_int (lo land 0xFFFFFFFF))
         (Int64.shift_left (Int64.of_int hi) 32))
  else store64_halves t addr lo hi

let[@inline] store64 t addr v =
  store_words t addr (Int64.to_int v) (Int64.to_int (Int64.shift_right_logical v 32))

let load_float t addr = Int64.float_of_bits (load64 t addr)
let store_float t addr f = store64 t addr (Int64.bits_of_float f)

let load_single t addr =
  Int32.float_of_bits (Int32.of_int (load32 t addr land 0xFFFFFFFF))

let store_single t addr f =
  store32 t addr (Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF)

(* Bulk access, bypassing permissions: used by the loader and the host,
   which are trusted. [span] calls [f r off at n] for each page of region
   [r] that the [len] bytes at [addr] cover, in address order: bytes
   [at..at+n-1] of the range are the [n] bytes at offset [off] of [r],
   all in one page. *)

let span ~what t ~addr ~len f =
  match region_of t addr with
  | None -> invalid_arg ("Memory." ^ what ^ ": unmapped")
  | Some r ->
      let start = addr - r.base in
      if start + len > r.size then invalid_arg ("Memory." ^ what ^ ": overflow");
      let rec go off =
        if off < start + len then begin
          let n = min (page_size - (off land page_mask)) (start + len - off) in
          f r off (off - start) n;
          go (off + n)
        end
      in
      go start

let blit_in t ~addr (src : Bytes.t) =
  span ~what:"blit_in" t ~addr ~len:(Bytes.length src) (fun r off at n ->
      Bytes.blit src at (writable_page t r off) (off land page_mask) n)

let read_bytes t ~addr ~len =
  let dst = Bytes.create len in
  span ~what:"read_bytes" t ~addr ~len (fun r off at n ->
      Bytes.blit (page r off) (off land page_mask) dst at n);
  dst

(* Read a NUL-terminated string (for host calls that take C strings). *)
let read_cstring t ~addr ~max_len =
  let buf = Buffer.create 32 in
  let rec go a n =
    if n >= max_len then Buffer.contents buf
    else
      let c = load8 t a in
      if c = 0 then Buffer.contents buf
      else (
        Buffer.add_char buf (Char.chr c);
        go (a + 1) (n + 1))
  in
  go addr 0

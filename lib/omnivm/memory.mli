(** Segmented, byte-addressed memory with host-imposed permissions.

    The address space is a set of non-overlapping mapped regions (code,
    data, host, ...). Multi-byte values are little-endian: OmniVM's data
    formats are endian-neutral (paper 3.3), so each implementation picks an
    order and programs use the [ext]/[ins] instructions for portable byte
    access.

    Access outside any region, against a region's permissions, or
    straddling a region boundary raises {!Fault.Vm_fault} with an
    access-violation payload.

    Regions are tables of 4 KiB pages. Pages nobody has written are shared
    read-only (the zero page, or the {!pages} a region was mapped from);
    the first write to a page copies it, so a memory holds only the pages
    it has written. *)

type perm = { read : bool; write : bool; execute : bool }

val perm_rw : perm
val perm_r : perm
val perm_rx : perm
val perm_rwx : perm

type region

val base : region -> int
val size : region -> int

type pages
(** The initial contents of a region: an immutable page table that every
    region mapped from it shares until it writes. *)

val pages : size:int -> at:int -> Bytes.t -> pages
(** [pages ~size ~at b] is [size] bytes, zero except for [b] at offset
    [at]. All-zero pages are the shared zero page.
    @raise Invalid_argument unless [b] fits. *)

type t

val create : unit -> t

val map :
  ?init:pages -> t -> name:string -> base:int -> size:int -> perm:perm -> region
(** Map a region reading as [init] (default: all zero) without copying
    it. [base] must be page (4 KiB) aligned.
    @raise Invalid_argument on overlap or bad arguments, or if [init] was
    built for another size. *)

val region_of : t -> int -> region option

val set_perm : t -> string -> perm -> unit
(** Change a region's permissions by name (the host-imposed permission
    model of the paper's SDCA). *)

val resident_pages : t -> int
(** Pages this memory has copied on write and owns. *)

val release : t -> unit
(** Unmap every region and hand the pages this memory owns to the calling
    domain's free list (at most 256 pages are kept), from which later
    copies on write take their pages, overwriting them whole. Shared
    pages are never freed. Afterwards every checked access to [t] faults
    and every bulk access raises [Invalid_argument]; [t] must not be
    released while another domain uses it. *)

val recycled_pages : unit -> int
(** Pages on the calling domain's free list. *)

(** {2 Checked accesses} — loads return canonical {!Omni_util.Word32}
    values (unsigned for sub-word widths). An 8-byte access is two
    4-byte halves at [addr] and [addr + 4], each checked on its own; a
    store writes neither half unless both pass. *)

val load8 : t -> int -> int
val load16 : t -> int -> int
val load32 : t -> int -> int
val load64 : t -> int -> int64
val load_float : t -> int -> float
val load_single : t -> int -> float
val store8 : t -> int -> int -> unit
val store16 : t -> int -> int -> unit
val store32 : t -> int -> int -> unit
val store64 : t -> int -> int64 -> unit

val store_words : t -> int -> int -> int -> unit
(** [store_words t addr lo hi] is the 8-byte store of the value whose low
    and high halves are the low 32 bits of [lo] and [hi]: {!store64} with
    its value passed as two ints, which a caller need not box. *)

val store_float : t -> int -> float -> unit
val store_single : t -> int -> float -> unit

(** {2 Trusted bulk access} — used by the loader and host; bypasses
    permissions. The range must lie in one region.
    @raise Invalid_argument otherwise. *)

val blit_in : t -> addr:int -> Bytes.t -> unit
val read_bytes : t -> addr:int -> len:int -> Bytes.t

val read_cstring : t -> addr:int -> max_len:int -> string
(** Read a NUL-terminated string (for host calls taking C strings). *)

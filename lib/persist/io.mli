(** Filesystem capability for the persistent store.

    The store never touches the filesystem directly; it goes through one
    of these, so every disk failure mode can be injected deterministically
    — the disk analogue of {!Omni_net.Fault}'s wire damage. Two
    implementations:

    - {!real}: POSIX files rooted in one directory (flat names, no
      subdirectories), with genuine [fsync] and durable renames;
    - {!sim}: an in-memory disk model that distinguishes bytes merely
      written from bytes made durable by [fsync], plus an armed fault
      plan. A simulated crash ({!Crashed}) freezes the disk; {!reboot}
      discards everything volatile — exactly what a power cut does — and
      the store is then re-opened over the survivors.

    All fault indices are deterministic: mutating operations (append,
    fsync, rename, remove, truncate) are numbered from 0 in call order
    ({!mutations} reads the count), renames are numbered separately, so a
    seeded test can enumerate every kill point of a workload. *)

exception Crashed of string
(** The simulated process died at this operation. Every later operation
    on the same [t] re-raises until {!reboot}. Never raised by {!real}. *)

(** One armed fault. Operation indices count mutating operations; rename
    indices count renames only. *)
type fault =
  | Crash_at of int  (** die just before mutating operation [n] *)
  | Torn_write of { op : int; keep : int }
      (** append [op] tears: only the first [keep] bytes reach the
          platter (durably — the half-written sector survives), then the
          process dies *)
  | Bit_flip of { op : int; bit : int }
      (** append [op] writes one flipped bit (silent media corruption);
          the process continues, the lie is found at recovery *)
  | Short_read of { file : string; drop : int }
      (** reads of [file] lose their last [drop] bytes — a torn tail
          seen at read time *)
  | Drop_fsync  (** fsync reports success but makes nothing durable *)
  | Crash_before_rename of int
      (** die at rename [n], old name still in place *)
  | Crash_after_rename of int
      (** rename [n] commits durably, then the process dies *)

type t

val real : dir:string -> t
(** Files under [dir] (created, with parents, if missing). *)

val sim : ?faults:fault list -> unit -> t
(** Fresh empty simulated disk with the given fault plan armed. *)

val reboot : t -> unit
(** Simulate the machine coming back up: volatile (un-fsynced) bytes are
    gone, the crashed flag clears, the remaining fault plan stays armed.
    No-op on {!real}. *)

val disarm : t -> unit
(** Drop any remaining armed faults (sim only; no-op on real). *)

val mutations : t -> int
(** Mutating operations performed so far (sim counts; real returns 0) —
    the kill-point space for a crash matrix. *)

(* -- operations ------------------------------------------------------- *)

val read : t -> string -> string option
(** Whole-file contents; [None] if absent. The live process sees its own
    un-fsynced writes. *)

val exists : t -> string -> bool

val size : t -> string -> int option
(** Physical size in bytes; [None] if absent. *)

val append : t -> string -> string -> unit
(** Append bytes to the named file, creating it if missing. A created
    file's directory entry is durable on return (the real implementation
    syncs the directory); its bytes need {!fsync}. *)

val fsync : t -> string -> unit
(** Make the file's current bytes durable. Missing file is a no-op. *)

val rename : t -> string -> string -> unit
(** Atomic replace; the commit point of every multi-step update. Durable
    on return (the real implementation also syncs the directory). *)

val remove : t -> string -> unit
(** Delete; missing file is a no-op. *)

val truncate : t -> string -> int -> unit
(** Cut the file to [len] bytes (used to drop torn tails at recovery).
    Missing file is a no-op. *)

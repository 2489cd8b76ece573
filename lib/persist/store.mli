(** Crash-safe on-disk store for modules and certified translations.

    On disk, one generation of the store is two files plus two markers
    (all flat names under the {!Io.t} root, all little-endian):

    - [seg-<gen>.dat] — append-only data segment of self-checksummed
      records: [kind(1) | len(4) | payload(len) | fnv64(8)] where the
      digest covers kind+len+payload. Kind 1 is a module (payload = the
      wire bytes); kind 2 is a certified translation (payload = its
      omni-cert/1 bytes, nothing else: the certificate names the module
      digest, the architecture, the translator options, [protect_reads],
      the pad mode and the sandbox layout). No code is stored.
    - [journal-<gen>.wal] — the write-ahead commit log: one fixed-size
      37-byte record per committed segment record: [seq(8) | kind(1) |
      offset(8) | rec_len(4) | payload_digest(8) | fnv64(8)]. A segment
      record exists, for recovery, exactly when its journal record is
      durable and valid — the segment is fsynced before the journal entry
      is appended, so the journal never points at bytes that were lost.
    - [current] — the generation pointer, replaced by write-fsync-rename
      (the commit point of {!compact}).
    - [clean] — the clean-shutdown marker ([gen jlen jdigest]), written
      by write-fsync-rename at {!close} and deleted at open; its presence
      and agreement with the journal licenses the fast recovery path.

    Recovery ({!open_}) replays the journal as a prefix-valid structure:
    the first torn or out-of-sequence journal record ends the replay and
    the tails of both files are dropped (counted in [persist.torn]). Each
    replayed record is then proven, not trusted: checksum, payload
    digest, module decode, certificate decode. A translation's code is
    re-derived, not read: its module is looked up by the certificate's
    digest, translated under the configuration the certificate names
    ([Mobile (Policy.make ~protect_reads ~pad ())] and its [opts]), and
    the fresh code is proven by {!Omni_cert.Check.bind} against its
    fingerprint and — on a dirty restart — by the full per-instruction
    obligation check. Translation is a pure function of the module and
    its configuration, so recovery costs one translation per journaled
    configuration, and code that the current translator no longer
    produces is never served. Anything that lies is quarantined with a
    typed reason ([persist.quarantined]), never raised and never served.
    Only translations that carried a certificate are ever persisted, so
    every recovered translation has a witness to re-check.

    Threat model: the checksum/digest/witness chain detects arbitrary
    {e random} corruption (every fault {!Io.sim} can inject). FNV-64 is
    not collision-resistant against an adversary. Bytes read from disk
    reach only total decoders ({!Omnivm.Wire.decode},
    {!Omni_cert.Certificate.decode}), so a record written by another
    build is refused, never mistaken for code. An attacker with write
    access to the store directory is otherwise outside the model,
    exactly as one with write access to the daemon binary is. *)

module Fnv64 = Omni_util.Fnv64
module Machine = Omni_targets.Machine
module Certificate = Omni_cert.Certificate
module Translated = Omni_targets.Translated

(** Why a replayed record was refused — the typed quarantine. [seq] is
    the journal sequence number of the offending record. *)
type corrupt =
  | Bad_record of { seq : int; detail : string }
      (** framing or checksum failure inside the segment record *)
  | Payload_digest_mismatch of { seq : int }
      (** segment payload disagrees with the journal's commit record *)
  | Bad_module of { seq : int; detail : string }
      (** stored wire bytes no longer decode *)
  | Bad_cert of { seq : int; detail : string }
      (** the stored certificate does not decode *)
  | Cert_unbound of { seq : int; detail : string }
      (** the certificate does not speak about the re-derived translation
          (fingerprint / policy / opts / layout mismatch, or the module
          does not translate under its configuration) *)
  | Obligations_failed of { seq : int; detail : string }
      (** the witness obligations fail against the recovered code *)
  | Module_missing of { seq : int; digest : Fnv64.t }
      (** a translation whose module did not survive recovery *)

val corrupt_to_string : corrupt -> string

val corrupt_seq : corrupt -> int

(** A recovered certified translation, ready for cache re-admission.
    Everything but the certificate is derived from it at recovery. *)
type rtrans = {
  rt_module : Fnv64.t;  (** digest of the module it translates *)
  rt_mode : Machine.mode;
  rt_opts : Machine.topts;
  rt_prog : Translated.t;  (** re-translated from the recovered module *)
  rt_cert : Certificate.t;
  rt_fp : Fnv64.t;  (** fingerprint of [rt_prog] *)
}

(** What a recovery scan established. *)
type recovered = {
  r_clean : bool;  (** the clean-shutdown marker was present and valid *)
  r_modules : string list;  (** validated module wire bytes, oldest first *)
  r_translations : rtrans list;  (** validated translations, oldest first *)
  r_quarantined : corrupt list;
  r_torn : int;  (** torn tails dropped (journal and/or segment) *)
  r_replayed : int;  (** journal records replayed *)
}

type t

val open_ : ?metrics:Omni_obs.Metrics.t -> Io.t -> t * recovered
(** Open (or create) the store and run total recovery. Registers and
    bumps the [persist.{replay,recovered,quarantined,torn}] counters in
    [metrics]; never raises on any on-disk state — a store directory
    full of garbage opens empty with everything quarantined or torn.
    Truncates torn tails and consumes the clean marker, so the store is
    dirty until the next {!close}. *)

val append_module : t -> string -> unit
(** Journal one module's wire bytes (segment append, fsync, journal
    append, fsync — durable on return). Counted in [persist.append].
    Thread-safe. *)

val append_translation : t -> cert:Certificate.t -> unit
(** Journal one certified translation as its certificate. Same
    durability and counting as {!append_module}. Callers persist only
    certified (Sandbox-verified) translations; anything else has no
    witness to re-check at recovery. *)

val flush : t -> unit
(** Barrier: every accepted append is durable (appends are synchronous,
    so this only has to take and release the store lock). *)

val close : t -> unit
(** Flush and commit the clean-shutdown marker (write-fsync-rename).
    Further appends raise [Failure]. *)

(* -- offline tooling (omnirun store ...) ------------------------------ *)

type stat = {
  st_gen : int;
  st_seg_bytes : int;
  st_journal_bytes : int;
  st_records : int;  (** whole journal records physically present *)
  st_clean : bool;  (** marker present and consistent with the journal *)
}

val stat : Io.t -> stat
(** Cheap physical inspection — no replay, no validation, no mutation. *)

val render_stat : stat -> string

val fsck : Io.t -> recovered
(** Full eager recovery scan (obligations checked even if the marker is
    clean) without mutating anything on disk — report-only. *)

val render_recovered : recovered -> string

val compact : ?metrics:Omni_obs.Metrics.t -> Io.t -> recovered * (int * int)
(** Rewrite the store as a new generation containing only the records
    that survive an eager {!fsck}, committing by renaming [current], then
    delete the old generation and leave a clean marker. Returns the scan
    report and (bytes before, bytes after). Crash-safe at every step:
    until the rename commits, the old generation is untouched. *)

(** Content-addressed module store.

    A serving host receives the same module bytes over and over — one
    upload per client, thousands of loads. The store digests the wire
    bytes (FNV-1a/64), deduplicates identical modules, and keeps the
    decoded executable plus a validated loading {!Omni_runtime.Loader.blueprint}
    so later instantiations skip decoding and size checks entirely.

    Admission is strict: {!submit} decodes (validating the wire format)
    and computes the blueprint (validating segment fit), so a handle
    always names a loadable module. *)

type handle
(** Names a stored module; content-derived, so equal bytes yield equal
    handles. *)

val digest : handle -> Omni_util.Fnv64.t
val digest_hex : handle -> string
val equal_handle : handle -> handle -> bool

type t

val shards : int
(** 8: the digest-shard count of the store and of the translation
    cache. *)

val create : ?counters:Counters.t -> ?persist:Omni_persist.Store.t -> unit -> t
(** [counters] lets a service aggregate store activity with the rest of
    the pipeline; a private record is used when omitted. [persist]
    attaches a journaled on-disk store: every fresh admission is
    journaled (write-behind, under the module's shard lock) so it
    survives a restart. The {!shards} shards partition the store by
    digest so concurrent submits and lookups of unrelated modules never
    contend; all operations are safe from multiple domains, and counter
    accounting stays exact under races (a module concurrently submitted
    by many clients is stored once, the rest count as dedup hits). *)

exception Collision of handle
(** Two distinct byte strings hit the same digest (astronomically
    unlikely; detected by byte comparison on every dedup hit). *)

val submit : ?producer:string -> t -> string -> handle
(** Admit wire bytes, deduplicating by content. [producer] names the
    front-end that made the module (e.g. ["minic"], ["stackvm"]); it is
    attribution metadata only — on a dedup hit the first submission's
    attribution is kept.
    @raise Omnivm.Wire.Bad_module on malformed bytes.
    @raise Invalid_argument if the module's data does not fit.
    @raise Collision on a digest collision. *)

val restore : t -> string -> handle
(** Re-admit module bytes recovered from the persistent store: counted
    as a held module ([modules], [bytes_stored]) but not as client
    traffic (no [submits]), and never re-journaled. It shares
    {!submit}'s insert: the decode runs again, so a handle always names
    a loadable module, whatever its provenance.
    @raise Collision on a digest collision. *)

val find : t -> Omni_util.Fnv64.t -> handle option
(** The module this store holds under a content digest, whether a client
    submitted it or recovery restored it. The store is the one digest
    index: the wire names modules by digest, and this lookup (one shard
    lock) turns a digest into a handle. *)

exception Unknown_handle
(** Raised by the accessors below for a handle this store never issued. *)

val bytes : t -> handle -> string
val exe : t -> handle -> Omnivm.Exe.t
val blueprint : t -> handle -> Omni_runtime.Loader.blueprint

val predecoded : t -> handle -> Omnivm.Interp.code
(** The module's interpreter decode ({!Omnivm.Interp.decode}), made on
    the first call for a digest and shared by every later one (a decode
    is immutable). Accounting is exact even under concurrent first calls:
    one [vm.predecode.miss], hits for everyone else. *)

val producer : t -> handle -> string option
(** The declared front-end attribution, if any (flows into crash
    reports; see {!Supervise.report}). *)

val modules : t -> int

(** FNV-1a 64-bit content digests.

    Used by the serving layer to content-address mobile modules and to
    fingerprint translated programs. Not cryptographic: the store guards
    against (astronomically unlikely) collisions by comparing bytes on a
    digest match. *)

type t = int64

val digest_string : ?seed:t -> string -> t
val digest_bytes : ?seed:t -> Bytes.t -> t

val mix_int : t -> int -> t
(** Fold an integer (e.g. a tag) into an existing digest. *)

val word_basis : int
val word_prime : int
(** Word-at-a-time folding for structural digests: start from
    [word_basis] and fold each field [v] as [h := (h lxor v) * word_prime]
    on a native int, open-coded so that it inlines into the caller's
    loop. One step per field, no allocation. *)

val fold_ints : int -> int array -> int
(** Fold an array's length, then each element. *)

val fold_floats : int -> float array -> int
(** Fold an array's length, then each element's bits, so [0.0] and
    [-0.0], and NaNs with different payloads, fold apart. *)

val of_words : int -> t
(** The digest of a word-folded accumulator: its 8 bytes folded into
    the FNV-1a basis as {!mix_int} folds them. *)

val to_hex : t -> string
(** 16 lowercase hex digits. *)

val equal : t -> t -> bool

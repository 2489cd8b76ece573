(* FNV-1a 64-bit: h := (h xor byte) * prime, per byte. *)

type t = int64

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let step h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) prime

(* Direct loops, one per input type: a per-byte accessor closure would
   cost a call and a boxed accumulator on every byte. *)
let digest_string ?(seed = offset_basis) s =
  let h = ref seed in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  !h

let digest_bytes ?(seed = offset_basis) b =
  let h = ref seed in
  for i = 0 to Bytes.length b - 1 do
    h := step !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

(* Fold a full OCaml int in 8 little-endian bytes. *)
let mix_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := step !h ((v lsr (8 * i)) land 0xff)
  done;
  !h

(* Word-at-a-time folding for structural digests: the FNV-1a step taken
   on a whole native int instead of a byte. Callers open-code the step,
   [h := (h lxor v) * word_prime], so it inlines into their loops. *)
let word_basis = Int64.to_int offset_basis
let word_prime = Int64.to_int prime
let of_words h = mix_int offset_basis h

let fold_ints h a =
  let h = ref ((h lxor Array.length a) * word_prime) in
  for k = 0 to Array.length a - 1 do
    h := (!h lxor Array.unsafe_get a k) * word_prime
  done;
  !h

(* Each float as the two 32-bit halves of its bits: one word would drop
   bit 63, the sign. *)
let fold_floats h a =
  let h = ref ((h lxor Array.length a) * word_prime) in
  for k = 0 to Array.length a - 1 do
    let bits = Int64.bits_of_float (Array.unsafe_get a k) in
    h := (!h lxor (Int64.to_int bits land 0xFFFF_FFFF)) * word_prime;
    h := (!h lxor Int64.to_int (Int64.shift_right_logical bits 32)) * word_prime
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal

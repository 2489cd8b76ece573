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

let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal

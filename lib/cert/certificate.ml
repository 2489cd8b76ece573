(* The omni-cert/1 witness format.

   A certificate packages the safety obligations a certifying verification
   produced (see Omni_sfi.Verifier.scan) together with everything that
   binds the witness to one specific translation:

     - the module's content digest (which bytes were translated),
     - the target architecture,
     - the SFI policy bit that matters to the witness (protect_reads; the
       mode itself must be Sandbox for a certificate to exist at all),
     - the translator options (they change the emitted code),
     - the sandbox layout constants the obligations implicitly reference
       (segment bases and masks),
     - the translated code's fingerprint and instruction count.

   Wire layout (all multi-byte integers big-endian; varints are unsigned
   LEB128):

     "OCRT"  version:u8=1  arch:u8  module_digest:i64  code_fp:i64
     flags:u8  data_base:var  data_mask:var  code_base:var  code_mask:var
     n_code:var  n_obs:var  (delta:var kind:u8){n_obs}  self_digest:i64

   Obligation indices are delta-coded against the previous index (starting
   from -1), so a valid stream has every delta >= 1 — strict monotonicity
   is a property of the format, not a convention. The trailing self digest
   is the FNV-64 of everything before it; together with the exhaustive
   field checks this makes [decode] total on arbitrary bytes: every input
   is either structurally valid or named garbage, never an exception. *)

module Arch = Omni_targets.Arch
module Machine = Omni_targets.Machine
module Witness = Omni_sfi.Witness
module Fnv64 = Omni_util.Fnv64
module L = Omnivm.Layout

let magic = "OCRT"
let version = 1
let format_name = "omni-cert/1"

type t = {
  arch : Arch.t;
  module_digest : Fnv64.t;
  code_fp : Fnv64.t;
  protect_reads : bool;
  pad : Omni_sfi.Policy.pad;
      (* the masking-sequence layout variant the code was produced under;
         a witness checked against a different padding mode would accept
         or reject the wrong displacement bound, so the certificate binds
         it (flags bits 6-7) *)
  opts : Machine.topts;
  data_base : int;
  data_mask : int;
  code_base : int;
  code_mask : int;
  n_code : int;
  obs : Witness.obligation array;
}

let make ~arch ~module_digest ~code_fp ~protect_reads ~pad ~opts ~n_code obs =
  {
    arch;
    module_digest;
    code_fp;
    protect_reads;
    pad;
    opts;
    data_base = L.data_base;
    data_mask = L.data_mask;
    code_base = L.code_base;
    code_mask = L.code_mask;
    n_code;
    obs;
  }

let equal (a : t) (b : t) = Stdlib.compare a b = 0

let arch_code = function
  | Arch.Mips -> 0
  | Arch.Sparc -> 1
  | Arch.Ppc -> 2
  | Arch.X86 -> 3

let arch_of_code = function
  | 0 -> Some Arch.Mips
  | 1 -> Some Arch.Sparc
  | 2 -> Some Arch.Ppc
  | 3 -> Some Arch.X86
  | _ -> None

let flags_of (c : t) =
  (if c.protect_reads then 1 else 0)
  lor (if c.opts.Machine.schedule then 2 else 0)
  lor (if c.opts.Machine.fill_delay_slots then 4 else 0)
  lor (if c.opts.Machine.use_gp then 8 else 0)
  lor (if c.opts.Machine.peephole then 16 else 0)
  lor (if c.opts.Machine.sfi_opt then 32 else 0)
  lor (Omni_sfi.Policy.pad_code c.pad lsl 6)

(* --- encoding --- *)

let w8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w64 b (v : int64) =
  for i = 7 downto 0 do
    w8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let rec wvar b v =
  (* unsigned LEB128; [v] must be >= 0 *)
  if v < 0x80 then w8 b v
  else begin
    w8 b (0x80 lor (v land 0x7f));
    wvar b (v lsr 7)
  end

let encode (c : t) : string =
  let b = Buffer.create (64 + (2 * Array.length c.obs)) in
  Buffer.add_string b magic;
  w8 b version;
  w8 b (arch_code c.arch);
  w64 b c.module_digest;
  w64 b c.code_fp;
  w8 b (flags_of c);
  wvar b c.data_base;
  wvar b c.data_mask;
  wvar b c.code_base;
  wvar b c.code_mask;
  wvar b c.n_code;
  wvar b (Array.length c.obs);
  let prev = ref (-1) in
  Array.iter
    (fun (ob : Witness.obligation) ->
      wvar b (ob.Witness.ox - !prev);
      prev := ob.Witness.ox;
      w8 b (Witness.kind_code ob.Witness.kind))
    c.obs;
  let body = Buffer.contents b in
  w64 b (Fnv64.digest_string body);
  Buffer.contents b

(* --- decoding (total) --- *)

type decode_error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Bad_arch of int
  | Bad_kind of int
  | Bad_order  (** obligation indices not strictly increasing *)
  | Bad_index  (** obligation index outside the code array *)
  | Oversized  (** a varint field exceeds any plausible value *)
  | Trailing_garbage
  | Bad_self_digest

let decode_error_to_string = function
  | Truncated -> "truncated certificate"
  | Bad_magic -> "bad magic (not an omni-cert)"
  | Bad_version v -> Printf.sprintf "unsupported certificate version %d" v
  | Bad_arch c -> Printf.sprintf "unknown architecture code %d" c
  | Bad_kind c -> Printf.sprintf "unknown obligation kind %d" c
  | Bad_order -> "obligation indices not strictly increasing"
  | Bad_index -> "obligation index outside the code array"
  | Oversized -> "oversized field"
  | Trailing_garbage -> "trailing bytes after certificate"
  | Bad_self_digest -> "self digest mismatch (corrupt certificate)"

exception Bad of decode_error

let decode (s : string) : (t, decode_error) result =
  let pos = ref 0 in
  let len = String.length s in
  let r8 () =
    if !pos >= len then raise (Bad Truncated)
    else begin
      let v = Char.code s.[!pos] in
      incr pos;
      v
    end
  in
  let r64 () =
    let v = ref 0L in
    for _ = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r8 ()))
    done;
    !v
  in
  let rvar () =
    let v = ref 0 and shift = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let byte = r8 () in
      (* cap well under OCaml's int width so shifts cannot wrap *)
      if !shift > 49 then raise (Bad Oversized);
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then continue_ := false
    done;
    !v
  in
  try
    if len < 4 || String.sub s 0 4 <> magic then raise (Bad Bad_magic);
    pos := 4;
    let v = r8 () in
    if v <> version then raise (Bad (Bad_version v));
    let ac = r8 () in
    let arch =
      match arch_of_code ac with
      | Some a -> a
      | None -> raise (Bad (Bad_arch ac))
    in
    let module_digest = r64 () in
    let code_fp = r64 () in
    let flags = r8 () in
    let data_base = rvar () in
    let data_mask = rvar () in
    let code_base = rvar () in
    let code_mask = rvar () in
    let n_code = rvar () in
    let n_obs = rvar () in
    if n_obs > n_code then raise (Bad Bad_index);
    (* every obligation needs at least 2 bytes, so this bound rejects
       absurd counts before allocating anything *)
    if n_obs > (len - !pos) / 2 then raise (Bad Truncated);
    let obs =
      Array.make n_obs { Witness.ox = 0; kind = Witness.Mask_data }
    in
    let prev = ref (-1) in
    for i = 0 to n_obs - 1 do
      let delta = rvar () in
      if delta < 1 then raise (Bad Bad_order);
      let ox = !prev + delta in
      if ox >= n_code then raise (Bad Bad_index);
      prev := ox;
      let kc = r8 () in
      match Witness.kind_of_code kc with
      | Some kind -> obs.(i) <- { Witness.ox = ox; kind }
      | None -> raise (Bad (Bad_kind kc))
    done;
    let body_end = !pos in
    let self = r64 () in
    if !pos <> len then raise (Bad Trailing_garbage);
    if not (Fnv64.equal self (Fnv64.digest_string (String.sub s 0 body_end)))
    then raise (Bad Bad_self_digest);
    Ok
      {
        arch;
        module_digest;
        code_fp;
        protect_reads = flags land 1 <> 0;
        pad =
          (match Omni_sfi.Policy.pad_of_code ((flags lsr 6) land 3) with
          | Some p -> p
          | None -> assert false (* 2 bits cover all four codes *));
        opts =
          {
            Machine.schedule = flags land 2 <> 0;
            fill_delay_slots = flags land 4 <> 0;
            use_gp = flags land 8 <> 0;
            peephole = flags land 16 <> 0;
            sfi_opt = flags land 32 <> 0;
          };
        data_base;
        data_mask;
        code_base;
        code_mask;
        n_code;
        obs;
      }
  with Bad e -> Error e

let summary (c : t) =
  Printf.sprintf
    "%s arch=%s module=%s code=%s instrs=%d obligations=%d bytes=%d"
    format_name (Arch.name c.arch)
    (Fnv64.to_hex c.module_digest)
    (Fnv64.to_hex c.code_fp)
    c.n_code (Array.length c.obs)
    (String.length (encode c))

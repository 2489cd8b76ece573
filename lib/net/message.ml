(* Message bodies, serialized into frame payloads.

   Integers travel as big-endian 64-bit values, strings as a u32 length
   prefix plus bytes, options as a presence byte. Decoding reads through
   a bounds-checked cursor and must consume the payload exactly, so a
   truncated or padded body is a decode error — and the only exception
   the cursor can raise is the private [Bad], caught at the [decode_*]
   boundary. *)

module Exec = Omni_service.Exec
module Machine = Omni_targets.Machine
module Fault = Omnivm.Fault
module Policy = Omni_sfi.Policy
module Arch = Omni_targets.Arch

type err_class =
  | E_decode
  | E_verifier_rejected
  | E_unknown_handle
  | E_limit_exceeded
  | E_internal
  | E_bad_frame
  | E_module_fault
  | E_quarantined
  | E_certificate_invalid
  | E_overloaded

let err_class_name = function
  | E_decode -> "decode"
  | E_verifier_rejected -> "verifier-rejected"
  | E_unknown_handle -> "unknown-handle"
  | E_limit_exceeded -> "limit-exceeded"
  | E_internal -> "internal"
  | E_bad_frame -> "bad-frame"
  | E_module_fault -> "module-fault"
  | E_quarantined -> "quarantined"
  | E_certificate_invalid -> "certificate-invalid"
  | E_overloaded -> "overloaded"

let err_class_code = function
  | E_decode -> 0
  | E_verifier_rejected -> 1
  | E_unknown_handle -> 2
  | E_limit_exceeded -> 3
  | E_internal -> 4
  | E_bad_frame -> 5
  | E_module_fault -> 6
  | E_quarantined -> 7
  | E_certificate_invalid -> 8
  | E_overloaded -> 9

let err_class_of_code = function
  | 0 -> Some E_decode
  | 1 -> Some E_verifier_rejected
  | 2 -> Some E_unknown_handle
  | 3 -> Some E_limit_exceeded
  | 4 -> Some E_internal
  | 5 -> Some E_bad_frame
  | 6 -> Some E_module_fault
  | 7 -> Some E_quarantined
  | 8 -> Some E_certificate_invalid
  | 9 -> Some E_overloaded
  | _ -> None

(* The message of an [E_module_fault] error leads with a machine-readable
   fault code, then prose: "fault-code=3 integer division by zero". The
   [Error] arity is unchanged (class + string everywhere); this is the one
   class whose message has structure, and these two functions are its
   codec. *)
let fault_message f =
  Printf.sprintf "fault-code=%d %s" (Fault.code f) (Fault.to_string f)

let fault_code_of_message msg =
  let p = "fault-code=" in
  let pl = String.length p in
  if String.length msg >= pl && String.sub msg 0 pl = p then
    let rest = String.sub msg pl (String.length msg - pl) in
    let digits =
      match String.index_opt rest ' ' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    int_of_string_opt digits
  else None

type mode_spec =
  | M_default
  | M_policy of { pmode : Policy.mode; protect_reads : bool; pad : Policy.pad }
  | M_native of Machine.tier

(* The wire form of a request's optional explicit mode, and back. Only
   policies over the standard layout travel; [M_default] leaves the
   decision to Exec.resolve on the server, as on a local run. *)
let mode_spec_of_mode = function
  | None -> M_default
  | Some (Machine.Mobile p) ->
      M_policy
        { pmode = p.Policy.mode; protect_reads = p.Policy.protect_reads;
          pad = p.Policy.pad }
  | Some (Machine.Native tier) -> M_native tier

let mode_of_spec = function
  | M_default -> None
  | M_policy { pmode; protect_reads; pad } ->
      Some (Machine.Mobile (Policy.make ~mode:pmode ~protect_reads ~pad ()))
  | M_native tier -> Some (Machine.Native tier)

type run_spec = {
  rs_handle : int64;
  rs_engine : Exec.engine;
  rs_sfi : bool;
  rs_mode : mode_spec;
  rs_fuel : int option;
  rs_deadline_s : float option;
  rs_want_cert : bool;
}

type req = Ping | Submit of string | Run of run_spec | Stats

(* [Ran] carries the optional encoded safety certificate (omni-cert/1
   bytes, opaque at this layer) when the request asked for one and the
   run went through a certified translation. *)
type resp =
  | Pong
  | Submitted of int64
  | Ran of Exec.run_result * string option
  | Stats_json of string
  | Error of err_class * string

(* Request tags occupy the low half of the byte, responses the high. *)
let tag_ping = 0x01
let tag_submit = 0x02
let tag_run = 0x03
let tag_stats = 0x04
let tag_pong = 0x81
let tag_submitted = 0x82
let tag_ran = 0x83
let tag_stats_json = 0x84
let tag_error = 0xee

(* --- writer --- *)

let w8 b v = Buffer.add_uint8 b (v land 0xff)
let w64 b (v : int64) = Buffer.add_int64_be b v
let wint b v = w64 b (Int64.of_int v)
let wbool b v = w8 b (if v then 1 else 0)

let wstr b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

let wopt w b = function
  | None -> w8 b 0
  | Some v ->
      w8 b 1;
      w b v

(* --- bounds-checked cursor --- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let need c n =
  if n < 0 || c.pos + n > String.length c.s then raise (Bad "short payload")

let r8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r64 c =
  need c 8;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let rint c =
  let v = r64 c in
  (* every integer we ship fits OCaml's 63-bit int; a value that does
     not is forged *)
  if Int64.compare v (Int64.of_int max_int) > 0
     || Int64.compare v (Int64.of_int min_int) < 0
  then raise (Bad "integer out of range");
  Int64.to_int v

let rbool c =
  match r8 c with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Bad "bad boolean byte")

let rstr c =
  need c 4;
  let n = Int32.to_int (String.get_int32_be c.s c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let ropt r c = match r8 c with 0 -> None | 1 -> Some (r c) | _ -> raise (Bad "bad option byte")

let finish c v =
  if c.pos <> String.length c.s then raise (Bad "trailing bytes") else v

(* --- domain encodings --- *)

let engine_code = function
  | Exec.Interp -> 0
  | Exec.Target Arch.Mips -> 1
  | Exec.Target Arch.Sparc -> 2
  | Exec.Target Arch.Ppc -> 3
  | Exec.Target Arch.X86 -> 4
  | Exec.Fast -> 5

let engine_of_code = function
  | 0 -> Exec.Interp
  | 1 -> Exec.Target Arch.Mips
  | 2 -> Exec.Target Arch.Sparc
  | 3 -> Exec.Target Arch.Ppc
  | 4 -> Exec.Target Arch.X86
  | 5 -> Exec.Fast
  | n -> raise (Bad (Printf.sprintf "bad engine code %d" n))

let wmode b = function
  | M_default -> w8 b 0
  | M_policy { pmode; protect_reads; pad } ->
      w8 b 1;
      w8 b (match pmode with Policy.Off -> 0 | Policy.Sandbox -> 1 | Policy.Guard -> 2);
      wbool b protect_reads;
      w8 b (Policy.pad_code pad)
  | M_native tier ->
      w8 b 2;
      w8 b (match tier with Machine.Gcc -> 0 | Machine.Cc -> 1)

let rmode c =
  match r8 c with
  | 0 -> M_default
  | 1 ->
      let pmode =
        match r8 c with
        | 0 -> Policy.Off
        | 1 -> Policy.Sandbox
        | 2 -> Policy.Guard
        | n -> raise (Bad (Printf.sprintf "bad policy mode %d" n))
      in
      let protect_reads = rbool c in
      let pad =
        match Policy.pad_of_code (r8 c) with
        | Some p -> p
        | None -> raise (Bad "bad pad code")
      in
      M_policy { pmode; protect_reads; pad }
  | 2 ->
      M_native
        (match r8 c with
        | 0 -> Machine.Gcc
        | 1 -> Machine.Cc
        | n -> raise (Bad (Printf.sprintf "bad tier %d" n)))
  | n -> raise (Bad (Printf.sprintf "bad mode tag %d" n))

let waccess b = function
  | Fault.Read -> w8 b 0
  | Fault.Write -> w8 b 1
  | Fault.Execute -> w8 b 2

let raccess c =
  match r8 c with
  | 0 -> Fault.Read
  | 1 -> Fault.Write
  | 2 -> Fault.Execute
  | n -> raise (Bad (Printf.sprintf "bad access code %d" n))

let wfault b = function
  | Fault.Access_violation { addr; access } ->
      w8 b 0;
      wint b addr;
      waccess b access
  | Fault.Misaligned { addr; width } ->
      w8 b 1;
      wint b addr;
      wint b width
  | Fault.Division_by_zero -> w8 b 2
  | Fault.Illegal_instruction { pc } ->
      w8 b 3;
      wint b pc
  | Fault.Unauthorized_host_call { index } ->
      w8 b 4;
      wint b index
  | Fault.Stack_overflow -> w8 b 5
  | Fault.Explicit_trap code ->
      w8 b 6;
      wint b code
  | Fault.Deadline_exceeded -> w8 b 7

let rfault c =
  match r8 c with
  | 0 ->
      let addr = rint c in
      let access = raccess c in
      Fault.Access_violation { addr; access }
  | 1 ->
      let addr = rint c in
      let width = rint c in
      Fault.Misaligned { addr; width }
  | 2 -> Fault.Division_by_zero
  | 3 -> Fault.Illegal_instruction { pc = rint c }
  | 4 -> Fault.Unauthorized_host_call { index = rint c }
  | 5 -> Fault.Stack_overflow
  | 6 -> Fault.Explicit_trap (rint c)
  | 7 -> Fault.Deadline_exceeded
  | n -> raise (Bad (Printf.sprintf "bad fault code %d" n))

let woutcome b = function
  | Machine.Exited code ->
      w8 b 0;
      wint b code
  | Machine.Faulted f ->
      w8 b 1;
      wfault b f
  | Machine.Out_of_fuel -> w8 b 2

let routcome c =
  match r8 c with
  | 0 -> Machine.Exited (rint c)
  | 1 -> Machine.Faulted (rfault c)
  | 2 -> Machine.Out_of_fuel
  | n -> raise (Bad (Printf.sprintf "bad outcome code %d" n))

let wstats b (s : Machine.stats) =
  wint b s.Machine.instructions;
  if Array.length s.Machine.by_origin <> 6 then
    invalid_arg "Message: stats.by_origin must have 6 entries";
  Array.iter (wint b) s.Machine.by_origin;
  wint b s.Machine.cycles;
  wint b s.Machine.loads;
  wint b s.Machine.stores;
  wint b s.Machine.branches;
  wint b s.Machine.taken_branches;
  wint b s.Machine.omni_instructions

let rstats c : Machine.stats =
  let instructions = rint c in
  let by_origin = Array.init 6 (fun _ -> rint c) in
  let cycles = rint c in
  let loads = rint c in
  let stores = rint c in
  let branches = rint c in
  let taken_branches = rint c in
  let omni_instructions = rint c in
  {
    Machine.instructions;
    by_origin;
    cycles;
    loads;
    stores;
    branches;
    taken_branches;
    omni_instructions;
  }

let wcrash b (cs : Exec.crash_site) =
  wint b cs.Exec.cs_pc;
  if Array.length cs.Exec.cs_regs <> 16 then
    invalid_arg "Message: crash_site.cs_regs must have 16 entries";
  Array.iter (wint b) cs.Exec.cs_regs;
  wint b cs.Exec.cs_window_base;
  wstr b cs.Exec.cs_window

let rcrash c : Exec.crash_site =
  let cs_pc = rint c in
  let cs_regs = Array.init 16 (fun _ -> rint c) in
  let cs_window_base = rint c in
  let cs_window = rstr c in
  { Exec.cs_pc; cs_regs; cs_window_base; cs_window }

let wresult b (r : Exec.run_result) =
  wstr b r.Exec.output;
  wint b r.Exec.exit_code;
  woutcome b r.Exec.outcome;
  wint b r.Exec.instructions;
  wint b r.Exec.cycles;
  wopt wstats b r.Exec.stats;
  wopt wcrash b r.Exec.crash

let rresult c : Exec.run_result =
  let output = rstr c in
  let exit_code = rint c in
  let outcome = routcome c in
  let instructions = rint c in
  let cycles = rint c in
  let stats = ropt rstats c in
  let crash = ropt rcrash c in
  { Exec.output; exit_code; outcome; instructions; cycles; stats; crash }

(* --- messages --- *)

let payload f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let encode_req = function
  | Ping -> { Frame.tag = tag_ping; payload = "" }
  | Submit bytes -> { Frame.tag = tag_submit; payload = bytes }
  | Run rs ->
      {
        Frame.tag = tag_run;
        payload =
          payload (fun b ->
              w64 b rs.rs_handle;
              w8 b (engine_code rs.rs_engine);
              wbool b rs.rs_sfi;
              wmode b rs.rs_mode;
              wopt wint b rs.rs_fuel;
              wopt (fun b v -> w64 b (Int64.bits_of_float v)) b
                rs.rs_deadline_s;
              wbool b rs.rs_want_cert);
      }
  | Stats -> { Frame.tag = tag_stats; payload = "" }

let encode_resp = function
  | Pong -> { Frame.tag = tag_pong; payload = "" }
  | Submitted digest ->
      { Frame.tag = tag_submitted; payload = payload (fun b -> w64 b digest) }
  | Ran (r, cert) ->
      {
        Frame.tag = tag_ran;
        payload =
          payload (fun b ->
              wresult b r;
              wopt wstr b cert);
      }
  | Stats_json json -> { Frame.tag = tag_stats_json; payload = json }
  | Error (cls, msg) ->
      {
        Frame.tag = tag_error;
        payload =
          payload (fun b ->
              w8 b (err_class_code cls);
              wstr b msg);
      }

let decoding f =
  match f () with v -> Ok v | exception Bad msg -> Result.Error msg

let empty_payload (fr : Frame.t) v =
  if String.length fr.Frame.payload = 0 then Ok v
  else Result.Error "unexpected payload"

let decode_req (fr : Frame.t) : (req, string) result =
  let t = fr.Frame.tag in
  if t = tag_ping then empty_payload fr Ping
  else if t = tag_submit then Ok (Submit fr.Frame.payload)
  else if t = tag_stats then empty_payload fr Stats
  else if t = tag_run then
    decoding (fun () ->
        let c = { s = fr.Frame.payload; pos = 0 } in
        let rs_handle = r64 c in
        let rs_engine = engine_of_code (r8 c) in
        let rs_sfi = rbool c in
        let rs_mode = rmode c in
        let rs_fuel = ropt rint c in
        let rs_deadline_s = ropt (fun c -> Int64.float_of_bits (r64 c)) c in
        let rs_want_cert = rbool c in
        finish c
          (Run
             {
               rs_handle;
               rs_engine;
               rs_sfi;
               rs_mode;
               rs_fuel;
               rs_deadline_s;
               rs_want_cert;
             }))
  else Result.Error (Printf.sprintf "unknown request tag 0x%02x" t)

let decode_resp (fr : Frame.t) : (resp, string) result =
  let t = fr.Frame.tag in
  if t = tag_pong then empty_payload fr Pong
  else if t = tag_stats_json then Ok (Stats_json fr.Frame.payload)
  else if t = tag_submitted then
    decoding (fun () ->
        let c = { s = fr.Frame.payload; pos = 0 } in
        let d = r64 c in
        finish c (Submitted d))
  else if t = tag_ran then
    decoding (fun () ->
        let c = { s = fr.Frame.payload; pos = 0 } in
        let r = rresult c in
        let cert = ropt rstr c in
        finish c (Ran (r, cert)))
  else if t = tag_error then
    decoding (fun () ->
        let c = { s = fr.Frame.payload; pos = 0 } in
        let code = r8 c in
        let msg = rstr c in
        match err_class_of_code code with
        | Some cls -> finish c (Error (cls, msg))
        | None -> raise (Bad (Printf.sprintf "bad error class %d" code)))
  else Result.Error (Printf.sprintf "unknown response tag 0x%02x" t)

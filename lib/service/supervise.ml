(* Execution supervision: crash reports, quarantine, deterministic replay.

   The paper's virtual exception model makes a faulting module a normal,
   recoverable event; this module makes it a *structured* one. A crash
   report captures everything needed to understand and reproduce a fault
   offline — the fault itself, the machine state at the fault
   (Exec.crash_site), the request that provoked it, and the module's wire
   bytes as a self-contained replay bundle. The quarantine turns repeated
   deterministic faults into cheap refusals instead of repeated
   translate+execute work. *)

module Fault = Omnivm.Fault
module Machine = Omni_targets.Machine
module Clock = Omni_util.Clock
module Fnv64 = Omni_util.Fnv64

let watchdog ?poll_every ~budget_s () =
  Omnivm.Watchdog.make ?poll_every ~clock:Clock.monotonic ~budget_s ()

(* A transient fault depends on conditions outside the module's control
   (the wall clock); rerunning under a different deadline may succeed, so
   transient faults never count toward quarantine and replay does not
   assert their reproduction. Every other fault is a deterministic
   function of (module, engine, fuel). *)
let transient = function
  | Fault.Deadline_exceeded -> true
  | Fault.Access_violation _ | Fault.Misaligned _ | Fault.Division_by_zero
  | Fault.Illegal_instruction _ | Fault.Unauthorized_host_call _
  | Fault.Stack_overflow | Fault.Explicit_trap _ ->
      false

(* --- crash reports --- *)

type report = {
  r_fault : Fault.t;
  r_engine : Exec.engine;
  r_sfi : bool;
  r_mode : Machine.mode option; (* explicit mode; None = derived from sfi *)
  r_producer : string option; (* front-end that produced the module *)
  r_digest : Fnv64.t;
  r_fuel : int option; (* the request's instruction budget *)
  r_fuel_spent : int;
  r_pc : int;
  r_regs : int array; (* the 16 OmniVM integer registers *)
  r_window_base : int;
  r_window : string;
  r_wire : string; (* the module bytes: the replay bundle *)
}

let no_site =
  { Exec.cs_pc = -1; cs_regs = Array.make 16 0; cs_window_base = -1;
    cs_window = "" }

let of_run ~engine ~sfi ?mode ?producer ?fuel ~wire (r : Exec.run_result) :
    report option =
  match r.Exec.outcome with
  | Machine.Exited _ | Machine.Out_of_fuel -> None
  | Machine.Faulted f ->
      let site = Option.value r.Exec.crash ~default:no_site in
      Some
        {
          r_fault = f;
          r_engine = engine;
          r_sfi = sfi;
          r_mode = mode;
          r_producer = producer;
          r_digest = Fnv64.digest_string wire;
          r_fuel = fuel;
          r_fuel_spent = r.Exec.instructions;
          r_pc = site.Exec.cs_pc;
          r_regs = site.Exec.cs_regs;
          r_window_base = site.Exec.cs_window_base;
          r_window = site.Exec.cs_window;
          r_wire = wire;
        }

(* --- JSON ---

   Hand-rolled on both sides: the only strings we emit are slugs, engine
   names, and hex-encoded bytes, so neither writer nor reader needs string
   escaping. The reader is a tiny recursive-descent parser over the JSON
   subset the writer produces (null/bool/int/string/array/object), strict
   enough to reject anything else. *)

let hex_encode s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

exception Bad_report of string

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then raise (Bad_report "odd-length hex string");
  let nib c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise (Bad_report "bad hex digit")
  in
  String.init (n / 2) (fun i ->
      Char.chr ((nib s.[2 * i] lsl 4) lor nib s.[(2 * i) + 1]))

let schema = "omni-crash/1"

(* The report's explicit mode travels as the wire carries it, in one
   token: [<policy>[+reads]/<pad>] for a policy over the standard layout
   (e.g. "guard/none", "sandbox+reads/nop"), or [native/<tier>]. *)
let policy_modes =
  Omni_sfi.Policy.[ ("off", Off); ("sandbox", Sandbox); ("guard", Guard) ]

let tiers = Machine.[ ("gcc", Gcc); ("cc", Cc) ]
let name_in tbl v = fst (List.find (fun (_, v') -> v' = v) tbl)

let mode_token = function
  | Machine.Native t -> "native/" ^ name_in tiers t
  | Machine.Mobile p ->
      Printf.sprintf "%s%s/%s"
        (name_in policy_modes p.Omni_sfi.Policy.mode)
        (if p.Omni_sfi.Policy.protect_reads then "+reads" else "")
        (Omni_sfi.Policy.pad_name p.Omni_sfi.Policy.pad)

let mode_of_token s =
  let bad () = raise (Bad_report ("bad mode " ^ s)) in
  let find tbl k =
    match List.assoc_opt k tbl with Some v -> v | None -> bad ()
  in
  match String.split_on_char '/' s with
  | [ "native"; t ] -> Machine.Native (find tiers t)
  | [ m; pad ] ->
      let m, protect_reads =
        match String.split_on_char '+' m with
        | [ m ] -> (m, false)
        | [ m; "reads" ] -> (m, true)
        | _ -> bad ()
      in
      let pad =
        match Omni_sfi.Policy.pad_of_string pad with
        | Some p -> p
        | None -> bad ()
      in
      Machine.Mobile
        (Omni_sfi.Policy.make ~mode:(find policy_modes m) ~protect_reads ~pad
           ())
  | _ -> bad ()

let to_json (r : report) =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"schema\":\"%s\"" schema;
  Printf.bprintf b ",\"fault\":{\"kind\":\"%s\",\"code\":%d"
    (Fault.slug r.r_fault) (Fault.code r.r_fault);
  (match r.r_fault with
  | Fault.Access_violation { addr; access } ->
      Printf.bprintf b ",\"addr\":%d,\"access\":\"%s\"" addr
        (Fault.access_name access)
  | Fault.Misaligned { addr; width } ->
      Printf.bprintf b ",\"addr\":%d,\"width\":%d" addr width
  | Fault.Illegal_instruction { pc } -> Printf.bprintf b ",\"pc\":%d" pc
  | Fault.Unauthorized_host_call { index } ->
      Printf.bprintf b ",\"index\":%d" index
  | Fault.Explicit_trap n -> Printf.bprintf b ",\"trap\":%d" n
  | Fault.Division_by_zero | Fault.Stack_overflow | Fault.Deadline_exceeded
    ->
      ());
  Printf.bprintf b "},\"engine\":\"%s\"" (Exec.engine_name r.r_engine);
  Printf.bprintf b ",\"sfi\":%b" r.r_sfi;
  Option.iter
    (fun m -> Printf.bprintf b ",\"mode\":\"%s\"" (mode_token m))
    r.r_mode;
  (match r.r_producer with
  | Some p -> Printf.bprintf b ",\"producer\":\"%s\"" p
  | None -> Printf.bprintf b ",\"producer\":null");
  Printf.bprintf b ",\"digest\":\"%s\"" (Fnv64.to_hex r.r_digest);
  (match r.r_fuel with
  | Some f -> Printf.bprintf b ",\"fuel\":%d" f
  | None -> Printf.bprintf b ",\"fuel\":null");
  Printf.bprintf b ",\"fuel_spent\":%d" r.r_fuel_spent;
  Printf.bprintf b ",\"pc\":%d" r.r_pc;
  Buffer.add_string b ",\"regs\":[";
  Array.iteri
    (fun i v -> Printf.bprintf b "%s%d" (if i = 0 then "" else ",") v)
    r.r_regs;
  Buffer.add_string b "]";
  Printf.bprintf b ",\"window_base\":%d" r.r_window_base;
  Printf.bprintf b ",\"window\":\"%s\"" (hex_encode r.r_window);
  Printf.bprintf b ",\"wire\":\"%s\"}" (hex_encode r.r_wire);
  Buffer.contents b

type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let n = String.length s in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_report (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> fail "escapes not supported in crash reports"
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> J_int v
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); J_obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); J_list [] end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); J_list (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
    | Some '"' -> J_str (string_lit ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_json (text : string) : report =
  let obj = match parse_json text with
    | J_obj kvs -> kvs
    | _ -> raise (Bad_report "crash report must be a JSON object")
  in
  let field name = List.assoc_opt name obj in
  let need name =
    match field name with
    | Some v -> v
    | None -> raise (Bad_report ("missing field " ^ name))
  in
  let as_int name = function
    | J_int v -> v
    | _ -> raise (Bad_report (name ^ " must be an integer"))
  in
  let as_str name = function
    | J_str v -> v
    | _ -> raise (Bad_report (name ^ " must be a string"))
  in
  (match need "schema" with
  | J_str s when s = schema -> ()
  | J_str s -> raise (Bad_report ("unknown schema " ^ s))
  | _ -> raise (Bad_report "schema must be a string"));
  let fobj = match need "fault" with
    | J_obj kvs -> kvs
    | _ -> raise (Bad_report "fault must be an object")
  in
  let ffield name =
    match List.assoc_opt name fobj with
    | Some v -> v
    | None -> raise (Bad_report ("missing fault field " ^ name))
  in
  let fint name = as_int name (ffield name) in
  let r_fault =
    match as_str "kind" (ffield "kind") with
    | "access_violation" ->
        let access =
          match as_str "access" (ffield "access") with
          | "read" -> Fault.Read
          | "write" -> Fault.Write
          | "execute" -> Fault.Execute
          | a -> raise (Bad_report ("bad access kind " ^ a))
        in
        Fault.Access_violation { addr = fint "addr"; access }
    | "misaligned" ->
        Fault.Misaligned { addr = fint "addr"; width = fint "width" }
    | "division_by_zero" -> Fault.Division_by_zero
    | "illegal_instruction" -> Fault.Illegal_instruction { pc = fint "pc" }
    | "unauthorized_host_call" ->
        Fault.Unauthorized_host_call { index = fint "index" }
    | "stack_overflow" -> Fault.Stack_overflow
    | "explicit_trap" -> Fault.Explicit_trap (fint "trap")
    | "deadline_exceeded" -> Fault.Deadline_exceeded
    | k -> raise (Bad_report ("unknown fault kind " ^ k))
  in
  let r_engine =
    match Exec.engine_of_string (as_str "engine" (need "engine")) with
    | Ok e -> e
    | Error msg -> raise (Bad_report msg)
  in
  let r_sfi =
    match need "sfi" with
    | J_bool v -> v
    | _ -> raise (Bad_report "sfi must be a boolean")
  in
  (* absent in reports that predate it: the mode derives from sfi *)
  let r_mode =
    match field "mode" with
    | None | Some J_null -> None
    | Some (J_str m) -> Some (mode_of_token m)
    | Some _ -> raise (Bad_report "mode must be a string or null")
  in
  (* absent in pre-producer reports: stay readable *)
  let r_producer =
    match field "producer" with
    | None | Some J_null -> None
    | Some (J_str p) -> Some p
    | Some _ -> raise (Bad_report "producer must be a string or null")
  in
  let r_digest =
    let hex = as_str "digest" (need "digest") in
    match Int64.of_string_opt ("0x" ^ hex) with
    | Some d -> d
    | None -> raise (Bad_report "bad digest")
  in
  let r_fuel =
    match need "fuel" with
    | J_null -> None
    | J_int v -> Some v
    | _ -> raise (Bad_report "fuel must be an integer or null")
  in
  let r_regs =
    match need "regs" with
    | J_list vs when List.length vs = 16 ->
        Array.of_list (List.map (as_int "regs") vs)
    | _ -> raise (Bad_report "regs must be an array of 16 integers")
  in
  {
    r_fault;
    r_engine;
    r_sfi;
    r_mode;
    r_producer;
    r_digest;
    r_fuel;
    r_fuel_spent = as_int "fuel_spent" (need "fuel_spent");
    r_pc = as_int "pc" (need "pc");
    r_regs;
    r_window_base = as_int "window_base" (need "window_base");
    r_window = hex_decode (as_str "window" (need "window"));
    r_wire = hex_decode (as_str "wire" (need "wire"));
  }

let filename (r : report) =
  Printf.sprintf "crash-%s-%s-%s.json"
    (Fnv64.to_hex r.r_digest)
    (Exec.engine_name r.r_engine)
    (Fault.slug r.r_fault)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_report ~dir (r : report) =
  mkdir_p dir;
  let path = Filename.concat dir (filename r) in
  let oc = open_out path in
  output_string oc (to_json r);
  output_char oc '\n';
  close_out oc;
  path

let pp fmt (r : report) =
  Format.fprintf fmt "module %s faulted on %s: %s@\n"
    (Fnv64.to_hex r.r_digest)
    (Exec.engine_name r.r_engine)
    (Fault.to_string r.r_fault);
  (match r.r_producer with
  | Some p -> Format.fprintf fmt "  produced by %s@\n" p
  | None -> ());
  Format.fprintf fmt "  sfi %b%s, fuel %s, %d instructions spent, pc %d@\n"
    r.r_sfi
    (match r.r_mode with None -> "" | Some m -> ", mode " ^ mode_token m)
    (match r.r_fuel with Some f -> string_of_int f | None -> "unlimited")
    r.r_fuel_spent r.r_pc;
  Format.fprintf fmt "  regs";
  Array.iteri
    (fun i v ->
      if i mod 4 = 0 then Format.fprintf fmt "@\n   ";
      Format.fprintf fmt " r%-2d=%08x" i (v land 0xFFFFFFFF))
    r.r_regs;
  Format.fprintf fmt "@\n";
  if r.r_window <> "" then begin
    Format.fprintf fmt "  memory around fault:@\n";
    String.iteri
      (fun i c ->
        if i mod 16 = 0 then
          Format.fprintf fmt "%s   %08x " (if i = 0 then "" else "\n")
            (r.r_window_base + i);
        Format.fprintf fmt "%02x " (Char.code c))
      r.r_window;
    Format.fprintf fmt "@\n"
  end

(* --- deterministic replay --- *)

let replay ?watchdog ?engine (r : report) : Exec.run_result =
  let engine = Option.value engine ~default:r.r_engine in
  (* A transient (wall-clock) fault carries no terminating bound of its
     own — an unbounded re-run of a spinning module would never return.
     Re-run it as far as the original run got instead. *)
  let fuel =
    match (r.r_fuel, watchdog) with
    | None, None when transient r.r_fault -> Some (max 1 r.r_fuel_spent)
    | fuel, _ -> fuel
  in
  (* The bundle records the request as the wire expresses it (engine,
     sfi, explicit mode, fuel); Exec.resolve turns it into the same
     configuration the original run had. *)
  Exec.run ?fuel ?watchdog ~sfi:r.r_sfi ?mode:r.r_mode engine
    (Exec.load (Omnivm.Wire.decode r.r_wire))

type verdict =
  | Reproduced
  | Transient of Machine.outcome
  | Diverged of Machine.outcome

let check_replay ?watchdog ?engine (r : report) : verdict =
  let res = replay ?watchdog ?engine r in
  if transient r.r_fault then Transient res.Exec.outcome
  else
    match res.Exec.outcome with
    | Machine.Faulted f when f = r.r_fault -> Reproduced
    | o -> Diverged o

(* --- per-digest quarantine (circuit breaker) --- *)

module Quarantine = struct
  type config = { threshold : int; ttl_s : float; clock : Clock.t }

  let default_config = { threshold = 3; ttl_s = 300.0; clock = Clock.monotonic }

  type entry = {
    mutable strikes : int;
    mutable last_fault : Fault.t option;
    mutable until : float; (* quarantined while clock < until; 0 = not *)
  }

  (* Entries are mutable, so every operation takes [mu] — a leaf-level
     lock held only across table/entry manipulation, never across a run
     or a clock-independent callback. One service shared by a pool of
     server domains then keeps strike accounting exact. *)
  type t = { cfg : config; mu : Mutex.t; tbl : (Fnv64.t, entry) Hashtbl.t }

  exception
    Quarantined of { digest : Fnv64.t; fault : Fault.t; until_s : float }

  let create cfg =
    if cfg.threshold <= 0 then
      invalid_arg "Quarantine.create: threshold must be > 0";
    if cfg.ttl_s <= 0.0 then invalid_arg "Quarantine.create: ttl must be > 0";
    { cfg; mu = Mutex.create (); tbl = Hashtbl.create 64 }

  let check t digest =
    Mutex.protect t.mu @@ fun () ->
    match Hashtbl.find_opt t.tbl digest with
    | None -> ()
    | Some e ->
        if e.until > 0.0 then begin
          if Clock.now t.cfg.clock >= e.until then
            (* TTL expired: the module gets a fresh set of chances. *)
            Hashtbl.remove t.tbl digest
          else
            raise
              (Quarantined
                 {
                   digest;
                   fault = Option.value e.last_fault ~default:Fault.Stack_overflow;
                   until_s = e.until;
                 })
        end

  (* Record one run's outcome; returns true when this note tripped the
     breaker. Deterministic faults strike; a clean exit resets the count
     (the module demonstrably can succeed, so earlier faults were
     input-dependent); transient faults and fuel exhaustion are neutral. *)
  let note t digest (outcome : Machine.outcome) : bool =
    Mutex.protect t.mu @@ fun () ->
    match outcome with
    | Machine.Faulted f when not (transient f) ->
        let e =
          match Hashtbl.find_opt t.tbl digest with
          | Some e -> e
          | None ->
              let e = { strikes = 0; last_fault = None; until = 0.0 } in
              Hashtbl.add t.tbl digest e;
              e
        in
        e.strikes <- e.strikes + 1;
        e.last_fault <- Some f;
        if e.strikes >= t.cfg.threshold && e.until = 0.0 then begin
          e.until <- Clock.now t.cfg.clock +. t.cfg.ttl_s;
          true
        end
        else false
    | Machine.Exited _ ->
        Hashtbl.remove t.tbl digest;
        false
    | Machine.Faulted _ (* transient *) | Machine.Out_of_fuel -> false

  let clear t digest =
    Mutex.protect t.mu @@ fun () ->
    match Hashtbl.find_opt t.tbl digest with
    | Some e when e.until > 0.0 ->
        Hashtbl.remove t.tbl digest;
        true
    | Some _ | None -> false

  let clear_all t =
    Mutex.protect t.mu @@ fun () ->
    let cleared =
      Hashtbl.fold (fun d e acc -> if e.until > 0.0 then d :: acc else acc)
        t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) cleared;
    List.length cleared

  let active t =
    let now = Clock.now t.cfg.clock in
    Mutex.protect t.mu @@ fun () ->
    Hashtbl.fold
      (fun d e acc ->
        if e.until > now then (d, e.until) :: acc else acc)
      t.tbl []

  let strikes t digest =
    Mutex.protect t.mu @@ fun () ->
    match Hashtbl.find_opt t.tbl digest with
    | Some e -> e.strikes
    | None -> 0
end

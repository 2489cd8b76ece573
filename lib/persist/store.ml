module Fnv64 = Omni_util.Fnv64
module Machine = Omni_targets.Machine
module Certificate = Omni_cert.Certificate
module Check = Omni_cert.Check
module Metrics = Omni_obs.Metrics
module Translated = Omni_targets.Translated
module Policy = Omni_sfi.Policy

(* -- file names ------------------------------------------------------- *)

let seg_name gen = Printf.sprintf "seg-%04d.dat" gen
let journal_name gen = Printf.sprintf "journal-%04d.wal" gen
let current_name = "current"
let clean_name = "clean"

(* -- record framing --------------------------------------------------- *)

(* Segment record: kind(1) | len(4) | payload | fnv64(8), digest over
   everything before it. *)
let rec_overhead = 1 + 4 + 8

let kind_module = 1
let kind_translation = 2

let frame kind payload =
  let len = String.length payload in
  let b = Bytes.create (rec_overhead + len) in
  Bytes.set b 0 (Char.chr kind);
  Bytes.set_int32_le b 1 (Int32.of_int len);
  Bytes.blit_string payload 0 b 5 len;
  let ck = Fnv64.digest_string (Bytes.sub_string b 0 (5 + len)) in
  Bytes.set_int64_le b (5 + len) ck;
  Bytes.to_string b

(* Journal record: seq(8) | kind(1) | offset(8) | rec_len(4) |
   payload_digest(8) | fnv64(8) over the first 29 bytes. *)
let jrec_size = 37

let jframe ~seq ~kind ~offset ~rec_len ~payload_digest =
  let b = Bytes.create jrec_size in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set b 8 (Char.chr kind);
  Bytes.set_int64_le b 9 (Int64.of_int offset);
  Bytes.set_int32_le b 17 (Int32.of_int rec_len);
  Bytes.set_int64_le b 21 payload_digest;
  Bytes.set_int64_le b 29 (Fnv64.digest_string (Bytes.sub_string b 0 29));
  Bytes.to_string b

(* -- typed quarantine ------------------------------------------------- *)

type corrupt =
  | Bad_record of { seq : int; detail : string }
  | Payload_digest_mismatch of { seq : int }
  | Bad_module of { seq : int; detail : string }
  | Bad_cert of { seq : int; detail : string }
  | Cert_unbound of { seq : int; detail : string }
  | Obligations_failed of { seq : int; detail : string }
  | Module_missing of { seq : int; digest : Fnv64.t }

let corrupt_seq = function
  | Bad_record { seq; _ }
  | Payload_digest_mismatch { seq }
  | Bad_module { seq; _ }
  | Bad_cert { seq; _ }
  | Cert_unbound { seq; _ }
  | Obligations_failed { seq; _ }
  | Module_missing { seq; _ } ->
      seq

let corrupt_to_string = function
  | Bad_record { seq; detail } ->
      Printf.sprintf "seq %d: bad segment record (%s)" seq detail
  | Payload_digest_mismatch { seq } ->
      Printf.sprintf "seq %d: payload digest disagrees with journal" seq
  | Bad_module { seq; detail } ->
      Printf.sprintf "seq %d: module bytes no longer decode (%s)" seq detail
  | Bad_cert { seq; detail } ->
      Printf.sprintf "seq %d: certificate does not decode (%s)" seq detail
  | Cert_unbound { seq; detail } ->
      Printf.sprintf "seq %d: certificate not bound to this translation (%s)"
        seq detail
  | Obligations_failed { seq; detail } ->
      Printf.sprintf "seq %d: witness obligations fail (%s)" seq detail
  | Module_missing { seq; digest } ->
      Printf.sprintf "seq %d: translation of unrecovered module %s" seq
        (Fnv64.to_hex digest)

type rtrans = {
  rt_module : Fnv64.t;
  rt_mode : Machine.mode;
  rt_opts : Machine.topts;
  rt_prog : Translated.t;
  rt_cert : Certificate.t;
  rt_fp : Fnv64.t;
}

type recovered = {
  r_clean : bool;
  r_modules : string list;
  r_translations : rtrans list;
  r_quarantined : corrupt list;
  r_torn : int;
  r_replayed : int;
}

(* -- generation pointer and clean marker ------------------------------ *)

let read_gen io =
  match Io.read io current_name with
  | None -> 0
  | Some text -> (
      (* "gen fnvhex\n": a corrupted pointer must read as generation 0
         (empty store), never crash. *)
      match String.split_on_char ' ' (String.trim text) with
      | [ g; ck ] -> (
          match int_of_string_opt g with
          | Some gen
            when gen >= 0 && Fnv64.to_hex (Fnv64.digest_string g) = ck ->
              gen
          | _ -> 0)
      | _ -> 0)

let gen_pointer gen =
  let g = string_of_int gen in
  Printf.sprintf "%s %s\n" g (Fnv64.to_hex (Fnv64.digest_string g))

let clean_marker gen journal =
  Printf.sprintf "%d %d %s\n" gen (String.length journal)
    (Fnv64.to_hex (Fnv64.digest_string journal))

let marker_valid io gen journal =
  match Io.read io clean_name with
  | None -> false
  | Some text -> String.trim text = String.trim (clean_marker gen journal)

(* Write-fsync-rename: the only way a marker or pointer ever appears. *)
let publish io name content =
  let tmp = name ^ ".tmp" in
  if Io.exists io tmp then Io.remove io tmp;
  Io.append io tmp content;
  Io.fsync io tmp;
  Io.rename io tmp name

(* -- recovery scan (pure: reads only) --------------------------------- *)

type scan = {
  sc_rec : recovered;
  sc_seg_len : int; (* logical end of the segment (committed records) *)
  sc_jlen : int; (* logical end of the journal *)
  sc_next_seq : int;
}

let u32 s off = Int32.to_int (String.get_int32_le s off)
let u64 s off = Int64.to_int (String.get_int64_le s off)

(* Validate one committed translation record down to the witness. The
   record is the certificate alone: it names the module and the
   configuration, so the code is re-derived by translating the recovered
   module and then proven against the certificate, never read from disk.
   Returns a quarantine reason or the recovered translation. *)
let validate_translation ~eager ~seq ~modules payload :
    (rtrans, corrupt) result =
  let ( let* ) = Result.bind in
  let unbound detail = Error (Cert_unbound { seq; detail }) in
  let* cert =
    match Certificate.decode payload with
    | Ok cert -> Ok cert
    | Error e ->
        Error (Bad_cert { seq; detail = Certificate.decode_error_to_string e })
  in
  let { Certificate.module_digest; arch; opts; protect_reads; pad; _ } = cert in
  let* exe =
    match Hashtbl.find_opt modules module_digest with
    | Some exe -> Ok exe
    | None -> Error (Module_missing { seq; digest = module_digest })
  in
  let mode = Machine.Mobile (Policy.make ~protect_reads ~pad ()) in
  let* prog =
    match Translated.translate arch ~mode ~opts exe with
    | prog -> Ok prog
    | exception Omni_targets.Translate.Translate_error msg ->
        unbound ("the module does not translate: " ^ msg)
  in
  let fp = Translated.fingerprint prog in
  let* () =
    match Check.bind cert ~module_digest ~arch ~mode ~opts ~code_fp:fp with
    | Ok () -> Ok ()
    | Error e -> unbound (Check.error_to_string e)
  in
  match if eager then Check.check cert prog else Ok () with
  | Error e ->
      Error (Obligations_failed { seq; detail = Check.error_to_string e })
  | Ok () ->
      Ok
        {
          rt_module = module_digest;
          rt_mode = mode;
          rt_opts = opts;
          rt_prog = prog;
          rt_cert = cert;
          rt_fp = fp;
        }

let scan ~eager io gen : scan =
  let seg = Option.value (Io.read io (seg_name gen)) ~default:"" in
  let journal = Option.value (Io.read io (journal_name gen)) ~default:"" in
  let jn = String.length journal in
  let modules : (Fnv64.t, Omnivm.Exe.t) Hashtbl.t = Hashtbl.create 8 in
  let module_order = ref [] in
  let translations = ref [] in
  let quarantined = ref [] in
  let torn = ref 0 in
  let replayed = ref 0 in
  let seg_len = ref 0 in
  let stop = ref false in
  let i = ref 0 in
  (* The journal is prefix-valid: the first record that fails its own
     checksum, breaks the sequence, or points past the durable segment
     ends the replay — everything after it is a torn tail. *)
  while (not !stop) && (!i + 1) * jrec_size <= jn do
    let off = !i * jrec_size in
    let ck = String.get_int64_le journal (off + 29) in
    let body = String.sub journal off 29 in
    if not (Int64.equal ck (Fnv64.digest_string body)) then begin
      incr torn;
      stop := true
    end
    else begin
      let seq = u64 journal off in
      let kind = Char.code journal.[off + 8] in
      let offset = u64 journal (off + 9) in
      let rec_len = u32 journal (off + 17) in
      let payload_digest = String.get_int64_le journal (off + 21) in
      if seq <> !i || offset <> !seg_len || rec_len < rec_overhead then begin
        incr torn;
        stop := true
      end
      else if offset + rec_len > String.length seg then begin
        (* committed in the journal but the segment bytes never became
           durable — the fsync-before-journal discipline was violated by
           the fault plan (or the tail really tore); drop from here *)
        incr torn;
        stop := true
      end
      else begin
        incr replayed;
        seg_len := offset + rec_len;
        let record = String.sub seg offset rec_len in
        let payload_len = rec_len - rec_overhead in
        let framing_ok =
          Char.code record.[0] = kind
          && u32 record 1 = payload_len
          && Int64.equal
               (String.get_int64_le record (rec_len - 8))
               (Fnv64.digest_string (String.sub record 0 (rec_len - 8)))
        in
        if not framing_ok then
          quarantined :=
            Bad_record { seq; detail = "framing or checksum" } :: !quarantined
        else begin
          let payload = String.sub record 5 payload_len in
          if not (Int64.equal payload_digest (Fnv64.digest_string payload))
          then quarantined := Payload_digest_mismatch { seq } :: !quarantined
          else if kind = kind_module then begin
            match Omnivm.Wire.decode payload with
            | exception e ->
                quarantined :=
                  Bad_module { seq; detail = Printexc.to_string e }
                  :: !quarantined
            | exe ->
                if not (Hashtbl.mem modules payload_digest) then begin
                  Hashtbl.replace modules payload_digest exe;
                  module_order := payload :: !module_order
                end
          end
          else if kind = kind_translation then begin
            match validate_translation ~eager ~seq ~modules payload with
            | Error q -> quarantined := q :: !quarantined
            | Ok rt ->
                (* last write wins for one (module, arch, mode, opts) *)
                translations :=
                  rt
                  :: List.filter
                       (fun o ->
                         not
                           (Int64.equal o.rt_module rt.rt_module
                           && Translated.arch o.rt_prog
                              = Translated.arch rt.rt_prog
                           && o.rt_mode = rt.rt_mode
                           && o.rt_opts = rt.rt_opts))
                       !translations
          end
          else
            quarantined :=
              Bad_record { seq; detail = Printf.sprintf "unknown kind %d" kind }
              :: !quarantined
        end;
        incr i
      end
    end
  done;
  let jlen = !i * jrec_size in
  if (not !stop) && jn > jlen then incr torn (* partial trailing record *);
  if String.length seg > !seg_len then incr torn (* unjournaled segment tail *);
  let clean =
    marker_valid io gen journal
    && !torn = 0
    && !quarantined = []
  in
  {
    sc_rec =
      {
        r_clean = clean;
        r_modules = List.rev !module_order;
        r_translations = List.rev !translations;
        r_quarantined = List.rev !quarantined;
        r_torn = !torn;
        r_replayed = !replayed;
      };
    sc_seg_len = !seg_len;
    sc_jlen = jlen;
    sc_next_seq = !i;
  }

(* -- the live store --------------------------------------------------- *)

type t = {
  io : Io.t;
  mu : Mutex.t;
  gen : int;
  mutable seq : int;
  mutable seg_len : int;
  mutable closed : bool;
  c_append : Metrics.counter;
}

let bump metrics (r : recovered) =
  match metrics with
  | None -> ()
  | Some m ->
      Metrics.incr ~by:r.r_replayed (Metrics.counter m "persist.replay");
      Metrics.incr
        ~by:(List.length r.r_modules + List.length r.r_translations)
        (Metrics.counter m "persist.recovered");
      Metrics.incr
        ~by:(List.length r.r_quarantined)
        (Metrics.counter m "persist.quarantined");
      Metrics.incr ~by:r.r_torn (Metrics.counter m "persist.torn")

let open_ ?metrics io =
  let gen = read_gen io in
  let journal = Option.value (Io.read io (journal_name gen)) ~default:"" in
  (* A valid clean marker licenses skipping the eager obligation check:
     every warm hit re-checks its witness at admission anyway, so the
     lazy path defers exactly that work — it never skips it. *)
  let clean = marker_valid io gen journal in
  let sc = scan ~eager:(not clean) io gen in
  (* Drop torn tails so appends resume at the committed end, and consume
     the marker — the store is dirty until the next clean close. *)
  if
    (match Io.size io (seg_name gen) with
    | Some n -> n > sc.sc_seg_len
    | None -> false)
  then Io.truncate io (seg_name gen) sc.sc_seg_len;
  if
    (match Io.size io (journal_name gen) with
    | Some n -> n > sc.sc_jlen
    | None -> false)
  then Io.truncate io (journal_name gen) sc.sc_jlen;
  if Io.exists io clean_name then Io.remove io clean_name;
  bump metrics sc.sc_rec;
  let c_append =
    match metrics with
    | Some m -> Metrics.counter m "persist.append"
    | None -> Metrics.counter (Metrics.create ()) "persist.append"
  in
  ( {
      io;
      mu = Mutex.create ();
      gen;
      seq = sc.sc_next_seq;
      seg_len = sc.sc_seg_len;
      closed = false;
      c_append;
    },
    sc.sc_rec )

(* Commit one record: segment bytes first (made durable before anything
   references them), then the journal entry that gives them existence. *)
let append_record t kind payload =
  Mutex.protect t.mu @@ fun () ->
  if t.closed then failwith "Omni_persist.Store: appending to a closed store";
  let record = frame kind payload in
  let seg = seg_name t.gen and journal = journal_name t.gen in
  Io.append t.io seg record;
  Io.fsync t.io seg;
  let jent =
    jframe ~seq:t.seq ~kind ~offset:t.seg_len ~rec_len:(String.length record)
      ~payload_digest:(Fnv64.digest_string payload)
  in
  Io.append t.io journal jent;
  Io.fsync t.io journal;
  t.seg_len <- t.seg_len + String.length record;
  t.seq <- t.seq + 1;
  Metrics.incr t.c_append

let append_module t bytes = append_record t kind_module bytes

let append_translation t ~cert =
  append_record t kind_translation (Certificate.encode cert)

let flush t = Mutex.protect t.mu (fun () -> ())

let close t =
  Mutex.protect t.mu @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    let journal =
      Option.value (Io.read t.io (journal_name t.gen)) ~default:""
    in
    publish t.io clean_name (clean_marker t.gen journal)
  end

(* -- offline tooling -------------------------------------------------- *)

type stat = {
  st_gen : int;
  st_seg_bytes : int;
  st_journal_bytes : int;
  st_records : int;
  st_clean : bool;
}

let stat io =
  let gen = read_gen io in
  let journal = Option.value (Io.read io (journal_name gen)) ~default:"" in
  {
    st_gen = gen;
    st_seg_bytes = Option.value (Io.size io (seg_name gen)) ~default:0;
    st_journal_bytes = String.length journal;
    st_records = String.length journal / jrec_size;
    st_clean = marker_valid io gen journal;
  }

let render_stat s =
  Printf.sprintf
    "generation %d: %d records, %d segment bytes, %d journal bytes, %s\n"
    s.st_gen s.st_records s.st_seg_bytes s.st_journal_bytes
    (if s.st_clean then "clean shutdown marker valid"
     else "no valid clean marker (dirty)")

let fsck io = (scan ~eager:true io (read_gen io)).sc_rec

let render_recovered r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "%s: %d journal records replayed; %d modules + %d translations \
     recovered; %d quarantined; %d torn tails dropped\n"
    (if r.r_clean then "clean" else "dirty")
    r.r_replayed
    (List.length r.r_modules)
    (List.length r.r_translations)
    (List.length r.r_quarantined)
    r.r_torn;
  List.iter
    (fun q -> Printf.bprintf b "  quarantined %s\n" (corrupt_to_string q))
    r.r_quarantined;
  Buffer.contents b

let compact ?metrics io =
  let gen = read_gen io in
  let sc = scan ~eager:true io gen in
  let r = sc.sc_rec in
  bump metrics r;
  let before =
    Option.value (Io.size io (seg_name gen)) ~default:0
    + Option.value (Io.size io (journal_name gen)) ~default:0
  in
  let gen' = gen + 1 in
  let seg' = seg_name gen' and journal' = journal_name gen' in
  if Io.exists io seg' then Io.remove io seg';
  if Io.exists io journal' then Io.remove io journal';
  (* Rebuild only the survivors, modules before the translations that
     reference them (replay order requires it). *)
  let seq = ref 0 in
  let seg_len = ref 0 in
  let jbuf = Buffer.create 256 in
  let sbuf = Buffer.create 1024 in
  let put kind payload =
    let record = frame kind payload in
    Buffer.add_string sbuf record;
    Buffer.add_string jbuf
      (jframe ~seq:!seq ~kind ~offset:!seg_len
         ~rec_len:(String.length record)
         ~payload_digest:(Fnv64.digest_string payload));
    incr seq;
    seg_len := !seg_len + String.length record
  in
  List.iter (fun bytes -> put kind_module bytes) r.r_modules;
  List.iter
    (fun rt -> put kind_translation (Certificate.encode rt.rt_cert))
    r.r_translations;
  let journal'' = Buffer.contents jbuf in
  Io.append io seg' (Buffer.contents sbuf);
  Io.fsync io seg';
  Io.append io journal' journal'';
  Io.fsync io journal';
  (* the commit point: until this rename lands, recovery still reads the
     old generation untouched *)
  publish io current_name (gen_pointer gen');
  Io.remove io (seg_name gen);
  Io.remove io (journal_name gen);
  if Io.exists io clean_name then Io.remove io clean_name;
  publish io clean_name (clean_marker gen' journal'');
  let after =
    Option.value (Io.size io seg') ~default:0
    + Option.value (Io.size io journal') ~default:0
  in
  (r, (before, after))

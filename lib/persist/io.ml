exception Crashed of string

type fault =
  | Crash_at of int
  | Torn_write of { op : int; keep : int }
  | Bit_flip of { op : int; bit : int }
  | Short_read of { file : string; drop : int }
  | Drop_fsync
  | Crash_before_rename of int
  | Crash_after_rename of int

(* A simulated file is its full written content plus how much of it the
   platter actually holds. A crash rolls content back to the durable
   prefix; fsync advances the durable mark (unless dropped). *)
type sfile = { mutable content : string; mutable durable : int }

type sim_state = {
  files : (string, sfile) Hashtbl.t;
  mutable faults : fault list;
  mutable ops : int; (* mutating operations performed *)
  mutable renames : int;
  mutable crashed : bool;
}

type t = Real of string (* root directory *) | Sim of sim_state

(* -- real ------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let real ~dir =
  mkdir_p dir;
  Real dir

let sim ?(faults = []) () =
  Sim
    {
      files = Hashtbl.create 8;
      faults;
      ops = 0;
      renames = 0;
      crashed = false;
    }

let reboot = function
  | Real _ -> ()
  | Sim s ->
      Hashtbl.iter
        (fun _ f -> f.content <- String.sub f.content 0 f.durable)
        s.files;
      s.crashed <- false

let disarm = function Real _ -> () | Sim s -> s.faults <- []
let mutations = function Real _ -> 0 | Sim s -> s.ops

(* -- sim fault machinery ---------------------------------------------- *)

let crash s what =
  s.crashed <- true;
  raise (Crashed what)

let alive s = if s.crashed then raise (Crashed "disk is down (crashed)")

(* Number this mutating operation and die here if the plan says so. *)
let mutating s what =
  alive s;
  let op = s.ops in
  s.ops <- op + 1;
  if
    List.exists (function Crash_at n -> n = op | _ -> false) s.faults
  then crash s (Printf.sprintf "crash at op %d (%s)" op what);
  op

let sfile s name =
  match Hashtbl.find_opt s.files name with
  | Some f -> f
  | None ->
      let f = { content = ""; durable = 0 } in
      Hashtbl.replace s.files name f;
      f

let flip_bit data bit =
  let n = String.length data * 8 in
  if n = 0 then data
  else begin
    let bit = bit mod n in
    let b = Bytes.of_string data in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

(* -- operations ------------------------------------------------------- *)

let read t name =
  match t with
  | Real dir -> (
      let path = Filename.concat dir name in
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
          let n = in_channel_length ic in
          let data = really_input_string ic n in
          close_in ic;
          Some data)
  | Sim s -> (
      alive s;
      match Hashtbl.find_opt s.files name with
      | None -> None
      | Some f ->
          let data = f.content in
          let dropped =
            List.fold_left
              (fun acc fault ->
                match fault with
                | Short_read { file; drop } when file = name -> max acc drop
                | _ -> acc)
              0 s.faults
          in
          Some (String.sub data 0 (max 0 (String.length data - dropped))))

let exists t name =
  match t with
  | Real dir -> Sys.file_exists (Filename.concat dir name)
  | Sim s ->
      alive s;
      Hashtbl.mem s.files name

let size t name =
  match t with
  | Real dir -> (
      match (Unix.stat (Filename.concat dir name)).Unix.st_size with
      | n -> Some n
      | exception Unix.Unix_error _ -> None)
  | Sim s -> (
      alive s;
      match Hashtbl.find_opt s.files name with
      | None -> None
      | Some f -> Some (String.length f.content))

(* Directory-entry durability: the real implementation syncs the parent
   directory after creating, renaming or removing a file so the entry
   survives a crash; the sim models directory metadata as journaled
   (entries durable on return), which is what the rename faults then
   perturb. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let append t name data =
  match t with
  | Real dir ->
      let path = Filename.concat dir name in
      let created = not (Sys.file_exists path) in
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
      in
      output_string oc data;
      close_out oc;
      if created then fsync_dir dir
  | Sim s -> (
      let op = mutating s (Printf.sprintf "append %s" name) in
      let f = sfile s name in
      let torn =
        List.find_opt
          (function Torn_write { op = n; _ } -> n = op | _ -> false)
          s.faults
      in
      match torn with
      | Some (Torn_write { keep; _ }) ->
          (* The half-write reached the platter: durable, then dead. *)
          let keep = min (max 0 keep) (String.length data) in
          f.content <- f.content ^ String.sub data 0 keep;
          f.durable <- String.length f.content;
          crash s (Printf.sprintf "torn write at op %d (%s)" op name)
      | _ ->
          let data =
            List.fold_left
              (fun data fault ->
                match fault with
                | Bit_flip { op = n; bit } when n = op -> flip_bit data bit
                | _ -> data)
              data s.faults
          in
          f.content <- f.content ^ data)

let fsync t name =
  match t with
  | Real dir -> (
      let path = Filename.concat dir name in
      match Unix.openfile path [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.fsync fd))
  | Sim s ->
      ignore (mutating s (Printf.sprintf "fsync %s" name));
      if not (List.mem Drop_fsync s.faults) then begin
        match Hashtbl.find_opt s.files name with
        | None -> ()
        | Some f -> f.durable <- String.length f.content
      end

let rename t src dst =
  match t with
  | Real dir ->
      Sys.rename (Filename.concat dir src) (Filename.concat dir dst);
      fsync_dir dir
  | Sim s ->
      ignore (mutating s (Printf.sprintf "rename %s -> %s" src dst));
      let r = s.renames in
      s.renames <- r + 1;
      if
        List.exists
          (function Crash_before_rename n -> n = r | _ -> false)
          s.faults
      then crash s (Printf.sprintf "crash before rename %d (%s)" r dst);
      (match Hashtbl.find_opt s.files src with
      | None -> raise (Sys_error (src ^ ": no such file"))
      | Some f ->
          Hashtbl.remove s.files src;
          (* the replace is atomic and journaled: both the entry and the
             bytes it points at survive as-is *)
          f.durable <- String.length f.content;
          Hashtbl.replace s.files dst f);
      if
        List.exists
          (function Crash_after_rename n -> n = r | _ -> false)
          s.faults
      then crash s (Printf.sprintf "crash after rename %d (%s)" r dst)

let remove t name =
  match t with
  | Real dir -> (
      match Sys.remove (Filename.concat dir name) with
      | () -> fsync_dir dir
      | exception Sys_error _ -> ())
  | Sim s ->
      ignore (mutating s (Printf.sprintf "remove %s" name));
      Hashtbl.remove s.files name

let truncate t name len =
  match t with
  | Real dir -> (
      try Unix.truncate (Filename.concat dir name) len
      with Unix.Unix_error _ -> ())
  | Sim s -> (
      ignore (mutating s (Printf.sprintf "truncate %s" name));
      match Hashtbl.find_opt s.files name with
      | None -> ()
      | Some f ->
          let len = min (max 0 len) (String.length f.content) in
          f.content <- String.sub f.content 0 len;
          f.durable <- min f.durable len)

(* The omnid child process: spawned on a throwaway Unix socket inside the
   working directory, waited for, and always stopped and reaped — on
   success, on failure, and on interruption — together with its socket
   file. *)

module Client = Omni_net.Client

type t = { pid : int; sock : string; client : Client.t }

(* Built beside this executable: <build>/benchmark/omnibench.exe and
   <build>/bin/omnid.exe (a declared link dependency of omnibench). *)
let exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "omnid.exe")

let out_dir = "omnibench-out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let spawned = ref 0

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM asks omnid to drain; SIGKILL follows if it has not exited
   within two seconds. Either way the child is reaped before returning. *)
let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 2. in
  let rec poll () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        poll ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] pid)
    | _ -> ()
  in
  try poll () with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Block until omnid prints its readiness line on [fd], or fail after ten
   seconds or when it exits first. *)
let await_ready fd =
  let deadline = Unix.gettimeofday () +. 10. in
  let buf = Bytes.create 256 in
  let seen = Buffer.create 64 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "omnid did not become ready within 10 s";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> failwith ("omnid exited before listening: " ^ Buffer.contents seen)
        | n ->
            Buffer.add_subbytes seen buf 0 n;
            if not (String.contains (Buffer.contents seen) '\n') then go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start () =
  ensure_out_dir ();
  incr spawned;
  let sock =
    Filename.concat out_dir
      (Printf.sprintf "omnid-%d-%d.sock" (Unix.getpid ()) !spawned)
  in
  remove sock;
  let exe = exe () in
  if not (Sys.file_exists exe) then failwith ("omnid not found at " ^ exe);
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--socket"; sock |] Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let connect () =
    Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> await_ready rd);
    Client.connect ~read_timeout:60. (Omni_net.Transport.Unix_sock sock)
  in
  match connect () with
  | client -> { pid; sock; client }
  | exception e ->
      reap pid;
      remove sock;
      raise e

let stop d =
  (try Client.close d.client with _ -> ());
  reap d.pid;
  remove d.sock

let with_daemon f =
  let d = start () in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> 0.
      in
      find ())

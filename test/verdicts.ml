(* Verdict goldens: what the full verifier ([Exec.verify]) and the
   certifying verifier ([Exec.certify]) report for one translation —
   acceptance, or the first failing instruction and its reason — plus,
   on acceptance, a digest of the certificate's obligations.

   [verdict_goldens.txt] holds one line per case, [suite|case|verdict].
   The file was recorded with the event-array verifier (summarize every
   slot, then judge the stream) and must hold for the one-pass scan that
   replaced it: same verdicts, same first failures, same obligations. *)

module Exec = Omni_service.Exec
module Cert = Omni_cert.Certificate
module Fnv64 = Omni_util.Fnv64

let file = "verdict_goldens.txt"

let obligations_digest (obs : Omni_sfi.Witness.obligation array) =
  Array.fold_left
    (fun h (ob : Omni_sfi.Witness.obligation) ->
      Fnv64.mix_int
        (Fnv64.mix_int h ob.Omni_sfi.Witness.ox)
        (Omni_sfi.Witness.kind_code ob.Omni_sfi.Witness.kind))
    0L obs

let verdict ~module_digest ~mode ~opts tr =
  let verify = match Exec.verify ~mode tr with Ok () -> "ok" | Error e -> e in
  let certify =
    match Exec.certify ~module_digest ~mode ~opts tr with
    | Ok c ->
        Printf.sprintf "ok %d obligations %s" (Array.length c.Cert.obs)
          (Fnv64.to_hex (obligations_digest c.Cert.obs))
    | Error e -> e
  in
  Printf.sprintf "verify %s|certify %s" verify certify

(* [got] is this suite's [(case, verdict)] list; every golden line of the
   suite must be produced, and nothing else. *)
let check suite (got : (string * string) list) =
  let want = Hashtbl.create 1024 and lines = ref 0 in
  In_channel.with_open_text file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l -> (
            match String.index_opt l '|' with
            | Some k when String.sub l 0 k = suite -> (
                let rest = String.sub l (k + 1) (String.length l - k - 1) in
                match String.index_opt rest '|' with
                | Some m ->
                    incr lines;
                    Hashtbl.replace want (String.sub rest 0 m)
                      (String.sub rest (m + 1) (String.length rest - m - 1));
                    go ()
                | None -> go ())
            | _ -> go ())
      in
      go ());
  let bad =
    List.filter (fun (case, v) -> Hashtbl.find_opt want case <> Some v) got
  in
  if bad <> [] || !lines <> List.length got then
    Alcotest.failf "%d of %d verdicts differ (%d goldens); got:\n%s"
      (List.length bad) (List.length got) !lines
      (String.concat "\n"
         (List.map (fun (case, v) -> String.concat "|" [ suite; case; v ]) bad))

(* Runs [omnibench --smoke] (one pass of every workload, untraced and
   traced) and checks its result lines: every output matched its oracle,
   the traced ledger covers the request time, and the metrics printed are
   exactly those BENCHMARK.json declares, with the same units.

   Usage: test_smoke OMNIBENCH_EXE BENCHMARK_JSON *)

(* Just enough JSON for BENCHMARK.json and the result lines. *)
type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

let parse s =
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "json: %s at %d" what !pos) in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      ws ())
  in
  let eat c =
    ws ();
    if !pos >= String.length s || s.[!pos] <> c then fail (Printf.sprintf "expected %c" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= String.length s
       && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          Buffer.add_char b s.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if s.[!pos] = close then (
      incr pos;
      [])
    else
      let x = item () in
      ws ();
      if s.[!pos] = ',' then (
        incr pos;
        x :: seq close item)
      else (
        eat close;
        [ x ])
  and value () =
    ws ();
    match s.[!pos] with
    | '{' ->
        incr pos;
        Obj
          (seq '}' (fun () ->
               let k = str () in
               eat ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < String.length s && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let field k = function
  | Obj kvs -> ( try List.assoc k kvs with Not_found -> failwith ("no field " ^ k))
  | _ -> failwith ("not an object looking for " ^ k)

let str = function Str s -> s | _ -> failwith "not a string"
let num = function Num f -> f | _ -> failwith "not a number"

let exe, manifest_file =
  match Sys.argv with
  | [| _; exe; manifest |] -> (exe, manifest)
  | _ -> failwith "usage: test_smoke OMNIBENCH_EXE BENCHMARK_JSON"

let declared section =
  match field section (parse (In_channel.with_open_bin manifest_file In_channel.input_all)) with
  | Arr ms -> List.map (fun m -> (str (field "name" m), str (field "unit" m))) ms
  | _ -> failwith (section ^ " is not a list")

(* The smoke run's result lines, in order: per workload, the end-to-end
   line and then the per-layer line. *)
let results =
  lazy
    (let ic = Unix.open_process_args_in exe [| exe; "--smoke" |] in
     let out = In_channel.input_all ic in
     (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> ()
     | _ -> Alcotest.fail "omnibench --smoke did not exit 0");
     String.split_on_char '\n' out
     |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
     |> List.map parse)

let printed r =
  match field "metrics" r with
  | Obj ms -> List.map (fun (name, m) -> (name, str (field "unit" m))) ms
  | _ -> failwith "metrics is not an object"

let e2e_and_layers () =
  let rs = Lazy.force results in
  Alcotest.(check int) "two lines per workload" 6 (List.length rs);
  List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i r -> (i, r)) rs)
  |> fun (e2e, layers) -> (List.map snd e2e, List.map snd layers)

let all_correct () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "correct" true (field "correct" r = Bool true);
      Alcotest.(check (float 0.)) "failed" 0. (num (field "failed" r));
      Alcotest.(check bool) "attempted" true (num (field "attempted" r) >= 1.))
    (Lazy.force results)

let coverage () =
  let _, layers = e2e_and_layers () in
  List.iter
    (fun r ->
      let c = num (field "value" (field "ledger.coverage" (field "metrics" r))) in
      if c < 0.9 || c > 1.0 then Alcotest.failf "ledger.coverage %g outside [0.9, 1.0]" c)
    layers

let names_match_manifest () =
  let e2e, layers = e2e_and_layers () in
  let pair = Alcotest.(list (pair string string)) in
  List.iter (fun r -> Alcotest.check pair "end-to-end metrics" (declared "end_to_end") (printed r)) e2e;
  List.iter (fun r -> Alcotest.check pair "per-layer metrics" (declared "per_layer") (printed r)) layers

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "omnibench-smoke"
    [ ("smoke",
       [ Alcotest.test_case "every output matches its oracle" `Quick all_correct;
         Alcotest.test_case "ledger coverage in [0.9, 1.0]" `Quick coverage;
         Alcotest.test_case "metrics match BENCHMARK.json" `Quick names_match_manifest ]) ]

let hot_paths_of_json (text : string) : (string * int) list =
  match String.index_opt text '{' with
  | None -> []
  | Some _ -> (
      let key = "\"hot_paths\"" in
      let rec find i =
        if i + String.length key > String.length text then None
        else if String.sub text i (String.length key) = key then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> []
      | Some i -> (
          match String.index_from_opt text i '{' with
          | None -> []
          | Some open_brace -> (
              let start = open_brace + 1 in
              match String.index_from_opt text start '}' with
              | None -> []
              | Some stop ->
                  let body = String.sub text start (stop - start) in
                  String.split_on_char ',' body
                  |> List.filter_map (fun line ->
                         match String.split_on_char ':' line with
                         | [ name; value ] -> (
                             let name = String.trim name in
                             let name =
                               if String.length name >= 2 && name.[0] = '"'
                               then String.sub name 1 (String.length name - 2)
                               else name
                             in
                             match int_of_string_opt (String.trim value) with
                             | Some v -> Some (name, v)
                             | None -> None)
                         | _ -> None))))

type entry = {
  rows : (string * (string * int) list) list;
  hot : (string * int) list;
}

let json_of_sections ~size sections =
  let obj indent fields =
    if fields = [] then "{}"
    else
      let field (k, v) = Printf.sprintf "%s  \"%s\": %s" indent k v in
      Printf.sprintf "{\n%s\n%s}"
        (String.concat ",\n" (List.map field fields))
        indent
  in
  let ints fields =
    List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) fields
    |> String.concat ", " |> Printf.sprintf "{%s}"
  in
  let section (name, e) =
    (name, obj "  " (List.map (fun (row, fields) -> (row, ints fields)) e.rows))
  in
  let hot = List.concat_map (fun (_, e) -> e.hot) sections in
  obj ""
    ([ ("schema", "\"omni-bench/1\""); ("size", "\"" ^ size ^ "\"") ]
    @ List.map section sections
    @ [ ("hot_paths",
         obj "  " (List.map (fun (k, v) -> (k, string_of_int v)) hot)) ])
  ^ "\n"

type diff = {
  d_regressions : (string * int * int) list;
  d_new : string list;
  d_dropped : string list;
  d_compared : int;
}

let default_threshold = 1.20
let default_min_delta = 10

let diff ?(threshold = default_threshold) ?(min_delta = default_min_delta)
    ~baseline ~fresh () =
  let d_new =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name baseline then None else Some name)
      fresh
  in
  let d_dropped =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name fresh then None else Some name)
      baseline
  in
  let compared = ref 0 in
  let d_regressions =
    List.filter_map
      (fun (name, now) ->
        match List.assoc_opt name baseline with
        | None -> None
        | Some before ->
            incr compared;
            if
              before > 0
              && float_of_int now > threshold *. float_of_int before
              && now - before > min_delta
            then Some (name, before, now)
            else None)
      fresh
  in
  { d_regressions; d_new; d_dropped; d_compared = !compared }

let merge_min prev fresh =
  List.map
    (fun (name, v) ->
      match List.assoc_opt name prev with
      | Some v' -> (name, min v v')
      | None -> (name, v))
    fresh

let skip_summary d =
  if d.d_new = [] && d.d_dropped = [] then None
  else
    let clause label = function
      | [] -> []
      | keys ->
          [ Printf.sprintf "%d %s (%s)" (List.length keys) label
              (String.concat ", " keys) ]
    in
    Some
      (Printf.sprintf "bench-gate: skipped %s — new keys are gated once a snapshot holds them"
         (String.concat " and "
            (clause "new" d.d_new @ clause "dropped" d.d_dropped)))

let snapshot_numbers names =
  let prefix = "BENCH_" and suffix = ".json" in
  List.filter_map
    (fun name ->
      if String.starts_with ~prefix name && String.ends_with ~suffix name then
        let digits =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix - String.length suffix)
        in
        if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
        then Option.map (fun n -> (n, name)) (int_of_string_opt digits)
        else None
      else None)
    names

let latest_snapshot names =
  List.fold_left
    (fun best (n, name) ->
      match best with
      | Some (m, _) when n <= m -> best
      | _ -> Some (n, name))
    None (snapshot_numbers names)
  |> Option.map snd

let next_snapshot names =
  let latest =
    List.fold_left (fun m (n, _) -> max m n) 0 (snapshot_numbers names)
  in
  Printf.sprintf "BENCH_%d.json" (latest + 1)

let render_regression (name, before, now) =
  Printf.sprintf "bench-gate: REGRESSION %s: %dus -> %dus (%+.0f%%)" name
    before now
    (100. *. (float_of_int now /. float_of_int before -. 1.))

(* The benchmark's own arithmetic: nearest-rank percentiles and the
   ten-beyond rule for reporting p95, the span ledger's self-time
   accounting, and the seed-determinism of the generated inputs. *)

open Omnibench_lib

let floats = List.map float_of_int

let percentiles () =
  let one_to_100 = floats (List.init 100 (fun i -> i + 1)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile ~pct:50 one_to_100);
  Alcotest.(check (float 0.)) "p95 of 1..100" 95. (Stats.percentile ~pct:95 one_to_100);
  Alcotest.(check (float 0.)) "p100 is the max" 100. (Stats.percentile ~pct:100 one_to_100);
  Alcotest.(check (float 0.)) "unsorted input" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even count takes the lower middle" 2.
    (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "single sample" 7. (Stats.percentile ~pct:95 [ 7. ]);
  Alcotest.(check (float 0.)) "no samples" 0. (Stats.median [])

let ten_beyond () =
  Alcotest.(check int) "rank of p95 in 200" 190 (Stats.rank ~pct:95 200);
  Alcotest.(check int) "200 samples leave 10 beyond p95" 10 (Stats.beyond ~pct:95 200);
  Alcotest.(check bool) "200 samples resolve p95" true (Stats.supported ~pct:95 200);
  Alcotest.(check int) "199 samples leave 9" 9 (Stats.beyond ~pct:95 199);
  Alcotest.(check bool) "199 samples do not" false (Stats.supported ~pct:95 199);
  Alcotest.(check int) "nothing beyond nothing" 0 (Stats.beyond ~pct:95 0)

(* A span tree: time passes before the children, then each child runs,
   then time passes again. *)
type tree = Node of int * tree list * int

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           map3
             (fun before kids after -> Node (before, kids, after))
             (int_bound 1000)
             (if n <= 1 then return [] else list_size (int_bound 4) (self (n / 3)))
             (int_bound 1000)))

let rec size (Node (_, kids, _)) = List.fold_left (fun n k -> n + size k) 1 kids

let self_times_sum_to_root =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"self times sum to the request's duration"
       (QCheck.make gen_tree)
       (fun tree ->
         let now = ref 0 in
         let led = Ledger.create (fun () -> !now) in
         let rec walk (Node (before, kids, after)) =
           now := !now + before;
           List.iter (fun k -> Ledger.span led "child" (fun () -> walk k)) kids;
           now := !now + after
         in
         Ledger.request led (fun () -> walk tree);
         let spans = Ledger.spans led in
         let self = Ledger.self_times spans in
         let root = List.find (fun (s : Ledger.span) -> s.parent < 0) spans in
         List.length spans = size tree
         && Hashtbl.fold (fun _ v acc -> acc && v >= 0) self true
         && Hashtbl.fold (fun _ v acc -> acc + v) self 0 = root.t1 - root.t0))

let same_schedule (a : Inputs.t) (b : Inputs.t) =
  Array.for_all2 (fun (x : Inputs.modul) (y : Inputs.modul) -> x.wire = y.wire)
    a.modules b.modules
  && a.requests = b.requests
  && Inputs.pass a 1 = Inputs.pass b 1
  && Inputs.digest a = Inputs.digest b

let seeded name make () =
  let a = make 1996 and b = make 1996 and c = make 7 in
  Alcotest.(check bool) (name ^ ": same seed, same modules and order") true
    (same_schedule a b);
  Alcotest.(check bool) (name ^ ": another seed, another digest") false
    (Inputs.digest a = Inputs.digest c)

let () =
  Alcotest.run "omnibench"
    [ ("stats", [ Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
                  Alcotest.test_case "ten samples beyond p95" `Quick ten_beyond ]);
      ("ledger", [ self_times_sum_to_root ]);
      ("schedule",
       [ Alcotest.test_case "tiny-wire" `Quick (seeded "tiny" (fun seed -> Inputs.tiny ~seed));
         Alcotest.test_case "cold-wire" `Quick
           (seeded "cold" (fun seed -> Inputs.cold ~seed ~n:20));
         Alcotest.test_case "spec-inproc" `Quick (seeded "spec" (fun seed -> Inputs.spec ~seed)) ]) ]

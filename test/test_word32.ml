(* Unit and property tests for 32-bit word arithmetic and the FNV-1a
   digest. *)

module W = Omni_util.Word32

let check = Alcotest.(check int)

let unit_tests =
  [ Alcotest.test_case "wrap add" `Quick (fun () ->
        check "max+1" W.min_int32 (W.add W.max_int32 1);
        check "min-1" W.max_int32 (W.sub W.min_int32 1);
        check "0+0" 0 (W.add 0 0));
    Alcotest.test_case "canonical" `Quick (fun () ->
        check "of_int wraps" 0 (W.of_int 0x100000000);
        check "of_int sign" (-1) (W.of_int 0xFFFFFFFF);
        check "of_int keep" 123 (W.of_int 123));
    Alcotest.test_case "mul" `Quick (fun () ->
        check "simple" 42 (W.mul 6 7);
        check "wrap" 0 (W.mul 0x10000 0x10000);
        check "neg" (-42) (W.mul (-6) 7);
        check "big" (W.of_int (0xFFFFFFFF * 3)) (W.mul (-1) 3));
    Alcotest.test_case "div trunc toward zero" `Quick (fun () ->
        check "7/2" 3 (W.div 7 2);
        check "-7/2" (-3) (W.div (-7) 2);
        check "7/-2" (-3) (W.div 7 (-2));
        check "-7/-2" 3 (W.div (-7) (-2));
        check "min/-1 wraps" W.min_int32 (W.div W.min_int32 (-1)));
    Alcotest.test_case "rem sign" `Quick (fun () ->
        check "7%2" 1 (W.rem 7 2);
        check "-7%2" (-1) (W.rem (-7) 2);
        check "7%-2" 1 (W.rem 7 (-2)));
    Alcotest.test_case "divu/remu" `Quick (fun () ->
        check "unsigned div" 0x7FFFFFFF (W.divu (-2) 2);
        check "unsigned rem" 0 (W.remu (-2) 2);
        check "divu small" 3 (W.divu 7 2));
    Alcotest.test_case "div by zero" `Quick (fun () ->
        Alcotest.check_raises "div" W.Division_by_zero (fun () ->
            ignore (W.div 1 0));
        Alcotest.check_raises "remu" W.Division_by_zero (fun () ->
            ignore (W.remu 1 0)));
    Alcotest.test_case "shifts" `Quick (fun () ->
        check "sll" 256 (W.shift_left 1 8);
        check "sll wrap" W.min_int32 (W.shift_left 1 31);
        check "srl sign" 1 (W.shift_right_logical W.min_int32 31);
        check "sra sign" (-1) (W.shift_right_arith W.min_int32 31);
        check "amount mod 32" 2 (W.shift_left 1 33));
    Alcotest.test_case "extensions" `Quick (fun () ->
        check "sext8 pos" 0x7F (W.sext8 0x7F);
        check "sext8 neg" (-1) (W.sext8 0xFF);
        check "zext8" 0xFF (W.zext8 0xFFF);
        check "sext16 neg" (-1) (W.sext16 0xFFFF);
        check "zext16" 0x8000 (W.zext16 0x8000));
    Alcotest.test_case "unsigned compare" `Quick (fun () ->
        Alcotest.(check bool) "ltu" true (W.ltu 1 (-1));
        Alcotest.(check bool) "ltu2" false (W.ltu (-1) 1);
        Alcotest.(check bool) "leu eq" true (W.leu (-1) (-1)));
    Alcotest.test_case "bytes" `Quick (fun () ->
        let v = W.of_bytes 0x78 0x56 0x34 0x12 in
        check "assemble" 0x12345678 v;
        check "byte0" 0x78 (W.byte v 0);
        check "byte3" 0x12 (W.byte v 3))
  ]

(* properties *)

let arb32 =
  QCheck.map W.of_int
    QCheck.(oneof [ int_bound 1000; int; always 0; always W.min_int32;
                    always W.max_int32 ])

let prop name arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:2000 ~name arb p)

let props =
  [ prop "canonical range" arb32 (fun x -> x >= W.min_int32 && x <= W.max_int32);
    prop "add comm"
      QCheck.(pair arb32 arb32)
      (fun (a, b) -> W.add a b = W.add b a);
    prop "add assoc"
      QCheck.(triple arb32 arb32 arb32)
      (fun (a, b, c) -> W.add (W.add a b) c = W.add a (W.add b c));
    prop "sub inverse"
      QCheck.(pair arb32 arb32)
      (fun (a, b) -> W.add (W.sub a b) b = a);
    prop "mul matches int64"
      QCheck.(pair arb32 arb32)
      (fun (a, b) ->
        let m64 = Int64.mul (Int64.of_int a) (Int64.of_int b) in
        let lo = Int64.to_int (Int64.logand m64 0xFFFFFFFFL) in
        W.mul a b = W.of_int lo);
    prop "div euclid-ish"
      QCheck.(pair arb32 arb32)
      (fun (a, b) ->
        b = 0 || (a = W.min_int32 && b = -1)
        || W.add (W.mul (W.div a b) b) (W.rem a b) = a);
    prop "divu matches unsigned"
      QCheck.(pair arb32 arb32)
      (fun (a, b) ->
        b = 0 || W.divu a b = W.of_int (W.to_unsigned a / W.to_unsigned b));
    prop "logical ops agree with land/lor/lxor"
      QCheck.(pair arb32 arb32)
      (fun (a, b) ->
        W.logand a b = W.of_int (a land b)
        && W.logor a b = W.of_int (a lor b)
        && W.logxor a b = W.of_int (a lxor b));
    prop "byte roundtrip" arb32 (fun x ->
        W.of_bytes (W.byte x 0) (W.byte x 1) (W.byte x 2) (W.byte x 3) = x);
    prop "sext8 idempotent" arb32 (fun x -> W.sext8 (W.sext8 x) = W.sext8 x);
    prop "unsigned view roundtrip" arb32 (fun x ->
        W.of_unsigned (W.to_unsigned x) = x)
  ]

(* The published FNV-1a 64 test vectors, and the two entry points and
   seeding agreeing with one another. *)
module Fnv = Omni_util.Fnv64

let fnv_tests =
  [ Alcotest.test_case "known answers" `Quick (fun () ->
        List.iter
          (fun (input, want) ->
            Alcotest.(check string) (Printf.sprintf "%S" input) want
              (Fnv.to_hex (Fnv.digest_string input));
            Alcotest.(check string) (Printf.sprintf "%S as bytes" input) want
              (Fnv.to_hex (Fnv.digest_bytes (Bytes.of_string input))))
          [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
            ("foobar", "85944171f73967e8") ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"seeding continues a digest"
         QCheck.(pair string string)
         (fun (a, b) ->
           Fnv.equal
             (Fnv.digest_string ~seed:(Fnv.digest_string a) b)
             (Fnv.digest_string (a ^ b)))) ]

let () =
  Alcotest.run "word32"
    [ ("units", unit_tests); ("props", props); ("fnv64", fnv_tests) ]

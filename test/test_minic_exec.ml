(* Differential execution tests: every program runs on the AST oracle, the
   OmniVM interpreter, and all four target simulators (with and without
   SFI), and must produce identical output everywhere. This is the
   correctness backbone of the whole system. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine

let engines = [ "interp"; "mips"; "sparc"; "ppc"; "x86" ]

let run_everywhere ?(regs = [ 16 ]) name src =
  (* oracle *)
  let tp = Minic.Driver.typed_program_with_stdlib src in
  let expected =
    match Minic.Oracle.run ~fuel:200_000_000 tp with
    | Minic.Oracle.Exited 0, out -> out
    | Minic.Oracle.Exited c, _ -> Alcotest.failf "%s: oracle exited %d" name c
    | Minic.Oracle.Failed m, _ -> Alcotest.failf "%s: oracle failed: %s" name m
    | Minic.Oracle.Ran_off_end _, _ -> Alcotest.failf "%s: oracle off end" name
  in
  List.iter
    (fun regfile_size ->
      let options = { Minic.Driver.opt_level = Minic.Opt.O2; regfile_size } in
      let exe = Minic.Driver.compile_exe ~options ~name src in
      List.iter
        (fun engine ->
          List.iter
            (fun sfi ->
              let e = Result.get_ok (Api.engine_of_string engine) in
              if not (e = Api.Interp && not sfi) then begin
                let r =
                  Api.run
                    { Api.default_request with
                      engine = e; sfi; fuel = Some 200_000_000 }
                    (Api.Exe exe)
                in
                (match r.Api.outcome with
                | Machine.Exited 0 -> ()
                | Machine.Exited c ->
                    Alcotest.failf "%s/%s/regs%d exited %d" name engine
                      regfile_size c
                | Machine.Faulted f ->
                    Alcotest.failf "%s/%s/regs%d fault: %s" name engine
                      regfile_size (Omnivm.Fault.to_string f)
                | Machine.Out_of_fuel ->
                    Alcotest.failf "%s/%s out of fuel" name engine);
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s/regs%d/sfi=%b" name engine
                     regfile_size sfi)
                  expected r.Api.output
              end)
            [ true; false ])
        engines)
    regs;
  expected

let t name ?regs src expected () =
  let got = run_everywhere ?regs name src in
  Alcotest.(check string) (name ^ " output") expected got

let cases =
  [ ("arith int",
     {| int main(void) {
          print_int(7 * 6); putchar(32);
          print_int(-17 / 5); putchar(32);
          print_int(-17 % 5); putchar(32);
          print_int(1 << 20); putchar(32);
          print_int(-64 >> 3); putchar(32);
          print_int((int)(4000000000u / 3u)); putchar(10);
          return 0; } |},
     "42 -3 -2 1048576 -8 1333333333\n");
    ("overflow wrap",
     {| int main(void) {
          int x; x = 2147483647;
          print_int(x + 1); putchar(32);
          print_int(x * 2); putchar(10);
          return 0; } |},
     "-2147483648 -2\n");
    ("unsigned compare",
     {| int main(void) {
          unsigned a; int b;
          a = 0xFFFFFFFFu; b = 1;
          print_int(a > (unsigned)b); putchar(32);
          print_int(-1 > 1); putchar(10);
          return 0; } |},
     "1 0\n");
    ("float math",
     {| int main(void) {
          double a; double b;
          a = 1.5; b = 0.25;
          print_float(a + b); putchar(32);
          print_float(a * b); putchar(32);
          print_float(a / b); putchar(32);
          print_float(-a); putchar(10);
          print_int(a < b); putchar(32);
          print_int((int)(a * 100.0)); putchar(10);
          return 0; } |},
     "1.750000 0.375000 6.000000 -1.500000\n0 150\n");
    ("conversions",
     {| int main(void) {
          double d; char c; int i;
          d = 3.99; i = (int)d; c = (char)300;
          print_int(i); putchar(32);
          print_int((int)c); putchar(32);
          d = (double)7 / 2.0;
          print_float(d); putchar(32);
          print_int((int)-2.7); putchar(10);
          return 0; } |},
     "3 44 3.500000 -2\n");
    ("pointers and arrays",
     {| int a[8];
        int main(void) {
          int *p; int i; int s;
          for (i = 0; i < 8; i++) a[i] = i * i;
          p = a + 2;
          s = *p + p[1] + *(p + 2);
          print_int(s); putchar(32);
          print_int((int)(&a[7] - a)); putchar(10);
          return 0; } |},
     "29 7\n");
    ("strings and chars",
     {| int main(void) {
          char *s; int n; int i; int sum;
          s = "hello, world";
          n = strlen(s);
          sum = 0;
          for (i = 0; i < n; i++) sum += (int)s[i];
          print_int(n); putchar(32);
          print_int(sum); putchar(10);
          print_str(s); putchar(10);
          return 0; } |},
     "12 1160\nhello, world\n");
    ("struct linked list",
     {| struct node { int v; struct node *next; };
        int main(void) {
          struct node *head; struct node *n; int i; int s;
          head = 0;
          for (i = 1; i <= 5; i++) {
            n = (struct node *)malloc((int)sizeof(struct node));
            n->v = i * 10; n->next = head; head = n;
          }
          s = 0;
          for (n = head; n != 0; n = n->next) s += n->v;
          print_int(s); putchar(10);
          return 0; } |},
     "150\n");
    ("struct copy and nesting",
     {| struct inner { int a; int b; };
        struct outer { struct inner in; double d; char tag; };
        int main(void) {
          struct outer x; struct outer y;
          x.in.a = 3; x.in.b = 4; x.d = 2.5; x.tag = 'z';
          y = x;
          x.in.a = 99;
          print_int(y.in.a + y.in.b); putchar(32);
          print_float(y.d); putchar(32);
          putchar((int)y.tag); putchar(10);
          return 0; } |},
     "7 2.500000 z\n");
    ("recursion",
     {| int ack(int m, int n) {
          if (m == 0) return n + 1;
          if (n == 0) return ack(m - 1, 1);
          return ack(m - 1, ack(m, n - 1));
        }
        int main(void) { print_int(ack(2, 3)); putchar(10); return 0; } |},
     "9\n");
    ("function pointers",
     {| int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        int apply(int (*f)(int, int), int a, int b) { return f(a, b); }
        int (*table[2])(int, int);
        int main(void) {
          table[0] = &add; table[1] = &mul;
          print_int(apply(table[0], 3, 4)); putchar(32);
          print_int(apply(table[1], 3, 4)); putchar(10);
          return 0; } |},
     "7 12\n");
    ("short circuit effects",
     {| int calls = 0;
        int bump(int r) { calls++; return r; }
        int main(void) {
          int r;
          r = bump(0) && bump(1);
          r = r + (bump(1) || bump(1));
          print_int(r); putchar(32);
          print_int(calls); putchar(10);
          return 0; } |},
     "1 2\n");
    ("ternary and compound",
     {| int main(void) {
          int x; int y;
          x = 10; y = 0;
          y += x > 5 ? 100 : 200;
          y -= 3; y *= 2; y /= 4; y <<= 1; y |= 1; y &= 0xFF; y ^= 0x0F;
          print_int(y); putchar(10);
          return 0; } |},
     "110\n");
    ("post/pre increment",
     {| int main(void) {
          int a[5]; int i; int x;
          for (i = 0; i < 5; i++) a[i] = 0;
          i = 0;
          a[i++] = 10;
          a[++i] = 20;
          x = a[0] + a[1] + a[2];
          print_int(x); putchar(32); print_int(i); putchar(10);
          x = 5;
          print_int(x++ + ++x); putchar(32); print_int(x); putchar(10);
          return 0; } |},
     "30 2\n12 7\n");
    ("globals with initializers",
     {| int scal = 42;
        int arr[4] = {1, 2, 3};
        double dd = 0.125;
        char msg[8] = "hey";
        struct pt { int x; int y; };
        struct pt origin = {5, 6};
        int *ptr = &scal;
        int main(void) {
          print_int(scal + arr[0] + arr[1] + arr[2] + arr[3]); putchar(32);
          print_float(dd); putchar(32);
          print_str(msg); putchar(32);
          print_int(origin.x * origin.y); putchar(32);
          print_int(*ptr); putchar(10);
          return 0; } |},
     "48 0.125000 hey 30 42\n");
    ("2d arrays",
     {| int m[3][4];
        int main(void) {
          int i; int j; int s;
          for (i = 0; i < 3; i++)
            for (j = 0; j < 4; j++)
              m[i][j] = i * 10 + j;
          s = 0;
          for (i = 0; i < 3; i++) s += m[i][i];
          print_int(s); putchar(32);
          print_int(m[2][3]); putchar(10);
          return 0; } |},
     "33 23\n");
    ("qsort stdlib",
     {| int cmp_int(char *a, char *b) { return *(int *)a - *(int *)b; }
        int v[8];
        int main(void) {
          int i;
          for (i = 0; i < 8; i++) v[i] = (i * 37) % 19;
          qsort((char *)v, 8, 4, &cmp_int);
          for (i = 0; i < 8; i++) { print_int(v[i]); putchar(32); }
          putchar(10);
          return 0; } |},
     "0 12 13 14 15 16 17 18 \n");
    ("malloc free reuse",
     {| int main(void) {
          char *a; char *b; char *c;
          a = malloc(100); strcpy(a, "first");
          free(a);
          b = malloc(60);     /* should reuse the freed block */
          strcpy(b, "second");
          c = malloc(200);
          strcpy(c, "third");
          print_str(b); putchar(32); print_str(c); putchar(32);
          print_int(a == b); putchar(10);
          return 0; } |},
     "second third 1\n");
    ("while with break/continue",
     {| int main(void) {
          int i; int s;
          i = 0; s = 0;
          while (1) {
            i++;
            if (i > 20) break;
            if (i % 3 == 0) continue;
            s += i;
          }
          print_int(s); putchar(10);
          return 0; } |},
     "147\n");
    ("char arithmetic",
     {| int main(void) {
          char c; int count; char *s;
          s = "AbCdE";
          count = 0;
          while (*s != 0) {
            c = *s;
            if (c >= 'A' && c <= 'Z') count++;
            s++;
          }
          print_int(count); putchar(10);
          return 0; } |},
     "3\n");
    ("sieve of eratosthenes",
     {| char comp[1000];
        int main(void) {
          int i; int j; int count;
          for (i = 0; i < 1000; i++) comp[i] = 0;
          for (i = 2; i < 1000; i++) {
            if (!comp[i]) {
              for (j = i * 2; j < 1000; j += i) comp[j] = 1;
            }
          }
          count = 0;
          for (i = 2; i < 1000; i++) if (!comp[i]) count++;
          print_int(count); putchar(10);
          return 0; } |},
     "168\n");
    ("matrix multiply doubles",
     {| double a[8][8]; double b[8][8]; double c[8][8];
        int main(void) {
          int i; int j; int k;
          double sum;
          for (i = 0; i < 8; i++)
            for (j = 0; j < 8; j++) {
              a[i][j] = (double)(i + j);
              b[i][j] = (double)(i - j);
            }
          for (i = 0; i < 8; i++)
            for (j = 0; j < 8; j++) {
              sum = 0.0;
              for (k = 0; k < 8; k++) sum += a[i][k] * b[k][j];
              c[i][j] = sum;
            }
          print_float(c[3][4]); putchar(32);
          print_float(c[7][0]); putchar(10);
          return 0; } |},
     "16.000000 336.000000\n");
    ("bubble sort strings",
     {| char *names[5];
        int main(void) {
          int i; int j; int n;
          char *t;
          names[0] = "pear"; names[1] = "apple"; names[2] = "fig";
          names[3] = "cherry"; names[4] = "banana";
          n = 5;
          for (i = 0; i < n - 1; i++)
            for (j = 0; j < n - 1 - i; j++)
              if (strcmp(names[j], names[j + 1]) > 0) {
                t = names[j]; names[j] = names[j + 1]; names[j + 1] = t;
              }
          for (i = 0; i < n; i++) { print_str(names[i]); putchar(32); }
          putchar(10);
          return 0; } |},
     "apple banana cherry fig pear \n");
    ("nested struct arrays",
     {| struct point { int x; int y; };
        struct path { struct point pts[4]; int len; };
        struct path paths[3];
        int main(void) {
          int p; int i; int total;
          for (p = 0; p < 3; p++) {
            paths[p].len = p + 2;
            for (i = 0; i < 4; i++) {
              paths[p].pts[i].x = p * 10 + i;
              paths[p].pts[i].y = p - i;
            }
          }
          total = 0;
          for (p = 0; p < 3; p++)
            for (i = 0; i < paths[p].len && i < 4; i++)
              total += paths[p].pts[i].x - paths[p].pts[i].y;
          print_int(total); putchar(10);
          return 0; } |},
     "119\n");
    ("unsigned wraparound loop",
     {| int main(void) {
          unsigned u; int steps;
          u = 0xFFFFFFFCu;
          steps = 0;
          while (u != 2u) { u += 1u; steps++; }
          print_int(steps); putchar(32);
          print_int((int)u); putchar(10);
          return 0; } |},
     "6 2\n");
    ("memcpy memset memcmp",
     {| char a[32]; char bb[32];
        int main(void) {
          int i;
          for (i = 0; i < 32; i++) a[i] = (char)(i * 3);
          memset(bb, 0, 32);
          print_int(memcmp(a, bb, 32) != 0); putchar(32);
          memcpy(bb, a, 32);
          print_int(memcmp(a, bb, 32)); putchar(32);
          bb[31] = (char)((int)bb[31] + 1);
          print_int(memcmp(a, bb, 32) < 0); putchar(10);
          return 0; } |},
     "1 0 1\n");
    ("double recursion",
     {| double power(double x, int n) {
          if (n == 0) return 1.0;
          if (n % 2 == 0) { double h; h = power(x, n / 2); return h * h; }
          return x * power(x, n - 1);
        }
        int main(void) {
          print_float(power(2.0, 10)); putchar(32);
          print_float(power(1.5, 3)); putchar(10);
          return 0; } |},
     "1024.000000 3.375000\n");
    ("pointer to pointer",
     {| int main(void) {
          int x; int *p; int **pp;
          x = 5; p = &x; pp = &p;
          **pp = 9;
          print_int(x); putchar(32);
          print_int(*p + **pp); putchar(10);
          return 0; } |},
     "9 18\n");
    ("compound loop condition",
     {| int main(void) {
          int i; int hits;
          hits = 0;
          for (i = 0; i < 50 && hits < 5; i++)
            if (i % 7 == 3) hits++;
          print_int(i); putchar(32); print_int(hits); putchar(10);
          return 0; } |},
     "32 5\n");
    ("stdlib math",
     {| int main(void) {
          print_float(sqrt(16.0)); putchar(32);
          print_float(fabs(-2.5)); putchar(32);
          print_int((int)(exp(1.0) * 1000.0)); putchar(32);
          print_int(abs(-42)); putchar(10);
          return 0; } |},
     "4.000000 2.500000 2718 42\n")
  ]

(* exercise small register files on a subset (slow-ish) *)
let regfile_cases =
  [ ("spill heavy",
     {| int f(int a, int b, int c, int d) {
          int e; int g; int h; int i; int j;
          e = a * b + c; g = b * c + d; h = c * d + a; i = d * a + b;
          j = f2(e, g, h, i) + f2(g, h, i, e);
          return e + g + h + i + j;
        }
        int f2(int a, int b, int c, int d) { return a + 2 * b + 3 * c + 4 * d; }
        int main(void) {
          print_int(f(1, 2, 3, 4)); putchar(10);
          return 0; } |},
     "196\n") ]

(* --- random differential testing (qcheck) --- *)

let gen_program rng =
  let ri n = Random.State.int rng n in
  let gen_expr depth vars =
    let buf = Buffer.create 64 in
    let rec go depth =
      if depth = 0 || ri 4 = 0 then
        match ri 3 with
        | 0 -> Buffer.add_string buf (string_of_int (ri 100 - 50))
        | _ -> Buffer.add_string buf (List.nth vars (ri (List.length vars)))
      else begin
        Buffer.add_char buf '(';
        go (depth - 1);
        Buffer.add_string buf
          (match ri 9 with
          | 0 -> " + " | 1 -> " - " | 2 -> " * " | 3 -> " < " | 4 -> " == "
          | 5 -> " & " | 6 -> " ^ " | 7 -> " | " | _ -> " != ");
        go (depth - 1);
        Buffer.add_char buf ')'
      end
    in
    go depth;
    Buffer.contents buf
  in
  let nfuncs = 1 + ri 4 in
  let buf = Buffer.create 1024 in
  for idx = 0 to nfuncs - 1 do
    Printf.bprintf buf "int f%d(int a, int b, int c, int d) {\n" idx;
    let nlocals = 1 + ri 7 in
    let vars = ref [ "a"; "b"; "c"; "d" ] in
    for i = 0 to nlocals - 1 do
      Printf.bprintf buf "  int v%d;\n" i
    done;
    for i = 0 to nlocals - 1 do
      if idx > 0 && ri 3 = 0 then
        Printf.bprintf buf "  v%d = f%d(%s, %s, %s, %s);\n" i (ri idx)
          (gen_expr 2 !vars) (gen_expr 2 !vars) (gen_expr 2 !vars)
          (gen_expr 2 !vars)
      else Printf.bprintf buf "  v%d = %s;\n" i (gen_expr (1 + ri 3) !vars);
      vars := Printf.sprintf "v%d" i :: !vars
    done;
    Printf.bprintf buf
      "  { int i; int s; s = 0; for (i = 0; i < %d; i++) { s += %s; } return s + %s; }\n}\n"
      (1 + ri 5) (gen_expr 2 !vars) (gen_expr 3 !vars)
  done;
  Printf.bprintf buf
    "int main(void) { print_int(f%d(3, 5, 7, 11)); putchar(10); return 0; }\n"
    (nfuncs - 1);
  Buffer.contents buf

let random_diff =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"random programs agree everywhere"
       (QCheck.make
          ~print:(fun s -> s)
          QCheck.Gen.(
            int >>= fun seed ->
            return (gen_program (Random.State.make [| seed |]))))
       (fun src ->
         match run_everywhere ~regs:[ 16; 10 ] "random" src with
         | _ -> true
         | exception _ -> false))

let opt_levels_agree () =
  (* O0 / O1 / O2 must agree on output *)
  let src =
    {| int g = 3;
       int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int main(void) {
         int x; double d;
         x = fib(10) + g * 100;
         d = (double)x / 4.0;
         print_int(x); putchar(32); print_float(d); putchar(10);
         return 0; } |}
  in
  let out level =
    let options = { Minic.Driver.opt_level = level; regfile_size = 16 } in
    let exe = Minic.Driver.compile_exe ~options ~name:"lv" src in
    let r = Api.run Api.default_request (Api.Exe exe) in
    r.Api.output
  in
  let o2 = out Minic.Opt.O2 in
  Alcotest.(check string) "O0 = O2" o2 (out Minic.Opt.O0);
  Alcotest.(check string) "O1 = O2" o2 (out Minic.Opt.O1);
  Alcotest.(check string) "value" "355 88.750000\n" o2

let () =
  Alcotest.run "minic-exec"
    [ ("programs",
       List.map (fun (name, src, expected) ->
           Alcotest.test_case name `Quick (t name src expected))
         cases);
      ("regfiles",
       List.map (fun (name, src, expected) ->
           Alcotest.test_case name `Quick
             (t name ~regs:[ 8; 10; 12; 14; 16 ] src expected))
         regfile_cases);
      ("random", [ random_diff ]);
      ("levels", [ Alcotest.test_case "opt levels agree" `Quick opt_levels_agree ])
    ]

(* OmniVM tests: instruction semantics via the reference interpreter, the
   segmented memory model, the wire format, and the virtual exception
   model. *)

module VI = Omnivm.Instr
module W = Omni_util.Word32

(* --- helpers: assemble, link, run under the interpreter --- *)

let run_asm ?(fuel = 1_000_000) src =
  let obj = Omni_asm.Parse.assemble ~name:"t" src in
  let exe = Omni_asm.Link.link [ obj ] in
  let img = Omni_runtime.Loader.load exe in
  let outcome, st = Omni_runtime.Loader.run_interp ~fuel img in
  (outcome, Omni_runtime.Host.output img.Omni_runtime.Loader.host, st)

let expect_output ?fuel src expected =
  let outcome, out, _ = run_asm ?fuel src in
  (match outcome with
  | Omnivm.Interp.Exited 0 -> ()
  | Omnivm.Interp.Exited n -> Alcotest.failf "exit %d" n
  | Omnivm.Interp.Faulted f -> Alcotest.failf "fault: %s" (Omnivm.Fault.to_string f)
  | Omnivm.Interp.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check string) "output" expected out

let expect_fault src pred =
  let outcome, _, _ = run_asm src in
  match outcome with
  | Omnivm.Interp.Faulted f ->
      if not (pred f) then
        Alcotest.failf "unexpected fault %s" (Omnivm.Fault.to_string f)
  | Omnivm.Interp.Exited n -> Alcotest.failf "exited %d, expected fault" n
  | Omnivm.Interp.Out_of_fuel -> Alcotest.fail "out of fuel"

(* a main that prints r1 after running [body] *)
let wrap body =
  Printf.sprintf
    {|
        .text
        .globl main
main:
%s
        hcall 2
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
|}
    body

let smoke () =
  expect_output
    (wrap {|
        li r1, 6
        li r2, 7
        mul r1, r1, r2 |})
    "42\n"

let arith () =
  expect_output (wrap "li r1, 10\nli r2, 3\ndiv r1, r1, r2") "3\n";
  expect_output (wrap "li r1, -10\nli r2, 3\ndiv r1, r1, r2") "-3\n";
  expect_output (wrap "li r1, -10\nli r2, 3\nrem r1, r1, r2") "-1\n";
  expect_output (wrap "li r1, -1\nli r2, 2\ndivu r1, r1, r2") "2147483647\n";
  expect_output (wrap "li r1, 0x7fffffff\naddi r1, r1, 1") "-2147483648\n";
  expect_output (wrap "li r1, 1\nslli r1, r1, 31") "-2147483648\n";
  expect_output (wrap "li r1, -8\nsrai r1, r1, 1") "-4\n";
  expect_output (wrap "li r1, -8\nsrli r1, r1, 28") "15\n";
  expect_output (wrap "li r1, 12\nli r2, 10\nslt r1, r1, r2") "0\n";
  expect_output (wrap "li r1, -1\nli r2, 1\nsltu r1, r1, r2") "0\n";
  expect_output (wrap "li r1, -1\nli r2, 1\nslt r1, r1, r2") "1\n"

let memory_ops () =
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, 0x12345678
        sw r3, 0(r2)
        lbu r1, 0(r2)      ; little-endian low byte |}
     ^ "\n        .data\nbuf: .space 8\n")
    "120\n";
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, -2
        sh r3, 2(r2)
        lh r1, 2(r2) |}
     ^ "\n        .data\nbuf: .space 8\n")
    "-2\n";
  expect_output
    (wrap
       {|
        li r2, buf
        li r3, 200
        sb r3, 1(r2)
        lb r1, 1(r2)       ; sign-extended byte load |}
     ^ "\n        .data\nbuf: .space 8\n")
    "-56\n"

let float_ops () =
  expect_output
    (wrap {|
        fli.d f1, 1.5
        fli.d f2, 2.25
        fadd.d f3, f1, f2
        cvt.w.d r1, f3 |})
    "3\n";
  expect_output
    (wrap {|
        fli.d f1, 7.0
        fli.d f2, 2.0
        fdiv.d f3, f1, f2
        cvt.w.d r1, f3 |})
    "3\n";
  expect_output
    (wrap {|
        li r2, -3
        cvt.d.w f1, r2
        fabs.d f2, f1
        cvt.w.d r1, f2 |})
    "3\n";
  expect_output
    (wrap {|
        fli.d f1, 1.5
        fli.d f2, 1.5
        feq.d r1, f1, f2 |})
    "1\n"

let ext_ins () =
  expect_output
    (wrap {|
        li r2, 0x12345678
        ext r1, r2, 1, 2   ; bytes 1..2 -> 0x3456 |})
    (Printf.sprintf "%d\n" 0x3456);
  expect_output
    (wrap {|
        li r1, 0x11223344
        li r2, 0xAB
        ins r1, r2, 3, 1   ; byte 3 := 0xAB |})
    (Printf.sprintf "%d\n" (W.of_int 0xAB223344))

let branches () =
  expect_output
    (wrap {|
        li r1, 0
        li r2, 5
loop:   addi r1, r1, 1
        bne r1, r2, loop |})
    "5\n";
  expect_output
    (wrap {|
        li r1, -5
        bgti r1, -10, yes
        li r1, 0
        j done1
yes:    li r1, 1
done1:  nop |})
    "1\n";
  expect_output
    (wrap {|
        li r1, -5
        li r2, 3
        bgtu r1, r2, yes   ; -5 unsigned is huge
        li r1, 0
        j done1
yes:    li r1, 1
done1:  nop |})
    "1\n"

let calls () =
  expect_output
    {|
        .text
        .globl main
double: add r1, r1, r1
        jr r15
main:   addi r14, r14, -16
        sw r15, 0(r14)
        li r1, 21
        jal double
        hcall 2
        li r1, 10
        hcall 1
        lw r15, 0(r14)
        addi r14, r14, 16
        li r1, 0
        hcall 0
|}
    "42\n";
  (* indirect call through a function pointer in data *)
  expect_output
    {|
        .data
fptr:   .word triple
        .text
        .globl main
triple: li r9, 3
        mul r1, r1, r9
        jr r15
main:   addi r14, r14, -16
        sw r15, 0(r14)
        li r1, 14
        lw r5, fptr(r0)
        jalr r15, r5
        hcall 2
        li r1, 10
        hcall 1
        lw r15, 0(r14)
        addi r14, r14, 16
        li r1, 0
        hcall 0
|}
    "42\n"

(* --- faults and the virtual exception model --- *)

let fault_unmapped () =
  expect_fault
    (wrap {|
        li r2, 0x00000040
        lw r1, 0(r2) |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Read; _ } -> true
      | _ -> false)

let fault_write_code () =
  expect_fault
    (wrap {|
        li r2, 0x10000000
        li r3, 1
        sw r3, 0(r2) |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Write; _ } -> true
      | _ -> false)

let fault_div0 () =
  expect_fault
    (wrap {|
        li r1, 1
        li r2, 0
        div r1, r1, r2 |})
    (function Omnivm.Fault.Division_by_zero -> true | _ -> false)

let fault_bad_jump () =
  expect_fault
    (wrap {|
        li r2, 0x20000000
        jr r2 |})
    (function
      | Omnivm.Fault.Access_violation { access = Omnivm.Fault.Execute; _ } ->
          true
      | _ -> false)

(* The module registers a handler; a division by zero is delivered to it
   instead of aborting (paper: the SDCA exception model). *)
let handler_delivery () =
  expect_output
    {|
        .text
        .globl main
handler:
        ; r1 = fault code (3 = division by zero)
        hcall 2
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
main:
        li r1, handler
        hcall 7            ; set_handler
        li r2, 0
        li r3, 4
        div r3, r3, r2     ; faults; delivered to handler
        li r1, 99          ; unreachable
        hcall 2
        li r1, 1
        hcall 0
|}
    "3\n"

let unauthorized_hcall () =
  let obj =
    Omni_asm.Parse.assemble ~name:"t"
      {|
        .text
        .globl main
main:   li r1, 65
        hcall 1
        li r1, 0
        hcall 0
|}
  in
  let exe = Omni_asm.Link.link [ obj ] in
  (* host only allows exit: the putchar must fault *)
  let img = Omni_runtime.Loader.load ~allow:[ Omnivm.Hostcall.Exit ] exe in
  match Omni_runtime.Loader.run_interp img with
  | Omnivm.Interp.Faulted (Omnivm.Fault.Unauthorized_host_call { index = 1 }), _ -> ()
  | o, _ ->
      Alcotest.failf "expected unauthorized host call, got %s"
        (match o with
        | Omnivm.Interp.Exited n -> Printf.sprintf "exit %d" n
        | Omnivm.Interp.Faulted f -> Omnivm.Fault.to_string f
        | Omnivm.Interp.Out_of_fuel -> "fuel")

let sbrk_heap () =
  expect_output
    (wrap {|
        li r1, 64
        hcall 5            ; sbrk
        addi r2, r1, 0
        li r3, 77
        sw r3, 0(r2)
        lw r1, 0(r2) |})
    "77\n"

(* --- memory unit tests --- *)

let memory_unit () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"a" ~base:0x1000 ~size:0x1000
       ~perm:Omnivm.Memory.perm_rw);
  Omnivm.Memory.store32 mem 0x1000 0x11223344;
  Alcotest.(check int) "load32" 0x11223344 (Omnivm.Memory.load32 mem 0x1000);
  Alcotest.(check int) "load8 le" 0x44 (Omnivm.Memory.load8 mem 0x1000);
  Alcotest.(check int) "load16" 0x3344 (Omnivm.Memory.load16 mem 0x1000);
  Omnivm.Memory.store_float mem 0x1008 3.25;
  Alcotest.(check (float 0.0)) "float" 3.25 (Omnivm.Memory.load_float mem 0x1008);
  Alcotest.check_raises "unmapped"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation { addr = 0x0; access = Omnivm.Fault.Read }))
    (fun () -> ignore (Omnivm.Memory.load8 mem 0x0));
  (* permission change *)
  Omnivm.Memory.set_perm mem "a" Omnivm.Memory.perm_r;
  Alcotest.check_raises "read-only"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation
          { addr = 0x1000; access = Omnivm.Fault.Write }))
    (fun () -> Omnivm.Memory.store8 mem 0x1000 1);
  (* straddling the region end *)
  Alcotest.check_raises "straddle"
    (Omnivm.Fault.Vm_fault
       (Omnivm.Fault.Access_violation
          { addr = 0x2001; access = Omnivm.Fault.Read }))
    (fun () -> ignore (Omnivm.Memory.load32 mem 0x1FFE))

let overlap_rejected () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"a" ~base:0x1000 ~size:0x2000
       ~perm:Omnivm.Memory.perm_rw);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Memory.map: overlapping regions") (fun () ->
      ignore
        (Omnivm.Memory.map mem ~name:"b" ~base:0x2000 ~size:0x1000
           ~perm:Omnivm.Memory.perm_rw))

(* An 8-byte store whose high word faults writes nothing: not past the
   region end, not into a read-only neighbour, not when its low word
   straddles a page. *)
let store_float_precise () =
  let module M = Omnivm.Memory in
  let mem = M.create () in
  ignore (M.map mem ~name:"a" ~base:0x1000 ~size:0x1000 ~perm:M.perm_rw);
  ignore (M.map mem ~name:"b" ~base:0x3000 ~size:0x1000 ~perm:M.perm_rw);
  ignore (M.map mem ~name:"ro" ~base:0x4000 ~size:0x1000 ~perm:M.perm_r);
  ignore (M.map mem ~name:"c" ~base:0x6000 ~size:0x1004 ~perm:M.perm_rw);
  let violation addr =
    Omnivm.Fault.Vm_fault
      (Omnivm.Fault.Access_violation { addr; access = Omnivm.Fault.Write })
  in
  let pattern = Bytes.of_string "\x5A\x5A\x5A\x5A\xA5\xA5\xA5\xA5" in
  (* [len] bytes at [addr] still hold the pattern from byte [off] on *)
  let unchanged name addr off len =
    Alcotest.(check string) name
      (Bytes.sub_string pattern off len)
      (Bytes.to_string (M.read_bytes mem ~addr ~len))
  in
  M.blit_in mem ~addr:0x1FFC (Bytes.sub pattern 0 4);
  Alcotest.check_raises "high word past the region end" (violation 0x2000)
    (fun () -> M.store_float mem 0x1FFC 1.0);
  unchanged "region end: low word intact" 0x1FFC 0 4;
  M.blit_in mem ~addr:0x3FFC (Bytes.sub pattern 0 4);
  M.blit_in mem ~addr:0x4000 (Bytes.sub pattern 4 4);
  Alcotest.check_raises "high word read-only" (violation 0x4000) (fun () ->
      M.store64 mem 0x3FFC 0x0123456789ABCDEFL);
  unchanged "read-only neighbour: low word intact" 0x3FFC 0 4;
  unchanged "read-only neighbour: high word intact" 0x4000 4 4;
  M.blit_in mem ~addr:0x6FFE (Bytes.sub pattern 0 6);
  Alcotest.check_raises "straddling low word, short high word" (violation 0x7005)
    (fun () -> M.store_float mem 0x6FFE 2.5);
  unchanged "page straddle: bytes intact" 0x6FFE 0 6

(* A released memory maps nothing: every checked access faults at its
   address, every bulk access is refused. Its own pages, and only those,
   go to the free list. *)
let release_unmaps () =
  let module M = Omnivm.Memory in
  let mem = M.create () in
  ignore (M.map mem ~name:"a" ~base:0x1000 ~size:0x3000 ~perm:M.perm_rw);
  M.store32 mem 0x1000 7;
  M.store_float mem 0x2FF8 1.5;
  M.blit_in mem ~addr:0x3000 (Bytes.make 16 'x');
  Alcotest.(check int) "owns three pages" 3 (M.resident_pages mem);
  let before = M.recycled_pages () in
  M.release mem;
  Alcotest.(check int) "three pages freed"
    (min (before + 3) 256) (M.recycled_pages ());
  Alcotest.(check int) "owns nothing" 0 (M.resident_pages mem);
  let faults name access f =
    Alcotest.check_raises name
      (Omnivm.Fault.Vm_fault
         (Omnivm.Fault.Access_violation { addr = 0x1000; access }))
      (fun () -> ignore (f ()))
  in
  let rd = Omnivm.Fault.Read and wr = Omnivm.Fault.Write in
  faults "load8" rd (fun () -> M.load8 mem 0x1000);
  faults "load16" rd (fun () -> M.load16 mem 0x1000);
  faults "load32" rd (fun () -> M.load32 mem 0x1000);
  faults "load64" rd (fun () -> M.load64 mem 0x1000);
  faults "load_float" rd (fun () -> M.load_float mem 0x1000);
  faults "load_single" rd (fun () -> M.load_single mem 0x1000);
  faults "read_cstring" rd (fun () -> M.read_cstring mem ~addr:0x1000 ~max_len:4);
  faults "store8" wr (fun () -> M.store8 mem 0x1000 1);
  faults "store16" wr (fun () -> M.store16 mem 0x1000 1);
  faults "store32" wr (fun () -> M.store32 mem 0x1000 1);
  faults "store64" wr (fun () -> M.store64 mem 0x1000 1L);
  faults "store_float" wr (fun () -> M.store_float mem 0x1000 1.0);
  faults "store_single" wr (fun () -> M.store_single mem 0x1000 1.0);
  Alcotest.check_raises "blit_in" (Invalid_argument "Memory.blit_in: unmapped")
    (fun () -> M.blit_in mem ~addr:0x1000 (Bytes.make 1 'y'));
  Alcotest.check_raises "read_bytes"
    (Invalid_argument "Memory.read_bytes: unmapped") (fun () ->
      ignore (M.read_bytes mem ~addr:0x1000 ~len:1));
  Alcotest.(check bool) "no region" true (M.region_of mem 0x1000 = None);
  (* a second release, or releasing a memory that never wrote, frees
     nothing *)
  let n = M.recycled_pages () in
  M.release mem;
  let clean = M.create () in
  ignore (M.map clean ~name:"a" ~base:0x1000 ~size:0x3000 ~perm:M.perm_rw);
  ignore (M.load32 clean 0x1000);
  M.release clean;
  Alcotest.(check int) "nothing more freed" n (M.recycled_pages ())

(* Shared pages never reach the free list: after images mapped from the
   same initial pages and from the zero page write and are released, every
   free page is taken and scribbled over, and the shared pages still read
   as they did. *)
let release_keeps_shared_pages () =
  let module M = Omnivm.Memory in
  let size = 0x10000 in
  let init = Bytes.init 0x3000 (fun i -> Char.chr (1 + (i mod 251))) in
  let pages = M.pages ~size ~at:0x1000 init in
  let image () =
    let mem = M.create () in
    ignore (M.map ~init:pages mem ~name:"data" ~base:0x100000 ~size ~perm:M.perm_rw);
    ignore (M.map mem ~name:"zero" ~base:0x200000 ~size ~perm:M.perm_rw);
    mem
  in
  for _ = 1 to 3 do
    let mem = image () in
    for k = 0 to (size / 4096) - 1 do
      M.store8 mem (0x100000 + (k * 4096) + 5) 0xEE;
      M.store8 mem (0x200000 + (k * 4096) + 5) 0xEE
    done;
    M.release mem
  done;
  (* drain the free list into a big region, writing every byte *)
  let drain = M.create () in
  let n = M.recycled_pages () in
  ignore (M.map drain ~name:"d" ~base:0x1000000 ~size:(n * 4096) ~perm:M.perm_rw);
  M.blit_in drain ~addr:0x1000000 (Bytes.make (n * 4096) '\xFF');
  Alcotest.(check int) "free list drained" 0 (M.recycled_pages ());
  let mem = image () in
  let want = Bytes.make size '\000' in
  Bytes.blit init 0 want 0x1000 (Bytes.length init);
  Alcotest.(check bool) "initial pages intact" true
    (Bytes.equal want (M.read_bytes mem ~addr:0x100000 ~len:size));
  Alcotest.(check bool) "zero page intact" true
    (Bytes.equal (Bytes.make size '\000') (M.read_bytes mem ~addr:0x200000 ~len:size))

(* --- paged memory against a flat reference model ---

   Random operation sequences run against [Omnivm.Memory] and against a
   flat [Bytes.t]-per-region model of the same semantics; every step must
   return the same value or raise the same fault. A [Release] step
   releases the memory and maps a fresh one in its place (the model goes
   back to its initial bytes), so later writes reuse the released pages
   and any byte they leak shows as a disagreement. *)

module Flat = struct
  module M = Omnivm.Memory
  module F = Omnivm.Fault

  type region = {
    name : string;
    base : int;
    size : int;
    mutable perm : M.perm;
    bytes : Bytes.t;
  }

  let fault addr access = raise (F.Vm_fault (F.Access_violation { addr; access }))

  let find t addr =
    List.find_opt (fun r -> addr >= r.base && addr < r.base + r.size) t

  let check t addr width access =
    match find t addr with
    | None -> fault addr access
    | Some r ->
        let ok =
          match access with
          | F.Read -> r.perm.M.read
          | F.Write -> r.perm.M.write
          | F.Execute -> r.perm.M.execute
        in
        if not ok then fault addr access;
        if addr - r.base + width > r.size then fault (addr + width - 1) access;
        r

  (* unsigned little-endian *)
  let load t addr width =
    let addr = addr land 0xFFFFFFFF in
    let r = check t addr width F.Read in
    let v = ref 0 in
    for i = width - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get r.bytes (addr - r.base + i))
    done;
    !v

  let store t addr width v =
    let addr = addr land 0xFFFFFFFF in
    let r = check t addr width F.Write in
    for i = 0 to width - 1 do
      Bytes.set r.bytes (addr - r.base + i)
        (Char.chr ((v lsr (8 * i)) land 0xFF))
    done

  let load64 t addr =
    let lo = load t addr 4 in
    let hi = load t (addr + 4) 4 in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

  let store64 t addr v =
    ignore (check t (addr land 0xFFFFFFFF) 4 F.Write);
    ignore (check t ((addr + 4) land 0xFFFFFFFF) 4 F.Write);
    store t addr 4 (Int64.to_int v);
    store t (addr + 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))

  let trusted what t addr len =
    match find t addr with
    | None -> invalid_arg ("Memory." ^ what ^ ": unmapped")
    | Some r ->
        if addr - r.base + len > r.size then
          invalid_arg ("Memory." ^ what ^ ": overflow");
        r

  let blit_in t addr b =
    let r = trusted "blit_in" t addr (Bytes.length b) in
    Bytes.blit b 0 r.bytes (addr - r.base) (Bytes.length b)

  let read_bytes t addr len =
    let r = trusted "read_bytes" t addr len in
    Bytes.sub r.bytes (addr - r.base) len

  let read_cstring t addr max_len =
    let buf = Buffer.create 16 in
    let rec go a n =
      if n < max_len then
        let c = load t a 1 in
        if c <> 0 then (
          Buffer.add_char buf (Char.chr c);
          go (a + 1) (n + 1))
    in
    go addr 0;
    Buffer.contents buf

  let set_perm t name p = (List.find (fun r -> r.name = name) t).perm <- p
end

(* name, base, size, perm; "lo"/"hi" make 8-byte accesses wrap at 2^32,
   "a"/"b" are adjacent with a read-only, page-ragged "b", and "init" is
   mapped from shared initial pages. *)
let model_regions =
  Omnivm.Memory.
    [ ("lo", 0x0, 0x1000, perm_rw);
      ("a", 0x10000, 0x3000, perm_rw);
      ("b", 0x13000, 0x1800, perm_r);
      ("init", 0x20000, 0x2000, perm_rw);
      ("hi", 0xFFFFF000, 0x1000, perm_rw) ]

let model_perms =
  Omnivm.Memory.
    [ perm_rw; perm_r; perm_rx; perm_rwx;
      { read = false; write = false; execute = false } ]

type mop =
  | Load of int * int (* width 1, 2, 4 or 8; address *)
  | Load_float of int
  | Load_single of int
  | Store of int * int * int
  | Store_float of int * int64 (* bits *)
  | Store_single of int * int32
  | Blit of int * string
  | Read of int * int
  | Cstring of int * int
  | Perm of string * int (* index into [model_perms] *)
  | Release

let show_mop = function
  | Load (w, a) -> Printf.sprintf "load%d 0x%x" (8 * w) a
  | Load_float a -> Printf.sprintf "load_float 0x%x" a
  | Load_single a -> Printf.sprintf "load_single 0x%x" a
  | Store (w, a, v) -> Printf.sprintf "store%d 0x%x %d" (8 * w) a v
  | Store_float (a, b) -> Printf.sprintf "store_float 0x%x 0x%Lx" a b
  | Store_single (a, b) -> Printf.sprintf "store_single 0x%x 0x%lx" a b
  | Blit (a, s) -> Printf.sprintf "blit_in 0x%x (%d bytes)" a (String.length s)
  | Read (a, n) -> Printf.sprintf "read_bytes 0x%x %d" a n
  | Cstring (a, n) -> Printf.sprintf "read_cstring 0x%x %d" a n
  | Perm (r, p) -> Printf.sprintf "set_perm %s #%d" r p
  | Release -> "release, then map afresh"

(* Addresses cluster on page boundaries, region ends and the bytes just
   outside a region. *)
let gen_model_addr =
  let open QCheck.Gen in
  let points =
    List.concat_map
      (fun (_, base, size, _) ->
        (base + size) :: List.init ((size / 4096) + 1) (fun k -> base + (k * 4096)))
      model_regions
  in
  frequency
    [ (9, map2 ( + ) (oneofl points) (int_range (-9) 9));
      (1, int_bound 0xFFFFFFFF) ]

let gen_mop =
  let open QCheck.Gen in
  let a = gen_model_addr in
  frequency
    [ (4, map2 (fun w a -> Load (w, a)) (oneofl [ 1; 2; 4; 8 ]) a);
      (1, map (fun a -> Load_float a) a);
      (1, map (fun a -> Load_single a) a);
      (4, map3 (fun w a v -> Store (w, a, v)) (oneofl [ 1; 2; 4; 8 ]) a int);
      (1, map2 (fun a b -> Store_float (a, b)) a ui64);
      (1, map2 (fun a b -> Store_single (a, b)) a ui32);
      (2, map2 (fun a s -> Blit (a, s)) a (string_size (int_bound 5000)));
      (2, map2 (fun a n -> Read (a, n)) a (int_bound 5000));
      (1, map2 (fun a n -> Cstring (a, n)) a (int_bound 64));
      (1,
       map2
         (fun (name, _, _, _) p -> Perm (name, p))
         (oneofl model_regions)
         (int_bound (List.length model_perms - 1)));
      (1, return Release) ]

type mres =
  | Int of int
  | I64 of int64
  | Str of string
  | Unit
  | Fault of Omnivm.Fault.t
  | Invalid of string

let observe f =
  match f () with
  | r -> r
  | exception Omnivm.Fault.Vm_fault x -> Fault x
  | exception Invalid_argument m -> Invalid m

let paged_step mem = function
  | Load (8, a) -> I64 (Omnivm.Memory.load64 mem a)
  | Load (4, a) -> Int (Omnivm.Memory.load32 mem a)
  | Load (2, a) -> Int (Omnivm.Memory.load16 mem a)
  | Load (_, a) -> Int (Omnivm.Memory.load8 mem a)
  | Load_float a -> I64 (Int64.bits_of_float (Omnivm.Memory.load_float mem a))
  | Load_single a ->
      I64 (Int64.bits_of_float (Omnivm.Memory.load_single mem a))
  | Store (8, a, v) -> Omnivm.Memory.store64 mem a (Int64.of_int v); Unit
  | Store (4, a, v) -> Omnivm.Memory.store32 mem a v; Unit
  | Store (2, a, v) -> Omnivm.Memory.store16 mem a v; Unit
  | Store (_, a, v) -> Omnivm.Memory.store8 mem a v; Unit
  | Store_float (a, b) ->
      Omnivm.Memory.store_float mem a (Int64.float_of_bits b); Unit
  | Store_single (a, b) ->
      Omnivm.Memory.store_single mem a (Int32.float_of_bits b); Unit
  | Blit (a, s) -> Omnivm.Memory.blit_in mem ~addr:a (Bytes.of_string s); Unit
  | Read (a, n) -> Str (Bytes.to_string (Omnivm.Memory.read_bytes mem ~addr:a ~len:n))
  | Cstring (a, n) -> Str (Omnivm.Memory.read_cstring mem ~addr:a ~max_len:n)
  | Perm (r, p) -> Omnivm.Memory.set_perm mem r (List.nth model_perms p); Unit
  | Release -> invalid_arg "paged_step: Release"

let flat_step flat = function
  | Load (8, a) -> I64 (Flat.load64 flat a)
  | Load (4, a) -> Int (W.of_int (Flat.load flat a 4))
  | Load (w, a) -> Int (Flat.load flat a w)
  | Load_float a ->
      I64 (Int64.bits_of_float (Int64.float_of_bits (Flat.load64 flat a)))
  | Load_single a ->
      I64
        (Int64.bits_of_float
           (Int32.float_of_bits (Int32.of_int (Flat.load flat a 4))))
  | Store (8, a, v) -> Flat.store64 flat a (Int64.of_int v); Unit
  | Store (w, a, v) -> Flat.store flat a w v; Unit
  | Store_float (a, b) ->
      Flat.store64 flat a (Int64.bits_of_float (Int64.float_of_bits b)); Unit
  | Store_single (a, b) ->
      Flat.store flat a 4
        (Int32.to_int (Int32.bits_of_float (Int32.float_of_bits b)));
      Unit
  | Blit (a, s) -> Flat.blit_in flat a (Bytes.of_string s); Unit
  | Read (a, n) -> Str (Bytes.to_string (Flat.read_bytes flat a n))
  | Cstring (a, n) -> Str (Flat.read_cstring flat a n)
  | Perm (r, p) -> Flat.set_perm flat r (List.nth model_perms p); Unit
  | Release -> invalid_arg "flat_step: Release"

let paged_vs_flat =
  let gen =
    QCheck.Gen.(
      triple (int_bound 0x1F00) (string_size (int_range 1 300))
        (list_size (int_range 1 60) gen_mop))
  in
  let print (at, init, ops) =
    Printf.sprintf "init: %d bytes at +0x%x\n%s" (String.length init) at
      (String.concat "\n" (List.map show_mop ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"paged memory = flat reference"
       (QCheck.make ~print gen)
       (fun (at, init, ops) ->
         let init_size = 0x2000 in
         let init = Bytes.of_string init in
         let init = Bytes.sub init 0 (min (Bytes.length init) (init_size - at)) in
         let pages = Omnivm.Memory.pages ~size:init_size ~at init in
         let fresh () =
           let mem = Omnivm.Memory.create () in
           List.iter
             (fun (name, base, size, perm) ->
               let init = if name = "init" then Some pages else None in
               ignore (Omnivm.Memory.map ?init mem ~name ~base ~size ~perm))
             model_regions;
           mem
         in
         let fresh_flat () =
           List.map
             (fun (name, base, size, perm) ->
               let bytes = Bytes.make size '\000' in
               if name = "init" then Bytes.blit init 0 bytes at (Bytes.length init);
               { Flat.name; base; size; perm; bytes })
             model_regions
         in
         let twin = fresh () in
         let mem = ref (fresh ()) and flat = ref (fresh_flat ()) in
         List.iter
           (function
             | Release ->
                 let old = !mem in
                 Omnivm.Memory.release old;
                 List.iter
                   (fun (_, base, _, _) ->
                     match observe (fun () -> Int (Omnivm.Memory.load8 old base)) with
                     | Fault _ -> ()
                     | _ ->
                         QCheck.Test.fail_reportf
                           "released memory still maps 0x%x" base)
                   model_regions;
                 mem := fresh ();
                 flat := fresh_flat ()
             | op ->
                 let got = observe (fun () -> paged_step !mem op) in
                 let want = observe (fun () -> flat_step !flat op) in
                 if got <> want then
                   QCheck.Test.fail_reportf "%s: paged and flat disagree"
                     (show_mop op))
           ops;
         let mem = !mem in
         (* every byte agrees at the end, and the twin mapped from the
            same initial pages never saw a write *)
         List.for_all
           (fun r ->
             Bytes.equal r.Flat.bytes
               (Omnivm.Memory.read_bytes mem ~addr:r.Flat.base ~len:r.Flat.size))
           !flat
         && Bytes.equal
              (Omnivm.Memory.read_bytes twin ~addr:0x20000 ~len:init_size)
              (let b = Bytes.make init_size '\000' in
               Bytes.blit init 0 b at (Bytes.length init);
               b)))

(* The crash report's hexdump window, cut from a faulting run's memory,
   equals the window cut from the flat reference: inside a region, at
   both edges of one, and outside every region. *)
let crash_window () =
  let module L = Omnivm.Layout in
  let canary = String.init 64 (fun i -> Char.chr (0xA0 + (i land 0xF))) in
  let globals = "\x44\x33\x22\x11\x88\x77\x66\x55" in
  let regions =
    [ (L.code_base, L.code_size); (L.data_base, L.data_size);
      (L.host_base, L.host_size) ]
  in
  let ref_byte a =
    let g = a - (L.data_base + L.reserved_data) and h = a - L.host_base in
    if g >= 0 && g < String.length globals then globals.[g]
    else if h >= 0 && h < String.length canary then canary.[h]
    else '\000'
  in
  let ref_window addr =
    match List.find_opt (fun (b, s) -> addr >= b && addr < b + s) regions with
    | None -> (-1, "")
    | Some (b, s) ->
        let lo = max b (addr - 32) and hi = min (b + s) (addr + 32) in
        (lo, String.init (hi - lo) (fun i -> ref_byte (lo + i)))
  in
  let case ~store ~addr ~fault_at =
    let src =
      Printf.sprintf
        {|
        .data
        .globl g
g:      .word 0x11223344
        .word 0x55667788
        .text
        .globl main
main:   li r2, %d
        li r3, 7
        %s r3, 0(r2)
        li r1, 0
        hcall 0
|}
        (W.of_int addr) store
    in
    let exe = Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"t" src ] in
    let img = Omni_service.Exec.load ~map_host_region:true exe in
    let mem = img.Omni_runtime.Loader.mem in
    Omnivm.Memory.blit_in mem ~addr:L.host_base (Bytes.of_string canary);
    (* read-only data and host regions, so stores inside them fault *)
    if store = "sb" then begin
      Omnivm.Memory.set_perm mem "data" Omnivm.Memory.perm_r;
      Omnivm.Memory.set_perm mem "host" Omnivm.Memory.perm_r
    end;
    let r = Omni_service.Exec.run_interp ~fuel:1000 img in
    let name = Printf.sprintf "%s 0x%x" store addr in
    (match r.Omni_service.Exec.outcome with
    | Omni_targets.Machine.Faulted
        (Omnivm.Fault.Access_violation { addr = a; access = Omnivm.Fault.Write })
      ->
        Alcotest.(check int) (name ^ ": fault address") fault_at a
    | _ -> Alcotest.failf "%s: expected a write access violation" name);
    match r.Omni_service.Exec.crash with
    | None -> Alcotest.failf "%s: no crash report" name
    | Some c ->
        let base, window = ref_window fault_at in
        Alcotest.(check int) (name ^ ": window base") base
          c.Omni_service.Exec.cs_window_base;
        Alcotest.(check string) (name ^ ": window") window
          c.Omni_service.Exec.cs_window
  in
  let data_end = L.data_base + L.data_size and code_end = L.code_base + L.code_size in
  List.iter
    (fun addr -> case ~store:"sb" ~addr ~fault_at:addr)
    [ L.data_base + L.reserved_data + 2; L.data_base; L.data_base + 31;
      data_end - 1; data_end - 32; L.code_base + 0x100; L.code_base;
      code_end - 1; L.host_base + 10; L.host_base + L.host_size - 1;
      data_end; L.host_base - 1; L.host_base + L.host_size; 0x0 ];
  (* straddling the end of a writable region faults just outside it *)
  case ~store:"sw" ~addr:(data_end - 2) ~fault_at:(data_end + 1)

(* --- wire format round-trip --- *)

let gen_reg = QCheck.Gen.int_bound 15

let gen_instr : int VI.t QCheck.Gen.t =
  let open QCheck.Gen in
  let imm = oneof [ int_bound 100; map W.of_int int; return 0 ] in
  let lab = map (fun i -> Omnivm.Layout.code_base + (4 * i)) (int_bound 1000) in
  let binop =
    oneofl
      [ VI.Add; Sub; Mul; Div; Divu; Rem; Remu; And; Or; Xor; Sll; Srl; Sra;
        Slt; Sltu ]
  in
  let cond =
    oneofl [ VI.Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ]
  in
  let width_s = oneofl [ (VI.W8, false); (W8, true); (W16, false); (W16, true); (W32, true) ] in
  let swidth = oneofl [ VI.W8; W16; W32 ] in
  let prec = oneofl [ VI.Single; VI.Double ] in
  oneof
    [ return VI.Nop;
      map2 (fun r i -> VI.Li (r, i)) gen_reg imm;
      (binop >>= fun op ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Binop (op, a, b, c)));
      (binop >>= fun op ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Binopi (op, a, b, i)));
      (width_s >>= fun (w, s) ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Load (w, s, a, b, i)));
      (swidth >>= fun w ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Store (w, a, b, i)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Fload (p, a, b, i)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       imm >>= fun i -> return (VI.Fstore (p, a, b, i)));
      (oneofl [ VI.Fadd; Fsub; Fmul; Fdiv ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Fbinop (op, p, a, b, c)));
      (oneofl [ VI.Fneg; Fabs; Fmov ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b -> return (VI.Funop (op, p, a, b)));
      (oneofl [ VI.Feq; Flt; Fle ] >>= fun op ->
       prec >>= fun p ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       gen_reg >>= fun c -> return (VI.Fcmp (op, p, a, b, c)));
      (prec >>= fun p ->
       gen_reg >>= fun a ->
       float_bound_inclusive 1000.0 >>= fun v -> return (VI.Fli (p, a, v)));
      (cond >>= fun c ->
       gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       lab >>= fun l -> return (VI.Br (c, a, b, l)));
      (cond >>= fun c ->
       gen_reg >>= fun a ->
       imm >>= fun i ->
       lab >>= fun l -> return (VI.Bri (c, a, i, l)));
      map (fun l -> VI.J l) lab;
      map (fun l -> VI.Jal l) lab;
      map (fun r -> VI.Jr r) gen_reg;
      map2 (fun a b -> VI.Jalr (a, b)) gen_reg gen_reg;
      (gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       int_bound 3 >>= fun pos ->
       int_range 1 (4 - pos) >>= fun len -> return (VI.Ext (a, b, pos, len)));
      (gen_reg >>= fun a ->
       gen_reg >>= fun b ->
       int_bound 3 >>= fun pos ->
       int_range 1 (4 - pos) >>= fun len -> return (VI.Ins (a, b, pos, len)));
      map (fun n -> VI.Hcall n) (int_bound 8);
      map (fun n -> VI.Trap n) (int_bound 100)
    ]

let arb_exe =
  QCheck.make
    ~print:(fun (e : Omnivm.Exe.t) ->
      Format.asprintf "%a" Omnivm.Exe.pp e)
    QCheck.Gen.(
      list_size (int_range 1 40) gen_instr >>= fun instrs ->
      string_size (int_bound 64) >>= fun data ->
      int_bound 256 >>= fun bss ->
      let text = Array.of_list instrs in
      return
        {
          Omnivm.Exe.text;
          entry = Omnivm.Layout.code_base;
          data = Bytes.of_string data;
          bss_size = bss;
          symbols = [ ("main", Omnivm.Layout.code_base) ];
        })

let wire_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"wire encode/decode roundtrip" arb_exe
       (fun exe ->
         let exe' = Omnivm.Wire.decode (Omnivm.Wire.encode exe) in
         exe'.Omnivm.Exe.text = exe.Omnivm.Exe.text
         && exe'.entry = exe.entry
         && Bytes.equal exe'.data exe.data
         && exe'.bss_size = exe.bss_size
         && exe'.symbols = exe.symbols))

(* decoding arbitrary bytes must never raise anything except Bad_module
   (and decoded modules must re-encode) *)
let wire_decode_robust =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"wire decode is total"
       QCheck.(string_of_size (QCheck.Gen.int_bound 200))
       (fun s ->
         (* half the time, corrupt a valid module instead of random bytes *)
         let s =
           if String.length s > 0 && Char.code s.[0] land 1 = 0 then s
           else begin
             let good =
               Omnivm.Wire.encode
                 { Omnivm.Exe.text = [| VI.Li (1, 42); VI.Hcall 0 |];
                   entry = Omnivm.Layout.code_base;
                   data = Bytes.of_string "abc"; bss_size = 4;
                   symbols = [ ("main", Omnivm.Layout.code_base) ] }
             in
             let b = Bytes.of_string good in
             String.iteri
               (fun i c ->
                 if i < Bytes.length b then
                   Bytes.set b (i * 31 mod Bytes.length b) c)
               s;
             Bytes.to_string b
           end
         in
         match Omnivm.Wire.decode s with
         | exe -> String.length (Omnivm.Wire.encode exe) > 0
         | exception Omnivm.Wire.Bad_module _ -> true))

let wire_rejects_garbage () =
  Alcotest.check_raises "magic" (Omnivm.Wire.Bad_module "bad magic")
    (fun () -> ignore (Omnivm.Wire.decode "NOPE"));
  let good = Omnivm.Wire.encode
      { Omnivm.Exe.text = [| VI.Nop |]; entry = Omnivm.Layout.code_base;
        data = Bytes.create 0; bss_size = 0; symbols = [] } in
  let truncated = String.sub good 0 (String.length good - 1) in
  (match Omnivm.Wire.decode truncated with
  | exception Omnivm.Wire.Bad_module _ -> ()
  | _ -> Alcotest.fail "truncated module accepted")

(* The entry must name an instruction of the text: every engine starts
   there, so a module that names none is malformed, not a run-time fault. *)
let wire_rejects_bad_entry () =
  let base = Omnivm.Layout.code_base in
  List.iter
    (fun (what, text, entry) ->
      let bytes =
        Omnivm.Wire.encode
          { Omnivm.Exe.text; entry; data = Bytes.empty; bss_size = 0;
            symbols = [] }
      in
      match Omnivm.Wire.decode bytes with
      | exception Omnivm.Wire.Bad_module _ -> ()
      | _ -> Alcotest.failf "module with %s accepted" what)
    [ ("a misaligned entry", [| VI.Nop; VI.Hcall 0 |], base + 1);
      ("an entry below the text", [| VI.Nop; VI.Hcall 0 |], base - 4);
      ("an entry past the text", [| VI.Nop; VI.Hcall 0 |], base + 8);
      ("no text", [||], base) ]

(* The interpreters allocate nothing per instruction: a loop that calls
   a function and takes a branch on every iteration, and alvinn, whose
   inner loops are FP loads, multiply-adds and stores, run their hundreds
   of thousands of instructions far below this bound on both engines,
   with what a run allocates being its set-up and its output. *)
let interp_allocation () =
  let calls =
    {| int step(int x) { if (x % 2 == 0) return x / 2; return 3 * x + 1; }
       int main(void) {
         int i; int s;
         s = 0;
         for (i = 1; i < 20000; i++) s += step(i) % 7;
         print_int(s); putchar(10);
         return 0;
       } |}
  in
  let alvinn =
    Omni_workloads.Workloads.(alvinn ~size:Test).Omni_workloads.Workloads.source
  in
  List.iter
    (fun (name, src) ->
      let exe = Minic.Driver.compile_exe ~name src in
      List.iter
        (fun (engine, run) ->
          let img = Omni_runtime.Loader.load exe in
          let before = Gc.minor_words () in
          let outcome, st = run img in
          let words = Gc.minor_words () -. before in
          (match outcome with
          | Omnivm.Interp.Exited 0 -> ()
          | _ -> Alcotest.failf "%s on %s did not exit cleanly" name engine);
          let per_instr = words /. float_of_int st.Omnivm.Interp.icount in
          if st.Omnivm.Interp.icount < 200_000 || per_instr > 0.05 then
            Alcotest.failf
              "%s on %s: %.3f minor words per instruction over %d instructions"
              name engine per_instr st.Omnivm.Interp.icount)
        [ ("interp", Omni_runtime.Loader.run_interp ~fuel:100_000_000 ?watchdog:None);
          ( "fast",
            let program = Omnivm.Interp.decode exe.Omnivm.Exe.text in
            fun img ->
              Omni_runtime.Loader.run_fast ~fuel:100_000_000 ~program img ) ])
    [ ("calls", calls); ("alvinn", alvinn) ]

(* --- exit-path and per-form goldens ---

   One line per case: the outcome (or the exception the run raised), the
   pc, [icount] and the handler, a digest of the sixteen integer and
   sixteen FP registers, one of the data segment's first bytes and one
   of the output. Both interpreter engines must print the golden line.
   The goldens were recorded before the interpreter decoded its text into
   op words, so they pin that decoding changed no exit path and no form,
   hostile ones included: registers outside 0-15, labels outside the
   text, and extract/insert fields outside the word. *)

module Fnv64 = Omni_util.Fnv64
module Loader = Omni_runtime.Loader

let golden_outcome = function
  | Omnivm.Interp.Exited c -> Printf.sprintf "exit %d" c
  | Omnivm.Interp.Faulted f -> "fault " ^ Omnivm.Fault.to_string f
  | Omnivm.Interp.Out_of_fuel -> "out of fuel"

let golden_line ~engine ?fuel ?watchdog exe =
  let img = Loader.load exe in
  let run =
    match engine with
    | `Interp -> Loader.run_interp
    | `Fast ->
        Loader.run_fast ~program:(Omnivm.Interp.decode exe.Omnivm.Exe.text)
  in
  match run ?fuel ?watchdog img with
  | exception e -> "exception " ^ Printexc.to_string e
  | outcome, st ->
      let h = ref 0L in
      for r = 0 to 15 do
        h := Fnv64.mix_int !h (Omnivm.Interp.get_reg st r)
      done;
      for r = 0 to 15 do
        let b = Int64.bits_of_float st.Omnivm.Interp.fregs.(r) in
        h := Fnv64.mix_int !h (Int64.to_int (Int64.shift_right_logical b 32));
        h := Fnv64.mix_int !h (Int64.to_int b land 0xFFFFFFFF)
      done;
      let m = ref 0L in
      let base = Omnivm.Layout.data_base in
      for k = 0 to ((Omnivm.Layout.reserved_data + 128) / 4) - 1 do
        m := Fnv64.mix_int !m (Omnivm.Memory.load32 img.Loader.mem (base + (4 * k)))
      done;
      Printf.sprintf "%s; pc %d icount %d handler %d; regs %s mem %s; output %s"
        (golden_outcome outcome) st.Omnivm.Interp.pc st.Omnivm.Interp.icount
        st.Omnivm.Interp.handler (Fnv64.to_hex !h) (Fnv64.to_hex !m)
        (Fnv64.to_hex
           (Fnv64.digest_string (Omni_runtime.Host.output img.Loader.host)))

let asm src = Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"g" src ]

(* A handler that prints the fault code and exits 7, and a main that
   registers it first when [handled]. *)
let with_handler ~handled body =
  Printf.sprintf
    {|
        .data
buf:    .space 64
        .text
        .globl main
handler:
        hcall 2
        li r1, 7
        hcall 0
main:
%s
%s
|}
    (if handled then "        li r1, handler\n        hcall 7" else "")
    body

(* A hot loop: nine instructions an iteration, a call, a load, a store,
   an FP add and a taken branch among them. *)
let hot_loop =
  {|
        .data
buf:    .space 64
        .text
        .globl main
main:   li r2, 0
        li r3, 40
        li r4, buf
        fli.d f2, 0.5
loop:   addi r2, r2, 3
        jal bump
        addi r3, r3, -1
        bnei r3, 0, loop
        add r1, r2, r0
        hcall 2
        li r1, 0
        hcall 0
bump:   lw r5, 0(r4)
        add r5, r5, r2
        sw r5, 0(r4)
        fadd.d f1, f1, f2
        jr r15
|}

let spin = "spin:   addi r2, r2, 1\n        j spin"

(* A clock that reads one second later each time, and a watchdog on it. *)
let scripted_watchdog ~every ~budget =
  let t = ref (-1.0) in
  let clock = Omni_util.Clock.fn (fun () -> t := !t +. 1.0; !t) in
  Omnivm.Watchdog.make ~poll_every:every ~clock ~budget_s:budget ()

(* Each case is (name, fuel, watchdog maker, exe). *)
let exit_cases () =
  let loop = asm hot_loop in
  let n =
    match Loader.run_interp (Loader.load loop) with
    | Omnivm.Interp.Exited 0, st -> st.Omnivm.Interp.icount
    | _ -> Alcotest.fail "hot loop did not exit 0"
  in
  let exit3 = asm (with_handler ~handled:false "li r1, 3\nhcall 0") in
  let h name body =
    [ (name ^ " unhandled", None, None, asm (with_handler ~handled:false body));
      (name ^ " handled", None, None, asm (with_handler ~handled:true body)) ]
  in
  List.init 12 (fun k ->
      (Printf.sprintf "loop fuel %d" (200 + k), Some (200 + k), None, loop))
  @ List.map
      (fun d -> (Printf.sprintf "loop exit fuel %+d" d, Some (n + d), None, loop))
      [ -2; -1; 0; 1 ]
  @ [ ("loop unbounded", None, None, loop);
      ("exit code", None, None, exit3);
      ("exit on fuel 2", Some 2, None, exit3);
      ("exit on fuel 3", Some 3, None, exit3) ]
  @ h "trap" "li r2, 5\ntrap 4"
  @ h "wild store" "li r4, 0x3f000000\nsw r2, 0(r4)"
  @ h "wild load" "li r4, 0x3f000000\nlw r2, 8(r4)"
  @ h "div by zero" "li r2, 9\nli r3, 0\ndiv r2, r2, r3"
  @ h "remu by zero" "li r2, 9\nremui r2, r2, 0"
  @ h "past the text" "li r2, 1\nnop"
  @ h "unauthorized hcall" "li r2, 1\nhcall 99"
  @ h "wild jr" "li r4, 0x10000003\njr r4"
  @ h "wild jalr" "li r4, 0x20000000\njalr r5, r4"
  @ [ ("handled trap on the last fuel unit", Some 3, None,
       asm (with_handler ~handled:true "trap 4"));
      ("handled trap a unit before", Some 2, None,
       asm (with_handler ~handled:true "trap 4"));
      ("fault inside the handler", None, None,
       asm
         {|
        .text
        .globl main
handler:
        li r4, 0x3f000000
        sw r1, 0(r4)
        hcall 0
main:   li r1, handler
        hcall 7
        trap 2
|});
      ("handler re-registers", None, None,
       asm
         {|
        .text
        .globl main
h1:     hcall 2
        li r1, h2
        hcall 7
        trap 3
h2:     hcall 2
        li r1, 9
        hcall 0
main:   li r1, h1
        hcall 7
        trap 2
|});
      ("handler address misaligned", None, None,
       asm (with_handler ~handled:false "li r1, 0x10000002\nhcall 7\ntrap 1"));
      ("handler address past the text", None, None,
       asm (with_handler ~handled:false "li r1, 0x10400000\nhcall 7\ntrap 1")) ]
  @ List.concat_map
      (fun (every, budget) ->
        let w = Some (fun () -> scripted_watchdog ~every ~budget) in
        let name handled =
          Printf.sprintf "watchdog every %d budget %g %s" every budget handled
        in
        [ (name "unhandled", Some 100_000, w, asm (with_handler ~handled:false spin));
          (name "handled", Some 100_000, w, asm (with_handler ~handled:true spin));
          ( name "handler spins",
            Some 100_000,
            w,
            asm
              {|
        .text
        .globl main
handler:
        hcall 2
spin2:  addi r3, r3, 1
        j spin2
main:   li r1, handler
        hcall 7
spin:   addi r2, r2, 1
        j spin
|} ) ])
      [ (1, 0.); (1, 2.); (7, 2.); (64, 1.) ]
  @ [ ("watchdog after fuel", Some 50,
       Some (fun () -> scripted_watchdog ~every:64 ~budget:0.),
       asm (with_handler ~handled:false spin)) ]

let exit_lines engine =
  List.map
    (fun (name, fuel, w, exe) ->
      let watchdog = Option.map (fun f -> f ()) w in
      (name, golden_line ~engine ?fuel ?watchdog exe))
    (exit_cases ())

(* The form cases run as a few instructions patched over the [trap 1]
   marker of a program whose prologue seeds the registers and the data;
   a patched branch targets the marker [form_taken] slots further on, so
   the trap a run stops on says where control went. *)
let form_base =
  lazy
    (asm
       {|
        .data
buf:    .word 0x12345678, 0x89abcdef, 0xfffffffe, 7
        .word 0x7fffffff, 0x80000000, 0xfedcba98, 3
        .double 2.5, -0.75
        .space 64
        .text
        .globl main
main:
        li r1, 0x12345678
        la r2, buf
        li r3, -7
        li r4, 4
        li r5, -2147483648
        li r6, -1
        li r7, 0
        li r8, 3
        la r9, tgt
        la r10, main
        addi r10, r10, 4
        li r11, 0x7fffffff
        li r12, 40
        fli.d f1, 1.25
        fli.d f2, -3.5
        fli.d f3, 10000000000.0
        fli.d f4, 0.1
        fli.s f5, 0.3
        fli.d f6, 7.0
        fli.d f8, -10000000000.0
        trap 1
        trap 2
        trap 3
        trap 4
        trap 5
        trap 6
        trap 7
        trap 8
        trap 9
        trap 10
        trap 11
        trap 12
tgt:    trap 20
        trap 21
|})

let form_taken = 8

let form_cases () =
  let open VI in
  let binops =
    [ Add; Sub; Mul; Div; Divu; Rem; Remu; And; Or; Xor; Sll; Srl; Sra; Slt;
      Sltu ]
  in
  let widths = [ (W8, true); (W8, false); (W16, true); (W16, false);
                 (W32, true); (W32, false) ] in
  let conds = [ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Leu; Gtu; Geu ] in
  let precs = [ Single; Double ] in
  let pname p = prec_suffix p in
  let taken k = Omnivm.Exe.code_addr (k + form_taken) in
  let one name i = (name, fun _ -> [ i ]) in
  let forms =
    List.concat_map
      (fun op ->
        let n = binop_name op in
        [ one ("binop " ^ n) (Binop (op, 7, 1, 3));
          one ("binop " ^ n ^ " min by -1") (Binop (op, 7, 5, 6));
          one ("binop " ^ n ^ " by 40") (Binop (op, 7, 11, 12));
          one ("binop " ^ n ^ " by zero") (Binop (op, 7, 1, 7));
          one ("binopi " ^ n) (Binopi (op, 7, 1, 5));
          one ("binopi " ^ n ^ " neg") (Binopi (op, 7, 3, -3));
          one ("binopi " ^ n ^ " zero") (Binopi (op, 7, 1, 0));
          one ("binopi " ^ n ^ " beyond 32 bits") (Binopi (op, 7, 1, (1 lsl 35) + 9)) ])
      binops
    @ [ one "binop to r0" (Binop (Add, 0, 1, 3));
        one "li" (Li (7, 0x12345678));
        one "li neg" (Li (7, -1));
        one "li beyond 32 bits" (Li (7, (1 lsl 35) + 9));
        one "li to r0" (Li (0, 5)) ]
    @ List.concat_map
        (fun (w, s) ->
          let n = load_name w s ^ if s then " s" else " u" in
          [ one ("load " ^ n) (Load (w, s, 7, 2, 4));
            one ("load " ^ n ^ " odd") (Load (w, s, 7, 2, 5));
            one ("load " ^ n ^ " high") (Load (w, s, 7, 2, 6));
            one ("load " ^ n ^ " unmapped") (Load (w, s, 7, 7, 0));
            one ("load " ^ n ^ " off beyond 32 bits") (Load (w, s, 7, 2, (1 lsl 32) + 4)) ])
        widths
    @ [ one "load to r0" (Load (W32, false, 0, 2, 0)) ]
    @ List.concat_map
        (fun w ->
          let n = store_name w in
          [ one ("store " ^ n) (Store (w, 1, 2, 8));
            one ("store " ^ n ^ " odd") (Store (w, 1, 2, 9));
            one ("store " ^ n ^ " to code") (Store (w, 1, 9, 0));
            one ("store " ^ n ^ " unmapped") (Store (w, 1, 7, 0)) ])
        [ W8; W16; W32 ]
    @ List.concat_map
        (fun p ->
          let n = pname p in
          [ one ("fload " ^ n) (Fload (p, 7, 2, 32));
            one ("fload " ^ n ^ " unmapped") (Fload (p, 7, 7, 0));
            one ("fstore " ^ n) (Fstore (p, 4, 2, 48));
            one ("fstore " ^ n ^ " to code") (Fstore (p, 4, 9, 0));
            one ("fli " ^ n) (Fli (p, 7, 0.1));
            one ("cvt_f_i " ^ n) (Cvt_f_i (p, 7, 1));
            one ("cvt_i_f " ^ n) (Cvt_i_f (p, 7, 2)) ])
        precs
    @ List.concat_map
        (fun op ->
          List.map
            (fun p ->
              one (Printf.sprintf "fbinop %s.%s" (fbinop_name op) (pname p))
                (Fbinop (op, p, 7, 4, 2)))
            precs)
        [ Fadd; Fsub; Fmul; Fdiv ]
    @ [ one "fdiv by zero" (Fbinop (Fdiv, Double, 7, 1, 0)) ]
    @ List.concat_map
        (fun op ->
          List.map
            (fun p ->
              one (Printf.sprintf "funop %s.%s" (funop_name op) (pname p))
                (Funop (op, p, 7, 4)))
            precs)
        [ Fneg; Fabs; Fmov ]
    @ List.concat_map
        (fun op ->
          List.concat_map
            (fun p ->
              let n = Printf.sprintf "fcmp %s.%s" (fcmp_name op) (pname p) in
              [ one n (Fcmp (op, p, 7, 1, 2));
                one (n ^ " rev") (Fcmp (op, p, 7, 2, 1));
                one (n ^ " same") (Fcmp (op, p, 7, 1, 1)) ])
            precs)
        [ Feq; Flt; Fle ]
    @ [ one "fli nan" (Fli (Double, 7, Float.nan));
        one "cvt_i_f saturates up" (Cvt_i_f (Double, 7, 3));
        one "cvt_i_f saturates down" (Cvt_i_f (Double, 7, 8));
        ("cvt_i_f nan", fun _ -> [ Fli (Double, 9, Float.nan); Cvt_i_f (Double, 7, 9) ]);
        one "cvt_i_f to r0" (Cvt_i_f (Double, 0, 1));
        one "cvt_d_s" (Cvt_d_s (7, 4));
        one "cvt_s_d" (Cvt_s_d (7, 4));
        one "fcmp to r0" (Fcmp (Feq, Double, 0, 1, 1)) ]
    @ List.concat_map
        (fun c ->
          let n = cond_name c in
          [ ("br " ^ n, fun k -> [ Br (c, 1, 3, taken k) ]);
            ("br " ^ n ^ " rev", fun k -> [ Br (c, 3, 1, taken k) ]);
            ("br " ^ n ^ " same", fun k -> [ Br (c, 3, 3, taken k) ]);
            ("bri " ^ n, fun k -> [ Bri (c, 1, 5, taken k) ]);
            ("bri " ^ n ^ " neg", fun k -> [ Bri (c, 3, -7, taken k) ]);
            ("bri " ^ n ^ " beyond 32 bits", fun k -> [ Bri (c, 3, (1 lsl 32) - 7, taken k) ]) ])
        conds
    @ [ ("j", fun k -> [ J (taken k) ]);
        ("j self", fun k -> [ J (Omnivm.Exe.code_addr k) ]);
        ("jal", fun k -> [ Jal (taken k) ]);
        one "jr" (Jr 9);
        one "jr entry" (Jr 10);
        one "jr wild" (Jr 1);
        one "jalr" (Jalr (7, 9));
        one "jalr to r0" (Jalr (0, 9));
        one "jalr wild" (Jalr (7, 1));
        one "hcall print_int" (Hcall 2);
        one "hcall exit" (Hcall 0);
        one "hcall unknown" (Hcall 99);
        one "trap" (Trap 5);
        one "nop" Nop ]
    @ List.concat_map
        (fun (pos, len) ->
          let n = Printf.sprintf "%d %d" pos len in
          [ one ("ext " ^ n) (Ext (7, 1, pos, len));
            one ("ins " ^ n) (Ins (1, 3, pos, len)) ])
        [ (0, 1); (1, 2); (0, 4); (3, 1); (2, 2) ]
    @ [ one "ext to r0" (Ext (0, 1, 0, 1)); one "ins to r0" (Ins (0, 1, 0, 1)) ]
  in
  let past k = Omnivm.Exe.code_addr (k + 1000) in
  let hostile =
    [ one "binop rd 16" (Binop (Add, 16, 1, 3));
      one "binop rd -1" (Binop (Add, -1, 1, 3));
      one "binop rs1 16" (Binop (Add, 7, 16, 3));
      one "binop rs2 -1" (Binop (Add, 7, 1, -1));
      one "binop div by zero rd 16" (Binop (Div, 16, 1, 7));
      one "binop div rs1 16 by zero" (Binop (Div, 7, 16, 7));
      one "binopi div by zero rd 16" (Binopi (Div, 16, 1, 0));
      one "binopi rs1 16" (Binopi (Add, 7, 16, 1));
      one "li rd 16" (Li (16, 1));
      one "li rd -1" (Li (-1, 1));
      one "load rd 16" (Load (W32, false, 16, 2, 0));
      one "load unmapped rd 16" (Load (W32, false, 16, 7, 0));
      one "load base 16" (Load (W32, false, 7, 16, 0));
      one "store rv 16" (Store (W32, 16, 2, 0));
      one "store base -1" (Store (W32, 1, -1, 0));
      one "fload fd 16" (Fload (Double, 16, 2, 32));
      one "fload unmapped fd 16" (Fload (Double, 16, 7, 0));
      one "fload base 16" (Fload (Double, 7, 16, 0));
      one "fstore fv 16" (Fstore (Double, 16, 2, 48));
      one "fstore base 16" (Fstore (Single, 1, 16, 48));
      one "fbinop fd 16" (Fbinop (Fadd, Double, 16, 1, 2));
      one "fbinop fs1 16" (Fbinop (Fadd, Double, 7, 16, 2));
      one "fbinop fs2 -1" (Fbinop (Fmul, Single, 7, 1, -1));
      one "funop fd -1" (Funop (Fneg, Double, -1, 1));
      one "funop fs 16" (Funop (Fabs, Single, 7, 16));
      one "fcmp rd 16" (Fcmp (Feq, Double, 16, 1, 2));
      one "fcmp fs2 16" (Fcmp (Feq, Double, 7, 1, 16));
      one "fli fd 16" (Fli (Double, 16, 1.0));
      one "cvt_f_i fd 16" (Cvt_f_i (Double, 16, 1));
      one "cvt_f_i rs 16" (Cvt_f_i (Double, 7, 16));
      one "cvt_i_f rd 16" (Cvt_i_f (Double, 16, 1));
      one "cvt_i_f fs 16" (Cvt_i_f (Double, 7, 16));
      one "cvt_d_s fd 16" (Cvt_d_s (16, 1));
      one "cvt_s_d fs 16" (Cvt_s_d (7, 16));
      ("br rs1 16", fun k -> [ Br (Eq, 16, 1, taken k) ]);
      ("br rs2 -1", fun k -> [ Br (Eq, 1, -1, taken k) ]);
      ("bri rs 16", fun k -> [ Bri (Eq, 16, 0, taken k) ]);
      one "jr 16" (Jr 16);
      one "jalr rd 16" (Jalr (16, 9));
      one "jalr wild rd 16" (Jalr (16, 1));
      one "jalr rs 16" (Jalr (7, 16));
      one "ext rd 16" (Ext (16, 1, 0, 1));
      one "ext bad field rd 16" (Ext (16, 1, 3, 2));
      one "ext rs 16" (Ext (7, 16, 0, 1));
      one "ins rd 16" (Ins (16, 1, 0, 1));
      one "ins rs -1" (Ins (7, -1, 0, 1));
      ("j past the end", fun k -> [ J (past k) ]);
      (* the text ends 14 markers after the first *)
      ("j to the end", fun k -> [ J (Omnivm.Exe.code_addr (k + 14)) ]);
      ("j below the text", fun _ -> [ J (Omnivm.Layout.code_base - 4) ]);
      ("j misaligned", fun k -> [ J (Omnivm.Exe.code_addr k + 2) ]);
      ("j negative", fun _ -> [ J (-4) ]);
      ("j beyond 32 bits", fun k -> [ J ((1 lsl 40) + taken k) ]);
      ("jal past the end", fun k -> [ Jal (past k) ]);
      ("jal misaligned", fun k -> [ Jal (taken k + 1) ]);
      ("br taken past the end", fun k -> [ Br (Eq, 1, 1, past k) ]);
      ("br untaken past the end", fun k -> [ Br (Ne, 1, 1, past k) ]);
      ("br taken negative", fun _ -> [ Br (Lt, 3, 1, -8) ]);
      ("bri taken misaligned", fun k -> [ Bri (Ne, 1, 0, taken k + 3) ]);
      ("bri untaken misaligned", fun k -> [ Bri (Eq, 1, 0, taken k + 3) ]);
      one "ext pos -1" (Ext (7, 1, -1, 1));
      one "ext len 0" (Ext (7, 1, 0, 0));
      one "ext past the word" (Ext (7, 1, 3, 2));
      one "ext len 5" (Ext (7, 1, 0, 5));
      one "ins pos 4" (Ins (7, 1, 4, 1));
      one "ins len -1" (Ins (7, 1, 2, -1)) ]
  in
  forms @ List.map (fun (n, f) -> ("hostile " ^ n, f)) hostile

let form_lines engine =
  let exe = Lazy.force form_base in
  let text = exe.Omnivm.Exe.text in
  let k =
    let rec go k =
      if text.(k) = VI.Trap 1 then k
      else if k + 1 < Array.length text then go (k + 1)
      else Alcotest.fail "no trap 1 marker"
    in
    go 0
  in
  List.map
    (fun (name, f) ->
      let text = Array.copy text in
      List.iteri (fun j i -> text.(k + j) <- i) (f k);
      (name, golden_line ~engine ~fuel:10_000 { exe with Omnivm.Exe.text }))
    (form_cases ())

let interp_goldens_file = "interp_goldens.txt"

let interp_goldens () =
  let want = Hashtbl.create 512 in
  In_channel.with_open_text interp_goldens_file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l -> (
            match String.split_on_char '|' l with
            | [ case; line ] -> Hashtbl.replace want case line; go ()
            | _ -> go ())
      in
      go ());
  List.iter
    (fun (engine, ename) ->
      let got =
        List.map (fun (c, l) -> ("exit " ^ c, l)) (exit_lines engine)
        @ List.map (fun (c, l) -> ("form " ^ c, l)) (form_lines engine)
      in
      let bad =
        List.filter (fun (c, l) -> Hashtbl.find_opt want c <> Some l) got
      in
      if bad <> [] || Hashtbl.length want <> List.length got then
        Alcotest.failf "%s: %d of %d cases differ (%d goldens); got:\n%s" ename
          (List.length bad) (List.length got) (Hashtbl.length want)
          (String.concat "\n" (List.map (fun (c, l) -> c ^ "|" ^ l) bad)))
    [ (`Interp, "interp"); (`Fast, "fast") ]

let () =
  Alcotest.run "omnivm"
    [ ("interp",
       [ Alcotest.test_case "smoke" `Quick smoke;
         Alcotest.test_case "arith" `Quick arith;
         Alcotest.test_case "memory ops" `Quick memory_ops;
         Alcotest.test_case "float ops" `Quick float_ops;
         Alcotest.test_case "ext/ins" `Quick ext_ins;
         Alcotest.test_case "branches" `Quick branches;
         Alcotest.test_case "calls" `Quick calls;
         Alcotest.test_case "allocates nothing per instruction" `Quick
           interp_allocation;
         Alcotest.test_case "exit-path and per-form goldens" `Quick
           interp_goldens ]);
      ("faults",
       [ Alcotest.test_case "unmapped read" `Quick fault_unmapped;
         Alcotest.test_case "write to code" `Quick fault_write_code;
         Alcotest.test_case "division by zero" `Quick fault_div0;
         Alcotest.test_case "bad indirect jump" `Quick fault_bad_jump;
         Alcotest.test_case "handler delivery" `Quick handler_delivery;
         Alcotest.test_case "unauthorized host call" `Quick unauthorized_hcall;
         Alcotest.test_case "sbrk heap" `Quick sbrk_heap ]);
      ("memory",
       [ Alcotest.test_case "unit" `Quick memory_unit;
         Alcotest.test_case "overlap rejected" `Quick overlap_rejected;
         Alcotest.test_case "8-byte stores are precise" `Quick
           store_float_precise;
         Alcotest.test_case "release unmaps" `Quick release_unmaps;
         Alcotest.test_case "release keeps shared pages" `Quick
           release_keeps_shared_pages;
         paged_vs_flat;
         Alcotest.test_case "crash window = reference" `Quick crash_window ]);
      ("wire",
       [ wire_roundtrip;
         wire_decode_robust;
         Alcotest.test_case "rejects garbage" `Quick wire_rejects_garbage;
         Alcotest.test_case "rejects a bad entry" `Quick
           wire_rejects_bad_entry ])
    ]

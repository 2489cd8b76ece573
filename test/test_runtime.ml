(* Host-environment tests: service dispatch, authority, heap management,
   and loader behaviour. *)

module Host = Omni_runtime.Host
module Loader = Omni_runtime.Loader
module L = Omnivm.Layout

let mk_host ?(allow = Omnivm.Hostcall.all) ?(heap = 4096) () =
  let mem = Omnivm.Memory.create () in
  ignore
    (Omnivm.Memory.map mem ~name:"data" ~base:L.data_base ~size:L.data_size
       ~perm:Omnivm.Memory.perm_rw);
  let host =
    Host.create ~allow ~heap_start:(L.data_base + 0x1000)
      ~heap_limit:(L.data_base + 0x1000 + heap) ()
  in
  (host, mem)

let request host mem index args =
  let ret = ref 0 in
  let outcome =
    Host.handle host
      {
        Host.index;
        arg = (fun i -> try List.nth args i with _ -> 0);
        farg = (fun _ -> 0.0);
        set_ret = (fun v -> ret := v);
        mem;
      }
  in
  (outcome, !ret)

let output_services () =
  let host, mem = mk_host () in
  ignore (request host mem 1 [ Char.code 'h' ]);
  ignore (request host mem 1 [ Char.code 'i' ]);
  ignore (request host mem 2 [ -42 ]);
  Alcotest.(check string) "putchar + print_int" "hi-42" (Host.output host);
  Host.clear_output host;
  Alcotest.(check string) "cleared" "" (Host.output host);
  (* print_string reads a NUL-terminated string from module memory *)
  let addr = L.data_base + 64 in
  String.iteri
    (fun i c -> Omnivm.Memory.store8 mem (addr + i) (Char.code c))
    "str!\000";
  ignore (request host mem 3 [ addr ]);
  Alcotest.(check string) "print_string" "str!" (Host.output host)

let sbrk_behaviour () =
  let host, mem = mk_host ~heap:64 () in
  let _, a = request host mem 5 [ 16 ] in
  let _, b = request host mem 5 [ 16 ] in
  Alcotest.(check bool) "blocks distinct and ordered" true (b >= a + 16);
  Alcotest.(check int) "aligned" 0 (a land 7);
  (* exhaustion returns null, not a fault *)
  let _, c = request host mem 5 [ 1_000_000 ] in
  Alcotest.(check int) "exhausted -> 0" 0 c;
  (* negative requests are clamped *)
  let _, d = request host mem 5 [ -5 ] in
  Alcotest.(check bool) "negative clamped" true (d > 0)

let authority () =
  let host, mem = mk_host ~allow:[ Omnivm.Hostcall.Exit ] () in
  (match request host mem 0 [ 3 ] with
  | Host.Exit 3, _ -> ()
  | _ -> Alcotest.fail "exit allowed");
  Alcotest.check_raises "putchar denied"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 1 }))
    (fun () -> ignore (request host mem 1 [ 65 ]));
  Alcotest.check_raises "unknown call"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 99 }))
    (fun () -> ignore (request host mem 99 []))

let service_extension () =
  let host, mem = mk_host () in
  (* no service installed: host_service is a fault *)
  Alcotest.check_raises "no service"
    (Omnivm.Fault.Vm_fault (Omnivm.Fault.Unauthorized_host_call { index = 8 }))
    (fun () -> ignore (request host mem 8 [ 1; 2; 3; 4 ]));
  Host.set_service host (fun a b c d -> (a * 1000) + (b * 100) + (c * 10) + d);
  let _, v = request host mem 8 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "service result" 1234 v

let set_handler_outcome () =
  let host, mem = mk_host () in
  match request host mem 7 [ 0x10000040 ] with
  | Host.Set_handler a, _ -> Alcotest.(check int) "address" 0x10000040 a
  | _ -> Alcotest.fail "expected Set_handler"

let loader_layout () =
  let obj =
    Omni_asm.Parse.assemble ~name:"t"
      {|
        .data
        .globl g
g:      .word 0x11223344
        .text
        .globl main
main:   li r1, 0
        hcall 0
|}
  in
  let exe = Omni_asm.Link.link [ obj ] in
  let img = Loader.load exe in
  (* globals land above the reserved runtime area *)
  let gaddr = Option.get (Omnivm.Exe.lookup_symbol exe "g") in
  Alcotest.(check bool) "global above reserved area" true
    (gaddr >= L.data_base + L.reserved_data);
  Alcotest.(check int) "image copied" 0x11223344
    (Omnivm.Memory.load32 img.Loader.mem gaddr);
  (* heap starts after globals, stays below the stack reservation *)
  Alcotest.(check bool) "heap after globals" true
    (img.Loader.host.Host.brk > gaddr);
  Alcotest.(check bool) "heap below stack" true
    (img.Loader.host.Host.heap_limit
    <= L.data_base + L.data_size - L.default_stack_size);
  (* no host region unless requested *)
  Alcotest.(check bool) "no host region" true (img.Loader.host_region = None);
  let img2 = Loader.load ~map_host_region:true exe in
  Alcotest.(check bool) "host region on demand" true
    (img2.Loader.host_region <> None)

(* --- copy-on-write images --- *)

(* Globals spanning two pages, so the heap starts on a third. *)
let cow_exe =
  lazy
    (Omni_asm.Link.link
       [ Omni_asm.Parse.assemble ~name:"cow"
           {|
        .data
        .globl g
g:      .word 0x11223344
        .space 5000
        .globl h
h:      .word 0x55667788
        .text
        .globl main
main:   li r1, 0
        hcall 0
|} ])

(* What every fresh image of [exe] holds: zeros, with the data image
   above the reserved runtime area. *)
let initial_data exe =
  let b = Bytes.make L.data_size '\000' in
  let d = exe.Omnivm.Exe.data in
  Bytes.blit d 0 b L.reserved_data (Bytes.length d);
  b

let data_of (img : Loader.image) =
  Omnivm.Memory.read_bytes img.Loader.mem ~addr:L.data_base ~len:L.data_size

(* Writes to one image's globals, stack and heap pages are invisible to a
   sibling instantiated before them and to one instantiated after, and
   the blueprint's pages and the zero page read back unchanged. *)
let cow_isolation =
  let exe = Lazy.force cow_exe in
  let bp = Loader.blueprint exe in
  let probe = Loader.instantiate bp in
  let heap = probe.Loader.host.Host.brk in
  let g = Option.get (Omnivm.Exe.lookup_symbol exe "g") in
  let gen_write =
    QCheck.Gen.(
      let near p =
        map
          (fun d -> max L.data_base (min (L.data_base + L.data_size - 8) (p + d)))
          (int_range (-64) 64)
      in
      let addr =
        frequency
          [ (3, near g); (2, near (g + 4096)); (3, near heap);
            (3, near (L.initial_sp - 64)); (1, near (L.data_base + L.data_size - 8));
            (1, map (fun o -> L.data_base + o) (int_bound (L.data_size - 8))) ]
      in
      pair addr (string_size (int_range 1 8)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"writes stay in their image"
       QCheck.(
         make
           ~print:(fun ws ->
             String.concat "; "
               (List.map (fun (a, s) -> Printf.sprintf "0x%x:%d" a (String.length s)) ws))
           Gen.(list_size (int_range 1 40) gen_write))
       (fun writes ->
         let a = Loader.instantiate bp and b = Loader.instantiate bp in
         let expect_a = initial_data exe in
         List.iteri
           (fun i (addr, s) ->
             let v = Bytes.of_string s in
             (* alternate guest stores and trusted blits *)
             if i land 1 = 0 then
               Bytes.iteri
                 (fun j c -> Omnivm.Memory.store8 a.Loader.mem (addr + j) (Char.code c))
                 v
             else Omnivm.Memory.blit_in a.Loader.mem ~addr v;
             Bytes.blit v 0 expect_a (addr - L.data_base) (Bytes.length v))
           writes;
         let c = Loader.instantiate bp in
         let pristine = initial_data exe in
         Bytes.equal (data_of a) expect_a
         && Bytes.equal (data_of b) pristine
         && Bytes.equal (data_of c) pristine
         && Omnivm.Memory.resident_pages b.Loader.mem = 0
         && Omnivm.Memory.resident_pages c.Loader.mem = 0))

(* A near-empty module owns a handful of pages on every engine. *)
let resident_per_engine () =
  let exe =
    Omniware.Api.compile_exe ~with_stdlib:false ~name:"tiny"
      "int main(void) { int x = 41; print_int(x + 1); putchar(10); return 0; }"
  in
  let runs =
    ("interp", fun img -> Omni_service.Exec.run_interp img)
    :: ("fast", fun img -> Omni_service.Exec.run_fast img)
    :: List.map
         (fun arch ->
           ( Omni_targets.Arch.name arch,
             fun img ->
               Omniware.Api.run_translated
                 (Omniware.Api.translate arch exe)
                 img ))
         Omni_targets.Arch.all
  in
  List.iter
    (fun (engine, run) ->
      let img = Loader.load exe in
      let r = run img in
      Alcotest.(check string) (engine ^ " output") "42\n" r.Omni_service.Exec.output;
      let pages = Omnivm.Memory.resident_pages img.Loader.mem in
      if pages > 16 then
        Alcotest.failf "%s: %d resident pages, expected at most 16" engine pages)
    runs

(* 1000 live images of one blueprint, each written on its globals, heap
   and stack pages, fit in 128 KiB apiece, page tables included (two flat
   16 MiB segments apiece would be 32 GiB). *)
let thousand_images () =
  let exe = Lazy.force cow_exe in
  let bp = Loader.blueprint exe in
  let g = Option.get (Omnivm.Exe.lookup_symbol exe "g") in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.heap_words in
  let images =
    Array.init 1000 (fun i ->
        let img = Loader.instantiate bp in
        let mem = img.Loader.mem in
        Omnivm.Memory.store32 mem g i;
        Omnivm.Memory.store32 mem img.Loader.host.Host.brk i;
        Omnivm.Memory.store32 mem (L.initial_sp - 4) i;
        img)
  in
  Gc.full_major ();
  let grown = ((Gc.stat ()).Gc.heap_words - before) * (Sys.word_size / 8) in
  Array.iteri
    (fun i img ->
      Alcotest.(check int) "own globals" i
        (Omnivm.Memory.load32 img.Loader.mem g))
    images;
  if grown >= 128 * 1024 * 1024 then
    Alcotest.failf "1000 images grew the major heap by %d bytes" grown

let lcg_determinism () =
  let a = Omni_util.Lcg.create 42 in
  let b = Omni_util.Lcg.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Omni_util.Lcg.next a)
      (Omni_util.Lcg.next b)
  done;
  let c = Omni_util.Lcg.create 43 in
  Alcotest.(check bool) "different seed diverges" true
    (Omni_util.Lcg.next a <> Omni_util.Lcg.next c);
  for _ = 1 to 1000 do
    let v = Omni_util.Lcg.int a 10 in
    Alcotest.(check bool) "bounded" true (v >= 0 && v < 10)
  done

let () =
  Alcotest.run "runtime"
    [ ("host",
       [ Alcotest.test_case "output services" `Quick output_services;
         Alcotest.test_case "sbrk" `Quick sbrk_behaviour;
         Alcotest.test_case "authority" `Quick authority;
         Alcotest.test_case "service extension" `Quick service_extension;
         Alcotest.test_case "set_handler" `Quick set_handler_outcome ]);
      ("loader",
       [ Alcotest.test_case "layout" `Quick loader_layout;
         cow_isolation;
         Alcotest.test_case "resident pages per engine" `Quick
           resident_per_engine;
         Alcotest.test_case "1000 live images" `Quick thousand_images ]);
      ("util", [ Alcotest.test_case "lcg determinism" `Quick lcg_determinism ])
    ]

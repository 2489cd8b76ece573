(* A hostile module versus software fault isolation.

     dune exec examples/sandbox_escape.exe

   We play the attacker: hand-written OmniVM assembly trying to corrupt the
   host's memory and hijack control flow. Each attack runs twice on the
   simulated Mips host -- once translated WITHOUT protection (the paper's
   point: on raw hardware these attacks work) and once with SFI sandboxing.
   The host plants a canary in its own memory region and checks it after
   each run. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module L = Omnivm.Layout

let attacks =
  [ ( "wild store into host memory",
      Printf.sprintf
        {|
        .text
        .globl main
main:   li r2, %d
        li r3, 0xDEAD
        sw r3, 0(r2)
        li r1, 0
        hcall 0
|}
        L.host_base );
    ( "store through a computed address",
      Printf.sprintf
        {|
        .text
        .globl main
main:   li r2, %d
        slli r2, r2, 4       ; host_base = value << 4
        li r3, 0xDEAD
        sw r3, 8(r2)
        li r1, 0
        hcall 0
|}
        (L.host_base / 16) );
    ( "redirect the stack pointer at the host",
      Printf.sprintf
        {|
        .text
        .globl main
main:   li r14, %d
        li r3, 0xDEAD
        sw r3, 0(r14)
        li r1, 0
        hcall 0
|}
        (L.host_base + 16) );
    ( "indirect jump out of the code segment",
      Printf.sprintf
        {|
        .text
        .globl main
main:   li r2, %d
        jr r2
        li r1, 0
        hcall 0
|}
        (L.host_base + 4) ) ]

let run_attack src ~sfi =
  let exe = Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"evil" src ] in
  let img = Api.load ~map_host_region:true exe in
  let mem = img.Omni_runtime.Loader.mem in
  let host_base = Omnivm.Layout.host_base in
  (match img.Omni_runtime.Loader.host_region with
  | Some _ -> Omnivm.Memory.blit_in mem ~addr:host_base (Bytes.make 64 '\xAB')
  | None -> assert false);
  let mode =
    if sfi then Machine.Mobile (Omni_sfi.Policy.make ())
    else Machine.Mobile Omni_sfi.Policy.off
  in
  let tr =
    Api.translate ~mode ~opts:(Api.mobile_opts Omni_targets.Arch.Mips)
      Omni_targets.Arch.Mips exe
  in
  let r = Api.run_translated ~fuel:1_000_000 tr img in
  let intact =
    Bytes.for_all
      (fun c -> c = '\xAB')
      (Omnivm.Memory.read_bytes mem ~addr:host_base ~len:64)
  in
  let outcome =
    match r.Api.outcome with
    | Machine.Exited _ -> "module ran to completion"
    | Machine.Faulted f -> "module killed: " ^ Omnivm.Fault.to_string f
    | Machine.Out_of_fuel -> "module looped; killed by fuel limit"
  in
  (intact, outcome)

let () =
  print_endline "attacker-supplied module vs. the host (simulated Mips)\n";
  List.iter
    (fun (name, src) ->
      Printf.printf "== %s ==\n" name;
      let intact, outcome = run_attack src ~sfi:false in
      Printf.printf "  unprotected: %-55s host memory %s\n" outcome
        (if intact then "INTACT" else "CORRUPTED");
      let intact, outcome = run_attack src ~sfi:true in
      Printf.printf "  with SFI:    %-55s host memory %s\n\n" outcome
        (if intact then "INTACT" else "CORRUPTED");
      assert intact)
    attacks;
  print_endline
    "every attack that corrupted the unprotected host was contained by SFI."

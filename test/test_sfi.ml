(* Software fault isolation tests: the security core of the system.

   We hand-write adversarial OmniVM modules that attempt to corrupt host
   memory or hijack control flow, and check that:
   - WITHOUT SFI, the attacks succeed on the simulated hardware (the
     threat is real),
   - with sandboxing, every attack is contained (host memory untouched,
     jumps confined to the code segment),
   - with guard mode, attacks raise the OmniVM access-violation exception,
   - the static verifier accepts sandboxed translations and rejects
     unprotected ones. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine
module Arch = Omni_targets.Arch
module L = Omnivm.Layout

let target_archs = [ Arch.Mips; Arch.Sparc; Arch.Ppc; Arch.X86 ]

let compile_asm src =
  Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"evil" src ]

(* Run a module against a given SFI mode; returns (outcome, host_region,
   output). The canary byte pattern 0xAB is planted in host memory. *)
let run_with_mode arch exe mode =
  let img = Api.load ~map_host_region:true exe in
  let mem = img.Omni_runtime.Loader.mem in
  (match img.Omni_runtime.Loader.host_region with
  | Some _ -> Omnivm.Memory.blit_in mem ~addr:L.host_base (Bytes.make 64 '\xAB')
  | None -> assert false);
  let tr = Api.translate ~mode ~opts:(Api.mobile_opts arch) arch exe in
  let r = Api.run_translated ~fuel:10_000_000 tr img in
  let host_bytes =
    match img.Omni_runtime.Loader.host_region with
    | Some _ -> Omnivm.Memory.read_bytes mem ~addr:L.host_base ~len:64
    | None -> assert false
  in
  (r.Api.outcome, host_bytes, r.Api.output)

let intact b = Bytes.for_all (fun c -> c = '\xAB') b

let sandbox = Machine.Mobile (Omni_sfi.Policy.make ())
let guard = Machine.Mobile (Omni_sfi.Policy.make ~mode:Omni_sfi.Policy.Guard ())
let off = Machine.Mobile Omni_sfi.Policy.off

(* attack 1: direct wild store into host memory *)
let wild_store_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r2, %d          ; host region base
        li r3, 0x5A5A5A5A
        sw r3, 0(r2)
        sw r3, 16(r2)
        li r1, 0
        hcall 0
|}
    L.host_base

let wild_store_contained () =
  let exe = compile_asm wild_store_src in
  List.iter
    (fun arch ->
      let name s = Printf.sprintf "%s/%s" (Arch.name arch) s in
      (* without SFI the attack corrupts host memory *)
      let o, host, _ = run_with_mode arch exe off in
      (match o with
      | Machine.Exited 0 -> ()
      | _ -> Alcotest.failf "%s: unexpected outcome" (name "off"));
      Alcotest.(check bool) (name "no-sfi corrupts host") false (intact host);
      (* sandboxing forces the store into the data segment *)
      let o, host, _ = run_with_mode arch exe sandbox in
      (match o with
      | Machine.Exited 0 -> ()
      | Machine.Faulted f ->
          Alcotest.failf "%s: fault %s" (name "sandbox") (Omnivm.Fault.to_string f)
      | _ -> Alcotest.failf "%s: unexpected outcome" (name "sandbox"));
      Alcotest.(check bool) (name "sandbox protects host") true (intact host);
      (* guard mode turns the attack into an access violation *)
      let o, host, _ = run_with_mode arch exe guard in
      (match o with
      | Machine.Faulted (Omnivm.Fault.Access_violation { access = Omnivm.Fault.Write; _ }) -> ()
      | _ -> Alcotest.failf "%s: expected write violation" (name "guard"));
      Alcotest.(check bool) (name "guard protects host") true (intact host))
    target_archs

(* attack 2: compute the address to defeat static inspection *)
let computed_store_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r2, %d
        li r3, 16
        li r4, 4
        mul r3, r3, r4     ; 64
        add r2, r2, r3     ; host_base + 64... minus 64
        subi r2, r2, 64
        li r3, 0x5A5A5A5A
        sw r3, 0(r2)
        li r1, 0
        hcall 0
|}
    L.host_base

let computed_store_contained () =
  let exe = compile_asm computed_store_src in
  List.iter
    (fun arch ->
      let o, host, _ = run_with_mode arch exe sandbox in
      (match o with
      | Machine.Exited 0 -> ()
      | _ -> Alcotest.fail "sandbox run failed");
      Alcotest.(check bool)
        (Arch.name arch ^ " computed store contained")
        true (intact host))
    target_archs

(* attack 3: corrupt the stack pointer, then store through it *)
let sp_attack_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r14, %d         ; point sp at host memory
        li r3, 0x5A5A5A5A
        sw r3, 0(r14)      ; "safe" sp-relative store
        li r1, 0
        hcall 0
|}
    L.host_base

let sp_attack_contained () =
  let exe = compile_asm sp_attack_src in
  List.iter
    (fun arch ->
      (* unprotected: sp really does point at host memory *)
      let o, host, _ = run_with_mode arch exe off in
      (match o with Machine.Exited 0 -> () | _ -> Alcotest.fail "off run");
      Alcotest.(check bool)
        (Arch.name arch ^ " sp attack works without sfi")
        false (intact host);
      (* sandboxed: setting sp re-sandboxes it into the data segment *)
      let o, host, _ = run_with_mode arch exe sandbox in
      (match o with Machine.Exited 0 -> () | _ -> Alcotest.fail "sandbox run");
      Alcotest.(check bool)
        (Arch.name arch ^ " sp attack contained")
        true (intact host))
    target_archs

(* attack 4: indirect jump out of the code segment *)
let wild_jump_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r2, %d          ; data segment address
        jr r2
        li r1, 0
        hcall 0
|}
    (L.data_base + 0x100)

let wild_jump_contained () =
  let exe = compile_asm wild_jump_src in
  List.iter
    (fun arch ->
      let o, _, _ = run_with_mode arch exe sandbox in
      (* the masked target lands inside the code segment; it is not a valid
         instruction boundary, so the module faults -- control never
         escapes to data or host memory *)
      match o with
      | Machine.Faulted
          (Omnivm.Fault.Access_violation { access = Omnivm.Fault.Execute; addr }) ->
          Alcotest.(check bool)
            (Arch.name arch ^ " jump target forced into code segment")
            true
            (addr land lnot L.code_mask = L.code_base)
      | Machine.Exited _ | Machine.Faulted _ | Machine.Out_of_fuel ->
          Alcotest.failf "%s: expected execute violation" (Arch.name arch))
    target_archs

(* attack 5: jump to a valid code address that is NOT a function entry /
   branch target (bypassing call discipline) still cannot escape *)
let misaligned_jump_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r2, %d          ; mid-instruction address: not a valid entry
        jr r2
        li r1, 0
        hcall 0
|}
    (L.code_base + 6)

let misaligned_jump_faults () =
  let exe = compile_asm misaligned_jump_src in
  List.iter
    (fun arch ->
      let o, _, _ = run_with_mode arch exe sandbox in
      match o with
      | Machine.Faulted (Omnivm.Fault.Access_violation { access = Omnivm.Fault.Execute; _ }) ->
          ()
      | _ -> Alcotest.failf "%s: expected execute violation" (Arch.name arch))
    target_archs

(* guard mode delivers the access violation to a module handler: the
   virtual exception model end-to-end on translated code *)
let guard_handler_src =
  Printf.sprintf
    {|
        .text
        .globl main
handler:
        hcall 2            ; print fault code (1 = access violation)
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
main:
        li r1, handler
        hcall 7            ; set_handler
        li r2, %d
        li r3, 1
        sw r3, 0(r2)       ; wild store -> guard traps -> handler
        li r1, 99
        hcall 2
        li r1, 1
        hcall 0
|}
    L.host_base

let guard_handler_delivery () =
  let exe = compile_asm guard_handler_src in
  List.iter
    (fun arch ->
      let o, host, out = run_with_mode arch exe guard in
      (match o with
      | Machine.Exited 0 -> ()
      | _ -> Alcotest.failf "%s: handler did not run" (Arch.name arch));
      Alcotest.(check string) (Arch.name arch ^ " handler output") "1\n" out;
      Alcotest.(check bool) (Arch.name arch ^ " host intact") true (intact host))
    target_archs

(* read protection: a module trying to READ host memory sees its own
   segment's bytes instead of the secret (confidentiality, not just
   integrity). Honest code is unaffected. *)
let secret_read_src =
  Printf.sprintf
    {|
        .text
        .globl main
main:   li r2, %d          ; host region: holds a secret
        lw r1, 0(r2)
        hcall 2            ; print what we read
        li r1, 10
        hcall 1
        li r1, 0
        hcall 0
|}
    L.host_base

let read_protection () =
  let exe = compile_asm secret_read_src in
  let secret = 0x5EC2E700 in
  let run mode =
    let img = Api.load ~map_host_region:true exe in
    (match img.Omni_runtime.Loader.host_region with
    | Some _ ->
        let b = Bytes.create 4 in
        Bytes.set b 0 (Char.chr (secret land 0xFF));
        Bytes.set b 1 (Char.chr ((secret lsr 8) land 0xFF));
        Bytes.set b 2 (Char.chr ((secret lsr 16) land 0xFF));
        Bytes.set b 3 (Char.chr ((secret lsr 24) land 0xFF));
        Omnivm.Memory.blit_in img.Omni_runtime.Loader.mem ~addr:L.host_base b
    | None -> assert false);
    let tr = Api.translate ~mode ~opts:(Api.mobile_opts Arch.Mips) Arch.Mips exe in
    let r = Api.run_translated ~fuel:1_000_000 tr img in
    r.Api.output
  in
  (* write-only SFI (the paper's configuration): the read leaks the secret *)
  let leaked = run sandbox in
  Alcotest.(check string) "write-only sfi leaks reads"
    (Printf.sprintf "%d\n" secret) leaked;
  (* with read protection the load is forced into the module's own segment *)
  let protected_ =
    run (Machine.Mobile (Omni_sfi.Policy.make ~protect_reads:true ()))
  in
  Alcotest.(check bool) "read protection hides the secret" true
    (protected_ <> leaked);
  (* and in guard mode the read faults instead *)
  let exe2 = compile_asm secret_read_src in
  let img = Api.load ~map_host_region:true exe2 in
  let tr =
    Api.translate
      ~mode:(Machine.Mobile
               (Omni_sfi.Policy.make ~mode:Omni_sfi.Policy.Guard
                  ~protect_reads:true ()))
      ~opts:(Api.mobile_opts Arch.Mips) Arch.Mips exe2
  in
  let r = Api.run_translated ~fuel:1_000_000 tr img in
  match r.Api.outcome with
  | Machine.Faulted (Omnivm.Fault.Access_violation _) -> ()
  | _ -> Alcotest.fail "guarded read did not fault"

let read_protection_transparent () =
  (* honest compiled code produces identical output with read checks on *)
  let w = Omni_workloads.Workloads.compress ~size:Omni_workloads.Workloads.Test in
  let exe = Minic.Driver.compile_exe ~name:"c" w.Omni_workloads.Workloads.source in
  let expected =
    (Api.run { Api.default_request with fuel = Some 1_000_000_000 }
       (Api.Exe exe)).Api.output
  in
  List.iter
    (fun arch ->
      let img = Api.load exe in
      let tr =
        Api.translate
          ~mode:(Machine.Mobile (Omni_sfi.Policy.make ~protect_reads:true ()))
          ~opts:(Api.mobile_opts arch) arch exe
      in
      let r = Api.run_translated ~fuel:1_000_000_000 tr img in
      Alcotest.(check string)
        (Arch.name arch ^ " read-protected output")
        expected r.Api.output)
    target_archs

(* compiled MiniC under SFI behaves identically (sanity that sandboxing is
   transparent for honest modules) -- covered further in test_minic_exec *)

(* --- property: random store addresses never escape the data segment --- *)

let random_stores_contained =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random wild stores contained"
       QCheck.(pair (pair int int) small_int)
       (fun ((addr_raw, value), arch_pick) ->
         let addr = addr_raw land 0xFFFFFFFF in
         let arch = List.nth target_archs (arch_pick mod 4) in
         let src =
           Printf.sprintf
             {|
        .text
        .globl main
main:   li r2, %d
        li r3, %d
        sw r3, 0(r2)
        sb r3, 1(r2)
        li r1, 0
        hcall 0
|}
             (Omni_util.Word32.of_int addr)
             (Omni_util.Word32.of_int value)
         in
         let exe = compile_asm src in
         let o, host, _ = run_with_mode arch exe sandbox in
         let img2 = Api.load ~map_host_region:true exe in
         let mem2 = img2.Omni_runtime.Loader.mem in
         (match img2.Omni_runtime.Loader.host_region with
         | Some _ ->
             Omnivm.Memory.blit_in mem2 ~addr:L.host_base
               (Bytes.make 64 '\xAB')
         | None -> ());
         let tr2 =
           Api.translate ~mode:sandbox
             ~opts:{ (Api.mobile_opts arch) with
                     Omni_targets.Machine.sfi_opt = true }
             arch exe
         in
         let r2 = Api.run_translated ~fuel:10_000_000 tr2 img2 in
         let host2 =
           match img2.Omni_runtime.Loader.host_region with
           | Some _ -> Omnivm.Memory.read_bytes mem2 ~addr:L.host_base ~len:64
           | None -> assert false
         in
         ignore r2;
         (match o with
         | Machine.Exited 0 -> true
         | Machine.Exited _ -> false
         | Machine.Faulted _ -> false (* sandboxed stores cannot fault *)
         | Machine.Out_of_fuel -> false)
         && intact host && intact host2))

(* --- static verifier --- *)

let verifier_accepts_sandboxed () =
  let w = Omni_workloads.Workloads.compress ~size:Omni_workloads.Workloads.Test in
  let exe = Minic.Driver.compile_exe ~name:"c" w.Omni_workloads.Workloads.source in
  List.iter
    (fun arch ->
      let fail_at index reason =
        Alcotest.failf "%s: verifier rejected sandboxed code at %d: %s"
          (Arch.name arch) index reason
      in
      match Api.translate ~mode:sandbox ~opts:(Api.mobile_opts arch) arch exe with
      | Api.T_risc p -> (
          match Omni_targets.Risc_verify.verify p with
          | Ok () -> ()
          | Error { Omni_sfi.Verifier.index; reason } -> fail_at index reason)
      | Api.T_x86 p -> (
          match Omni_targets.X86_verify.verify p with
          | Ok () -> ()
          | Error { Omni_sfi.Verifier.index; reason } -> fail_at index reason))
    target_archs

let verifier_rejects_unprotected () =
  let exe = compile_asm wild_store_src in
  List.iter
    (fun arch ->
      let accepted () =
        Alcotest.failf "%s: verifier accepted unprotected store"
          (Arch.name arch)
      in
      match Api.translate ~mode:off ~opts:(Api.mobile_opts arch) arch exe with
      | Api.T_risc p -> (
          match Omni_targets.Risc_verify.verify p with
          | Ok () -> accepted ()
          | Error _ -> ())
      | Api.T_x86 p -> (
          match Omni_targets.X86_verify.verify p with
          | Ok () -> accepted ()
          | Error _ -> ()))
    target_archs

let verifier_unit () =
  let module V = Omni_sfi.Verifier in
  (* single events *)
  Alcotest.(check bool) "ok events" true
    (List.for_all
       (fun ev -> Result.is_ok (V.classify 0 ev))
       [ V.Sandbox_data_mask; V.Sandbox_data_box;
         V.Store_via_dedicated { disp = 0 }; V.Jump_via_dedicated ]);
  (match V.classify 3 (V.Store_unsafe "sw") with
  | Error { index = 3; _ } -> ()
  | _ -> Alcotest.fail "unsafe store accepted");
  (match V.classify 0 (V.Store_via_dedicated { disp = 100000 }) with
  | Error _ -> ()
  | _ -> Alcotest.fail "big disp accepted");
  (match V.classify 0 (V.Sp_clobber "li sp") with
  | Error _ -> ()
  | _ -> Alcotest.fail "sp clobber accepted");
  (* the scan: obligations in order, the first failure stops it *)
  let stream = [| V.Sandbox_data_mask; V.Neutral; V.Sandbox_data_box;
                  V.Store_via_dedicated { disp = 0 }; V.Store_unsafe "sw";
                  V.Jump_unsafe "jr" |] in
  let calls = ref 0 in
  let event i = incr calls; stream.(i) in
  (match V.scan ~witness:true 4 event with
  | Ok obs ->
      Alcotest.(check (list int)) "obligation indexes" [ 0; 2; 3 ]
        (Array.to_list (Array.map (fun o -> o.Omni_sfi.Witness.ox) obs))
  | Error _ -> Alcotest.fail "ok stream refused");
  calls := 0;
  (match V.scan ~witness:false 6 event with
  | Error { index = 4; _ } -> ()
  | _ -> Alcotest.fail "scan missed the first failure");
  Alcotest.(check int) "scan stops at the failure" 5 !calls

(* Every hostile program above, translated for every target under every
   SFI configuration, judged by the full and the certifying verifier:
   the verdicts (accept, or the first failing instruction and its
   reason) are pinned by [verdict_goldens.txt]. The wild-store template
   of the random-stores property runs at a few fixed addresses. *)
let hostile_verdicts () =
  let wild_store_at addr =
    Printf.sprintf
      {|
        .text
        .globl main
main:   li r2, %d
        li r3, 0x5A5A5A5A
        sw r3, 0(r2)
        sb r3, 1(r2)
        li r1, 0
        hcall 0
|}
      (Omni_util.Word32.of_int addr)
  in
  let programs =
    [ ("wild store", wild_store_src); ("computed store", computed_store_src);
      ("sp attack", sp_attack_src); ("wild jump", wild_jump_src);
      ("misaligned jump", misaligned_jump_src);
      ("guard handler", guard_handler_src); ("secret read", secret_read_src) ]
    @ List.map
        (fun addr -> (Printf.sprintf "store@%x" addr, wild_store_at addr))
        [ 0; L.host_base + 4; L.data_base + 8; L.code_base; 0xFFFFFFFC ]
  in
  let modes =
    [ ("off", off); ("sandbox", sandbox); ("guard", guard);
      ("reads", Machine.Mobile (Omni_sfi.Policy.make ~protect_reads:true ()));
      ("guard8",
       Machine.Mobile (Omni_sfi.Policy.make ~pad:Omni_sfi.Policy.Pad_guard8 ()));
      ("native", Machine.Native Machine.Cc) ]
  in
  let got =
    List.concat_map
      (fun (pname, src) ->
        let exe = compile_asm src in
        let module_digest =
          Omni_util.Fnv64.digest_string (Omnivm.Wire.encode exe)
        in
        List.concat_map
          (fun arch ->
            let opts = Api.mobile_opts arch in
            List.map
              (fun (mname, mode) ->
                let tr = Api.translate ~mode ~opts arch exe in
                ( String.concat "/" [ pname; Arch.name arch; mname ],
                  Verdicts.verdict ~module_digest ~mode ~opts tr ))
              modes)
          target_archs)
      programs
  in
  Verdicts.check "sfi" got

(* Hand-patched code: a sandboxed translation's text replaced by a short
   sequence that walks one transition of the verifier's state machine
   (mask, box, dirtying writes, control-flow resets, the lui constant,
   the sp re-sandbox lookahead, displacement bounds). Verdicts are pinned
   by [verdict_goldens.txt] with the hostile programs. *)
let patched_verdicts () =
  let module R = Omni_targets.Risc in
  let module X = Omni_targets.X86 in
  let module VI = Omnivm.Instr in
  let exe = compile_asm wild_store_src in
  let module_digest = 0x5EEDL in
  let judge name arch tr =
    ( String.concat "/" [ name; Arch.name arch ],
      Verdicts.verdict ~module_digest ~mode:sandbox
        ~opts:(Api.mobile_opts arch) tr )
  in
  let sd = R.r_sfi_data and sc = R.r_sfi_code and sp = R.omni_sp in
  let dm = R.r_data_mask and db = R.r_data_base in
  let cm = R.r_code_mask and cb = R.r_code_base in
  let t = R.r_scratch1 and o n = R.map_reg n in
  let mask = R.Alu (VI.And, sd, o 2, dm) and box = R.Alu (VI.Or, sd, sd, db) in
  let st d = R.Store (VI.W32, o 3, sd, d) in
  let risc =
    [ ("mask box store", [ mask; box; st 0 ]);
      ("mask store", [ mask; st 0 ]);
      ("box unmasked", [ box; st 0 ]);
      ("dirty between", [ mask; box; R.Alui (VI.Add, sd, sd, 4); st 0 ]);
      ("load into sd", [ mask; box; R.Load (VI.W32, true, sd, o 2, 0); st 0 ]);
      ("store far", [ mask; box; st 100_000 ]);
      ("store guard zone", [ mask; box; st (-4000) ]);
      ("branch then store", [ mask; box; R.J 0; st 0; st 4 ]);
      ("code box", [ R.Alu (VI.And, sc, o 2, cm); R.Alu (VI.Or, sc, sc, cb);
                     R.Jmp_ind sc ]);
      ("code mask only", [ R.Alu (VI.And, sc, o 2, cm); R.Jmp_ind sc ]);
      ("data box jump", [ R.Alu (VI.And, sc, o 2, dm); R.Alu (VI.Or, sc, sc, db);
                          R.Call_ind (sc, 0x40) ]);
      ("indexed", [ mask; R.Store_x (VI.W32, o 3, db, sd) ]);
      ("indexed boxed", [ mask; box; R.Store_x (VI.W32, o 3, db, sd) ]);
      ("indexed wrong base", [ mask; R.Fstore_x (o 3, o 4, sd) ]);
      ("lui store", [ R.Lui (t, L.data_base); R.Store (VI.W8, o 3, t, 8) ]);
      ("lui outside", [ R.Lui (t, L.host_base); R.Store (VI.W8, o 3, t, 8) ]);
      ("lui overwritten", [ R.Lui (t, L.data_base); R.Alui (VI.Add, t, t, 4);
                            R.Store (VI.W8, o 3, t, 8) ]);
      ("lui across branch", [ R.Lui (t, L.data_base); R.J 0; R.Nop;
                              R.Store (VI.W8, o 3, t, 8) ]);
      ("gp store", [ R.Fstore (o 3, R.r_gp, 16) ]);
      ("abs store", [ R.Store (VI.W16, o 3, R.r_zero, L.data_base + 4) ]);
      ("abs outside", [ R.Store (VI.W16, o 3, R.r_zero, L.host_base) ]);
      ("sp adjust", [ R.Alui (VI.Sub, sp, sp, 64); R.Store (VI.W32, o 3, sp, 8) ]);
      ("sp adjust far", [ R.Alui (VI.Add, sp, sp, 1 lsl 20) ]);
      ("sp far store", [ R.Store (VI.W32, o 3, sp, 1 lsl 20) ]);
      ("sp resandboxed", [ R.Lui (sp, 0x1234); R.Alu (VI.And, sp, sp, dm);
                           R.Alu (VI.Or, sp, sp, db) ]);
      ("sp guarded", [ R.Load (VI.W32, true, sp, o 2, 0); R.Guard_data sp ]);
      ("sp half resandboxed", [ R.Lui (sp, 0x1234); R.Alu (VI.And, sp, sp, dm) ]);
      ("sp clobber at end", [ R.Cc_to_reg (VI.Eq, sp) ]) ]
  in
  let eax = X.eax and esp = X.esp in
  let xmask = X.Alu (X.And, X.R eax, X.I L.data_mask)
  and xbox = X.Alu (X.Or, X.R eax, X.I L.data_base) in
  let xst d = X.Mov (X.M (X.mbase eax d), X.R X.esi) in
  let cmask = L.code_mask land lnot 3 in
  let x86 =
    [ ("mask box store", [ X.Lea (eax, X.mbase X.ebx 8); xmask; xbox; xst 0 ]);
      ("mask store", [ xmask; xst 0 ]);
      ("idiv between", [ xmask; xbox; X.Idiv (X.R X.ecx, true); xst 0 ]);
      ("cdq between", [ xmask; xbox; X.Cdq; xst 0 ]);
      ("mov into eax", [ xmask; xbox; X.Mov (X.R eax, X.I 7); xst 0 ]);
      ("wrong mask", [ X.Alu (X.And, X.R eax, X.I 0xFF); xbox; xst 0 ]);
      ("call between", [ xmask; xbox; X.Call (0, 0x40); xst 0 ]);
      ("store far", [ xmask; xbox; xst 100_000 ]);
      ("store index", [ xmask; xbox;
                        X.Store (VI.W8, { (X.mbase eax 0) with X.index = Some (X.ecx, 1) },
                                 X.I 1) ]);
      ("code box jump", [ X.Alu (X.And, X.R eax, X.I cmask);
                          X.Alu (X.Or, X.R eax, X.I L.code_base); X.Jmp_ind (X.R eax) ]);
      ("data box jump", [ xmask; xbox; X.Call_ind (X.R eax, 0x40) ]);
      ("jump via memory", [ X.Jmp_ind (X.M (X.mabs (L.data_base + 4))) ]);
      ("abs store", [ X.Mov (X.M (X.mabs (L.data_base + 4)), X.I 3) ]);
      ("abs rmw", [ X.Alu (X.Add, X.M (X.mabs (L.data_base + 4)), X.I 3) ]);
      ("rmw via ebx", [ X.Shift (X.Shl, X.M (X.mbase X.ebx 0), 1) ]);
      ("sp store", [ X.Fstore (VI.Double, 1, X.mbase esp 16) ]);
      ("sp far rmw", [ X.Shiftv (X.Sar, X.M (X.mbase esp (1 lsl 20)), X.ecx) ]);
      ("sp adjust", [ X.Alu (X.Sub, X.R esp, X.I 32) ]);
      ("sp adjust far", [ X.Alu (X.Add, X.R esp, X.I (1 lsl 20)) ]);
      ("sp resandboxed", [ X.Mov (X.R esp, X.I 0x1234);
                           X.Alu (X.And, X.R esp, X.I L.data_mask);
                           X.Alu (X.Or, X.R esp, X.I L.data_base) ]);
      ("sp guarded", [ X.Load (VI.W32, true, esp, X.mbase X.ebx 0); X.Guard_data esp ]);
      ("sp half resandboxed", [ X.Lea (esp, X.mbase X.ebx 4);
                                X.Alu (X.And, X.R esp, X.I L.data_mask) ]);
      ("sp xor", [ X.Alu (X.Xor, X.R esp, X.I 1) ]) ]
  in
  let got =
    List.concat_map
      (fun arch ->
        match Api.translate ~mode:sandbox ~opts:(Api.mobile_opts arch) arch exe with
        | Api.T_risc p ->
            List.map
              (fun (name, seq) ->
                let code = Array.of_list (List.map (R.mk Machine.Core) seq) in
                judge name arch (Api.T_risc { p with R.code }))
              risc
        | Api.T_x86 p ->
            List.map
              (fun (name, seq) ->
                let code = Array.of_list (List.map (X.mk Machine.Core) seq) in
                judge name arch (Api.T_x86 { p with X.code }))
              x86)
      target_archs
  in
  Verdicts.check "patched" got

(* policy unit tests *)
let policy_unit () =
  let p = Omni_sfi.Policy.make () in
  Alcotest.(check bool) "sandboxed in data" true
    (Omni_sfi.Policy.in_data p (Omni_sfi.Policy.sandbox_data p 0x40000010));
  Alcotest.(check int) "identity inside" (L.data_base + 4)
    (Omni_sfi.Policy.sandbox_data p (L.data_base + 4));
  Alcotest.(check bool) "code sandbox" true
    (Omni_sfi.Policy.in_code p (Omni_sfi.Policy.sandbox_code p 0x99999999))

let () =
  Alcotest.run "sfi"
    [ ("containment",
       [ Alcotest.test_case "wild store" `Quick wild_store_contained;
         Alcotest.test_case "computed store" `Quick computed_store_contained;
         Alcotest.test_case "sp corruption" `Quick sp_attack_contained;
         Alcotest.test_case "wild jump" `Quick wild_jump_contained;
         Alcotest.test_case "misaligned jump" `Quick misaligned_jump_faults;
         Alcotest.test_case "guard handler" `Quick guard_handler_delivery;
         Alcotest.test_case "read protection" `Quick read_protection;
         Alcotest.test_case "read protection transparent" `Slow
           read_protection_transparent;
         random_stores_contained ]);
      ("verifier",
       [ Alcotest.test_case "unit" `Quick verifier_unit;
         Alcotest.test_case "accepts sandboxed" `Quick verifier_accepts_sandboxed;
         Alcotest.test_case "rejects unprotected" `Quick verifier_rejects_unprotected;
         Alcotest.test_case "hostile verdict goldens" `Quick hostile_verdicts;
         Alcotest.test_case "patched-code verdict goldens" `Quick
           patched_verdicts ]);
      ("policy", [ Alcotest.test_case "unit" `Quick policy_unit ])
    ]

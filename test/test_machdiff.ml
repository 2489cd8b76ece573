(* Machine-level differential fuzzing: random OmniVM assembly programs run
   on the reference interpreter, on the interpreter over a cached decode
   ([Fast]) and on every target simulator (sandboxed, unprotected, and
   with the guard-zone SFI optimization) and must print the same register
   checksum.

   This hits translator paths the compiler never generates: odd register
   combinations, immediate edge values, mixed-width and sign-extending
   memory traffic, shifts by register counts, byte inserts, float
   division, compares, conversions and single-precision memory traffic,
   unsigned immediate branches, direct and indirect calls, and branch
   patterns. Programs are built to be self-terminating (conditional
   branches only jump forward) and in-segment (all addresses fall inside a
   data buffer), so sandboxing is semantically transparent and every engine
   must agree exactly. *)

module Api = Omniware.Api
module Machine = Omni_targets.Machine

let buf_size = 256

(* Leaf functions each program may call. *)
let n_funcs = 3

(* Generate one random program as assembly text. *)
let gen_program (rng : Random.State.t) : string =
  let ri n = Random.State.int rng n in
  let b = Buffer.create 1024 in
  let reg () = 1 + ri 9 in (* r1..r9 *)
  let freg () = 1 + ri 5 in
  let imm () =
    match ri 6 with
    | 0 -> 0
    | 1 -> ri 100 - 50
    | 2 -> 0x7FFFFFFF
    | 3 -> -0x80000000
    | 4 -> (1 lsl ri 31) - ri 2
    | _ -> ri 1000000 - 500000
  in
  Buffer.add_string b "        .data\nbuf:    .space 264\n        .text\n";
  Buffer.add_string b "        .globl main\nmain:\n";
  (* seed registers *)
  for r = 1 to 9 do
    Printf.bprintf b "        li r%d, %d\n" r (imm ())
  done;
  for f = 1 to 5 do
    Printf.bprintf b "        li r10, %d\n" (ri 1000 - 500);
    Printf.bprintf b "        cvt.d.w f%d, r10\n" f
  done;
  Printf.bprintf b "        li r10, buf\n";
  let n = 10 + ri 40 in
  let label = ref 0 in
  let pending_labels = ref [] in
  for i = 0 to n - 1 do
    (* emit any labels that were branched to and are due *)
    List.iter
      (fun (at, l) -> if at = i then Printf.bprintf b ".L%d:\n" l)
      !pending_labels;
    match ri 20 with
    | 0 | 1 | 2 | 18 | 19 ->
        let ops = [| "add"; "sub"; "mul"; "and"; "or"; "xor"; "slt"; "sltu" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    | 3 | 4 ->
        let ops = [| "addi"; "xori"; "ori"; "andi"; "slti" |] in
        Printf.bprintf b "        %s r%d, r%d, %d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (imm ())
    | 5 ->
        (* shifts with bounded counts *)
        let ops = [| "slli"; "srli"; "srai" |] in
        Printf.bprintf b "        %s r%d, r%d, %d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (ri 32)
    | 6 ->
        (* division by a guaranteed-nonzero value *)
        let d = reg () in
        Printf.bprintf b "        ori r%d, r%d, 1\n" d d;
        let ops = [| "div"; "divu"; "rem"; "remu" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) d
    | 7 ->
        (* in-bounds store + load through r10 (= buf) *)
        let off = 4 * ri (buf_size / 4) in
        let w =
          [| ("sw", "lw"); ("sh", "lhu"); ("sb", "lbu"); ("sh", "lh"); ("sb", "lb") |]
            .(ri 5)
        in
        Printf.bprintf b "        %s r%d, %d(r10)\n" (fst w) (reg ()) off;
        Printf.bprintf b "        %s r%d, %d(r10)\n" (snd w) (reg ()) off
    | 8 ->
        (* float work, kept exact: integer-valued doubles *)
        let ops = [| "fadd.d"; "fsub.d"; "fmul.d" |] in
        Printf.bprintf b "        %s f%d, f%d, f%d\n"
          ops.(ri (Array.length ops)) (freg ()) (freg ()) (freg ());
        Printf.bprintf b "        cvt.w.d r%d, f%d\n" (reg ()) (freg ())
    | 9 ->
        (* a forward conditional branch over the next few instructions *)
        let l = !label in
        incr label;
        let skip = 1 + ri 4 in
        let conds = [| "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" |] in
        Printf.bprintf b "        %s r%d, r%d, .L%d\n"
          conds.(ri (Array.length conds)) (reg ()) (reg ()) l;
        pending_labels := (min (n - 1) (i + skip), l) :: !pending_labels
    | 10 ->
        let conds =
          [| "beqi"; "bnei"; "blti"; "bgei"; "bltui"; "bgeui"; "bleui"; "bgtui" |]
        in
        let l = !label in
        incr label;
        Printf.bprintf b "        %s r%d, %d, .L%d\n"
          conds.(ri (Array.length conds)) (reg ()) (imm ()) l;
        pending_labels := (min (n - 1) (i + 1 + ri 4), l) :: !pending_labels
    | 11 ->
        Printf.bprintf b "        ext r%d, r%d, %d, %d\n" (reg ()) (reg ())
          (ri 3) (1 + ri 2)
    | 12 ->
        Printf.bprintf b "        ins r%d, r%d, %d, %d\n" (reg ()) (reg ())
          (ri 3) (1 + ri 2)
    | 13 ->
        (* shifts by a register's count, taken modulo 32 *)
        let ops = [| "sll"; "srl"; "sra" |] in
        Printf.bprintf b "        %s r%d, r%d, r%d\n"
          ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    | 14 ->
        (* a quotient of integer-valued doubles, compared and truncated *)
        Printf.bprintf b "        fdiv.d f%d, f%d, f%d\n" (freg ()) (freg ()) (freg ());
        let cmps = [| "feq"; "flt"; "fle" |] in
        Printf.bprintf b "        %s.d r%d, f%d, f%d\n"
          cmps.(ri (Array.length cmps)) (reg ()) (freg ()) (freg ());
        Printf.bprintf b "        cvt.w.d r%d, f%d\n" (reg ()) (freg ())
    | 15 ->
        (* double and single floats through memory *)
        let off = 8 * ri (buf_size / 8) in
        if ri 2 = 0 then begin
          Printf.bprintf b "        fsd f%d, %d(r10)\n" (freg ()) off;
          Printf.bprintf b "        fld f%d, %d(r10)\n" (freg ()) off
        end
        else begin
          Printf.bprintf b "        fss f%d, %d(r10)\n" (freg ()) off;
          Printf.bprintf b "        fls f%d, %d(r10)\n" (freg ()) off
        end;
        Printf.bprintf b "        cvt.w.d r%d, f%d\n" (reg ()) (freg ())
    | 16 ->
        let cvt = [| "cvt.s.d"; "cvt.d.s" |] in
        Printf.bprintf b "        %s f%d, f%d\n" cvt.(ri 2) (freg ()) (freg ());
        Printf.bprintf b "        cvt.w.d r%d, f%d\n" (reg ()) (freg ())
    | _ ->
        (* a call to one of the leaf functions after the exit, which
           return through ra with jr *)
        let f = ri n_funcs in
        if ri 2 = 0 then Printf.bprintf b "        jal fn%d\n" f
        else Printf.bprintf b "        la r12, fn%d\n        jalr r12\n" f
  done;
  (* park all pending labels at the end *)
  List.iter (fun (_, l) -> Printf.bprintf b ".L%d:\n" l) !pending_labels;
  (* checksum: fold every register and a slice of the buffer into r1 *)
  Buffer.add_string b "        ; checksum\n";
  for r = 2 to 9 do
    Printf.bprintf b "        xor r1, r1, r%d\n" r
  done;
  for k = 0 to 7 do
    Printf.bprintf b "        lw r11, %d(r10)\n        xor r1, r1, r11\n"
      (k * 32)
  done;
  Buffer.add_string b "        hcall 2\n        li r1, 10\n        hcall 1\n";
  Buffer.add_string b "        li r1, 0\n        hcall 0\n";
  for f = 0 to n_funcs - 1 do
    Printf.bprintf b "        .globl fn%d\nfn%d:\n" f f;
    for _ = 0 to ri 3 do
      let ops = [| "add"; "sub"; "xor"; "mul" |] in
      Printf.bprintf b "        %s r%d, r%d, r%d\n"
        ops.(ri (Array.length ops)) (reg ()) (reg ()) (reg ())
    done;
    Buffer.add_string b "        jr r15\n"
  done;
  Buffer.contents b

let engines_agree src =
  let exe = Omni_asm.Link.link [ Omni_asm.Parse.assemble ~name:"fuzz" src ] in
  let run engine ~sfi ?opts () =
    let r =
      Api.run
        { Api.default_request with engine; sfi; opts; fuel = Some 5_000_000 }
        (Api.Exe exe)
    in
    match r.Api.outcome with
    | Machine.Exited 0 -> Some r.Api.output
    | _ -> None
  in
  match run Api.Interp ~sfi:true () with
  | None -> true (* interpreter faulted (e.g. overflowing shift count): skip *)
  | Some expected ->
      run Api.Fast ~sfi:true () = Some expected
      && List.for_all
        (fun arch ->
          let variants =
            [ run (Api.Target arch) ~sfi:true ();
              run (Api.Target arch) ~sfi:false ();
              run (Api.Target arch) ~sfi:true
                ~opts:{ (Api.mobile_opts arch) with Machine.sfi_opt = true }
                ();
              run (Api.Target arch) ~sfi:true ~opts:Machine.no_opts () ]
          in
          List.for_all (fun v -> v = Some expected) variants)
        Omni_targets.Arch.all

let fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"random OmniVM programs agree on all engines"
       (QCheck.make
          ~print:(fun s -> s)
          QCheck.Gen.(
            int >>= fun seed ->
            return (gen_program (Random.State.make [| seed |]))))
       engines_agree)

let () = Alcotest.run "machdiff" [ ("fuzz", [ fuzz ]) ]

(* omniasm: assemble OmniVM assembly source(s) and link them into a mobile
   module.

     omniasm a.s b.s -o module.omni [--entry main] [--run ENGINE]

   Each input file becomes one relocatable object; the linker resolves
   cross-file references and produces wire-format bytes. --run additionally
   executes the linked module on the named engine (assemble-link-go). *)

module Api = Omniware.Api

let () =
  let inputs = ref [] in
  let output = ref "a.omni" in
  let entry = ref "main" in
  let dump = ref false in
  let run_engine = ref "" in
  let spec =
    [ ("-o", Arg.Set_string output, "FILE output module (default a.omni)");
      ("--entry", Arg.Set_string entry, "SYM entry symbol (default main)");
      ("--dump", Arg.Set dump, " print the linked module");
      ("--run", Arg.Set_string run_engine,
       "ENGINE also run the linked module (interp|mips|sparc|ppc|x86)") ]
  in
  Arg.parse spec (fun f -> inputs := f :: !inputs) "omniasm <files.s> -o out.omni";
  let engine =
    if !run_engine = "" then None
    else
      match Api.engine_of_string !run_engine with
      | Ok e -> Some e
      | Error msg ->
          Printf.eprintf "omniasm: %s\n" msg;
          exit 2
  in
  match List.rev !inputs with
  | [] ->
      prerr_endline "omniasm: no input files";
      exit 2
  | files -> (
      try
        let objs =
          List.map
            (fun path ->
              let src = In_channel.with_open_text path In_channel.input_all in
              Omni_asm.Parse.assemble ~name:path src)
            files
        in
        let exe = Omni_asm.Link.link ~entry:!entry objs in
        if !dump then Format.printf "%a" Omnivm.Exe.pp exe;
        Out_channel.with_open_bin !output (fun oc ->
            Out_channel.output_string oc (Omnivm.Wire.encode exe));
        match engine with
        | None -> ()
        | Some e ->
            let r =
              Api.run { Api.default_request with engine = e } (Api.Exe exe)
            in
            print_string r.Api.output;
            exit r.Api.exit_code
      with
      | Omni_asm.Parse.Parse_error { line; message } ->
          Printf.eprintf "error: line %d: %s\n" line message;
          exit 1
      | Omni_asm.Link.Link_error m ->
          Printf.eprintf "link error: %s\n" m;
          exit 1)

(* Quickstart: the complete Omniware round trip in one file.

     dune exec examples/quickstart.exe

   1. Compile a C program to a mobile OmniVM module (what a producer does).
   2. The module is now a byte string: it could be attached to a document,
      served from a web page, or mailed -- unchanged for every target.
   3. A host loads the bytes, translates them with software fault isolation
      for its own processor, and runs them. *)

module Api = Omniware.Api

let program =
  {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}

int main(void) {
  int i;
  print_str("fib: ");
  for (i = 1; i <= 10; i++) {
    print_int(fib(i));
    putchar(' ');
  }
  putchar('\n');
  return 0;
}
|}

let () =
  (* producer side: one artifact for every architecture *)
  let wire = Api.compile ~name:"quickstart" program in
  Printf.printf "compiled mobile module: %d bytes of portable OmniVM code\n\n"
    (String.length wire);
  (* -o FILE: also save the module (e.g. to feed omnirun) *)
  (match Array.to_list Sys.argv with
  | _ :: "-o" :: path :: _ ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc wire);
      Printf.printf "wrote %s\n\n" path
  | _ -> ());
  (* host side: pick the processor this host happens to have *)
  let host_arch = Omni_targets.Arch.X86 in
  let r =
    Api.run
      { Api.default_request with engine = Api.Target host_arch; sfi = true }
      (Api.Wire wire)
  in
  print_string r.Api.output;
  Printf.printf
    "\n[executed on simulated %s: %d native instructions, %d cycles, exit %d]\n"
    (Omni_targets.Arch.name host_arch)
    r.Api.instructions r.Api.cycles r.Api.exit_code;
  (* the same bytes run identically on the OmniVM reference interpreter *)
  let r2 = Api.run Api.default_request (Api.Wire wire) in
  assert (r2.Api.output = r.Api.output);
  print_endline "[interpreter produced identical output]"

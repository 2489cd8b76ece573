(* Module loader: set up the segmented address space for a mobile module and
   instantiate the host environment.

   The loader is the trusted component: it maps the code and data segments
   with the module's initialized data image, reserves heap and stack inside
   the data segment, and (optionally) maps a region standing in for the
   host's own memory so tests can demonstrate what SFI protects. *)

open Omnivm
module Trace = Omni_obs.Trace

type image = {
  exe : Exe.t;
  mem : Memory.t;
  host : Host.t;
  host_region : Memory.region option;
}

(* A validated loading plan: segment geometry, host grant and the initial
   data pages computed once per executable, so a serving host can stamp
   out many isolated images of the same module without re-checking sizes
   or copying the data image on every instantiation. *)
type blueprint = {
  bp_exe : Exe.t;
  bp_allow : Hostcall.t list;
  bp_map_host_region : bool;
  bp_heap_start : int;
  bp_heap_limit : int;
  bp_data : Memory.pages;
      (* the reserved runtime area, then [exe.data] *)
}

(* The code segment's contents: every page is the zero page. *)
let code_pages = Memory.pages ~size:Layout.code_size ~at:0 Bytes.empty

let blueprint ?(allow = Hostcall.all) ?(map_host_region = false)
    ?(stack_size = Layout.default_stack_size) (exe : Exe.t) : blueprint =
  let globals_end =
    Layout.data_base + Layout.reserved_data + Exe.globals_size exe
  in
  let heap_start = (globals_end + 15) land lnot 15 in
  let heap_limit = Layout.data_base + Layout.data_size - stack_size in
  if heap_start > heap_limit then invalid_arg "Loader.load: data too large";
  { bp_exe = exe; bp_allow = allow; bp_map_host_region = map_host_region;
    bp_heap_start = heap_start; bp_heap_limit = heap_limit;
    bp_data =
      Memory.pages ~size:Layout.data_size ~at:Layout.reserved_data
        exe.Exe.data }

let instantiate (bp : blueprint) : image =
  Trace.phase "load" @@ fun () ->
  Trace.count "load.instantiations";
  let exe = bp.bp_exe in
  let mem = Memory.create () in
  (* The code segment is mapped for realism (it holds no fetchable bytes in
     this implementation: engines execute structured instruction arrays; the
     region exists so data reads of code addresses behave like hardware:
     readable, not writable). Both segments share their pages with every
     other image until this one writes them. *)
  ignore
    (Memory.map ~init:code_pages mem ~name:"code" ~base:Layout.code_base
       ~size:Layout.code_size ~perm:Memory.perm_rx);
  ignore
    (Memory.map ~init:bp.bp_data mem ~name:"data" ~base:Layout.data_base
       ~size:Layout.data_size ~perm:Memory.perm_rw);
  let host_region =
    if bp.bp_map_host_region then
      Some
        (Memory.map mem ~name:"host" ~base:Layout.host_base
           ~size:Layout.host_size ~perm:Memory.perm_rw)
    else None
  in
  let host =
    Host.create ~allow:bp.bp_allow ~heap_start:bp.bp_heap_start
      ~heap_limit:bp.bp_heap_limit ()
  in
  { exe; mem; host; host_region }

let load ?allow ?map_host_region ?stack_size (exe : Exe.t) : image =
  instantiate (blueprint ?allow ?map_host_region ?stack_size exe)

(* Load from wire bytes: the real mobile-code path. *)
let load_wire bytes = load (Trace.phase "decode" (fun () -> Wire.decode bytes))

(* The host-call interface both interpreter engines run under. *)
let host_iface (img : image) : Interp.host_iface =
  let on_hcall (st : Interp.t) index : Interp.hcall_outcome =
    let req =
      {
        Host.index;
        arg = (fun i -> Interp.get_reg st (Reg.arg i));
        farg = (fun i -> Interp.get_freg st (1 + i));
        set_ret = (fun v -> Interp.set_reg st Reg.ret v);
        mem = img.mem;
      }
    in
    match Host.handle img.host req with
    | Host.Continue -> Interp.Continue
    | Host.Exit code -> Interp.Exit code
    | Host.Set_handler addr ->
        st.Interp.handler <- addr;
        Interp.Continue
  in
  { Interp.on_hcall }

(* Convenience: run a loaded image in the OmniVM reference interpreter. *)
let run_interp ?fuel ?watchdog (img : image) =
  let interp = Interp.create img.exe img.mem in
  (Interp.run ?fuel ?watchdog (host_iface img) interp, interp)

(* The same run over a decode of this image's text made before it
   ([program]); serving hosts decode once per module digest and share
   the decode across runs. *)
let run_fast ?fuel ?watchdog ?program (img : image) =
  let st = Interp.create img.exe img.mem in
  (Interp.run ?fuel ?watchdog ?code:program (host_iface img) st, st)

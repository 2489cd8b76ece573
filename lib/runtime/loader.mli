(** Module loader: the trusted component that sets up a mobile module's
    segmented address space and instantiates its host environment. *)

open Omnivm

type image = {
  exe : Exe.t;
  mem : Memory.t;
  host : Host.t;
  host_region : Memory.region option;
      (** mapped when [map_host_region] was requested: stands in for the
          host application's own memory in SFI demonstrations *)
}

val load :
  ?allow:Hostcall.t list ->
  ?map_host_region:bool ->
  ?stack_size:int ->
  Exe.t ->
  image
(** Map code/data segments with the initialized data image above the
    reserved runtime area, and reserve heap and stack. [allow] is the host
    grant (default: every service). *)

type blueprint
(** A validated loading plan for one executable: segment geometry, the
    host grant and the initial data pages, computed (and size-checked)
    once. A serving host keeps a
    blueprint per cached module and stamps out fresh isolated images with
    {!instantiate}. *)

val blueprint :
  ?allow:Hostcall.t list ->
  ?map_host_region:bool ->
  ?stack_size:int ->
  Exe.t ->
  blueprint
(** @raise Invalid_argument if the module's data does not fit. *)

val instantiate : blueprint -> image
(** A fresh, fully isolated image: new memory, new host environment.
    The memory's page tables point at the blueprint's shared pages, which
    the image copies on first write, so instantiation copies no bytes.
    [load exe] is [instantiate (blueprint exe)]. *)

val load_wire : string -> image
(** The real mobile-code path: decode wire bytes, then {!load} with
    every default.
    @raise Omnivm.Wire.Bad_module on malformed bytes. *)

val run_interp :
  ?fuel:int -> ?watchdog:Omnivm.Watchdog.t -> image -> Interp.outcome * Interp.t
(** Execute the image under the OmniVM reference interpreter with this
    host's services. [fuel] goes to the interpreter as given (omitted,
    the run is unbounded); [watchdog] bounds wall-clock time
    cooperatively (see {!Omnivm.Watchdog}). *)

val host_iface : image -> Interp.host_iface
(** The host-call interface {!run_interp} and {!run_fast} execute
    under. *)

val run_fast :
  ?fuel:int ->
  ?watchdog:Omnivm.Watchdog.t ->
  ?program:Interp.code ->
  image ->
  Interp.outcome * Interp.t
(** {!run_interp} over [program], a decode of this image's text
    ({!Omnivm.Interp.decode}) made before the run; omitted, the run
    decodes the text itself, exactly as {!run_interp} does. *)

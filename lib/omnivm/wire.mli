(** Binary wire format for mobile OmniVM modules — the portable artifact of
    the system. The compiler/linker emits these bytes; they are shipped
    unchanged to any host, whose loader decodes and translates them.

    Layout (little-endian):
    ["OMNI"] magic, u16 version, u16 flags, u32 entry, u32 instruction
    count, u32 data length, u32 bss size, u32 symbol count, the
    variable-length instruction stream, the data image, and the symbol
    table. *)

exception Bad_module of string
(** Raised by {!decode} on malformed input (bad magic, unknown opcode,
    out-of-range register, truncation, unreasonable sizes, an entry that
    is no instruction of the text). *)

val version : int

val encode : Exe.t -> string
val decode : string -> Exe.t

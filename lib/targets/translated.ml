(* A module translated for one of the targets. *)

type t = T_risc of Risc.program | T_x86 of X86.program

let translate (arch : Arch.t) ~mode ~opts (exe : Omnivm.Exe.t) =
  Omni_obs.Trace.phase "translate" ~attrs:[ ("arch", Arch.name arch) ]
  @@ fun () ->
  Omni_obs.Trace.count ~by:(Array.length exe.Omnivm.Exe.text)
    "translate.omni_instrs";
  let risc cfg = T_risc (Risc_translate.translate cfg ~mode ~opts exe) in
  match arch with
  | Arch.Mips -> risc Risc.mips_cfg
  | Arch.Sparc -> risc Risc.sparc_cfg
  | Arch.Ppc -> risc Risc.ppc_cfg
  | Arch.X86 -> T_x86 (X86_translate.translate ~mode ~opts exe)

let arch = function
  | T_risc p -> (
      match p.Risc.cfg.Risc.arch with
      | Risc.Mips -> Arch.Mips
      | Risc.Sparc -> Arch.Sparc
      | Risc.Ppc -> Arch.Ppc)
  | T_x86 _ -> Arch.X86

(* The tag keeps a RISC and an x86 program apart even if their bodies
   hashed alike. *)
let fingerprint = function
  | T_risc p -> Omni_util.Fnv64.mix_int (Risc.fingerprint_program p) 1
  | T_x86 p -> Omni_util.Fnv64.mix_int (X86.fingerprint_program p) 2

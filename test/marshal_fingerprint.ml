(* The code fingerprint as it was computed before the structural fold:
   FNV-1a over [Marshal.to_string] of the fingerprinted fields, tagged
   per target exactly as [Translated.fingerprint] tags it. Kept here so
   that the golden translation digest, recorded under this definition,
   still pins the translated code and every certificate's obligations,
   and so that a store journaled under it can be built for the upgrade
   test. *)

module R = Omni_targets.Risc
module X = Omni_targets.X86
module Fnv64 = Omni_util.Fnv64

let of_translated = function
  | Omni_targets.Translated.T_risc p ->
      Fnv64.mix_int
        (Fnv64.digest_string
           (Marshal.to_string
              (p.R.cfg, p.R.code, p.R.entry, p.R.addr_map, p.R.pool, p.R.n_omni)
              []))
        1
  | Omni_targets.Translated.T_x86 p ->
      Fnv64.mix_int
        (Fnv64.digest_string
           (Marshal.to_string
              (p.X.code, p.X.entry, p.X.addr_map, p.X.pool, p.X.n_omni)
              []))
        2

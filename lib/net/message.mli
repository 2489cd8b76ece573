(** Protocol messages: what travels inside a {!Frame}.

    Four requests and five responses. One request frame yields exactly
    one response frame; {!Error} is the only response a well-behaved
    server sends for input it cannot serve — carrying a machine-readable
    {!err_class} so clients can react without parsing prose.

    The codec is total in both directions: [decode_* (encode_* m) = Ok m]
    for every message, and any byte string — truncated, corrupted,
    trailing garbage — decodes to [Error _], never an exception
    ([test/test_net.ml] checks both properties with qcheck). *)

module Exec = Omni_service.Exec
module Machine = Omni_targets.Machine

(** Why a request was refused. *)
type err_class =
  | E_decode  (** malformed message or module bytes — resending the same
                  bytes cannot help (terminal for clients) *)
  | E_verifier_rejected
      (** the static SFI verifier refused the (fresh or cached)
          translation *)
  | E_unknown_handle  (** a handle this server never issued *)
  | E_limit_exceeded  (** frame-size / segment-fit / admission cap *)
  | E_internal  (** anything else; the daemon survives it *)
  | E_bad_frame
      (** the frame itself was damaged in transit (bad magic/version,
          truncation, checksum mismatch) — the request may never have
          been seen intact, so resending it is safe and useful
          (retryable for clients; see {!Omni_net.Retry}) *)
  | E_module_fault
      (** the module itself crashed ([Vm_fault]) — deterministic for the
          same request, so terminal for clients: retrying re-crashes it.
          The message leads with the fault code (see {!fault_message}) *)
  | E_quarantined
      (** the server's circuit breaker is refusing this module after
          repeated deterministic faults; terminal until the TTL expires
          or an operator clears it *)
  | E_certificate_invalid
      (** the run demanded a safety certificate ([rs_want_cert] against a
          server in require-cert mode, or [omnid --require-cert]) and the
          translation has none, or its witness failed the check —
          deterministic, so terminal for clients *)
  | E_overloaded
      (** the server's work queue is full — transient by definition, so
          retryable-with-backoff for clients ({!Omni_net.Retry} absorbs
          it); the request was refused before any work was done, so
          resending it is safe *)

val err_class_name : err_class -> string
val err_class_code : err_class -> int

val fault_message : Omnivm.Fault.t -> string
(** The structured message of an {!E_module_fault} error:
    ["fault-code=<code> <prose>"]. *)

val fault_code_of_message : string -> int option
(** Extract the machine-readable fault code from an {!E_module_fault}
    message; [None] if the message does not carry one. *)

(** Translation mode requested over the wire. [M_default] leaves the
    mode to {!Omni_service.Exec.resolve}, which derives it from the
    [rs_sfi] flag on the server as it does on a local run — the common
    case, and the one that guarantees remote runs are bit-identical to
    local ones. [M_policy] selects an explicit SFI policy mode for the
    standard module layout; [M_native] requests a native compiler
    baseline (no sandboxing). *)
type mode_spec =
  | M_default
  | M_policy of {
      pmode : Omni_sfi.Policy.mode;
      protect_reads : bool;
      pad : Omni_sfi.Policy.pad;
    }
  | M_native of Machine.tier

val mode_spec_of_mode : Machine.mode option -> mode_spec
(** The wire form of a request's explicit mode: [None] is [M_default].
    A policy travels as its mode, [protect_reads] and pad; a custom
    segment layout does not survive the wire. *)

val mode_of_spec : mode_spec -> Machine.mode option
(** Inverse of {!mode_spec_of_mode}: [mode_spec_of_mode (mode_of_spec s)
    = s] for every [s]. A policy is rebuilt over the standard layout. *)

(** A [Run] request: which stored module, on which engine, under which
    sandboxing configuration, with how much fuel ([None] = the server's
    generous default, same as [Api.run]). *)
type run_spec = {
  rs_handle : int64;  (** content digest returned by [Submitted] *)
  rs_engine : Exec.engine;
  rs_sfi : bool;
  rs_mode : mode_spec;
  rs_fuel : int option;
  rs_deadline_s : float option;
      (** wall-clock budget for the run, enforced by the server's
          cooperative watchdog ([None] = the server's default, possibly
          none); expiry is a [Deadline_exceeded] module fault *)
  rs_want_cert : bool;
      (** ship the translation's safety certificate (encoded omni-cert/1
          bytes) back with the result, when one exists *)
}

type req =
  | Ping
  | Submit of string  (** wire-format module bytes *)
  | Run of run_spec
  | Stats  (** the server's metrics registry snapshot *)

type resp =
  | Pong
  | Submitted of int64  (** content handle (FNV-1a/64 digest) *)
  | Ran of Exec.run_result * string option
      (** the full result, faults and detailed statistics included — a
          remote run reports exactly what a local one does — plus the
          encoded safety certificate when the request set [rs_want_cert]
          and the run went through a certified translation *)
  | Stats_json of string
  | Error of err_class * string

(** {1 Frame tags} (the [tag] byte of {!Frame.t}) *)

val tag_ping : int
val tag_submit : int
val tag_run : int
val tag_stats : int
val tag_pong : int
val tag_submitted : int
val tag_ran : int
val tag_stats_json : int
val tag_error : int

(** {1 Codec} *)

val encode_req : req -> Frame.t
val decode_req : Frame.t -> (req, string) result
val encode_resp : resp -> Frame.t
val decode_resp : Frame.t -> (resp, string) result

(** Typed diagnostics for static analysis of elastic netlists.

    Every finding of the lint engine ({!module:Elastic_lint}) and of the
    structural checks in {!Netlist.diagnostics} is one of these records: a
    stable rule code ([E102], [W104], ...), a severity, provenance (the
    node and/or channel the finding is about, by id and name) and a human
    message, optionally with a machine-applicable fix-it.

    The module lives in [elastic_netlist] (below the lint library) so
    that the netlist's own structural validation, the simulator's error
    records and the transformation prechecks can all share the type
    without a dependency cycle.  Node and channel ids are plain [int]s
    for the same reason — they are {!Netlist.node_id} /
    {!Netlist.channel_id} values. *)

type severity = Error | Warning | Info

(** Machine-applicable repairs, interpreted by [Lint.apply_fixes]. *)
type fixit =
  | Insert_bubble of { channel : int }
      (** Insert an empty EB on the channel (breaks a combinational
          cycle; always transfer-preserving, §2). *)
  | Convert_buffer of { node : int; buffer : string }
      (** Swap the buffer implementation (["eb"] or ["eb0"], Fig. 5). *)
  | Set_init of { node : int; tokens : int }
      (** Give the buffer [tokens] initial tokens (value [Int 0]) —
          changes the computation; offered only where the alternative is
          a statically dead design. *)
  | Note of string  (** Human advice; not machine-applicable. *)

type t = {
  code : string;  (** Stable rule code, e.g. ["E102"]. *)
  rule : string;  (** Rule slug, e.g. ["comb-cycle"]. *)
  severity : severity;
  node : int option;
  node_name : string option;
  channel : int option;
  channel_name : string option;
  message : string;
  fixit : fixit option;
}

(** Raised by transformation prechecks ([Lint.Precheck]) when an illegal
    application is rejected: the typed alternative to the bare
    [Invalid_argument] the transformations used to raise. *)
exception Reject of t

val make :
  code:string -> rule:string -> severity:severity -> ?node:int ->
  ?node_name:string -> ?channel:int -> ?channel_name:string ->
  ?fixit:fixit -> string -> t

(** [reject d] raises {!Reject}. *)
val reject : t -> 'a

val severity_name : severity -> string

(** ["E102 error [node 3 mux_3]: message (fix: ...)"] *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

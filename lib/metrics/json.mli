(** Minimal JSON tree, emitter and recursive-descent parser.

    The container image has no JSON library; the bench harness has
    hand-rolled an {e emitter} since PR 2, but the regression gate
    ([bench --check]) and the metrics JSONL tests also need to {e read}
    records back.  This module is the shared round-trip: the emitted
    grammar (and the subset parsed) is exactly RFC 8259 minus exotic
    number forms — ints, floats, strings with the usual escapes, bools,
    null, arrays, objects. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string

(** The body of a JSON string literal holding [s], without the quotes. *)
val escape : string -> string

(** Parse a complete JSON document (trailing whitespace allowed).
    Numbers without [.], [e] or [E] parse as [Int].  Never raises:
    truncated or corrupt input — including pathological nesting —
    returns [Error] naming the byte offset of the failure, so consumers
    (the bench gate, the runner's checkpoint loader) can render a clear
    message instead of dying on an exception. *)
val parse : string -> (t, string) result

(** [member key j] — field of an object, [None] otherwise. *)
val member : string -> t -> t option

(** Numeric coercion: [Int] or [Float] as float. *)
val to_float : t -> float option

(** Minimal HTTP/1.1 request parsing and response rendering.

    Dependency-free (no cohttp in the container) and deliberately tiny:
    the telemetry server only ever answers [GET] with
    [Connection: close], so all it needs from HTTP is a total,
    crash-free parse of an accumulating receive buffer — torn reads
    come back {!Incomplete}, junk comes back {!Malformed} the moment
    the request line is in hand (no need to wait for the rest), and a
    header block that never ends hits {!Too_long} at
    {!max_head_bytes}.  The parser is pure and fuzzed (qcheck): no
    input raises. *)

type request = {
  meth : string;  (** e.g. ["GET"] — token-validated, case preserved *)
  target : string;  (** e.g. ["/metrics"] — always starts with ['/'] *)
}

type error =
  | Incomplete  (** keep reading: no terminator yet *)
  | Too_long  (** header block exceeds {!max_head_bytes}: answer 413 *)
  | Malformed of string  (** protocol garbage: answer 400 *)

(** Cap on the request head (request line + headers): 8192 bytes. *)
val max_head_bytes : int

(** [parse buf] over the bytes received so far.  [Ok] only once the
    blank line ending the header block has arrived (headers themselves
    are ignored); bare-LF line endings are tolerated. *)
val parse : string -> (request, error) result

(** [response ~status ~content_type body] renders a complete
    [Connection: close] response with [Content-Length]. *)
val response : ?status:int -> ?content_type:string -> string -> string

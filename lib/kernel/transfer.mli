(** Transfer streams and transfer equivalence (§3.1).

    In an elastic design, data-transfer count is decoupled from cycle
    count.  Two elastic systems are {e transfer equivalent} if, fed with
    identical input streams, their output streams restricted to transfer
    cycles match.  This module records transfer streams and implements
    that comparison. *)

type entry = { cycle : int; value : Value.t }

type t

val empty : t

(** [record t ~cycle value] appends a transfer observed at [cycle]. *)
val record : t -> cycle:int -> Value.t -> t

(** Transferred values in order, without cycle stamps. *)
val values : t -> Value.t list

(** Transfers in order, with cycle stamps. *)
val entries : t -> entry list

val length : t -> int

(** [suffix t n]: the transfers after the first [n], in order (all of
    them when [n <= 0]).  Costs the length of the suffix, not of [t]. *)
val suffix : t -> int -> entry array

(** Transfer equivalence: same values in the same order, cycle stamps
    ignored. *)
val equivalent : t -> t -> bool

(** [prefix_equivalent a b] holds when the shorter stream is a prefix of
    the longer one — useful when comparing runs of different lengths. *)
val prefix_equivalent : t -> t -> bool

val pp : Format.formatter -> t -> unit

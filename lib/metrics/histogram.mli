(** Log-bucketed histogram over non-negative integers.

    Built for hot-path instrumentation of cycle counts, penalties and
    latencies: {!observe} touches one array cell and four scalar fields
    and allocates nothing.  The bucket layout is fixed for every
    histogram — values 0..15 get exact unit buckets, larger values fall
    into octaves of 8 geometric sub-buckets (relative error <= 12.5%) —
    so any two snapshots merge exactly and merging is associative and
    commutative (plain element-wise sums).

    Quantiles are estimated from the bucket counts: the reported value
    is the upper bound of the bucket containing the requested rank,
    which makes [quantile] exact for values below 16 (the interesting
    range for replay penalties and settle passes) and monotone in the
    requested rank always. *)

type t

val create : unit -> t

(** Record one observation.  Negative values clamp to 0; values beyond
    the last bucket bound saturate into it. *)
val observe : t -> int -> unit

val count : t -> int

val sum : t -> int

(** Smallest / largest observation so far; 0 when empty. *)
val min_value : t -> int

val max_value : t -> int

val mean : t -> float

(** [quantile t q] for [q] in [0, 1]; 0 when empty.
    @raise Invalid_argument outside [0, 1]. *)
val quantile : t -> float -> int

(** Forget all observations. *)
val reset : t -> unit

(** {1 Mergeable snapshots} *)

(** An immutable copy of the histogram state — unaffected by later
    {!observe} or {!reset} on the source. *)
type snapshot

val snapshot : t -> snapshot

val empty : snapshot

(** Element-wise sum; associative and commutative, [empty] is the
    identity.  Structural equality ([=]) on snapshots is semantic
    equality. *)
val merge : snapshot -> snapshot -> snapshot

val s_count : snapshot -> int

val s_sum : snapshot -> int

val s_min : snapshot -> int

val s_max : snapshot -> int

val s_quantile : snapshot -> float -> int

(** Cumulative buckets for exporters: [(upper_bound, cumulative_count)]
    pairs, ascending, restricted to buckets whose cumulative count
    increased (plus the final bucket when non-empty); Prometheus adds
    the implicit [+Inf] bucket from {!s_count}. *)
val s_buckets : snapshot -> (int * int) list

(** Exact JSON image of a snapshot (sparse bucket list), used by the
    runner's checkpoint files; {!s_of_json} inverts it bit-for-bit, so
    snapshots survive a checkpoint/resume round trip with semantic
    equality ([=]) intact. *)
val s_to_json : snapshot -> Json.t

(** Rejects malformed input (bad bucket indices, counts that do not sum
    to [count]) with a message instead of producing a corrupt state. *)
val s_of_json : Json.t -> (snapshot, string) result

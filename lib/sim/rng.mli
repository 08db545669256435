(** Small deterministic linear-congruential generator.

    Simulation runs must be reproducible across machines and runs, so
    random sources, sinks and schedulers use this generator rather than
    the global [Random] state. *)

type t

val create : seed:int -> t

(** Uniform integer in [0, bound). *)
val int : t -> int -> int

(** [percent t pct] is true with probability [pct]/100. *)
val percent : t -> int -> bool

(** A generator kept as a plain int (an engine register slot):
    [start ~seed] is the state {!create} starts from, and a draw moves
    state [s] to [advance s], the draw's result. *)
val start : seed:int -> int

val advance : int -> int

(** Baseline comparison for the bench regression gate.

    [bench --check] regenerates the trajectory records and diffs them
    against the committed copies under [bench/baselines/].  The
    simulation is deterministic, so the rules are strict: integers,
    booleans and strings must match exactly, floats within a relative
    tolerance (they round-trip through the 6-significant-digit JSON
    emitter), and a path present on one side only is a failure in
    either direction.  Wall-clock-dependent keys
    ([settle_us_per_cycle], [*_seconds], [*_per_second], [*_speedup],
    [*_utilization], [*_overhead])
    are skipped by default — they measure the machine, not the
    design — and so are the compile-scaling allocation keys
    ([*_words_per_channel], [words_per_channel_ratio]), which vary with
    the OCaml version. *)

type diff = {
  d_path : string;  (** e.g. [points[2].spec_throughput] *)
  d_reason : string;  (** baseline/current values and the delta *)
}

(** True on the wall-clock-dependent leaf keys {!compare} skips. *)
val wall_clock_key : string -> bool

(** [compare ~baseline ~current ()] — [[]] means the gate passes.
    Floats agree within [1e-4] relative to the larger magnitude
    (absolute below 1.0); paths where {!wall_clock_key} holds are
    skipped. *)
val compare :
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  diff list

(** Monotonic, injectable time source for wall-clock profiling.

    The engine's settle-phase timing used to read [Unix.gettimeofday],
    which jumps under NTP steps and cannot be mocked.  A {!t} is any
    nanosecond counter that never decreases; {!monotonic} is the
    system's monotonic clock (CLOCK_MONOTONIC via the bechamel stubs),
    and {!ticker} builds a deterministic mock for tests. *)

(** A clock: returns a monotonically non-decreasing timestamp in
    nanoseconds.  Only differences of readings are meaningful. *)
type t = unit -> int64

(** The system monotonic clock — immune to wall-time steps. *)
val monotonic : t

(** [read_ns t] is one reading of [t] as an [int] count of nanoseconds.
    A reading of {!monotonic} allocates nothing (the engine's settle
    timer takes two per cycle); any other clock is called once, as
    [Int64.to_int (t ())]. *)
val read_ns : t -> int

(** [ticker ~step_ns] returns a deterministic clock advancing by
    [step_ns] nanoseconds per reading, starting at 0 (the first reading
    returns [step_ns]). *)
val ticker : step_ns:int64 -> t

(** Seconds between two readings ([Int64] nanosecond stamps). *)
val seconds_between : int64 -> int64 -> float

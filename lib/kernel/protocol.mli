(** Runtime monitors for the SELF protocol properties of §3.1.

    One {!monitor} instance watches one channel, cycle by cycle, and
    accumulates violations of:

    - {b Retry+}: [G ((V+ /\ S+) => X V+)] — a stalled token is held
      (persistently, with the same data) until it transfers.
    - {b Retry-}: [G ((V- /\ S-) => X V-)] — a stalled anti-token is held
      until it transfers.
    - {b Invariant}: a token (anti-token) cannot be killed and stopped at
      the same time — on a cancelling channel both stop bits must be low.
    - {b Liveness} (watchdog approximation of [G F (T+ \/ T-)]): a channel
      persistently offering a token or anti-token must transfer within a
      configurable bound.

    §4.2 notes that the output channels of shared modules are {e not}
    required to be persistent (the scheduler may change its prediction
    after a retry), so Retry+ checking is switchable per channel. *)

type violation = {
  cycle : int;
  property : string;  (** "retry+", "retry-", "invariant" or "liveness". *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

type monitor

(** [create ~name ()] makes a monitor for the channel called [name].

    @param check_forward_persistence disable for shared-module outputs
      (default [true]).
    @param liveness_bound cycles a pending token/anti-token may stall
      before the watchdog fires (default [64]). *)
val create :
  ?check_forward_persistence:bool ->
  ?liveness_bound:int ->
  name:string ->
  unit ->
  monitor

(** {1 The per-cycle rule}

    What {!step} checks, on {!Signal.code}s; the model checker
    ([Elastic_check.Explore]) applies it to its transitions too. *)

(** The kill/stop invariant on a raw code: the message of its breach
    (property ["invariant"]), if any. *)
val invariant : int -> string option

type retry =
  | Free
  | Held  (** A stalled token offered again: its payload must not change. *)
  | Broken of string * string  (** Property and message of a withdrawal. *)

(** [retry ~persistent ~prev cur]: Retry+ (on a [persistent] channel,
    see [Netlist.persistent]) and Retry- across two consecutive
    cycles' resolved codes. *)
val retry : persistent:bool -> prev:int -> int -> retry

(** Message of a [Held] token's payload change (property ["retry+"]). *)
val data_changed : Value.t option -> Value.t option -> string

(** [step m ~cycle ~data ~chan code] feeds one cycle of a channel's raw
    (pre-resolution) control code ({!Signal.code}).  [data chan] is the
    channel's payload this cycle; the monitor calls it only while a
    token retry is pending (V+ asserted and this cycle or a checked
    previous one in retry), so a cycle without one reads no payload
    and allocates nothing. *)
val step :
  monitor ->
  cycle:int ->
  data:(int -> Value.t option) ->
  chan:int ->
  int ->
  unit

(** Violations recorded so far, oldest first. *)
val violations : monitor -> violation list

(** [List.length (violations m)], without building the list. *)
val violation_count : monitor -> int

val name : monitor -> string

(** {1 Snapshots} *)

(** Immutable copy of the state of an array of monitors: each one's
    previous resolved control code, stall count, payload while in retry
    (the only case a later cycle reads it) and violations so far.
    Restoring it gives monitors that judge every later cycle as the
    originals do. *)
type snap

val snapshot : monitor array -> snap

(** [restore ms s] puts [ms] back in the state [s] was taken from,
    without allocating.
    @raise Invalid_argument when [s] holds another number of monitors. *)
val restore : monitor array -> snap -> unit

(** Will [ms] and monitors restored from the snapshot judge every later
    cycle alike?  Compares the previous codes, stall counts and retry
    payloads, without allocating; the violations already recorded decide
    no later verdict. *)
val same_future : monitor array -> snap -> bool

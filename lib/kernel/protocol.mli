(** Runtime monitors for the SELF protocol properties of §3.1.

    A monitor watches one channel, cycle by cycle, and reports violations
    of:

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
    after a retry), so Retry+ is checked only on a channel that has a
    payload slot.

    This module holds only the rules.  A monitor's state is two slots of
    the engine's state arrays: one int (the previous code, the stall
    count and whether a payload is held) and, on a channel Retry+ covers,
    one payload slot for the retried token's data.  The engine lays them
    out, snapshots, restores and compares them with the rest of its
    state, and keeps the violations {!step} returns. *)

type violation = {
  cycle : int;
  property : string;  (** "retry+", "retry-", "invariant" or "liveness". *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

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

(** {1 The monitor step} *)

(** The word a monitor's int slot starts from: no previous cycle, no
    stall, no payload held. *)
val fresh : int

(** [step ~regs ~slot ~vals ~vslot ~liveness_bound ~cycle ~has_data
    ~payload ~chan code] feeds one cycle of a channel's raw
    (pre-resolution) control code ({!Signal.code}) to the monitor whose
    int slot is [regs.(slot)] and whose payload slot is [vals.(vslot)];
    [vslot < 0] means the channel has none and Retry+ is not checked on
    it.  It updates both slots and returns the cycle's violations in the
    order invariant, retry, liveness ([[]] on a clean cycle, allocating
    nothing).  [has_data chan] says whether the channel carries a
    payload this cycle and [payload chan] reads it; they are called only
    while a Retry+ retry is pending (V+ asserted and this cycle or the
    previous one in retry).  The payload slot keeps a missing payload (a
    forged V+) apart from [Value.Unit]. *)
val step :
  regs:int array ->
  slot:int ->
  vals:Value.t array ->
  vslot:int ->
  liveness_bound:int ->
  cycle:int ->
  has_data:(int -> bool) ->
  payload:(int -> Value.t) ->
  chan:int ->
  int ->
  violation list

(** [fast_step ~persistent ~liveness_bound ~word raw] is the monitor
    step of a quiet cycle: the next int-slot word that {!step} would
    leave for the slot word [word] and the raw code [raw], where
    [persistent] says whether Retry+ covers the channel ([vslot >= 0]
    in {!step}).  It is {!needs_step} unless no payload is held, no
    Retry+ retry needs this cycle's payload kept, the {!retry} verdict
    is [Free], {!invariant} is [None] on [raw] and the stall count does
    not reach [liveness_bound] this cycle: on exactly those cycles
    {!step} reports nothing and leaves the payload slot as it is.  It
    tests the same predicates as {!step} and allocates nothing.  On
    {!needs_step}, run {!step} itself. *)
val fast_step :
  persistent:bool -> liveness_bound:int -> word:int -> int -> int

(** The sentinel of {!fast_step}, never a slot word. *)
val needs_step : int

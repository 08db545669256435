(** Per-cycle control state of a SELF channel with token counterflow.

    Following the paper (§3), every elastic channel carries a tuple of
    control bits [(V+, S+, V-, S-)] plus the data wires:

    - [v_plus] / [s_plus]: the forward handshake (tokens).  [v_plus] is
      driven by the sender, [s_plus] by the receiver.
    - [v_minus] / [s_minus]: the backward handshake (anti-tokens).
      [v_minus] is driven by the receiver, [s_minus] by the sender.
    - [data]: valid whenever [v_plus] holds.

    {2 Cancellation}

    When a token and an anti-token meet on a channel ([v_plus] and
    [v_minus] both asserted in the same cycle) they cancel: the sender's
    token and the receiver's anti-token are both consumed, no data is
    delivered forward and no kill is delivered backward.  The paper's
    channel invariant [G not (V- /\ S+) /\ G not (V+ /\ S-)] — a token
    (anti-token) cannot be killed and stopped at the same time — is
    realised here by forcing both stop bits low on a cancelling channel.
    The {!events} function computes the four resulting boundary events. *)

type t = {
  v_plus : bool;
  s_plus : bool;
  v_minus : bool;
  s_minus : bool;
  data : Value.t option;  (** [Some _] exactly when [v_plus]. *)
}

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Protocol state of one (V, S) handshake pair: Transfer, Idle or Retry
    (§3.1). *)
type handshake_state =
  | Transfer  (** [V /\ not S]: valid data accepted. *)
  | Idle  (** [not V]: no valid data offered. *)
  | Retry  (** [V /\ S]: valid data offered but not accepted. *)

val handshake_state : valid:bool -> stop:bool -> handshake_state

val pp_handshake_state : Format.formatter -> handshake_state -> unit

(** Boundary events resulting from one cycle of channel activity, after
    applying the cancellation rule. *)
type events = {
  token_out : bool;
      (** The sender's token left (delivered downstream or annihilated). *)
  token_in : bool;  (** The receiver actually received a token. *)
  anti_out : bool;
      (** The receiver's anti-token left (delivered upstream or
          annihilated). *)
  anti_in : bool;  (** The sender actually received an anti-token. *)
  cancelled : bool;  (** A token/anti-token pair annihilated this cycle. *)
  retry : bool;  (** A token was offered and stopped (a stall). *)
  anti : bool;  (** An anti-token was present. *)
}

(** [resolve s] forces the stop bits low on a cancelling channel (the
    invariant above) and returns the adjusted signals. *)
val resolve : t -> t

(** [events s] computes the boundary events of a resolved channel state.
    [token_in] implies [token_out]; [anti_in] implies [anti_out];
    [cancelled] implies both [token_out] and [anti_out] but neither
    [token_in] nor [anti_in]; [retry] excludes [token_out].  The four
    per-cycle channel counts of the paper — transfers, stalls,
    anti-tokens and kills — are [token_in], [retry], [anti] and
    [cancelled]: the engine's counters and the tracer's events both
    read them here. *)
val events : t -> events

(** {1 Packed control codes}

    The four control bits of a channel packed into an int in [0, 15]:
    V+ is bit 0, S+ bit 1, V- bit 2 and S- bit 3 (the masks below).
    The engine keeps one such code per channel per cycle and derives
    events, counters and monitor verdicts from it without allocating;
    the payload travels separately. *)

val v_plus_bit : int

val s_plus_bit : int

val v_minus_bit : int

val s_minus_bit : int

(** The packed control bits of a signal (its payload is dropped). *)
val code : t -> int

(** [of_code c ~data] unpacks a code; [data] becomes the payload as
    given, so pass [Some _] exactly when [c] has V+. *)
val of_code : int -> data:Value.t option -> t

(** {!resolve} on codes: clears both stop bits of a cancelling code. *)
val resolve_code : int -> int

(** Are V+ and S+ both set (a token offered and stopped)?  On a
    resolved code this is the handshake's Retry state. *)
val in_retry : int -> bool

(** [events_of_code (code s) = events s].  The 16 results are built
    once, so this allocates nothing. *)
val events_of_code : int -> events

(** {2 Events as one int}

    The {!events} of a code packed one bit per field ([anti_in] left
    out), for loops that test a few of them on every channel of every
    cycle. *)

val ev_token_out : int

val ev_token_in : int

val ev_anti_out : int

val ev_cancelled : int

val ev_retry : int

val ev_anti : int

(** [event_mask (code s)] has the [ev_*] bit of each field of [events s]
    that holds.  Read from a 16-entry table built once. *)
val event_mask : int -> int

(** Schedulers for shared elastic modules (§4.1.1).

    A scheduler predicts, at each clock cycle, which input channel of a
    shared module may use the shared resource — implicitly predicting the
    select signal of the downstream early-evaluation multiplexor.  The
    prediction read by {!predict} must depend only on registered state;
    the cycle's outcome is recorded at the clock edge by {!observe}.

    For liveness, a scheduler must satisfy the leads-to constraint (1) of
    the paper: every token arriving at the shared module is eventually
    served or killed.  All schedulers here guarantee it by eventually
    switching to any persistently-stalled valid channel. *)

(** Prediction strategy specification — a declarative description so that
    netlists stay comparable and printable. *)
type spec =
  | Static of int  (** Always predict the same channel. *)
  | Toggle  (** Alternate channels every cycle (Table 1's scheduler). *)
  | Sticky
      (** Keep the current prediction until a retry on the predicted
          output reveals a misprediction, then move to the next channel. *)
  | Two_bit
      (** Two-bit saturating counter between two channels, trained by
          serve/retry outcomes (2-way only). *)
  | Round_robin  (** Advance to the next channel after every serve. *)
  | Scripted of int array
      (** Fixed prediction per cycle (wraps around); used to reproduce
          Table 1 exactly. *)
  | Noisy_oracle of { sel : int array; accuracy_pct : int; seed : int }
      (** Knows the true select stream for each successive transfer and
          predicts it correctly with probability [accuracy_pct]/100; after
          a detected misprediction it corrects itself.  Models an
          arbitrary predictor of a given accuracy. *)
  | External
      (** Prediction is forced from outside with {!force}; used by the
          model checker to quantify over all schedulers. *)
  | Prefer of int
      (** Speculate on a home channel (e.g. "no error will be found",
          §5.1/§5.2): predict the home channel until a retry reveals a
          misprediction, deviate to the next channel for a single serve
          (the replay), then return home. *)
  | Hinted_replay
      (** Always speculate on channel 0; a non-zero hint token (the error
          detector's verdict on the operation just served) switches to
          channel 1 for exactly one replay serve, then returns home.  This
          is the scheduler of the paper's variable-latency and resilient
          designs, which "must only listen to the outcome" of the
          detector. *)
  | Gshare of { history_bits : int }
      (** Branch-predictor-style two-level scheduler (2-way only): a
          global history register XOR-indexes a table of two-bit
          counters, trained by serves and detected mispredictions — the
          "state-of-the-art branch prediction" end of the spectrum
          §4.1.1 mentions.  [history_bits] in [1, 10]. *)

val spec_name : spec -> string

(** A running scheduler: a view of {!width} int slots of an array,
    which hold its registers (prediction, position, counters, random
    state, gshare history and table) and its statistics.  An engine
    places every shared module's scheduler in its one register array
    ({!place}); {!make} gives a standalone scheduler an array of its
    own.  Restoring the slots restores the scheduler. *)
type t

(** Int slots a scheduler of this spec occupies. *)
val width : spec -> int

(** [place a o ~ways spec] instantiates a scheduler for a [ways]-input
    shared module in the slots of [a] from [o], which it initializes.
    The first of them holds the prediction: {!predict} reads [a.(o)].
    @raise Invalid_argument if the spec cannot serve [ways] channels
    (e.g. [Static i] with [i >= ways]). *)
val place : int array -> int -> ways:int -> spec -> t

(** [make ~ways spec] places a scheduler in an array of its own. *)
val make : ways:int -> spec -> t

(** Current prediction, a channel index in [0, ways). *)
val predict : t -> int

(** [observe t ~valid ~stop ~served ~hint] records the elapsed cycle's
    outcome at the clock edge.  [valid] and [stop] are V+ and S+ as
    driven on the predicted output ({!predict}): valid and stopped with
    nothing served is the misprediction signal described in §2.
    [served] is the way whose token traversed the shared module and was
    accepted downstream, -1 when none.  [hint] is the value of the hint
    token consumed this cycle (the error detector's outcome wired
    straight into the scheduler, as §5.1/§5.2 prescribe), 0 when none
    left. *)
val observe : t -> valid:bool -> stop:bool -> served:int -> hint:int -> unit

(** [force t c] overrides the prediction (meaningful for [External]
    schedulers; allowed on any). *)
val force : t -> int -> unit

(** Mispredictions detected so far (retries seen on the predicted
    output). *)
val mispredictions : t -> int

(** Tokens served so far. *)
val serves : t -> int

(** The slots, as indices into the array the scheduler was placed in,
    that decide its future: the prediction and the registers its spec
    reads.  The statistics ({!mispredictions}, {!serves}) and the
    registers the spec never reads are left out, so two schedulers
    whose future slots agree predict alike now and react alike to every
    later observation.  The prediction counts on its own because an
    [External] scheduler keeps its last forced channel until it is
    forced again. *)
val future : t -> int list

val spec : t -> spec

(** {1 Activity from counter deltas}

    An end-of-cycle observer polls a {!type-watch} once per cycle and hears
    what the scheduler did during the elapsed cycle, reconstructed from
    its counters.  A serve or squash is attributed to the prediction in
    effect during the elapsed cycle: the one seen at the previous poll,
    since the clock edge may already have moved {!predict}.  Serves are
    reported before a squash, so a replay completes only on a later
    cycle's serve. *)

(** Callbacks of {!poll}, each given the watch's payload. *)
type 'a on_activity = {
  serve : 'a -> int -> unit;  (** One token served on this way. *)
  replay : 'a -> int -> unit;
      (** The first serve after a squash, this many cycles later — the
          replay penalty.  Follows that serve's [serve]. *)
  mispredict : 'a -> int -> unit;  (** One squash on this way. *)
  change : 'a -> int -> unit;  (** The prediction moved to this way. *)
}

(** A scheduler, its counters at the last poll, and a payload. *)
type 'a watch

(** [watch sched data] starts from [sched]'s current counters. *)
val watch : t -> 'a -> 'a watch

val payload : 'a watch -> 'a

(** [poll on w ~cycle] reports the activity since the last poll, with
    [cycle] the elapsed cycle.  Allocates nothing itself. *)
val poll : 'a on_activity -> 'a watch -> cycle:int -> unit

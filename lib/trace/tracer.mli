open Elastic_netlist
open Elastic_sim

(** Ring-buffered cycle-accurate event tracer.

    A tracer attaches to an {!Engine.t} as one of its end-of-cycle
    observers ({!Engine.add_observer}) and derives typed {!Event.t}s
    from the elapsed cycle: channel transfers / stalls / anti-tokens / cancellations,
    buffer occupancy changes, scheduler predictions / serves / squashes /
    replay completions, injected faults and protocol violations.

    Events are kept in a bounded ring so that tracing an arbitrarily long
    run costs constant memory: once [capacity] events have been recorded
    the oldest are dropped (and counted in {!dropped}).  The ring starts
    at 256 slots and doubles as it fills, up to [capacity], so a short
    run pays for what it records.  With no tracer attached the engine's
    hot path is untouched. *)

type t

(** [create ?capacity eng] snapshots the engine's current scheduler and
    occupancy state and returns a detached tracer (install it with
    {!attach}).  Default capacity: 65536 events. *)
val create : ?capacity:int -> Engine.t -> t

(** [attach ?capacity eng] creates a tracer and adds it to the engine's
    observers, beside any already there. *)
val attach : ?capacity:int -> Engine.t -> t

(** The observer body: derive and record the elapsed cycle's events. *)
val observe : t -> Engine.t -> unit

(** Recorded events, oldest first (at most [capacity] of them). *)
val events : t -> Event.t list

(** Events dropped because the ring was full. *)
val dropped : t -> int

(** Total events recorded since creation, including dropped ones. *)
val recorded : t -> int

(** [recent ?limit ?channel tr] returns the most recent events, oldest
    first; [channel] restricts to one channel's events ([Chan] subjects),
    [limit] bounds the count (default 10). *)
val recent : ?limit:int -> ?channel:Netlist.channel_id -> t -> Event.t list

open Elastic_kernel
open Elastic_netlist

(** Deterministic seeded fault campaigns.

    A campaign is a list of fault scenarios (each a list of simultaneous
    or staged faults) checked independently by {!Recovery.check} against
    one fault-free {!Recovery.golden_run} simulated once per campaign
    (and not at all for an empty one).  Every scenario reuses one
    faulted engine ({!Recovery.faulted_engine}, compiled with the golden
    run), which {!Recovery.run_faulted} restores to the golden state
    first, so each is checked as on a fresh engine.  The same seed
    always generates the same scenarios and hence the same report. *)

type outcome = { faults : Fault.t list; report : Recovery.report }

type summary = {
  total : int;
  histogram : (string * int) list;
      (** Classification label -> count, sorted by label. *)
  outcomes : outcome list;
}

(** All outcomes classified [Masked] or [Corrected] with penalty
    [<= max_penalty] (default 1)? *)
val all_benign : ?max_penalty:int -> summary -> bool

(** Count of outcomes with the given classification label. *)
val count : summary -> string -> int

val pp_summary : Format.formatter -> summary -> unit

(** The summary of outcomes checked one by one elsewhere. *)
val summarize : outcome list -> summary

(** [run net ~scenarios] checks every scenario; [cycles], [settle] and
    [alarms] go to the golden run ({!Recovery.golden_run}). *)
val run :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  Netlist.t ->
  scenarios:Fault.t list list ->
  summary

(** {1 Seeded scenario generators}

    All draw from {!Elastic_sim.Rng}; bit positions refer to the
    flattened payload image (see {!Fault}). *)

(** [count] single-bit flips on [channel], each at a random cycle in
    [\[from_cycle, to_cycle)] and a random bit in [\[bit_lo, bit_hi)]
    (default: the channel's declared width). *)
val random_bitflips :
  net:Netlist.t ->
  channel:Netlist.channel_id ->
  seed:int ->
  count:int ->
  from_cycle:int ->
  to_cycle:int ->
  ?bit_lo:int ->
  ?bit_hi:int ->
  unit ->
  Fault.t list list

(** Like {!random_bitflips} but two distinct bits per scenario, flipped
    on the same cycle — the SECDED double-error case. *)
val random_double_flips :
  net:Netlist.t ->
  channel:Netlist.channel_id ->
  seed:int ->
  count:int ->
  from_cycle:int ->
  to_cycle:int ->
  ?bit_lo:int ->
  ?bit_hi:int ->
  unit ->
  Fault.t list list

(** [count] single-bit flips spread over all channels of the netlist
    that carry data (width > 0), for whole-design storms. *)
val random_storm :
  net:Netlist.t ->
  seed:int ->
  count:int ->
  from_cycle:int ->
  to_cycle:int ->
  Fault.t list list

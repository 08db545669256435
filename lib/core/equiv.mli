open Elastic_netlist

(** Transfer-equivalence checking by co-simulation (§3.1).

    Two elastic systems are transfer equivalent when, fed identical input
    streams, their sinks observe the same value streams (cycle stamps
    ignored).  [check] simulates both netlists and compares the streams of
    sinks {e matched by node name}; because latencies may differ, the
    shorter stream must be a prefix of the longer one. *)

type report = {
  cycles : int;
  matched_sinks : string list;
  transfers : (string * int * int) list;
      (** sink name, transfers in [a], transfers in [b]. *)
}

(** [check ?cycles a b] co-simulates for [cycles] (default 300) cycles.
    Returns [Error message] when a sink pair disagrees, when sink names do
    not match up, or when either run reports protocol violations.  A
    {e vacuous} run — no sinks matched, or every matched sink observed
    zero transfers on both sides — is also an error: empty streams are
    trivially prefix-equivalent and prove nothing. *)
val check : ?cycles:int -> Netlist.t -> Netlist.t -> (report, string) result

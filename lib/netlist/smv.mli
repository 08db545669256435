(** NuSMV model export for controller verification (§4.2).

    The paper verifies all elastic controllers with NuSMV; this emitter
    produces an equivalent flat SMV model of the {e control} network —
    data is abstracted away, so the multiplexor select and the scheduler
    become nondeterministic inputs (a sound over-approximation for the
    control properties).  The model carries the four channel properties of
    §3.1 as [LTLSPEC]s per channel:

    - Retry+ : [G ((vp & sp) -> X vp)]
    - Retry- : [G ((vm & sm) -> X vm)]
    - Liveness: [G F ((vp & !sp) | (vm & !sm))]
    - Invariant: [G !(vp & sm_eff) & G !(vm & sp_eff)]

    The controllers are each node's {!Control} table (the equations the
    BLIF export prints and co-simulation checks): registers become
    boolean [VAR]s with [init]/[next], free inputs [IVAR]s and the
    equations [DEFINE]s.  Only the environment model is specific to this
    export: fairness on offers, stalls and predictions, and an early
    multiplexor's select value held across retries.

    The generated file is self-contained NuSMV input; this repository also
    checks the same properties natively with [Elastic_check.Explore]. *)

val emit : Format.formatter -> Netlist.t -> unit

val to_string : Netlist.t -> string

val save : string -> Netlist.t -> unit

open Elastic_netlist

(** Static flow-equivalence proofs (ROADMAP item 5, after "Formal
    Verification of Flow Equivalence in Desynchronized Designs").

    Two modes, neither of which runs a single engine cycle:

    {b Certificate checking} ({!verify}).  A {!Cert.t} produced by the
    transformations is an alleged derivation [source -> derived] by
    flow-preserving rewrites.  The verifier re-validates every step's
    side conditions {e purely structurally} on the channel graph
    (buffer occupancy, block arities, connectivity — the machinery of
    {!Elastic_lint.Rules} and {!Elastic_perf.Marked_graph}), replays the
    rewrite with raw netlist operations — an implementation independent
    of [Elastic_core.Transform], which cannot even be called from here —
    and checks the replay reproduces the recorded result.  After each
    step it also re-checks the structural liveness invariants (E101
    buffer capacity, E102 combinational cycles, E103 token-free cycles,
    W104 anti-token paths through full-capacity Eb buffers): a rewrite
    that introduces one of those voids its lemma.  If every
    step checks out and the final replica is structurally identical to
    [derived], the composition of the per-step lemmas proves
    [derived ≡ source] (transfer equivalence, §3.1).

    {b Direct structural comparison} ({!equiv_static}).  When no
    certificate is available, both netlists are normalized by the
    confluent empty-buffer rewriting system — splicing out every
    token-free buffer, which by the bubble lemma (read backwards)
    preserves flows — and the canonical forms are compared.  This
    decides equivalence for designs differing by buffer/FIFO insertion
    only; richer rewrites (Shannon, sharing) need a certificate.

    Rejections are typed diagnostics with dedicated E4xx codes naming
    the first failing step and node:
    - [E401] certificate-chain mismatch: the chain does not start at the
      claimed source, or a step's recorded [before] is not the previous
      step's result;
    - [E402] a step's side condition fails on the replica;
    - [E403] replaying a step does not reproduce its recorded result, or
      the final replica differs from the claimed derived netlist;
    - [E404] canonical forms differ in direct structural mode;
    - [E405] a step breaks a structural liveness invariant
      (E101/E102/E103/W104), voiding its lemma. *)

(** What a successful check proves, plus cheap static context: the
    marked-graph throughput bounds of the two systems ([None] when
    undefined, e.g. refuted by an E102 zero-latency cycle). *)
type proof = {
  p_design : string;
  p_mode : [ `Certificate | `Structural ];
  p_steps : int;
      (** Certificate steps checked, or buffers spliced out during
          normalization. *)
  p_lemmas : string list;  (** One lemma name per step, in order. *)
  p_source_nodes : int;
  p_source_channels : int;
  p_derived_nodes : int;
  p_derived_channels : int;
  p_throughput_source : float option;
  p_throughput_derived : float option;
}

val pp_proof : Format.formatter -> proof -> unit

(** [verify ~source ~derived cert] checks the certificate derivation as
    described above.  Zero engine cycles are run.  An empty certificate
    proves equivalence only when [source] and [derived] are structurally
    identical. *)
val verify :
  ?design:string -> source:Netlist.t -> derived:Netlist.t -> Cert.t ->
  (proof, Diagnostic.t) result

(** [equiv_static a b] — direct structural mode: normalize by the
    confluent empty-buffer rewriting and compare canonical forms.
    Nodes are matched by name, so it decides designs that differ by
    inserted (empty) buffers, not renamings. *)
val equiv_static :
  ?design:string -> Netlist.t -> Netlist.t -> (proof, Diagnostic.t) result

(** JSONL report, schema [elastic-speculation/proof/v1]: a header line
    with the verdict (["proved"] / ["refuted"] plus the refuting
    diagnostic), then one line per certificate step with its lemma,
    parameters, recorded side conditions and node deltas.  See
    EXPERIMENTS.md for the schema and the rule-to-lemma table. *)
val jsonl :
  design:string -> ?cert:Cert.t -> (proof, Diagnostic.t) result -> string

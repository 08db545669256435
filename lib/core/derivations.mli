open Elastic_netlist
open Elastic_check

(** The repo's named certified derivations: each bundled derived design
    paired with its source, plus the certificate recorded while the
    transformations built it.  These are what [shell prove] and the CI
    proof gate check — entirely statically, via
    {!Elastic_check.Flow.verify}; no engine is created. *)

type chain = {
  c_name : string;  (** e.g. ["fig1d"], ["vl-slack"]. *)
  c_describe : string;
  c_source : Netlist.t;
  c_derived : Netlist.t;
      (** For the figure chains, built independently of the certificate
          (directly by the figure builders), so verification also pins
          the builders to the recorded derivation.  The E5/E6 slack
          chains derive it by certified transformation of the source. *)
  c_cert : Cert.t;
}

(** All five chains: [fig1b], [fig1c], [fig1d] (the Fig. 1 derivation
    steps of §2) and [vl-slack], [rs-slack] (the §5 designs with extra
    certified buffering on the sink feed, the fresh stage converted to
    the Eb0 implementation of §4.3).  [ops] (default 12) is the
    workload length of the E5/E6 chains, kept small so the three-way
    agreement harness can afford exhaustive exploration of the same
    designs. *)
val all : ?ops:int -> unit -> chain list

val find : ?ops:int -> string -> chain option

(** [verify c] = [Flow.verify ~design:c.c_name ~source:c.c_source
    ~derived:c.c_derived c.c_cert]. *)
val verify : chain -> (Flow.proof, Diagnostic.t) result

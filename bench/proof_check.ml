(* CI proof gate: the static flow-equivalence prover against the other
   two oracles the repo has.

   1. Every bundled certificate chain (Fig. 1(a) -> (b)/(c)/(d), and the
      E5/E6 sink-feed slack pipelines) must verify statically —
      side conditions re-checked and every step replayed on the channel
      graph, zero engine cycles.  The proof reports are written as
      PROOF_<chain>.jsonl (schema elastic-speculation/proof/v1) and kept
      as CI artifacts.

   2. Three-way agreement on the same designs: the static verdict must
      agree with co-simulation ([Equiv.check]) and with exhaustive state
      exploration ([Explore], no protocol violations, deadlocks or
      starvation on either side of each chain).

   3. Negative controls: every applicable equivalence-breaking graft
      ([Elastic_lint.Mutate.grafts]) applied to a chain's derived design
      must be refuted by the static checker (an E4xx diagnostic) AND
      rejected by co-simulation — the two oracles must also agree that
      broken means broken.

   Exit 0 with a summary, exit 1 naming the first disagreement. *)

open Elastic_netlist
open Elastic_core

let failures = ref 0

let fail fmt =
  Fmt.kstr (fun m -> incr failures; Fmt.epr "proof_check: FAIL %s@." m) fmt

let note fmt = Fmt.pr ("proof_check: " ^^ fmt ^^ "@.")

let proof_file (c : Derivations.chain) =
  let name =
    String.map
      (fun ch -> if ch = '-' then '_' else Char.uppercase_ascii ch)
      c.Derivations.c_name
  in
  Fmt.str "PROOF_%s.jsonl" name

(* ------------------------------------------------------------------ *)
(* 1. Static certificates. *)

let check_static (c : Derivations.chain) =
  let result = Derivations.verify c in
  let out = open_out (proof_file c) in
  output_string out
    (Elastic_check.Flow.jsonl ~design:c.Derivations.c_name
       ~cert:c.Derivations.c_cert result);
  close_out out;
  (match result with
   | Ok p ->
     note "%a" Elastic_check.Flow.pp_proof p;
     if p.Elastic_check.Flow.p_steps <> Elastic_check.Cert.length c.c_cert
     then
       fail "%s: proof covers %d steps but the certificate has %d"
         c.c_name p.Elastic_check.Flow.p_steps
         (Elastic_check.Cert.length c.c_cert)
   | Error d ->
     fail "%s: statically refuted: %s" c.c_name (Diagnostic.to_string d));
  result

(* ------------------------------------------------------------------ *)
(* 2. Three-way agreement. *)

let explore_ok tag net =
  match Elastic_check.Explore.explore ~max_states:4000 net with
  | o ->
    if
      o.Elastic_check.Explore.protocol_violations <> []
      || o.Elastic_check.Explore.deadlock_states <> []
      || o.Elastic_check.Explore.starving_channels <> []
    then
      fail "%s: exploration found problems: %a" tag
        Elastic_check.Explore.pp_outcome o
    else
      note "%s: explored %d states (%s), no violations" tag
        o.Elastic_check.Explore.explored
        (if o.Elastic_check.Explore.complete then "complete"
         else "bounded")
  | exception (Invalid_argument m | Failure m) ->
    fail "%s: exploration crashed: %s" tag m

let check_agreement (c : Derivations.chain) static =
  let tag = c.Derivations.c_name in
  (match static, Equiv.check ~cycles:240 c.c_source c.c_derived with
   | Ok _, Ok r ->
     let transfers =
       List.fold_left (fun acc (_, a, _) -> acc + a) 0
         r.Equiv.transfers
     in
     note "%s: co-simulation agrees (%d transfers over %d cycles)" tag
       transfers r.Equiv.cycles
   | Ok _, Error m ->
     fail "%s: static PROVED but co-simulation disagrees: %s" tag m
   | Error d, Ok _ ->
     fail "%s: co-simulation passed but the prover refuted: %s" tag
       (Diagnostic.to_string d)
   | Error _, Error _ -> ());
  explore_ok (tag ^ "/source") c.c_source;
  explore_ok (tag ^ "/derived") c.c_derived

(* ------------------------------------------------------------------ *)
(* 3. Grafted negatives. *)

let check_negatives (c : Derivations.chain) =
  List.iter
    (fun (g : Elastic_lint.Mutate.graft) ->
       let tag =
         Fmt.str "%s+%s" c.Derivations.c_name g.Elastic_lint.Mutate.g_name
       in
       match g.Elastic_lint.Mutate.g_apply c.c_derived with
       | None -> note "%s: no applicable site, skipped" tag
       | Some grafted ->
         (match
            Elastic_check.Flow.equiv_static ~design:tag c.c_derived grafted
          with
          | Ok _ ->
            fail "%s: the static checker calls the graft equivalent" tag
          | Error d ->
            if not (String.length d.Diagnostic.code = 4
                    && String.sub d.Diagnostic.code 0 2 = "E4")
            then
              fail "%s: refuted with %s, expected an E4xx code" tag
                d.Diagnostic.code
            else note "%s: statically refuted (%s)" tag d.Diagnostic.code);
         (match Equiv.check ~cycles:240 c.c_derived grafted with
          | Ok _ ->
            fail "%s: co-simulation calls the graft equivalent" tag
          | Error _ -> note "%s: co-simulation rejects it too" tag
          | exception _ ->
            (* A graft may make the design un-simulatable (e.g. a
               perturbed stream the datapath refuses to decode); the
               engine bailing out is still a rejection. *)
            note "%s: co-simulation refuses to run it" tag))
    Elastic_lint.Mutate.grafts

(* ------------------------------------------------------------------ *)

let () =
  let chains = Derivations.all () in
  List.iter
    (fun c ->
       let static = check_static c in
       check_agreement c static;
       check_negatives c)
    chains;
  if !failures > 0 then begin
    Fmt.epr "proof_check: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "proof_check: OK — %d chains proved, three-way agreement and %d \
     negative controls per chain@."
    (List.length chains)
    (List.length Elastic_lint.Mutate.grafts)

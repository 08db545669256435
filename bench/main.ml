(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation and runs one Bechamel micro-benchmark per
   experiment.

   Experiments (see DESIGN.md section 4):
     E1  Table 1        — cycle-exact trace of Fig. 1(d)
     E2  Fig. 1(a-d)    — design points + prediction-accuracy sweep
     E3  Figs. 2/3/5    — exhaustive verification of the EB controllers
     E4  Fig. 4         — shared module + scheduler leads-to verification
     E5  Fig. 6 / §5.1  — variable-latency ALU, stalling vs speculative
     E6  Fig. 7 / §5.2  — SECDED-protected adder, ±speculation
     E7  §5.2 + faults  — adversarial injection campaigns (lib/fault)
     E8  runner scaling — the SECDED campaign sharded at 1/2/4/8 workers
     E9  arena backend  — speedup over the reference fixpoint
     E10 runner spans   — scheduling overhead from the span ledger
     E13 compile scaling — netlist build + Engine.create at 256-4096 channels
     A1  §4.1/§4.3      — ablation: recovery-buffer backward latency
     A2  schedulers     — ablation: prediction strategies on Fig. 1(d)
     A3  §1 motivation  — branch predictors on the next-PC loop

   The default mode prints E1-E7 and A1-A3; E8-E10 and E13 are --json
   records only.  Each experiment runs once: e1, e2, e3, e5, e6 and e7
   return a typed result, and its text section (print_e<k>) and its
   BENCH_E<k>.json record (json_e<k>) are two readings of that value.
   A record also carries the paper claims it failed, evaluated on the
   same OCaml values where the record is built, and --check reports
   them before it diffs the record against its baseline. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_datapath
open Elastic_core

let section title =
  Fmt.pr "@.=====================================================@.";
  Fmt.pr "== %s@." title;
  Fmt.pr "=====================================================@."

(* ------------------------------------------------------------------ *)
(* The --json trajectory records use the shared JSON tree of            *)
(* lib/metrics (the image has no JSON library); --check parses the      *)
(* committed baselines back through the same module.  Schema:           *)
(* EXPERIMENTS.md.                                                      *)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

module Json = struct
  include Elastic_metrics.Json

  let write path t = write_file path (to_string ~indent:2 t ^ "\n")
end

module Metr = Elastic_metrics
module Engine = Elastic_sim.Engine
module Profile = Elastic_sim.Profile

(* ------------------------------------------------------------------ *)
(* --json: machine-readable trajectory records, one BENCH_E<k>.json per *)
(* experiment, written to the current directory.  Each record carries   *)
(* the experiment's headline numbers plus an [engine] block comparing   *)
(* the arena's levelized schedule against the reference fixpoint on     *)
(* that experiment's main design.  Schema: EXPERIMENTS.md.              *)

(* quick and full sweeps produce different numbers; stamping the mode
   into the record makes a baseline/run mismatch fail the gate with a
   readable diff instead of dozens of numeric ones. *)
let run_mode = ref "full"

(* A record: the JSON tree written to [r_file], the eval reduction of
   its engine block, and the paper claims it failed, as (metric path,
   reason) pairs. *)
type record = {
  r_file : string;
  r_json : Json.t;
  r_reduction : float option;
  r_failed : (string * string) list;
}

let record ?reduction ?(failed = []) ~experiment ~title fields =
  { r_file = Fmt.str "BENCH_%s.json" experiment;
    r_json =
      Json.Obj
        (("schema", Json.Str "elastic-speculation/bench/v1")
         :: ("experiment", Json.Str experiment)
         :: ("title", Json.Str title)
         :: ("mode", Json.Str !run_mode)
         :: fields);
    r_reduction = reduction; r_failed = failed }

(* One paper claim: nothing when it holds, else its path and reason. *)
let claim holds path reason = if holds then [] else [ (path, reason) ]

(* A list field [key] with one object per element of [xs]: [entry]
   gives an element's fields and its failed claims, whose paths it names
   relative to the element, as in [key[i].path]. *)
let entries key entry xs =
  let fields, failed = List.split (List.map entry xs) in
  ( (key, Json.List (List.map (fun f -> Json.Obj f) fields)),
    List.concat
      (List.mapi
         (fun i ->
            List.map (fun (path, why) -> (Fmt.str "%s[%d].%s" key i path, why)))
         failed) )

(* The [engine] block: the arena's settle profile on a design against a
   Reference run of the same length.  The [eval_reduction] field is the
   headline claim — node evaluations per cycle saved by the levelized
   schedule over the blind fixpoint.  The arena executes that schedule,
   so its profile keeps the ["levelized"] key.  [arena] is an engine
   that has already run the design; without it a monitor-off arena
   engine runs [cycles] first. *)
let engine_record ?arena ~cycles net =
  let run mode =
    let eng = Engine.create ~monitor:false ~mode net in
    Engine.run eng cycles;
    eng
  in
  let lv = match arena with Some eng -> eng | None -> run Engine.Arena in
  let rf = run Engine.Reference in
  let prof eng =
    let p = Engine.profile eng in
    let cyc = Profile.cycles p in
    Json.Obj
      [ ("cycles", Json.Int cyc);
        ("node_evals", Json.Int (Profile.evals p));
        ("evals_per_cycle", Json.Float (Profile.evals_per_cycle p));
        ("max_settle_passes", Json.Int (Profile.max_passes p));
        ("settle_us_per_cycle",
         Json.Float
           (if cyc = 0 then 0.0
            else Profile.settle_seconds p *. 1e6 /. float_of_int cyc)) ]
  in
  let sched = Engine.schedule lv in
  let epc eng = Profile.evals_per_cycle (Engine.profile eng) in
  let reduction = epc rf /. epc lv in
  ( Json.Obj
      [ ("nodes", Json.Int (List.length (Netlist.nodes net)));
        ("channels", Json.Int (List.length (Netlist.channels net)));
        ("schedule",
         Elastic_sim.Schedule.(
           Json.Obj
             [ ("components", Json.Int (components sched));
               ("cyclic", Json.Int (scc_count sched));
               ("nodes_in_cycles", Json.Int (scc_nodes sched));
               ("largest_scc", Json.Int (largest_scc sched)) ]));
        ("levelized", prof lv);
        ("reference", prof rf);
        ("eval_reduction", Json.Float reduction) ],
    reduction )

let run_windowed net sink cycles =
  let eng = Engine.create net in
  Engine.run eng cycles;
  Engine.windowed_throughput eng sink

(* ------------------------------------------------------------------ *)
(* The observed run of E5/E6 (lib/trace, lib/metrics): the main design  *)
(* runs once on one arena engine with the tracer, the sampler and, with *)
(* [--trace], the VCD recorder attached.  That run fills the engine     *)
(* block's arena profile, the speculation timelines, the stall          *)
(* attribution and the per-scheduler metrics, and it carries the        *)
(* paper's Sec. 4.3 claim: every squash replays in exactly one cycle,   *)
(* in the trace timelines and in the replay-penalty histograms.  It     *)
(* writes the METRICS_E<k>.prom snapshot and .jsonl window series, and  *)
(* with [--trace] the run's TRACE_E<k> VCD and JSONL files.             *)

module Trace = Elastic_trace

let timeline_json net tls =
  let open Trace.Timeline in
  let timeline tl =
    Json.Obj
      [ ("scheduler", Json.Str (Netlist.node net tl.tl_node).Netlist.name);
        ("serves", Json.Int tl.tl_serves);
        ("squashes", Json.Int tl.tl_squashes);
        ("accuracy", Json.Float tl.tl_accuracy);
        ("mean_serve_interval", Json.Float tl.tl_mean_serve_interval);
        ("mean_squash_interval", Json.Float tl.tl_mean_squash_interval);
        ("replays", Json.Int tl.tl_replays);
        ("squash_penalties",
         Json.List (List.map (fun p -> Json.Int p) tl.tl_penalties));
        ("mean_squash_penalty", Json.Float tl.tl_mean_penalty);
        ("max_squash_penalty", Json.Int tl.tl_max_penalty) ]
  in
  Json.List (List.map timeline tls)

let attribution_json at =
  let open Trace.Attribution in
  let channel l = Json.Str l.al_channel.Netlist.ch_name in
  let root_fields =
    match at.at_root with
    | None -> [ ("bottleneck", Json.Str "") ]
    | Some l ->
      [ ("bottleneck", channel l);
        ("retry_cycles", Json.Int l.al_retry);
        ("stall_ratio", Json.Float l.al_stall_ratio) ]
  in
  Json.Obj
    (root_fields
     @ [ ("cause",
          Json.Str
            (match at.at_cause with
             | Intrinsic what -> "intrinsic: " ^ what
             | Loop -> "loop"
             | No_stall -> "no-stall"));
         ("chain", Json.List (List.map channel at.at_chain));
         ("has_critical_cycle", Json.Bool (at.at_critical <> None));
         ("root_on_critical_cycle", Json.Bool at.at_root_on_critical) ])

(* The per-scheduler families of a metrics snapshot: each scheduler's
   record fields and its replay-penalty claim. *)
let scheduler_metrics samples =
  let open Metr.Metrics in
  List.filter_map
    (fun s ->
       if not (String.equal s.m_name "elastic_sched_serves_total") then None
       else
         let labels = s.m_labels in
         let count name =
           match find ~labels samples name with Some (Counter c) -> c | _ -> 0
         in
         let serves = count "elastic_sched_serves_total" in
         let squashes = count "elastic_sched_mispredictions_total" in
         let penalty =
           match find ~labels samples "elastic_sched_replay_penalty_cycles" with
           | Some (Histogram h) -> h
           | _ -> Metr.Histogram.empty
         in
         let replays = Metr.Histogram.s_count penalty in
         let p50 = Metr.Histogram.s_quantile penalty 0.5 in
         let p99 = Metr.Histogram.s_quantile penalty 0.99 in
         Some
           ( Json.Obj
               [ ("scheduler",
                  Json.Str
                    (Option.value ~default:"?" (List.assoc_opt "node" labels)));
                 ("serves", Json.Int serves);
                 ("squashes", Json.Int squashes);
                 ("accuracy",
                  Json.Float
                    (if serves = 0 then 1.0
                     else
                       1.0 -. (float_of_int squashes /. float_of_int serves)));
                 ("replays", Json.Int replays);
                 ("replay_p50", Json.Int p50);
                 ("replay_p99", Json.Int p99);
                 ("replay_max", Json.Int (Metr.Histogram.s_max penalty)) ],
             claim
               (replays = 0 || (p50 = 1 && p99 = 1))
               "metrics.schedulers"
               (Fmt.str
                  "replay penalty not concentrated at 1 cycle (p50 %d, p99 %d)"
                  p50 p99) ))
    samples

(* The record of [experiment]: [fields] and [failed], then the observed
   run's fields and claims. *)
let observed_record ~trace ~cycles net ~failed ~experiment ~title fields =
  let eng = Engine.create net in
  let tr = Trace.Tracer.attach ~capacity:262144 eng in
  let vcd = if trace then Some (Trace.Vcd.create net) else None in
  Option.iter (fun r -> Engine.add_observer eng (Trace.Vcd.observe r)) vcd;
  let series = Buffer.create 4096 in
  let windows = ref 0 in
  let on_window r =
    incr windows;
    Buffer.add_string series (Metr.Sampler.jsonl_of_row r);
    Buffer.add_char series '\n'
  in
  let window = 50 in
  let sampler = Metr.Sampler.attach ~window ~on_window eng in
  Engine.run eng cycles;
  let evs = Trace.Tracer.events tr in
  Option.iter
    (fun r ->
       let base = "TRACE_" ^ experiment in
       Trace.Vcd.save (base ^ ".vcd") r;
       Trace.Jsonl.save (base ^ ".jsonl") net evs;
       Fmt.pr "wrote %s.vcd and %s.jsonl (%d events)@." base base
         (List.length evs))
    vcd;
  let samples = Metr.Sampler.sample sampler eng in
  let metrics = "METRICS_" ^ experiment in
  write_file (metrics ^ ".prom") (Metr.Prometheus.render samples);
  write_file (metrics ^ ".jsonl") (Buffer.contents series);
  Fmt.pr "wrote %s.prom and %s.jsonl (%d windows)@." metrics metrics
    !windows;
  let scheds = scheduler_metrics samples in
  let timelines = Trace.Timeline.analyze evs in
  let engine, reduction = engine_record ~arena:eng ~cycles net in
  let squashes =
    List.concat_map
      (fun tl ->
         List.concat_map
           (fun p ->
              claim (p = 1) "speculation.squash_penalties"
                (Fmt.str "squash penalty %d <> 1 cycle" p))
           tl.Trace.Timeline.tl_penalties)
      timelines
  in
  record ~reduction
    ~failed:(failed @ squashes @ List.concat_map snd scheds)
    ~experiment ~title
    (fields
     @ [ ("engine", engine);
         ("speculation", timeline_json net timelines);
         ("attribution", attribution_json (Trace.Attribution.analyze eng));
         ("metrics",
          Json.Obj
            [ ("window", Json.Int window);
              ("schedulers", Json.List (List.map fst scheds)) ]) ])

(* ------------------------------------------------------------------ *)
(* E1: Table 1                                                          *)

let table1_expected =
  [ ("Fin0", [ "A"; "-"; "C"; "-"; "E"; "F"; "F" ]);
    ("Fout0", [ "A"; "-"; "C"; "-"; "E"; "*"; "F" ]);
    ("Fin1", [ "-"; "B"; "D"; "D"; "-"; "G"; "-" ]);
    ("Fout1", [ "-"; "B"; "*"; "D"; "-"; "G"; "-" ]);
    ("Sel", [ "0"; "1"; "1"; "1"; "0"; "0"; "0" ]);
    ("Sched", [ "0"; "1"; "0"; "1"; "0"; "1"; "0" ]);
    ("EBin", [ "A"; "B"; "*"; "D"; "E"; "*"; "F" ]) ]

type e1 = {
  e1_table : Figures.table1_handles;
  e1_rows : Figures.table1_row list;
  e1_matches : bool;  (** Cycle-exact agreement with [table1_expected]. *)
}

let e1 () =
  let h = Figures.table1 () in
  let rows = Figures.table1_trace h in
  { e1_table = h;
    e1_rows = rows;
    e1_matches =
      List.for_all2
        (fun (label, cells) r ->
           String.equal label r.Figures.label && cells = r.Figures.cells)
        table1_expected rows }

let print_e1 r =
  section "E1: Table 1 — trace of the speculative system of Fig. 1(d)";
  Fmt.pr "%a" Figures.pp_table1 r.e1_rows;
  Fmt.pr
    "@.cycle-exact match with the paper: %b@.(the paper's EBin row prints \
     G at cycle 6, inconsistent with its own Sel row — the consistent \
     delivery is F; all other 48 cells match verbatim)@."
    r.e1_matches

let json_e1 r =
  let engine, reduction = engine_record ~cycles:64 r.e1_table.Figures.t1_net in
  record ~reduction ~experiment:"E1" ~title:"Table 1 trace of Fig. 1(d)"
    [ ("cycle_exact_match", Json.Bool r.e1_matches);
      ("rows", Json.Int (List.length r.e1_rows));
      ("engine", engine) ]

(* ------------------------------------------------------------------ *)
(* E2: Fig. 1 design points                                             *)

type fig1_point = {
  label : string;  (** As the text report names the design. *)
  key : string;  (** As the record names it. *)
  tput : float;
  bound : float;
  cycle_time : float;
  area : float;
}

type e2 = {
  e2_cycles : int;
  e2_points : fig1_point list;  (** (a), (b), (c), (d). *)
  e2_fig1d : Figures.handles;
}

let e2 ~cycles =
  let params = Figures.default_params in
  let d = Figures.fig1d ~params () in
  let point (label, key, (h : Figures.handles)) =
    { label;
      key;
      tput = run_windowed h.Figures.net h.Figures.sink cycles;
      bound = Elastic_perf.Marked_graph.throughput_bound h.Figures.net;
      cycle_time = Timing.cycle_time h.Figures.net;
      area = Area.total h.Figures.net }
  in
  { e2_cycles = cycles;
    e2_points =
      List.map point
        [ ("(a) non-speculative", "a_nonspeculative", Figures.fig1a ~params ());
          ("(b) bubble insertion", "b_bubble", Figures.fig1b ~params ());
          ("(c) Shannon + early", "c_shannon_early", Figures.fig1c ~params ());
          ("(d) speculation 100%", "d_speculation", d) ];
    e2_fig1d = d }

let effective p = p.cycle_time /. p.tput

(* The text section adds the prediction-accuracy sweep of (d) and its
   crossover against (a). *)
let print_e2 r =
  section "E2: Fig. 1 — bubble insertion vs Shannon vs speculation";
  Fmt.pr "paper's qualitative claims: (b) halves throughput; (c) optimal \
          but duplicates F;@.(d) matches (c) at high accuracy with less \
          area.@.@.";
  List.iter
    (fun p ->
       Fmt.pr
         "  %-24s tput %.3f  bound %.3f  cycle %5.2f  effective %6.2f  area \
          %6.1f@."
         p.label p.tput p.bound p.cycle_time (effective p) p.area)
    r.e2_points;
  Fmt.pr "@.prediction-accuracy sweep of (d), crossover against (a):@.";
  let params = Figures.default_params in
  let eff_a = effective (List.hd r.e2_points) in
  let crossover = ref None in
  List.iter
    (fun acc ->
       let h =
         Figures.fig1d ~params
           ~sched:
             (Scheduler.Noisy_oracle
                { sel = params.Figures.sel; accuracy_pct = acc; seed = 3 })
           ()
       in
       let tput = run_windowed h.Figures.net h.Figures.sink 500 in
       let eff = Timing.cycle_time h.Figures.net /. tput in
       if eff < eff_a && !crossover = None then crossover := Some acc;
       Fmt.pr "  accuracy %3d%%: throughput %.3f  effective ct %6.2f  %s@."
         acc tput eff
         (if eff < eff_a then "beats (a)" else ""))
    [ 50; 60; 70; 75; 80; 90; 95; 99; 100 ];
  match !crossover with
  | Some acc ->
    Fmt.pr
      "  -> speculation pays off above ~%d%% accuracy (vs effective ct %.2f)@."
      acc eff_a
  | None -> Fmt.pr "  -> no crossover in the sweep@."

let json_e2 r =
  let point p =
    Json.Obj
      [ ("design", Json.Str p.key);
        ("throughput", Json.Float p.tput);
        ("bound", Json.Float p.bound);
        ("cycle_time", Json.Float p.cycle_time);
        ("effective_cycle_time", Json.Float (effective p));
        ("area", Json.Float p.area) ]
  in
  let engine, reduction =
    engine_record ~cycles:r.e2_cycles r.e2_fig1d.Figures.net
  in
  record ~reduction ~experiment:"E2" ~title:"Fig. 1 design points"
    [ ("points", Json.List (List.map point r.e2_points)); ("engine", engine) ]

(* ------------------------------------------------------------------ *)
(* E3/E4: exhaustive verification (the paper's NuSMV step)              *)

let zoo () =
  let open Elastic_netlist.Netlist in
  let nsrc vs = Source (Nondet vs) in
  let nsink = Sink (Random_stall { pct = 50; seed = 1 }) in
  let pipe name buffer =
    let net = empty in
    let net, s = add_node ~name:"src" net (nsrc [ Value.Int 0; Value.Int 1 ]) in
    let net, b = add_node ~name:"buf" net (Buffer { buffer; init = [] }) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s, Out 0) (b, In 0) in
    let net, _ = connect net (b, Out 0) (k, In 0) in
    (name, net)
  in
  let emux =
    let net = empty in
    let net, sel = add_node ~name:"sel" net (nsrc [ Value.Int 0; Value.Int 1 ]) in
    let net, s0 = add_node ~name:"d0" net (nsrc [ Value.Int 10 ]) in
    let net, s1 = add_node ~name:"d1" net (nsrc [ Value.Int 20 ]) in
    let net, e = add_node ~name:"e0" net (Buffer { buffer = Eb; init = [] }) in
    let net, m = add_node ~name:"mux" net (Mux { ways = 2; early = true }) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (sel, Out 0) (m, Sel) in
    let net, _ = connect net (s0, Out 0) (e, In 0) in
    let net, _ = connect net (e, Out 0) (m, In 0) in
    let net, _ = connect net (s1, Out 0) (m, In 1) in
    let net, _ = connect net (m, Out 0) (k, In 0) in
    ("early-evaluation mux + anti-tokens (Fig. 4 context)", net)
  in
  let shared sched name =
    let net = empty in
    let net, s0 = add_node ~name:"in0" net (nsrc [ Value.Int 0 ]) in
    let net, s1 = add_node ~name:"in1" net (nsrc [ Value.Int 1 ]) in
    let f =
      Func.make ~name:"F" ~arity:1 ~delay:1.0 ~area:1.0 (function
        | [ v ] -> v
        | _ -> assert false)
    in
    let net, sh =
      add_node ~name:"sh" net (Shared { ways = 2; f; sched; hinted = false })
    in
    let net, m = add_node ~name:"mux" net (Mux { ways = 2; early = true }) in
    let net, e =
      add_node ~name:"EB" net (Buffer { buffer = Eb; init = [ Value.Int 0 ] })
    in
    let net, fk = add_node ~name:"fork" net (Fork 2) in
    let g =
      Func.make ~name:"G" ~arity:1 ~delay:1.0 ~area:1.0 (function
        | [ v ] -> Value.Int (1 - Value.to_int v)
        | _ -> assert false)
    in
    let net, gn = add_node ~name:"G" net (Func g) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s0, Out 0) (sh, In 0) in
    let net, _ = connect net (s1, Out 0) (sh, In 1) in
    let net, _ = connect net (sh, Out 0) (m, In 0) in
    let net, _ = connect net (sh, Out 1) (m, In 1) in
    let net, _ = connect net (m, Out 0) (e, In 0) in
    let net, _ = connect net (e, Out 0) (fk, In 0) in
    let net, _ = connect net (fk, Out 0) (gn, In 0) in
    let net, _ = connect net (gn, Out 0) (m, Sel) in
    let net, _ = connect net (fk, Out 1) (k, In 0) in
    (name, net)
  in
  [ pipe "EB Lf=1 Lb=1 C=2 (Figs. 2/3)" Eb;
    pipe "EB0 Lf=1 Lb=0 C=1 (Fig. 5)" Eb0;
    emux;
    shared Scheduler.External
      "shared module, all schedulers (Fig. 4, leads-to assumed)";
    shared Scheduler.Sticky "shared module, sticky scheduler" ]

let e3 () =
  List.map (fun (name, net) -> (name, Elastic_check.Explore.explore net))
    (zoo ())

let print_e3 r =
  section
    "E3/E4: exhaustive verification of the controllers (paper Sec. 4.2)";
  Fmt.pr
    "Explicit-state exploration over all environment/scheduler choices;@.\
     checks the SELF protocol (Retry+/Retry-/kill-stop invariant),@.\
     deadlock freedom and channel liveness.@.@.";
  List.iter
    (fun (name, o) ->
       Fmt.pr "  %-55s %6d states %7d transitions  %s@." name
         o.Elastic_check.Explore.explored
         o.Elastic_check.Explore.transitions
         (if Elastic_check.Explore.clean o then "VERIFIED" else "FAILED"))
    r;
  Fmt.pr
    "@.(a Static scheduler on the same loop violates leads-to and \
     starves a channel;@. kept as a regression test in \
     test/test_check.ml)@."

let json_e3 r =
  let controller (name, o) =
    Json.Obj
      [ ("controller", Json.Str name);
        ("states", Json.Int o.Elastic_check.Explore.explored);
        ("transitions", Json.Int o.Elastic_check.Explore.transitions);
        ("verified", Json.Bool (Elastic_check.Explore.clean o)) ]
  in
  record ~experiment:"E3" ~title:"exhaustive controller verification"
    [ ("controllers", Json.List (List.map controller r)) ]

(* ------------------------------------------------------------------ *)
(* E5 and E6 compare a design with its speculative version over a sweep *)
(* of error rates, [n] operations and 2n cycles per run.  Cycle time    *)
(* and area are structural, so they are read once, from the pair built  *)
(* at a 5% error rate; its speculative design is the record's main      *)
(* design, which the observed run simulates.                            *)

type run = {
  throughput : float;
  first : int;  (** Cycle of the first delivery; -1 without one. *)
}

type sweep = {
  cycles : int;
  points : (int * run * run) list;  (** Error rate, base, speculative. *)
  main : Examples.design;
  cycle_times : float * float;  (** Base, speculative. *)
  areas : float * float;
}

(* [designs pct] is the pair at one error rate and, where the sums are
   known, the golden stream each run must deliver. *)
let sweep ~n ~pcts designs =
  let measure golden (d : Examples.design) =
    let eng = Engine.create d.Examples.d_net in
    Engine.run eng (2 * n);
    let stream = Engine.sink_stream eng d.Examples.d_sink in
    Option.iter
      (fun g -> assert (List.equal Value.equal (Transfer.values stream) g))
      golden;
    { throughput = Engine.windowed_throughput eng d.Examples.d_sink;
      first =
        (match Transfer.entries stream with
         | e :: _ -> e.Transfer.cycle
         | [] -> -1) }
  in
  let point pct =
    let base, spec, golden = designs pct in
    (pct, measure golden base, measure golden spec)
  in
  let base, spec, _ = designs 5 in
  let both f = (f base.Examples.d_net, f spec.Examples.d_net) in
  { cycles = 2 * n;
    points = List.map point pcts;
    main = spec;
    cycle_times = both Timing.cycle_time;
    areas = both Area.total }

let area_overhead r =
  let base, spec = r.areas in
  100.0 *. ((spec -. base) /. base)

(* ------------------------------------------------------------------ *)
(* E5: variable-latency ALU                                             *)

let e5_rates = [ 0; 1; 5; 10; 20; 40 ]

let e5 ~n ~pcts =
  sweep ~n ~pcts (fun pct ->
      let ops = Alu.operands ~error_rate_pct:pct ~seed:42 n in
      (Examples.vl_stalling ~ops, Examples.vl_speculative ~ops, None))

let e5_gain r =
  let cs, cp = r.cycle_times in
  100.0 *. (1.0 -. (cp /. cs))

let print_e5 r =
  section "E5: Fig. 6 / Sec. 5.1 — variable-latency ALU";
  Fmt.pr "  err%%  | stalling 6(a): tput  eff.ct | speculative 6(b): tput \
          eff.ct@.";
  let cs, cp = r.cycle_times in
  List.iter
    (fun (pct, s, p) ->
       Fmt.pr "  %-5d |              %.3f  %6.2f |                   %.3f  \
               %6.2f@."
         pct s.throughput (cs /. s.throughput) p.throughput
         (cp /. p.throughput))
    r.points;
  Fmt.pr "@.  cycle-time improvement %.1f%%   (paper:  ~9%%)@." (e5_gain r);
  Fmt.pr "  area overhead          %.1f%%   (paper: ~12%%)@."
    (area_overhead r)

(* Claims (Sec. 5.1): speculation buys a shorter clock without giving
   back tokens/cycle at any error rate of the sweep. *)
let json_e5 ~trace r =
  let gain = e5_gain r in
  let point (pct, s, p) =
    ( [ ("error_rate_pct", Json.Int pct);
        ("stalling_throughput", Json.Float s.throughput);
        ("speculative_throughput", Json.Float p.throughput) ],
      claim
        (not (p.throughput < s.throughput -. 1e-9))
        "speculative_throughput"
        (Fmt.str "below the stalling design (%g < %g)" p.throughput
           s.throughput) )
  in
  let points, slower = entries "points" point r.points in
  observed_record ~trace ~cycles:r.cycles r.main.Examples.d_net
    ~failed:
      (claim (gain > 0.0) "cycle_time_improvement_pct"
         (Fmt.str "speculation gain not positive (%g%%)" gain)
       @ slower)
    ~experiment:"E5" ~title:"variable-latency ALU (Fig. 6)"
    [ points;
      ("cycle_time_improvement_pct", Json.Float gain);
      ("area_overhead_pct", Json.Float (area_overhead r)) ]

(* ------------------------------------------------------------------ *)
(* E6: resilient adder; every run delivers the golden sums.             *)

let e6_rates = [ 0; 2; 5; 10; 25 ]

let e6 ~n ~pcts =
  sweep ~n ~pcts (fun pct ->
      let ops = Examples.rs_ops ~error_rate_pct:pct ~seed:5 n in
      ( Examples.rs_nonspeculative ~ops,
        Examples.rs_speculative ~ops,
        Some (Examples.rs_reference ops) ))

let print_e6 r =
  section "E6: Fig. 7 / Sec. 5.2 — SECDED-protected adder";
  Fmt.pr "  err%%  | non-spec 7(a): tput 1st | speculative 7(b): tput 1st@.";
  List.iter
    (fun (pct, n, s) ->
       Fmt.pr "  %-5d |            %.3f   %d   |                 %.3f   \
               %d@."
         pct n.throughput n.first s.throughput s.first)
    r.points;
  Fmt.pr
    "@.  all sums corrected and verified in both designs@.  one pipeline \
     stage of latency removed; one cycle lost per corrected error@.  \
     area overhead on the stage %.1f%%   (paper: ~36%%)@."
    (area_overhead r)

(* Claim (Sec. 5.2): the speculative design removes one pipeline stage
   of latency at every error rate. *)
let json_e6 ~trace r =
  let point (pct, n, s) =
    ( [ ("error_rate_pct", Json.Int pct);
        ("nonspec_throughput", Json.Float n.throughput);
        ("nonspec_first_delivery", Json.Int n.first);
        ("spec_throughput", Json.Float s.throughput);
        ("spec_first_delivery", Json.Int s.first) ],
      claim (s.first < n.first) "spec_first_delivery"
        (Fmt.str "no latency removed (spec %d, nonspec %d)" s.first n.first) )
  in
  let points, later = entries "points" point r.points in
  observed_record ~trace ~cycles:r.cycles r.main.Examples.d_net ~failed:later
    ~experiment:"E6" ~title:"SECDED-protected adder (Fig. 7)"
    [ points; ("area_overhead_pct", Json.Float (area_overhead r)) ]

(* ------------------------------------------------------------------ *)
(* E7: Sec. 5.2 under adversarial fault injection.  The cooperative     *)
(* workload of E6 only generates errors the design was built to absorb; *)
(* here the same claims are checked against seeded wire-level faults:   *)
(* single-bit upsets anywhere in the SECDED-protected operand bus must  *)
(* be masked or corrected at exactly one replay cycle, double-bit       *)
(* upsets must be detected (alarm severity 2), and a control-wire       *)
(* glitch must be flagged by the SELF protocol monitors with            *)
(* cycle/node/channel provenance.                                       *)

(* The library's SECDED campaign (Examples.secded_campaign) on E6's
   400-operation error-free workload: E7 runs its scenario groups, and
   E8, E10, --chaos and the scrape check shard its single flips. *)
let secded () =
  Examples.secded_campaign
    ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)

(* The E7 run: every scenario of every group against one golden run on
   one faulted engine, with the cycles that engine stepped for each
   scenario (Recovery.run_faulted resets its profile first). *)
type e7 = {
  e7_campaign : Examples.secded_campaign;
  e7_golden : Elastic_fault.Recovery.golden;
  e7_groups : (string * Elastic_fault.Campaign.summary) list;
  e7_stepped : int list;
}

let e7 () =
  let open Elastic_fault in
  let c = secded () in
  let golden =
    Recovery.golden_run ~cycles:c.Examples.sc_cycles
      ~settle:c.Examples.sc_settle ~alarms:c.Examples.sc_alarms
      c.Examples.sc_net
  in
  let engine = Recovery.faulted_engine golden in
  let stepped = ref [] in
  let run faults =
    let report =
      Recovery.check ~engine golden ~faults
    in
    stepped := Profile.cycles (Engine.profile engine) :: !stepped;
    { Campaign.faults; report }
  in
  let groups =
    List.map
      (fun (group, scenarios) ->
         (group, Campaign.summarize (List.map run scenarios)))
      c.Examples.sc_groups
  in
  { e7_campaign = c; e7_golden = golden; e7_groups = groups;
    e7_stepped = !stepped }

(* The text section asserts the verdicts. *)
let print_e7 r =
  let open Elastic_fault in
  section "E7: Sec. 5.2 under adversarial fault injection";
  let group label = List.assoc label r.e7_groups in
  (* 1. Single-bit upsets: masked or corrected at one replay cycle. *)
  let s1 = group "single" in
  Fmt.pr "  single-bit operand upsets (seed 2009): %a@."
    Campaign.pp_summary s1;
  assert (Campaign.all_benign ~max_penalty:1 s1);
  Fmt.pr "  -> all masked or corrected at <= 1 replay cycle@.";
  (* 2. Double-bit upsets: beyond correction, within detection. *)
  let s2 = group "double" in
  Fmt.pr "@.  double-bit upsets in operand a: %a@." Campaign.pp_summary s2;
  assert (Campaign.count s2 "detected" = s2.Campaign.total);
  Fmt.pr "  -> all detected by the severity alarm (SECDED double error)@.";
  (* 3. A control-wire glitch: stall then drop the valid of the retried
     token on the operand bus — a Retry+ persistence violation. *)
  let r = (List.hd (group "glitch").Campaign.outcomes).Campaign.report in
  Fmt.pr "@.  control-wire glitch:@.%a@." Recovery.pp_report r;
  assert (
    match r.Recovery.classification with
    | Recovery.Detected _ -> true
    | _ -> false);
  Fmt.pr "  -> flagged by the protocol monitors with provenance@."

(* E7: every E7 scenario's class, and how many of its 450 + 60 cycles
   the faulted engine steps (Recovery.run_faulted starts it at the first
   fault cycle and stops it once it rejoins the golden trajectory).
   Every number here is a deterministic count, so --check gates them
   exactly. *)
let json_e7 r =
  let open Elastic_fault in
  let c = r.e7_campaign in
  let counts kv = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kv) in
  (* How often each distinct value occurs, in increasing order. *)
  let tally values =
    counts
      (List.map
         (fun v ->
            (string_of_int v, List.length (List.filter (( = ) v) values)))
         (List.sort_uniq compare values))
  in
  let stepped = r.e7_stepped in
  let cut =
    List.concat_map
      (fun (_, s) ->
         List.filter_map
           (fun o -> o.Campaign.report.Recovery.stabilized)
           s.Campaign.outcomes)
      r.e7_groups
  in
  let mean =
    float_of_int (List.fold_left ( + ) 0 stepped)
    /. float_of_int (List.length stepped)
  in
  (* Claim: a fault scenario steps only the cycles that can differ from
     the golden run, ~4 of its 510 on this campaign. *)
  let failed =
    claim (mean <= 10.0) "simulated_cycles_per_scenario.mean"
      (Fmt.str "%g cycles per scenario, above 10" mean)
  in
  record ~failed ~experiment:"E7"
    ~title:"SECDED campaign under adversarial faults"
    [ ("scenarios", Json.Int (List.length stepped));
      ("classification",
       Json.Obj
         (List.map
            (fun (group, s) -> (group, counts s.Campaign.histogram))
            r.e7_groups));
      ("simulated_cycles_per_scenario",
       Json.Obj
         [ ("window", Json.Int (c.Examples.sc_cycles + c.Examples.sc_settle));
           ("mean", Json.Float mean);
           ("max", Json.Int (List.fold_left max 0 stepped)) ]);
      ("stabilization",
       Json.Obj
         [ ("cut_off", Json.Int (List.length cut));
           ("ran_to_end", Json.Int (List.length stepped - List.length cut));
           ("cycles_after_horizon", tally (List.map fst cut));
           ("lag", tally (List.map snd cut)) ]);
      (* Heap words the golden run adds to its netlist: the per-cycle
         snapshots and fingerprints every scenario reads, and the sink
         entry arrays with their prefix counts. *)
      ("golden_record_words",
       Json.Int
         (Obj.reachable_words (Obj.repr r.e7_golden)
          - Obj.reachable_words (Obj.repr c.Examples.sc_net))) ]

(* ------------------------------------------------------------------ *)
(* E8: domain-count scaling of the E7 fault campaign under the          *)
(* supervised runner (lib/runner).  The determinism contract — shards   *)
(* merge in index order — means every worker count must reproduce the   *)
(* 1-worker merged snapshot byte-for-byte; the scaling curve itself is  *)
(* wall-clock and therefore only informative (the gate skips            *)
(* [_seconds] keys).  The record is backend-independent so the same     *)
(* baseline gates the OCaml 4.14 sequential fallback and the OCaml 5    *)
(* domains backend.                                                     *)

module Runner = Elastic_runner.Runner
module Workload = Elastic_runner.Workload
module Rcheckpoint = Elastic_runner.Checkpoint

(* The SECDED campaign's first [count] single flips, as one runner task
   per scenario. *)
let secded_tasks ~count () =
  let c = secded () in
  Workload.of_campaign ~cycles:c.Examples.sc_cycles
    ~settle:c.Examples.sc_settle ~alarms:c.Examples.sc_alarms ~name:"secded"
    c.Examples.sc_net ~scenarios:(Examples.secded_flips c ~count)

let no_sleep _ = ()

module Collector = Elastic_obs.Collector

(* The campaign on 1, 2, 4 and 8 workers: (workers, report, span
   collector, wall seconds) per width.  The collector records the run's
   spans only with [~spans:true]. *)
let scaling ?(spans = false) ~name tasks =
  List.map
    (fun w ->
       let c = Collector.create () in
       let t0 = Elastic_sim.Clock.monotonic () in
       let r =
         Runner.run ~workers:w ~sleep:no_sleep
           ?obs:(if spans then Some c else None)
           ~name:(Fmt.str "%s-w%d" name w) tasks
       in
       (w, r, c,
        Elastic_sim.Clock.seconds_between t0 (Elastic_sim.Clock.monotonic ())))
    [ 1; 2; 4; 8 ]

let completed r =
  claim
    (r.Runner.r_completed = List.length r.Runner.r_shards)
    "completed" "campaign did not complete every shard"

(* Claim: the runner's determinism contract — every worker count of the
   scaling curve completes all shards and reproduces the 1-worker merged
   snapshot byte-for-byte. *)
let json_e8 ~count () =
  let runs = scaling ~name:"e8" (secded_tasks ~count ()) in
  let _, one, _, _ = List.hd runs in
  let reference = Metr.Prometheus.render one.Runner.r_merged in
  let point (w, r, _, dt) =
    let identical =
      String.equal reference (Metr.Prometheus.render r.Runner.r_merged)
    in
    ( [ ("workers", Json.Int w);
        ("shards", Json.Int (List.length r.Runner.r_shards));
        ("completed", Json.Int r.Runner.r_completed);
        ("failed", Json.Int r.Runner.r_failed);
        ("merged_identical", Json.Bool identical);
        ("elapsed_seconds", Json.Float dt) ],
      claim identical "merged_identical"
        "merged snapshot differs from the 1-worker run"
      @ completed r )
  in
  let points, failed = entries "points" point runs in
  let classes = Workload.classification_histogram one.Runner.r_merged in
  record ~failed ~experiment:"E8"
    ~title:"domain-count scaling of the SECDED fault campaign"
    [ ("scenarios", Json.Int count);
      points;
      ("classification",
       Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) classes)) ]

(* E10: scheduling overhead of the supervised runner, measured from its
   own span ledger.  Each worker count of the scaling curve runs the
   SECDED campaign with a span collector attached; worker utilization is
   the summed shard-span time over [workers x wall], scheduling overhead
   its complement.  The cross-check that makes the ledger trustworthy:
   at 1 worker the shard spans must account for >= 95% of the campaign
   span — if they do not, the instrumentation is dropping time, and the
   utilization numbers upstream of it mean nothing.  Claims: that
   cross-check, no dropped span, and every point completes the whole
   campaign. *)
let json_e10 ~trace ~count () =
  let module Span = Elastic_obs.Span in
  let runs = scaling ~spans:true ~name:"e10" (secded_tasks ~count ()) in
  let campaign_seconds c wall =
    Collector.spans c
    |> List.find_opt (fun (s : Span.t) -> s.Span.sp_kind = Span.Campaign)
    |> Option.fold ~none:wall ~some:Span.duration_seconds
  in
  let busy_total c =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0
      (Collector.busy_seconds c)
  in
  let point (w, r, c, wall) =
    let busy = busy_total c in
    let util =
      if wall > 0.0 then min 1.0 (busy /. (float_of_int w *. wall)) else 0.0
    in
    ( [ ("workers", Json.Int w);
        ("shards", Json.Int (List.length r.Runner.r_shards));
        ("completed", Json.Int r.Runner.r_completed);
        ("spans", Json.Int (Collector.recorded c));
        ("spans_dropped", Json.Int (Collector.dropped c));
        ("elapsed_seconds", Json.Float wall);
        ("campaign_span_seconds", Json.Float (campaign_seconds c wall));
        ("busy_seconds", Json.Float busy);
        ("worker_utilization", Json.Float util);
        ("scheduling_overhead", Json.Float (max 0.0 (1.0 -. util))) ],
      claim (Collector.dropped c = 0) "spans_dropped"
        "span ring overflowed; raise the recorder capacity"
      @ completed r )
  in
  let points, failed = entries "points" point runs in
  (* The ledger-accounting cross-check, on the 1-worker run: with no
     parallel idling possible, shard spans vs the campaign span is a
     pure instrumentation-coverage measurement. *)
  let account_ratio, account_ok =
    match runs with
    | (1, _, c, wall) :: _ ->
      let camp = campaign_seconds c wall in
      let ratio = if camp > 0.0 then busy_total c /. camp else 0.0 in
      (ratio, ratio >= 0.95)
    | _ -> (0.0, false)
  in
  (match List.rev runs with
   | (_, _, c, _) :: _ when trace ->
     (* Artifacts come from the widest run (8 workers): one Perfetto
        track per worker is the point of the format. *)
     let base = "SPANS_E10" in
     let spans = Collector.spans c in
     Elastic_obs.Export.write_chrome ~path:(base ^ ".json") spans;
     Elastic_obs.Export.write_jsonl ~path:(base ^ ".jsonl")
       ~campaign:"secded" spans;
     Elastic_obs.Export.write_folded ~path:(base ^ ".folded") spans;
     Fmt.pr "wrote %s.json, %s.jsonl, %s.folded@." base base base
   | _ -> ());
  record
    ~failed:
      (claim account_ok "spans_account_ok"
         (Fmt.str
            "shard spans cover < 95%% of the 1-worker campaign span (ratio %g)"
            account_ratio)
       @ failed)
    ~experiment:"E10"
    ~title:"scheduling overhead from the runner's span ledger"
    [ ("scenarios", Json.Int count);
      points;
      ("spans_account_ratio", Json.Float account_ratio);
      ("spans_account_ok", Json.Bool account_ok) ]

(* ------------------------------------------------------------------ *)
(* --chaos: the crash-recovery equivalence claim, end to end.  The      *)
(* SECDED campaign runs under the runner with fault-injected workers    *)
(* (first attempts of some shards are killed or time out — both         *)
(* Transient, so supervision retries them), is killed mid-run via       *)
(* [stop_after] with a checkpoint, and resumes from that checkpoint.    *)
(* The resumed run's merged snapshot must be byte-identical to an       *)
(* uninterrupted clean run, and a permanently-poisoned shard must fail  *)
(* alone.  Artifacts: CHAOS_checkpoint.jsonl + CHAOS_report.json.       *)

let chaos_mode ~quick () =
  section "--chaos: supervised campaign under injected worker faults";
  let count = if quick then 24 else 60 in
  let tasks = secded_tasks ~count () in
  let workers = max 2 (min 4 (Elastic_runner.Pool_backend.recommended ())) in
  Fmt.pr "  backend: %s, %d workers, %d scenarios@."
    (if Elastic_runner.Pool_backend.parallel then "domains"
     else "sequential fallback")
    workers count;
  let base = Runner.run ~workers:1 ~sleep:no_sleep ~name:"chaos" tasks in
  let want = Metr.Prometheus.render base.Runner.r_merged in
  let chaotic =
    List.mapi
      (fun i (t : Runner.task) ->
         { t with
           Runner.work =
             (fun ctx ->
                if ctx.Runner.attempt = 1 && i mod 5 = 2 then
                  raise (Runner.Killed "chaos: injected worker kill");
                if ctx.Runner.attempt = 1 && i mod 7 = 3 then
                  raise (Runner.Deadline_exceeded "chaos: injected timeout");
                t.Runner.work ctx) })
      tasks
  in
  let ckpt = "CHAOS_checkpoint.jsonl" in
  (try Sys.remove ckpt with Sys_error _ -> ());
  let command =
    Fmt.str "bench --chaos%s" (if quick then " --quick" else "")
  in
  let killed =
    Runner.run ~workers ~sleep:no_sleep ~checkpoint:ckpt ~command
      ~stop_after:(count / 2) ~name:"chaos" chaotic
  in
  Fmt.pr "  interrupted: %d/%d shards checkpointed before the kill@."
    killed.Runner.r_completed count;
  let resume =
    match Rcheckpoint.load ckpt with
    | Ok c -> c
    | Error m ->
      Fmt.epr "chaos: cannot reload %s: %s@." ckpt m;
      exit 1
  in
  let final =
    Runner.run ~workers ~sleep:no_sleep ~checkpoint:ckpt ~resume ~command
      ~name:"chaos" chaotic
  in
  Fmt.pr "@[<v>  %a@]@." Runner.pp_report final;
  let identical = String.equal want (Metr.Prometheus.render final.Runner.r_merged) in
  (* Crash isolation: poison one shard of a small slice with a
     deterministic failure; only that shard may fail. *)
  let poisoned =
    List.filteri (fun i _ -> i < 6) tasks
    |> List.mapi
         (fun i (t : Runner.task) ->
            if i = 1 then
              { t with
                Runner.work = (fun _ -> failwith "chaos: poisoned shard") }
            else t)
  in
  let iso =
    Runner.run ~workers ~sleep:no_sleep ~name:"chaos-isolation" poisoned
  in
  let isolated =
    iso.Runner.r_failed = 1
    && iso.Runner.r_completed = List.length poisoned - 1
    && List.exists
         (fun (s : Runner.shard) ->
            match s.Runner.sh_status with
            | Runner.Failed f -> f.Runner.f_class = Runner.Permanent
            | _ -> false)
         iso.Runner.r_shards
  in
  Json.write "CHAOS_report.json"
    (Json.Obj
       [ ("schema", Json.Str "elastic-speculation/chaos/v1");
         ("scenarios", Json.Int count);
         ("workers", Json.Int workers);
         ("parallel_backend",
          Json.Bool Elastic_runner.Pool_backend.parallel);
         ("interrupted_completed", Json.Int killed.Runner.r_completed);
         ("resumed", Json.Int final.Runner.r_resumed);
         ("merged_identical", Json.Bool identical);
         ("poisoned_shard_isolated", Json.Bool isolated);
         ("report", Runner.report_json final) ]);
  Fmt.pr "wrote CHAOS_report.json and %s@." ckpt;
  if identical && isolated then
    Fmt.pr
      "@.bench --chaos: OK (merged metrics byte-identical after kill + \
       resume; poisoned shard isolated)@."
  else begin
    Fmt.epr "@.bench --chaos: FAILED (merged_identical=%b isolated=%b)@."
      identical isolated;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A1: ablation — recovery-buffer backward latency (Sec. 4.1/4.3)       *)

let a1_recovery () =
  section
    "A1: ablation — recovery EBs with Lb=1 vs the Fig. 5 EB (Lb=0)";
  Fmt.pr
    "With plain EBs the anti-token of a correct prediction takes an \
     extra@.cycle to reach the doomed slow-path token, which delays its \
     successors@.(Sec. 4.1: \"the backward latency of EBs can become a \
     bottleneck\").@.@.";
  let n = 400 in
  let ops = Alu.operands ~error_rate_pct:0 ~seed:9 n in
  List.iter
    (fun (name, recovery) ->
       let d = Examples.vl_speculative_with ~recovery ~ops in
       let t = run_windowed d.Examples.d_net d.Examples.d_sink (2 * n) in
       Fmt.pr "  recovery %-14s throughput %.3f@." name t)
    [ ("Eb (Lb=1)", Netlist.Eb); ("Eb0 (Lb=0, Fig. 5)", Netlist.Eb0) ]

(* ------------------------------------------------------------------ *)
(* A2: ablation — schedulers on Fig. 1(d)                               *)

let a2_schedulers () =
  section "A2: ablation — prediction strategies on Fig. 1(d)";
  let params = Figures.default_params in
  List.iter
    (fun (name, sched) ->
       let h = Figures.fig1d ~params ~sched () in
       let eng = Engine.create h.Figures.net in
       Engine.run eng 500;
       let t = Engine.windowed_throughput eng h.Figures.sink in
       let misses =
         match Engine.schedulers eng with
         | [ (_, s) ] -> Scheduler.mispredictions s
         | _ -> 0
       in
       Fmt.pr "  %-14s throughput %.3f   mispredictions %d@." name t misses)
    [ ("sticky", Scheduler.Sticky); ("toggle", Scheduler.Toggle);
      ("two-bit", Scheduler.Two_bit);
      ("gshare-6", Scheduler.Gshare { history_bits = 6 });
      ("round-robin", Scheduler.Round_robin);
      ("oracle 90%",
       Scheduler.Noisy_oracle
         { sel = Figures.default_params.Figures.sel; accuracy_pct = 90;
           seed = 3 });
      ("oracle 100%",
       Scheduler.Noisy_oracle
         { sel = Figures.default_params.Figures.sel; accuracy_pct = 100;
           seed = 3 }) ]

(* ------------------------------------------------------------------ *)
(* A3: branch speculation on the next-PC loop (the paper's Sec. 1        *)
(* motivation), comparing predictors on program-driven select streams.  *)

let a3_branch_prediction () =
  section "A3: branch prediction on the next-PC loop (Sec. 1 motivation)";
  let pl = Examples.pc_loop () in
  let run net =
    let eng = Engine.create net in
    Engine.run eng 400;
    (Engine.throughput eng pl.Examples.pl_sink,
     match Engine.schedulers eng with
     | [ (_, s) ] -> Scheduler.mispredictions s
     | _ -> 0)
  in
  let ipc0, _ = run pl.Examples.pl_net in
  Fmt.pr "  non-speculative loop: IPC %.3f, cycle time %.2f@." ipc0
    (Timing.cycle_time pl.Examples.pl_net);
  List.iter
    (fun (name, sched) ->
       let r =
         Speculation.speculate pl.Examples.pl_net ~mux:pl.Examples.pl_mux
           ~sched
       in
       let ipc, misses = run r.Speculation.net in
       Fmt.pr "  %-12s IPC %.3f  mispredictions %d  cycle time %.2f@." name
         ipc misses
         (Timing.cycle_time r.Speculation.net))
    [ ("sticky", Scheduler.Sticky); ("two-bit", Scheduler.Two_bit);
      ("gshare-4", Scheduler.Gshare { history_bits = 4 });
      ("gshare-8", Scheduler.Gshare { history_bits = 8 }) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: cost of regenerating each experiment.     *)

let bechamel_suite () =
  section "Bechamel: cost of regenerating each experiment";
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"repro"
      [ quick "E1_table1" (fun () ->
            ignore (Figures.table1_trace (Figures.table1 ())));
        quick "E2_fig1_points" (fun () ->
            let h = Figures.fig1d () in
            ignore (run_windowed h.Figures.net h.Figures.sink 100));
        quick "E3_verify_eb" (fun () ->
            ignore
              (Elastic_check.Explore.explore (snd (List.nth (zoo ()) 0))));
        quick "E4_verify_shared" (fun () ->
            ignore
              (Elastic_check.Explore.explore (snd (List.nth (zoo ()) 3))));
        quick "E5_fig6_point" (fun () ->
            let ops = Alu.operands ~error_rate_pct:5 ~seed:1 50 in
            let d = Examples.vl_speculative ~ops in
            ignore (run_windowed d.Examples.d_net d.Examples.d_sink 100));
        quick "E6_fig7_point" (fun () ->
            let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:1 50 in
            let d = Examples.rs_speculative ~ops in
            ignore (run_windowed d.Examples.d_net d.Examples.d_sink 100)) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
       match Analyze.OLS.estimates est with
       | Some [ ns ] -> Fmt.pr "  %-24s %10.2f ms/run@." name (ns /. 1e6)
       | Some _ | None -> Fmt.pr "  %-24s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* E9: arena backend speedup over the reference fixpoint.  Both       *)
(* backends reach the same unique fixed point, so the sink streams and *)
(* the final register state must agree (eval counts differ by design:  *)
(* that is the levelized schedule's saving).  Timing fields carry the  *)
(* [_seconds] / [_per_second] / [_speedup] suffixes the gate skips;    *)
(* the committed baseline is backend- and machine-independent.  Claim:  *)
(* the arena agrees with the reference on everything observable and is  *)
(* actually faster; a speedup under the (deliberately conservative)     *)
(* floor means the flat hot path regressed.                             *)

(* Floor for the --check gate: the arena once had to beat the
   record-based levelized scheduler by 3x, and the reference fixpoint
   settled 2-3x slower than that scheduler (E9's own best-of-5
   measurement), so 3 x 2 = 6x over the reference kept the old floor at
   the low end of that ratio.  Since the reference evaluates the
   exported [Control] tables it settles about 1.2x slower (best-of runs
   of E9, quick and full mode), so the floor rose by that ratio to
   7.2x: the arena must stay as far ahead of the old reference as
   before.  Anything under it means the arena hot path regressed, not
   that the machine was busy. *)
let e9_floor = 7.2

let json_e9 ~cycles () =
  let measure mode net =
    (* Best of a few fresh engines: the minimum settle time is the one
       least polluted by scheduler noise on a loaded machine. *)
    let best = ref infinity in
    let keep = ref None in
    for _ = 1 to 5 do
      let eng = Engine.create ~monitor:false ~mode net in
      Engine.run eng cycles;
      let w = Profile.settle_seconds (Engine.profile eng) in
      if w < !best then best := w;
      keep := Some eng
    done;
    (Option.get !keep, !best)
  in
  let design (name, (d : Examples.design)) =
    let rf, tr = measure Engine.Reference d.Examples.d_net in
    let ar, ta = measure Engine.Arena d.Examples.d_net in
    let stream eng =
      Transfer.values (Engine.sink_stream eng d.Examples.d_sink)
    in
    let matches =
      List.equal Value.equal (stream rf) (stream ar)
      && Engine.same_future rf (Engine.snapshot ar)
    in
    let speedup = tr /. ta in
    ( [ ("design", Json.Str name);
        ("cycles", Json.Int cycles);
        ("reference_settle_seconds", Json.Float tr);
        ("arena_settle_seconds", Json.Float ta);
        ("reference_cycles_per_second", Json.Float (float_of_int cycles /. tr));
        ("arena_cycles_per_second", Json.Float (float_of_int cycles /. ta));
        ("arena_speedup", Json.Float speedup);
        ("arena_matches_reference", Json.Bool matches);
        ("speedup_ok", Json.Bool (speedup >= e9_floor)) ],
      claim matches "arena_matches_reference"
        "arena run diverged from the reference run"
      @ claim (speedup >= e9_floor) "speedup_ok"
          (Fmt.str "arena speedup below the %gx floor (%gx)" e9_floor
             speedup) )
  in
  let n = cycles / 2 in
  let designs, failed =
    entries "designs" design
      [ ("vl_speculative",
         Examples.vl_speculative
           ~ops:(Alu.operands ~error_rate_pct:5 ~seed:42 n));
        ("rs_speculative",
         Examples.rs_speculative
           ~ops:(Examples.rs_ops ~error_rate_pct:5 ~seed:5 n)) ]
  in
  record ~failed ~experiment:"E9" ~title:"arena backend settle speedup"
    [ designs ]

(* ------------------------------------------------------------------ *)
(* E13: compile scaling.  Netlist build ([Examples.lanes] of the E5     *)
(* speculative design, 16 channels a lane) and [Engine.create] at 256,  *)
(* 1024 and 4096 channels, in seconds and minor words per channel.  The *)
(* words depend on the OCaml version's stdlib as well as on the code,   *)
(* so the gate skips them and holds the ratio of total words per        *)
(* channel at 4096 to that at 256 under the bound: a per-port cost that *)
(* grows with the design shows there as a ratio far above 1.            *)

let e13_ratio_bound = 1.5

let json_e13 () =
  let base =
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:5 ~seed:42 97)).Examples.d_net
  in
  let timed f =
    let w0 = Gc.minor_words () in
    let t0 = Elastic_sim.Clock.monotonic () in
    let x = f () in
    let t1 = Elastic_sim.Clock.monotonic () in
    (x, Elastic_sim.Clock.seconds_between t0 t1, Gc.minor_words () -. w0)
  in
  let measure lanes =
    let net, build_s, build_w = timed (fun () -> Examples.lanes lanes base) in
    let _, create_s, create_w = timed (fun () -> Engine.create net) in
    let nchan = float_of_int (Netlist.channel_count net) in
    ((build_w +. create_w) /. nchan,
     [ ("lanes", Json.Int lanes);
       ("nodes", Json.Int (Netlist.node_count net));
       ("channels", Json.Int (Netlist.channel_count net));
       ("build_seconds", Json.Float build_s);
       ("create_seconds", Json.Float create_s);
       ("build_words_per_channel", Json.Float (build_w /. nchan));
       ("create_words_per_channel", Json.Float (create_w /. nchan)) ])
  in
  (* One lane first, so no size pays the process's first-use costs. *)
  ignore (measure 1);
  let sizes = List.map measure [ 16; 64; 256 ] in
  let words = List.map fst sizes in
  let ratio = List.nth words 2 /. List.hd words in
  let ok = ratio <= e13_ratio_bound in
  record
    ~failed:
      (claim ok "words_ratio_ok"
         (Fmt.str
            "words per channel at 4096 channels are %.2fx those at 256 \
             (bound %gx)"
            ratio e13_ratio_bound))
    ~experiment:"E13" ~title:"compile scaling: netlist build + Engine.create"
    [ ("design", Json.Str "vl_speculative lanes");
      ("sizes", Json.List (List.map (fun (_, f) -> Json.Obj f) sizes));
      ("words_per_channel_ratio", Json.Float ratio);
      ("ratio_bound", Json.Float e13_ratio_bound);
      ("words_ratio_ok", Json.Bool ok) ]

(* ------------------------------------------------------------------ *)
(* --check: the regression gate.  Reports the paper claims each record  *)
(* failed, then diffs each record against its committed baseline        *)
(* (bench/baselines/) with the shared Gate rules.  Any failure names    *)
(* the record, the metric path and the delta, and the process exits 1.  *)

(* Never raises: a vanished, unreadable or truncated baseline must fail
   the gate with a message naming the file, not an exception trace. *)
let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error m -> Error m

let check_mode ~dir records =
  let failures = ref 0 in
  let fail file path reason =
    incr failures;
    Fmt.epr "REGRESSION %s: %s: %s@." file path reason
  in
  List.iter
    (fun r ->
       List.iter (fun (path, reason) -> fail r.r_file path reason) r.r_failed)
    records;
  List.iter
    (fun r ->
       let bpath = Filename.concat dir r.r_file in
       if not (Sys.file_exists bpath) then
         fail r.r_file "(record)" (Fmt.str "no baseline at %s" bpath)
       else
         match Result.bind (read_file bpath) Json.parse with
         | Error m ->
           fail r.r_file "(record)"
             (Fmt.str "unreadable baseline %s: %s" bpath m)
         | Ok baseline ->
           List.iter
             (fun (d : Metr.Gate.diff) ->
                fail r.r_file d.Metr.Gate.d_path d.Metr.Gate.d_reason)
             (Metr.Gate.compare ~baseline ~current:r.r_json ()))
    records;
  if !failures = 0 then
    Fmt.pr "@.bench --check: OK (%d records match %s)@."
      (List.length records) dir
  else begin
    Fmt.epr "@.bench --check: %d regression(s) against %s@." !failures dir;
    exit 1
  end

(* Runs the experiments in order, writing each record as it is built. *)
let json_mode ~quick ~trace () =
  run_mode := (if quick then "quick" else "full");
  let n = if quick then 100 else 400 in
  List.map
    (fun build ->
       let r = build () in
       Json.write r.r_file r.r_json;
       Fmt.pr "wrote %s%s@." r.r_file
         (match r.r_reduction with
          | Some x -> Fmt.str " (eval reduction %.2fx)" x
          | None -> "");
       r)
    [ (fun () -> json_e1 (e1 ()));
      (fun () -> json_e2 (e2 ~cycles:n));
      (fun () -> json_e3 (e3 ()));
      (fun () ->
         json_e5 ~trace
           (e5 ~n ~pcts:(if quick then [ 0; 5; 20 ] else e5_rates)));
      (fun () ->
         json_e6 ~trace
           (e6 ~n ~pcts:(if quick then [ 0; 5; 25 ] else e6_rates)));
      (fun () -> json_e7 (e7 ()));
      (fun () -> json_e8 ~count:(if quick then 24 else 96) ());
      (fun () -> json_e9 ~cycles:(if quick then 4_000 else 20_000) ());
      (fun () -> json_e10 ~trace ~count:(if quick then 24 else 60) ());
      json_e13 ]

let () =
  let args = Array.to_list Sys.argv in
  let json = List.mem "--json" args in
  let quick = List.mem "--quick" args in
  let trace = List.mem "--trace" args in
  let check = List.mem "--check" args in
  let chaos = List.mem "--chaos" args in
  let baselines =
    let rec find = function
      | "--baselines" :: dir :: _ -> dir
      | _ :: rest -> find rest
      | [] -> "bench/baselines"
    in
    find args
  in
  if chaos then chaos_mode ~quick ()
  else if json || check then begin
    let records = json_mode ~quick ~trace () in
    if check then check_mode ~dir:baselines records
  end
  else begin
    Fmt.pr
      "Reproduction harness for \"Speculation in Elastic Systems\" (DAC \
       2009)@.";
    print_e1 (e1 ());
    print_e2 (e2 ~cycles:400);
    print_e3 (e3 ());
    print_e5 (e5 ~n:400 ~pcts:e5_rates);
    print_e6 (e6 ~n:400 ~pcts:e6_rates);
    print_e7 (e7 ());
    a1_recovery ();
    a2_schedulers ();
    a3_branch_prediction ();
    bechamel_suite ();
    Fmt.pr "@.done.@."
  end

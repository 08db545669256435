open Elastic_kernel
open Elastic_netlist
open Elastic_sched
open Elastic_core
open Elastic_lint
open Helpers

let codes (report : Lint.report) =
  List.sort_uniq compare
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) report.Lint.diags)

let render_diags ds =
  String.concat "; " (List.map Diagnostic.to_string ds)

(* ------------------------------------------------------------------ *)
(* Corpus: every bundled design must be error- and warning-free (infos
   are opportunities, not problems — fig1a legitimately reports I200).  *)

let corpus () =
  let ops = Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 60 in
  let rs = Examples.rs_ops ~error_rate_pct:10 ~seed:1 60 in
  [ ("fig1a", (Figures.fig1a ()).Figures.net);
    ("fig1b", (Figures.fig1b ()).Figures.net);
    ("fig1c", (Figures.fig1c ()).Figures.net);
    ("fig1d", (Figures.fig1d ()).Figures.net);
    ("table1", (Figures.table1 ()).Figures.t1_net);
    ("vl-stalling", (Examples.vl_stalling ~ops).Examples.d_net);
    ("vl-speculative", (Examples.vl_speculative ~ops).Examples.d_net);
    ("rs-nonspec", (Examples.rs_nonspeculative ~ops:rs).Examples.d_net);
    ("rs-spec", (Examples.rs_speculative ~ops:rs).Examples.d_net);
    ("rs-alarmed",
     (fst (Examples.rs_speculative_alarmed ~ops:rs)).Examples.d_net) ]

let corpus_suite =
  [ Alcotest.test_case "no false positives on the bundled designs" `Quick
      (fun () ->
         List.iter
           (fun (name, net) ->
              let report = Lint.run net in
              Alcotest.(check string)
                (name ^ " errors") ""
                (render_diags (Lint.errors report));
              Alcotest.(check string)
                (name ^ " warnings") ""
                (render_diags (Lint.warnings report)))
           (corpus ()));
    Alcotest.test_case "the figures report their speculation structure"
      `Quick (fun () ->
          let lint name = Lint.run (List.assoc name (corpus ())) in
          Alcotest.(check (list string)) "fig1a" [ "I200" ]
            (codes (lint "fig1a"));
          Alcotest.(check (list string)) "fig1c" [ "I201" ]
            (codes (lint "fig1c"));
          Alcotest.(check (list string)) "fig1d" [ "I201"; "I202" ]
            (codes (lint "fig1d")));
    Alcotest.test_case "plain-EB recovery buffers trigger W104" `Quick
      (fun () ->
         (* The §4.1 bottleneck configuration: anti-tokens crawl back
            through Lb=1 buffers. *)
         let ops = Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 60 in
         let net =
           (Examples.vl_speculative_with ~recovery:Netlist.Eb ~ops)
             .Examples.d_net
         in
         let report = Lint.run net in
         Alcotest.(check bool) "W104 fires" true
           (List.mem "W104" (codes report));
         Alcotest.(check string) "still no errors" ""
           (render_diags (Lint.errors report))) ]

(* ------------------------------------------------------------------ *)
(* Mutations: breaking exactly one invariant triggers exactly one rule. *)

let mutation_suite =
  [ Alcotest.test_case "the mutation base design is lint-clean" `Quick
      (fun () ->
         let net, _, _, _, _, _ = Mutate.base () in
         Alcotest.(check (list string)) "codes" [] (codes (Lint.run net)));
    Alcotest.test_case "every mutation triggers exactly its rule" `Quick
      (fun () ->
         List.iter
           (fun (m : Mutate.t) ->
              let report = Lint.run (m.Mutate.m_net ()) in
              Alcotest.(check (list string))
                (Fmt.str "%s (%s)" m.Mutate.m_name m.Mutate.m_describe)
                [ m.Mutate.m_code ] (codes report))
           Mutate.catalogue);
    Alcotest.test_case "one mutation per registry rule" `Quick (fun () ->
        Alcotest.(check (list string)) "codes"
          (List.sort compare
             (List.map (fun (r : Lint.rule) -> r.Lint.code) Lint.registry))
          (List.sort compare
             (List.map (fun (m : Mutate.t) -> m.Mutate.m_code)
                Mutate.catalogue)));
    Alcotest.test_case "seeded sampling is reproducible" `Quick (fun () ->
        let names l = List.map (fun (m : Mutate.t) -> m.Mutate.m_name) l in
        Alcotest.(check (list string)) "same seed, same campaign"
          (names (Mutate.random ~seed:42 ~count:10))
          (names (Mutate.random ~seed:42 ~count:10)));
    Alcotest.test_case "structural errors gate the graph rules" `Quick
      (fun () ->
         (* A net that is both structurally broken and cyclic: only the
            structural codes may appear. *)
         let m102 =
           List.find
             (fun (m : Mutate.t) -> m.Mutate.m_code = "E102")
             Mutate.catalogue
         in
         let net = m102.Mutate.m_net () in
         let net =
           match Netlist.channels net with
           | c :: _ -> Netlist.remove_channel net c.Netlist.ch_id
           | [] -> assert false
         in
         let report = Lint.run net in
         Alcotest.(check bool) "gated" true report.Lint.gated;
         Alcotest.(check (list string)) "structural only" [ "E001" ]
           (codes report));
    Alcotest.test_case "only/disable select rules by code or slug" `Quick
      (fun () ->
         let m =
           List.find
             (fun (m : Mutate.t) -> m.Mutate.m_code = "W104")
             Mutate.catalogue
         in
         let net = m.Mutate.m_net () in
         Alcotest.(check (list string)) "only by slug" [ "W104" ]
           (codes (Lint.run ~only:[ "antitoken-through-eb" ] net));
         Alcotest.(check (list string)) "disabled" []
           (codes (Lint.run ~disable:[ "W104" ] net))) ]

(* ------------------------------------------------------------------ *)
(* Transform prechecks: illegal applications fail with a typed code.   *)

let expect_reject code (f : unit -> unit) =
  match f () with
  | () -> Alcotest.failf "expected a %s rejection" code
  | exception Diagnostic.Reject d ->
    Alcotest.(check string) "rule code" code d.Diagnostic.code

(* src -> inc -> EB(100) -> dbl -> sink *)
let fix () =
  let b = builder () in
  let s = src_counter b () in
  let f = add b ~name:"inc" (Func (Func.inc ~step:1 ())) in
  let e = eb b ~name:"mid" ~init:[ Value.Int 100 ] () in
  let g = add b ~name:"dbl" (Func (Func.inc ~step:2 ())) in
  let k = sink b () in
  let _ = conn b (s, Out 0) (f, In 0) in
  let c2 = conn b (f, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (g, In 0) in
  let _ = conn b (g, Out 0) (k, In 0) in
  (b.net, f, e, g, c2)

let mux_to_sink () =
  let b = builder () in
  let sel = src_counter b () in
  let s0 = src_counter b () in
  let s1 = src_counter b () in
  let m = add b ~name:"m" (Mux { ways = 2; early = false }) in
  let k = sink b () in
  let _ = conn b (sel, Out 0) (m, Sel) in
  let _ = conn b (s0, Out 0) (m, In 0) in
  let _ = conn b (s1, Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (k, In 0) in
  (b.net, m)

let precheck_suite =
  [ Alcotest.test_case "E301: fifo depth < 1" `Quick (fun () ->
        let net, _, _, _, c2 = fix () in
        expect_reject "E301" (fun () ->
            ignore (Transform.insert_fifo net ~channel:c2 ~depth:0)));
    Alcotest.test_case "E302: removing a full buffer" `Quick (fun () ->
        let net, _, e, _, _ = fix () in
        expect_reject "E302" (fun () ->
            ignore (Transform.remove_buffer net e)));
    Alcotest.test_case "E303: conversion drops tokens" `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb b ~init:[ Value.Int 1; Value.Int 2 ] () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        expect_reject "E303" (fun () ->
            ignore (Transform.convert_buffer b.net e Eb0)));
    Alcotest.test_case "E304: retime_forward without input buffers" `Quick
      (fun () ->
         let net, f, _, _, _ = fix () in
         expect_reject "E304" (fun () ->
             ignore (Transform.retime_forward net ~through:f)));
    Alcotest.test_case "E305: retime_backward without an output buffer"
      `Quick (fun () ->
          let net, _, _, g, _ = fix () in
          expect_reject "E305" (fun () ->
              ignore (Transform.retime_backward net ~through:g)));
    Alcotest.test_case "E306: shannon needs a unary block after the mux"
      `Quick (fun () ->
          let net, m = mux_to_sink () in
          expect_reject "E306" (fun () ->
              ignore (Transform.shannon net ~mux:m)));
    Alcotest.test_case "E307: early evaluation of a non-mux" `Quick
      (fun () ->
         let net, f, _, _, _ = fix () in
         expect_reject "E307" (fun () ->
             ignore (Transform.early_evaluation net ~mux:f)));
    Alcotest.test_case "E308: share needs two identical unary blocks"
      `Quick (fun () ->
          let net, f, _, g, _ = fix () in
          expect_reject "E308" (fun () ->
              ignore
                (Transform.share net ~blocks:[ f ] ~sched:Scheduler.Sticky));
          expect_reject "E308" (fun () ->
              ignore
                (Transform.share net ~blocks:[ f; g ]
                   ~sched:Scheduler.Sticky)));
    Alcotest.test_case "prechecks are pure (netlist unchanged on reject)"
      `Quick (fun () ->
          let net, _, e, _, _ = fix () in
          (try ignore (Transform.remove_buffer net e)
           with Diagnostic.Reject _ -> ());
          Netlist.validate_exn net;
          match (Netlist.node net e).Netlist.kind with
          | Buffer { init = [ Value.Int 100 ]; _ } -> ()
          | _ -> Alcotest.fail "buffer changed by a rejected transform") ]

(* ------------------------------------------------------------------ *)
(* Fix-its: machine-applicable suggestions actually repair the design. *)

let mutated code =
  (List.find (fun (m : Mutate.t) -> m.Mutate.m_code = code)
     Mutate.catalogue)
    .Mutate.m_net ()

let fixit_suite =
  [ Alcotest.test_case "E101 fix-it: eb0 over capacity becomes an eb"
      `Quick (fun () ->
          let b = builder () in
          let s = src_counter b () in
          let e = eb0 b ~init:[ Value.Int 1; Value.Int 2 ] () in
          let k = sink b () in
          let _ = conn b (s, Out 0) (e, In 0) in
          let _ = conn b (e, Out 0) (k, In 0) in
          let report = Lint.run b.net in
          Alcotest.(check (list string)) "found" [ "E101" ] (codes report);
          let net', n = Lint.apply_fixes b.net report in
          Alcotest.(check int) "one fix" 1 n;
          Alcotest.(check (list string)) "clean after fix" []
            (codes (Lint.run net')));
    Alcotest.test_case
      "E102 fix-it inserts a bubble; E103 fix-it seeds a token" `Quick
      (fun () ->
         (* Fixing the combinational cycle yields a token-free one; the
            second fix makes the loop live — rule by rule to clean. *)
         let net = mutated "E102" in
         let report = Lint.run net in
         let net, n = Lint.apply_fixes net report in
         Alcotest.(check int) "bubble inserted" 1 n;
         let report = Lint.run net in
         Alcotest.(check (list string)) "now token-free" [ "E103" ]
           (codes report);
         let net, n = Lint.apply_fixes net report in
         Alcotest.(check int) "token seeded" 1 n;
         Alcotest.(check (list string)) "clean" [] (codes (Lint.run net)));
    Alcotest.test_case "W104 fix-it converts the recovery buffer to eb0"
      `Quick (fun () ->
          let net = mutated "W104" in
          let report = Lint.run net in
          let net', n = Lint.apply_fixes net report in
          Alcotest.(check int) "one fix" 1 n;
          Alcotest.(check (list string)) "clean" []
            (codes (Lint.run net'))) ]

(* ------------------------------------------------------------------ *)
(* Differential: lint-clean random netlists are accepted by Explore.   *)

type shape = Pipe of int list | Diamond of { early : bool; buf : int }

let build_shape = function
  | Pipe stages ->
    let b = builder () in
    let s = src_stream b [ 1; 2; 3 ] in
    let prev =
      List.fold_left
        (fun prev sel ->
           let n =
             match sel with
             | 0 -> add b (Func (Func.inc ~step:1 ()))
             | 1 -> eb b ~init:[ Value.Int 9 ] ()
             | _ -> eb0 b ()
           in
           let _ = conn b (prev, Out 0) (n, In 0) in
           n)
        s stages
    in
    let k = sink b () in
    let _ = conn b (prev, Out 0) (k, In 0) in
    b.net
  | Diamond { early; buf } ->
    let b = builder () in
    (* Same length as the data streams: a plain mux joins sel with both
       inputs, so a leftover select token would pend forever. *)
    let sel = src_stream b [ 0; 1; 1 ] in
    let s0 = src_stream b [ 1; 2; 3 ] in
    let s1 = src_stream b [ 4; 5; 6 ] in
    let m = add b (Mux { ways = 2; early }) in
    let k = sink b () in
    let _ = conn b (sel, Out 0) (m, Sel) in
    let _ = conn b (s0, Out 0) (m, In 0) in
    let _ = conn b (s1, Out 0) (m, In 1) in
    let tail =
      match buf with
      | 0 -> m
      | 1 ->
        let e = eb b () in
        let _ = conn b (m, Out 0) (e, In 0) in
        e
      | _ ->
        let e = eb0 b () in
        let _ = conn b (m, Out 0) (e, In 0) in
        e
    in
    let _ = conn b (tail, Out 0) (k, In 0) in
    b.net

let print_shape = function
  | Pipe stages ->
    Fmt.str "pipe [%a]" Fmt.(list ~sep:comma int) stages
  | Diamond { early; buf } -> Fmt.str "diamond early=%b buf=%d" early buf

let gen_shape =
  QCheck.Gen.(
    oneof
      [ map (fun l -> Pipe l) (list_size (int_range 0 6) (int_range 0 2));
        map2 (fun early buf -> Diamond { early; buf }) bool (int_range 0 2)
      ])

let differential_props =
  let open QCheck in
  [ Test.make
      ~name:"qcheck: lint-clean random netlists are accepted by Explore"
      ~count:40
      (make ~print:print_shape gen_shape)
      (fun shape ->
         let net = build_shape shape in
         let report = Lint.run net in
         Lint.errors report = []
         && Lint.warnings report = []
         &&
         let o = Elastic_check.Explore.explore net in
         o.Elastic_check.Explore.complete
         && o.Elastic_check.Explore.protocol_violations = []
         && o.Elastic_check.Explore.deadlock_states = []) ]

(* ------------------------------------------------------------------ *)
(* Engine and Explore carry the static diagnosis.                      *)

let integration_suite =
  [ Alcotest.test_case "Engine.create tags structural failures with E001"
      `Quick (fun () ->
          let b = builder () in
          let s = src_counter b () in
          let f = add b (Func (Func.inc ~step:1 ())) in
          let _ = conn b (s, Out 0) (f, In 0) in
          match Elastic_sim.Engine.create b.net with
          | _ -> Alcotest.fail "expected a structural failure"
          | exception Elastic_sim.Engine.Simulation_error e ->
            Alcotest.(check (option string)) "code" (Some "E001")
              e.Elastic_sim.Engine.err_code);
    Alcotest.test_case "runtime combinational cycles are tagged E102"
      `Quick (fun () ->
          let net = mutated "E102" in
          match
            let eng = Elastic_sim.Engine.create net in
            Elastic_sim.Engine.run eng 2
          with
          | () -> Alcotest.fail "expected a combinational-cycle failure"
          | exception Elastic_sim.Engine.Simulation_error e ->
            Alcotest.(check (option string)) "code" (Some "E102")
              e.Elastic_sim.Engine.err_code);
    Alcotest.test_case "over-capacity buffers are rejected with E101"
      `Quick (fun () ->
          let net = mutated "E101" in
          match Elastic_sim.Engine.create net with
          | _ -> Alcotest.fail "expected an over-capacity failure"
          | exception Elastic_sim.Engine.Simulation_error e ->
            let overfilled =
              List.find
                (fun (n : Netlist.node) ->
                   match n.Netlist.kind with
                   | Netlist.Buffer { buffer; init } ->
                     List.length init > Netlist.buffer_capacity buffer
                   | _ -> false)
                (Netlist.nodes net)
            in
            Alcotest.(check (option string)) "code" (Some "E101")
              e.Elastic_sim.Engine.err_code;
            Alcotest.(check (option int)) "node" (Some overfilled.Netlist.id)
              e.Elastic_sim.Engine.err_node;
            Alcotest.(check int) "cycle" 0 e.Elastic_sim.Engine.err_cycle);
    Alcotest.test_case "engine-quoted codes exist in the lint registry"
      `Quick (fun () ->
          (* engine.ml cannot depend on the lint library, so it quotes
             rule codes as strings; keep them honest. *)
          List.iter
            (fun code ->
               match Lint.find_rule code with
               | Some r -> Alcotest.(check string) code code r.Lint.code
               | None -> Alcotest.failf "code %s not in the registry" code)
            [ "E001"; "E002"; "E003"; "E004"; "E101"; "E102" ]);
    Alcotest.test_case "Explore hints at the static cause of a deadlock"
      `Quick (fun () ->
          (* join whose second input loops through an empty buffer:
             statically a token-free cycle (E103), dynamically a
             deadlock. *)
          let b = builder () in
          let s = src_stream b [ 1 ] in
          let j = add b (Func (Func.add_int ~arity:2 ())) in
          let e = eb b () in
          let fk = add b (Fork 2) in
          let k = sink b () in
          let _ = conn b (s, Out 0) (j, In 0) in
          let _ = conn b (e, Out 0) (j, In 1) in
          let _ = conn b (j, Out 0) (fk, In 0) in
          let _ = conn b (fk, Out 0) (e, In 0) in
          let _ = conn b (fk, Out 1) (k, In 0) in
          let o = Elastic_check.Explore.explore b.net in
          Alcotest.(check bool) "hints include E103" true
            (List.exists
               (fun h -> Helpers.contains h "E103")
               o.Elastic_check.Explore.static_hints);
          Alcotest.(check bool) "explore finds the deadlock" true
            (o.Elastic_check.Explore.deadlock_states <> []));
    Alcotest.test_case "clean designs explore with no hints" `Quick
      (fun () ->
         let net = build_shape (Pipe [ 0; 1 ]) in
         let o = Elastic_check.Explore.explore net in
         Alcotest.(check (list string)) "no hints" []
           o.Elastic_check.Explore.static_hints) ]

(* ------------------------------------------------------------------ *)
(* Shell command and JSONL report.                                     *)

let exec s line =
  match Shell.execute s line with
  | Ok out -> out
  | Error m -> Alcotest.failf "command %S failed: %s" line m

let expect_error s line =
  match Shell.execute s line with
  | Ok out -> Alcotest.failf "command %S unexpectedly succeeded: %s" line out
  | Error m -> m

let shell_suite =
  [ Alcotest.test_case "lint needs a design" `Quick (fun () ->
        let s = Shell.create () in
        let m = expect_error s "lint" in
        Alcotest.(check bool) "mentions load" true
          (Helpers.contains m "load"));
    Alcotest.test_case "lint reports fig1a's speculation candidate" `Quick
      (fun () ->
         let s = Shell.create () in
         let _ = exec s "load fig1a" in
         let out = exec s "lint" in
         Alcotest.(check bool) "I200" true (Helpers.contains out "I200"));
    Alcotest.test_case "single-rule runs by code and slug" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1a" in
        Alcotest.(check bool) "by code" true
          (Helpers.contains (exec s "lint E103") "clean");
        Alcotest.(check bool) "by slug" true
          (Helpers.contains (exec s "lint token-free-cycle") "clean");
        let m = expect_error s "lint no-such-rule" in
        Alcotest.(check bool) "unknown rule" true
          (Helpers.contains m "unknown lint rule"));
    Alcotest.test_case "lint --fix has nothing to do on a clean design"
      `Quick (fun () ->
          let s = Shell.create () in
          let _ = exec s "load fig1a" in
          let m = expect_error s "lint --fix" in
          Alcotest.(check bool) "no fixes" true
            (Helpers.contains m "no machine-applicable fixes"));
    Alcotest.test_case "rejected transforms surface the rule code" `Quick
      (fun () ->
         let s = Shell.create () in
         let _ = exec s "load fig1a" in
         let m = expect_error s "shannon out" in
         Alcotest.(check bool) "E306 in the error" true
           (Helpers.contains m "E306"));
    Alcotest.test_case "lint jsonl writes the v1 schema" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1d" in
        let path = Filename.temp_file "lint" ".jsonl" in
        let _ = exec s (Fmt.str "lint jsonl %s" path) in
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove path;
        let lines = List.rev !lines in
        let open Elastic_metrics.Json in
        let parse_exn line =
          match parse line with
          | Ok j -> j
          | Error e -> Alcotest.failf "unparseable JSONL line %S: %s" line e
        in
        match lines with
        | header :: diags ->
          let h = parse_exn header in
          Alcotest.(check string) "schema" "elastic-speculation/lint/v1"
            (match member "schema" h with Some (Str s) -> s | _ -> "?");
          Alcotest.(check string) "design" "fig1d"
            (match member "design" h with Some (Str s) -> s | _ -> "?");
          Alcotest.(check int) "one line per diagnostic"
            (match member "infos" h with Some (Int n) -> n | _ -> -1)
            (List.length diags);
          List.iter
            (fun line ->
               match member "code" (parse_exn line) with
               | Some (Str _) -> ()
               | _ -> Alcotest.fail "diagnostic line without a code")
            diags
        | [] -> Alcotest.fail "empty JSONL report") ]

(* ------------------------------------------------------------------ *)
(* A hinted shared module whose hint comes from its own way-0 output,
   through a fork and an identity: way 0's F half reads the hint, so the
   loop is combinational.  Lint and [Engine.create] ask the same half
   graph and name the same channels. *)

let hint_loop () =
  let b = builder () in
  let m =
    add b ~name:"m"
      (Shared
         { ways = 2; f = Func.identity (); sched = Scheduler.Hinted_replay;
           hinted = true })
  in
  let fk = add b ~name:"fk" (Fork 2) in
  let g = add b ~name:"g" (Func (Func.identity ())) in
  let _ = conn b (src_stream b ~name:"s0" [ 0; 1; 0; 1 ], Out 0) (m, In 0) in
  let _ = conn b (src_stream b ~name:"s1" [ 5; 6; 7 ], Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (fk, In 0) in
  let _ = conn b (fk, Out 0) (sink b ~name:"k0" (), In 0) in
  let _ = conn b (fk, Out 1) (g, In 0) in
  let _ = conn b (g, Out 0) (m, Sel) in
  let _ = conn b (m, Out 1) (sink b ~name:"k1" (), In 0) in
  b.net

let hint_loop_suite =
  [ Alcotest.test_case "a hint fed from its own way is E102 for lint and create"
      `Quick (fun () ->
          let net = hint_loop () in
          Alcotest.(check string) "lint"
            "E102 error [channel 2 m.out0->fk.in0]: cycle broken by no EB \
             (Lf=1, Lb=1): the loop is combinational (no elastic buffer \
             registers it): m.out0->fk.in0 -> fk.out1->g.in0 -> \
             g.out0->m.sel (fix: insert an empty EB on channel 2)"
            (render_diags (Lint.run ~only:[ "E102" ] net).Lint.diags);
          match Elastic_sim.Engine.create net with
          | _ -> Alcotest.fail "expected create to refuse the hint loop"
          | exception Elastic_sim.Engine.Simulation_error e ->
            Alcotest.(check string) "create"
              "cycle 0 [E102], node 0, channel 2: combinational cycle, \
               undetermined channels: m.out0->fk.in0, fk.out1->g.in0, \
               g.out0->m.sel"
              (Elastic_sim.Engine.error_to_string e)) ]

let suite =
  corpus_suite @ mutation_suite @ precheck_suite @ fixit_suite
  @ integration_suite @ shell_suite
  @ List.map QCheck_alcotest.to_alcotest differential_props
  @ hint_loop_suite

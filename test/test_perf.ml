open Elastic_kernel
open Elastic_netlist
open Elastic_perf
open Helpers

(* A self-loop through [n_ebs] buffers holding [tokens] total, plus an
   observation fork to a sink. *)
let loop ~tokens ~n_ebs =
  assert (n_ebs >= 1 && tokens <= n_ebs * 2);
  let b = builder () in
  let f = add b (Func (Func.inc ~step:1 ())) in
  let fk = add b (Fork 2) in
  let k = sink b () in
  let rec chain prev i remaining =
    if i = n_ebs then prev
    else begin
      let take = min 2 remaining in
      let e =
        eb b ~init:(List.init take (fun j -> Value.Int j)) ()
      in
      let _ = conn b (prev, Out 0) (e, In 0) in
      chain e (i + 1) (remaining - take)
    end
  in
  let last = chain f 0 tokens in
  let _ = conn b (last, Out 0) (fk, In 0) in
  let _ = conn b (fk, Out 0) (f, In 0) in
  let _ = conn b (fk, Out 1) (k, In 0) in
  (b.net, k)

let suite =
  [ Alcotest.test_case "feed-forward pipelines have bound 1" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e1 = eb b () in
         let e2 = eb b ~init:[ Value.Int 0 ] () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e1, In 0) in
         let _ = conn b (e1, Out 0) (e2, In 0) in
         let _ = conn b (e2, Out 0) (k, In 0) in
         Alcotest.(check (float 1e-9)) "bound" 1.0
           (Marked_graph.throughput_bound b.net));
    Alcotest.test_case "bound equals tokens/latency on simple loops"
      `Quick (fun () ->
        List.iter
          (fun (tokens, n_ebs) ->
             let net, _ = loop ~tokens ~n_ebs in
             let expected =
               min 1.0 (float_of_int tokens /. float_of_int n_ebs)
             in
             Alcotest.(check (float 1e-6))
               (Fmt.str "%d tokens / %d EBs" tokens n_ebs)
               expected
               (Marked_graph.throughput_bound net))
          [ (1, 1); (1, 2); (1, 3); (2, 3); (2, 4); (3, 4); (2, 2) ]);
    Alcotest.test_case "simulated throughput matches the bound on loops"
      `Quick (fun () ->
        List.iter
          (fun (tokens, n_ebs) ->
             let net, k = loop ~tokens ~n_ebs in
             let eng = run_net ~cycles:240 net in
             check_no_violations eng;
             let measured = Elastic_sim.Engine.throughput eng k in
             let bound = Marked_graph.throughput_bound net in
             Alcotest.(check bool)
               (Fmt.str "%d/%d: %.3f vs bound %.3f" tokens n_ebs measured
                  bound)
               true
               (abs_float (measured -. bound) < 0.05))
          [ (1, 1); (1, 2); (2, 3); (1, 4) ]);
    Alcotest.test_case "critical cycle reports the right ratio" `Quick
      (fun () ->
        let net, _ = loop ~tokens:1 ~n_ebs:3 in
        match Marked_graph.critical_cycle net with
        | Some c ->
          Alcotest.(check int) "tokens" 1 c.Marked_graph.tokens;
          Alcotest.(check int) "latency" 3 c.Marked_graph.latency;
          Alcotest.(check (float 1e-6)) "ratio" (1.0 /. 3.0)
            c.Marked_graph.ratio
        | None -> Alcotest.fail "no cycle found");
    Alcotest.test_case "zero-latency cycle rejected" `Quick (fun () ->
        (* A purely combinational loop: F -> fork -> F. *)
        let b = builder () in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let fk = add b (Fork 2) in
        let s = src_counter b () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (f, In 0) in
        let _ = conn b (f, Out 0) (fk, In 0) in
        let _ = conn b (fk, Out 0) (f, In 1) in
        let _ = conn b (fk, Out 1) (k, In 0) in
        Alcotest.(check bool) "raises typed E102" true
          (try
             ignore (Marked_graph.throughput_bound b.net);
             false
           with Elastic_netlist.Diagnostic.Reject d ->
             String.equal d.Elastic_netlist.Diagnostic.code "E102"));
    Alcotest.test_case "effective cycle time = cycle time / bound" `Quick
      (fun () ->
        let net, _ = loop ~tokens:1 ~n_ebs:2 in
        let ct = Timing.cycle_time net in
        Alcotest.(check (float 1e-6)) "eff" (ct /. 0.5)
          (Marked_graph.effective_cycle_time net));
    Alcotest.test_case "varlat counts as one cycle of latency" `Quick
      (fun () ->
        (* source -> varlat -> sink has no cycle: bound 1. *)
        let b = builder () in
        let s = src_counter b () in
        let v =
          add b
            (Varlat
               { fast = Func.inc ~step:0 (); slow = Func.inc ~step:0 ();
                 err = Func.make ~name:"never" ~arity:1 ~delay:0.1
                     ~area:1.0 (fun _ -> Value.Int 0) })
        in
        let k = sink b () in
        let _ = conn b (s, Out 0) (v, In 0) in
        let _ = conn b (v, Out 0) (k, In 0) in
        Alcotest.(check (float 1e-9)) "bound" 1.0
          (Marked_graph.throughput_bound b.net));
    Alcotest.test_case "an Eb0 ring is E102 for every analysis" `Quick
      (fun () ->
        (* Its forward path holds a token, but stop crosses both Eb0s,
           the adder and the fork in zero cycles (Fig. 5). *)
        let b = builder () in
        let e1 = eb0 b ~name:"e1" ~init:[ Value.Int 0 ] () in
        let e2 = eb0 b ~name:"e2" () in
        let a = add b ~name:"add" (Func (Func.add_int ~arity:2 ())) in
        let fk = add b ~name:"fork" (Fork 2) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (a, In 0) in
        let _ = conn b (src_counter b (), Out 0) (a, In 1) in
        let _ = conn b (a, Out 0) (fk, In 0) in
        let _ = conn b (fk, Out 0) (e1, In 0) in
        let _ = conn b (fk, Out 1) (sink b (), In 0) in
        let net = b.net in
        let lint =
          List.filter
            (fun (d : Diagnostic.t) -> d.Diagnostic.code = "E102")
            (Elastic_lint.Lint.run net).Elastic_lint.Lint.diags
        in
        let d =
          match lint with
          | [ d ] -> d
          | ds -> Alcotest.failf "lint: %d E102 findings" (List.length ds)
        in
        Alcotest.(check bool) "lint: the backward stop/kill path" true
          (Helpers.contains d.Diagnostic.message "backward stop/kill path");
        Alcotest.(check (option string)) "create" (Some "E102")
          (match Elastic_sim.Engine.create net with
           | _ -> None
           | exception Elastic_sim.Engine.Simulation_error e ->
             e.Elastic_sim.Engine.err_code);
        Alcotest.(check (result reject string)) "Timing"
          (Error d.Diagnostic.message) (Timing.analyze net);
        List.iter
          (fun (what, f) ->
             Alcotest.(check (option string)) what (Some "E102")
               (match f net with
                | () -> None
                | exception Diagnostic.Reject d -> Some d.Diagnostic.code))
          [ ("throughput_bound",
             fun n -> ignore (Marked_graph.throughput_bound n));
            ("critical_cycle", fun n -> ignore (Marked_graph.critical_cycle n))
          ]);
    Alcotest.test_case "cycle times and bounds of the bundled designs" `Quick
      (fun () ->
        (* Forward delay, backward delay, cycle time and throughput
           bound; the paper's tables print these. *)
        let expected =
          [ ("fig1a", 10.9, 1.2, 11.9, 1.0);
            ("fig1b", 5.6, 0.9, 6.6, 0.5);
            ("fig1c", 6.8, 1.1, 7.8, 1.0);
            ("fig1d", 8.0, 2.0, 9.0, 1.0);
            ("table1", 8.0, 2.0, 9.0, 1.0);
            ("vl-stalling", 1.8, 0.3, 12.8, 1.0);
            ("vl-speculative", 10.6, 3.7, 11.6, 1.0);
            ("rs-nonspec", 8.3, 0.3, 9.3, 1.0);
            ("rs-spec", 17.4, 3.7, 18.4, 1.0);
            ("rs-alarmed", 17.4, 3.7, 18.4, 1.0);
            ("fig1b source", 10.9, 1.2, 11.9, 1.0);
            ("fig1b derived", 5.6, 0.9, 6.6, 0.5);
            ("fig1c source", 10.9, 1.2, 11.9, 1.0);
            ("fig1c derived", 6.8, 1.1, 7.8, 1.0);
            ("fig1d source", 10.9, 1.2, 11.9, 1.0);
            ("fig1d derived", 8.0, 2.0, 9.0, 1.0);
            ("vl-slack source", 10.6, 3.7, 11.6, 1.0);
            ("vl-slack derived", 10.6, 3.7, 11.6, 1.0);
            ("rs-slack source", 17.4, 3.7, 18.4, 1.0);
            ("rs-slack derived", 17.4, 4.5, 18.4, 1.0);
            ("pc_loop", 12.9, 1.2, 13.9, 1.0) ]
        in
        let open Elastic_core in
        let designs =
          List.map (fun (name, mk) -> (name, mk ())) Shell.designs
          @ List.concat_map
              (fun (c : Derivations.chain) ->
                 [ (c.Derivations.c_name ^ " source", c.Derivations.c_source);
                   (c.Derivations.c_name ^ " derived",
                    c.Derivations.c_derived) ])
              (Derivations.all ())
          @ [ ("pc_loop", (Examples.pc_loop ()).Examples.pl_net) ]
        in
        Alcotest.(check (list string)) "designs"
          (List.map (fun (name, _, _, _, _) -> name) expected)
          (List.map fst designs);
        List.iter2
          (fun (name, fwd, bwd, ct, bound) (_, net) ->
             match Timing.analyze net with
             | Error m -> Alcotest.failf "%s: %s" name m
             | Ok r ->
               Alcotest.(check (list (float 1e-9))) name
                 [ fwd; bwd; ct; bound ]
                 [ r.Timing.forward_delay; r.Timing.backward_delay;
                   r.Timing.cycle_time; Marked_graph.throughput_bound net ])
          expected designs) ]

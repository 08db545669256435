open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_sim
open Helpers

(* Edge cases and generalizations beyond the 2-way examples of the
   paper: 3-way multiplexors and shared modules, anti-token capacity
   limits, and the engine's introspection API. *)

let three_way_mux () =
  let b = builder () in
  let sel = src_stream b [ 0; 1; 2; 2; 0 ] in
  let s0 = add b (Source (Counter { start = 0; step = 3 })) in
  let s1 = add b (Source (Counter { start = 1; step = 3 })) in
  let s2 = add b (Source (Counter { start = 2; step = 3 })) in
  let m = add b (Mux { ways = 3; early = true }) in
  let k = sink b () in
  let _ = conn b (sel, Out 0) (m, Sel) in
  let _ = conn b (s0, Out 0) (m, In 0) in
  let _ = conn b (s1, Out 0) (m, In 1) in
  let _ = conn b (s2, Out 0) (m, In 2) in
  let _ = conn b (m, Out 0) (k, In 0) in
  (b.net, k)

let suite =
  [ Alcotest.test_case "3-way early mux kills both losers" `Quick
      (fun () ->
         let net, k = three_way_mux () in
         let eng = run_net ~cycles:30 net in
         check_no_violations eng;
         (* fire i picks stream sel_i: value 3*i + sel_i *)
         Alcotest.(check (list value)) "selected"
           (ints [ 0; 4; 8; 11; 12 ])
           (sink_values eng k));
    Alcotest.test_case "EB refuses a third anti-token (S- capacity)"
      `Quick (fun () ->
        (* Drive anti-tokens into an EB whose upstream can't absorb them:
           a stalled-source EB chain; inject kills via an early mux that
           keeps firing the other channel. *)
        let b = builder () in
        let sel = src_stream b [ 0; 0; 0; 0; 0 ] in
        let s0 = src_stream b [ 1; 2; 3; 4; 5 ] in
        (* channel 1 produces nothing, behind two EBs: anti-tokens pile
           up inside them. *)
        let s1 = add b (Source (Stream [])) in
        let e1 = eb b () in
        let e2 = eb b () in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        Engine.run eng 40;
        (* All five kills are eventually absorbed by the empty source;
           the stream flows; EB occupancies are anti-tokens (negative)
           within capacity. *)
        Alcotest.(check (list value)) "stream" (ints [ 1; 2; 3; 4; 5 ])
          (sink_values eng k);
        List.iter
          (fun (_, n) ->
             Alcotest.(check bool) "within [-2,0]" true (n >= -2 && n <= 0))
          (Engine.occupancies eng));
    Alcotest.test_case "killed counter sees cancellations" `Quick
      (fun () ->
        let b = builder () in
        let sel = src_stream b [ 0; 0; 0 ] in
        let s0 = src_stream b [ 1; 2; 3 ] in
        let s1 = src_stream b [ 9; 9; 9 ] in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let c1 = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        Engine.run eng 20;
        Alcotest.(check int) "three kills on channel 1" 3
          (Engine.killed eng c1));
    Alcotest.test_case "windowed throughput ignores warm-up" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e1 = eb b () in
        let e2 = eb b () in
        let e3 = eb b () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (e3, In 0) in
        let _ = conn b (e3, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        Engine.run eng 50;
        Alcotest.(check bool) "plain < 1" true
          (Engine.throughput eng k < 1.0);
        Alcotest.(check (float 1e-9)) "windowed = 1" 1.0
          (Engine.windowed_throughput eng k));
    Alcotest.test_case "nondet_nodes finds exactly the nondet ones" `Quick
      (fun () ->
        let b = builder () in
        let s1 = add b (Source (Nondet [ Value.Int 1 ])) in
        let s2 = src_counter b () in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let k = add b (Sink (Random_stall { pct = 10; seed = 1 })) in
        let _ = conn b (s1, Out 0) (f, In 0) in
        let _ = conn b (s2, Out 0) (f, In 1) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        let ids =
          List.map (fun (n : Netlist.node) -> n.Netlist.id)
            (Engine.nondet_nodes eng)
        in
        Alcotest.(check (list int)) "source and sink" [ s1; k ]
          (List.sort compare ids));
    Alcotest.test_case "simulation error on invalid netlist" `Quick
      (fun () ->
        let b = builder () in
        let _ = src_counter b () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Engine.create b.net);
             false
           with Engine.Simulation_error _ -> true));
    Alcotest.test_case "engine cycle counter advances" `Quick (fun () ->
        let net, k = three_way_mux () in
        ignore k;
        let eng = Engine.create net in
        Alcotest.(check int) "zero" 0 (Engine.cycle eng);
        Engine.run eng 7;
        Alcotest.(check int) "seven" 7 (Engine.cycle eng));
    Alcotest.test_case "stats surface the stalled channel" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b ~name:"fast_src" () in
        let e = eb b ~name:"buf" () in
        let k = sink_pattern b ~name:"slow_sink" [| true; true; false |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:90 b.net in
        let st = Stats.collect eng in
        Alcotest.(check int) "cycles" 90 st.Stats.cycles;
        (match Stats.most_stalled st with
         | worst :: _ ->
           Alcotest.(check bool) "stall ratio high" true
             (worst.Stats.cs_stall_ratio > 0.4)
         | [] -> Alcotest.fail "no channels");
        List.iter
          (fun c ->
             Alcotest.(check bool) "utilization ~1/3" true
               (abs_float (c.Stats.cs_utilization -. (1.0 /. 3.0)) < 0.05))
          st.Stats.channels);
    Alcotest.test_case "stats include scheduler quality" `Quick (fun () ->
        let h =
          Elastic_core.Figures.fig1d ~sched:Elastic_sched.Scheduler.Sticky ()
        in
        let eng = run_net ~cycles:200 h.Elastic_core.Figures.net in
        let st = Stats.collect eng in
        match st.Stats.schedulers with
        | [ sch ] ->
          Alcotest.(check bool) "serves recorded" true
            (sch.Stats.ss_serves > 50);
          Alcotest.(check bool) "misses recorded" true
            (sch.Stats.ss_mispredictions > 0)
        | _ -> Alcotest.fail "expected one scheduler");
    Alcotest.test_case "restore rejects foreign snapshots" `Quick
      (fun () ->
        let net1, _ = three_way_mux () in
        let b = builder () in
        let s = src_counter b () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (k, In 0) in
        let e1 = Engine.create net1 in
        let e2 = Engine.create b.net in
        Engine.step e2;
        Alcotest.(check bool) "raises" true
          (try
             Engine.restore e1 (Engine.snapshot e2);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "monitored restore round trip" `Quick (fun () ->
        (* The sink stalls six cycles in eight, so the EB's output
           channel sits in retry with a payload and a growing stall
           count, and the watchdog (bound 3) fires in every stall run. *)
        let b = builder () in
        let s = src_counter b () in
        let e = eb b () in
        let k =
          sink_pattern b
            [| false; true; true; true; true; true; true; false |]
        in
        let _ = conn b (s, Out 0) (e, In 0) in
        let out = conn b (e, Out 0) (k, In 0) in
        List.iter
          (fun mode ->
             let name = Engine.mode_name mode in
             let create () = Engine.create ~liveness_bound:3 ~mode b.net in
             let orig = create () in
             Engine.run orig 10;
             Alcotest.(check bool) (name ^ ": retry pending") true
               ((Engine.events orig out).Signal.retry
                && Engine.data orig out <> None);
             let snap = Engine.snapshot orig in
             let copy = create () in
             Engine.restore copy snap;
             let report eng =
               List.map
                 (fun (ch, (v : Protocol.violation)) ->
                    Fmt.str "%s %a" ch Protocol.pp_violation v)
                 (Engine.violations eng)
             in
             for _ = 1 to 12 do
               Engine.step orig;
               Engine.step copy;
               Alcotest.(check (list string)) (name ^ ": violations")
                 (report orig) (report copy)
             done;
             Alcotest.(check bool) (name ^ ": a breach after the snapshot")
               true
               (List.exists
                  (fun (_, (v : Protocol.violation)) ->
                     v.Protocol.property = "liveness" && v.Protocol.cycle >= 10)
                  (Engine.violations copy));
             Alcotest.(check bool) (name ^ ": unmonitored engine refuses")
               true
               (try
                  Engine.restore (Engine.create ~monitor:false ~mode b.net)
                    snap;
                  false
                with Invalid_argument _ -> true))
          [ Engine.Arena; Engine.Reference ]);
    Alcotest.test_case "scheduler force validates the channel" `Quick
      (fun () ->
        let sc = Elastic_sched.Scheduler.make ~ways:2
            Elastic_sched.Scheduler.External in
        Alcotest.(check bool) "raises" true
          (try
             Elastic_sched.Scheduler.force sc 5;
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "find_node returns None for unknown names" `Quick
      (fun () ->
        let net, _ = three_way_mux () in
        Alcotest.(check bool) "none" true
          (Netlist.find_node net "no_such_node" = None));
    Alcotest.test_case "3-way shared: tokens served on all channels"
      `Quick (fun () ->
        let b = builder () in
        let srcs =
          List.init 3 (fun i ->
              add b ~name:(Fmt.str "s%d" i)
                (Source (Counter { start = 100 * i; step = 1 })))
        in
        let f = Func.identity ~delay:1.0 ~area:1.0 () in
        let sh =
          add b
            (Shared
               { ways = 3; f; sched = Scheduler.Round_robin; hinted = false })
        in
        let sinks =
          List.init 3 (fun i -> sink b ~name:(Fmt.str "k%d" i) ())
        in
        List.iteri (fun i s -> ignore (conn b (s, Out 0) (sh, In i))) srcs;
        List.iteri (fun i k -> ignore (conn b (sh, Out i) (k, In 0))) sinks;
        let eng = run_net ~cycles:90 b.net in
        check_no_violations eng;
        List.iteri
          (fun i k ->
             let got = sink_values eng k in
             Alcotest.(check bool)
               (Fmt.str "sink %d got ~30 tokens" i)
               true
               (abs (List.length got - 30) <= 1);
             (* order preserved per channel *)
             Alcotest.(check (list value)) "in order"
               (ints (List.init (List.length got) (fun j -> (100 * i) + j)))
               got)
          sinks) ]

open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Helpers

(* source -> EB(init) -> sink *)
let simple_pipeline ?(init = [ Value.Int 100 ]) items =
  let b = builder () in
  let s = src_stream b items in
  let e = eb b ~init () in
  let k = sink b () in
  let _ = conn b (s, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (k, In 0) in
  (b.net, k)

let suite =
  [ Alcotest.test_case "pipeline delivers stream in order" `Quick
      (fun () ->
         let net, k = simple_pipeline [ 1; 2; 3; 4; 5 ] in
         let eng = run_net ~cycles:20 net in
         check_no_violations eng;
         Alcotest.(check (list value)) "initial token then stream"
           (ints [ 100; 1; 2; 3; 4; 5 ])
           (sink_values eng k));
    Alcotest.test_case "full throughput through an initialized EB" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e = eb b ~init:[ Value.Int 0 ] () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e, In 0) in
         let _ = conn b (e, Out 0) (k, In 0) in
         let eng = run_net ~cycles:100 b.net in
         check_no_violations eng;
         Alcotest.(check bool) "throughput 1" true
           (Engine.throughput eng k >= 0.99));
    Alcotest.test_case "bubbles add latency but not throughput loss"
      `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e1 = eb b () in
        let e2 = eb b () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (k, In 0) in
        let eng = run_net ~cycles:102 b.net in
        check_no_violations eng;
        (* Two cycles of fill latency, then one transfer per cycle. *)
        Alcotest.(check int) "transfers" 100
          (Transfer.length (Engine.sink_stream eng k)));
    Alcotest.test_case "backpressure halves throughput, keeps order"
      `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb b ~init:[ Value.Int (-1) ] () in
        let k = sink_pattern b [| true; false |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:100 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check (list value)) "in-order prefix"
          (ints (List.init (List.length got) (fun i -> i - 1)))
          got;
        Alcotest.(check bool) "about half" true
          (abs (List.length got - 50) <= 2));
    Alcotest.test_case "random source and sink lose no tokens" `Quick
      (fun () ->
        let b = builder () in
        let s = add b (Source (Random_rate { pct = 60; seed = 11 })) in
        let e1 = eb b () in
        let e2 = eb b () in
        let k = add b (Sink (Random_stall { pct = 40; seed = 23 })) in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (k, In 0) in
        let eng = run_net ~cycles:500 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        (* Random_rate sources emit consecutive integers; order and
           completeness show through as 0,1,2,... *)
        Alcotest.(check (list value)) "no loss, no reorder"
          (ints (List.init (List.length got) (fun i -> i)))
          got);
    Alcotest.test_case "eb0 behaves as a capacity-1 pipeline stage" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb0 b ~init:[ Value.Int 42 ] () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:50 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check value) "first is init" (Value.Int 42) (List.hd got);
        Alcotest.(check int) "full throughput" 50 (List.length got));
    Alcotest.test_case "eb0 stalls without losing the stored token" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb0 b () in
        let k = sink_pattern b [| true; true; false |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:99 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check (list value)) "in order"
          (ints (List.init (List.length got) (fun i -> i)))
          got);
    Alcotest.test_case "function block computes on joined inputs" `Quick
      (fun () ->
        let b = builder () in
        let s0 = src_stream b [ 1; 2; 3 ] in
        let s1 = src_stream b [ 10; 20; 30 ] in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let k = sink b () in
        let _ = conn b (s0, Out 0) (f, In 0) in
        let _ = conn b (s1, Out 0) (f, In 1) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "sums" (ints [ 11; 22; 33 ])
          (sink_values eng k));
    Alcotest.test_case "join waits for the late input" `Quick (fun () ->
        let b = builder () in
        let s0 = src_stream b [ 1; 2; 3 ] in
        let s1 = add b (Source (Random_rate { pct = 30; seed = 5 })) in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let k = sink b () in
        let _ = conn b (s0, Out 0) (f, In 0) in
        let _ = conn b (s1, Out 0) (f, In 1) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let eng = run_net ~cycles:60 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "sums with slow side"
          (ints [ 1; 3; 5 ])
          (sink_values eng k));
    Alcotest.test_case "eager fork feeds both sinks despite skew" `Quick
      (fun () ->
        let b = builder () in
        let s = src_stream b [ 1; 2; 3; 4 ] in
        let f = add b (Fork 2) in
        let k0 = sink b () in
        let k1 = sink_pattern b [| true; false |] in
        let _ = conn b (s, Out 0) (f, In 0) in
        let _ = conn b (f, Out 0) (k0, In 0) in
        let _ = conn b (f, Out 1) (k1, In 0) in
        let eng = run_net ~cycles:30 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "fast branch" (ints [ 1; 2; 3; 4 ])
          (sink_values eng k0);
        Alcotest.(check (list value)) "slow branch" (ints [ 1; 2; 3; 4 ])
          (sink_values eng k1));
    Alcotest.test_case "plain mux joins select and both inputs" `Quick
      (fun () ->
        let b = builder () in
        let sel = src_stream b [ 0; 1; 0; 1 ] in
        let s0 = src_stream b [ 10; 11; 12; 13 ] in
        let s1 = src_stream b [ 20; 21; 22; 23 ] in
        let m = add b (Mux { ways = 2; early = false }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "selected values"
          (ints [ 10; 21; 12; 23 ])
          (sink_values eng k));
    Alcotest.test_case "early mux kills the non-selected token" `Quick
      (fun () ->
        (* Each fire sends an anti-token into the other channel; the
           sources therefore advance in lockstep even though only one
           value is used. *)
        let b = builder () in
        let sel = src_stream b [ 0; 1; 0 ] in
        let s0 = src_stream b [ 10; 11; 12 ] in
        let s1 = src_stream b [ 20; 21; 22 ] in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "selected values"
          (ints [ 10; 21; 12 ])
          (sink_values eng k));
    Alcotest.test_case "early mux fires without the unneeded input" `Quick
      (fun () ->
        (* Channel 1 never produces data; selecting channel 0 must still
           transfer (early evaluation), and the anti-tokens accumulate
           towards the silent source. *)
        let b = builder () in
        let sel = src_stream b [ 0; 0; 0 ] in
        let s0 = src_stream b [ 10; 11; 12 ] in
        let s1 = add b (Source (Stream [])) in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "all of channel 0"
          (ints [ 10; 11; 12 ])
          (sink_values eng k));
    Alcotest.test_case "anti-token crosses an empty EB backwards" `Quick
      (fun () ->
        (* s1 feeds through an empty EB; when channel 0 is selected the
           anti-token must cross the EB and cancel s1's token. *)
        let b = builder () in
        let sel = src_stream b [ 0; 1 ] in
        let s0 = src_stream b [ 10; 11 ] in
        let s1 = src_stream b [ 20; 21 ] in
        let e1 = eb b () in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "10 then 21" (ints [ 10; 21 ])
          (sink_values eng k));
    Alcotest.test_case "stored tokens bounded by EB capacity" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb b () in
        let k = sink_pattern b [| true |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        Engine.run eng 10;
        Alcotest.(check int) "capacity 2" 2 (Engine.stored_tokens eng);
        Alcotest.(check int) "nothing delivered to sink" 0
          (Transfer.length (Engine.sink_stream eng k)));
    Alcotest.test_case "state snapshot round-trips" `Quick (fun () ->
        let net, k = simple_pipeline [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let eng = Engine.create net in
        Engine.run eng 3;
        let snap = Engine.snapshot eng in
        Engine.run eng 4;
        Alcotest.(check bool) "state changed" false
          (Engine.same_future eng snap);
        Engine.restore eng snap;
        Alcotest.(check bool) "restored" true (Engine.same_future eng snap);
        ignore k) ]

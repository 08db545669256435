open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_datapath
open Elastic_trace
open Elastic_metrics
open Helpers

(* The flat-arena evaluation backend (lib/sim/arena.ml): mode selection
   plumbing, byte-exact golden artefacts, error parity with the
   reference fixpoint, and the step allocation guards.  Cross-backend
   trace/metrics equivalence over whole designs lives in
   {!Test_engine_equiv}; these are the arena-specific contracts.

   The golden fixtures ([e5.prom.expected], [e6.prom.expected],
   [e6.profile.expected], [e6_inject.trace.jsonl.expected]) must be
   reproduced byte for byte, eval counts included.  Their wires, events
   and traces date from the record-based levelized scheduler that the
   arena replaced; their eval counts, settle passes and convergence
   retries from the arena's static sweep over the half graph, with one
   pair of halves per way of a shared module. *)

(* --- mode selection -------------------------------------------------- *)

let test_mode_names () =
  List.iter
    (fun m ->
       Alcotest.(check (option string))
         (Engine.mode_name m)
         (Some (Engine.mode_name m))
         (Option.map Engine.mode_name
            (Engine.mode_of_string (Engine.mode_name m))))
    [ Engine.Reference; Engine.Arena ];
  Alcotest.(check bool) "parsing is case-insensitive" true
    (Engine.mode_of_string "ARENA" = Some Engine.Arena);
  Alcotest.(check bool) "junk is rejected" true
    (Engine.mode_of_string "fastest" = None);
  Alcotest.(check bool) "the retired levelized backend is rejected" true
    (Engine.mode_of_string "levelized" = None)

let tiny_net () =
  let b = builder () in
  let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (k, In 0) in
  b.net

(* The arena is the constant default; an explicit [~mode] wins. *)
let test_default_mode () =
  let net = tiny_net () in
  Alcotest.(check string) "default_mode" "arena"
    (Engine.mode_name Engine.default_mode);
  Alcotest.(check string) "create without ~mode" "arena"
    (Engine.mode_name (Engine.mode (Engine.create net)));
  Alcotest.(check string) "explicit mode wins" "reference"
    (Engine.mode_name (Engine.mode (Engine.create ~mode:Engine.Reference net)))

(* --- error parity ---------------------------------------------------- *)

let modes = [ Engine.Reference; Engine.Arena ]

let rendered_error f =
  match f () with
  | () -> Alcotest.fail "expected a simulation error"
  | exception Engine.Simulation_error e ->
    (e.Engine.err_code, Engine.error_to_string e)

(* E110 (cycle budget): the error is raised before the backend runs,
   but its rendering flows through the same provenance plumbing — both
   modes must produce the identical string. *)
let test_e110_parity () =
  let net = tiny_net () in
  let errors =
    List.map
      (fun mode ->
         rendered_error (fun () ->
             let eng = Engine.create ~mode ~max_cycles:4 net in
             Engine.run eng 10))
      modes
  in
  List.iter
    (fun (code, msg) ->
       Alcotest.(check (option string)) "typed E110" (Some "E110") code;
       Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
    errors

(* E102 (combinational cycle): the undetermined-channel sweep must name
   the same channels in the same order in every mode — the arena
   recovers them from its packed codes rather than the wire records. *)
let test_e102_parity () =
  let net =
    (List.find
       (fun (m : Elastic_lint.Mutate.t) -> m.Elastic_lint.Mutate.m_code = "E102")
       Elastic_lint.Mutate.catalogue)
      .Elastic_lint.Mutate.m_net ()
  in
  let errors =
    List.map
      (fun mode ->
         rendered_error (fun () ->
             let eng = Engine.create ~mode net in
             Engine.run eng 2))
      modes
  in
  List.iter
    (fun (code, msg) ->
       Alcotest.(check (option string)) "typed E102" (Some "E102") code;
       Alcotest.(check bool) "names an undetermined channel" true
         (Helpers.contains msg "undetermined channels:");
       Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
    errors

(* A mux, lazy or early, whose select stream goes out of range mid-run:
   the per-node [Invalid_argument] must surface as the same invariant
   error — node provenance included, and naming the select — from the
   packed evaluator as from the reference fixpoint.  (The arena
   recovers the node from its last-eval cursor.) *)
let test_invariant_parity () =
  let build early =
    let b = builder () in
    let sel = src_stream b ~name:"sel" [ 0; 1; 7 ] in
    let s0 = src_counter b ~name:"s0" () in
    let s1 = src_counter b ~name:"s1" () in
    let m = add b ~name:"mux" (Mux { ways = 2; early }) in
    let k = sink b ~name:"snk" () in
    let _ = conn b (sel, Out 0) (m, Sel) in
    let _ = conn b (s0, Out 0) (m, In 0) in
    let _ = conn b (s1, Out 0) (m, In 1) in
    let _ = conn b (m, Out 0) (k, In 0) in
    b.net
  in
  List.iter
    (fun early ->
       let errors =
         List.map
           (fun mode ->
              rendered_error (fun () ->
                  let eng = Engine.create ~mode (build early) in
                  Engine.run eng 20))
           modes
       in
       List.iter
         (fun (_, msg) ->
            Alcotest.(check bool)
              (Fmt.str "early=%b names the out-of-range select" early)
              true
              (Helpers.contains msg "select: index 7 out of range");
            Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
         errors)
    [ false; true ]

(* --- golden artefacts ------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_golden path got =
  Alcotest.(check string) (path ^ " byte-exact") (read_file path) got

(* The arena bumps the profile's per-node counters in place, the only
   eval counter ([Profile.evals] is their sum), and its settle loop
   reports each cycle's pass count itself.  The totals, per-node
   counters and pass histogram of E6 are frozen, and every cycle each
   node gains one evaluation per half it runs: one for a source or a
   sink, two per way for a shared module, two for the others, in one
   pass. *)
let test_profile_golden () =
  let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
  let net = (Examples.rs_speculative ~ops).Examples.d_net in
  let eng = Engine.create net in
  Engine.run eng 150;
  let p = Engine.profile eng in
  let b = Buffer.create 1024 in
  Printf.bprintf b "evals %d\nmax_passes %d\n" (Profile.evals p)
    (Profile.max_passes p);
  List.iter
    (fun (k, n) -> Printf.bprintf b "passes %d: %d cycles\n" k n)
    (Profile.pass_histogram p);
  let nodes = Profile.top_nodes p 10_000 in
  List.iter (fun (i, n) -> Printf.bprintf b "node %d: %d evals\n" i n) nodes;
  check_golden "e6.profile.expected" (Buffer.contents b);
  Test_engine_equiv.check_pass_counts ~mode:Engine.Arena net

(* Injected-channel reporting flows through the override plumbing into
   the trace: flips, a stuck stall and a duplicated token on E6, with
   the rendered event stream locked byte for byte. *)
let test_injected_parity () =
  let open Elastic_fault in
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 60 in
  let net = (Examples.rs_speculative ~ops).Examples.d_net in
  let ch = (List.hd (Netlist.channels net)).Netlist.ch_id in
  let eng = Engine.create net in
  Engine.set_faults eng
    (Some
       (Fault.plan net
          [ Fault.flip_bit ~channel:ch ~cycle:5 1;
            Fault.stuck_stall ~channel:ch ~cycle:12 ~duration:4;
            Fault.duplicate_token ~channel:ch ~cycle:20 ]));
  let tr = Tracer.attach eng in
  Engine.run eng 40;
  check_golden "e6_inject.trace.jsonl.expected"
    (Jsonl.to_string net (Tracer.events tr))

(* Two arena runs of the same design are bit-identical end to end —
   the preallocated buffers carry no state across [create]. *)
let test_arena_determinism () =
  let mk () =
    let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 80 in
    let eng =
      Engine.create ~mode:Engine.Arena
        (Examples.rs_speculative ~ops).Examples.d_net
    in
    Engine.run eng 120;
    eng
  in
  Alcotest.(check bool) "same future" true
    (Engine.same_future (mk ()) (Engine.snapshot (mk ())))

(* The E5/E6 experiment designs, rendered to Prometheus text off a
   deterministic tick clock — including the settle-seconds gauges,
   because the engine reads the clock exactly twice per cycle. *)
let test_prom_golden path net =
  let eng = Engine.create ~clock:(Clock.ticker ~step_ns:100L) net in
  let sampler = Sampler.create eng in
  Engine.set_observer eng (Some (Sampler.observe sampler));
  Engine.run eng 150;
  check_golden path (Prometheus.render (Sampler.sample sampler eng))

let e5_net () =
  (Examples.vl_speculative
     ~ops:(Alu.operands ~error_rate_pct:10 ~seed:7 100)).Examples.d_net

let e6_net () =
  (Examples.rs_speculative
     ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:5 100)).Examples.d_net

let test_prom_golden_e5 () = test_prom_golden "e5.prom.expected" (e5_net ())

let test_prom_golden_e6 () = test_prom_golden "e6.prom.expected" (e6_net ())

(* The same runs with a 50-cycle window: every row of the JSONL series,
   counters, histograms and gauges alike, byte for byte. *)
let test_window_golden path net =
  let eng = Engine.create ~clock:(Clock.ticker ~step_ns:100L) net in
  let buf = Buffer.create 4096 in
  let on_window r =
    Buffer.add_string buf (Sampler.jsonl_of_row r);
    Buffer.add_char buf '\n'
  in
  let sampler = Sampler.create ~window:50 ~on_window eng in
  Engine.set_observer eng (Some (Sampler.observe sampler));
  Engine.run eng 150;
  check_golden path (Buffer.contents buf)

let test_window_golden_e5 () =
  test_window_golden "e5.window.jsonl.expected" (e5_net ())

let test_window_golden_e6 () =
  test_window_golden "e6.window.jsonl.expected" (e6_net ())

(* --- allocation guards ----------------------------------------------- *)

(* After settle, [Engine.step] works on one preallocated array of packed
   control codes: events, counters, monitors, sink streams and the clock
   edge read it in place, and payloads are read (a has-data check, then
   the payload itself, no option) only where a token moves.  A unary
   stage, a shared module and a variable-latency unit hand the payload
   straight to [Func.eval1], and the settle timer reads the monotonic
   clock unboxed into int nanoseconds and an int-array pass histogram.
   So what a cycle allocates is the values the datapath functions build
   and the sink streams' [Transfer] records, nothing else.  Allocation
   counts are deterministic: the control-only pipeline's budget is its
   exact count (0 words), and the E5/E6 budgets add ~5% to the measured
   16.1 and 57.2 words (OCaml 5.1.1).  Any new per-cycle allocation,
   such as an option per payload read, a closure per cyclic region in
   settle or a per-node port view at the clock edge, trips them. *)
let words_per_cycle net =
  let eng = Engine.create net in
  Engine.run eng 200;
  let w0 = Gc.minor_words () in
  Engine.run eng 2000;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. 2000.

let check_budget what ~budget net =
  let words = words_per_cycle net in
  if words > budget then
    Alcotest.failf
      "%s allocates %.1f words/cycle (budget %.0f): the step has started \
       allocating" what words budget

let test_settle_allocation_guard () =
  let b = builder () in
  let s = src_stream b ~name:"src" (List.init 64 (fun i -> i)) in
  let e1 = eb b ~name:"e1" () in
  let e2 = eb0 b ~name:"e2" () in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (e2, In 0) in
  let _ = conn b (e2, Out 0) (k, In 0) in
  check_budget "a control-only pipeline" ~budget:0. b.net

(* E5/E6 with monitors on (the [Engine.create] default), long enough
   that tokens flow through every measured cycle. *)
let test_e5_allocation_guard () =
  check_budget "E5 (vl_speculative)" ~budget:17.
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:10 ~seed:7 2400)).Examples.d_net

let test_e6_allocation_guard () =
  check_budget "E6 (rs_speculative)" ~budget:60.
    (Examples.rs_speculative
       ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:5 2400)).Examples.d_net

(* The engine state is two arrays: on the E7 design, comparing it with
   a snapshot, hashing it and restoring one allocate nothing, and a
   snapshot costs as much at cycle 400 as at cycle 50. *)
let test_state_allocation_guard () =
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)
  in
  let eng = Engine.create c.Examples.sc_net in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Engine.run eng 50;
  let at_50 = words (fun () -> ignore (Engine.snapshot eng)) in
  let s50 = Engine.snapshot eng in
  Engine.run eng 350;
  let at_400 = words (fun () -> ignore (Engine.snapshot eng)) in
  let s400 = Engine.snapshot eng in
  Alcotest.(check (float 0.)) "snapshot at 50 and 400" at_50 at_400;
  List.iter
    (fun (what, f) -> Alcotest.(check (float 0.)) what 0. (words f))
    [ ("same_future, equal", fun () -> ignore (Engine.same_future eng s400));
      ("same_future, unequal", fun () -> ignore (Engine.same_future eng s50));
      ("fingerprint", fun () -> ignore (Engine.fingerprint eng));
      ("restore", fun () -> Engine.restore eng s50) ]

(* A faulted engine reads its fault schedule only on cycles that have a
   row.  Past the last row it steps exactly like a plain monitored
   engine, allocation included, and inside the window a step costs at
   most [window_words] more.  The two engines always step from the same
   snapshot of the plain run, so they start every measured cycle in one
   state.  The window holds a flip, a stuck stall, a duplicated token
   (whose channel's payloads the engine keeps through the window) and a
   forced misprediction.  The flip costs the most, 50 to 56 words on
   OCaml 5.1.1, nearly all of it the rebuilt payload; the other cycles
   cost nothing.  The budget adds ~5%.  The forced misprediction, resolved to its scheduler once
   by [set_faults], costs exactly nothing. *)
let window_words = 59.

let mispredict_cycle = 38

let test_fault_allocation_guard () =
  let open Elastic_fault in
  let c =
    Examples.secded_campaign
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)
  in
  let net = c.Examples.sc_net and bus = c.Examples.sc_bus in
  let stage = (Option.get (Netlist.find_node net "stage")).Netlist.id in
  let plan =
    Fault.plan net
      [ Fault.flip_bit ~channel:bus ~cycle:30 17;
        Fault.stuck_stall ~channel:bus ~cycle:32 ~duration:2;
        Fault.duplicate_token ~channel:bus ~cycle:36;
        Fault.mispredict ~node:stage ~cycle:mispredict_cycle 1 ]
  in
  let plain = Engine.create net and faulted = Engine.create net in
  let snaps =
    Array.init 60 (fun _ ->
        let s = Engine.snapshot plain in
        Engine.step plain;
        s)
  in
  let words eng snap n =
    Engine.restore eng snap;
    let w0 = Gc.minor_words () in
    Engine.run eng n;
    Gc.minor_words () -. w0
  in
  Engine.set_faults faulted (Some plan);
  Engine.run faulted 50;
  Alcotest.(check (float 0.)) "past the window: 200 cycles as plain"
    (words plain snaps.(50) 200) (words faulted snaps.(50) 200);
  Engine.set_faults faulted (Some plan);
  for k = 30 to Fault.horizon plan - 1 do
    let extra = words faulted snaps.(k) 1 -. words plain snaps.(k) 1 in
    if k = mispredict_cycle then
      Alcotest.(check (float 0.)) "the forced misprediction costs nothing"
        0. extra
    else if extra > window_words then
      Alcotest.failf "cycle %d of the window: %.0f words over a plain step \
                      (budget %.0f)" k extra window_words
  done

(* A two-way shared module with an [External] scheduler, which keeps
   the way it was last forced to, so a step's prediction can be read
   after it. *)
let external_shared () =
  let b = builder () in
  let m =
    add b ~name:"m"
      (Shared
         { ways = 2; f = Func.identity (); sched = Elastic_sched.Scheduler.External;
           hinted = false })
  in
  for w = 0 to 1 do
    let s = src_counter b ~name:(Fmt.str "s%d" w) () in
    let k = sink b ~name:(Fmt.str "k%d" w) () in
    ignore (conn b (s, Out 0) (m, In w));
    ignore (conn b (m, Out w) (k, In 0))
  done;
  (b.net, m)

let predict_row ~cycle predict =
  { Engine.fs_first = cycle;
    fs_rows = [| { Engine.fr_wires = [||]; fr_predict = predict } |] }

(* A fault's forced prediction and a [~choices] prediction on the same
   shared module in the same cycle: the fault's way wins, in both
   backends, and a [~choices] prediction alone still takes effect. *)
let test_fault_prediction_wins () =
  let net, m = external_shared () in
  let choices nid = if nid = m then Some (Instance.Predict 0) else None in
  let way_after mode plan =
    let eng = Engine.create ~mode net in
    Engine.set_faults eng plan;
    Engine.run eng 3;
    Engine.step ~choices eng;
    Elastic_sched.Scheduler.predict (List.assoc m (Engine.schedulers eng))
  in
  List.iter
    (fun mode ->
       let name = Engine.mode_name mode in
       Alcotest.(check int) (name ^ ": the choice alone") 0
         (way_after mode None);
       Alcotest.(check int) (name ^ ": the fault wins over the choice") 1
         (way_after mode (Some (predict_row ~cycle:3 [ (m, 1) ]))))
    modes

(* [set_faults] resolves each forced prediction once and refuses, with a
   typed error, one at a node that is not a shared module or at a way
   the module does not have. *)
let test_forced_prediction_checked () =
  let net, m = external_shared () in
  let src = (Option.get (Netlist.find_node net "s0")).Netlist.id in
  let refused what predict why =
    let eng = Engine.create net in
    match Engine.set_faults eng (Some (predict_row ~cycle:0 predict)) with
    | () -> Alcotest.failf "set_faults accepted %s" what
    | exception Engine.Simulation_error err ->
      Alcotest.(check (option int)) (what ^ ": names the node") (Some (fst (List.hd predict)))
        err.Engine.err_node;
      if not (Helpers.contains err.Engine.err_msg why) then
        Alcotest.failf "%s: %S does not say %S" what err.Engine.err_msg why
  in
  refused "a source" [ (src, 0) ] "not a shared module";
  refused "way 2 of two" [ (m, 2) ] "ways 0..1";
  refused "way -1" [ (m, -1) ] "ways 0..1"

(* [Sampler.observe] with no window reads the engine's counters only at
   snapshot time and refreshes no gauge, so it allocates nothing on any
   design, schedulers included.  Its calls are measured one by one from
   a wrapping observer, which keeps the payload work of the step itself
   out of the count. *)
let observe_words_per_cycle net =
  let eng = Engine.create net in
  let sampler = Sampler.create eng in
  let words = ref 0. in
  Engine.set_observer eng
    (Some
       (fun e ->
          let w0 = Gc.minor_words () in
          Sampler.observe sampler e;
          let w1 = Gc.minor_words () in
          words := !words +. (w1 -. w0)));
  Engine.run eng 2200;
  !words /. 2200.

let check_observe_budget what ~budget net =
  let words = observe_words_per_cycle net in
  if words > budget then
    Alcotest.failf
      "Sampler.observe allocates %.2f words/cycle on %s (budget %.0f)" words
      what budget

let test_observe_allocation_guard () =
  let b = builder () in
  let s = src_stream b ~name:"src" (List.init 64 (fun i -> i)) in
  let e1 = eb b ~name:"e1" () in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (k, In 0) in
  check_observe_budget "a control-only pipeline" ~budget:0. b.net;
  check_observe_budget "E5" ~budget:0.
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:10 ~seed:7 2400)).Examples.d_net;
  check_observe_budget "E6" ~budget:0.
    (Examples.rs_speculative
       ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:5 2400)).Examples.d_net

(* Netlist build plus [Engine.create] must cost about as many words per
   channel at 4096 channels as at 256: every port lookup walks only its
   node's own channels.  When each lookup scanned the whole channel list,
   [Engine.create] alone went from 9.5k to 148k words per channel. *)
let test_compile_scaling_guard () =
  let base =
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:5 ~seed:42 97)).Examples.d_net
  in
  let words_per_channel lanes =
    let w0 = Gc.minor_words () in
    let net = Examples.lanes lanes base in
    ignore (Engine.create net : Engine.t);
    (Gc.minor_words () -. w0) /. float_of_int (Netlist.channel_count net)
  in
  (* One lane first, so neither size pays the process's first-use costs. *)
  ignore (words_per_channel 1 : float);
  let small = words_per_channel 16 and large = words_per_channel 256 in
  if large > 1.5 *. small then
    Alcotest.failf
      "netlist build + Engine.create: %.0f words/channel at 4096 channels, \
       %.0f at 256 (bound 1.5x)"
      large small

(* A token-moving pipeline of unary identity stages through an EB, an
   EB0, forks, an early mux and a hinted shared module (the replay stage
   of Fig. 6(b), every function the identity) carries the source's own
   payload boxes end to end: its steps allocate exactly the [Transfer]
   records of the tokens its sink receives. *)
let identity_replay_net () =
  let b = builder () in
  let id name = add b ~name (Func (Func.identity ())) in
  let src =
    src_stream b ~name:"src"
      (List.init 3000 (fun i -> Bool.to_int (i mod 7 = 3)))
  in
  let f_in = id "in" and e_in = eb b ~name:"e_in" () in
  let e0_in = eb0 b ~name:"e0_in" () in
  let fork = add b ~name:"fork" (Fork 3) in
  let fast = id "fast" and slow = id "slow" and err = id "err" in
  let err_fork = add b ~name:"err_fork" (Fork 2) in
  let ebx = eb b ~name:"EBx" () and ebe = eb b ~name:"EBe" () in
  let sh =
    add b ~name:"stage"
      (Shared
         { ways = 2; f = Func.identity ();
           sched = Elastic_sched.Scheduler.Hinted_replay; hinted = true })
  in
  let r0 = eb0 b ~name:"EB0r" () and r1 = eb0 b ~name:"EB1r" () in
  let mux = add b ~name:"mux" (Mux { ways = 2; early = true }) in
  let f_out = id "out" and k = sink b ~name:"snk" () in
  let wire a b' = ignore (conn b a b' : Netlist.channel_id) in
  wire (src, Out 0) (f_in, In 0);
  wire (f_in, Out 0) (e_in, In 0);
  wire (e_in, Out 0) (e0_in, In 0);
  wire (e0_in, Out 0) (fork, In 0);
  wire (fork, Out 0) (fast, In 0);
  wire (fork, Out 1) (slow, In 0);
  wire (fork, Out 2) (err, In 0);
  wire (fast, Out 0) (sh, In 0);
  wire (slow, Out 0) (ebx, In 0);
  wire (ebx, Out 0) (sh, In 1);
  wire (err, Out 0) (err_fork, In 0);
  wire (err_fork, Out 0) (ebe, In 0);
  wire (ebe, Out 0) (mux, Sel);
  wire (err_fork, Out 1) (sh, Sel);
  wire (sh, Out 0) (r0, In 0);
  wire (r0, Out 0) (mux, In 0);
  wire (sh, Out 1) (r1, In 0);
  wire (r1, Out 0) (mux, In 1);
  wire (mux, Out 0) (f_out, In 0);
  wire (f_out, Out 0) (k, In 0);
  (b.net, k)

let test_identity_pipeline_allocation_guard () =
  let net, k = identity_replay_net () in
  let eng = Engine.create net in
  Engine.run eng 200;
  let received () = Elastic_kernel.Transfer.length (Engine.sink_stream eng k) in
  let r0 = received () in
  let w0 = Gc.minor_words () in
  Engine.run eng 2000;
  let words = Gc.minor_words () -. w0 in
  let tokens = received () - r0 in
  let record_words =
    let w0 = Gc.minor_words () in
    ignore
      (Sys.opaque_identity
         Elastic_kernel.(Transfer.record Transfer.empty ~cycle:0 Value.Unit));
    Gc.minor_words () -. w0
  in
  if tokens < 1000 then Alcotest.failf "only %d tokens moved" tokens;
  Alcotest.(check (float 0.))
    (Fmt.str "words of 2000 steps = %d sink records" tokens)
    (record_words *. float_of_int tokens) words;
  Alcotest.(check (list (pair string string))) "no protocol violations" []
    (List.map
       (fun (c, v) -> (c, v.Elastic_kernel.Protocol.property))
       (Engine.violations eng))

(* --- payload reads and the settle timer ------------------------------ *)

(* A valid bit forced on with no payload (an override that substitutes
   nothing) at an EB's input and at a sink's input, from cycle 10 when
   the source is spent: the EB's clock edge breaks its invariant and the
   sink refuses the token.  Both backends raise the errors they raised
   when payload reads returned options: cycle, code, node and channel. *)
let forge ~chan ~cycle =
  { Engine.fs_first = cycle;
    fs_rows =
      [| { Engine.fr_wires =
             [| { Engine.fw_chan = chan;
                  fw_override =
                    { Instance.no_override with
                      Instance.force_v_plus = Some true };
                  fw_replay = false } |];
           fr_predict = [] } |] }

let test_forged_token_errors () =
  let b = builder () in
  let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
  let f = add b ~name:"f" (Func (Func.identity ())) in
  let e = eb b ~name:"e" () and k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (f, In 0) in
  let into_eb = conn b (f, Out 0) (e, In 0) in
  let into_sink = conn b (e, Out 0) (k, In 0) in
  let error mode chan =
    let eng = Engine.create ~mode b.net in
    Engine.set_faults eng (Some (forge ~chan ~cycle:10));
    match Engine.run eng 20 with
    | () -> Alcotest.fail "expected a simulation error"
    | exception Engine.Simulation_error err ->
      ( (err.Engine.err_cycle, err.Engine.err_code),
        (err.Engine.err_node, err.Engine.err_channel) )
  in
  let typed = Alcotest.(pair (pair int (option string))
                          (pair (option int) (option int))) in
  List.iter
    (fun mode ->
       let name = Engine.mode_name mode in
       Alcotest.check typed (name ^ ": payload-free token into the EB")
         ((10, None), (Some e, None)) (error mode into_eb);
       Alcotest.check typed (name ^ ": payload-free token at the sink")
         ((10, None), (Some k, Some into_sink)) (error mode into_sink))
    modes

(* With a ticker clock the settle timer is exact: 150 cycles of two
   readings [step] ns apart.  Both designs settle in one static sweep
   every cycle (one pass each), and the compile time is one tick; the
   settle seconds are the whole-ns total, within 1e-14 (relative) of a
   per-cycle float sum (printed as [parent]). *)
let test_ticker_profile () =
  List.iter
    (fun (name, net, hist, step, parent, compile) ->
       let eng = Engine.create ~clock:(Clock.ticker ~step_ns:step) net in
       Engine.run eng 150;
       let p = Engine.profile eng in
       let what = Fmt.str "%s, %Ld ns ticker" name step in
       Alcotest.(check (float 0.)) (what ^ ": settle seconds")
         (float_of_int (150 * Int64.to_int step) *. 1e-9)
         (Profile.settle_seconds p);
       Alcotest.(check (float (1e-14 *. parent)))
         (what ^ ": settle seconds, parent") parent (Profile.settle_seconds p);
       Alcotest.(check (float 0.)) (what ^ ": compile seconds") compile
         (Profile.compile_seconds p);
       Alcotest.(check (list (pair int int))) (what ^ ": pass histogram") hist
         (Profile.pass_histogram p))
    [ ("E5", e5_net (), [ (1, 150) ], 100L, 1.500000000000005e-05,
       1.0000000000000001e-07);
      ("E6", e6_net (), [ (1, 150) ], 100L, 1.500000000000005e-05,
       1.0000000000000001e-07);
      ("E5", e5_net (), [ (1, 150) ], 7L, 1.050000000000001e-06,
       7.0000000000000006e-09);
      ("E6", e6_net (), [ (1, 150) ], 1_000L, 0.00014999999999999969,
       1.0000000000000002e-06) ]

(* A shared module and a variable-latency unit apply their functions
   through the unary entry, so [Engine.create] refuses a function of
   another arity there, in both backends, naming the node; no step
   checks it again. *)
let test_create_checks_arity () =
  let add2 = Func.add_int ~arity:2 () in
  let shared_net () =
    let b = builder () in
    let s0 = src_stream b ~name:"s0" [ 1 ] in
    let s1 = src_stream b ~name:"s1" [ 2 ] in
    let sh =
      add b ~name:"sh"
        (Shared
           { ways = 2; f = add2; sched = Elastic_sched.Scheduler.Toggle;
             hinted = false })
    in
    let k0 = sink b ~name:"k0" () and k1 = sink b ~name:"k1" () in
    let _ = conn b (s0, Out 0) (sh, In 0) in
    let _ = conn b (s1, Out 0) (sh, In 1) in
    let _ = conn b (sh, Out 0) (k0, In 0) in
    let _ = conn b (sh, Out 1) (k1, In 0) in
    (b.net, sh)
  in
  let varlat_net () =
    let b = builder () in
    let s = src_stream b ~name:"s" [ 1 ] in
    let id = Func.identity () in
    let v = add b ~name:"v" (Varlat { fast = id; slow = id; err = add2 }) in
    let k = sink b ~name:"k" () in
    let _ = conn b (s, Out 0) (v, In 0) in
    let _ = conn b (v, Out 0) (k, In 0) in
    (b.net, v)
  in
  List.iter
    (fun (what, (net, node)) ->
       List.iter
         (fun mode ->
            match Engine.create ~mode net with
            | _ -> Alcotest.failf "%s: created" what
            | exception Engine.Simulation_error e ->
              Alcotest.(check (pair int (option int)))
                (Fmt.str "%s (%s): cycle 0, the node" what
                   (Engine.mode_name mode))
                (0, Some node) (e.Engine.err_cycle, e.Engine.err_node);
              if not (contains e.Engine.err_msg "function add has arity 2")
              then Alcotest.failf "%s: %s" what e.Engine.err_msg)
         modes)
    [ ("shared module", shared_net ()); ("varlat", varlat_net ()) ]

(* The pass histogram is an int array that grows the first time a cycle
   takes more passes than it has rows; [reset] empties it. *)
let test_pass_histogram_growth () =
  let p = Profile.create ~n_nodes:1 in
  List.iter
    (fun passes -> Profile.record_cycle p ~passes ~ns:10)
    [ 0; 3; 20; 3; 7; 8; 20 ];
  Alcotest.(check (list (pair int int))) "histogram"
    [ (0, 1); (3, 2); (7, 1); (8, 1); (20, 2) ]
    (Profile.pass_histogram p);
  Alcotest.(check (pair int int)) "max and last passes" (20, 20)
    (Profile.max_passes p, Profile.last_passes p);
  Alcotest.(check (float 0.)) "settle seconds" 70e-9
    (Profile.settle_seconds p);
  Profile.reset p;
  Alcotest.(check (list (pair int int))) "after reset" []
    (Profile.pass_histogram p);
  Profile.record_cycle p ~passes:2 ~ns:5;
  Alcotest.(check (list (pair int int))) "one cycle after reset" [ (2, 1) ]
    (Profile.pass_histogram p)

(* The select one past the last way, lazy and early: both modes refuse
   it as they refuse a select far out of range, with the same message;
   a lazy mux forwards the named input without an argument list, so the
   bound is checked on the arena's own path. *)
let test_select_at_way_count () =
  let build early =
    let b = builder () in
    let sel = src_stream b ~name:"sel" [ 1; 0; 2 ] in
    let s0 = src_counter b ~name:"s0" () in
    let s1 = src_counter b ~name:"s1" () in
    let m = add b ~name:"mux" (Mux { ways = 2; early }) in
    let k = sink b ~name:"snk" () in
    let _ = conn b (sel, Out 0) (m, Sel) in
    let _ = conn b (s0, Out 0) (m, In 0) in
    let _ = conn b (s1, Out 0) (m, In 1) in
    let _ = conn b (m, Out 0) (k, In 0) in
    b.net
  in
  List.iter
    (fun early ->
       List.iter
         (fun mode ->
            let _, msg =
              rendered_error (fun () ->
                  Engine.run (Engine.create ~mode (build early)) 20)
            in
            if not (Helpers.contains msg "select: index 2 out of range") then
              Alcotest.failf "early=%b, %s: %s" early (Engine.mode_name mode)
                msg)
         modes)
    [ false; true ]

let suite =
  [ Alcotest.test_case "mode names round-trip" `Quick test_mode_names;
    Alcotest.test_case "default backend is arena" `Quick test_default_mode;
    Alcotest.test_case "E110 renders identically in all modes" `Quick
      test_e110_parity;
    Alcotest.test_case "E102 renders identically in all modes" `Quick
      test_e102_parity;
    Alcotest.test_case "invariant errors render identically in all modes"
      `Quick test_invariant_parity;
    Alcotest.test_case "E6 profile is frozen, evals follow the sweep" `Quick
      test_profile_golden;
    Alcotest.test_case "injected channels agree with levelized" `Quick
      test_injected_parity;
    Alcotest.test_case "arena runs are deterministic" `Quick
      test_arena_determinism;
    Alcotest.test_case "E5 prometheus render is frozen" `Quick
      test_prom_golden_e5;
    Alcotest.test_case "E6 prometheus render is frozen" `Quick
      test_prom_golden_e6;
    Alcotest.test_case "E5 windowed JSONL series is frozen" `Quick
      test_window_golden_e5;
    Alcotest.test_case "E6 windowed JSONL series is frozen" `Quick
      test_window_golden_e6;
    Alcotest.test_case "arena settle loop does not allocate" `Quick
      test_settle_allocation_guard;
    Alcotest.test_case "E5 step allocation budget" `Quick
      test_e5_allocation_guard;
    Alcotest.test_case "E6 step allocation budget" `Quick
      test_e6_allocation_guard;
    Alcotest.test_case "state compare, hash and restore allocate nothing"
      `Quick test_state_allocation_guard;
    Alcotest.test_case "a faulted step allocates as a plain one" `Quick
      test_fault_allocation_guard;
    Alcotest.test_case "sampler observe allocation budget" `Quick
      test_observe_allocation_guard;
    Alcotest.test_case "compile words per channel do not grow with size"
      `Quick test_compile_scaling_guard;
    Alcotest.test_case "identity replay pipeline allocates only sink records"
      `Quick test_identity_pipeline_allocation_guard;
    Alcotest.test_case "payload-free tokens fail as typed errors" `Quick
      test_forged_token_errors;
    Alcotest.test_case "ticker settle time and pass histogram" `Quick
      test_ticker_profile;
    Alcotest.test_case "create refuses a non-unary shared function" `Quick
      test_create_checks_arity;
    Alcotest.test_case "pass histogram grows past its rows" `Quick
      test_pass_histogram_growth;
    Alcotest.test_case "a select equal to the way count is refused" `Quick
      test_select_at_way_count;
    Alcotest.test_case "a fault's prediction wins over ~choices" `Quick
      test_fault_prediction_wins;
    Alcotest.test_case "set_faults checks forced predictions" `Quick
      test_forced_prediction_checked ]

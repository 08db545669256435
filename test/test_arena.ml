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
   [e6.profile.expected], [e6_inject.trace.jsonl.expected]) were
   captured from the record-based levelized scheduler that the arena
   replaced, which ran the same schedule: the arena must keep
   reproducing them byte for byte, eval counts included. *)

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

(* The arena batches its eval accounting ([Profile.add_evals] once per
   settle); totals, per-node counters and the pass histogram must still
   equal the golden one-note_eval-per-eval stream. *)
let test_profile_parity () =
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
  Alcotest.(check int) "arena evals = sum of per-node counters"
    (Profile.evals p)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 nodes)

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
   edge read it in place, and payloads are fetched only where a token
   moves.  What a cycle still allocates is the payload work (data
   functions and boxed words in settle, the payloads that move into
   monitors, buffers and sink streams) and the settle timer's
   bookkeeping (two clock readings, the settle-seconds float, the pass
   histogram's option).  Allocation counts are deterministic: the
   control-only pipeline's budget is its exact count (12 words, all
   timer bookkeeping; nothing after settle), and the E5/E6 budgets add
   ~5% to the measured 76.5 and 105 words.  Any new per-cycle
   allocation, such as a per-channel record or per-node port views at
   the clock edge, trips them. *)
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
  check_budget "a control-only pipeline" ~budget:12. b.net

(* E5/E6 with monitors on (the [Engine.create] default), long enough
   that tokens flow through every measured cycle. *)
let test_e5_allocation_guard () =
  check_budget "E5 (vl_speculative)" ~budget:80.
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:10 ~seed:7 2400)).Examples.d_net

let test_e6_allocation_guard () =
  check_budget "E6 (rs_speculative)" ~budget:110.
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
   forced misprediction.  The flip costs the most, 58 words on OCaml
   5.1, most of it the rebuilt payload; the other cycles cost 0 to 19. *)
let window_words = 96.

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
        Fault.mispredict ~node:stage ~cycle:38 1 ]
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
    if extra > window_words then
      Alcotest.failf "cycle %d of the window: %.0f words over a plain step \
                      (budget %.0f)" k extra window_words
  done

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

let suite =
  [ Alcotest.test_case "mode names round-trip" `Quick test_mode_names;
    Alcotest.test_case "default backend is arena" `Quick test_default_mode;
    Alcotest.test_case "E110 renders identically in all modes" `Quick
      test_e110_parity;
    Alcotest.test_case "E102 renders identically in all modes" `Quick
      test_e102_parity;
    Alcotest.test_case "invariant errors render identically in all modes"
      `Quick test_invariant_parity;
    Alcotest.test_case "profile agrees with levelized" `Quick
      test_profile_parity;
    Alcotest.test_case "injected channels agree with levelized" `Quick
      test_injected_parity;
    Alcotest.test_case "arena runs are deterministic" `Quick
      test_arena_determinism;
    Alcotest.test_case "E5 prometheus render matches levelized" `Quick
      test_prom_golden_e5;
    Alcotest.test_case "E6 prometheus render matches levelized" `Quick
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
      `Quick test_compile_scaling_guard ]

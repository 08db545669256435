open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_datapath
open Elastic_trace
open Elastic_metrics
open Helpers

(* Differential testing of the two evaluation backends: the flat-arena
   evaluator (the engine's default) against the reference fixpoint, the
   deliberately naive oracle.  On every design — the paper's figures and
   examples, random pipelines, mux diamonds and word-width datapaths,
   with and without fault injection — both modes must produce
   bit-identical signal traces, sink streams, statistics counters,
   rendered trace event streams, metrics snapshots and final register
   state.

   The one sanctioned divergence: the reference fixpoint re-evaluates
   every node every pass, so its eval counters (node evals, settle
   passes, convergence retries) exceed the arena's.  Those metric
   families are filtered from the comparison; the arena's own counts
   are locked by the golden fixtures in test_arena.ml. *)

let violation_keys eng =
  List.map
    (fun (ch, v) -> (ch, v.Protocol.property))
    (Engine.violations eng)

let sinks_of net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ -> Some n.Netlist.id
       | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
       | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
       | Netlist.Varlat _ -> None)
    (Netlist.nodes net)

(* Metric families whose values depend on how many times nodes were
   evaluated — the only quantities the reference fixpoint is allowed to
   differ on. *)
let eval_cost_family name =
  Helpers.contains name "node_evals"
  || Helpers.contains name "settle_passes"
  || Helpers.contains name "convergence_retry"

let render_samples samples =
  Prometheus.render
    (List.filter
       (fun (s : Metrics.sample) -> not (eval_cost_family s.Metrics.m_name))
       samples)

type harnessed = {
  h_eng : Engine.t;
  h_tracer : Tracer.t;
  h_sampler : Sampler.t;
}

(* Run both modes in lockstep, comparing every channel's raw signal,
   control code, events and counters and the violation count on every
   cycle, then the cumulative observations, the
   rendered trace event stream and the metrics snapshot.  Both engines
   run the one plan value: a plan holds no state.  If one mode raises,
   the other must raise the same error on the same cycle.
   Engines run on deterministic tick clocks, so even the settle-seconds
   gauges must agree byte-for-byte. *)
let run_pair ~name ?(cycles = 200) ?faults net =
  let plan = Option.map (Elastic_fault.Fault.plan net) faults in
  let make mode =
    let eng =
      Engine.create ~mode ~clock:(Clock.ticker ~step_ns:100L) net
    in
    let tracer = Tracer.attach ~capacity:1_000_000 eng in
    let sampler = Sampler.attach eng in
    Engine.set_faults eng plan;
    { h_eng = eng; h_tracer = tracer; h_sampler = sampler }
  in
  let ar = make Engine.Arena and rf = make Engine.Reference in
  let chans = Netlist.channels net in
  (* Each channel's counters re-derived from the record view
     ([Signal.resolve], [Signal.events] of [Engine.signal]): delivered,
     killed, valid, retry, anti. *)
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (c : Netlist.channel) ->
       Hashtbl.replace expected c.Netlist.ch_id (Array.make 5 0))
    chans;
  let count a k b = if b then a.(k) <- a.(k) + 1 in
  let safe h =
    try
      Engine.step h.h_eng;
      None
    with Engine.Simulation_error e -> Some (Engine.error_to_string e)
  in
  let rec loop cyc =
    if cyc > cycles then false
    else
      match safe ar, safe rf with
      | None, None ->
        List.iter
          (fun (c : Netlist.channel) ->
             let id = c.Netlist.ch_id in
             let sa = Engine.signal ar.h_eng id
             and sr = Engine.signal rf.h_eng id in
             if not (Signal.equal sa sr) then
               Alcotest.failf
                 "%s: cycle %d, channel %s: arena %a but reference %a" name
                 cyc c.Netlist.ch_name Signal.pp sa Signal.pp sr;
             let differ what =
               Alcotest.failf "%s: cycle %d, channel %s: %s differ" name
                 cyc c.Netlist.ch_name what
             in
             (* The code store, the events derived from it and the
                counters it feeds, cycle by cycle in both backends. *)
             if Engine.code ar.h_eng id <> Signal.code sa then
               differ "arena code and signal";
             if Engine.code ar.h_eng id <> Engine.code rf.h_eng id then
               differ "codes";
             if Engine.events ar.h_eng id <> Signal.events sa then
               differ "arena events and signal";
             if Engine.events ar.h_eng id <> Engine.events rf.h_eng id then
               differ "events";
             if Engine.activity ar.h_eng id <> Engine.activity rf.h_eng id
             then differ "activity counts";
             if Engine.delivered ar.h_eng id <> Engine.delivered rf.h_eng id
             then differ "delivered counts";
             if Engine.killed ar.h_eng id <> Engine.killed rf.h_eng id then
               differ "killed counts";
             let e = Hashtbl.find expected id in
             let ev = Signal.events sa and r = Signal.resolve sa in
             count e 0 ev.Signal.token_in;
             count e 1 ev.Signal.cancelled;
             count e 2 r.Signal.v_plus;
             count e 3 (r.Signal.v_plus && r.Signal.s_plus);
             count e 4 r.Signal.v_minus;
             let valid, retry, anti = Engine.activity ar.h_eng id in
             if
               [| Engine.delivered ar.h_eng id; Engine.killed ar.h_eng id;
                  valid; retry; anti |]
               <> e
             then differ "counters and the record view's")
          chans;
        let va = Engine.violation_count ar.h_eng in
        if va <> Engine.violation_count rf.h_eng then
          Alcotest.failf "%s: cycle %d: violation counts differ" name cyc;
        if va <> List.length (Engine.violations ar.h_eng) then
          Alcotest.failf "%s: cycle %d: violation_count is not the list's \
                          length" name cyc;
        loop (cyc + 1)
      | Some a, Some b ->
        Alcotest.(check string)
          (Fmt.str "%s: both modes fail identically at cycle %d" name cyc)
          a b;
        true
      | Some a, None ->
        Alcotest.failf "%s: cycle %d: only arena raised: %s" name cyc a
      | None, Some b ->
        Alcotest.failf "%s: cycle %d: only reference raised: %s" name cyc b
  in
  let crashed = loop 1 in
  if not crashed then begin
    let ea = ar.h_eng and er = rf.h_eng in
    List.iter
      (fun (c : Netlist.channel) ->
         let id = c.Netlist.ch_id in
         Alcotest.(check int)
           (Fmt.str "%s: delivered on %s" name c.Netlist.ch_name)
           (Engine.delivered ea id) (Engine.delivered er id);
         Alcotest.(check int)
           (Fmt.str "%s: killed on %s" name c.Netlist.ch_name)
           (Engine.killed ea id) (Engine.killed er id);
         Alcotest.(check (triple int int int))
           (Fmt.str "%s: activity on %s" name c.Netlist.ch_name)
           (Engine.activity ea id) (Engine.activity er id))
      chans;
    List.iter
      (fun snk ->
         let entries eng =
           List.map
             (fun (e : Transfer.entry) -> (e.Transfer.cycle, e.Transfer.value))
             (Transfer.entries (Engine.sink_stream eng snk))
         in
         Alcotest.(check (list (pair int value)))
           (Fmt.str "%s: sink stream" name)
           (entries ea) (entries er))
      (sinks_of net);
    Alcotest.(check (list (pair string string)))
      (Fmt.str "%s: protocol violations" name)
      (violation_keys ea) (violation_keys er);
    Alcotest.(check bool)
      (Fmt.str "%s: final register state" name)
      true
      (Engine.same_future ea (Engine.snapshot er));
    (* The rendered event stream is backend-independent: compare the
       full JSONL text byte-for-byte. *)
    Alcotest.(check string)
      (Fmt.str "%s: trace event stream" name)
      (Jsonl.to_string net (Tracer.events ar.h_tracer))
      (Jsonl.to_string net (Tracer.events rf.h_tracer));
    Alcotest.(check string)
      (Fmt.str "%s: metrics snapshot" name)
      (render_samples (Sampler.sample ar.h_sampler ea))
      (render_samples (Sampler.sample rf.h_sampler er))
  end

(* --- the paper's designs ------------------------------------------- *)

let designs =
  let case name (mk : unit -> Netlist.t) = (name, mk) in
  [ case "fig1a" (fun () -> (Figures.fig1a ()).Figures.net);
    case "fig1b" (fun () -> (Figures.fig1b ()).Figures.net);
    case "fig1c" (fun () -> (Figures.fig1c ()).Figures.net);
    case "fig1d" (fun () -> (Figures.fig1d ()).Figures.net);
    case "table1" (fun () -> (Figures.table1 ()).Figures.t1_net);
    case "vl_stalling" (fun () ->
        let ops = Alu.operands ~error_rate_pct:10 ~seed:7 100 in
        (Examples.vl_stalling ~ops).Examples.d_net);
    case "vl_speculative" (fun () ->
        let ops = Alu.operands ~error_rate_pct:10 ~seed:7 100 in
        (Examples.vl_speculative ~ops).Examples.d_net);
    case "rs_nonspeculative" (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
        (Examples.rs_nonspeculative ~ops).Examples.d_net);
    case "rs_speculative" (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
        (Examples.rs_speculative ~ops).Examples.d_net);
    case "rs_speculative_alarmed" (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
        (fst (Examples.rs_speculative_alarmed ~ops)).Examples.d_net);
    case "vl_speculative all-error" (fun () ->
        (* every operation takes the slow path: the recovery machinery
           (replay, anti-token kills) is exercised on each token *)
        let ops = Alu.operands ~error_rate_pct:100 ~seed:3 60 in
        (Examples.vl_speculative ~ops).Examples.d_net);
    case "vl_stalling error-free" (fun () ->
        let ops = Alu.operands ~error_rate_pct:0 ~seed:3 60 in
        (Examples.vl_stalling ~ops).Examples.d_net);
    case "pc_loop" (fun () -> (Examples.pc_loop ()).Examples.pl_net);
    (* The designs blif.cosim checks the exported tables on gate by
       gate: each puts a controller where an equation the designs above
       never exercise matters (a fork's pending anti-token meeting a
       token, a ready variable-latency result under a stalled sink). *)
    case "cosim lazy mux" (fun () -> fst (Test_blif_cosim.lazy_mux ()));
    case "cosim hinted shared" Test_blif_cosim.hinted_shared;
    case "cosim 3-way fork" Test_blif_cosim.fork3;
    case "cosim fork into early mux" (fun () ->
        fst (Test_blif_cosim.fork_into_early_mux ()));
    case "cosim variable latency" (fun () -> fst (Test_blif_cosim.varlat ())) ]

let design_cases =
  List.map
    (fun (name, mk) ->
       Alcotest.test_case name `Quick (fun () -> run_pair ~name (mk ())))
    designs

(* --- degenerate structures ------------------------------------------ *)

(* The zero-node netlist and the smallest populated one: the arena's
   index arithmetic must survive empty arrays and single-element
   buffers. *)
let degenerate_cases =
  let case name mk =
    Alcotest.test_case name `Quick (fun () ->
        run_pair ~name ~cycles:50 (mk ()))
  in
  [ case "zero-node netlist" (fun () -> Netlist.empty);
    case "single channel source->sink" (fun () ->
        let b = builder () in
        let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
        let k = sink b ~name:"snk" () in
        let _ = conn b (s, Out 0) (k, In 0) in
        b.net);
    case "init-token drain order" (fun () ->
        (* pre-seeded buffers: the arena must read the shared register
           state, not reconstruct it *)
        let b = builder () in
        let s = src_stream b ~name:"src" [ 10; 11; 12 ] in
        let e1 = eb b ~name:"e1" ~init:[ Value.Int 1; Value.Int 2 ] () in
        let e2 = eb0 b ~name:"e2" ~init:[ Value.Int 3 ] () in
        let k = sink_pattern b ~name:"snk" [| true; false; false |] in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (k, In 0) in
        b.net) ]

(* --- the same designs under fault injection ------------------------- *)

let first_channel net = (List.hd (Netlist.channels net)).Netlist.ch_id

let fault_cases =
  let open Elastic_fault in
  let case name mk_net mk_faults =
    Alcotest.test_case (name ^ " under faults") `Quick (fun () ->
        let net = mk_net () in
        run_pair ~name ~cycles:120 ~faults:(mk_faults net) net)
  in
  [ case "rs_speculative" (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 60 in
        (Examples.rs_speculative ~ops).Examples.d_net)
      (fun net ->
         let ch = first_channel net in
         [ Fault.flip_bit ~channel:ch ~cycle:10 3;
           Fault.drop_token ~channel:ch ~cycle:30;
           Fault.stuck_stall ~channel:ch ~cycle:50 ~duration:3 ]);
    case "fig1d" (fun () -> (Figures.fig1d ()).Figures.net)
      (fun net ->
         let ch = first_channel net in
         Fault.control_glitch ~channel:ch ~cycle:25
         @ [ Fault.duplicate_token ~channel:ch ~cycle:60 ]);
    case "table1" (fun () -> (Figures.table1 ()).Figures.t1_net)
      (fun net ->
         let ch = first_channel net in
         [ Fault.duplicate_token ~channel:ch ~cycle:15;
           Fault.flip_bit ~channel:ch ~cycle:40 0;
           Fault.drop_token ~channel:ch ~cycle:70 ]) ]

(* Designs larger than the bundled ones: 64 lanes of the E5 design
   (1 024 channels), and 8 lanes of E7's alarmed SECDED adder under the
   rs_speculative fault schedule above, on its first lane's first
   channel. *)
let lane_cases =
  let open Elastic_fault in
  [ Alcotest.test_case "vl_speculative lanes 64" `Quick (fun () ->
        let ops = Alu.operands ~error_rate_pct:10 ~seed:7 100 in
        run_pair ~name:"vl_speculative lanes 64"
          (Examples.lanes 64 (Examples.vl_speculative ~ops).Examples.d_net));
    Alcotest.test_case "rs_speculative_alarmed lanes 8 under faults" `Quick
      (fun () ->
         let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 60 in
         let net =
           Examples.lanes 8
             (fst (Examples.rs_speculative_alarmed ~ops)).Examples.d_net
         in
         let ch = first_channel net in
         run_pair ~name:"rs_speculative_alarmed lanes 8" ~cycles:120
           ~faults:
             [ Fault.flip_bit ~channel:ch ~cycle:10 3;
               Fault.drop_token ~channel:ch ~cycle:30;
               Fault.stuck_stall ~channel:ch ~cycle:50 ~duration:3 ]
           net) ]

(* --- random structures ---------------------------------------------- *)

let pipe_equiv =
  let open QCheck in
  Test.make ~name:"qcheck: all modes agree on random pipelines"
    ~count:120
    (make ~print:Test_sim_property.print_pipe Test_sim_property.gen_pipe)
    (fun p ->
       let net, _, _, _ = Test_sim_property.build_pipe p in
       run_pair ~name:"pipe" net;
       true)

type diamond = {
  d_ways : int;
  d_early : bool;
  d_sel : int list;  (* select stream, reduced mod d_ways *)
  d_buf : Netlist.buffer_kind;
  d_stall : int;
  d_seed : int;
}

let gen_diamond =
  let open QCheck.Gen in
  let* d_ways = int_range 2 4 in
  let* d_early = bool in
  let* d_sel = list_size (int_range 5 40) (int_bound 3) in
  let* d_buf = oneofl [ Netlist.Eb; Netlist.Eb0 ] in
  let* d_stall = int_bound 80 in
  let* d_seed = int_bound 10000 in
  return { d_ways; d_early; d_sel; d_buf; d_stall; d_seed }

let print_diamond d =
  Fmt.str "ways=%d early=%b buf=%s stall=%d%% seed=%d sel=[%a]" d.d_ways
    d.d_early
    (Netlist.buffer_kind_name d.d_buf)
    d.d_stall d.d_seed
    Fmt.(list ~sep:nop int)
    (List.map (fun s -> s mod d.d_ways) d.d_sel)

(* A multi-way mux diamond: every arm is buffered, so an early mux
   steers anti-tokens into each arm it did not pick — with up to three
   unselected arms carrying anti-tokens in flight at once. *)
let build_diamond d =
  let b = builder () in
  let sel =
    add b ~name:"sel"
      (Source (Stream (ints (List.map (fun s -> s mod d.d_ways) d.d_sel))))
  in
  let m = add b ~name:"mux" (Mux { ways = d.d_ways; early = d.d_early }) in
  let k =
    add b ~name:"snk"
      (Sink (Random_stall { pct = d.d_stall; seed = d.d_seed }))
  in
  let _ = conn b (sel, Out 0) (m, Sel) in
  for w = 0 to d.d_ways - 1 do
    let s =
      add b ~name:(Fmt.str "s%d" w)
        (Source (Counter { start = 100 * w; step = 1 }))
    in
    let e =
      add b ~name:(Fmt.str "arm%d" w) (Buffer { buffer = d.d_buf; init = [] })
    in
    let _ = conn b (s, Out 0) (e, In 0) in
    let _ = conn b (e, Out 0) (m, In w) in
    ()
  done;
  let _ = conn b (m, Out 0) (k, In 0) in
  b.net

let diamond_equiv =
  let open QCheck in
  Test.make ~name:"qcheck: all modes agree on random mux diamonds"
    ~count:120
    (make ~print:print_diamond gen_diamond)
    (fun d ->
       run_pair ~name:"diamond" (build_diamond d);
       true)

(* --- word-width datapaths ------------------------------------------- *)

type word_pipe = {
  w_width : int;  (* 1 / 32 / 63 / 64 — the int64 boundary cases *)
  w_vals : int64 list;
  w_stages : int;
  w_stall : int;
  w_seed : int;
}

let mask_to_width width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let gen_word_pipe =
  let open QCheck.Gen in
  let* w_width = oneofl [ 1; 32; 63; 64 ] in
  let edge =
    oneofl
      [ 0L; 1L; Int64.minus_one; Int64.max_int; Int64.min_int;
        0xDEAD_BEEF_CAFE_F00DL ]
  in
  let* w_vals =
    list_size (int_range 4 24)
      (oneof [ edge; map Int64.of_int (int_bound 1_000_000) ])
  in
  let* w_stages = int_range 1 3 in
  let* w_stall = int_bound 70 in
  let* w_seed = int_bound 10000 in
  return
    { w_width; w_vals = List.map (mask_to_width w_width) w_vals;
      w_stages; w_stall; w_seed }

let print_word_pipe w =
  Fmt.str "width=%d stages=%d stall=%d%% seed=%d vals=[%a]" w.w_width
    w.w_stages w.w_stall w.w_seed
    Fmt.(list ~sep:semi (fun ppf v -> pf ppf "%Lx" v))
    w.w_vals

(* An int64 rotate keeps every stage's word payload width-exact. *)
let build_word_pipe w =
  let b = builder () in
  let s =
    add b ~name:"src"
      (Source (Stream (List.map (fun v -> Value.Word v) w.w_vals)))
  in
  let rot =
    Func.make ~name:"rot1" ~arity:1 ~delay:1.0 ~area:8.0 (function
      | [ v ] ->
        let x = Value.to_word v in
        let r =
          Int64.logor (Int64.shift_left x 1)
            (Int64.shift_right_logical x 63)
        in
        Value.Word (mask_to_width w.w_width r)
      | _ -> assert false)
  in
  let k =
    add b ~name:"snk"
      (Sink (Random_stall { pct = w.w_stall; seed = w.w_seed }))
  in
  let prev = ref s in
  for i = 0 to w.w_stages - 1 do
    let f = add b ~name:(Fmt.str "rot%d" i) (Func rot) in
    let e = add b ~name:(Fmt.str "eb%d" i) (Buffer { buffer = Eb; init = [] }) in
    let _ = conn b ~width:w.w_width (!prev, Out 0) (f, In 0) in
    let _ = conn b ~width:w.w_width (f, Out 0) (e, In 0) in
    prev := e
  done;
  let _ = conn b ~width:w.w_width (!prev, Out 0) (k, In 0) in
  b.net

let word_pipe_equiv =
  let open QCheck in
  Test.make ~name:"qcheck: all modes agree on word-width pipelines"
    ~count:100
    (make ~print:print_word_pipe gen_word_pipe)
    (fun w ->
       run_pair ~name:"word pipe" (build_word_pipe w);
       true)

(* --- shared modules under every scheduler --------------------------- *)

type shared_spec = {
  sh_ways : int;
  sh_sched : Elastic_sched.Scheduler.spec;
  sh_rates : int list;  (* per-way source offer rate *)
  sh_stall : int;
  sh_seed : int;
}

let gen_shared =
  let open QCheck.Gen in
  let open Elastic_sched in
  let* sh_ways = int_range 2 3 in
  let* sh_sched =
    (* the two-bit counter is a binary predictor *)
    oneofl
      (if sh_ways = 2 then
         [ Scheduler.Static 0; Scheduler.Toggle; Scheduler.Sticky;
           Scheduler.Two_bit; Scheduler.Round_robin ]
       else
         [ Scheduler.Static 0; Scheduler.Toggle; Scheduler.Sticky;
           Scheduler.Round_robin ])
  in
  let* sh_rates = list_repeat sh_ways (int_range 20 100) in
  let* sh_stall = int_bound 60 in
  let* sh_seed = int_bound 10000 in
  return { sh_ways; sh_sched; sh_rates; sh_stall; sh_seed }

let print_shared s =
  Fmt.str "ways=%d sched=%s rates=[%a] stall=%d%% seed=%d" s.sh_ways
    (Elastic_sched.Scheduler.spec_name s.sh_sched)
    Fmt.(list ~sep:comma int)
    s.sh_rates s.sh_stall s.sh_seed

let build_shared s =
  let b = builder () in
  let m =
    add b ~name:"shared"
      (Shared
         { ways = s.sh_ways; f = Func.inc ~step:1 (); sched = s.sh_sched;
           hinted = false })
  in
  List.iteri
    (fun w pct ->
       let src =
         add b ~name:(Fmt.str "s%d" w)
           (Source (Random_rate { pct; seed = s.sh_seed + w }))
       in
       let e =
         add b ~name:(Fmt.str "in%d" w) (Buffer { buffer = Eb; init = [] })
       in
       let k =
         add b ~name:(Fmt.str "k%d" w)
           (Sink (Random_stall { pct = s.sh_stall; seed = s.sh_seed + 31 + w }))
       in
       let _ = conn b (src, Out 0) (e, In 0) in
       let _ = conn b (e, Out 0) (m, In w) in
       let _ = conn b (m, Out w) (k, In 0) in
       ())
    s.sh_rates;
  b.net

let shared_equiv =
  let open QCheck in
  Test.make ~name:"qcheck: all modes agree on random shared modules"
    ~count:100
    (make ~print:print_shared gen_shared)
    (fun s ->
       run_pair ~name:"shared" (build_shared s);
       true)

let faulted_pipe_equiv =
  let open QCheck in
  Test.make
    ~name:"qcheck: all modes agree on faulted random pipelines"
    ~count:60
    (make ~print:Test_sim_property.print_pipe Test_sim_property.gen_pipe)
    (fun p ->
       let net, _, src_out, _ = Test_sim_property.build_pipe p in
       let open Elastic_fault in
       let faults =
         [ Fault.flip_bit ~channel:src_out ~cycle:(5 + (p.Test_sim_property.seed mod 40)) 1;
           Fault.drop_token ~channel:src_out
             ~cycle:(10 + (p.Test_sim_property.seed mod 30));
           Fault.stuck_stall ~channel:src_out
             ~cycle:(20 + (p.Test_sim_property.seed mod 20))
             ~duration:2 ]
       in
       run_pair ~name:"faulted pipe" ~faults net;
       true)

(* --- convergence-failure diagnostics -------------------------------- *)

(* With the pass budget forced to zero, the reference fixpoint's very
   first (always-productive) pass trips the non-convergence error, which
   must name the channels that were still changing. *)
let convergence_error_names_channels () =
  let b = builder () in
  let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
  let e = eb b ~name:"buf" () in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (k, In 0) in
  let eng = Engine.create ~mode:Engine.Reference ~max_passes:0 b.net in
  match Engine.step eng with
  | () -> Alcotest.fail "expected a non-convergence error"
  | exception Engine.Simulation_error err ->
    if not (contains err.Engine.err_msg "did not converge") then
      Alcotest.failf "unexpected message: %s" err.Engine.err_msg;
    Alcotest.(check bool) "a channel is identified" true
      (err.Engine.err_channel <> None);
    let named =
      List.filter
        (fun (c : Netlist.channel) ->
           contains err.Engine.err_msg c.Netlist.ch_name)
        (Netlist.channels b.net)
    in
    if named = [] then
      Alcotest.failf "no channel named in: %s" err.Engine.err_msg

(* Every payload constructor crosses the arena's payload store: a
   fork, an EB, an EB0 and a lazy mux on one branch, an early mux on the
   other.  Both sinks receive the input stream in order, in both modes. *)
let test_payload_constructors () =
  let payloads =
    Value.
      [ Unit; Bool true; Int (-7); Word Int64.min_int; Str "payload";
        Tuple [ Int 1; Tuple [ Str ""; Bool false; Word (-1L) ]; Unit ];
        Bool false; Int min_int ]
  in
  let n = List.length payloads in
  let b = builder () in
  (* A source offering [n] copies of [v]. *)
  let repeat ~name v =
    add b ~name (Source (Stream (List.init n (fun _ -> v))))
  in
  let src = add b ~name:"src" (Source (Stream payloads)) in
  let fork = add b ~name:"fork" (Fork 2) in
  let e1 = eb b ~name:"eb" () and e2 = eb0 b ~name:"eb0" () in
  let lazy_mux = add b ~name:"lmux" (Mux { ways = 2; early = false }) in
  let early_mux = add b ~name:"emux" (Mux { ways = 2; early = true }) in
  let k1 = sink b ~name:"k1" () and k2 = sink b ~name:"k2" () in
  let _ = conn b (src, Out 0) (fork, In 0) in
  let _ = conn b (fork, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (e2, In 0) in
  let _ = conn b (e2, Out 0) (lazy_mux, In 0) in
  let _ = conn b (repeat ~name:"pad1" Value.Unit, Out 0) (lazy_mux, In 1) in
  let _ = conn b (repeat ~name:"sel1" (Value.Int 0), Out 0) (lazy_mux, Sel) in
  let _ = conn b (lazy_mux, Out 0) (k1, In 0) in
  let _ = conn b (repeat ~name:"pad2" Value.Unit, Out 0) (early_mux, In 0) in
  let _ = conn b (fork, Out 1) (early_mux, In 1) in
  let _ = conn b (repeat ~name:"sel2" (Value.Int 1), Out 0) (early_mux, Sel) in
  let _ = conn b (early_mux, Out 0) (k2, In 0) in
  run_pair ~name:"payload constructors" ~cycles:40 b.net;
  let eng = run_net ~cycles:40 b.net in
  List.iter
    (fun k ->
       Alcotest.(check (list value)) "sink stream is the input" payloads
         (sink_values eng k))
    [ k1; k2 ]

(* Flips on a fork branch of the E6 design: a map-data override on a
   payload the fork copies, which each backend applies to the value it
   writes there once per cycle. *)
let test_flip_on_fork_branch () =
  let open Elastic_fault in
  let net =
    (Examples.rs_speculative
       ~ops:(Examples.rs_ops ~error_rate_pct:5 ~seed:5 60)).Examples.d_net
  in
  let ch =
    (List.find
       (fun c -> c.Netlist.ch_name = "op_fork.out0->fast.in0")
       (Netlist.channels net)).Netlist.ch_id
  in
  run_pair ~name:"fork branch flips" ~cycles:120
    ~faults:
      [ Fault.flip_bit ~channel:ch ~cycle:10 3;
        Fault.flip_bit ~channel:ch ~cycle:40 0 ]
    net

(* A forged valid on the select of an early mux whose select source is
   spent: the select is valid but carries no payload, so the mux cannot
   tell which input it forwards.  With both inputs offering, its output
   valid stays undetermined, and both modes raise the same E102 on that
   cycle, naming every channel the mux leaves undetermined.  With no
   input offering, the output is known invalid and the cycle settles.
   A valid forged on the output of a mux whose select is idle fires it
   with no select value: which input takes a kill is undetermined. *)
let forged_select_net ~offering =
  let b = builder () in
  let sel = src_stream b ~name:"sel" [] in
  let src name =
    if offering then src_counter b ~name ()
    else src_stream b ~name []
  in
  let a = src "a" and bs = src "b" in
  let m = add b ~name:"m" (Mux { ways = 2; early = true }) in
  let k = sink b ~name:"k" () in
  let sel_ch = conn b (sel, Out 0) (m, Sel) in
  let _ = conn b (a, Out 0) (m, In 0) in
  let _ = conn b (bs, Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (k, In 0) in
  (b.net, sel_ch)

let test_forged_select_error () =
  let net, sel = forged_select_net ~offering:true in
  let faults = [ Elastic_fault.Fault.glitch_valid ~channel:sel ~cycle:2 true ] in
  run_pair ~name:"forged early-mux select" ~cycles:10 ~faults net;
  List.iter
    (fun mode ->
       let eng = Engine.create ~mode net in
       Engine.set_faults eng (Some (Elastic_fault.Fault.plan net faults));
       match Engine.run eng 10 with
       | () -> Alcotest.failf "%s: no error" (Engine.mode_name mode)
       | exception Engine.Simulation_error e ->
         Alcotest.(check string) (Engine.mode_name mode)
           "cycle 2 [E102], node 0, channel 0: combinational cycle, \
            undetermined channels: sel.out0->m.sel, a.out0->m.in0, \
            b.out0->m.in1, m.out0->k.in0"
           (Engine.error_to_string e))
    [ Engine.Arena; Engine.Reference ];
  let net, sel = forged_select_net ~offering:false in
  run_pair ~name:"forged select, idle inputs" ~cycles:10
    ~faults:[ Elastic_fault.Fault.glitch_valid ~channel:sel ~cycle:2 true ]
    net;
  let net, _ = forged_select_net ~offering:true in
  let out =
    (List.find
       (fun c -> c.Netlist.ch_name = "m.out0->k.in0")
       (Netlist.channels net)).Netlist.ch_id
  in
  List.iter
    (fun level ->
       run_pair ~name:(Fmt.str "forged mux output %b" level) ~cycles:10
         ~faults:[ Elastic_fault.Fault.glitch_valid ~channel:out ~cycle:2 level ]
         net)
    [ true; false ]

(* Unary stages beside list-form ones: perfbench's G ([Func.make] at
   arity 1, applied through its derived unary entry) as the shared
   module's function of the §5.1 replay stage, whose ALU stages are
   unary, and between unary stages in a pipeline.  The arena applies
   [Func.eval1], the Reference each function's list form: both agree
   on every cycle and on the sink streams. *)
let test_mixed_func_forms () =
  let g =
    Func.make ~name:"G" ~arity:1 ~delay:1.5 ~area:40.0 (function
      | [ v ] -> Value.Int ((Value.to_int v + 1) land 0xFF)
      | _ -> invalid_arg "G: arity")
  in
  let d =
    Examples.vl_speculative
      ~ops:(Alu.operands ~error_rate_pct:20 ~seed:3 200)
  in
  let net = d.Examples.d_net in
  let stage = Option.get (Netlist.find_node net "stage") in
  let net =
    match stage.Netlist.kind with
    | Shared sh ->
      Netlist.replace_kind net stage.Netlist.id (Shared { sh with f = g })
    | _ -> Alcotest.fail "vl_speculative has no shared stage"
  in
  run_pair ~name:"replay stage with a list-form G" ~cycles:300 net;
  let b = builder () in
  let s = src_stream b ~name:"src" (List.init 150 (fun i -> i * 7)) in
  let g1 = add b ~name:"g1" (Func g) in
  let inc = add b ~name:"inc" (Func (Func.inc ~step:3 ())) in
  let e = eb b ~name:"e" () and g2 = add b ~name:"g2" (Func g) in
  let k = add b ~name:"snk" (Sink (Random_stall { pct = 30; seed = 9 })) in
  let _ = conn b (s, Out 0) (g1, In 0) in
  let _ = conn b (g1, Out 0) (inc, In 0) in
  let _ = conn b (inc, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (g2, In 0) in
  let _ = conn b (g2, Out 0) (k, In 0) in
  run_pair ~name:"list-form and unary pipeline" ~cycles:300 b.net;
  (* A join of three inputs keeps its arguments in port order. *)
  let b = builder () in
  let tuple3 =
    Func.make ~name:"tuple3" ~arity:3 ~delay:1.0 ~area:1.0 (fun vs ->
        Value.Tuple vs)
  in
  let srcs =
    List.init 3 (fun k ->
        src_stream b ~name:(Fmt.str "s%d" k)
          (List.init 20 (fun i -> (10 * k) + i)))
  in
  let j = add b ~name:"j" (Func tuple3) and k = sink b ~name:"snk" () in
  List.iteri (fun p s -> ignore (conn b (s, Out 0) (j, In p))) srcs;
  let _ = conn b (j, Out 0) (k, In 0) in
  run_pair ~name:"three-input join" ~cycles:40 b.net;
  Alcotest.(check (list value)) "arguments in port order"
    (List.init 20 (fun i ->
         Value.Tuple [ Value.Int i; Value.Int (10 + i); Value.Int (20 + i) ]))
    (sink_values (run_net ~cycles:40 b.net) k)

(* --- the settle pass count ------------------------------------------ *)

(* The pass count a step records and the evaluations behind it.  The
   reference fixpoint evaluates every node once per pass.  The arena's
   static sweep is one pass (none with no nodes) and evaluates each
   half once: a source and a sink once a cycle, a shared module twice
   per way, every other node twice.  An observer diffs the per-node
   counters ([Profile.top_nodes]) every cycle and checks them. *)
let gen_random_design =
  let open QCheck.Gen in
  let pipe p =
    let net, _, _, _ = Test_sim_property.build_pipe p in
    net
  in
  oneof
    [ map (fun p -> ("pipe " ^ Test_sim_property.print_pipe p, pipe p))
        Test_sim_property.gen_pipe;
      map (fun d -> ("diamond " ^ print_diamond d, build_diamond d))
        gen_diamond;
      map (fun w -> ("word pipe " ^ print_word_pipe w, build_word_pipe w))
        gen_word_pipe;
      map (fun s -> ("shared " ^ print_shared s, build_shared s)) gen_shared ]

let halves_of (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _ -> 1
  | Netlist.Shared { ways; _ } -> 2 * ways
  | Netlist.Buffer _ | Netlist.Func _ | Netlist.Fork _ | Netlist.Mux _
  | Netlist.Varlat _ ->
    2

let check_pass_counts ~mode net =
  let eng = Engine.create ~mode net in
  let nodes = Array.of_list (Netlist.nodes net) in
  let n = Array.length nodes in
  let before = Array.make n 0 and delta = Array.make n 0 in
  Engine.set_observer eng
    (Some
       (fun e ->
          let p = Engine.profile e in
          Array.fill delta 0 n 0;
          List.iter
            (fun (i, c) ->
               delta.(i) <- c - before.(i);
               before.(i) <- c)
            (Profile.top_nodes p n);
          let passes = Profile.last_passes p in
          let fail fmt =
            Alcotest.failf ("%s, cycle %d: " ^^ fmt) (Engine.mode_name mode)
              (Engine.cycle e)
          in
          Array.iteri
            (fun i d ->
               let name = nodes.(i).Netlist.name in
               match mode with
               | Engine.Reference ->
                 if d <> passes then
                   fail "%s evaluated %d times in %d passes" name d passes
               | Engine.Arena ->
                 if passes <> 1 then fail "%d passes" passes;
                 if d <> halves_of nodes.(i) then
                   fail "%s evaluated %d times" name d)
            delta;
          if n = 0 && passes <> 0 then fail "%d passes, no nodes" passes));
  match Engine.run eng 150 with
  | () -> ()
  | exception Engine.Simulation_error _ -> ()

let one_pass_one_eval_a_half =
  let open QCheck in
  Test.make
    ~name:"qcheck: one pass a cycle, each half evaluated once"
    ~count:100
    (make ~print:fst gen_random_design)
    (fun (_, net) ->
       check_pass_counts ~mode:Engine.Arena net;
       check_pass_counts ~mode:Engine.Reference net;
       true)

(* --- the schedule's shape ------------------------------------------ *)

(* [Engine.create] refuses a design with E102 exactly when lint finds a
   combinational cycle (E102) in it: over the lint mutation catalogue
   below, and over every design [acyclic] checks. *)
let refusal_matches_lint ~name net =
  let refused =
    match Engine.create net with
    | _ -> false
    | exception Engine.Simulation_error e -> e.Engine.err_code = Some "E102"
  in
  let linted =
    List.exists
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = "E102")
      (Elastic_lint.Lint.run net).Elastic_lint.Lint.diags
  in
  if refused <> linted then
    Alcotest.failf "%s: create refuses with E102: %b, lint finds E102: %b"
      name refused linted;
  refused

(* Only a real combinational loop may compile to a cyclic half graph,
   which [Engine.create] refuses: a read set that grows a spurious
   cycle would refuse a working design.  Every bundled design and every
   design the cases and generators above build is acyclic at half
   granularity, and its sweep lists every half that writes. *)
let acyclic ~name net =
  if refusal_matches_lint ~name net then Alcotest.failf "%s: refused" name;
  match Engine.create net with
  | exception Engine.Simulation_error e ->
    Alcotest.failf "%s: %s" name (Engine.error_to_string e)
  | eng ->
    let halves =
      List.fold_left (fun k nd -> k + halves_of nd) 0 (Netlist.nodes net)
    in
    Alcotest.(check int) (name ^ ": halves") halves
      (Array.length (Engine.sweep eng))

let test_bundled_designs_acyclic () =
  List.iter (fun (name, mk) -> acyclic ~name (mk ())) Shell.designs;
  List.iter (fun (name, mk) -> acyclic ~name (mk ())) designs

let random_designs_acyclic =
  let open QCheck in
  Test.make ~name:"qcheck: random designs schedule with no cyclic region"
    ~count:200
    (make ~print:fst gen_random_design)
    (fun (name, net) ->
       acyclic ~name net;
       true)

let test_refusal_matches_lint () =
  let refused =
    List.filter
      (fun (m : Elastic_lint.Mutate.t) ->
         refusal_matches_lint ~name:m.Elastic_lint.Mutate.m_name
           (m.Elastic_lint.Mutate.m_net ()))
      Elastic_lint.Mutate.catalogue
  in
  Alcotest.(check (list string)) "refused mutants" [ "E102" ]
    (List.map (fun (m : Elastic_lint.Mutate.t) -> m.Elastic_lint.Mutate.m_code)
       refused)

(* A shared module's halves come one pair per way, each reading only
   its way (way 0's F half also the hint), so a loop from one way's
   output into another way's input is not combinational.  Through an
   identity and an adder with no EB (a Toggle module) the loop can never
   carry a token, since its two ways would have to fire in one cycle;
   through a variable-latency unit, whose B half reads its output's
   stop, tokens flow.  Both modes accept both designs, lint finds them
   clean, and the two modes run in lockstep. *)
let way_crossing_loop ~varlat =
  let b = builder () in
  let m =
    add b ~name:"m"
      (Shared
         { ways = 2; f = Func.identity ();
           sched = Elastic_sched.Scheduler.Toggle; hinted = false })
  in
  let s1 = src_stream b ~name:"s1" (List.init 60 (fun i -> 100 + i)) in
  let k = sink_pattern b ~name:"k" [| false; true; false |] in
  (if varlat then begin
     let id = Func.identity () in
     let odd =
       Func.unary ~name:"odd" ~delay:1.0 ~area:1.0 (fun v ->
           Value.Int (Value.to_int v land 1))
     in
     let v = add b ~name:"v" (Varlat { fast = id; slow = id; err = odd }) in
     let _ = conn b (m, Out 1) (v, In 0) in
     ignore (conn b (v, Out 0) (m, In 0))
   end
   else begin
     let g = add b ~name:"g" (Func (Func.identity ())) in
     let a = add b ~name:"add" (Func (Func.add_int ~arity:2 ())) in
     let s0 = src_stream b ~name:"s0" (List.init 60 Fun.id) in
     let _ = conn b (m, Out 1) (g, In 0) in
     let _ = conn b (g, Out 0) (a, In 0) in
     let _ = conn b (s0, Out 0) (a, In 1) in
     ignore (conn b (a, Out 0) (m, In 0))
   end);
  let _ = conn b (s1, Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (k, In 0) in
  (b.net, k)

let test_way_crossing_loop () =
  List.iter
    (fun varlat ->
       let net, k = way_crossing_loop ~varlat in
       let name = if varlat then "via varlat" else "via add" in
       Alcotest.(check (list string)) (name ^ ": lint finds nothing") []
         (List.map Diagnostic.to_string
            (Elastic_lint.Lint.run net).Elastic_lint.Lint.diags);
       run_pair ~name ~cycles:240 net;
       Alcotest.(check bool) (name ^ ": tokens reach the sink") varlat
         (sink_values (run_net ~cycles:240 net) k <> []);
       (* The static analyses read the module way by way too. *)
       let r =
         match Timing.analyze net with
         | Ok r -> r
         | Error m -> Alcotest.failf "%s: Timing refuses: %s" name m
       in
       let bound = Elastic_perf.Marked_graph.throughput_bound net in
       if not varlat then
         Alcotest.(check (list (float 1e-9)))
           (name ^ ": forward, backward, bound") [ 7.6; 3.6; 1.0 ]
           [ r.Timing.forward_delay; r.Timing.backward_delay; bound ])
    [ false; true ]

(* Shared-module loops: one from way [j]'s output through 0-2 stateless
   stages into way [k]'s input, with or without an EB, and a hint that
   is absent, fed by a source or fed from way [h]'s output (through a
   fork at the loop's head when [h = j]).  With one pair of halves per
   way, a loop with no EB is combinational exactly when it closes a
   cycle over the ways: [j -> k] for the loop, [h -> 0] for the hint.
   [create] and lint must agree with that, and an accepted design runs
   in lockstep with the Reference. *)
type stage = Ident | Add | Tap

type hint = No_hint | Hint_source | Hint_from of int * bool  (* way, EB *)

type loop_spec = {
  lp_ways : int;
  lp_from : int;
  lp_to : int;
  lp_stages : stage list;
  lp_eb : int option;  (* an EB before stage [p], or at the end *)
  lp_hint : hint;
  lp_seed : int;
}

let gen_loop =
  let open QCheck.Gen in
  let* lp_ways = int_range 2 3 in
  let* lp_from = int_bound (lp_ways - 1) in
  let* lp_to = int_bound (lp_ways - 1) in
  let* n = int_bound 2 in
  let* lp_stages = list_repeat n (oneofl [ Ident; Add; Tap ]) in
  let* lp_eb = opt ~ratio:0.4 (int_bound n) in
  let* lp_hint =
    oneof
      [ return No_hint; return Hint_source;
        map2 (fun h e -> Hint_from (h, e)) (int_bound (lp_ways - 1)) bool ]
  in
  let* lp_seed = int_bound 10000 in
  return { lp_ways; lp_from; lp_to; lp_stages; lp_eb; lp_hint; lp_seed }

let print_loop l =
  Fmt.str "ways=%d %d->%d stages=[%s] eb=%s hint=%s seed=%d" l.lp_ways
    l.lp_from l.lp_to
    (String.concat ";"
       (List.map
          (function Ident -> "ident" | Add -> "add" | Tap -> "tap")
          l.lp_stages))
    (match l.lp_eb with None -> "none" | Some p -> string_of_int p)
    (match l.lp_hint with
     | No_hint -> "none"
     | Hint_source -> "source"
     | Hint_from (h, e) -> Fmt.str "way %d%s" h (if e then " via eb" else ""))
    l.lp_seed

let build_loop l =
  let b = builder () in
  let hinted = l.lp_hint <> No_hint in
  let m =
    add b ~name:"m"
      (Shared
         { ways = l.lp_ways; f = Func.identity ();
           sched =
             (if hinted then Elastic_sched.Scheduler.Hinted_replay
              else Elastic_sched.Scheduler.Round_robin);
           hinted })
  in
  let fresh = ref 0 in
  let name p = incr fresh; Fmt.str "%s%d" p !fresh in
  let source () =
    add b ~name:(name "s")
      (Source (Random_rate { pct = 60; seed = l.lp_seed + !fresh }))
  in
  let sink () =
    add b ~name:(name "k")
      (Sink (Random_stall { pct = 25; seed = l.lp_seed + !fresh }))
  in
  let eb () = add b ~name:(name "eb") (Buffer { buffer = Eb; init = [] }) in
  (* Each stage takes the port its predecessor drives and gives the
     port it drives. *)
  let stage from = function
    | Ident ->
      let g = add b ~name:(name "g") (Func (Func.identity ())) in
      let _ = conn b from (g, In 0) in
      (g, Netlist.Out 0)
    | Add ->
      let a = add b ~name:(name "a") (Func (Func.add_int ~arity:2 ())) in
      let _ = conn b from (a, In 0) in
      let _ = conn b (source (), Out 0) (a, In 1) in
      (a, Netlist.Out 0)
    | Tap ->
      let f = add b ~name:(name "f") (Fork 2) in
      let _ = conn b from (f, In 0) in
      let _ = conn b (f, Out 1) (sink (), In 0) in
      (f, Netlist.Out 0)
  in
  let through from ~eb_at stages =
    let n = List.length stages in
    let at p from =
      if eb_at = Some p then begin
        let e = eb () in
        let _ = conn b from (e, In 0) in
        (e, Netlist.Out 0)
      end
      else from
    in
    at n (List.fold_left (fun from (p, s) -> stage (at p from) s) from
            (List.mapi (fun p s -> (p, s)) stages))
  in
  (* The loop's head, and the hint's origin when it taps way [j]. *)
  let head, hint_from =
    match l.lp_hint with
    | Hint_from (h, _) when h = l.lp_from ->
      let f = add b ~name:"hint_fork" (Fork 2) in
      let _ = conn b (m, Out l.lp_from) (f, In 0) in
      ((f, Netlist.Out 0), Some (f, Netlist.Out 1))
    | Hint_from (h, _) -> ((m, Netlist.Out l.lp_from), Some (m, Netlist.Out h))
    | No_hint | Hint_source -> ((m, Netlist.Out l.lp_from), None)
  in
  let _ =
    conn b (through head ~eb_at:l.lp_eb l.lp_stages) (m, In l.lp_to)
  in
  (match (l.lp_hint, hint_from) with
   | Hint_from (_, e), Some from ->
     let _ =
       conn b (through from ~eb_at:(if e then Some 1 else None) [ Ident ])
         (m, Sel)
     in
     ()
   | Hint_source, _ -> ignore (conn b (source (), Out 0) (m, Sel))
   | (No_hint | Hint_from _), _ -> ());
  for w = 0 to l.lp_ways - 1 do
    if w <> l.lp_to then ignore (conn b (source (), Out 0) (m, In w));
    let tapped =
      w = l.lp_from
      || match l.lp_hint with Hint_from (h, _) -> h = w | _ -> false
    in
    if not tapped then ignore (conn b (m, Out w) (sink (), In 0))
  done;
  b.net

(* The ways' own dependency graph: [j -> k] when the loop has no EB,
   [h -> 0] when the hint has none; a cycle in it is a combinational
   loop. *)
let loop_is_combinational l =
  let loop = if l.lp_eb = None then [ (l.lp_from, l.lp_to) ] else [] in
  let hint =
    match l.lp_hint with
    | Hint_from (h, false) -> [ (h, 0) ]
    | Hint_from (_, true) | No_hint | Hint_source -> []
  in
  let edges = loop @ hint in
  let rec reaches seen a b =
    List.exists
      (fun (x, y) ->
         x = a
         && (y = b || ((not (List.mem y seen)) && reaches (y :: seen) y b)))
      edges
  in
  List.exists (fun (x, _) -> reaches [] x x) edges

let shared_loops_agree =
  let open QCheck in
  Test.make ~name:"qcheck: create and lint agree on shared-module loops"
    ~count:200
    (make ~print:print_loop gen_loop)
    (fun l ->
       let net = build_loop l in
       let refused = refusal_matches_lint ~name:(print_loop l) net in
       if refused <> loop_is_combinational l then
         Test.fail_reportf "refused: %b, but the ways' graph says %b" refused
           (not refused);
       let timed = Result.is_ok (Timing.analyze net) in
       let bounded =
         match Elastic_perf.Marked_graph.throughput_bound net with
         | _ -> true
         | exception Diagnostic.Reject d when d.Diagnostic.code = "E102" ->
           false
       in
       if timed = refused || bounded = refused then
         Test.fail_reportf "refused: %b, but Timing: %b, throughput_bound: %b"
           refused timed bounded;
       if not refused then run_pair ~name:(print_loop l) ~cycles:120 net;
       true)

(* Anti-tokens that wait: an early mux, its select cycling over five
   ways, kills inputs that hold them up — variable-latency units, which
   refuse anti-tokens while they compute, one of them behind an EB0, an
   EB that stores them, and a join one of whose inputs is often
   missing, so the kill meets a valid token that is also stopped, on a
   fork branch and at an EB0.  Kills queue at the mux, and the mux then
   selects an input it owes one. *)
let test_waiting_anti_tokens () =
  let b = builder () in
  let random ~name pct seed =
    add b ~name (Source (Random_rate { pct; seed }))
  in
  let odd =
    Func.unary ~name:"odd" ~delay:1.0 ~area:1.0 (fun v ->
        Value.Int (Value.to_int v land 1))
  in
  let id = Func.identity () in
  let sel =
    add b ~name:"sel" (Source (Nondet (ints [ 0; 1; 2; 3; 4; 1; 2; 4 ])))
  in
  let m = add b ~name:"m" (Mux { ways = 5; early = true }) in
  let v = add b ~name:"v" (Varlat { fast = id; slow = id; err = odd }) in
  let v1 = add b ~name:"v1" (Varlat { fast = id; slow = id; err = odd }) in
  let e = eb b ~name:"e" () and e0 = eb0 b ~name:"e0" () in
  let e1 = eb0 b ~name:"e1" () in
  let fk = add b ~name:"fork" (Fork 2) in
  let j = add b ~name:"j" (Func (Func.add_int ~arity:2 ())) in
  let out = eb b ~name:"out" () in
  let stall name seed = add b ~name (Sink (Random_stall { pct = 30; seed })) in
  let _ = conn b (sel, Out 0) (m, Sel) in
  let _ = conn b (src_counter b ~name:"a" (), Out 0) (m, In 0) in
  let _ = conn b (random ~name:"b" 30 3, Out 0) (v, In 0) in
  let _ = conn b (v, Out 0) (m, In 1) in
  let _ = conn b (random ~name:"g" 30 15, Out 0) (v1, In 0) in
  let _ = conn b (v1, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (m, In 4) in
  let _ = conn b (random ~name:"c" 25 5, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (m, In 2) in
  let _ = conn b (random ~name:"d" 60 7, Out 0) (fk, In 0) in
  let _ = conn b (fk, Out 0) (j, In 0) in
  let _ = conn b (fk, Out 1) (stall "k1" 11, In 0) in
  let _ = conn b (random ~name:"f" 40 9, Out 0) (e0, In 0) in
  let _ = conn b (e0, Out 0) (j, In 1) in
  let _ = conn b (j, Out 0) (m, In 3) in
  let _ = conn b (m, Out 0) (out, In 0) in
  let _ = conn b (out, Out 0) (stall "k0" 13, In 0) in
  run_pair ~name:"waiting anti-tokens" ~cycles:400 b.net

let test_no_nodes_no_passes () =
  List.iter
    (fun mode ->
       let eng = Engine.create ~mode Netlist.empty in
       Engine.run eng 3;
       let p = Engine.profile eng in
       Alcotest.(check (pair int int))
         (Engine.mode_name mode ^ ": no passes, no evaluations")
         (0, 0) (Profile.max_passes p, Profile.evals p);
       Alcotest.(check (list (pair int int)))
         (Engine.mode_name mode ^ ": three cycles of 0 passes")
         [ (0, 3) ] (Profile.pass_histogram p))
    [ Engine.Arena; Engine.Reference ]

(* The Reference checks that each wire is written once a cycle: a
   function stage that returns a fresh value on every call writes a
   second, different payload in the fixpoint's second pass, and the
   step raises naming the channel.  The arena runs each half once, so
   it never sees a second write, and the design runs. *)
let test_conflicting_write () =
  let fresh () =
    let n = ref 0 in
    Func.unary ~name:"fresh" ~delay:1.0 ~area:1.0 (fun _ ->
        incr n;
        Value.Int !n)
  in
  let design () =
    let b = builder () in
    let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
    let g = add b ~name:"g" (Func (fresh ())) in
    let k = sink b ~name:"k" () in
    let _ = conn b (s, Out 0) (g, In 0) in
    let _ = conn b (g, Out 0) (k, In 0) in
    b.net
  in
  (match Engine.step (Engine.create ~mode:Engine.Reference (design ())) with
   | () -> Alcotest.fail "expected a conflicting write"
   | exception Engine.Simulation_error err ->
     Alcotest.(check string) "reference"
       "cycle 0, node 1, channel 1: conflicting write to data of channel \
        g.out0->k.in0"
       (Engine.error_to_string err));
  Engine.run (Engine.create ~mode:Engine.Arena (design ())) 10

let suite =
  design_cases @ degenerate_cases @ fault_cases
  @ List.map QCheck_alcotest.to_alcotest
      [ pipe_equiv; diamond_equiv; word_pipe_equiv; shared_equiv;
        faulted_pipe_equiv ]
  @ [ Alcotest.test_case "non-convergence error names the channels" `Quick
        convergence_error_names_channels;
      Alcotest.test_case "every payload constructor crosses the arena" `Quick
        test_payload_constructors;
      Alcotest.test_case "a flipped payload on a fork branch agrees"
        `Quick test_flip_on_fork_branch;
      Alcotest.test_case "list-form and unary functions agree in lockstep"
        `Quick test_mixed_func_forms;
      QCheck_alcotest.to_alcotest one_pass_one_eval_a_half;
      Alcotest.test_case "bundled designs schedule with no cyclic region"
        `Quick test_bundled_designs_acyclic;
      QCheck_alcotest.to_alcotest random_designs_acyclic;
      Alcotest.test_case "a netlist with no nodes reads 0 passes" `Quick
        test_no_nodes_no_passes;
      Alcotest.test_case "a forged early-mux select raises E102 in both modes"
        `Quick test_forged_select_error;
      Alcotest.test_case "create refuses with E102 what lint finds" `Quick
        test_refusal_matches_lint;
      Alcotest.test_case "anti-tokens that wait agree in lockstep" `Quick
        test_waiting_anti_tokens;
      Alcotest.test_case "a second write to a wire is a conflict in Reference"
        `Quick test_conflicting_write;
      Alcotest.test_case "a way-crossing shared loop agrees in lockstep"
        `Quick test_way_crossing_loop;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 44 |])
        shared_loops_agree ]
  @ lane_cases

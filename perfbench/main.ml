(* End-to-end benchmark of the two host-side jobs users run: long
   [Engine.step] runs and SECDED fault campaigns.  One process runs one
   workload closed loop (the next op starts when the previous one
   returns), checks every op's output, and prints every metric with its
   unit; the last stdout line is one JSON object.  See METRICS.md for
   the workloads, the metric map and how a later change reads its claim
   off the traced run. *)

open Elastic_kernel
open Elastic_netlist
open Elastic_sim
module Examples = Elastic_core.Examples
module Campaign = Elastic_fault.Campaign
module Histogram = Elastic_metrics.Histogram
module Metrics = Elastic_metrics.Metrics
module Sampler = Elastic_metrics.Sampler
module Runner = Elastic_runner.Runner
module Workload = Elastic_runner.Workload
module Collector = Elastic_obs.Collector
module Span = Elastic_obs.Span

let now = Clock.monotonic

let secs = Clock.seconds_between

(* Linear interpolation between closest ranks. *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile (Array.of_list xs) 0.5

let div a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Measured loop                                                        *)

type gc_delta = {
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  { minor_words = b.minor_words -. a.minor_words;
    minor_gcs = b.minor_collections - a.minor_collections;
    major_gcs = b.major_collections - a.major_collections;
    promoted = b.promoted_words -. a.promoted_words }

type phase = {
  ops : int;
  op_s : float array;  (** wall of each op *)
  slow : float array;  (** host slowdown measured right after each op *)
  wall_s : float;  (** ops / wall_s is the throughput a user sees *)
  gc : gc_delta;
}

(* A workload after set-up.  [run] executes ops [first .. first+n-1]
   and fills [op_s]; it returns the wall the user waits for, which for
   the campaign includes the runner around the ops.  [between i] runs
   after op [i], untimed (the host-speed probe).  [trace] switches the
   phase to span recording. *)
type session = {
  run :
    trace:Spans.t option -> first:int -> op_s:float array -> between:(int -> unit) ->
    float;
  failed_ops : unit -> int list;  (** ops whose output was wrong *)
  checks : unit -> (string * bool) list;  (** run-level output checks *)
  extra : Spans.t -> unit;  (** traced-only layer probes *)
  eval_mode : string;
}

let measure s ~calib ~trace ~first n =
  let op_s = Array.make n 0.0 and slow = Array.make n 1.0 in
  let between i = slow.(i) <- Calib.factor calib in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let wall_s = s.run ~trace ~first ~op_s ~between in
  let g1 = Gc.quick_stat () in
  { ops = n; op_s; slow; wall_s; gc = gc_delta g0 g1 }

(* ------------------------------------------------------------------ *)
(* Cycle workloads: one op is a fixed block of [Engine.step] calls.     *)

type sink_check = {
  sink : Netlist.node_id;
  expect : int -> Value.t;  (** value of the sink's [i]-th transfer *)
  mutable seen : int;  (** transfers at the end of the previous op *)
  mutable stalled : int list;  (** ops that delivered nothing here *)
}

let cycle_session ~eng ~block ~sampler ~sinks =
  let warm_cycles = Engine.cycle eng in
  Array.iter
    (fun c -> c.seen <- Transfer.length (Engine.sink_stream eng c.sink))
    sinks;
  (* Per-op progress check, outside the op's timing: every sink must
     deliver within every block. *)
  let progress op =
    Array.iter
      (fun c ->
         let n = Transfer.length (Engine.sink_stream eng c.sink) in
         if n = c.seen then c.stalled <- op :: c.stalled;
         c.seen <- n)
      sinks
  in
  let observe_ns = ref 0L in
  let install_observer ~traced =
    match sampler with
    | None -> ()
    | Some smp ->
      Engine.set_observer eng
        (Some
           (if traced then (fun e ->
                let t0 = now () in
                Sampler.observe smp e;
                observe_ns := Int64.add !observe_ns (Int64.sub (now ()) t0))
            else Sampler.observe smp))
  in
  let run ~trace ~first ~op_s ~between =
    match trace with
    | None ->
      install_observer ~traced:false;
      let total = ref 0.0 in
      Array.iteri
        (fun i _ ->
           let t0 = now () in
           for _ = 1 to block do
             Engine.step eng
           done;
           let t1 = now () in
           op_s.(i) <- secs t0 t1;
           total := !total +. op_s.(i);
           progress (first + i);
           between i)
        op_s;
      !total
    | Some tr ->
      install_observer ~traced:true;
      let p = Engine.profile eng in
      let total = ref 0.0 in
      Array.iteri
        (fun i _ ->
           let op = first + i in
           let settle0 = Profile.settle_seconds p and evals0 = Profile.evals p in
           observe_ns := 0L;
           let step_ns = ref 0L in
           let id = Spans.fresh tr in
           let t0 = now () in
           for _ = 1 to block do
             let s0 = now () in
             Engine.step eng;
             step_ns := Int64.add !step_ns (Int64.sub (now ()) s0)
           done;
           let t1 = now () in
           ignore
             (Spans.add tr ~parent:id ~op "sim.step" t0 t1
                ~attrs:
                  [ ("cycles", float_of_int block);
                    ("step_s", Int64.to_float !step_ns *. 1e-9);
                    ("settle_s", Profile.settle_seconds p -. settle0);
                    ("observe_s", Int64.to_float !observe_ns *. 1e-9);
                    ("evals", float_of_int (Profile.evals p - evals0));
                    ("nodes", float_of_int (Netlist.node_count (Engine.netlist eng)))
                  ]);
           ignore (Spans.add tr ~id ~op "op" t0 t1);
           op_s.(i) <- secs t0 t1;
           total := !total +. op_s.(i);
           progress op;
           between i)
        op_s;
      !total
  in
  let op_of_cycle c = (c - warm_cycles) / block in
  let failed_ops () =
    let bad = Hashtbl.create 8 in
    Array.iter
      (fun c ->
         List.iter (fun op -> Hashtbl.replace bad op ()) c.stalled;
         List.iteri
           (fun i (e : Transfer.entry) ->
              if not (Value.equal e.Transfer.value (c.expect i)) then
                Hashtbl.replace bad (max 0 (op_of_cycle e.Transfer.cycle)) ())
           (Transfer.entries (Engine.sink_stream eng c.sink)))
      sinks;
    Hashtbl.fold (fun op () acc -> op :: acc) bad []
  in
  let checks () =
    [ ("protocol monitors clean", Engine.violations eng = []);
      ("no starvation", Engine.starvation_violations eng = []) ]
  in
  { run; failed_ops; checks; extra = (fun _ -> ());
    eval_mode = Engine.mode_name (Engine.mode eng) }

(* spec-cycles: the E6 speculative SECDED adder, 5% upsets, monitors on,
   no observer.  The operand stream repeats a period of [spec_period]
   ops: the netlist's source gets the period's payload values repeated,
   which is exactly [Examples.rs_speculative] on the repeated op list
   but shares the boxed payloads, so memory grows by one list cell per
   cycle instead of one 144-bit tuple. *)
let spec_block = 512

let spec_period = 4096

let spec_warm = 16

let repeat_stream net ~times =
  let src = Option.get (Netlist.find_node net "src") in
  match src.Netlist.kind with
  | Netlist.Source (Netlist.Stream vs) ->
    Netlist.replace_kind net src.Netlist.id
      (Netlist.Source (Netlist.Stream (List.concat (List.init times (fun _ -> vs)))))
  | _ -> invalid_arg "repeat_stream: src is not a stream source"

let spec_setup ~seed ~ops ~note =
  let cycles = (spec_warm + ops) * spec_block in
  let t0 = now () in
  let pattern = Examples.rs_ops ~error_rate_pct:5 ~seed spec_period in
  let d = Examples.rs_speculative ~ops:pattern in
  let net = repeat_stream d.Examples.d_net ~times:((cycles / spec_period) + 1) in
  let t1 = now () in
  let eng = Engine.create net in
  let t2 = now () in
  Engine.run eng (spec_warm * spec_block);
  let t3 = now () in
  note t0 t1 t2 t3;
  let expected = Array.of_list (Examples.rs_reference pattern) in
  cycle_session ~eng ~block:spec_block ~sampler:None
    ~sinks:
      [| { sink = d.Examples.d_sink;
           expect = (fun i -> expected.(i mod spec_period));
           seen = 0; stalled = [] } |]

(* wide-cycles: 256 generated lanes with the Sampler observer attached. *)
let wide_lanes = 256

let wide_block = 10

let wide_warm = 2

let wide_setup ~seed ~ops ~note =
  let t0 = now () in
  let l =
    Lanes.generate ~lanes:wide_lanes ~seed
      ~ops_per_lane:((wide_warm + ops + 1) * wide_block)
  in
  let t1 = now () in
  let eng = Engine.create l.Lanes.net in
  let sampler = Sampler.attach eng in
  let t2 = now () in
  Engine.run eng (wide_warm * wide_block);
  let t3 = now () in
  note t0 t1 t2 t3;
  let sinks =
    Array.mapi
      (fun lane sink ->
         let expected = Array.of_list (Examples.vl_reference l.Lanes.ops.(lane)) in
         { sink; expect = (fun i -> expected.(i)); seen = 0; stalled = [] })
      l.Lanes.sinks
  in
  cycle_session ~eng ~block:wide_block ~sampler:(Some sampler) ~sinks

(* ------------------------------------------------------------------ *)
(* secded-campaign: the E7/E8 single-bit SECDED campaign through the   *)
(* runner.  One op is one scenario.                                     *)

let campaign_cycles = 450

let campaign_settle = 60

let campaign_warm = 8

let benign samples =
  match Workload.classification_histogram samples with
  | [ ("masked", 1) ] -> true
  | [ ("corrected", 1) ] ->
    (match Metrics.find samples "elastic_fault_recovery_penalty_cycles" with
     | Some (Metrics.Histogram h) -> Histogram.s_max h <= 1
     | Some (Metrics.Counter _ | Metrics.Gauge _) | None -> false)
  | _ -> false

let campaign_setup ~seed ~ops ~note =
  let t0 = now () in
  let design_ops = Examples.rs_ops ~error_rate_pct:0 ~seed 400 in
  let d, alarm = Examples.rs_speculative_alarmed ~ops:design_ops in
  let net = d.Examples.d_net in
  let alarms = [ (alarm, fun v -> Value.to_int v >= 2) ] in
  let src = Option.get (Netlist.find_node net "src") in
  let op_bus =
    List.find
      (fun (c : Netlist.channel) -> c.Netlist.src.Netlist.ep_node = src.Netlist.id)
      (Netlist.channels net)
  in
  let scenarios =
    Campaign.random_bitflips ~net ~channel:op_bus.Netlist.ch_id ~seed ~count:ops
      ~from_cycle:2 ~to_cycle:350 ~bit_hi:144 ()
  in
  let tasks =
    Array.of_list
      (Workload.of_campaign ~cycles:campaign_cycles ~settle:campaign_settle ~alarms
         ~name:"secded" net ~scenarios)
  in
  let t1 = now () in
  let warm_tasks = Array.to_list (Array.sub tasks 0 (min campaign_warm ops)) in
  ignore (Runner.run ~workers:1 ~name:"warm-up" warm_tasks);
  let t2 = now () in
  note t0 t1 t1 t2;
  let shards = Array.make ops None in
  (* Each task body is wrapped to time the op and then run [between],
     whose time is taken out of the runner's wall; the wrapper is the
     same with tracing on and off. *)
  let between_s = ref 0.0 in
  let wrap ~op_s ~first ~between ~on_done i (t : Runner.task) =
    { t with
      Runner.work =
        (fun ctx ->
           let t0 = now () in
           let samples = t.Runner.work ctx in
           let t1 = now () in
           op_s.(i) <- secs t0 t1;
           on_done (first + i) t0 t1;
           between i;
           between_s := !between_s +. secs t1 (now ());
           samples) }
  in
  let record (r : Runner.report) ~first =
    List.iteri
      (fun i (sh : Runner.shard) -> shards.(first + i) <- Some sh)
      r.Runner.r_shards
  in
  (* A replica of the fault-free reference run that Recovery.check repeats
     per scenario (create + run, with its settle and eval counts); the
     reference engine itself is out of reach from outside. *)
  let replica tr =
    let id = Spans.fresh tr in
    let t0 = now () in
    let eng = Engine.create net in
    let t1 = now () in
    let p = Engine.profile eng in
    let w0 = Gc.minor_words () in
    Engine.run eng campaign_cycles;
    let w1 = Gc.minor_words () in
    let t2 = now () in
    ignore (Spans.add tr ~parent:id "sim.create" t0 t1);
    ignore
      (Spans.add tr ~parent:id "sim.run" t1 t2
         ~attrs:
           [ ("cycles", float_of_int campaign_cycles);
             ("step_s", secs t1 t2);
             ("settle_s", Profile.settle_seconds p);
             ("evals", float_of_int (Profile.evals p));
             ("nodes", float_of_int (Netlist.node_count net));
             ("minor_words", w1 -. w0) ]);
    ignore (Spans.add tr ~id "fault.reference" t0 t2)
  in
  let run ~trace ~first ~op_s ~between =
    between_s := 0.0;
    let n = Array.length op_s in
    let sub = Array.to_list (Array.sub tasks first n) in
    match trace with
    | None ->
      let tasks = List.mapi (wrap ~op_s ~first ~between ~on_done:(fun _ _ _ -> ())) sub in
      let t0 = now () in
      let r = Runner.run ~workers:1 ~name:"secded" tasks in
      let t1 = now () in
      record r ~first;
      secs t0 t1 -. !between_s
    | Some tr ->
      let obs = Collector.create ~capacity_per_track:((8 * n) + 16) () in
      let run_id = Spans.fresh tr in
      let on_done op t0 t1 =
        ignore (Spans.add tr ~parent:run_id ~op "fault.check" t0 t1)
      in
      (* One replica after every 4th op, untimed like the probe, so the
         replicas sample the same host states as the ops. *)
      let between i =
        between i;
        if i mod 4 = 0 then replica tr
      in
      let tasks = List.mapi (wrap ~op_s ~first ~between ~on_done) sub in
      let t0 = now () in
      let r = Runner.run ~workers:1 ~obs ~name:"secded" tasks in
      let t1 = now () in
      record r ~first;
      let attempts =
        List.fold_left (fun a (sh : Runner.shard) -> a + sh.Runner.sh_attempts) 0
          r.Runner.r_shards
      in
      ignore
        (Spans.add tr ~id:run_id "runner.run" t0 t1
           ~attrs:
             [ ("shards", float_of_int n); ("attempts", float_of_int attempts);
               ("probe_s", !between_s) ]);
      (* The faulted engine's compile and settle phases, as the runner's
         own span ledger reports them, re-parented under the op whose
         interval contains them. *)
      let ops_by_start =
        List.filter (fun (s : Spans.span) -> s.Spans.parent = run_id) tr.Spans.rev
      in
      List.iter
        (fun (s : Span.t) ->
           let name =
             match s.Span.sp_kind with
             | Span.Compile -> Some "sim.create"
             | Span.Settle -> Some "sim.settle"
             | Span.Campaign | Span.Shard | Span.Attempt | Span.Checkpoint_write
             | Span.Backoff_sleep -> None
           in
           match name with
           | None -> ()
           | Some name ->
             let owner =
               List.find_opt
                 (fun (o : Spans.span) ->
                    Int64.compare o.Spans.start_ns s.Span.sp_start_ns <= 0
                    && Int64.compare s.Span.sp_end_ns o.Spans.end_ns <= 0)
                 ops_by_start
             in
             let parent, op =
               match owner with Some o -> (o.Spans.id, o.Spans.op) | None -> (run_id, -1)
             in
             ignore
               (Spans.add tr ~parent ~op name s.Span.sp_start_ns s.Span.sp_end_ns))
        (Collector.spans obs);
      secs t0 t1 -. !between_s
  in
  let failed_ops () =
    List.filter_map
      (fun i ->
         match shards.(i) with
         | Some { Runner.sh_status = Runner.Completed samples; _ } when benign samples -> None
         | Some _ | None -> Some i)
      (List.init ops Fun.id)
  in
  let checks () =
    let merged =
      Array.fold_left
        (fun acc sh ->
           match sh with
           | Some { Runner.sh_status = Runner.Completed s; _ } -> Metrics.merge acc s
           | Some _ | None -> acc)
        [] shards
    in
    let sequential =
      Campaign.run ~cycles:campaign_cycles ~settle:campaign_settle ~alarms net ~scenarios
    in
    [ ("merged histogram = sequential Campaign.run",
       Workload.classification_histogram merged = sequential.Campaign.histogram);
      ("all masked or corrected <= 1 cycle", Campaign.all_benign sequential) ]
  in
  (* Traced-only: the same scenarios on one and on two workers. *)
  let extra tr =
    let half = Array.to_list (Array.sub tasks 0 (max 1 (ops / 2))) in
    let timed workers =
      Gc.compact ();
      let t0 = now () in
      ignore (Runner.run ~workers ~name:"secded" half);
      let t1 = now () in
      ignore
        (Spans.add tr
           (Fmt.str "runner.run.w%d" workers)
           t0 t1 ~attrs:[ ("shards", float_of_int (List.length half)) ])
    in
    timed 1;
    timed 2
  in
  (* The engines of a scenario are created inside Recovery.check with
     the default mode; ask a throwaway engine which one that is. *)
  let eval_mode = Engine.mode_name (Engine.mode (Engine.create net)) in
  { run; failed_ops; checks; extra; eval_mode }

(* ------------------------------------------------------------------ *)
(* Workload table                                                       *)

type workload = {
  w_name : string;
  ops_per_second : float;  (** nominal rate on a 2-core x86 box *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  calib : int;  (** probe iterations after each op, ~10% of an op *)
  setup :
    seed:int -> ops:int -> note:(int64 -> int64 -> int64 -> int64 -> unit) -> session;
      (** [note] gets the set-up's stamps: start, netlist built, engine
          created, warmed up. *)
}

let workloads =
  [ { w_name = "spec-cycles"; ops_per_second = 160.0; setups = 7; calib = 20_000;
      setup = spec_setup };
    { w_name = "wide-cycles"; ops_per_second = 13.0; setups = 3; calib = 300_000;
      setup = wide_setup };
    { w_name = "secded-campaign"; ops_per_second = 70.0; setups = 5; calib = 55_000;
      setup = campaign_setup } ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* Times at nominal host speed: each op's wall divided by the slowdown
   the probe measured right after it (see calib.ml).  The runner's wall
   around the ops is rescaled by the phase's overall factor. *)
let rescaled (p : phase) =
  let slow = Calib.smooth p.slow in
  let op_s = Array.mapi (fun i s -> s /. slow.(i)) p.op_s in
  let factor = div (Array.fold_left ( +. ) 0.0 op_s) (Array.fold_left ( +. ) 0.0 p.op_s) in
  (op_s, p.wall_s *. factor)

let end_to_end ~setup_s ~(p : phase) ~failed ~rss_mb =
  let op_s, wall_s = rescaled p in
  let ms = Array.map (fun s -> s *. 1000.0) op_s in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (div (float_of_int p.ops) wall_s);
    m "op_ms_p50" "ms" (percentile ms 0.5);
    m "op_ms_p90" "ms" (percentile ms 0.9);
    m "minor_words_per_op" "words" (div p.gc.minor_words (float_of_int p.ops));
    m "peak_rss_mb" "MB" rss_mb;
    m "op_ok_ratio" "ratio"
      (1.0 -. div (float_of_int failed) (float_of_int p.ops)) ]

(* Per-layer times are rescaled by the traced phase's median host
   slowdown (reported as host.slowdown); counts and ratios are not. *)
let per_layer ~tr ~(untraced : phase) ~(traced : phase) ~build_s =
  let slow = median (Array.to_list (Calib.smooth traced.slow)) in
  let ops = float_of_int traced.ops in
  let seconds spans = List.fold_left (fun a s -> a +. Spans.seconds s) 0.0 spans in
  let in_ops name = List.filter (fun (s : Spans.span) -> s.Spans.op >= 0) (Spans.named tr name) in
  let mean_ms name = 1000.0 *. div (Spans.sum tr name Spans.seconds) (float_of_int (Spans.count tr name)) in
  (* Per-cycle engine figures come from the op's own steps on the cycle
     workloads, and from the fault-free replica on the campaign (the
     faulted engine's steps run inside Recovery.check). *)
  let is_campaign = Spans.count tr "runner.run" > 0 in
  let steps = if is_campaign then "sim.run" else "sim.step" in
  let total key = Spans.sum tr steps (fun s -> Spans.attr s key) in
  let cycles = total "cycles" in
  let us_per_cycle key = 1e6 *. div (total key) cycles in
  let settle_us = us_per_cycle "settle_s" and observe_us = us_per_cycle "observe_s" in
  let step_words =
    if is_campaign then div (total "minor_words") cycles
    else
      div untraced.gc.minor_words
        (float_of_int untraced.ops *. div cycles (float_of_int (Spans.count tr steps)))
  in
  let creates = Spans.named tr "sim.create" in
  let check_ms = mean_ms "fault.check" and reference_ms = mean_ms "fault.reference" in
  let faulted_compile_ms = 1000.0 *. div (seconds (in_ops "sim.create")) ops in
  let faulted_settle_ms = 1000.0 *. div (seconds (in_ops "sim.settle")) ops in
  let runner_wall =
    Spans.sum tr "runner.run" (fun s -> Spans.seconds s -. Spans.attr s "probe_s")
  in
  let task_wall = Spans.sum tr "fault.check" Spans.seconds in
  let op_wall, covered =
    if is_campaign then (runner_wall, task_wall)
    else (Spans.sum tr "op" Spans.seconds, total "step_s")
  in
  let w_rate w =
    match Spans.named tr (Fmt.str "runner.run.w%d" w) with
    | s :: _ -> div (Spans.attr s "shards") (Spans.seconds s)
    | [] -> 0.0
  in
  let ugc = untraced.gc and uops = float_of_int untraced.ops in
  [ m "netlist.build_s" "s" build_s;
    m "sim.create_ms" "ms" (1000.0 *. div (seconds creates) (float_of_int (List.length creates)));
    m "sim.creates_per_op" "count" (div (float_of_int (List.length (in_ops "sim.create"))) ops);
    m "sim.settle_us_per_cycle" "us" settle_us;
    m "sim.evals_per_node" "ratio"
      (div (total "evals") (Spans.sum tr steps (fun s -> Spans.attr s "cycles" *. Spans.attr s "nodes")));
    m "sim.post_settle_us_per_cycle" "us" (us_per_cycle "step_s" -. settle_us -. observe_us);
    m "sim.step_minor_words_per_cycle" "words" step_words;
    m "metrics.observe_us_per_cycle" "us" observe_us;
    m "fault.check_ms" "ms" check_ms;
    m "fault.reference_ms" "ms" reference_ms;
    m "fault.reference_share" "ratio" (div reference_ms check_ms);
    m "fault.faulted_compile_ms" "ms" faulted_compile_ms;
    m "fault.faulted_settle_ms" "ms" faulted_settle_ms;
    m "fault.unattributed_ms" "ms"
      (if is_campaign then check_ms -. faulted_compile_ms -. faulted_settle_ms -. reference_ms
       else 0.0);
    m "runner.overhead_ms_per_op" "ms" (1000.0 *. div (runner_wall -. task_wall) ops);
    m "runner.attempts_per_shard" "count"
      (div (Spans.sum tr "runner.run" (fun s -> Spans.attr s "attempts"))
         (Spans.sum tr "runner.run" (fun s -> Spans.attr s "shards")));
    m "runner.speedup_w2" "x" (div (w_rate 2) (w_rate 1));
    m "gc.minor_collections_per_op" "count" (div (float_of_int ugc.minor_gcs) uops);
    m "gc.major_collections_per_op" "count" (div (float_of_int ugc.major_gcs) uops);
    m "gc.promoted_words_per_op" "words" (div ugc.promoted uops);
    m "host.slowdown" "ratio" slow;
    m "trace.cover_ratio" "ratio" (div covered op_wall);
    m "trace.overhead_ratio" "ratio"
      (div (div (float_of_int traced.ops) (snd (rescaled traced)))
         (div (float_of_int untraced.ops) (snd (rescaled untraced)))) ]
  |> List.map (fun x ->
      match x.m_unit with
      | "s" | "ms" | "us" when x.m_name <> "netlist.build_s" -> { x with m_value = x.m_value /. slow }
      | _ -> x)

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> 0.0
  in
  let v = go () in
  close_in ic;
  v

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
               (json_number x.m_value) x.m_unit)
          metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1)
  and out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its spans") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (match Sys.getenv_opt "ELASTIC_EVAL_MODE" with
   | Some v ->
     fail
       (Fmt.str "ELASTIC_EVAL_MODE=%s is set; the benchmark measures the shipped \
                 default eval mode only" v)
   | None -> ());
  let w =
    match List.find_opt (fun w -> String.equal w.w_name !workload) workloads with
    | Some w -> w
    | None ->
      fail
        (Fmt.str "unknown workload %S (one of %s)" !workload
           (String.concat ", " (List.map (fun w -> w.w_name) workloads)))
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then fail usage;
  let ops = max 100 (int_of_float (Float.round (float_of_int !seconds *. w.ops_per_second))) in
  (* A traced run adds a traced phase of [traced_ops] on the same session. *)
  let traced_ops = if !trace = 1 then max 50 (ops / 2) else 0 in
  let total = ops + traced_ops in
  let tr = Spans.create () in
  (* Set-up (design build + engine creation + warm-up) is repeated; the
     last session is the one measured. *)
  let setup_times = ref [] and build_times = ref [] in
  let slow_before = ref 1.0 in
  let note b0 b1 c1 w1 =
    let slow = (!slow_before +. Calib.factor w.calib) /. 2.0 in
    let id = Spans.fresh tr in
    ignore (Spans.add tr ~parent:id "netlist.build" b0 b1);
    if Int64.compare c1 b1 > 0 then ignore (Spans.add tr ~parent:id "sim.create" b1 c1);
    ignore (Spans.add tr ~parent:id "warmup" c1 w1);
    ignore (Spans.add tr ~id "setup" b0 w1);
    build_times := (secs b0 b1 /. slow) :: !build_times;
    setup_times := (secs b0 w1 /. slow) :: !setup_times
  in
  let session = ref None in
  for _ = 1 to w.setups do
    session := None;
    Gc.compact ();
    slow_before := Calib.factor w.calib;
    session := Some (w.setup ~seed:!seed ~ops:total ~note)
  done;
  let s = Option.get !session in
  let pool =
    Fmt.str "%s/%d"
      (if Elastic_runner.Pool_backend.parallel then "domains" else "sequential")
      (Elastic_runner.Pool_backend.recommended ())
  in
  Printf.printf "perfbench %s seed=%d ops=%d traced_ops=%d eval_mode=%s ocaml=%s pool=%s\n%!"
    w.w_name !seed ops traced_ops s.eval_mode Sys.ocaml_version pool;
  let untraced = measure s ~calib:w.calib ~trace:None ~first:0 ops in
  let traced =
    if traced_ops > 0 then begin
      let p = measure s ~calib:w.calib ~trace:(Some tr) ~first:ops traced_ops in
      s.extra tr;
      Some p
    end
    else None
  in
  let failed_ops = s.failed_ops () in
  let checks = s.checks () in
  List.iter
    (fun (name, ok) -> Printf.printf "  check %-44s %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  let failed = List.length failed_ops in
  let correct = failed = 0 && List.for_all snd checks in
  let ms = Array.map (fun x -> x *. 1000.0) untraced.op_s in
  Printf.printf "  raw wall: %.3f ops/s, op p50 %.3f ms, p90 %.3f ms; median host slowdown %.3f\n"
    (div (float_of_int ops) untraced.wall_s) (percentile ms 0.5) (percentile ms 0.9)
    (median (Array.to_list untraced.slow));
  Printf.printf "  op_fail_ratio %.6f (%d of %d ops)\n"
    (div (float_of_int failed) (float_of_int total)) failed total;
  let metrics =
    match traced with
    | None -> end_to_end ~setup_s:(median !setup_times) ~p:untraced ~failed ~rss_mb:(peak_rss_mb ())
    | Some p -> per_layer ~tr ~untraced ~traced:p ~build_s:(median !build_times)
  in
  if traced <> None && !out <> "" then begin
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    let path = Filename.concat !out (Fmt.str "spans-%s-seed%d.jsonl" w.w_name !seed) in
    Spans.write tr ~path
      ~header:
        (Fmt.str "{\"workload\":%S,\"seed\":%d,\"ops\":%d,\"traced_ops\":%d,\"eval_mode\":%S,\"ocaml\":%S,\"pool\":%S}"
           w.w_name !seed ops traced_ops s.eval_mode Sys.ocaml_version pool);
    Printf.printf "  spans written to %s\n" path
  end;
  print_result ~correct ~attempted:total ~failed metrics;
  exit (if correct then 0 else 1)

open Elastic_sched
open Elastic_netlist
open Elastic_core
open Elastic_datapath
open Elastic_metrics

(* The metrics subsystem (lib/metrics): histogram bucket mathematics and
   mergeable snapshots (qcheck), the registry contract, the
   allocation-free hot path, Prometheus/JSONL export well-formedness,
   the engine sampler against ground truth from the scheduler state,
   the injectable simulation clock and the bench regression gate. *)

(* --- histograms ---------------------------------------------------- *)

let snap_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) xs;
  Histogram.snapshot h

let test_histogram_exact_below_16 () =
  let h = Histogram.create () in
  for v = 0 to 15 do
    Histogram.observe h v
  done;
  Alcotest.(check int) "count" 16 (Histogram.count h);
  Alcotest.(check int) "sum" 120 (Histogram.sum h);
  Alcotest.(check int) "min" 0 (Histogram.min_value h);
  Alcotest.(check int) "max" 15 (Histogram.max_value h);
  (* Unit buckets below 16 make small quantiles exact. *)
  Alcotest.(check int) "p50" 7 (Histogram.quantile h 0.5);
  Alcotest.(check int) "p100" 15 (Histogram.quantile h 1.0);
  Alcotest.(check int) "p0" 0 (Histogram.quantile h 0.0)

let test_histogram_negative_clamps () =
  let h = Histogram.create () in
  Histogram.observe h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Histogram.max_value h);
  Alcotest.(check int) "counted" 1 (Histogram.count h);
  Alcotest.check_raises "quantile domain"
    (Invalid_argument "Histogram.quantile: q outside [0, 1]") (fun () ->
      ignore (Histogram.quantile h 2.0))

let test_snapshot_isolation_and_reset () =
  let h = Histogram.create () in
  Histogram.observe h 3;
  Histogram.observe h 100;
  let s = Histogram.snapshot h in
  Histogram.observe h 7;
  Alcotest.(check int) "snapshot unaffected by later observe" 2
    (Histogram.s_count s);
  Histogram.reset h;
  Alcotest.(check int) "reset clears the live histogram" 0
    (Histogram.count h);
  Alcotest.(check int) "reset clears the sum" 0 (Histogram.sum h);
  Alcotest.(check int) "snapshot survives reset" 103 (Histogram.s_sum s);
  Alcotest.(check bool) "empty is the merge identity" true
    (Histogram.merge s Histogram.empty = s
     && Histogram.merge Histogram.empty s = s);
  (* One snapshot per campaign scenario is kept: it must not carry all
     480 buckets. *)
  let one = Histogram.create () in
  Histogram.observe one 3;
  Alcotest.(check bool) "snapshot stores buckets up to the last used" true
    (Obj.reachable_words (Obj.repr (Histogram.snapshot one)) < 16)

let gen_observations =
  QCheck.make
    ~print:(fun l -> Fmt.str "[%a]" Fmt.(list ~sep:semi int) l)
    QCheck.Gen.(list_size (int_range 0 40) (int_bound 1_000_000))

let qcheck_merge_associative =
  QCheck.Test.make ~count:200
    ~name:"qcheck: snapshot merge is associative and commutative"
    (QCheck.triple gen_observations gen_observations gen_observations)
    (fun (xs, ys, zs) ->
      let a = snap_of xs and b = snap_of ys and c = snap_of zs in
      Histogram.merge a (Histogram.merge b c)
      = Histogram.merge (Histogram.merge a b) c
      && Histogram.merge a b = Histogram.merge b a)

let qcheck_merge_is_union =
  QCheck.Test.make ~count:200
    ~name:"qcheck: merging snapshots = observing the concatenation"
    (QCheck.pair gen_observations gen_observations) (fun (xs, ys) ->
      Histogram.merge (snap_of xs) (snap_of ys) = snap_of (xs @ ys))

let qcheck_quantile_monotone =
  QCheck.Test.make ~count:200
    ~name:"qcheck: quantiles are monotone in the rank and bound the data"
    (QCheck.pair gen_observations
       (QCheck.pair (QCheck.float_range 0.0 1.0)
          (QCheck.float_range 0.0 1.0)))
    (fun (xs, (q1, q2)) ->
      QCheck.assume (xs <> []);
      let s = snap_of xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Histogram.s_quantile s lo <= Histogram.s_quantile s hi
      && Histogram.s_quantile s 1.0 >= List.fold_left max 0 xs
      (* bucket upper bounds over-estimate by at most one sub-bucket
         (12.5%), and are exact below 16 *)
      && float_of_int (Histogram.s_quantile s 1.0)
         <= Float.max 15.0 (1.125 *. float_of_int (List.fold_left max 0 xs))
         +. 1.0)

(* --- registry ------------------------------------------------------ *)

let test_registry_contract () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"h" "x_total" in
  Metrics.Counter.inc c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.Counter.value c);
  Alcotest.check_raises "counters are monotonic"
    (Invalid_argument "Counter.add: negative increment") (fun () ->
      Metrics.Counter.add c (-1));
  (* re-registration returns the same instrument *)
  Metrics.Counter.inc (Metrics.counter reg "x_total");
  Alcotest.(check int) "same instrument" 6 (Metrics.Counter.value c);
  (* label sets distinguish instruments, in either order *)
  let l1 = Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "y_total" in
  let l2 = Metrics.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "y_total" in
  Metrics.Counter.inc l1;
  Alcotest.(check int) "label order is normalized" 1
    (Metrics.Counter.value l2);
  Alcotest.(check bool) "name validation" false (Metrics.valid_name "9bad");
  Alcotest.(check bool) "name validation" true
    (Metrics.valid_name "elastic_engine_cycles_total");
  (match Metrics.gauge reg "x_total" with
   | _ -> Alcotest.fail "kind conflict not detected"
   | exception Invalid_argument _ -> ());
  let g = Metrics.gauge reg "occ" in
  Metrics.Gauge.set g 0.75;
  let snap = Metrics.snapshot reg in
  Alcotest.(check bool) "find counter" true
    (Metrics.find snap "x_total" = Some (Metrics.Counter 6));
  Alcotest.(check bool) "find with labels" true
    (Metrics.find ~labels:[ ("a", "1"); ("b", "2") ] snap "y_total"
     = Some (Metrics.Counter 1));
  Alcotest.(check bool) "find gauge" true
    (Metrics.find snap "occ" = Some (Metrics.Gauge 0.75));
  Alcotest.(check bool) "find miss" true (Metrics.find snap "nope" = None)

let test_snapshot_merge () =
  let mk c g =
    let reg = Metrics.create () in
    Metrics.Counter.add (Metrics.counter reg "c_total") c;
    Metrics.Gauge.set (Metrics.gauge reg "g") g;
    reg
  in
  let left = Metrics.snapshot (mk 3 1.0) in
  let reg = mk 4 2.0 in
  Histogram.observe (Metrics.histogram reg "h_cycles") 2;
  let right = Metrics.snapshot reg in
  let m = Metrics.merge left right in
  Alcotest.(check bool) "counters add" true
    (Metrics.find m "c_total" = Some (Metrics.Counter 7));
  Alcotest.(check bool) "gauges keep the right-hand value" true
    (Metrics.find m "g" = Some (Metrics.Gauge 2.0));
  (match Metrics.find m "h_cycles" with
   | Some (Metrics.Histogram s) ->
     Alcotest.(check int) "right-only histogram passes through" 1
       (Histogram.s_count s)
   | _ -> Alcotest.fail "missing merged histogram")

(* --- the hot path allocates nothing -------------------------------- *)

let test_instruments_allocation_free () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hot_total" in
  let g = Metrics.gauge reg "hot_gauge" in
  let h = Metrics.histogram reg "hot_cycles" in
  let spin n =
    for i = 0 to n - 1 do
      Metrics.Counter.inc c;
      Metrics.Gauge.set g 0.25;
      Histogram.observe h (i land 4095)
    done
  in
  spin 1_000;
  let words n =
    let before = Gc.minor_words () in
    spin n;
    Gc.minor_words () -. before
  in
  (* Zero words per update: the growth from 10k to 1M updates must be
     (almost) nothing.  A real allocation costs >= 2 words per update
     = ~2e6 words here; the tolerance only absorbs the few words of
     ambient noise the linked systhreads tick thread can inject into a
     long measurement window. *)
  let per_update = (words 1_000_000 -. words 10_000) /. 990_000.0 in
  Alcotest.(check (float 0.001)) "counter/gauge/histogram updates are free"
    0.0 per_update

(* --- JSON round-trip ----------------------------------------------- *)

let test_json_roundtrip () =
  let t =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.951923);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]) ]
  in
  (match Json.parse (Json.to_string t) with
   | Ok t' -> Alcotest.(check bool) "compact round-trip" true (t = t')
   | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Json.parse (Json.to_string ~indent:2 t) with
   | Ok t' -> Alcotest.(check bool) "indented round-trip" true (t = t')
   | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Json.parse "{\"a\":1} trailing" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing content accepted");
  (match Json.parse "{\"a\":}" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "malformed object accepted");
  Alcotest.(check bool) "ints parse as ints" true
    (Json.parse "7" = Ok (Json.Int 7));
  Alcotest.(check bool) "exponents parse as floats" true
    (Json.parse "1e2" = Ok (Json.Float 100.0))

(* Random float-free trees round-trip exactly (float emission is 6
   significant digits by design — exact float transport goes through
   the hex side-channel of [Metrics.sample_to_json]). *)
let json_gen =
  let open QCheck.Gen in
  let str_g =
    map
      (fun l -> String.concat "" l)
      (small_list
         (oneof
            [ map (String.make 1) printable; return "\""; return "\\";
              return "\n"; return "\xE2\x82\xAC" ]))
  in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ return Json.Null; map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) small_signed_int;
            map (fun s -> Json.Str s) str_g ]
      else
        frequency
          [ (2, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
            (2,
             map
               (fun kvs -> Json.Obj kvs)
               (list_size (0 -- 4) (pair str_g (self (n / 2)))));
            (1, map (fun i -> Json.Int i) small_signed_int) ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"qcheck: json round-trips exactly"
    (QCheck.make json_gen) (fun t ->
        Json.parse (Json.to_string t) = Ok t
        && Json.parse (Json.to_string ~indent:2 t) = Ok t)

(* Corrupt-prefix fuzz: truncating or byte-flipping a valid document
   must come back as [Ok] (when the damage still parses) or an [Error]
   naming the byte offset — never an exception, never a stack
   overflow. *)
let qcheck_json_corrupt_prefix =
  QCheck.Test.make ~count:300
    ~name:"qcheck: truncated/corrupt json never raises, errors name offsets"
    QCheck.(pair (QCheck.make json_gen) (pair small_nat small_nat))
    (fun (t, (cut, flip)) ->
       let s = Json.to_string t in
       let n = String.length s in
       let truncated = String.sub s 0 (min cut n) in
       let flipped =
         if n = 0 then s
         else begin
           let b = Bytes.of_string s in
           let i = flip mod n in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5b));
           Bytes.to_string b
         end
       in
       List.for_all
         (fun doc ->
            match Json.parse doc with
            | Ok _ -> true
            | Error m -> Helpers.contains m "offset"
            | exception e ->
              QCheck.Test.fail_reportf "parse raised %s on %S"
                (Printexc.to_string e) doc)
         [ truncated; flipped ])

let test_json_depth_cap () =
  (* Pathological nesting must be a clean [Error], not Stack_overflow. *)
  match Json.parse (String.make 5000 '[') with
  | Ok _ -> Alcotest.fail "unterminated nesting accepted"
  | Error m ->
    Alcotest.(check bool) "names the cap" true (Helpers.contains m "nesting")

(* --- sample serialization (checkpoint transport) ------------------- *)

let test_sample_json_roundtrip () =
  let reg = Metrics.create () in
  Metrics.Counter.add (Metrics.counter reg ~help:"c" "c_total") 41;
  (* Gauges with no exact 6-digit decimal image: the hex side-channel
     must carry the exact bits. *)
  Metrics.Gauge.set (Metrics.gauge reg "g1") 0.1;
  Metrics.Gauge.set
    (Metrics.gauge reg ~labels:[ ("k", "v w") ] "g2")
    (-1.23456789012345e-17);
  let h = Metrics.histogram reg "h" in
  List.iter (Histogram.observe h) [ 0; 1; 17; 123456 ];
  let samples = Metrics.snapshot reg in
  (match Metrics.samples_of_json (Metrics.samples_to_json samples) with
   | Ok back ->
     Alcotest.(check bool) "bit-exact round-trip" true (back = samples)
   | Error m -> Alcotest.failf "samples_of_json: %s" m);
  (* And through the actual emitted text, as a checkpoint would. *)
  let text = Json.to_string (Metrics.samples_to_json samples) in
  match Json.parse text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok j -> (
      match Metrics.samples_of_json j with
      | Ok back ->
        Alcotest.(check bool) "text round-trip still exact" true
          (back = samples)
      | Error m -> Alcotest.failf "samples_of_json after parse: %s" m)

let test_sample_json_rejects_malformed () =
  let reject what j =
    match Metrics.sample_of_json j with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  reject "not an object" (Json.Int 3);
  reject "bad name"
    (Json.Obj
       [ ("name", Json.Str "0bad"); ("help", Json.Str "");
         ("labels", Json.Obj []); ("kind", Json.Str "counter");
         ("value", Json.Int 1) ]);
  reject "negative counter"
    (Json.Obj
       [ ("name", Json.Str "c"); ("help", Json.Str "");
         ("labels", Json.Obj []); ("kind", Json.Str "counter");
         ("value", Json.Int (-1)) ]);
  reject "unknown kind"
    (Json.Obj
       [ ("name", Json.Str "c"); ("help", Json.Str "");
         ("labels", Json.Obj []); ("kind", Json.Str "meter");
         ("value", Json.Int 1) ]);
  (* Histogram whose bucket counts disagree with its total. *)
  reject "inconsistent histogram"
    (Json.Obj
       [ ("name", Json.Str "h"); ("help", Json.Str "");
         ("labels", Json.Obj []); ("kind", Json.Str "histogram");
         ("value",
          Json.Obj
            [ ("count", Json.Int 5); ("sum", Json.Int 5);
              ("min", Json.Int 1); ("max", Json.Int 1);
              ("buckets",
               Json.List [ Json.List [ Json.Int 1; Json.Int 2 ] ]) ]) ]);
  match
    Metrics.samples_of_json (Json.List [ Json.Int 1 ])
  with
  | Ok _ -> Alcotest.fail "bad element accepted"
  | Error m ->
    Alcotest.(check bool) "names the sample index" true
      (Helpers.contains m "sample 0")

(* --- Prometheus exposition ----------------------------------------- *)

let render_fixture () =
  let reg = Metrics.create () in
  Metrics.Counter.add
    (Metrics.counter reg ~help:"transfers"
       ~labels:[ ("channel", "a->b\n\"x\"") ]
       "elastic_channel_transfers_total")
    19;
  Metrics.Gauge.set (Metrics.gauge reg ~help:"occ" "elastic_buffer_occupancy") 0.5;
  let h =
    Metrics.histogram reg ~help:"penalty"
      "elastic_sched_replay_penalty_cycles"
  in
  List.iter (Histogram.observe h) [ 1; 1; 1; 20 ];
  Prometheus.render (Metrics.snapshot reg)

let test_prometheus_well_formed () =
  let text = render_fixture () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  List.iter
    (fun line ->
       if String.length line > 0 && line.[0] = '#' then
         Alcotest.(check bool) ("comment: " ^ line) true
           (Helpers.contains line "# HELP " || Helpers.contains line "# TYPE ")
       else begin
         (* <name>{labels} <value> — value must parse as a float and the
            name must be legal *)
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "sample line without value: %s" line
         | Some i ->
           let value = String.sub line (i + 1) (String.length line - i - 1) in
           (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparsable value %S in %s" value line);
           let name =
             match String.index_opt line '{' with
             | Some j -> String.sub line 0 j
             | None -> String.sub line 0 i
           in
           Alcotest.(check bool) ("legal metric name " ^ name) true
             (Metrics.valid_name name)
       end)
    lines;
  (* HELP/TYPE exactly once per family, before its samples *)
  let count needle =
    List.length (List.filter (fun l -> Helpers.contains l needle) lines)
  in
  Alcotest.(check int) "one TYPE per family" 1
    (count "# TYPE elastic_channel_transfers_total ");
  Alcotest.(check int) "one HELP per family" 1
    (count "# HELP elastic_sched_replay_penalty_cycles ");
  (* histogram buckets are cumulative and +Inf equals _count *)
  let bucket le =
    List.find_map
      (fun l ->
         if Helpers.contains l (Fmt.str "le=\"%s\"" le) then
           String.rindex_opt l ' '
           |> Option.map (fun i ->
                  int_of_string
                    (String.sub l (i + 1) (String.length l - i - 1)))
         else None)
      lines
  in
  Alcotest.(check (option int)) "bucket le=1" (Some 3) (bucket "1");
  Alcotest.(check (option int)) "bucket le=+Inf" (Some 4) (bucket "+Inf");
  Alcotest.(check bool) "count line" true
    (List.exists
       (fun l ->
          Helpers.contains l "elastic_sched_replay_penalty_cycles_count 4")
       lines);
  Alcotest.(check bool) "sum line" true
    (List.exists
       (fun l -> Helpers.contains l "elastic_sched_replay_penalty_cycles_sum 23")
       lines);
  Alcotest.(check bool) "label escaping" true
    (Helpers.contains text "a->b\\n\\\"x\\\"")

(* --- the sampler against scheduler ground truth --------------------- *)

let sampled_rs ?(cycles = 200) ?window ?on_window () =
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 100 in
  let d = Examples.rs_speculative ~ops in
  let eng = Elastic_sim.Engine.create d.Examples.d_net in
  let sampler = Sampler.create ?window ?on_window eng in
  Elastic_sim.Engine.set_observer eng (Some (Sampler.observe sampler));
  Elastic_sim.Engine.run eng cycles;
  (eng, sampler)

let test_sampler_ground_truth () =
  let eng, sampler = sampled_rs () in
  let samples = Sampler.sample sampler eng in
  Alcotest.(check bool) "cycles counter" true
    (Metrics.find samples "elastic_engine_cycles_total"
     = Some (Metrics.Counter 200));
  let prof = Elastic_sim.Engine.profile eng in
  Alcotest.(check bool) "node evals counter" true
    (Metrics.find samples "elastic_engine_node_evals_total"
     = Some (Metrics.Counter (Elastic_sim.Profile.evals prof)));
  let metric name =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
         match s.Metrics.m_value with
         | Metrics.Counter c when String.equal s.Metrics.m_name name ->
           acc + c
         | _ -> acc)
      0 samples
  in
  let truth f =
    List.fold_left
      (fun acc (_, s) -> acc + f s)
      0
      (Elastic_sim.Engine.schedulers eng)
  in
  Alcotest.(check int) "serves match the scheduler state"
    (truth Scheduler.serves)
    (metric "elastic_sched_serves_total");
  let squashes = truth Scheduler.mispredictions in
  Alcotest.(check int) "mispredictions match"
    squashes
    (metric "elastic_sched_mispredictions_total");
  Alcotest.(check bool) "the 5% error workload does squash" true
    (squashes > 0);
  (* Sec. 5.2: the recovery replays every squashed token in exactly one
     cycle — the histogram's whole mass sits in the 1 bucket. *)
  List.iter
    (fun (s : Metrics.sample) ->
       if
         String.equal s.Metrics.m_name "elastic_sched_replay_penalty_cycles"
       then
         match s.Metrics.m_value with
         | Metrics.Histogram snap ->
           Alcotest.(check int) "one replay per squash" squashes
             (Histogram.s_count snap);
           Alcotest.(check int) "p50 = 1 cycle" 1
             (Histogram.s_quantile snap 0.5);
           Alcotest.(check int) "p99 = 1 cycle" 1
             (Histogram.s_quantile snap 0.99);
           Alcotest.(check int) "max = 1 cycle" 1 (Histogram.s_max snap)
         | _ -> Alcotest.fail "penalty family is not a histogram")
    samples;
  (match Metrics.find ~labels:[ ("node", "stage") ] samples "elastic_sched_accuracy" with
   | Some (Metrics.Gauge a) ->
     Alcotest.(check bool) "accuracy in (0, 1]" true (a > 0.0 && a <= 1.0)
   | _ -> Alcotest.fail "missing accuracy gauge");
  (* channel transfers agree with the engine's delivery counters *)
  let total_transfers =
    List.fold_left
      (fun acc (c : Elastic_netlist.Netlist.channel) ->
         acc
         + Elastic_sim.Engine.delivered eng c.Elastic_netlist.Netlist.ch_id)
      0
      (Elastic_netlist.Netlist.channels (Elastic_sim.Engine.netlist eng))
  in
  Alcotest.(check int) "channel transfers total" total_transfers
    (metric "elastic_channel_transfers_total")

let test_sampler_jsonl_windows () =
  let rows = ref [] in
  let _eng, _sampler =
    sampled_rs ~cycles:200 ~window:50 ~on_window:(fun r -> rows := r :: !rows)
      ()
  in
  let rows = List.rev !rows in
  Alcotest.(check int) "4 windows of 50" 4 (List.length rows);
  Alcotest.(check (list int)) "window boundaries"
    [ 50; 100; 150; 200 ]
    (List.map (fun (r : Sampler.row) -> r.Sampler.r_cycle) rows);
  List.iter
    (fun (r : Sampler.row) ->
       let line = Sampler.jsonl_of_row r in
       match Json.parse line with
       | Error m -> Alcotest.failf "JSONL line does not parse: %s" m
       | Ok j ->
         Alcotest.(check bool) "schema tag" true
           (Json.member "schema" j
            = Some (Json.Str "elastic-speculation/metrics/v1"));
         Alcotest.(check bool) "cycle field" true
           (Json.member "cycle" j = Some (Json.Int r.Sampler.r_cycle));
         (match Json.member "samples" j with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "empty samples array"))
    rows

(* A sampler attached after 50 warm cycles counts from its creation on:
   each count it reads from the engine is the engine's count minus its
   value at that point.  Two control glitches, one on each side of the
   attach, make the violation and injection counts non-trivial. *)
let test_sampler_attached_mid_run () =
  let module Engine = Elastic_sim.Engine in
  let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
  let net = (Examples.rs_speculative ~ops).Examples.d_net in
  let ch = (List.nth (Netlist.channels net) 1).Netlist.ch_id in
  let eng = Engine.create net in
  Engine.set_faults eng
    (Some
       (Elastic_fault.Fault.plan net
          (Elastic_fault.Fault.control_glitch ~channel:ch ~cycle:20
           @ Elastic_fault.Fault.control_glitch ~channel:ch ~cycle:80)));
  Engine.run eng 50;
  let evals () = Elastic_sim.Profile.evals (Engine.profile eng) in
  let evals0 = evals () and violations0 = Engine.violation_count eng in
  let delivered0 = Engine.delivered eng ch in
  let sampler = Sampler.attach eng in
  Engine.run eng 100;
  let samples = Sampler.sample sampler eng in
  let counter ?labels name =
    match Metrics.find ?labels samples name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check bool) "a violation before the attach" true
    (violations0 > 0);
  Alcotest.(check int) "cycles since creation" 100
    (counter "elastic_engine_cycles_total");
  Alcotest.(check int) "evals since creation" (evals () - evals0)
    (counter "elastic_engine_node_evals_total");
  let violations = Engine.violation_count eng - violations0 in
  Alcotest.(check bool) "a violation after the attach" true (violations > 0);
  Alcotest.(check int) "violations since creation" violations
    (counter "elastic_engine_protocol_violations_total");
  Alcotest.(check int) "transfers since creation"
    (Engine.delivered eng ch - delivered0)
    (counter
       ~labels:[ ("channel", (Netlist.channel net ch).Netlist.ch_name) ]
       "elastic_channel_transfers_total");
  Alcotest.(check int) "only the second glitch's injections" 2
    (counter "elastic_fault_injections_total")

let test_note_recovery () =
  let reg = Metrics.create () in
  Sampler.note_recovery reg (Elastic_fault.Recovery.Corrected 1);
  Sampler.note_recovery reg (Elastic_fault.Recovery.Corrected 1);
  Sampler.note_recovery reg (Elastic_fault.Recovery.Detected "monitor");
  let snap = Metrics.snapshot reg in
  Alcotest.(check bool) "corrected count" true
    (Metrics.find ~labels:[ ("class", "corrected") ] snap
       "elastic_fault_recovery_total"
     = Some (Metrics.Counter 2));
  Alcotest.(check bool) "detected count" true
    (Metrics.find ~labels:[ ("class", "detected") ] snap
       "elastic_fault_recovery_total"
     = Some (Metrics.Counter 1))

(* --- the injectable clock ------------------------------------------ *)

let test_clock_injection () =
  let net = (Figures.table1 ()).Figures.t1_net in
  let eng =
    Elastic_sim.Engine.create
      ~clock:(Elastic_sim.Clock.ticker ~step_ns:1_000L)
      net
  in
  Elastic_sim.Engine.run eng 100;
  let p = Elastic_sim.Engine.profile eng in
  (* 100 cycles x 1000 ns per settle = exactly 100 us, every run. *)
  Alcotest.(check (float 1e-12)) "deterministic settle clock" 1.0e-4
    (Elastic_sim.Profile.settle_seconds p);
  (* Engine.create brackets its construction with exactly two reads of
     the same ticker: the compile phase is one deterministic step. *)
  Alcotest.(check (float 1e-12)) "deterministic compile clock" 1.0e-6
    (Elastic_sim.Profile.compile_seconds p);
  let t = Elastic_sim.Clock.monotonic () in
  let t' = Elastic_sim.Clock.monotonic () in
  Alcotest.(check bool) "monotonic clock does not go back" true
    (Elastic_sim.Clock.seconds_between t t' >= 0.0)

(* --- the regression gate ------------------------------------------- *)

let gate_fixture =
  Json.Obj
    [ ("schema", Json.Str "elastic-speculation/bench/v1");
      ("mode", Json.Str "quick");
      ("points",
       Json.List
         [ Json.Obj
             [ ("error_rate_pct", Json.Int 0);
               ("spec_throughput", Json.Float 0.951923) ] ]);
      ("engine",
       Json.Obj
         [ ("node_evals", Json.Int 5000);
           ("settle_us_per_cycle", Json.Float 6.5) ]) ]

let rec patch path value j =
  match path, j with
  | [ k ], Json.Obj fields ->
    Json.Obj
      (List.map (fun (k', v) -> if k' = k then (k', value) else (k', v)) fields)
  | k :: rest, Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k', v) -> if k' = k then (k', patch rest value v) else (k', v))
         fields)
  | path, Json.List items -> (
      match items with
      | [ only ] -> Json.List [ patch path value only ]
      | _ -> j)
  | _, _ -> j

(* The E9 timing fields must be exempt from the baseline diff on every
   machine, while the throughput/ratio claims stay compared. *)
let test_gate_wall_clock_suffixes () =
  List.iter
    (fun path ->
       Alcotest.(check bool) ("skipped: " ^ path) true
         (Gate.wall_clock_key path))
    [ "engine.settle_us_per_cycle";
      "designs[0].reference_settle_seconds";
      "designs[0].arena_settle_seconds";
      "designs[1].arena_cycles_per_second";
      "designs[1].reference_cycles_per_second";
      "designs[0].arena_speedup";
      "sizes[2].create_words_per_channel";
      "words_per_channel_ratio" ];
  List.iter
    (fun path ->
       Alcotest.(check bool) ("compared: " ^ path) true
         (not (Gate.wall_clock_key path)))
    [ "points[2].spec_throughput";
      "designs[0].speedup_ok";
      "designs[0].arena_matches_reference";
      "designs[0].cycles";
      "sizes[2].channels";
      "words_ratio_ok";
      (* the suffix must be a strict suffix of a longer key, not the
         whole key wearing a disguise *)
      "speedup.total" ]

let test_gate_rules () =
  let diffs b c = Gate.compare ~baseline:b ~current:c () in
  Alcotest.(check int) "identical records pass" 0
    (List.length (diffs gate_fixture gate_fixture));
  (* wall-clock keys are exempt *)
  let warm =
    patch [ "engine"; "settle_us_per_cycle" ] (Json.Float 99.0) gate_fixture
  in
  Alcotest.(check int) "wall-clock drift is not a regression" 0
    (List.length (diffs gate_fixture warm));
  (* floats: inside tolerance passes, outside fails with the path *)
  let close =
    patch
      [ "points"; "spec_throughput" ]
      (Json.Float 0.9519231) gate_fixture
  in
  Alcotest.(check int) "sub-tolerance float drift passes" 0
    (List.length (diffs gate_fixture close));
  let off =
    patch [ "points"; "spec_throughput" ] (Json.Float 0.93) gate_fixture
  in
  (match diffs gate_fixture off with
   | [ d ] ->
     Alcotest.(check string) "the diff names the metric"
       "points[0].spec_throughput" d.Gate.d_path;
     Alcotest.(check bool) "the diff carries the delta" true
       (Helpers.contains d.Gate.d_reason "delta")
   | ds -> Alcotest.failf "expected 1 diff, got %d" (List.length ds));
  (* integers are exact *)
  let evals =
    patch [ "engine"; "node_evals" ] (Json.Int 5001) gate_fixture
  in
  (match diffs gate_fixture evals with
   | [ d ] ->
     Alcotest.(check string) "int drift detected" "engine.node_evals"
       d.Gate.d_path
   | ds -> Alcotest.failf "expected 1 diff, got %d" (List.length ds));
  (* integral floats round-trip as ints; mixed pairs still compare *)
  let as_float =
    patch [ "engine"; "node_evals" ] (Json.Float 5000.0) gate_fixture
  in
  Alcotest.(check int) "int/float pairing is tolerant" 0
    (List.length (diffs gate_fixture as_float));
  (* a mode mismatch is one readable string diff *)
  let full = patch [ "mode" ] (Json.Str "full") gate_fixture in
  (match diffs gate_fixture full with
   | [ d ] -> Alcotest.(check string) "mode diff" "mode" d.Gate.d_path
   | ds -> Alcotest.failf "expected 1 diff, got %d" (List.length ds));
  (* paths must match in both directions *)
  let extra =
    match gate_fixture with
    | Json.Obj fields -> Json.Obj (fields @ [ ("new_metric", Json.Int 1) ])
    | _ -> assert false
  in
  (match diffs gate_fixture extra with
   | [ d ] ->
     Alcotest.(check string) "unexpected path" "new_metric" d.Gate.d_path
   | ds -> Alcotest.failf "expected 1 diff, got %d" (List.length ds));
  match diffs extra gate_fixture with
  | [ d ] ->
    Alcotest.(check bool) "missing path" true
      (Helpers.contains d.Gate.d_reason "missing")
  | ds -> Alcotest.failf "expected 1 diff, got %d" (List.length ds)

(* --- the paper's speculation gain, from the metrics view ----------- *)

let test_speculation_gain () =
  let ops = Alu.operands ~error_rate_pct:5 ~seed:42 50 in
  let cs = Timing.cycle_time (Examples.vl_stalling ~ops).Examples.d_net in
  let cp = Timing.cycle_time (Examples.vl_speculative ~ops).Examples.d_net in
  Alcotest.(check bool) "speculation shortens the clock (Sec. 5.1)" true
    (cp < cs)

let test_recovery_sample () =
  List.iter
    (fun cls ->
       let reg = Metrics.create () in
       Sampler.note_recovery reg cls;
       Alcotest.(check bool) "same sample" true
         (Metrics.snapshot reg = [ Sampler.recovery_sample cls ]))
    Elastic_fault.Recovery.
      [ Masked; Corrected 1; Detected "monitor"; Silent_corruption "x";
        Deadlock "y"; Crashed "z" ]

let suite =
  [ Alcotest.test_case "histogram: exact unit buckets below 16" `Quick
      test_histogram_exact_below_16;
    Alcotest.test_case "histogram: clamping and quantile domain" `Quick
      test_histogram_negative_clamps;
    Alcotest.test_case "histogram: snapshot isolation and reset" `Quick
      test_snapshot_isolation_and_reset;
    QCheck_alcotest.to_alcotest qcheck_merge_associative;
    QCheck_alcotest.to_alcotest qcheck_merge_is_union;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    Alcotest.test_case "registry: names, labels, kinds, find" `Quick
      test_registry_contract;
    Alcotest.test_case "registry: snapshot merge" `Quick test_snapshot_merge;
    Alcotest.test_case "hot path: updates allocate nothing" `Quick
      test_instruments_allocation_free;
    Alcotest.test_case "json: round-trip and rejection" `Quick
      test_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_json_corrupt_prefix;
    Alcotest.test_case "json: nesting cap instead of stack overflow" `Quick
      test_json_depth_cap;
    Alcotest.test_case "samples: exact json round-trip (hex gauges)" `Quick
      test_sample_json_roundtrip;
    Alcotest.test_case "samples: malformed images are rejected" `Quick
      test_sample_json_rejects_malformed;
    Alcotest.test_case "prometheus: exposition is well-formed" `Quick
      test_prometheus_well_formed;
    Alcotest.test_case "sampler: counters match scheduler ground truth"
      `Quick test_sampler_ground_truth;
    Alcotest.test_case "sampler: JSONL windows parse" `Quick
      test_sampler_jsonl_windows;
    Alcotest.test_case "sampler: attached mid-run counts from creation"
      `Quick test_sampler_attached_mid_run;
    Alcotest.test_case "sampler: recovery classifications" `Quick
      test_note_recovery;
    Alcotest.test_case "clock: injectable and monotonic" `Quick
      test_clock_injection;
    Alcotest.test_case "gate: tolerance and path rules" `Quick
      test_gate_rules;
    Alcotest.test_case "gate: wall-clock suffixes cover the E9 timings"
      `Quick test_gate_wall_clock_suffixes;
    Alcotest.test_case "speculation gain is positive" `Quick
      test_speculation_gain;
    Alcotest.test_case "sampler: recovery sample = note_recovery" `Quick
      test_recovery_sample ]

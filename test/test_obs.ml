open Elastic_core
open Elastic_metrics
open Elastic_runner
module Span = Elastic_obs.Span
module Recorder = Elastic_obs.Recorder
module Collector = Elastic_obs.Collector
module Export = Elastic_obs.Export

(* The span layer (lib/obs): ring recorder accounting, export shapes,
   the qcheck integrity property — per-worker ledgers stay well nested
   and reconcile with the runner's retry bookkeeping under injected
   kills, timeouts and kill/resume — and the zero-overhead guard on the
   engine's settle loop. *)

let sleep_stub _ = ()

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- recorder basics ----------------------------------------------- *)

let test_recorder_ring () =
  let r =
    Recorder.create ~capacity:4
      ~clock:(Elastic_sim.Clock.ticker ~step_ns:10L)
      ()
  in
  for i = 1 to 6 do
    let sc = Recorder.enter r Span.Attempt (Fmt.str "a%d" i) in
    Recorder.leave r sc
  done;
  Alcotest.(check int) "recorded counts everything" 6 (Recorder.recorded r);
  Alcotest.(check int) "overflow is reported, not silent" 2
    (Recorder.dropped r);
  let names = List.map (fun s -> s.Span.sp_name) (Recorder.spans r) in
  Alcotest.(check (list string)) "ring keeps the newest, oldest first"
    [ "a3"; "a4"; "a5"; "a6" ] names;
  let durs = List.map Span.duration_ns (Recorder.spans r) in
  Alcotest.(check bool) "ticker durations are exact" true
    (List.for_all (fun d -> d = 10L) durs)

let test_recorder_attrs_and_emit () =
  let r =
    Recorder.create ~clock:(Elastic_sim.Clock.ticker ~step_ns:5L) ()
  in
  let sc =
    Recorder.enter r Span.Shard "s" ~attrs:[ ("worker", Span.Int 3) ]
  in
  Recorder.add_attr sc "status" (Span.Str "ok");
  Recorder.leave r sc;
  (* Synthesized child: no clock reads, caller-supplied interval. *)
  Recorder.emit r ~parent:(Recorder.id sc) Span.Settle "settle"
    ~start_ns:6L ~end_ns:9L;
  match Recorder.spans r with
  | [ shard; settle ] ->
    Alcotest.(check bool) "attrs arrive in insertion order" true
      (List.map fst shard.Span.sp_attrs = [ "worker"; "status" ]);
    Alcotest.(check int) "emit keeps parentage" shard.Span.sp_id
      settle.Span.sp_parent;
    Alcotest.(check bool) "emit takes the given interval" true
      (settle.Span.sp_start_ns = 6L && Span.duration_ns settle = 3L)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* --- exports -------------------------------------------------------- *)

let synthetic_ledger () =
  let c =
    Collector.create ~clock:(Elastic_sim.Clock.ticker ~step_ns:100L)
      ~trace:42 ()
  in
  Collector.prepare c ~tracks:2;
  let r0 = Collector.track c 0 and r1 = Collector.track c 1 in
  let camp = Recorder.enter r0 Span.Campaign "camp" in
  let sh = Recorder.enter r1 ~parent:(Recorder.id camp) Span.Shard "s0" in
  Recorder.leave r1 sh;
  Recorder.leave r0 camp;
  c

let test_export_jsonl () =
  let c = synthetic_ledger () in
  let lines =
    String.split_on_char '\n'
      (String.trim (Export.jsonl ~campaign:"camp" (Collector.spans c)))
  in
  Alcotest.(check int) "header + one line per span" 3 (List.length lines);
  (match Json.parse (List.hd lines) with
   | Ok j ->
     Alcotest.(check (option string)) "versioned schema"
       (Some "elastic-speculation/spans/v1")
       (match Json.member "schema" j with
        | Some (Json.Str s) -> Some s
        | _ -> None)
   | Error m -> Alcotest.failf "header does not parse: %s" m);
  List.iter
    (fun l ->
       match Json.parse l with
       | Ok _ -> ()
       | Error m -> Alcotest.failf "line %S does not parse: %s" l m)
    lines

let test_export_chrome_monotone () =
  let c = synthetic_ledger () in
  match Export.chrome_json (Collector.spans c) with
  | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.List evs) ->
        let xs =
          List.filter_map
            (fun ev ->
               match (Json.member "ph" ev, Json.member "ts" ev) with
               | Some (Json.Str "X"), Some (Json.Int ts) -> Some ts
               | _ -> None)
            evs
        in
        Alcotest.(check int) "one X event per span" 2 (List.length xs);
        Alcotest.(check bool) "timestamps are monotone in file order" true
          (List.sort compare xs = xs)
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "chrome export is not an object"

let test_export_folded () =
  let c = synthetic_ledger () in
  let folded = Export.folded (Collector.spans c) in
  Alcotest.(check bool) "stacks are kind paths" true
    (List.for_all
       (fun l ->
          String.length l = 0
          || String.length l >= 8
             && String.equal (String.sub l 0 8) "campaign")
       (String.split_on_char '\n' folded));
  Alcotest.(check bool) "shard self time excludes nothing here" true
    (List.exists
       (fun l ->
          match String.index_opt l ' ' with
          | Some i -> String.equal (String.sub l 0 i) "campaign;shard"
          | None -> false)
       (String.split_on_char '\n' folded))

(* --- span integrity under chaos (qcheck) ---------------------------- *)

let sample_work () =
  let reg = Metrics.create () in
  Metrics.Counter.inc
    (Metrics.counter reg ~help:"work units" "obs_test_work_total");
  Metrics.snapshot reg

(* A campaign whose first attempts are selectively killed or timed out —
   both Transient, so the runner retries them with backoff. *)
let chaotic_tasks ~count ~kill_mod ~timeout_mod () =
  List.init count (fun i ->
      { Runner.id = Fmt.str "t/%04d" i;
        work =
          (fun (ctx : Runner.ctx) ->
             ctx.Runner.check_deadline ();
             if ctx.Runner.attempt = 1 && i mod 5 = kill_mod then
               raise (Runner.Killed "obs test: injected kill");
             if ctx.Runner.attempt = 1 && i mod 7 = timeout_mod then
               raise (Runner.Deadline_exceeded "obs test: injected timeout");
             sample_work ()) })

let contains (a : Span.t) (b : Span.t) =
  Int64.compare a.Span.sp_start_ns b.Span.sp_start_ns <= 0
  && Int64.compare b.Span.sp_end_ns a.Span.sp_end_ns <= 0

let disjoint (a : Span.t) (b : Span.t) =
  Int64.compare a.Span.sp_end_ns b.Span.sp_start_ns <= 0
  || Int64.compare b.Span.sp_end_ns a.Span.sp_start_ns <= 0

(* Well-nestedness of one ledger: same-track spans pairwise nest or do
   not touch, and every child lies inside its parent (which may live on
   another track: shards hang off the track-0 campaign root). *)
let check_ledger spans =
  let arr = Array.of_list spans in
  let by_id = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace by_id s.Span.sp_id s) arr;
  Array.iteri
    (fun i a ->
       Array.iteri
         (fun j b ->
            if i < j && a.Span.sp_track = b.Span.sp_track
               && not (contains a b || contains b a || disjoint a b)
            then
              QCheck.Test.fail_reportf
                "track %d: spans %d and %d overlap without nesting"
                a.Span.sp_track a.Span.sp_id b.Span.sp_id)
         arr)
    arr;
  Array.iter
    (fun s ->
       if s.Span.sp_parent <> Span.no_parent then
         match Hashtbl.find_opt by_id s.Span.sp_parent with
         | None ->
           QCheck.Test.fail_reportf "span %d: dangling parent %d"
             s.Span.sp_id s.Span.sp_parent
         | Some p ->
           if not (contains p s) then
             QCheck.Test.fail_reportf
               "span %d escapes its parent %d" s.Span.sp_id p.Span.sp_id)
    arr

let count_kind k spans =
  List.length (List.filter (fun s -> s.Span.sp_kind = k) spans)

(* Reconcile a ledger against the report it was recorded for. *)
let check_accounting (r : Runner.report) spans =
  let stat f = Array.fold_left (fun acc w -> acc + f w) 0 r.Runner.r_workers in
  let attempts_started = stat (fun w -> w.Runner.w_tasks) in
  let retries = stat (fun w -> w.Runner.w_retries) in
  if count_kind Span.Attempt spans <> attempts_started then
    QCheck.Test.fail_reportf "attempt spans %d <> attempts started %d"
      (count_kind Span.Attempt spans) attempts_started;
  if count_kind Span.Backoff_sleep spans <> retries then
    QCheck.Test.fail_reportf "backoff spans %d <> retries %d"
      (count_kind Span.Backoff_sleep spans) retries;
  let executed =
    List.length
      (List.filter
         (fun (sh : Runner.shard) ->
            sh.Runner.sh_worker >= 0 && not sh.Runner.sh_resumed)
         r.Runner.r_shards)
  in
  if count_kind Span.Shard spans <> executed then
    QCheck.Test.fail_reportf "shard spans %d <> executed shards %d"
      (count_kind Span.Shard spans) executed;
  if count_kind Span.Campaign spans <> 1 then
    QCheck.Test.fail_reportf "expected exactly one campaign root";
  (* Per executed shard: its attempt spans match the report's count. *)
  let shard_span_id = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
       if s.Span.sp_kind = Span.Shard then
         Hashtbl.replace shard_span_id s.Span.sp_name s.Span.sp_id)
    spans;
  List.iter
    (fun (sh : Runner.shard) ->
       match Hashtbl.find_opt shard_span_id sh.Runner.sh_id with
       | None -> ()
       | Some id ->
         let under =
           List.length
             (List.filter
                (fun (s : Span.t) ->
                   s.Span.sp_kind = Span.Attempt && s.Span.sp_parent = id)
                spans)
         in
         if under <> sh.Runner.sh_attempts then
           QCheck.Test.fail_reportf
             "shard %s: %d attempt spans, report says %d attempts"
             sh.Runner.sh_id under sh.Runner.sh_attempts)
    r.Runner.r_shards

let qcheck_span_integrity =
  QCheck.Test.make ~count:8
    ~name:
      "spans: well-nested and retry-consistent under kills, timeouts and \
       resume"
    QCheck.(triple (int_bound 999) (int_bound 2) (int_bound 4))
    (fun (seed, wexp, kill_mod) ->
       let workers = 1 lsl wexp in
       let count = 12 in
       let timeout_mod = (kill_mod + 3) mod 7 in
       let tasks () = chaotic_tasks ~count ~kill_mod ~timeout_mod () in
       (* Uninterrupted run. *)
       let c = Collector.create () in
       let r =
         Runner.run ~workers ~seed ~sleep:sleep_stub ~obs:c ~name:"obs"
           (tasks ())
       in
       check_ledger (Collector.spans c);
       check_accounting r (Collector.spans c);
       (* Kill mid-run with a checkpoint, then resume: both ledgers must
          hold on their own, and the resumed one must skip the adopted
          shards. *)
       let path = tmp_path (Fmt.str "obs_%d_%d_%d.jsonl" seed wexp kill_mod) in
       let ck = Collector.create () in
       let killed =
         Runner.run ~workers ~seed ~sleep:sleep_stub ~obs:ck
           ~checkpoint:path ~stop_after:(count / 2) ~name:"obs" (tasks ())
       in
       check_ledger (Collector.spans ck);
       check_accounting killed (Collector.spans ck);
       let cp =
         match Checkpoint.load path with
         | Ok cp -> cp
         | Error m -> QCheck.Test.fail_reportf "checkpoint: %s" m
       in
       let cr = Collector.create () in
       let resumed =
         Runner.run ~workers ~seed ~sleep:sleep_stub ~obs:cr ~resume:cp
           ~name:"obs" (tasks ())
       in
       Sys.remove path;
       check_ledger (Collector.spans cr);
       check_accounting resumed (Collector.spans cr);
       resumed.Runner.r_completed = count
       && count_kind Span.Checkpoint_write (Collector.spans ck)
          = killed.Runner.r_completed - killed.Runner.r_resumed)

(* --- zero-overhead guard ------------------------------------------- *)

(* With no recorder attached anywhere, the engine's hot paths must look
   exactly as they did before the span layer existed: Engine.create
   brackets construction with 2 clock reads, each settled cycle adds
   exactly 2, and the settle loop's per-cycle allocation is unchanged
   between identical runs (nothing span-shaped is being built). *)
let test_settle_zero_overhead () =
  let net = (Figures.table1 ()).Figures.t1_net in
  let reads = ref 0 in
  let tick = Elastic_sim.Clock.ticker ~step_ns:1_000L in
  let clock () =
    incr reads;
    tick ()
  in
  let eng = Elastic_sim.Engine.create ~clock net in
  Alcotest.(check int) "create reads the clock exactly twice" 2 !reads;
  Elastic_sim.Engine.run eng 50;
  Alcotest.(check int) "two reads per settled cycle, none extra" 102 !reads;
  let alloc_of_run () =
    let e = Elastic_sim.Engine.create ~clock:tick net in
    Elastic_sim.Engine.run e 10;
    let before = Gc.minor_words () in
    Elastic_sim.Engine.run e 40;
    Gc.minor_words () -. before
  in
  let a1 = alloc_of_run () in
  let a2 = alloc_of_run () in
  Alcotest.(check (float 0.0)) "per-cycle allocation is reproducible" a1 a2;
  (* Table 1 is quiescent after its warm-up: a cycle allocates only the
     ticker's two boxed [Int64] readings (3 words each). *)
  Alcotest.(check (float 0.0)) "a cycle allocates only the clock readings"
    (40. *. 2. *. 3.) a1

let suite =
  [ Alcotest.test_case "recorder: ring keeps newest, counts drops" `Quick
      test_recorder_ring;
    Alcotest.test_case "recorder: attrs and synthesized emit" `Quick
      test_recorder_attrs_and_emit;
    Alcotest.test_case "export: versioned JSONL ledger" `Quick
      test_export_jsonl;
    Alcotest.test_case "export: Chrome trace is monotone" `Quick
      test_export_chrome_monotone;
    Alcotest.test_case "export: collapsed stacks by kind path" `Quick
      test_export_folded;
    QCheck_alcotest.to_alcotest qcheck_span_integrity;
    Alcotest.test_case "spans off: settle loop pays nothing" `Quick
      test_settle_zero_overhead ]

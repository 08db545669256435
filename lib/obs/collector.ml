open Elastic_sim
module Metrics = Elastic_metrics.Metrics

type t = {
  cap : int;
  clk : Clock.t;
  trace : int;
  mutable recs : Recorder.t array;
}

(* Disjoint id ranges per track keep merged ids unique; a track would
   need a billion spans to collide. *)
let ids_per_track = 1_000_000_000

let create ?(capacity_per_track = 8192) ?(clock = Clock.monotonic) ?trace
    () =
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Int64.to_int (Int64.logand (clock ()) 0x3FFFFFFFFFFFFFL)
  in
  { cap = capacity_per_track; clk = clock; trace; recs = [||] }

let clock t = t.clk

let prepare t ~tracks =
  let have = Array.length t.recs in
  if tracks > have then
    t.recs <-
      Array.init tracks (fun k ->
          if k < have then t.recs.(k)
          else
            Recorder.create ~capacity:t.cap ~clock:t.clk ~trace:t.trace
              ~track:k
              ~first_id:(1 + (k * ids_per_track))
              ())

let track t k =
  if k < 0 || k >= Array.length t.recs then
    invalid_arg
      (Fmt.str "Collector.track: track %d not prepared (%d tracks)" k
         (Array.length t.recs));
  t.recs.(k)

let tracks t = Array.length t.recs

let spans t =
  Array.to_list t.recs
  |> List.concat_map Recorder.spans
  |> List.sort (fun (a : Span.t) (b : Span.t) ->
      match Int64.compare a.Span.sp_start_ns b.Span.sp_start_ns with
      | 0 -> compare a.Span.sp_id b.Span.sp_id
      | c -> c)

let recorded t =
  Array.fold_left (fun acc r -> acc + Recorder.recorded r) 0 t.recs

let dropped t =
  Array.fold_left (fun acc r -> acc + Recorder.dropped r) 0 t.recs

let busy_seconds t =
  Array.to_list t.recs
  |> List.map (fun r ->
      let busy =
        List.fold_left
          (fun acc (s : Span.t) ->
             match s.Span.sp_kind with
             | Span.Shard -> acc +. Span.duration_seconds s
             | _ -> acc)
          0.0 (Recorder.spans r)
      in
      (Recorder.track r, busy))

let utilization t ~wall_seconds =
  List.map
    (fun (w, busy) ->
       let u = if wall_seconds <= 0.0 then 0.0 else busy /. wall_seconds in
       (w, Float.min 1.0 (Float.max 0.0 u)))
    (busy_seconds t)

let note_gauges t ~wall_seconds reg =
  List.iter
    (fun (w, busy) ->
       let labels = [ ("worker", string_of_int w) ] in
       Metrics.Gauge.set
         (Metrics.gauge reg ~labels
            ~help:"busy fraction of the campaign wall time"
            "elastic_obs_worker_utilization")
         (if wall_seconds <= 0.0 then 0.0
          else Float.min 1.0 (busy /. wall_seconds));
       Metrics.Gauge.set
         (Metrics.gauge reg ~labels
            ~help:"campaign wall time the worker spent without a shard"
            "elastic_obs_queue_wait_seconds")
         (Float.max 0.0 (wall_seconds -. busy)))
    (busy_seconds t);
  Metrics.Counter.add
    (Metrics.counter reg ~help:"spans recorded across all workers"
       "elastic_obs_spans_total")
    (recorded t);
  Metrics.Counter.add
    (Metrics.counter reg ~help:"spans lost to ring wraparound"
       "elastic_obs_spans_dropped_total")
    (dropped t);
  Metrics.Gauge.set
    (Metrics.gauge reg ~help:"span production rate over the campaign"
       "elastic_obs_spans_per_second")
    (if wall_seconds <= 0.0 then 0.0
     else float_of_int (recorded t) /. wall_seconds)

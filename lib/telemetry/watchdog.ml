module Progress = Elastic_runner.Progress
module Metrics = Elastic_metrics.Metrics
module Clock = Elastic_sim.Clock

type t = {
  wd_progress : Progress.t;
  wd_deadline_ns : int64;
  wd_flagged : bool array;
  wd_counter : Metrics.Counter.t;
  mutable wd_healthy : bool;
}

let create ?(deadline_s = 5.0) ~registry progress =
  if deadline_s <= 0.0 then
    invalid_arg "Watchdog.create: deadline_s must be > 0";
  { wd_progress = progress;
    wd_deadline_ns = Int64.of_float (deadline_s *. 1e9);
    wd_flagged = Array.make (Progress.shards progress) false;
    wd_counter =
      Metrics.counter registry
        ~help:"running shards that missed their heartbeat deadline"
        "elastic_watchdog_stalls_total";
    wd_healthy = true }

let deadline_s t = Int64.to_float t.wd_deadline_ns *. 1e-9

let check t =
  (* One clock read per pass, on the progress plane's clock — under
     [Clock.ticker] every call advances deterministic time by one
     step, which is what the stall/recover tests and scrape_check
     lean on. *)
  let now = Progress.clock t.wd_progress () in
  let healthy = ref true in
  for i = 0 to Progress.shards t.wd_progress - 1 do
    let stalled =
      let s = Progress.slot t.wd_progress i in
      match s.s_state with
      | Progress.Running ->
        Int64.compare (Int64.sub now s.s_beat_ns) t.wd_deadline_ns > 0
      | Progress.Pending | Progress.Completed | Progress.Failed -> false
    in
    if stalled then begin
      (* Count stall *episodes*, not passes: the counter moves once
         per transition into the stalled state. *)
      if not t.wd_flagged.(i) then begin
        t.wd_flagged.(i) <- true;
        Metrics.Counter.inc t.wd_counter
      end;
      healthy := false
    end
    else t.wd_flagged.(i) <- false
  done;
  t.wd_healthy <- !healthy

let healthy t = t.wd_healthy

let stalls t = Metrics.Counter.value t.wd_counter

module Metrics = Elastic_metrics.Metrics
module Clock = Elastic_sim.Clock

type state =
  | Pending
  | Running
  | Completed
  | Failed

type counts = {
  c_pending : int;
  c_running : int;
  c_completed : int;
  c_failed : int;
}

type classification =
  | Transient
  | Permanent

type failure = {
  f_exn : string;
  f_class : classification;
}

(* One slot per shard, written only by the worker executing that shard
   (plain stores, no locks — see the .mli for the tearing contract). *)
type slot = {
  mutable s_state : state;
  mutable s_attempts : int;
  mutable s_worker : int;
  mutable s_timeouts : int;
  mutable s_beat_ns : int64;
  mutable s_seconds : float;
  mutable s_samples : Metrics.sample list;
  mutable s_failure : failure option;
  mutable s_resumed : bool;
}

type t = {
  p_name : string;
  p_ids : string array;
  p_clock : Clock.t;
  p_started_ns : int64;
  p_slots : slot array;
}

let create ?(clock = Clock.monotonic) ~name ~ids () =
  { p_name = name;
    p_ids = Array.copy ids;
    p_clock = clock;
    p_started_ns = clock ();
    p_slots =
      Array.init (Array.length ids) (fun _ ->
          { s_state = Pending; s_attempts = 0; s_worker = -1;
            s_timeouts = 0; s_beat_ns = 0L; s_seconds = 0.0;
            s_samples = []; s_failure = None; s_resumed = false }) }

let name t = t.p_name

let shards t = Array.length t.p_slots

let clock t = t.p_clock

let slot t shard =
  if shard < 0 || shard >= Array.length t.p_slots then
    invalid_arg
      (Fmt.str "Progress: shard %d out of range [0, %d)" shard
         (Array.length t.p_slots));
  t.p_slots.(shard)

let start_shard t ~shard ~worker ~attempt ~now =
  let s = slot t shard in
  s.s_worker <- worker;
  s.s_attempts <- attempt;
  s.s_beat_ns <- now;
  s.s_state <- Running

let beat_at t ~shard now = (slot t shard).s_beat_ns <- now

let beat t ~shard = beat_at t ~shard (t.p_clock ())

let note_timeout t ~shard =
  let s = slot t shard in
  s.s_timeouts <- s.s_timeouts + 1

let complete t ~shard ~now ~seconds samples =
  let s = slot t shard in
  s.s_samples <- samples;
  s.s_seconds <- seconds;
  s.s_beat_ns <- now;
  s.s_state <- Completed

let fail t ~shard failure =
  let s = slot t shard in
  s.s_failure <- Some failure;
  s.s_state <- Failed

let adopt t ~shard samples =
  let s = slot t shard in
  s.s_samples <- samples;
  s.s_resumed <- true;
  s.s_state <- Completed

let counts t =
  let pending = ref 0 and running = ref 0 and completed = ref 0
  and failed = ref 0 in
  Array.iter
    (fun s ->
       match s.s_state with
       | Pending -> incr pending
       | Running -> incr running
       | Completed -> incr completed
       | Failed -> incr failed)
    t.p_slots;
  { c_pending = !pending; c_running = !running; c_completed = !completed;
    c_failed = !failed }

let attempts_total t =
  Array.fold_left (fun acc s -> acc + s.s_attempts) 0 t.p_slots

let retried t =
  Array.fold_left
    (fun acc s ->
       if s.s_state = Completed && s.s_attempts > 1 then acc + 1 else acc)
    0 t.p_slots

let resumed t =
  Array.fold_left
    (fun acc s -> if s.s_resumed then acc + 1 else acc)
    0 t.p_slots

let merged t =
  Array.fold_left
    (fun acc s ->
       if s.s_state = Completed then Metrics.merge acc s.s_samples else acc)
    [] t.p_slots

let elapsed_seconds t =
  Clock.seconds_between t.p_started_ns (t.p_clock ())

let eta_seconds t =
  let c = counts t in
  let done_live =
    (* Adopted shards completed instantly and would skew the rate. *)
    c.c_completed - resumed t
  in
  if done_live <= 0 then None
  else
    let remaining = c.c_pending + c.c_running in
    Some (elapsed_seconds t /. float_of_int done_live
          *. float_of_int remaining)

let slowest t =
  let best = ref None in
  Array.iteri
    (fun i s ->
       if s.s_state = Completed then
         match !best with
         | Some (_, _, secs, _) when secs >= s.s_seconds -> ()
         | _ -> best := Some (t.p_ids.(i), i, s.s_seconds, s.s_attempts))
    t.p_slots;
  !best

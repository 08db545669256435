type observation = {
  in_valid : bool array;
  out_valid : bool array;
  out_stop : bool array;
  out_kill : bool array;
  mutable served : int option;
  mutable hint : int option;
}

type spec =
  | Static of int
  | Toggle
  | Sticky
  | Two_bit
  | Round_robin
  | Scripted of int array
  | Noisy_oracle of { sel : int array; accuracy_pct : int; seed : int }
  | External
  | Prefer of int
  | Hinted_replay
  | Gshare of { history_bits : int }

let spec_name = function
  | Static i -> Fmt.str "static%d" i
  | Toggle -> "toggle"
  | Sticky -> "sticky"
  | Two_bit -> "two-bit"
  | Round_robin -> "round-robin"
  | Scripted _ -> "scripted"
  | Noisy_oracle { accuracy_pct; _ } -> Fmt.str "oracle%d%%" accuracy_pct
  | External -> "external"
  | Prefer i -> Fmt.str "prefer%d" i
  | Hinted_replay -> "hinted-replay"
  | Gshare { history_bits } -> Fmt.str "gshare%d" history_bits


type t = {
  spec : spec;
  ways : int;
  mutable pred : int;
  mutable cycle : int;
  mutable transfers : int;
      (* oracle script index — wraps, see [observe]; not a statistic *)
  mutable served_total : int;
  mutable miss : int;
  mutable counter : int;  (* two-bit saturating counter *)
  mutable rng : int;  (* LCG state for the noisy oracle *)
  mutable committed : int;  (* committed prediction index, -1 if stale *)
  mutable hist : int;  (* gshare global history register *)
  table : int array;  (* gshare two-bit counters *)
  mutable in_miss : bool;
      (* a misprediction retry is in progress (so learning schedulers
         train once per event, not once per stalled cycle) *)
}

let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Committed prediction of the noisy oracle for the next transfer: roll
   the dice once per transfer index, not once per cycle. *)
let oracle_commit t sel accuracy_pct =
  let truth =
    if Array.length sel = 0 then 0
    else sel.(t.transfers mod Array.length sel)
  in
  t.rng <- lcg_next t.rng;
  let hit = t.rng mod 100 < accuracy_pct in
  if hit || t.ways < 2 then truth
  else begin
    (* Pick a wrong channel deterministically from the RNG. *)
    t.rng <- lcg_next t.rng;
    let other = t.rng mod (t.ways - 1) in
    if other >= truth then other + 1 else other
  end

let initial_pred ~ways spec =
  match spec with
  | Static i ->
    if i < 0 || i >= ways then
      invalid_arg (Fmt.str "Scheduler.make: Static %d with %d ways" i ways);
    i
  | Toggle | Sticky | Two_bit | Round_robin | External | Hinted_replay
  | Gshare _ -> 0
  | Prefer i ->
    if i < 0 || i >= ways then
      invalid_arg (Fmt.str "Scheduler.make: Prefer %d with %d ways" i ways);
    i
  | Scripted a -> if Array.length a = 0 then 0 else a.(0)
  | Noisy_oracle _ -> 0

let make ~ways spec =
  if ways < 1 then invalid_arg "Scheduler.make: ways < 1";
  (match spec with
   | Two_bit when ways <> 2 ->
     invalid_arg "Scheduler.make: Two_bit requires exactly 2 ways"
   | Gshare _ when ways <> 2 ->
     invalid_arg "Scheduler.make: Gshare requires exactly 2 ways"
   | Gshare { history_bits } when history_bits < 1 || history_bits > 10 ->
     invalid_arg "Scheduler.make: Gshare history_bits out of [1, 10]"
   | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
   | Noisy_oracle _ | External | Prefer _ | Hinted_replay | Gshare _ -> ());
  let table_size =
    match spec with Gshare { history_bits } -> 1 lsl history_bits | _ -> 0
  in
  let t =
    { spec; ways; pred = initial_pred ~ways spec; cycle = 0; transfers = 0;
      served_total = 0; miss = 0; counter = 1; rng = 0; committed = -1; hist = 0;
      table = Array.make table_size 1; in_miss = false }
  in
  (match spec with
   | Noisy_oracle { seed; sel; accuracy_pct } ->
     t.rng <- lcg_next (seed land 0x3FFFFFFF);
     t.pred <- oracle_commit t sel accuracy_pct;
     t.committed <- 0
   | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
   | External | Prefer _ | Hinted_replay | Gshare _ -> ());
  t

let predict t = t.pred

let retry_on_predicted t obs =
  t.pred < Array.length obs.out_valid
  && obs.out_valid.(t.pred) && obs.out_stop.(t.pred) && obs.served = None

let observe t obs =
  let mispredicted = retry_on_predicted t obs in
  (* Rising edge: a new misprediction event (a stall can last several
     cycles, but it is one mistake). *)
  let miss_edge = mispredicted && not t.in_miss in
  if miss_edge then t.miss <- t.miss + 1;
  (match obs.served with
   | Some _ ->
     (* Wrap so that exhaustive state exploration stays finite; only the
        oracle reads this counter, modulo its script length. *)
     let modulus =
       match t.spec with
       | Noisy_oracle { sel; _ } -> max 1 (Array.length sel)
       | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
       | External | Prefer _ | Hinted_replay | Gshare _ -> 1 lsl 30
     in
     t.transfers <- (t.transfers + 1) mod modulus;
     t.served_total <- t.served_total + 1
   | None -> ());
  let finish () = t.in_miss <- mispredicted in
  (* The cycle counter is behavioural only for Toggle and Scripted. *)
  (match t.spec with
   | Toggle -> t.cycle <- (t.cycle + 1) mod t.ways
   | Scripted a -> t.cycle <- (t.cycle + 1) mod (max 1 (Array.length a))
   | Static _ | Sticky | Two_bit | Round_robin | Noisy_oracle _ | External
   | Prefer _ | Hinted_replay | Gshare _ -> ());
  (match t.spec with
  | Static i -> t.pred <- i
  | Toggle -> t.pred <- t.cycle mod t.ways
  | Scripted a ->
    if Array.length a > 0 then t.pred <- a.(t.cycle mod Array.length a)
  | Sticky -> if mispredicted then t.pred <- (t.pred + 1) mod t.ways
  | Round_robin ->
    (match obs.served with
     | Some _ -> t.pred <- (t.pred + 1) mod t.ways
     | None -> if mispredicted then t.pred <- (t.pred + 1) mod t.ways)
  | Two_bit ->
    (* Train toward the channel that turned out to be needed: the served
       channel on a hit, the other channel on a detected miss. *)
    let toward c =
      if c = 1 then t.counter <- min 3 (t.counter + 1)
      else t.counter <- max 0 (t.counter - 1)
    in
    (match obs.served with
     | Some s -> toward s
     | None ->
       (* Keep pressing while the retry persists: leads-to requires the
          prediction to flip eventually. *)
       if mispredicted then toward (1 - t.pred));
    t.pred <- (if t.counter >= 2 then 1 else 0)
  | Noisy_oracle { sel; accuracy_pct; _ } ->
    if mispredicted then begin
      (* The retry reveals the truth for the pending transfer. *)
      let truth =
        if Array.length sel = 0 then 0
        else sel.(t.transfers mod Array.length sel)
      in
      t.pred <- truth
    end
    else if t.committed <> t.transfers then begin
      t.pred <- oracle_commit t sel accuracy_pct;
      t.committed <- t.transfers
    end
  | External -> ()
  | Prefer home ->
    if mispredicted then t.pred <- (t.pred + 1) mod t.ways
    else if t.pred <> home && obs.served <> None then t.pred <- home
  | Hinted_replay ->
    (* The hint is authoritative: a stopped output is ordinary
       back-pressure here, not a misprediction, so there is no
       retry-based deviation. *)
    (match obs.hint with
     | Some h when h <> 0 ->
       t.miss <- t.miss + (if mispredicted then 0 else 1);
       t.pred <- 1
     | Some _ | None ->
       if t.pred <> 0 && obs.served <> None then t.pred <- 0)
  | Gshare _ ->
    (* Each serve is one consumed select: train the indexed counter and
       shift the outcome into the global history exactly once.  While a
       misprediction retry persists, keep pressing the current entry
       toward the needed channel (leads-to) without touching history. *)
    let mask = Array.length t.table - 1 in
    let train o =
      let idx = t.hist land mask in
      let c = t.table.(idx) in
      t.table.(idx) <- (if o = 1 then min 3 (c + 1) else max 0 (c - 1))
    in
    (match obs.served with
     | Some s ->
       train s;
       t.hist <- ((t.hist lsl 1) lor s) land mask
     | None -> if mispredicted then train (1 - t.pred));
    t.pred <- (if t.table.(t.hist land mask) >= 2 then 1 else 0));
  finish ()

let force t c =
  if c < 0 || c >= t.ways then invalid_arg "Scheduler.force: bad channel";
  t.pred <- c

let mispredictions t = t.miss

let serves t = t.served_total

let state t =
  [ t.pred; t.cycle; t.transfers; t.miss; t.counter; t.rng; t.committed;
    t.hist; Bool.to_int t.in_miss; t.served_total ]
  @ Array.to_list t.table

(* Behaviourally relevant state only — statistics excluded so that
   [same_future] relates states that differ only in counts. *)
let key t =
  match t.spec with
  | Static _ | External -> []
  | Toggle | Scripted _ -> [ t.cycle ]
  | Sticky | Round_robin | Prefer _ | Hinted_replay -> [ t.pred ]
  | Two_bit -> [ t.counter; Bool.to_int t.in_miss ]
  | Noisy_oracle _ -> [ t.pred; t.transfers; t.rng; t.committed ]
  | Gshare _ ->
    t.pred :: t.hist :: Bool.to_int t.in_miss :: Array.to_list t.table

let set_state t = function
  | pred :: cycle :: transfers :: miss :: counter :: rng :: committed
    :: hist :: in_miss :: served_total :: table
    when List.length table = Array.length t.table ->
    t.pred <- pred;
    t.cycle <- cycle;
    t.transfers <- transfers;
    t.miss <- miss;
    t.counter <- counter;
    t.rng <- rng;
    t.committed <- committed;
    t.hist <- hist;
    t.in_miss <- in_miss <> 0;
    t.served_total <- served_total;
    List.iteri (fun i v -> t.table.(i) <- v) table
  | _ -> invalid_arg "Scheduler.set_state: bad encoding"

let same_future t s =
  let u = { t with table = Array.copy t.table } in
  set_state u s;
  u.pred = t.pred && key u = key t

let spec t = t.spec

let ways t = t.ways

type 'a on_activity = {
  serve : 'a -> int -> unit;
  replay : 'a -> int -> unit;
  mispredict : 'a -> int -> unit;
  change : 'a -> int -> unit;
}

type 'a watch = {
  w_sched : t;
  w_data : 'a;
  mutable w_serves : int;
  mutable w_miss : int;
  mutable w_pred : int;  (* prediction in effect during the next cycle *)
  mutable w_squash : int;  (* cycle of the unreplayed squash, or -1 *)
}

let watch sched data =
  { w_sched = sched; w_data = data; w_serves = sched.served_total;
    w_miss = sched.miss; w_pred = sched.pred; w_squash = -1 }

let payload w = w.w_data

let poll on w ~cycle =
  let s = w.w_sched in
  for _ = w.w_serves + 1 to s.served_total do
    on.serve w.w_data w.w_pred;
    if w.w_squash >= 0 && w.w_squash < cycle then begin
      on.replay w.w_data (cycle - w.w_squash);
      w.w_squash <- -1
    end
  done;
  w.w_serves <- s.served_total;
  if s.miss > w.w_miss then begin
    for _ = w.w_miss + 1 to s.miss do
      on.mispredict w.w_data w.w_pred
    done;
    w.w_miss <- s.miss;
    w.w_squash <- cycle
  end;
  if s.pred <> w.w_pred then begin
    on.change w.w_data s.pred;
    w.w_pred <- s.pred
  end

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


(* A scheduler is a view of [width] int slots of an array, from [o]:
   its registers, then the gshare table.  An engine lays every node's
   registers out in one array; [make] gives a standalone scheduler an
   array of its own. *)
type t = { spec : spec; ways : int; a : int array; o : int }

(* Register slots, relative to [o]: the prediction; the Toggle/Scripted
   position; the oracle's script index, which wraps (see [observe]);
   the two statistics; the two-bit counter; the oracle's LCG state and
   committed prediction index (-1 if stale); the gshare history; 1 while
   a misprediction retry is in progress (so learning schedulers train
   once per event, not once per stalled cycle); from [table] on, the
   gshare two-bit counters. *)
let pred = 0 and cycle = 1 and transfers = 2 and served_total = 3 and miss = 4
and counter = 5 and rng = 6 and committed = 7 and hist = 8 and in_miss = 9
and table = 10

(* Zero for an out-of-range [history_bits], which [place] refuses. *)
let table_size = function
  | Gshare { history_bits } when history_bits >= 1 && history_bits <= 10 ->
    1 lsl history_bits
  | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
  | Noisy_oracle _ | External | Prefer _ | Hinted_replay | Gshare _ -> 0

let width spec = table + table_size spec

let[@inline] get t k = t.a.(t.o + k)

let[@inline] set t k x = t.a.(t.o + k) <- x

let lcg_next s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Committed prediction of the noisy oracle for the next transfer: roll
   the dice once per transfer index, not once per cycle. *)
let oracle_commit t sel accuracy_pct =
  let truth =
    if Array.length sel = 0 then 0
    else sel.(get t transfers mod Array.length sel)
  in
  set t rng (lcg_next (get t rng));
  let hit = get t rng mod 100 < accuracy_pct in
  if hit || t.ways < 2 then truth
  else begin
    (* Pick a wrong channel deterministically from the RNG. *)
    set t rng (lcg_next (get t rng));
    let other = get t rng mod (t.ways - 1) in
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

let place a o ~ways spec =
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
  let t = { spec; ways; a; o } in
  Array.fill a o (width spec) 0;
  set t pred (initial_pred ~ways spec);
  set t counter 1;
  set t committed (-1);
  Array.fill a (o + table) (table_size spec) 1;
  (match spec with
   | Noisy_oracle { seed; sel; accuracy_pct } ->
     set t rng (lcg_next (seed land 0x3FFFFFFF));
     set t pred (oracle_commit t sel accuracy_pct);
     set t committed 0
   | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
   | External | Prefer _ | Hinted_replay | Gshare _ -> ());
  t

let make ~ways spec = place (Array.make (width spec) 0) 0 ~ways spec

let predict t = get t pred

let next_way t p = set t pred ((p + 1) mod t.ways)

let observe t ~valid ~stop ~served ~hint =
  let mispredicted = valid && stop && served < 0 in
  (* Rising edge: a new misprediction event (a stall can last several
     cycles, but it is one mistake). *)
  let miss_edge = mispredicted && get t in_miss = 0 in
  if miss_edge then set t miss (get t miss + 1);
  if served >= 0 then begin
    (* Wrap so that exhaustive state exploration stays finite; only the
       oracle reads this counter, modulo its script length. *)
    let modulus =
      match t.spec with
      | Noisy_oracle { sel; _ } -> max 1 (Array.length sel)
      | Static _ | Toggle | Sticky | Two_bit | Round_robin | Scripted _
      | External | Prefer _ | Hinted_replay | Gshare _ -> 1 lsl 30
    in
    set t transfers ((get t transfers + 1) mod modulus);
    set t served_total (get t served_total + 1)
  end;
  (* The cycle counter is behavioural only for Toggle and Scripted. *)
  (match t.spec with
   | Toggle -> set t cycle ((get t cycle + 1) mod t.ways)
   | Scripted a -> set t cycle ((get t cycle + 1) mod max 1 (Array.length a))
   | Static _ | Sticky | Two_bit | Round_robin | Noisy_oracle _ | External
   | Prefer _ | Hinted_replay | Gshare _ -> ());
  let p = get t pred in
  (match t.spec with
  | Static i -> set t pred i
  | Toggle -> set t pred (get t cycle mod t.ways)
  | Scripted a ->
    if Array.length a > 0 then set t pred a.(get t cycle mod Array.length a)
  | Sticky -> if mispredicted then next_way t p
  | Round_robin ->
    if served >= 0 || mispredicted then next_way t p
  | Two_bit ->
    (* Train toward the channel that turned out to be needed: the served
       channel on a hit, the other channel on a detected miss. *)
    let toward c =
      let n = get t counter in
      set t counter (if c = 1 then min 3 (n + 1) else max 0 (n - 1))
    in
    if served >= 0 then toward served
    else if mispredicted then
      (* Keep pressing while the retry persists: leads-to requires the
         prediction to flip eventually. *)
      toward (1 - p);
    set t pred (if get t counter >= 2 then 1 else 0)
  | Noisy_oracle { sel; accuracy_pct; _ } ->
    if mispredicted then begin
      (* The retry reveals the truth for the pending transfer. *)
      let truth =
        if Array.length sel = 0 then 0
        else sel.(get t transfers mod Array.length sel)
      in
      set t pred truth
    end
    else if get t committed <> get t transfers then begin
      set t pred (oracle_commit t sel accuracy_pct);
      set t committed (get t transfers)
    end
  | External -> ()
  | Prefer home ->
    if mispredicted then next_way t p
    else if p <> home && served >= 0 then set t pred home
  | Hinted_replay ->
    (* The hint is authoritative: a stopped output is ordinary
       back-pressure here, not a misprediction, so there is no
       retry-based deviation. *)
    if hint <> 0 then begin
      if not mispredicted then set t miss (get t miss + 1);
      set t pred 1
    end
    else if p <> 0 && served >= 0 then set t pred 0
  | Gshare _ ->
    (* Each serve is one consumed select: train the indexed counter and
       shift the outcome into the global history exactly once.  While a
       misprediction retry persists, keep pressing the current entry
       toward the needed channel (leads-to) without touching history. *)
    let mask = table_size t.spec - 1 in
    let train o =
      let idx = table + (get t hist land mask) in
      let c = get t idx in
      set t idx (if o = 1 then min 3 (c + 1) else max 0 (c - 1))
    in
    if served >= 0 then begin
      train served;
      set t hist (((get t hist lsl 1) lor served) land mask)
    end
    else if mispredicted then train (1 - p);
    set t pred (if get t (table + (get t hist land mask)) >= 2 then 1 else 0));
  set t in_miss (Bool.to_int mispredicted)

let force t c =
  if c < 0 || c >= t.ways then invalid_arg "Scheduler.force: bad channel";
  set t pred c

let mispredictions t = get t miss

let serves t = get t served_total

(* The prediction and the registers its spec reads; the statistics are
   left out, so states that differ only in counts have one future.  The
   prediction counts on its own because an [External] scheduler keeps
   its last forced channel until it is forced again. *)
let future t =
  let key =
    match t.spec with
    | Static _ | External | Sticky | Round_robin | Prefer _ | Hinted_replay
      -> []
    | Toggle | Scripted _ -> [ cycle ]
    | Two_bit -> [ counter; in_miss ]
    | Noisy_oracle _ -> [ transfers; rng; committed ]
    | Gshare _ ->
      hist :: in_miss :: List.init (table_size t.spec) (fun i -> table + i)
  in
  List.map (fun k -> t.o + k) (pred :: key)

let spec t = t.spec

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
  { w_sched = sched; w_data = data; w_serves = serves sched;
    w_miss = mispredictions sched; w_pred = predict sched; w_squash = -1 }

let payload w = w.w_data

let poll on w ~cycle =
  let s = w.w_sched in
  let served = serves s and miss = mispredictions s and pred = predict s in
  for _ = w.w_serves + 1 to served do
    on.serve w.w_data w.w_pred;
    if w.w_squash >= 0 && w.w_squash < cycle then begin
      on.replay w.w_data (cycle - w.w_squash);
      w.w_squash <- -1
    end
  done;
  w.w_serves <- served;
  if miss > w.w_miss then begin
    for _ = w.w_miss + 1 to miss do
      on.mispredict w.w_data w.w_pred
    done;
    w.w_miss <- miss;
    w.w_squash <- cycle
  end;
  if pred <> w.w_pred then begin
    on.change w.w_data pred;
    w.w_pred <- pred
  end

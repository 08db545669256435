type violation = { cycle : int; property : string; message : string }

let pp_violation ppf v =
  Fmt.pf ppf "[cycle %d] %s: %s" v.cycle v.property v.message

(* [state] packs the previous cycle's resolved control code (bits 0-3,
   {!Signal.code} layout; bit 4 set before the first cycle) and the stall
   count (from bit 5).  [retry_data] is the previous payload while that
   cycle was in retry, the one case [step] reads it.  Snapshots copy
   these fields as they are. *)
type monitor = {
  name : string;
  check_forward_persistence : bool;
  liveness_bound : int;
  mutable state : int;
  mutable retry_data : Value.t option;
  mutable rev_violations : violation list;
}

let no_prev = 16

let create ?(check_forward_persistence = true) ?(liveness_bound = 64) ~name
    () =
  { name; check_forward_persistence; liveness_bound; state = no_prev;
    retry_data = None; rev_violations = [] }

let report m ~cycle property message =
  m.rev_violations <- { cycle; property; message } :: m.rev_violations

let vp = Signal.v_plus_bit

let sp = Signal.s_plus_bit

let vm = Signal.v_minus_bit

let sm = Signal.s_minus_bit

let[@inline] invariant raw =
  (* Checked on the raw drive: an endpoint must not stop the very item it
     is killing once the cancellation is in flight, unless the resolution
     rule masks it.  On a cancelling channel resolution forces stops low,
     which is the implementation of the invariant; nothing to report. *)
  if raw land (vp lor vm) = vp lor vm then None
  else if raw land vp <> 0 && raw land sm <> 0 then
    Some "S- asserted while a token is in flight"
  else if raw land vm <> 0 && raw land sp <> 0 then
    Some "S+ asserted while an anti-token is in flight"
  else None

type retry = Free | Held | Broken of string * string

(* On resolved codes a cancelling cycle has both stops low, so a token
   retry and an anti-token retry never share a cycle: one verdict. *)
let[@inline] retry ~persistent ~prev cur =
  if persistent && Signal.in_retry prev then
    if cur land vp = 0 then Broken ("retry+", "token withdrawn during retry")
    else Held
  else if prev land (vm lor sm) = vm lor sm && cur land vm = 0 then
    Broken ("retry-", "anti-token withdrawn during retry")
  else Free

let data_changed before after =
  let pp = Fmt.(option ~none:(any "_") Value.pp) in
  Fmt.str "data changed during retry: %a -> %a" pp before pp after

let step m ~cycle ~data ~chan raw =
  (match invariant raw with
   | Some msg -> report m ~cycle "invariant" msg
   | None -> ());
  let s = Signal.resolve_code raw in
  let verdict =
    if m.state land no_prev <> 0 then Free
    else
      retry ~persistent:m.check_forward_persistence ~prev:(m.state land 15)
        s
  in
  (* The payload is read only while a retry is pending: to keep this
     cycle's for the next, or to compare it with the previous one's. *)
  let held = match verdict with Held -> true | Free | Broken _ -> false in
  let payload =
    if s land vp <> 0 && (Signal.in_retry s || held) then data chan else None
  in
  (match verdict with
   | Free -> ()
   | Held ->
     if not (Option.equal Value.equal m.retry_data payload) then
       report m ~cycle "retry+" (data_changed m.retry_data payload)
   | Broken (property, msg) -> report m ~cycle property msg);
  (* Liveness watchdog: something pending, nothing moving. *)
  let ev = Signal.events_of_code s in
  let pending = s land (vp lor vm) <> 0 in
  let moved = ev.Signal.token_out || ev.Signal.anti_out in
  let stalled_for =
    if pending && not moved then begin
      let n = (m.state lsr 5) + 1 in
      if n = m.liveness_bound then
        report m ~cycle "liveness"
          (Fmt.str "channel stalled for %d consecutive cycles"
             m.liveness_bound);
      n
    end
    else 0
  in
  m.state <- (stalled_for lsl 5) lor s;
  m.retry_data <- (if Signal.in_retry s then payload else None)

let violations m = List.rev m.rev_violations

let violation_count m = List.length m.rev_violations

let name m = m.name

(* A fault campaign's golden run snapshots every cycle, and on most
   cycles no monitor holds a retry payload or a violation: the array of
   them is then left out ([[||]]). *)
type snap = {
  sn_state : int array;
  sn_retry_data : Value.t option array;
  sn_rev_violations : violation list array;
}

let unless_all f empty ms =
  if Array.for_all (fun m -> f m = empty) ms then [||] else Array.map f ms

let snapshot ms =
  { sn_state = Array.map (fun m -> m.state) ms;
    sn_retry_data = unless_all (fun m -> m.retry_data) None ms;
    sn_rev_violations = unless_all (fun m -> m.rev_violations) [] ms }

let[@inline] nth a i empty = if Array.length a = 0 then empty else a.(i)

let restore ms s =
  if Array.length s.sn_state <> Array.length ms then
    invalid_arg "Protocol.restore: snapshot of another monitor count";
  for i = 0 to Array.length ms - 1 do
    let m = ms.(i) in
    m.state <- s.sn_state.(i);
    m.retry_data <- nth s.sn_retry_data i None;
    m.rev_violations <- nth s.sn_rev_violations i []
  done

let rec same_from ms s i =
  i = Array.length ms
  || (let m = ms.(i) in
      m.state = s.sn_state.(i)
      && Option.equal Value.equal m.retry_data (nth s.sn_retry_data i None)
      && same_from ms s (i + 1))

let same_future ms s =
  Array.length s.sn_state = Array.length ms && same_from ms s 0

type violation = { cycle : int; property : string; message : string }

let pp_violation ppf v =
  Fmt.pf ppf "[cycle %d] %s: %s" v.cycle v.property v.message

type monitor = {
  name : string;
  check_forward_persistence : bool;
  liveness_bound : int;
  mutable prev : Signal.t option;
  mutable stalled_for : int;  (* consecutive cycles with a pending retry *)
  mutable rev_violations : violation list;
}

let create ?(check_forward_persistence = true) ?(liveness_bound = 64) ~name
    () =
  { name; check_forward_persistence; liveness_bound; prev = None;
    stalled_for = 0; rev_violations = [] }

let report m ~cycle property message =
  m.rev_violations <- { cycle; property; message } :: m.rev_violations

let step m ~cycle raw =
  let s = Signal.resolve raw in
  (* Invariant: kill and stop are mutually exclusive.  Checked on the raw
     drive: an endpoint must not stop the very item it is killing once the
     cancellation is in flight, unless the resolution rule masks it. *)
  if raw.Signal.v_plus && raw.Signal.v_minus then begin
    (* Cancellation in progress: resolution forces stops low, which is the
       implementation of the invariant; nothing to report. *)
    ()
  end
  else begin
    if s.Signal.v_plus && s.Signal.s_minus then
      report m ~cycle "invariant" "S- asserted while a token is in flight";
    if s.Signal.v_minus && s.Signal.s_plus then
      report m ~cycle "invariant"
        "S+ asserted while an anti-token is in flight"
  end;
  (match m.prev with
   | None -> ()
   | Some p ->
     if m.check_forward_persistence && p.Signal.v_plus && p.Signal.s_plus
     then begin
       if not s.Signal.v_plus then
         report m ~cycle "retry+" "token withdrawn during retry"
       else if not (Option.equal Value.equal p.Signal.data s.Signal.data)
       then
         report m ~cycle "retry+"
           (Fmt.str "data changed during retry: %a -> %a"
              Fmt.(option ~none:(any "_") Value.pp)
              p.Signal.data
              Fmt.(option ~none:(any "_") Value.pp)
              s.Signal.data)
     end;
     if p.Signal.v_minus && p.Signal.s_minus && not s.Signal.v_minus then
       report m ~cycle "retry-" "anti-token withdrawn during retry");
  (* Liveness watchdog: something pending, nothing moving. *)
  let ev = Signal.events s in
  let pending = s.Signal.v_plus || s.Signal.v_minus in
  let moved = ev.Signal.token_out || ev.Signal.anti_out in
  if pending && not moved then begin
    m.stalled_for <- m.stalled_for + 1;
    if m.stalled_for = m.liveness_bound then
      report m ~cycle "liveness"
        (Fmt.str "channel stalled for %d consecutive cycles"
           m.liveness_bound)
  end
  else m.stalled_for <- 0;
  m.prev <- Some s

let violations m = List.rev m.rev_violations

let name m = m.name

(* The previous cycle's control bits and stall count packed into one
   int; the previous payload only while it was in retry, the one case
   [step] reads it. *)
type snap = {
  sn_state : int;
  sn_retry_data : Value.t option;
  sn_rev_violations : violation list;
}

let in_retry (p : Signal.t) = p.Signal.v_plus && p.Signal.s_plus

let packed m =
  let bits =
    match m.prev with
    | None -> 16
    | Some p ->
      Bool.to_int p.Signal.v_plus
      lor (Bool.to_int p.Signal.s_plus lsl 1)
      lor (Bool.to_int p.Signal.v_minus lsl 2)
      lor (Bool.to_int p.Signal.s_minus lsl 3)
  in
  (m.stalled_for lsl 5) lor bits

let retry_data m =
  match m.prev with Some p when in_retry p -> p.Signal.data | _ -> None

let snapshot m =
  { sn_state = packed m; sn_retry_data = retry_data m;
    sn_rev_violations = m.rev_violations }

let restore m s =
  let bit i = (s.sn_state lsr i) land 1 = 1 in
  m.prev <-
    (if bit 4 then None
     else
       Some
         { Signal.v_plus = bit 0; s_plus = bit 1; v_minus = bit 2;
           s_minus = bit 3; data = s.sn_retry_data });
  m.stalled_for <- s.sn_state lsr 5;
  m.rev_violations <- s.sn_rev_violations

let same_future m s =
  packed m = s.sn_state
  && Option.equal Value.equal (retry_data m) s.sn_retry_data

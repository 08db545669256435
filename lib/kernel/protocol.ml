type violation = { cycle : int; property : string; message : string }

let pp_violation ppf v =
  Fmt.pf ppf "[cycle %d] %s: %s" v.cycle v.property v.message

let vp = Signal.v_plus_bit

let sp = Signal.s_plus_bit

let vm = Signal.v_minus_bit

let sm = Signal.s_minus_bit

(* Checked on the raw drive: an endpoint must not stop the very item it
   is killing once the cancellation is in flight, unless the resolution
   rule masks it.  On a cancelling channel resolution forces stops low,
   which is the implementation of the invariant; nothing to report. *)
let[@inline] invariant_broken raw =
  raw land (vp lor vm) <> vp lor vm
  && (raw land (vp lor sm) = vp lor sm || raw land (vm lor sp) = vm lor sp)

let[@inline] invariant raw =
  if not (invariant_broken raw) then None
  (* Not cancelling: the stop breaks it against the one item in flight. *)
  else if raw land vp <> 0 then Some "S- asserted while a token is in flight"
  else Some "S+ asserted while an anti-token is in flight"

type retry = Free | Held | Broken of string * string

(* A token held back on a channel Retry+ covers. *)
let[@inline] token_retry ~persistent c = persistent && Signal.in_retry c

(* An anti-token held back at [prev] and gone at [cur]. *)
let[@inline] anti_withdrawn ~prev cur =
  prev land (vm lor sm) = vm lor sm && cur land vm = 0

(* On resolved codes a cancelling cycle has both stops low, so a token
   retry and an anti-token retry never share a cycle: one verdict. *)
let[@inline] retry ~persistent ~prev cur =
  if token_retry ~persistent prev then
    if cur land vp = 0 then Broken ("retry+", "token withdrawn during retry")
    else Held
  else if anti_withdrawn ~prev cur then
    Broken ("retry-", "anti-token withdrawn during retry")
  else Free

let data_changed before after =
  let pp = Fmt.(option ~none:(any "_") Value.pp) in
  Fmt.str "data changed during retry: %a -> %a" pp before pp after

(* A monitor's int slot: the previous cycle's resolved control code
   (bits 0-3, {!Signal.code} layout), [no_prev] before the first cycle,
   [present] while the payload slot holds the previous cycle's payload
   (a retry on a channel Retry+ covers), and the stall count from bit
   [stall_shift].  A payload slot holds [Value.Unit] when [present] is
   clear, so equal slot pairs judge alike. *)
let no_prev = 16

let present = 32

let stall_shift = 6

let fresh = no_prev

let needs_step = -1

(* The stall count after a cycle of resolved code [s], from the slot
   word [w]: something pending, nothing moving. *)
let[@inline] stalled_for w s =
  if s land (vp lor vm) <> 0
  && Signal.event_mask s land (Signal.ev_token_out lor Signal.ev_anti_out) = 0
  then (w lsr stall_shift) + 1
  else 0

(* The cycles on which [step] reports nothing and touches no payload:
   none held, no Retry+ keep, a [Free] retry verdict, no invariant
   breach and no liveness report.  Then the new word is the stall count
   and the resolved code; any other cycle is left to [step].  The tests
   are [step]'s own predicates, with no verdict or message built. *)
let[@inline] fast_step ~persistent ~liveness_bound ~word:w raw =
  let s = Signal.resolve_code raw and prev = w land 15 in
  if w land present <> 0
  || token_retry ~persistent s
  || invariant_broken raw
  || (w land no_prev = 0
      && (token_retry ~persistent prev || anti_withdrawn ~prev s))
  then needs_step
  else
    let stalled = stalled_for w s in
    if stalled <> 0 && stalled = liveness_bound then needs_step
    else (stalled lsl stall_shift) lor s

let step ~regs ~slot ~vals ~vslot ~liveness_bound ~cycle ~has_data ~payload
    ~chan raw =
  let w = regs.(slot) in
  let persistent = vslot >= 0 in
  let s = Signal.resolve_code raw in
  let verdict =
    if w land no_prev <> 0 then Free else retry ~persistent ~prev:(w land 15) s
  in
  (* The payload is read only while a Retry+ retry is pending: to keep
     this cycle's for the next, or to compare it with the previous one's. *)
  let held = match verdict with Held -> true | Free | Broken _ -> false in
  let keep = token_retry ~persistent s in
  let has = (keep || held) && has_data chan in
  (* Liveness watchdog. *)
  let stalled_for = stalled_for w s in
  let found =
    if stalled_for <> 0 && stalled_for = liveness_bound then
      [ { cycle; property = "liveness";
          message =
            Fmt.str "channel stalled for %d consecutive cycles"
              liveness_bound } ]
    else []
  in
  let found =
    match verdict with
    | Free -> found
    | Broken (property, message) -> { cycle; property; message } :: found
    | Held ->
      (* Compared in place: a stall builds no option. *)
      let had = w land present <> 0 in
      if has && had && Value.equal vals.(vslot) (payload chan) then found
      else if (not has) && not had then found
      else
        let before = if had then Some vals.(vslot) else None in
        let after = if has then Some (payload chan) else None in
        { cycle; property = "retry+"; message = data_changed before after }
        :: found
  in
  let kept =
    if has && keep then begin
      vals.(vslot) <- payload chan;
      present
    end
    else begin
      if w land present <> 0 then vals.(vslot) <- Value.Unit;
      0
    end
  in
  regs.(slot) <- (stalled_for lsl stall_shift) lor kept lor s;
  match invariant raw with
  | None -> found
  | Some message -> { cycle; property = "invariant"; message } :: found

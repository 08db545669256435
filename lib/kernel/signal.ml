type t = {
  v_plus : bool;
  s_plus : bool;
  v_minus : bool;
  s_minus : bool;
  data : Value.t option;
}

let equal a b =
  a.v_plus = b.v_plus && a.s_plus = b.s_plus && a.v_minus = b.v_minus
  && a.s_minus = b.s_minus && Option.equal Value.equal a.data b.data

let pp ppf s =
  Fmt.pf ppf "{V+=%b S+=%b V-=%b S-=%b D=%a}" s.v_plus s.s_plus s.v_minus
    s.s_minus
    Fmt.(option ~none:(any "_") Value.pp)
    s.data

type handshake_state = Transfer | Idle | Retry

let handshake_state ~valid ~stop =
  if not valid then Idle else if stop then Retry else Transfer

let pp_handshake_state ppf = function
  | Transfer -> Fmt.string ppf "T"
  | Idle -> Fmt.string ppf "I"
  | Retry -> Fmt.string ppf "R"

type events = {
  token_out : bool;
  token_in : bool;
  anti_out : bool;
  anti_in : bool;
  cancelled : bool;
  retry : bool;
  anti : bool;
}

let resolve s =
  if s.v_plus && s.v_minus then { s with s_plus = false; s_minus = false }
  else s

let events s =
  let s = resolve s in
  let cancelled = s.v_plus && s.v_minus in
  {
    token_out = s.v_plus && ((not s.s_plus) || s.v_minus);
    token_in = s.v_plus && (not s.s_plus) && not s.v_minus;
    anti_out = s.v_minus && ((not s.s_minus) || s.v_plus);
    anti_in = s.v_minus && (not s.s_minus) && not s.v_plus;
    cancelled;
    retry = s.v_plus && s.s_plus;
    anti = s.v_minus;
  }

let v_plus_bit = 1

let s_plus_bit = 2

let v_minus_bit = 4

let s_minus_bit = 8

let code s =
  (if s.v_plus then v_plus_bit else 0)
  lor (if s.s_plus then s_plus_bit else 0)
  lor (if s.v_minus then v_minus_bit else 0)
  lor if s.s_minus then s_minus_bit else 0

let of_code c ~data =
  { v_plus = c land v_plus_bit <> 0; s_plus = c land s_plus_bit <> 0;
    v_minus = c land v_minus_bit <> 0; s_minus = c land s_minus_bit <> 0;
    data }

let cancelling = v_plus_bit lor v_minus_bit

let resolve_code c =
  if c land cancelling = cancelling then c land cancelling else c

let in_retry c =
  c land (v_plus_bit lor s_plus_bit) = v_plus_bit lor s_plus_bit

let events_table = Array.init 16 (fun c -> events (of_code c ~data:None))

let events_of_code c = events_table.(c)

let ev_token_out = 1

let ev_token_in = 2

let ev_anti_out = 4

let ev_cancelled = 8

let ev_retry = 16

let ev_anti = 32

let event_mask_table =
  Array.map
    (fun e ->
       let bit b m = if b then m else 0 in
       bit e.token_out ev_token_out
       lor bit e.token_in ev_token_in
       lor bit e.anti_out ev_anti_out
       lor bit e.cancelled ev_cancelled
       lor bit e.retry ev_retry
       lor bit e.anti ev_anti)
    events_table

let[@inline] event_mask c = event_mask_table.(c)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type choice = Offer of bool | Stall of bool | Predict of int

(* Kleene three-valued logic over [bool option]: a bit is [None] until the
   fixed point determines it.  All node equations below are monotone in
   this logic, which guarantees the engine's fixed point exists. *)
let k_not = Option.map not

let k_and a b =
  match a, b with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | (None | Some true), (None | Some true) -> None

let k_or a b =
  match a, b with
  | Some true, _ | _, Some true -> Some true
  | Some false, Some false -> Some false
  | (None | Some false), (None | Some false) -> None

let k_and_array = Array.fold_left k_and (Some true)

(* Write a wire bit once its value is determined. *)
let put setter ws w = function Some b -> setter ws w b | None -> ()

type source_state = {
  sspec : Netlist.source_spec;
  svals : Value.t array;
      (* [Stream] payloads as an array: [source_peek] runs every cycle
         (and on every settle evaluation), so the list's O(idx) nth is
         a hot-path cost shared by every backend.  Empty otherwise. *)
  srng : Rng.t;
  mutable idx : int;
  mutable pending_kill : int;
  mutable retry : bool;
  mutable offering : bool;
}

type sink_state = {
  kspec : Netlist.sink_spec;
  krng : Rng.t;
  mutable cyc : int;
  mutable stalling : bool;
}

type eb_state = { mutable n : int; mutable queue : Value.t list }

type eb0_state = { mutable full : bool; mutable stored : Value.t }

type fork_state = { done_ : bool array; pend : int array }

type emux_state = { q : int array }

(* One in-flight token: the precomputed result and the cycles left before
   it becomes visible at the output. *)
type varlat_state = { mutable pipe : (Value.t * int) option }

type state =
  | S_stateless
  | S_source of source_state
  | S_sink of sink_state
  | S_eb of eb_state
  | S_eb0 of eb0_state
  | S_fork of fork_state
  | S_emux of emux_state
  | S_shared of Scheduler.t
  | S_varlat of varlat_state

(* A shared module's scheduler observation, refilled in place at every
   clock edge, and [Some g] for each way [g]. *)
type shared_view = { obs : Scheduler.observation; served : int option array }

(* Ports are dense channel indices (see [create] in the interface). *)
type t = {
  node : Netlist.node;
  ins : int array;
  sel : int option;
  outs : int array;
  state : state;
  view : shared_view option;  (* shared modules only *)
}

let node t = t.node

let ins t = t.ins

let sel t = t.sel

let outs t = t.outs

let state t = t.state

let make_state (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Source sspec ->
    let seed =
      match sspec with
      | Netlist.Random_rate { seed; _ } -> seed
      | Netlist.Stream _ | Netlist.Counter _ | Netlist.Nondet _ -> 1
    in
    let svals =
      match sspec with
      | Netlist.Stream l -> Array.of_list l
      | Netlist.Counter _ | Netlist.Random_rate _ | Netlist.Nondet _ ->
        [||]
    in
    S_source
      { sspec; svals; srng = Rng.create ~seed; idx = 0; pending_kill = 0;
        retry = false; offering = false }
  | Netlist.Sink kspec ->
    let seed =
      match kspec with Netlist.Random_stall { seed; _ } -> seed | _ -> 1
    in
    S_sink { kspec; krng = Rng.create ~seed; cyc = 0; stalling = false }
  | Netlist.Buffer { buffer = Netlist.Eb; init } ->
    S_eb { n = List.length init; queue = init }
  | Netlist.Buffer { buffer = Netlist.Eb0; init } ->
    (match init with
     | [] -> S_eb0 { full = false; stored = Value.Unit }
     | v :: _ -> S_eb0 { full = true; stored = v })
  | Netlist.Func _ -> S_stateless
  | Netlist.Fork k ->
    S_fork { done_ = Array.make k false; pend = Array.make k 0 }
  | Netlist.Mux { ways; early } ->
    if early then S_emux { q = Array.make ways 0 } else S_stateless
  | Netlist.Shared { ways; sched; _ } ->
    S_shared (Scheduler.make ~ways sched)
  | Netlist.Varlat _ -> S_varlat { pipe = None }

let create node ~ins ~sel ~outs =
  let state = make_state node in
  let view =
    match state with
    | S_shared _ ->
      let bits ports = Array.make (Array.length ports) false in
      Some
        { obs =
            { Scheduler.in_valid = bits ins; out_valid = bits outs;
              out_stop = bits outs; out_kill = bits outs; served = None;
              hint = None };
          served = Array.init (Array.length outs) Option.some }
    | S_stateless | S_source _ | S_sink _ | S_eb _ | S_eb0 _ | S_fork _
    | S_emux _ | S_varlat _ -> None
  in
  { node; ins; sel; outs; state; view }

let is_nondet t =
  match t.node.Netlist.kind with
  | Netlist.Source (Netlist.Random_rate _ | Netlist.Nondet _) -> true
  | Netlist.Sink (Netlist.Random_stall _) -> true
  | Netlist.Shared { sched = Scheduler.External; _ } -> true
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _ | Netlist.Func _
  | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _ | Netlist.Varlat _ ->
    false

let scheduler t =
  match t.state with S_shared s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

let source_peek st =
  match st.sspec with
  | Netlist.Stream _ ->
    if st.idx < Array.length st.svals then Some st.svals.(st.idx)
    else None
  | Netlist.Counter { start; step } ->
    Some (Value.Int (start + (step * st.idx)))
  | Netlist.Random_rate _ -> Some (Value.Int st.idx)
  | Netlist.Nondet vs ->
    (match vs with
     | [] -> None
     | _ :: _ -> Some (List.nth vs (st.idx mod List.length vs)))

(* [source_peek st <> None] without building the option. *)
let source_has st =
  match st.sspec with
  | Netlist.Stream _ -> st.idx < Array.length st.svals
  | Netlist.Counter _ | Netlist.Random_rate _ -> true
  | Netlist.Nondet vs -> vs <> []

(* Pending anti-tokens kill the items the source would offer next. *)
let rec source_drain st =
  if st.pending_kill > 0 && source_has st then begin
    (match st.sspec with
     | Netlist.Nondet vs -> st.idx <- (st.idx + 1) mod max 1 (List.length vs)
     | Netlist.Stream _ | Netlist.Counter _ | Netlist.Random_rate _ ->
       st.idx <- st.idx + 1);
    st.pending_kill <- st.pending_kill - 1;
    source_drain st
  end

let source_begin st ~choice =
  source_drain st;
  let have = source_has st in
  let fresh_offer =
    match choice with
    | Some (Offer b) -> b
    | Some (Stall _ | Predict _) | None -> (
        match st.sspec with
        | Netlist.Stream _ | Netlist.Counter _ -> true
        | Netlist.Random_rate { pct; _ } -> Rng.percent st.srng pct
        | Netlist.Nondet _ -> Rng.percent st.srng 50)
  in
  (* Retry+ persistence: a stalled token must stay offered. *)
  st.offering <- have && (st.retry || fresh_offer)

let source_eval ws t st =
  let out = Wires.wire ws t.outs.(0) in
  Wires.set_v_plus ws out st.offering;
  if st.offering then (
    match source_peek st with
    | Some v -> Wires.set_data ws out v
    | None -> assert false);
  Wires.set_s_minus ws out false

(* The clock edge reads the elapsed cycle's raw control codes, indexed
   by dense channel index, and asks [data] for a payload only when a
   token actually moves. *)
let events_at codes c = Signal.events_of_code codes.(c)

let source_clock t st ~codes =
  let ev = events_at codes t.outs.(0) in
  if ev.Signal.token_out then begin
    (let bump = st.idx + 1 in
     match st.sspec with
     | Netlist.Nondet vs -> st.idx <- bump mod max 1 (List.length vs)
     | Netlist.Stream _ | Netlist.Counter _ | Netlist.Random_rate _ ->
       st.idx <- bump);
    st.retry <- false
  end
  else st.retry <- st.offering;
  if ev.Signal.anti_in then st.pending_kill <- st.pending_kill + 1

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let sink_begin st ~choice =
  st.stalling <-
    (match choice with
     | Some (Stall b) -> b
     | Some (Offer _ | Predict _) | None -> (
         match st.kspec with
         | Netlist.Always_ready -> false
         | Netlist.Stall_pattern p ->
           Array.length p > 0 && p.(st.cyc mod Array.length p)
         | Netlist.Random_stall { pct; _ } -> Rng.percent st.krng pct))

let sink_eval ws t st =
  let inw = Wires.wire ws t.ins.(0) in
  Wires.set_s_plus ws inw st.stalling;
  Wires.set_v_minus ws inw false

let sink_clock st =
  match st.kspec with
  | Netlist.Stall_pattern p ->
    st.cyc <- (st.cyc + 1) mod max 1 (Array.length p)
  | Netlist.Always_ready | Netlist.Random_stall _ -> ()

(* ------------------------------------------------------------------ *)
(* Standard elastic buffer: Lf = 1, Lb = 1, C = 2 (Fig. 2(a)/Fig. 3).  *)
(* State is a signed count [n]: n > 0 stores tokens (with data), n < 0 *)
(* stores anti-tokens.  All outputs are functions of registers only.   *)

let eb_eval ws t st =
  let inw = Wires.wire ws t.ins.(0) and out = Wires.wire ws t.outs.(0) in
  Wires.set_s_plus ws inw (st.n >= 2);
  Wires.set_v_minus ws inw (st.n < 0);
  Wires.set_v_plus ws out (st.n > 0);
  (match st.queue with
   | v :: _ when st.n > 0 -> Wires.set_data ws out v
   | _ :: _ | [] -> ());
  Wires.set_s_minus ws out (st.n <= -2)

let eb_clock t st ~codes ~data =
  let i = t.ins.(0) in
  let in_ev = events_at codes i and out_ev = events_at codes t.outs.(0) in
  (* Pop before push so a full buffer can stream through. *)
  if out_ev.Signal.token_out then
    (match st.queue with
     | _ :: rest -> st.queue <- rest
     | [] -> assert false);
  if in_ev.Signal.token_in then (
    match data i with
    | Some v -> st.queue <- st.queue @ [ v ]
    | None -> assert false);
  (* An anti-token reaching the output kills the oldest stored token
     (Fig. 3: the rd pointer advances). *)
  if out_ev.Signal.anti_in then
    (match st.queue with v :: rest -> ignore v; st.queue <- rest | [] -> ());
  let incr_in = Bool.to_int in_ev.Signal.token_in in
  let incr_ain = Bool.to_int in_ev.Signal.anti_out in
  let decr_out = Bool.to_int out_ev.Signal.token_out in
  let decr_aout = Bool.to_int out_ev.Signal.anti_in in
  st.n <- st.n + incr_in + incr_ain - decr_out - decr_aout;
  assert (st.n >= -2 && st.n <= 2);
  assert (List.length st.queue = max st.n 0)

(* ------------------------------------------------------------------ *)
(* Zero-backward-latency EB: Lf = 1, Lb = 0, C = 1 (Fig. 5).  Stop and *)
(* kill traverse the controller combinationally.                      *)

let eb0_eval ws t st =
  let inw = Wires.wire ws t.ins.(0) and out = Wires.wire ws t.outs.(0) in
  Wires.set_v_plus ws out st.full;
  if st.full then Wires.set_data ws out st.stored;
  if st.full then begin
    Wires.set_s_minus ws out false;
    Wires.set_v_minus ws inw false;
    (* Accept a new token exactly when the stored one is leaving. *)
    let leaving = k_or (k_not (Wires.s_plus out)) (Wires.v_minus out) in
    put Wires.set_s_plus ws inw (k_not leaving)
  end
  else begin
    Wires.set_s_plus ws inw false;
    put Wires.set_v_minus ws inw (Wires.v_minus out);
    put Wires.set_s_minus ws out (Wires.s_minus inw)
  end

let eb0_clock t st ~codes ~data =
  let i = t.ins.(0) in
  let in_ev = events_at codes i and out_ev = events_at codes t.outs.(0) in
  let tin = in_ev.Signal.token_in and tout = out_ev.Signal.token_out in
  assert (not (tin && st.full && not tout));
  if tin then (
    match data i with
    | Some v ->
      st.stored <- v;
      st.full <- true
    | None -> assert false)
  else if tout then st.full <- false

(* ------------------------------------------------------------------ *)
(* Lazy join with a combinational function: used for [Func] nodes and  *)
(* for plain (non-early) multiplexors.  Anti-tokens arriving at the    *)
(* output fork backwards into every input, all-or-nothing.             *)

let eval_join ws ~ins ~out ~data_fn =
  let ins = Array.map (Wires.wire ws) ins and out = Wires.wire ws out in
  let valids = Array.map Wires.v_plus ins in
  let all_valid = k_and_array valids in
  put Wires.set_v_plus ws out all_valid;
  if all_valid = Some true then begin
    let datas = Array.map Wires.data ins in
    if Array.for_all Option.is_some datas then
      Wires.set_data ws out
        (data_fn (Array.to_list (Array.map Option.get datas)))
  end;
  let s_eff = k_and (Wires.s_plus out) (k_not (Wires.v_minus out)) in
  let n = Array.length ins in
  for i = 0 to n - 1 do
    (* Stop input i unless every other input is valid and the output is
       not (effectively) stopped. *)
    let others = ref (Some true) in
    for j = 0 to n - 1 do
      if j <> i then others := k_and !others valids.(j)
    done;
    put Wires.set_s_plus ws ins.(i)
      (k_not (k_and !others (k_not s_eff)))
  done;
  (* Backward anti-token fork: fires only when every input can consume
     its copy in the same cycle (cancel against a waiting token, or pass
     into an upstream that accepts it). *)
  let consumable = ref (Some true) in
  for i = 0 to n - 1 do
    consumable :=
      k_and !consumable
        (k_or valids.(i) (k_not (Wires.s_minus ins.(i))))
  done;
  let anti_backward =
    k_and
      (k_and (Wires.v_minus out) (k_not (Wires.v_plus out)))
      !consumable
  in
  for i = 0 to n - 1 do
    put Wires.set_v_minus ws ins.(i) anti_backward
  done;
  put Wires.set_s_minus ws out
    (k_and (k_not (Wires.v_plus out)) (k_not !consumable))

(* ------------------------------------------------------------------ *)
(* Eager fork with anti-token join.                                    *)

let fork_eval ws t st =
  let inw = Wires.wire ws t.ins.(0) in
  let vin = Wires.v_plus inw in
  let k = Array.length t.outs in
  let completions = Array.make k (Some true) in
  for i = 0 to k - 1 do
    let out = Wires.wire ws t.outs.(i) in
    let active = (not st.done_.(i)) && st.pend.(i) = 0 in
    let v_out = if active then vin else Some false in
    put Wires.set_v_plus ws out v_out;
    if v_out = Some true then
      (match Wires.data inw with
       | Some v -> Wires.set_data ws out v
       | None -> ());
    Wires.set_s_minus ws out (st.pend.(i) >= 2);
    let t_out =
      k_and v_out (k_or (k_not (Wires.s_plus out)) (Wires.v_minus out))
    in
    completions.(i) <-
      (if st.done_.(i) || st.pend.(i) > 0 then Some true else t_out)
  done;
  put Wires.set_s_plus ws inw (k_not (k_and_array completions));
  let all_pending = Array.for_all (fun p -> p > 0) st.pend in
  put Wires.set_v_minus ws inw (k_and (k_not vin) (Some all_pending))

let fork_clock t st ~codes =
  let in_ev = events_at codes t.ins.(0) in
  let k = Array.length t.outs in
  for i = 0 to k - 1 do
    let ev = events_at codes t.outs.(i) in
    if ev.Signal.anti_in then st.pend.(i) <- st.pend.(i) + 1;
    if ev.Signal.token_out then st.done_.(i) <- true
  done;
  if in_ev.Signal.token_in then begin
    (* The input token is fully distributed: branches not served by a
       transfer were cancelled by a stored anti-token. *)
    for i = 0 to k - 1 do
      if not st.done_.(i) then begin
        assert (st.pend.(i) > 0);
        st.pend.(i) <- st.pend.(i) - 1
      end;
      st.done_.(i) <- false
    done
  end;
  if in_ev.Signal.anti_out then
    for i = 0 to k - 1 do
      assert (st.pend.(i) > 0);
      st.pend.(i) <- st.pend.(i) - 1
    done

(* ------------------------------------------------------------------ *)
(* Early-evaluation multiplexor (§2, §4.1): fires on select + selected *)
(* data, emitting one anti-token into every non-selected input per     *)
(* transfer.  [q] holds the kills not yet delivered; it is unbounded   *)
(* in this model (a physical controller would stop firing at some      *)
(* queue depth), which over-approximates the paper's behavior and only *)
(* matters if an upstream refuses anti-tokens indefinitely.            *)

let emux_eval ws t st =
  let wire = Wires.wire ws in
  let sel = wire (Option.get t.sel) and out = wire t.outs.(0) in
  let sel_v = Wires.v_plus sel in
  let sv =
    match sel_v, Wires.data sel with
    | Some true, Some v -> Some (Value.to_int v)
    | _ -> None
  in
  let v_out =
    match sel_v, sv with
    | Some false, _ -> Some false
    | _, Some s ->
      if st.q.(s) > 0 then Some false else Wires.v_plus (wire t.ins.(s))
    | _, None -> None
  in
  put Wires.set_v_plus ws out v_out;
  (match v_out, sv with
   | Some true, Some s ->
     (match Wires.data (wire t.ins.(s)) with
      | Some v -> Wires.set_data ws out v
      | None -> ())
   | _ -> ());
  let fire =
    k_and v_out (k_or (k_not (Wires.s_plus out)) (Wires.v_minus out))
  in
  put Wires.set_s_plus ws sel (k_not fire);
  (* The mux never kills its select stream. *)
  Wires.set_v_minus ws sel false;
  Array.iteri
    (fun i c ->
       let inw = wire c in
       if st.q.(i) > 0 then begin
         Wires.set_v_minus ws inw true;
         Wires.set_s_plus ws inw false
       end
       else begin
         let fresh_kill =
           match sel_v, sv with
           | Some false, _ -> Some false
           | _, Some s -> if i = s then Some false else fire
           | _, None -> None
         in
         put Wires.set_v_minus ws inw fresh_kill;
         match sv with
         | Some s when i = s -> put Wires.set_s_plus ws inw (k_not fire)
         | Some _ | None -> put Wires.set_s_plus ws inw (k_not fresh_kill)
       end)
    t.ins;
  (* Anti-tokens reaching the mux output wait for a token to cancel. *)
  put Wires.set_s_minus ws out (k_not v_out)

let emux_clock t st ~codes ~data =
  let k = Array.length t.ins in
  if (events_at codes t.outs.(0)).Signal.token_out then begin
    let s =
      match data (Option.get t.sel) with
      | Some v -> Value.to_int v
      | None -> assert false
    in
    for i = 0 to k - 1 do
      if i <> s then st.q.(i) <- st.q.(i) + 1
    done
  end;
  for i = 0 to k - 1 do
    if (events_at codes t.ins.(i)).Signal.anti_out then begin
      assert (st.q.(i) > 0);
      st.q.(i) <- st.q.(i) - 1
    end
  done

(* ------------------------------------------------------------------ *)
(* Shared elastic module with speculation scheduler (Fig. 4).          *)

let shared_eval ws t sched f =
  let wire = Wires.wire ws in
  let g = Scheduler.predict sched in
  let k = Array.length t.ins in
  for i = 0 to k - 1 do
    if i <> g then Wires.set_v_plus ws (wire t.outs.(i)) false
  done;
  let in_g = wire t.ins.(g) and out_g = wire t.outs.(g) in
  (* A hinted module joins channel 0 (the speculative home) with its hint
     stream: one hint token per operation, delivered to the scheduler. *)
  let hint_v =
    match t.sel with
    | Some h when g = 0 -> Wires.v_plus (wire h)
    | Some _ | None -> Some true
  in
  put Wires.set_v_plus ws out_g (k_and (Wires.v_plus in_g) hint_v);
  (match Wires.v_plus in_g, Wires.data in_g with
   | Some true, Some v -> Wires.set_data ws out_g (Func.apply f [ v ])
   | _ -> ());
  let fire =
    k_and (Wires.v_plus out_g)
      (k_or (k_not (Wires.s_plus out_g)) (Wires.v_minus out_g))
  in
  put Wires.set_s_plus ws in_g (k_not fire);
  (match t.sel with
   | Some h ->
     let h = wire h in
     Wires.set_v_minus ws h false;
     if g = 0 then put Wires.set_s_plus ws h (k_not fire)
     else Wires.set_s_plus ws h true
   | None -> ());
  for i = 0 to k - 1 do
    let inw = wire t.ins.(i) and out = wire t.outs.(i) in
    if i = g then
      put Wires.set_v_minus ws inw
        (k_and (Wires.v_minus out) (k_not (Wires.v_plus out)))
    else begin
      put Wires.set_v_minus ws inw (Wires.v_minus out);
      put Wires.set_s_plus ws inw (k_not (Wires.v_minus out))
    end;
    (* An anti-token passing backwards through the module retries only if
       the upstream cannot absorb it (no waiting token, upstream stop). *)
    put Wires.set_s_minus ws out
      (k_and (k_not (Wires.v_plus out))
         (k_and (Wires.s_minus inw) (k_not (Wires.v_plus inw))))
  done

let fill_bits bits ports codes bit =
  for j = 0 to Array.length ports - 1 do
    bits.(j) <- codes.(ports.(j)) land bit <> 0
  done

(* The scheduler sees the raw drive: a stop is a stop even on a
   cancelling channel. *)
let shared_clock t sched ~codes ~data =
  let v = Option.get t.view in
  let obs = v.obs in
  let g = Scheduler.predict sched in
  obs.Scheduler.hint <-
    (match t.sel with
     | Some h when (events_at codes h).Signal.token_out ->
       Option.map Value.to_int (data h)
     | Some _ | None -> None);
  fill_bits obs.Scheduler.in_valid t.ins codes Signal.v_plus_bit;
  fill_bits obs.Scheduler.out_valid t.outs codes Signal.v_plus_bit;
  fill_bits obs.Scheduler.out_stop t.outs codes Signal.s_plus_bit;
  fill_bits obs.Scheduler.out_kill t.outs codes Signal.v_minus_bit;
  obs.Scheduler.served <-
    (if (events_at codes t.outs.(g)).Signal.token_out then v.served.(g)
     else None);
  Scheduler.observe sched obs

(* ------------------------------------------------------------------ *)
(* Stalling variable-latency unit (Fig. 6(a)).  A token is served in one *)
(* cycle when the approximation is correct, two otherwise; the sender is *)
(* stalled while the slow path completes.  The unit neither emits nor    *)
(* accepts anti-tokens (the non-speculative design has none).           *)

let varlat_eval ws t st =
  let inw = Wires.wire ws t.ins.(0) and out = Wires.wire ws t.outs.(0) in
  Wires.set_v_minus ws inw false;
  (* Anti-tokens are stalled unless they can cancel the ready result; the
     invariant forbids stopping an anti while a token is offered. *)
  Wires.set_s_minus ws out
    (match st.pipe with Some (_, 0) -> false | Some (_, _) | None -> true);
  (match st.pipe with
   | Some (v, 0) ->
     Wires.set_v_plus ws out true;
     Wires.set_data ws out v;
     (* Accept a new token exactly when the result leaves. *)
     let leaving = k_and (Some true) (k_not (Wires.s_plus out)) in
     put Wires.set_s_plus ws inw (k_not leaving)
   | Some (_, _) ->
     Wires.set_v_plus ws out false;
     Wires.set_s_plus ws inw true
   | None ->
     Wires.set_v_plus ws out false;
     Wires.set_s_plus ws inw false)

let varlat_clock t st ~codes ~data ~fast ~slow ~err =
  let i = t.ins.(0) in
  if (events_at codes t.outs.(0)).Signal.token_out then st.pipe <- None;
  if (events_at codes i).Signal.token_in then (
    match data i with
    | Some v ->
      let wrong = Value.to_int (Func.apply err [ v ]) <> 0 in
      let result = Func.apply (if wrong then slow else fast) [ v ] in
      st.pipe <- Some (result, if wrong then 2 else 1)
    | None -> assert false);
  (match st.pipe with
   | Some (v, c) when c > 0 -> st.pipe <- Some (v, c - 1)
   | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let begin_cycle t ~choice =
  match t.state with
  | S_source st -> source_begin st ~choice
  | S_sink st -> sink_begin st ~choice
  | S_shared sched ->
    (match choice with
     | Some (Predict c) -> Scheduler.force sched c
     | Some (Offer _ | Stall _) | None -> ())
  | S_stateless | S_eb _ | S_eb0 _ | S_fork _ | S_emux _ | S_varlat _ -> ()

let eval ws t =
  match t.state with
  | S_source st -> source_eval ws t st
  | S_sink st -> sink_eval ws t st
  | S_eb st -> eb_eval ws t st
  | S_eb0 st -> eb0_eval ws t st
  | S_fork st -> fork_eval ws t st
  | S_emux st -> emux_eval ws t st
  | S_shared sched ->
    (match t.node.Netlist.kind with
     | Netlist.Shared { f; _ } -> shared_eval ws t sched f
     | _ -> assert false)
  | S_varlat st -> varlat_eval ws t st
  | S_stateless ->
    (match t.node.Netlist.kind with
     | Netlist.Func f ->
       eval_join ws ~ins:t.ins ~out:t.outs.(0) ~data_fn:(Func.apply f)
     | Netlist.Mux { ways; early = false } ->
       let all = Array.append [| Option.get t.sel |] t.ins in
       let select = Func.select ~ways () in
       eval_join ws ~ins:all ~out:t.outs.(0) ~data_fn:(Func.apply select)
     | _ -> assert false)

let clock t ~codes ~data =
  match t.state with
  | S_source st -> source_clock t st ~codes
  | S_sink st -> sink_clock st
  | S_eb st -> eb_clock t st ~codes ~data
  | S_eb0 st -> eb0_clock t st ~codes ~data
  | S_fork st -> fork_clock t st ~codes
  | S_emux st -> emux_clock t st ~codes ~data
  | S_shared sched -> shared_clock t sched ~codes ~data
  | S_varlat st ->
    (match t.node.Netlist.kind with
     | Netlist.Varlat { fast; slow; err } ->
       varlat_clock t st ~codes ~data ~fast ~slow ~err
     | _ -> assert false)
  | S_stateless -> ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snap =
  | Sn_none
  | Sn_source of int * int * bool * int
  | Sn_sink of int * int
  | Sn_eb of int * Value.t list
  | Sn_eb0 of Value.t option
  | Sn_fork of bool list * int list
  | Sn_emux of int list
  | Sn_shared of int list * int list  (* full state, behavioural key *)
  | Sn_varlat of (Value.t * int) option

let snapshot t =
  match t.state with
  | S_stateless -> Sn_none
  | S_source st ->
    Sn_source (st.idx, st.pending_kill, st.retry, Rng.state st.srng)
  | S_sink st -> Sn_sink (st.cyc, Rng.state st.krng)
  | S_eb st -> Sn_eb (st.n, st.queue)
  | S_eb0 st -> Sn_eb0 (if st.full then Some st.stored else None)
  | S_fork st -> Sn_fork (Array.to_list st.done_, Array.to_list st.pend)
  | S_emux st -> Sn_emux (Array.to_list st.q)
  | S_shared sched ->
    Sn_shared (Scheduler.state sched, Scheduler.key sched)
  | S_varlat st -> Sn_varlat st.pipe

let restore t snap =
  match t.state, snap with
  | S_stateless, Sn_none -> ()
  | S_source st, Sn_source (idx, pk, retry, rng) ->
    st.idx <- idx;
    st.pending_kill <- pk;
    st.retry <- retry;
    Rng.set_state st.srng rng
  | S_sink st, Sn_sink (cyc, rng) ->
    st.cyc <- cyc;
    Rng.set_state st.krng rng
  | S_eb st, Sn_eb (n, queue) ->
    st.n <- n;
    st.queue <- queue
  | S_eb0 st, Sn_eb0 stored ->
    (match stored with
     | Some v ->
       st.full <- true;
       st.stored <- v
     | None ->
       st.full <- false;
       st.stored <- Value.Unit)
  | S_fork st, Sn_fork (d, p) ->
    List.iteri (fun i b -> st.done_.(i) <- b) d;
    List.iteri (fun i v -> st.pend.(i) <- v) p
  | S_emux st, Sn_emux q -> List.iteri (fun i v -> st.q.(i) <- v) q
  | S_shared sched, Sn_shared (s, _) -> Scheduler.set_state sched s
  | S_varlat st, Sn_varlat p -> st.pipe <- p
  | ( S_stateless | S_source _ | S_sink _ | S_eb _ | S_eb0 _ | S_fork _
    | S_emux _ | S_shared _ | S_varlat _ ),
    _ ->
    invalid_arg "Instance.restore: snapshot kind mismatch"

let pp_snap ppf = function
  | Sn_none -> Fmt.string ppf "-"
  | Sn_source (idx, pk, retry, _) ->
    Fmt.pf ppf "src(idx=%d,kill=%d,retry=%b)" idx pk retry
  | Sn_sink (cyc, _) -> Fmt.pf ppf "sink(cyc=%d)" cyc
  | Sn_eb (n, q) ->
    Fmt.pf ppf "eb(n=%d,[%a])" n Fmt.(list ~sep:(any ";") Value.pp) q
  | Sn_eb0 v ->
    Fmt.pf ppf "eb0(%a)" Fmt.(option ~none:(any "empty") Value.pp) v
  | Sn_fork (d, p) ->
    Fmt.pf ppf "fork(done=[%a],pend=[%a])"
      Fmt.(list ~sep:(any ";") bool)
      d
      Fmt.(list ~sep:(any ";") int)
      p
  | Sn_emux q -> Fmt.pf ppf "emux(q=[%a])" Fmt.(list ~sep:(any ";") int) q
  | Sn_shared (_, k) ->
    Fmt.pf ppf "sched([%a])" Fmt.(list ~sep:(any ";") int) k
  | Sn_varlat None -> Fmt.string ppf "varlat(empty)"
  | Sn_varlat (Some (v, c)) -> Fmt.pf ppf "varlat(%a,%d)" Value.pp v c

let same_future t snap =
  match t.state, snap with
  | S_shared sched, Sn_shared (s, _) -> Scheduler.same_future sched s
  | _ -> snapshot t = snap

let fingerprint t =
  match t.state with
  | S_stateless -> 0
  | S_source st ->
    Hashtbl.hash (st.idx, st.pending_kill, st.retry, Rng.state st.srng)
  | S_sink st -> Hashtbl.hash (st.cyc, Rng.state st.krng)
  | S_eb st -> Hashtbl.hash (st.n, st.queue)
  | S_eb0 st -> if st.full then Hashtbl.hash st.stored else 0
  | S_fork st -> Hashtbl.hash (st.done_, st.pend)
  | S_emux st -> Hashtbl.hash st.q
  | S_shared sched ->
    Hashtbl.hash (Scheduler.predict sched, Scheduler.key sched)
  | S_varlat st -> Hashtbl.hash st.pipe

let buffer_occupancy t =
  match t.state with
  | S_eb st -> Some st.n
  | S_eb0 st -> Some (if st.full then 1 else 0)
  | S_varlat st -> Some (if st.pipe = None then 0 else 1)
  | S_stateless | S_source _ | S_sink _ | S_fork _ | S_emux _ | S_shared _
    ->
    None

(* The per-node clock edge and begin-cycle that the per-role loops of
   [Nodes] replaced, kept verbatim as the models those loops are checked
   against (test_sim_basic.ml).  A node is a record with the fields the
   retired [Instance.t] had, built from a laid-out instance. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_sim
open Elastic_sim.Instance

type t = {
  node : Netlist.node;
  ins : int array;
  sel : int option;
  outs : int array;
  role : role;
  regs : int array;
  r : int;
  vals : Value.t array;
  v : int;
}

let of_instance inst ~regs ~vals =
  { node = node inst; ins = ins inst; sel = sel inst; outs = outs inst;
    role = role inst; regs; r = reg_base inst; vals; v = val_base inst }

let src_offering = 0 and src_idx = 1 and src_kill = 2 and src_retry = 3
and src_rng = 4

let snk_stalling = 0 and snk_cyc = 1 and snk_rng = 2

let draw regs k pct =
  let s = Rng.advance regs.(k) in
  regs.(k) <- s;
  s mod 100 < pct

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

(* Whether a source has an item at index [idx]. *)
let source_has spec svals idx =
  match spec with
  | Netlist.Stream _ -> idx < Array.length svals
  | Netlist.Counter _ | Netlist.Random_rate _ -> true
  | Netlist.Nondet vs -> vs <> []

(* The index after one item leaves, offered or killed. *)
let source_bump spec idx =
  match spec with
  | Netlist.Nondet vs -> (idx + 1) mod max 1 (List.length vs)
  | Netlist.Stream _ | Netlist.Counter _ | Netlist.Random_rate _ -> idx + 1

let source_begin t spec svals ~choice =
  let regs = t.regs and r = t.r in
  (* Pending anti-tokens kill the items the source would offer next. *)
  while
    regs.(r + src_kill) > 0
    && source_has spec svals regs.(r + src_idx)
  do
    regs.(r + src_idx) <- source_bump spec regs.(r + src_idx);
    regs.(r + src_kill) <- regs.(r + src_kill) - 1
  done;
  let have = source_has spec svals regs.(r + src_idx) in
  let fresh_offer =
    match choice with
    | Some (Offer b) -> b
    | Some (Stall _ | Predict _) | None -> (
        match spec with
        | Netlist.Stream _ | Netlist.Counter _ -> true
        | Netlist.Random_rate { pct; _ } -> draw regs (r + src_rng) pct
        | Netlist.Nondet _ -> draw regs (r + src_rng) 50)
  in
  (* Retry+ persistence: a stalled token must stay offered. *)
  regs.(r + src_offering) <-
    Bool.to_int (have && (regs.(r + src_retry) = 1 || fresh_offer))

(* The clock edge reads the elapsed cycle's raw control codes, indexed
   by dense channel index, and reads a payload only when a token
   actually moves: [has_data c] says whether channel [c] carries one,
   [payload c] reads it. *)
let events_at codes c = Signal.events_of_code codes.(c)

let source_clock t spec ~codes =
  let regs = t.regs and r = t.r in
  let ev = events_at codes t.outs.(0) in
  if ev.Signal.token_out then begin
    regs.(r + src_idx) <- source_bump spec regs.(r + src_idx);
    regs.(r + src_retry) <- 0
  end
  else regs.(r + src_retry) <- regs.(r + src_offering);
  if ev.Signal.anti_in then
    regs.(r + src_kill) <- regs.(r + src_kill) + 1

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let sink_begin t spec ~choice =
  let regs = t.regs and r = t.r in
  regs.(r + snk_stalling) <-
    Bool.to_int
      (match choice with
       | Some (Stall b) -> b
       | Some (Offer _ | Predict _) | None -> (
           match spec with
           | Netlist.Always_ready -> false
           | Netlist.Stall_pattern p ->
             Array.length p > 0
             && p.(regs.(r + snk_cyc) mod Array.length p)
           | Netlist.Random_stall { pct; _ } ->
             draw regs (r + snk_rng) pct))

let sink_clock t spec =
  match spec with
  | Netlist.Stall_pattern p ->
    let k = t.r + snk_cyc in
    t.regs.(k) <- (t.regs.(k) + 1) mod max 1 (Array.length p)
  | Netlist.Always_ready | Netlist.Random_stall _ -> ()

(* ------------------------------------------------------------------ *)
(* Standard elastic buffer: Lf = 1, Lb = 1, C = 2 (Fig. 2(a)/Fig. 3).  *)
(* State is a signed count [n]: n > 0 stores tokens (with data), n < 0 *)
(* stores anti-tokens.  All outputs are functions of registers only.   *)
(* The tokens sit in the payload slots oldest first; a slot past the   *)
(* last token holds [Unit], so equal slots mean equal queues.          *)

(* Token [k] of the queue [a], [b] (the first [len] of them stored),
   with [p] appended when [total = len + 1]; [Unit] past the last. *)
let eb_token a b p ~len ~total k =
  if k >= total then Value.Unit
  else if k >= len then p
  else if k = 0 then a
  else b

let eb_clock t ~codes ~has_data ~payload =
  let regs = t.regs and vals = t.vals and v = t.v in
  let i = t.ins.(0) in
  let in_ev = events_at codes i and out_ev = events_at codes t.outs.(0) in
  let n = regs.(t.r) in
  let len = max n 0 in
  (* Pop before push so a full buffer can stream through. *)
  let pop = Bool.to_int out_ev.Signal.token_out in
  assert (len >= pop);
  let push = in_ev.Signal.token_in in
  let p =
    if push then begin
      assert (has_data i);
      assert (len - pop < Netlist.buffer_capacity Netlist.Eb);
      payload i
    end
    else Value.Unit
  in
  let total = len + Bool.to_int push in
  (* An anti-token reaching the output kills the oldest token left
     (Fig. 3: the rd pointer advances). *)
  let drop = pop + Bool.to_int (out_ev.Signal.anti_in && total > pop) in
  (* The queue after the edge, from the two slots: each slot is stored
     only where its token changes, so a streaming token is written
     once, into the slot it lands in. *)
  let a = vals.(v) and b = vals.(v + 1) in
  let x0 = eb_token a b p ~len ~total drop
  and x1 = eb_token a b p ~len ~total (drop + 1) in
  if x0 != a then vals.(v) <- x0;
  if x1 != b then vals.(v + 1) <- x1;
  let incr_in = Bool.to_int in_ev.Signal.token_in in
  let incr_ain = Bool.to_int in_ev.Signal.anti_out in
  let decr_out = Bool.to_int out_ev.Signal.token_out in
  let decr_aout = Bool.to_int out_ev.Signal.anti_in in
  let n = n + incr_in + incr_ain - decr_out - decr_aout in
  regs.(t.r) <- n;
  assert (n >= -2 && n <= 2);
  assert (total - drop = max n 0)

(* ------------------------------------------------------------------ *)
(* Zero-backward-latency EB: Lf = 1, Lb = 0, C = 1 (Fig. 5).  Stop and *)
(* kill traverse the controller combinationally.                      *)

let eb0_clock t ~codes ~has_data ~payload =
  let i = t.ins.(0) in
  let in_ev = events_at codes i and out_ev = events_at codes t.outs.(0) in
  let tin = in_ev.Signal.token_in and tout = out_ev.Signal.token_out in
  let full = t.regs.(t.r) = 1 in
  assert (not (tin && full && not tout));
  if tin then begin
    assert (has_data i);
    t.vals.(t.v) <- payload i;
    t.regs.(t.r) <- 1
  end
  else if tout then begin
    t.vals.(t.v) <- Value.Unit;
    t.regs.(t.r) <- 0
  end

(* ------------------------------------------------------------------ *)
(* Eager fork with anti-token join.  Slot [j] is branch [j]'s done     *)
(* flag, slot [k + j] its count of pending anti-tokens.                *)

let fork_clock t ~codes =
  let regs = t.regs and r = t.r in
  let in_ev = events_at codes t.ins.(0) in
  let k = Array.length t.outs in
  (* Branch [j]'s pending anti-token count is slot [p + j]. *)
  let p = r + k in
  for j = 0 to k - 1 do
    let ev = events_at codes t.outs.(j) in
    if ev.Signal.anti_in then regs.(p + j) <- regs.(p + j) + 1;
    if ev.Signal.token_out then regs.(r + j) <- 1
  done;
  if in_ev.Signal.token_in then begin
    (* The input token is fully distributed: branches not served by a
       transfer were cancelled by a stored anti-token. *)
    for j = 0 to k - 1 do
      if regs.(r + j) = 0 then begin
        assert (regs.(p + j) > 0);
        regs.(p + j) <- regs.(p + j) - 1
      end;
      regs.(r + j) <- 0
    done
  end;
  if in_ev.Signal.anti_out then
    for j = 0 to k - 1 do
      assert (regs.(p + j) > 0);
      regs.(p + j) <- regs.(p + j) - 1
    done

(* ------------------------------------------------------------------ *)
(* Early-evaluation multiplexor (§2, §4.1): fires on select + selected *)
(* data, emitting one anti-token into every non-selected input per     *)
(* transfer.  Slot [j] holds the kills not yet delivered to input [j]; *)
(* it is unbounded in this model (a physical controller would stop     *)
(* firing at some queue depth), which over-approximates the paper's    *)
(* behavior and only matters if an upstream refuses anti-tokens        *)
(* indefinitely.                                                       *)

let emux_clock t ~codes ~has_data ~payload =
  let regs = t.regs and r = t.r in
  let k = Array.length t.ins in
  if (events_at codes t.outs.(0)).Signal.token_out then begin
    let sel = Option.get t.sel in
    assert (has_data sel);
    let s = Value.to_int (payload sel) in
    for i = 0 to k - 1 do
      if i <> s then regs.(r + i) <- regs.(r + i) + 1
    done
  end;
  for i = 0 to k - 1 do
    if (events_at codes t.ins.(i)).Signal.anti_out then begin
      assert (regs.(r + i) > 0);
      regs.(r + i) <- regs.(r + i) - 1
    end
  done

(* ------------------------------------------------------------------ *)
(* Shared elastic module with speculation scheduler (Fig. 4).          *)

(* The scheduler sees the raw drive of its predicted way's output: a
   stop is a stop even on a cancelling channel. *)
let shared_clock t sched ~codes ~has_data ~payload =
  let g = Scheduler.predict sched in
  let out = codes.(t.outs.(g)) in
  let hint =
    match t.sel with
    | Some h when (events_at codes h).Signal.token_out && has_data h ->
      Value.to_int (payload h)
    | Some _ | None -> 0
  in
  Scheduler.observe sched
    ~valid:(out land Signal.v_plus_bit <> 0)
    ~stop:(out land Signal.s_plus_bit <> 0)
    ~served:(if (Signal.events_of_code out).Signal.token_out then g else -1)
    ~hint

(* ------------------------------------------------------------------ *)
(* Stalling variable-latency unit (Fig. 6(a)).  A token is served in one *)
(* cycle when the approximation is correct, two otherwise; the sender is *)
(* stalled while the slow path completes.  The unit neither emits nor    *)
(* accepts anti-tokens (the non-speculative design has none).  The int   *)
(* slot counts the cycles before the held result becomes visible at the *)
(* output, -1 when empty; the payload slot holds the precomputed result. *)

let varlat_clock t ~codes ~has_data ~payload ~fast ~slow ~err =
  let regs = t.regs and r = t.r in
  let i = t.ins.(0) in
  if (events_at codes t.outs.(0)).Signal.token_out then begin
    regs.(r) <- -1;
    t.vals.(t.v) <- Value.Unit
  end;
  if (events_at codes i).Signal.token_in then begin
    assert (has_data i);
    let x = payload i in
    let wrong = Value.to_int (err.Func.eval1 x) <> 0 in
    t.vals.(t.v) <- (if wrong then slow else fast).Func.eval1 x;
    regs.(r) <- (if wrong then 2 else 1)
  end;
  if regs.(r) > 0 then regs.(r) <- regs.(r) - 1

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let begin_cycle t ~choice =
  match t.role with
  | Source { spec; svals } -> source_begin t spec svals ~choice
  | Sink spec -> sink_begin t spec ~choice
  | Shared { sched; _ } ->
    (match choice with
     | Some (Predict c) -> Scheduler.force sched c
     | Some (Offer _ | Stall _) | None -> ())
  | Stateless | Eb | Eb0 | Fork | Emux | Varlat _ -> ()

let clock t ~codes ~has_data ~payload =
  match t.role with
  | Source { spec; _ } -> source_clock t spec ~codes
  | Sink spec -> sink_clock t spec
  | Eb -> eb_clock t ~codes ~has_data ~payload
  | Eb0 -> eb0_clock t ~codes ~has_data ~payload
  | Fork -> fork_clock t ~codes
  | Emux -> emux_clock t ~codes ~has_data ~payload
  | Shared { sched } -> shared_clock t sched ~codes ~has_data ~payload
  | Varlat { fast; slow; err } ->
    varlat_clock t ~codes ~has_data ~payload ~fast ~slow ~err
  | Stateless -> ()

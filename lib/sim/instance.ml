open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type choice = Offer of bool | Stall of bool | Predict of int

type override = {
  force_v_plus : bool option;
  force_s_plus : bool option;
  force_v_minus : bool option;
  map_data : (Value.t -> Value.t) option;
}

let no_override =
  { force_v_plus = None; force_s_plus = None; force_v_minus = None;
    map_data = None }

let force_code ov =
  let pack o f acc =
    match o with
    | None -> acc
    | Some b -> acc lor (f lsl 4) lor if b then f else 0
  in
  pack ov.force_v_plus Signal.v_plus_bit 0
  |> pack ov.force_s_plus Signal.s_plus_bit
  |> pack ov.force_v_minus Signal.v_minus_bit

type role =
  | Stateless
  | Source of { spec : Netlist.source_spec; svals : Value.t array }
      (* [svals]: [Stream] payloads as an array, for O(1) peeking;
         empty otherwise *)
  | Sink of Netlist.sink_spec
  | Eb
  | Eb0
  | Fork
  | Emux
  | Shared of { sched : Scheduler.t }
  | Varlat of { fast : Func.t; slow : Func.t; err : Func.t }

(* Slots of sources and sinks; the flag the evaluators read comes
   first. *)
let src_offering = 0 and src_idx = 1 and src_kill = 2 and src_retry = 3
and src_rng = 4

let snk_stalling = 0 and snk_cyc = 1 and snk_rng = 2

let int_slots = function
  | Netlist.Source _ -> 5
  | Netlist.Sink _ -> 3
  | Netlist.Buffer _ | Netlist.Varlat _ -> 1
  | Netlist.Fork k -> 2 * k
  | Netlist.Mux { ways; early = true } -> ways
  | Netlist.Shared { sched; _ } -> Scheduler.width sched
  | Netlist.Func _ | Netlist.Mux { early = false; _ } -> 0

let value_slots = function
  | Netlist.Buffer { buffer; _ } -> Netlist.buffer_capacity buffer
  | Netlist.Varlat _ -> 1
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Func _ | Netlist.Fork _
  | Netlist.Mux _ | Netlist.Shared _ -> 0

(* Ports are dense channel indices (see [layout] in the interface); the
   registers are [regs.(r ..)] and the stored payloads [vals.(v ..)]. *)
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

let node t = t.node

let ins t = t.ins

let sel t = t.sel

let outs t = t.outs

let role t = t.role

let reg_base t = t.r

let val_base t = t.v

let create (node : Netlist.node) ~ins ~sel ~outs ~regs ~r ~vals ~v =
  let role =
    match node.Netlist.kind with
    | Netlist.Source spec ->
      let seed, svals =
        match spec with
        | Netlist.Random_rate { seed; _ } -> (seed, [||])
        | Netlist.Stream l -> (1, Array.of_list l)
        | Netlist.Counter _ | Netlist.Nondet _ -> (1, [||])
      in
      regs.(r + src_rng) <- Rng.start ~seed;
      Source { spec; svals }
    | Netlist.Sink spec ->
      let seed =
        match spec with
        | Netlist.Random_stall { seed; _ } -> seed
        | Netlist.Always_ready | Netlist.Stall_pattern _ -> 1
      in
      regs.(r + snk_rng) <- Rng.start ~seed;
      Sink spec
    | Netlist.Buffer { buffer; init } ->
      (* Occupancy and the initial tokens, which fit (E101). *)
      regs.(r) <- List.length init;
      List.iteri (fun k x -> vals.(v + k) <- x) init;
      (match buffer with Netlist.Eb -> Eb | Netlist.Eb0 -> Eb0)
    | Netlist.Func _ -> Stateless
    | Netlist.Fork _ -> Fork
    | Netlist.Mux { early; _ } -> if early then Emux else Stateless
    | Netlist.Shared { ways; sched; _ } ->
      Shared { sched = Scheduler.place regs r ~ways sched }
    | Netlist.Varlat { fast; slow; err } ->
      regs.(r) <- -1;
      Varlat { fast; slow; err }
  in
  { node; ins; sel; outs; role; regs; r; vals; v }

let layout nodes ~ports ~spare ~spare_vals =
  let total f =
    Array.fold_left (fun a (n : Netlist.node) -> a + f n.Netlist.kind) 0 nodes
  in
  let regs = Array.make (total int_slots + spare) 0 in
  let vals = Array.make (total value_slots + spare_vals) Value.Unit in
  let r = ref 0 and v = ref 0 in
  let place i (n : Netlist.node) =
    let ins, sel, outs = ports.(i) in
    let t = create n ~ins ~sel ~outs ~regs ~r:!r ~vals ~v:!v in
    r := !r + int_slots n.Netlist.kind;
    v := !v + value_slots n.Netlist.kind;
    t
  in
  let insts = Array.mapi place nodes in
  (regs, vals, insts)

(* Every register but a scheduler's statistics and the flag in a source's
   or sink's slot 0, which [begin_cycle] recomputes. *)
let rec fold_range f k last acc =
  if k > last then acc else fold_range f (k + 1) last (f acc k)

let fold_future t f acc =
  let last = t.r + int_slots t.node.Netlist.kind - 1 in
  match t.role with
  | Shared { sched; _ } -> List.fold_left f acc (Scheduler.future sched)
  | Source _ | Sink _ -> fold_range f (t.r + 1) last acc
  | Stateless | Eb | Eb0 | Fork | Emux | Varlat _ -> fold_range f t.r last acc

let choices = function
  | Netlist.Source (Netlist.Random_rate _ | Netlist.Nondet _) ->
    [ Offer true; Offer false ]
  | Netlist.Sink (Netlist.Random_stall _) -> [ Stall false; Stall true ]
  | Netlist.Shared { ways; sched = Scheduler.External; _ } ->
    List.init ways (fun i -> Predict i)
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _ | Netlist.Func _
  | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _ | Netlist.Varlat _ ->
    []

(* One draw of the generator in slot [k]: true with probability
   [pct]/100, as [Rng.percent]. *)
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

let source_value t =
  match t.role with
  | Source { spec; svals } ->
    let idx = t.regs.(t.r + src_idx) in
    (match spec with
     | Netlist.Stream _ -> svals.(idx)
     | Netlist.Counter { start; step } -> Value.Int (start + (step * idx))
     | Netlist.Random_rate _ -> Value.Int idx
     | Netlist.Nondet vs -> List.nth vs (idx mod List.length vs))
  | Stateless | Sink _ | Eb | Eb0 | Fork | Emux | Shared _ | Varlat _ ->
    invalid_arg "Instance.source_value: not a source"

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

let acts_at_begin t =
  match t.role with
  | Source _ | Sink _ | Shared _ -> true
  | Stateless | Eb | Eb0 | Fork | Emux | Varlat _ -> false

let acts_at_clock t =
  match t.role with
  | Stateless | Sink (Netlist.Always_ready | Netlist.Random_stall _) -> false
  | Source _ | Sink (Netlist.Stall_pattern _) | Eb | Eb0 | Fork | Emux
  | Shared _ | Varlat _ -> true

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

let bad_select s = invalid_arg (Fmt.str "select: index %d out of range" s)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let buffer_occupancy t =
  match t.role with
  | Eb -> Some t.regs.(t.r)
  | Eb0 -> Some t.regs.(t.r)
  | Varlat _ -> Some (if t.regs.(t.r) < 0 then 0 else 1)
  | Stateless | Source _ | Sink _ | Fork | Emux | Shared _ -> None

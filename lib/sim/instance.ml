open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type choice = Offer of bool | Stall of bool | Predict of int

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
  | Shared of {
      sched : Scheduler.t;
      obs : Scheduler.observation;  (* refilled in place at every edge *)
      served : int option array;  (* [Some g] for each way [g] *)
    }
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
      let bits ports = Array.make (Array.length ports) false in
      Shared
        { sched = Scheduler.place regs r ~ways sched;
          obs =
            { Scheduler.in_valid = bits ins; out_valid = bits outs;
              out_stop = bits outs; out_kill = bits outs; served = None;
              has_hint = false; hint = 0 };
          served = Array.init (Array.length outs) Option.some }
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
let future t =
  let n = int_slots t.node.Netlist.kind in
  match t.role with
  | Shared { sched; _ } -> Scheduler.future sched
  | Source _ | Sink _ -> List.init (n - 1) (fun k -> t.r + 1 + k)
  | Stateless | Eb | Eb0 | Fork | Emux | Varlat _ -> List.init n (( + ) t.r)

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

(* Next value a source would offer (its stream head), if any; [None]
   for other nodes. *)
let source_peek t =
  match t.role with
  | Source { spec; svals } ->
    if source_has spec svals t.regs.(t.r + src_idx) then Some (source_value t)
    else None
  | Stateless | Sink _ | Eb | Eb0 | Fork | Emux | Shared _ | Varlat _ -> None

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

(* Drop the oldest of [len] stored tokens. *)
let eb_pop vals v len =
  for k = v to v + len - 2 do
    vals.(k) <- vals.(k + 1)
  done;
  vals.(v + len - 1) <- Value.Unit

let eb_clock t ~codes ~has_data ~payload =
  let regs = t.regs and vals = t.vals and v = t.v in
  let i = t.ins.(0) in
  let in_ev = events_at codes i and out_ev = events_at codes t.outs.(0) in
  let n = regs.(t.r) in
  let len = ref (max n 0) in
  (* Pop before push so a full buffer can stream through. *)
  if out_ev.Signal.token_out then begin
    assert (!len > 0);
    eb_pop vals v !len;
    decr len
  end;
  if in_ev.Signal.token_in then begin
    assert (has_data i);
    assert (!len < Netlist.buffer_capacity Netlist.Eb);
    vals.(v + !len) <- payload i;
    incr len
  end;
  (* An anti-token reaching the output kills the oldest stored token
     (Fig. 3: the rd pointer advances). *)
  if out_ev.Signal.anti_in && !len > 0 then begin
    eb_pop vals v !len;
    decr len
  end;
  let incr_in = Bool.to_int in_ev.Signal.token_in in
  let incr_ain = Bool.to_int in_ev.Signal.anti_out in
  let decr_out = Bool.to_int out_ev.Signal.token_out in
  let decr_aout = Bool.to_int out_ev.Signal.anti_in in
  let n = n + incr_in + incr_ain - decr_out - decr_aout in
  regs.(t.r) <- n;
  assert (n >= -2 && n <= 2);
  assert (!len = max n 0)

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

let fill_bits bits ports codes bit =
  for j = 0 to Array.length ports - 1 do
    bits.(j) <- codes.(ports.(j)) land bit <> 0
  done

(* The scheduler sees the raw drive: a stop is a stop even on a
   cancelling channel. *)
let shared_clock t sched obs served ~codes ~has_data ~payload =
  let g = Scheduler.predict sched in
  (match t.sel with
   | Some h when (events_at codes h).Signal.token_out && has_data h ->
     obs.Scheduler.has_hint <- true;
     obs.Scheduler.hint <- Value.to_int (payload h)
   | Some _ | None -> obs.Scheduler.has_hint <- false);
  fill_bits obs.Scheduler.in_valid t.ins codes Signal.v_plus_bit;
  fill_bits obs.Scheduler.out_valid t.outs codes Signal.v_plus_bit;
  fill_bits obs.Scheduler.out_stop t.outs codes Signal.s_plus_bit;
  fill_bits obs.Scheduler.out_kill t.outs codes Signal.v_minus_bit;
  obs.Scheduler.served <-
    (if (events_at codes t.outs.(g)).Signal.token_out then served.(g)
     else None);
  Scheduler.observe sched obs

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
  | Shared { sched; obs; served } ->
    shared_clock t sched obs served ~codes ~has_data ~payload
  | Varlat { fast; slow; err } ->
    varlat_clock t ~codes ~has_data ~payload ~fast ~slow ~err
  | Stateless -> ()

(* ------------------------------------------------------------------ *)
(* The Reference evaluator: the node's [Control.table], the equations  *)
(* the BLIF, SMV and Verilog exports print, compiled once per Reference *)
(* engine into closures over the [Wires] store and an int slot per     *)
(* register, input and internal net.  A value is a Kleene code: 0      *)
(* unknown, 2 known false, 3 known true.  Every table expression is    *)
(* monotone in this logic, which guarantees the engine's fixed point   *)
(* exists.                                                             *)

let of_bool b = if b then 3 else 2

(* [c], negated when [k = 1]. *)
let neg k c = if c = 0 then 0 else c lxor k

let bad_select s = invalid_arg (Fmt.str "select: index %d out of range" s)

(* A compiled expression: slot [n] negated when [k = 1], or a closure. *)
type expr = Slot of int * int | Fn of (unit -> int)

(* Kleene [And] ([dom = 2]) or [Or] ([dom = 3]) of [xs.(i..)]: a
   dominant operand decides, else any unknown one leaves it unknown. *)
let rec fold_from s dom xs i acc =
  if i = Array.length xs then acc
  else
    let c = match xs.(i) with Slot (n, k) -> neg k s.(n) | Fn f -> f () in
    if c = dom then dom
    else fold_from s dom xs (i + 1) (if c = 0 then 0 else acc)

(* [e] as a closure. *)
let closure s = function
  | Slot (n, 0) -> fun () -> s.(n)
  | Slot (n, k) -> fun () -> neg k s.(n)
  | Fn f -> f

let fold s dom = function
  | [ x ] -> x
  | [ Slot (a, ka); Slot (b, kb) ] ->
    Fn
      (fun () ->
         let a = neg ka s.(a) and b = neg kb s.(b) in
         if a = dom || b = dom then dom else if a = 0 then 0 else b)
  | [ f; g ] ->
    let f = closure s f and g = closure s g in
    Fn
      (fun () ->
         let a = f () in
         if a = dom then dom
         else
           let b = g () in
           if b = dom || a <> 0 then b else 0)
  | xs ->
    let xs = Array.of_list xs in
    Fn (fun () -> fold_from s dom xs 0 (dom lxor 1))

(* [e], negated when [k = 1]: negations are pushed to the leaves.
   [leaf x k] compiles net [x]; a [Choice] lives in a slot. *)
let rec compile s leaf k : Control.e -> expr = function
  | Control.T -> Fn (fun () -> 3 lxor k)
  | Control.F -> Fn (fun () -> 2 lxor k)
  | Control.Var x -> leaf x k
  | Control.Is (x, j) ->
    (match leaf x 0 with
     | Slot (n, _) ->
       Fn (fun () -> if s.(n) < 0 then 0 else of_bool (s.(n) = j) lxor k)
     | Fn _ -> assert false)
  | Control.Not e -> compile s leaf (k lxor 1) e
  | Control.And es -> fold s (2 lxor k) (List.map (compile s leaf k) es)
  | Control.Or es -> fold s (3 lxor k) (List.map (compile s leaf k) es)

(* The assigns the channel bits need, in table order: the internal nets
   they read (fire, tout, compl, pend_any) stay, the next-state nets
   ([*_d], inc, dec) are left to [clock]. *)
let live ~is_bit assigns =
  let need = Hashtbl.create 16 in
  let rec mark : Control.e -> unit = function
    | Control.T | Control.F -> ()
    | Control.Var x | Control.Is (x, _) -> Hashtbl.replace need x ()
    | Control.Not e -> mark e
    | Control.And es | Control.Or es -> List.iter mark es
  in
  List.fold_right
    (fun (net, e) acc ->
       if is_bit net || Hashtbl.mem need net then (mark e; (net, e) :: acc)
       else acc)
    assigns []

(* A control bit of a wire: its reader, negated when [k = 1], and its
   writer. *)
let bit w k =
  let code = function None -> 0 | Some b -> of_bool b lxor k in
  function
  | "vp" -> ((fun () -> code (Wires.v_plus w)), Wires.set_v_plus)
  | "sp" -> ((fun () -> code (Wires.s_plus w)), Wires.set_s_plus)
  | "vm" -> ((fun () -> code (Wires.v_minus w)), Wires.set_v_minus)
  | "sm" -> ((fun () -> code (Wires.s_minus w)), Wires.set_s_minus)
  | f -> invalid_arg ("Instance.evaluator: control bit " ^ f)

(* [(width, load, payload)]: what a table reads besides channel bits,
   and the payloads, which the control-only tables do not carry.
   [load ()] runs before the assigns of each evaluation: it writes the
   code of each register, then the code of each [Bit] input or the
   value of each [Choice] input (-1 while unknown), into the [width]
   slots from 0 up, in the table's declared order (control.mli gives
   the encoding), reading the node's register slots.  [payload j c]
   follows [Out j]'s V+ := c. *)
let bindings ws t s =
  let wire c = Wires.wire ws c in
  let set_out j v = Wires.set_data ws (wire t.outs.(j)) v in
  let copy_in i j = Option.iter (set_out j) (Wires.data (wire t.ins.(i))) in
  let bind width load payload = (width, load, payload) in
  let regs = t.regs and r = t.r and vals = t.vals and v = t.v in
  (* States 0, 1 and 2 of a counter clamped at 2, from slot [n]. *)
  let count3 n c =
    for k = 0 to 2 do s.(n + k) <- of_bool (Int.min c 2 = k) done
  in
  (* A lazy join of [ins] computing [fn]: a lazy mux joins its select
     with its data inputs, and no assign reads the select value. *)
  let join ins fn width =
    let ins = Array.to_list (Array.map wire ins) in
    let has w = Option.is_some (Wires.data w) in
    bind width ignore (fun _ c ->
        if c = 3 && List.for_all has ins then
          set_out 0 (fn (List.map (fun w -> Option.get (Wires.data w)) ins)))
  in
  match t.role, t.node.Netlist.kind with
  | Source _, _ ->
    (* retry is held low: [offering] already includes it *)
    bind 2
      (fun () ->
         s.(0) <- 2;
         s.(1) <- of_bool (regs.(r + src_offering) = 1))
      (fun _ c -> if c = 3 then Option.iter (set_out 0) (source_peek t))
  | Sink _, _ ->
    bind 1
      (fun () -> s.(0) <- of_bool (regs.(r + snk_stalling) = 1))
      (fun _ _ -> ())
  | Eb, _ ->
    bind 5
      (fun () -> for k = 0 to 4 do s.(k) <- of_bool (regs.(r) + 2 = k) done)
      (fun _ c -> if c = 3 && regs.(r) > 0 then set_out 0 vals.(v))
  | Eb0, _ ->
    bind 1 (fun () -> s.(0) <- of_bool (regs.(r) = 1)) (fun _ c ->
        if c = 3 then set_out 0 vals.(v))
  | Fork, _ ->
    let k = Array.length t.outs in
    bind (4 * k)
      (fun () ->
         for j = 0 to k - 1 do
           s.(4 * j) <- of_bool (regs.(r + j) = 1);
           count3 ((4 * j) + 1) regs.(r + k + j)
         done)
      (fun j c -> if c = 3 then copy_in 0 j)
  | Emux, _ ->
    let sel = wire (Option.get t.sel) and w = Array.length t.ins in
    bind ((3 * w) + 1)
      (fun () ->
         for j = 0 to w - 1 do count3 (3 * j) regs.(r + j) done;
         (* The select value stays unknown until the select is valid
            with data. *)
         s.(3 * w) <-
           (match Wires.v_plus sel, Wires.data sel with
            | Some true, Some x ->
              let x = Value.to_int x in
              if x < 0 || x >= w then bad_select x;
              x
            | _ -> -1))
      (fun _ c -> if c = 3 then copy_in s.(3 * w) 0)
  | Shared { sched; _ }, Netlist.Shared { f; _ } ->
    (* The granted way's payload, whenever its input is valid. *)
    bind 1 (fun () -> s.(0) <- Scheduler.predict sched) (fun j _ ->
        let inw = wire t.ins.(j) in
        if j = s.(0) then
          match Wires.v_plus inw, Wires.data inw with
          | Some true, Some x -> set_out j (Func.apply f [ x ])
          | _ -> ())
  | Varlat _, _ ->
    bind 4
      (fun () ->
         (* States: empty, result visible, result pending. *)
         let state = Int.min (regs.(r) + 1) 2 in
         for k = 0 to 2 do s.(k) <- of_bool (state = k) done;
         s.(3) <- 2 (* the slow pick: read by next-state nets only *))
      (fun _ c -> if c = 3 && regs.(r) = 0 then set_out 0 vals.(v))
  | Stateless, Netlist.Func f -> join t.ins (Func.apply f) 0
  | Stateless, Netlist.Mux { ways; _ } ->
    join (Array.append [| Option.get t.sel |] t.ins)
      (Func.apply (Func.select ~ways ())) 1
  | (Shared _ | Stateless), _ -> assert false

let evaluator ws t =
  (* Channel bits are named "<dense index>.<field>", apart from the
     table's internal nets and inputs, which all contain "u". *)
  let bits = Hashtbl.create 16 and slots = Hashtbl.create 16 in
  let wire p f =
    let c =
      match p with
      | Netlist.In k -> t.ins.(k)
      | Netlist.Sel -> Option.get t.sel
      | Netlist.Out k -> t.outs.(k)
    in
    let net = Fmt.str "%d.%s" c f in
    Hashtbl.replace bits net (Wires.wire ws c, f, p);
    net
  in
  let tbl = Control.table ~u:"u" ~wire (Control.shape t.node.Netlist.kind) in
  let assigns = live ~is_bit:(Hashtbl.mem bits) tbl.Control.assigns in
  (* Slots: registers and inputs in declared order, then internal nets. *)
  let bound =
    List.map (fun r -> r.Control.q) tbl.Control.regs
    @ List.map
        (fun (Control.Bit x | Control.Choice (x, _)) -> x)
        tbl.Control.inputs
  in
  List.iter
    (fun x -> Hashtbl.replace slots x (Hashtbl.length slots))
    (bound
     @ List.filter (fun x -> not (Hashtbl.mem bits x)) (List.map fst assigns));
  let s = Array.make (Hashtbl.length slots) (-1) in
  let width, load, payload = bindings ws t s in
  if width <> List.length bound then
    invalid_arg "Instance.evaluator: bindings do not match the table";
  let leaf x k =
    match Hashtbl.find_opt bits x with
    | Some (w, f, _) -> Fn (fst (bit w k f))
    | None -> Slot (Hashtbl.find slots x, k)
  in
  let stmt (net, e) =
    let f = closure s (compile s leaf 0 e) in
    match Hashtbl.find_opt bits net with
    | None ->
      let n = Hashtbl.find slots net in
      fun () -> s.(n) <- f ()
    | Some (w, fld, p) ->
      let set = snd (bit w 0 fld) in
      (match p, fld with
       | Netlist.Out j, "vp" ->
         let payload = payload j in
         fun () ->
           let c = f () in
           if c <> 0 then set ws w (c = 3);
           payload c
       | _ -> fun () -> let c = f () in if c <> 0 then set ws w (c = 3))
  in
  let stmts = Array.of_list (List.map stmt assigns) in
  fun () ->
    load ();
    for i = 0 to Array.length stmts - 1 do
      stmts.(i) ()
    done

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let buffer_occupancy t =
  match t.role with
  | Eb -> Some t.regs.(t.r)
  | Eb0 -> Some t.regs.(t.r)
  | Varlat _ -> Some (if t.regs.(t.r) < 0 then 0 else 1)
  | Stateless | Source _ | Sink _ | Fork | Emux | Shared _ -> None

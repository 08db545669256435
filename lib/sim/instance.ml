open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type choice = Offer of bool | Stall of bool | Predict of int

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

let choices = function
  | Netlist.Source (Netlist.Random_rate _ | Netlist.Nondet _) ->
    [ Offer true; Offer false ]
  | Netlist.Sink (Netlist.Random_stall _) -> [ Stall false; Stall true ]
  | Netlist.Shared { ways; sched = Scheduler.External; _ } ->
    List.init ways (fun i -> Predict i)
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _ | Netlist.Func _
  | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _ | Netlist.Varlat _ ->
    []

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

let sink_clock st =
  match st.kspec with
  | Netlist.Stall_pattern p ->
    st.cyc <- (st.cyc + 1) mod max 1 (Array.length p)
  | Netlist.Always_ready | Netlist.Random_stall _ -> ()

(* ------------------------------------------------------------------ *)
(* Standard elastic buffer: Lf = 1, Lb = 1, C = 2 (Fig. 2(a)/Fig. 3).  *)
(* State is a signed count [n]: n > 0 stores tokens (with data), n < 0 *)
(* stores anti-tokens.  All outputs are functions of registers only.   *)

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
(* Eager fork with anti-token join.                                    *)

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
   the encoding).  [payload j c] follows [Out j]'s V+ := c. *)
let bindings ws t s =
  let wire c = Wires.wire ws c in
  let set_out j v = Wires.set_data ws (wire t.outs.(j)) v in
  let copy_in i j = Option.iter (set_out j) (Wires.data (wire t.ins.(i))) in
  let bind width load payload = (width, load, payload) in
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
  match t.state, t.node.Netlist.kind with
  | S_source st, _ ->
    (* retry is held low: [offering] already includes it *)
    bind 2 (fun () -> s.(0) <- 2; s.(1) <- of_bool st.offering) (fun _ c ->
        if c = 3 then Option.iter (set_out 0) (source_peek st))
  | S_sink st, _ ->
    bind 1 (fun () -> s.(0) <- of_bool st.stalling) (fun _ _ -> ())
  | S_eb st, _ ->
    bind 5 (fun () -> for k = 0 to 4 do s.(k) <- of_bool (st.n + 2 = k) done)
      (fun _ c ->
         match st.queue with v :: _ when c = 3 -> set_out 0 v | _ -> ())
  | S_eb0 st, _ ->
    bind 1 (fun () -> s.(0) <- of_bool st.full) (fun _ c ->
        if c = 3 then set_out 0 st.stored)
  | S_fork st, _ ->
    let k = Array.length t.outs in
    bind (4 * k)
      (fun () ->
         for j = 0 to k - 1 do
           s.(4 * j) <- of_bool st.done_.(j);
           count3 ((4 * j) + 1) st.pend.(j)
         done)
      (fun j c -> if c = 3 then copy_in 0 j)
  | S_emux st, _ ->
    let sel = wire (Option.get t.sel) and w = Array.length t.ins in
    bind ((3 * w) + 1)
      (fun () ->
         for j = 0 to w - 1 do count3 (3 * j) st.q.(j) done;
         (* The select value stays unknown until the select is valid
            with data. *)
         s.(3 * w) <-
           (match Wires.v_plus sel, Wires.data sel with
            | Some true, Some v ->
              let v = Value.to_int v in
              if v < 0 || v >= w then bad_select v;
              v
            | _ -> -1))
      (fun _ c -> if c = 3 then copy_in s.(3 * w) 0)
  | S_shared sched, Netlist.Shared { f; _ } ->
    (* The granted way's payload, whenever its input is valid. *)
    bind 1 (fun () -> s.(0) <- Scheduler.predict sched) (fun j _ ->
        let inw = wire t.ins.(j) in
        if j = s.(0) then
          match Wires.v_plus inw, Wires.data inw with
          | Some true, Some v -> set_out j (Func.apply f [ v ])
          | _ -> ())
  | S_varlat st, _ ->
    bind 4
      (fun () ->
         let state =
           match st.pipe with None -> 0 | Some (_, 0) -> 1 | Some _ -> 2
         in
         for k = 0 to 2 do s.(k) <- of_bool (state = k) done;
         s.(3) <- 2 (* the slow pick: read by next-state nets only *))
      (fun _ c ->
         match st.pipe with Some (v, 0) when c = 3 -> set_out 0 v | _ -> ())
  | S_stateless, Netlist.Func f -> join t.ins (Func.apply f) 0
  | S_stateless, Netlist.Mux { ways; _ } ->
    join (Array.append [| Option.get t.sel |] t.ins)
      (Func.apply (Func.select ~ways ())) 1
  | (S_shared _ | S_stateless), _ -> assert false

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
(* Snapshots                                                           *)

type snap =
  | Sn_none
  | Sn_source of int * int * bool * int
  | Sn_sink of int * int
  | Sn_eb of int * Value.t list
  | Sn_eb0 of Value.t option
  | Sn_fork of bool list * int list
  | Sn_emux of int list
  | Sn_shared of int list
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
    Sn_shared (Scheduler.state sched)
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
  | S_shared sched, Sn_shared s -> Scheduler.set_state sched s
  | S_varlat st, Sn_varlat p -> st.pipe <- p
  | ( S_stateless | S_source _ | S_sink _ | S_eb _ | S_eb0 _ | S_fork _
    | S_emux _ | S_shared _ | S_varlat _ ),
    _ ->
    invalid_arg "Instance.restore: snapshot kind mismatch"

let same_future t snap =
  match t.state, snap with
  | S_shared sched, Sn_shared s -> Scheduler.same_future sched s
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

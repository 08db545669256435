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

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

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

let bad_select s = invalid_arg (Fmt.str "select: index %d out of range" s)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let buffer_occupancy t =
  match t.role with
  | Eb -> Some t.regs.(t.r)
  | Eb0 -> Some t.regs.(t.r)
  | Varlat _ -> Some (if t.regs.(t.r) < 0 then 0 else 1)
  | Stateless | Source _ | Sink _ | Fork | Emux | Shared _ -> None

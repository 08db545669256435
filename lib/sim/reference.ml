(* The Reference backend: the independent oracle the arena is held to.

   Each node's [Control.program], the equations the BLIF, SMV and
   Verilog exports print with every net resolved, is compiled once per
   engine into closures over the node's channels in this module's own
   store and slots of its own, and every node is re-evaluated in every
   pass until a pass writes nothing: the Kleene fixed point of the
   monotone equations.  It shares with the arena only the nodes'
   instances (their ports and registers) and the override record.

   Store, per dense channel [c]:
   - [bits.(c)]: the four control fields in [Signal.code] layout (V+
     bit 0, S+ 1, V- 2, S- 3), each with a known bit at its own bit
     [lsl 4].  A field is written at most once a cycle: a second,
     different write raises [Conflict].
   - [has.(c)]/[data.(c)]: the payload written this cycle, if any.
   - [force.(c)] ([Instance.force_code]), [map.(c)], and
     [replayed.(c)]/[subst.(c)]: the cycle's override and the payload a
     replayed token substitutes.
   - [log.(0 .. nlog - 1)]: the channels written in the current pass;
     a pass that writes nothing ends the fixpoint, and the last pass's
     log names the channels that did not converge. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

exception Conflict of { chan : int; field : string }

exception Diverged of { passes : int; changing : int list }

exception Undetermined of int list

let vp = Signal.v_plus_bit

type t = {
  bits : int array;
  has : bool array;
  data : Value.t array;
  force : int array;
  map : (Value.t -> Value.t) option array;
  replayed : bool array;
  subst : Value.t array;
  log : int array;  (* a field or payload becomes known at most 5n times *)
  mutable nlog : int;
  mutable evals : (unit -> unit) array;  (* one per node, dense order *)
  profile : Profile.t;
  max_passes : int;
  mutable last_eval : int;
}

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let reset r =
  Array.fill r.bits 0 (Array.length r.bits) 0;
  Array.fill r.has 0 (Array.length r.has) false

(* Forced fields are seeded at install time, so that readers see them
   before (and regardless of) the driving node's write, which [set] then
   reconciles to the forced level. *)
let set_override r c ov =
  let fo = Instance.force_code ov in
  r.force.(c) <- fo;
  r.map.(c) <- ov.Instance.map_data;
  r.replayed.(c) <- false;
  let x = r.bits.(c) in
  let m = (fo lsr 4) land lnot (x lsr 4) in
  r.bits.(c) <- x lor (m lsl 4) lor (fo land m)

let substitute r c v =
  r.replayed.(c) <- true;
  r.subst.(c) <- v

let clear_overrides r =
  Array.fill r.force 0 (Array.length r.force) 0;
  Array.fill r.map 0 (Array.length r.map) None;
  Array.fill r.replayed 0 (Array.length r.replayed) false

(* A forced-valid wire with no driven data yields the substitute
   payload (token duplication). *)
let has_data r c = r.has.(c) || (r.replayed.(c) && r.force.(c) land vp <> 0)

let payload r c =
  if r.has.(c) then r.data.(c)
  else if has_data r c then r.subst.(c)
  else invalid_arg "Reference.payload: no payload"

(* Field [f] of channel [c] as a Kleene code: 0 unknown, 2 known false,
   3 known true. *)
let read r c f =
  let x = r.bits.(c) in
  if x land (f lsl 4) = 0 then 0 else if x land f = 0 then 2 else 3

let wrote r c =
  r.log.(r.nlog) <- c;
  r.nlog <- r.nlog + 1

let field_name f =
  if f = vp then "V+"
  else if f = Signal.s_plus_bit then "S+"
  else if f = Signal.v_minus_bit then "V-"
  else "S-"

let set r c f b =
  let fo = r.force.(c) in
  let v = if fo land (f lsl 4) <> 0 then fo land f else if b then f else 0 in
  let x = r.bits.(c) in
  if x land (f lsl 4) = 0 then begin
    r.bits.(c) <- x lor (f lsl 4) lor v;
    wrote r c
  end
  else if x land f <> v then raise (Conflict { chan = c; field = field_name f })

let set_data r c v =
  let v = match r.map.(c) with None -> v | Some f -> f v in
  if not r.has.(c) then begin
    r.has.(c) <- true;
    r.data.(c) <- v;
    wrote r c
  end
  else if not (Value.equal v r.data.(c)) then
    raise (Conflict { chan = c; field = "data" })

(* ------------------------------------------------------------------ *)
(* The table evaluator: the node's program, compiled into closures    *)
(* over the store and an int slot per register, input and internal    *)
(* net.  A value is a Kleene code: 0 unknown, 2 known false, 3 known  *)
(* true.  Every table expression is monotone in this logic, which     *)
(* guarantees the fixed point exists.                                 *)

let of_bool b = if b then 3 else 2

(* [c], negated when [k = 1]. *)
let neg k c = if c = 0 then 0 else c lxor k

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
let rec compile s leaf k : Control.net Control.expr -> expr = function
  | Control.T -> Fn (fun () -> 3 lxor k)
  | Control.F -> Fn (fun () -> 2 lxor k)
  | Control.Var x -> leaf x k
  | Control.Is (Control.Slot n, j) ->
    Fn (fun () -> if s.(n) < 0 then 0 else of_bool (s.(n) = j) lxor k)
  | Control.Is (Control.Chan _, _) -> assert false
  | Control.Not e -> compile s leaf (k lxor 1) e
  | Control.And es -> fold s (2 lxor k) (List.map (compile s leaf k) es)
  | Control.Or es -> fold s (3 lxor k) (List.map (compile s leaf k) es)

(* [(width, load, out_payload)]: what a table reads besides channel
   bits, and the payloads, which the control-only tables do not carry.
   [load ()] runs before the assigns of each evaluation: it writes the
   code of each register, then the code of each [Bit] input or the
   value of each [Choice] input (-1 while unknown), into the [width]
   slots from 0 up, in the table's declared order (control.mli gives
   the encoding), reading the node's register slots (instance.mli
   gives the layout).  [out_payload j c] follows [Out j]'s V+ := c. *)
let bindings r ~regs ~vals t s =
  let ins = Instance.ins t and outs = Instance.outs t in
  let set_out j v = set_data r outs.(j) v in
  let copy_in i j = if has_data r ins.(i) then set_out j (payload r ins.(i)) in
  let bind width load out_payload = (width, load, out_payload) in
  let b = Instance.reg_base t and v = Instance.val_base t in
  (* States 0, 1 and 2 of a counter clamped at 2, from slot [n]. *)
  let count3 n c =
    for k = 0 to 2 do s.(n + k) <- of_bool (Int.min c 2 = k) done
  in
  (* A lazy join of [ins] computing [fn]: a lazy mux joins its select
     with its data inputs, and no assign reads the select value. *)
  let join ins fn width =
    let has c = has_data r c and get c = payload r c in
    let args = Array.to_list ins in
    bind width ignore (fun _ c ->
        if c = 3 && Array.for_all has ins then
          set_out 0 (fn (List.map get args)))
  in
  match Instance.role t, (Instance.node t).Netlist.kind with
  | Instance.Source _, _ ->
    (* retry is held low: the offering flag already includes it, so a
       known-high V+ means the source has an item *)
    bind 2
      (fun () ->
         s.(0) <- 2;
         s.(1) <- of_bool (regs.(b) = 1))
      (fun _ c -> if c = 3 then set_out 0 (Instance.source_value t))
  | Instance.Sink _, _ ->
    bind 1 (fun () -> s.(0) <- of_bool (regs.(b) = 1)) (fun _ _ -> ())
  | Instance.Eb, _ ->
    bind 5
      (fun () -> for k = 0 to 4 do s.(k) <- of_bool (regs.(b) + 2 = k) done)
      (fun _ c -> if c = 3 && regs.(b) > 0 then set_out 0 vals.(v))
  | Instance.Eb0, _ ->
    bind 1 (fun () -> s.(0) <- of_bool (regs.(b) = 1)) (fun _ c ->
        if c = 3 then set_out 0 vals.(v))
  | Instance.Fork, _ ->
    let k = Array.length outs in
    bind (4 * k)
      (fun () ->
         for j = 0 to k - 1 do
           s.(4 * j) <- of_bool (regs.(b + j) = 1);
           count3 ((4 * j) + 1) regs.(b + k + j)
         done)
      (fun j c -> if c = 3 then copy_in 0 j)
  | Instance.Emux, _ ->
    let sel = Option.get (Instance.sel t) and w = Array.length ins in
    bind ((3 * w) + 1)
      (fun () ->
         for j = 0 to w - 1 do count3 (3 * j) regs.(b + j) done;
         (* The select value stays unknown until the select is valid
            with data. *)
         s.(3 * w) <-
           (if read r sel vp = 3 && has_data r sel then (
              let x = Value.to_int (payload r sel) in
              if x < 0 || x >= w then Instance.bad_select x;
              x)
            else -1))
      (fun _ c -> if c = 3 then copy_in s.(3 * w) 0)
  | Instance.Shared { sched }, Netlist.Shared { f; _ } ->
    (* The granted way's payload, whenever its input is valid. *)
    bind 1 (fun () -> s.(0) <- Scheduler.predict sched) (fun j _ ->
        let i = ins.(j) in
        if j = s.(0) && read r i vp = 3 && has_data r i then
          set_out j (Func.apply f [ payload r i ]))
  | Instance.Varlat _, _ ->
    bind 4
      (fun () ->
         (* States: empty, result visible, result pending. *)
         let state = Int.min (regs.(b) + 1) 2 in
         for k = 0 to 2 do s.(k) <- of_bool (state = k) done;
         s.(3) <- 2 (* the slow pick: read by next-state nets only *))
      (fun _ c -> if c = 3 && regs.(b) = 0 then set_out 0 vals.(v))
  | Instance.Stateless, Netlist.Func f -> join ins (Func.apply f) 0
  | Instance.Stateless, Netlist.Mux { ways; _ } ->
    join (Array.append [| Option.get (Instance.sel t) |] ins)
      (Func.apply (Func.select ~ways ())) 1
  | (Instance.Shared _ | Instance.Stateless), _ -> assert false

(* One monotone evaluation pass of node [t]: the assigns of its shape's
   program that the channel bits need, bound to its channels.  The
   payload of [Out j] follows that port's V+, which a self-loop channel
   (a shared module's way-j output wired to its way-k input) also reads
   at [In k]. *)
let evaluator r ~regs ~vals t =
  let p = Control.program (Control.shape (Instance.node t).Netlist.kind) in
  let tbl = p.Control.resolved in
  let s = Array.make p.Control.slots (-1) in
  let width, load, out_payload = bindings r ~regs ~vals t s in
  if width <> List.length tbl.Control.regs + List.length tbl.Control.inputs
  then invalid_arg "Reference.evaluator: bindings do not match the table";
  let chan = function
    | Netlist.In k -> (Instance.ins t).(k)
    | Netlist.Sel -> Option.get (Instance.sel t)
    | Netlist.Out k -> (Instance.outs t).(k)
  in
  let leaf x k =
    match x with
    | Control.Chan (port, f) ->
      let c = chan port in
      Fn (fun () -> neg k (read r c f))
    | Control.Slot n -> Slot (n, k)
  in
  let stmt (net, e) =
    let f = closure s (compile s leaf 0 e) in
    match net with
    | Control.Slot n -> fun () -> s.(n) <- f ()
    | Control.Chan ((Netlist.Out j as port), fld) when fld = vp ->
      let c = chan port and out_payload = out_payload j in
      fun () ->
        let x = f () in
        if x <> 0 then set r c fld (x = 3);
        out_payload x
    | Control.Chan (port, fld) ->
      let c = chan port in
      fun () ->
        let x = f () in
        if x <> 0 then set r c fld (x = 3)
  in
  let stmts = Array.of_list (List.map stmt p.Control.live) in
  fun () ->
    load ();
    for i = 0 to Array.length stmts - 1 do
      stmts.(i) ()
    done

let create ~profile ~max_passes ~regs ~vals ~channels insts =
  let n = channels in
  let r =
    { bits = Array.make n 0; has = Array.make n false;
      data = Array.make n Value.Unit; force = Array.make n 0;
      map = Array.make n None; replayed = Array.make n false;
      subst = Array.make n Value.Unit; log = Array.make (5 * n) 0; nlog = 0;
      evals = [||]; profile; max_passes; last_eval = 0 }
  in
  r.evals <- Array.map (evaluator r ~regs ~vals) insts;
  r

(* ------------------------------------------------------------------ *)
(* The fixed point                                                     *)

let settle r =
  let evals = r.evals in
  let rec pass k =
    r.nlog <- 0;
    for i = 0 to Array.length evals - 1 do
      r.last_eval <- i;
      Profile.note_eval r.profile i;
      evals.(i) ()
    done;
    if r.nlog = 0 then k + 1
    else if k >= r.max_passes then
      raise
        (Diverged
           { passes = k + 1;
             changing =
               List.sort_uniq Int.compare
                 (Array.to_list (Array.sub r.log 0 r.nlog)) })
    else pass (k + 1)
  in
  if Array.length evals = 0 then 0 else pass 0

let export r codes =
  let undetermined = ref [] in
  for c = Array.length r.bits - 1 downto 0 do
    let x = r.bits.(c) in
    if x lsr 4 <> 15 then undetermined := c :: !undetermined;
    codes.(c) <- x land 15
  done;
  if !undetermined <> [] then raise (Undetermined !undetermined)

let last_eval r = r.last_eval

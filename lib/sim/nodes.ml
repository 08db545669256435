(* The per-engine flat node tables and the begin-cycle and clock-edge
   loops over them, one loop per role.  Each loop reads its nodes' rows
   (ints: node id, ports, register and payload bases) and the engine's
   register, payload and code arrays, and allocates nothing but what a
   varlat's functions return; the slots it writes are Instance's
   layout (instance.mli).  A row's node id goes to [last] before the
   row runs, so an exception raised in it names the node. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type t = {
  insts : Instance.t array;
  regs : int array;
  vals : Value.t array;
  role : int array;
  rb : int array;
  vb : int array;
  sel : int array;
  pi : int array;
  po : int array;
  pe : int array;
  port : int array;
  src : int array;
  snk : int array;
  patterns : bool array array;
  stall : int array;
  eb : int array;
  eb0 : int array;
  fork : int array;
  emux : int array;
  shared : int array;
  scheds : Scheduler.t array;
  varlat : int array;
  vfns : Func.t array;
  mutable last : int;
}

let role_tag inst =
  match Instance.role inst with
  | Instance.Stateless -> 0
  | Instance.Source _ -> 1
  | Instance.Sink _ -> 2
  | Instance.Eb -> 3
  | Instance.Eb0 -> 4
  | Instance.Fork -> 5
  | Instance.Emux -> 6
  | Instance.Shared _ -> 7
  | Instance.Varlat _ -> 8

(* The rows [row] gives the nodes, node by node, in one int array:
   counted, then filled. *)
let table insts row =
  let rows = Array.map row insts in
  let a = Array.make (Array.fold_left (fun n r -> n + List.length r) 0 rows) 0 in
  ignore
    (Array.fold_left
       (List.fold_left (fun p x ->
            a.(p) <- x;
            p + 1))
       0 rows);
  a

(* The values [f] gives the nodes, in node order. *)
let values insts f =
  Array.of_list (Array.fold_right (fun inst acc -> f inst @ acc) insts [])

let create insts ~regs ~vals =
  let id inst = (Instance.node inst).Netlist.id
  and rb = Instance.reg_base
  and in0 inst = (Instance.ins inst).(0)
  and out0 inst = (Instance.outs inst).(0)
  and sel inst = Option.value (Instance.sel inst) ~default:(-1) in
  (* Node id, input, output, register base, payload base. *)
  let row5 inst =
    [ id inst; in0 inst; out0 inst; rb inst; Instance.val_base inst ]
  in
  (* Each node's select, if it has one, then its inputs and outputs. *)
  let pi = Array.make (Array.length insts) 0 in
  let po = Array.copy pi and pe = Array.copy pi in
  let size = ref 0 in
  Array.iteri
    (fun i inst ->
       pi.(i) <- !size + Bool.to_int (Instance.sel inst <> None);
       po.(i) <- pi.(i) + Array.length (Instance.ins inst);
       pe.(i) <- po.(i) + Array.length (Instance.outs inst);
       size := pe.(i))
    insts;
  let port = Array.make !size 0 in
  Array.iteri
    (fun i inst ->
       if Instance.sel inst <> None then port.(pi.(i) - 1) <- sel inst;
       let ins = Instance.ins inst and outs = Instance.outs inst in
       Array.blit ins 0 port pi.(i) (Array.length ins);
       Array.blit outs 0 port po.(i) (Array.length outs))
    insts;
  let role f = table insts (fun inst -> f (Instance.role inst) inst) in
  (* Node id, one port, register base, a count and as many ports. *)
  let row_n inst p ports =
    id inst :: p :: rb inst :: Array.length ports :: Array.to_list ports
  in
  { insts; regs; vals;
    role = Array.map role_tag insts;
    rb = Array.map rb insts;
    vb = Array.map Instance.val_base insts;
    sel = Array.map sel insts;
    pi; po; pe; port;
    src =
      role (fun r inst ->
          match r with
          | Instance.Source { spec; svals } ->
            let spec, param =
              match spec with
              | Netlist.Stream _ -> (0, Array.length svals)
              | Netlist.Counter _ -> (1, 0)
              | Netlist.Random_rate { pct; _ } -> (2, pct)
              | Netlist.Nondet vs -> (3, List.length vs)
            in
            [ id inst; out0 inst; rb inst; spec; param ]
          | _ -> []);
    snk =
      role (fun r inst ->
          match r with
          | Instance.Sink spec ->
            let spec, pct =
              match spec with
              | Netlist.Always_ready -> (0, 0)
              | Netlist.Stall_pattern _ -> (1, 0)
              | Netlist.Random_stall { pct; _ } -> (2, pct)
            in
            [ id inst; rb inst; spec; pct ]
          | _ -> []);
    patterns =
      values insts (fun inst ->
          match Instance.role inst with
          | Instance.Sink (Netlist.Stall_pattern p) -> [ p ]
          | Instance.Sink _ -> [ [||] ]
          | _ -> []);
    stall =
      role (fun r inst ->
          match r with
          | Instance.Sink (Netlist.Stall_pattern p) ->
            [ id inst; rb inst; Array.length p ]
          | _ -> []);
    eb = role (function Instance.Eb -> row5 | _ -> fun _ -> []);
    eb0 = role (function Instance.Eb0 -> row5 | _ -> fun _ -> []);
    fork =
      role (fun r inst ->
          match r with
          | Instance.Fork -> row_n inst (in0 inst) (Instance.outs inst)
          | _ -> []);
    emux =
      role (fun r inst ->
          match r with
          | Instance.Emux ->
            row_n inst (sel inst) (Instance.ins inst) @ [ out0 inst ]
          | _ -> []);
    shared =
      role (fun r inst ->
          match r with
          | Instance.Shared _ -> row_n inst (sel inst) (Instance.outs inst)
          | _ -> []);
    scheds =
      values insts (fun inst ->
          match Instance.role inst with
          | Instance.Shared { sched } -> [ sched ]
          | _ -> []);
    varlat = role (function Instance.Varlat _ -> row5 | _ -> fun _ -> []);
    vfns =
      values insts (fun inst ->
          match Instance.role inst with
          | Instance.Varlat { fast; slow; err } -> [ fast; slow; err ]
          | _ -> []);
    last = -1 }

(* ------------------------------------------------------------------ *)
(* Events on raw codes                                                 *)

(* The boundary events of a raw code, as [Signal.events_of_code] gives
   them: a token and an anti-token that meet cancel, and neither stop
   holds them then. *)
let vp = Signal.v_plus_bit

let sp = Signal.s_plus_bit

let vm = Signal.v_minus_bit

let sm = Signal.s_minus_bit

let[@inline] token_out c = c land vp <> 0 && (c land sp = 0 || c land vm <> 0)

let[@inline] token_in c = c land (vp lor sp lor vm) = vp

let[@inline] anti_out c = c land vm <> 0 && (c land sm = 0 || c land vp <> 0)

let[@inline] anti_in c = c land (vm lor sm lor vp) = vm

(* ------------------------------------------------------------------ *)
(* Sources and sinks                                                   *)

(* A source's spec and parameter, as in its row: whether it has an item
   at index [idx], and the index after one item leaves, offered or
   killed. *)
let[@inline] source_has spec param idx =
  match spec with
  | 0 -> idx < param
  | 3 -> param > 0
  | _ -> true

let[@inline] source_bump spec param idx =
  if spec = 3 then (idx + 1) mod max 1 param else idx + 1

(* One draw of the generator in slot [k]: true with probability
   [pct]/100, as [Rng.percent]. *)
let draw regs k pct =
  let s = Rng.advance regs.(k) in
  regs.(k) <- s;
  s mod 100 < pct

let begin_sources t ~choices =
  let regs = t.regs and rows = t.src in
  for row = 0 to (Array.length rows / 5) - 1 do
    let p = 5 * row in
    let r = rows.(p + 2) and spec = rows.(p + 3) and param = rows.(p + 4) in
    let idx = r + Instance.src_idx and kill = r + Instance.src_kill in
    (* Pending anti-tokens kill the items the source would offer next. *)
    while regs.(kill) > 0 && source_has spec param regs.(idx) do
      regs.(idx) <- source_bump spec param regs.(idx);
      regs.(kill) <- regs.(kill) - 1
    done;
    let have = source_has spec param regs.(idx) in
    let fresh_offer =
      match choices rows.(p) with
      | Some (Instance.Offer b) -> b
      | Some (Instance.Stall _ | Instance.Predict _) | None -> (
          match spec with
          | 2 -> draw regs (r + Instance.src_rng) param
          | 3 -> draw regs (r + Instance.src_rng) 50
          | _ -> true)
    in
    (* Retry+ persistence: a stalled token must stay offered. *)
    regs.(r + Instance.src_offering) <-
      Bool.to_int
        (have && (regs.(r + Instance.src_retry) = 1 || fresh_offer))
  done

let begin_sinks t ~choices =
  let regs = t.regs and rows = t.snk in
  for row = 0 to (Array.length rows / 4) - 1 do
    let p = 4 * row in
    let r = rows.(p + 1) in
    regs.(r + Instance.snk_stalling) <-
      Bool.to_int
        (match choices rows.(p) with
         | Some (Instance.Stall b) -> b
         | Some (Instance.Offer _ | Instance.Predict _) | None -> (
             match rows.(p + 2) with
             | 0 -> false
             | 1 ->
               let pat = t.patterns.(row) in
               Array.length pat > 0
               && pat.(regs.(r + Instance.snk_cyc) mod Array.length pat)
             | _ -> draw regs (r + Instance.snk_rng) rows.(p + 3)))
  done

let begin_shared t ~choices =
  let rows = t.shared in
  let p = ref 0 and row = ref 0 in
  while !p < Array.length rows do
    (match choices rows.(!p) with
     | Some (Instance.Predict c) -> Scheduler.force t.scheds.(!row) c
     | Some (Instance.Offer _ | Instance.Stall _) | None -> ());
    p := !p + 4 + rows.(!p + 3);
    incr row
  done

let begin_cycle t ~choices =
  begin_sources t ~choices;
  begin_sinks t ~choices;
  begin_shared t ~choices

let clock_sources t ~codes =
  let regs = t.regs and rows = t.src in
  for row = 0 to (Array.length rows / 5) - 1 do
    let p = 5 * row in
    t.last <- rows.(p);
    let c = codes.(rows.(p + 1)) and r = rows.(p + 2) in
    if token_out c then begin
      let idx = r + Instance.src_idx in
      regs.(idx) <- source_bump rows.(p + 3) rows.(p + 4) regs.(idx);
      regs.(r + Instance.src_retry) <- 0
    end
    else
      regs.(r + Instance.src_retry) <- regs.(r + Instance.src_offering);
    if anti_in c then
      regs.(r + Instance.src_kill) <- regs.(r + Instance.src_kill) + 1
  done

(* A stall pattern's position moves on every cycle. *)
let clock_stall t =
  let regs = t.regs and rows = t.stall in
  for row = 0 to (Array.length rows / 3) - 1 do
    let p = 3 * row in
    t.last <- rows.(p);
    let k = rows.(p + 1) + Instance.snk_cyc in
    regs.(k) <- (regs.(k) + 1) mod max 1 rows.(p + 2)
  done

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

let clock_eb t ~codes ~has_data ~payload =
  let regs = t.regs and vals = t.vals and rows = t.eb in
  let cap = Netlist.buffer_capacity Netlist.Eb in
  for row = 0 to (Array.length rows / 5) - 1 do
    let p = 5 * row in
    t.last <- rows.(p);
    let i = rows.(p + 1) and r = rows.(p + 3) and v = rows.(p + 4) in
    let cin = codes.(i) and cout = codes.(rows.(p + 2)) in
    let n = regs.(r) in
    let len = max n 0 in
    (* Pop before push so a full buffer can stream through. *)
    let pop = Bool.to_int (token_out cout) in
    assert (len >= pop);
    let push = token_in cin in
    let x =
      if push then begin
        assert (has_data i);
        assert (len - pop < cap);
        payload i
      end
      else Value.Unit
    in
    let total = len + Bool.to_int push in
    (* An anti-token reaching the output kills the oldest token left
       (Fig. 3: the rd pointer advances). *)
    let drop = pop + Bool.to_int (anti_in cout && total > pop) in
    (* The queue after the edge, from the two slots: each slot is
       stored only where its token changes, so a streaming token is
       written once, into the slot it lands in. *)
    let a = vals.(v) and b = vals.(v + 1) in
    let x0 = eb_token a b x ~len ~total drop
    and x1 = eb_token a b x ~len ~total (drop + 1) in
    if x0 != a then vals.(v) <- x0;
    if x1 != b then vals.(v + 1) <- x1;
    let n =
      n + Bool.to_int push + Bool.to_int (anti_out cin) - pop
      - Bool.to_int (anti_in cout)
    in
    regs.(r) <- n;
    assert (n >= -2 && n <= 2);
    assert (total - drop = max n 0)
  done

(* ------------------------------------------------------------------ *)
(* Zero-backward-latency EB: Lf = 1, Lb = 0, C = 1 (Fig. 5).  Stop and *)
(* kill traverse the controller combinationally.                      *)

let clock_eb0 t ~codes ~has_data ~payload =
  let regs = t.regs and vals = t.vals and rows = t.eb0 in
  for row = 0 to (Array.length rows / 5) - 1 do
    let p = 5 * row in
    t.last <- rows.(p);
    let i = rows.(p + 1) and r = rows.(p + 3) and v = rows.(p + 4) in
    let tin = token_in codes.(i) and tout = token_out codes.(rows.(p + 2)) in
    let full = regs.(r) = 1 in
    assert (not (tin && full && not tout));
    if tin then begin
      assert (has_data i);
      vals.(v) <- payload i;
      regs.(r) <- 1
    end
    else if tout then begin
      vals.(v) <- Value.Unit;
      regs.(r) <- 0
    end
  done

(* ------------------------------------------------------------------ *)
(* Eager fork with anti-token join.  Slot [j] is branch [j]'s done     *)
(* flag, slot [k + j] its count of pending anti-tokens.                *)

let clock_fork t ~codes =
  let regs = t.regs and rows = t.fork in
  let p = ref 0 in
  while !p < Array.length rows do
    let p0 = !p in
    t.last <- rows.(p0);
    let cin = codes.(rows.(p0 + 1)) and r = rows.(p0 + 2)
    and k = rows.(p0 + 3) in
    (* Branch [j]'s pending anti-token count is slot [q + j]. *)
    let q = r + k in
    for j = 0 to k - 1 do
      let c = codes.(rows.(p0 + 4 + j)) in
      if anti_in c then regs.(q + j) <- regs.(q + j) + 1;
      if token_out c then regs.(r + j) <- 1
    done;
    if token_in cin then
      (* The input token is fully distributed: branches not served by a
         transfer were cancelled by a stored anti-token. *)
      for j = 0 to k - 1 do
        if regs.(r + j) = 0 then begin
          assert (regs.(q + j) > 0);
          regs.(q + j) <- regs.(q + j) - 1
        end;
        regs.(r + j) <- 0
      done;
    if anti_out cin then
      for j = 0 to k - 1 do
        assert (regs.(q + j) > 0);
        regs.(q + j) <- regs.(q + j) - 1
      done;
    p := p0 + 4 + k
  done

(* ------------------------------------------------------------------ *)
(* Early-evaluation multiplexor (§2, §4.1): fires on select + selected *)
(* data, emitting one anti-token into every non-selected input per     *)
(* transfer.  Slot [j] holds the kills not yet delivered to input [j]; *)
(* it is unbounded in this model (a physical controller would stop     *)
(* firing at some queue depth), which over-approximates the paper's    *)
(* behavior and only matters if an upstream refuses anti-tokens        *)
(* indefinitely.                                                       *)

let clock_emux t ~codes ~has_data ~payload =
  let regs = t.regs and rows = t.emux in
  let p = ref 0 in
  while !p < Array.length rows do
    let p0 = !p in
    t.last <- rows.(p0);
    let r = rows.(p0 + 2) and k = rows.(p0 + 3) in
    if token_out codes.(rows.(p0 + 4 + k)) then begin
      let sel = rows.(p0 + 1) in
      assert (has_data sel);
      let s = Value.to_int (payload sel) in
      for j = 0 to k - 1 do
        if j <> s then regs.(r + j) <- regs.(r + j) + 1
      done
    end;
    for j = 0 to k - 1 do
      if anti_out codes.(rows.(p0 + 4 + j)) then begin
        assert (regs.(r + j) > 0);
        regs.(r + j) <- regs.(r + j) - 1
      end
    done;
    p := p0 + 5 + k
  done

(* ------------------------------------------------------------------ *)
(* Shared elastic module with speculation scheduler (Fig. 4).  The     *)
(* scheduler sees the raw drive of its predicted way's output: a stop  *)
(* is a stop even on a cancelling channel.                             *)

let clock_shared t ~codes ~has_data ~payload =
  let rows = t.shared in
  let p = ref 0 and row = ref 0 in
  while !p < Array.length rows do
    let p0 = !p in
    t.last <- rows.(p0);
    let sched = t.scheds.(!row) in
    let g = Scheduler.predict sched in
    let out = codes.(rows.(p0 + 4 + g)) and h = rows.(p0 + 1) in
    let hint =
      if h >= 0 && token_out codes.(h) && has_data h then
        Value.to_int (payload h)
      else 0
    in
    Scheduler.observe sched ~valid:(out land vp <> 0) ~stop:(out land sp <> 0)
      ~served:(if token_out out then g else -1)
      ~hint;
    p := p0 + 4 + rows.(p0 + 3);
    incr row
  done

(* ------------------------------------------------------------------ *)
(* Stalling variable-latency unit (Fig. 6(a)).  A token is served in one *)
(* cycle when the approximation is correct, two otherwise; the sender is *)
(* stalled while the slow path completes.  The unit neither emits nor    *)
(* accepts anti-tokens (the non-speculative design has none).  The int   *)
(* slot counts the cycles before the held result becomes visible at the *)
(* output, -1 when empty; the payload slot holds the precomputed result. *)

let clock_varlat t ~codes ~has_data ~payload =
  let regs = t.regs and vals = t.vals and rows = t.varlat in
  for row = 0 to (Array.length rows / 5) - 1 do
    let p = 5 * row in
    t.last <- rows.(p);
    let i = rows.(p + 1) and r = rows.(p + 3) and v = rows.(p + 4) in
    if token_out codes.(rows.(p + 2)) then begin
      regs.(r) <- -1;
      vals.(v) <- Value.Unit
    end;
    if token_in codes.(i) then begin
      assert (has_data i);
      let x = payload i in
      let f = 3 * row in
      let wrong = Value.to_int (t.vfns.(f + 2).Func.eval1 x) <> 0 in
      vals.(v) <- t.vfns.(if wrong then f + 1 else f).Func.eval1 x;
      regs.(r) <- (if wrong then 2 else 1)
    end;
    if regs.(r) > 0 then regs.(r) <- regs.(r) - 1
  done

let clock t ~codes ~has_data ~payload =
  clock_sources t ~codes;
  clock_stall t;
  clock_eb t ~codes ~has_data ~payload;
  clock_eb0 t ~codes ~has_data ~payload;
  clock_fork t ~codes;
  clock_emux t ~codes ~has_data ~payload;
  clock_shared t ~codes ~has_data ~payload;
  clock_varlat t ~codes ~has_data ~payload

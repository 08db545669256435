(* Flat-arena evaluator for the combinational phase of a cycle.

   The Reference backend ([Reference]) evaluates each node's
   [Control.table] (the equations the exports print) to a Kleene fixed
   point over its own store.  This module is the second, independent
   coding of the same controllers, split into the halves of the sweep
   over the half graph [Halves] reads from those tables: a node's F
   half writes its outputs' V+, payload and S-, its B half its inputs'
   S+ and V- (a shared module has a pair per way).  The sweep is
   acyclic (the engine refuses a cyclic half graph), so every field a
   half reads is settled before it runs, each half runs once per cycle
   and control is two-valued.

   Correctness contract: wires, payloads, traces, errors and metrics are
   the reference fixpoint's; only the evaluation counts differ (one per
   half), which the committed goldens (test/*.expected) lock.  The
   differential suite checks the arena against the reference fixpoint
   over the exported tables, an independent oracle.

   Memory layout (see DESIGN.md §5e):
   - [ctrl.(c)]: channel [c]'s raw control code ([Signal.code] layout),
     the engine's own [codes] array, which the post-settle phases read
     in place.  A half ORs its fields in; [reset] clears them.
   - [force.(c)]: the override, packed as [(mask lsl 4) lor level]; a
     forced field reads [(computed land lnot mask) lor level], applied
     on every write ([put]).
   - [driven.(c)]/[dval.(c)]: whether the channel's payload is driven
     this cycle, and the [Value.t] the producing node wrote, stored and
     handed on as it is (payloads ride beside the handshake; only the
     mux select is read).  [has_data]/[payload] read it, and the
     substitute of a forced-valid wire ([replayed.(c)]/[subst.(c)]),
     without building an option.
   - the node tables are the engine's [Nodes.t]: node [i]'s register
     base [rb.(i)], payload base [vb.(i)], select [sel.(i)] (-1 for
     none) and its ports in [port] from [pi.(i)] (inputs) and [po.(i)]
     (outputs) to [pe.(i)], all ints; a join's list is [port.(jl.(i))]
     to [port.(po.(i) - 1)] (its inputs, behind a lazy mux's select).
   - [tags.(k)]: the role and direction of the sweep's half [k],
     [2 * role + backward] over [Nodes.role]'s tags, on which
     [settle] dispatches.
   - [pn]: [Profile.per_node], the one eval counter, bumped in place
     once per half.
   - [fns1.(i)]/[fns.(i)]: node [i]'s data function, its unary entry
     ([Func.eval1]) and its list form.  A join of one input and a
     shared module apply [fns1] to the payload itself, and a lazy mux
     forwards the input its select names, so a step allocates only
     what the functions return; only a join of several inputs builds
     an argument list. *)

open Elastic_kernel
open Elastic_netlist

exception Undetermined

let vp = Signal.v_plus_bit

let sp = Signal.s_plus_bit

let vm = Signal.v_minus_bit

let sm = Signal.s_minus_bit

type t = {
  (* Per-channel state. *)
  ctrl : int array;
  force : int array;
  driven : bool array;
  dval : Value.t array;  (* meaningful where [driven] *)
  ov_map : (Value.t -> Value.t) option array;
  replayed : bool array;
  subst : Value.t array;  (* meaningful where [replayed] *)
  (* The node tables ([Nodes.t]'s own arrays).  The nodes' registers and
     stored payloads are the engine's arrays, which only the clock edge
     writes, in Instance's slot layout. *)
  insts : Instance.t array;  (* a source's offered value *)
  regs : int array;
  vals : Value.t array;
  rb : int array;
  vb : int array;
  sel : int array;
  pi : int array;
  po : int array;
  pe : int array;
  port : int array;
  jl : int array;  (* where a join's list starts in [port] *)
  fns : (Value.t list -> Value.t) array;  (* join data function, list form *)
  fns1 : (Value.t -> Value.t) array;
      (* unary join / shared data function ([Func.eval1]), applied to the
         payload itself *)
  sweep : int array;  (* the half graph's, [Halves.t] *)
  tags : int array;  (* per half of [sweep], [2 * role + backward] *)
  pn : int array;  (* [profile]'s per-node counters, bumped in place *)
  mutable last_eval : int;  (* node evaluating when an exception escaped *)
}

let create ~sweep ~profile ~codes (nt : Nodes.t) =
  let insts = nt.Nodes.insts in
  let n_nodes = Array.length insts in
  let sz = max n_nodes 1 in
  let fns = Array.make sz (fun _ -> (assert false : Value.t)) in
  let fns1 = Array.make sz (fun _ -> (assert false : Value.t)) in
  (* Both forms of a node's data function: joins of one input (unary
     stages, shared modules) apply [eval1] to the payload itself. *)
  let func i f =
    fns.(i) <- f.Func.eval;
    fns1.(i) <- f.Func.eval1
  in
  let jl =
    Array.mapi
      (fun i inst ->
         match (Instance.node inst).Netlist.kind with
         | Netlist.Func f ->
           func i f;
           nt.Nodes.pi.(i)
         | Netlist.Mux { ways; early = false } ->
           (* The late mux is a join over [sel :: ins]: [f_join]
              forwards the selected input itself, and [Func.select]
              remains only for a mux with no data input, whose join of
              one takes the unary path. *)
           func i (Func.select ~ways ());
           nt.Nodes.pi.(i) - 1
         | Netlist.Shared { f; _ } ->
           func i f;
           0
         | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
         | Netlist.Fork _ | Netlist.Mux _ | Netlist.Varlat _ -> 0)
      insts
  in
  let csz = max (Array.length codes) 1 in
  { ctrl = codes;
    force = Array.make csz 0;
    driven = Array.make csz false;
    dval = Array.make csz Value.Unit;
    ov_map = Array.make csz None;
    replayed = Array.make csz false;
    subst = Array.make csz Value.Unit;
    insts; regs = nt.Nodes.regs; vals = nt.Nodes.vals;
    rb = nt.Nodes.rb; vb = nt.Nodes.vb; sel = nt.Nodes.sel;
    pi = nt.Nodes.pi; po = nt.Nodes.po; pe = nt.Nodes.pe;
    port = nt.Nodes.port; jl; fns; fns1;
    sweep;
    tags =
      Array.map
        (fun h ->
           (2 * nt.Nodes.role.(Halves.node h)) + Bool.to_int (Halves.backward h))
        sweep;
    pn = Profile.per_node_array profile;
    last_eval = 0 }

(* ------------------------------------------------------------------ *)
(* Wire access                                                         *)

(* Hot-path indices below are structural — compiled from the schedule
   at [create] and bounded by construction — so the accessors skip the
   bounds checks.  The one data-dependent index in the evaluator (the
   mux select in [select]) gets an explicit range check: the
   [Instance.bad_select] error it raises on an out-of-range select is
   part of the error contract shared with the Reference. *)

(* Is field [f] of channel [c] asserted? *)
let[@inline] is t c f = Array.unsafe_get t.ctrl c land f <> 0

let[@inline] bit b f = if b then f else 0

(* Write the fields [b] of channel [c]: a forced field keeps its forced
   level whatever the half computed. *)
let[@inline] put t c b =
  let f = Array.unsafe_get t.force c in
  Array.unsafe_set t.ctrl c
    (Array.unsafe_get t.ctrl c lor (b land lnot (f lsr 4)) lor (f land 15))

let[@inline] forced t c f = (Array.unsafe_get t.force c lsr 4) land f <> 0

(* Node [i]'s ports, from the node tables: the dense channel indices of
   its [j]th input and output, and of its select (-1 when it has none). *)
let[@inline] in_w t i j = Array.unsafe_get t.port (Array.unsafe_get t.pi i + j)

let[@inline] out_w t i j =
  Array.unsafe_get t.port (Array.unsafe_get t.po i + j)

let[@inline] sel_w t i = Array.unsafe_get t.sel i

(* As in the Reference: a forced-valid wire with no driven data yields
   the substitute payload (token duplication). *)
let[@inline] replays t c =
  Array.unsafe_get t.replayed c && Array.unsafe_get t.force c land vp <> 0

let[@inline] has_data t c = Array.unsafe_get t.driven c || replays t c

(* The payload of a channel that [has_data]. *)
let payload t c =
  if Array.unsafe_get t.driven c then Array.unsafe_get t.dval c
  else if replays t c then t.subst.(c)
  else assert false

let set_data t c v =
  let v =
    match Array.unsafe_get t.ov_map c with None -> v | Some f -> f v
  in
  Array.unsafe_set t.driven c true;
  Array.unsafe_set t.dval c v

(* Verbatim data move (fork / mux). *)
let copy_data t src dst =
  if has_data t src then set_data t dst (payload t src)

(* ------------------------------------------------------------------ *)
(* Node halves: each controller's equations, hand-written onto the raw
   codes.  They compute what the node's [Control.table] states, reading
   every channel field as the wire shows it (a forced field at its
   forced level), own outputs included.  A payload follows the V+ a
   half computes, as the Reference's does. *)

(* Register [k] and payload slot [k] of node [i], in Instance's layout:
   slot 0 is a source's offering flag, a sink's stalling flag, a
   buffer's occupancy, a varlat's countdown (-1 when empty) or a shared
   module's prediction (its scheduler's first slot); a fork with [k]
   branches keeps its done flags from slot 0 and its pending anti-tokens
   from slot [k]; an early mux its undelivered kills. *)
let[@inline] reg t i k =
  Array.unsafe_get t.regs (Array.unsafe_get t.rb i + k)

let[@inline] stored t i k =
  Array.unsafe_get t.vals (Array.unsafe_get t.vb i + k)

let f_source t i =
  let out = out_w t i 0 in
  let offering = reg t i 0 = 1 in
  put t out (bit offering vp);
  if offering then set_data t out (Instance.source_value t.insts.(i))

let b_sink t i = put t (in_w t i 0) (bit (reg t i 0 = 1) sp)

let f_eb t i =
  let out = out_w t i 0 and n = reg t i 0 in
  put t out (bit (n > 0) vp lor bit (n <= -2) sm);
  if n > 0 then set_data t out (stored t i 0)

let b_eb t i =
  let n = reg t i 0 in
  put t (in_w t i 0) (bit (n >= 2) sp lor bit (n < 0) vm)

let f_eb0 t i =
  let inw = in_w t i 0 and out = out_w t i 0 in
  let full = reg t i 0 = 1 in
  put t out (bit full vp lor bit ((not full) && is t inw sm) sm);
  if full then set_data t out (stored t i 0)

let b_eb0 t i =
  let inw = in_w t i 0 and out = out_w t i 0 in
  let full = reg t i 0 = 1 in
  let leaving = full && ((not (is t out sp)) || is t out vm) in
  put t inw
    (bit (full && not leaving) sp lor bit ((not full) && is t out vm) vm)

(* A lazy join over [port.(lo)] to [port.(hi - 1)], its output at
   [port.(hi)]: the output is valid when every input is; an input is
   consumable unless it is invalid with an anti-token stopped at it. *)
let join_data t i lo hi =
  let port = t.port in
  let out = Array.unsafe_get port hi in
  let all_data = ref true in
  for j = lo to hi - 1 do
    if not (has_data t (Array.unsafe_get port j)) then all_data := false
  done;
  if !all_data then
    if hi - lo = 1 then
      set_data t out
        (Array.unsafe_get t.fns1 i (payload t (Array.unsafe_get port lo)))
    else
      let sel = sel_w t i in
      if sel >= 0 then begin
        (* A lazy mux (its join list is [sel :: ins]) forwards the data
           input its select names, as [Func.select] does, with no
           argument list. *)
        let s = Value.to_int (payload t sel) in
        if s < 0 || s >= hi - lo - 1 then Instance.bad_select s;
        set_data t out (payload t (Array.unsafe_get port (lo + 1 + s)))
      end
      else begin
        (* Built back to front by a loop: a local recursive function
           would allocate its closure on every application. *)
        let args = ref [] in
        for j = hi - 1 downto lo do
          args := payload t (Array.unsafe_get port j) :: !args
        done;
        set_data t out (Array.unsafe_get t.fns i !args)
      end

let f_join t i =
  let port = t.port in
  let lo = Array.unsafe_get t.jl i and hi = Array.unsafe_get t.po i in
  let out = Array.unsafe_get port hi in
  let all_valid = ref true and consumable = ref true in
  for j = lo to hi - 1 do
    let c = Array.unsafe_get port j in
    if not (is t c vp) then begin
      all_valid := false;
      if is t c sm then consumable := false
    end
  done;
  put t out (bit !all_valid vp);
  if !all_valid then join_data t i lo hi;
  put t out (bit ((not (is t out vp)) && not !consumable) sm)

(* An input's stop: the other inputs all valid and the output's
   effective stop low, negated. *)
let b_join t i =
  let port = t.port in
  let lo = Array.unsafe_get t.jl i and hi = Array.unsafe_get t.po i in
  let out = Array.unsafe_get port hi in
  let invalid = ref 0 and consumable = ref true in
  for j = lo to hi - 1 do
    let c = Array.unsafe_get port j in
    if not (is t c vp) then begin
      incr invalid;
      if is t c sm then consumable := false
    end
  done;
  let s_eff = is t out sp && not (is t out vm) in
  let kill = is t out vm && (not (is t out vp)) && !consumable in
  for j = lo to hi - 1 do
    let c = Array.unsafe_get port j in
    let others_valid = !invalid = 0 || (!invalid = 1 && not (is t c vp)) in
    put t c (bit (s_eff || not others_valid) sp lor bit kill vm)
  done

let f_fork t i =
  let inw = in_w t i 0 in
  let vin = is t inw vp in
  let port = t.port and r = Array.unsafe_get t.rb i in
  let lo = Array.unsafe_get t.po i and hi = Array.unsafe_get t.pe i in
  let k = hi - lo in
  for j = 0 to k - 1 do
    let out = Array.unsafe_get port (lo + j) in
    let pj = Array.unsafe_get t.regs (r + k + j) in
    let v = vin && Array.unsafe_get t.regs (r + j) = 0 && pj = 0 in
    put t out (bit v vp lor bit (pj >= 2) sm);
    if v then copy_data t inw out
  done

(* The input stops until every branch is complete: done, owed an
   anti-token, or taking the token now. *)
let b_fork t i =
  let inw = in_w t i 0 in
  let port = t.port and r = Array.unsafe_get t.rb i in
  let lo = Array.unsafe_get t.po i and hi = Array.unsafe_get t.pe i in
  let k = hi - lo in
  let all_complete = ref true and all_pending = ref true in
  for j = 0 to k - 1 do
    let out = Array.unsafe_get port (lo + j) in
    let pj = Array.unsafe_get t.regs (r + k + j) in
    let taking = is t out vp && ((not (is t out sp)) || is t out vm) in
    if not (Array.unsafe_get t.regs (r + j) = 1 || pj > 0 || taking) then
      all_complete := false;
    if pj <= 0 then all_pending := false
  done;
  put t inw
    (bit (not !all_complete) sp
     lor bit (!all_pending && not (is t inw vp)) vm)

(* The select value: the payload of a valid select, -1 while the select
   is invalid or carries no payload. *)
let select t selw n =
  if is t selw vp && has_data t selw then begin
    let s = Value.to_int (payload t selw) in
    if s < 0 || s >= n then Instance.bad_select s;
    s
  end
  else -1

(* An early mux fires on a valid select and the selected input, unless
   that input is owed a kill.  A valid select with no payload leaves
   the output undetermined unless no input could be selected. *)
let f_emux t i =
  let selw = sel_w t i and out = out_w t i 0 in
  let port = t.port and r = Array.unsafe_get t.rb i in
  let lo = Array.unsafe_get t.pi i in
  let n = Array.unsafe_get t.po i - lo in
  let sv = select t selw n in
  let v =
    if sv >= 0 then
      Array.unsafe_get t.regs (r + sv) = 0
      && is t (Array.unsafe_get port (lo + sv)) vp
    else begin
      if is t selw vp && not (forced t out vp) then
        for j = 0 to n - 1 do
          if Array.unsafe_get t.regs (r + j) = 0
          && is t (Array.unsafe_get port (lo + j)) vp
          then raise Undetermined
        done;
      false
    end
  in
  put t out (bit v vp);
  if v then copy_data t (Array.unsafe_get port (lo + sv)) out;
  (* Anti-tokens reaching the mux output wait for a token to cancel. *)
  put t out (bit (not (is t out vp)) sm)

(* On firing, every input but the selected one takes a kill; an input
   owed one takes it first.  The mux never kills its select stream. *)
let b_emux t i =
  let selw = sel_w t i and out = out_w t i 0 in
  let port = t.port and r = Array.unsafe_get t.rb i in
  let lo = Array.unsafe_get t.pi i in
  let n = Array.unsafe_get t.po i - lo in
  let fire = is t out vp && ((not (is t out sp)) || is t out vm) in
  put t selw (bit (not fire) sp);
  let sv = if fire then select t selw n else -1 in
  for j = 0 to n - 1 do
    let c = Array.unsafe_get port (lo + j) in
    if Array.unsafe_get t.regs (r + j) > 0 then put t c vm
    else if not fire then put t c sp
    else if sv >= 0 then put t c (bit (j <> sv) vm)
    else begin
      (* A forced output fires with no select value: which inputs take
         a kill is undetermined, and so is the lone input's stop while
         the select is valid. *)
      let selv = is t selw vp in
      if (n > 1 && not (forced t c vm))
      || ((n > 1 || selv) && not (forced t c sp))
      then raise Undetermined;
      put t c (bit (not selv) sp)
    end
  done

(* Way [j] of a shared module: the granted way, its prediction, passes
   its token, gated on the hint for way 0; the other ways stall their
   inputs. *)
let f_shared t i j =
  let inw = in_w t i j and out = out_w t i j in
  let granted = j = reg t i 0 in
  let vin = is t inw vp in
  let hint = sel_w t i in
  let gate = hint < 0 || j <> 0 || is t hint vp in
  put t out (bit (granted && vin && gate) vp);
  if granted && vin && has_data t inw then
    set_data t out (Array.unsafe_get t.fns1 i (payload t inw));
  put t out (bit ((not (is t out vp)) && is t inw sm && not vin) sm)

let b_shared t i j =
  let inw = in_w t i j and out = out_w t i j in
  let hint = sel_w t i in
  let kill = is t out vm in
  if j = reg t i 0 then begin
    let fire = is t out vp && ((not (is t out sp)) || kill) in
    put t inw (bit (not fire) sp lor bit (kill && not (is t out vp)) vm);
    if hint >= 0 && j = 0 then put t hint (bit (not fire) sp)
  end
  else begin
    put t inw (bit (not kill) sp lor bit kill vm);
    if hint >= 0 && j = 0 then put t hint sp
  end

let f_varlat t i =
  let out = out_w t i 0 in
  let ready = reg t i 0 = 0 in
  put t out (bit ready vp lor bit (not ready) sm);
  if ready then set_data t out (stored t i 0)

let b_varlat t i =
  let c = reg t i 0 in
  put t (in_w t i 0) (bit (c > 0 || (c = 0 && is t (out_w t i 0) sp)) sp)

(* Each half of the sweep once, in order, dispatched on its tag
   ([2 * role + backward], roles as [Nodes.role] numbers them); no
   source has a B half and no sink an F half. *)
let settle t =
  let sweep = t.sweep and tags = t.tags and pn = t.pn in
  for k = 0 to Array.length sweep - 1 do
    let h = Array.unsafe_get sweep k in
    let i = Halves.node h in
    Array.unsafe_set pn i (Array.unsafe_get pn i + 1);
    t.last_eval <- i;
    match Array.unsafe_get tags k with
    | 0 -> f_join t i
    | 1 -> b_join t i
    | 2 -> f_source t i
    | 5 -> b_sink t i
    | 6 -> f_eb t i
    | 7 -> b_eb t i
    | 8 -> f_eb0 t i
    | 9 -> b_eb0 t i
    | 10 -> f_fork t i
    | 11 -> b_fork t i
    | 12 -> f_emux t i
    | 13 -> b_emux t i
    | 14 -> f_shared t i (Halves.way h)
    | 15 -> b_shared t i (Halves.way h)
    | 16 -> f_varlat t i
    | 17 -> b_varlat t i
    | _ -> ()
  done;
  if Array.length sweep = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Cycle bookkeeping                                                   *)

(* Plain stores of immediates: [Array.fill] on an array in the major
   heap costs a write-barrier check per slot. *)
let reset t =
  let ctrl = t.ctrl and driven = t.driven in
  for c = 0 to Array.length ctrl - 1 do
    Array.unsafe_set ctrl c 0
  done;
  for c = 0 to Array.length driven - 1 do
    Array.unsafe_set driven c false
  done

let clear_overrides t =
  Array.fill t.force 0 (Array.length t.force) 0;
  Array.fill t.ov_map 0 (Array.length t.ov_map) None;
  Array.fill t.replayed 0 (Array.length t.replayed) false

let set_override t c (ov : Instance.override) =
  t.force.(c) <- Instance.force_code ov;
  t.ov_map.(c) <- ov.Instance.map_data;
  t.replayed.(c) <- false

let substitute t c v =
  t.replayed.(c) <- true;
  t.subst.(c) <- v

let last_eval t = t.last_eval

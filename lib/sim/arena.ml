(* Flat-arena evaluator for the combinational phase of a cycle.

   The Reference backend evaluates each node's [Control.table] (the
   equations the exports print) over per-channel records of
   [bool option] fields ([Wires] + [Instance.evaluator]).  This module
   is the second, independent coding of the same controllers: it runs
   the static half-node sweep ([Schedule]) on preallocated flat arrays:
   channel ids index packed integer control words, node ids index the
   engine's [Instance.t] array, and the settle loop is a tight int loop
   with no per-field closures or record allocation.

   Correctness contract: Kleene monotonicity gives one fixed point
   whatever the evaluation order, so wires, payloads, traces, errors and
   metrics are the reference fixpoint's; the sweep alone fixes the eval
   counts and settle passes, which the committed goldens
   (test/*.expected) lock.  The differential suite checks the arena
   against the reference fixpoint over the exported tables, an
   independent oracle that reaches the same unique fixed point.

   Memory layout (see DESIGN.md §5e):
   - [ctrl.(c)]: four 2-bit Kleene codes packed per channel —
     V+ at bit 0, S+ at bit 2, V- at bit 4, S- at bit 6.
     Code 0 = unknown, 2 = known-false, 3 = known-true, so
     "known" is bit 1 and negation is [lxor 1] on known codes.
   - [force.(c)]: override codes in the same packing (0 = unforced).
   - [driven.(c)]/[dval.(c)]: whether the channel's payload is driven
     this cycle, and the [Value.t] the producing node wrote, stored and
     handed on as it is (payloads ride beside the handshake; only the
     mux select is read).  [has_data]/[payload] read it, and the
     substitute of a forced-valid wire, without building an option.
   - [written]/[written_n]: bump-allocated write log replacing the
     [Wires.written] cons list: a cyclic region's progress signal and
     the E110 provenance (iterated top-down = most-recent-first).
   - a node's ports are its [Instance.t]'s own ([Instance.ins],
     [outs], [sel] of [insts.(i)]), read in place; the only derived
     port list is a lazy mux's join list [sel :: ins] in [joins] (a
     function stage's join list is [Instance.ins] itself).
   - [pn]: [Profile.per_node], the one eval counter, bumped in place;
     [settle] returns the cycle's pass count, taken from its growth.
   - [fns1.(i)]/[fns.(i)]: node [i]'s data function, its unary entry
     ([Func.eval1]) and its list form.  A join of one input and a
     shared module apply [fns1] to the payload itself, and a lazy mux
     forwards the input its select names, so a step allocates only
     what the functions return; only a join of several inputs builds
     an argument list. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

(* Raised when an SCC iteration exhausts its safety budget; the engine
   converts it into the E110 non-convergence error. *)
exception Did_not_converge

(* 2-bit Kleene codes over ints, as 16-entry truth tables indexed by
   [(a lsl 2) lor b].  The settle loop's Kleene operands are
   data-dependent, so table lookups (always L1-hot) beat the
   mispredict-prone compare chains; rows for the invalid code 1 are
   don't-cares. *)
let kand_tab = [| 0; 0; 2; 0; 0; 0; 0; 0; 2; 2; 2; 2; 0; 0; 2; 3 |]

let kor_tab = [| 0; 0; 0; 3; 0; 0; 0; 0; 0; 0; 2; 3; 3; 3; 3; 3 |]

let knot_tab = [| 0; 0; 3; 2 |]

let[@inline] knot x = Array.unsafe_get knot_tab x

let[@inline] kand a b = Array.unsafe_get kand_tab ((a lsl 2) lor b)

(* Fused forms of the recurring [knot] compositions, one lookup each:
   [kandn a b] = a AND NOT b, [korn a b] = a OR NOT b,
   [knor a b] = NOT (a OR b). *)
let fuse2 f =
  Array.init 16 (fun x -> f (x lsr 2) (x land 3))

let kandn_tab = fuse2 (fun a b -> Array.unsafe_get kand_tab ((a lsl 2) lor Array.unsafe_get knot_tab b))

let korn_tab = fuse2 (fun a b -> Array.unsafe_get kor_tab ((a lsl 2) lor Array.unsafe_get knot_tab b))

let knor_tab = fuse2 (fun a b -> Array.unsafe_get knot_tab (Array.unsafe_get kor_tab ((a lsl 2) lor b)))

let[@inline] kandn a b = Array.unsafe_get kandn_tab ((a lsl 2) lor b)

let[@inline] korn a b = Array.unsafe_get korn_tab ((a lsl 2) lor b)

let[@inline] knor a b = Array.unsafe_get knor_tab ((a lsl 2) lor b)

let[@inline] code_of_bool b = 2 lor Bool.to_int b

(* Field offsets inside a packed control word. *)
let vp = 0

let sp = 2

let vm = 4

let sm = 6

type t = {
  nchan : int;
  (* Per-channel packed state. *)
  ctrl : int array;
  force : int array;
  driven : bool array;
  dval : Value.t array;  (* meaningful where [driven] *)
  ov_map : (Value.t -> Value.t) option array;
  ov_subst : Value.t option array;
  (* Write log since the reset or the current region sweep began; a
     non-empty log is a region's progress signal. *)
  written : int array;
  mutable written_n : int;
  (* Flat node table.  The nodes' registers and stored payloads are
     the engine's own arrays, which only the clock edge writes, in
     Instance's slot layout. *)
  insts : Instance.t array;
  regs : int array;
  vals : Value.t array;
  joins : int array array;
      (* a join's inputs, argument order: [Instance.ins] itself for a
         function stage, [sel :: ins] for a lazy mux, empty otherwise *)
  fns : (Value.t list -> Value.t) array;  (* join data function, list form *)
  fns1 : (Value.t -> Value.t) array;
      (* unary join / shared data function ([Func.eval1]), applied to the
         payload itself *)
  (* Settle machinery (preallocated). *)
  sweep : int array;  (* [Schedule.sweep] *)
  regions : int array array;  (* [Schedule.regions] *)
  scratch : int array;  (* per-port Kleene codes (valids / completions) *)
  pn : int array;  (* [profile]'s per-node counters, bumped in place *)
  mutable last_eval : int;  (* node evaluating when an exception escaped *)
  (* Any control-field force installed?  [set_code] skips the per-write
     force lookup in the (benchmarked) fault-free case. *)
  mutable forced_any : bool;
}

let create ~schedule ~profile ~nchan ~regs ~vals insts =
  let n_nodes = Array.length insts in
  let sz = max n_nodes 1 in
  let fns = Array.make sz (fun _ -> (assert false : Value.t)) in
  let fns1 = Array.make sz (fun _ -> (assert false : Value.t)) in
  let max_fan = ref 1 in
  (* Both forms of a node's data function: joins of one input (unary
     stages, shared modules) apply [eval1] to the payload itself. *)
  let func i f =
    fns.(i) <- f.Func.eval;
    fns1.(i) <- f.Func.eval1
  in
  let joins =
    Array.mapi
      (fun i inst ->
         let ins = Instance.ins inst in
         max_fan :=
           max !max_fan
             (max (Array.length ins) (Array.length (Instance.outs inst)));
         match (Instance.node inst).Netlist.kind with
         | Netlist.Func f ->
           func i f;
           ins
         | Netlist.Mux { ways; early = false } ->
           (* The late mux is a join over [sel :: ins]: [eval_join]
              forwards the selected input itself, and [Func.select]
              remains only for a mux with no data input, whose join of
              one takes the unary path. *)
           let all = Array.append [| Option.get (Instance.sel inst) |] ins in
           max_fan := max !max_fan (Array.length all);
           func i (Func.select ~ways ());
           all
         | Netlist.Shared { f; _ } ->
           func i f;
           [||]
         | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
         | Netlist.Fork _ | Netlist.Mux _ | Netlist.Varlat _ -> [||])
      insts
  in
  let csz = max nchan 1 in
  { nchan;
    ctrl = Array.make csz 0;
    force = Array.make csz 0;
    driven = Array.make csz false;
    dval = Array.make csz Value.Unit;
    ov_map = Array.make csz None;
    ov_subst = Array.make csz None;
    written = Array.make ((5 * nchan) + 8) 0;
    written_n = 0;
    insts; regs; vals; joins; fns; fns1;
    sweep = schedule.Schedule.sweep;
    regions = schedule.Schedule.regions;
    scratch = Array.make !max_fan 0;
    pn = Profile.per_node_array profile;
    last_eval = 0;
    forced_any = false }

(* ------------------------------------------------------------------ *)
(* Wire access                                                         *)

(* Hot-path indices below are structural — compiled from the schedule
   at [create] and bounded by construction — so the accessors skip the
   bounds checks.  The one data-dependent index in the evaluator (the
   mux select in [eval_emux]) gets an explicit range check: the
   [Instance.bad_select] error it raises on an out-of-range select is
   part of the error contract shared with the Reference.  The write log
   cannot overflow: every entry is guarded by a write-once test, so at
   most five writes per channel fit the [5 * nchan + 8] buffer. *)

let[@inline] get t c off = (Array.unsafe_get t.ctrl c lsr off) land 3

(* Node [i]'s ports, read from its instance: the dense channel indices
   of its inputs, outputs and select (-1 when it has none). *)
let[@inline] ins t i = Instance.ins (Array.unsafe_get t.insts i)

let[@inline] outs t i = Instance.outs (Array.unsafe_get t.insts i)

let[@inline] in_w t i j = Array.unsafe_get (ins t i) j

let[@inline] out_w t i j = Array.unsafe_get (outs t i) j

let[@inline] sel_w t i =
  match Instance.sel (Array.unsafe_get t.insts i) with
  | Some s -> s
  | None -> -1

let[@inline] push_written t c =
  Array.unsafe_set t.written t.written_n c;
  t.written_n <- t.written_n + 1

(* Write-once semantics of [Wires.set_bit]: an override replaces the
   written value; a first write logs progress; a contradicting re-write
   raises the same [Wires.Conflict] the Reference raises (the field
   names must match for identical error rendering). *)
let set_code t c off field code =
  let code =
    if not t.forced_any then code
    else begin
      let f = (Array.unsafe_get t.force c lsr off) land 3 in
      if f <> 0 then f else code
    end
  in
  let w = Array.unsafe_get t.ctrl c in
  let cur = (w lsr off) land 3 in
  if cur = 0 then begin
    Array.unsafe_set t.ctrl c (w lor (code lsl off));
    push_written t c
  end
  else if cur <> code then raise (Wires.Conflict { wire = c; field })

let[@inline] set_bool t c off field b =
  set_code t c off field (code_of_bool b)

(* Combined write of two control fields of one wire: one ctrl load and
   store, one write-log entry.  Only for nonzero codes (unconditional
   writes).  Equivalent to two [set_code] calls: the log is only a
   progress signal, so one entry serves as two, and conflict precedence
   follows field order.  Overrides fall back to the per-field path. *)
let set_code2 t c off1 field1 code1 off2 field2 code2 =
  if t.forced_any then begin
    set_code t c off1 field1 code1;
    set_code t c off2 field2 code2
  end
  else begin
    let w = Array.unsafe_get t.ctrl c in
    let cur1 = (w lsr off1) land 3 in
    let add =
      if cur1 = 0 then code1 lsl off1
      else if cur1 <> code1 then
        raise (Wires.Conflict { wire = c; field = field1 })
      else 0
    in
    let cur2 = (w lsr off2) land 3 in
    let add =
      if cur2 = 0 then add lor (code2 lsl off2)
      else if cur2 <> code2 then
        raise (Wires.Conflict { wire = c; field = field2 })
      else add
    in
    if add <> 0 then begin
      Array.unsafe_set t.ctrl c (w lor add);
      push_written t c
    end
  end

let[@inline] set_bool2 t c off1 f1 b1 off2 f2 b2 =
  set_code2 t c off1 f1 (code_of_bool b1) off2 f2 (code_of_bool b2)

(* Write only once determined, as the Reference does. *)
let[@inline] kput t c off field code =
  if code <> 0 then set_code t c off field code

(* Mirrors [Wires.data]: a forced-valid wire with no driven data yields
   the substitute payload (token duplication / forgery faults). *)
let[@inline] subst t c =
  if Array.unsafe_get t.force c land 3 = 3 then t.ov_subst.(c) else None

let[@inline] has_data t c =
  Array.unsafe_get t.driven c || Option.is_some (subst t c)

(* The payload of a channel that [has_data]. *)
let payload t c =
  if Array.unsafe_get t.driven c then Array.unsafe_get t.dval c
  else match subst t c with Some v -> v | None -> assert false

(* Write-once payload: a re-write must be the stored value or an equal
   one, since a map-data override builds a fresh value each time the
   writer re-evaluates in a cyclic region. *)
let set_data t c v =
  let v =
    match Array.unsafe_get t.ov_map c with None -> v | Some f -> f v
  in
  if not (Array.unsafe_get t.driven c) then begin
    Array.unsafe_set t.driven c true;
    Array.unsafe_set t.dval c v;
    push_written t c
  end
  else begin
    let old = Array.unsafe_get t.dval c in
    if not (v == old || Value.equal v old) then
      raise (Wires.Conflict { wire = c; field = "data" })
  end

(* Verbatim data move (fork / mux). *)
let copy_data t src dst =
  if has_data t src then set_data t dst (payload t src)

(* ------------------------------------------------------------------ *)
(* Node evaluation: each controller's equations, hand-written onto
   packed codes.  They compute what the node's [Control.table] states;
   the paired writes below never write a field another statement of
   the same body reads. *)

(* Register [k] and payload slot [k] of node [i], in Instance's layout:
   slot 0 is a source's offering flag, a sink's stalling flag, a
   buffer's occupancy or a varlat's countdown (-1 when empty); a fork
   with [k] branches keeps its done flags from slot 0 and its pending
   anti-tokens from slot [k]; an early mux its undelivered kills. *)
let[@inline] reg t i k =
  Array.unsafe_get t.regs (Instance.reg_base (Array.unsafe_get t.insts i) + k)

let[@inline] stored t i k =
  Array.unsafe_get t.vals (Instance.val_base (Array.unsafe_get t.insts i) + k)

let eval_source t i =
  let out = out_w t i 0 in
  let offering = reg t i 0 = 1 in
  set_bool2 t out vp "V+" offering sm "S-" false;
  if offering then set_data t out (Instance.source_value t.insts.(i))

let eval_sink t i =
  let inw = in_w t i 0 in
  set_bool2 t inw sp "S+" (reg t i 0 = 1) vm "V-" false

let eval_eb t i =
  let inw = in_w t i 0 and out = out_w t i 0 in
  let n = reg t i 0 in
  set_bool2 t inw sp "S+" (n >= 2) vm "V-" (n < 0);
  set_bool2 t out vp "V+" (n > 0) sm "S-" (n <= -2);
  if n > 0 then set_data t out (stored t i 0)

let eval_eb0 t i =
  let inw = in_w t i 0 and out = out_w t i 0 in
  if reg t i 0 = 1 then begin
    set_bool2 t out vp "V+" true sm "S-" false;
    set_data t out (stored t i 0);
    set_bool t inw vm "V-" false;
    let leaving = korn (get t out vm) (get t out sp) in
    kput t inw sp "S+" (knot leaving)
  end
  else begin
    set_bool t out vp "V+" false;
    set_bool t inw sp "S+" false;
    kput t inw vm "V-" (get t out vm);
    kput t out sm "S-" (get t inw sm)
  end

(* Arity-1 joins (unary [Func] stages — the common datapath case)
   collapse the generic join equations: the lone input's "other
   members" conjunction is vacuous, so the stall passthrough is just
   the effective output stall.  Same writes in the same order as
   [eval_join] at [n = 1]. *)
let eval_join1 t i inw =
  let out = out_w t i 0 in
  let v = get t inw vp in
  kput t out vp "V+" v;
  if v = 3 && (not (Array.unsafe_get t.driven out)) && has_data t inw then
    set_data t out (Array.unsafe_get t.fns1 i (payload t inw));
  let s_eff = kandn (get t out sp) (get t out vm) in
  kput t inw sp "S+" s_eff;
  let consumable = korn v (get t inw sm) in
  let anti_backward =
    kand (kandn (get t out vm) (get t out vp)) consumable
  in
  kput t inw vm "V-" anti_backward;
  kput t out sm "S-" (knor (get t out vp) consumable)

let eval_join t i ports =
  let n = Array.length ports in
  let out = out_w t i 0 in
  let valids = t.scratch in
  let all_valid = ref 3 in
  for j = 0 to n - 1 do
    let v = get t (Array.unsafe_get ports j) vp in
    Array.unsafe_set valids j v;
    all_valid := kand !all_valid v
  done;
  kput t out vp "V+" !all_valid;
  (* Data functions are pure combinational maps, so once the output
     payload is driven a re-evaluation inside an SCC would recompute
     the same value ([set_data] would compare equal) — skip the
     argument-list build and application entirely. *)
  if !all_valid = 3 && not (Array.unsafe_get t.driven out) then begin
    let all_data = ref true in
    for j = 0 to n - 1 do
      if not (has_data t (Array.unsafe_get ports j)) then
        all_data := false
    done;
    if !all_data then begin
      match Instance.sel (Array.unsafe_get t.insts i) with
      | Some sel ->
        (* A lazy mux (its join list is [sel :: ins]) forwards the data
           input its select names, as [Func.select] does, with no
           argument list. *)
        let s = Value.to_int (payload t sel) in
        if s < 0 || s >= n - 1 then Instance.bad_select s;
        set_data t out (payload t (Array.unsafe_get ports (1 + s)))
      | None ->
        (* Built back to front by a loop: a local recursive function
           would allocate its closure on every application. *)
        let args = ref [] in
        for j = n - 1 downto 0 do
          args := payload t (Array.unsafe_get ports j) :: !args
        done;
        set_data t out (Array.unsafe_get t.fns i !args)
    end
  end;
  let s_eff = kandn (get t out sp) (get t out vm) in
  for j = 0 to n - 1 do
    let others = ref 3 in
    for l = 0 to n - 1 do
      if l <> j then others := kand !others (Array.unsafe_get valids l)
    done;
    kput t (Array.unsafe_get ports j) sp "S+"
      (knot (kandn !others s_eff))
  done;
  let consumable = ref 3 in
  for j = 0 to n - 1 do
    consumable :=
      kand !consumable
        (korn
           (Array.unsafe_get valids j)
           (get t (Array.unsafe_get ports j) sm))
  done;
  let anti_backward =
    kand (kandn (get t out vm) (get t out vp)) !consumable
  in
  for j = 0 to n - 1 do
    kput t (Array.unsafe_get ports j) vm "V-" anti_backward
  done;
  kput t out sm "S-" (knor (get t out vp) !consumable)

let eval_fork t i =
  let inw = in_w t i 0 in
  let vin = get t inw vp in
  let outs = outs t i in
  let k = Array.length outs in
  let completions = t.scratch in
  for j = 0 to k - 1 do
    let out = Array.unsafe_get outs j in
    let dj = reg t i j = 1 and pj = reg t i (k + j) in
    let active = (not dj) && pj = 0 in
    let v_out = if active then vin else 2 in
    kput t out vp "V+" v_out;
    if v_out = 3 then copy_data t inw out;
    set_bool t out sm "S-" (pj >= 2);
    let t_out = kand v_out (korn (get t out vm) (get t out sp)) in
    Array.unsafe_set completions j (if dj || pj > 0 then 3 else t_out)
  done;
  let all_c = ref 3 in
  for j = 0 to k - 1 do
    all_c := kand !all_c (Array.unsafe_get completions j)
  done;
  kput t inw sp "S+" (knot !all_c);
  let all_pending = ref true in
  for j = 0 to k - 1 do
    if reg t i (k + j) <= 0 then all_pending := false
  done;
  kput t inw vm "V-" (kandn (code_of_bool !all_pending) vin)

let eval_emux t i =
  let selw = sel_w t i and out = out_w t i 0 in
  let sel_v = get t selw vp in
  let sv_known, sv =
    if sel_v = 3 && has_data t selw then (true, Value.to_int (payload t selw))
    else (false, 0)
  in
  let ins = ins t i in
  let n = Array.length ins in
  if sv_known && (sv < 0 || sv >= n) then Instance.bad_select sv;
  let v_out =
    if sel_v = 2 then 2
    else if sv_known then
      (if reg t i sv > 0 then 2 else get t (Array.unsafe_get ins sv) vp)
    else 0
  in
  kput t out vp "V+" v_out;
  if v_out = 3 && sv_known then copy_data t (Array.unsafe_get ins sv) out;
  let fire = kand v_out (korn (get t out vm) (get t out sp)) in
  kput t selw sp "S+" (knot fire);
  (* The mux never kills its select stream. *)
  set_bool t selw vm "V-" false;
  for j = 0 to n - 1 do
    let inw = Array.unsafe_get ins j in
    if reg t i j > 0 then begin
      set_bool t inw vm "V-" true;
      set_bool t inw sp "S+" false
    end
    else begin
      let fresh_kill =
        if sel_v = 2 then 2
        else if sv_known then (if j = sv then 2 else fire)
        else 0
      in
      kput t inw vm "V-" fresh_kill;
      if sv_known && j = sv then kput t inw sp "S+" (knot fire)
      else kput t inw sp "S+" (knot fresh_kill)
    end
  done;
  (* Anti-tokens reaching the mux output wait for a token to cancel. *)
  kput t out sm "S-" (knot v_out)

let eval_shared t i sched =
  let g = Scheduler.predict sched in
  let ins = ins t i and outs = outs t i in
  let k = Array.length ins in
  for j = 0 to k - 1 do
    if j <> g then set_bool t (Array.unsafe_get outs j) vp "V+" false
  done;
  let in_g = Array.unsafe_get ins g and out_g = Array.unsafe_get outs g in
  let hint = sel_w t i in
  let hint_v = if hint >= 0 && g = 0 then get t hint vp else 3 in
  kput t out_g vp "V+" (kand (get t in_g vp) hint_v);
  (* Same pure-function skip as [eval_join]: once driven, a re-eval
     would recompute the identical payload. *)
  if get t in_g vp = 3 && (not (Array.unsafe_get t.driven out_g))
     && has_data t in_g
  then set_data t out_g (Array.unsafe_get t.fns1 i (payload t in_g));
  let fire = kand (get t out_g vp) (korn (get t out_g vm) (get t out_g sp)) in
  kput t in_g sp "S+" (knot fire);
  if hint >= 0 then begin
    set_bool t hint vm "V-" false;
    if g = 0 then kput t hint sp "S+" (knot fire)
    else set_bool t hint sp "S+" true
  end;
  for j = 0 to k - 1 do
    let inw = Array.unsafe_get ins j and out = Array.unsafe_get outs j in
    if j = g then
      kput t inw vm "V-" (kandn (get t out vm) (get t out vp))
    else begin
      kput t inw vm "V-" (get t out vm);
      kput t inw sp "S+" (knot (get t out vm))
    end;
    kput t out sm "S-"
      (kand (knot (get t out vp)) (kandn (get t inw sm) (get t inw vp)))
  done

let eval_varlat t i =
  let inw = in_w t i 0 and out = out_w t i 0 in
  match reg t i 0 with
  | 0 ->
    set_bool t inw vm "V-" false;
    set_bool2 t out sm "S-" false vp "V+" true;
    set_data t out (stored t i 0);
    kput t inw sp "S+" (get t out sp)
  | c when c > 0 ->
    set_bool2 t out sm "S-" true vp "V+" false;
    set_bool2 t inw vm "V-" false sp "S+" true
  | _ ->
    set_bool2 t out sm "S-" true vp "V+" false;
    set_bool2 t inw vm "V-" false sp "S+" false

let eval_node t i =
  Array.unsafe_set t.pn i (Array.unsafe_get t.pn i + 1);
  t.last_eval <- i;
  match Instance.role (Array.unsafe_get t.insts i) with
  | Instance.Source _ -> eval_source t i
  | Instance.Sink _ -> eval_sink t i
  | Instance.Eb -> eval_eb t i
  | Instance.Eb0 -> eval_eb0 t i
  | Instance.Fork -> eval_fork t i
  | Instance.Emux -> eval_emux t i
  | Instance.Shared { sched; _ } -> eval_shared t i sched
  | Instance.Varlat _ -> eval_varlat t i
  | Instance.Stateless ->
    let ports = Array.unsafe_get t.joins i in
    if Array.length ports = 1 then eval_join1 t i (Array.unsafe_get ports 0)
    else eval_join t i ports

(* ------------------------------------------------------------------ *)
(* Settle driver: the static sweep on the flat state.  Each entry of
   [sweep] evaluates one node at one of its half positions; a negative
   entry sweeps a cyclic region's members until a sweep writes nothing.
   The cycle's pass count is 1, or the most sweeps any region took (0
   with no nodes). *)

(* Monotone write-once wires bound a region to [5 * nchan] writing
   sweeps; the budget, the engine's default pass budget, is a safety
   valve against a non-monotone eval bug. *)
let settle_region t members =
  let budget = (5 * t.nchan) + 16 in
  (* Loops, not a local recursive function, whose closure would be
     allocated on every call. *)
  let sweeps = ref 0 and writing = ref true in
  while !writing do
    incr sweeps;
    if !sweeps > budget then raise Did_not_converge;
    t.written_n <- 0;
    for m = 0 to Array.length members - 1 do
      eval_node t (Array.unsafe_get members m)
    done;
    writing := t.written_n > 0
  done;
  !sweeps

let settle t =
  let sweep = t.sweep in
  let passes = ref (if Array.length sweep = 0 then 0 else 1) in
  for k = 0 to Array.length sweep - 1 do
    let i = Array.unsafe_get sweep k in
    if i >= 0 then eval_node t i
    else begin
      let sweeps = settle_region t (Array.unsafe_get t.regions (-1 - i)) in
      if sweeps > !passes then passes := sweeps
    end
  done;
  !passes

(* ------------------------------------------------------------------ *)
(* Cycle bookkeeping and observation                                   *)

let reset t =
  Array.fill t.ctrl 0 (Array.length t.ctrl) 0;
  Array.fill t.driven 0 (Array.length t.driven) false;
  t.written_n <- 0

let clear_overrides t =
  t.forced_any <- false;
  Array.fill t.force 0 (Array.length t.force) 0;
  Array.fill t.ov_map 0 (Array.length t.ov_map) None;
  Array.fill t.ov_subst 0 (Array.length t.ov_subst) None

let set_override t c (ov : Wires.override) =
  let pack o off acc =
    match o with
    | None -> acc
    | Some b -> acc lor ((if b then 3 else 2) lsl off)
  in
  let f =
    pack ov.Wires.force_v_plus vp 0
    |> pack ov.Wires.force_s_plus sp
    |> pack ov.Wires.force_v_minus vm
  in
  t.force.(c) <- f;
  if f <> 0 then t.forced_any <- true;
  t.ov_map.(c) <- ov.Wires.map_data;
  t.ov_subst.(c) <- ov.Wires.subst_data;
  (* Seed forced bits so readers see them before (and regardless of) the
     driving node's write — mirrors [Wires.set_override]: no progress or
     written-log bookkeeping. *)
  let seed off =
    let fc = (f lsr off) land 3 in
    if fc <> 0 && (t.ctrl.(c) lsr off) land 3 = 0 then
      t.ctrl.(c) <- t.ctrl.(c) lor (fc lsl off)
  in
  seed vp;
  seed sp;
  seed vm

let unknown_count t =
  let n = ref 0 in
  for c = 0 to t.nchan - 1 do
    let x = t.ctrl.(c) in
    if (x lsr vp) land 2 = 0 then incr n;
    if (x lsr sp) land 2 = 0 then incr n;
    if (x lsr vm) land 2 = 0 then incr n;
    if (x lsr sm) land 2 = 0 then incr n
  done;
  !n

let undetermined t c =
  let x = t.ctrl.(c) in
  (x lsr vp) land 2 = 0
  || (x lsr sp) land 2 = 0
  || (x lsr vm) land 2 = 0
  || (x lsr sm) land 2 = 0

(* Channels in the write log, most-recent-first (error paths only). *)
let written_channels t =
  let rec go wi acc =
    if wi >= t.written_n then acc
    else go (wi + 1) (t.written.(wi) :: acc)
  in
  go 0 []

let last_eval t = t.last_eval

(* Raw control code ([Signal.code] layout) of each packed control
   word: a bit is asserted when its field is known-true. *)
let code_of_ctrl =
  Array.init 256 (fun x ->
      let bit off b = if (x lsr off) land 3 = 3 then b else 0 in
      bit vp Signal.v_plus_bit
      lor bit sp Signal.s_plus_bit
      lor bit vm Signal.v_minus_bit
      lor bit sm Signal.s_minus_bit)

let fill_codes t codes =
  for c = 0 to t.nchan - 1 do
    Array.unsafe_set codes c
      (Array.unsafe_get code_of_ctrl (Array.unsafe_get t.ctrl c))
  done

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type error = {
  err_cycle : int;
  err_node : Netlist.node_id option;
  err_channel : Netlist.channel_id option;
  err_code : string option;
  err_msg : string;
}

exception Simulation_error of error

let error ?code ?node ?channel ~cycle msg =
  { err_cycle = cycle; err_node = node; err_channel = channel;
    err_code = code; err_msg = msg }

let fail ?code ?node ?channel ~cycle msg =
  raise (Simulation_error (error ?code ?node ?channel ~cycle msg))

let pp_error ppf e =
  Fmt.pf ppf "cycle %d%a%a%a: %s" e.err_cycle
    Fmt.(option (fmt " [%s]"))
    e.err_code
    Fmt.(option (fmt ", node %d"))
    e.err_node
    Fmt.(option (fmt ", channel %d"))
    e.err_channel e.err_msg

let error_to_string e = Fmt.str "%a" pp_error e

type fault_wire = {
  fw_chan : Netlist.channel_id;
  fw_override : Instance.override;
  fw_replay : bool;
}

type fault_row = {
  fr_wires : fault_wire array;
  fr_predict : (Netlist.node_id * int) list;
}

type fault_schedule = { fs_first : int; fs_rows : fault_row array }

type eval_mode = Reference | Arena

let mode_name = function Reference -> "reference" | Arena -> "arena"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "reference" -> Some Reference
  | "arena" -> Some Arena
  | _ -> None

let default_mode = Arena

(* The combinational-phase store and evaluators: an arena engine builds
   no Reference, but on the error path of [arena_error]. *)
type backend = Reference of Reference.t | Arena of Arena.t

type snap = {
  sn_cycle : int;
  sn_regs : int array;
  sn_vals : Value.t array;
  sn_violations : (int * Protocol.violation) list;
  sn_starvation : string list;
  sn_counts : int array;
  sn_sinks : Transfer.t array;  (* in [sinks] order *)
}

(* A sink node, its input channel's dense index and its stream (shared
   with [sink_streams]). *)
type sink = { sk_node : Netlist.node_id; sk_chan : int; sk_stream : Transfer.t ref }

type t = {
  net : Netlist.t;
  backend : backend;
  insts : Instance.t array;  (* dense node order *)
  nodes : Nodes.t;
      (* the flat node tables the begin-cycle, the clock edge and the
         arena read *)
  regs : int array;
      (* every node's registers, Instance's slot layout, then the
         monitors' and the watchdog's *)
  vals : Value.t array;  (* every node's stored payloads, then the monitors' *)
  future : int array;  (* the [regs] slots [same_future] compares *)
  chans : Netlist.channel array;  (* dense order *)
  ch_index : (Netlist.channel_id, int) Hashtbl.t;
  mon_base : int;  (* the monitor of dense channel [i] has [regs] slot
                      [mon_base + i] *)
  mon_vals : int array;
      (* per channel, the [vals] slot of its monitor's retry payload, -1
         where Retry+ is not checked; empty if monitoring disabled *)
  liveness_bound : int;
  sweep : int array;
  profile : Profile.t;
  max_passes : int;
  max_cycles : int option;
  mutable cycle : int;
  codes : int array;
      (* the elapsed cycle's raw control code per dense channel
         ([Signal.code] layout): the arena settles into it, the
         Reference's wires are copied into it after settle *)
  has_data : int -> bool;
      (* does a dense channel with V+ in [codes] carry a payload? *)
  payload : int -> Value.t;
      (* the payload of a channel that [has_data], read from the backend
         on demand; neither builds an option *)
  counts : int array;
      (* of the channel of dense index [i] with [n] channels: tokens
         delivered at [i] and annihilated at [n + i], cycles with V+ &
         S+ (resolved) at [2n + i] and with V- asserted at [3n + i].  A
         cycle with V+ asserted is one of the first three. *)
  sink_streams : (Netlist.node_id, Transfer.t ref) Hashtbl.t;
  sinks : sink array;  (* dense node order *)
  wait_slot : int array;
      (* per channel feeding a shared module, the [regs] slot of the
         leads-to watchdog's wait counter; -1 for the others *)
  mutable violation_log : (int * Protocol.violation) list;
      (* newest first, each with its dense channel index *)
  mutable starvation : string list;
  mutable faults : fault_schedule option;
  mutable row : fault_wire array;  (* installed by the last step *)
  mutable forced : (Scheduler.t * int) array array;
      (* per schedule row, its forced predictions resolved to the
         scheduler and way; empty when no row forces one *)
  mutable replay : int array;  (* dense channels the schedule replays *)
  mutable kept : Value.t array;
      (* per dense channel, its last payload seen; sized only for a
         schedule that replays *)
  mutable observers : (t -> unit) array;  (* run in order, end of cycle *)
  clock : Clock.t;
}

let[@inline] bump counts i = counts.(i) <- counts.(i) + 1

(* [f] of each element of [a] that satisfies [p], in order: counted
   first, then filled, so no list is built. *)
let select p f a =
  let n = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 a in
  let next = ref 0 in
  Array.init n (fun _ ->
      while not (p a.(!next)) do incr next done;
      incr next;
      f a.(!next - 1))

(* Observers call this per channel per cycle, so it allocates nothing.
   A channel id is usually its own dense index (channels listed in id
   order); the table covers any other numbering. *)
let dense_index t cid =
  if cid >= 0 && cid < Array.length t.chans
     && t.chans.(cid).Netlist.ch_id = cid
  then cid
  else
    match Hashtbl.find t.ch_index cid with
    | i -> i
    | exception Not_found ->
      fail ~cycle:t.cycle ~channel:cid (Fmt.str "unknown channel id %d" cid)

(* "E102" is Elastic_lint's comb-cycle rule: the static analogue of a
   combinational cycle, found by [create] in the half graph or by the
   Reference at runtime (the sim layer cannot depend on the lint
   library, so the code is quoted; a registry test keeps it honest). *)
let undetermined_error ~cycle (undetermined : Netlist.channel list) =
  let names =
    List.map (fun (c : Netlist.channel) -> c.Netlist.ch_name) undetermined
  in
  let node, channel =
    match undetermined with
    | [] -> (None, None)
    | c :: _ -> (Some c.Netlist.src.Netlist.ep_node, Some c.Netlist.ch_id)
  in
  error ~code:"E102" ?node ?channel ~cycle
    (Fmt.str "combinational cycle, undetermined channels: %s"
       (String.concat ", " names))

let create ?(monitor = true) ?(liveness_bound = 64) ?mode ?max_passes
    ?max_cycles ?(clock = Clock.monotonic) net =
  let mode : eval_mode = Option.value mode ~default:default_mode in
  let compile_t0 = clock () in
  (match max_cycles with
   | Some n when n < 0 -> invalid_arg "Engine.create: negative max_cycles"
   | Some _ | None -> ());
  (match Netlist.diagnostics net with
   | [] -> ()
   | d :: _ as ds ->
     (* Same message as the historical string API, but the first
        diagnostic lends its lint rule code and provenance. *)
     fail ~cycle:0 ~code:d.Diagnostic.code ?node:d.Diagnostic.node
       ?channel:d.Diagnostic.channel
       ("invalid netlist: "
        ^ String.concat "; "
            (List.map
               (fun (d : Diagnostic.t) -> d.Diagnostic.message)
               ds)));
  (* The half graph: dense node and channel order, ports and sweep. *)
  let halves = Halves.build net in
  let nodes = halves.Halves.nodes in
  (* A shared module and a variable-latency unit apply their functions
     to one payload through [Func.eval1]: their arity is checked here,
     once, and never per application.  (A function stage's arity is its
     input count by construction.) *)
  let unary (n : Netlist.node) (f : Func.t) =
    if f.Func.arity <> 1 then
      fail ~cycle:0 ~node:n.Netlist.id
        (Fmt.str "node %s: function %s has arity %d, but a shared module \
                  or variable-latency unit applies it to one payload"
           n.Netlist.name f.Func.name f.Func.arity)
  in
  (* "E101" is Elastic_lint's buffer-overfilled rule, quoted like E102
     in [undetermined_error]; checked before any node is compiled. *)
  Array.iter
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Buffer { buffer; init }
         when List.length init > Netlist.buffer_capacity buffer ->
         fail ~cycle:0 ~code:"E101" ~node:n.Netlist.id
           (Fmt.str
              "buffer %s holds %d initial tokens but %s has capacity %d"
              n.Netlist.name (List.length init)
              (Netlist.buffer_kind_name buffer)
              (Netlist.buffer_capacity buffer))
       | Netlist.Shared { f; _ } -> unary n f
       | Netlist.Varlat { fast; slow; err } ->
         unary n fast;
         unary n slow;
         unary n err
       | _ -> ())
    nodes;
  let chans = halves.Halves.channels in
  let ch_index = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Netlist.channel) -> Hashtbl.add ch_index c.Netlist.ch_id i)
    chans;
  (* A monitored engine's own slots follow the nodes': an int slot per
     channel for its protocol monitor, then one for the watchdog's wait
     counter on each shared-module input; and a payload slot per channel
     Retry+ covers, for the monitor's retry payload.  Numbered here from
     0 within each group. *)
  let count f =
    let k = ref 0 in
    let slots =
      Array.map (fun c -> if monitor && f c then (incr k; !k - 1) else -1)
        chans
    in
    (!k, slots)
  in
  let waits, wait_slot =
    count (fun (c : Netlist.channel) ->
        match (Netlist.node net c.Netlist.dst.ep_node).Netlist.kind with
        | Netlist.Shared _ -> true
        | _ -> false)
  in
  let paid, mon_vals = count (Netlist.persistent net) in
  let nmon = if monitor then Array.length chans else 0 in
  let regs, vals, insts =
    Instance.layout nodes ~ports:halves.Halves.ports
      ~spare:(nmon + waits) ~spare_vals:paid
  in
  let mon_base = Array.length regs - waits - nmon in
  Array.fill regs mon_base nmon Protocol.fresh;
  let shift base = Array.map (fun k -> if k < 0 then k else base + k) in
  let wait_slot = shift (mon_base + nmon) wait_slot in
  let mon_vals =
    if monitor then shift (Array.length vals - paid) mon_vals else [||]
  in
  let sinks =
    select
      (fun inst ->
         match Instance.role inst with Instance.Sink _ -> true | _ -> false)
      (fun inst ->
         { sk_node = (Instance.node inst).Netlist.id;
           sk_chan = (Instance.ins inst).(0); sk_stream = ref Transfer.empty })
      insts
  in
  let sink_streams = Hashtbl.create 8 in
  Array.iter (fun sk -> Hashtbl.replace sink_streams sk.sk_node sk.sk_stream)
    sinks;
  (* Monotone evaluation writes each of a channel's five fields at most
     once, so [5 * nchan] passes always suffice; the slack covers the
     final no-progress pass on tiny netlists. *)
  let default_max_passes = (5 * Array.length chans) + 16 in
  (* A cyclic half graph is a combinational loop, refused in both modes
     with the code and wording of the runtime check below. *)
  (match halves.Halves.regions with
   | [] -> ()
   | cs :: _ ->
     raise
       (Simulation_error
          (undetermined_error ~cycle:0 (List.map (fun i -> chans.(i)) cs))));
  let profile = Profile.create ~n_nodes:(Array.length insts) in
  let codes = Array.make (Array.length chans) 0 in
  let max_passes = Option.value max_passes ~default:default_max_passes in
  let tables = Nodes.create insts ~regs ~vals in
  let backend =
    match mode with
    | Arena ->
      Arena (Arena.create ~sweep:halves.Halves.sweep ~profile ~codes tables)
    | Reference ->
      Reference
        (Reference.create ~profile ~max_passes ~regs ~vals
           ~channels:(Array.length chans) insts)
  in
  let valid i = codes.(i) land Signal.v_plus_bit <> 0 in
  let has_data, payload =
    match backend with
    | Arena ar ->
      ((fun i -> valid i && Arena.has_data ar i), Arena.payload ar)
    | Reference r ->
      ((fun i -> valid i && Reference.has_data r i), Reference.payload r)
  in
  (* Everything above — diagnostics, node compilation, schedule build,
     arena packing — is the compile phase of this engine's ledger. *)
  Profile.set_compile_seconds profile
    (Clock.seconds_between compile_t0 (clock ()));
  (* The nodes' future slots, then the monitors', then the watchdog's
     wait counters in channel order. *)
  let future =
    let nodes =
      Array.fold_left
        (fun k inst -> Instance.fold_future inst (fun k _ -> k + 1) k)
        0 insts
    in
    let future = Array.make (nodes + nmon + waits) 0 in
    let put k s = future.(k) <- s; k + 1 in
    let k =
      Array.fold_left (fun k inst -> Instance.fold_future inst put k) 0 insts
    in
    for j = 0 to nmon - 1 do
      future.(k + j) <- mon_base + j
    done;
    ignore
      (Array.fold_left (fun k s -> if s >= 0 then put k s else k) (k + nmon)
         wait_slot);
    future
  in
  { net; backend; insts; regs; vals; future;
    nodes = tables;
    chans; ch_index; mon_base; mon_vals; liveness_bound;
    sweep = halves.Halves.sweep;
    profile;
    max_passes;
    max_cycles;
    cycle = 0;
    codes;
    has_data;
    payload;
    counts = Array.make (4 * Array.length chans) 0;
    sink_streams;
    sinks;
    faults = None;
    row = [||];
    forced = [||];
    replay = [||];
    kept = [||];
    observers = [||];
    clock;
    wait_slot;
    violation_log = [];
    starvation = [] }

let netlist t = t.net

let cycle t = t.cycle

let mode t : eval_mode =
  match t.backend with Arena _ -> Arena | Reference _ -> Reference

let profile t = t.profile

let sweep t = t.sweep

let conflict_error t ~chan ~field =
  let ch = t.chans.(chan) in
  fail ~cycle:t.cycle ~node:ch.Netlist.src.Netlist.ep_node
    ~channel:ch.Netlist.ch_id
    (Fmt.str "conflicting write to %s of channel %s" field
       ch.Netlist.ch_name)

let invariant_error t ~node e =
  (* Internal node invariants can only break under injected faults;
     report them with provenance instead of a bare backtrace. *)
  fail ~cycle:t.cycle ~node
    (Fmt.str "node invariant violated during evaluation: %s"
       (Printexc.to_string e))

(* Name the channels whose wires changed during the final pass — the
   diff of the last two passes is exactly the non-converging set.
   "E110" is the settle/cycle-budget timeout code (see
   [undetermined_error] for the convention on quoting lint codes
   here). *)
let non_convergence_error t ~passes changing =
  let names =
    List.map (fun i -> t.chans.(i).Netlist.ch_name) changing
  in
  let node, channel =
    match changing with
    | [] -> (None, None)
    | i :: _ ->
      (Some t.chans.(i).Netlist.src.Netlist.ep_node,
       Some t.chans.(i).Netlist.ch_id)
  in
  raise
    (Simulation_error
       (error ~code:"E110" ?node ?channel ~cycle:t.cycle
          (Fmt.str
             "combinational evaluation did not converge after %d passes; \
              channels still changing between the last two passes: %s"
             passes
             (String.concat ", " names))))

(* A forced prediction as the scheduler it forces and the way. *)
let forced_prediction t (nid, way) =
  let refuse why =
    fail ~cycle:t.cycle ~node:nid
      (Fmt.str "forced prediction %d at node %d: %s" way nid why)
  in
  match
    Array.find_opt
      (fun inst -> (Instance.node inst).Netlist.id = nid)
      t.insts
  with
  | None -> refuse "the netlist has no such node"
  | Some inst -> (
      match (Instance.role inst, (Instance.node inst).Netlist.kind) with
      | Instance.Shared { sched; _ }, Netlist.Shared { ways; _ } ->
        if way < 0 || way >= ways then
          refuse (Fmt.str "the module has ways 0..%d" (ways - 1))
        else (sched, way)
      | _ -> refuse "the node is not a shared module")

(* Checks every channel and forced prediction up front; the payloads
   kept for the replay channels start afresh. *)
let set_faults t faults =
  let rows = match faults with Some fs -> fs.fs_rows | None -> [||] in
  let forced =
    if Array.for_all (fun r -> r.fr_predict = []) rows then [||]
    else
      Array.map
        (fun r -> Array.of_list (List.map (forced_prediction t) r.fr_predict))
        rows
  in
  let replay = ref [] in
  for r = 0 to Array.length rows - 1 do
    let wires = rows.(r).fr_wires in
    for k = 0 to Array.length wires - 1 do
      let i = dense_index t wires.(k).fw_chan in
      if wires.(k).fw_replay && not (List.mem i !replay) then
        replay := i :: !replay
    done
  done;
  t.faults <- faults;
  t.forced <- forced;
  t.replay <- Array.of_list !replay;
  if Array.length t.replay > 0 then
    t.kept <- Array.make (Array.length t.chans) (Value.Int 0)

let add_observer t f = t.observers <- Array.append t.observers [| f |]

let set_observer t obs =
  t.observers <- (match obs with None -> [||] | Some f -> [| f |])

(* Observers call this every cycle; a cycle without faults costs no
   allocation. *)
let injected t =
  if Array.length t.row = 0 then []
  else Array.fold_right (fun w acc -> w.fw_chan :: acc) t.row []

(* Install a row's wire: a replay duplicates the payload kept for the
   channel. *)
let install t backend w =
  let i = dense_index t w.fw_chan in
  match backend with
  | Arena ar ->
    Arena.set_override ar i w.fw_override;
    if w.fw_replay then Arena.substitute ar i t.kept.(i)
  | Reference r ->
    Reference.set_override r i w.fw_override;
    if w.fw_replay then Reference.substitute r i t.kept.(i)

(* Clear the last step's overrides and install the schedule's row for
   this cycle, if it has one; returns the row's forced predictions,
   resolved by [set_faults]. *)
let install_faults t =
  if Array.length t.row > 0 then begin
    (match t.backend with
     | Arena ar -> Arena.clear_overrides ar
     | Reference r -> Reference.clear_overrides r);
    t.row <- [||]
  end;
  match t.faults with
  | Some fs
    when t.cycle >= fs.fs_first
         && t.cycle - fs.fs_first < Array.length fs.fs_rows ->
    let row = fs.fs_rows.(t.cycle - fs.fs_first) in
    for k = 0 to Array.length row.fr_wires - 1 do
      install t t.backend row.fr_wires.(k)
    done;
    t.row <- row.fr_wires;
    if Array.length t.forced = 0 then [||]
    else t.forced.(t.cycle - fs.fs_first)
  | Some _ | None -> [||]

(* The cycle-budget watchdog: a task that keeps stepping a pathological
   netlist (runaway replay storm, non-draining workload) hits a typed
   E110 timeout instead of hanging its worker forever.  Checked before
   the cycle runs, so an engine created with [max_cycles:n] simulates
   exactly [n] cycles and the error is raised by step [n+1]. *)
let check_cycle_budget t =
  match t.max_cycles with
  | Some budget when t.cycle >= budget ->
    fail ~code:"E110" ~cycle:t.cycle
      (Fmt.str
         "cycle budget exhausted: %d cycles simulated (max_cycles %d)"
         t.cycle budget)
  | Some _ | None -> ()

(* The Reference's settled codes, into [codes]; a field it left
   unknown is a combinational cycle. *)
let export t r =
  try Reference.export r t.codes with
  | Reference.Undetermined cs ->
    raise
      (Simulation_error
         (undetermined_error ~cycle:t.cycle
            (List.map (fun i -> t.chans.(i)) cs)))

(* Settle, returning the pass count, with each backend's typed failures
   rendered; the evaluating node of an exception that escapes a node's
   evaluation is the backend's last-eval cursor. *)
let rec settle t backend =
  try
    match backend with
    | Arena ar -> Arena.settle ar
    | Reference r -> Reference.settle r
  with
  | Arena.Undetermined -> arena_error t
  | Reference.Conflict { chan; field } -> conflict_error t ~chan ~field
  | Reference.Diverged { passes; changing } ->
    non_convergence_error t ~passes changing
  | (Assert_failure _ | Invalid_argument _) as e ->
    let i =
      match backend with
      | Arena ar -> Arena.last_eval ar
      | Reference r -> Reference.last_eval r
    in
    invariant_error t ~node:(Instance.node t.insts.(i)).Netlist.id e

(* The arena's one undetermined field (see [Arena.Undetermined]): the
   cycle is settled again by a Reference, with this row's overrides and
   the nodes' state as they stand, and the Reference's error is
   raised. *)
and arena_error t =
  let r =
    Reference.create ~profile:t.profile ~max_passes:t.max_passes
      ~regs:t.regs ~vals:t.vals ~channels:(Array.length t.chans) t.insts
  in
  Array.iter (install t (Reference r)) t.row;
  ignore (settle t (Reference r));
  export t r;
  (* The arena raises only where the Reference leaves a field
     undetermined. *)
  assert false

(* A code whose receiver takes a token: V+ with neither S+ nor V-. *)
let token_in_mask = Signal.(v_plus_bit lor s_plus_bit lor v_minus_bit)

let rec log_violations t i = function
  | [] -> ()
  | v :: rest ->
    t.violation_log <- (i, v) :: t.violation_log;
    log_violations t i rest

let step ?(choices = fun _ -> None) t =
  check_cycle_budget t;
  (match t.backend with
   | Arena ar -> Arena.reset ar
   | Reference r -> Reference.reset r);
  let forced = install_faults t in
  Nodes.begin_cycle t.nodes ~choices;
  (* Forced after [choices], so a fault's prediction wins. *)
  for k = 0 to Array.length forced - 1 do
    let sched, way = forced.(k) in
    Scheduler.force sched way
  done;
  let t0 = Clock.read_ns t.clock in
  let passes = settle t t.backend in
  (* Stop the settle timer before the Reference's determinism check so
     the recorded time covers only the settle phase itself — the E9
     speedup record compares backends on this number. *)
  let settle_ns = Clock.read_ns t.clock - t0 in
  (match t.backend with Arena _ -> () | Reference r -> export t r);
  let n = Array.length t.chans in
  let codes = t.codes in
  Profile.record_cycle t.profile ~passes ~ns:settle_ns;
  (* Post-settle: everything below reads the codes; payloads are
     fetched only where a token moves (or a monitor's retry is
     pending).  Its cost follows what moved: one pass over the channels
     whose quiet ones take a few bit tests, then the sinks, then the
     clock edge of only the nodes that keep state.  Nothing here
     allocates in a fault-free cycle but the sinks' [Transfer]
     records. *)
  (* Keep the replay channels' payloads until the schedule ends. *)
  (match t.faults with
   | Some fs when t.cycle < fs.fs_first + Array.length fs.fs_rows ->
     for j = 0 to Array.length t.replay - 1 do
       let i = t.replay.(j) in
       if t.has_data i then t.kept.(i) <- t.payload i
     done
   | Some _ | None -> ());
  (* One pass over the channels: the protocol monitor, the counters and
     the leads-to watchdog each read the channel's code once.  A quiet
     monitor cycle is a few bit tests ([Protocol.fast_step]); any other
     runs the full [Protocol.step]. *)
  let regs = t.regs and counts = t.counts in
  let monitored = Array.length t.mon_vals > 0 in
  for i = 0 to n - 1 do
    let raw = codes.(i) in
    if monitored then begin
      let slot = t.mon_base + i and vslot = t.mon_vals.(i) in
      let w =
        Protocol.fast_step ~persistent:(vslot >= 0)
          ~liveness_bound:t.liveness_bound ~word:regs.(slot) raw
      in
      if w <> Protocol.needs_step then regs.(slot) <- w
      else
        match
          Protocol.step ~regs ~slot ~vals:t.vals ~vslot
            ~liveness_bound:t.liveness_bound ~cycle:t.cycle
            ~has_data:t.has_data ~payload:t.payload ~chan:i raw
        with
        | [] -> ()
        | found -> log_violations t i found
    end;
    let m = Signal.event_mask raw in
    if m land Signal.ev_token_in <> 0 then bump counts i;
    if m land Signal.ev_cancelled <> 0 then bump counts (n + i);
    if m land Signal.ev_retry <> 0 then bump counts ((2 * n) + i);
    if m land Signal.ev_anti <> 0 then bump counts ((3 * n) + i);
    (* Leads-to watchdog on shared-module inputs: a waiting token must
       eventually be served or killed. *)
    let w = t.wait_slot.(i) in
    if w >= 0 then begin
      if raw land Signal.v_plus_bit <> 0 && m land Signal.ev_token_out = 0
      then begin
        bump regs w;
        if regs.(w) = t.liveness_bound then
          t.starvation <-
            Fmt.str
              "cycle %d: token starved for %d cycles at shared input %s"
              t.cycle t.liveness_bound t.chans.(i).Netlist.ch_name
            :: t.starvation
      end
      else regs.(w) <- 0
    end
  done;
  (* Record sink transfer streams. *)
  for k = 0 to Array.length t.sinks - 1 do
    let sk = t.sinks.(k) in
    if codes.(sk.sk_chan) land token_in_mask = Signal.v_plus_bit then
      if t.has_data sk.sk_chan then
        sk.sk_stream :=
          Transfer.record !(sk.sk_stream) ~cycle:t.cycle
            (t.payload sk.sk_chan)
      else
        (* Unreachable in a healthy run; reachable when a fault forges a
           valid bit without a payload. *)
        fail ~cycle:t.cycle ~node:sk.sk_node
          ~channel:t.chans.(sk.sk_chan).Netlist.ch_id
          "token delivered at sink with no data payload"
  done;
  (* Clock edge: one loop per role over the node tables, reading the
     ports straight out of [codes]. *)
  (try Nodes.clock t.nodes ~codes ~has_data:t.has_data ~payload:t.payload
   with (Assert_failure _ | Invalid_argument _) as e ->
     fail ~cycle:t.cycle ~node:t.nodes.Nodes.last
       (Fmt.str "node invariant violated at the clock edge: %s"
          (Printexc.to_string e)));
  (* End-of-cycle observers: the elapsed cycle's signals, events and
     counters are all readable, and [cycle t] still names the elapsed
     cycle.  With no observer the loop is empty and allocates nothing —
     it is on the hot path and guarded by a test. *)
  let observers = t.observers in
  for k = 0 to Array.length observers - 1 do
    observers.(k) t
  done;
  t.cycle <- t.cycle + 1

let run ?choices t n =
  for _ = 1 to n do
    step ?choices t
  done

let data_at t i = if t.has_data i then Some (t.payload i) else None

let signal t cid =
  let i = dense_index t cid in
  Signal.of_code t.codes.(i) ~data:(data_at t i)

let data t cid = data_at t (dense_index t cid)

let events t cid = Signal.events_of_code t.codes.(dense_index t cid)

let code t cid = t.codes.(dense_index t cid)

let sink_stream t nid =
  match Hashtbl.find_opt t.sink_streams nid with
  | Some s -> !s
  | None ->
    fail ~cycle:t.cycle ~node:nid (Fmt.str "node %d is not a sink" nid)

let delivered t cid = t.counts.(dense_index t cid)

let killed t cid = t.counts.(Array.length t.chans + dense_index t cid)

let throughput t nid =
  if t.cycle = 0 then 0.0
  else
    float_of_int (Transfer.length (sink_stream t nid))
    /. float_of_int t.cycle

let activity t cid =
  let i = dense_index t cid in
  let n = Array.length t.chans and c = t.counts in
  let retry = c.((2 * n) + i) in
  (c.(i) + c.(n + i) + retry, retry, c.((3 * n) + i))

let windowed_throughput t nid =
  match Transfer.entries (sink_stream t nid) with
  | [] | [ _ ] -> throughput t nid
  | first :: _ :: _ as entries ->
    let last = List.nth entries (List.length entries - 1) in
    let span = last.Transfer.cycle - first.Transfer.cycle in
    if span <= 0 then throughput t nid
    else float_of_int (List.length entries - 1) /. float_of_int span

let occupancies t =
  Array.fold_right
    (fun inst acc ->
       match Instance.buffer_occupancy inst with
       | Some n -> ((Instance.node inst).Netlist.id, n) :: acc
       | None -> acc)
    t.insts []

let stored_tokens t =
  Array.fold_left
    (fun acc inst ->
       match Instance.buffer_occupancy inst with
       | Some n -> acc + n
       | None -> acc)
    0 t.insts

(* Channel order, and oldest first within a channel. *)
let tagged_violations t tag =
  List.rev t.violation_log
  |> List.stable_sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map (fun (i, v) -> (tag t.chans.(i), v))

let violations t = tagged_violations t (fun c -> c.Netlist.ch_name)

let violations_by_id t = tagged_violations t (fun c -> c.Netlist.ch_id)

let violation_count t = List.length t.violation_log

let starvation_violations t = List.rev t.starvation

let schedulers t =
  Array.to_list t.insts
  |> List.filter_map (fun inst ->
      match Instance.role inst with
      | Instance.Shared { sched; _ } ->
        Some ((Instance.node inst).Netlist.id, sched)
      | _ -> None)

let nondet_nodes t =
  Array.to_list t.insts
  |> List.filter_map (fun inst ->
      let n = Instance.node inst in
      if Instance.choices n.Netlist.kind = [] then None else Some n)

(* A snapshot copies the register (the monitors' and the watchdog's
   too), payload and counter arrays; the logs and sink streams
   (immutable) it shares. *)
let snapshot t =
  { sn_cycle = t.cycle;
    sn_regs = Array.copy t.regs;
    sn_vals = Array.copy t.vals;
    sn_violations = t.violation_log;
    sn_starvation = t.starvation;
    sn_counts = Array.copy t.counts;
    sn_sinks = Array.map (fun sk -> !(sk.sk_stream)) t.sinks }

let restore t snap =
  if Array.length snap.sn_regs <> Array.length t.regs
  || Array.length snap.sn_vals <> Array.length t.vals
  || Array.length snap.sn_counts <> Array.length t.counts
  || Array.length snap.sn_sinks <> Array.length t.sinks
  then invalid_arg "Engine.restore: snapshot size mismatch";
  Array.blit snap.sn_regs 0 t.regs 0 (Array.length t.regs);
  Array.blit snap.sn_vals 0 t.vals 0 (Array.length t.vals);
  t.cycle <- snap.sn_cycle;
  t.violation_log <- snap.sn_violations;
  t.starvation <- snap.sn_starvation;
  Array.blit snap.sn_counts 0 t.counts 0 (Array.length t.counts);
  for k = 0 to Array.length t.sinks - 1 do
    t.sinks.(k).sk_stream := snap.sn_sinks.(k)
  done

(* [a] and [b] agree on the slots listed in [slots], from [k] on. *)
let rec same_slots slots a b k =
  k = Array.length slots
  || (let i = slots.(k) in
      a.(i) = b.(i) && same_slots slots a b (k + 1))

let rec same_values a b i =
  i = Array.length a || (Value.equal a.(i) b.(i) && same_values a b (i + 1))

(* The future slots (the monitors' and the watchdog's among them) and
   every payload slot: a masked compare of the arrays, allocating
   nothing. *)
let same_future t snap =
  Array.length snap.sn_regs = Array.length t.regs
  && Array.length snap.sn_vals = Array.length t.vals
  && same_slots t.future t.regs snap.sn_regs 0
  && same_values t.vals snap.sn_vals 0

let fingerprint t =
  let h = ref 0 in
  for k = 0 to Array.length t.future - 1 do
    h := (!h * 31) + t.regs.(t.future.(k))
  done;
  for i = 0 to Array.length t.vals - 1 do
    h := (!h * 31) + Hashtbl.hash t.vals.(i)
  done;
  !h

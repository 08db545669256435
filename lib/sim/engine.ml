open Elastic_kernel
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
  fw_override : Wires.override;
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

(* The combinational-phase store: Reference's [Wires] records, with each
   node's compiled [Control.table] evaluator, or the arena's packed
   codes.  An arena engine builds neither a [Wires] store nor a table. *)
type backend = Reference of Wires.t * (unit -> unit) array | Arena of Arena.t

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
  schedule : Schedule.t;
  profile : Profile.t;
  max_passes : int;
  max_cycles : int option;
  cycle_evals : int array;  (* per-node eval calls within this cycle *)
  mutable cycle : int;
  codes : int array;
      (* the elapsed cycle's raw control code per dense channel
         ([Signal.code] layout), filled after settle *)
  data_at : int -> Value.t option;
      (* payload of a dense channel with V+ in [codes], read from the
         backend on demand *)
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
  mutable replay : int array;  (* dense channels the schedule replays *)
  mutable kept : Value.t array;
      (* per dense channel, its last payload seen; sized only for a
         schedule that replays *)
  mutable observers : (t -> unit) array;  (* run in order, end of cycle *)
  clock : Clock.t;
}

let[@inline] bump counts i = counts.(i) <- counts.(i) + 1

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
  (* "E101" is Elastic_lint's buffer-overfilled rule, quoted like E102
     in [check_determined]; checked before any node is compiled. *)
  List.iter
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
       | _ -> ())
    (Netlist.nodes net);
  let chans = Array.of_list (Netlist.channels net) in
  let ch_index = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Netlist.channel) -> Hashtbl.add ch_index c.Netlist.ch_id i)
    chans;
  (* Each node's dense input, select and output channel indices. *)
  let nodes = Array.of_list (Netlist.nodes net) in
  let node_ports (n : Netlist.node) =
    let index p =
      match Netlist.channel_at net n.Netlist.id p with
      | Some c -> Hashtbl.find ch_index c.Netlist.ch_id
      | None -> assert false (* validate guarantees connectivity *)
    in
    let ports ps = Array.of_list (List.map index ps) in
    let inputs = Netlist.required_inputs n.Netlist.kind in
    let is_in = function
      | Netlist.In _ -> true
      | Netlist.Sel | Netlist.Out _ -> false
    in
    ( ports (List.filter is_in inputs),
      (if List.exists (Netlist.port_equal Netlist.Sel) inputs then
         Some (index Netlist.Sel)
       else None),
      ports (Netlist.required_outputs n.Netlist.kind) )
  in
  let ports = Array.map node_ports nodes in
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
    Instance.layout nodes ~ports
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
    Array.to_list insts
    |> List.filter_map (fun inst ->
        let n = Instance.node inst in
        match n.Netlist.kind with
        | Netlist.Sink _ ->
          Some
            { sk_node = n.Netlist.id; sk_chan = (Instance.ins inst).(0);
              sk_stream = ref Transfer.empty }
        | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
        | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
        | Netlist.Varlat _ -> None)
    |> Array.of_list
  in
  let sink_streams = Hashtbl.create 8 in
  Array.iter (fun sk -> Hashtbl.replace sink_streams sk.sk_node sk.sk_stream)
    sinks;
  (* Monotone evaluation writes each of a channel's five fields at most
     once, so [5 * nchan] passes always suffice; the slack covers the
     final no-progress pass on tiny netlists. *)
  let default_max_passes = (5 * Array.length chans) + 16 in
  let schedule = Schedule.build net ~ports in
  let profile = Profile.create ~n_nodes:(Array.length insts) in
  let cycle_evals = Array.make (max (Array.length insts) 1) 0 in
  let backend =
    match mode with
    | Arena ->
      Arena
        (Arena.create ~schedule ~profile ~cycle_evals
           ~nchan:(Array.length chans) ~regs ~vals insts)
    | Reference ->
      let ws = Wires.create (Array.length chans) in
      Reference (ws, Array.map (Instance.evaluator ws) insts)
  in
  let codes = Array.make (Array.length chans) 0 in
  let data_at =
    match backend with
    | Arena ar ->
      fun i ->
        if codes.(i) land Signal.v_plus_bit = 0 then None else Arena.data ar i
    | Reference (ws, _) ->
      fun i ->
        if codes.(i) land Signal.v_plus_bit = 0 then None
        else Wires.data (Wires.wire ws i)
  in
  (* Everything above — diagnostics, node compilation, schedule build,
     arena packing — is the compile phase of this engine's ledger. *)
  Profile.set_compile_seconds profile
    (Clock.seconds_between compile_t0 (clock ()));
  { net; backend; insts; regs; vals;
    future =
      Array.of_list
        (List.concat_map Instance.future (Array.to_list insts)
         @ List.init nmon (( + ) mon_base)
         @ List.filter (fun s -> s >= 0) (Array.to_list wait_slot));
    chans; ch_index; mon_base; mon_vals; liveness_bound;
    schedule;
    profile;
    max_passes = Option.value max_passes ~default:default_max_passes;
    max_cycles;
    cycle_evals;
    cycle = 0;
    codes;
    data_at;
    counts = Array.make (4 * Array.length chans) 0;
    sink_streams;
    sinks;
    faults = None;
    row = [||];
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

let schedule t = t.schedule

let conflict_error t ~wire ~field =
  let ch = t.chans.(wire) in
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

let eval_node t evals i =
  Profile.note_eval t.profile i;
  t.cycle_evals.(i) <- t.cycle_evals.(i) + 1;
  try evals.(i) () with
  | Wires.Conflict { wire; field } -> conflict_error t ~wire ~field
  | (Assert_failure _ | Invalid_argument _) as e ->
    invariant_error t ~node:(Instance.node t.insts.(i)).Netlist.id e

(* Name the channels whose wires changed during the final pass — the
   diff of the last two passes is exactly the non-converging set.
   "E110" is the settle/cycle-budget timeout code (see check_determined
   for the E102 convention on quoting lint codes here). *)
let non_convergence_error t ~passes =
  let written =
    match t.backend with
    | Arena ar -> Arena.written_channels ar
    | Reference (ws, _) -> Wires.written ws
  in
  let changing = List.sort_uniq compare written in
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

let fixpoint t ws evals =
  let rec go pass =
    Wires.clear_progress ws;
    for i = 0 to Array.length t.insts - 1 do
      eval_node t evals i
    done;
    if Wires.progress ws then
      if pass >= t.max_passes then
        non_convergence_error t ~passes:(pass + 1)
      else go (pass + 1)
  in
  go 0

let check_determined t =
  let unknown =
    match t.backend with
    | Arena ar -> Arena.unknown_count ar
    | Reference (ws, _) -> Wires.unknown_count ws
  in
  if unknown > 0 then begin
    let undetermined =
      Array.to_list t.chans
      |> List.filteri (fun i _ ->
          match t.backend with
          | Arena ar -> Arena.undetermined ar i
          | Reference (ws, _) ->
            let w = Wires.wire ws i in
            Wires.v_plus w = None || Wires.s_plus w = None
            || Wires.v_minus w = None || Wires.s_minus w = None)
    in
    let names =
      List.map (fun (c : Netlist.channel) -> c.Netlist.ch_name) undetermined
    in
    let node, channel =
      match undetermined with
      | [] -> (None, None)
      | c :: _ ->
        (Some c.Netlist.src.Netlist.ep_node, Some c.Netlist.ch_id)
    in
    (* "E102" is Elastic_lint's comb-cycle rule: the static analogue of
       this dynamic failure (the sim layer cannot depend on the lint
       library, so the code is quoted; a registry test keeps it honest). *)
    raise
      (Simulation_error
         (error ~code:"E102" ?node ?channel ~cycle:t.cycle
            (Fmt.str "combinational cycle, undetermined channels: %s"
               (String.concat ", " names))))
  end

(* Checks every channel up front; the payloads kept for the replay
   channels start afresh. *)
let set_faults t faults =
  let rows = match faults with Some fs -> fs.fs_rows | None -> [||] in
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

(* Clear the last step's overrides and install the schedule's row for
   this cycle, if it has one; returns the row's forced predictions. *)
let install_faults t =
  if Array.length t.row > 0 then begin
    (match t.backend with
     | Arena ar -> Arena.clear_overrides ar
     | Reference (ws, _) -> Wires.clear_overrides ws);
    t.row <- [||]
  end;
  match t.faults with
  | Some fs
    when t.cycle >= fs.fs_first
         && t.cycle - fs.fs_first < Array.length fs.fs_rows ->
    let row = fs.fs_rows.(t.cycle - fs.fs_first) in
    for k = 0 to Array.length row.fr_wires - 1 do
      let w = row.fr_wires.(k) in
      let i = dense_index t w.fw_chan in
      let ov =
        if w.fw_replay then
          { w.fw_override with Wires.subst_data = Some t.kept.(i) }
        else w.fw_override
      in
      match t.backend with
      | Arena ar -> Arena.set_override ar i ov
      | Reference (ws, _) -> Wires.set_override ws i ov
    done;
    t.row <- row.fr_wires;
    row.fr_predict
  | Some _ | None -> []

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

(* Arena settle: the same exceptions as the reference fixpoint, mapped
   to the same errors ([eval_node] catches per node; here the evaluating
   node is recovered from the arena's last-eval cursor). *)
let settle_arena t ar =
  try Arena.settle ar with
  | Wires.Conflict { wire; field } -> conflict_error t ~wire ~field
  | Arena.Did_not_converge -> non_convergence_error t ~passes:t.max_passes
  | (Assert_failure _ | Invalid_argument _) as e ->
    invariant_error t
      ~node:(Instance.node t.insts.(Arena.last_eval ar)).Netlist.id e

let rec log_violations t i = function
  | [] -> ()
  | v :: rest ->
    t.violation_log <- (i, v) :: t.violation_log;
    log_violations t i rest

let step ?(choices = fun _ -> None) t =
  check_cycle_budget t;
  (match t.backend with
   | Arena ar -> Arena.reset ar
   | Reference (ws, _) -> Wires.reset ws);
  let choices =
    match install_faults t with
    | [] -> choices
    | forced -> (
        fun nid ->
          match List.assoc_opt nid forced with
          | Some way -> Some (Instance.Predict way)
          | None -> choices nid)
  in
  for k = 0 to Array.length t.insts - 1 do
    let inst = t.insts.(k) in
    Instance.begin_cycle inst ~choice:(choices (Instance.node inst).Netlist.id)
  done;
  Array.fill t.cycle_evals 0 (Array.length t.cycle_evals) 0;
  let t0 = t.clock () in
  (match t.backend with
   | Arena ar -> settle_arena t ar
   | Reference (ws, evals) -> fixpoint t ws evals);
  (* Stop the settle timer before the determinism check and pass fold so
     the recorded seconds cover only the settle phase itself — the E9
     speedup record compares backends on this number. *)
  let settle_seconds = Clock.seconds_between t0 (t.clock ()) in
  check_determined t;
  let passes = Array.fold_left max 0 t.cycle_evals in
  Profile.record_cycle t.profile ~passes ~seconds:settle_seconds;
  (* Post-settle: everything below reads the packed codes; payloads
     are fetched only where a token moves (or a monitor's retry is
     pending).  Nothing here allocates in a fault-free cycle beyond
     what the nodes' own payload handling does. *)
  let n = Array.length t.chans in
  let codes = t.codes in
  (match t.backend with
   | Arena ar -> Arena.fill_codes ar codes
   | Reference (ws, _) ->
     for i = 0 to n - 1 do
       codes.(i) <- Wires.code (Wires.wire ws i)
     done);
  (* Keep the replay channels' payloads until the schedule ends. *)
  (match t.faults with
   | Some fs when t.cycle < fs.fs_first + Array.length fs.fs_rows ->
     for j = 0 to Array.length t.replay - 1 do
       let i = t.replay.(j) in
       match t.data_at i with Some v -> t.kept.(i) <- v | None -> ()
     done
   | Some _ | None -> ());
  for i = 0 to Array.length t.mon_vals - 1 do
    match
      Protocol.step ~regs:t.regs ~slot:(t.mon_base + i) ~vals:t.vals
        ~vslot:t.mon_vals.(i) ~liveness_bound:t.liveness_bound
        ~cycle:t.cycle ~data:t.data_at ~chan:i codes.(i)
    with
    | [] -> ()
    | found -> log_violations t i found
  done;
  for i = 0 to n - 1 do
    let ev = Signal.events_of_code codes.(i) in
    if ev.Signal.token_in then bump t.counts i;
    if ev.Signal.cancelled then bump t.counts (n + i);
    if ev.Signal.retry then bump t.counts ((2 * n) + i);
    if ev.Signal.anti then bump t.counts ((3 * n) + i);
    (* Leads-to watchdog on shared-module inputs: a waiting token must
       eventually be served or killed. *)
    let w = t.wait_slot.(i) in
    if w >= 0 then begin
      if codes.(i) land Signal.v_plus_bit <> 0 && not ev.Signal.token_out
      then begin
        bump t.regs w;
        if t.regs.(w) = t.liveness_bound then
          t.starvation <-
            Fmt.str
              "cycle %d: token starved for %d cycles at shared input %s"
              t.cycle t.liveness_bound t.chans.(i).Netlist.ch_name
            :: t.starvation
      end
      else t.regs.(w) <- 0
    end
  done;
  (* Record sink transfer streams. *)
  for k = 0 to Array.length t.sinks - 1 do
    let sk = t.sinks.(k) in
    if (Signal.events_of_code codes.(sk.sk_chan)).Signal.token_in then
      match t.data_at sk.sk_chan with
      | Some v ->
        sk.sk_stream := Transfer.record !(sk.sk_stream) ~cycle:t.cycle v
      | None ->
        (* Unreachable in a healthy run; reachable when a fault forges a
           valid bit without a payload. *)
        fail ~cycle:t.cycle ~node:sk.sk_node
          ~channel:t.chans.(sk.sk_chan).Netlist.ch_id
          "token delivered at sink with no data payload"
  done;
  (* Clock edge: each node reads its ports straight out of [codes]. *)
  for k = 0 to Array.length t.insts - 1 do
    let inst = t.insts.(k) in
    try Instance.clock inst ~codes ~data:t.data_at
    with (Assert_failure _ | Invalid_argument _) as e ->
      fail ~cycle:t.cycle ~node:(Instance.node inst).Netlist.id
        (Fmt.str "node invariant violated at the clock edge: %s"
           (Printexc.to_string e))
  done;
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

let signal t cid =
  let i = dense_index t cid in
  Signal.of_code t.codes.(i) ~data:(t.data_at i)

let data t cid = t.data_at (dense_index t cid)

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
let violations t =
  List.rev t.violation_log
  |> List.stable_sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map (fun (i, v) -> (t.chans.(i).Netlist.ch_name, v))

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

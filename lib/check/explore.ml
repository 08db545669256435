open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_sim

type outcome = {
  explored : int;
  transitions : int;
  complete : bool;
  protocol_violations : string list;
  deadlock_states : string list;
  starving_channels : string list;
  counterexample : string list;
  static_hints : string list;
}

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>states %d, transitions %d%s@,protocol violations: %d@,deadlocks: \
     %d@,starving channels: %d%a@]"
    o.explored o.transitions
    (if o.complete then "" else " (incomplete)")
    (List.length o.protocol_violations)
    (List.length o.deadlock_states)
    (List.length o.starving_channels)
    Fmt.(list ~sep:nop (fmt "@,static hint: %s"))
    o.static_hints

let clean o =
  o.complete && o.protocol_violations = [] && o.deadlock_states = []
  && o.starving_channels = []

(* Cap on the environment choices of one step: beyond it the state graph
   is too wide to explore exhaustively anyway. *)
let max_choice_combinations = 64

let cartesian lists =
  List.fold_right
    (fun options acc ->
       List.concat_map (fun o -> List.map (fun rest -> o :: rest) acc) options)
    lists [ [] ]

(* One transition: the cycle's raw control code per dense channel, the
   payloads Retry+ may compare (tokens offered on persistent channels)
   and the state it leads to. *)
type move = {
  codes : int array;
  payloads : (int * Value.t option) list;
  dst : int;
}

type state = {
  id : int;  (* BFS index *)
  depth : int;
  snap : Engine.snap;
  parent : (state * int array) option;
      (* how BFS first reached it: the state and the move's codes *)
  mutable ins : move list;
  mutable outs : move list;
}

let exists_channel n f =
  let rec go i = i < n && (f i || go (i + 1)) in
  go 0

let progress m i =
  let ev = Signal.events_of_code m.codes.(i) in
  ev.Signal.token_out || ev.Signal.anti_out

let pending m i =
  Signal.resolve_code m.codes.(i)
  land (Signal.v_plus_bit lor Signal.v_minus_bit)
  <> 0

let explore ?(max_states = 20_000) ?mode net =
  let eng = Engine.create ~monitor:false ?mode net in
  (* Static context for the dynamic verdict: when exploration finds a
     deadlock or violation, a lint error/warning usually names the
     structural cause.  Infos are omitted — they are opportunities, not
     problems. *)
  let static_hints =
    let report = Elastic_lint.Lint.run net in
    List.map Diagnostic.to_string
      (Elastic_lint.Lint.errors report @ Elastic_lint.Lint.warnings report)
  in
  let chans = Array.of_list (Netlist.channels net) in
  let nchan = Array.length chans in
  let persistent = Array.map (Netlist.persistent net) chans in
  let combos =
    cartesian
      (List.map
         (fun (n : Netlist.node) ->
            List.map (fun c -> (n.Netlist.id, c))
              (Instance.choices n.Netlist.kind))
         (Engine.nondet_nodes eng))
  in
  if List.length combos > max_choice_combinations then
    invalid_arg
      (Fmt.str "Explore: %d choice combinations exceed the cap of %d"
         (List.length combos) max_choice_combinations);
  (* An [External] scheduler keeps the prediction its last step forced,
     which no later step reads: every step forces a fresh one.  Resetting
     it keeps that leftover out of the state identity. *)
  let externals =
    List.filter_map
      (fun (_, s) ->
         if Scheduler.spec s <> Scheduler.External then None
         else Some (s, Scheduler.predict s))
      (Engine.schedulers eng)
  in
  let rev_states = ref [] in
  let count = ref 0 in
  let buckets : (int, state list) Hashtbl.t = Hashtbl.create 1024 in
  let violations = ref [] in
  let transitions = ref 0 in
  let complete = ref true in
  let report i property msg =
    violations :=
      Fmt.str "%s: %s on %s" property msg chans.(i).Netlist.ch_name
      :: !violations
  in
  (* Retry+/Retry- between one incoming and one outgoing move of the
     same state: the monitor's rule ({!Protocol.retry}). *)
  let check_pair inc out =
    for i = 0 to nchan - 1 do
      match
        Protocol.retry ~persistent:persistent.(i)
          ~prev:(Signal.resolve_code inc.codes.(i))
          (Signal.resolve_code out.codes.(i))
      with
      | Protocol.Free -> ()
      | Protocol.Broken (property, msg) -> report i property msg
      | Protocol.Held ->
        let before = List.assoc i inc.payloads
        and after = List.assoc i out.payloads in
        if not (Option.equal Value.equal before after) then
          report i "retry+" (Protocol.data_changed before after)
    done
  in
  let payloads codes =
    let rec go i acc =
      if i < 0 then acc
      else if persistent.(i) && codes.(i) land Signal.v_plus_bit <> 0 then
        go (i - 1) ((i, Engine.data eng chans.(i).Netlist.ch_id) :: acc)
      else go (i - 1) acc
    in
    go (nchan - 1) []
  in
  (* The engine's state, found by its own identity or added as fresh. *)
  let find_or_add ~parent =
    let fp = Engine.fingerprint eng in
    let bucket = Option.value (Hashtbl.find_opt buckets fp) ~default:[] in
    match List.find_opt (fun s -> Engine.same_future eng s.snap) bucket with
    | Some s -> (s, false)
    | None ->
      let depth = match parent with None -> 0 | Some (p, _) -> p.depth + 1 in
      let s =
        { id = !count; depth; snap = Engine.snapshot eng; parent; ins = [];
          outs = [] }
      in
      rev_states := s :: !rev_states;
      incr count;
      Hashtbl.replace buckets fp (s :: bucket);
      (s, true)
  in
  let init, _ = find_or_add ~parent:None in
  let queue = Queue.create () in
  Queue.push init queue;
  while not (Queue.is_empty queue) do
    let src = Queue.pop queue in
    if !count <= max_states then
      List.iter
        (fun combo ->
           Engine.restore eng src.snap;
           Engine.step ~choices:(fun id -> List.assoc_opt id combo) eng;
           incr transitions;
           let codes =
             Array.map (fun (c : Netlist.channel) -> Engine.code eng c.ch_id)
               chans
           in
           let payloads = payloads codes in
           List.iter (fun (s, way) -> Scheduler.force s way) externals;
           Array.iteri
             (fun i c ->
                match Protocol.invariant c with
                | Some msg -> report i "invariant" msg
                | None -> ())
             codes;
           let dst, fresh = find_or_add ~parent:(Some (src, codes)) in
           let m = { codes; payloads; dst = dst.id } in
           List.iter (fun inc -> check_pair inc m) src.ins;
           src.outs <- m :: src.outs;
           List.iter (fun out -> check_pair m out) dst.outs;
           dst.ins <- m :: dst.ins;
           if fresh then
             if !count <= max_states then Queue.push dst queue
             else complete := false)
        combos
    else complete := false
  done;
  let all = Array.of_list (List.rev !rev_states) in
  let deadlocks =
    if not !complete then []
    else
      Array.to_list all
      |> List.filter (fun s ->
          s.outs <> []
          && List.for_all
               (fun m ->
                  m.dst = s.id && not (exists_channel nchan (progress m)))
               s.outs
          && List.exists (fun m -> exists_channel nchan (pending m)) s.outs)
  in
  (* Starvation: channel i is starving if some reachable state has a
     successor evaluation offering a token/anti-token on i, yet no
     sequence of choices from that state ever makes progress on i. *)
  let starving =
    if not !complete then []
    else
      List.filteri
        (fun i _ ->
           let can_progress = Array.make !count false in
           (* Fixed point of backward reachability to a progress(i) edge. *)
           let changed = ref true in
           while !changed do
             changed := false;
             Array.iter
               (fun s ->
                  if
                    (not can_progress.(s.id))
                    && List.exists
                         (fun m -> progress m i || can_progress.(m.dst))
                         s.outs
                  then begin
                    can_progress.(s.id) <- true;
                    changed := true
                  end)
               all
           done;
           Array.exists
             (fun s ->
                (not can_progress.(s.id))
                && List.exists (fun m -> pending m i) s.outs)
             all)
        (Array.to_list chans)
      |> List.map (fun (c : Netlist.channel) -> c.Netlist.ch_name)
  in
  (* Render the path to a state, Table-1 style. *)
  let render_trace target =
    let rec collect acc s =
      match s.parent with
      | None -> acc
      | Some (p, codes) -> collect (codes :: acc) p
    in
    (* Indexed by the resolved code: V+ and V- cancel (X), V+ with S+
       retries (R), V+ alone transfers (T), V- alone is an anti-token. *)
    let cell c = String.make 1 ".T.R-X-X.T.R-X-X".[Signal.resolve_code c] in
    match collect [] target with
    | [] -> []
    | steps ->
      List.mapi
        (fun i (c : Netlist.channel) ->
           Fmt.str "%-28s %s" c.Netlist.ch_name
             (String.concat " " (List.map (fun codes -> cell codes.(i)) steps)))
        (Array.to_list chans)
  in
  let counterexample =
    match deadlocks with
    | s :: _ ->
      "path to the deadlock (T=transfer R=retry -=anti X=cancel .=idle):"
      :: render_trace s
    | [] -> []
  in
  { explored = !count;
    transitions = !transitions;
    complete = !complete;
    protocol_violations = List.rev !violations;
    deadlock_states =
      List.map (fun s -> Fmt.str "state %d (depth %d)" s.id s.depth) deadlocks;
    starving_channels = starving;
    counterexample;
    static_hints }

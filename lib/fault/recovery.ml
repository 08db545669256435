open Elastic_kernel
open Elastic_netlist
open Elastic_sim

type classification =
  | Masked
  | Corrected of int
  | Detected of string
  | Silent_corruption of string
  | Deadlock of string
  | Crashed of string

type report = {
  classification : classification;
  fault_desc : string list;
  ref_transfers : int;
  faulted_transfers : int;
  fresh_violations : (string * Protocol.violation) list;
  stabilized : (int * int) option;
}

let classification_label = function
  | Masked -> "masked"
  | Corrected _ -> "corrected"
  | Detected _ -> "detected"
  | Silent_corruption _ -> "silent-corruption"
  | Deadlock _ -> "deadlock"
  | Crashed _ -> "crashed"

let pp_classification ppf = function
  | Masked -> Fmt.pf ppf "masked"
  | Corrected p -> Fmt.pf ppf "corrected (penalty %d cycle%s)" p
                     (if p = 1 then "" else "s")
  | Detected why -> Fmt.pf ppf "detected: %s" why
  | Silent_corruption why -> Fmt.pf ppf "SILENT CORRUPTION: %s" why
  | Deadlock why -> Fmt.pf ppf "deadlock: %s" why
  | Crashed why -> Fmt.pf ppf "crashed: %s" why

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a@,faults:@,%a@,transfers: %d reference, %d faulted"
    pp_classification r.classification
    Fmt.(list ~sep:cut (fmt "  %s"))
    r.fault_desc r.ref_transfers r.faulted_transfers;
  if r.fresh_violations <> [] then
    Fmt.pf ppf "@,monitor violations:@,%a"
      Fmt.(
        list ~sep:cut (fun ppf (name, v) ->
            pf ppf "  channel %s: %a" name Protocol.pp_violation v))
      r.fresh_violations;
  Fmt.pf ppf "@]"

(* Violations introduced by the fault: present in the faulted run but not
   (same channel, same property) in the reference run.  Designs are
   normally monitor-clean, but this keeps the checker usable on ones with
   pre-existing noise. *)
let fresh_violations ~ref_viols ~flt_viols =
  let key (id, (v : Protocol.violation)) = (id, v.Protocol.property) in
  List.filter
    (fun fv -> not (List.exists (fun rv -> key rv = key fv) ref_viols))
    flt_viols

(* One sink of the golden run, over the whole trajectory. *)
type g_sink = {
  gs_node : Netlist.node;
  gs_entries : Transfer.entry array;
  gs_before : int array;
      (* [gs_before.(c)]: the entries stamped before cycle [c], for every
         cycle of the trajectory *)
}

(* An alarm sink: its index in [g_sinks], its predicate, and
   [trips.(i)]: how many of the sink's first [i] golden entries it
   holds for. *)
type g_alarm = {
  ga_sink : int;
  ga_pred : Value.t -> bool;
  ga_trips : int array;
}

type golden = {
  g_net : Netlist.t;
  g_cycles : int;
  g_settle : int;
  g_mode : Engine.eval_mode;
  g_sinks : g_sink array;  (* in netlist order *)
  g_data : int list;  (* the sinks that are not alarms *)
  g_alarms : g_alarm list;  (* in the order given *)
  g_ref_transfers : int;  (* data-sink transfers in the first [cycles] *)
  g_ref_trips : int;  (* alarm trips, over the whole trajectory *)
  g_violations : (Netlist.channel_id * Protocol.violation) list;
      (* at its end *)
  g_starvation : string list;
  (* The trajectory: [g_snaps.(c)] is the state after [c] cycles, for
     [c] up to [cycles + settle] (fewer when the fault-free run failed
     in the settle window). *)
  g_snaps : Engine.snap array;
  g_fingerprints : int array;
  g_by_fingerprint : int array;
      (* cycles by fingerprint, the latest first among equal ones *)
  g_reports : int array;  (* violations + starvation reports so far *)
}

let golden_sink ~last eng (n : Netlist.node) =
  let entries = Transfer.suffix (Engine.sink_stream eng n.Netlist.id) 0 in
  let before = Array.make (last + 1) 0 in
  let i = ref 0 in
  for c = 0 to last do
    while !i < Array.length entries && entries.(!i).Transfer.cycle < c do
      incr i
    done;
    before.(c) <- !i
  done;
  { gs_node = n; gs_entries = entries; gs_before = before }

(* [trips.(i)]: how many of the first [i] entries [pred] holds for. *)
let trip_counts pred (entries : Transfer.entry array) =
  let trips = Array.make (Array.length entries + 1) 0 in
  Array.iteri
    (fun i (e : Transfer.entry) ->
       trips.(i + 1) <- (trips.(i) + if pred e.Transfer.value then 1 else 0))
    entries;
  trips

let golden_run ?(cycles = 300) ?(settle = 60) ?(alarms = [])
    ?(mode = Engine.default_mode) net =
  let sink_nodes =
    List.filter
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with Netlist.Sink _ -> true | _ -> false)
      (Netlist.nodes net)
  in
  (* Each alarm's sink index, before simulating anything. *)
  let alarm_sinks =
    List.map
      (fun (nid, pred) ->
         let rec index k = function
           | [] ->
             invalid_arg
               (Fmt.str "Recovery.golden_run: alarm node %d is not a sink"
                  nid)
           | (n : Netlist.node) :: rest ->
             if n.Netlist.id = nid then k else index (k + 1) rest
         in
         (index 0 sink_nodes, pred))
      alarms
  in
  let eng = Engine.create ~monitor:true ~mode net in
  let trajectory = ref [] in
  let record () =
    let reports =
      Engine.violation_count eng
      + List.length (Engine.starvation_violations eng)
    in
    trajectory :=
      (Engine.snapshot eng, Engine.fingerprint eng, reports) :: !trajectory
  in
  record ();
  for _ = 1 to cycles do
    Engine.step eng;
    record ()
  done;
  (* A failure in the settle window just ends the trajectory early; no
     scenario is cut off where the trajectory no longer reaches. *)
  (try
     for _ = 1 to settle do
       Engine.step eng;
       record ()
     done
   with _ -> ());
  let violations = Engine.violations_by_id eng in
  let starvation = Engine.starvation_violations eng in
  let trajectory = Array.of_list (List.rev !trajectory) in
  let last = Array.length trajectory - 1 in
  let fingerprints = Array.map (fun (_, fp, _) -> fp) trajectory in
  let by_fingerprint = Array.init (Array.length trajectory) Fun.id in
  Array.sort
    (fun a b ->
       match Int.compare fingerprints.(a) fingerprints.(b) with
       | 0 -> Int.compare b a
       | c -> c)
    by_fingerprint;
  let sinks = Array.of_list (List.map (golden_sink ~last eng) sink_nodes) in
  let g_data =
    List.filter
      (fun k -> not (List.mem_assoc k alarm_sinks))
      (List.init (Array.length sinks) Fun.id)
  in
  let g_alarms =
    List.map
      (fun (k, pred) ->
         { ga_sink = k; ga_pred = pred;
           ga_trips = trip_counts pred sinks.(k).gs_entries })
      alarm_sinks
  in
  { g_net = net;
    g_cycles = cycles;
    g_settle = settle;
    g_mode = mode;
    g_sinks = sinks;
    g_data;
    g_alarms;
    g_ref_transfers =
      List.fold_left (fun a k -> a + sinks.(k).gs_before.(cycles)) 0 g_data;
    g_ref_trips =
      List.fold_left
        (fun a ga ->
           a + ga.ga_trips.(sinks.(ga.ga_sink).gs_before.(last)))
        0 g_alarms;
    g_violations = violations;
    g_starvation = starvation;
    g_snaps = Array.map (fun (s, _, _) -> s) trajectory;
    g_fingerprints = fingerprints;
    g_by_fingerprint = by_fingerprint;
    g_reports = Array.map (fun (_, _, r) -> r) trajectory }

type faulted = {
  f_start : int;
  f_delta : Transfer.entry array array;
  f_cut : (int * int) option;
  f_violations : (Netlist.channel_id * Protocol.violation) list;
  f_starvation : string list;
  f_crash : string option;
  f_stabilized : (int * int) option;
}

(* The latest golden cycle with fingerprint [fp] that satisfies [ok]:
   golden cycles with equal states have equal futures, and the latest
   one gives the smallest lag. *)
let find_golden g fp ok =
  let idx = g.g_by_fingerprint and fps = g.g_fingerprints in
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fps.(idx.(mid)) < fp then lower (mid + 1) hi else lower lo mid
  in
  let rec scan i =
    if i >= Array.length idx || fps.(idx.(i)) <> fp then None
    else if ok idx.(i) then Some idx.(i)
    else scan (i + 1)
  in
  scan (lower 0 (Array.length idx))

let faulted_engine golden =
  Engine.create ~monitor:true ~mode:golden.g_mode golden.g_net

let run_faulted ?engine ?observer golden ~faults =
  (match engine with
   | Some e
     when Engine.netlist e != golden.g_net || Engine.mode e <> golden.g_mode ->
     invalid_arg
       "Recovery.run_faulted: engine built for another netlist or eval mode"
   | Some _ | None -> ());
  let plan = Fault.plan golden.g_net faults in
  let total = golden.g_cycles + golden.g_settle in
  let last = Array.length golden.g_snaps - 1 in
  let horizon = Fault.horizon plan in
  (* No fault acts before the first fault cycle, so until then the
     faulted run is the golden one.  A duplicated token replays the
     last payload seen on its channel, which only a run from cycle 0
     has observed. *)
  let start =
    if List.exists (fun f -> f.Fault.kind = Fault.Duplicate_token) faults
    then 0
    else max 0 (min last plan.Engine.fs_first)
  in
  let flt =
    match engine with Some e -> e | None -> faulted_engine golden
  in
  (* [restore] leaves a reused engine's observers, fault schedule and
     profile alone: reset them so this scenario starts as on a fresh
     engine. *)
  Engine.set_observer flt None;
  Profile.reset (Engine.profile flt);
  Engine.set_faults flt (Some plan);
  Engine.restore flt golden.g_snaps.(start);
  (match observer with
   | None -> ()
   | Some attach -> attach flt);
  (* Once every fault window has closed, the faulted run's future is
     the golden one from any golden cycle [g] with the same state,
     shifted by the lag [cycle - g]: cut it off there, provided the
     golden trajectory reaches as far as the rest of the run and
     reports no violation or starvation on the way, whose stamps and
     messages would have to be shifted too. *)
  let converged () =
    let rest = total - Engine.cycle flt in
    find_golden golden (Engine.fingerprint flt) (fun g ->
        g + rest <= last
        && golden.g_reports.(g + rest) = golden.g_reports.(g)
        && Engine.same_future flt golden.g_snaps.(g))
  in
  (* The faulted run gets [settle] cycles more than the classification
     window: a replayed token arrives late, so let it drain before
     declaring transfers lost. *)
  let rec go () =
    let c = Engine.cycle flt in
    if c >= total then None
    else
      match if c >= horizon then converged () else None with
      | Some g -> Some (c, g)
      | None ->
        Engine.step flt;
        go ()
  in
  let cut, crash =
    try (go (), None) with
    | Engine.Simulation_error e -> (None, Some (Engine.error_to_string e))
    | e -> (None, Some (Printexc.to_string e))
  in
  { f_start = start;
    f_delta =
      Array.map
        (fun s ->
           Transfer.suffix
             (Engine.sink_stream flt s.gs_node.Netlist.id)
             s.gs_before.(start))
        golden.g_sinks;
    f_cut = cut;
    f_violations = Engine.violations_by_id flt;
    f_starvation = Engine.starvation_violations flt;
    f_crash = crash;
    f_stabilized = Option.map (fun (c, g) -> (c - horizon, c - g)) cut }

(* Where sink [s] of a faulted run gets its stream, by golden entry
   index: the golden prefix [\[0, pre)] (the entries before the start
   cycle), then the delta, then the golden range [\[from, upto)] with
   its stamps shifted by [lag] (the golden run after the cut-off). *)
type layout = { pre : int; from : int; upto : int; lag : int }

let layout g f s =
  let pre = s.gs_before.(f.f_start) in
  match f.f_cut with
  | None -> { pre; from = 0; upto = 0; lag = 0 }
  | Some (c, gc) ->
    { pre;
      from = s.gs_before.(gc);
      upto = s.gs_before.(gc + g.g_cycles + g.g_settle - c);
      lag = c - gc }

let materialize g f =
  Array.to_list
    (Array.mapi
       (fun k s ->
          let l = layout g f s in
          let golden i = s.gs_entries.(i) in
          ( s.gs_node.Netlist.id,
            List.init l.pre golden
            @ Array.to_list f.f_delta.(k)
            @ List.init (l.upto - l.from) (fun i ->
                let e = golden (l.from + i) in
                { e with Transfer.cycle = e.Transfer.cycle + l.lag }) ))
       g.g_sinks)

(* Transfers of sink [k] in the faulted run. *)
let transfers g f k =
  let l = layout g f g.g_sinks.(k) in
  l.pre + Array.length f.f_delta.(k) + l.upto - l.from

(* How many transfers of alarm [a] trip it in the faulted run: the
   delta is the only part not counted in advance. *)
let trips g f a =
  let l = layout g f g.g_sinks.(a.ga_sink) in
  let t = a.ga_trips in
  Array.fold_left
    (fun n (e : Transfer.entry) ->
       if a.ga_pred e.Transfer.value then n + 1 else n)
    (t.(l.pre) + t.(l.upto) - t.(l.from))
    f.f_delta.(a.ga_sink)

(* Data sink [k] of the faulted run against the golden run over the
   same window, entry by entry: [`Mismatch] at the first differing
   value, then [`Mismatch] for transfers beyond the golden run's, or
   [`Short] for transfers the golden run delivered in its first
   [cycles] cycles and the faulted run still lacks, else [`Lag] of the
   largest delay.  Only the delta is compared
   entry by entry: the prefix is the golden run's own, and the shifted
   range lines up with the golden entries when it starts where the
   delta ends (same entries, delayed by the lag). *)
let compare_sink g f k =
  let s = g.g_sinks.(k) in
  let l = layout g f s in
  let golden = s.gs_entries and delta = f.f_delta.(k) in
  let ends = l.pre + Array.length delta in
  let n = ends + l.upto - l.from in
  let r = s.gs_before.(g.g_cycles) in
  let r_all = s.gs_before.(Array.length s.gs_before - 1) in
  let m = min r_all n in
  let lag = ref 0 and wrong = ref None in
  let check_entry i (e : Transfer.entry) shift =
    let expected = golden.(i) in
    if Value.equal expected.Transfer.value e.Transfer.value then
      lag := max !lag (e.Transfer.cycle + shift - expected.Transfer.cycle)
    else
      wrong :=
        Some
          (Fmt.str "sink %s transfer %d: expected %s, got %s"
             s.gs_node.Netlist.name i
             (Value.to_string expected.Transfer.value)
             (Value.to_string e.Transfer.value))
  in
  let i = ref l.pre in
  while Option.is_none !wrong && !i < min ends m do
    check_entry !i delta.(!i - l.pre) 0;
    incr i
  done;
  if !i < m && l.from = ends then lag := max !lag l.lag
  else
    while Option.is_none !wrong && !i < m do
      check_entry !i golden.(l.from + !i - ends) l.lag;
      incr i
    done;
  match !wrong with
  | Some why -> `Mismatch why
  (* A fault delays transfers, never adds any: more than the golden run
     delivered in the same window is a spurious (duplicated or forged)
     token. *)
  | None when n > r_all ->
    `Mismatch
      (Fmt.str "sink %s: %d spurious extra transfer%s"
         s.gs_node.Netlist.name (n - r_all)
         (if n - r_all = 1 then "" else "s"))
  | None when n < r -> `Short (r - n)
  | None -> `Lag !lag

let classify golden ~faults (f : faulted) =
  let net = golden.g_net in
  let settle = golden.g_settle in
  let fresh =
    fresh_violations ~ref_viols:golden.g_violations
      ~flt_viols:f.f_violations
  in
  let fresh_starvation =
    List.filter
      (fun s -> not (List.mem s golden.g_starvation))
      f.f_starvation
  in
  let monitor_detection () =
    match fresh with
    | (id, v) :: _ ->
      let c = Netlist.channel net id in
      Some
        (Fmt.str
           "protocol monitor on channel %s (channel id %d, node %d -> node \
            %d): %s at cycle %d"
           c.Netlist.ch_name id c.Netlist.src.Netlist.ep_node
           c.Netlist.dst.Netlist.ep_node v.Protocol.property v.Protocol.cycle)
    | [] ->
      (match fresh_starvation with
       | s :: _ -> Some (Fmt.str "starvation watchdog: %s" s)
       | [] ->
         let flt_trips =
           List.fold_left (fun n a -> n + trips golden f a) 0 golden.g_alarms
         in
         let extra = flt_trips - golden.g_ref_trips in
         if extra > 0 then
           Some
             (Fmt.str "alarm sink tripped %d time%s" extra
                (if extra = 1 then "" else "s"))
         else None)
  in
  let classification =
    match f.f_crash with
    | Some why -> Crashed why
    | None ->
      (match monitor_detection () with
       | Some why -> Detected why
       | None ->
         let results = List.map (compare_sink golden f) golden.g_data in
         let mismatch =
           List.find_map
             (function `Mismatch m -> Some m | _ -> None)
             results
         in
         (match mismatch with
          | Some m -> Silent_corruption m
          | None ->
            let short =
              List.find_map
                (function `Short k -> Some k | _ -> None)
                results
            in
            (match short with
             | Some k ->
               Deadlock
                 (Fmt.str
                    "%d transfer%s still missing %d cycles after the \
                     fault window"
                    k
                    (if k = 1 then "" else "s")
                    settle)
             | None ->
               let lag =
                 List.fold_left
                   (fun a -> function `Lag l -> max a l | _ -> a)
                   0 results
               in
               if lag = 0 then Masked else Corrected lag)))
  in
  { classification;
    fault_desc = List.map (Fault.describe net) faults;
    ref_transfers = golden.g_ref_transfers;
    faulted_transfers =
      List.fold_left (fun n k -> n + transfers golden f k) 0 golden.g_data;
    fresh_violations =
      List.map
        (fun (id, v) -> ((Netlist.channel net id).Netlist.ch_name, v))
        fresh;
    stabilized = f.f_stabilized }

let check ?observer ?engine golden ~faults =
  classify golden ~faults (run_faulted ?engine ?observer golden ~faults)

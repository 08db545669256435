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
  let key (name, (v : Protocol.violation)) = (name, v.Protocol.property) in
  List.filter
    (fun fv -> not (List.exists (fun rv -> key rv = key fv) ref_viols))
    flt_viols

type golden = {
  g_net : Netlist.t;
  g_cycles : int;
  g_settle : int;
  g_mode : Engine.eval_mode;
  g_sinks : (Netlist.node * Transfer.entry list) list;  (* first [cycles] *)
  g_violations : (string * Protocol.violation) list;
  g_starvation : string list;
  (* The trajectory: [g_snaps.(c)] is the state after [c] cycles, for
     [c] up to [cycles + settle] (fewer when the fault-free run failed
     in the settle window). *)
  g_snaps : Engine.snap array;
  g_fingerprints : int array;
  g_by_fingerprint : int array;
      (* cycles by fingerprint, the latest first among equal ones *)
  g_reports : int array;  (* violations + starvation reports so far *)
  g_streams : (Netlist.node_id * Transfer.entry list) list;
      (* every sink's transfers over the whole trajectory *)
}

let golden_run ?(cycles = 300) ?(settle = 60) ?(mode = Engine.default_mode)
    net =
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
  let violations = Engine.violations eng in
  let starvation = Engine.starvation_violations eng in
  (* Classification reads only the first [cycles] cycles, so a failure
     in the settle window just ends the trajectory early; no scenario is
     cut off where the trajectory no longer reaches. *)
  (try
     for _ = 1 to settle do
       Engine.step eng;
       record ()
     done
   with _ -> ());
  let trajectory = Array.of_list (List.rev !trajectory) in
  let fingerprints = Array.map (fun (_, fp, _) -> fp) trajectory in
  let by_fingerprint = Array.init (Array.length trajectory) Fun.id in
  Array.sort
    (fun a b ->
       match Int.compare fingerprints.(a) fingerprints.(b) with
       | 0 -> Int.compare b a
       | c -> c)
    by_fingerprint;
  let sinks =
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Sink _ ->
           Some (n, Transfer.entries (Engine.sink_stream eng n.Netlist.id))
         | _ -> None)
      (Netlist.nodes net)
  in
  { g_net = net;
    g_cycles = cycles;
    g_settle = settle;
    g_mode = mode;
    g_sinks =
      List.map
        (fun (n, es) ->
           (n, List.filter (fun e -> e.Transfer.cycle < cycles) es))
        sinks;
    g_violations = violations;
    g_starvation = starvation;
    g_snaps = Array.map (fun (s, _, _) -> s) trajectory;
    g_fingerprints = fingerprints;
    g_by_fingerprint = by_fingerprint;
    g_reports = Array.map (fun (_, _, r) -> r) trajectory;
    g_streams =
      List.map (fun ((n : Netlist.node), es) -> (n.Netlist.id, es)) sinks }

type faulted = {
  f_sinks : (Netlist.node_id * Transfer.entry list) list;
  f_violations : (string * Protocol.violation) list;
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
    else
      List.fold_left (fun a f -> min a f.Fault.cycle) horizon faults
      |> min last |> max 0
  in
  let flt =
    match engine with Some e -> e | None -> faulted_engine golden
  in
  (* [restore] leaves a reused engine's observers, injector and profile
     alone: reset them so this scenario starts as on a fresh engine. *)
  Engine.set_observer flt None;
  Profile.reset (Engine.profile flt);
  Engine.set_injector flt (Some (Fault.injector plan));
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
        Engine.step
          ~choices:(fun nid -> Fault.choices plan ~cycle:c nid)
          flt;
        Fault.observe plan flt;
        go ()
  in
  let cut, crash =
    try (go (), None) with
    | Engine.Simulation_error e -> (None, Some (Engine.error_to_string e))
    | e -> (None, Some (Printexc.to_string e))
  in
  let splice nid golden_entries =
    let own = Transfer.entries (Engine.sink_stream flt nid) in
    match cut with
    | None -> own
    | Some (c, g) ->
      let stop = g + total - c in
      own
      @ List.filter_map
          (fun (e : Transfer.entry) ->
             if e.Transfer.cycle >= g && e.Transfer.cycle < stop then
               Some { e with Transfer.cycle = e.Transfer.cycle + c - g }
             else None)
          golden_entries
  in
  { f_sinks =
      List.map (fun (nid, es) -> (nid, splice nid es)) golden.g_streams;
    f_violations = Engine.violations flt;
    f_starvation = Engine.starvation_violations flt;
    f_crash = crash;
    f_stabilized = Option.map (fun (c, g) -> (c - horizon, c - g)) cut }

let classify ?(alarms = []) golden ~faults (f : faulted) =
  let net = golden.g_net in
  let settle = golden.g_settle in
  let data_sinks =
    List.filter
      (fun ((n : Netlist.node), _) -> not (List.mem_assoc n.Netlist.id alarms))
      golden.g_sinks
  in
  let flt_entries nid =
    match List.assoc_opt nid f.f_sinks with
    | Some es -> es
    | None ->
      invalid_arg
        (Fmt.str "Recovery.classify: alarm node %d is not a sink" nid)
  in
  let ref_transfers =
    List.fold_left (fun a (_, re) -> a + List.length re) 0 data_sinks
  in
  let faulted_transfers =
    List.fold_left
      (fun a ((n : Netlist.node), _) ->
         a + List.length (flt_entries n.Netlist.id))
      0 data_sinks
  in
  let fresh =
    fresh_violations ~ref_viols:golden.g_violations
      ~flt_viols:f.f_violations
  in
  let fresh_starvation =
    List.filter
      (fun s -> not (List.mem s golden.g_starvation))
      f.f_starvation
  in
  let alarm_trips entries_of =
    List.fold_left
      (fun acc (nid, pred) ->
         acc
         + List.length
             (List.filter (fun e -> pred e.Transfer.value) (entries_of nid)))
      0 alarms
  in
  (* An alarm id that names no sink is missing from the golden run;
     [flt_entries] rejects it first. *)
  let ref_entries nid =
    List.find_map
      (fun ((n : Netlist.node), re) ->
         if n.Netlist.id = nid then Some re else None)
      golden.g_sinks
    |> Option.value ~default:[]
  in
  let monitor_detection () =
    match fresh with
    | (name, v) :: _ ->
      let endpoints =
        List.find_opt
          (fun (c : Netlist.channel) -> c.Netlist.ch_name = name)
          (Netlist.channels net)
      in
      let prov =
        match endpoints with
        | Some c ->
          Fmt.str " (channel id %d, node %d -> node %d)" c.Netlist.ch_id
            c.Netlist.src.Netlist.ep_node c.Netlist.dst.Netlist.ep_node
        | None -> ""
      in
      Some
        (Fmt.str "protocol monitor on channel %s%s: %s at cycle %d" name
           prov v.Protocol.property v.Protocol.cycle)
    | [] ->
      (match fresh_starvation with
       | s :: _ -> Some (Fmt.str "starvation watchdog: %s" s)
       | [] ->
         let flt_trips = alarm_trips flt_entries in
         let ref_trips = alarm_trips ref_entries in
         if flt_trips > ref_trips then
           Some
             (Fmt.str "alarm sink tripped %d time%s" (flt_trips - ref_trips)
                (if flt_trips - ref_trips = 1 then "" else "s"))
         else None)
  in
  let compare_sink ((n : Netlist.node), re) =
    let rec go i lag rs fs =
      match (rs, fs) with
      | [], [] -> `Lag lag
      (* Example workloads are finite streams, so once the reference has
         drained, anything extra the faulted run delivered is a spurious
         (duplicated or forged) token. *)
      | [], (_ :: _ as extra) ->
        let k = List.length extra in
        `Mismatch
          (Fmt.str "sink %s: %d spurious extra transfer%s" n.Netlist.name k
             (if k = 1 then "" else "s"))
      | _ :: _, [] -> `Short (List.length rs)
      | r :: rs', f :: fs' ->
        if not (Value.equal r.Transfer.value f.Transfer.value) then
          `Mismatch
            (Fmt.str "sink %s transfer %d: expected %s, got %s"
               n.Netlist.name i
               (Value.to_string r.Transfer.value)
               (Value.to_string f.Transfer.value))
        else go (i + 1) (max lag (f.Transfer.cycle - r.Transfer.cycle)) rs'
               fs'
    in
    go 0 0 re (flt_entries n.Netlist.id)
  in
  let classification =
    match f.f_crash with
    | Some why -> Crashed why
    | None ->
      (match monitor_detection () with
       | Some why -> Detected why
       | None ->
         let results = List.map compare_sink data_sinks in
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
    ref_transfers;
    faulted_transfers;
    fresh_violations = fresh;
    stabilized = f.f_stabilized }

let check ?alarms ?observer ?engine golden ~faults =
  classify ?alarms golden ~faults
    (run_faulted ?engine ?observer golden ~faults)

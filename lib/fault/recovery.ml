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
  g_mode : Engine.eval_mode;
  g_sinks : (Netlist.node * Transfer.entry list) list;
  g_violations : (string * Protocol.violation) list;
  g_starvation : string list;
}

let golden_run ?(cycles = 300) ?(mode = Engine.default_mode) net =
  let eng = Engine.create ~monitor:true ~mode net in
  Engine.run eng cycles;
  let sink (n : Netlist.node) =
    match n.Netlist.kind with
    | Netlist.Sink _ ->
      Some (n, Transfer.entries (Engine.sink_stream eng n.Netlist.id))
    | _ -> None
  in
  { g_net = net;
    g_cycles = cycles;
    g_mode = mode;
    g_sinks = List.filter_map sink (Netlist.nodes net);
    g_violations = Engine.violations eng;
    g_starvation = Engine.starvation_violations eng }

let check ?(cycles = 300) ?(settle = 60) ?(alarms = []) ?mode ?observer
    ?golden net ~faults =
  let mode = Option.value mode ~default:Engine.default_mode in
  let plan = Fault.plan net faults in
  let golden =
    match golden with
    | None -> golden_run ~cycles ~mode net
    | Some g ->
      if g.g_net != net || g.g_cycles <> cycles || g.g_mode <> mode then
        invalid_arg
          "Recovery.check: golden run built for another netlist, cycle \
           count or eval mode";
      g
  in
  let flt = Engine.create ~monitor:true ~mode net in
  Engine.set_injector flt (Some (Fault.injector plan));
  (match observer with
   | None -> ()
   | Some attach -> attach flt);
  (* The faulted run gets [settle] cycles more than the golden one: a
     replayed token arrives late, so let it drain before declaring
     transfers lost. *)
  let crash =
    try
      for _ = 1 to cycles + settle do
        Engine.step
          ~choices:(fun nid ->
              Fault.choices plan ~cycle:(Engine.cycle flt) nid)
          flt;
        Fault.observe plan flt
      done;
      None
    with
    | Engine.Simulation_error e -> Some (Engine.error_to_string e)
    | e -> Some (Printexc.to_string e)
  in
  let data_sinks =
    List.filter
      (fun ((n : Netlist.node), _) -> not (List.mem_assoc n.Netlist.id alarms))
      golden.g_sinks
  in
  let flt_entries nid = Transfer.entries (Engine.sink_stream flt nid) in
  let ref_transfers =
    List.fold_left (fun a (_, re) -> a + List.length re) 0 data_sinks
  in
  let faulted_transfers =
    List.fold_left
      (fun a ((n : Netlist.node), _) ->
         a + Transfer.length (Engine.sink_stream flt n.Netlist.id))
      0 data_sinks
  in
  let fresh =
    fresh_violations ~ref_viols:golden.g_violations
      ~flt_viols:(Engine.violations flt)
  in
  let fresh_starvation =
    List.filter
      (fun s -> not (List.mem s golden.g_starvation))
      (Engine.starvation_violations flt)
  in
  let alarm_trips entries_of =
    List.fold_left
      (fun acc (nid, pred) ->
         acc
         + List.length
             (List.filter (fun e -> pred e.Transfer.value) (entries_of nid)))
      0 alarms
  in
  (* An alarm id that names no sink is missing from the golden run; the
     faulted engine's [sink_stream] rejects it first. *)
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
    match crash with
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
    fresh_violations = fresh }

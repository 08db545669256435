open Elastic_kernel
open Elastic_netlist
open Elastic_sim

type report = {
  cycles : int;
  matched_sinks : string list;
  transfers : (string * int * int) list;
}

let sinks net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ -> Some (n.Netlist.name, n.Netlist.id)
       | Netlist.Source _ | Netlist.Buffer _ | Netlist.Func _
       | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
       | Netlist.Varlat _ -> None)
    (Netlist.nodes net)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check ?(cycles = 300) a b =
  let sa = sinks a and sb = sinks b in
  if List.map fst sa <> List.map fst sb then
    Error
      (Fmt.str "sink sets differ: [%a] vs [%a]"
         Fmt.(list ~sep:comma string)
         (List.map fst sa)
         Fmt.(list ~sep:comma string)
         (List.map fst sb))
  else begin
    let ea = Engine.create a and eb = Engine.create b in
    Engine.run ea cycles;
    Engine.run eb cycles;
    let protocol_problems e tag =
      match Engine.violations e with
      | [] -> None
      | (ch, v) :: _ ->
        Some
          (Fmt.str "%s: protocol violation on %s: %a" tag ch
             Protocol.pp_violation v)
    in
    match protocol_problems ea "left", protocol_problems eb "right" with
    | Some m, _ | _, Some m -> Error m
    | None, None ->
      let rec compare_sinks acc = function
        | [] ->
          let transfers = List.rev acc in
          (* A comparison that observed no traffic proves nothing: empty
             streams are trivially prefix-equivalent.  Refuse to report
             equivalence vacuously. *)
          if
            transfers = []
            || List.for_all (fun (_, na, nb) -> na = 0 && nb = 0) transfers
          then
            Error
              (Fmt.str
                 "vacuous check: %s in %d cycles — the runs prove \
                  nothing (stalled designs are \"equivalent\" to \
                  everything); extend the run or fix the designs"
                 (if transfers = [] then "no sinks matched"
                  else "no sink transferred a single token")
                 cycles)
          else
            Ok { cycles; matched_sinks = List.map fst sa; transfers }
        | ((name, ida), (_, idb)) :: rest ->
          let ta = Engine.sink_stream ea ida in
          let tb = Engine.sink_stream eb idb in
          if Transfer.prefix_equivalent ta tb then
            compare_sinks
              ((name, Transfer.length ta, Transfer.length tb) :: acc)
              rest
          else
            Error
              (Fmt.str
                 "sink %s: streams diverge@.  left:  %a@.  right: %a" name
                 Transfer.pp ta Transfer.pp tb)
      in
      compare_sinks [] (List.combine sa sb)
  end

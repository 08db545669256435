open Elastic_netlist

type cycle = {
  ratio : float;
  tokens : int;
  latency : int;
  nodes : string list;
}

let pp_cycle ppf c =
  Fmt.pf ppf "%d token(s) / %d EB(s) = %.3f via [%a]" c.tokens c.latency
    c.ratio
    Fmt.(list ~sep:(any " -> ") string)
    c.nodes

type edge = { u : int; v : int; tokens : int; latency : int }

(* Dense vertex numbering, one vertex per way of a node ([Netlist.way]):
   way 0 of node [i] is vertex [i], a shared module's other ways are
   appended.  One edge per channel: a channel leaving a buffer carries
   the buffer's tokens and one cycle of forward latency; all other
   channels are instantaneous.  Returns each vertex's node name and the
   edges, of a netlist the half graph accepts: its verdict, forward or
   backward, is raised as it is. *)
let graph net =
  Option.iter Diagnostic.reject (Halves.refusal net);
  let nodes = Netlist.nodes net in
  let ways (n : Netlist.node) =
    match n.Netlist.kind with
    | Netlist.Shared { ways; _ } -> List.init (ways - 1) (fun j -> (n, j + 1))
    | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _ | Netlist.Func _
    | Netlist.Fork _ | Netlist.Mux _ | Netlist.Varlat _ -> []
  in
  let vertices =
    Array.of_list
      (List.map (fun n -> (n, 0)) nodes @ List.concat_map ways nodes)
  in
  let index = Hashtbl.create 32 in
  Array.iteri
    (fun i ((n : Netlist.node), j) -> Hashtbl.replace index (n.Netlist.id, j) i)
    vertices;
  let vertex (ep : Netlist.endpoint) =
    let n = Netlist.node net ep.Netlist.ep_node in
    Hashtbl.find index
      (ep.Netlist.ep_node, Netlist.way n.Netlist.kind ep.Netlist.ep_port)
  in
  let edge (c : Netlist.channel) =
    let src = Netlist.node net c.Netlist.src.ep_node in
    let tokens, latency =
      match src.Netlist.kind with
      | Netlist.Buffer { init; _ } -> (List.length init, 1)
      | Netlist.Varlat _ -> (0, 1)
      | Netlist.Source _ | Netlist.Sink _ | Netlist.Func _ | Netlist.Fork _
      | Netlist.Mux _ | Netlist.Shared _ -> (0, 0)
    in
    { u = vertex c.Netlist.src; v = vertex c.Netlist.dst; tokens; latency }
  in
  ( Array.map (fun ((n : Netlist.node), _) -> n.Netlist.name) vertices,
    List.map edge (Netlist.channels net) )

(* Bellman-Ford negative-cycle detection for weights tokens - lambda *
   latency.  Returns the cycle's vertices when one exists. *)
let negative_cycle n edges lambda =
  let dist = Array.make n 0.0 in
  let pred = Array.make n (-1) in
  let weight e = float_of_int e.tokens -. (lambda *. float_of_int e.latency) in
  let updated = ref (-1) in
  for _ = 1 to n do
    updated := -1;
    List.iter
      (fun e ->
         let w = dist.(e.u) +. weight e in
         if w < dist.(e.v) -. 1e-12 then begin
           dist.(e.v) <- w;
           pred.(e.v) <- e.u;
           updated := e.v
         end)
      edges
  done;
  if !updated < 0 then None
  else begin
    (* Walk back n steps to land inside the cycle, then collect it. *)
    let v = ref !updated in
    for _ = 1 to n do
      v := pred.(!v)
    done;
    let start = !v in
    let rec follow acc u =
      if u = start && acc <> [] then acc else follow (u :: acc) pred.(u)
    in
    Some (follow [] start)
  end

let cycle_metrics (vertices : int list) names edges =
  (* Vertices are in reverse traversal order; compute token/latency sums
     over the cycle's edges. *)
  let in_cycle = Array.make (Array.length names) false in
  List.iter (fun v -> in_cycle.(v) <- true) vertices;
  let tokens, latency =
    List.fold_left
      (fun (t, l) e ->
         if in_cycle.(e.u) && in_cycle.(e.v) then (t + e.tokens, l + e.latency)
         else (t, l))
      (0, 0) edges
  in
  { ratio =
      (if latency = 0 then 0.0
       else float_of_int tokens /. float_of_int latency);
    tokens; latency; nodes = List.map (fun v -> names.(v)) vertices }

(* Largest lambda in [0, 1] admitting no negative cycle: 1.0 on a graph
   with no cycle, or none below that ratio. *)
let bound n edges =
  if negative_cycle n edges 1.0 = None then 1.0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 50 do
      let mid = 0.5 *. (!lo +. !hi) in
      if negative_cycle n edges mid = None then lo := mid else hi := mid
    done;
    !lo
  end

let throughput_bound net =
  let names, edges = graph net in
  bound (Array.length names) edges

let critical_cycle net =
  let names, edges = graph net in
  let n = Array.length names in
  (* Slightly above the bound, the critical cycle goes negative. *)
  Option.map
    (fun vs -> cycle_metrics vs names edges)
    (negative_cycle n edges (bound n edges +. 1e-6))

let effective_cycle_time net =
  let ct =
    match Timing.analyze net with
    | Ok r -> r.Timing.cycle_time
    | Error msg ->
      invalid_arg ("Marked_graph.effective_cycle_time: " ^ msg)
  in
  ct /. throughput_bound net

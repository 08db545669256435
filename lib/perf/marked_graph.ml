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

(* Dense vertex numbering and one edge per channel.  A channel leaving a
   buffer carries the buffer's tokens and one cycle of forward latency;
   all other channels are instantaneous. *)
let graph_of net =
  let nodes = Netlist.nodes net in
  let index = Hashtbl.create 32 in
  List.iteri
    (fun i (n : Netlist.node) -> Hashtbl.replace index n.Netlist.id i)
    nodes;
  let edge (c : Netlist.channel) =
    let src = Netlist.node net c.Netlist.src.ep_node in
    let tokens, latency =
      match src.Netlist.kind with
      | Netlist.Buffer { init; _ } -> (List.length init, 1)
      | Netlist.Varlat _ -> (0, 1)
      | Netlist.Source _ | Netlist.Sink _ | Netlist.Func _ | Netlist.Fork _
      | Netlist.Mux _ | Netlist.Shared _ -> (0, 0)
    in
    { u = Hashtbl.find index c.Netlist.src.ep_node;
      v = Hashtbl.find index c.Netlist.dst.ep_node; tokens; latency }
  in
  (Array.of_list nodes, List.map edge (Netlist.channels net))

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

let cycle_metrics net (vertices : int list) (nodes : Netlist.node array)
    edges =
  (* Vertices are in reverse traversal order; compute token/latency sums
     over the cycle's edges. *)
  let in_cycle = Array.make (Array.length nodes) false in
  List.iter (fun v -> in_cycle.(v) <- true) vertices;
  let tokens, latency =
    List.fold_left
      (fun (t, l) e ->
         if in_cycle.(e.u) && in_cycle.(e.v) then (t + e.tokens, l + e.latency)
         else (t, l))
      (0, 0) edges
  in
  ignore net;
  { ratio =
      (if latency = 0 then 0.0
       else float_of_int tokens /. float_of_int latency);
    tokens; latency;
    nodes = List.map (fun v -> nodes.(v).Netlist.name) vertices }

let has_cycle n edges =
  (* Any cycle at all: lambda so large every latency edge is very
     negative; a cycle without latency is combinational and will be found
     with tokens-only weights below. *)
  negative_cycle n edges 1e9 <> None

let combinational_cycle n edges =
  (* A cycle with zero latency shows as a negative cycle for weights
     -latency... instead: drop latency edges and look for any cycle among
     zero-latency edges using DFS.  Returns a vertex on the cycle so the
     diagnostic can name it. *)
  let adj = Array.make n [] in
  List.iter
    (fun e -> if e.latency = 0 then adj.(e.u) <- e.v :: adj.(e.u))
    edges;
  let color = Array.make n 0 in
  let witness = ref None in
  let rec dfs u =
    color.(u) <- 1;
    let hit =
      List.exists
        (fun v ->
           if color.(v) = 1 then begin
             if !witness = None then witness := Some v;
             true
           end
           else color.(v) = 0 && dfs v)
        adj.(u)
    in
    if not hit then color.(u) <- 2;
    hit
  in
  let rec any i = i < n && ((color.(i) = 0 && dfs i) || any (i + 1)) in
  if any 0 then !witness else None

(* The zero-latency cycle is the same defect lint reports as E102
   (comb-cycle): no EB registers the loop.  Raising the typed diagnostic
   keeps provenance consistent between the lint engine and the analytic
   bounds. *)
let reject_comb_cycle ~what (nodes : Netlist.node array) v =
  let n = nodes.(v) in
  Diagnostic.reject
    (Diagnostic.make ~code:"E102" ~rule:"comb-cycle"
       ~severity:Diagnostic.Error ~node:n.Netlist.id
       ~node_name:n.Netlist.name
       (Fmt.str
          "Marked_graph.%s: zero-latency cycle through %s (no EB \
           registers the loop, so the token/EB ratio is undefined)"
          what n.Netlist.name))

let throughput_bound net =
  let nodes, edges = graph_of net in
  let n = Array.length nodes in
  (match combinational_cycle n edges with
   | Some v -> reject_comb_cycle ~what:"throughput_bound" nodes v
   | None -> ());
  if not (has_cycle n edges) then 1.0
  else begin
    (* Largest lambda in [0, 1] admitting no negative cycle. *)
    let lo = ref 0.0 and hi = ref 1.0 in
    if negative_cycle n edges 1.0 = None then 1.0
    else begin
      for _ = 1 to 50 do
        let mid = 0.5 *. (!lo +. !hi) in
        if negative_cycle n edges mid = None then lo := mid else hi := mid
      done;
      !lo
    end
  end

let critical_cycle net =
  let nodes, edges = graph_of net in
  let n = Array.length nodes in
  (match combinational_cycle n edges with
   | Some v -> reject_comb_cycle ~what:"critical_cycle" nodes v
   | None -> ());
  if not (has_cycle n edges) then None
  else begin
    let bound = throughput_bound net in
    (* Slightly above the bound, the critical cycle goes negative. *)
    match negative_cycle n edges (bound +. 1e-6) with
    | Some vs -> Some (cycle_metrics net vs nodes edges)
    | None ->
      (* Bound is exactly 1.0 and achieved; surface any cycle. *)
      (match negative_cycle n edges (1.0 +. 1e-6) with
       | Some vs -> Some (cycle_metrics net vs nodes edges)
       | None -> None)
  end

let effective_cycle_time net =
  let ct =
    match Timing.analyze net with
    | Ok r -> r.Timing.cycle_time
    | Error msg ->
      invalid_arg ("Marked_graph.effective_cycle_time: " ^ msg)
  in
  ct /. throughput_bound net

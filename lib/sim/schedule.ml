open Elastic_netlist

(* Static evaluation schedule for the combinational phase of a cycle.

   Each channel wire is split into two write groups with a single owner
   each: the forward group F(c) = {V+, data, S-} written by the channel's
   source node, and the backward group B(c) = {S+, V-} written by its
   destination node.  So each node has two halves: F(i) writes its
   outputs' forward groups, B(i) its inputs' backward groups.  A node
   reads groups according to its equations (its [Control.table], which
   the Reference evaluates, and the arena's hand-written evaluator); the
   read sets below follow those equations kind by kind, and no kind's
   forward outputs read a backward group.  The half graph's edges are
   F(src c) -> F(i) when node i reads F(c); B(dst c) -> B(i) when it
   reads B(c); and F(i) -> B(i), which also orders F(src c) before B(i)
   (a B-half may read the forward groups its F-half reads).  Condensing its strongly connected
   components and ordering the condensation topologically yields one
   static sweep in which every acyclic half settles in one evaluation of
   its node; only a cyclic half-region (a real combinational loop)
   iterates. *)

type t = { sweep : int array; regions : int array array; components : int }

(* Channels whose forward / backward groups the node's eval reads.
   [Eb] is fully registered (reads nothing), which is what breaks the
   src->dst / dst->src cycles every channel would otherwise induce. *)
let read_sets (n : Netlist.node) (ins, sel, outs) =
  let in_chs = Array.to_list ins in
  let sel_ch = Option.to_list sel in
  let out_chs = Array.to_list outs in
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _
  | Netlist.Buffer { buffer = Netlist.Eb; _ } ->
    ([], [])
  | Netlist.Buffer { buffer = Netlist.Eb0; _ } -> (in_chs, out_chs)
  | Netlist.Func _ | Netlist.Mux _ -> (in_chs @ sel_ch, out_chs)
  | Netlist.Fork _ -> (in_chs, out_chs)
  | Netlist.Shared _ -> (in_chs @ sel_ch, out_chs)
  | Netlist.Varlat _ -> ([], out_chs)

(* Half vertices: F(i) = 2i, B(i) = 2i + 1. *)
let f_half i = 2 * i

let b_half i = (2 * i) + 1

let build net ~ports =
  let chans = Array.of_list (Netlist.channels net) in
  let nodes = Array.of_list (Netlist.nodes net) in
  let nnode = Array.length nodes in
  let nhalf = 2 * nnode in
  let nd_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (n : Netlist.node) -> Hashtbl.add nd_tbl n.Netlist.id i)
    nodes;
  let node_of ep = Hashtbl.find nd_tbl ep.Netlist.ep_node in
  let src_of = Array.map (fun c -> node_of c.Netlist.src) chans in
  let dst_of = Array.map (fun c -> node_of c.Netlist.dst) chans in
  let reads = Array.map2 read_sets nodes ports in
  (* Edges writer half -> reader half; a node's reads of its own writes
     are dropped (an eval call reads its own writes consistently within
     the call). *)
  let succs = Array.make nhalf [] in
  let edge u v = succs.(u) <- v :: succs.(u) in
  Array.iteri
    (fun v (rf, rb) ->
       edge (f_half v) (b_half v);
       List.iter
         (fun c ->
            let u = src_of.(c) in
            if u <> v then edge (f_half u) (f_half v))
         rf;
       List.iter
         (fun c ->
            let u = dst_of.(c) in
            if u <> v then edge (b_half u) (b_half v))
         rb)
    reads;
  (* Tarjan; SCCs complete in reverse topological order (readers before
     the writers they depend on), so prepending each leaves [sccs] in
     topological order. *)
  let index = Array.make nhalf (-1) in
  let lowlink = Array.make nhalf 0 in
  let on_stack = Array.make nhalf false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           strongconnect w;
           lowlink.(v) <- min lowlink.(v) lowlink.(w)
         end
         else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to nhalf - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  let order = Array.of_list !sccs in
  let pos = Array.make nhalf 0 in
  Array.iteri (fun k comp -> List.iter (fun h -> pos.(h) <- k) comp) order;
  let single h = match order.(pos.(h)) with [ _ ] -> true | _ -> false in
  (* A node that reads nothing writes everything at its F position.  A
     node whose F-half feeds nothing that comes before its B-half can
     wait for its B position: evaluating later than a half's position is
     always safe, and nothing needs the F writes earlier. *)
  let reads_nothing i = reads.(i) = ([], []) in
  let merged i =
    let b = b_half i in
    (not (reads_nothing i)) && single (f_half i) && single b
    && List.for_all (fun s -> s = b || pos.(s) > pos.(b)) succs.(f_half i)
  in
  let regions = ref [] and nregions = ref 0 in
  let sweep =
    Array.to_list order
    |> List.filter_map (function
      | [ h ] ->
        let i = h / 2 in
        if h = f_half i && merged i then None
        else if h = b_half i && reads_nothing i then None
        else Some i
      | halves ->
        (* Each node once, in the order the search reached its halves. *)
        let members =
          List.fold_left
            (fun acc h -> if List.mem (h / 2) acc then acc else (h / 2) :: acc)
            [] halves
        in
        regions := Array.of_list (List.rev members) :: !regions;
        incr nregions;
        Some (- !nregions))
  in
  { sweep = Array.of_list sweep;
    regions = Array.of_list (List.rev !regions);
    components = Array.length order }

let components t = t.components

let scc_count t = Array.length t.regions

let largest_scc t =
  Array.fold_left (fun acc ms -> max acc (Array.length ms)) 0 t.regions

let scc_nodes t =
  List.length
    (List.sort_uniq compare (List.concat_map Array.to_list (Array.to_list t.regions)))

let pp_stats ppf t =
  Fmt.pf ppf
    "%d components (%d cyclic, %d nodes in cycles, largest region %d)"
    (components t) (scc_count t) (scc_nodes t) (largest_scc t)

open Elastic_netlist

(* Static evaluation schedule for the combinational phase of a cycle.

   Each channel wire is split into two write groups with a single owner
   each: the forward group F(c) = {V+, data, S-} written by the channel's
   source node, and the backward group B(c) = {S+, V-} written by its
   destination node.  A node depends on another when its equations (its
   [Control.table], which the Reference evaluates, and the arena's
   hand-written evaluator) read a group the other writes; the read sets
   below follow those equations kind by kind.  Condensing the strongly
   connected components of that graph and ordering the condensation
   topologically yields a schedule in which every acyclic node settles in
   one evaluation and only the cyclic elastic-control regions iterate. *)

type component = Single of int | Scc of int array

type t = {
  order : component array;
  comp_of : int array;
  readers_f : int array array;
  readers_b : int array array;
  src_of : int array;
  dst_of : int array;
}

(* Channels whose forward / backward groups the node's eval reads.
   [Eb] is fully registered (reads nothing), which is what breaks the
   src->dst / dst->src cycles every channel would otherwise induce. *)
let read_sets net (n : Netlist.node) ~ch_index =
  let ch p =
    match Netlist.channel_at net n.Netlist.id p with
    | Some c -> ch_index c.Netlist.ch_id
    | None -> assert false (* the engine validates before scheduling *)
  in
  let in_chs =
    List.filter_map
      (fun p -> match p with Netlist.In _ -> Some (ch p) | _ -> None)
      (Netlist.required_inputs n.Netlist.kind)
  in
  let sel_ch =
    if
      List.exists
        (fun p -> Netlist.port_equal p Netlist.Sel)
        (Netlist.required_inputs n.Netlist.kind)
    then [ ch Netlist.Sel ]
    else []
  in
  let out_chs = List.map ch (Netlist.required_outputs n.Netlist.kind) in
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _
  | Netlist.Buffer { buffer = Netlist.Eb; _ } ->
    ([], [])
  | Netlist.Buffer { buffer = Netlist.Eb0; _ } -> (in_chs, out_chs)
  | Netlist.Func _ | Netlist.Mux _ -> (in_chs @ sel_ch, out_chs)
  | Netlist.Fork _ -> (in_chs, out_chs)
  | Netlist.Shared _ -> (in_chs @ sel_ch, out_chs)
  | Netlist.Varlat _ -> ([], out_chs)

let build net =
  let chans = Array.of_list (Netlist.channels net) in
  let nodes = Array.of_list (Netlist.nodes net) in
  let nchan = Array.length chans and nnode = Array.length nodes in
  let ch_tbl = Hashtbl.create 64 and nd_tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Netlist.channel) -> Hashtbl.add ch_tbl c.Netlist.ch_id i)
    chans;
  Array.iteri
    (fun i (n : Netlist.node) -> Hashtbl.add nd_tbl n.Netlist.id i)
    nodes;
  let src_of =
    Array.map
      (fun (c : Netlist.channel) ->
         Hashtbl.find nd_tbl c.Netlist.src.Netlist.ep_node)
      chans
  in
  let dst_of =
    Array.map
      (fun (c : Netlist.channel) ->
         Hashtbl.find nd_tbl c.Netlist.dst.Netlist.ep_node)
      chans
  in
  let reads =
    Array.map
      (fun n -> read_sets net n ~ch_index:(Hashtbl.find ch_tbl))
      nodes
  in
  let readers_f = Array.make nchan [] and readers_b = Array.make nchan [] in
  Array.iteri
    (fun v (rf, rb) ->
       List.iter (fun c -> readers_f.(c) <- v :: readers_f.(c)) rf;
       List.iter (fun c -> readers_b.(c) <- v :: readers_b.(c)) rb)
    reads;
  (* Edges writer -> reader, self-edges dropped (an eval call reads its
     own writes consistently within the call). *)
  let succs = Array.make nnode [] in
  Array.iteri
    (fun v (rf, rb) ->
       let edge u = if u <> v then succs.(u) <- v :: succs.(u) in
       List.iter (fun c -> edge src_of.(c)) rf;
       List.iter (fun c -> edge dst_of.(c)) rb)
    reads;
  (* Tarjan; SCCs complete in reverse topological order (readers before
     the writers they depend on), so the list is reversed at the end. *)
  let index = Array.make nnode (-1) in
  let lowlink = Array.make nnode 0 in
  let on_stack = Array.make nnode false in
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
  for v = 0 to nnode - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  let order =
    Array.of_list
      (List.map
         (function
           | [ v ] -> Single v
           | members -> Scc (Array.of_list members))
         !sccs)
  in
  let comp_of = Array.make nnode 0 in
  Array.iteri
    (fun i comp ->
       match comp with
       | Single v -> comp_of.(v) <- i
       | Scc ms -> Array.iter (fun v -> comp_of.(v) <- i) ms)
    order;
  { order;
    comp_of;
    readers_f = Array.map Array.of_list readers_f;
    readers_b = Array.map Array.of_list readers_b;
    src_of;
    dst_of }

let components t = Array.length t.order

let scc_count t =
  Array.fold_left
    (fun acc c -> match c with Scc _ -> acc + 1 | Single _ -> acc)
    0 t.order

let largest_scc t =
  Array.fold_left
    (fun acc c ->
       match c with Scc ms -> max acc (Array.length ms) | Single _ -> acc)
    0 t.order

let scc_nodes t =
  Array.fold_left
    (fun acc c ->
       match c with Scc ms -> acc + Array.length ms | Single _ -> acc)
    0 t.order

let pp_stats ppf t =
  Fmt.pf ppf
    "%d components (%d cyclic, %d nodes in cycles, largest region %d)"
    (components t) (scc_count t) (scc_nodes t) (largest_scc t)

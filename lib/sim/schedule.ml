open Elastic_netlist

(* Static evaluation schedule for the combinational phase of a cycle.

   Each channel wire is split into two write groups with a single owner
   each: the forward group F(c) = {V+, data, S-} written by the channel's
   source node, and the backward group B(c) = {S+, V-} written by its
   destination node.  So each node has two halves: F(i) writes its
   outputs' forward groups, B(i) its inputs' backward groups.  A node
   reads groups according to its equations (its [Control.table], which
   the Reference evaluates, and the arena's hand-written halves); the
   read sets below follow those equations kind by kind, and no kind's
   forward outputs read a backward group.  The half graph's edges are
   F(src c) -> F(i) when node i reads F(c); B(dst c) -> B(i) when it
   reads B(c); and F(i) -> B(i), which also orders F(src c) before B(i)
   (a B-half may read the forward groups its F-half reads).  A
   topological order of this graph is the sweep, in which every half
   runs once, after everything it reads.  A cycle in it is a real
   combinational loop, which [build] refuses. *)

type t = { sweep : int array }

(* Channels whose forward / backward groups the node's halves read.
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
  | Netlist.Func _ | Netlist.Mux _ | Netlist.Shared _ ->
    (in_chs @ sel_ch, out_chs)
  | Netlist.Fork _ -> (in_chs, out_chs)
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
  (* Edges writer half -> reader half.  A node reading its own write is
     a self-loop channel: a combinational cycle, kept as an edge. *)
  let succs = Array.make nhalf [] in
  let edge u v = succs.(u) <- v :: succs.(u) in
  Array.iteri
    (fun v (rf, rb) ->
       edge (f_half v) (b_half v);
       List.iter (fun c -> edge (f_half src_of.(c)) (f_half v)) rf;
       List.iter (fun c -> edge (b_half dst_of.(c)) (b_half v)) rb)
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
  (* A component is cyclic when it holds two halves, or one that reads
     its own write. *)
  let cyclic = function [ h ] -> List.mem h succs.(h) | _ -> true in
  match List.find_opt cyclic !sccs with
  | Some region ->
    (* The channels read along the region's edges. *)
    let inside = Array.make nhalf false in
    List.iter (fun h -> inside.(h) <- true) region;
    let read u v c acc = if inside.(u) && inside.(v) then c :: acc else acc in
    let chans = ref [] in
    Array.iteri
      (fun v (rf, rb) ->
         List.iter
           (fun c -> chans := read (f_half src_of.(c)) (f_half v) c !chans)
           rf;
         List.iter
           (fun c -> chans := read (b_half dst_of.(c)) (b_half v) c !chans)
           rb)
      reads;
    Error (List.sort_uniq compare !chans)
  | None ->
    (* A half that writes nothing — a source's B half, a sink's F
       half — is left out. *)
    let writes h =
      let ins, sel, outs = ports.(h / 2) in
      if h land 1 = 0 then Array.length outs > 0
      else Array.length ins > 0 || Option.is_some sel
    in
    Ok { sweep = Array.of_list (List.filter writes (List.concat !sccs)) }

let halves t = Array.length t.sweep

let pp_stats ppf t = Fmt.pf ppf "%d halves in one sweep" (halves t)

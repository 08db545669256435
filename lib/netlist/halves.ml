(* What each half of a shape reads is derived from the shape's
   [Control.program], whose leaves name channel bits by port, once per
   process, and resolved per node to channel indices. *)

(* A packed half: node index, way and direction in one int. *)
let shift = 21

let[@inline] node h = h lsr shift

let[@inline] way h = (h lsr 1) land ((1 lsl (shift - 1)) - 1)

let[@inline] backward h = h land 1 = 1

let code ~way ~bwd = (way lsl 1) lor Bool.to_int bwd

(* Tarjan; a vertex whose component is done gets index and lowlink
   [max_int].  A component completes after every component it reaches,
   so prepending each leaves them in topological order. *)
let components succs =
  let index = Array.make (Array.length succs) (-1) in
  let low = Array.copy index in
  let stack = ref [] and counter = ref 0 and comps = ref [] in
  let rec visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           visit w;
           low.(v) <- min low.(v) low.(w)
         end
         else low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          index.(w) <- max_int;
          low.(w) <- max_int;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> assert false
      in
      comps := pop [] :: !comps
    end
  in
  Array.iteri (fun v i -> if i < 0 then visit v) index;
  !comps

let cyclic succs = function [ v ] -> List.mem v succs.(v) | _ -> true

(* The payload reads the tables do not carry, as forward groups: a half
   that moves or applies a payload reads its producer's; an early mux's
   select value, which both its halves read, is its select's payload.
   A shared module's prediction is its scheduler's register. *)
let data (shape : Control.shape) h =
  let ins n = List.init n (fun k -> Netlist.In k) in
  match (shape, backward h) with
  | Control.Join n, false -> ins n
  | Control.Mux { ways; _ }, false -> Netlist.Sel :: ins ways
  | Control.Mux { early = true; _ }, true -> [ Netlist.Sel ]
  | (Control.Fork _ | Control.Shared _), false -> [ Netlist.In (way h) ]
  | _ -> []

(* A shape's halves, by ascending [code]: the ports whose groups each
   writes, and its reads, [(port, bwd)] for the backward group of the
   channel at [port] when [bwd], else its forward group. *)
type half = {
  code : int;
  writes : Netlist.port list;
  reads : (Netlist.port * bool) list;
}

(* Whether control bit [b] ([Signal.code] layout) is in a backward
   group. *)
let bwd b = Elastic_kernel.Signal.(b = s_plus_bit || b = v_minus_bit)

let of_shape shape =
  let assigns = (Control.program shape).Control.resolved.Control.assigns in
  (* The half writing a group the node writes (the forward groups of its
     outputs, the backward groups of its inputs), -1 for any other. *)
  let owner (p, bwd) =
    match (shape, p) with
    | Control.Shared _, Netlist.Out j when not bwd -> code ~way:j ~bwd
    | Control.Shared _, Netlist.In j when bwd -> code ~way:j ~bwd
    | _, Netlist.Out _ when not bwd -> code ~way:0 ~bwd
    | _, (Netlist.In _ | Netlist.Sel) when bwd -> code ~way:0 ~bwd
    | _ -> -1
  in
  let writes = ref [] and reads = ref [] in
  List.iter
    (function
      | Control.Slot _, _ -> ()
      | Control.Chan (p, b), e ->
        let h = owner (p, bwd b) in
        writes := (h, p) :: !writes;
        let rec walk = function
          | Control.T | Control.F | Control.Is _ -> ()
          | Control.Not e -> walk e
          | Control.And es | Control.Or es -> List.iter walk es
          | Control.Var (Control.Chan (p, b)) ->
            if owner (p, bwd b) <> h then reads := (h, (p, bwd b)) :: !reads
          | Control.Var (Control.Slot _ as x) ->
            (* a register or an input has no assign, and reads nothing *)
            Option.iter walk (List.assoc_opt x assigns)
        in
        walk e)
    assigns;
  let of_half h l =
    List.sort_uniq compare
      (List.filter_map (fun (h', x) -> if h' = h then Some x else None) l)
  in
  List.sort_uniq compare (List.map fst !writes)
  |> List.map (fun h ->
      let data = List.map (fun p -> (h, (p, false))) (data shape h) in
      { code = h; writes = of_half h !writes;
        reads = of_half h (data @ !reads) })
  |> Array.of_list

let of_shape = Control.memo of_shape

type t = {
  nodes : Netlist.node array;
  channels : Netlist.channel array;
  ports : (int array * int option * int array) array;
  regions : int list list;
  sweep : int array;
}

let build net =
  let nodes = Array.of_list (Netlist.nodes net) in
  let channels = Array.of_list (Netlist.channels net) in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i (n : Netlist.node) -> Hashtbl.replace index n.Netlist.id i)
    nodes;
  let slots ports f =
    Array.map
      (fun (n : Netlist.node) ->
         Array.make (List.length (List.filter f (ports n.Netlist.kind))) (-1))
      nodes
  in
  let ins = slots Netlist.required_inputs (( <> ) Netlist.Sel) in
  let outs = slots Netlist.required_outputs (fun _ -> true) in
  let sel = Array.make (Array.length nodes) (-1) in
  (* Each channel fills the ports it names; an end naming no node or no
     port of it (a structural error) fills none. *)
  let place j (ep : Netlist.endpoint) =
    match (Hashtbl.find_opt index ep.Netlist.ep_node, ep.Netlist.ep_port) with
    | Some i, Netlist.Out k when k >= 0 && k < Array.length outs.(i) ->
      outs.(i).(k) <- j
    | Some i, Netlist.In k when k >= 0 && k < Array.length ins.(i) ->
      ins.(i).(k) <- j
    | Some i, Netlist.Sel -> sel.(i) <- j
    | _ -> ()
  in
  Array.iteri
    (fun j (c : Netlist.channel) ->
       place j c.Netlist.src;
       place j c.Netlist.dst)
    channels;
  let port i = function
    | Netlist.In k -> ins.(i).(k)
    | Netlist.Out k -> outs.(i).(k)
    | Netlist.Sel -> sel.(i)
  in
  let halves =
    Array.map
      (fun (n : Netlist.node) -> of_shape (Control.shape n.Netlist.kind))
      nodes
  in
  (* [each f] calls [f i v h] on every half [h] of every node [i], [v]
     numbering the half vertices node by node. *)
  let each f =
    let v = ref (-1) in
    Array.iteri (fun i -> Array.iter (fun h -> incr v; f i !v h)) halves
  in
  let nv = Array.fold_left (fun n hs -> n + Array.length hs) 0 halves in
  (* The packed halves, and the vertex writing each channel's forward
     group and its backward group (-1 where a dangling end leaves one
     unwritten). *)
  let packed = Array.make nv 0 in
  let fw = Array.make (Array.length channels) (-1) in
  let bw = Array.copy fw in
  each (fun i v h ->
      packed.(v) <- (i lsl shift) lor h.code;
      List.iter
        (fun p ->
           let c = port i p in
           if c >= 0 then (if backward h.code then bw else fw).(c) <- v)
        h.writes);
  (* [f writer reader c] for every read, of channel [c]. *)
  let iter_reads f =
    each (fun i v h ->
        List.iter
          (fun (p, bwd) ->
             let c = port i p in
             let w = if c < 0 then -1 else (if bwd then bw else fw).(c) in
             if w >= 0 then f w v c)
          h.reads)
  in
  let succs = Array.make nv [] in
  iter_reads (fun u v _ -> succs.(u) <- v :: succs.(u));
  let comps = components succs in
  let cyclic = List.filter (cyclic succs) comps in
  (* The channels read along each cyclic region's edges. *)
  let region = Array.make (if cyclic = [] then 0 else nv) (-1) in
  List.iteri (fun r comp -> List.iter (fun v -> region.(v) <- r) comp) cyclic;
  let read = Array.make (List.length cyclic) [] in
  if cyclic <> [] then
    iter_reads (fun u v c ->
        if region.(u) >= 0 && region.(u) = region.(v) then
          read.(region.(u)) <- c :: read.(region.(u)));
  let sweep = Array.make (if cyclic = [] then nv else 0) 0 and k = ref 0 in
  if cyclic = [] then
    List.iter (List.iter (fun v -> sweep.(!k) <- packed.(v); incr k)) comps;
  { nodes; channels; sweep;
    ports =
      Array.mapi
        (fun i a -> (a, (if sel.(i) < 0 then None else Some sel.(i)), outs.(i)))
        ins;
    regions = Array.to_list (Array.map (List.sort_uniq compare) read) }

let cycle_names ?(limit = 6) net comp =
  let names =
    List.map (fun cid -> (Netlist.channel net cid).Netlist.ch_name) comp
  in
  let shown = List.filteri (fun i _ -> i < limit) names in
  String.concat " -> " shown
  ^ (if List.length names > limit then
       Fmt.str " -> ... (%d channels)" (List.length names)
     else "")

let into_eb0 net cid =
  match
    (Netlist.node net (Netlist.channel net cid).Netlist.dst.Netlist.ep_node)
      .Netlist.kind
  with
  | Netlist.Buffer { buffer = Netlist.Eb0; _ } -> true
  | _ -> false

(* Regions that share a channel are one finding, named by its least
   channel; a region through an Eb0 is its backward stop path, whose
   Lb = 0 makes stop/kill traverse the buffer combinationally (Fig. 5),
   any other has no buffer at all. *)
let combinational_cycle net =
  let h = build net in
  let rec merge = function
    | [] -> []
    | r :: rest ->
      let linked, apart =
        List.partition (List.exists (fun c -> List.mem c r)) (merge rest)
      in
      List.sort_uniq compare (List.concat (r :: linked)) :: apart
  in
  merge h.regions
  |> List.map (List.map (fun i -> h.channels.(i).Netlist.ch_id))
  |> List.sort compare
  |> List.map (fun comp ->
      let first = List.hd comp in
      let has_eb0 = List.exists (into_eb0 net) comp in
      Diagnostic.make ~code:"E102" ~rule:"comb-cycle"
        ~severity:Diagnostic.Error ~channel:first
        ~channel_name:(Netlist.channel net first).Netlist.ch_name
        ~fixit:(Diagnostic.Insert_bubble { channel = first })
        (Fmt.str
           "cycle broken by no EB (Lf=1, Lb=1): %s is combinational \
            (%s): %s"
           (if has_eb0 then "the backward stop/kill path" else "the loop")
           (if has_eb0 then
              "eb0 has Lb = 0, so stop traverses it in zero cycles"
            else "no elastic buffer registers it")
           (cycle_names net comp)))

let refusal net =
  match Netlist.diagnostics net with
  | d :: _ -> Some d
  | [] -> List.nth_opt (combinational_cycle net) 0

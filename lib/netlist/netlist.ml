(* Bring the SELF kernel modules (Value, Signal, ...) into scope. *)
open Elastic_kernel
open Elastic_sched

module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type node_id = int

type channel_id = int

type port = Sel | In of int | Out of int

let pp_port ppf = function
  | Sel -> Fmt.string ppf "sel"
  | In i -> Fmt.pf ppf "in%d" i
  | Out i -> Fmt.pf ppf "out%d" i

let port_equal a b =
  match a, b with
  | Sel, Sel -> true
  | In i, In j | Out i, Out j -> i = j
  | (Sel | In _ | Out _), _ -> false

type buffer_kind = Eb | Eb0

let buffer_kind_name = function Eb -> "eb" | Eb0 -> "eb0"

(* C = Lf + Lb: Eb is (1,1), Eb0 the Fig. 5 (1,0) implementation. *)
let buffer_capacity = function Eb -> 2 | Eb0 -> 1

type source_spec =
  | Stream of Value.t list
  | Counter of { start : int; step : int }
  | Random_rate of { pct : int; seed : int }
  | Nondet of Value.t list

type sink_spec =
  | Always_ready
  | Stall_pattern of bool array
  | Random_stall of { pct : int; seed : int }

type kind =
  | Source of source_spec
  | Sink of sink_spec
  | Buffer of { buffer : buffer_kind; init : Value.t list }
  | Func of Func.t
  | Fork of int
  | Mux of { ways : int; early : bool }
  | Shared of {
      ways : int;
      f : Func.t;
      sched : Scheduler.spec;
      hinted : bool;
    }
  | Varlat of { fast : Func.t; slow : Func.t; err : Func.t }

let kind_name = function
  | Source _ -> "source"
  | Sink _ -> "sink"
  | Buffer { buffer; init } ->
    Fmt.str "%s[%d]" (buffer_kind_name buffer) (List.length init)
  | Func f -> f.Func.name
  | Fork n -> Fmt.str "fork%d" n
  | Mux { ways; early } ->
    Fmt.str "%smux%d" (if early then "e" else "") ways
  | Shared { ways; f; sched; hinted } ->
    Fmt.str "shared%d%s(%s,%s)" ways
      (if hinted then "h" else "")
      f.Func.name (Scheduler.spec_name sched)
  | Varlat { fast; slow; _ } ->
    Fmt.str "varlat(%s|%s)" fast.Func.name slow.Func.name

type node = { id : node_id; name : string; kind : kind }

type endpoint = { ep_node : node_id; ep_port : port }

type channel = {
  ch_id : channel_id;
  ch_name : string;
  src : endpoint;
  dst : endpoint;
  width : int;
}

type t = {
  node_map : node IntMap.t;
  channel_map : channel IntMap.t;
  (* Node id -> ids of the channels with an endpoint (source or
     destination) on it; a node with none has no entry.  Keyed by id
     alone, so [unsafe_connect]'s endpoints on absent nodes are indexed
     too.  Every writer of [channel_map] keeps it in step. *)
  attached : IntSet.t IntMap.t;
  next_node : int;
  next_channel : int;
}

let empty =
  { node_map = IntMap.empty; channel_map = IntMap.empty;
    attached = IntMap.empty; next_node = 0; next_channel = 0 }

let attach c attached =
  let add nid =
    IntMap.update nid (fun s ->
        Some (IntSet.add c.ch_id (Option.value s ~default:IntSet.empty)))
  in
  add c.dst.ep_node (add c.src.ep_node attached)

let detach c attached =
  let remove nid =
    IntMap.update nid (function
      | None -> None
      | Some s ->
        let s = IntSet.remove c.ch_id s in
        if IntSet.is_empty s then None else Some s)
  in
  remove c.dst.ep_node (remove c.src.ep_node attached)

let required_inputs = function
  | Source _ -> []
  | Sink _ -> [ In 0 ]
  | Buffer _ -> [ In 0 ]
  | Func f -> List.init f.Func.arity (fun i -> In i)
  | Fork _ -> [ In 0 ]
  | Mux { ways; _ } -> Sel :: List.init ways (fun i -> In i)
  | Shared { ways; hinted; _ } ->
    let ins = List.init ways (fun i -> In i) in
    if hinted then Sel :: ins else ins
  | Varlat _ -> [ In 0 ]

let required_outputs = function
  | Source _ -> [ Out 0 ]
  | Sink _ -> []
  | Buffer _ -> [ Out 0 ]
  | Func _ -> [ Out 0 ]
  | Fork n -> List.init n (fun i -> Out i)
  | Mux _ -> [ Out 0 ]
  | Shared { ways; _ } -> List.init ways (fun i -> Out i)
  | Varlat _ -> [ Out 0 ]

let is_output_port = function Out _ -> true | In _ | Sel -> false

let add_node ?name t kind =
  let id = t.next_node in
  let name =
    match name with Some n -> n | None -> Fmt.str "%s_%d" (kind_name kind) id
  in
  let node = { id; name; kind } in
  ({ t with node_map = IntMap.add id node t.node_map; next_node = id + 1 },
   id)

let node t id =
  match IntMap.find_opt id t.node_map with
  | Some n -> n
  | None -> invalid_arg (Fmt.str "Netlist.node: no node %d" id)

let channel t id =
  match IntMap.find_opt id t.channel_map with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Netlist.channel: no channel %d" id)

let nodes t = IntMap.fold (fun _ n acc -> n :: acc) t.node_map [] |> List.rev

let channels t =
  IntMap.fold (fun _ c acc -> c :: acc) t.channel_map [] |> List.rev

let node_count t = IntMap.cardinal t.node_map

let channel_count t = IntMap.cardinal t.channel_map

let find_node t name =
  IntMap.fold
    (fun _ n acc -> if acc = None && String.equal n.name name then Some n
      else acc)
    t.node_map None

(* The channels attached to node [id] in ascending id order, the order
   of [channels]: a walk over them meets the matches a scan of the whole
   list would, in the same order. *)
let channels_of t id =
  match IntMap.find_opt id t.attached with
  | None -> []
  | Some s ->
    List.map (fun cid -> IntMap.find cid t.channel_map) (IntSet.elements s)

let incoming t id = List.filter (fun c -> c.dst.ep_node = id) (channels_of t id)

let outgoing t id = List.filter (fun c -> c.src.ep_node = id) (channels_of t id)

let channel_at t id port =
  List.find_opt
    (fun c ->
       (c.src.ep_node = id && port_equal c.src.ep_port port)
       || (c.dst.ep_node = id && port_equal c.dst.ep_port port))
    (channels_of t id)

let persistent t c =
  match (node t c.src.ep_node).kind with
  | Shared _ -> false
  | Source _ | Sink _ | Buffer _ | Func _ | Fork _ | Mux _ | Varlat _ -> true

let port_exists kind port ~as_output =
  let valid =
    if as_output then required_outputs kind else required_inputs kind
  in
  List.exists (port_equal port) valid

let check_port_free t id port ~as_output =
  match channel_at t id port with
  | Some c ->
    let n = node t id in
    invalid_arg
      (Fmt.str "Netlist.connect: port %a of %s already used by channel %s"
         pp_port port n.name c.ch_name)
  | None ->
    let n = node t id in
    if not (port_exists n.kind port ~as_output) then
      invalid_arg
        (Fmt.str "Netlist.connect: node %s (%s) has no %s port %a" n.name
           (kind_name n.kind)
           (if as_output then "output" else "input")
           pp_port port)

let connect ?name ?(width = 8) t (n1, p1) (n2, p2) =
  if not (is_output_port p1) then
    invalid_arg "Netlist.connect: source endpoint must be an output port";
  if is_output_port p2 then
    invalid_arg "Netlist.connect: destination endpoint must be an input port";
  check_port_free t n1 p1 ~as_output:true;
  check_port_free t n2 p2 ~as_output:false;
  let id = t.next_channel in
  let ch_name =
    match name with
    | Some n -> n
    | None ->
      Fmt.str "%s.%a->%s.%a" (node t n1).name pp_port p1 (node t n2).name
        pp_port p2
  in
  let c =
    { ch_id = id; ch_name; src = { ep_node = n1; ep_port = p1 };
      dst = { ep_node = n2; ep_port = p2 }; width }
  in
  ({ t with channel_map = IntMap.add id c t.channel_map;
            attached = attach c t.attached; next_channel = id + 1 },
   id)

(* Raw channel insertion with no direction, arity or occupancy checks —
   the lint mutation generator uses it to build the broken netlists the
   safe [connect] refuses to create (multiply-driven ports, dangling
   endpoints, zero widths). *)
let unsafe_connect ?name ?(width = 8) t (n1, p1) (n2, p2) =
  let id = t.next_channel in
  let ep_name nid p =
    match IntMap.find_opt nid t.node_map with
    | Some n -> Fmt.str "%s.%a" n.name pp_port p
    | None -> Fmt.str "n%d.%a" nid pp_port p
  in
  let ch_name =
    match name with
    | Some n -> n
    | None -> Fmt.str "%s->%s" (ep_name n1 p1) (ep_name n2 p2)
  in
  let c =
    { ch_id = id; ch_name; src = { ep_node = n1; ep_port = p1 };
      dst = { ep_node = n2; ep_port = p2 }; width }
  in
  ({ t with channel_map = IntMap.add id c t.channel_map;
            attached = attach c t.attached; next_channel = id + 1 },
   id)

let remove_channel t id =
  let c = channel t id in
  { t with channel_map = IntMap.remove id t.channel_map;
           attached = detach c t.attached }

let remove_node t id =
  let n = node t id in
  (match channels_of t id with
   | [] -> ()
   | c :: _ ->
     invalid_arg
       (Fmt.str "Netlist.remove_node: %s still attached to channel %s"
          n.name c.ch_name));
  { t with node_map = IntMap.remove id t.node_map }

let replace_kind t id kind =
  let n = node t id in
  { t with node_map = IntMap.add id { n with kind } t.node_map }

let set_end t cid (nid, port) ~src =
  let c = channel t cid in
  if src then begin
    if not (is_output_port port) then
      invalid_arg "Netlist.set_src: must be an output port"
  end
  else if is_output_port port then
    invalid_arg "Netlist.set_dst: must be an input port";
  (* The port must be free (ignoring this very channel). *)
  (match channel_at t nid port with
   | Some c' when c'.ch_id <> cid ->
     invalid_arg
       (Fmt.str "Netlist.set_%s: port %a of %s already used"
          (if src then "src" else "dst") pp_port port (node t nid).name)
   | Some _ | None -> ());
  let n = node t nid in
  if not (port_exists n.kind port ~as_output:src) then
    invalid_arg
      (Fmt.str "Netlist.set_%s: node %s has no port %a"
         (if src then "src" else "dst") n.name pp_port port);
  let ep = { ep_node = nid; ep_port = port } in
  let c' = if src then { c with src = ep } else { c with dst = ep } in
  { t with channel_map = IntMap.add cid c' t.channel_map;
           attached = attach c' (detach c t.attached) }

let set_src t cid ep = set_end t cid ep ~src:true

let set_dst t cid ep = set_end t cid ep ~src:false

(* Structural well-formedness, reported as typed diagnostics: the lint
   engine registers these checks as rules E001-E004, and [validate]
   below (the historical string-list API) delegates here. *)
let diagnostics t =
  let problems = ref [] in
  let add p = problems := p :: !problems in
  IntMap.iter
    (fun _ n ->
       let mine = channels_of t n.id in
       let check_port ~as_output port =
         let uses =
           List.filter
             (fun c ->
                if as_output then
                  c.src.ep_node = n.id && port_equal c.src.ep_port port
                else c.dst.ep_node = n.id && port_equal c.dst.ep_port port)
             mine
         in
         match uses with
         | [ _ ] -> ()
         | [] ->
           add
             (Diagnostic.make ~code:"E001" ~rule:"unconnected-port"
                ~severity:Diagnostic.Error ~node:n.id ~node_name:n.name
                (Fmt.str "node %s (%s): %s port %a is unconnected" n.name
                   (kind_name n.kind)
                   (if as_output then "output" else "input")
                   pp_port port))
         | _ :: c :: _ ->
           add
             (Diagnostic.make ~code:"E002" ~rule:"multi-connected-port"
                ~severity:Diagnostic.Error ~node:n.id ~node_name:n.name
                ~channel:c.ch_id ~channel_name:c.ch_name
                (Fmt.str "node %s: port %a connected more than once" n.name
                   pp_port port))
       in
       List.iter (check_port ~as_output:false) (required_inputs n.kind);
       List.iter (check_port ~as_output:true) (required_outputs n.kind))
    t.node_map;
  IntMap.iter
    (fun _ c ->
       let dangling which nid =
         if not (IntMap.mem nid t.node_map) then
           add
             (Diagnostic.make ~code:"E003" ~rule:"dangling-endpoint"
                ~severity:Diagnostic.Error ~channel:c.ch_id
                ~channel_name:c.ch_name
                (Fmt.str "channel %s: dangling %s node" c.ch_name which))
       in
       dangling "source" c.src.ep_node;
       dangling "destination" c.dst.ep_node;
       if c.width < 1 then
         add
           (Diagnostic.make ~code:"E004" ~rule:"bad-width"
              ~severity:Diagnostic.Error ~channel:c.ch_id
              ~channel_name:c.ch_name
              (Fmt.str "channel %s: width %d < 1" c.ch_name c.width)))
    t.channel_map;
  List.rev !problems

let validate t =
  List.map (fun (d : Diagnostic.t) -> d.Diagnostic.message) (diagnostics t)

let validate_exn t =
  match validate t with
  | [] -> ()
  | ps -> invalid_arg ("Netlist.validate: " ^ String.concat "; " ps)

let pp ppf t =
  Fmt.pf ppf "netlist: %d nodes, %d channels@." (node_count t)
    (channel_count t);
  List.iter
    (fun n -> Fmt.pf ppf "  node %d %s : %s@." n.id n.name (kind_name n.kind))
    (nodes t);
  List.iter
    (fun c ->
       Fmt.pf ppf "  chan %d %s : %s.%a -> %s.%a (w%d)@." c.ch_id c.ch_name
         (node t c.src.ep_node).name pp_port c.src.ep_port
         (node t c.dst.ep_node).name pp_port c.dst.ep_port c.width)
    (channels t)

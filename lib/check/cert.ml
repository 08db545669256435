open Elastic_sched
open Elastic_netlist

type step_kind =
  | Bubble of { channel : Netlist.channel_id }
  | Fifo of { channel : Netlist.channel_id; depth : int }
  | Remove_buffer of { node : Netlist.node_id }
  | Convert of { node : Netlist.node_id; buffer : Netlist.buffer_kind }
  | Retime_fwd of { through : Netlist.node_id }
  | Retime_bwd of { through : Netlist.node_id }
  | Shannon of { mux : Netlist.node_id }
  | Early_eval of { mux : Netlist.node_id }
  | Share of { blocks : Netlist.node_id list; sched : Scheduler.spec }

let kind_name = function
  | Bubble _ -> "bubble"
  | Fifo _ -> "fifo"
  | Remove_buffer _ -> "remove-buffer"
  | Convert _ -> "convert"
  | Retime_fwd _ -> "retime-fwd"
  | Retime_bwd _ -> "retime-bwd"
  | Shannon _ -> "shannon"
  | Early_eval _ -> "early-eval"
  | Share _ -> "share"

let lemma_of = function
  | Bubble _ -> "bubble-insertion"
  | Fifo _ -> "fifo-insertion"
  | Remove_buffer _ -> "empty-buffer-removal"
  | Convert _ -> "buffer-implementation"
  | Retime_fwd _ -> "forward-retiming"
  | Retime_bwd _ -> "backward-retiming"
  | Shannon _ -> "shannon-decomposition"
  | Early_eval _ -> "early-evaluation"
  | Share _ -> "module-sharing"

type step = {
  kind : step_kind;
  lemma : string;
  conditions : string list;
  added_nodes : Netlist.node_id list;
  removed_nodes : Netlist.node_id list;
  before : Netlist.t;
  after : Netlist.t;
}

type t = { steps : step list }

let length t = List.length t.steps

(* ------------------------------------------------------------------ *)
(* Side-condition rendering: the facts on [before] that make the lemma
   applicable, phrased as the verifier re-checks them.  Lookups are
   guarded — [record] runs after the transformation succeeded, but a
   hand-forged step must not crash the renderer. *)

let node_desc net id =
  match
    List.find_opt (fun (n : Netlist.node) -> n.Netlist.id = id)
      (Netlist.nodes net)
  with
  | Some n ->
    Fmt.str "node %d %s (%s)" id n.Netlist.name
      (Netlist.kind_name n.Netlist.kind)
  | None -> Fmt.str "node %d (missing)" id

let channel_desc net id =
  match
    List.find_opt (fun (c : Netlist.channel) -> c.Netlist.ch_id = id)
      (Netlist.channels net)
  with
  | Some c -> Fmt.str "channel %d %s" id c.Netlist.ch_name
  | None -> Fmt.str "channel %d (missing)" id

let conditions_of net = function
  | Bubble { channel } ->
    [ Fmt.str "%s exists (an empty EB preserves transfer streams on any \
               channel)" (channel_desc net channel) ]
  | Fifo { channel; depth } ->
    [ Fmt.str "depth %d >= 1" depth;
      Fmt.str "%s exists" (channel_desc net channel) ]
  | Remove_buffer { node } ->
    [ Fmt.str "%s is a buffer holding no tokens" (node_desc net node);
      Fmt.str "%s has both an input and an output channel"
        (node_desc net node);
      "removal keeps every cycle registered and token-bearing" ]
  | Convert { node; buffer } ->
    [ Fmt.str "%s is a buffer whose tokens fit capacity C = Lf + Lb = %d \
               of %s"
        (node_desc net node)
        (Netlist.buffer_capacity buffer)
        (Netlist.buffer_kind_name buffer);
      "conversion keeps every cycle registered" ]
  | Retime_fwd { through } ->
    [ Fmt.str "%s is a function block" (node_desc net through);
      "every input is fed by a buffer holding at least one token" ]
  | Retime_bwd { through } ->
    [ Fmt.str "%s is a function block" (node_desc net through);
      "the output feeds an empty buffer with a downstream channel" ]
  | Shannon { mux } ->
    [ Fmt.str "%s is a multiplexor whose output feeds a unary function \
               block" (node_desc net mux);
      "the block and every data input have channels to rewire" ]
  | Early_eval { mux } ->
    [ Fmt.str "%s is a multiplexor (anti-tokens implement the algebra of \
               discarded operands)" (node_desc net mux) ]
  | Share { blocks; sched } ->
    [ Fmt.str "%d blocks, all unary function blocks computing the same \
               function" (List.length blocks);
      Fmt.str "scheduler %s only reorders service, never values"
        (Scheduler.spec_name sched) ]

(* ------------------------------------------------------------------ *)

type builder = { mutable rev_steps : step list }

let create () = { rev_steps = [] }

let ids_of net =
  List.map (fun (n : Netlist.node) -> n.Netlist.id) (Netlist.nodes net)

let record b ~before ~after kind =
  let ib = ids_of before and ia = ids_of after in
  let added = List.filter (fun id -> not (List.mem id ib)) ia in
  let removed = List.filter (fun id -> not (List.mem id ia)) ib in
  let step =
    { kind; lemma = lemma_of kind; conditions = conditions_of before kind;
      added_nodes = added; removed_nodes = removed; before; after }
  in
  b.rev_steps <- step :: b.rev_steps

let recorded b = List.length b.rev_steps

let certificate b = { steps = List.rev b.rev_steps }

let pp_step ppf s =
  Fmt.pf ppf "%-13s lemma %-22s +%d -%d node(s)" (kind_name s.kind)
    s.lemma
    (List.length s.added_nodes)
    (List.length s.removed_nodes)

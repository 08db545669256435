(* Graph analyses behind the lint rules: pure structural reasoning on the
   netlist, no simulation.

   E102 is [Halves.combinational_cycle], which [Timing] and the
   marked-graph bounds read too.  The analyses here run on a graph
   whose vertices are the {e channels}; the edge c1 -> c2 exists when
   the node consuming c1 can produce on c2 (way-wise for shared
   modules).  Cutting the edges that cross a buffer holding tokens, or
   enter an early mux, turns "is there a token-free cycle" into a plain
   SCC question ([Halves.components]).

   Every analysis assumes a structurally sound netlist (no E001-E004
   findings); [Lint.run] gates on that before calling in here. *)

open Elastic_netlist
open Elastic_sched

let diag = Diagnostic.make

(* {1 The channel graph} *)

(* Successors of a channel: the outputs of its destination it feeds,
   way-wise for a shared module ([Netlist.feeds]).  The flags change edge
   classes:
   - [through_tokens]: keep edges across a buffer holding initial tokens;
   - [into_early_data]: keep edges entering an early-evaluation mux via a
     data input (an early mux can fire without that input, emitting an
     anti-token into it, so such a cycle is not statically dead);
   - [shared_sel]: count a shared module's hint input as feeding all its
     outputs (true for consumption/reachability questions); without it
     the hint feeds none (token-path cycles). *)
let successors ?(through_tokens = true)
    ?(into_early_data = true) ?(shared_sel = false) net
    (c : Netlist.channel) =
  let n = Netlist.node net c.Netlist.dst.Netlist.ep_node in
  let port = c.Netlist.dst.Netlist.ep_port in
  match (n.Netlist.kind, port) with
  | Netlist.Buffer { init = _ :: _; _ }, _ when not through_tokens -> []
  | Netlist.Mux { early = true; _ }, Netlist.In _ when not into_early_data ->
    []
  | Netlist.Shared _, Netlist.Sel ->
    if shared_sel then Netlist.outgoing net n.Netlist.id else []
  | _ -> Netlist.feeds net n port

(* [successors ~shared_sel:true] reversed, for reaches-a-sink questions. *)
let predecessors net =
  let preds = Hashtbl.create 64 in
  List.iter
    (fun c ->
       List.iter
         (fun (c' : Netlist.channel) -> Hashtbl.add preds c'.Netlist.ch_id c)
         (successors ~shared_sel:true net c))
    (Netlist.channels net);
  fun _ (c : Netlist.channel) -> Hashtbl.find_all preds c.Netlist.ch_id

(* The cyclic strongly connected components of the channel graph (size
   >= 2, or a single channel that succeeds itself), each sorted by
   channel id, components sorted by their least channel — deterministic
   output. *)
let cyclic_components net ~succ =
  let chans = Array.of_list (Netlist.channels net) in
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i (c : Netlist.channel) -> Hashtbl.replace index c.Netlist.ch_id i)
    chans;
  let succs =
    Array.map
      (fun c ->
         List.map
           (fun (c' : Netlist.channel) -> Hashtbl.find index c'.Netlist.ch_id)
           (succ c))
      chans
  in
  Halves.components succs
  |> List.filter (function [ v ] -> List.mem v succs.(v) | _ -> true)
  |> List.map (fun comp ->
      List.sort compare (List.map (fun i -> chans.(i).Netlist.ch_id) comp))
  |> List.sort compare

(* Buffer nodes crossed by a component (a buffer is "on" the cycle when
   one of the component's channels enters it). *)
let buffers_on net comp =
  List.filter_map
    (fun cid ->
       let c = Netlist.channel net cid in
       let n = Netlist.node net c.Netlist.dst.Netlist.ep_node in
       match n.Netlist.kind with
       | Netlist.Buffer { buffer; init } -> Some (n, buffer, init)
       | Netlist.Source _ | Netlist.Sink _ | Netlist.Func _
       | Netlist.Fork _ | Netlist.Mux _ | Netlist.Shared _
       | Netlist.Varlat _ -> None)
    comp
  |> List.sort_uniq (fun (a, _, _) (b, _, _) ->
      compare a.Netlist.id b.Netlist.id)

(* {1 Reachability (W005 / W006)} *)

let bfs_channels net ~start ~next =
  let seen : (Netlist.channel_id, unit) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun (c : Netlist.channel) ->
       if not (Hashtbl.mem seen c.Netlist.ch_id) then begin
         Hashtbl.replace seen c.Netlist.ch_id ();
         Queue.push c q
       end)
    start;
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    List.iter
      (fun (c' : Netlist.channel) ->
         if not (Hashtbl.mem seen c'.Netlist.ch_id) then begin
           Hashtbl.replace seen c'.Netlist.ch_id ();
           Queue.push c' q
         end)
      (next net c)
  done;
  seen

(* The nodes a channel walk from the [ends] never meets: from the
   sources along [successors] (W005), from the sinks back along
   [predecessors] (W006).  No finding when there is no end at all. *)
let unmet net ~is_end ~start ~next ~meets ~code ~rule ~what =
  let nodes = Netlist.nodes net in
  let ends =
    List.filter (fun (n : Netlist.node) -> is_end n.Netlist.kind) nodes
  in
  let met : (Netlist.node_id, unit) Hashtbl.t = Hashtbl.create 64 in
  let meet id = Hashtbl.replace met id () in
  List.iter (fun (n : Netlist.node) -> meet n.Netlist.id) ends;
  Hashtbl.iter
    (fun cid () -> meet (meets (Netlist.channel net cid)).Netlist.ep_node)
    (bfs_channels net ~next
       ~start:(List.concat_map (fun (n : Netlist.node) ->
           start net n.Netlist.id) ends));
  if ends = [] then []
  else
    List.filter_map
      (fun (n : Netlist.node) ->
         if Hashtbl.mem met n.Netlist.id then None
         else
           Some
             (diag ~code ~rule ~severity:Diagnostic.Warning ~node:n.Netlist.id
                ~node_name:n.Netlist.name
                (Fmt.str "node %s (%s) %s" n.Netlist.name
                   (Netlist.kind_name n.Netlist.kind) what)))
      nodes

(* W005: node not fed (transitively) by any token source. *)
let unreachable_from_source net =
  unmet net
    ~is_end:(function Netlist.Source _ -> true | _ -> false)
    ~start:Netlist.outgoing ~next:(successors ~shared_sel:true)
    ~meets:(fun c -> c.Netlist.dst) ~code:"W005"
    ~rule:"unreachable-from-source"
    ~what:"is not fed by any source: it can never receive a token"

(* W006: node whose tokens can never be consumed by any sink. *)
let cannot_reach_sink net =
  unmet net
    ~is_end:(function Netlist.Sink _ -> true | _ -> false)
    ~start:Netlist.incoming ~next:(predecessors net)
    ~meets:(fun c -> c.Netlist.src) ~code:"W006" ~rule:"cannot-reach-sink"
    ~what:"cannot reach any sink: its tokens are never consumed"

(* {1 SELF invariants (E101 / E103 / W104); E102 is
   [Halves.combinational_cycle]} *)

(* E101: stored tokens must fit C = Lf + Lb. *)
let buffer_overfilled net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Buffer { buffer; init }
         when List.length init > Netlist.buffer_capacity buffer ->
         let fixit =
           if buffer = Netlist.Eb0 && List.length init <= 2 then
             Diagnostic.Convert_buffer { node = n.Netlist.id; buffer = "eb" }
           else
             Diagnostic.Note "reduce the initial tokens to the capacity"
         in
         Some
           (diag ~code:"E101" ~rule:"buffer-overfilled"
              ~severity:Diagnostic.Error ~node:n.Netlist.id
              ~node_name:n.Netlist.name ~fixit
              (Fmt.str
                 "buffer %s holds %d initial token(s) but %s has capacity \
                  C = Lf + Lb = %d"
                 n.Netlist.name (List.length init)
                 (Netlist.buffer_kind_name buffer)
                 (Netlist.buffer_capacity buffer)))
       | _ -> None)
    (Netlist.nodes net)

(* E103: a cycle whose buffers are all empty and which no early mux can
   relieve holds no token and never will — a statically dead marked
   graph.  Cycles with no buffer at all are E102's finding, not ours. *)
let token_free_cycle net =
  cyclic_components net
    ~succ:(successors ~through_tokens:false ~into_early_data:false net)
  |> List.filter_map (fun comp ->
      match buffers_on net comp with
      | [] -> None (* combinational: reported as E102 *)
      | (b, _, _) :: _ ->
        Some
          (diag ~code:"E103" ~rule:"token-free-cycle"
             ~severity:Diagnostic.Error ~node:b.Netlist.id
             ~node_name:b.Netlist.name
             ~fixit:(Diagnostic.Set_init { node = b.Netlist.id; tokens = 1 })
             (Fmt.str
                "cycle carries no token and no early-evaluation mux can \
                 break the wait: static deadlock (every cycle of a live \
                 marked graph needs a token): %s"
                (Halves.cycle_names net comp))))

(* W104: anti-token counterflow boundedness (§4.1 / §4.3).  An early mux
   pushes anti-tokens backwards into its non-selected inputs; through a
   plain Eb they crawl one cycle per buffer (Lb = 1), so recovery after a
   misprediction is delayed by the whole return path.  The Fig. 5 Eb0
   returns them combinationally. *)
let antitoken_through_eb net =
  List.concat_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Mux { ways; early = true } ->
         List.filter_map
           (fun i ->
              match Netlist.channel_at net n.Netlist.id (Netlist.In i) with
              | None -> None
              | Some c -> (
                  let src = Netlist.node net c.Netlist.src.Netlist.ep_node in
                  match src.Netlist.kind with
                  | Netlist.Buffer { buffer = Netlist.Eb; init } ->
                    let fixit =
                      if List.length init <= 1 then
                        Diagnostic.Convert_buffer
                          { node = src.Netlist.id; buffer = "eb0" }
                      else
                        Diagnostic.Note
                          "split the tokens so an eb0 (capacity 1) fits"
                    in
                    Some
                      (diag ~code:"W104" ~rule:"antitoken-through-eb"
                         ~severity:Diagnostic.Warning ~node:src.Netlist.id
                         ~node_name:src.Netlist.name ~channel:c.Netlist.ch_id
                         ~channel_name:c.Netlist.ch_name ~fixit
                         (Fmt.str
                            "early mux %s input %d is fed by plain EB %s: \
                             anti-tokens crawl back 1 cycle per EB (Lb=1); \
                             an eb0 (Fig. 5, Lb=0) returns them \
                             combinationally"
                            n.Netlist.name i src.Netlist.name))
                  | _ -> None))
           (List.init ways (fun i -> i))
       | _ -> [])
    (Netlist.nodes net)

(* {1 Speculation checks (W201 / I200 / I201 / I202)} *)

let external_scheduler net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Shared { sched = Scheduler.External; _ } ->
         Some
           (diag ~code:"W201" ~rule:"no-scheduler"
              ~severity:Diagnostic.Warning ~node:n.Netlist.id
              ~node_name:n.Netlist.name
              (Fmt.str
                 "speculation controller %s has no scheduler attached \
                  (External predictions come from the environment; fine \
                  for model checking, not for synthesis)"
                 n.Netlist.name))
       | _ -> None)
    (Netlist.nodes net)

(* Muxes whose select is produced on the very cycle the mux feeds — the
   paper's speculation trigger.  Info severity: for a plain mux this is
   the §4 opportunity (I200), for an early mux it marks the speculative
   loop as already transformed (I201). *)
let mux_on_critical_cycle net =
  let comps =
    cyclic_components net ~succ:(successors net)
    |> List.filter (fun comp ->
        List.exists (fun (_, _, init) -> init <> []) (buffers_on net comp))
  in
  let in_same_comp a b =
    List.exists (fun comp -> List.mem a comp && List.mem b comp) comps
  in
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Mux { early; _ } -> (
           match
             ( Netlist.channel_at net n.Netlist.id Netlist.Sel,
               Netlist.channel_at net n.Netlist.id (Netlist.Out 0) )
           with
           | Some cs, Some co
             when in_same_comp cs.Netlist.ch_id co.Netlist.ch_id ->
             let code, rule, msg =
               if early then
                 ( "I201", "speculative-select",
                   "early-evaluation mux %s has its select fed from the \
                    token-bearing (critical) cycle through it: a \
                    speculative loop" )
               else
                 ( "I200", "speculation-candidate",
                   "mux %s has its select fed from the token-bearing \
                    (critical) cycle through it: the Section 4 recipe \
                    (shannon; early; share) applies" )
             in
             Some
               (diag ~code ~rule ~severity:Diagnostic.Info
                  ~node:n.Netlist.id ~node_name:n.Netlist.name
                  ~channel:cs.Netlist.ch_id
                  ~channel_name:cs.Netlist.ch_name
                  (Fmt.str (Scanf.format_from_string msg "%s")
                     n.Netlist.name))
           | _ -> None)
       | _ -> None)
    (Netlist.nodes net)

(* I202: a shared block feeding two or more arms of one early mux — the
   Fig. 4 sharing pattern, possibly through recovery buffers. *)
let shared_arms net =
  let rec back_to_shared depth (c : Netlist.channel) =
    if depth > 64 then None
    else
      let n = Netlist.node net c.Netlist.src.Netlist.ep_node in
      match n.Netlist.kind with
      | Netlist.Shared _ -> Some n
      | Netlist.Buffer _ -> (
          match Netlist.channel_at net n.Netlist.id (Netlist.In 0) with
          | Some c' -> back_to_shared (depth + 1) c'
          | None -> None)
      | _ -> None
  in
  List.concat_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Mux { ways; early = true } ->
         let arms =
           List.filter_map
             (fun i ->
                match
                  Netlist.channel_at net n.Netlist.id (Netlist.In i)
                with
                | Some c -> (
                    match back_to_shared 0 c with
                    | Some sh -> Some (sh, i)
                    | None -> None)
                | None -> None)
             (List.init ways (fun i -> i))
         in
         let grouped =
           List.sort_uniq compare
             (List.map (fun ((sh : Netlist.node), _) -> sh.Netlist.id) arms)
         in
         List.filter_map
           (fun shid ->
              let ways_of =
                List.filter_map
                  (fun ((sh : Netlist.node), i) ->
                     if sh.Netlist.id = shid then Some i else None)
                  arms
              in
              if List.length ways_of < 2 then None
              else
                let sh = Netlist.node net shid in
                Some
                  (diag ~code:"I202" ~rule:"shared-arms"
                     ~severity:Diagnostic.Info ~node:shid
                     ~node_name:sh.Netlist.name
                     (Fmt.str
                        "shared block %s drives %d speculative arms of \
                         mux %s (inputs %s): the Fig. 4 sharing pattern"
                        sh.Netlist.name (List.length ways_of)
                        n.Netlist.name
                        (String.concat ", "
                           (List.map string_of_int ways_of)))))
           grouped
       | _ -> [])
    (Netlist.nodes net)

(* Static flow-equivalence verification: certificate replay and the
   direct canonical-form comparison.  Everything here is structural —
   channel-graph reasoning in the style of [Elastic_lint.Rules] plus the
   marked-graph token counts of [Elastic_perf.Marked_graph]; no engine
   is ever created.

   The replayer deliberately re-implements every rewrite with raw
   [Netlist] operations instead of calling [Elastic_core.Transform] (it
   cannot: this library sits below elastic_core).  Node and channel id
   allocation is deterministic, so a faithful replay of an honest
   certificate reproduces the transformation's result exactly; any
   divergence — forged steps, tampered snapshots, a buggy transform —
   surfaces as a typed E40x diagnostic. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist

module Rules = Elastic_lint.Rules
module Json = Elastic_metrics.Json

(* ------------------------------------------------------------------ *)
(* Structural signatures.  Function blocks carry evaluation closures,
   so polymorphic equality is unusable; render every kind to a string
   that captures exactly the structurally observable fields. *)

let func_sig (f : Func.t) =
  Fmt.str "%s/%d~%g~%g" f.Func.name f.Func.arity f.Func.delay f.Func.area

let int_array_sig a =
  String.concat "," (List.map string_of_int (Array.to_list a))

let sched_sig = function
  | Scheduler.Scripted a -> Fmt.str "scripted[%s]" (int_array_sig a)
  | Scheduler.Noisy_oracle { sel; accuracy_pct; seed } ->
    Fmt.str "oracle[%s]~%d~%d" (int_array_sig sel) accuracy_pct seed
  | (Scheduler.Static _ | Scheduler.Toggle | Scheduler.Sticky
    | Scheduler.Two_bit | Scheduler.Round_robin | Scheduler.External
    | Scheduler.Prefer _ | Scheduler.Hinted_replay | Scheduler.Gshare _)
    as s -> Scheduler.spec_name s

let values_sig vs = String.concat ";" (List.map Value.to_string vs)

let source_sig = function
  | Netlist.Stream vs -> Fmt.str "stream[%s]" (values_sig vs)
  | Netlist.Counter { start; step } -> Fmt.str "counter%d+%d" start step
  | Netlist.Random_rate { pct; seed } -> Fmt.str "rate%d~%d" pct seed
  | Netlist.Nondet vs -> Fmt.str "nondet[%s]" (values_sig vs)

let sink_sig = function
  | Netlist.Always_ready -> "ready"
  | Netlist.Stall_pattern p ->
    Fmt.str "stall[%s]"
      (String.concat ""
         (List.map (fun b -> if b then "1" else "0") (Array.to_list p)))
  | Netlist.Random_stall { pct; seed } -> Fmt.str "rstall%d~%d" pct seed

let kind_sig = function
  | Netlist.Source s -> Fmt.str "source(%s)" (source_sig s)
  | Netlist.Sink s -> Fmt.str "sink(%s)" (sink_sig s)
  | Netlist.Buffer { buffer; init } ->
    Fmt.str "%s[%s]" (Netlist.buffer_kind_name buffer) (values_sig init)
  | Netlist.Func f -> Fmt.str "func(%s)" (func_sig f)
  | Netlist.Fork n -> Fmt.str "fork%d" n
  | Netlist.Mux { ways; early } ->
    Fmt.str "%smux%d" (if early then "e" else "") ways
  | Netlist.Shared { ways; f; sched; hinted } ->
    Fmt.str "shared%d%s(%s,%s)" ways
      (if hinted then "h" else "")
      (func_sig f) (sched_sig sched)
  | Netlist.Varlat { fast; slow; err } ->
    Fmt.str "varlat(%s|%s|%s)" (func_sig fast) (func_sig slow)
      (func_sig err)

let port_sig p = Fmt.str "%a" Netlist.pp_port p

let node_entry (n : Netlist.node) =
  Fmt.str "%d|%s|%s" n.Netlist.id n.Netlist.name (kind_sig n.Netlist.kind)

let channel_entry (c : Netlist.channel) =
  Fmt.str "%d|%s|%d.%s->%d.%s|w%d" c.Netlist.ch_id c.Netlist.ch_name
    c.Netlist.src.Netlist.ep_node
    (port_sig c.Netlist.src.Netlist.ep_port)
    c.Netlist.dst.Netlist.ep_node
    (port_sig c.Netlist.dst.Netlist.ep_port)
    c.Netlist.width

let entries net =
  ( List.sort compare (List.map node_entry (Netlist.nodes net)),
    List.sort compare (List.map channel_entry (Netlist.channels net)) )

(* Structural identity: same node ids, names and kinds, same channels
   (endpoints, ports, widths).  Function blocks compare by signature
   (name, arity, delay, area) — the evaluation closure is not
   comparable.  This is the relation the replayer must reproduce. *)
let structural_equal a b = entries a = entries b

(* First element in one sorted list but not the other — the witness the
   mismatch diagnostics name. *)
let first_diff (la, ca) (lb, cb) =
  let only xs ys = List.find_opt (fun x -> not (List.mem x ys)) xs in
  match only la lb, only lb la with
  | Some e, _ -> Fmt.str "left-only node %s" e
  | None, Some e -> Fmt.str "right-only node %s" e
  | None, None -> (
      match only ca cb, only cb ca with
      | Some e, _ -> Fmt.str "left-only channel %s" e
      | None, Some e -> Fmt.str "right-only channel %s" e
      | None, None -> "identical")

let diff_message a b = first_diff (entries a) (entries b)

(* ------------------------------------------------------------------ *)
(* Side conditions, re-validated from scratch on the verified replica. *)

type cond_fail = {
  cf_msg : string;
  cf_node : int option;
  cf_node_name : string option;
  cf_channel : int option;
}

exception Cond of cond_fail

let cond ?node ?node_name ?channel msg =
  raise
    (Cond
       { cf_msg = msg; cf_node = node; cf_node_name = node_name;
         cf_channel = channel })

let find_node net id =
  List.find_opt (fun (n : Netlist.node) -> n.Netlist.id = id)
    (Netlist.nodes net)

let find_channel net id =
  List.find_opt (fun (c : Netlist.channel) -> c.Netlist.ch_id = id)
    (Netlist.channels net)

let the_node net id =
  match find_node net id with
  | Some n -> n
  | None -> cond ~node:id (Fmt.str "node %d does not exist" id)

let the_channel net id =
  match find_channel net id with
  | Some c -> c
  | None -> cond ~channel:id (Fmt.str "channel %d does not exist" id)

let buffer_at net id =
  let n = the_node net id in
  match n.Netlist.kind with
  | Netlist.Buffer { buffer; init } -> (n, buffer, init)
  | k ->
    cond ~node:id ~node_name:n.Netlist.name
      (Fmt.str "node %s is a %s, not a buffer" n.Netlist.name
         (Netlist.kind_name k))

let func_at net id =
  let n = the_node net id in
  match n.Netlist.kind with
  | Netlist.Func f -> (n, f)
  | k ->
    cond ~node:id ~node_name:n.Netlist.name
      (Fmt.str "node %s is a %s, not a function block" n.Netlist.name
         (Netlist.kind_name k))

let mux_at net id =
  let n = the_node net id in
  match n.Netlist.kind with
  | Netlist.Mux { ways; early } -> (n, ways, early)
  | k ->
    cond ~node:id ~node_name:n.Netlist.name
      (Fmt.str "node %s is a %s, not a multiplexor" n.Netlist.name
         (Netlist.kind_name k))

let channel_on net (n : Netlist.node) port =
  match Netlist.channel_at net n.Netlist.id port with
  | Some c -> c
  | None ->
    cond ~node:n.Netlist.id ~node_name:n.Netlist.name
      (Fmt.str "node %s has no channel at %s" n.Netlist.name
         (port_sig port))

let check_conditions net (kind : Cert.step_kind) =
  match kind with
  | Cert.Bubble { channel } -> ignore (the_channel net channel)
  | Cert.Fifo { channel; depth } ->
    if depth < 1 then cond (Fmt.str "fifo depth %d < 1" depth);
    ignore (the_channel net channel)
  | Cert.Remove_buffer { node } ->
    let n, _, init = buffer_at net node in
    if init <> [] then
      cond ~node ~node_name:n.Netlist.name
        (Fmt.str "buffer %s holds %d token(s); splicing it out would \
                  drop them" n.Netlist.name (List.length init));
    ignore (channel_on net n (Netlist.In 0));
    ignore (channel_on net n (Netlist.Out 0))
  | Cert.Convert { node; buffer } ->
    let n, _, init = buffer_at net node in
    if List.length init > Netlist.buffer_capacity buffer then
      cond ~node ~node_name:n.Netlist.name
        (Fmt.str "%d token(s) in %s exceed capacity %d of %s"
           (List.length init) n.Netlist.name
           (Netlist.buffer_capacity buffer)
           (Netlist.buffer_kind_name buffer))
  | Cert.Retime_fwd { through } ->
    let n, f = func_at net through in
    List.iter
      (fun i ->
         let c = channel_on net n (Netlist.In i) in
         let _, _, init =
           buffer_at net c.Netlist.src.Netlist.ep_node
         in
         if init = [] then
           cond ~node:c.Netlist.src.Netlist.ep_node
             (Fmt.str "input %d of %s comes from an empty buffer \
                       (forward retiming consumes one token per input)"
                i n.Netlist.name))
      (List.init f.Func.arity (fun i -> i))
  | Cert.Retime_bwd { through } ->
    let n, _ = func_at net through in
    let out_ch = channel_on net n (Netlist.Out 0) in
    let b, _, init = buffer_at net out_ch.Netlist.dst.Netlist.ep_node in
    if init <> [] then
      cond ~node:b.Netlist.id ~node_name:b.Netlist.name
        (Fmt.str "output buffer %s of %s is not empty" b.Netlist.name
           n.Netlist.name);
    ignore (channel_on net b (Netlist.Out 0))
  | Cert.Shannon { mux } ->
    let n, ways, _ = mux_at net mux in
    let out_ch = channel_on net n (Netlist.Out 0) in
    let block, f = func_at net out_ch.Netlist.dst.Netlist.ep_node in
    if f.Func.arity <> 1 then
      cond ~node:block.Netlist.id ~node_name:block.Netlist.name
        (Fmt.str "block %s after mux %s has arity %d (must be unary to \
                  commute with the select)" block.Netlist.name
           n.Netlist.name f.Func.arity);
    ignore (channel_on net block (Netlist.Out 0));
    List.iter
      (fun i -> ignore (channel_on net n (Netlist.In i)))
      (List.init ways (fun i -> i))
  | Cert.Early_eval { mux } -> ignore (mux_at net mux)
  | Cert.Share { blocks; sched = _ } ->
    (match blocks with
     | [] | [ _ ] ->
       cond
         (Fmt.str "share needs at least two blocks, got %d"
            (List.length blocks))
     | _ :: _ :: _ -> ());
    let sigs =
      List.map
        (fun id ->
           let n, f = func_at net id in
           if f.Func.arity <> 1 then
             cond ~node:id ~node_name:n.Netlist.name
               (Fmt.str "shared block %s has arity %d (must be unary)"
                  n.Netlist.name f.Func.arity);
           ignore (channel_on net n (Netlist.In 0));
           ignore (channel_on net n (Netlist.Out 0));
           (n, func_sig f))
        blocks
    in
    match sigs with
    | (_, s0) :: rest ->
      List.iter
        (fun ((n : Netlist.node), s) ->
           if not (String.equal s s0) then
             cond ~node:n.Netlist.id ~node_name:n.Netlist.name
               (Fmt.str "shared blocks compute different functions (%s \
                         vs %s)" s0 s))
        rest
    | [] -> ()

(* ------------------------------------------------------------------ *)
(* Independent replay with raw netlist operations.  Mirrors the rewrite
   semantics exactly (including default names and the order of node and
   channel allocations, which is what makes the replay reproduce the
   transformation's ids). *)

let splice_in_buffer net ~channel ~buffer ~init =
  let c = Netlist.channel net channel in
  let net, b = Netlist.add_node net (Netlist.Buffer { buffer; init }) in
  let old_dst = c.Netlist.dst in
  let net = Netlist.set_dst net channel (b, Netlist.In 0) in
  let net, _ =
    Netlist.connect ~width:c.Netlist.width net (b, Netlist.Out 0)
      (old_dst.Netlist.ep_node, old_dst.Netlist.ep_port)
  in
  (net, b)

let splice_out_buffer net b =
  let in_ch =
    match Netlist.channel_at net b (Netlist.In 0) with
    | Some c -> c
    | None -> invalid_arg "Flow: buffer has no input channel"
  in
  let out_ch =
    match Netlist.channel_at net b (Netlist.Out 0) with
    | Some c -> c
    | None -> invalid_arg "Flow: buffer has no output channel"
  in
  let dst = out_ch.Netlist.dst in
  let net = Netlist.remove_channel net out_ch.Netlist.ch_id in
  let net =
    Netlist.set_dst net in_ch.Netlist.ch_id
      (dst.Netlist.ep_node, dst.Netlist.ep_port)
  in
  Netlist.remove_node net b

let replay net (kind : Cert.step_kind) =
  match kind with
  | Cert.Bubble { channel } ->
    fst (splice_in_buffer net ~channel ~buffer:Netlist.Eb ~init:[])
  | Cert.Fifo { channel; depth } ->
    let rec go net channel k =
      if k = 0 then net
      else begin
        let net, b =
          splice_in_buffer net ~channel ~buffer:Netlist.Eb ~init:[]
        in
        let next =
          match Netlist.channel_at net b (Netlist.Out 0) with
          | Some c -> c.Netlist.ch_id
          | None -> invalid_arg "Flow: fifo lost its output channel"
        in
        go net next (k - 1)
      end
    in
    go net channel depth
  | Cert.Remove_buffer { node } -> splice_out_buffer net node
  | Cert.Convert { node; buffer } ->
    let init =
      match (Netlist.node net node).Netlist.kind with
      | Netlist.Buffer { init; _ } -> init
      | _ -> invalid_arg "Flow: convert target is not a buffer"
    in
    Netlist.replace_kind net node (Netlist.Buffer { buffer; init })
  | Cert.Retime_fwd { through } ->
    let f =
      match (Netlist.node net through).Netlist.kind with
      | Netlist.Func f -> f
      | _ -> invalid_arg "Flow: retime target is not a function block"
    in
    let input_buffers =
      List.init f.Func.arity (fun i ->
          match Netlist.channel_at net through (Netlist.In i) with
          | None -> invalid_arg "Flow: retime input channel missing"
          | Some c -> (
              let src = c.Netlist.src.Netlist.ep_node in
              match (Netlist.node net src).Netlist.kind with
              | Netlist.Buffer { buffer; init } -> (src, buffer, init)
              | _ -> invalid_arg "Flow: retime input is not a buffer"))
    in
    let heads =
      List.map
        (fun (_, _, init) ->
           match init with
           | v :: _ -> v
           | [] -> invalid_arg "Flow: retime input buffer is empty")
        input_buffers
    in
    let moved = Func.apply f heads in
    let net =
      List.fold_left
        (fun net (src, buffer, init) ->
           Netlist.replace_kind net src
             (Netlist.Buffer { buffer; init = List.tl init }))
        net input_buffers
    in
    let out_ch =
      match Netlist.channel_at net through (Netlist.Out 0) with
      | Some c -> c
      | None -> invalid_arg "Flow: retime output channel missing"
    in
    fst
      (splice_in_buffer net ~channel:out_ch.Netlist.ch_id
         ~buffer:Netlist.Eb ~init:[ moved ])
  | Cert.Retime_bwd { through } ->
    let f =
      match (Netlist.node net through).Netlist.kind with
      | Netlist.Func f -> f
      | _ -> invalid_arg "Flow: retime target is not a function block"
    in
    let out_ch =
      match Netlist.channel_at net through (Netlist.Out 0) with
      | Some c -> c
      | None -> invalid_arg "Flow: retime output channel missing"
    in
    let b = out_ch.Netlist.dst.Netlist.ep_node in
    let buffer =
      match (Netlist.node net b).Netlist.kind with
      | Netlist.Buffer { buffer; _ } -> buffer
      | _ -> invalid_arg "Flow: retime output is not a buffer"
    in
    let net = splice_out_buffer net b in
    List.fold_left
      (fun net i ->
         match Netlist.channel_at net through (Netlist.In i) with
         | None -> invalid_arg "Flow: retime input channel missing"
         | Some c ->
           fst
             (splice_in_buffer net ~channel:c.Netlist.ch_id ~buffer
                ~init:[]))
      net
      (List.init f.Func.arity (fun i -> i))
  | Cert.Shannon { mux } ->
    let ways =
      match (Netlist.node net mux).Netlist.kind with
      | Netlist.Mux { ways; _ } -> ways
      | _ -> invalid_arg "Flow: shannon target is not a multiplexor"
    in
    let out_ch =
      match Netlist.channel_at net mux (Netlist.Out 0) with
      | Some c -> c
      | None -> invalid_arg "Flow: mux output channel missing"
    in
    let block = out_ch.Netlist.dst.Netlist.ep_node in
    let f =
      match (Netlist.node net block).Netlist.kind with
      | Netlist.Func f -> f
      | _ -> invalid_arg "Flow: block after mux is not a function block"
    in
    let block_out =
      match Netlist.channel_at net block (Netlist.Out 0) with
      | Some c -> c
      | None -> invalid_arg "Flow: block output channel missing"
    in
    let net = Netlist.remove_channel net out_ch.Netlist.ch_id in
    let net =
      Netlist.set_src net block_out.Netlist.ch_id (mux, Netlist.Out 0)
    in
    let net = Netlist.remove_node net block in
    let base = (Netlist.node net mux).Netlist.name in
    List.fold_left
      (fun net i ->
         match Netlist.channel_at net mux (Netlist.In i) with
         | None -> invalid_arg "Flow: mux data channel missing"
         | Some d ->
           let net, fi =
             Netlist.add_node
               ~name:(Fmt.str "%s_%s%d" base f.Func.name i)
               net (Netlist.Func f)
           in
           let net =
             Netlist.set_dst net d.Netlist.ch_id (fi, Netlist.In 0)
           in
           fst
             (Netlist.connect ~width:d.Netlist.width net
                (fi, Netlist.Out 0) (mux, Netlist.In i)))
      net
      (List.init ways (fun i -> i))
  | Cert.Early_eval { mux } ->
    let ways =
      match (Netlist.node net mux).Netlist.kind with
      | Netlist.Mux { ways; _ } -> ways
      | _ -> invalid_arg "Flow: early-eval target is not a multiplexor"
    in
    Netlist.replace_kind net mux (Netlist.Mux { ways; early = true })
  | Cert.Share { blocks; sched } ->
    let f =
      match blocks with
      | b :: _ -> (
          match (Netlist.node net b).Netlist.kind with
          | Netlist.Func f -> f
          | _ -> invalid_arg "Flow: shared block is not a function block")
      | [] -> invalid_arg "Flow: share with no blocks"
    in
    let ways = List.length blocks in
    let net, sh =
      Netlist.add_node net
        (Netlist.Shared { ways; f; sched; hinted = false })
    in
    List.fold_left
      (fun net (i, b) ->
         match
           ( Netlist.channel_at net b (Netlist.In 0),
             Netlist.channel_at net b (Netlist.Out 0) )
         with
         | Some in_ch, Some out_ch ->
           let net =
             Netlist.set_dst net in_ch.Netlist.ch_id (sh, Netlist.In i)
           in
           let net =
             Netlist.set_src net out_ch.Netlist.ch_id (sh, Netlist.Out i)
           in
           Netlist.remove_node net b
         | _ -> invalid_arg "Flow: shared block channels missing")
      net
      (List.mapi (fun i b -> (i, b)) blocks)

(* ------------------------------------------------------------------ *)
(* Structural liveness invariants: a rewrite that overfills a buffer,
   leaves a cycle unregistered (E102) or drains a cycle of its last
   token (E103) is outside its lemma even if the splice itself was
   well-formed.  Counted per code so pre-existing findings in the
   source are not blamed on a step. *)

let liveness_counts net =
  try
    ( List.length (Rules.buffer_overfilled net),
      List.length (Halves.combinational_cycle net),
      List.length (Rules.token_free_cycle net),
      List.length (Rules.antitoken_through_eb net) )
  with Invalid_argument _ | Failure _ ->
    (max_int, max_int, max_int, max_int)

let worsened (a1, a2, a3, a4) (b1, b2, b3, b4) =
  let worse =
    List.concat
      (List.map
         (fun (code, x, y) ->
            if (y : int) > x then [ Fmt.str "%s (%d -> %d)" code x y ]
            else [])
         [ ("E101", a1, b1); ("E102", a2, b2); ("E103", a3, b3);
           ("W104", a4, b4) ])
  in
  if worse = [] then None else Some (String.concat ", " worse)

(* ------------------------------------------------------------------ *)

type proof = {
  p_design : string;
  p_mode : [ `Certificate | `Structural ];
  p_steps : int;
  p_lemmas : string list;
  p_source_nodes : int;
  p_source_channels : int;
  p_derived_nodes : int;
  p_derived_channels : int;
  p_throughput_source : float option;
  p_throughput_derived : float option;
}

let pp_proof ppf p =
  Fmt.pf ppf
    "%s: PROVED derived ≡ source (%s, %d step(s)%s; source %d nodes / \
     %d channels, derived %d / %d%a)"
    p.p_design
    (match p.p_mode with
     | `Certificate -> "certificate"
     | `Structural -> "canonical forms")
    p.p_steps
    (if p.p_lemmas = [] then ""
     else Fmt.str ": %s" (String.concat "; " p.p_lemmas))
    p.p_source_nodes p.p_source_channels p.p_derived_nodes
    p.p_derived_channels
    (fun ppf -> function
       | Some a, Some b -> Fmt.pf ppf "; throughput bounds %.3f / %.3f" a b
       | _ -> ())
    (p.p_throughput_source, p.p_throughput_derived)

let throughput net =
  try Some (Elastic_perf.Marked_graph.throughput_bound net)
  with Diagnostic.Reject _ | Invalid_argument _ -> None

let make_proof ~design ~mode ~steps ~lemmas source derived =
  { p_design = design; p_mode = mode; p_steps = steps; p_lemmas = lemmas;
    p_source_nodes = Netlist.node_count source;
    p_source_channels = Netlist.channel_count source;
    p_derived_nodes = Netlist.node_count derived;
    p_derived_channels = Netlist.channel_count derived;
    p_throughput_source = throughput source;
    p_throughput_derived = throughput derived }

let refute ~code ~rule ?node ?node_name ?channel msg =
  Error
    (Diagnostic.make ~code ~rule ~severity:Diagnostic.Error ?node
       ?node_name ?channel msg)

let verify ?(design = "netlist") ~source ~derived (cert : Cert.t) =
  let step_tag i (s : Cert.step) =
    Fmt.str "step %d (%s, lemma %s)" (i + 1) (Cert.kind_name s.Cert.kind)
      s.Cert.lemma
  in
  let rec go i replica = function
    | [] ->
      if structural_equal replica derived then
        Ok
          (make_proof ~design ~mode:`Certificate
             ~steps:(List.length cert.Cert.steps)
             ~lemmas:
               (List.map (fun (s : Cert.step) -> s.Cert.lemma)
                  cert.Cert.steps)
             source derived)
      else if i = 0 then
        refute ~code:"E401" ~rule:"cert-chain"
          (Fmt.str
             "%s: empty certificate, but source and derived netlists \
              differ (%s)" design (diff_message replica derived))
      else
        refute ~code:"E403" ~rule:"cert-replay"
          (Fmt.str
             "%s: replaying all %d step(s) does not yield the claimed \
              derived netlist (%s)" design i
             (diff_message replica derived))
    | (s : Cert.step) :: rest ->
      if not (structural_equal replica s.Cert.before) then
        refute ~code:"E401" ~rule:"cert-chain"
          (Fmt.str
             "%s: %s: recorded pre-state does not match the verified \
              prefix (%s)" design (step_tag i s)
             (diff_message s.Cert.before replica))
      else begin
        match check_conditions replica s.Cert.kind with
        | exception Cond c ->
          refute ~code:"E402" ~rule:"cert-side-condition" ?node:c.cf_node
            ?node_name:c.cf_node_name ?channel:c.cf_channel
            (Fmt.str "%s: %s: side condition failed: %s" design
               (step_tag i s) c.cf_msg)
        | () -> (
            match replay replica s.Cert.kind with
            | exception (Invalid_argument m | Failure m) ->
              refute ~code:"E403" ~rule:"cert-replay"
                (Fmt.str "%s: %s: replay failed: %s" design
                   (step_tag i s) m)
            | replica' ->
              (match
                 worsened (liveness_counts replica)
                   (liveness_counts replica')
               with
               | Some w ->
                 refute ~code:"E405" ~rule:"cert-liveness"
                   (Fmt.str
                      "%s: %s: rewrite breaks a structural liveness \
                       invariant: %s" design (step_tag i s) w)
               | None ->
                 if not (structural_equal replica' s.Cert.after) then
                   refute ~code:"E403" ~rule:"cert-replay"
                     (Fmt.str
                        "%s: %s: independent replay does not reproduce \
                         the recorded result (%s)" design (step_tag i s)
                        (diff_message replica' s.Cert.after))
                 else go (i + 1) replica' rest))
      end
  in
  go 0 source cert.Cert.steps

(* ------------------------------------------------------------------ *)
(* Direct structural mode: confluent empty-buffer elimination.  Each
   rewrite splices out one token-free buffer whose both endpoints are
   connected; distinct redexes never overlap destructively (removing one
   empty buffer cannot un-empty or disconnect another), so the rewriting
   is confluent and the normal form canonical. *)

let normalize net =
  let rec fix net =
    let redex =
      List.find_opt
        (fun (n : Netlist.node) ->
           match n.Netlist.kind with
           | Netlist.Buffer { init = []; _ } ->
             Netlist.channel_at net n.Netlist.id (Netlist.In 0) <> None
             && Netlist.channel_at net n.Netlist.id (Netlist.Out 0)
                <> None
           | _ -> false)
        (Netlist.nodes net)
    in
    match redex with
    | None -> net
    | Some n -> fix (splice_out_buffer net n.Netlist.id)
  in
  fix net

(* Canonical entries are name-keyed (ids differ across independently
   built netlists): nodes as name|kind, channels as endpoint names and
   ports.  Buffer-free normal forms of bundled designs have unique,
   meaningful node names; a design that reuses names is out of scope for
   the direct mode (use a certificate). *)
let canonical_entries net =
  let name id = (Netlist.node net id).Netlist.name in
  ( List.sort compare
      (List.map
         (fun (n : Netlist.node) ->
            Fmt.str "%s|%s" n.Netlist.name (kind_sig n.Netlist.kind))
         (Netlist.nodes net)),
    List.sort compare
      (List.map
         (fun (c : Netlist.channel) ->
            Fmt.str "%s.%s->%s.%s|w%d"
              (name c.Netlist.src.Netlist.ep_node)
              (port_sig c.Netlist.src.Netlist.ep_port)
              (name c.Netlist.dst.Netlist.ep_node)
              (port_sig c.Netlist.dst.Netlist.ep_port)
              c.Netlist.width)
         (Netlist.channels net)) )

let equiv_static ?(design = "netlist") a b =
  let na = normalize a and nb = normalize b in
  let ea = canonical_entries na and eb = canonical_entries nb in
  if ea = eb then begin
    let spliced =
      Netlist.node_count a - Netlist.node_count na
      + (Netlist.node_count b - Netlist.node_count nb)
    in
    Ok
      (make_proof ~design ~mode:`Structural ~steps:spliced
         ~lemmas:(List.init spliced (fun _ -> "empty-buffer-removal"))
         a b)
  end
  else
    refute ~code:"E404" ~rule:"canon-mismatch"
      (Fmt.str
         "%s: canonical forms differ after empty-buffer elimination \
          (%s); the designs are not related by buffer insertion alone — \
          a certificate is required to prove richer rewrites"
         design (first_diff ea eb))

(* ------------------------------------------------------------------ *)
(* JSONL export, schema elastic-speculation/proof/v1. *)

let json_of_params : Cert.step_kind -> (string * Json.t) list = function
  | Cert.Bubble { channel } -> [ ("channel", Json.Int channel) ]
  | Cert.Fifo { channel; depth } ->
    [ ("channel", Json.Int channel); ("depth", Json.Int depth) ]
  | Cert.Remove_buffer { node } -> [ ("node", Json.Int node) ]
  | Cert.Convert { node; buffer } ->
    [ ("node", Json.Int node);
      ("buffer", Json.Str (Netlist.buffer_kind_name buffer)) ]
  | Cert.Retime_fwd { through } | Cert.Retime_bwd { through } ->
    [ ("through", Json.Int through) ]
  | Cert.Shannon { mux } | Cert.Early_eval { mux } ->
    [ ("mux", Json.Int mux) ]
  | Cert.Share { blocks; sched } ->
    [ ("blocks", Json.List (List.map (fun b -> Json.Int b) blocks));
      ("sched", Json.Str (sched_sig sched)) ]

let json_of_step i (s : Cert.step) =
  Json.Obj
    [ ("type", Json.Str "step"); ("index", Json.Int (i + 1));
      ("kind", Json.Str (Cert.kind_name s.Cert.kind));
      ("lemma", Json.Str s.Cert.lemma);
      ("params", Json.Obj (json_of_params s.Cert.kind));
      ("conditions",
       Json.List (List.map (fun c -> Json.Str c) s.Cert.conditions));
      ("added_nodes",
       Json.List (List.map (fun n -> Json.Int n) s.Cert.added_nodes));
      ("removed_nodes",
       Json.List (List.map (fun n -> Json.Int n) s.Cert.removed_nodes));
      ("nodes_before", Json.Int (Netlist.node_count s.Cert.before));
      ("channels_before",
       Json.Int (Netlist.channel_count s.Cert.before));
      ("nodes_after", Json.Int (Netlist.node_count s.Cert.after));
      ("channels_after", Json.Int (Netlist.channel_count s.Cert.after)) ]

let opt_float = function Some f -> Json.Float f | None -> Json.Null

let jsonl ~design ?cert result =
  let header =
    match result with
    | Ok p ->
      Json.Obj
        [ ("schema", Json.Str "elastic-speculation/proof/v1");
          ("design", Json.Str design);
          ("mode",
           Json.Str
             (match p.p_mode with
              | `Certificate -> "certificate"
              | `Structural -> "structural"));
          ("verdict", Json.Str "proved");
          ("steps", Json.Int p.p_steps);
          ("lemmas",
           Json.List (List.map (fun l -> Json.Str l) p.p_lemmas));
          ("source",
           Json.Obj
             [ ("nodes", Json.Int p.p_source_nodes);
               ("channels", Json.Int p.p_source_channels) ]);
          ("derived",
           Json.Obj
             [ ("nodes", Json.Int p.p_derived_nodes);
               ("channels", Json.Int p.p_derived_channels) ]);
          ("throughput_source", opt_float p.p_throughput_source);
          ("throughput_derived", opt_float p.p_throughput_derived) ]
    | Error (d : Diagnostic.t) ->
      let opt name = function
        | Some v -> [ (name, Json.Int v) ]
        | None -> []
      in
      let opts name = function
        | Some v -> [ (name, Json.Str v) ]
        | None -> []
      in
      Json.Obj
        ([ ("schema", Json.Str "elastic-speculation/proof/v1");
           ("design", Json.Str design);
           ("mode",
            Json.Str
              (match cert with Some _ -> "certificate" | None -> "structural"));
           ("verdict", Json.Str "refuted");
           ("code", Json.Str d.Diagnostic.code);
           ("rule", Json.Str d.Diagnostic.rule) ]
         @ opt "node" d.Diagnostic.node
         @ opts "node_name" d.Diagnostic.node_name
         @ opt "channel" d.Diagnostic.channel
         @ [ ("message", Json.Str d.Diagnostic.message) ])
  in
  let steps =
    match cert with
    | None -> []
    | Some c -> List.mapi json_of_step c.Cert.steps
  in
  String.concat "\n" (List.map Json.to_string (header :: steps)) ^ "\n"

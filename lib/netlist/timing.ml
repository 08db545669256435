type params = {
  fork_delay : float;
  join_delay : float;
  mux_delay : float;
  early_mux_delay : float;
  shared_grant_delay : float;
  eb0_backward_delay : float;
  register_overhead : float;
  varlat_control_delay : float;
  varlat_slow_margin : float;
}

let default =
  { fork_delay = 0.3; join_delay = 0.3; mux_delay = 1.0;
    early_mux_delay = 0.5; shared_grant_delay = 1.5;
    eb0_backward_delay = 0.8; register_overhead = 1.0;
    varlat_control_delay = 2.0; varlat_slow_margin = 1.0 }

type report = {
  cycle_time : float;
  forward_delay : float;
  backward_delay : float;
  forward_path : string list;
  backward_path : string list;
}

let pp_report ppf r =
  Fmt.pf ppf
    "cycle time %.2f (forward %.2f via [%a]; backward %.2f via [%a])"
    r.cycle_time r.forward_delay
    Fmt.(list ~sep:(any " -> ") string)
    r.forward_path r.backward_delay
    Fmt.(list ~sep:(any " -> ") string)
    r.backward_path

(* Forward delay contributed by a node between its inputs and outputs;
   [None] means the node cuts forward combinational paths. *)
let forward_delay params (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _ -> None
  | Netlist.Func f ->
    Some (f.Func.delay +. params.join_delay)
  | Netlist.Fork _ -> Some params.fork_delay
  | Netlist.Mux { early; _ } ->
    Some
      (params.mux_delay +. if early then params.early_mux_delay else 0.0)
  | Netlist.Shared { f; _ } ->
    Some (f.Func.delay +. params.shared_grant_delay)
  | Netlist.Varlat _ -> None

(* Backward (stop/kill) delay through a node; [None] cuts the path. *)
let backward_delay params (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _ -> None
  | Netlist.Buffer { buffer = Netlist.Eb; _ } -> None
  | Netlist.Buffer { buffer = Netlist.Eb0; _ } ->
    Some params.eb0_backward_delay
  | Netlist.Func _ -> Some params.join_delay
  | Netlist.Fork _ -> Some params.fork_delay
  | Netlist.Mux { early; _ } ->
    Some (if early then params.early_mux_delay else params.join_delay)
  | Netlist.Shared _ -> Some params.shared_grant_delay
  | Netlist.Varlat _ -> None

(* Longest path over channels.  A path crossing channel [c] meets the
   node at its end [at c], whose [delay] adds to the path, or [None]
   when the path is cut there; it continues on the channels [next]
   gives for that node and port.  Each step is a read of the half graph,
   which [analyze] has found acyclic, so the memoised walk ends. *)
let longest_paths t ~at ~delay ~next =
  let chans = Netlist.channels t in
  let index = Hashtbl.create 64 in
  List.iteri
    (fun i (c : Netlist.channel) -> Hashtbl.replace index c.Netlist.ch_id i)
    chans;
  let memo = Array.make (List.length chans) None in
  let longest =
    List.fold_left
      (fun acc (v, p) ->
         match acc with
         | Some (bv, _) when bv >= v -> acc
         | Some _ | None -> Some (v, p))
      None
  in
  let rec go (c : Netlist.channel) =
    let i = Hashtbl.find index c.Netlist.ch_id in
    match memo.(i) with
    | Some r -> r
    | None ->
      let ep = at c in
      let n = Netlist.node t ep.Netlist.ep_node in
      let r =
        match delay n with
        | None -> (0.0, [ c.Netlist.ch_name ])
        | Some d -> (
            match longest (List.map go (next t n ep.Netlist.ep_port)) with
            | None -> (d, [ c.Netlist.ch_name ])
            | Some (v, p) -> (d +. v, c.Netlist.ch_name :: p))
      in
      memo.(i) <- Some r;
      r
  in
  Option.value (longest (List.map go chans)) ~default:(0.0, [])

let analyze ?(params = default) t =
  match Halves.refusal t with
  | Some d -> Error d.Diagnostic.message
  | None ->
    let fwd, fwd_path =
      longest_paths t
        ~at:(fun c -> c.Netlist.dst)
        ~delay:(forward_delay params) ~next:Netlist.feeds
    in
    let bwd, bwd_path =
      longest_paths t
        ~at:(fun c -> c.Netlist.src)
        ~delay:(backward_delay params) ~next:Netlist.fed_by
    in
    (* A stalling variable-latency unit constrains the clock internally:
       the fast path chained with the error detector and the controller,
       and the slow path with its capture margin (Fig. 6(a)). *)
    let varlat_floor =
      List.fold_left
        (fun acc (n : Netlist.node) ->
           match n.Netlist.kind with
           | Netlist.Varlat { fast; slow; err } ->
             Float.max acc
               (Float.max
                  (fast.Func.delay +. err.Func.delay
                   +. params.varlat_control_delay)
                  (slow.Func.delay +. params.varlat_slow_margin))
           | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
           | Netlist.Func _ | Netlist.Fork _ | Netlist.Mux _
           | Netlist.Shared _ -> acc)
        0.0 (Netlist.nodes t)
    in
    Ok
      { cycle_time =
          Float.max (Float.max fwd bwd) varlat_floor
          +. params.register_overhead;
        forward_delay = fwd; backward_delay = bwd; forward_path = fwd_path;
        backward_path = List.rev bwd_path }

let cycle_time ?params t =
  match analyze ?params t with
  | Ok r -> r.cycle_time
  | Error msg -> invalid_arg ("Timing.cycle_time: " ^ msg)

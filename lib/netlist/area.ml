type params = {
  latch_per_bit : float;
  flop_per_bit : float;
  eb_control : float;
  eb0_control : float;
  fork_control_per_branch : float;
  mux_per_bit_per_way : float;
  mux_control : float;
  early_mux_control_per_way : float;
  shared_control_per_way : float;
  scheduler : float;
  varlat_control : float;
}

let default =
  { latch_per_bit = 3.0; flop_per_bit = 6.0; eb_control = 12.0;
    eb0_control = 10.0; fork_control_per_branch = 4.0;
    mux_per_bit_per_way = 2.5; mux_control = 4.0;
    early_mux_control_per_way = 7.0; shared_control_per_way = 9.0;
    scheduler = 20.0; varlat_control = 18.0 }

(* Width of the widest channel touching the node; primitives are sized for
   their datapath. *)
let node_width t (n : Netlist.node) =
  let ws =
    List.map
      (fun c -> c.Netlist.width)
      (Netlist.incoming t n.Netlist.id @ Netlist.outgoing t n.Netlist.id)
  in
  List.fold_left max 1 ws

(* Area of a single node; channel widths are taken from the attached
   channels (the widest one for multi-channel primitives). *)
let node_area ~params t (n : Netlist.node) =
  let w = float_of_int (node_width t n) in
  match n.Netlist.kind with
  | Netlist.Source _ | Netlist.Sink _ -> 0.0
  | Netlist.Buffer { buffer = Netlist.Eb; _ } ->
    (* Two transparent latches per bit (Fig. 2(a)) plus the controller. *)
    (2.0 *. w *. params.latch_per_bit) +. params.eb_control
  | Netlist.Buffer { buffer = Netlist.Eb0; _ } ->
    (* One flip-flop rank per bit (Fig. 5) plus its controller. *)
    (w *. params.flop_per_bit) +. params.eb0_control
  | Netlist.Func f -> f.Func.area
  | Netlist.Fork k -> float_of_int k *. params.fork_control_per_branch
  | Netlist.Mux { ways; early } ->
    let datapath =
      w *. params.mux_per_bit_per_way *. float_of_int (ways - 1)
    in
    let control =
      if early then
        params.mux_control
        +. (params.early_mux_control_per_way *. float_of_int ways)
      else params.mux_control
    in
    datapath +. control
  | Netlist.Shared { ways; f; _ } ->
    (* One copy of f, the input selection mux, the Fig. 4(b) controller and
       the scheduler. *)
    f.Func.area
    +. (w *. params.mux_per_bit_per_way *. float_of_int (ways - 1))
    +. (params.shared_control_per_way *. float_of_int ways)
    +. params.scheduler
  | Netlist.Varlat { fast; slow; err } ->
    (* Both function copies, the detector, the stage register and the
       stalling controller. *)
    fast.Func.area +. slow.Func.area +. err.Func.area
    +. (w *. params.flop_per_bit) +. params.varlat_control

let total ?(params = default) t =
  List.fold_left (fun acc n -> acc +. node_area ~params t n) 0.0
    (Netlist.nodes t)

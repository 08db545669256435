open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_datapath

type t = {
  net : Netlist.t;
  sinks : Netlist.node_id array;
  ops : (Alu.op * int * int) list array;
}

let channels_per_lane = 16

(* Operations drawn per lane before the stream repeats.  A prime, so no
   two lanes mispredict in lockstep for long. *)
let period = 97

(* The shared post-processing block G of Fig. 6(b): result + 1. *)
let g =
  Func.make ~name:"G" ~arity:1 ~delay:1.5 ~area:40.0 (function
    | [ v ] -> Value.Int ((Value.to_int v + 1) land 0xFF)
    | _ -> invalid_arg "Lanes.g: arity")

let lane_ops ~seed ~lane n =
  let pattern =
    Array.of_list
      (Alu.operands ~error_rate_pct:5 ~seed:((seed * 1_000_003) + lane) period)
  in
  List.init n (fun i -> pattern.(i mod period))

(* One lane: src -> fork(fast, slow, err); fast -> sh.in0; slow -> EB ->
   sh.in1; err -> fork(EB -> mux.sel, sh.sel); sh.out{0,1} -> EB0 ->
   mux.in{0,1}; mux -> sink.  Payload values are interned per lane so the
   repeated stream shares them. *)
let add_lane net ~lane ops =
  let values = Hashtbl.create period in
  let value ((op, a, b) as k) =
    match Hashtbl.find_opt values k with
    | Some v -> v
    | None ->
      let v = Alu.operand_value op a b in
      Hashtbl.add values k v;
      v
  in
  let add net name kind =
    Netlist.add_node ~name:(Fmt.str "l%d.%s" lane name) net kind
  in
  let buffer buffer = Netlist.Buffer { buffer; init = [] } in
  let net, src = add net "src" (Netlist.Source (Netlist.Stream (List.map value ops))) in
  let net, fork = add net "op_fork" (Netlist.Fork 3) in
  let net, fast = add net "fast" (Netlist.Func (Alu.approx_func ())) in
  let net, slow = add net "slow" (Netlist.Func (Alu.exact_func ())) in
  let net, err = add net "err" (Netlist.Func (Alu.error_func ())) in
  let net, err_fork = add net "err_fork" (Netlist.Fork 2) in
  let net, ebx = add net "EBx" (buffer Netlist.Eb) in
  let net, ebe = add net "EBe" (buffer Netlist.Eb) in
  let net, sh =
    add net "stage"
      (Netlist.Shared
         { ways = 2; f = g; sched = Scheduler.Hinted_replay; hinted = true })
  in
  let net, eb0r = add net "EB0r" (buffer Netlist.Eb0) in
  let net, eb1r = add net "EB1r" (buffer Netlist.Eb0) in
  let net, mux = add net "mux" (Netlist.Mux { ways = 2; early = true }) in
  let net, sink = add net "out" (Netlist.Sink Netlist.Always_ready) in
  let c ?(w = 8) net a b = fst (Netlist.connect ~width:w net a b) in
  let net = c net (src, Netlist.Out 0) (fork, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 0) (fast, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 1) (slow, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 2) (err, Netlist.In 0) in
  let net = c net (fast, Netlist.Out 0) (sh, Netlist.In 0) in
  let net = c net (slow, Netlist.Out 0) (ebx, Netlist.In 0) in
  let net = c net (ebx, Netlist.Out 0) (sh, Netlist.In 1) in
  let net = c ~w:1 net (err, Netlist.Out 0) (err_fork, Netlist.In 0) in
  let net = c ~w:1 net (err_fork, Netlist.Out 0) (ebe, Netlist.In 0) in
  let net = c ~w:1 net (ebe, Netlist.Out 0) (mux, Netlist.Sel) in
  let net = c ~w:1 net (err_fork, Netlist.Out 1) (sh, Netlist.Sel) in
  let net = c net (sh, Netlist.Out 0) (eb0r, Netlist.In 0) in
  let net = c net (eb0r, Netlist.Out 0) (mux, Netlist.In 0) in
  let net = c net (sh, Netlist.Out 1) (eb1r, Netlist.In 0) in
  let net = c net (eb1r, Netlist.Out 0) (mux, Netlist.In 1) in
  let net = c net (mux, Netlist.Out 0) (sink, Netlist.In 0) in
  (net, sink)

let generate ~lanes ~seed ~ops_per_lane =
  if lanes < 1 || ops_per_lane < 1 then
    invalid_arg "Lanes.generate: lanes and ops_per_lane must be positive";
  let ops = Array.init lanes (fun lane -> lane_ops ~seed ~lane ops_per_lane) in
  let net = ref Netlist.empty in
  let sinks =
    Array.mapi
      (fun lane lane_ops ->
         let n, sink = add_lane !net ~lane lane_ops in
         net := n;
         sink)
      ops
  in
  { net = !net; sinks; ops }

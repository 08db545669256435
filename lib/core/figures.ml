open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type params = {
  sel : int array;
  f_delay : float;
  f_area : float;
  g_delay : float;
  g_area : float;
}

let default_params =
  { sel = [| 0; 1; 1; 0; 1; 0; 0; 1; 1; 0 |]; f_delay = 5.0; f_area = 80.0;
    g_delay = 4.0; g_area = 60.0 }

type handles = {
  net : Netlist.t;
  mux : Netlist.node_id;
  eb : Netlist.node_id;
  sink : Netlist.node_id;
  shared : Netlist.node_id option;
}

(* Both inputs count in lockstep (one even, one odd), so the loop value v
   encodes the iteration index as [v asr 1] whichever side was selected;
   G maps it to the next iteration's select.  The initial loop token -2
   makes G yield sel.(0) for the first fire. *)
let g_func p =
  let n = Array.length p.sel in
  Func.unary ~name:"G" ~delay:p.g_delay ~area:p.g_area (fun v ->
      let i = (Value.to_int v asr 1) + 1 in
      Value.Int p.sel.(((i mod n) + n) mod n))

let f_func p =
  Func.unary ~name:"F" ~delay:p.f_delay ~area:p.f_area Fun.id

let fig1a ?(params = default_params) () =
  let net = Netlist.empty in
  let net, in0 =
    Netlist.add_node ~name:"in0" net
      (Netlist.Source (Netlist.Counter { start = 0; step = 2 }))
  in
  let net, in1 =
    Netlist.add_node ~name:"in1" net
      (Netlist.Source (Netlist.Counter { start = 1; step = 2 }))
  in
  let net, mux =
    Netlist.add_node ~name:"mux" net
      (Netlist.Mux { ways = 2; early = false })
  in
  let net, f =
    Netlist.add_node ~name:"F" net (Netlist.Func (f_func params))
  in
  let net, eb =
    Netlist.add_node ~name:"EB" net
      (Netlist.Buffer { buffer = Netlist.Eb; init = [ Value.Int (-2) ] })
  in
  let net, fork =
    Netlist.add_node ~name:"loop_fork" net (Netlist.Fork 2)
  in
  let net, g =
    Netlist.add_node ~name:"G" net (Netlist.Func (g_func params))
  in
  let net, sink =
    Netlist.add_node ~name:"out" net (Netlist.Sink Netlist.Always_ready)
  in
  let net, _ = Netlist.connect net (in0, Netlist.Out 0) (mux, Netlist.In 0) in
  let net, _ = Netlist.connect net (in1, Netlist.Out 0) (mux, Netlist.In 1) in
  let net, _ = Netlist.connect net (mux, Netlist.Out 0) (f, Netlist.In 0) in
  let net, _ = Netlist.connect net (f, Netlist.Out 0) (eb, Netlist.In 0) in
  let net, _ = Netlist.connect net (eb, Netlist.Out 0) (fork, Netlist.In 0) in
  let net, _ = Netlist.connect net (fork, Netlist.Out 0) (g, Netlist.In 0) in
  let net, _ = Netlist.connect net (g, Netlist.Out 0) (mux, Netlist.Sel) in
  let net, _ =
    Netlist.connect net (fork, Netlist.Out 1) (sink, Netlist.In 0)
  in
  Netlist.validate_exn net;
  { net; mux; eb; sink; shared = None }

let fig1b ?cert ?params () =
  let h = fig1a ?params () in
  (* Insert the bubble in the critical cycle, on the mux -> F channel. *)
  let f =
    match Netlist.find_node h.net "F" with
    | Some n -> n.Netlist.id
    | None -> assert false
  in
  let c =
    match Netlist.channel_at h.net f (Netlist.In 0) with
    | Some c -> c.Netlist.ch_id
    | None -> assert false
  in
  let net, _ = Transform.insert_bubble ?cert h.net ~channel:c in
  Netlist.validate_exn net;
  { h with net }

let fig1c ?cert ?params () =
  let h = fig1a ?params () in
  let net, _copies = Transform.shannon ?cert h.net ~mux:h.mux in
  let net = Transform.early_evaluation ?cert net ~mux:h.mux in
  Netlist.validate_exn net;
  { h with net }

let fig1d ?cert ?(params = default_params) ?sched () =
  let h = fig1a ~params () in
  let sched =
    match sched with
    | Some s -> s
    | None ->
      Scheduler.Noisy_oracle { sel = params.sel; accuracy_pct = 100; seed = 1 }
  in
  let r = Speculation.speculate ?cert h.net ~mux:h.mux ~sched in
  { h with net = r.Speculation.net; shared = Some r.Speculation.shared }

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

type table1_handles = {
  t1_net : Netlist.t;
  fin0 : Netlist.channel_id;
  fin1 : Netlist.channel_id;
  fout0 : Netlist.channel_id;
  fout1 : Netlist.channel_id;
  sel_ch : Netlist.channel_id;
  ebin : Netlist.channel_id;
  t1_shared : Netlist.node_id;
  t1_sink : Netlist.node_id;
}

(* Select outcome after each delivered token: the trace fires A(0), B(1),
   D(1), E(0), F(0), so G(A)=1, G(B)=1, G(D)=0, G(E)=0; the initial loop
   token yields the first select 0. *)
let table1_g =
  Func.unary ~name:"G_table1" ~delay:4.0 ~area:60.0 (function
    | Value.Str "A" -> Value.Int 1
    | Value.Str "B" -> Value.Int 1
    | Value.Str ("D" | "E" | "F") -> Value.Int 0
    | _ -> Value.Int 0)

let table1 () =
  let str s = Value.Str s in
  let net = Netlist.empty in
  (* Unnamed tokens x0/x1/x2 are the ones the paper's trace shows only as
     anti-token cancellations. *)
  let net, in0 =
    Netlist.add_node ~name:"in0" net
      (Netlist.Source
         (Netlist.Stream [ str "A"; str "x0"; str "C"; str "E"; str "F" ]))
  in
  let net, in1 =
    Netlist.add_node ~name:"in1" net
      (Netlist.Source
         (Netlist.Stream [ str "x1"; str "B"; str "D"; str "x2"; str "G" ]))
  in
  let f = Func.unary ~name:"F" ~delay:5.0 ~area:80.0 Fun.id in
  let net, sh =
    Netlist.add_node ~name:"sharedF" net
      (Netlist.Shared
         { ways = 2; f; sched = Scheduler.Toggle; hinted = false })
  in
  let net, mux =
    Netlist.add_node ~name:"mux" net (Netlist.Mux { ways = 2; early = true })
  in
  let net, eb =
    Netlist.add_node ~name:"EB" net
      (Netlist.Buffer { buffer = Netlist.Eb; init = [ str "t0" ] })
  in
  let net, fork =
    Netlist.add_node ~name:"loop_fork" net (Netlist.Fork 2)
  in
  let net, g = Netlist.add_node ~name:"G" net (Netlist.Func table1_g) in
  let net, sink =
    Netlist.add_node ~name:"out" net (Netlist.Sink Netlist.Always_ready)
  in
  let net, fin0 = Netlist.connect net (in0, Netlist.Out 0) (sh, Netlist.In 0) in
  let net, fin1 = Netlist.connect net (in1, Netlist.Out 0) (sh, Netlist.In 1) in
  let net, fout0 =
    Netlist.connect net (sh, Netlist.Out 0) (mux, Netlist.In 0)
  in
  let net, fout1 =
    Netlist.connect net (sh, Netlist.Out 1) (mux, Netlist.In 1)
  in
  let net, ebin = Netlist.connect net (mux, Netlist.Out 0) (eb, Netlist.In 0) in
  let net, _ = Netlist.connect net (eb, Netlist.Out 0) (fork, Netlist.In 0) in
  let net, _ = Netlist.connect net (fork, Netlist.Out 0) (g, Netlist.In 0) in
  let net, sel_ch = Netlist.connect net (g, Netlist.Out 0) (mux, Netlist.Sel) in
  let net, _ =
    Netlist.connect net (fork, Netlist.Out 1) (sink, Netlist.In 0)
  in
  Netlist.validate_exn net;
  { t1_net = net; fin0; fin1; fout0; fout1; sel_ch; ebin; t1_shared = sh;
    t1_sink = sink }

type table1_row = { label : string; cells : string list }

(* Make the figure blocks loadable from serialized netlists (Serial);
   the evaluation behavior is that of the default parameters. *)
let () =
  Library.register (f_func default_params);
  Library.register (g_func default_params);
  Library.register table1_g

(* Render a channel state the way Table 1 prints it. *)
let cell (s : Signal.t) =
  if s.Signal.v_minus then "-"
  else if s.Signal.v_plus then
    match s.Signal.data with
    | Some (Value.Str x) -> x
    | Some v -> Value.to_string v
    | None -> "?"
  else "*"

let sel_cell (s : Signal.t) =
  if s.Signal.v_plus then
    match s.Signal.data with Some v -> Value.to_string v | None -> "?"
  else "*"

let table1_trace ?(cycles = 7) h =
  let eng = Elastic_sim.Engine.create h.t1_net in
  let sched =
    match Elastic_sim.Engine.schedulers eng with
    | [ (_, s) ] -> s
    | _ -> assert false
  in
  let columns = ref [] in
  for _ = 1 to cycles do
    let predicted = Scheduler.predict sched in
    Elastic_sim.Engine.step eng;
    let sig_of c = Elastic_sim.Engine.signal eng c in
    columns :=
      [ cell (sig_of h.fin0); cell (sig_of h.fout0); cell (sig_of h.fin1);
        cell (sig_of h.fout1); sel_cell (sig_of h.sel_ch);
        string_of_int predicted; cell (sig_of h.ebin) ]
      :: !columns
  done;
  let columns = List.rev !columns in
  let labels =
    [ "Fin0"; "Fout0"; "Fin1"; "Fout1"; "Sel"; "Sched"; "EBin" ]
  in
  List.mapi
    (fun i label -> { label; cells = List.map (fun c -> List.nth c i) columns })
    labels

let pp_table1 ppf rows =
  let cycles = match rows with r :: _ -> List.length r.cells | [] -> 0 in
  Fmt.pf ppf "%-6s" "Cycle";
  for c = 0 to cycles - 1 do
    Fmt.pf ppf "%3d" c
  done;
  Fmt.pf ppf "@.";
  List.iter
    (fun r ->
       Fmt.pf ppf "%-6s" r.label;
       List.iter (fun c -> Fmt.pf ppf "%3s" c) r.cells;
       Fmt.pf ppf "@.")
    rows

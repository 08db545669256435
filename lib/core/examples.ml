open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_datapath

type design = {
  d_net : Netlist.t;
  d_sink : Netlist.node_id;
  d_name : string;
}

(* ------------------------------------------------------------------ *)
(* The generic speculative replay stage (shared by §5.1 and §5.2):      *)
(*                                                                      *)
(*            +-- fast ----------------> sh.in0 --+                     *)
(*   src -> fork-- slow --> [EB] ------> sh.in1   sh(f) => [EB] x2      *)
(*            +-- err --> fork+-> [EB] -> mux.sel     => early mux      *)
(*                            +--------> sh.hint      => sink           *)
(* ------------------------------------------------------------------ *)

let replay_stage_alarmed ?(recovery = Netlist.Eb0) ?alarm ~name ~source
    ~fast ~slow ~err ~stage_f ~width ~out_width () =
  let net = Netlist.empty in
  let add ?name net kind = Netlist.add_node ?name net kind in
  let net, src = add ~name:"src" net (Netlist.Source source) in
  let fork_ways = match alarm with None -> 3 | Some _ -> 4 in
  let net, fork = add ~name:"op_fork" net (Netlist.Fork fork_ways) in
  let net, ffast = add ~name:"fast" net (Netlist.Func fast) in
  let net, fslow = add ~name:"slow" net (Netlist.Func slow) in
  let net, ferr = add ~name:"err" net (Netlist.Func err) in
  let net, err_fork = add ~name:"err_fork" net (Netlist.Fork 2) in
  let net, ebx =
    add ~name:"EBx" net (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
  in
  let net, ebe =
    add ~name:"EBe" net (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
  in
  let net, sh =
    add ~name:"stage" net
      (Netlist.Shared
         { ways = 2; f = stage_f; sched = Scheduler.Hinted_replay;
           hinted = true })
  in
  (* Recovery buffers use the zero-backward-latency EB of Fig. 5: the
     anti-token of a correct prediction must rush back through them to the
     shared module, otherwise the doomed slow-path token delays its
     successors and throughput drops below 1 (§4.1, §4.3). *)
  let net, eb0r =
    add ~name:"EB0r" net (Netlist.Buffer { buffer = recovery; init = [] })
  in
  let net, eb1r =
    add ~name:"EB1r" net (Netlist.Buffer { buffer = recovery; init = [] })
  in
  let net, mux =
    add ~name:"mux" net (Netlist.Mux { ways = 2; early = true })
  in
  let net, sink = add ~name:"out" net (Netlist.Sink Netlist.Always_ready) in
  let c ?(w = width) net a b = fst (Netlist.connect ~width:w net a b) in
  let net = c net (src, Netlist.Out 0) (fork, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 0) (ffast, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 1) (fslow, Netlist.In 0) in
  let net = c net (fork, Netlist.Out 2) (ferr, Netlist.In 0) in
  let net = c net (ffast, Netlist.Out 0) (sh, Netlist.In 0) in
  let net = c net (fslow, Netlist.Out 0) (ebx, Netlist.In 0) in
  let net = c net (ebx, Netlist.Out 0) (sh, Netlist.In 1) in
  let net = c ~w:1 net (ferr, Netlist.Out 0) (err_fork, Netlist.In 0) in
  let net = c ~w:1 net (err_fork, Netlist.Out 0) (ebe, Netlist.In 0) in
  let net = c ~w:1 net (ebe, Netlist.Out 0) (mux, Netlist.Sel) in
  let net = c ~w:1 net (err_fork, Netlist.Out 1) (sh, Netlist.Sel) in
  let net = c ~w:out_width net (sh, Netlist.Out 0) (eb0r, Netlist.In 0) in
  let net = c ~w:out_width net (eb0r, Netlist.Out 0) (mux, Netlist.In 0) in
  let net = c ~w:out_width net (sh, Netlist.Out 1) (eb1r, Netlist.In 0) in
  let net = c ~w:out_width net (eb1r, Netlist.Out 0) (mux, Netlist.In 1) in
  let net = c ~w:out_width net (mux, Netlist.Out 0) (sink, Netlist.In 0) in
  (* Optional error-severity tap: a fourth fork way through a severity
     function into a dedicated "alarm" sink, so fault campaigns can tell
     detected-and-reported errors from silent ones. *)
  let net, alarm_sink =
    match alarm with
    | None -> (net, None)
    | Some f ->
      let net, sev = add ~name:"severity" net (Netlist.Func f) in
      let net, asink =
        add ~name:"alarm" net (Netlist.Sink Netlist.Always_ready)
      in
      let net = c net (fork, Netlist.Out 3) (sev, Netlist.In 0) in
      let net = c ~w:2 net (sev, Netlist.Out 0) (asink, Netlist.In 0) in
      (net, Some asink)
  in
  Netlist.validate_exn net;
  ({ d_net = net; d_sink = sink; d_name = name }, alarm_sink)

let replay_stage ?recovery ~name ~source ~fast ~slow ~err ~stage_f ~width
    ~out_width () =
  fst
    (replay_stage_alarmed ?recovery ~name ~source ~fast ~slow ~err ~stage_f
       ~width ~out_width ())

(* ------------------------------------------------------------------ *)
(* §5.1 Variable-latency ALU                                            *)

(* The downstream stage logic that gets shared (the shaded G of
   Fig. 6(b)): a light post-processing block, here result + 1. *)
let vl_g () =
  Func.make ~name:"G" ~arity:1 ~delay:1.5 ~area:40.0 (function
    | [ v ] -> Value.Int ((Value.to_int v + 1) land 0xFF)
    | _ -> assert false)

let vl_stream ops =
  Netlist.Stream (List.map (fun (op, a, b) -> Alu.operand_value op a b) ops)

let vl_stalling ~ops =
  let net = Netlist.empty in
  let net, src = Netlist.add_node ~name:"src" net (Netlist.Source (vl_stream ops)) in
  let net, vl =
    Netlist.add_node ~name:"alu" net
      (Netlist.Varlat
         { fast = Alu.approx_func (); slow = Alu.exact_func ();
           err = Alu.error_func () })
  in
  let net, g = Netlist.add_node ~name:"G" net (Netlist.Func (vl_g ())) in
  let net, sink =
    Netlist.add_node ~name:"out" net (Netlist.Sink Netlist.Always_ready)
  in
  let net, _ = Netlist.connect ~width:8 net (src, Netlist.Out 0) (vl, Netlist.In 0) in
  let net, _ = Netlist.connect ~width:8 net (vl, Netlist.Out 0) (g, Netlist.In 0) in
  let net, _ = Netlist.connect ~width:8 net (g, Netlist.Out 0) (sink, Netlist.In 0) in
  Netlist.validate_exn net;
  { d_net = net; d_sink = sink; d_name = "vl-stalling" }

let vl_speculative_with ~recovery ~ops =
  replay_stage ~recovery ~name:"vl-speculative" ~source:(vl_stream ops)
    ~fast:(Alu.approx_func ()) ~slow:(Alu.exact_func ())
    ~err:(Alu.error_func ()) ~stage_f:(vl_g ()) ~width:8 ~out_width:8 ()

let vl_speculative ~ops = vl_speculative_with ~recovery:Netlist.Eb0 ~ops

let vl_reference ops =
  List.map
    (fun (op, a, b) -> Value.Int ((Alu.exact op a b + 1) land 0xFF))
    ops

let lanes k net =
  let nodes = Netlist.nodes net and chans = Netlist.channels net in
  let lane acc i =
    let ids = Hashtbl.create 16 in
    let acc =
      List.fold_left
        (fun acc (n : Netlist.node) ->
           let acc, id =
             Netlist.add_node ~name:(Fmt.str "l%d.%s" i n.Netlist.name) acc
               n.Netlist.kind
           in
           Hashtbl.add ids n.Netlist.id id;
           acc)
        acc nodes
    in
    let ep (e : Netlist.endpoint) =
      (Hashtbl.find ids e.Netlist.ep_node, e.Netlist.ep_port)
    in
    List.fold_left
      (fun acc (c : Netlist.channel) ->
         fst
           (Netlist.connect ~width:c.Netlist.width acc (ep c.Netlist.src)
              (ep c.Netlist.dst)))
      acc chans
  in
  List.fold_left lane Netlist.empty (List.init k Fun.id)

(* ------------------------------------------------------------------ *)
(* §5.2 Resilient adder                                                 *)

type rs_op = {
  a : int64;
  b : int64;
  flip_a : int option;
  flip_b : int option;
}

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let rs_ops ~error_rate_pct ~seed n =
  let s = ref (lcg (seed lxor 0x0F1E2D)) in
  let draw bound =
    s := lcg !s;
    !s mod bound
  in
  let word () =
    let hi = Int64.of_int (draw 0x40000000) in
    let lo = Int64.of_int (draw 0x40000000) in
    Int64.logor (Int64.shift_left hi 30) lo
  in
  List.init n (fun _ ->
      let a = word () and b = word () in
      let upset () = if draw 200 < error_rate_pct then Some (draw 72) else None in
      (* error_rate_pct is the chance that the *operation* sees an upset;
         split evenly between the two operands. *)
      match draw 2 with
      | 0 -> { a; b; flip_a = upset (); flip_b = None }
      | _ -> { a; b; flip_a = None; flip_b = upset () })

let corrupted op =
  let flip cw = function Some i -> Secded.flip_bit cw i | None -> cw in
  let cwa = flip (Secded.encode op.a) op.flip_a in
  let cwb = flip (Secded.encode op.b) op.flip_b in
  Value.Tuple
    [ Value.Tuple [ Value.Word cwa.Secded.data; Value.Int cwa.Secded.check ];
      Value.Tuple [ Value.Word cwb.Secded.data; Value.Int cwb.Secded.check ] ]

let rs_stream ops = Netlist.Stream (List.map corrupted ops)

let codeword_of v =
  match v with
  | Value.Tuple [ Value.Word data; Value.Int check ] ->
    { Secded.data; check }
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Word _ | Value.Str _
  | Value.Tuple _ ->
    invalid_arg "Examples: not a codeword"

let corrected_word v =
  let cw = codeword_of v in
  match Secded.decode cw with
  | Secded.No_error -> cw.Secded.data
  | Secded.Corrected d -> d
  | Secded.Double_error -> cw.Secded.data

(* One SECDED corrector per operand: a whole pipeline stage (§5.2). *)
let rs_correct_pair () =
  Func.make ~name:"secded2" ~arity:1 ~delay:7.0 ~area:640.0 (function
    | [ Value.Tuple [ va; vb ] ] ->
      Value.Tuple [ Value.Word (corrected_word va); Value.Word (corrected_word vb) ]
    | _ -> assert false)

(* Strip the check bits; the raw (possibly corrupted) operands feed the
   speculative addition. *)
let rs_raw_pair () =
  Func.make ~name:"raw2" ~arity:1 ~delay:0.5 ~area:4.0 (function
    | [ Value.Tuple [ va; vb ] ] ->
      Value.Tuple
        [ Value.Word (codeword_of va).Secded.data;
          Value.Word (codeword_of vb).Secded.data ]
    | _ -> assert false)

(* The error flag is a tap off the SECDED syndrome logic (no double
   counting of the corrector's area). *)
let rs_err () =
  Func.make ~name:"secded_err" ~arity:1 ~delay:7.0 ~area:24.0 (function
    | [ Value.Tuple [ va; vb ] ] ->
      let clean v = Secded.decode (codeword_of v) = Secded.No_error in
      Value.Int (if clean va && clean vb then 0 else 1)
    | _ -> assert false)

(* 64-bit prefix adder (§5.2 uses one). *)
let rs_adder () =
  Func.make ~name:"add64" ~arity:1 ~delay:8.0 ~area:900.0 (function
    | [ Value.Tuple [ Value.Word a; Value.Word b ] ] ->
      Value.Word (Int64.add a b)
    | _ -> assert false)

let rs_nonspeculative ~ops =
  let net = Netlist.empty in
  let net, src =
    Netlist.add_node ~name:"src" net (Netlist.Source (rs_stream ops))
  in
  let net, cor =
    Netlist.add_node ~name:"secded" net (Netlist.Func (rs_correct_pair ()))
  in
  let net, stage =
    Netlist.add_node ~name:"stage_eb" net
      (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
  in
  let net, adder =
    Netlist.add_node ~name:"adder" net (Netlist.Func (rs_adder ()))
  in
  (* The adder occupies its own stage, so its result is registered before
     the next stage consumes it — this is the extra pipeline depth the
     speculative version removes. *)
  let net, out_eb =
    Netlist.add_node ~name:"out_eb" net
      (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
  in
  let net, sink =
    Netlist.add_node ~name:"out" net (Netlist.Sink Netlist.Always_ready)
  in
  let net, _ =
    Netlist.connect ~width:144 net (src, Netlist.Out 0) (cor, Netlist.In 0)
  in
  let net, _ =
    Netlist.connect ~width:128 net (cor, Netlist.Out 0) (stage, Netlist.In 0)
  in
  let net, _ =
    Netlist.connect ~width:128 net (stage, Netlist.Out 0) (adder, Netlist.In 0)
  in
  let net, _ =
    Netlist.connect ~width:64 net (adder, Netlist.Out 0) (out_eb, Netlist.In 0)
  in
  let net, _ =
    Netlist.connect ~width:64 net (out_eb, Netlist.Out 0) (sink, Netlist.In 0)
  in
  Netlist.validate_exn net;
  { d_net = net; d_sink = sink; d_name = "rs-nonspeculative" }

let rs_speculative_with ~recovery ~ops =
  replay_stage ~recovery ~name:"rs-speculative" ~source:(rs_stream ops)
    ~fast:(rs_raw_pair ()) ~slow:(rs_correct_pair ()) ~err:(rs_err ())
    ~stage_f:(rs_adder ()) ~width:128 ~out_width:64 ()

let rs_speculative ~ops = rs_speculative_with ~recovery:Netlist.Eb0 ~ops

(* Maximum SECDED decode status over the two operands: 0 = clean,
   1 = single error (corrected), 2 = double error (detected but
   uncorrectable).  A tap off the same syndrome logic as [rs_err]. *)
let rs_severity () =
  Func.make ~name:"secded_sev" ~arity:1 ~delay:7.0 ~area:24.0 (function
    | [ Value.Tuple [ va; vb ] ] ->
      let sev v =
        match Secded.decode (codeword_of v) with
        | Secded.No_error -> 0
        | Secded.Corrected _ -> 1
        | Secded.Double_error -> 2
      in
      Value.Int (max (sev va) (sev vb))
    | _ -> assert false)

let rs_speculative_alarmed ~ops =
  let d, alarm =
    replay_stage_alarmed ~alarm:(rs_severity ())
      ~name:"rs-speculative-alarmed" ~source:(rs_stream ops)
      ~fast:(rs_raw_pair ()) ~slow:(rs_correct_pair ()) ~err:(rs_err ())
      ~stage_f:(rs_adder ()) ~width:128 ~out_width:64 ()
  in
  (d, Option.get alarm)

let alarm_tripped v = try Value.to_int v >= 2 with Invalid_argument _ -> false

type secded_campaign = {
  sc_net : Netlist.t;
  sc_alarms : (Netlist.node_id * (Value.t -> bool)) list;
  sc_bus : Netlist.channel_id;
  sc_cycles : int;
  sc_settle : int;
  sc_groups : (string * Elastic_fault.Fault.t list list) list;
}

let secded_campaign ~ops =
  let open Elastic_fault in
  let d, alarm = rs_speculative_alarmed ~ops in
  let net = d.d_net in
  let src = Option.get (Netlist.find_node net "src") in
  let bus = (List.hd (Netlist.outgoing net src.Netlist.id)).Netlist.ch_id in
  { sc_net = net; sc_alarms = [ (alarm, alarm_tripped) ]; sc_bus = bus;
    sc_cycles = 450; sc_settle = 60;
    sc_groups =
      [ ("single",
         Campaign.random_bitflips ~net ~channel:bus ~seed:2009 ~count:120
           ~from_cycle:2 ~to_cycle:350 ~bit_hi:144 ());
        ("double",
         Campaign.random_double_flips ~net ~channel:bus ~seed:2009 ~count:40
           ~from_cycle:2 ~to_cycle:350 ~bit_lo:0 ~bit_hi:72 ());
        ("glitch", [ Fault.control_glitch ~channel:bus ~cycle:25 ]) ] }

let secded_flips c ~count =
  List.filteri (fun i _ -> i < count) (List.assoc "single" c.sc_groups)

(* ------------------------------------------------------------------ *)
(* Sec. 1 motivation: a next-PC loop running a 7-instruction program     *)
(* with an inner branch (taken 3 of 4) and an outer branch (monotone).  *)
(* A token is the machine state (step, pc) encoded as step*64 + pc.     *)

type pc_loop = {
  pl_net : Netlist.t;
  pl_mux : Netlist.node_id;
  pl_sink : Netlist.node_id;
}

let pc_of v = v mod 64

let pl_step v = v / 64

let pl_encode ~step ~pc = (step * 64) + pc

let pl_is_branch pc = pc = 3 || pc = 6

let pl_target pc = if pc = 3 then 1 else 0

let pl_taken ~step ~pc =
  match pc with 3 -> step mod 4 <> 3 | 6 -> true | _ -> false

let pl_resolve =
  Func.make ~name:"resolve" ~arity:1 ~delay:6.0 ~area:150.0 (function
    | [ v ] ->
      let v = Value.to_int v in
      Value.Int
        (if pl_is_branch (pc_of v) && pl_taken ~step:(pl_step v) ~pc:(pc_of v)
         then 1
         else 0)
    | _ -> assert false)

let pl_nextpc =
  Func.make ~name:"nextpc" ~arity:1 ~delay:1.0 ~area:20.0 (function
    | [ v ] ->
      let v = Value.to_int v in
      Value.Int (pl_encode ~step:(pl_step v + 1) ~pc:(pc_of v + 1))
    | _ -> assert false)

let pl_tgt =
  Func.make ~name:"target" ~arity:1 ~delay:1.0 ~area:20.0 (function
    | [ v ] ->
      let v = Value.to_int v in
      Value.Int (pl_encode ~step:(pl_step v + 1) ~pc:(pl_target (pc_of v)))
    | _ -> assert false)

let pl_fetch =
  Func.make ~name:"fetch" ~arity:1 ~delay:5.0 ~area:120.0 (function
    | [ v ] -> v
    | _ -> assert false)

let pc_loop () =
  let net = Netlist.empty in
  let net, e =
    Netlist.add_node ~name:"PC" net
      (Netlist.Buffer { buffer = Netlist.Eb; init = [ Value.Int 0 ] })
  in
  let net, fk = Netlist.add_node ~name:"fork" net (Netlist.Fork 4) in
  let net, res = Netlist.add_node ~name:"resolve" net (Netlist.Func pl_resolve) in
  let net, inc = Netlist.add_node ~name:"nextpc" net (Netlist.Func pl_nextpc) in
  let net, tgt = Netlist.add_node ~name:"target" net (Netlist.Func pl_tgt) in
  let net, m =
    Netlist.add_node ~name:"mux" net (Netlist.Mux { ways = 2; early = false })
  in
  let net, f = Netlist.add_node ~name:"fetch" net (Netlist.Func pl_fetch) in
  let net, k =
    Netlist.add_node ~name:"commit" net (Netlist.Sink Netlist.Always_ready)
  in
  let c net a b = fst (Netlist.connect net a b) in
  let net = c net (e, Netlist.Out 0) (fk, Netlist.In 0) in
  let net = c net (fk, Netlist.Out 0) (res, Netlist.In 0) in
  let net = c net (fk, Netlist.Out 1) (inc, Netlist.In 0) in
  let net = c net (fk, Netlist.Out 2) (tgt, Netlist.In 0) in
  let net = c net (fk, Netlist.Out 3) (k, Netlist.In 0) in
  let net = c net (res, Netlist.Out 0) (m, Netlist.Sel) in
  let net = c net (inc, Netlist.Out 0) (m, Netlist.In 0) in
  let net = c net (tgt, Netlist.Out 0) (m, Netlist.In 1) in
  let net = c net (m, Netlist.Out 0) (f, Netlist.In 0) in
  let net = c net (f, Netlist.Out 0) (e, Netlist.In 0) in
  Netlist.validate_exn net;
  { pl_net = net; pl_mux = m; pl_sink = k }

(* Register the Sec. 5 blocks so saved designs can be reloaded. *)
let () =
  Library.register (vl_g ());
  Library.register (Alu.exact_func ());
  Library.register (Alu.approx_func ());
  Library.register (Alu.error_func ());
  Library.register (rs_correct_pair ());
  Library.register (rs_raw_pair ());
  Library.register (rs_err ());
  Library.register (rs_severity ());
  Library.register (rs_adder ());
  Library.register pl_resolve;
  Library.register pl_nextpc;
  Library.register pl_tgt;
  Library.register pl_fetch

let rs_reference ops =
  List.map (fun op -> Value.Word (Int64.add op.a op.b)) ops

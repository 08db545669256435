open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Helpers

(* source -> EB(init) -> sink *)
let simple_pipeline ?(init = [ Value.Int 100 ]) items =
  let b = builder () in
  let s = src_stream b items in
  let e = eb b ~init () in
  let k = sink b () in
  let _ = conn b (s, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (k, In 0) in
  (b.net, k)

(* [n] nodes of [kind], with ids from 0, each alone on its own dense
   channels (its inputs, then its select, then its outputs), node by
   node: their registers, payload slots, instances and node tables. *)
let same_nodes n kind ~ins ~sel ~outs =
  let ports = ins + Bool.to_int sel + outs in
  let regs, vals, insts =
    Instance.layout
      (Array.init n (fun id -> { Netlist.id; name = Fmt.str "n%d" id; kind }))
      ~ports:
        (Array.init n (fun k ->
             let c = k * ports in
             (Array.init ins (fun j -> c + j),
              (if sel then Some (c + ins) else None),
              Array.init outs (fun j -> c + ins + Bool.to_int sel + j))))
      ~spare:0 ~spare_vals:0
  in
  (regs, vals, insts, Nodes.create insts ~regs ~vals)

(* Node [kind] alone on dense channels: its registers, payload slots,
   instance and node tables. *)
let lone_node kind ~ins ~sel ~outs =
  let regs, vals, insts, nodes = same_nodes 1 kind ~ins ~sel ~outs in
  (regs, vals, insts.(0), nodes)

(* The buffer's clock edge that shifted its queue on each pop and wrote
   it on each push, kept as the model of the single-write edge of
   [Nodes.clock]. *)
let model_eb_clock regs r vals v ~cin ~cout ~data =
  let in_ev = Signal.events_of_code cin
  and out_ev = Signal.events_of_code cout in
  let pop len =
    for k = v to v + len - 2 do
      vals.(k) <- vals.(k + 1)
    done;
    vals.(v + len - 1) <- Value.Unit
  in
  let n = regs.(r) in
  let len = ref (max n 0) in
  if out_ev.Signal.token_out then begin
    assert (!len > 0);
    pop !len;
    decr len
  end;
  if in_ev.Signal.token_in then begin
    assert (Option.is_some data);
    assert (!len < 2);
    vals.(v + !len) <- Option.get data;
    incr len
  end;
  if out_ev.Signal.anti_in && !len > 0 then begin
    pop !len;
    decr len
  end;
  let n =
    n + Bool.to_int in_ev.Signal.token_in + Bool.to_int in_ev.Signal.anti_out
    - Bool.to_int out_ev.Signal.token_out - Bool.to_int out_ev.Signal.anti_in
  in
  regs.(r) <- n;
  assert (n >= -2 && n <= 2);
  assert (!len = max n 0)

(* One node between dense channels 0 (its input) and 1 (its output),
   from the state [init] sets, clocked on every pair of codes by
   [Nodes.clock] and by [model]: both refuse the pair, or both leave
   the same registers and payload slots, [Unit] past the last token
   included.  Returns how many pairs both accepted. *)
let check_clock_edge kind ~states ~payloads ~model =
  let accepted = ref 0 in
  List.iter
    (fun init ->
       List.iter
         (fun payload ->
            for cin = 0 to 15 do
              for cout = 0 to 15 do
                let regs, vals, inst, nodes =
                  lone_node kind ~ins:1 ~sel:false ~outs:1
                in
                let r = Instance.reg_base inst and v = Instance.val_base inst in
                init regs r vals v;
                let data =
                  if cin land Signal.v_plus_bit <> 0 then Some payload else None
                in
                let mregs = Array.copy regs and mvals = Array.copy vals in
                let name =
                  Fmt.str "%s, state %a, codes %d/%d, payload %a"
                    (Netlist.kind_name kind)
                    Fmt.(array ~sep:comma Value.pp) vals cin cout Value.pp
                    payload
                in
                let outcome f =
                  match f () with
                  | () -> true
                  | exception Assert_failure _ -> false
                in
                let ok =
                  outcome (fun () ->
                      Nodes.clock nodes ~codes:[| cin; cout |]
                        ~has_data:(fun c -> c = 0 && Option.is_some data)
                        ~payload:(fun _ -> Option.get data))
                and mok =
                  outcome (fun () -> model mregs r mvals v ~cin ~cout ~data)
                in
                Alcotest.(check bool) (name ^ ": accepted") mok ok;
                if ok then begin
                  incr accepted;
                  Alcotest.(check (array int)) (name ^ ": registers") mregs
                    regs;
                  Alcotest.(check (array value)) (name ^ ": payload slots")
                    mvals vals
                end
              done
            done)
         payloads)
    states;
  !accepted

let test_eb_edge () =
  (* Occupancy -2..2; the tokens held are distinct from the one
     arriving. *)
  let states =
    List.map
      (fun n regs r vals v ->
         regs.(r) <- n;
         if n >= 1 then vals.(v) <- Value.Int 10;
         if n >= 2 then vals.(v + 1) <- Value.Int 11)
      [ -2; -1; 0; 1; 2 ]
  in
  let accepted =
    check_clock_edge
      (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
      ~states ~payloads:[ Value.Int 20 ] ~model:model_eb_clock
  in
  Alcotest.(check bool) "some pairs accepted" true (accepted > 0)

(* The engine walks only the nodes with a row in [Nodes.begin_cycle]'s
   loops at begin-cycle and only those with a row in [Nodes.clock]'s at
   the clock edge.  Each case
   is one node alone on dense channels (its inputs, then its select,
   then its outputs), from each [init] state.  The clock edge sees every
   code on each port, the other ports all at one code, with a payload on
   every valid channel; begin-cycle sees every choice, from the start
   state and after each edge the node accepts.  A node outside a set
   must leave its registers and payload slots as they were, and a node
   inside it must change them on some input, so the sets are exact. *)
let acting_cases =
  let id = Func.identity () in
  let odd =
    Func.unary ~name:"odd" ~delay:1.0 ~area:1.0 (fun v ->
        Value.Int (Value.to_int v land 1))
  in
  let start _ _ _ _ = () in
  let occupancy n regs r vals v =
    regs.(r) <- n;
    for k = 0 to n - 1 do
      vals.(v + k) <- Value.Int (10 + k)
    done
  in
  let lone ?(states = [ start ]) kind ~ins ~sel ~outs =
    (kind, ins, sel, outs, states)
  in
  let shared sched =
    let hinted = sched = Elastic_sched.Scheduler.Hinted_replay in
    lone
      (Netlist.Shared { ways = 2; f = id; sched; hinted })
      ~ins:2 ~sel:hinted ~outs:2
  in
  List.map
    (fun spec -> lone (Netlist.Source spec) ~ins:0 ~sel:false ~outs:1)
    Netlist.
      [ Stream [ Value.Int 1; Value.Int 2 ]; Counter { start = 0; step = 1 };
        Random_rate { pct = 50; seed = 7 };
        Nondet [ Value.Int 1; Value.Int 2 ] ]
  @ List.map
      (fun spec -> lone (Netlist.Sink spec) ~ins:1 ~sel:false ~outs:0)
      Netlist.
        [ Always_ready; Stall_pattern [| false; true; true |];
          Random_stall { pct = 50; seed = 7 } ]
  @ [ lone
        (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
        ~ins:1 ~sel:false ~outs:1
        ~states:(List.map occupancy [ -2; -1; 0; 1; 2 ]);
      lone
        (Netlist.Buffer { buffer = Netlist.Eb0; init = [] })
        ~ins:1 ~sel:false ~outs:1
        ~states:(List.map occupancy [ 0; 1 ]) ]
  @ List.map
      (fun k -> lone (Netlist.Fork k) ~ins:1 ~sel:false ~outs:k)
      [ 2; 3 ]
  @ List.map
      (fun early ->
         lone (Netlist.Mux { ways = 2; early }) ~ins:2 ~sel:true ~outs:1)
      [ false; true ]
  @ List.map shared
      Elastic_sched.Scheduler.
        [ Static 0; Toggle; Sticky; Two_bit; Round_robin;
          Scripted [| 0; 1; 1 |];
          Noisy_oracle { sel = [| 0; 1 |]; accuracy_pct = 50; seed = 7 };
          External; Prefer 0; Hinted_replay; Gshare { history_bits = 2 } ]
  @ [ lone
        (Netlist.Varlat { fast = id; slow = id; err = odd })
        ~ins:1 ~sel:false ~outs:1;
      lone (Netlist.Func (Func.add_int ~arity:2 ())) ~ins:2 ~sel:false
        ~outs:1 ]

let test_acting_nodes () =
  let choices =
    None
    :: List.map Option.some
         Instance.[ Offer true; Offer false; Stall true; Stall false;
                    Predict 0; Predict 1 ]
  in
  List.iteri
    (fun index (kind, nins, sel, nouts, states) ->
       let ports = nins + Bool.to_int sel + nouts in
       let fresh () = lone_node kind ~ins:nins ~sel ~outs:nouts in
       let _, _, _, nt = fresh () in
       let rows l = List.exists (fun a -> Array.length a > 0) l in
       let at_begin = rows Nodes.[ nt.src; nt.snk; nt.shared ]
       and at_clock =
         rows
           Nodes.
             [ nt.src; nt.stall; nt.eb; nt.eb0; nt.fork; nt.emux; nt.shared;
               nt.varlat ]
       in
       let moved_begin = ref false and moved_clock = ref false in
       let same (r1, v1) (r2, v2) =
         r1 = r2 && Array.for_all2 Value.equal v1 v2
       in
       let name what =
         Fmt.str "case %d, %s: %s" index (Netlist.kind_name kind) what
       in
       (* Every choice at begin-cycle, from the state [regs], [vals]. *)
       let begins regs vals nodes =
         let r0 = Array.copy regs and v0 = Array.copy vals in
         List.iter
           (fun choice ->
              Nodes.begin_cycle nodes ~choices:(fun _ -> choice);
              let moved = not (same (r0, v0) (regs, vals)) in
              if moved then moved_begin := true;
              if not at_begin then
                Alcotest.(check bool) (name "begin-cycle is a no-op") false
                  moved;
              Array.blit r0 0 regs 0 (Array.length r0);
              Array.blit v0 0 vals 0 (Array.length v0))
           choices
       in
       List.iter
         (fun init ->
            for p = 0 to max 0 (ports - 1) do
              for base = 0 to 15 do
                for c = 0 to 15 do
                  let regs, vals, inst, nodes = fresh () in
                  init regs (Instance.reg_base inst) vals
                    (Instance.val_base inst);
                  begins regs vals nodes;
                  let codes =
                    Array.init ports (fun q -> if q = p then c else base)
                  in
                  let before = (Array.copy regs, Array.copy vals) in
                  match
                    Nodes.clock nodes ~codes
                      ~has_data:(fun ch ->
                          codes.(ch) land Signal.v_plus_bit <> 0)
                      ~payload:(fun _ -> Value.Int 0)
                  with
                  | () ->
                    let moved = not (same before (regs, vals)) in
                    if moved then moved_clock := true;
                    if not at_clock then
                      Alcotest.(check bool)
                        (name
                           (Fmt.str "clock edge on codes %a is a no-op"
                              Fmt.(array ~sep:comma int) codes))
                        false moved;
                    begins regs vals nodes
                  | exception (Assert_failure _ | Invalid_argument _) ->
                    Alcotest.(check bool) (name "only an acting node refuses")
                      true at_clock
                done
              done
            done)
         states;
       Alcotest.(check bool) (name "acts at begin-cycle") at_begin
         !moved_begin;
       Alcotest.(check bool) (name "acts at the clock edge") at_clock
         !moved_clock)
    acting_cases

(* The per-role loops of [Nodes] against the per-node begin-cycle and
   clock edge they replaced ([Edge_model], kept verbatim).  Each case is
   two nodes of one kind, each alone on its own dense channels (so a
   row read at the wrong width shows on the second), laid out twice
   from the same [init] state: the loops run on one copy, the model on
   the other.
   Begin-cycle sees each choice the node's kind takes (and none), and
   from the state it leaves the clock edge sees every code on each
   port, the other ports all at one base code, with a payload on every
   valid channel.  Both must leave the same registers and payload
   slots, or both refuse. *)
let model_cases =
  let id = Func.identity () in
  let odd =
    Func.unary ~name:"odd" ~delay:1.0 ~area:1.0 (fun v ->
        Value.Int (Value.to_int v land 1))
  in
  let start _ _ _ _ = () in
  (* Registers from the node's base, the rest as laid out. *)
  let slots l regs r _ _ = List.iteri (fun k x -> regs.(r + k) <- x) l in
  let occupancy n regs r vals v =
    regs.(r) <- n;
    for k = 0 to n - 1 do
      vals.(v + k) <- Value.Int (10 + k)
    done
  in
  let case ?(states = [ start ]) kind ~ins ~sel ~outs =
    (kind, ins, sel, outs, states)
  in
  let shared ~hinted sched =
    case
      (Netlist.Shared { ways = 2; f = id; sched; hinted })
      ~ins:2 ~sel:hinted ~outs:2
      ~states:[ start; slots [ 1 ] ]
  in
  (* Offering at index 0; owed a kill, retrying; spent, owed kills. *)
  let source_states =
    [ start; slots [ 1; 0; 0; 0 ]; slots [ 1; 1; 1; 1 ]; slots [ 0; 2; 2; 0 ] ]
  in
  List.map
    (fun spec ->
       case (Netlist.Source spec) ~ins:0 ~sel:false ~outs:1
         ~states:source_states)
    Netlist.
      [ Stream [ Value.Int 1; Value.Int 2 ]; Counter { start = 3; step = 2 };
        Random_rate { pct = 50; seed = 7 };
        Nondet [ Value.Int 1; Value.Int 2 ]; Nondet [] ]
  @ List.map
      (fun spec ->
         case (Netlist.Sink spec) ~ins:1 ~sel:false ~outs:0
           ~states:[ start; slots [ 1; 2 ] ])
      Netlist.
        [ Always_ready; Stall_pattern [| false; true; true |];
          Stall_pattern [||]; Random_stall { pct = 50; seed = 7 } ]
  @ [ case
        (Netlist.Buffer { buffer = Netlist.Eb; init = [] })
        ~ins:1 ~sel:false ~outs:1
        ~states:(List.map occupancy [ -2; -1; 0; 1; 2 ]);
      case
        (Netlist.Buffer { buffer = Netlist.Eb0; init = [] })
        ~ins:1 ~sel:false ~outs:1
        ~states:(List.map occupancy [ 0; 1 ]) ]
  @ List.map
      (fun k ->
         (* Done flags from slot 0, pending anti-tokens from slot [k]. *)
         case (Netlist.Fork k) ~ins:1 ~sel:false ~outs:k
           ~states:
             [ start;
               slots (List.init (2 * k) (fun s -> Bool.to_int (s = 0)));
               slots (List.init (2 * k) (fun s -> Bool.to_int (s >= k)));
               slots
                 (List.init (2 * k) (fun s ->
                      if s = k + 1 then 2 else Bool.to_int (s = 0))) ])
      [ 2; 3; 4 ]
  @ List.map
      (fun ways ->
         case (Netlist.Mux { ways; early = true }) ~ins:ways ~sel:true ~outs:1
           ~states:
             [ start; slots (List.init ways (fun j -> j));
               slots (List.init ways (fun _ -> 1)) ])
      [ 2; 3 ]
  @ List.map (shared ~hinted:false)
      Elastic_sched.Scheduler.
        [ Static 0; Toggle; Sticky; Two_bit; Round_robin;
          Scripted [| 0; 1; 1 |];
          Noisy_oracle { sel = [| 0; 1 |]; accuracy_pct = 50; seed = 7 };
          External; Prefer 0; Gshare { history_bits = 2 } ]
  @ List.map (shared ~hinted:true)
      Elastic_sched.Scheduler.[ Hinted_replay; Toggle; Prefer 1 ]
  @ [ case
        (Netlist.Varlat { fast = id; slow = odd; err = odd })
        ~ins:1 ~sel:false ~outs:1
        ~states:
          [ start;
            (fun regs r vals v ->
               regs.(r) <- 0;
               vals.(v) <- Value.Int 5);
            (fun regs r vals v ->
               regs.(r) <- 1;
               vals.(v) <- Value.Int 5) ] ]

let test_edge_models () =
  let accepted = ref 0 and refused = ref 0 in
  List.iteri
    (fun index (kind, nins, sel, nouts, states) ->
       let ports = nins + Bool.to_int sel + nouts in
       let choices =
         None
         :: List.map Option.some
              (match kind with
               | Netlist.Source _ -> Instance.[ Offer true; Offer false ]
               | Netlist.Sink _ -> Instance.[ Stall true; Stall false ]
               | Netlist.Shared _ -> Instance.[ Predict 0; Predict 1 ]
               | _ -> [])
       in
       let copy init =
         let regs, vals, insts, nodes =
           same_nodes 2 kind ~ins:nins ~sel ~outs:nouts
         in
         Array.iter
           (fun inst ->
              init regs (Instance.reg_base inst) vals (Instance.val_base inst))
           insts;
         (regs, vals, insts, nodes)
       in
       let outcome f =
         match f () with
         | () -> true
         | exception (Assert_failure _ | Invalid_argument _) -> false
       in
       let differ (r1, v1) (r2, v2) =
         r1 <> r2 || not (Array.for_all2 Value.equal v1 v2)
       in
       let fail what state choice pp =
         Alcotest.failf "case %d (%s), state %d, choice %d, %t: %s" index
           (Netlist.kind_name kind) state choice pp what
       in
       List.iteri
         (fun state init ->
            List.iteri
              (fun ci choice ->
                 let regs, vals, _, nodes = copy init in
                 let mregs, mvals, minsts, _ = copy init in
                 let ms =
                   Array.map
                     (Edge_model.of_instance ~regs:mregs ~vals:mvals)
                     minsts
                 in
                 let ok =
                   outcome (fun () ->
                       Nodes.begin_cycle nodes ~choices:(fun _ -> choice))
                 and mok =
                   outcome (fun () ->
                       Array.iter (Edge_model.begin_cycle ~choice) ms)
                 in
                 let at_begin ppf = Fmt.string ppf "begin-cycle" in
                 if ok <> mok then fail "refusals differ" state ci at_begin;
                 if differ (regs, vals) (mregs, mvals) then
                   fail "states differ" state ci at_begin;
                 let r0 = Array.copy regs and v0 = Array.copy vals in
                 for p = 0 to ports - 1 do
                   for base = 0 to 15 do
                     for c = 0 to 15 do
                       let codes =
                         Array.init (2 * ports) (fun q ->
                             if q mod ports = p then c else base)
                       in
                       List.iter
                         (fun x ->
                            let has_data ch =
                              codes.(ch) land Signal.v_plus_bit <> 0
                            and payload _ = x in
                            Array.blit r0 0 regs 0 (Array.length r0);
                            Array.blit v0 0 vals 0 (Array.length v0);
                            Array.blit r0 0 mregs 0 (Array.length r0);
                            Array.blit v0 0 mvals 0 (Array.length v0);
                            let ok =
                              outcome (fun () ->
                                  Nodes.clock nodes ~codes ~has_data ~payload)
                            and mok =
                              outcome (fun () ->
                                  Array.iter
                                    (Edge_model.clock ~codes ~has_data
                                       ~payload)
                                    ms)
                            in
                            let at_edge ppf =
                              Fmt.pf ppf "codes %a, payload %a"
                                Fmt.(array ~sep:comma int) codes Value.pp x
                            in
                            if ok <> mok then
                              fail "refusals differ" state ci at_edge;
                            if ok then begin
                              incr accepted;
                              if differ (regs, vals) (mregs, mvals) then
                                fail "states differ" state ci at_edge
                            end
                            else incr refused)
                         [ Value.Int 0; Value.Int 1 ]
                     done
                   done
                 done)
              choices)
         states)
    model_cases;
  Alcotest.(check bool) "some pairs accepted" true (!accepted > 0);
  Alcotest.(check bool) "some pairs refused" true (!refused > 0)

let suite =
  [ Alcotest.test_case "pipeline delivers stream in order" `Quick
      (fun () ->
         let net, k = simple_pipeline [ 1; 2; 3; 4; 5 ] in
         let eng = run_net ~cycles:20 net in
         check_no_violations eng;
         Alcotest.(check (list value)) "initial token then stream"
           (ints [ 100; 1; 2; 3; 4; 5 ])
           (sink_values eng k));
    Alcotest.test_case "full throughput through an initialized EB" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e = eb b ~init:[ Value.Int 0 ] () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e, In 0) in
         let _ = conn b (e, Out 0) (k, In 0) in
         let eng = run_net ~cycles:100 b.net in
         check_no_violations eng;
         Alcotest.(check bool) "throughput 1" true
           (Engine.throughput eng k >= 0.99));
    Alcotest.test_case "bubbles add latency but not throughput loss"
      `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e1 = eb b () in
        let e2 = eb b () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (k, In 0) in
        let eng = run_net ~cycles:102 b.net in
        check_no_violations eng;
        (* Two cycles of fill latency, then one transfer per cycle. *)
        Alcotest.(check int) "transfers" 100
          (Transfer.length (Engine.sink_stream eng k)));
    Alcotest.test_case "backpressure halves throughput, keeps order"
      `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb b ~init:[ Value.Int (-1) ] () in
        let k = sink_pattern b [| true; false |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:100 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check (list value)) "in-order prefix"
          (ints (List.init (List.length got) (fun i -> i - 1)))
          got;
        Alcotest.(check bool) "about half" true
          (abs (List.length got - 50) <= 2));
    Alcotest.test_case "random source and sink lose no tokens" `Quick
      (fun () ->
        let b = builder () in
        let s = add b (Source (Random_rate { pct = 60; seed = 11 })) in
        let e1 = eb b () in
        let e2 = eb b () in
        let k = add b (Sink (Random_stall { pct = 40; seed = 23 })) in
        let _ = conn b (s, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (e2, In 0) in
        let _ = conn b (e2, Out 0) (k, In 0) in
        let eng = run_net ~cycles:500 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        (* Random_rate sources emit consecutive integers; order and
           completeness show through as 0,1,2,... *)
        Alcotest.(check (list value)) "no loss, no reorder"
          (ints (List.init (List.length got) (fun i -> i)))
          got);
    Alcotest.test_case "eb0 behaves as a capacity-1 pipeline stage" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb0 b ~init:[ Value.Int 42 ] () in
        let k = sink b () in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:50 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check value) "first is init" (Value.Int 42) (List.hd got);
        Alcotest.(check int) "full throughput" 50 (List.length got));
    Alcotest.test_case "eb0 stalls without losing the stored token" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb0 b () in
        let k = sink_pattern b [| true; true; false |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = run_net ~cycles:99 b.net in
        check_no_violations eng;
        let got = sink_values eng k in
        Alcotest.(check (list value)) "in order"
          (ints (List.init (List.length got) (fun i -> i)))
          got);
    Alcotest.test_case "function block computes on joined inputs" `Quick
      (fun () ->
        let b = builder () in
        let s0 = src_stream b [ 1; 2; 3 ] in
        let s1 = src_stream b [ 10; 20; 30 ] in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let k = sink b () in
        let _ = conn b (s0, Out 0) (f, In 0) in
        let _ = conn b (s1, Out 0) (f, In 1) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "sums" (ints [ 11; 22; 33 ])
          (sink_values eng k));
    Alcotest.test_case "join waits for the late input" `Quick (fun () ->
        let b = builder () in
        let s0 = src_stream b [ 1; 2; 3 ] in
        let s1 = add b (Source (Random_rate { pct = 30; seed = 5 })) in
        let f = add b (Func (Func.add_int ~arity:2 ())) in
        let k = sink b () in
        let _ = conn b (s0, Out 0) (f, In 0) in
        let _ = conn b (s1, Out 0) (f, In 1) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let eng = run_net ~cycles:60 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "sums with slow side"
          (ints [ 1; 3; 5 ])
          (sink_values eng k));
    Alcotest.test_case "eager fork feeds both sinks despite skew" `Quick
      (fun () ->
        let b = builder () in
        let s = src_stream b [ 1; 2; 3; 4 ] in
        let f = add b (Fork 2) in
        let k0 = sink b () in
        let k1 = sink_pattern b [| true; false |] in
        let _ = conn b (s, Out 0) (f, In 0) in
        let _ = conn b (f, Out 0) (k0, In 0) in
        let _ = conn b (f, Out 1) (k1, In 0) in
        let eng = run_net ~cycles:30 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "fast branch" (ints [ 1; 2; 3; 4 ])
          (sink_values eng k0);
        Alcotest.(check (list value)) "slow branch" (ints [ 1; 2; 3; 4 ])
          (sink_values eng k1));
    Alcotest.test_case "plain mux joins select and both inputs" `Quick
      (fun () ->
        let b = builder () in
        let sel = src_stream b [ 0; 1; 0; 1 ] in
        let s0 = src_stream b [ 10; 11; 12; 13 ] in
        let s1 = src_stream b [ 20; 21; 22; 23 ] in
        let m = add b (Mux { ways = 2; early = false }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "selected values"
          (ints [ 10; 21; 12; 23 ])
          (sink_values eng k));
    Alcotest.test_case "early mux kills the non-selected token" `Quick
      (fun () ->
        (* Each fire sends an anti-token into the other channel; the
           sources therefore advance in lockstep even though only one
           value is used. *)
        let b = builder () in
        let sel = src_stream b [ 0; 1; 0 ] in
        let s0 = src_stream b [ 10; 11; 12 ] in
        let s1 = src_stream b [ 20; 21; 22 ] in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "selected values"
          (ints [ 10; 21; 12 ])
          (sink_values eng k));
    Alcotest.test_case "early mux fires without the unneeded input" `Quick
      (fun () ->
        (* Channel 1 never produces data; selecting channel 0 must still
           transfer (early evaluation), and the anti-tokens accumulate
           towards the silent source. *)
        let b = builder () in
        let sel = src_stream b [ 0; 0; 0 ] in
        let s0 = src_stream b [ 10; 11; 12 ] in
        let s1 = add b (Source (Stream [])) in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "all of channel 0"
          (ints [ 10; 11; 12 ])
          (sink_values eng k));
    Alcotest.test_case "anti-token crosses an empty EB backwards" `Quick
      (fun () ->
        (* s1 feeds through an empty EB; when channel 0 is selected the
           anti-token must cross the EB and cancel s1's token. *)
        let b = builder () in
        let sel = src_stream b [ 0; 1 ] in
        let s0 = src_stream b [ 10; 11 ] in
        let s1 = src_stream b [ 20; 21 ] in
        let e1 = eb b () in
        let m = add b (Mux { ways = 2; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (e1, In 0) in
        let _ = conn b (e1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        let eng = run_net ~cycles:20 b.net in
        check_no_violations eng;
        Alcotest.(check (list value)) "10 then 21" (ints [ 10; 21 ])
          (sink_values eng k));
    Alcotest.test_case "stored tokens bounded by EB capacity" `Quick
      (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e = eb b () in
        let k = sink_pattern b [| true |] in
        let _ = conn b (s, Out 0) (e, In 0) in
        let _ = conn b (e, Out 0) (k, In 0) in
        let eng = Engine.create b.net in
        Engine.run eng 10;
        Alcotest.(check int) "capacity 2" 2 (Engine.stored_tokens eng);
        Alcotest.(check int) "nothing delivered to sink" 0
          (Transfer.length (Engine.sink_stream eng k)));
    Alcotest.test_case "state snapshot round-trips" `Quick (fun () ->
        let net, k = simple_pipeline [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let eng = Engine.create net in
        Engine.run eng 3;
        let snap = Engine.snapshot eng in
        Engine.run eng 4;
        Alcotest.(check bool) "state changed" false
          (Engine.same_future eng snap);
        Engine.restore eng snap;
        Alcotest.(check bool) "restored" true (Engine.same_future eng snap);
        ignore k);
    Alcotest.test_case "EB clock edge matches the shifting queue model"
      `Quick test_eb_edge;
    Alcotest.test_case "only the acting nodes are walked at begin and clock"
      `Quick test_acting_nodes;
    Alcotest.test_case "per-role begin and clock loops match the per-node models"
      `Quick test_edge_models ]

open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_check
open Elastic_fault
open Helpers

(* Controller zoo: small closed systems with fully nondeterministic
   environments, explored exhaustively (the paper's NuSMV step). *)

let nsrc b ?name vs = add b ?name (Source (Nondet vs))

let nsink b ?name () = add b ?name (Sink (Random_stall { pct = 50; seed = 1 }))

let explore_clean name net =
  let o = Explore.explore net in
  if not (Explore.clean o) then
    Alcotest.failf "%s: %a@.%a" name Explore.pp_outcome o
      Fmt.(list ~sep:(any "@.") string)
      (o.Explore.protocol_violations
       @ o.Explore.deadlock_states @ o.Explore.starving_channels);
  o

let pipeline_of mk_buffer =
  let b = builder () in
  let s = nsrc b [ Value.Int 0; Value.Int 1 ] in
  let e = mk_buffer b in
  let k = nsink b () in
  let _ = conn b (s, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (k, In 0) in
  b.net

(* The speculation loop of Fig. 4: two users share F, an early mux
   picks the result, and G alternates the select, so the module must
   serve both users in turn. *)
let speculation_loop sched =
  let b = builder () in
  let s0 = nsrc b ~name:"in0" [ Value.Int 0 ] in
  let s1 = nsrc b ~name:"in1" [ Value.Int 1 ] in
  let f = Func.make ~name:"F" ~arity:1 ~delay:1.0 ~area:1.0
      (function [ v ] -> v | _ -> assert false)
  in
  let sh = add b ~name:"sh" (Shared { ways = 2; f; sched; hinted = false }) in
  let m = add b (Mux { ways = 2; early = true }) in
  let e = eb b ~init:[ Value.Int 0 ] () in
  let fk = add b (Fork 2) in
  let g = add b
      (Func
         (Func.make ~name:"G" ~arity:1 ~delay:1.0 ~area:1.0 (function
            | [ v ] -> Value.Int (1 - Value.to_int v)
            | _ -> assert false)))
  in
  let k = nsink b () in
  let _ = conn b (s0, Out 0) (sh, In 0) in
  let _ = conn b (s1, Out 0) (sh, In 1) in
  let _ = conn b (sh, Out 0) (m, In 0) in
  let _ = conn b (sh, Out 1) (m, In 1) in
  let _ = conn b (m, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (fk, In 0) in
  let _ = conn b (fk, Out 0) (g, In 0) in
  let _ = conn b (g, Out 0) (m, Sel) in
  let _ = conn b (fk, Out 1) (k, In 0) in
  b.net

let eb_chain () =
  let b = builder () in
  let s = nsrc b [ Value.Int 7 ] in
  let e1 = eb b ~init:[ Value.Int 3 ] () in
  let e2 = eb0 b () in
  let e3 = eb b () in
  let k = nsink b () in
  let _ = conn b (s, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (e2, In 0) in
  let _ = conn b (e2, Out 0) (e3, In 0) in
  let _ = conn b (e3, Out 0) (k, In 0) in
  b.net

let diamond () =
  let b = builder () in
  let s = nsrc b [ Value.Int 1; Value.Int 2 ] in
  let f = add b (Fork 2) in
  let e1 = eb b () in
  let e2 = eb b () in
  let j = add b (Func (Func.add_int ~arity:2 ())) in
  let k = nsink b () in
  let _ = conn b (s, Out 0) (f, In 0) in
  let _ = conn b (f, Out 0) (e1, In 0) in
  let _ = conn b (f, Out 1) (e2, In 0) in
  let _ = conn b (e1, Out 0) (j, In 0) in
  let _ = conn b (e2, Out 0) (j, In 1) in
  let _ = conn b (j, Out 0) (k, In 0) in
  b.net

let early_mux () =
  let b = builder () in
  let sel = nsrc b ~name:"sel" [ Value.Int 0; Value.Int 1 ] in
  let s0 = nsrc b ~name:"d0" [ Value.Int 10 ] in
  let s1 = nsrc b ~name:"d1" [ Value.Int 20 ] in
  let e0 = eb b () in
  let m = add b (Mux { ways = 2; early = true }) in
  let k = nsink b () in
  let _ = conn b (sel, Out 0) (m, Sel) in
  let _ = conn b (s0, Out 0) (e0, In 0) in
  let _ = conn b (e0, Out 0) (m, In 0) in
  let _ = conn b (s1, Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (k, In 0) in
  b.net

let join_cycle () =
  let b = builder () in
  let sa = nsrc b [ Value.Int 1 ] in
  let sb = nsrc b [ Value.Int 2 ] in
  let j1 = add b (Func (Func.add_int ~arity:2 ())) in
  let j2 = add b (Func (Func.add_int ~arity:2 ())) in
  let e12 = eb b () in
  let e21 = eb b () in
  let _ = conn b (sa, Out 0) (j1, In 0) in
  let _ = conn b (e21, Out 0) (j1, In 1) in
  let _ = conn b (j1, Out 0) (e12, In 0) in
  let _ = conn b (sb, Out 0) (j2, In 0) in
  let _ = conn b (e12, Out 0) (j2, In 1) in
  let _ = conn b (j2, Out 0) (e21, In 0) in
  b.net

(* Miniature of the Sec. 5 replay template: the hint stream drives a
   hinted shared module; fast path channel 0, slow path channel 1
   through an EB; select comes from the hint via an EB.  Data cycles
   0/1 so the state stays finite; err(v) = v. *)
let hinted_replay () =
  let b = builder () in
  let s = nsrc b [ Value.Int 0; Value.Int 1 ] in
  let fork = add b (Fork 3) in
  let idf = Func.identity ~delay:1.0 ~area:1.0 () in
  let ffast = add b ~name:"fast" (Func idf) in
  let fslow = add b ~name:"slow" (Func idf) in
  let ferr = add b ~name:"errf" (Func idf) in
  let err_fork = add b (Fork 2) in
  let ebx = eb b ~name:"EBx" () in
  let ebe = eb b ~name:"EBe" () in
  let sh =
    add b
      (Shared
         { ways = 2; f = idf; sched = Scheduler.Hinted_replay;
           hinted = true })
  in
  let eb0r = eb0 b ~name:"EB0r" () in
  let eb1r = eb0 b ~name:"EB1r" () in
  let m = add b (Mux { ways = 2; early = true }) in
  let k = nsink b () in
  let _ = conn b (s, Out 0) (fork, In 0) in
  let _ = conn b (fork, Out 0) (ffast, In 0) in
  let _ = conn b (fork, Out 1) (fslow, In 0) in
  let _ = conn b (fork, Out 2) (ferr, In 0) in
  let _ = conn b (ffast, Out 0) (sh, In 0) in
  let _ = conn b (fslow, Out 0) (ebx, In 0) in
  let _ = conn b (ebx, Out 0) (sh, In 1) in
  let _ = conn b (ferr, Out 0) (err_fork, In 0) in
  let _ = conn b (err_fork, Out 0) (ebe, In 0) in
  let _ = conn b (ebe, Out 0) (m, Sel) in
  let _ = conn b (err_fork, Out 1) (sh, Sel) in
  let _ = conn b (sh, Out 0) (eb0r, In 0) in
  let _ = conn b (eb0r, Out 0) (m, In 0) in
  let _ = conn b (sh, Out 1) (eb1r, In 0) in
  let _ = conn b (eb1r, Out 0) (m, In 1) in
  let _ = conn b (m, Out 0) (k, In 0) in
  b.net

(* A lazy join behind a shared-module output, which may withdraw its
   stalled token when the prediction moves. *)
let withdrawing_join () =
  let b = builder () in
  let s0 = nsrc b ~name:"in0" [ Value.Int 0 ] in
  let s1 = nsrc b ~name:"in1" [ Value.Int 1 ] in
  let f = Func.identity ~delay:1.0 ~area:1.0 () in
  let sh =
    add b ~name:"sh"
      (Shared { ways = 2; f; sched = Scheduler.External; hinted = false })
  in
  let f0 = add b ~name:"f0" (Func f) in
  let k0 = nsink b ~name:"k0" () in
  let k1 = nsink b ~name:"k1" () in
  let _ = conn b (s0, Out 0) (sh, In 0) in
  let _ = conn b (s1, Out 0) (sh, In 1) in
  let _ = conn b (sh, Out 0) (f0, In 0) in
  let _ = conn b (f0, Out 0) (k0, In 0) in
  let _ = conn b (sh, Out 1) (k1, In 0) in
  b.net

(* ------------------------------------------------------------------ *)
(* [Engine.same_future] as a bisimulation.  An engine walks its
   reachable states breadth-first, keeping one representative per
   [same_future] class: unmonitored, as Explore runs it, and monitored
   with a short watchdog bound, so that liveness and starvation reports
   fall inside the explored depth.  Every other
   reached state the relation puts in a class is checked against the
   representative: equal fingerprints, and under every environment
   choice the same control codes, sink deliveries and new reports, and
   successors related again.  The state table is searched linearly,
   not by fingerprint, so the fingerprint check is not implied by the
   lookup. *)

module Engine = Elastic_sim.Engine

(* What one step shows an observer of the engine, history aside. *)
type seen = {
  codes : int list;
  delivered : Value.t list list;
  reports : (string * string * string) list;
  starved : string list;
}

let step_seen eng channels sinks combo =
  let c0 = Engine.cycle eng in
  let before =
    List.map (fun k -> Transfer.length (Engine.sink_stream eng k)) sinks
  in
  let starved0 = List.length (Engine.starvation_violations eng) in
  Engine.step ~choices:(fun id -> List.assoc_opt id combo) eng;
  let starved =
    List.filteri (fun i _ -> i >= starved0) (Engine.starvation_violations eng)
    |> List.map (fun m ->
        (* Drop the "cycle N: " stamp, which is history. *)
        match String.index_opt m ':' with
        | Some i -> String.sub m i (String.length m - i)
        | None -> m)
  in
  { codes = List.map (fun (c : Netlist.channel) -> Engine.code eng c.ch_id)
        channels;
    delivered =
      List.map2
        (fun k n ->
           Array.to_list
             (Array.map
                (fun (e : Transfer.entry) -> e.Transfer.value)
                (Transfer.suffix (Engine.sink_stream eng k) n)))
        sinks before;
    reports =
      List.filter_map
        (fun (ch, (v : Protocol.violation)) ->
           if v.Protocol.cycle = c0 then
             Some (ch, v.Protocol.property, v.Protocol.message)
           else None)
        (Engine.violations eng);
    starved }

type rep = {
  r_snap : Engine.snap;
  r_fp : int;
  mutable r_next : (seen * Engine.snap) array option;
      (* per choice combination, once expanded *)
}

(* [(pairs checked, representatives)]; fails on the first breach. *)
let bisimulation ?(max_states = 120) ~monitor name net =
  let eng = Engine.create ~monitor ~liveness_bound:3 net in
  let channels = Netlist.channels net in
  let sinks =
    List.filter_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with Sink _ -> Some n.Netlist.id | _ -> None)
      (Netlist.nodes net)
  in
  let combos =
    Array.of_list
      (List.fold_right
         (fun (n : Netlist.node) acc ->
            List.concat_map
              (fun c -> List.map (fun rest -> (n.Netlist.id, c) :: rest) acc)
              (Elastic_sim.Instance.choices n.Netlist.kind))
         (Engine.nondet_nodes eng) [ [] ])
  in
  let reps = ref [] and n_reps = ref 0 in
  let pairs = ref [] in
  let queue = Queue.create () in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  (* The representative related to the engine's current state, if any,
     with which the state makes a pair to check. *)
  let related () =
    let fp = Engine.fingerprint eng in
    match List.find_opt (fun r -> Engine.same_future eng r.r_snap) !reps with
    | Some r ->
      if fp <> r.r_fp then
        fail "related states with fingerprints %d and %d" r.r_fp fp;
      pairs := (r, Engine.snapshot eng) :: !pairs;
      true
    | None -> false
  in
  (* Else the state becomes a representative. *)
  let classify () =
    if not (related ()) then begin
      let r =
        { r_snap = Engine.snapshot eng; r_fp = Engine.fingerprint eng;
          r_next = None }
      in
      reps := r :: !reps;
      incr n_reps;
      if !n_reps <= max_states then Queue.push r queue
    end
  in
  (* A payload flipped on channel [c] by a fault during one step from
     [r]: the fault cut-off compares such states with golden ones.  They
     are checked when related to a representative, and not explored. *)
  let flip r (c : Netlist.channel) =
    Engine.restore eng r.r_snap;
    let cycle = Engine.cycle eng in
    Engine.set_faults eng
      (Some (Fault.plan net [ Fault.flip_bit ~channel:c.ch_id ~cycle 0 ]));
    (match Engine.step ~choices:(fun id -> List.assoc_opt id combos.(0)) eng with
     | () -> ignore (related ())
     | exception Engine.Simulation_error _ -> ());
    Engine.set_faults eng None
  in
  classify ();
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    r.r_next <-
      Some
        (Array.map
           (fun combo ->
              Engine.restore eng r.r_snap;
              let seen = step_seen eng channels sinks combo in
              let snap = Engine.snapshot eng in
              classify ();
              (seen, snap))
           combos);
    if monitor then List.iter (flip r) channels
  done;
  let checked = ref 0 in
  List.iter
    (fun (r, snap) ->
       match r.r_next with
       | None -> ()
       | Some next ->
         incr checked;
         Array.iteri
           (fun i combo ->
              Engine.restore eng snap;
              let seen = step_seen eng channels sinks combo in
              let r_seen, r_snap = next.(i) in
              if seen.codes <> r_seen.codes then
                fail "related states step to different control codes";
              if not (List.equal (List.equal Value.equal) seen.delivered
                        r_seen.delivered)
              then fail "related states deliver different tokens";
              if seen.reports <> r_seen.reports then
                fail "related states report different violations";
              if seen.starved <> r_seen.starved then
                fail "related states report different starvation";
              if not (Engine.same_future eng r_snap) then
                fail "successors of related states are not related")
           combos)
    !pairs;
  (!checked, !n_reps)

let suite =
  [ Alcotest.test_case "EB(Lf=1,Lb=1,C=2) is protocol clean and live"
      `Quick (fun () ->
        let o = explore_clean "eb" (pipeline_of (fun b -> eb b ())) in
        Alcotest.(check bool) "nontrivial state space" true
          (o.Explore.explored > 4));
    Alcotest.test_case "EB0(Lf=1,Lb=0,C=1) is protocol clean and live"
      `Quick (fun () ->
        ignore (explore_clean "eb0" (pipeline_of (fun b -> eb0 b ()))));
    Alcotest.test_case "EB chain with initial token verified" `Quick
      (fun () -> ignore (explore_clean "chain" (eb_chain ())));
    Alcotest.test_case "fork/join diamond verified" `Quick (fun () ->
        ignore (explore_clean "diamond" (diamond ())));
    Alcotest.test_case "early mux with anti-token counterflow verified"
      `Quick (fun () ->
        let o = explore_clean "early-mux" (early_mux ()) in
        Alcotest.(check bool) "explores both selections" true
          (o.Explore.explored > 8));
    Alcotest.test_case "zero-token join cycle is reported as deadlock"
      `Quick (fun () ->
        let o = Explore.explore (join_cycle ()) in
        Alcotest.(check bool) "deadlock found" true
          (o.Explore.deadlock_states <> []
           || o.Explore.starving_channels <> []);
        if o.Explore.deadlock_states <> [] then
          Alcotest.(check bool) "counterexample rendered" true
            (o.Explore.counterexample <> []));
    Alcotest.test_case "hinted replay stage verified exhaustively" `Quick
      (fun () -> ignore (explore_clean "hinted-replay" (hinted_replay ())));
    Alcotest.test_case
      "speculation loop: progress always reachable for some scheduler"
      `Quick (fun () ->
        (* External scheduler = universal quantification over prediction
           sequences; cleanliness shows no reachable state is stuck for
           every scheduler, i.e. a leads-to-compliant scheduler can always
           proceed (the paper's refinement argument). *)
        ignore
          (explore_clean "speculation-loop"
             (speculation_loop Scheduler.External)));
    Alcotest.test_case
      "same loop with a static scheduler starves (leads-to violated)"
      `Quick (fun () ->
        let net = speculation_loop (Scheduler.Static 0) in
        (* The never-predicted user starves, and the loop behind it. *)
        Alcotest.(check bool) "starving channel found" true
          (List.mem "in1.out0->sh.in1"
             (Explore.explore net).Explore.starving_channels);
        (* The leads-to watchdog is an online check like the monitors:
           [~monitor:false] turns both off.  Explore, which runs an
           unmonitored engine, finds the starvation by graph search. *)
        let starvation monitor =
          let eng = Elastic_sim.Engine.create ~monitor net in
          Elastic_sim.Engine.run eng 200;
          Elastic_sim.Engine.starvation_violations eng
        in
        Alcotest.(check bool) "monitored engine reports starvation" true
          (starvation true <> []);
        Alcotest.(check (list string)) "unmonitored engine reports none" []
          (starvation false));
    Alcotest.test_case "Explore judges Retry+ by the monitor's rule" `Quick
      (fun () ->
        (* A lazy join behind a shared-module output inherits the
           output's §4.2 licence to withdraw a stalled token, but its own
           output is bound by Retry+.  Explore and the monitor apply one
           rule ([Protocol.retry]), so they name the same breach. *)
        let net = withdrawing_join () in
        let node name = (Option.get (Netlist.find_node net name)).Netlist.id in
        let sh = node "sh" and k0 = node "k0" and k1 = node "k1" in
        let explored =
          List.sort_uniq compare
            (Explore.explore net).Explore.protocol_violations
        in
        (* The same breach in simulation: offer, stall k0 under
           prediction 0, then predict 1. *)
        let eng = Elastic_sim.Engine.create net in
        List.iter
          (fun (way, stall) ->
             Elastic_sim.Engine.step eng ~choices:(fun id ->
                 if id = sh then Some (Elastic_sim.Instance.Predict way)
                 else if id = k0 || id = k1 then
                   Some (Elastic_sim.Instance.Stall stall)
                 else Some (Elastic_sim.Instance.Offer true)))
          [ (0, true); (1, true) ];
        let monitored =
          List.map
            (fun (ch, (v : Protocol.violation)) ->
               Fmt.str "%s: %s on %s" v.Protocol.property v.Protocol.message
                 ch)
            (Elastic_sim.Engine.violations eng)
        in
        Alcotest.(check (list string)) "Explore's breaches"
          [ "retry+: token withdrawn during retry on f0.out0->k0.in0" ]
          explored;
        Alcotest.(check (list string)) "the monitor's breaches" explored
          monitored);
    Alcotest.test_case "Explore compares retried payloads by the monitor's rule"
      `Quick (fun () ->
        (* A datapath stage that computes a fresh payload on every
           evaluation, unlike any node of the library, changes the
           data of a stalled token: the [Held] half of Retry+. *)
        let b = builder () in
        let s = nsrc b ~name:"s" [ Value.Int 0 ] in
        let evals = ref 0 in
        let fresh =
          Func.make ~name:"fresh" ~arity:1 ~delay:1.0 ~area:1.0 (fun _ ->
              incr evals;
              Value.Int !evals)
        in
        let f = add b ~name:"f" (Func fresh) in
        let k = nsink b ~name:"k" () in
        let _ = conn b (s, Out 0) (f, In 0) in
        let _ = conn b (f, Out 0) (k, In 0) in
        let o = Explore.explore b.net in
        let breach = "retry+: data changed during retry: " in
        Alcotest.(check bool) "breaches found" true
          (o.Explore.protocol_violations <> []);
        List.iter
          (fun v ->
             Alcotest.(check bool) v true
               (String.starts_with ~prefix:breach v
                && String.ends_with ~suffix:" on f.out0->k.in0" v))
          o.Explore.protocol_violations);
    Alcotest.test_case "sticky scheduler loop verified clean" `Quick
      (fun () ->
        ignore
          (explore_clean "sticky-loop" (speculation_loop Scheduler.Sticky)));
    Alcotest.test_case "state cap marks the outcome incomplete" `Quick
      (fun () ->
        let net = pipeline_of (fun b -> eb b ()) in
        let o = Explore.explore ~max_states:3 net in
        Alcotest.(check bool) "incomplete" false o.Explore.complete;
        (* Incomplete exploration draws no liveness conclusions. *)
        Alcotest.(check (list string)) "no deadlock claims" []
          o.Explore.deadlock_states);
    Alcotest.test_case "choice explosion is rejected with a clear error"
      `Quick (fun () ->
        let b = builder () in
        let rec add_pipes n =
          if n > 0 then begin
            let s = nsrc b [ Value.Int n ] in
            let k = nsink b () in
            let _ = conn b (s, Out 0) (k, In 0) in
            add_pipes (n - 1)
          end
        in
        add_pipes 4;
        (* 4 sources x 4 sinks = 2^8 combinations > 64. *)
        Alcotest.(check bool) "raises" true
          (try
             ignore (Explore.explore b.net);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "same_future is a bisimulation on every explored design"
      `Quick (fun () ->
        (* The designs explored above, which include the E3 shapes
           (bench/main.ml's zoo: the EB and EB0 pipes, the early mux
           and the shared module with External and Sticky schedulers)
           under the same builders, and the shared module with the
           schedulers whose registers go beyond a prediction.  Two
           designs above stay out: the payload-changing stage is not a
           function of the state, and the choice explosion is what
           Explore refuses. *)
        let designs =
          [ ("eb pipe", pipeline_of (fun b -> eb b ()));
            ("eb0 pipe", pipeline_of (fun b -> eb0 b ()));
            ("eb chain", eb_chain ());
            ("diamond", diamond ());
            ("early mux", early_mux ());
            ("join cycle", join_cycle ());
            ("hinted replay", hinted_replay ());
            ("shared external", speculation_loop Scheduler.External);
            ("shared sticky", speculation_loop Scheduler.Sticky);
            ("shared static", speculation_loop (Scheduler.Static 0));
            ("withdrawing join", withdrawing_join ());
            ("shared toggle", speculation_loop Scheduler.Toggle);
            ("shared two-bit", speculation_loop Scheduler.Two_bit);
            ("shared gshare",
             speculation_loop (Scheduler.Gshare { history_bits = 2 })) ]
        in
        let pairs =
          List.fold_left
            (fun acc (name, net) ->
               acc
               + fst (bisimulation ~monitor:false name net)
               + fst (bisimulation ~monitor:true name net))
            0 designs
        in
        Alcotest.(check bool) "related pairs checked" true (pairs > 0));
    Alcotest.test_case
      "exploration is deterministic and evaluation-mode independent"
      `Quick (fun () ->
        let mk = early_mux in
        let fingerprint (o : Explore.outcome) =
          (o.Explore.explored, o.Explore.transitions, o.Explore.complete,
           o.Explore.protocol_violations, o.Explore.deadlock_states,
           o.Explore.starving_channels)
        in
        let a = fingerprint (Explore.explore (mk ())) in
        let b' = fingerprint (Explore.explore (mk ())) in
        if a <> b' then Alcotest.fail "two runs differ";
        let r =
          fingerprint
            (Explore.explore ~mode:Elastic_sim.Engine.Reference (mk ()))
        in
        if a <> r then
          Alcotest.fail "arena and reference exploration differ") ]

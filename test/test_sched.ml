open Elastic_sched

(* One clock edge, described per way: the scheduler reads the predicted
   way's V+ and S+ and the served way (-1 for none); no hint. *)
let observe ?(out_valid = [| false; false |]) ?(out_stop = [| false; false |])
    ?(served = -1) s =
  let p = Scheduler.predict s in
  let at a = p < Array.length a && a.(p) in
  Scheduler.observe s ~valid:(at out_valid) ~stop:(at out_stop) ~served
    ~hint:0

(* Drive a scheduler through a cycle list; each entry is [`Serve g] (the
   predicted channel's token went through) or [`Retry] (the predicted
   output stalled: misprediction). *)
let drive sched outcomes =
  List.map
    (fun outcome ->
       let g = Scheduler.predict sched in
       (match outcome with
        | `Serve ->
          let out_valid = Array.make 2 false in
          out_valid.(g) <- true;
          observe ~out_valid ~served:g sched
        | `Retry ->
          let out_valid = Array.make 2 false in
          out_valid.(g) <- true;
          let out_stop = Array.make 2 false in
          out_stop.(g) <- true;
          observe ~out_valid ~out_stop sched
        | `Idle -> observe sched);
       g)
    outcomes

(* --- a scheduler's state in an engine ------------------------------ *)

module Engine = Elastic_sim.Engine
module Instance = Elastic_sim.Instance

(* Two users share a module, an early mux always selects way 0 and the
   sink never stalls.  With every choice fixed (sources offer, an
   [External] scheduler predicts 0) the run is deterministic and its
   state space finite, so the run comes back to earlier states, with
   more tokens served. *)
let shared_engine sched =
  let open Elastic_netlist.Netlist in
  let add kind name (net, ids) =
    let net, id = add_node ~name net kind in
    (net, (name, id) :: ids)
  in
  let nondet v = Source (Nondet [ Elastic_kernel.Value.Int v ]) in
  let f = Elastic_netlist.Func.identity ~delay:1.0 ~area:1.0 () in
  let net, ids =
    (empty, [])
    |> add (nondet 0) "in0" |> add (nondet 1) "in1" |> add (nondet 0) "sel"
    |> add (Shared { ways = 2; f; sched; hinted = false }) "sh"
    |> add (Mux { ways = 2; early = true }) "mux"
    |> add (Sink Always_ready) "snk"
  in
  let id name = List.assoc name ids in
  let net =
    List.fold_left
      (fun net (a, p, b, q) -> fst (connect net (id a, p) (id b, q)))
      net
      [ ("in0", Out 0, "sh", In 0); ("in1", Out 0, "sh", In 1);
        ("sh", Out 0, "mux", In 0); ("sh", Out 1, "mux", In 1);
        ("sel", Out 0, "mux", Sel); ("mux", Out 0, "snk", In 0) ]
  in
  let eng = Engine.create net in
  (eng, List.assoc (id "sh") (Engine.schedulers eng))

(* One cycle with every choice fixed. *)
let fixed eng =
  let net = Engine.netlist eng in
  Engine.step eng ~choices:(fun id ->
      match
        Instance.choices (Elastic_netlist.Netlist.node net id).Elastic_netlist.Netlist.kind
      with
      | Instance.Predict _ :: _ -> Some (Instance.Predict 0)
      | _ -> Some (Instance.Offer true))

let every_spec =
  Scheduler.
    [ Static 0; Toggle; Sticky; Two_bit; Round_robin; Scripted [| 0; 1 |];
      Noisy_oracle { sel = [| 0 |]; accuracy_pct = 70; seed = 5 }; External;
      Prefer 0; Hinted_replay; Gshare { history_bits = 2 } ]

(* [same_future] must tell apart a state whose scheduler differs in one
   key register: [tweak] changes it through the scheduler's own
   operations and puts the prediction back. *)
let differs_in_key spec tweak =
  let eng, s = shared_engine spec in
  for _ = 1 to 20 do fixed eng done;
  let snap = Engine.snapshot eng in
  let pred = Scheduler.predict s in
  tweak s;
  Scheduler.force s pred;
  Alcotest.(check bool)
    (Scheduler.spec_name spec ^ ": one key register apart")
    false (Engine.same_future eng snap)

let serve s =
  let g = Scheduler.predict s in
  let out_valid = Array.make 2 false in
  out_valid.(g) <- true;
  observe ~out_valid ~served:g s

let test_engine_state () =
  List.iter
    (fun spec ->
       let name = Scheduler.spec_name spec in
       let eng, s = shared_engine spec in
       (* restore (snapshot e) round-trips, statistics included. *)
       for _ = 1 to 15 do fixed eng done;
       let snap = Engine.snapshot eng in
       let at_snap s =
         (Scheduler.predict s, Scheduler.serves s, Scheduler.mispredictions s)
       in
       let before = at_snap s in
       let run () =
         List.init 15 (fun _ ->
             fixed eng;
             (Engine.code eng 0, at_snap s))
       in
       let first = run () in
       Engine.restore eng snap;
       Alcotest.(check bool) (name ^ ": restored") true
         (Engine.same_future eng snap);
       Alcotest.(check (triple int int int)) (name ^ ": statistics") before
         (at_snap s);
       if run () <> first then Alcotest.failf "%s: replay differs" name;
       (* Two states of the run apart only in counts (served tokens,
          mispredictions, the cycle count and the channel counters) have
          one future. *)
       let seen = ref [] and found = ref false in
       for _ = 1 to 60 do
         fixed eng;
         if
           List.exists
             (fun (snap, served) ->
                served <> Scheduler.serves s && Engine.same_future eng snap)
             !seen
         then found := true;
         seen := (Engine.snapshot eng, Scheduler.serves s) :: !seen
       done;
       Alcotest.(check bool) (name ^ ": counts ignored") true !found)
    every_spec;
  (* The toggle position: one idle cycle moves it, and the prediction
     is put back. *)
  differs_in_key Scheduler.Toggle (fun s -> observe s);
  (* The oracle's random state: two serves bring its script index back
     round a two-entry script, after two fresh rolls. *)
  differs_in_key
    (Scheduler.Noisy_oracle { sel = [| 0; 0 |]; accuracy_pct = 70; seed = 5 })
    (fun s -> serve s; serve s);
  (* A gshare counter: a retry trains the current history's counter
     toward the other way and leaves the history, and an idle cycle
     ends the retry. *)
  differs_in_key (Scheduler.Gshare { history_bits = 2 }) (fun s ->
      let out_valid = Array.make 2 false in
      out_valid.(Scheduler.predict s) <- true;
      observe ~out_valid ~out_stop:out_valid s;
      observe s)

let suite =
  [ Alcotest.test_case "static always predicts its channel" `Quick
      (fun () ->
         let s = Scheduler.make ~ways:2 (Scheduler.Static 1) in
         let preds = drive s [ `Serve; `Retry; `Idle; `Serve ] in
         Alcotest.(check (list int)) "all ones" [ 1; 1; 1; 1 ] preds);
    Alcotest.test_case "static validates range" `Quick (fun () ->
        Alcotest.check_raises "bad channel"
          (Invalid_argument "Scheduler.make: Static 3 with 2 ways")
          (fun () -> ignore (Scheduler.make ~ways:2 (Scheduler.Static 3))));
    Alcotest.test_case "toggle alternates every cycle" `Quick (fun () ->
        let s = Scheduler.make ~ways:2 Scheduler.Toggle in
        let preds = drive s [ `Serve; `Serve; `Serve; `Serve; `Serve ] in
        Alcotest.(check (list int)) "alternation" [ 0; 1; 0; 1; 0 ] preds);
    Alcotest.test_case "sticky switches only on retry" `Quick (fun () ->
        let s = Scheduler.make ~ways:2 Scheduler.Sticky in
        let preds = drive s [ `Serve; `Serve; `Retry; `Serve; `Serve ] in
        Alcotest.(check (list int)) "switch after retry" [ 0; 0; 0; 1; 1 ]
          preds;
        Alcotest.(check int) "one misprediction" 1
          (Scheduler.mispredictions s));
    Alcotest.test_case "round robin advances on serve" `Quick (fun () ->
        let s = Scheduler.make ~ways:2 Scheduler.Round_robin in
        let preds = drive s [ `Serve; `Serve; `Idle; `Serve ] in
        Alcotest.(check (list int)) "rotation" [ 0; 1; 0; 0 ] preds);
    Alcotest.test_case "two-bit needs hysteresis to flip" `Quick (fun () ->
        let s = Scheduler.make ~ways:2 Scheduler.Two_bit in
        (* Initial counter = 1 -> predicts 0.  A single retry moves the
           counter to 2 -> predicts 1. *)
        let p1 = drive s [ `Retry ] in
        Alcotest.(check (list int)) "starts at 0" [ 0 ] p1;
        Alcotest.(check int) "now 1" 1 (Scheduler.predict s);
        (* Two serves of channel 1 saturate; one retry is then not enough
           to flip back. *)
        let _ = drive s [ `Serve; `Serve; `Retry ] in
        Alcotest.(check int) "still predicts 1" 1 (Scheduler.predict s));
    Alcotest.test_case "two-bit rejects wrong ways" `Quick (fun () ->
        Alcotest.check_raises "3 ways"
          (Invalid_argument "Scheduler.make: Two_bit requires exactly 2 ways")
          (fun () -> ignore (Scheduler.make ~ways:3 Scheduler.Two_bit)));
    Alcotest.test_case "scripted follows the script by cycle" `Quick
      (fun () ->
         let s =
           Scheduler.make ~ways:2 (Scheduler.Scripted [| 0; 1; 1; 0 |])
         in
         let preds = drive s [ `Serve; `Serve; `Serve; `Serve; `Serve ] in
         Alcotest.(check (list int)) "script then wrap" [ 0; 1; 1; 0; 0 ]
           preds);
    Alcotest.test_case "perfect oracle never mispredicts" `Quick (fun () ->
        let sel = [| 0; 1; 1; 0; 1; 0; 0; 1 |] in
        let s =
          Scheduler.make ~ways:2
            (Scheduler.Noisy_oracle { sel; accuracy_pct = 100; seed = 42 })
        in
        let preds =
          drive s (List.init (Array.length sel) (fun _ -> `Serve))
        in
        Alcotest.(check (list int)) "follows truth" (Array.to_list sel)
          preds;
        Alcotest.(check int) "no misses" 0 (Scheduler.mispredictions s));
    Alcotest.test_case "oracle corrects after detected miss" `Quick
      (fun () ->
         let sel = [| 1; 1; 1; 1 |] in
         let s =
           Scheduler.make ~ways:2
             (Scheduler.Noisy_oracle { sel; accuracy_pct = 0; seed = 7 })
         in
         (* accuracy 0: always initially wrong, so predicts 0; after the
            retry it corrects to the true channel. *)
         Alcotest.(check int) "initially wrong" 0 (Scheduler.predict s);
         let _ = drive s [ `Retry ] in
         Alcotest.(check int) "corrected" 1 (Scheduler.predict s));
    Alcotest.test_case "external obeys force" `Quick (fun () ->
        let s = Scheduler.make ~ways:2 Scheduler.External in
        Scheduler.force s 1;
        Alcotest.(check int) "forced" 1 (Scheduler.predict s);
        let _ = drive s [ `Serve ] in
        Alcotest.(check int) "sticks" 1 (Scheduler.predict s));
    Alcotest.test_case "gshare learns a periodic pattern" `Quick
      (fun () ->
        let s = Scheduler.make ~ways:2 (Scheduler.Gshare { history_bits = 4 }) in
        (* Feed the repeating outcome 1 1 0 via serves: after training,
           the prediction should follow the pattern without misses. *)
        let pattern = [ 1; 1; 0 ] in
        for _ = 1 to 30 do
          List.iter
            (fun o ->
               let out_valid = Array.make 2 false in
               out_valid.(o) <- true;
               observe ~out_valid ~served:o s)
            pattern
        done;
        (* Now check the next 9 predictions against the pattern. *)
        let correct = ref 0 in
        for i = 0 to 8 do
          let o = List.nth pattern (i mod 3) in
          if Scheduler.predict s = o then incr correct;
          let out_valid = Array.make 2 false in
          out_valid.(o) <- true;
          observe ~out_valid ~served:o s
        done;
        Alcotest.(check bool)
          (Fmt.str "%d/9 correct" !correct)
          true (!correct >= 8));
    Alcotest.test_case "gshare keeps pressing during a retry (leads-to)"
      `Quick (fun () ->
        let s = Scheduler.make ~ways:2 (Scheduler.Gshare { history_bits = 2 }) in
        (* Saturate toward 0, then hold a misprediction: the prediction
           must flip within a bounded number of retry cycles. *)
        for _ = 1 to 8 do
          let out_valid = [| true; false |] in
          observe ~out_valid ~served:0 s
        done;
        Alcotest.(check int) "predicts 0" 0 (Scheduler.predict s);
        let flipped = ref false in
        for _ = 1 to 6 do
          if Scheduler.predict s = 1 then flipped := true
          else begin
            let out_valid = Array.make 2 false in
            out_valid.(Scheduler.predict s) <- true;
            let out_stop = Array.make 2 false in
            out_stop.(Scheduler.predict s) <- true;
            observe ~out_valid ~out_stop s
          end
        done;
        Alcotest.(check bool) "flipped under pressure" true !flipped);
    Alcotest.test_case "gshare validates parameters" `Quick (fun () ->
        Alcotest.(check bool) "3 ways rejected" true
          (try
             ignore
               (Scheduler.make ~ways:3 (Scheduler.Gshare { history_bits = 2 }));
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "history 0 rejected" true
          (try
             ignore
               (Scheduler.make ~ways:2 (Scheduler.Gshare { history_bits = 0 }));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "misprediction stat counts events, not cycles"
      `Quick (fun () ->
        let s = Scheduler.make ~ways:2 (Scheduler.Static 0) in
        (* Three consecutive retry cycles of the same stuck token are one
           mistake. *)
        for _ = 1 to 3 do
          observe ~out_valid:[| true; false |] ~out_stop:[| true; false |] s
        done;
        Alcotest.(check int) "one miss" 1 (Scheduler.mispredictions s));
    Alcotest.test_case "state round-trips" `Quick test_engine_state ]

open Elastic_kernel

let value = Alcotest.testable Value.pp Value.equal

let check_value = Alcotest.check value

let value_suite =
  let open Value in
  [ Alcotest.test_case "equal distinguishes constructors" `Quick (fun () ->
        Alcotest.(check bool) "int/word" false (equal (Int 1) (Word 1L));
        Alcotest.(check bool) "same" true (equal (Int 3) (Int 3));
        Alcotest.(check bool) "tuple" true
          (equal (Tuple [ Int 1; Bool true ]) (Tuple [ Int 1; Bool true ]));
        Alcotest.(check bool) "tuple len" false
          (equal (Tuple [ Int 1 ]) (Tuple [ Int 1; Int 2 ])));
    Alcotest.test_case "compare is a total order" `Quick (fun () ->
        let vs =
          [ Unit; Bool false; Bool true; Int (-1); Int 5; Word 3L;
            Str "a"; Tuple [ Int 1 ] ]
        in
        List.iter
          (fun a ->
             List.iter
               (fun b ->
                  let c1 = compare a b and c2 = compare b a in
                  Alcotest.(check int) "antisym" (Stdlib.compare c1 0)
                    (Stdlib.compare 0 c2))
               vs)
          vs);
    Alcotest.test_case "projections" `Quick (fun () ->
        Alcotest.(check int) "to_int" 7 (to_int (Int 7));
        Alcotest.(check int) "bool to_int" 1 (to_int (Bool true));
        Alcotest.(check int64) "to_word widen" 9L (to_word (Int 9));
        Alcotest.(check bool) "to_bool int" true (to_bool (Int 2));
        check_value "tuple_nth" (Int 2) (tuple_nth (Tuple [ Int 1; Int 2 ]) 1));
    Alcotest.test_case "projection failures raise" `Quick (fun () ->
        Alcotest.check_raises "to_int of word"
          (Invalid_argument "Value.to_int: 0x5") (fun () ->
            ignore (to_int (Word 5L)));
        Alcotest.check_raises "tuple_nth range"
          (Invalid_argument "Value.tuple_nth 3: (1)") (fun () ->
            ignore (tuple_nth (Tuple [ Int 1 ]) 3))) ]

let mk ?(vp = false) ?(sp = false) ?(vm = false) ?(sm = false) ?d () =
  { Signal.v_plus = vp; s_plus = sp; v_minus = vm; s_minus = sm; data = d }

let signal_suite =
  [ Alcotest.test_case "handshake states" `Quick (fun () ->
        let st = Signal.handshake_state in
        Alcotest.(check string) "transfer" "T"
          (Fmt.str "%a" Signal.pp_handshake_state
             (st ~valid:true ~stop:false));
        Alcotest.(check string) "idle" "I"
          (Fmt.str "%a" Signal.pp_handshake_state
             (st ~valid:false ~stop:true));
        Alcotest.(check string) "retry" "R"
          (Fmt.str "%a" Signal.pp_handshake_state (st ~valid:true ~stop:true)));
    Alcotest.test_case "plain transfer" `Quick (fun () ->
        let e = Signal.events (mk ~vp:true ~d:(Value.Int 1) ()) in
        Alcotest.(check bool) "token_out" true e.Signal.token_out;
        Alcotest.(check bool) "token_in" true e.Signal.token_in;
        Alcotest.(check bool) "no cancel" false e.Signal.cancelled);
    Alcotest.test_case "stalled token stays" `Quick (fun () ->
        let e = Signal.events (mk ~vp:true ~sp:true ~d:(Value.Int 1) ()) in
        Alcotest.(check bool) "token_out" false e.Signal.token_out;
        Alcotest.(check bool) "token_in" false e.Signal.token_in);
    Alcotest.test_case "anti-token transfer" `Quick (fun () ->
        let e = Signal.events (mk ~vm:true ()) in
        Alcotest.(check bool) "anti_out" true e.Signal.anti_out;
        Alcotest.(check bool) "anti_in" true e.Signal.anti_in);
    Alcotest.test_case "stalled anti-token stays" `Quick (fun () ->
        let e = Signal.events (mk ~vm:true ~sm:true ()) in
        Alcotest.(check bool) "anti_out" false e.Signal.anti_out;
        Alcotest.(check bool) "anti_in" false e.Signal.anti_in);
    Alcotest.test_case "cancellation annihilates both" `Quick (fun () ->
        (* Token and anti-token meet: both leave, neither arrives, stops
           are overridden (the paper's Invariant). *)
        let e =
          Signal.events
            (mk ~vp:true ~sp:true ~vm:true ~sm:true ~d:(Value.Int 1) ())
        in
        Alcotest.(check bool) "cancelled" true e.Signal.cancelled;
        Alcotest.(check bool) "token_out" true e.Signal.token_out;
        Alcotest.(check bool) "token_in" false e.Signal.token_in;
        Alcotest.(check bool) "anti_out" true e.Signal.anti_out;
        Alcotest.(check bool) "anti_in" false e.Signal.anti_in);
    Alcotest.test_case "event semantics, exhaustively over all drives"
      `Quick (fun () ->
        (* For each of the 16 control combinations, the boundary events
           obey: a delivered token left its sender; a delivered anti-token
           left its receiver; cancellation consumes both and delivers
           neither. *)
        List.iter
          (fun (vp, sp, vm, sm) ->
             let d = if vp then Some (Value.Int 0) else None in
             let e =
               Signal.events
                 { Signal.v_plus = vp; s_plus = sp; v_minus = vm;
                   s_minus = sm; data = d }
             in
             if e.Signal.token_in && not e.Signal.token_out then
               Alcotest.fail "token_in without token_out";
             if e.Signal.anti_in && not e.Signal.anti_out then
               Alcotest.fail "anti_in without anti_out";
             if e.Signal.cancelled then begin
               if not (e.Signal.token_out && e.Signal.anti_out) then
                 Alcotest.fail "cancellation must consume both";
               if e.Signal.token_in || e.Signal.anti_in then
                 Alcotest.fail "cancellation must deliver neither"
             end;
             if e.Signal.token_out && not vp then
               Alcotest.fail "token_out without a token";
             if e.Signal.anti_out && not vm then
               Alcotest.fail "anti_out without an anti-token";
             if vp && vm && not e.Signal.cancelled then
               Alcotest.fail "meeting pair must cancel")
          (List.concat_map
             (fun vp ->
                List.concat_map
                  (fun sp ->
                     List.concat_map
                       (fun vm ->
                          List.map (fun sm -> (vp, sp, vm, sm))
                            [ false; true ])
                       [ false; true ])
                  [ false; true ])
             [ false; true ]));
    Alcotest.test_case "resolve forces stops low on cancellation" `Quick
      (fun () ->
         let s = Signal.resolve (mk ~vp:true ~sp:true ~vm:true ~sm:true ()) in
         Alcotest.(check bool) "s_plus" false s.Signal.s_plus;
         Alcotest.(check bool) "s_minus" false s.Signal.s_minus);
    Alcotest.test_case "packed codes agree with records, exhaustively"
      `Quick (fun () ->
        let signal = Alcotest.testable Signal.pp Signal.equal in
        for c = 0 to 15 do
          List.iter
            (fun data ->
               let s = Signal.of_code c ~data in
               let what = Fmt.str "code %d, data %b" c (data <> None) in
               Alcotest.(check int) (what ^ ": code (of_code c) = c") c
                 (Signal.code s);
               Alcotest.check signal (what ^ ": of_code (code s) = s") s
                 (Signal.of_code (Signal.code s) ~data:s.Signal.data);
               Alcotest.(check bool)
                 (what ^ ": events_of_code (code s) = events s") true
                 (Signal.events_of_code (Signal.code s) = Signal.events s);
               let e = Signal.events s and m = Signal.event_mask c in
               Alcotest.(check (list bool))
                 (what ^ ": event_mask c has the bits of events s")
                 [ e.Signal.token_out; e.Signal.token_in; e.Signal.anti_out;
                   e.Signal.cancelled; e.Signal.retry; e.Signal.anti ]
                 (List.map (fun b -> m land b <> 0)
                    Signal.[ ev_token_out; ev_token_in; ev_anti_out;
                             ev_cancelled; ev_retry; ev_anti ]);
               Alcotest.check signal
                 (what ^ ": of_code (resolve_code c) = resolve s")
                 (Signal.resolve s)
                 (Signal.of_code (Signal.resolve_code c) ~data))
            [ None; Some (Value.Int 7) ]
        done;
        let w0 = Gc.minor_words () in
        for c = 0 to 15_999 do
          ignore (Sys.opaque_identity (Signal.events_of_code (c land 15)))
        done;
        let w1 = Gc.minor_words () in
        (* Only the float the first reading returns. *)
        if w1 -. w0 > 8. then
          Alcotest.failf "events_of_code allocated %.0f words" (w1 -. w0)) ]

let transfer_suite =
  [ Alcotest.test_case "record and compare" `Quick (fun () ->
        let a =
          Transfer.record
            (Transfer.record Transfer.empty ~cycle:0 (Value.Int 1))
            ~cycle:3 (Value.Int 2)
        in
        let b =
          Transfer.record
            (Transfer.record Transfer.empty ~cycle:7 (Value.Int 1))
            ~cycle:9 (Value.Int 2)
        in
        Alcotest.(check bool) "transfer equivalent despite cycles" true
          (Transfer.equivalent a b);
        Alcotest.(check int) "length" 2 (Transfer.length a));
    Alcotest.test_case "inequivalent on reorder" `Quick (fun () ->
        let mk vs =
          List.fold_left
            (fun acc (c, v) -> Transfer.record acc ~cycle:c v)
            Transfer.empty vs
        in
        let a = mk [ (0, Value.Int 1); (1, Value.Int 2) ] in
        let b = mk [ (0, Value.Int 2); (1, Value.Int 1) ] in
        Alcotest.(check bool) "not equivalent" false
          (Transfer.equivalent a b));
    Alcotest.test_case "prefix equivalence" `Quick (fun () ->
        let mk vs =
          List.fold_left
            (fun acc v -> Transfer.record acc ~cycle:0 (Value.Int v))
            Transfer.empty vs
        in
        Alcotest.(check bool) "prefix" true
          (Transfer.prefix_equivalent (mk [ 1; 2 ]) (mk [ 1; 2; 3 ]));
        Alcotest.(check bool) "longer first" true
          (Transfer.prefix_equivalent (mk [ 1; 2; 3 ]) (mk [ 1; 2 ]));
        Alcotest.(check bool) "mismatch" false
          (Transfer.prefix_equivalent (mk [ 1; 9 ]) (mk [ 1; 2; 3 ]))) ]

(* One monitor in slot form: its int slot and, when Retry+ is checked,
   its payload slot, fed one cycle per step. *)
let run_monitor ?(check_forward_persistence = true) ?(liveness_bound = 64)
    steps =
  let regs = [| Protocol.fresh |] and vals = [| Value.Unit |] in
  let vslot = if check_forward_persistence then 0 else -1 in
  List.concat
    (List.mapi
       (fun cycle s ->
          Protocol.step ~regs ~slot:0 ~vals ~vslot ~liveness_bound ~cycle
            ~has_data:(fun _ -> Option.is_some s.Signal.data)
            ~payload:(fun _ -> Option.get s.Signal.data)
            ~chan:0 (Signal.code s))
       steps)

(* [Protocol.fast_step], or [Protocol.step] where it declines, against
   [Protocol.step] alone, from every monitor word: a previous code or
   none, a payload held or not (on a channel Retry+ covers), and a stall
   count well short of the bound or one or two cycles from it; over
   every raw code and a payload equal to the held one, another, or
   none.  The word is built in the layout of protocol.ml: the previous
   resolved code in bits 0-3, "no previous" 16, "payload held" 32, the
   stall count from bit 6. *)
let test_fast_step () =
  let bound = 5 and held = Value.Int 1 and other = Value.Int 2 in
  let fast = ref 0 in
  let pp_v ppf (v : Protocol.violation) =
    Fmt.pf ppf "%d %s %s" v.Protocol.cycle v.Protocol.property
      v.Protocol.message
  in
  let run ~fast_first ~persistent w slot_val ~data raw =
    let regs = [| w |] and vals = [| slot_val |] in
    let vslot = if persistent then 0 else -1 in
    let w' =
      if fast_first then
        Protocol.fast_step ~persistent ~liveness_bound:bound ~word:w raw
      else Protocol.needs_step
    in
    let found =
      if w' <> Protocol.needs_step then begin
        incr fast;
        regs.(0) <- w';
        []
      end
      else
        Protocol.step ~regs ~slot:0 ~vals ~vslot ~liveness_bound:bound
          ~cycle:7
          ~has_data:(fun _ -> Option.is_some data)
          ~payload:(fun _ -> Option.get data)
          ~chan:0 raw
    in
    (regs.(0), vals.(0), List.map (Fmt.str "%a" pp_v) found)
  in
  List.iter
    (fun persistent ->
       List.iter
         (fun prev ->
            List.iter
              (fun has_held ->
                 List.iter
                   (fun stalls ->
                      for raw = 0 to 15 do
                        List.iter
                          (fun data ->
                             let w =
                               prev lor (if has_held then 32 else 0)
                               lor (stalls lsl 6)
                             in
                             let slot_val =
                               if has_held then held else Value.Unit
                             in
                             let name =
                               Fmt.str "persistent %b word %d raw %d data %a"
                                 persistent w raw
                                 Fmt.(option ~none:(any "_") Value.pp)
                                 data
                             in
                             let w1, v1, f1 =
                               run ~fast_first:true ~persistent w slot_val
                                 ~data raw
                             and w2, v2, f2 =
                               run ~fast_first:false ~persistent w slot_val
                                 ~data raw
                             in
                             Alcotest.(check int) (name ^ ": word") w2 w1;
                             check_value (name ^ ": payload slot") v2 v1;
                             Alcotest.(check (list string))
                               (name ^ ": violations") f2 f1)
                          [ Some held; Some other; None ]
                      done)
                   [ 0; bound - 2; bound - 1 ])
              (if persistent then [ false; true ] else [ false ]))
         (Protocol.fresh :: List.init 16 Fun.id))
    [ false; true ];
  Alcotest.(check bool) "the fast path is taken" true (!fast > 0)

let protocol_suite =
  [ Alcotest.test_case "clean retry sequence passes" `Quick (fun () ->
        let d = Value.Int 1 in
        let vs =
          run_monitor
            [ mk ~vp:true ~sp:true ~d ();
              mk ~vp:true ~sp:true ~d ();
              mk ~vp:true ~d () ]
        in
        Alcotest.(check int) "no violations" 0 (List.length vs));
    Alcotest.test_case "withdrawn token flagged" `Quick (fun () ->
        let vs =
          run_monitor [ mk ~vp:true ~sp:true ~d:(Value.Int 1) (); mk () ]
        in
        Alcotest.(check (list (pair string string))) "retry+ violation"
          [ ("retry+", "token withdrawn during retry") ]
          (List.map (fun v -> (v.Protocol.property, v.Protocol.message)) vs));
    Alcotest.test_case "changed data during retry flagged" `Quick (fun () ->
        let vs =
          run_monitor
            [ mk ~vp:true ~sp:true ~d:(Value.Int 1) ();
              mk ~vp:true ~sp:true ~d:(Value.Int 2) () ]
        in
        Alcotest.(check (list (pair string string))) "retry+ violation"
          [ ("retry+", "data changed during retry: 1 -> 2") ]
          (List.map (fun v -> (v.Protocol.property, v.Protocol.message)) vs));
    Alcotest.test_case "no payload then unit during retry flagged" `Quick
      (fun () ->
        let vs =
          run_monitor
            [ mk ~vp:true ~sp:true (); (* a forged V+: no payload *)
              mk ~vp:true ~sp:true ~d:Value.Unit () ]
        in
        Alcotest.(check (list (pair string string))) "retry+ violation"
          [ ("retry+", "data changed during retry: _ -> ()") ]
          (List.map (fun v -> (v.Protocol.property, v.Protocol.message)) vs));
    Alcotest.test_case "non-persistent channels exempt" `Quick (fun () ->
        let vs =
          run_monitor ~check_forward_persistence:false
            [ mk ~vp:true ~sp:true ~d:(Value.Int 1) (); mk () ]
        in
        Alcotest.(check int) "no violations" 0 (List.length vs));
    Alcotest.test_case "withdrawn anti-token flagged" `Quick (fun () ->
        let vs = run_monitor [ mk ~vm:true ~sm:true (); mk () ] in
        Alcotest.(check bool) "retry- violation" true
          (List.exists (fun v -> v.Protocol.property = "retry-") vs));
    Alcotest.test_case "kill-and-stop invariant flagged" `Quick (fun () ->
        let vs = run_monitor [ mk ~vm:true ~sp:true () ] in
        Alcotest.(check bool) "invariant violation" true
          (List.exists (fun v -> v.Protocol.property = "invariant") vs));
    Alcotest.test_case "liveness watchdog fires" `Quick (fun () ->
        let stalled = mk ~vp:true ~sp:true ~d:(Value.Int 1) () in
        let vs =
          run_monitor ~liveness_bound:5 (List.init 6 (fun _ -> stalled))
        in
        Alcotest.(check bool) "liveness violation" true
          (List.exists (fun v -> v.Protocol.property = "liveness") vs));
    Alcotest.test_case "watchdog resets on transfer" `Quick (fun () ->
        let stalled = mk ~vp:true ~sp:true ~d:(Value.Int 1) () in
        let moving = mk ~vp:true ~d:(Value.Int 1) () in
        let steps =
          List.concat
            [ List.init 4 (fun _ -> stalled); [ moving ];
              List.init 4 (fun _ -> stalled) ]
        in
        let vs = run_monitor ~liveness_bound:5 steps in
        Alcotest.(check int) "no violations" 0 (List.length vs));
    Alcotest.test_case "fast step equals the full step, exhaustively" `Quick
      test_fast_step ]

open Elastic_kernel
open Elastic_netlist
open Helpers

(* The per-node channel index against linear scans of [Netlist.channels]
   (the definitions of [channel_at], [incoming], [outgoing],
   [remove_node]'s attachment check and [diagnostics] before the index
   existed), after every edit of a random edit sequence. *)
module Index_oracle = struct
  open Netlist

  type edit =
    | Add of int
    | Connect of (int * port) * (int * port)
    | Unsafe of (int * port) * (int * port)
    | Set_src of int * (int * port)
    | Set_dst of int * (int * port)
    | Remove_channel of int
    | Remove_node of int

  (* Node ids range over [0, max_node], so edits also name nodes not yet
     added or already removed; channel ids likewise.  A sequence starts
     by adding [first_nodes] nodes. *)
  let max_node = 7

  let first_nodes = 5

  let max_channel = 11

  let inputs = [ Sel; In 0; In 1; In 2 ]

  let outputs = [ Out 0; Out 1; Out 2 ]

  let ports = inputs @ outputs

  let kinds =
    [| Source (Counter { start = 0; step = 1 }); Sink Always_ready;
       Buffer { buffer = Eb; init = [] }; Func (Func.identity ());
       Fork 2; Mux { ways = 2; early = true } |]

  let pp_end ppf (n, p) = Fmt.pf ppf "%d.%a" n pp_port p

  let pp_edit ppf = function
    | Add k -> Fmt.pf ppf "add %s" (kind_name kinds.(k))
    | Connect (a, b) -> Fmt.pf ppf "connect %a %a" pp_end a pp_end b
    | Unsafe (a, b) -> Fmt.pf ppf "unsafe_connect %a %a" pp_end a pp_end b
    | Set_src (c, e) -> Fmt.pf ppf "set_src %d %a" c pp_end e
    | Set_dst (c, e) -> Fmt.pf ppf "set_dst %d %a" c pp_end e
    | Remove_channel c -> Fmt.pf ppf "remove_channel %d" c
    | Remove_node n -> Fmt.pf ppf "remove_node %d" n

  (* [connect], [set_src] and [set_dst] get ports of the right
     direction, so that most of them go through; [unsafe_connect] gets
     any port. *)
  let gen_edits =
    let open QCheck.Gen in
    let node = int_bound max_node and chan = int_bound max_channel in
    let add = map (fun k -> Add k) (int_bound (Array.length kinds - 1)) in
    let endp ps = pair node (oneofl ps) in
    let edit =
      frequency
        [ (2, add);
          (4, map2 (fun a b -> Connect (a, b)) (endp outputs) (endp inputs));
          (2, map2 (fun a b -> Unsafe (a, b)) (endp ports) (endp ports));
          (2, map2 (fun c e -> Set_src (c, e)) chan (endp outputs));
          (2, map2 (fun c e -> Set_dst (c, e)) chan (endp inputs));
          (2, map (fun c -> Remove_channel c) chan);
          (3, map (fun n -> Remove_node n) node) ]
    in
    map2 ( @ ) (list_repeat first_nodes add) (list_size (int_range 1 50) edit)

  let arb =
    QCheck.make ~print:(Fmt.str "%a" (Fmt.list ~sep:Fmt.semi pp_edit))
      gen_edits

  let ref_channel_at net id port =
    List.find_opt
      (fun c ->
         (c.src.ep_node = id && port_equal c.src.ep_port port)
         || (c.dst.ep_node = id && port_equal c.dst.ep_port port))
      (channels net)

  let ref_attached net id =
    List.filter
      (fun c -> c.src.ep_node = id || c.dst.ep_node = id)
      (channels net)

  let exists net id = List.exists (fun n -> n.id = id) (nodes net)

  let ref_diagnostics net =
    let problems = ref [] in
    let add p = problems := p :: !problems in
    List.iter
      (fun n ->
         let check_port ~as_output port =
           let uses =
             List.filter
               (fun c ->
                  if as_output then
                    c.src.ep_node = n.id && port_equal c.src.ep_port port
                  else c.dst.ep_node = n.id && port_equal c.dst.ep_port port)
               (channels net)
           in
           match uses with
           | [ _ ] -> ()
           | [] ->
             add
               (Diagnostic.make ~code:"E001" ~rule:"unconnected-port"
                  ~severity:Diagnostic.Error ~node:n.id ~node_name:n.name
                  (Fmt.str "node %s (%s): %s port %a is unconnected" n.name
                     (kind_name n.kind)
                     (if as_output then "output" else "input")
                     pp_port port))
           | _ :: c :: _ ->
             add
               (Diagnostic.make ~code:"E002" ~rule:"multi-connected-port"
                  ~severity:Diagnostic.Error ~node:n.id ~node_name:n.name
                  ~channel:c.ch_id ~channel_name:c.ch_name
                  (Fmt.str "node %s: port %a connected more than once"
                     n.name pp_port port))
         in
         List.iter (check_port ~as_output:false) (required_inputs n.kind);
         List.iter (check_port ~as_output:true) (required_outputs n.kind))
      (nodes net);
    List.iter
      (fun c ->
         let dangling which nid =
           if not (exists net nid) then
             add
               (Diagnostic.make ~code:"E003" ~rule:"dangling-endpoint"
                  ~severity:Diagnostic.Error ~channel:c.ch_id
                  ~channel_name:c.ch_name
                  (Fmt.str "channel %s: dangling %s node" c.ch_name which))
         in
         dangling "source" c.src.ep_node;
         dangling "destination" c.dst.ep_node;
         if c.width < 1 then
           add
             (Diagnostic.make ~code:"E004" ~rule:"bad-width"
                ~severity:Diagnostic.Error ~channel:c.ch_id
                ~channel_name:c.ch_name
                (Fmt.str "channel %s: width %d < 1" c.ch_name c.width)))
      (channels net);
    List.rev !problems

  let ids l = List.map (fun c -> c.ch_id) l

  let check_state net =
    for id = 0 to max_node do
      List.iter
        (fun p ->
           let got = Option.map (fun c -> c.ch_id) (channel_at net id p) in
           let want = Option.map (fun c -> c.ch_id) (ref_channel_at net id p) in
           if got <> want then
             QCheck.Test.fail_reportf "channel_at %a" pp_end (id, p))
        ports;
      if ids (incoming net id)
         <> ids (List.filter (fun c -> c.dst.ep_node = id) (channels net))
      then QCheck.Test.fail_reportf "incoming %d" id;
      if ids (outgoing net id)
         <> ids (List.filter (fun c -> c.src.ep_node = id) (channels net))
      then QCheck.Test.fail_reportf "outgoing %d" id
    done;
    if diagnostics net <> ref_diagnostics net then
      QCheck.Test.fail_report "diagnostics"

  (* [remove_node] must refuse exactly when the node is missing or a
     channel is still attached, naming the first attached channel. *)
  let remove_node_checked net n =
    let result =
      try Ok (remove_node net n) with Invalid_argument m -> Error m
    in
    match result, ref_attached net n with
    | Ok net', [] when exists net n -> net'
    | Error _, _ when not (exists net n) -> net
    | Error m, c :: _
      when String.equal m
          (Fmt.str "Netlist.remove_node: %s still attached to channel %s"
             (node net n).name c.ch_name) -> net
    | Ok _, _ | Error _, _ ->
      QCheck.Test.fail_reportf "remove_node %d: %s" n
        (match result with Ok _ -> "removed" | Error m -> m)

  let apply net edit =
    let tolerant f = try f () with Invalid_argument _ -> net in
    match edit with
    | Add k -> fst (add_node net kinds.(k))
    | Connect (a, b) -> tolerant (fun () -> fst (connect net a b))
    | Unsafe (a, b) -> fst (unsafe_connect net a b)
    | Set_src (c, e) -> tolerant (fun () -> set_src net c e)
    | Set_dst (c, e) -> tolerant (fun () -> set_dst net c e)
    | Remove_channel c -> tolerant (fun () -> remove_channel net c)
    | Remove_node n -> remove_node_checked net n

  let test =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"qcheck: the per-node channel index agrees with list scans"
         ~count:500 arb (fun edits ->
           ignore
             (List.fold_left
                (fun net e ->
                   let net = apply net e in
                   check_state net;
                   net)
                empty edits
              : t);
           true))
end

(* Default node and channel names are built by concatenation; they read
   byte for byte as the [Fmt] forms below, for every node kind and every
   port kind, with multi-digit ids and port indices. *)
let test_default_names () =
  let open Netlist in
  let fmt_port = function
    | Sel -> "sel"
    | In i -> Fmt.str "in%d" i
    | Out i -> Fmt.str "out%d" i
  in
  let fmt_kind = function
    | Source _ -> "source"
    | Sink _ -> "sink"
    | Buffer { buffer; init } ->
      Fmt.str "%s[%d]" (buffer_kind_name buffer) (List.length init)
    | Func f -> f.Func.name
    | Fork n -> Fmt.str "fork%d" n
    | Mux { ways; early } -> Fmt.str "%smux%d" (if early then "e" else "") ways
    | Shared { ways; f; sched; hinted } ->
      Fmt.str "shared%d%s(%s,%s)" ways
        (if hinted then "h" else "")
        f.Func.name
        (Elastic_sched.Scheduler.spec_name sched)
    | Varlat { fast; slow; _ } ->
      Fmt.str "varlat(%s|%s)" fast.Func.name slow.Func.name
  in
  let f = Func.inc ~step:1 () and g = Func.identity () in
  let kinds =
    [ Source (Counter { start = 0; step = 1 }); Sink Always_ready;
      Buffer { buffer = Eb; init = [] };
      Buffer { buffer = Eb0; init = ints (List.init 12 Fun.id) };
      Func f; Fork 3; Fork 12; Mux { ways = 2; early = false };
      Mux { ways = 11; early = true };
      Shared { ways = 2; f; sched = Elastic_sched.Scheduler.Static 0;
               hinted = false };
      Shared { ways = 3; f; sched = Elastic_sched.Scheduler.Round_robin;
               hinted = true };
      Varlat { fast = f; slow = g; err = f } ]
  in
  let b = builder () in
  let ids = List.map (fun k -> add b k) kinds in
  List.iter2
    (fun k id ->
       Alcotest.(check string) "kind_name" (fmt_kind k) (kind_name k);
       Alcotest.(check string) "node name"
         (Fmt.str "%s_%d" (fmt_kind k) id)
         (node b.net id).name)
    kinds ids;
  let id k = List.nth ids k in
  let ep (n, p) =
    match node b.net n with
    | nd -> Fmt.str "%s.%s" nd.name (fmt_port p)
    | exception Invalid_argument _ -> Fmt.str "n%d.%s" n (fmt_port p)
  in
  let check_channel ~unsafe e1 e2 =
    let net, c =
      if unsafe then unsafe_connect b.net e1 e2 else connect b.net e1 e2
    in
    b.net <- net;
    Alcotest.(check string) "channel name"
      (Fmt.str "%s->%s" (ep e1) (ep e2))
      (channel b.net c).ch_name
  in
  check_channel ~unsafe:false (id 6, Out 11) (id 8, In 10);
  check_channel ~unsafe:false (id 0, Out 0) (id 8, Sel);
  check_channel ~unsafe:true (id 5, Out 2) (99, In 12);
  check_channel ~unsafe:true (100, Sel) (id 1, In 0)

let suite =
  [ Alcotest.test_case "connect rejects occupied ports" `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let k1 = sink b () in
        let k2 = sink b () in
        let _ = conn b (s, Out 0) (k1, In 0) in
        Alcotest.(check bool) "raises" true
          (try
             let _ = conn b (s, Out 0) (k2, In 0) in
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "connect rejects wrong directions" `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let k = sink b () in
        Alcotest.(check bool) "in as src" true
          (try
             let _ = conn b (k, In 0) (s, Out 0) in
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "validate reports unconnected ports" `Quick
      (fun () ->
         let b = builder () in
         let _ = src_counter b () in
         let problems = Netlist.validate b.net in
         Alcotest.(check bool) "has problem" true (problems <> []));
    Alcotest.test_case "validate passes a complete pipeline" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e = eb b ~init:[ Value.Int 0 ] () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e, In 0) in
         let _ = conn b (e, Out 0) (k, In 0) in
         Alcotest.(check (list string)) "clean" [] (Netlist.validate b.net));
    Alcotest.test_case "mux requires select" `Quick (fun () ->
        let b = builder () in
        let s0 = src_counter b () in
        let s1 = src_counter b () in
        let m = add b (Mux { ways = 2; early = false }) in
        let k = sink b () in
        let _ = conn b (s0, Out 0) (m, In 0) in
        let _ = conn b (s1, Out 0) (m, In 1) in
        let _ = conn b (m, Out 0) (k, In 0) in
        Alcotest.(check bool) "sel missing reported" true
          (List.exists (fun p -> contains p "sel") (Netlist.validate b.net)));
    Alcotest.test_case "set_dst moves a channel" `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let k1 = sink b () in
        let k2 = sink b () in
        let c = conn b (s, Out 0) (k1, In 0) in
        b.net <- Netlist.set_dst b.net c (k2, In 0);
        let ch = Netlist.channel b.net c in
        Alcotest.(check int) "re-pointed" k2 ch.dst.ep_node;
        (* k1 now dangles; validation must notice. *)
        Alcotest.(check bool) "k1 unconnected" true
          (Netlist.validate b.net <> []));
    Alcotest.test_case "remove_node refuses while attached" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let k = sink b () in
         let c = conn b (s, Out 0) (k, In 0) in
         Alcotest.(check bool) "refuses" true
           (try
              b.net <- Netlist.remove_node b.net s;
              false
            with Invalid_argument _ -> true);
         b.net <- Netlist.remove_channel b.net c;
         b.net <- Netlist.remove_node b.net s;
         Alcotest.(check int) "one node left" 1 (Netlist.node_count b.net));
    Alcotest.test_case "area: eb0 wider than eb control but fewer bits"
      `Quick (fun () ->
        let b = builder () in
        let s = src_counter b () in
        let e1 = eb b () in
        let k = sink b () in
        let _ = conn b ~width:32 (s, Out 0) (e1, In 0) in
        let _ = conn b ~width:32 (e1, Out 0) (k, In 0) in
        let a_eb = Area.total b.net in
        let b2 = builder () in
        let s2 = src_counter b2 () in
        let e2 = eb0 b2 () in
        let k2 = sink b2 () in
        let _ = conn b2 ~width:32 (s2, Out 0) (e2, In 0) in
        let _ = conn b2 ~width:32 (e2, Out 0) (k2, In 0) in
        let a_eb0 = Area.total b2.net in
        Alcotest.(check bool) "both positive" true
          (a_eb > 0.0 && a_eb0 > 0.0));
    Alcotest.test_case "timing: deeper logic means longer cycle" `Quick
      (fun () ->
        let pipeline depth =
          let b = builder () in
          let s = src_counter b () in
          let e1 = eb b ~init:[ Value.Int 0 ] () in
          let _ = conn b (s, Out 0) (e1, In 0) in
          let last =
            List.fold_left
              (fun prev i ->
                 let f =
                   add b
                     (Func
                        (Func.make ~name:(Fmt.str "f%d" i) ~arity:1
                           ~delay:5.0 ~area:10.0 (fun vs -> List.hd vs)))
                 in
                 let _ = conn b (prev, Out 0) (f, In 0) in
                 f)
              e1
              (List.init depth (fun i -> i))
          in
          let k = sink b () in
          let _ = conn b (last, Out 0) (k, In 0) in
          Timing.cycle_time b.net
        in
        Alcotest.(check bool) "monotone" true (pipeline 3 > pipeline 1));
    Alcotest.test_case "timing: eb0 chains lengthen backward path" `Quick
      (fun () ->
        let chain mk =
          let b = builder () in
          let s = src_counter b () in
          let n1 = mk b in
          let n2 = mk b in
          let k = sink b () in
          let _ = conn b (s, Out 0) (n1, In 0) in
          let _ = conn b (n1, Out 0) (n2, In 0) in
          let _ = conn b (n2, Out 0) (k, In 0) in
          match Timing.analyze b.net with
          | Ok r -> r.Timing.backward_delay
          | Error e -> Alcotest.fail e
        in
        let bwd_eb = chain (fun b -> eb b ()) in
        let bwd_eb0 = chain (fun b -> eb0 b ()) in
        Alcotest.(check bool) "eb0 backward chain longer" true
          (bwd_eb0 > bwd_eb));
    Alcotest.test_case "dot export mentions every node" `Quick (fun () ->
        let b = builder () in
        let s = src_counter b ~name:"my_source" () in
        let k = sink b ~name:"my_sink" () in
        let _ = conn b (s, Out 0) (k, In 0) in
        let dot = Dot.to_string b.net in
        Alcotest.(check bool) "source" true (contains dot "my_source");
        Alcotest.(check bool) "sink" true (contains dot "my_sink"));
    Index_oracle.test;
    Alcotest.test_case "default node and channel names" `Quick
      test_default_names;
    Alcotest.test_case "find_node returns the lowest-id match" `Quick
      (fun () ->
        let b = builder () in
        let _ = sink b ~name:"other" () in
        let first = sink b ~name:"dup" () in
        let _ = src_counter b ~name:"dup" () in
        Alcotest.(check (option int)) "lowest id" (Some first)
          (Option.map
             (fun n -> n.Netlist.id)
             (Netlist.find_node b.net "dup")));
    Alcotest.test_case "timing: sparse channel ids read as dense ones" `Quick
      (fun () ->
        (* A chain of fork/join diamonds with no buffer doubles its
           forward paths at each diamond: only a walk memoised on every
           channel reads it in linear time, whatever ids the channels
           carry. *)
        let diamonds ~removed =
          let b = builder () in
          let s = src_counter b () in
          let k = sink b () in
          for _ = 1 to removed do
            b.net <- Netlist.remove_channel b.net (conn b (s, Out 0) (k, In 0))
          done;
          let last =
            List.fold_left
              (fun prev _ ->
                 let f = add b (Fork 2) in
                 let j = add b (Func (Func.add_int ~arity:2 ())) in
                 let _ = conn b (prev, Out 0) (f, In 0) in
                 let _ = conn b (f, Out 0) (j, In 0) in
                 let _ = conn b (f, Out 1) (j, In 1) in
                 j)
              s (List.init 24 Fun.id)
          in
          let _ = conn b (last, Out 0) (k, In 0) in
          Timing.cycle_time b.net
        in
        Alcotest.(check (float 1e-9)) "cycle time"
          (diamonds ~removed:0) (diamonds ~removed:200)) ]

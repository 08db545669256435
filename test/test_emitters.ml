open Elastic_netlist
open Elastic_core
open Helpers

(* Structural checks on the export backends: the generated text is meant
   for external tools (synthesis, NuSMV), so the tests verify shape —
   every node instantiated, every channel declared, balanced blocks,
   every protocol property present. *)

let count_sub hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i acc =
    if i + ln > lh then acc
    else if String.sub hay i ln = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let verilog_suite =
  [ Alcotest.test_case "prelude defines all control primitives" `Quick
      (fun () ->
         List.iter
           (fun m ->
              Alcotest.(check bool) m true
                (contains Verilog.prelude ("module " ^ m)))
           [ "eb "; "eb0 "; "join_ctrl "; "fork_ctrl "; "emux_ctrl ";
             "shared_ctrl " ]);
    Alcotest.test_case "prelude modules are balanced" `Quick (fun () ->
        Alcotest.(check int) "module/endmodule"
          (count_sub Verilog.prelude "\nmodule ")
          (count_sub Verilog.prelude "endmodule"));
    Alcotest.test_case "fig1d top instantiates every primitive" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let v = Verilog.to_string ~top:"fig1d" h.Figures.net in
         Alcotest.(check bool) "top module" true
           (contains v "module fig1d");
         Alcotest.(check bool) "eb instance" true (contains v "eb #(");
         Alcotest.(check bool) "emux instance" true
           (contains v "emux_ctrl #(");
         Alcotest.(check bool) "shared instance" true
           (contains v "shared_ctrl #(");
         Alcotest.(check bool) "fork instance" true
           (contains v "fork_ctrl #("));
    Alcotest.test_case "every channel becomes a wire bundle" `Quick
      (fun () ->
         let h = Figures.fig1a () in
         let v = Verilog.to_string ~top:"t" h.Figures.net in
         List.iter
           (fun (c : Netlist.channel) ->
              Alcotest.(check bool)
                (Fmt.str "wires for channel %d" c.Netlist.ch_id)
                true
                (contains v (Fmt.str "ch%d_vp" c.Netlist.ch_id)))
           (Netlist.channels h.Figures.net));
    Alcotest.test_case "multi-way mux binds the full select bus" `Quick
      (fun () ->
         (* golden output for the >2-way select binding: the controller
            gets a SELW-bit select and the datapath compares the whole
            bus, not bit 0. *)
         let b = builder () in
         let sel = src_stream b [ 0; 1; 2 ] in
         let m = add b ~name:"m" (Mux { ways = 3; early = true }) in
         let k = sink b () in
         let _ = conn b (sel, Out 0) (m, Sel) in
         List.iteri
           (fun j s -> ignore (conn b (s, Out 0) (m, In j)))
           [ src_stream b [ 1 ]; src_stream b [ 2 ]; src_stream b [ 3 ] ];
         let _ = conn b (m, Out 0) (k, In 0) in
         let v = Verilog.to_string ~top:"m3" b.net in
         Alcotest.(check bool) "2-bit controller select" true
           (contains v "emux_ctrl #(.N(3), .SELW(2))");
         Alcotest.(check bool) "select bus sliced to SELW bits" true
           (contains v "_d[1:0])");
         Alcotest.(check bool) "datapath compares the full select" true
           (contains v "_d[1:0] == 2'd0) ?");
         Alcotest.(check bool) "priority chain covers way 1" true
           (contains v "_d[1:0] == 2'd1) ?");
         Alcotest.(check bool) "no leftover FIXME" false (contains v "FIXME"));
    Alcotest.test_case "2-way mux keeps the single-bit select form" `Quick
      (fun () ->
         let h = Figures.fig1a () in
         let v = Verilog.to_string ~top:"t" h.Figures.net in
         Alcotest.(check bool) "bit-0 ternary" true
           (contains v "_d[0] ? "));
    Alcotest.test_case "save writes a file" `Quick (fun () ->
        let h = Figures.fig1a () in
        let path = Filename.temp_file "elastic" ".v" in
        Verilog.save path ~top:"t" h.Figures.net;
        let ic = open_in path in
        let size = in_channel_length ic in
        close_in ic;
        Sys.remove path;
        Alcotest.(check bool) "non-empty" true (size > 1000)) ]

let smv_suite =
  [ Alcotest.test_case "model has the expected sections" `Quick (fun () ->
        let h = Figures.fig1d () in
        let m = Smv.to_string h.Figures.net in
        List.iter
          (fun sec ->
             Alcotest.(check bool) sec true (contains m sec))
          [ "MODULE main"; "VAR"; "IVAR"; "DEFINE"; "ASSIGN"; "FAIRNESS";
            "LTLSPEC" ]);
    Alcotest.test_case "four property families per channel" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e = eb b () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e, In 0) in
         let _ = conn b (e, Out 0) (k, In 0) in
         let m = Smv.to_string b.net in
         (* 2 channels x (retry+ + retry- + 2 invariants + liveness). *)
         Alcotest.(check int) "LTLSPEC count" 10 (count_sub m "LTLSPEC"));
    Alcotest.test_case "shared outputs skip forward persistence" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let m = Smv.to_string h.Figures.net in
         let shared =
           match
             List.find_opt
               (fun (n : Netlist.node) ->
                  match n.Netlist.kind with
                  | Netlist.Shared _ -> true
                  | _ -> false)
               (Netlist.nodes h.Figures.net)
           with
           | Some n -> n
           | None -> Alcotest.fail "no shared module"
         in
         List.iter
           (fun (c : Netlist.channel) ->
              let retry_plus =
                Fmt.str "LTLSPEC G ((vp_%d & sp_%d" c.Netlist.ch_id
                  c.Netlist.ch_id
              in
              Alcotest.(check bool)
                (Fmt.str "no retry+ for %s" c.Netlist.ch_name)
                false (contains m retry_plus))
           (Netlist.outgoing h.Figures.net shared.Netlist.id));
    Alcotest.test_case "nondeterministic scheduler gets fairness" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let m = Smv.to_string h.Figures.net in
         Alcotest.(check bool) "fairness on predictions" true
           (contains m "FAIRNESS pred_"));
    Alcotest.test_case "save writes a file" `Quick (fun () ->
        let h = Figures.table1 () in
        let path = Filename.temp_file "elastic" ".smv" in
        Smv.save path h.Figures.t1_net;
        let ic = open_in path in
        let size = in_channel_length ic in
        close_in ic;
        Sys.remove path;
        Alcotest.(check bool) "non-empty" true (size > 500)) ]

let dot_suite =
  [ Alcotest.test_case "dot output is a digraph with all edges" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let d = Dot.to_string h.Figures.net in
         Alcotest.(check bool) "digraph" true (contains d "digraph");
         Alcotest.(check int) "edge per channel"
           (Netlist.channel_count h.Figures.net)
           (count_sub d " -> ")) ]

let blif_suite =
  [ Alcotest.test_case "blif model has inputs, outputs and latches" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let b = Blif.to_string ~model:"fig1d" h.Figures.net in
         Alcotest.(check bool) "model" true (contains b ".model fig1d");
         Alcotest.(check bool) "inputs" true (contains b ".inputs");
         Alcotest.(check bool) "selval input" true (contains b "selval_");
         Alcotest.(check bool) "pred input" true (contains b "pred_");
         Alcotest.(check bool) "latches" true (count_sub b ".latch" > 4);
         Alcotest.(check bool) "gates" true (count_sub b ".names" > 20);
         Alcotest.(check bool) "terminated" true (contains b ".end"));
    Alcotest.test_case "blif exposes every channel's control bits" `Quick
      (fun () ->
         let h = Figures.fig1a () in
         let b = Blif.to_string ~model:"m" h.Figures.net in
         List.iter
           (fun (c : Netlist.channel) ->
              Alcotest.(check bool)
                (Fmt.str "vp_%d listed" c.Netlist.ch_id)
                true
                (contains b (Fmt.str "vp_%d" c.Netlist.ch_id)))
           (Netlist.channels h.Figures.net));
    Alcotest.test_case "blif EB occupancy is a 5-state one-hot" `Quick
      (fun () ->
         let b = builder () in
         let s = src_counter b () in
         let e = eb b ~name:"thebuf" ~init:[ Elastic_kernel.Value.Int 1 ] () in
         let k = sink b () in
         let _ = conn b (s, Out 0) (e, In 0) in
         let _ = conn b (e, Out 0) (k, In 0) in
         let t = Blif.to_string ~model:"m" b.net in
         Alcotest.(check int) "five latches + source retry" 6
           (count_sub t ".latch");
         (* initial token: one-hot state 3 set, others clear *)
         Alcotest.(check bool) "init state" true
           (contains t "thebuf_s3 re clk 1"));
    Alcotest.test_case "blif rejects wide multiplexors" `Quick (fun () ->
        let b = builder () in
        let sel = src_counter b () in
        let ss = List.init 3 (fun _ -> src_counter b ()) in
        let m = add b (Mux { ways = 3; early = true }) in
        let k = sink b () in
        let _ = conn b (sel, Out 0) (m, Sel) in
        List.iteri (fun i s -> ignore (conn b (s, Out 0) (m, In i))) ss;
        let _ = conn b (m, Out 0) (k, In 0) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Blif.to_string ~model:"m" b.net);
             false
           with Invalid_argument _ -> true)) ]

let base_suite = verilog_suite @ smv_suite @ dot_suite @ blif_suite

(* Every instantiated module must be defined in the same output: the
   generated RTL is self-contained. *)
let self_contained_suite =
  [ Alcotest.test_case "generated Verilog is self-contained" `Quick
      (fun () ->
        let designs =
          [ ("fig1d", (Figures.fig1d ~sched:Elastic_sched.Scheduler.Sticky ()).Figures.net);
            ("table1", (Figures.table1 ()).Figures.t1_net);
            ("vl",
             (Examples.vl_stalling
                ~ops:(Elastic_datapath.Alu.operands ~error_rate_pct:5 ~seed:1 4))
               .Examples.d_net) ]
        in
        List.iter
          (fun (name, net) ->
             let v = Verilog.to_string ~top:name net in
             (* Collect instantiated module names: tokens followed by
                " #(" or " u_..." at line starts. *)
             let defined = ref [] in
             String.split_on_char '\n' v
             |> List.iter (fun line ->
                 let line = String.trim line in
                 if String.length line > 7 && String.sub line 0 7 = "module "
                 then
                   let rest = String.sub line 7 (String.length line - 7) in
                   let stop = ref 0 in
                   while
                     !stop < String.length rest
                     && rest.[!stop] <> ' '
                     && rest.[!stop] <> '('
                     && rest.[!stop] <> '#'
                   do
                     incr stop
                   done;
                   defined := String.sub rest 0 !stop :: !defined);
             List.iter
               (fun m ->
                  if contains v (m ^ " #(") || contains v ("  " ^ m ^ " u_")
                  then
                    Alcotest.(check bool)
                      (Fmt.str "%s: module %s defined" name m)
                      true
                      (List.mem m !defined))
               [ "eb"; "eb0"; "join_ctrl"; "fork_ctrl"; "emux_ctrl";
                 "shared_ctrl"; "varlat_ctrl"; "sched_static";
                 "sched_toggle"; "sched_sticky"; "sched_round_robin" ])
          designs);
    Alcotest.test_case "sticky scheduler is instantiated in RTL" `Quick
      (fun () ->
        let h = Figures.fig1d ~sched:Elastic_sched.Scheduler.Sticky () in
        let v = Verilog.to_string ~top:"t" h.Figures.net in
        Alcotest.(check bool) "sched_sticky instance" true
          (contains v "sched_sticky #(")) ]

(* Frozen export text: one [Digest] per (design, format) for every
   bundled design, plus a digest of the SMV model's FAIRNESS/LTLSPEC
   lines alone (the environment model and the per-channel properties).
   Regenerate [emitters.expected] with [emitter_digests] only when a
   change to the exported text is intended. *)
let emitter_digests () =
  let b = Buffer.create 2048 in
  let hex s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, mk) ->
       let net = mk () in
       let smv = Smv.to_string net in
       let spec =
         String.split_on_char '\n' smv
         |> List.filter (fun l ->
             String.starts_with ~prefix:"FAIRNESS" l
             || String.starts_with ~prefix:"LTLSPEC" l)
         |> String.concat "\n"
       in
       Printf.bprintf b "%s blif %s\n" name
         (hex (Blif.to_string ~model:"elastic_ctrl" net));
       Printf.bprintf b "%s smv %s\n" name (hex smv);
       Printf.bprintf b "%s smv-spec %s\n" name (hex spec);
       Printf.bprintf b "%s verilog %s\n" name
         (hex (Verilog.to_string ~top:"elastic_top" net)))
    Shell.designs;
  Buffer.contents b

(* How many drivers each net of the module [top] has in the Verilog text
   [v]: the target of an [assign], or a net bound to an output port of an
   instance of a module defined in [v]. *)
let top_drivers ~top v =
  let ident c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
    | _ -> false
  in
  let idents s =
    String.map (fun c -> if ident c then c else ' ') s
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "")
  in
  let uncomment l =
    match String.index_opt l '/' with
    | Some i when i + 1 < String.length l && l.[i + 1] = '/' ->
      String.sub l 0 i
    | _ -> l
  in
  let stmts =
    String.split_on_char '\n' v |> List.map uncomment |> String.concat " "
    |> String.split_on_char ';'
  in
  let outputs = Hashtbl.create 16 and body = ref [] and cur = ref "" in
  List.iter
    (fun st ->
       let rec header = function
         | "module" :: name :: _ -> Some name
         | _ :: rest -> header rest
         | [] -> None
       in
       match header (idents st) with
       | Some name ->
         cur := name;
         Hashtbl.replace outputs name
           (List.filter_map
              (fun frag ->
                 let ids = idents frag in
                 if List.mem "output" ids then
                   Some (List.nth ids (List.length ids - 1))
                 else None)
              (String.split_on_char ',' st))
       | None -> if !cur = top then body := st :: !body)
    stmts;
  let count = Hashtbl.create 64 in
  let drive n =
    Hashtbl.replace count n
      (1 + Option.value ~default:0 (Hashtbl.find_opt count n))
  in
  List.iter
    (fun st ->
       match idents st with
       | "assign" :: target :: _ -> drive target
       | m :: _ when Hashtbl.mem outputs m ->
         let outs = Hashtbl.find outputs m in
         let n = String.length st in
         let i = ref 0 in
         while !i < n do
           if st.[!i] = '.' then begin
             let j = ref (!i + 1) in
             while !j < n && ident st.[!j] do incr j done;
             let port = String.sub st (!i + 1) (!j - !i - 1) in
             if !j < n && st.[!j] = '(' then begin
               let depth = ref 1 and k = ref (!j + 1) in
               while !depth > 0 do
                 if st.[!k] = '(' then incr depth
                 else if st.[!k] = ')' then decr depth;
                 incr k
               done;
               if List.mem port outs then
                 List.iter drive (idents (String.sub st (!j + 1) (!k - !j - 2)));
               i := !k
             end
             else i := !j
           end
           else incr i
         done
       | _ -> ())
    !body;
  count

let single_driver_suite =
  [ Alcotest.test_case "every channel control bit has exactly one driver"
      `Quick (fun () ->
        List.iter
          (fun (name, mk) ->
             let net = mk () in
             let count =
               top_drivers ~top:"elastic_top"
                 (Verilog.to_string ~top:"elastic_top" net)
             in
             List.iter
               (fun (c : Netlist.channel) ->
                  List.iter
                    (fun f ->
                       let w = Fmt.str "ch%d_%s" c.Netlist.ch_id f in
                       Alcotest.(check int)
                         (Fmt.str "%s: drivers of %s (%s)" name w
                            c.Netlist.ch_name)
                         1
                         (Option.value ~default:0 (Hashtbl.find_opt count w)))
                    [ "vp"; "sp"; "vm"; "sm" ])
               (Netlist.channels net))
          Shell.designs) ]

let golden_suite =
  [ Alcotest.test_case "exports of every bundled design match the goldens"
      `Quick (fun () ->
        Test_arena.check_golden "emitters.expected" (emitter_digests ())) ]

(* [Control.program] is the shape's table with its nets resolved: named
   back, each channel bit through [wire] and each slot through the
   table's registers, inputs and internal nets in that order, it is the
   table, assign for assign, for every shape up to arity 4. *)
let program_is_table () =
  let open Control in
  let shapes =
    [ Source; Sink; Eb 0; Eb 1; Eb 2; Eb0 true; Eb0 false; Varlat ]
    @ List.init 4 (fun k -> Join (k + 1))
    @ List.init 3 (fun k -> Fork (k + 2))
    @ List.concat_map
        (fun ways -> [ Mux { ways; early = false }; Mux { ways; early = true } ])
        [ 2; 3; 4 ]
    @ List.concat_map
        (fun ways ->
           [ Shared { ways; hinted = true }; Shared { ways; hinted = false } ])
        [ 2; 3 ]
  in
  let wire p f =
    match p with
    | Netlist.In k -> Fmt.str "%s.in%d" f k
    | Netlist.Out k -> Fmt.str "%s.out%d" f k
    | Netlist.Sel -> f ^ ".sel"
  in
  let field b =
    List.assoc b
      Elastic_kernel.Signal.
        [ (v_plus_bit, "vp"); (s_plus_bit, "sp"); (v_minus_bit, "vm");
          (s_minus_bit, "sm") ]
  in
  List.iter
    (fun shape ->
       let t = table ~u:"n7" ~wire shape in
       let slots =
         Array.of_list
           (List.map (fun r -> r.q) t.regs
            @ List.map (fun (Bit x | Choice (x, _)) -> x) t.inputs
            @ List.filter_map
                (fun (x, _) -> if String.contains x '.' then None else Some x)
                t.assigns)
       in
       let name = function Chan (p, b) -> wire p (field b) | Slot k -> slots.(k) in
       let p = program shape in
       let what = Fmt.str "shape with %d nets" (Array.length slots) in
       Alcotest.(check int) (what ^ ": slots") (Array.length slots) p.slots;
       Alcotest.(check bool) (what ^ ": the program is the table") true
         (map name p.resolved = t);
       Alcotest.(check bool) (what ^ ": every channel bit is live") true
         (List.for_all
            (fun a -> List.memq a p.live)
            (List.filter (function Chan _, _ -> true | _ -> false)
               p.resolved.assigns)))
    shapes

let suite =
  base_suite @ self_contained_suite @ single_driver_suite @ golden_suite
  @ [ Alcotest.test_case "each shape's program is its table" `Quick
        program_is_table ]

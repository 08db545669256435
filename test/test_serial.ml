open Elastic_kernel
open Elastic_netlist
open Elastic_core
open Helpers

(* Round-trip and error-handling tests for the netlist file format. *)

let roundtrip net =
  match Serial.parse (Serial.to_string net) with
  | Ok net' -> net'
  | Error m -> Alcotest.failf "parse failed: %s" m

(* Structural equality up to renumbering: same node names/kind-names in
   order, same channel endpoints by node name, same widths. *)
let structure net =
  let nodes =
    List.map
      (fun (n : Netlist.node) -> (n.Netlist.name, Netlist.kind_name n.Netlist.kind))
      (Netlist.nodes net)
  in
  let name id = (Netlist.node net id).Netlist.name in
  let chans =
    List.map
      (fun (c : Netlist.channel) ->
         (c.Netlist.ch_name,
          name c.Netlist.src.Netlist.ep_node,
          Fmt.str "%a" Netlist.pp_port c.Netlist.src.Netlist.ep_port,
          name c.Netlist.dst.Netlist.ep_node,
          Fmt.str "%a" Netlist.pp_port c.Netlist.dst.Netlist.ep_port,
          c.Netlist.width))
      (Netlist.channels net)
  in
  (nodes, chans)

let check_roundtrip name net =
  let net' = roundtrip net in
  Alcotest.(check bool) (name ^ ": structure preserved") true
    (structure net = structure net')

(* --- fuzzing the parser ------------------------------------------- *)

(* The text of the bundled designs, which the fuzzer mutates. *)
let fuzz_corpus =
  lazy
    (let ops = Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 5 in
     let rs = Examples.rs_ops ~error_rate_pct:5 ~seed:1 5 in
     Array.map Serial.to_string
       [| (Figures.fig1a ()).Figures.net;
          (Figures.fig1d ()).Figures.net;
          (Examples.vl_speculative ~ops).Examples.d_net;
          (Examples.rs_speculative ~ops:rs).Examples.d_net;
          (fst (Examples.rs_speculative_alarmed ~ops:rs)).Examples.d_net |])

let is_number tok =
  tok <> ""
  && (match tok.[0] with '0' .. '9' | '-' -> true | _ -> false)
  && Option.is_some (float_of_string_opt tok)

(* Mutation [kind] of [text], placed by [a] and [b]: truncation, a byte
   flip, a duplicated, dropped or swapped line, or a number token
   replaced with a value in -3..36 (dangling ids, bad ports, width
   mismatches). *)
let mutate text (kind, a, b) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  let join ls = String.concat "\n" (Array.to_list ls) in
  match kind with
  | 0 -> String.sub text 0 (a mod (String.length text + 1))
  | 1 when text <> "" ->
    let i = a mod String.length text in
    let flip c = Char.chr (Char.code c lxor (1 + (b mod 255))) in
    String.mapi (fun j c -> if j = i then flip c else c) text
  | 2 ->
    let k = a mod nl in
    join (Array.init (nl + 1) (fun j -> lines.(if j <= k then j else j - 1)))
  | 3 when nl > 1 ->
    let k = a mod nl in
    join (Array.init (nl - 1) (fun j -> lines.(if j < k then j else j + 1)))
  | 4 ->
    let i = a mod nl and j = b mod nl in
    let l = Array.copy lines in
    l.(i) <- lines.(j);
    l.(j) <- lines.(i);
    join l
  | _ ->
    let toks = Array.map (String.split_on_char ' ') lines in
    let numbers =
      List.concat
        (List.mapi
           (fun i ts ->
              List.filteri (fun _ t -> is_number t) ts
              |> List.mapi (fun k _ -> (i, k)))
           (Array.to_list toks))
    in
    if numbers = [] then text
    else
      let li, nth = List.nth numbers (a mod List.length numbers) in
      let seen = ref (-1) in
      toks.(li) <-
        List.map
          (fun t ->
             if is_number t then begin
               incr seen;
               if !seen = nth then string_of_int ((b mod 40) - 3) else t
             end
             else t)
          toks.(li);
      join (Array.map (String.concat " ") toks)

let fuzz_input =
  QCheck.make
    ~print:(fun (d, ms) ->
        List.fold_left mutate (Lazy.force fuzz_corpus).(d) ms)
    QCheck.Gen.(
      pair (int_bound 4)
        (list_size (int_range 1 3)
           (triple (int_bound 5) (int_bound 100_000) (int_bound 100_000))))

(* Every mutant parses to [Error _], or to a netlist that
   [Engine.create] accepts or rejects with [Simulation_error]: no other
   exception escapes. *)
let qcheck_parse_fuzz =
  QCheck.Test.make ~count:1500
    ~name:"mutated designs parse to Error or a creatable netlist" fuzz_input
    (fun (d, ms) ->
        let text = List.fold_left mutate (Lazy.force fuzz_corpus).(d) ms in
        match Serial.parse text with
        | Error _ -> true
        | Ok net ->
          (match Elastic_sim.Engine.create net with
           | _ -> true
           | exception Elastic_sim.Engine.Simulation_error _ -> true))

let suite =
  [ Alcotest.test_case "fig1a round-trips" `Quick (fun () ->
        check_roundtrip "fig1a" (Figures.fig1a ()).Figures.net);
    Alcotest.test_case "fig1d (shared + early mux) round-trips" `Quick
      (fun () -> check_roundtrip "fig1d" (Figures.fig1d ()).Figures.net);
    Alcotest.test_case "table1 (string streams) round-trips" `Quick
      (fun () ->
         check_roundtrip "table1" (Figures.table1 ()).Figures.t1_net);
    Alcotest.test_case "variable-latency design round-trips" `Quick
      (fun () ->
         let ops = Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 5 in
         check_roundtrip "vl" (Examples.vl_stalling ~ops).Examples.d_net;
         check_roundtrip "vl-spec" (Examples.vl_speculative ~ops).Examples.d_net);
    Alcotest.test_case "reloaded netlist simulates identically" `Quick
      (fun () ->
         let h = Figures.fig1d () in
         let net' = roundtrip h.Figures.net in
         match Equiv.check ~cycles:100 h.Figures.net net' with
         | Ok _ -> ()
         | Error m -> Alcotest.fail m);
    Alcotest.test_case "values round-trip including tuples and strings"
      `Quick (fun () ->
        let b = builder () in
        let vs =
          [ Value.Unit; Value.Bool true; Value.Int (-42);
            Value.Word 0x1234ABCD5678L; Value.Str "hello world (x, y)";
            Value.Tuple [ Value.Int 1; Value.Tuple [ Value.Str "%" ] ] ]
        in
        let s = add b (Source (Stream vs)) in
        let k = sink b () in
        let _ = conn b (s, Out 0) (k, In 0) in
        let net' = roundtrip b.net in
        let vs' =
          match (List.hd (Netlist.nodes net')).Netlist.kind with
          | Source (Stream l) -> l
          | _ -> Alcotest.fail "wrong kind"
        in
        Alcotest.(check (list value)) "values" vs vs');
    Alcotest.test_case "unknown functions are reported" `Quick (fun () ->
        let text =
          "elastic-netlist v1\n\
           node 0 s source counter 0 1\n\
           node 1 f func no_such_block 1 1 1\n\
           node 2 k sink ready\n\
           chan a 0 out0 1 in0 8\n\
           chan b 1 out0 2 in0 8\n"
        in
        match Serial.parse text with
        | Ok _ -> Alcotest.fail "should not parse"
        | Error m ->
          Alcotest.(check bool) "names the function" true
            (contains m "no_such_block"));
    Alcotest.test_case "bad header and dangling ids are reported" `Quick
      (fun () ->
        (match Serial.parse "nonsense" with
         | Ok _ -> Alcotest.fail "accepted garbage"
         | Error _ -> ());
        let text =
          "elastic-netlist v1\nnode 0 s source counter 0 1\n\
           chan a 0 out0 99 in0 8\n"
        in
        match Serial.parse text with
        | Ok _ -> Alcotest.fail "accepted dangling id"
        | Error m -> Alcotest.(check bool) "mentions node" true
            (contains m "99"));
    Alcotest.test_case "duplicate node ids are rejected" `Quick (fun () ->
        let text =
          "elastic-netlist v1\nnode 0 a source counter 0 1\n\
           node 0 b sink ready\nchan c 0 out0 0 in0 8\n"
        in
        match Serial.parse text with
        | Ok _ -> Alcotest.fail "accepted duplicate id"
        | Error m ->
          Alcotest.(check bool) "says duplicate" true
            (contains m "duplicate"));
    Alcotest.test_case "errors name the offending line" `Quick (fun () ->
        (* Lines count from 1 in the text, blank and comment lines
           included. *)
        let rejects text want =
          match Serial.parse text with
          | Ok _ -> Alcotest.failf "accepted %S" text
          | Error m -> Alcotest.(check string) "message" want m
        in
        rejects "nonsense\nnode 0 s sink ready\n"
          "line 1: bad header \"nonsense\"";
        rejects
          "elastic-netlist v1\nnode 0 a source counter 0 1\n\n\
           # b reuses a's id\nnode 0 b sink ready\n"
          "line 5: duplicate node id 0";
        rejects
          "elastic-netlist v1\nnode 0 s source counter 0 1\n\
           # 99 is never declared\nchan a 0 out0 99 in0 8\n"
          "line 4: channel references unknown node 99";
        rejects
          "elastic-netlist v1\n# a word where the id goes\n\
           node zero s source counter 0 1\n"
          "line 3: int_of_string");
    Alcotest.test_case "shell save/open round-trips a design" `Quick
      (fun () ->
        let s = Shell.create () in
        let ok = function
          | Ok v -> v
          | Error m -> Alcotest.fail m
        in
        let _ = ok (Shell.execute s "load fig1d") in
        let path = Filename.temp_file "elastic" ".enl" in
        let _ = ok (Shell.execute s ("save " ^ path)) in
        let _ = ok (Shell.execute s ("open " ^ path)) in
        Sys.remove path;
        Alcotest.(check bool) "design loaded" true
          (Shell.current s <> None));
    QCheck_alcotest.to_alcotest qcheck_parse_fuzz ]

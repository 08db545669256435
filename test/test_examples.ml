open Elastic_kernel
open Elastic_sim
open Elastic_datapath
open Elastic_core
open Helpers

let run_design ?(cycles = 400) (d : Examples.design) =
  let eng = Engine.create d.Examples.d_net in
  Engine.run eng cycles;
  check_no_violations eng;
  eng

let results eng (d : Examples.design) = sink_values eng d.Examples.d_sink

(* Cycle of the k-th delivery at the sink. *)
let delivery_cycles eng (d : Examples.design) =
  List.map
    (fun e -> e.Transfer.cycle)
    (Transfer.entries (Engine.sink_stream eng d.Examples.d_sink))

let vl_suite =
  [ Alcotest.test_case "stalling unit computes exact results" `Quick
      (fun () ->
         let ops = Alu.operands ~error_rate_pct:30 ~seed:7 50 in
         let d = Examples.vl_stalling ~ops in
         let eng = run_design d in
         Alcotest.(check (list value)) "all exact"
           (Examples.vl_reference ops) (results eng d));
    Alcotest.test_case "speculative unit computes exact results" `Quick
      (fun () ->
         let ops = Alu.operands ~error_rate_pct:30 ~seed:7 50 in
         let d = Examples.vl_speculative ~ops in
         let eng = run_design d in
         Alcotest.(check (list value)) "all exact"
           (Examples.vl_reference ops) (results eng d));
    Alcotest.test_case "both designs are transfer equivalent" `Quick
      (fun () ->
         let ops = Alu.operands ~error_rate_pct:25 ~seed:11 60 in
         match
           Equiv.check ~cycles:300
             (Examples.vl_stalling ~ops).Examples.d_net
             (Examples.vl_speculative ~ops).Examples.d_net
         with
         | Ok _ -> ()
         | Error m -> Alcotest.fail m);
    Alcotest.test_case "error-free run loses no cycles" `Quick (fun () ->
        let n = 60 in
        let ops = Alu.operands ~error_rate_pct:0 ~seed:3 n in
        let d = Examples.vl_speculative ~ops in
        let eng = run_design d in
        let cycles = delivery_cycles eng d in
        (* Steady state: one result per cycle. *)
        let rec max_gap = function
          | a :: (b :: _ as rest) -> max (b - a) (max_gap rest)
          | [ _ ] | [] -> 0
        in
        Alcotest.(check int) "count" n (List.length cycles);
        Alcotest.(check bool) "1/cycle after warmup" true
          (max_gap (List.filteri (fun i _ -> i > 2) cycles) <= 1));
    Alcotest.test_case "each misprediction costs exactly one cycle" `Quick
      (fun () ->
        let mk pct n = Alu.operands ~error_rate_pct:pct ~seed:5 n in
        let n = 80 in
        let errors ops =
          List.length
            (List.filter
               (fun (op, a, b) -> not (Alu.approx_correct op a b))
               ops)
        in
        let last_cycle ops =
          let d = Examples.vl_speculative ~ops in
          let eng = run_design d in
          match List.rev (delivery_cycles eng d) with
          | c :: _ -> c
          | [] -> Alcotest.fail "no deliveries"
        in
        let clean = mk 0 n in
        let dirty = mk 25 n in
        Alcotest.(check int) "completion slips by the error count"
          (last_cycle clean + errors dirty)
          (last_cycle dirty));
    Alcotest.test_case "speculative beats stalling on effective cycle time"
      `Quick (fun () ->
        let ops = Alu.operands ~error_rate_pct:5 ~seed:9 40 in
        let ct net = Elastic_netlist.Timing.cycle_time net in
        let st = ct (Examples.vl_stalling ~ops).Examples.d_net in
        let sp = ct (Examples.vl_speculative ~ops).Examples.d_net in
        Alcotest.(check bool)
          (Fmt.str "spec %.2f < stalling %.2f" sp st)
          true (sp < st)) ]

let rs_suite =
  [ Alcotest.test_case "non-speculative adder corrects injected errors"
      `Quick (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:30 ~seed:13 40 in
        let d = Examples.rs_nonspeculative ~ops in
        let eng = run_design d in
        Alcotest.(check (list value)) "sums"
          (Examples.rs_reference ops) (results eng d));
    Alcotest.test_case "speculative adder corrects injected errors" `Quick
      (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:30 ~seed:13 40 in
        let d = Examples.rs_speculative ~ops in
        let eng = run_design d in
        Alcotest.(check (list value)) "sums"
          (Examples.rs_reference ops) (results eng d));
    Alcotest.test_case "error-free: speculation is one stage shallower"
      `Quick (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:0 ~seed:17 30 in
        let dn = Examples.rs_nonspeculative ~ops in
        let ds = Examples.rs_speculative ~ops in
        let en = run_design dn and es = run_design ds in
        let first l = match l with c :: _ -> c | [] -> Alcotest.fail "none" in
        let fn = first (delivery_cycles en dn) in
        let fs = first (delivery_cycles es ds) in
        Alcotest.(check bool)
          (Fmt.str "latency spec %d < nonspec %d" fs fn)
          true (fs < fn));
    Alcotest.test_case "one cycle lost per corrected error" `Quick
      (fun () ->
        let n = 60 in
        let clean = Examples.rs_ops ~error_rate_pct:0 ~seed:19 n in
        let dirty = Examples.rs_ops ~error_rate_pct:20 ~seed:19 n in
        let errors =
          List.length
            (List.filter
               (fun o -> o.Examples.flip_a <> None || o.Examples.flip_b <> None)
               dirty)
        in
        let last ops =
          let d = Examples.rs_speculative ~ops in
          let eng = run_design d in
          match List.rev (delivery_cycles eng d) with
          | c :: _ -> c
          | [] -> Alcotest.fail "no deliveries"
        in
        Alcotest.(check int) "slip = error count"
          (last clean + errors) (last dirty));
    Alcotest.test_case "area overhead of speculation is on the stage"
      `Quick (fun () ->
        let ops = Examples.rs_ops ~error_rate_pct:0 ~seed:1 10 in
        let an =
          Elastic_netlist.Area.total (Examples.rs_nonspeculative ~ops).Examples.d_net
        in
        let asp =
          Elastic_netlist.Area.total (Examples.rs_speculative ~ops).Examples.d_net
        in
        let overhead = (asp -. an) /. an in
        Alcotest.(check bool)
          (Fmt.str "overhead %.0f%% in the paper's band" (100. *. overhead))
          true
          (overhead > 0.15 && overhead < 0.60)) ]

(* --- the unary entry of every library function ----------------------- *)

open Elastic_netlist

(* Every function the bundled designs apply, with the standard families
   and perfbench's list-form G (a [Func.make] of arity 1). *)
let library_funcs () =
  let of_net net =
    List.concat_map
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Func f | Netlist.Shared { f; _ } -> [ f ]
         | Netlist.Varlat { fast; slow; err } -> [ fast; slow; err ]
         | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
         | Netlist.Fork _ | Netlist.Mux _ -> [])
      (Netlist.nodes net)
  in
  let ops = Alu.operands ~error_rate_pct:10 ~seed:1 4 in
  let rs = Examples.rs_ops ~error_rate_pct:10 ~seed:1 4 in
  List.concat_map of_net
    [ (Figures.fig1a ()).Figures.net;
      (Figures.table1 ()).Figures.t1_net;
      (Examples.vl_stalling ~ops).Examples.d_net;
      (Examples.vl_speculative ~ops).Examples.d_net;
      (Examples.rs_nonspeculative ~ops:rs).Examples.d_net;
      (fst (Examples.rs_speculative_alarmed ~ops:rs)).Examples.d_net;
      (Examples.pc_loop ()).Examples.pl_net ]
  @ [ Func.identity (); Func.const (Value.Int 3); Func.inc ~step:2 ();
      Func.add_int ~arity:1 (); Alu.exact_func (); Alu.approx_func ();
      Alu.error_func (); Secded.corrector_func ();
      Func.make ~name:"G" ~arity:1 ~delay:1.5 ~area:40.0 (function
        | [ v ] -> Value.Int ((Value.to_int v + 1) land 0xFF)
        | _ -> invalid_arg "G: arity") ]

(* Payloads of every shape the library reads, well-formed or not: ALU
   operand triples, SECDED codewords with up to two flipped bits, pairs
   of them, word pairs, scalars and strings. *)
let gen_payload =
  let open QCheck.Gen in
  let word = map Int64.of_int int in
  let codeword =
    map2
      (fun w bits ->
         let cw =
           List.fold_left
             (fun cw b -> if b < 72 then Secded.flip_bit cw b else cw)
             (Secded.encode w) bits
         in
         Value.Tuple [ Value.Word cw.Secded.data; Value.Int cw.Secded.check ])
      word
      (list_size (int_bound 2) (int_bound 90))
  in
  oneof
    [ map3
        (fun op a b -> Alu.operand_value (Alu.op_of_int op) a b)
        (int_bound 4) (int_bound 255) (int_bound 255);
      map (fun i -> Value.Int i) (int_range (-300) 300);
      map (fun w -> Value.Word w) word;
      map (fun s -> Value.Str s) (oneofl [ "A"; "B"; "D"; "E"; "F"; "x0" ]);
      codeword;
      map2 (fun a b -> Value.Tuple [ a; b ]) codeword codeword;
      map2 (fun a b -> Value.Tuple [ Value.Word a; Value.Word b ]) word word;
      return Value.Unit ]

(* A result, or the exception it raised, rendered. *)
let outcome f v =
  match f v with r -> Ok r | exception e -> Error (Printexc.to_string e)

let unary_entry_agrees =
  let funcs = library_funcs () in
  QCheck.Test.make ~name:"qcheck: eval [v] = eval1 v for every library function"
    ~count:300
    (QCheck.make ~print:Value.to_string gen_payload)
    (fun v ->
       List.iter
         (fun (f : Func.t) ->
            match
              (outcome (fun v -> f.Func.eval [ v ]) v, outcome f.Func.eval1 v)
            with
            | Ok a, Ok b when Value.equal a b -> ()
            | Error a, Error b when String.equal a b -> ()
            | _ ->
              QCheck.Test.fail_reportf "%s: list and unary forms differ on %a"
                f.Func.name Value.pp v)
         funcs;
       true)

(* [Func.apply] checks the count as it did before the unary entry: every
   library function takes exactly one argument, and a function of
   another arity has no unary entry. *)
let test_wrong_arity () =
  List.iter
    (fun (f : Func.t) ->
       Alcotest.(check int) (f.Func.name ^ " is unary") 1 f.Func.arity;
       List.iter
         (fun args ->
            Alcotest.check_raises
              (Fmt.str "%s on %d arguments" f.Func.name (List.length args))
              (Invalid_argument
                 (Fmt.str "Func.apply %s: expected 1 arguments, got %d"
                    f.Func.name (List.length args)))
              (fun () -> ignore (Func.apply f args : Value.t)))
         [ []; [ Value.Int 1; Value.Int 2 ] ])
    (library_funcs ());
  let add2 = Func.add_int ~arity:2 () in
  match add2.Func.eval1 (Value.Int 1) with
  | _ -> Alcotest.fail "a binary function has no unary entry"
  | exception Invalid_argument _ -> ()

let func_suite =
  [ QCheck_alcotest.to_alcotest unary_entry_agrees;
    Alcotest.test_case "wrong-arity argument lists raise as before" `Quick
      test_wrong_arity ]

let suite = vl_suite @ rs_suite @ func_suite

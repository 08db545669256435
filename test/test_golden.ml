open Elastic_kernel
open Elastic_netlist
open Elastic_core
open Elastic_datapath

(* Golden fixtures: the paper-facing headline numbers of the bench
   harness, locked so that an engine or design change that shifts any of
   them is caught here rather than by eyeballing bench output.

   The fixtures run on the default (arena) engine; the differential
   suite (test_engine_equiv.ml) guarantees the reference mode produces
   the same numbers. *)

(* E1: the Table 1 trace of the speculative system of Fig. 1(d),
   cycle-exact (see bench/main.ml for the one deliberate deviation from
   the paper's own inconsistent EBin row). *)
let table1_expected =
  [ ("Fin0", [ "A"; "-"; "C"; "-"; "E"; "F"; "F" ]);
    ("Fout0", [ "A"; "-"; "C"; "-"; "E"; "*"; "F" ]);
    ("Fin1", [ "-"; "B"; "D"; "D"; "-"; "G"; "-" ]);
    ("Fout1", [ "-"; "B"; "*"; "D"; "-"; "G"; "-" ]);
    ("Sel", [ "0"; "1"; "1"; "1"; "0"; "0"; "0" ]);
    ("Sched", [ "0"; "1"; "0"; "1"; "0"; "1"; "0" ]);
    ("EBin", [ "A"; "B"; "*"; "D"; "E"; "*"; "F" ]) ]

let test_table1 () =
  let rows = Figures.table1_trace (Figures.table1 ()) in
  Alcotest.(check int) "row count" (List.length table1_expected)
    (List.length rows);
  List.iter2
    (fun (label, cells) (r : Figures.table1_row) ->
       Alcotest.(check string) "row label" label r.Figures.label;
       Alcotest.(check (list string)) ("cells of " ^ label) cells
         r.Figures.cells)
    table1_expected rows

(* One line per design: delivery cycle counts and protocol retry/kill
   totals, summed over all channels — the numbers behind the E5/E6
   tables. *)
let summary (d : Examples.design) cycles =
  let eng = Elastic_sim.Engine.create d.Examples.d_net in
  Elastic_sim.Engine.run eng cycles;
  let entries =
    Transfer.entries (Elastic_sim.Engine.sink_stream eng d.Examples.d_sink)
  in
  let first =
    match entries with e :: _ -> e.Transfer.cycle | [] -> -1
  in
  let last = List.fold_left (fun _ e -> e.Transfer.cycle) (-1) entries in
  let retries, kills =
    List.fold_left
      (fun (r, k) (c : Netlist.channel) ->
         let _, retry, _ =
           Elastic_sim.Engine.activity eng c.Netlist.ch_id
         in
         (r + retry, k + Elastic_sim.Engine.killed eng c.Netlist.ch_id))
      (0, 0)
      (Netlist.channels d.Examples.d_net)
  in
  Fmt.str "%s: %d transfers, first %d, last %d, %d retry cycles, %d kills"
    d.Examples.d_name (List.length entries) first last retries kills

(* 400 ops at 5% error rate (seed 42): the stalling design retries once
   per slow op; the speculative design kills the doomed slow path of all
   400 predictions and retries only on the ~20 mispredictions' replays. *)
let e5_expected =
  "vl-stalling: 400 transfers, first 1, last 423, 23 retry cycles, 0 kills\n\
   vl-speculative: 400 transfers, first 1, last 423, 207 retry cycles, \
   400 kills"

let test_e5 () =
  let ops = Alu.operands ~error_rate_pct:5 ~seed:42 400 in
  let got =
    String.concat "\n"
      [ summary (Examples.vl_stalling ~ops) 800;
        summary (Examples.vl_speculative ~ops) 800 ]
  in
  Alcotest.(check string) "E5 headline numbers" e5_expected got

(* 400 sums at 5% injected SECDED errors (seed 5): speculation removes
   one pipeline stage of latency (first delivery 1 vs 2) and pays one
   replay cycle per corrected error (last delivery 416 vs 401). *)
let e6_expected =
  "rs-nonspeculative: 400 transfers, first 2, last 401, 0 retry cycles, \
   0 kills\n\
   rs-speculative: 400 transfers, first 1, last 416, 144 retry cycles, \
   400 kills"

let test_e6 () =
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 400 in
  let dn = Examples.rs_nonspeculative ~ops in
  let dp = Examples.rs_speculative ~ops in
  (* The streams must also be value-correct, not merely stable. *)
  List.iter
    (fun (d : Examples.design) ->
       let eng = Elastic_sim.Engine.create d.Examples.d_net in
       Elastic_sim.Engine.run eng 800;
       Alcotest.(check bool)
         (d.Examples.d_name ^ " computes the reference sums")
         true
         (List.equal Value.equal
            (Transfer.values
               (Elastic_sim.Engine.sink_stream eng d.Examples.d_sink))
            (Examples.rs_reference ops)))
    [ dn; dp ];
  let got = String.concat "\n" [ summary dn 800; summary dp 800 ] in
  Alcotest.(check string) "E6 headline numbers" e6_expected got

let suite =
  [ Alcotest.test_case "Table 1 trace is locked cycle-exactly" `Quick
      test_table1;
    Alcotest.test_case "E5 variable-latency ALU numbers are locked" `Quick
      test_e5;
    Alcotest.test_case "E6 resilient adder numbers are locked" `Quick
      test_e6 ]

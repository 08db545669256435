open Elastic_netlist
open Elastic_core

let exec s line =
  match Shell.execute s line with
  | Ok out -> out
  | Error m -> Alcotest.failf "command %S failed: %s" line m

let expect_error s line =
  match Shell.execute s line with
  | Ok out -> Alcotest.failf "command %S unexpectedly succeeded: %s" line out
  | Error m -> m

let suite =
  [ Alcotest.test_case "help lists the commands" `Quick (fun () ->
        let s = Shell.create () in
        let out = exec s "help" in
        List.iter
          (fun cmd ->
             Alcotest.(check bool) cmd true (Helpers.contains out cmd))
          [ "load"; "speculate"; "throughput"; "verilog"; "undo" ]);
    Alcotest.test_case "commands require a loaded design" `Quick (fun () ->
        let s = Shell.create () in
        let m = expect_error s "throughput" in
        Alcotest.(check bool) "mentions load" true (Helpers.contains m "load"));
    Alcotest.test_case "load + candidates + speculate" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1a" in
        let c = exec s "candidates" in
        Alcotest.(check bool) "one candidate" true
          (Helpers.contains c "mux");
        let out = exec s "speculate" in
        Alcotest.(check bool) "applied" true
          (Helpers.contains out "speculation applied"));
    Alcotest.test_case "throughput report shows the sink" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1a" in
        let out = exec s "throughput 100" in
        Alcotest.(check bool) "sink line" true
          (Helpers.contains out "out:"));
    Alcotest.test_case "undo and redo traverse history" `Quick (fun () ->
        let s = Shell.create () in
        let shared_count () =
          List.length
            (List.filter
               (fun (n : Netlist.node) ->
                  match n.Netlist.kind with
                  | Netlist.Shared _ -> true
                  | _ -> false)
               (Netlist.nodes (Option.get (Shell.current s))))
        in
        let _ = exec s "load fig1a" in
        Alcotest.(check int) "no shared module yet" 0 (shared_count ());
        let _ = exec s "speculate" in
        Alcotest.(check int) "shared module present" 1 (shared_count ());
        let _ = exec s "undo" in
        Alcotest.(check int) "back" 0 (shared_count ());
        let _ = exec s "redo" in
        Alcotest.(check int) "forward" 1 (shared_count ()));
    Alcotest.test_case "failed transformations leave the design intact"
      `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1a" in
        let before = Netlist.node_count (Option.get (Shell.current s)) in
        let _ = expect_error s "shannon out" in
        Alcotest.(check int) "unchanged" before
          (Netlist.node_count (Option.get (Shell.current s)));
        let _ = expect_error s "undo" in
        ());
    Alcotest.test_case "unknown designs and commands are reported" `Quick
      (fun () ->
        let s = Shell.create () in
        let m = expect_error s "load nonsense" in
        Alcotest.(check bool) "lists designs" true
          (Helpers.contains m "fig1a");
        let m = expect_error s "frobnicate" in
        Alcotest.(check bool) "suggests help" true
          (Helpers.contains m "help"));
    Alcotest.test_case "the Section 2 script reproduces the walk-through"
      `Quick (fun () ->
        let s = Shell.create () in
        match
          Shell.run_script s
            [ "# Section 2 of the paper, as a script";
              "load fig1a"; "bound"; "cycletime"; "speculate"; "bound";
              "area"; "verify" ]
        with
        | Ok outputs ->
          let all = String.concat "\n" outputs in
          Alcotest.(check bool) "verified" true
            (Helpers.contains all "VERIFIED"
             || Helpers.contains all "states")
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "scripts stop at the first error" `Quick (fun () ->
        let s = Shell.create () in
        match Shell.run_script s [ "load fig1a"; "bogus"; "area" ] with
        | Ok _ -> Alcotest.fail "should have failed"
        | Error m -> Alcotest.(check bool) "names the line" true
            (Helpers.contains m "bogus"));
    Alcotest.test_case "script errors carry the 1-based line number"
      `Quick (fun () ->
        let s = Shell.create () in
        match
          Shell.run_script s [ "load fig1a"; "bogus command here"; "area" ]
        with
        | Ok _ -> Alcotest.fail "should have failed"
        | Error m ->
          Alcotest.(check bool) "line number" true
            (Helpers.contains m "line 2"));
    Alcotest.test_case "execute never raises on malformed input" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-alarmed" in
        (* Bad arities, non-numeric arguments and junk channels must all
           come back as [Error _], keeping an interactive session alive. *)
        List.iter
          (fun line -> ignore (expect_error s line))
          [ "inject"; "inject chan"; "inject chan flip";
            "inject nosuchchannel flip 5 3"; "inject chan flip five three";
            "campaign flips"; "campaign flips nosuchchannel 10 42";
            "campaign storm many seeds"; "inject src.out0->op_fork.in0 warp 3" ]);
    Alcotest.test_case "inject classifies a single-bit operand upset"
      `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-alarmed" in
        let out = exec s "inject src.out0->op_fork.in0 flip 10 17" in
        Alcotest.(check bool) "corrected" true
          (Helpers.contains out "corrected");
        Alcotest.(check bool) "provenance" true
          (Helpers.contains out "channel src.out0->op_fork.in0"));
    Alcotest.test_case "campaign summarizes seeded fault runs" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-alarmed" in
        let out = exec s "campaign flips src.out0->op_fork.in0 6 42" in
        Alcotest.(check bool) "counts scenarios" true
          (Helpers.contains out "6 fault scenarios");
        (* Same seed, same summary: campaigns are reproducible. *)
        let again = exec s "campaign flips src.out0->op_fork.in0 6 42" in
        Alcotest.(check string) "deterministic" out again);
    Alcotest.test_case "stats and trace commands render" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load table1" in
        let st = exec s "stats 20" in
        Alcotest.(check bool) "has channel column" true
          (Helpers.contains st "channel");
        let tr = exec s "trace 7" in
        Alcotest.(check bool) "trace shows anti-tokens" true
          (Helpers.contains tr "-");
        Alcotest.(check bool) "trace shows tokens" true
          (Helpers.contains tr "A"));
    Alcotest.test_case "cycle counts are checked" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load table1" in
        List.iter
          (fun cmd ->
             let rejects args want =
               let line = cmd ^ " " ^ args in
               Alcotest.(check string) line want (expect_error s line)
             in
             rejects "abc" "cycles must be an integer, got \"abc\"";
             rejects "5 6" (Fmt.str "usage: %s [cycles]" cmd);
             rejects "-5" "cycles must be >= 0, got -5")
          [ "stats"; "profile"; "trace"; "throughput"; "metrics"; "timeline";
            "attribute" ];
        Alcotest.(check string) "watch" "cycles must be >= 0, got -5"
          (expect_error s "watch -5 10"));
    Alcotest.test_case "profile reports minor words per cycle" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-spec" in
        let out = exec s "profile 100" in
        let words =
          List.find_map
            (fun l ->
               try Some (Scanf.sscanf l "minor words/cycle: %f" Fun.id)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
            (String.split_on_char '\n' out)
        in
        match words with
        | Some w when w > 0.0 -> ()
        | Some w -> Alcotest.failf "non-positive minor words/cycle %f" w
        | None -> Alcotest.failf "no minor words/cycle line in:\n%s" out);
    Alcotest.test_case "exports write files from the shell" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load fig1d" in
        let dir = Filename.temp_file "elastic" "" in
        Sys.remove dir;
        let v = dir ^ ".v" and smv = dir ^ ".smv" and dot = dir ^ ".dot" in
        let _ = exec s ("verilog " ^ v) in
        let _ = exec s ("smv " ^ smv) in
        let _ = exec s ("dot " ^ dot) in
        List.iter
          (fun f ->
             Alcotest.(check bool) f true (Sys.file_exists f);
             Sys.remove f)
          [ v; smv; dot ]);
    (* Every dispatched command must appear in the help text, and the
       dispatcher must recognize it — the surface cannot drift. *)
    Alcotest.test_case "help covers every dispatched command" `Quick
      (fun () ->
        List.iter
          (fun cmd ->
             Alcotest.(check bool) ("help mentions " ^ cmd) true
               (Helpers.contains Shell.help cmd);
             let s = Shell.create () in
             match Shell.execute s cmd with
             | Ok _ -> ()
             | Error m ->
               Alcotest.(check bool)
                 (Fmt.str "%S is dispatched (got %S)" cmd m)
                 false
                 (Helpers.contains m "unknown command"))
          Shell.commands);
    Alcotest.test_case "metrics renders a Prometheus snapshot" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-spec" in
        let out = exec s "metrics 120" in
        List.iter
          (fun needle ->
             Alcotest.(check bool) needle true (Helpers.contains out needle))
          [ "# TYPE elastic_engine_cycles_total counter";
            "elastic_engine_cycles_total 120";
            "elastic_sched_serves_total";
            "elastic_sched_replay_penalty_cycles_bucket";
            "le=\"+Inf\"" ];
        let file = Filename.temp_file "metrics" ".jsonl" in
        let _ = exec s ("metrics jsonl " ^ file ^ " 100 25") in
        let ic = open_in file in
        let lines = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr lines
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove file;
        Alcotest.(check int) "4 windows of 25" 4 !lines);
    Alcotest.test_case "watch renders dashboard frames" `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-spec" in
        let out = exec s "watch 100 50" in
        List.iter
          (fun needle ->
             Alcotest.(check bool) needle true (Helpers.contains out needle))
          [ "cycle 50"; "cycle 100"; "sink"; "sched"; "replay p50/p99";
            "watched 100 cycles" ]);
    Alcotest.test_case "watch records into the trace when trace is on"
      `Quick (fun () ->
        (* [stats] runs 20 cycles first, so a stale tracer would dump
           cycle 19 instead of the watch run's last cycle. *)
        let s = Shell.create () in
        let _ = exec s "load vl-speculative" in
        let _ = exec s "trace on" in
        let _ = exec s "stats 20" in
        let _ = exec s "watch 30 10" in
        let out = exec s "trace dump 2" in
        Alcotest.(check bool) "watch's last cycle" true
          (Helpers.contains out "cycle   29");
        Alcotest.(check bool) "no stale stats events" false
          (Helpers.contains out "cycle   19"));
    Alcotest.test_case "campaign --par matches the sequential campaign"
      `Quick (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-alarmed" in
        let seq = exec s "campaign flips src.out0->op_fork.in0 6 42" in
        let par =
          exec s "campaign flips src.out0->op_fork.in0 6 42 --par 2"
        in
        Alcotest.(check bool) "all shards completed" true
          (Helpers.contains par "6 shards — 6 completed");
        (* The sequential summary's per-class counts reappear in the
           runner's merged histogram. *)
        List.iter
          (fun cls ->
             if Helpers.contains seq (cls ^ ":") then
               Alcotest.(check bool) ("histogram has " ^ cls) true
                 (Helpers.contains par cls))
          [ "masked"; "corrected"; "detected" ];
        Alcotest.(check bool) "bad par rejected" true
          (Helpers.contains
             (expect_error s
                "campaign flips src.out0->op_fork.in0 6 42 --par 0")
             "--par");
        Alcotest.(check bool) "checkpoint needs par" true
          (Helpers.contains
             (expect_error s
                "campaign flips src.out0->op_fork.in0 6 42 --checkpoint x")
             "--par"));
    Alcotest.test_case "runner status and resume from a checkpoint" `Quick
      (fun () ->
        let s = Shell.create () in
        let _ = exec s "load rs-alarmed" in
        let file = Filename.temp_file "shell_runner" ".jsonl" in
        let cmd =
          Fmt.str "campaign flips src.out0->op_fork.in0 5 42 --par 1 \
                   --checkpoint %s"
            file
        in
        let first = exec s cmd in
        Alcotest.(check bool) "completed" true
          (Helpers.contains first "5 shards — 5 completed");
        let status = exec s (Fmt.str "runner status %s" file) in
        Alcotest.(check bool) "status counts shards" true
          (Helpers.contains status "5/5 shards checkpointed");
        let resumed = exec s (Fmt.str "runner resume %s" file) in
        Alcotest.(check bool) "everything adopted" true
          (Helpers.contains resumed "(5 resumed)");
        Sys.remove file;
        let m = expect_error s (Fmt.str "runner status %s" file) in
        Alcotest.(check bool) "missing checkpoint is an error" true
          (String.length m > 0));
    Alcotest.test_case "on-error continue keeps scripts going" `Quick
      (fun () ->
        let s = Shell.create () in
        (match
           Shell.run_script s
             [ "on-error continue"; "load fig1a"; "bogus"; "area" ]
         with
         | Ok outputs ->
           let all = String.concat "\n" outputs in
           Alcotest.(check bool) "failure reported with its line" true
             (Helpers.contains all "error: line 3");
           Alcotest.(check bool) "later lines still ran" true
             (Helpers.contains all "gate equivalents")
         | Error m -> Alcotest.failf "script aborted: %s" m);
        (* on-error abort restores the stop-at-first-error default. *)
        let s2 = Shell.create () in
        match
          Shell.run_script s2
            [ "on-error continue"; "on-error abort"; "load fig1a"; "bogus" ]
        with
        | Ok _ -> Alcotest.fail "abort mode should stop the script"
        | Error m ->
          Alcotest.(check bool) "line provenance" true
            (Helpers.contains m "line 4"));
    Alcotest.test_case "mode command selects the engine backend" `Quick
      (fun () ->
        let s = Shell.create () in
        let set = exec s "mode reference" in
        Alcotest.(check bool) "confirms reference" true
          (Helpers.contains set "reference");
        Alcotest.(check string) "sticky" "mode: reference" (exec s "mode");
        (* Simulation commands run on the selected backend. *)
        let _ = exec s "load fig1a" in
        let out = exec s "throughput 100" in
        Alcotest.(check bool) "throughput still reports the sink" true
          (Helpers.contains out "out:"));
    Alcotest.test_case "mode arena matches reference reports" `Quick
      (fun () ->
        let report mode =
          let s = Shell.create () in
          let _ = exec s ("mode " ^ mode) in
          let _ = exec s "load rs-spec" in
          (exec s "throughput 200", exec s "stats 200")
        in
        let thr_r, stats_r = report "reference" in
        let thr_a, stats_a = report "arena" in
        Alcotest.(check string) "throughput identical" thr_r thr_a;
        Alcotest.(check string) "stats identical" stats_r stats_a);
    Alcotest.test_case "bare mode reflects the engine default" `Quick
      (fun () ->
        let s = Shell.create () in
        Alcotest.(check string) "default shown" "mode: arena" (exec s "mode");
        (* The retired levelized backend is an unknown mode. *)
        let m = expect_error s "mode levelized" in
        Alcotest.(check bool) "unknown mode" true
          (Helpers.contains m "unknown mode \"levelized\"");
        Alcotest.(check string) "selection survives" "mode: arena"
          (exec s "mode"));
    Alcotest.test_case "mode rejects unknown backends" `Quick (fun () ->
        let s = Shell.create () in
        let m = expect_error s "mode warp-speed" in
        Alcotest.(check bool) "names the bad mode" true
          (Helpers.contains m "warp-speed");
        Alcotest.(check bool) "lists the choices" true
          (Helpers.contains m "arena");
        (* A failed [mode] leaves the previous selection in place. *)
        let _ = exec s "mode reference" in
        let _ = expect_error s "mode bogus" in
        Alcotest.(check string) "selection survives" "mode: reference"
          (exec s "mode")) ]

let () =
  Alcotest.run "elastic-speculation"
    [ ("kernel.value", Test_kernel.value_suite);
      ("kernel.signal", Test_kernel.signal_suite);
      ("kernel.transfer", Test_kernel.transfer_suite);
      ("kernel.protocol", Test_kernel.protocol_suite);
      ("sched", Test_sched.suite);
      ("netlist", Test_netlist.suite);
      ("sim.basic", Test_sim_basic.suite);
      ("core.figures", Test_figures.suite);
      ("datapath", Test_datapath.suite);
      ("core.examples", Test_examples.suite);
      ("check", Test_check.suite);
      ("core.transform", Test_transform.suite);
      ("check.flow", Test_flow.suite);
      ("perf", Test_perf.suite);
      ("emitters", Test_emitters.suite);
      ("shell", Test_shell.suite);
      ("sim.property", Test_sim_property.suite);
      ("sim.equiv", Test_engine_equiv.suite);
      ("sim.arena", Test_arena.suite);
      ("golden", Test_golden.suite);
      ("trace", Test_trace.suite);
      ("sim.more", Test_sim_more.suite);
      ("fault", Test_fault.suite);
      ("fault.golden", Test_golden_run.suite);
      ("serial", Test_serial.suite);
      ("metrics", Test_metrics.suite);
      ("blif.cosim", Test_blif_cosim.suite);
      ("lint", Test_lint.suite);
      ("runner", Test_runner.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite) ]

let () =
  Alcotest.run "rma_race"
    [
      ("interval", Test_interval.suite);
      ("access", Test_access.suite);
      ("avl", Test_avl.suite);
      ("stores", Test_stores.suite);
      ("mpi_sim", Test_mpi_sim.suite);
      ("analysis", Test_analysis.suite);
      ("microbench", Test_microbench.suite);
      ("apps", Test_apps.suite);
      ("util", Test_util.suite);
      ("vclock", Test_vclock.suite);
      ("shadow", Test_shadow.suite);
      ("report", Test_report.suite);
      ("trace", Test_trace.suite);
      ("fuzz", Test_fuzz.suite);
      ("differential", Test_differential.suite);
      ("oracle", Test_oracle.suite);
      ("memory", Test_memory.suite);
      ("obs", Test_obs.suite);
      ("events", Test_events.suite);
      ("journal", Test_journal.suite);
      ("export", Test_export.suite);
      ("fault", Test_fault.suite);
      ("predictive", Test_predictive.suite);
      ("serve", Test_serve.suite);
      ("sim_step", Test_sim_step.suite);
      ("run_config", Test_run_config.suite);
      ("splice", Test_splice.suite);
      ("golden_regen", Golden_regen.suite);
    ]

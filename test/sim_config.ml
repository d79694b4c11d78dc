(* The simulator's cost model with every communication and analysis
   cost at zero, for tests that assert pure ordering behaviour. *)
let quiet_network =
  {
    Mpi_sim.Config.default with
    alpha_msg = 0.0;
    beta_byte = 0.0;
    alpha_rma = 0.0;
    alpha_sync = 0.0;
    analysis_overhead_scale = 0.0;
  }

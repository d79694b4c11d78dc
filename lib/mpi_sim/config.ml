type t = {
  alpha_msg : float;
  beta_byte : float;
  alpha_rma : float;
  alpha_sync : float;
  apply_early_probability : float;
  analysis_overhead_scale : float;
  analysis_self_timed : bool;
  memory_size : int;
}

let default =
  {
    alpha_msg = 1.5e-6;
    beta_byte = 4.0e-11;
    alpha_rma = 0.8e-6;
    alpha_sync = 2.0e-6;
    apply_early_probability = 0.5;
    analysis_overhead_scale = 1.0;
    analysis_self_timed = false;
    memory_size = 4096;
  }

let message_cost t ~bytes_count = t.alpha_msg +. (t.beta_byte *. float_of_int bytes_count)

let collective_cost t ~nprocs ~bytes_count =
  let steps = int_of_float (Float.ceil (Float.log2 (float_of_int (max 2 nprocs)))) in
  float_of_int steps *. message_cost t ~bytes_count

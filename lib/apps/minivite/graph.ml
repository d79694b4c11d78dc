type t = {
  n_global : int;
  nprocs : int;
  rank : int;
  owned_lo : int;
  owned_hi : int;
  adjacency : int array array;
  n_edges_local : int;
}

type params = {
  n_vertices : int;
  avg_degree : int;
  locality_window : int;
  long_range_fraction : float;
  hub_count : int;
  seed : int;
}

let default_params =
  {
    n_vertices = 64_000;
    avg_degree = 8;
    locality_window = 400;
    long_range_fraction = 0.1;
    hub_count = 8;
    seed = 2023;
  }

let partition ~n_global ~nprocs ~rank =
  let chunk = n_global / nprocs and rem = n_global mod nprocs in
  let lo = (rank * chunk) + min rank rem in
  let size = chunk + if rank < rem then 1 else 0 in
  (lo, lo + size - 1)

let owner_of ~n_global ~nprocs v =
  (* Inverse of [partition]; the first [rem] ranks own one extra vertex. *)
  let chunk = n_global / nprocs and rem = n_global mod nprocs in
  if chunk = 0 then min v (nprocs - 1)
  else begin
    let boundary = rem * (chunk + 1) in
    if v < boundary then v / (chunk + 1) else rem + ((v - boundary) / chunk)
  end

(* Degree varies around the average; hubs get long-range edges pointed at
   them, producing vertices many ranks re-read every iteration. *)
let neighbours_of params v =
  let rng = Rma_util.Prng.create ~seed:(params.seed + (v * 2654435761)) in
  let n = params.n_vertices in
  let deg = max 1 (Rma_util.Prng.int_in_range rng ~lo:(params.avg_degree / 2) ~hi:(params.avg_degree * 3 / 2)) in
  let pick_neighbour () =
    if Rma_util.Prng.bernoulli rng ~p:params.long_range_fraction then begin
      if params.hub_count > 0 && Rma_util.Prng.bernoulli rng ~p:0.5 then begin
        (* Hubs are spread evenly over the vertex range. *)
        let h = Rma_util.Prng.int rng ~bound:params.hub_count in
        h * (n / max 1 params.hub_count)
      end
      else Rma_util.Prng.int rng ~bound:n
    end
    else begin
      let w = params.locality_window in
      let delta = Rma_util.Prng.int_in_range rng ~lo:(-w) ~hi:w in
      (v + delta + n) mod n
    end
  in
  let seen = Hashtbl.create (deg * 2) in
  let out = ref [] in
  let attempts = ref 0 in
  while Hashtbl.length seen < deg && !attempts < deg * 4 do
    incr attempts;
    let u = pick_neighbour () in
    if u <> v && not (Hashtbl.mem seen u) then begin
      Hashtbl.add seen u ();
      out := u :: !out
    end
  done;
  Array.of_list (List.rev !out)

let generate params ~nprocs ~rank =
  let n_global = params.n_vertices in
  let owned_lo, owned_hi = partition ~n_global ~nprocs ~rank in
  let n_own = max 0 (owned_hi - owned_lo + 1) in
  let adjacency = Array.init n_own (fun i -> neighbours_of params (owned_lo + i)) in
  let n_edges_local = Array.fold_left (fun acc a -> acc + Array.length a) 0 adjacency in
  { n_global; nprocs; rank; owned_lo; owned_hi; adjacency; n_edges_local }

let owned t v = v >= t.owned_lo && v <= t.owned_hi

let ghosts t =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun neigh -> Array.iter (fun u -> if not (owned t u) then Hashtbl.replace seen u ()) neigh)
    t.adjacency;
  let out = Hashtbl.fold (fun v () acc -> v :: acc) seen [] in
  let arr = Array.of_list out in
  Array.sort compare arr;
  arr

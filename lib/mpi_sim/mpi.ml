open Rma_access

type win = Event.win_id

let loc ~file ~line operation = Debug_info.make ~file ~line ~operation

let default_loc operation = Debug_info.make ~file:"<unlocated>" ~line:0 ~operation

let op req = Effect.perform (Runtime.Op req)

let protocol_bug what =
  invalid_arg (Printf.sprintf "Mpi.%s: unexpected reply from the runtime" what)

let comm_rank () = match op Runtime.R_rank with Runtime.RInt r -> r | _ -> protocol_bug "comm_rank"
let comm_size () = match op Runtime.R_size with Runtime.RInt n -> n | _ -> protocol_bug "comm_size"

let compute seconds =
  match op (Runtime.R_compute seconds) with Runtime.RUnit -> () | _ -> protocol_bug "compute"

let alloc ?(label = "") ?(storage = Memory.Heap) ?(exposed = false) size =
  match op (Runtime.R_alloc { size; label; storage; exposed }) with
  | Runtime.RInt addr -> addr
  | _ -> protocol_bug "alloc"

let load ?loc:(l = default_loc "Load") ~addr ~len () =
  match op (Runtime.R_load { addr; len; loc = l }) with
  | Runtime.RBytes b -> b
  | _ -> protocol_bug "load"

let store ?loc:(l = default_loc "Store") ~addr data =
  match op (Runtime.R_store { addr; data; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "store"

let load_i64 ?loc ~addr () =
  let b = load ?loc ~addr ~len:8 () in
  Bytes.get_int64_le b 0

let store_i64 ?loc ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  store ?loc ~addr b

let win_create ~base ~size =
  match op (Runtime.R_win_create { base; size }) with
  | Runtime.RInt id -> id
  | _ -> protocol_bug "win_create"

let win_free win =
  match op (Runtime.R_win_free { win }) with Runtime.RUnit -> () | _ -> protocol_bug "win_free"

let win_lock_all ?loc:(l = default_loc "MPI_Win_lock_all") win =
  match op (Runtime.R_lock_all { win; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_lock_all"

let win_unlock_all ?loc:(l = default_loc "MPI_Win_unlock_all") win =
  match op (Runtime.R_unlock_all { win; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_unlock_all"

let win_flush_all ?loc:(l = default_loc "MPI_Win_flush_all") win =
  match op (Runtime.R_flush_all { win; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_flush_all"

let win_lock ?loc:(l = default_loc "MPI_Win_lock") ?(exclusive = false) win ~rank =
  match op (Runtime.R_lock { win; target = rank; exclusive; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_lock"

let win_unlock ?loc:(l = default_loc "MPI_Win_unlock") win ~rank =
  match op (Runtime.R_unlock { win; target = rank; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_unlock"

let win_fence ?loc:(l = default_loc "MPI_Win_fence") win =
  match op (Runtime.R_fence { win; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_fence"

let win_flush ?loc:(l = default_loc "MPI_Win_flush") win ~rank =
  match op (Runtime.R_flush { win; target = rank; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "win_flush"

let put ?loc:(l = default_loc "MPI_Put") win ~target ~target_disp ~origin_addr ~len =
  match op (Runtime.R_put { win; target; target_disp; origin_addr; len; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "put"

let get ?loc:(l = default_loc "MPI_Get") win ~target ~target_disp ~origin_addr ~len =
  match op (Runtime.R_get { win; target; target_disp; origin_addr; len; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "get"

let accumulate ?loc:(l = default_loc "MPI_Accumulate") win ~target ~target_disp ~origin_addr ~len
    ~op:o =
  match op (Runtime.R_accumulate { win; target; target_disp; origin_addr; len; op = o; loc = l }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "accumulate"

let send ~dst ~tag data =
  match op (Runtime.R_send { dst; tag; data }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "send"

let recv ?src ?tag () =
  match op (Runtime.R_recv { src; tag }) with
  | Runtime.RMsg m -> m
  | _ -> protocol_bug "recv"

let barrier () =
  match op Runtime.R_barrier with Runtime.RUnit -> () | _ -> protocol_bug "barrier"

let allreduce_int value ~op:o =
  match op (Runtime.R_allreduce { value = Int64.of_int value; op = o; as_float = false }) with
  | Runtime.RI64 v -> Int64.to_int v
  | _ -> protocol_bug "allreduce_int"

let allreduce_float value ~op:o =
  match op (Runtime.R_allreduce { value = Int64.bits_of_float value; op = o; as_float = true }) with
  | Runtime.RI64 v -> Int64.float_of_bits v
  | _ -> protocol_bug "allreduce_float"

let thread_spawn body =
  match op (Runtime.R_thread_spawn { body }) with
  | Runtime.RInt tid -> tid
  | _ -> protocol_bug "thread_spawn"

let thread_join tid =
  match op (Runtime.R_thread_join { tid }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "thread_join"

let signal sig_id =
  match op (Runtime.R_signal { sig_id }) with
  | Runtime.RUnit -> ()
  | _ -> protocol_bug "signal"

let wait sig_id =
  match op (Runtime.R_wait { sig_id }) with Runtime.RUnit -> () | _ -> protocol_bug "wait"

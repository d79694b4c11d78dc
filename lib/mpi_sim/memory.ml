open Rma_access

type storage = Stack | Heap

type allocation = {
  addr : int;
  len : int;
  storage : storage;
  exposed : bool;
  label : string;
}

type t = {
  mutable data : Bytes.t;
  mutable brk : int;  (* next free address *)
  mutable allocations : allocation list;  (* most recent first *)
}

let create ~size = { data = Bytes.make size '\000'; brk = 0; allocations = [] }

let size t = t.brk

let grow t needed =
  let cur = Bytes.length t.data in
  if needed > cur then begin
    let target = ref (Int.max cur 1024) in
    while !target < needed do
      target := !target * 2
    done;
    let next = Bytes.make !target '\000' in
    Bytes.blit t.data 0 next 0 cur;
    t.data <- next
  end

let alloc t ?(label = "") ?(storage = Heap) ?(exposed = false) n =
  if n <= 0 then invalid_arg "Memory.alloc: size must be positive";
  let addr = (t.brk + 7) land lnot 7 in
  grow t (addr + n);
  t.brk <- addr + n;
  t.allocations <- { addr; len = n; storage; exposed; label } :: t.allocations;
  addr

let rec find_allocation a = function
  | [] -> None
  | al :: rest -> if al.addr <= a && a < al.addr + al.len then Some al else find_allocation a rest

let allocation_at t a = find_allocation a t.allocations

let check_bounds t ~addr ~len ~what =
  if len < 0 || addr < 0 || addr + len > t.brk then
    invalid_arg (Printf.sprintf "Memory.%s: [%d, %d) outside reserved [0, %d)" what addr (addr + len) t.brk)

let read t ~addr ~len =
  check_bounds t ~addr ~len ~what:"read";
  Bytes.sub t.data addr len

let write t ~addr ~data =
  check_bounds t ~addr ~len:(Bytes.length data) ~what:"write";
  Bytes.blit data 0 t.data addr (Bytes.length data)

let read_int64 t ~addr =
  check_bounds t ~addr ~len:8 ~what:"read_int64";
  Bytes.get_int64_le t.data addr

let write_int64 t ~addr v =
  check_bounds t ~addr ~len:8 ~what:"write_int64";
  Bytes.set_int64_le t.data addr v

(* Bounds compared directly and closed functions only: no allocation. *)
let intersects_allocation (iv : Interval.t) al = al.addr <= iv.hi && iv.lo < al.addr + al.len

let rec exists_intersecting keep iv = function
  | [] -> false
  | al :: rest -> (keep al && intersects_allocation iv al) || exists_intersecting keep iv rest

let interval_exposed t iv = exists_intersecting (fun al -> al.exposed) iv t.allocations
let interval_on_stack t iv = exists_intersecting (fun al -> al.storage = Stack) iv t.allocations

type t = Local_read | Local_write | Rma_read | Rma_write | Rma_accumulate

let is_rma = function
  | Rma_read | Rma_write | Rma_accumulate -> true
  | Local_read | Local_write -> false
let is_local t = not (is_rma t)
let is_write = function
  | Local_write | Rma_write | Rma_accumulate -> true
  | Local_read | Rma_read -> false

let is_accumulate = function Rma_accumulate -> true | _ -> false

let strength = function
  | Local_read -> 0
  | Local_write -> 1
  | Rma_read -> 2
  | Rma_write -> 3
  | Rma_accumulate -> 4

let all = [ Local_read; Local_write; Rma_read; Rma_write; Rma_accumulate ]

let equal a b = Int.equal (strength a) (strength b)
let compare a b = Int.compare (strength a) (strength b)

let to_string = function
  | Local_read -> "LOCAL_READ"
  | Local_write -> "LOCAL_WRITE"
  | Rma_read -> "RMA_READ"
  | Rma_write -> "RMA_WRITE"
  | Rma_accumulate -> "RMA_ACCUMULATE"

let pp fmt t = Format.pp_print_string fmt (to_string t)

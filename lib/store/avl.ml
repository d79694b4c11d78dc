open Rma_access

(* Mutable nodes under one handle: insert, remove and the rotations
   relink them in place, and only insert allocates (one node). Each
   node caches its height and its subtree's maximum upper bound (the
   interval-tree augmentation). Legacy [search_path] verdicts depend on
   the shape, so the rebalancing decisions must match the frozen
   persistent oracle in test/avl_oracle.ml (DESIGN.md §18). *)
type tree =
  | Leaf
  | Node of {
      mutable elt : Access.t;
      mutable left : tree;
      mutable right : tree;
      mutable node_height : int;
      mutable max_hi : int;
    }

type t = { mutable root : tree; mutable count : int; mutable ops : int }

let create () = { root = Leaf; count = 0; ops = 0 }

let ops t = t.ops

let touch t = t.ops <- t.ops + 1

let size t = t.count

let is_empty t = t.count = 0

let height_of = function Leaf -> 0 | Node n -> n.node_height

let max_hi_of = function Leaf -> min_int | Node n -> n.max_hi

let compare_key a b =
  let c = Interval.compare_lo a.Access.interval b.Access.interval in
  if c <> 0 then c else Int.compare a.Access.seq b.Access.seq

(* Recompute a node's caches from its element and children. *)
let fix = function
  | Leaf -> ()
  | Node n ->
      n.node_height <- 1 + Int.max (height_of n.left) (height_of n.right);
      let children_hi = Int.max (max_hi_of n.left) (max_hi_of n.right) in
      n.max_hi <- Int.max (Interval.hi n.elt.Access.interval) children_hi

let balance = function Leaf -> 0 | Node n -> height_of n.left - height_of n.right

let rotate_right = function
  | Node ({ left = Node l as pivot; _ } as n) as node ->
      n.left <- l.right;
      fix node;
      l.right <- node;
      fix pivot;
      pivot
  | node -> node

let rotate_left = function
  | Node ({ right = Node r as pivot; _ } as n) as node ->
      n.right <- r.left;
      fix node;
      r.left <- node;
      fix pivot;
      pivot
  | node -> node

(* Refresh a changed node's caches, then restore its balance. *)
let rebalance node =
  fix node;
  match node with
  | Node n when balance node > 1 ->
      if balance n.left < 0 then n.left <- rotate_left n.left;
      rotate_right node
  | Node n when balance node < -1 ->
      if balance n.right > 0 then n.right <- rotate_right n.right;
      rotate_left node
  | _ -> node

let rec insert_node node elt =
  match node with
  | Leaf ->
      let max_hi = Interval.hi elt.Access.interval in
      Node { elt; left = Leaf; right = Leaf; node_height = 1; max_hi }
  | Node n ->
      if compare_key elt n.elt < 0 then n.left <- insert_node n.left elt
      else n.right <- insert_node n.right elt;
      rebalance node

let insert t elt =
  touch t;
  t.root <- insert_node t.root elt;
  t.count <- t.count + 1

let rec min_elt elt = function Leaf -> elt | Node n -> min_elt n.elt n.left

(* A node holding [elt] with at most one child is unlinked; a two-child
   one takes its successor's element, removed by the same keyed descent. *)
let rec remove_node t node elt =
  match node with
  | Leaf -> Leaf
  | Node n ->
      let c = compare_key elt n.elt in
      if c < 0 then begin
        n.left <- remove_node t n.left elt;
        rebalance node
      end
      else if c > 0 || not (Access.equal elt n.elt) then begin
        (* Same key, different payload: with unique tiebreaks this
           should not happen; keep searching to the right defensively. *)
        n.right <- remove_node t n.right elt;
        rebalance node
      end
      else begin
        match (n.left, n.right) with
        | Leaf, child | child, Leaf ->
            t.count <- t.count - 1;
            child
        | _, right ->
            let succ = min_elt n.elt right in
            n.right <- remove_node t right succ;
            n.elt <- succ;
            rebalance node
      end

let remove t elt =
  touch t;
  let before = t.count in
  t.root <- remove_node t t.root elt;
  t.count < before

(* The first [n] of sorted [l] with no physical twin in sorted [other]
   (one merge pass), and the rest of [l]. *)
let rec split_fresh n other l =
  match (l, other) with
  | x :: _, y :: other when n > 0 && compare_key x y > 0 -> split_fresh n other l
  | x :: l, y :: _ when n > 0 && x == y ->
      let fresh, rest = split_fresh n other l in
      (fresh, x :: rest)
  | x :: l, _ when n > 0 ->
      let fresh, rest = split_fresh (n - 1) other l in
      (x :: fresh, rest)
  | l, _ -> ([], l)

(* In a disjoint tree the window's elements are one in-order run, and every
   piece lies between its neighbours: overwriting it in order keeps the order. *)
let splice t window ~old pieces =
  let k = List.length old and m = List.length pieces in
  let dead, old = split_fresh (k - m) pieces old in
  let extra, pieces = split_fresh (m - k) old pieces in
  List.iter (fun e -> ignore (remove t e)) dead;
  if not (List.for_all2 ( == ) old pieces) then begin
    touch t;
    let rest = ref pieces in
    let rec walk = function
      | Node n as node when n.max_hi >= Interval.lo window ->
          let iv = n.elt.Access.interval in
          walk n.left;
          (if Interval.overlaps iv window then
             match !rest with
             | p :: tl ->
                 if p != n.elt then n.elt <- p;
                 rest := tl
             | [] -> invalid_arg "Avl.splice: run longer than [old]");
          if Interval.lo iv <= Interval.hi window then walk n.right;
          fix node
      | _ -> ()
    in
    walk t.root;
    if !rest <> [] then invalid_arg "Avl.splice: run shorter than [old]"
  end;
  List.iter (insert t) extra

let stab t query =
  touch t;
  let rec go node acc =
    match node with
    | Leaf -> acc
    | Node n ->
        if n.max_hi < Interval.lo query then acc
        else begin
          (* The right subtree is irrelevant once node lower bounds
             exceed the query's upper bound. *)
          let acc =
            if Interval.lo n.elt.Access.interval <= Interval.hi query then go n.right acc
            else acc
          in
          let acc =
            if Interval.overlaps n.elt.Access.interval query then n.elt :: acc else acc
          in
          go n.left acc
        end
  in
  go t.root []

type clearance = Blocked | Clear of { pred_hi : int; succ_lo : int }

(* Single root-to-leaf descent answering "is the window [query] free
   of stored bytes, and how far does the surrounding gap extend?".
   Abandoning a subtree on the left requires its cached max_hi to stay
   left of the window, which also makes the answer conservatively
   [Blocked] on trees that are not disjoint. *)
let clearance t query =
  touch t;
  let wlo = Interval.lo query and whi = Interval.hi query in
  let rec go node pred_hi succ_lo =
    match node with
    | Leaf -> Clear { pred_hi; succ_lo }
    | Node n ->
        let iv = n.elt.Access.interval in
        if Interval.hi iv < wlo then begin
          (* The node and its whole left subtree stay left of the
             window — unless some left descendant reaches into it, in
             which case the single-path answer would be wrong. *)
          let abandoned_hi = Int.max (Interval.hi iv) (max_hi_of n.left) in
          if abandoned_hi >= wlo then Blocked
          else go n.right (Int.max pred_hi abandoned_hi) succ_lo
        end
        else if Interval.lo iv > whi then
          (* Node and right subtree are right of the window; the
             node's own lower bound is the closest of them. *)
          go n.left pred_hi (Int.min succ_lo (Interval.lo iv))
        else Blocked
  in
  go t.root min_int max_int

let search_path t query =
  touch t;
  let rec go node acc =
    match node with
    | Leaf -> List.rev acc
    | Node n ->
        let acc = n.elt :: acc in
        if compare_key query n.elt < 0 then go n.left acc else go n.right acc
  in
  go t.root []

let fold t ~init ~f =
  let rec go node acc =
    match node with
    | Leaf -> acc
    | Node n ->
        let acc = go n.left acc in
        let acc = f acc n.elt in
        go n.right acc
  in
  go t.root init

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc a -> a :: acc))

let iter t f = fold t ~init:() ~f:(fun () a -> f a)

let clear t =
  t.root <- Leaf;
  t.count <- 0

let invariants_ok t =
  (* Each node against its children, and keys sorted in order. *)
  let prev = ref None and count = ref 0 in
  let rec ok = function
    | Leaf -> true
    | Node n as node ->
        ok n.left
        && (match !prev with Some p -> compare_key p n.elt <= 0 | None -> true)
        && begin
             prev := Some n.elt;
             incr count;
             let children_hi = Int.max (max_hi_of n.left) (max_hi_of n.right) in
             abs (balance node) <= 1
             && n.node_height = 1 + Int.max (height_of n.left) (height_of n.right)
             && n.max_hi = Int.max (Interval.hi n.elt.Access.interval) children_hi
           end
        && ok n.right
  in
  ok t.root && !count = t.count

let pp fmt t =
  let rec go node depth =
    match node with
    | Leaf -> ()
    | Node n ->
        go n.right (depth + 1);
        Format.fprintf fmt "%s%a@." (String.make (2 * depth) ' ') Access.pp n.elt;
        go n.left (depth + 1)
  in
  match t.root with
  | Leaf -> Format.fprintf fmt "<empty tree>@."
  | root -> go root 0

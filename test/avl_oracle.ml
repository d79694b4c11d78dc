(* A frozen copy of the persistent interval tree as it was before its
   nodes became mutable: immutable nodes with [option] children, every
   insert, remove and rotation rebuilding the root-to-leaf path. It is a
   test oracle only — the properties in [test_avl.ml] hold
   [Rma_store.Avl] to the same shapes, sizes, contents, operation counts
   and query answers after every step. Do not edit it to follow the
   library. *)

open Rma_access

module type ELEMENT = sig
  type t

  val interval : t -> Interval.t
  val tiebreak : t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (Elt : ELEMENT) = struct
  (* Nodes are immutable; the handle holds the current root. Each node
     caches its height and the maximum interval upper bound in its
     subtree (the classic interval-tree augmentation). *)
  type node = {
    elt : Elt.t;
    left : node option;
    right : node option;
    node_height : int;
    max_hi : int;
  }

  type t = { mutable root : node option; mutable count : int; mutable ops : int }

  let create () = { root = None; count = 0; ops = 0 }

  let ops t = t.ops

  let touch t = t.ops <- t.ops + 1

  let size t = t.count

  let is_empty t = t.count = 0

  let height_of = function None -> 0 | Some n -> n.node_height

  let max_hi_of = function None -> min_int | Some n -> n.max_hi

  let compare_key a b =
    let c = Interval.compare_lo (Elt.interval a) (Elt.interval b) in
    if c <> 0 then c else Int.compare (Elt.tiebreak a) (Elt.tiebreak b)

  let mk elt left right =
    {
      elt;
      left;
      right;
      node_height = 1 + max (height_of left) (height_of right);
      max_hi = max (Interval.hi (Elt.interval elt)) (max (max_hi_of left) (max_hi_of right));
    }

  let balance_factor n = height_of n.left - height_of n.right

  let rotate_right n =
    match n.left with
    | None -> n
    | Some l -> mk l.elt l.left (Some (mk n.elt l.right n.right))

  let rotate_left n =
    match n.right with
    | None -> n
    | Some r -> mk r.elt (Some (mk n.elt n.left r.left)) r.right

  let rebalance n =
    let bf = balance_factor n in
    if bf > 1 then begin
      match n.left with
      | Some l when height_of l.right > height_of l.left ->
          rotate_right (mk n.elt (Some (rotate_left l)) n.right)
      | _ -> rotate_right n
    end
    else if bf < -1 then begin
      match n.right with
      | Some r when height_of r.left > height_of r.right ->
          rotate_left (mk n.elt n.left (Some (rotate_right r)))
      | _ -> rotate_left n
    end
    else n

  let rec insert_node node elt =
    match node with
    | None -> mk elt None None
    | Some n ->
        let next =
          if compare_key elt n.elt < 0 then mk n.elt (Some (insert_node n.left elt)) n.right
          else mk n.elt n.left (Some (insert_node n.right elt))
        in
        rebalance next

  let insert t elt =
    touch t;
    t.root <- Some (insert_node t.root elt);
    t.count <- t.count + 1

  let rec min_node n = match n.left with None -> n | Some l -> min_node l

  let rec remove_node node elt ~removed =
    match node with
    | None -> None
    | Some n ->
        let c = compare_key elt n.elt in
        if c < 0 then Some (rebalance (mk n.elt (remove_node n.left elt ~removed) n.right))
        else if c > 0 then Some (rebalance (mk n.elt n.left (remove_node n.right elt ~removed)))
        else if not (Elt.equal elt n.elt) then
          (* Same key, different payload: with unique tiebreaks this
             should not happen; keep searching to the right defensively. *)
          Some (rebalance (mk n.elt n.left (remove_node n.right elt ~removed)))
        else begin
          removed := true;
          match (n.left, n.right) with
          | None, None -> None
          | Some l, None -> Some l
          | None, Some r -> Some r
          | Some _, Some r ->
              let succ = min_node r in
              let sub_removed = ref false in
              let right' = remove_node n.right succ.elt ~removed:sub_removed in
              Some (rebalance (mk succ.elt n.left right'))
        end

  let remove t elt =
    touch t;
    let removed = ref false in
    t.root <- remove_node t.root elt ~removed;
    if !removed then t.count <- t.count - 1;
    !removed

  let stab t query =
    touch t;
    let rec go node acc =
      match node with
      | None -> acc
      | Some n ->
          if n.max_hi < Interval.lo query then acc
          else begin
            (* The right subtree is irrelevant once node lower bounds
               exceed the query's upper bound. *)
            let acc =
              if Interval.lo (Elt.interval n.elt) <= Interval.hi query then go n.right acc
              else acc
            in
            let acc =
              if Interval.overlaps (Elt.interval n.elt) query then n.elt :: acc else acc
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
      | None -> Clear { pred_hi; succ_lo }
      | Some n ->
          let iv = Elt.interval n.elt in
          if Interval.hi iv < wlo then begin
            (* The node and its whole left subtree stay left of the
               window — unless some left descendant reaches into it, in
               which case the single-path answer would be wrong. *)
            let abandoned_hi = max (Interval.hi iv) (max_hi_of n.left) in
            if abandoned_hi >= wlo then Blocked
            else go n.right (max pred_hi abandoned_hi) succ_lo
          end
          else if Interval.lo iv > whi then
            (* Node and right subtree are right of the window; the
               node's own lower bound is the closest of them. *)
            go n.left pred_hi (min succ_lo (Interval.lo iv))
          else Blocked
    in
    go t.root min_int max_int

  let search_path t query =
    touch t;
    let rec go node acc =
      match node with
      | None -> List.rev acc
      | Some n ->
          let acc = n.elt :: acc in
          if compare_key query n.elt < 0 then go n.left acc else go n.right acc
    in
    go t.root []

  let fold t ~init ~f =
    let rec go node acc =
      match node with
      | None -> acc
      | Some n ->
          let acc = go n.left acc in
          let acc = f acc n.elt in
          go n.right acc
    in
    go t.root init

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc a -> a :: acc))

  let iter t f = fold t ~init:() ~f:(fun () a -> f a)

  let clear t =
    t.root <- None;
    t.count <- 0

  let height t = height_of t.root

  let invariants_ok t =
    (* One pass computing (height, max_hi, min_key, max_key) per subtree
       and validating order, balance and the caches along the way. *)
    let exception Violated in
    let rec check = function
      | None -> (0, min_int, None, None)
      | Some n ->
          let hl, ml, min_l, max_l = check n.left in
          let hr, mr, min_r, max_r = check n.right in
          let order_ok =
            (match max_l with None -> true | Some a -> compare_key a n.elt <= 0)
            && match min_r with None -> true | Some a -> compare_key n.elt a <= 0
          in
          if not order_ok then raise Violated;
          if abs (hl - hr) > 1 then raise Violated;
          if n.node_height <> 1 + max hl hr then raise Violated;
          if n.max_hi <> max (Interval.hi (Elt.interval n.elt)) (max ml mr) then raise Violated;
          let subtree_min = match min_l with Some _ -> min_l | None -> Some n.elt in
          let subtree_max = match max_r with Some _ -> max_r | None -> Some n.elt in
          (n.node_height, n.max_hi, subtree_min, subtree_max)
    in
    match check t.root with
    | _ -> fold t ~init:0 ~f:(fun acc _ -> acc + 1) = t.count
    | exception Violated -> false

  let pp fmt t =
    let rec go node depth =
      match node with
      | None -> ()
      | Some n ->
          go n.right (depth + 1);
          Format.fprintf fmt "%s%a@." (String.make (2 * depth) ' ') Elt.pp n.elt;
          go n.left (depth + 1)
    in
    match t.root with
    | None -> Format.fprintf fmt "<empty tree>@."
    | root -> go root 0
end

(* The access instance, as [Rma_store.Avl] builds it. *)
module Access_tree = Make (struct
  type t = Access.t

  let interval a = a.Access.interval
  let tiebreak a = a.Access.seq
  let equal = Access.equal
  let pp = Access.pp
end)

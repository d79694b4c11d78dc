open Rma_access
open Rma_store

let dbg line = Debug_info.make ~file:"avl.c" ~line ~operation:"op"

let acc ?(issuer = 0) ~seq lo hi kind =
  Access.make ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug:(dbg seq)

let local_read ~seq lo hi = acc ~seq lo hi Access_kind.Local_read

(* The tree's height, read off [Avl.pp]: each node is one line indented
   two spaces per level below the root. *)
let height t =
  if Avl.is_empty t then 0
  else
    String.split_on_char '\n' (Format.asprintf "%a" Avl.pp t)
    |> List.fold_left
         (fun h line ->
           let indent = String.length line - String.length (String.trim line) in
           if String.equal line "" then h else Int.max h ((indent / 2) + 1))
         0

let test_empty () =
  let t = Avl.create () in
  Alcotest.(check int) "size" 0 (Avl.size t);
  Alcotest.(check bool) "empty" true (Avl.is_empty t);
  Alcotest.(check (list pass)) "stab" [] (Avl.stab t (Interval.byte 0));
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t)

let test_insert_and_order () =
  let t = Avl.create () in
  List.iter (fun (lo, hi, seq) -> Avl.insert t (local_read ~seq lo hi))
    [ (5, 9, 1); (1, 2, 2); (7, 7, 3); (3, 3, 4); (0, 0, 5) ];
  Alcotest.(check int) "size" 5 (Avl.size t);
  let lows = List.map (fun a -> Interval.lo a.Access.interval) (Avl.to_list t) in
  Alcotest.(check (list int)) "in-order by lo" [ 0; 1; 3; 5; 7 ] lows;
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t)

let test_multiset_duplicates () =
  let t = Avl.create () in
  Avl.insert t (local_read ~seq:1 4 4);
  Avl.insert t (local_read ~seq:2 4 4);
  Avl.insert t (local_read ~seq:3 4 4);
  Alcotest.(check int) "all kept" 3 (Avl.size t);
  Alcotest.(check int) "stab finds all" 3 (List.length (Avl.stab t (Interval.byte 4)))

let test_stab_exact () =
  let t = Avl.create () in
  (* The Figure 5a layout: [4], then [2...12], then query [7]. *)
  Avl.insert t (local_read ~seq:1 4 4);
  Avl.insert t (acc ~seq:2 2 12 Access_kind.Rma_read);
  let hits = Avl.stab t (Interval.byte 7) in
  Alcotest.(check int) "wide off-path interval found" 1 (List.length hits);
  Alcotest.(check int) "it is [2...12]" 2 (Interval.lo (List.hd hits).Access.interval)

let test_search_path_misses_off_path () =
  (* The legacy lower-bound descent does NOT see [2...12] when looking up
     7 — the mechanism behind the Figure 5a false negative. *)
  let t = Avl.create () in
  Avl.insert t (local_read ~seq:1 4 4);
  Avl.insert t (acc ~seq:2 2 12 Access_kind.Rma_read);
  let path = Avl.search_path t (local_read ~seq:3 7 7) in
  let lows = List.map (fun a -> Interval.lo a.Access.interval) path in
  Alcotest.(check (list int)) "descent sees only the root" [ 4 ] lows

let test_remove () =
  let t = Avl.create () in
  let a = local_read ~seq:1 1 2 and b = local_read ~seq:2 3 4 and c = local_read ~seq:3 5 6 in
  List.iter (Avl.insert t) [ a; b; c ];
  Alcotest.(check bool) "remove present" true (Avl.remove t b);
  Alcotest.(check int) "size" 2 (Avl.size t);
  Alcotest.(check bool) "remove absent" false (Avl.remove t b);
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t);
  Alcotest.(check bool) "others intact" true
    (List.map (fun x -> x.Access.seq) (Avl.to_list t) = [ 1; 3 ])

let test_clear () =
  let t = Avl.create () in
  List.iter (Avl.insert t) [ local_read ~seq:1 1 2; local_read ~seq:2 3 4 ];
  Avl.clear t;
  Alcotest.(check int) "empty" 0 (Avl.size t);
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t)

let test_balance_sequential_inserts () =
  (* 1024 strictly increasing intervals: a plain BST would become a list;
     the AVL must stay logarithmic. *)
  let t = Avl.create () in
  for i = 0 to 1023 do
    Avl.insert t (local_read ~seq:i (i * 2) (i * 2))
  done;
  Alcotest.(check bool) "height <= 1.44 log2 n + 2" true (height t <= 16);
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t)

(* Property tests: random workloads preserve invariants and stab agrees
   with the naive scan. *)

let access_gen =
  QCheck.Gen.(
    let* lo = int_range 0 200 in
    let* len = int_range 1 30 in
    let* k = int_range 0 3 in
    let* seq = int_range 0 1_000_000 in
    return (acc ~seq lo (lo + len - 1) (List.nth Access_kind.all k)))

let arb_accesses =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map Access.to_string l))
    QCheck.Gen.(list_size (int_range 0 80) access_gen)

let prop_invariants_after_inserts =
  QCheck.Test.make ~name:"invariants hold after random inserts" ~count:200 arb_accesses
    (fun accesses ->
      let t = Avl.create () in
      List.iter (Avl.insert t) accesses;
      Avl.invariants_ok t && Avl.size t = List.length accesses)

let prop_stab_agrees_with_scan =
  QCheck.Test.make ~name:"stab equals naive overlap scan" ~count:200
    (QCheck.pair arb_accesses (QCheck.int_range 0 220))
    (fun (accesses, point) ->
      let t = Avl.create () in
      List.iter (Avl.insert t) accesses;
      let q = Interval.make ~lo:point ~hi:(point + 5) in
      let fast = List.sort compare (List.map (fun a -> a.Access.seq) (Avl.stab t q)) in
      let slow =
        List.sort compare
          (List.filter_map
             (fun a -> if Interval.overlaps a.Access.interval q then Some a.Access.seq else None)
             accesses)
      in
      fast = slow)

let prop_remove_inverse_of_insert =
  QCheck.Test.make ~name:"removing everything empties the tree" ~count:200 arb_accesses
    (fun accesses ->
      (* Give each access a distinct seq so removal is unambiguous. *)
      let accesses = List.mapi (fun i a -> { a with Access.seq = i }) accesses in
      let t = Avl.create () in
      List.iter (Avl.insert t) accesses;
      let all_removed = List.for_all (Avl.remove t) accesses in
      all_removed && Avl.is_empty t && Avl.invariants_ok t)

let prop_invariants_under_mixed_ops =
  QCheck.Test.make ~name:"invariants hold under interleaved insert/remove" ~count:100
    (QCheck.pair arb_accesses (QCheck.int_bound 1000))
    (fun (accesses, seed) ->
      let accesses = Array.of_list (List.mapi (fun i a -> { a with Access.seq = i }) accesses) in
      let rng = Rma_util.Prng.create ~seed in
      let t = Avl.create () in
      let live = ref [] in
      Array.iter
        (fun a ->
          Avl.insert t a;
          live := a :: !live;
          if Rma_util.Prng.bool rng then begin
            match !live with
            | victim :: rest ->
                ignore (Avl.remove t victim);
                live := rest
            | [] -> ()
          end)
        accesses;
      Avl.invariants_ok t && Avl.size t = List.length !live)

(* The in-place tree against a frozen copy of the persistent one: every
   operation sequence must build the same shape (legacy [search_path]
   verdicts depend on it) and answer every query the same way. Lower
   bounds come from a small range so equal lower bounds with different
   seqs are common; removals hit live elements, the root (a two-child
   node once the tree has three elements), absent elements and live keys
   carrying a different payload. *)
module Oracle = Avl_oracle.Access_tree

type tree_op =
  | Ins of int * int * int  (** lo, length, kind index *)
  | Del_live of int  (** index into the live elements, newest first *)
  | Del_root
  | Del_absent of int * int  (** lo, length; the seq is never inserted *)
  | Del_other_payload of int  (** a live key with a different kind *)

let tree_op_gen =
  QCheck.Gen.(
    let span = pair (int_range 0 24) (int_range 1 6) in
    frequency
      [
        (6, map2 (fun (lo, len) k -> Ins (lo, len, k)) span (int_bound 4));
        (2, map (fun i -> Del_live i) nat);
        (1, return Del_root);
        (1, map (fun (lo, len) -> Del_absent (lo, len)) span);
        (1, map (fun i -> Del_other_payload i) nat);
      ])

let show_tree_op = function
  | Ins (lo, len, k) -> Printf.sprintf "Ins(%d,%d,%d)" lo len k
  | Del_live i -> Printf.sprintf "Del_live %d" i
  | Del_root -> "Del_root"
  | Del_absent (lo, len) -> Printf.sprintf "Del_absent(%d,%d)" lo len
  | Del_other_payload i -> Printf.sprintf "Del_other_payload %d" i

(* Each step is an operation and the query window probed after it. *)
let arb_tree_steps =
  let show (op, (qlo, qlen)) = Printf.sprintf "%s?[%d+%d]" (show_tree_op op) qlo qlen in
  let query = QCheck.Gen.(pair (int_range (-2) 32) (int_range 1 8)) in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show l))
    QCheck.Gen.(list_size (int_range 0 120) (pair tree_op_gen query))

let same_accesses a b = List.length a = List.length b && List.for_all2 Access.equal a b

let clearance_of_avl = function
  | Avl.Blocked -> None
  | Avl.Clear { pred_hi; succ_lo } -> Some (pred_hi, succ_lo)

let clearance_of_oracle = function
  | Oracle.Blocked -> None
  | Oracle.Clear { pred_hi; succ_lo } -> Some (pred_hi, succ_lo)

let prop_matches_persistent_oracle =
  QCheck.Test.make ~name:"in-place tree matches the persistent oracle step by step" ~count:300
    arb_tree_steps (fun steps ->
      let t = Avl.create () and o = Oracle.create () in
      let live = ref [] in
      let remove a =
        let r = Avl.remove t a and ro = Oracle.remove o a in
        if r <> ro then QCheck.Test.fail_reportf "remove answered %b, oracle %b" r ro;
        if r then live := List.filter (fun x -> not (Access.equal x a)) !live
      in
      List.iteri
        (fun i (op, (qlo, qlen)) ->
          (match op with
          | Ins (lo, len, k) ->
              let a = acc ~seq:i lo (lo + len - 1) (List.nth Access_kind.all k) in
              Avl.insert t a;
              Oracle.insert o a;
              live := a :: !live
          | Del_live j -> (
              match !live with [] -> () | l -> remove (List.nth l (j mod List.length l)))
          | Del_root -> (
              (* Both trees descend, so their [ops] stay in step. *)
              let probe = local_read ~seq:(-1) 0 0 in
              ignore (Avl.search_path t probe);
              match Oracle.search_path o probe with root :: _ -> remove root | [] -> ())
          | Del_absent (lo, len) -> remove (local_read ~seq:(1_000_000 + i) lo (lo + len - 1))
          | Del_other_payload j -> (
              match !live with
              | [] -> ()
              | l ->
                  let a = List.nth l (j mod List.length l) in
                  let kind =
                    Access_kind.(if equal a.Access.kind Rma_write then Local_read else Rma_write)
                  in
                  remove { a with Access.kind }));
          let q = Interval.make ~lo:qlo ~hi:(qlo + qlen - 1) in
          let probe = local_read ~seq:(500_000 + i) qlo (qlo + qlen - 1) in
          let checks =
            [
              ("pp", Format.asprintf "%a" Avl.pp t = Format.asprintf "%a" Oracle.pp o);
              ("height", height t = Oracle.height o);
              ("size", Avl.size t = Oracle.size o);
              ("to_list", same_accesses (Avl.to_list t) (Oracle.to_list o));
              ("search_path", same_accesses (Avl.search_path t probe) (Oracle.search_path o probe));
              ("stab", same_accesses (Avl.stab t q) (Oracle.stab o q));
              ( "clearance",
                clearance_of_avl (Avl.clearance t q) = clearance_of_oracle (Oracle.clearance o q) );
              ("ops", Avl.ops t = Oracle.ops o);
              ("invariants", Avl.invariants_ok t);
            ]
          in
          List.iter
            (fun (what, ok) -> if not ok then QCheck.Test.fail_reportf "step %d: %s differs" i what)
            checks)
        steps;
      true)

(* Only [insert] allocates, one node (five fields and a header); [remove]
   relinks nodes in place. Measured on a tree of 4096 nodes, where a
   path-copying tree would rebuild a dozen nodes per operation. *)
let test_in_place_allocation () =
  let n = 4096 in
  let elements =
    Array.init n (fun i ->
        let lo = i * 7919 mod n * 4 in
        local_read ~seq:i lo (lo + 2))
  in
  let t = Avl.create () in
  Array.iter (Avl.insert t) elements;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = words (fun () -> ()) in
  let victims = Array.init 512 (fun i -> elements.(i * 8 + 3)) in
  let removed =
    words (fun () ->
        for i = 0 to Array.length victims - 1 do
          ignore (Avl.remove t victims.(i))
        done)
  in
  Alcotest.(check int) "victims removed" (n - 512) (Avl.size t);
  Alcotest.(check (float 0.)) "remove allocates nothing" 0. (removed -. idle);
  let inserted =
    words (fun () ->
        for i = 0 to Array.length victims - 1 do
          Avl.insert t victims.(i)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "insert allocates at most one node (%.0f words / 512)" (inserted -. idle))
    true
    (inserted -. idle <= 512. *. 6.);
  Alcotest.(check int) "size restored" n (Avl.size t);
  Alcotest.(check bool) "invariants" true (Avl.invariants_ok t)

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "insert and in-order traversal" `Quick test_insert_and_order;
    Alcotest.test_case "multiset duplicates" `Quick test_multiset_duplicates;
    Alcotest.test_case "stab finds off-path wide intervals" `Quick test_stab_exact;
    Alcotest.test_case "search path misses off-path intervals (Fig 5a)" `Quick
      test_search_path_misses_off_path;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "balance under sequential inserts" `Quick test_balance_sequential_inserts;
    QCheck_alcotest.to_alcotest prop_invariants_after_inserts;
    QCheck_alcotest.to_alcotest prop_stab_agrees_with_scan;
    QCheck_alcotest.to_alcotest prop_remove_inverse_of_insert;
    QCheck_alcotest.to_alcotest prop_invariants_under_mixed_ops;
    QCheck_alcotest.to_alcotest prop_matches_persistent_oracle;
    Alcotest.test_case "insert allocates one node, remove none" `Quick test_in_place_allocation;
  ]

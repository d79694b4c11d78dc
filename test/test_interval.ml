open Rma_access

let iv lo hi = Interval.make ~lo ~hi

let test_make_and_accessors () =
  let i = iv 2 12 in
  Alcotest.(check int) "lo" 2 (Interval.lo i);
  Alcotest.(check int) "hi" 12 (Interval.hi i);
  Alcotest.(check int) "length" 11 (Interval.length i);
  Alcotest.(check int) "byte length" 1 (Interval.length (Interval.byte 7))

let test_make_rejects_inverted () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo 5 > hi 4") (fun () ->
      ignore (iv 5 4))

let test_of_range () =
  let i = Interval.of_range ~addr:10 ~len:4 in
  Alcotest.(check int) "lo" 10 (Interval.lo i);
  Alcotest.(check int) "hi" 13 (Interval.hi i);
  Alcotest.check_raises "len 0" (Invalid_argument "Interval.of_range: len 0 <= 0") (fun () ->
      ignore (Interval.of_range ~addr:0 ~len:0))

let test_contains () =
  let i = iv 3 7 in
  Alcotest.(check bool) "inside" true (Interval.contains i 5);
  Alcotest.(check bool) "lo edge" true (Interval.contains i 3);
  Alcotest.(check bool) "hi edge" true (Interval.contains i 7);
  Alcotest.(check bool) "below" false (Interval.contains i 2);
  Alcotest.(check bool) "above" false (Interval.contains i 8)

let test_overlaps () =
  Alcotest.(check bool) "disjoint" false (Interval.overlaps (iv 0 2) (iv 4 6));
  Alcotest.(check bool) "adjacent do not overlap" false (Interval.overlaps (iv 0 2) (iv 3 6));
  Alcotest.(check bool) "single shared byte" true (Interval.overlaps (iv 0 3) (iv 3 6));
  Alcotest.(check bool) "nested" true (Interval.overlaps (iv 2 12) (iv 4 4));
  Alcotest.(check bool) "symmetric" true (Interval.overlaps (iv 4 4) (iv 2 12))

let test_adjacent () =
  Alcotest.(check bool) "touching" true (Interval.adjacent (iv 0 2) (iv 3 6));
  Alcotest.(check bool) "reversed" true (Interval.adjacent (iv 3 6) (iv 0 2));
  Alcotest.(check bool) "overlapping not adjacent" false (Interval.adjacent (iv 0 3) (iv 3 6));
  Alcotest.(check bool) "gap of one" false (Interval.adjacent (iv 0 2) (iv 4 6))

let opt_interval_testable =
  let print fmt = function
    | None -> Format.fprintf fmt "None"
    | Some i -> Interval.pp fmt i
  in
  let eq a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> Interval.equal a b
    | _ -> false
  in
  Alcotest.testable print eq

let check_opt_interval name expected actual =
  Alcotest.check opt_interval_testable name expected actual

let test_intersection () =
  check_opt_interval "plain" (Some (iv 4 6)) (Interval.intersection (iv 0 6) (iv 4 9));
  check_opt_interval "nested" (Some (iv 4 4)) (Interval.intersection (iv 2 12) (iv 4 4));
  check_opt_interval "disjoint" None (Interval.intersection (iv 0 2) (iv 4 6));
  check_opt_interval "adjacent" None (Interval.intersection (iv 0 2) (iv 3 6))

let test_remainders () =
  (* Fragmenting [2...12] around a cut [4...4]: left [2...3], right
     [5...12] — exactly the Figure 5b split. *)
  let outer = iv 2 12 and cut = iv 4 4 in
  check_opt_interval "left" (Some (iv 2 3)) (Interval.left_remainder ~outer ~cut);
  check_opt_interval "right" (Some (iv 5 12)) (Interval.right_remainder ~outer ~cut);
  check_opt_interval "no left" None (Interval.left_remainder ~outer:(iv 4 8) ~cut:(iv 2 5));
  check_opt_interval "no right" None (Interval.right_remainder ~outer:(iv 4 8) ~cut:(iv 6 12))

let test_hull_and_merge () =
  Alcotest.(check bool) "hull" true (Interval.equal (iv 0 9) (Interval.hull (iv 0 3) (iv 7 9)))

let test_compare_lo () =
  Alcotest.(check bool) "by lo" true (Interval.compare_lo (iv 1 9) (iv 2 3) < 0);
  Alcotest.(check bool) "tie by hi" true (Interval.compare_lo (iv 1 3) (iv 1 9) < 0);
  Alcotest.(check int) "equal" 0 (Interval.compare_lo (iv 1 3) (iv 1 3))

let test_pp () =
  Alcotest.(check string) "range" "[2...12]" (Interval.to_string (iv 2 12));
  Alcotest.(check string) "single" "[4]" (Interval.to_string (iv 4 4))

(* Property tests. *)

let interval_gen =
  QCheck.Gen.(
    let* lo = int_range (-1000) 1000 in
    let* len = int_range 1 64 in
    return (Interval.make ~lo ~hi:(lo + len - 1)))

let arb_interval = QCheck.make ~print:Interval.to_string interval_gen

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"overlaps symmetric" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) -> Interval.overlaps a b = Interval.overlaps b a)

let prop_intersection_within =
  QCheck.Test.make ~name:"intersection within both" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) ->
      match Interval.intersection a b with
      | None -> not (Interval.overlaps a b)
      | Some i ->
          Interval.lo i >= max (Interval.lo a) (Interval.lo b)
          && Interval.hi i <= min (Interval.hi a) (Interval.hi b))

let prop_remainders_partition =
  QCheck.Test.make ~name:"left + intersection + right partition the outer interval" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (outer, cut) ->
      QCheck.assume (Interval.overlaps outer cut);
      let pieces =
        List.filter_map
          (fun x -> x)
          [
            Interval.left_remainder ~outer ~cut;
            Interval.intersection outer cut;
            Interval.right_remainder ~outer ~cut;
          ]
      in
      let total = List.fold_left (fun acc i -> acc + Interval.length i) 0 pieces in
      let sorted = List.sort Interval.compare_lo pieces in
      let rec disjoint_adjacent = function
        | a :: (b :: _ as rest) -> Interval.hi a + 1 = Interval.lo b && disjoint_adjacent rest
        | _ -> true
      in
      total = Interval.length outer && disjoint_adjacent sorted)

let prop_adjacent_never_overlaps =
  QCheck.Test.make ~name:"adjacent implies not overlapping" ~count:500
    (QCheck.pair arb_interval arb_interval)
    (fun (a, b) -> (not (Interval.adjacent a b)) || not (Interval.overlaps a b))

let suite =
  [
    Alcotest.test_case "make and accessors" `Quick test_make_and_accessors;
    Alcotest.test_case "make rejects inverted bounds" `Quick test_make_rejects_inverted;
    Alcotest.test_case "of_range" `Quick test_of_range;
    Alcotest.test_case "contains" `Quick test_contains;
    Alcotest.test_case "overlaps" `Quick test_overlaps;
    Alcotest.test_case "adjacent" `Quick test_adjacent;
    Alcotest.test_case "intersection" `Quick test_intersection;
    Alcotest.test_case "remainders (Figure 5b split)" `Quick test_remainders;
    Alcotest.test_case "hull and merge" `Quick test_hull_and_merge;
    Alcotest.test_case "compare_lo" `Quick test_compare_lo;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_overlap_symmetric;
    QCheck_alcotest.to_alcotest prop_intersection_within;
    QCheck_alcotest.to_alcotest prop_remainders_partition;
    QCheck_alcotest.to_alcotest prop_adjacent_never_overlaps;
  ]

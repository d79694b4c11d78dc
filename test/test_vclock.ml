open Rma_vclock

let test_create_and_get () =
  let c = Vclock.create ~nprocs:4 in
  for i = 0 to 3 do
    Alcotest.(check int) "zero" 0 (Vclock.get c i)
  done;
  Alcotest.(check int) "missing component" 0 (Vclock.get c 99)

let test_tick () =
  let c = Vclock.create ~nprocs:2 in
  let c = Vclock.tick c 0 in
  let c = Vclock.tick c 0 in
  let c = Vclock.tick c 1 in
  Alcotest.(check int) "component 0" 2 (Vclock.get c 0);
  Alcotest.(check int) "component 1" 1 (Vclock.get c 1)

let test_merge () =
  let a = Vclock.set (Vclock.set Vclock.empty 0 3) 1 1 in
  let b = Vclock.set (Vclock.set Vclock.empty 0 1) 2 5 in
  let m = Vclock.merge a b in
  Alcotest.(check int) "max of 0" 3 (Vclock.get m 0);
  Alcotest.(check int) "kept 1" 1 (Vclock.get m 1);
  Alcotest.(check int) "kept 2" 5 (Vclock.get m 2)

(* Componentwise [<=]: [a] happens before [b] or equals it. *)
let leq a b = Vclock.happens_before a b || Vclock.equal a b

(* Neither clock is at or below the other. *)
let concurrent a b = (not (leq a b)) && not (leq b a)

let test_happens_before () =
  let a = Vclock.set Vclock.empty 0 1 in
  let b = Vclock.set (Vclock.set Vclock.empty 0 1) 1 1 in
  Alcotest.(check bool) "a < b" true (Vclock.happens_before a b);
  Alcotest.(check bool) "b not < a" false (Vclock.happens_before b a);
  Alcotest.(check bool) "a not < a" false (Vclock.happens_before a a);
  Alcotest.(check bool) "not concurrent" false (concurrent a b)

let test_concurrent () =
  let a = Vclock.set Vclock.empty 0 1 in
  let b = Vclock.set Vclock.empty 1 1 in
  Alcotest.(check bool) "concurrent" true (concurrent a b);
  Alcotest.(check bool) "no hb" false (Vclock.happens_before a b || Vclock.happens_before b a)

let test_stamps () =
  let writer = Vclock.tick (Vclock.create ~nprocs:2) 0 in
  let stamp = Vclock.stamp_of writer ~thread:0 in
  let ignorant = Vclock.create ~nprocs:2 in
  let informed = Vclock.merge ignorant writer in
  Alcotest.(check bool) "unknown to ignorant" false (Vclock.stamp_observed stamp ~by:ignorant);
  Alcotest.(check bool) "known after merge" true (Vclock.stamp_observed stamp ~by:informed)

let test_size_counts_nonzero () =
  let c = Vclock.set (Vclock.set (Vclock.create ~nprocs:8) 3 1) 5 2 in
  Alcotest.(check int) "two live components" 2 (List.length (Vclock.components c))

let clock_gen =
  QCheck.Gen.(
    let* entries = list_size (int_range 0 6) (pair (int_range 0 9) (int_range 1 5)) in
    return (List.fold_left (fun c (i, v) -> Vclock.set c i (max v (Vclock.get c i))) Vclock.empty entries))

let arb_clock = QCheck.make ~print:(fun c -> Format.asprintf "%a" Vclock.pp c) clock_gen

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge is an upper bound" ~count:300 (QCheck.pair arb_clock arb_clock)
    (fun (a, b) ->
      let m = Vclock.merge a b in
      leq a m && leq b m)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300 (QCheck.pair arb_clock arb_clock)
    (fun (a, b) -> Vclock.equal (Vclock.merge a b) (Vclock.merge b a))

let prop_hb_irreflexive_antisymmetric =
  QCheck.Test.make ~name:"happens_before is a strict order" ~count:300
    (QCheck.pair arb_clock arb_clock)
    (fun (a, b) ->
      (not (Vclock.happens_before a a))
      && not (Vclock.happens_before a b && Vclock.happens_before b a))

let prop_exactly_one_relation =
  QCheck.Test.make ~name:"hb/concurrent/equal partition" ~count:300
    (QCheck.pair arb_clock arb_clock)
    (fun (a, b) ->
      let relations =
        [
          Vclock.happens_before a b;
          Vclock.happens_before b a;
          Vclock.equal a b;
          concurrent a b;
        ]
      in
      List.length (List.filter (fun x -> x) relations) = 1)

let suite =
  [
    Alcotest.test_case "create and get" `Quick test_create_and_get;
    Alcotest.test_case "tick" `Quick test_tick;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "happens before" `Quick test_happens_before;
    Alcotest.test_case "concurrent" `Quick test_concurrent;
    Alcotest.test_case "stamps" `Quick test_stamps;
    Alcotest.test_case "size counts non-zero" `Quick test_size_counts_nonzero;
    QCheck_alcotest.to_alcotest prop_merge_upper_bound;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_hb_irreflexive_antisymmetric;
    QCheck_alcotest.to_alcotest prop_exactly_one_relation;
  ]

(* --- Rank x thread component keys and per-thread clocks (PR 8) --- *)

(* The inverse of [Vclock.rt_key]: rank ids are thread 0 of their rank;
   spawned threads are negative keys, rank-major. *)
let rt_decode key =
  if key >= 0 then (key, 0) else (-key / Vclock.threads_per_rank, -key mod Vclock.threads_per_rank)

let test_rt_key_encoding () =
  (* Thread 0 is the plain rank id, so pre-hybrid clocks are unchanged. *)
  for rank = 0 to 5 do
    Alcotest.(check int) "thread 0 is the rank" rank (Vclock.rt_key ~rank ~thread:0)
  done;
  (* Round-trip for a spread of rank/thread pairs. *)
  List.iter
    (fun (rank, thread) ->
      let key = Vclock.rt_key ~rank ~thread in
      Alcotest.(check (pair int int)) "rank and thread round-trip" (rank, thread) (rt_decode key);
      if thread > 0 then
        Alcotest.(check bool) "nonzero threads use negative keys" true (key < 0))
    [ (0, 0); (0, 1); (3, 0); (3, 7); (17, 1023); (1023, 1) ];
  (* Out-of-range thread ids are rejected, not silently aliased. *)
  Alcotest.check_raises "thread out of range"
    (Invalid_argument
       (Printf.sprintf "Vclock.rt_key: thread %d outside [0, %d)" Vclock.threads_per_rank
          Vclock.threads_per_rank))
    (fun () -> ignore (Vclock.rt_key ~rank:0 ~thread:Vclock.threads_per_rank))

let test_rt_key_injective () =
  (* No two (rank, thread) pairs share a key, and no thread>0 key ever
     collides with a plain rank id or a MUST-RMA virtual id (both are
     non-negative). *)
  let seen = Hashtbl.create 256 in
  for rank = 0 to 15 do
    for thread = 0 to 15 do
      let key = Vclock.rt_key ~rank ~thread in
      (match Hashtbl.find_opt seen key with
      | Some other ->
          Alcotest.failf "key %d collides: (%d,%d) and %s" key rank thread other
      | None -> ());
      Hashtbl.replace seen key (Printf.sprintf "(%d,%d)" rank thread)
    done
  done

(* Clocks over mixed rank-and-thread component keys. *)
let rt_clock_gen =
  QCheck.Gen.(
    let* entries =
      list_size (int_range 0 6)
        (triple (int_range 0 4) (int_range 0 3) (int_range 1 5))
    in
    return
      (List.fold_left
         (fun c (rank, thread, v) ->
           let key = Vclock.rt_key ~rank ~thread in
           Vclock.set c key (max v (Vclock.get c key)))
         Vclock.empty entries))

let arb_rt_clock = QCheck.make ~print:(fun c -> Format.asprintf "%a" Vclock.pp c) rt_clock_gen

let prop_rt_join_commutative =
  QCheck.Test.make ~name:"thread-keyed join commutative" ~count:300
    (QCheck.pair arb_rt_clock arb_rt_clock)
    (fun (a, b) -> Vclock.equal (Vclock.merge a b) (Vclock.merge b a))

let prop_rt_join_associative =
  QCheck.Test.make ~name:"thread-keyed join associative" ~count:300
    (QCheck.triple arb_rt_clock arb_rt_clock arb_rt_clock)
    (fun (a, b, c) ->
      Vclock.equal (Vclock.merge a (Vclock.merge b c)) (Vclock.merge (Vclock.merge a b) c))

let prop_rt_join_idempotent =
  QCheck.Test.make ~name:"thread-keyed join idempotent" ~count:300 arb_rt_clock (fun a ->
      Vclock.equal (Vclock.merge a a) a)

let prop_rt_hb_antisymmetric =
  QCheck.Test.make ~name:"thread-keyed happens_before antisymmetric" ~count:300
    (QCheck.pair arb_rt_clock arb_rt_clock)
    (fun (a, b) ->
      (not (Vclock.happens_before a a))
      && not (Vclock.happens_before a b && Vclock.happens_before b a))

let prop_rt_components_roundtrip =
  QCheck.Test.make ~name:"components round-trip thread keys" ~count:300 arb_rt_clock (fun a ->
      let comps = Vclock.components a in
      Vclock.equal a (List.fold_left (fun c (i, v) -> Vclock.set c i v) Vclock.empty comps)
      && List.for_all
           (fun (key, v) ->
             let rank, thread = rt_decode key in
             v > 0 && Vclock.rt_key ~rank ~thread = key)
           comps)

let prop_rt_tick_monotone =
  QCheck.Test.make ~name:"tick on a thread key is strictly monotone" ~count:300
    (QCheck.triple arb_rt_clock (QCheck.int_range 0 4) (QCheck.int_range 0 3))
    (fun (a, rank, thread) ->
      let key = Vclock.rt_key ~rank ~thread in
      let t = Vclock.tick a key in
      leq a t && Vclock.happens_before a t && Vclock.get t key = Vclock.get a key + 1)

let suite =
  suite
  @ [
      Alcotest.test_case "rt_key encoding round-trips" `Quick test_rt_key_encoding;
      Alcotest.test_case "rt_key injective, disjoint from rank ids" `Quick test_rt_key_injective;
      QCheck_alcotest.to_alcotest prop_rt_join_commutative;
      QCheck_alcotest.to_alcotest prop_rt_join_associative;
      QCheck_alcotest.to_alcotest prop_rt_join_idempotent;
      QCheck_alcotest.to_alcotest prop_rt_hb_antisymmetric;
      QCheck_alcotest.to_alcotest prop_rt_components_roundtrip;
      QCheck_alcotest.to_alcotest prop_rt_tick_monotone;
    ]

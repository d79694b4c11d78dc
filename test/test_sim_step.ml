open Mpi_sim
open Rma_access

(* The simulator's per-access step (DESIGN.md §19): the ring run queue
   against the frozen Queue pick, the per-rank classification cache
   against the uncached scans, and dispatch without a wall clock. *)

module Rq = Run_queue

(* ------------------------------------------------------------------ *)
(* Ring run queue vs the frozen Queue pick                              *)
(* ------------------------------------------------------------------ *)

type rq_op = Add | Pick | Drain

let show_rq_op = function Add -> "A" | Pick -> "P" | Drain -> "D"

(* Per case, random weights: some sequences grow the queue well past the
   ring's initial 16 slots, others keep it short and wrap the head
   around many times. *)
let arb_rq_steps =
  let gen =
    QCheck.Gen.(
      triple small_nat (int_range 1 6) (int_range 1 6) >>= fun (seed, wa, wp) ->
      map
        (fun ops -> (seed, ops))
        (list_size (int_range 0 300)
           (frequency [ (wa, return Add); (wp, return Pick); (1, return Drain) ])))
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "" (List.map show_rq_op ops)))
    gen

(* The ring's content, oldest first, left in place. *)
let ring_contents q =
  let l = List.init (Rq.length q) (fun _ -> Rq.take q 0) in
  List.iter (Rq.add q) l;
  l

(* Replays [ops] on both queues, drawing each pick's index from one
   seeded stream per side as the scheduler does. Returns the longest
   queue seen. *)
let replay_rq ~seed ops =
  let ring = Rq.create ~dummy:(-1) and oracle = Run_queue_oracle.create () in
  let ring_rng = Rma_util.Prng.create ~seed and oracle_rng = Rma_util.Prng.create ~seed in
  let next = ref 0 and longest = ref 0 in
  let same_contents step =
    let r = ring_contents ring and o = Run_queue_oracle.to_list oracle in
    if r <> o then
      QCheck.Test.fail_reportf "step %d: ring [%s], oracle [%s]" step
        (String.concat ";" (List.map string_of_int r))
        (String.concat ";" (List.map string_of_int o))
  in
  List.iteri
    (fun step op ->
      (match op with
      | Add ->
          Rq.add ring !next;
          Run_queue_oracle.add oracle !next;
          incr next
      | Pick ->
          if Rq.length ring > 0 then begin
            let n = Rq.length ring in
            let idx = if n <= 1 then 0 else Rma_util.Prng.int ring_rng ~bound:n in
            let r = Rq.take ring idx and o = Run_queue_oracle.pick oracle oracle_rng in
            if r <> o then QCheck.Test.fail_reportf "step %d: ring picked %d, oracle %d" step r o
          end
      | Drain -> same_contents step);
      if Rq.length ring <> Run_queue_oracle.length oracle then
        QCheck.Test.fail_reportf "step %d: lengths differ" step;
      longest := Int.max !longest (Rq.length ring))
    ops;
  same_contents (List.length ops);
  !longest

let prop_ring_matches_oracle =
  QCheck.Test.make ~name:"ring run queue picks and orders like the frozen Queue pick" ~count:300
    arb_rq_steps (fun (seed, ops) ->
      ignore (replay_rq ~seed ops);
      true)

let test_ring_grows_and_wraps () =
  (* Forty adds with a pick after every third: the ring grows twice and
     its head wraps; then drain it completely. *)
  let ops =
    List.concat (List.init 40 (fun i -> if i mod 3 = 2 then [ Add; Pick ] else [ Add ]))
    @ List.init 40 (fun _ -> Pick)
  in
  let longest = replay_rq ~seed:9 ops in
  Alcotest.(check bool) "grew past the initial 16 slots" true (longest > 16)

(* Queues one fresh box per slot of [seen], held there weakly, picking with
   seeded indices after every third add, then drains the queue. Not
   inlined, so no box stays in a register or stack slot of the caller. *)
let[@inline never] cycle_boxes q seen ~seed =
  let rng = Rma_util.Prng.create ~seed in
  let pick () =
    let n = Rq.length q in
    let b = Rq.take q (if n <= 1 then 0 else Rma_util.Prng.int rng ~bound:n) in
    incr b
  in
  for i = 0 to Weak.length seen - 1 do
    let b = ref i in
    Weak.set seen i (Some b);
    Rq.add q b;
    if i mod 3 = 2 then pick ()
  done;
  while Rq.length q > 0 do
    pick ()
  done

let test_taken_elements_are_collected () =
  let q = Rq.create ~dummy:(ref (-1)) and seen = Weak.create 60 in
  cycle_boxes q seen ~seed:11;
  Gc.full_major ();
  let kept = List.filter (Weak.check seen) (List.init (Weak.length seen) Fun.id) in
  Alcotest.(check (list int)) "no taken element survives a major GC" [] kept;
  (* The queue is still reachable here, and still works. *)
  Rq.add q (ref 0);
  Alcotest.(check int) "the queue outlived the GC" 1 (Rq.length q)

let test_take_rejects_bad_index () =
  let q = Rq.create ~dummy:0 in
  Rq.add q 1;
  Alcotest.check_raises "index = length" (Invalid_argument "Run_queue.take") (fun () ->
      ignore (Rq.take q 1))

(* ------------------------------------------------------------------ *)
(* Classification cache vs the uncached scans                           *)
(* ------------------------------------------------------------------ *)

(* Where a window region goes, relative to allocation [a]. *)
type span =
  | Whole  (** exactly the allocation *)
  | Part of int * int  (** offset into it, and length; clipped to it *)
  | Across of int  (** from an offset in [a] to past its end: padding and the next allocation *)

type prog_op =
  | Alloc of { size : int; stack : bool; exposed : bool }
  | Win_create of { a : int; span : span }
  | Win_free  (** the most recent live window *)
  | Local of { a : int; off : int; len : int; store : bool }
      (** from offset [off] of allocation [a]; may run past its end *)
  | Put of { a : int; disp : int; len : int }
      (** origin buffer at allocation [a], into the most recent live window of the next rank *)

let show_span = function
  | Whole -> "whole"
  | Part (o, l) -> Printf.sprintf "part(%d,%d)" o l
  | Across o -> Printf.sprintf "across(%d)" o

let show_prog_op = function
  | Alloc { size; stack; exposed } ->
      Printf.sprintf "alloc(%d%s%s)" size
        (if stack then ",stack" else "")
        (if exposed then ",exp" else "")
  | Win_create { a; span } -> Printf.sprintf "win(%d,%s)" a (show_span span)
  | Win_free -> "free"
  | Local { a; off; len; store } ->
      Printf.sprintf "%s(%d+%d,%d)" (if store then "st" else "ld") a off len
  | Put { a; disp; len } -> Printf.sprintf "put(%d,%d,%d)" a disp len

let prog_op_gen =
  QCheck.Gen.(
    let idx = int_bound 20 in
    frequency
      [
        ( 3,
          map3
            (fun size stack exposed -> Alloc { size; stack; exposed })
            (int_range 1 40) bool bool );
        ( 2,
          map2
            (fun a span -> Win_create { a; span })
            idx
            (frequency
               [
                 (2, return Whole);
                 (2, map2 (fun o l -> Part (o, l)) (int_bound 16) (int_range 1 16));
                 (2, map (fun o -> Across o) (int_bound 16));
               ]) );
        (1, return Win_free);
        ( 8,
          map4
            (fun a off len store -> Local { a; off; len; store })
            idx (int_bound 48) (int_range 1 24) bool );
        (2, map3 (fun a disp len -> Put { a; disp; len }) idx (int_bound 32) (int_range 1 16));
      ])

let arb_prog =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_prog_op ops))
    QCheck.Gen.(list_size (int_range 1 60) prog_op_gen)

(* The test's copy of a live or freed window, kept from the events. *)
type shadow_window = { sw_bases : int array; sw_size : int; mutable sw_freed : bool }

let nprocs = 3

(* Runs [ops] on every rank and checks every Access event against the
   uncached scans over a shadow of the rank's allocations and of the
   window table. Returns the number of accesses checked. *)
let check_classification ops =
  let shadows = Array.init nprocs (fun _ -> Memory.create ~size:64) in
  (* Same creation size and insertion order as the runtime's table, so
     the fold below visits windows in the runtime's order. *)
  let windows : (Event.win_id, shadow_window) Hashtbl.t = Hashtbl.create 8 in
  let window_scan rank iv =
    Hashtbl.fold
      (fun id w acc ->
        match acc with
        | Some _ -> acc
        | None ->
            if w.sw_freed then None
            else if Interval.overlaps iv (Interval.of_range ~addr:w.sw_bases.(rank) ~len:w.sw_size)
            then Some id
            else None)
      windows None
  in
  let checked = ref 0 in
  let observer = function
    | Event.Win_created { win; rank; base; size; _ } ->
        (match Hashtbl.find_opt windows win with
        | Some w -> w.sw_bases.(rank) <- base
        | None ->
            let w = { sw_bases = Array.make nprocs 0; sw_size = size; sw_freed = false } in
            w.sw_bases.(rank) <- base;
            Hashtbl.replace windows win w);
        0.0
    | Event.Win_freed { win; _ } ->
        (Hashtbl.find windows win).sw_freed <- true;
        0.0
    | Event.Access e ->
        incr checked;
        let iv = e.Event.access.Access.interval in
        let mem = shadows.(e.Event.space) in
        let rma = Access_kind.is_rma e.Event.access.Access.kind in
        let scan = window_scan e.Event.space iv in
        let relevant = rma || Memory.interval_exposed mem iv || Option.is_some scan in
        let win = if rma then e.Event.win else scan in
        let on_stack = Memory.interval_on_stack mem iv in
        if e.Event.relevant <> relevant || e.Event.win <> win || e.Event.on_stack <> on_stack then
          QCheck.Test.fail_reportf
            "%s %a on rank %d: event (relevant %b, win %s, on_stack %b), scans (%b, %s, %b)"
            (Access_kind.to_string e.Event.access.Access.kind)
            Interval.pp iv e.Event.space e.Event.relevant
            (Option.fold ~none:"-" ~some:string_of_int e.Event.win)
            e.Event.on_stack relevant
            (Option.fold ~none:"-" ~some:string_of_int win)
            on_stack;
        0.0
    | _ -> 0.0
  in
  let program () =
    let rank = Mpi.comm_rank () in
    let shadow = shadows.(rank) in
    (* Addresses, sizes, end of reserved space: the same layout on every
       rank, shifted by a rank-sized first allocation. *)
    let allocs = ref [||] and brk = ref 0 in
    let alloc ?(storage = Memory.Heap) ?(exposed = false) size =
      let addr = Mpi.alloc ~storage ~exposed size in
      let mirrored = Memory.alloc shadow ~storage ~exposed size in
      assert (addr = mirrored);
      allocs := Array.append !allocs [| (addr, size) |];
      brk := addr + size
    in
    alloc (8 * (rank + 1));
    alloc ~storage:Memory.Stack 16;
    alloc ~exposed:true 24;
    let live = ref [] in
    let nth a = !allocs.(1 + (a mod (Array.length !allocs - 1))) in
    List.iter
      (function
        | Alloc { size; stack; exposed } ->
            alloc ~storage:(if stack then Memory.Stack else Memory.Heap) ~exposed size
        | Win_create { a; span } ->
            let addr, size = nth a in
            let lo, len =
              match span with
              | Whole -> (addr, size)
              | Part (o, l) ->
                  let o = o mod size in
                  (addr + o, Int.min l (size - o))
              | Across o ->
                  let lo = addr + (o mod size) in
                  (lo, Int.max 1 (Int.min (addr + size + 12) !brk - lo))
            in
            live := Mpi.win_create ~base:lo ~size:len :: !live
        | Win_free -> (
            match !live with
            | w :: rest ->
                Mpi.win_free w;
                live := rest
            | [] -> ())
        | Local { a; off; len; store } ->
            let addr, _ = nth a in
            let lo = addr + off in
            let len = Int.min len (!brk - lo) in
            if len > 0 then
              if store then Mpi.store ~addr:lo (Bytes.make len 'x')
              else ignore (Mpi.load ~addr:lo ~len ())
        | Put { a; disp; len } -> (
            match !live with
            | [] -> ()
            | w :: _ ->
                (* The window's size is the same on every rank; find it
                   from the shadow table. *)
                let size = (Hashtbl.find windows w).sw_size in
                let disp = disp mod size in
                let len = Int.min len (size - disp) in
                let addr, _ = nth a in
                let origin = Int.min addr (!brk - len) in
                Mpi.win_lock_all w;
                Mpi.put w
                  ~target:((rank + 1) mod nprocs)
                  ~target_disp:disp ~origin_addr:origin ~len;
                Mpi.win_unlock_all w))
      ops
  in
  ignore (Runtime.run ~nprocs ~seed:3 ~config:Sim_config.quiet_network ~observer program);
  !checked

let prop_classification_matches_scans =
  QCheck.Test.make ~name:"cached relevant/win/on_stack equal the uncached scans" ~count:300 arb_prog
    (fun ops ->
      ignore (check_classification ops);
      true)

let test_classification_cases () =
  (* One program through every case by hand: whole, partial and
     two-allocation windows; free then reuse; straddles, padding, stack
     and exposed allocations; puts from stack and heap buffers. *)
  let ops =
    [
      Alloc { size = 13; stack = false; exposed = false } (* a = 2 *);
      Alloc { size = 8; stack = true; exposed = false } (* a = 3 *);
      Local { a = 2; off = 0; len = 8; store = true };
      Local { a = 2; off = 14; len = 2; store = false } (* padding after the 13 bytes *);
      Local { a = 2; off = 10; len = 10; store = false } (* straddles into the stack array *);
      Local { a = 3; off = 0; len = 8; store = true };
      Win_create { a = 2; span = Whole };
      Local { a = 2; off = 2; len = 4; store = true };
      Put { a = 0; disp = 0; len = 8 } (* origin on the stack *);
      Win_free (* the cached window answer must go *);
      Local { a = 2; off = 2; len = 4; store = true };
      Win_create { a = 2; span = Part (4, 4) };
      Local { a = 2; off = 0; len = 2; store = false };
      Local { a = 2; off = 5; len = 2; store = false };
      Win_create { a = 1; span = Across 4 } (* the exposed 24 bytes into the 13 *);
      Local { a = 1; off = 0; len = 8; store = true };
      Local { a = 1; off = 8; len = 8; store = true };
      Local { a = 2; off = 0; len = 8; store = true };
      Alloc { size = 8; stack = false; exposed = true } (* a = 4 *);
      Local { a = 1; off = 0; len = 8; store = false };
      Local { a = 4; off = 0; len = 8; store = false };
      Put { a = 1; disp = 0; len = 4 };
      Put { a = 4; disp = 2; len = 4 };
      Win_free;
      Win_free;
      Local { a = 1; off = 0; len = 8; store = false };
      Win_create { a = 2; span = Whole };
      Local { a = 2; off = 0; len = 13; store = false };
    ]
  in
  let checked = check_classification ops in
  Alcotest.(check bool) "accesses were checked" true (checked > 30)

(* The scans the cache falls back to walk the allocation list without
   building an interval or a closure per allocation. *)
let test_memory_scans_allocate_nothing () =
  let m = Memory.create ~size:64 in
  for i = 0 to 63 do
    ignore (Memory.alloc m ~exposed:(i mod 3 = 0) ~storage:(if i mod 5 = 0 then Stack else Heap) 24)
  done;
  let probes = Array.init 64 (fun i -> Interval.of_range ~addr:(i * 31) ~len:12) in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let idle = words (fun () -> ()) in
  let hits = ref 0 in
  let scanned =
    words (fun () ->
        for i = 0 to Array.length probes - 1 do
          if Memory.interval_exposed m probes.(i) then incr hits;
          if Memory.interval_on_stack m probes.(i) then incr hits
        done)
  in
  Alcotest.(check bool) "some probes hit" true (!hits > 0);
  Alcotest.(check (float 0.)) "interval_exposed/on_stack allocate nothing" 0. (scanned -. idle)

(* ------------------------------------------------------------------ *)
(* Dispatch without a wall clock                                        *)
(* ------------------------------------------------------------------ *)

(* Each rank stores and loads a little, with a barrier in between. *)
let dispatch_program () =
  let a = Mpi.alloc ~exposed:true 64 in
  for i = 0 to 19 do
    Mpi.store_i64 ~addr:(a + (8 * (i mod 8))) (Int64.of_int i)
  done;
  Mpi.barrier ();
  for i = 0 to 19 do
    ignore (Mpi.load_i64 ~addr:(a + (8 * (i mod 8))) ())
  done

(* Spends at least 20 us of wall time per event and reports no protocol
   cost. *)
let slow_observer _ =
  let t0 = Rma_util.Timer.now () in
  while Rma_util.Timer.now () -. t0 < 20e-6 do
    ()
  done;
  0.0

let run_dispatch ~scale observer =
  Runtime.run ~nprocs:2 ~seed:5
    ~config:{ Config.default with Config.analysis_overhead_scale = scale }
    ~observer dispatch_program

let same_clocks a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let test_untimed_dispatch () =
  let null = run_dispatch ~scale:0.0 Event.null_observer in
  let slow = run_dispatch ~scale:0.0 slow_observer in
  Alcotest.(check bool) "scale 0: a slow observer leaves every clock as a null one" true
    (same_clocks null.Runtime.clocks slow.Runtime.clocks);
  Rma_obs.Obs.enable ();
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Rma_obs.Obs.disable ();
        Rma_obs.Obs.reset ())
      (fun () -> run_dispatch ~scale:0.0 slow_observer)
  in
  Alcotest.(check bool) "scale 0 with Obs on: clocks unchanged too" true
    (same_clocks null.Runtime.clocks traced.Runtime.clocks);
  let charged = run_dispatch ~scale:2.0 slow_observer in
  (* Each rank dispatches over 40 events at 20 us each, charged twice. *)
  Alcotest.(check bool) "scale 2: the observer's wall time raises the makespan" true
    (charged.Runtime.makespan -. null.Runtime.makespan > 1e-3)

let suite =
  [
    Alcotest.test_case "ring grows past its capacity and wraps" `Quick test_ring_grows_and_wraps;
    Alcotest.test_case "ring take rejects an out-of-range index" `Quick test_take_rejects_bad_index;
    QCheck_alcotest.to_alcotest prop_ring_matches_oracle;
    Alcotest.test_case "classification cases by hand match the scans" `Quick
      test_classification_cases;
    QCheck_alcotest.to_alcotest prop_classification_matches_scans;
    Alcotest.test_case "memory scans allocate nothing" `Quick test_memory_scans_allocate_nothing;
    Alcotest.test_case "scale 0 dispatch leaves clocks; scale 2 charges wall" `Quick
      test_untimed_dispatch;
    Alcotest.test_case "ring keeps no taken element alive" `Quick
      test_taken_elements_are_collected;
  ]

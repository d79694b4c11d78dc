open Rma_util

(* --- Prng --- *)

(* The widest draw the interface offers: 62 of the 64 random bits. *)
let draw t = Prng.int t ~bound:max_int

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_prng_different_seeds_differ () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if draw a = draw b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_prng_copy_independent () =
  let a = Prng.create ~seed:3 in
  ignore (draw a);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (draw a) (draw b)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in [0, bound)" ~count:500
    QCheck.(pair (int_range 0 1000) (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int rng ~bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_int_in_range_bounds =
  QCheck.Test.make ~name:"Prng.int_in_range inclusive bounds" ~count:500
    QCheck.(triple (int_range 0 1000) (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, width) ->
      let rng = Prng.create ~seed in
      let hi = lo + width in
      let v = Prng.int_in_range rng ~lo ~hi in
      v >= lo && v <= hi)

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:5 in
  let arr = Array.init 100 (fun i -> i) in
  Prng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 (fun i -> i));
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 100 (fun i -> i))

let test_bernoulli_extremes () =
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1" true (Prng.bernoulli rng ~p:1.0);
    Alcotest.(check bool) "p=0" false (Prng.bernoulli rng ~p:0.0)
  done

let test_split_streams_decorrelated () =
  let a = Prng.create ~seed:11 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if draw a = draw child then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

(* --- Stats --- *)

let test_percentile () =
  let samples () = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "median" 35.0 (Stats.percentile (samples ()) ~p:50.0);
  Alcotest.(check (float 1e-9)) "p0" 15.0 (Stats.percentile (samples ()) ~p:0.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile (samples ()) ~p:100.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample array")
    (fun () -> ignore (Stats.percentile [||] ~p:50.0))

(* --- Text_table --- *)

let test_table_render () =
  let t =
    Text_table.create ~title:"T"
      ~columns:[ ("a", Text_table.Left); ("bb", Text_table.Right) ]
      ()
  in
  Text_table.add_row t [ "x"; "1" ];
  Text_table.add_row t [ "yyyy"; "22" ];
  let rendered = Text_table.render t in
  Alcotest.(check bool) "contains title" true (String.length rendered > 0 && rendered.[0] = 'T');
  Alcotest.(check bool) "right-aligned number" true
    (let lines = String.split_on_char '\n' rendered in
     List.exists (fun l -> l = "| x    |  1 |") lines)

let test_table_arity_checked () =
  let t = Text_table.create ~columns:[ ("a", Text_table.Left) ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Text_table.add_row: 2 cells for 1 columns")
    (fun () -> Text_table.add_row t [ "x"; "y" ])

let test_cell_helpers () =
  Alcotest.(check string) "float" "3.14" (Text_table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "percent" "12.34%" (Text_table.cell_percent 0.12341)

(* --- Timer --- *)

let test_timer_accumulator () =
  let acc = Timer.accumulator () in
  let v = Timer.record acc (fun () -> 42) in
  Alcotest.(check int) "passthrough" 42 v;
  Alcotest.(check bool) "non-negative" true (Timer.elapsed acc >= 0.0);
  Timer.reset acc;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Timer.elapsed acc)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_different_seeds_differ;
    Alcotest.test_case "prng copy independent" `Quick test_prng_copy_independent;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_int_in_range_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "split streams decorrelated" `Quick test_split_streams_decorrelated;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity checked" `Quick test_table_arity_checked;
    Alcotest.test_case "cell helpers" `Quick test_cell_helpers;
    Alcotest.test_case "timer accumulator" `Quick test_timer_accumulator;
  ]

(* --- Chart --- *)

let chart_suite =
  let test_bar_chart () =
    let rendered =
      Chart.bar_chart ~unit_label:"s" ~title:"T"
        [ ("a", 1.0); ("bb", 2.0); ("c", 0.0) ]
    in
    let lines = String.split_on_char '\n' rendered in
    Alcotest.(check bool) "title first" true (List.hd lines = "T");
    Alcotest.(check bool) "max bar full width" true
      (List.exists (fun l -> String.length l > 0 &&
         (let hashes = String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l in
          hashes = 50)) lines);
    Alcotest.(check bool) "zero bar empty" true
      (List.exists (fun l -> String.length l > 3 && String.sub (String.trim l) 0 1 = "c"
         && not (String.contains l '#')) lines)
  in
  let test_grouped_chart_shares_scale () =
    let rendered =
      Chart.grouped_bar_chart ~title:"G" ~group_label:"n ="
        [ ("1", [ ("x", 4.0) ]); ("2", [ ("x", 8.0) ]) ]
    in
    let count_hashes l = String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l in
    let lines = List.filter (fun l -> String.contains l '#') (String.split_on_char '\n' rendered) in
    Alcotest.(check (list int)) "25 then 50 hashes" [ 25; 50 ] (List.map count_hashes lines)
  in
  [
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "grouped chart shares scale" `Quick test_grouped_chart_shares_scale;
  ]

let suite = suite @ chart_suite

(* --- Lines --- *)

(* [split_lines] with each line copied out of its slice: the 40-byte
   property below reads lines as strings. *)
module Lines = struct
  include Lines

  let split_lines pending chunk len emit =
    split_lines pending chunk len (fun s a b -> emit (String.sub s a (b - a)))
end

(* However a text is cut into chunks, [Lines.split_lines] emits the
   '\n'-terminated lines, each without one '\r' before its '\n' (also
   when the '\r' ends one chunk and the '\n' opens the next), and keeps
   the unterminated tail. *)
let prop_split_lines_any_chunking =
  QCheck.Test.make ~name:"Lines.split_lines: CRLF and LF over any chunking" ~count:500
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_range 0 40) (Gen.oneofl [ 'a'; 'b'; '\r'; '\n' ]))
        (list_of_size Gen.(int_range 0 6) (int_range 0 40)))
    (fun (text, cuts) ->
      let parts = String.split_on_char '\n' text in
      let rec terminated = function [] | [ _ ] -> [] | l :: rest -> l :: terminated rest in
      let drop_cr l =
        let n = String.length l in
        if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
      in
      let expected = List.map drop_cr (terminated parts) in
      let tail = List.nth parts (List.length parts - 1) in
      let pending = Buffer.create 16 and got = ref [] in
      let cuts =
        List.sort_uniq Int.compare (List.map (fun c -> c mod (String.length text + 1)) cuts)
      in
      let rec feed from = function
        | [] -> [ (from, String.length text) ]
        | c :: rest -> (from, c) :: feed c rest
      in
      List.iter
        (fun (a, b) ->
          let chunk = Bytes.of_string (String.sub text a (b - a)) in
          assert (Lines.split_lines pending chunk (b - a) (fun l -> got := l :: !got)))
        (feed 0 cuts);
      List.rev !got = expected && Buffer.contents pending = tail)

(* Lines of up to 200 bytes over the bytes nearest '\n' (by value, by
   one bit, and the other line and word ends), cut at random offsets,
   at every offset of one line and between each '\r' and its '\n'. The
   slices must be the '\n'-terminated lines less one '\r', and the tail
   stays pending. Each chunk lies in a buffer of stale bytes past its
   length, newlines or not by turns, which the word-at-a-time scan must
   neither read as data nor scan past. *)
let near_newline = [ '\x0b'; '\t'; '\r'; '\x8a'; '\x00'; '\xff'; 'a' ]

let prop_split_lines_near_misses =
  QCheck.Test.make ~name:"Lines.split_lines: long lines over near-miss bytes, any cut" ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(int_range 0 8)
           (string_gen_of_size Gen.(int_range 0 200) (Gen.oneofl near_newline)))
        bool
        (list_of_size Gen.(int_range 0 12) small_nat)
        small_nat)
    (fun (lines, terminated, cuts, whole) ->
      let text = String.concat "\n" lines ^ if terminated && lines <> [] then "\n" else "" in
      let n = String.length text in
      let parts = String.split_on_char '\n' text in
      let rec terminated_parts = function
        | [] | [ _ ] -> []
        | l :: rest -> l :: terminated_parts rest
      in
      let drop_cr l =
        let k = String.length l in
        if k > 0 && l.[k - 1] = '\r' then String.sub l 0 (k - 1) else l
      in
      let expected = List.map drop_cr (terminated_parts parts) in
      let tail = List.nth parts (List.length parts - 1) in
      let crlf =
        List.filter
          (fun p -> text.[p - 1] = '\r' && text.[p] = '\n')
          (List.init (Int.max 0 (n - 1)) succ)
      in
      let every =
        match lines with
        | [] -> []
        | _ ->
            let k = whole mod List.length lines in
            let before = List.filteri (fun i _ -> i < k) lines in
            let start = List.fold_left (fun acc l -> acc + String.length l + 1) 0 before in
            List.init (String.length (List.nth lines k) + 1) (fun i -> start + i)
      in
      let cuts =
        List.sort_uniq Int.compare
          (List.filter
             (fun c -> c > 0 && c < n)
             (List.map (fun c -> c mod (n + 1)) cuts @ crlf @ every))
      in
      let buf = Bytes.make (n + 16) '\n' in
      let pending = Buffer.create 16 and got = ref [] in
      let rec feed from = function
        | [] -> [ (from, n) ]
        | c :: rest -> (from, c) :: feed c rest
      in
      List.iter
        (fun (a, b) ->
          Bytes.fill buf 0 (Bytes.length buf) (if (a + b) land 1 = 0 then '\n' else 'x');
          Bytes.blit_string text a buf 0 (b - a);
          assert (
            Rma_util.Lines.split_lines pending buf (b - a) (fun s i j ->
                got := String.sub s i (j - i) :: !got)))
        (feed 0 cuts);
      List.rev !got = expected && Buffer.contents pending = tail)

(* The cap is on the line without its '\n': [max_line_bytes] bytes pass
   and one more fails, whether the line fits one chunk or the previous
   chunk left part of it pending. *)
let test_split_lines_cap () =
  let cap = Rma_util.Lines.max_line_bytes in
  let split chunks =
    let pending = Buffer.create 16 and got = ref [] in
    let ok =
      List.for_all
        (fun c ->
          Rma_util.Lines.split_lines pending (Bytes.of_string c) (String.length c) (fun _ a b ->
              got := (b - a) :: !got))
        chunks
    in
    (ok, List.rev !got, Buffer.length pending)
  in
  let x n = String.make n 'x' in
  let check name expected chunks =
    Alcotest.(check (triple bool (list int) int)) name expected (split chunks)
  in
  check "the cap, in one chunk" (true, [ cap; 1 ], 0) [ x cap ^ "\ny\n" ];
  check "one byte over, in one chunk" (false, [], 0) [ x (cap + 1) ^ "\n" ];
  check "the cap, across two chunks" (true, [ cap; 1 ], 0) [ x 1000; x (cap - 1000) ^ "\ny\n" ];
  check "one byte over, across two chunks" (false, [], 1000) [ x 1000; x (cap - 999) ^ "\n" ];
  check "the cap, its newline opening the next chunk" (true, [ cap ], 0) [ x cap; "\n" ];
  check "one byte over, unterminated" (false, [], 0) [ x (cap + 1) ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_split_lines_any_chunking;
      QCheck_alcotest.to_alcotest prop_split_lines_near_misses;
      Alcotest.test_case "Lines.split_lines: the cap within a chunk and across two" `Quick
        test_split_lines_cap;
    ]

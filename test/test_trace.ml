open Mpi_sim
open Rma_trace
open Rma_analysis

(* --- Codec --- *)

(* One line through the public streaming decoder: a fresh
   [Codec.Incremental] fed the header, then [line]. A blank or footer
   line is framing and decodes to no event. *)
let decode_line line =
  let dec = Codec.Incremental.create () in
  ignore (Codec.Incremental.feed dec Codec.header);
  match Codec.Incremental.feed dec line with
  | Ok (Codec.Incremental.Event e) -> Ok e
  | Ok (Codec.Incremental.Skip | Codec.Incremental.Complete _) -> Error "no event on the line"
  | Error e -> Error e.Codec.reason

let sample_events () =
  (* Record a small real run for realistic event variety. *)
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:4 ~config:Sim_config.quiet_network ~observer:(Recorder.observer recorder)
      (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 16 in
        let win = Mpi.win_create ~base ~size:16 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true ~storage:Memory.Stack 8 in
          Mpi.store_i64 ~loc:(Mpi.loc ~file:"file with spaces.c" ~line:3 "Store") ~addr:src 5L;
          Mpi.put win ~loc:(Mpi.loc ~file:"t%09.c" ~line:4 "MPI_Put") ~target:1 ~target_disp:0
            ~origin_addr:src ~len:8
        end;
        Mpi.win_flush_all win;
        Mpi.barrier ();
        Mpi.win_unlock_all win;
        Mpi.allreduce_int 1 ~op:Runtime.Sum |> ignore;
        Mpi.win_free win)
  in
  Recorder.events recorder

let test_codec_roundtrip_real_run () =
  let events = sample_events () in
  Alcotest.(check bool) "has events" true (List.length events > 10);
  List.iter
    (fun e ->
      match decode_line (Codec.encode_event e) with
      | Ok d ->
          Alcotest.(check string) "roundtrip" (Codec.encode_event e) (Codec.encode_event d)
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    events

let test_codec_escaping () =
  (* File and operation names are the free-text fields of a line. *)
  let named s =
    Event.Access
      {
        Event.space = 0;
        access =
          Rma_access.Access.make
            ~interval:(Rma_access.Interval.make ~lo:0 ~hi:7)
            ~kind:Rma_access.Access_kind.Local_read ~issuer:0 ~seq:1
            ~debug:(Rma_access.Debug_info.make ~file:s ~line:1 ~operation:s);
        win = None;
        relevant = true;
        on_stack = false;
        sim_time = 0.0;
      }
  in
  List.iter
    (fun s ->
      let line = Codec.encode_event (named s) in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match decode_line line with
      | Ok (Event.Access a) ->
          let d = a.Event.access.Rma_access.Access.debug in
          Alcotest.(check string) "escape roundtrip (file)" s d.Rma_access.Debug_info.file;
          Alcotest.(check string) "escape roundtrip (operation)" s
            d.Rma_access.Debug_info.operation
      | Ok _ -> Alcotest.fail "decoded to another event"
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    [ "plain"; "with\ttab"; "with\nnewline"; "percent%09"; "%"; "" ]

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (decode_line "Q\tnot\ta\tthing"));
  Alcotest.(check bool) "bad int rejected" true
    (Result.is_error (decode_line "Z\tnotanint\t0.0"));
  Alcotest.(check bool) "inverted interval rejected" true
    (Result.is_error
       (decode_line "A\t0\tLR\t9\t3\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top"))

let test_save_load_file () =
  let recorder = Recorder.create () in
  List.iter (fun e -> ignore (Recorder.observer recorder e)) (sample_events ());
  let path = Filename.temp_file "rma_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recorder.save recorder ~path;
      match Recorder.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok events ->
          Alcotest.(check int) "same length" (Recorder.length recorder) (List.length events);
          List.iter2
            (fun a b ->
              Alcotest.(check string) "same event" (Codec.encode_event a) (Codec.encode_event b))
            (Recorder.events recorder) events)

(* --- Replay --- *)

let racy_program () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let buf = Mpi.alloc ~exposed:true 8 in
    Mpi.get win ~loc:(Mpi.loc ~file:"replay.c" ~line:10 "MPI_Get") ~target:1 ~target_disp:0
      ~origin_addr:buf ~len:8;
    ignore (Mpi.load ~loc:(Mpi.loc ~file:"replay.c" ~line:11 "Load") ~addr:buf ~len:8 ())
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

let record_run program =
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:2 ~config:Sim_config.quiet_network
      ~observer:(Recorder.observer recorder) program
  in
  Recorder.events recorder

let test_replay_through_online_tool () =
  let events = record_run racy_program in
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let races = Recorder.replay events ~tool in
  Alcotest.(check bool) "race found on replay" true (races <> [])

let test_tee_records_and_forwards () =
  let recorder = Recorder.create () in
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ =
    Runtime.run ~nprocs:2 ~seed:2 ~config:Sim_config.quiet_network
      ~observer:(Recorder.tee recorder tool.Tool.observer)
      racy_program
  in
  Alcotest.(check bool) "tool saw events" true (Tool.flagged tool);
  Alcotest.(check bool) "recorder saw events" true (Recorder.length recorder > 0)

(* --- Post-mortem --- *)

let test_post_mortem_finds_race () =
  let events = record_run racy_program in
  let result = Post_mortem.analyze events in
  Alcotest.(check bool) "found" true (result.Post_mortem.distinct_pairs >= 1);
  match Post_mortem.to_reports result with
  | [] -> Alcotest.fail "no report"
  | r :: _ ->
      Alcotest.(check string) "tool name" "MC-Checker (post-mortem)" r.Report.tool

let test_post_mortem_silent_on_safe_run () =
  let safe_program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:8 in
    Mpi.win_lock_all win;
    if rank = 0 then begin
      let buf = Mpi.alloc ~exposed:true 8 in
      ignore (Mpi.load ~addr:buf ~len:8 ());
      Mpi.get win ~target:1 ~target_disp:0 ~origin_addr:buf ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.barrier ();
    if rank = 1 then ignore (Mpi.load ~addr:base ~len:8 ());
    Mpi.win_free win
  in
  let result = Post_mortem.analyze (record_run safe_program) in
  Alcotest.(check int) "no races" 0 result.Post_mortem.distinct_pairs

let test_post_mortem_enumerates_all_pairs () =
  (* Two independent races in one epoch: the on-the-fly tool reports the
     first and refuses the access; the post-mortem pass must find both
     statement pairs. *)
  let program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 32 in
    let win = Mpi.win_create ~base ~size:32 in
    Mpi.win_lock_all win;
    if rank = 0 then begin
      let src = Mpi.alloc ~exposed:true 16 in
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:1 "MPI_Put") ~target:1 ~target_disp:0
        ~origin_addr:src ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:2 "MPI_Put") ~target:1 ~target_disp:0
        ~origin_addr:src ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:3 "MPI_Put") ~target:1 ~target_disp:16
        ~origin_addr:(src + 8) ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:4 "MPI_Put") ~target:1 ~target_disp:16
        ~origin_addr:(src + 8) ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.win_free win
  in
  let result = Post_mortem.analyze (record_run program) in
  (* Pairs: (1,2) and (3,4) on the target window, plus origin-side
     RMA_read overlaps are read/read (safe). *)
  Alcotest.(check bool) "at least two distinct pairs" true
    (result.Post_mortem.distinct_pairs >= 2)

let test_post_mortem_suite_is_complete () =
  (* With full traces (no alias filter, no stack blindness), the
     post-mortem analysis classifies the entire 154-code suite
     perfectly. *)
  let confusion =
    List.fold_left
      (fun (fp, fn, tp, tn) s ->
        let recorder = Recorder.create () in
        (try
           ignore
             (Runtime.run ~nprocs:3 ~seed:11
                ~config:{ Config.default with Config.analysis_overhead_scale = 0.0 }
                ~observer:(Recorder.observer recorder)
                (Rma_microbench.Runner.program s))
         with Report.Race_abort _ -> ());
        let result = Post_mortem.analyze (Recorder.events recorder) in
        let flagged = result.Post_mortem.distinct_pairs > 0 in
        match (s.Rma_microbench.Scenario.racy, flagged) with
        | true, true -> (fp, fn, tp + 1, tn)
        | true, false -> (fp, fn + 1, tp, tn)
        | false, true -> (fp + 1, fn, tp, tn)
        | false, false -> (fp, fn, tp, tn + 1))
      (0, 0, 0, 0) Rma_microbench.Scenario.all
  in
  Alcotest.(check (list int)) "FP FN TP TN" [ 0; 0; 47; 107 ]
    (let fp, fn, tp, tn = confusion in
     [ fp; fn; tp; tn ])

let suite =
  [
    Alcotest.test_case "codec roundtrip on a real run" `Quick test_codec_roundtrip_real_run;
    Alcotest.test_case "codec escaping" `Quick test_codec_escaping;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "replay through an online tool" `Quick test_replay_through_online_tool;
    Alcotest.test_case "tee records and forwards" `Quick test_tee_records_and_forwards;
    Alcotest.test_case "post-mortem finds the race" `Quick test_post_mortem_finds_race;
    Alcotest.test_case "post-mortem silent on safe run" `Quick test_post_mortem_silent_on_safe_run;
    Alcotest.test_case "post-mortem enumerates all pairs" `Quick
      test_post_mortem_enumerates_all_pairs;
    Alcotest.test_case "post-mortem suite is complete" `Slow test_post_mortem_suite_is_complete;
  ]

(* --- Hybrid thread fields on access records (PR 8) --- *)

let hybrid_sample_events () =
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:4 ~config:Sim_config.quiet_network
      ~observer:(Recorder.observer recorder) (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 16 in
        let win = Mpi.win_create ~base ~size:16 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let t =
            Mpi.thread_spawn (fun () ->
                ignore (Mpi.load ~loc:(Mpi.loc ~file:"hyb.c" ~line:7 "Load") ~addr:base ~len:8 ()))
          in
          Mpi.thread_join t
        end;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Recorder.events recorder

let test_codec_roundtrip_thread_fields () =
  let events = hybrid_sample_events () in
  let threaded =
    List.filter
      (fun e ->
        match e with
        | Event.Access a -> a.Event.access.Rma_access.Access.thread.Rma_access.Access.tid <> 0
        | _ -> false)
      events
  in
  Alcotest.(check bool) "run produced thread-issued accesses" true (threaded <> []);
  List.iter
    (fun e ->
      match decode_line (Codec.encode_event e) with
      | Ok d ->
          Alcotest.(check string) "thread-field roundtrip" (Codec.encode_event e)
            (Codec.encode_event d);
          (match (e, d) with
          | Event.Access a, Event.Access b ->
              Alcotest.(check bool) "decoded access equal" true
                (Rma_access.Access.equal a.Event.access b.Event.access)
          | _ -> ())
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    events

let test_codec_single_thread_arity_unchanged () =
  (* Thread-free runs must keep the 14-field A-record arity so existing
     trace files (and their consumers) are byte-stable. *)
  List.iter
    (fun e ->
      match e with
      | Event.Access _ ->
          let line = Codec.encode_event e in
          Alcotest.(check int)
            ("14 fields: " ^ line)
            14
            (List.length (String.split_on_char '\t' line))
      | _ -> ())
    (sample_events ());
  (* And thread-issued accesses carry exactly three extra fields. *)
  List.iter
    (fun e ->
      match e with
      | Event.Access a when a.Event.access.Rma_access.Access.thread.Rma_access.Access.tid <> 0 ->
          let line = Codec.encode_event e in
          Alcotest.(check int)
            ("17 fields: " ^ line)
            17
            (List.length (String.split_on_char '\t' line))
      | _ -> ())
    (hybrid_sample_events ())

let test_codec_rejects_bad_thread_fields () =
  Alcotest.(check bool) "partial thread fields rejected" true
    (Result.is_error
       (decode_line "A\t0\tLR\t3\t9\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top\t1"));
  Alcotest.(check bool) "bad thread view rejected" true
    (Result.is_error
       (decode_line "A\t0\tLR\t3\t9\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top\t1\t1\tnot-a-pair"))

(* --- Format pin ---

   [golden/trace_kernels.rma] is three complete trace files back to
   back: the [rrb_lockall_remote_conflict_put_put_race] kernel, a hybrid
   kernel whose access records carry the trailing thread fields, and
   [sample_events], whose [t%09.c] file name needs escaping. The bytes
   were written before the codec's hot paths were rewritten; they must
   never change. *)

let kernel_events name =
  let k =
    match Rma_microbench.Scenario.Kernel.find name with
    | Some k -> k
    | None -> Alcotest.failf "kernel %s missing" name
  in
  let recorder = Recorder.create () in
  let config = { Config.default with Config.analysis_overhead_scale = 0.0 } in
  ignore
    (Runtime.run ~nprocs:k.Rma_microbench.Scenario.Kernel.k_nprocs ~seed:42 ~config
       ~observer:(Recorder.observer recorder) k.Rma_microbench.Scenario.Kernel.k_program);
  Recorder.events recorder

let pinned_traces () =
  [
    kernel_events "rrb_lockall_remote_conflict_put_put_race";
    kernel_events "hyb_lockall_local_tstore_put_unordered_race";
    sample_events ();
  ]

(* [Recorder.save] of [events], returned as the file's bytes together
   with [Recorder.load] of that file. *)
let save_and_load events =
  let recorder = Recorder.create () in
  List.iter (fun e -> ignore (Recorder.observer recorder e)) events;
  let path = Filename.temp_file "rma_golden" ".rma" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recorder.save recorder ~path;
      (In_channel.with_open_bin path In_channel.input_all, Recorder.load ~path))

let test_trace_golden () =
  let saved = List.map save_and_load (pinned_traces ()) in
  let bytes = String.concat "" (List.map fst saved) in
  Alcotest.(check bool) "hybrid trace carries thread fields" true
    (List.exists
       (fun line -> List.length (String.split_on_char '\t' line) = 17)
       (String.split_on_char '\n' bytes));
  Golden_regen.check ~name:"trace_kernels.rma" ~what:"Recorder.save matches the golden trace"
    bytes;
  let resaved =
    List.map
      (fun (_, loaded) ->
        match loaded with
        | Ok events -> fst (save_and_load events)
        | Error e -> Alcotest.failf "golden trace does not load: %s" e)
      saved
  in
  Alcotest.(check string) "load then re-save reproduces the golden" bytes
    (String.concat "" resaved)

let suite =
  suite
  @ [
      Alcotest.test_case "codec roundtrips thread fields" `Quick test_codec_roundtrip_thread_fields;
      Alcotest.test_case "codec arity: 14 plain / 17 threaded" `Quick
        test_codec_single_thread_arity_unchanged;
      Alcotest.test_case "codec rejects malformed thread fields" `Quick
        test_codec_rejects_bad_thread_fields;
      Alcotest.test_case "save and load reproduce the golden trace" `Quick test_trace_golden;
    ]

(* --- Reference oracle ---

   [Codec_oracle] is the split-and-join codec the in-place scanner
   replaced. On generated events the encoding must be the same bytes
   (or the same exception), and on any line — encoded, bit-flipped,
   truncated, arbitrary bytes, or carrying a field in a non-canonical
   numeric spelling — decoding must give the same event or the same
   error string. *)

module Gen = QCheck.Gen

let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let int_gen =
  Gen.frequency
    [
      (3, Gen.small_signed_int);
      (2, Gen.int);
      ( 1,
        Gen.oneofl
          [
            0; -1; min_int; max_int; min_int + 1; max_int - 1; 999_999_999_999_999_999;
            1_000_000_000_000_000_000; -999_999_999_999_999_999;
          ] );
    ]

let float_gen =
  Gen.frequency
    [
      (3, Gen.map (fun n -> float_of_int n /. 1e9) Gen.nat);
      (2, Gen.float);
      (1, Gen.map (fun n -> float_of_int n /. 1e10) Gen.int);
      ( 1,
        Gen.oneofl
          [
            nan; -.nan; infinity; neg_infinity; 0.0; -0.0; max_float; -.max_float; min_float;
            5e-324; 1e300; 4.5e15; 999999.999999999; 1e6; 9007199254740993.0; 0.0000000005;
            -0.0000000005; 0.0000000015;
          ] );
      (* Exact ties at the tenth decimal, and the doubles either side of
         a rounding midpoint (m + 1/2) / 10^9. *)
      (1, Gen.map (fun k -> float_of_int k /. 1024.) (Gen.int_range (-(1 lsl 20)) (1 lsl 20)));
      ( 1,
        Gen.map2
          (fun m up ->
            let t = (float_of_int m +. 0.5) /. 1e9 in
            if up then Float.succ t else Float.pred t)
          (Gen.int_bound 1_000_000_000_000_000)
          Gen.bool );
    ]

let char_gen =
  Gen.frequency
    [ (2, Gen.oneofl [ '%'; '\t'; '\n'; '\r'; '2'; '5'; 'A'; ':'; ' ' ]); (3, Gen.char) ]

let string_gen = Gen.string_size ~gen:char_gen (Gen.int_range 0 10)

let thread_gen =
  Gen.(
    let* tid = int_gen in
    let* tstamp = int_gen in
    let* tview = list_size (int_range 0 4) (pair int_gen int_gen) in
    return { Rma_access.Access.tid; tstamp; tview })

(* [file] and [op] come from small pools so that consecutive lines often
   repeat them, which is when a decoder reuses its previous strings. *)
let event_gen ~file ~op =
  Gen.(
    let* rank = int_gen in
    let* win = int_gen in
    let* t = float_gen in
    frequency
      [
        ( 6,
          let* space = int_gen in
          let* kind =
            oneofl
              Rma_access.Access_kind.
                [ Local_read; Local_write; Rma_read; Rma_write; Rma_accumulate ]
          in
          let* a = int_gen in
          let* b = int_gen in
          let* issuer = frequency [ (9, small_nat); (1, map (fun n -> -n - 1) small_nat) ] in
          let* seq = int_gen in
          let* win = opt int_gen in
          let* relevant = bool in
          let* on_stack = bool in
          let* file = file in
          let* line = int_gen in
          let* operation = op in
          let* thread =
            if issuer < 0 then thread_gen
            else
              frequency [ (3, return (Rma_access.Access.default_thread ~issuer)); (1, thread_gen) ]
          in
          let access =
            Rma_access.Access.make_threaded ~thread
              ~interval:(Rma_access.Interval.make ~lo:(min a b) ~hi:(max a b))
              ~kind ~issuer ~seq
              ~debug:(Rma_access.Debug_info.make ~file ~line ~operation)
          in
          return (Event.Access { Event.space; access; win; relevant; on_stack; sim_time = t }) );
        ( 1,
          let* kind = oneofl [ Event.Barrier; Event.Allreduce; Event.Fence ] in
          return (Event.Collective { kind; rank; sim_time = t }) );
        ( 1,
          let* base = int_gen in
          let* size = int_gen in
          return (Event.Win_created { win; rank; base; size; sim_time = t }) );
        (1, return (Event.Win_freed { win; rank; sim_time = t }));
        (1, return (Event.Epoch_opened { win; rank; sim_time = t }));
        (1, return (Event.Epoch_closed { win; rank; sim_time = t }));
        ( 1,
          let* target = opt int_gen in
          return (Event.Flushed { win; rank; target; sim_time = t }) );
        (1, return (Event.Finished { rank; sim_time = t }));
      ])

let events_gen =
  Gen.(
    let* files = list_size (int_range 1 3) string_gen in
    let* ops = list_size (int_range 1 3) string_gen in
    list_size (int_range 0 40) (event_gen ~file:(oneofl files) ~op:(oneofl ops)))

let encoded_lines events =
  List.filter_map (fun e -> Result.to_option (outcome Codec_oracle.encode_event e)) events

(* Numeric spellings the general parsers accept or reject that the
   encoder never writes. *)
let noncanonical =
  [
    "+5"; "1_0"; "0x1f"; "0X1F"; "0b101"; "0o17"; "0u5"; "-0"; "007"; " 5"; "5 "; ""; "-"; "--1";
    "1e3"; "1.5e-3"; "inf"; "-inf"; "nan"; "-nan"; "infinity"; "0x1p-3"; "1."; ".5"; "1.00000000";
    "0.1234567890"; "1234567.123456789"; "12345678.000000000"; "0.000000001_"; "_1";
    "12345678901234567890"; "9223372036854775807"; "4611686018427387904"; "-4611686018427387904";
    "4611686018427387903"; "1234567890123456789"; "-0.000000000"; "+0.000000001"; "0.00000000a";
    "1:2:3"; "1:"; ":1"; "0x1:0b1"; "1:2,"; ",1:2"; "%"; "%2"; "%zz"; "%25"; "%0a"; "%ff";
  ]

let token_gen =
  Gen.frequency
    [
      (3, Gen.map string_of_int int_gen);
      (3, Gen.map (Printf.sprintf "%.9f") float_gen);
      (4, Gen.oneofl noncanonical);
      ( 2,
        Gen.oneofl
          [
            "LR"; "LW"; "RR"; "RW"; "RA"; "XX"; "0"; "1"; "2"; "barrier"; "allreduce"; "fence";
            "bogus"; "1:2"; "1:2,3:4"; "-1025:1,1:1"; "";
          ] );
      (1, Gen.map Codec_oracle.escape string_gen);
    ]

(* Field-shaped lines that reach deep into the grammar. *)
let fielded_line_gen =
  Gen.(
    let* tag = oneofl [ "A"; "C"; "W"; "X"; "O"; "E"; "L"; "Z"; "Q"; ""; "AA"; "a" ] in
    let* arity =
      frequency [ (3, oneofl [ 13; 16; 2; 3; 4; 5 ]); (1, int_range 0 19) ]
    in
    let* fields = list_repeat arity token_gen in
    return (String.concat "\t" (tag :: fields)))

(* An encoded line with one of its fields swapped for [token]. *)
let replace_field line i token =
  let fields = String.split_on_char '\t' line in
  let i = i mod List.length fields in
  String.concat "\t" (List.mapi (fun j f -> if j = i then token else f) fields)

let flip_bit s pos bit =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let pos = pos mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

(* Tokens that no field accepts in its canonical form: most fail there,
   a few parse only in the general parser of an int or time field. *)
let bad_token_gen =
  Gen.oneofl
    [ "x"; "bogus"; "1x"; "x1"; "LRX"; "L"; "2"; "10"; "-"; ""; "--"; "1.0.0"; "1:2:3"; "1:"; ":";
      "0.1234567890"; "-0.000000000x"; "1e3"; "+1"; "%zz" ]

let join_fields = String.concat "\t"

(* The first [n] fields of [fields], padded from [pad]. *)
let with_arity fields n pad = List.filteri (fun i _ -> i < n) (fields @ pad)

(* Lines aimed at the order in which the split grammar reported errors,
   which the scanner reproduces only once a line has failed: an access
   line of 13, 15, 16 or 18 fields (or 14 or 17) with a bad token in one
   of its first 13 fields or in a thread field; any other line one field
   short or long with a bad token; a line that ends right after a tab;
   and a kind, bool, [-], time, string or last field followed by a
   non-tab byte. *)
let precedence_line_gen line =
  let fields = String.split_on_char '\t' line in
  let nf = List.length fields in
  let access = String.starts_with ~prefix:"A\t" line in
  let tabs = List.filter (fun i -> line.[i] = '\t') (List.init (String.length line) Fun.id) in
  Gen.(
    let* pad = list_repeat 5 token_gen in
    let* token = frequency [ (2, bad_token_gen); (1, token_gen) ] in
    let* byte = map (fun c -> if c = '\t' then 'x' else c) char_gen in
    let* n =
      if access then oneofl [ 13; 13; 14; 15; 15; 16; 16; 17; 18; 18 ]
      else oneofl [ nf - 1; nf; nf + 1 ]
    in
    let n = Int.max n 2 in
    let* at =
      if access && n >= 15 then frequency [ (2, int_range 1 13); (1, int_range 14 (n - 1)) ]
      else int_range 1 (n - 1)
    in
    let* cut =
      if tabs = [] then return (String.length line) else map (fun i -> i + 1) (oneofl tabs)
    in
    let* suffixed = oneofl [ 2; 7; 8; 9; 10; 11; 13; nf - 1 ] in
    oneofl
      [
        replace_field (join_fields (with_arity fields n pad)) at token;
        replace_field (join_fields (with_arity fields n pad)) at (token ^ String.make 1 byte);
        line ^ "\t";
        String.sub line 0 cut;
        join_fields
          (List.mapi (fun j f -> if j = suffixed then f ^ String.make 1 byte else f) fields);
      ])

let mutated_lines_gen =
  Gen.(
    let* events = events_gen in
    let lines = encoded_lines events in
    let* arbitrary = list_size (int_range 0 4) (string_size (int_range 0 60)) in
    let* fielded = list_size (int_range 0 8) fielded_line_gen in
    let* precedence = flatten_l (List.map precedence_line_gen lines) in
    let* mutations =
      flatten_l
        (List.map
           (fun line ->
             let* pos = nat in
             let* bit = nat in
             let* cut = nat in
             let* field = nat in
             let* token = token_gen in
             oneofl
               [
                 line;
                 flip_bit line pos bit;
                 String.sub line 0 (cut mod (String.length line + 1));
                 replace_field line field token;
                 replace_field (flip_bit line pos bit) field token;
               ])
           lines)
    in
    return (lines @ mutations @ arbitrary @ fielded @ precedence))

(* The oracle's re-encoding tells apart what [compare] cannot: the sign
   of a zero or of a nan. *)
let same_event a b =
  compare a b = 0 && outcome Codec_oracle.encode_event a = outcome Codec_oracle.encode_event b

(* Blank and footer lines are framing to the stream decoder, not lines
   the oracle's line decoder knows; every other line is compared. *)
let same_decode line =
  String.trim line = ""
  || String.starts_with ~prefix:"rma-trace-end" line
  ||
  match (decode_line line, Codec_oracle.decode_event line) with
  | Ok a, Ok b -> same_event a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error e -> QCheck.Test.fail_reportf "%S: oracle rejects (%s), codec accepts" line e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "%S: codec rejects (%s), oracle accepts" line e

let prop_encode_matches_oracle =
  QCheck.Test.make ~name:"codec encoding is byte-identical to the reference oracle" ~count:500
    (QCheck.make events_gen) (fun events ->
      List.for_all
        (fun e ->
          let ours = outcome Codec.encode_event e in
          let theirs = outcome Codec_oracle.encode_event e in
          ours = theirs
          || QCheck.Test.fail_reportf "encodings differ: %S vs oracle %S"
               (match ours with Ok s | Error s -> s)
               (match theirs with Ok s | Error s -> s))
        events)

let prop_decode_matches_oracle =
  QCheck.Test.make ~name:"codec decoding matches the reference oracle on hostile lines" ~count:500
    (QCheck.make ~print:(fun l -> String.concat "\n" (List.map (Printf.sprintf "%S") l))
       mutated_lines_gen)
    (List.for_all same_decode)

let written_by write_all events =
  let path = Filename.temp_file "rma_oracle" ".rma" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> write_all oc events);
      In_channel.with_open_bin path In_channel.input_all)

(* Events the oracle can encode, in streams long enough that some cross
   the writer's 64 KiB hand-off to the channel. *)
let stream_gen =
  Gen.map
    (fun chunks ->
      List.filter (fun e -> Result.is_ok (outcome Codec_oracle.encode_event e)) (List.concat chunks))
    Gen.(list_size (int_range 1 80) events_gen)

(* [write_all] writes the oracle's bytes through its one buffer. *)
let prop_write_all_matches_oracle =
  QCheck.Test.make ~name:"codec write_all writes the reference oracle's bytes" ~count:100
    (QCheck.make stream_gen) (fun events ->
      String.equal (written_by Codec.write_all events) (written_by Codec_oracle.write_all events))

(* One decoder across a whole stream: the strings, debug records and
   threads it reuses from line to line must not change what any line
   decodes to. *)
let prop_stream_matches_oracle =
  QCheck.Test.make ~name:"codec stream decoding matches the reference oracle line by line"
    ~count:300 (QCheck.make mutated_lines_gen) (fun lines ->
      let dec = Codec.Incremental.create () in
      ignore (Codec.Incremental.feed dec Codec.header);
      List.for_all
        (fun line ->
          match Codec_oracle.decode_event line with
          | Error _ -> true
          | Ok b -> (
              match Codec.Incremental.feed dec line with
              | Ok (Codec.Incremental.Event a) -> same_event a b
              | _ -> QCheck.Test.fail_reportf "%S: stream decoder disagrees with the oracle" line))
        lines)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_encode_matches_oracle;
        prop_decode_matches_oracle;
        prop_write_all_matches_oracle;
        prop_stream_matches_oracle;
      ]

(* --- Streaming ingestion failures ---

   [Ingest.file] decodes a trace while it feeds the tool, so an error
   can surface after events were fed. Whether the rank count is given
   or found by the first pass, each broken file must fail with the
   text and line number [Codec.read_all] reports, journal one
   [read_error], and yield no verdicts. *)

let broken_traces () =
  let events = sample_events () in
  let n = List.length events in
  let body = List.map Codec.encode_event events in
  let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let corrupt_at = 5 in
  let negative_issuer = "A\t0\tLR\t0\t3\t-1\t1\t-\t1\t0\t0.0\tf.c\t1\top" in
  [
    ("empty file", "", "line 1: empty trace", false);
    ( "bad header",
      lines (("rma-trace 1" :: body) @ [ Codec.footer n ]),
      "line 1: bad header \"rma-trace 1\": trace format \"1\" is unsupported (only format 2 is \
       read)",
      false );
    ( "footer cut off",
      lines (Codec.header :: body),
      Printf.sprintf "line %d: truncated trace: missing rma-trace-end footer" (n + 2),
      true );
    ( "corrupt line mid-file",
      lines
        ((Codec.header :: List.mapi (fun i l -> if i = corrupt_at then "A\t0\tLR\tbogus" else l) body)
        @ [ Codec.footer n ]),
      Printf.sprintf "line %d: malformed trace line \"A\\t0\\tLR\\tbogus\"" (corrupt_at + 2),
      true );
    ( "negative issuer, plain access",
      lines
        ((Codec.header
         :: List.mapi (fun i l -> if i = corrupt_at then negative_issuer else l) body)
        @ [ Codec.footer n ]),
      Printf.sprintf "line %d: negative issuer -1" (corrupt_at + 2),
      true );
    ( "negative issuer, threaded access",
      lines
        ((Codec.header
         :: List.mapi
              (fun i l -> if i = corrupt_at then negative_issuer ^ "\t0\t0\t" else l)
              body)
        @ [ Codec.footer n ]),
      Printf.sprintf "line %d: negative issuer -1" (corrupt_at + 2),
      true );
    ( "line over the cap mid-file",
      lines
        ((Codec.header :: body)
        @ [ String.make (Rma_util.Lines.max_line_bytes + 1) 'x'; Codec.footer n ]),
      Printf.sprintf "line %d: line too long" (n + 2),
      true );
    ( "footer count disagrees",
      lines ((Codec.header :: body) @ [ Codec.footer (n + 1) ]),
      Printf.sprintf "line %d: footer count %d disagrees with %d decoded events" (n + 2) (n + 1) n,
      true );
  ]

(* [f]'s result and the [read_error] records it journaled. *)
let journaled_read_errors f =
  let journal = Filename.temp_file "rma_ingest" ".jsonl" in
  Rma_obs.Obs.enable ();
  Rma_obs.Events.set_sink journal;
  let finish () =
    Rma_obs.Events.close ();
    Rma_obs.Obs.disable ();
    Rma_obs.Obs.reset ();
    Sys.remove journal
  in
  Fun.protect ~finally:finish @@ fun () ->
  let r = f () in
  Rma_obs.Events.close ();
  let records = (Rma_obs.Journal.read_file journal).Rma_obs.Journal.events in
  ( r,
    List.length
      (List.filter
         (fun e -> List.assoc_opt "event" e.Rma_obs.Events.kv = Some "read_error")
         records) )

let test_ingest_failures () =
  List.iter
    (fun (case, bytes, expected, mid_stream) ->
      let path = Filename.temp_file "rma_ingest" ".rma" in
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let read_all = In_channel.with_open_bin path Codec.read_all in
      Alcotest.(check (result reject string))
        (case ^ ": read_all's text") (Error expected)
        (Result.map_error Codec.error_to_string read_all);
      List.iter
        (fun nprocs ->
          let known = Option.is_some nprocs in
          let what = Printf.sprintf "%s, %s rank count" case (if known then "known" else "inferred") in
          let fed = ref 0 in
          let make_tool ~nprocs:_ =
            {
              Tool.baseline with
              Tool.observer =
                (fun _ ->
                  incr fed;
                  0.0);
            }
          in
          let r, read_errors = journaled_read_errors (fun () -> Ingest.file ?nprocs ~make_tool path) in
          (match r with
          | Ok _ -> Alcotest.failf "%s: verdicts from a broken trace" what
          | Error text -> Alcotest.(check string) (what ^ ": error text") expected text);
          Alcotest.(check int) (what ^ ": one read_error journaled") 1 read_errors;
          (* With the count known the only pass feeds the tool, so a
             mid-stream error comes after events were fed; inferring it
             fails in the rank pass, before any tool exists. *)
          Alcotest.(check bool) (what ^ ": events fed before the error") (known && mid_stream)
            (!fed > 0))
        [ None; Some 2 ])
    (broken_traces ())

(* An error names at most 64 bytes of its input, then "…" and the
   input's length: a 1 MB line is not copied into stderr and the
   journal. *)
let test_long_input_errors_are_bounded () =
  let n = 1 lsl 20 in
  let long = String.make n 'x' in
  let check_error what expected = function
    | Ok _ -> Alcotest.failf "%s: accepted a 1 MB line of x" what
    | Error text ->
        Alcotest.(check string) (what ^ ": error text") expected text;
        Alcotest.(check bool) (what ^ ": under 200 bytes") true (String.length text < 200)
  in
  let malformed = Printf.sprintf "malformed trace line %S… (%d bytes)" (String.make 64 'x') n in
  check_error "decode_line" malformed (decode_line long);
  List.iter
    (fun (case, lines, expected) ->
      let path = Filename.temp_file "rma_long" ".rma" in
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      List.iter
        (fun nprocs ->
          check_error ("Ingest.file, " ^ case) expected
            (Ingest.file ?nprocs ~make_tool:(fun ~nprocs:_ -> Tool.baseline) path))
        [ None; Some 2 ])
    [
      ("long event line", [ Codec.header; long; Codec.footer 1 ], "line 2: line too long");
      ("long header", [ "rma-trace " ^ long; Codec.footer 0 ], "line 1: line too long");
    ]

(* A file line is capped like a socket line: a 20 MiB line is refused
   once it passes the cap, never read whole, so neither the heap's high
   water mark nor the words allocated grow with it. *)
let test_long_file_line_is_bounded () =
  let path = Filename.temp_file "rma_long" ".rma" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let block = String.make 65536 'x' in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Codec.header ^ "\n");
      for _ = 1 to 320 do
        output_string oc block
      done;
      output_string oc "\n");
  let mib_words = (1 lsl 20) / (Sys.word_size / 8) in
  (* A full major cycle brings the runtime's lazily merged counters up
     to date on both sides of the call. *)
  let stat () =
    Gc.full_major ();
    Gc.quick_stat ()
  in
  let before = stat () in
  let r = Ingest.file ~make_tool:(fun ~nprocs:_ -> Tool.baseline) path in
  let after = stat () in
  (match r with
  | Ok _ -> Alcotest.fail "accepted a 20 MiB line"
  | Error text -> Alcotest.(check string) "error text" "line 2: line too long" text);
  Alcotest.(check bool) "top_heap_words grows by under 1 MiB" true
    (after.Gc.top_heap_words - before.Gc.top_heap_words < mib_words);
  Alcotest.(check bool) "under 1 MiB allocated in the major heap" true
    (after.Gc.major_words -. before.Gc.major_words < float_of_int mib_words)

(* The time field against [Printf.sprintf "%.9f"] itself: every k/1024
   for |k| <= 2^20 (the odd ones are exact ties at the tenth decimal),
   both neighbours of the doubles nearest (m + 1/2) / 10^9, both sides
   of the 1e6 limit of the integer writer, the special values, and
   random bit patterns whose exponent keeps them under 2^20, where the
   integer writer runs (above it both sides call the same C printf). *)
let test_time_field_matches_printf () =
  let printf = Printf.sprintf "%.9f" in
  let check t =
    let line = Codec.encode_event (Event.Finished { rank = 0; sim_time = t }) in
    let want = printf t in
    if not (String.length line = String.length want + 4 && String.ends_with ~suffix:want line)
    then Alcotest.failf "%h: encoded %S, printf %S" t line want
  in
  for k = -(1 lsl 20) to 1 lsl 20 do
    check (float_of_int k /. 1024.)
  done;
  let st = Random.State.make [| 22 |] in
  for _ = 1 to 100_000 do
    let t = (float_of_int (Random.State.full_int st 1_000_000_000_000_000) +. 0.5) /. 1e9 in
    check (Float.succ t);
    check (Float.pred t)
  done;
  List.iter check
    [
      Float.pred 1e6; 1e6; Float.succ 1e6; -.Float.pred 1e6; -1e6; -.Float.succ 1e6; 0.0; -0.0;
      nan; -.nan; infinity; neg_infinity; min_float; -.min_float; 5e-324; -5e-324; max_float;
      -.max_float;
    ];
  for _ = 1 to 100_000 do
    let bits = Random.State.bits64 st in
    let exponent = Int64.of_int (Random.State.int st 1043) in
    check
      (Int64.float_of_bits
         (Int64.logor (Int64.logand bits 0x800F_FFFF_FFFF_FFFFL) (Int64.shift_left exponent 52)))
  done

let suite =
  suite
  @ [
      Alcotest.test_case "ingestion fails like read_all, once, without verdicts" `Quick
        test_ingest_failures;
      Alcotest.test_case "errors on a 1 MB line stay under 200 bytes" `Quick
        test_long_input_errors_are_bounded;
      Alcotest.test_case "a 20 MiB file line grows the heap by under 1 MiB" `Quick
        test_long_file_line_is_bounded;
      Alcotest.test_case "time field matches Printf.sprintf %.9f" `Slow
        test_time_field_matches_printf;
    ]

(* --- CRLF input, header quoting, the decoder's thread table --- *)

(* A trace file with CRLF line ends reads as its LF original: the same
   events reach the tool, so the verdicts are the same. *)
let test_crlf_trace_same_verdicts () =
  let events = kernel_events "rrb_lockall_remote_conflict_put_put_race" in
  let lf, _ = save_and_load events in
  let crlf = String.concat "\r\n" (String.split_on_char '\n' lf) in
  let verdicts bytes =
    let path = Filename.temp_file "rma_crlf" ".rma" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    let make_tool ~nprocs =
      Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Contribution
    in
    match Ingest.file ~make_tool path with
    | Ok run ->
        let races = run.Ingest.tool.Tool.races () in
        (List.length races, run.Ingest.events, Rma_report.Race_export.verdict_digest races)
    | Error e -> Alcotest.failf "trace rejected: %s" e
  in
  let races, n, digest = verdicts lf in
  Alcotest.(check bool) "the kernel races" true (races > 0);
  Alcotest.(check (triple int int string)) "CRLF copy: same races, events and digest"
    (races, n, digest) (verdicts crlf)

(* A header naming an unknown version quotes it, control bytes escaped. *)
let test_bad_header_quotes_version () =
  let path = Filename.temp_file "rma_header" ".rma" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc "rma-trace 2\t\nrma-trace-end 0\n");
  match In_channel.with_open_bin path Codec.read_all with
  | Ok _ -> Alcotest.fail "accepted a bad header"
  | Error e ->
      Alcotest.(check string) "error text"
        "line 1: bad header \"rma-trace 2\\t\": trace format \"2\\t\" is unsupported (only format \
         2 is read)"
        (Codec.error_to_string e)

(* One decoder shares one default thread per issuer, however the
   issuers interleave; an issuer past the table's bound still decodes
   to its default thread. A negative issuer has none (its clock key is
   undefined), so its line is an error that names it. *)
let test_decoder_thread_table () =
  let access ~issuer ~seq =
    Event.Access
      {
        Event.space = 0;
        access =
          Rma_access.Access.make
            ~interval:(Rma_access.Interval.make ~lo:seq ~hi:seq)
            ~kind:Rma_access.Access_kind.Local_write ~issuer ~seq
            ~debug:(Rma_access.Debug_info.make ~file:"t.c" ~line:1 ~operation:"Store");
        win = None;
        relevant = true;
        on_stack = false;
        sim_time = 0.0;
      }
  in
  let dec = Codec.Incremental.create () in
  ignore (Codec.Incremental.feed dec Codec.header);
  let decode e =
    match Codec.Incremental.feed dec (Codec.encode_event e) with
    | Ok (Codec.Incremental.Event (Event.Access a)) -> a.Event.access
    | _ -> Alcotest.fail "access did not decode"
  in
  let issuers = [ 0; 1; 0; 7; 1; 0; 7 ] in
  let decoded = List.mapi (fun seq issuer -> decode (access ~issuer ~seq)) issuers in
  List.iter
    (fun (a : Rma_access.Access.t) ->
      List.iter
        (fun (b : Rma_access.Access.t) ->
          if a.Rma_access.Access.issuer = b.Rma_access.Access.issuer then
            Alcotest.(check bool)
              (Printf.sprintf "issuer %d shares one thread record" a.Rma_access.Access.issuer)
              true
              (a.Rma_access.Access.thread == b.Rma_access.Access.thread))
        decoded)
    decoded;
  List.iter
    (fun issuer ->
      let a = decode (access ~issuer ~seq:1) in
      Alcotest.(check bool)
        (Printf.sprintf "issuer %d decodes to its default thread" issuer)
        true
        (a.Rma_access.Access.thread = Rma_access.Access.default_thread ~issuer))
    [ 0; 7; 4095; 4096; 1_000_000; max_int ];
  List.iter
    (fun issuer ->
      let line =
        Printf.sprintf "A\t0\tLW\t1\t1\t%d\t1\t-\t1\t0\t0.000000000\tt.c\t1\tStore" issuer
      in
      match Codec.Incremental.feed dec line with
      | Error e ->
          Alcotest.(check string)
            (Printf.sprintf "issuer %d is rejected" issuer)
            (Printf.sprintf "negative issuer %d" issuer)
            e.Codec.reason
      | Ok _ -> Alcotest.failf "issuer %d decoded" issuer)
    [ -1; min_int ]

let suite =
  suite
  @ [
      Alcotest.test_case "a CRLF trace gives the LF trace's verdicts" `Quick
        test_crlf_trace_same_verdicts;
      Alcotest.test_case "a bad header quotes the version" `Quick test_bad_header_quotes_version;
      Alcotest.test_case "decoder shares one default thread per issuer" `Quick
        test_decoder_thread_table;
    ]

(* --- Damaged traces ---

   The writer writes whole traces; the damage a killed writer or a
   flaky disk does is made here, over the written bytes. *)

let read_bytes bytes =
  let path = Filename.temp_file "rma_damaged" ".rma" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  In_channel.with_open_bin path Codec.read_all

(* A prefix that stops before the footer line is complete is an error
   with a line number, wherever the cut falls: in the header, inside an
   event line, on a line boundary, or inside the footer itself. Only
   the footer's own newline carries no data. *)
let prop_truncated_prefix_is_error =
  QCheck.Test.make ~name:"a trace cut before its footer is a structured error" ~count:300
    (QCheck.make Gen.(pair stream_gen nat))
    (fun (events, cut) ->
      let bytes = written_by Codec.write_all events in
      let cut = cut mod (String.length bytes - 1) in
      match read_bytes (String.sub bytes 0 cut) with
      | Ok _ -> QCheck.Test.fail_reportf "a %d-byte prefix read back as complete" cut
      | Error e -> e.Codec.at_line >= 1)

(* One line's middle byte with its low bit flipped ([corrupt_line]),
   in any line, header and footer included: the reader answers [Ok]
   with the written event count or a structured error, never raises. *)
let prop_corrupted_line_is_total =
  QCheck.Test.make ~name:"a trace with one corrupted line decodes totally" ~count:300
    (QCheck.make Gen.(pair stream_gen nat))
    (fun (events, at) ->
      let lines = String.split_on_char '\n' (written_by Codec.write_all events) in
      let at = at mod (List.length lines - 1) in
      let damaged =
        List.mapi (fun i l -> if i = at then Codec_oracle.corrupt_line l else l) lines
      in
      match read_bytes (String.concat "\n" damaged) with
      | Ok read -> List.length read = List.length events
      | Error e -> e.Codec.at_line >= 1)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_truncated_prefix_is_error; prop_corrupted_line_is_total ]

(* --- Recorded application traces ---

   The two perfbench workloads at their CI scale (CFD-Proxy: 12 ranks,
   4 iterations; MiniVite: 32 ranks, 4 000 vertices, the Figure 9
   duplicate Put), written and read back through the file path: every
   decoded event is the recorded one, with its time at the format's
   nanosecond resolution — what the reference oracle decodes from the
   recorded event's line. *)

let app_trace_config = { Config.default with Config.analysis_overhead_scale = 0.0 }

let cfd_trace observer =
  let params = { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations = 4 } in
  ignore (Cfd_proxy.Halo.run params ~nprocs:12 ~seed:42 ~config:app_trace_config ~observer ())

let minivite_trace observer =
  let params =
    {
      Minivite.Louvain.default_params with
      Minivite.Louvain.graph =
        { Minivite.Graph.default_params with Minivite.Graph.n_vertices = 4_000; seed = 42 };
      inject_race = true;
      iterations = 2;
    }
  in
  ignore (Minivite.Louvain.run params ~nprocs:32 ~seed:42 ~config:app_trace_config ~observer ())

let test_app_traces_decode_to_recorded_events () =
  List.iter
    (fun (name, run) ->
      let recorder = Recorder.create () in
      run (Recorder.observer recorder);
      let events = Recorder.events recorder in
      let path = Filename.temp_file "rma_app" ".rma" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> Codec.write_all oc events);
      match In_channel.with_open_bin path Codec.read_all with
      | Error e -> Alcotest.failf "%s: %s" name (Codec.error_to_string e)
      | Ok decoded ->
          Alcotest.(check int) (name ^ ": every event read back") (List.length events)
            (List.length decoded);
          List.iteri
            (fun i (recorded, d) ->
              let line = Codec_oracle.encode_event recorded in
              match Codec_oracle.decode_event line with
              | Ok expected when same_event d expected -> ()
              | _ -> Alcotest.failf "%s: event %d decodes to %S, recorded %S" name (i + 1)
                       (Codec.encode_event d) line)
            (List.combine events decoded))
    [ ("CFD-Proxy", cfd_trace); ("MiniVite", minivite_trace) ]

let suite =
  suite
  @ [
      Alcotest.test_case "CFD-Proxy and MiniVite traces decode to the recorded events" `Slow
        test_app_traces_decode_to_recorded_events;
    ]

(* --- Decoding in the read buffer ---

   Readers hand the decoder each line as a slice of the buffer they
   read it into, which the next read overwrites. *)

(* What the decoder returns, and the file and operation strings it
   reuses for the next line with the same ones, are its own copies:
   overwriting the buffer changes neither. The second line lies at
   another offset, so a reused string that still viewed the buffer
   would no longer match it. *)
let test_decoder_keeps_no_view () =
  let put seq =
    Event.Access
      {
        Event.space = 0;
        access =
          Rma_access.Access.make
            ~interval:(Rma_access.Interval.make ~lo:seq ~hi:(seq + 7))
            ~kind:Rma_access.Access_kind.Rma_write ~issuer:1 ~seq
            ~debug:(Rma_access.Debug_info.make ~file:"halo.c" ~line:12 ~operation:"MPI_Put");
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = 0.5;
      }
  in
  let dec = Codec.Incremental.create () in
  ignore (Codec.Incremental.feed dec Codec.header);
  let buf = Bytes.make 256 '\n' in
  let decode_at off e =
    let line = Codec.encode_event e in
    Bytes.blit_string line 0 buf off (String.length line);
    (* The buffer viewed as a string, as the line splitter passes it. *)
    match
      Codec.Incremental.feed_slice dec (Bytes.unsafe_to_string buf) off (off + String.length line)
    with
    | Ok (Codec.Incremental.Event (Event.Access a)) -> a.Event.access.Rma_access.Access.debug
    | _ -> Alcotest.fail "the access line did not decode"
  in
  let first = decode_at 7 (put 1) in
  Bytes.fill buf 0 (Bytes.length buf) 'Z';
  let file = first.Rma_access.Debug_info.file and op = first.Rma_access.Debug_info.operation in
  Alcotest.(check (pair string string)) "decoded strings survive the buffer" ("halo.c", "MPI_Put")
    (file, op);
  let second = decode_at 0 (put 2) in
  Bytes.fill buf 0 (Bytes.length buf) 'Z';
  Alcotest.(check bool) "the next line reuses the decoded file" true
    (second.Rma_access.Debug_info.file == file);
  Alcotest.(check bool) "the next line reuses the decoded operation" true
    (second.Rma_access.Debug_info.operation == op);
  Alcotest.(check (pair string string)) "and they still read the same" ("halo.c", "MPI_Put")
    (file, op)

type step = Fed of Event.event | Skipped | Completed of int | Failed of string

let same_step a b =
  match (a, b) with
  | Fed a, Fed b -> same_event a b
  | Skipped, Skipped -> true
  | Completed m, Completed n -> m = n
  | Failed a, Failed b -> String.equal a b
  | _ -> false

let step_of = function
  | Ok (Codec.Incremental.Event e) -> Fed e
  | Ok Codec.Incremental.Skip -> Skipped
  | Ok (Codec.Incremental.Complete n) -> Completed n
  | Error e -> Failed (Codec.error_to_string e)

(* Every line of [text] to [Incremental.feed] as a string of its own,
   split as a reader splits it, until an error or the footer: the steps
   and the outcome [read_all] must reproduce. *)
let fed_line_by_line text =
  let dec = Codec.Incremental.create () in
  let drop_cr l =
    let n = String.length l in
    if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
  in
  let rec go steps = function
    | [] | [ "" ] ->
        (List.rev steps, Result.map_error Codec.error_to_string (Codec.Incremental.finish dec))
    | l :: rest -> (
        let l = if rest = [] then l else drop_cr l in
        match step_of (Codec.Incremental.feed dec l) with
        | Completed n as s -> (List.rev (s :: steps), Ok n)
        | Failed e as s -> (List.rev (s :: steps), Error e)
        | s -> go (s :: steps) rest)
  in
  go [] (String.split_on_char '\n' text)

(* The hostile lines with the file's first 64 KiB read boundary at any
   of their bytes, behind valid lines and one blank line that place
   them, and a footer counting what they decode to. [Codec.fold] passes
   each line as a slice of its read buffer, or of [pending] for the line
   the boundary cuts; the steps, and [read_all]'s result, must be those
   of feeding each line as a string. *)
let prop_file_slices_match_line_feed =
  QCheck.Test.make
    ~name:"codec decodes hostile lines in the read buffer as it decodes them one by one"
    ~count:200
    (QCheck.make
       ~print:(fun (l, at) ->
         Printf.sprintf "at %d: %s" at (String.concat "\n" (List.map (Printf.sprintf "%S") l)))
       Gen.(pair mutated_lines_gen nat))
    (fun (lines, at) ->
      let block = String.concat "\n" lines ^ "\n" in
      let at = at mod (String.length block + 1) in
      let head = Codec.header ^ "\n" in
      let room = 65536 - at - String.length head in
      assert (room >= 32);
      let filler =
        String.concat "" (List.init ((room / 16) - 1) (fun _ -> "Z\t0\t0.000000000\n"))
      in
      let blank = String.make (room - String.length filler - 1) ' ' ^ "\n" in
      let text = head ^ filler ^ blank ^ block in
      let is_fed = function Fed _ -> true | _ -> false in
      let events = List.length (List.filter is_fed (fst (fed_line_by_line text))) in
      let text = text ^ Codec.footer events ^ "\n" in
      let expected_steps, expected = fed_line_by_line text in
      let path = Filename.temp_file "rma_slices" ".rma" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let steps = ref [] in
      let folded =
        In_channel.with_open_bin path (fun ic ->
            Codec.fold ic
              (fun dec s start stop ->
                let r = Codec.Incremental.feed_slice dec s start stop in
                steps := step_of r :: !steps;
                r)
              ~error:Fun.id)
        |> Result.map_error Codec.error_to_string
      in
      let read_all =
        In_channel.with_open_bin path Codec.read_all
        |> Result.map (List.map (fun e -> Fed e))
        |> Result.map_error Codec.error_to_string
      in
      let fed = List.filter is_fed expected_steps in
      let steps = List.rev !steps in
      let same_steps a b = List.length a = List.length b && List.for_all2 same_step a b in
      (same_steps steps expected_steps
      || QCheck.Test.fail_reportf "fold's steps differ from line-by-line feeding")
      && (folded = expected || QCheck.Test.fail_reportf "fold's outcome differs")
      &&
      match (read_all, expected) with
      | Ok got, Ok _ -> same_steps got fed
      | Error a, Error b -> String.equal a b
      | _ -> QCheck.Test.fail_reportf "read_all's result differs from line-by-line feeding")

(* [rma_race analyze] on a pipe. Inferring the rank count takes a first
   pass over the trace, which would drain the pipe, so without [--ranks]
   the run is refused naming it; with [--ranks] the pipe gives the
   file's verdicts and digest. The built CLI runs, as in the journal
   tests. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rma_race_cli.exe"

let test_analyze_reads_a_pipe_with_ranks () =
  let temp suffix = Filename.temp_file "rma_pipe" suffix in
  let trace = temp ".rma" and out = temp ".out" and err = temp ".err" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ trace; out; err ]) @@ fun () ->
  let run ?pipe args =
    let command = Filename.quote_command cli ~stdout:out ~stderr:err args in
    Sys.command
      (match pipe with None -> command | Some f -> "cat " ^ Filename.quote f ^ " | " ^ command)
  in
  let digest () =
    List.find_opt (String.starts_with ~prefix:"digest: ")
      (String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all))
  in
  Alcotest.(check int) "record exits 0" 0
    (run [ "record"; "rrb_lockall_remote_conflict_put_put_race"; "--out"; trace ]);
  Alcotest.(check int) "analyze of the file exits 0" 0 (run [ "analyze"; trace ]);
  let from_file = digest () in
  Alcotest.(check bool) "the file's digest is printed" true (Option.is_some from_file);
  let ranks =
    match Ingest.ranks trace with Ok n -> string_of_int n | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "analyze of a pipe with --ranks exits 0" 0
    (run ~pipe:trace [ "analyze"; "--ranks"; ranks; "/dev/stdin" ]);
  Alcotest.(check (option string)) "the pipe gives the file's digest" from_file (digest ());
  Alcotest.(check int) "analyze of a pipe without --ranks exits 2" 2
    (run ~pipe:trace [ "analyze"; "/dev/stdin" ]);
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check bool) "the refusal names --ranks" true
    (Astring.String.is_infix ~affix:"--ranks" stderr);
  Alcotest.(check (option string)) "and prints no verdict" None (digest ())

let suite =
  suite
  @ [
      Alcotest.test_case "the decoder keeps nothing of the caller's buffer" `Quick
        test_decoder_keeps_no_view;
      QCheck_alcotest.to_alcotest prop_file_slices_match_line_feed;
      Alcotest.test_case "analyze reads a pipe given --ranks, and refuses one without" `Quick
        test_analyze_reads_a_pipe_with_ranks;
    ]

(* Record a run's instrumentation stream to a trace file, then analyse
   it offline — the MC-Checker-style post-mortem workflow (§3 of the
   paper). Unlike the on-the-fly tools, which abort at the first
   conflict, the post-mortem pass enumerates every racy statement pair.

     dune exec examples/trace_postmortem.exe
     dune exec examples/trace_postmortem.exe -- /tmp/my_trace.txt
     RMA_BUDGET=4:spill dune exec examples/trace_postmortem.exe
*)

open Mpi_sim
open Rma_trace

(* A program with two independent races. *)
let program () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 32 in
  let win = Mpi.win_create ~base ~size:32 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let src = Mpi.alloc ~exposed:true 16 in
    let put line disp off =
      Mpi.put win
        ~loc:(Mpi.loc ~file:"exchange.c" ~line "MPI_Put")
        ~target:1 ~target_disp:disp ~origin_addr:(src + off) ~len:8
    in
    put 21 0 0;
    put 22 0 0;
    (* duplicate: race 1 *)
    put 31 16 8;
    put 32 16 8 (* duplicate: race 2 *)
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

let () =
  (* The environment is the only configuration this example reads: a
     budget or predictive mode there shapes the on-the-fly replay. *)
  let run =
    match Rma_config.Run_config.of_env () with
    | Ok run -> run
    | Error msg ->
        Printf.eprintf "trace_postmortem: %s\n" msg;
        exit 124
  in
  let path =
    match Array.to_list Sys.argv with
    | _ :: p :: _ -> p
    | _ -> Filename.temp_file "rma_trace" ".txt"
  in
  let recorder = Recorder.create () in
  let _ = Runtime.run ~nprocs:2 ~seed:3 ~observer:(Recorder.observer recorder) program in
  Recorder.save recorder ~path;
  Printf.printf "recorded %d events to %s\n\n" (Recorder.length recorder) path;

  (match Recorder.load ~path with
  | Error e -> Printf.eprintf "reload failed: %s\n" e
  | Ok events ->
      Printf.printf "1. On-the-fly tool on the replayed trace (stops at the first conflict):\n";
      let tool =
        Rma_analysis.Rma_analyzer.create ~nprocs:2 ~mode:Rma_analysis.Tool.Collect
          ?budget:run.Rma_config.Run_config.budget
          ~predictive:run.Rma_config.Run_config.predictive Rma_analysis.Rma_analyzer.Contribution
      in
      let races = Recorder.replay events ~tool in
      List.iteri
        (fun i r -> if i < 3 then Printf.printf "   %s\n" (Rma_analysis.Report.to_message r))
        races;
      Printf.printf "   (%d reports)\n\n" (List.length races);

      Printf.printf "2. Post-mortem analysis (enumerates every racy statement pair):\n";
      let result = Post_mortem.analyze events in
      List.iter
        (fun r -> Printf.printf "   %s\n" (Rma_analysis.Report.to_message r))
        (Post_mortem.to_reports result);
      Printf.printf "   (%d distinct pairs from %d accesses, %d pair checks)\n"
        result.Post_mortem.distinct_pairs result.Post_mortem.accesses_checked
        result.Post_mortem.pairs_checked)

(* Central registry of every checked-in golden file under test/golden/
   and the environment hook that regenerates it.

   Each golden test calls [hook ~name] where it used to read its own
   GOLDEN_OUT_* variable: [Some path] means "write the freshly rendered
   bytes there instead of comparing" (an intentional format change),
   [None] means "compare against the checked-in file". Two ways to get
   [Some]:

   - the golden's dedicated variable, e.g.
       GOLDEN_OUT_HYBRID=$PWD/test/golden/race_hybrid.json dune runtest --force
   - the umbrella directory, regenerating EVERY registered golden in
     one run:
       GOLDEN_OUT_DIR=$PWD/test/golden dune runtest --force

   The [suite] below audits the registry against the checked-in
   directory in both directions, so a golden that is added without a
   regen hook — or a registry entry whose file was deleted — fails the
   ordinary test run. *)

type entry = {
  golden : string;  (** Path relative to the test runner's cwd. *)
  env : string;  (** Dedicated regeneration variable. *)
}

let entries =
  [
    { golden = "golden/race.sarif"; env = "GOLDEN_OUT" };
    { golden = "golden/race_degraded.sarif"; env = "GOLDEN_OUT_DEGRADED" };
    { golden = "golden/race_hybrid.json"; env = "GOLDEN_OUT_HYBRID" };
    { golden = "golden/race_predicted.json"; env = "GOLDEN_OUT_PREDICTED" };
    { golden = "golden/explain.txt"; env = "GOLDEN_OUT_EXPLAIN" };
    { golden = "golden/events_journal.jsonl"; env = "GOLDEN_OUT_EVENTS" };
    { golden = "golden/obs_stats.txt"; env = "GOLDEN_OUT_STATS" };
    { golden = "golden/prometheus_escaping.txt"; env = "GOLDEN_OUT_PROM" };
    { golden = "golden/trace_kernels.rma"; env = "GOLDEN_OUT_TRACE" };
  ]

let find_entry name =
  List.find_opt (fun e -> String.equal (Filename.basename e.golden) name) entries

let hook ~name =
  match find_entry name with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Golden_regen.hook: %S is not in the registry — add it to Golden_regen.entries" name)
  | Some e -> (
      match Sys.getenv_opt e.env with
      | Some path -> Some path
      | None ->
          Option.map (fun dir -> Filename.concat dir name) (Sys.getenv_opt "GOLDEN_OUT_DIR"))

let write ~path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let read ~name =
  match find_entry name with
  | None ->
      invalid_arg (Printf.sprintf "Golden_regen.read: %S is not in the registry" name)
  | Some e ->
      let ic = open_in e.golden in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* The standard write-or-compare bracket every golden test reduces to:
   regenerate when hooked, otherwise byte-compare against the
   checked-in file. *)
let check ~name ~what content =
  match hook ~name with
  | Some path -> write ~path content
  | None -> Alcotest.(check string) what (read ~name) content

(* ------------------------------------------------------------------ *)
(* Registry audit                                                      *)
(* ------------------------------------------------------------------ *)

let test_every_golden_is_registered () =
  (* A checked-in golden nobody can regenerate rots silently: any file
     in the golden/ directory must have a registry entry (and therefore
     a dedicated env hook plus GOLDEN_OUT_DIR coverage). *)
  let on_disk = Sys.readdir "golden" |> Array.to_list |> List.sort compare in
  List.iter
    (fun file ->
      match find_entry file with
      | Some _ -> ()
      | None ->
          Alcotest.failf
            "golden/%s is checked in but unreachable from the regen hook — register it in \
             test/golden_regen.ml"
            file)
    on_disk

let test_every_entry_exists () =
  List.iter
    (fun e ->
      if not (Sys.file_exists e.golden) then
        Alcotest.failf "registry names %s (%s) but no such golden is checked in" e.golden e.env)
    entries

let test_entries_are_unique () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      List.iter
        (fun key ->
          if Hashtbl.mem seen key then Alcotest.failf "duplicate registry key %s" key
          else Hashtbl.replace seen key ())
        [ e.golden; e.env ])
    entries

let suite =
  [
    Alcotest.test_case "every checked-in golden has a regen hook" `Quick
      test_every_golden_is_registered;
    Alcotest.test_case "every registry entry is checked in" `Quick test_every_entry_exists;
    Alcotest.test_case "registry paths and env vars are unique" `Quick test_entries_are_unique;
  ]

open Rma_access
open Rma_store

(* Model-based testing: a deliberately naive per-byte reference model of
   the paper's semantics — every byte keeps its dominant access, the
   conflict rule is checked byte by byte against the full history of
   dominant accesses — and the real stores must agree with it.

   The model mirrors the abstraction the paper's algorithm commits to
   (one dominant access per byte, Table 1), not ideal race semantics;
   the dominance-absorption imprecision is therefore shared by model and
   implementation, which is exactly what makes them comparable. *)

module Oracle = struct
  type t = { bytes : (int, Access.t) Hashtbl.t; order_aware : bool }

  let create ?(order_aware = true) () = { bytes = Hashtbl.create 256; order_aware }

  let insert t access =
    let iv = access.Access.interval in
    let conflict = ref None in
    for b = Interval.lo iv to Interval.hi iv do
      if !conflict = None then begin
        match Hashtbl.find_opt t.bytes b with
        | Some existing
          when Race_rule.races ~order_aware:t.order_aware ~existing ~incoming:access ->
            conflict := Some existing
        | _ -> ()
      end
    done;
    match !conflict with
    | Some existing -> Store_intf.Race_detected { existing; incoming = access }
    | None ->
        for b = Interval.lo iv to Interval.hi iv do
          let winner =
            match Hashtbl.find_opt t.bytes b with
            | None -> Access.with_interval access (Interval.byte b)
            | Some existing ->
                Access.dominate ~older:existing ~newer:access (Interval.byte b)
          in
          Hashtbl.replace t.bytes b winner
        done;
        Store_intf.Inserted

  let kind_at t b = Option.map (fun a -> a.Access.kind) (Hashtbl.find_opt t.bytes b)
end

let dbg line = Debug_info.make ~file:"oracle.c" ~line ~operation:"op"

let build ?(single_issuer = false) program =
  List.mapi
    (fun i (lo, len, k, line, issuer) ->
      let kind = List.nth Access_kind.all k in
      let issuer = if single_issuer || Access_kind.is_local kind then 0 else issuer in
      Access.make
        ~interval:(Interval.make ~lo ~hi:(lo + len - 1))
        ~kind ~issuer ~seq:(i + 1) ~debug:(dbg line))
    program

let access_gen =
  QCheck.Gen.(
    let* lo = int_range 0 100 in
    let* len = int_range 1 16 in
    let* k = int_range 0 3 in
    let* line = int_range 1 4 in
    let* issuer = int_range 0 2 in
    return (lo, len, k, line, issuer))

let arb_program =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (a, b, c, d, e) -> Printf.sprintf "(%d,%d,%d,%d,%d)" a b c d e) l))
    QCheck.Gen.(list_size (int_range 1 50) access_gen)

(* Run both and compare the per-access verdict stream. Racy accesses are
   rejected by both (not inserted), so states stay comparable. *)
let verdict_stream insert accesses =
  List.map
    (fun a ->
      match insert a with Store_intf.Inserted -> false | Store_intf.Race_detected _ -> true)
    accesses

let prop_disjoint_matches_oracle =
  QCheck.Test.make ~name:"Disjoint_store verdicts match the per-byte model" ~count:500
    arb_program
    (fun program ->
      let accesses = build program in
      let oracle = Oracle.create () in
      let store = Disjoint_store.create () in
      verdict_stream (Oracle.insert oracle) accesses
      = verdict_stream (Disjoint_store.insert store) accesses)

let prop_disjoint_state_matches_oracle =
  QCheck.Test.make ~name:"Disjoint_store per-byte kinds match the model" ~count:300 arb_program
    (fun program ->
      let accesses = build program in
      let oracle = Oracle.create () in
      let store = Disjoint_store.create () in
      List.iter (fun a -> ignore (Oracle.insert oracle a)) accesses;
      List.iter (fun a -> ignore (Disjoint_store.insert store a)) accesses;
      let store_kind_at b =
        List.find_map
          (fun a ->
            if Interval.contains a.Access.interval b then Some a.Access.kind else None)
          (Disjoint_store.to_list store)
      in
      let ok = ref true in
      for b = 0 to 120 do
        match (Oracle.kind_at oracle b, store_kind_at b) with
        | None, None -> ()
        | Some ka, Some kb when Access_kind.equal ka kb -> ()
        | _ -> ok := false
      done;
      !ok)

let prop_order_blind_matches_oracle =
  QCheck.Test.make ~name:"order-blind store matches the order-blind model" ~count:300 arb_program
    (fun program ->
      let accesses = build program in
      let oracle = Oracle.create ~order_aware:false () in
      let store = Disjoint_store.create ~order_aware:false () in
      verdict_stream (Oracle.insert oracle) accesses
      = verdict_stream (Disjoint_store.insert store) accesses)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_disjoint_matches_oracle;
    QCheck_alcotest.to_alcotest prop_disjoint_state_matches_oracle;
    QCheck_alcotest.to_alcotest prop_order_blind_matches_oracle;
  ]

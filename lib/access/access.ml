type thread_info = { tid : int; tstamp : int; tview : (int * int) list }

type t = {
  interval : Interval.t;
  kind : Access_kind.t;
  issuer : int;
  seq : int;
  debug : Debug_info.t;
  thread : thread_info;
}

(* The thread identity every access carries when the issuing rank never
   spawned a thread: tid 0 with the virgin clock a main thread is born
   with (own component ticked once). Deriving it from the issuer alone
   lets serializers omit the whole field for single-thread traces and
   reconstruct it exactly on decode. *)
let default_thread ~issuer =
  { tid = 0; tstamp = 1; tview = [ (Rma_vclock.Vclock.rt_key ~rank:issuer ~thread:0, 1) ] }

(* Pairs annotated as ints: list [=] would call the C polymorphic compare
   on every mergeability check. *)
let thread_equal a b =
  a == b
  || a.tid = b.tid && a.tstamp = b.tstamp
     && (a.tview == b.tview
        || List.equal (fun ((k, v) : int * int) (k', v') -> k = k' && v = v') a.tview b.tview)

let is_default_thread t =
  (* [thread_equal t.thread (default_thread ~issuer:t.issuer)] without
     building the default: encoders ask this once per access. *)
  let own = Rma_vclock.Vclock.rt_key ~rank:t.issuer ~thread:0 in
  match t.thread with { tid = 0; tstamp = 1; tview = [ (k, 1) ] } -> k = own | _ -> false

let make_threaded ~thread ~interval ~kind ~issuer ~seq ~debug =
  { interval; kind; issuer; seq; debug; thread }

let make ~interval ~kind ~issuer ~seq ~debug =
  make_threaded ~thread:(default_thread ~issuer) ~interval ~kind ~issuer ~seq ~debug

let with_interval t interval = { t with interval }

let same_issuer a b = a.issuer = b.issuer

(* Did [prior] happen-before [later] in the issuing process's program
   order — same thread, or [later]'s thread had observed [prior]'s
   thread clock through a spawn/join/signal/wait edge when it issued? *)
let thread_ordered ~prior ~later =
  prior.issuer = later.issuer
  && (prior.thread.tid = later.thread.tid
     ||
     let key = Rma_vclock.Vclock.rt_key ~rank:prior.issuer ~thread:prior.thread.tid in
     match List.assoc_opt key later.thread.tview with
     | Some v -> v >= prior.thread.tstamp
     | None -> false)

let mergeable a b =
  a.issuer = b.issuer && Access_kind.equal a.kind b.kind && Debug_info.equal a.debug b.debug
  && thread_equal a.thread b.thread

let most_recent a b = if a.seq >= b.seq then a else b

let dominate ~older ~newer interval =
  let sa = Access_kind.strength older.kind and sb = Access_kind.strength newer.kind in
  let winner =
    if sa > sb then older else if sb > sa then newer else most_recent older newer
  in
  { winner with interval }

let pp fmt t =
  if t.thread.tid = 0 then
    Format.fprintf fmt "(%a, %a, rank %d, %a)" Interval.pp t.interval Access_kind.pp t.kind
      t.issuer Debug_info.pp t.debug
  else
    Format.fprintf fmt "(%a, %a, rank %d thread %d, %a)" Interval.pp t.interval Access_kind.pp
      t.kind t.issuer t.thread.tid Debug_info.pp t.debug

let to_string t = Format.asprintf "%a" pp t

let equal a b =
  Interval.equal a.interval b.interval
  && Access_kind.equal a.kind b.kind
  && a.issuer = b.issuer && a.seq = b.seq
  && Debug_info.equal a.debug b.debug
  && thread_equal a.thread b.thread

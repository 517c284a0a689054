module Schema = Oodb_schema.Schema
module Value = Objstore.Value
module Stats = Storage.Stats
module Pager = Storage.Pager
module Trace = Obs.Trace

type binding = {
  value : Value.t;
  comps : (Schema.class_id * Value.oid) list;
}

type outcome = {
  bindings : binding list;
  page_reads : int;
  pool_hits : int;
  entries_scanned : int;
}

let head_oids o =
  List.filter_map
    (fun b ->
      match List.rev b.comps with (_, oid) :: _ -> Some oid | [] -> None)
    o.bindings
  |> List.sort_uniq compare

let take n l =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n l

let binding_of (d : Ukey.decoded) arity =
  { value = d.value; comps = take arity d.comps }

(* [page_reads] stays the pager-read delta whether or not a pool is
   attached: pool hits never reach the pager, misses do, so the paper's
   uncached counts are preserved exactly when no pool is in play and the
   warm counts are genuine physical-page fetches otherwise.  Hits are
   reported separately. *)
let with_read_count tree f =
  let stats = Pager.stats (Btree.pager tree) in
  let before = Stats.snapshot stats in
  let bindings, entries = f () in
  let delta = Stats.diff ~before ~after:(Stats.snapshot stats) in
  {
    bindings = List.rev bindings;
    page_reads = delta.reads;
    pool_hits = delta.pool_hits;
    entries_scanned = entries;
  }

(* --- span plumbing ------------------------------------------------------ *)

(* All instrumentation is keyed on [trace : Trace.span option]; when it is
   [None] the cost is an option match at segment boundaries — never per
   entry — so the untraced paths stay within noise of the old code.

   Only descent/scan segment spans carry a ["page_reads"] field, and every
   pager read issued by the executor happens inside exactly one segment
   (plan compilation and candidate generation are pure), so
   [Trace.total root "page_reads"] equals the query's pager-stats delta. *)

let plan_span trace plan =
  match trace with
  | None -> ()
  | Some parent ->
      let sp = Trace.span "plan" in
      (match Plan.intervals plan with
      | Some ivs -> Trace.add_field sp "intervals" (List.length ivs)
      | None -> Trace.add_field sp "enumerable" 0);
      Trace.add_child parent sp

let merge_span trace (acc, n) =
  (match trace with
  | None -> ()
  | Some parent ->
      let sp = Trace.span "merge" in
      Trace.add_field sp "bindings" (List.length acc);
      Trace.add_field sp "entries_scanned" n;
      Trace.add_child parent sp);
  (acc, n)

(* Mutable per-query segment accounting for the scan loops.  A segment is
   one B-tree descent plus the sequential scan that follows it; the
   parallel algorithm opens a new segment at every [Plan.Seek], hundreds
   per range query.  Closed segment spans are consed newest-first and
   attached to the parent in one batch by [seg_finish], so a query's span
   tree costs O(segments) to build — appending each segment to the
   parent's children as it closed would rebuild that list every time. *)
type seg_state = {
  parent : Trace.span;
  stats : Stats.t;
  mutable name : string option;  (* the open segment, if any *)
  mutable closed : Trace.span list;  (* newest first *)
  mutable start_reads : int;
  mutable start_pool_hits : int;
  mutable entries : int;
  mutable accepted : int;
}

let seg_make trace stats =
  match trace with
  | None -> None
  | Some parent ->
      Some
        {
          parent;
          stats;
          name = None;
          closed = [];
          start_reads = 0;
          start_pool_hits = 0;
          entries = 0;
          accepted = 0;
        }

let seg_close = function
  | None -> ()
  | Some s -> (
      match s.name with
      | None -> ()
      | Some name ->
          let hits = s.stats.Stats.pool_hits - s.start_pool_hits in
          let counts = [ ("entries", s.entries); ("accepted", s.accepted) ] in
          let fields =
            ("page_reads", s.stats.Stats.reads - s.start_reads)
            :: (if hits > 0 then ("pool_hits", hits) :: counts else counts)
          in
          s.closed <- Trace.span ~fields name :: s.closed;
          s.name <- None)

(* Closes the open segment and attaches every segment, in execution
   order, after the parent's existing children. *)
let seg_finish seg =
  seg_close seg;
  match seg with
  | None -> ()
  | Some s ->
      Trace.add_children s.parent (List.rev s.closed);
      s.closed <- []

let seg_open seg name =
  match seg with
  | None -> ()
  | Some s ->
      seg_close seg;
      s.name <- Some name;
      s.start_reads <- s.stats.Stats.reads;
      s.start_pool_hits <- s.stats.Stats.pool_hits;
      s.entries <- 0;
      s.accepted <- 0

let seg_entry seg ~accepted =
  match seg with
  | None -> ()
  | Some s ->
      s.entries <- s.entries + 1;
      if accepted then s.accepted <- s.accepted + 1

(* --- cursor reuse -------------------------------------------------------- *)

(* One scanner per domain, re-pointed at the query's view with
   [Scanner.reset]: the memo table and key scratch are recycled instead
   of reallocated per query (ROADMAP item 5's "cursor structs reused
   across a session").  Server workers are domains, so each worker gets
   its own cursor and no locking is needed.  The slot is emptied while a
   query runs — a re-entrant call would simply build a fresh scanner —
   and refilled on the way out, exceptions included. *)
let scanner_slot : Btree.Scanner.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_scanner tree read f =
  let slot = Domain.DLS.get scanner_slot in
  let sc =
    match !slot with
    | Some sc ->
        slot := None;
        Btree.Scanner.reset sc tree ~read;
        sc
    | None -> Btree.Scanner.create tree ~read
  in
  Fun.protect ~finally:(fun () -> slot := Some sc) (fun () -> f sc)

(* --- the two algorithms ------------------------------------------------- *)

let forward_impl ?trace idx query =
  let plan =
    Plan.compile ~enc:(Index.encoding idx) ~ty:(Index.attr_ty idx) query
  in
  plan_span trace plan;
  let tree = Index.tree idx in
  with_read_count tree (fun () ->
      match Plan.bracket plan with
      | None -> ([], 0)
      | Some (lo, hi) ->
          let seg = seg_make trace (Pager.stats (Btree.pager tree)) in
          with_scanner tree (Btree.raw_read tree) @@ fun sc ->
          let below_hi key =
            match hi with
            | Some h -> String.compare key h < 0
            | None -> true
          in
          (* the forward algorithm never skips; it scans on, but it must
             still deduplicate partial-path matches: a binding is emitted
             only when it differs from the previous one *)
          let rec go acc n prev = function
            | Some (e : Btree.entry) when below_hi e.key -> (
                match Plan.classify plan e.key with
                | Plan.Accept { d; arity; _ } ->
                    seg_entry seg ~accepted:true;
                    let b = binding_of d arity in
                    let acc = if Some b = prev then acc else b :: acc in
                    go acc (n + 1) (Some b) (Btree.Scanner.next sc)
                | Plan.Reject _ ->
                    seg_entry seg ~accepted:false;
                    go acc (n + 1) prev (Btree.Scanner.next sc))
            | Some _ | None -> (acc, n)
          in
          seg_open seg "descent";
          let first = Btree.Scanner.seek sc lo in
          seg_open seg "scan";
          let r = go [] 0 None first in
          seg_finish seg;
          merge_span trace r)

let parallel_impl ?trace idx query =
  let plan =
    Plan.compile ~enc:(Index.encoding idx) ~ty:(Index.attr_ty idx) query
  in
  plan_span trace plan;
  let tree = Index.tree idx in
  with_read_count tree (fun () ->
      let seg = seg_make trace (Pager.stats (Btree.pager tree)) in
      let cache = Btree.cached_read tree in
      let read = Pager.Cache.read cache in
      with_scanner tree read @@ fun sc ->
      let upper = Plan.upper plan in
      let below_hi key =
        match upper with
        | Some h -> String.compare key h < 0
        | None -> true
      in
      let rec go acc n cur =
        match cur with
        | Some (e : Btree.entry) when below_hi e.key -> (
            let continue acc n = function
              | Plan.Seek k ->
                  (* skip targets are always strictly beyond [e.key] *)
                  seg_open seg "descent";
                  go acc n (Btree.Scanner.seek sc k)
              | Plan.Advance -> go acc n (Btree.Scanner.next sc)
              | Plan.Stop -> (acc, n)
            in
            match Plan.classify plan e.key with
            | Plan.Accept { d; arity; next } ->
                seg_entry seg ~accepted:true;
                continue (binding_of d arity :: acc) (n + 1) next
            | Plan.Reject next ->
                seg_entry seg ~accepted:false;
                continue acc (n + 1) next)
        | Some _ | None -> (acc, n)
      in
      match Plan.lower plan with
      | None -> ([], 0)
      | Some lo ->
          seg_open seg "descent";
          let r = go [] 0 (Btree.Scanner.seek sc lo) in
          seg_finish seg;
          merge_span trace r)

let algo_name = function `Forward -> "forward" | `Parallel -> "parallel"

let impl = function `Forward -> forward_impl | `Parallel -> parallel_impl

let m_queries =
  Obs.Metrics.counter ~subsystem:"exec" ~help:"queries executed" "queries"

let h_page_reads =
  Obs.Metrics.histogram ~subsystem:"exec" ~help:"page reads per query"
    "page_reads"

let h_entries =
  Obs.Metrics.histogram ~subsystem:"exec" ~help:"entries scanned per query"
    "entries_scanned"

let h_alloc =
  Obs.Metrics.histogram ~subsystem:"exec"
    ~help:"minor-heap words allocated per query" "alloc_per_query"

let record (o : outcome) =
  Obs.Metrics.incr m_queries;
  Obs.Metrics.observe h_page_reads o.page_reads;
  Obs.Metrics.observe h_entries o.entries_scanned;
  o

(* The allocation regression guard (ROADMAP item 5): every query records
   its Gc.minor_words delta.  Reading the minor allocation pointer is a
   few instructions, so this rides on the hot path; the histogram
   observation itself happens after the second sample. *)
let with_alloc_accounting f =
  let w0 = Gc.minor_words () in
  let o = f () in
  Obs.Metrics.observe h_alloc (int_of_float (Gc.minor_words () -. w0));
  o

let finish_root sp (o : outcome) =
  Trace.add_field sp "bindings" (List.length o.bindings);
  Trace.add_field sp "entries_scanned" o.entries_scanned

(* Public entry points trace into the global sink when one is installed
   (see Obs.Trace.with_collector); with the default null sink they run
   the bare algorithms. *)
let run ~algo idx query =
  with_alloc_accounting @@ fun () ->
  match Trace.scope () with
  | None -> record (impl algo idx query)
  | Some sink ->
      let sp = Trace.span (algo_name algo) in
      let o = impl algo ~trace:sp idx query in
      finish_root sp o;
      Trace.emit sink sp;
      record o

let forward idx query = run ~algo:`Forward idx query
let parallel idx query = run ~algo:`Parallel idx query

let analyze ~algo idx query =
  with_alloc_accounting @@ fun () ->
  let sp = Trace.span (algo_name algo) in
  let undecodable0 = Plan.undecodable_entries () in
  let o = impl algo ~trace:sp idx query in
  finish_root sp o;
  (if o.pool_hits > 0 then Trace.add_field sp "pool_hits_total" o.pool_hits);
  let undecodable = Plan.undecodable_entries () - undecodable0 in
  if undecodable > 0 then Trace.add_field sp "undecodable_entries" undecodable;
  (record o, sp)

let explain idx query =
  let plan =
    Plan.compile ~enc:(Index.encoding idx) ~ty:(Index.attr_ty idx) query
  in
  match Plan.intervals plan with
  | None -> None
  | Some ivs ->
      let tree = Index.tree idx in
      let stats = Pager.stats (Btree.pager tree) in
      let before = Stats.snapshot stats in
      (* explain must not perturb measurements: read the pager directly
         (never the shared pool, whose LRU state and hit counters a dry
         run must not disturb) and roll the read counter back after *)
      let read = Pager.Cache.read (Pager.Cache.create (Btree.pager tree)) in
      let visits = Btree.trace_intervals tree ~read ivs in
      stats.Stats.reads <- before.Stats.reads;
      Some visits

let pp_explain ppf visits =
  List.iter
    (fun (v : Btree.visit) ->
      Format.fprintf ppf "%s%s page %d%s@."
        (String.make (2 * v.Btree.depth) ' ')
        (if v.Btree.is_leaf then "leaf" else "node")
        v.Btree.page
        (if v.Btree.is_leaf then Printf.sprintf " (%d matching entries)" v.Btree.matched
         else ""))
    visits

(* EXPLAIN ANALYZE accounting tests: the span tree must agree exactly with
   the independent oracle — the pager's own read counter — and the
   instrumentation must not change what queries cost or return.  Also
   covers the per-query isolation of Stats.diff accounting, the buffer
   pool's mirrored counters, and the journal counters under crash
   recovery. *)

module Dg = Workload.Datagen
module Qg = Workload.Querygen
module Value = Objstore.Value
module Query = Uindex.Query
module Index = Uindex.Index
module Exec = Uindex.Exec
module Stats = Storage.Stats
module Pager = Storage.Pager
module Metrics = Obs.Metrics
module Trace = Obs.Trace

let small =
  lazy
    (Dg.exp2
       {
         (Dg.default_exp2 ~n_classes:12 ~distinct_keys:40) with
         n_objects = 5_000;
         seed = 8;
       })

let q_of ~lo ~hi ~sets =
  let value =
    if lo = hi then Query.V_eq (Value.Int lo)
    else Query.V_range (Some (Value.Int lo), Some (Value.Int hi))
  in
  Query.class_hierarchy ~value (Qg.union_of_classes sets)

let random_query d rng =
  let k = 1 + Workload.Rng.int rng 12 in
  let sets = Qg.pick_sets rng Qg.Random ~classes:d.Dg.classes ~k in
  let lo = Workload.Rng.int rng 40 in
  let hi = min 39 (lo + Workload.Rng.int rng 8) in
  q_of ~lo ~hi:(max lo hi) ~sets

(* the acceptance property: for both algorithms, the span tree's summed
   page reads equal the outcome's count AND the pager-stats delta *)
let test_analyze_matches_oracle () =
  let d = Lazy.force small in
  let stats = Pager.stats (Btree.pager (Index.tree d.uindex)) in
  let rng = Workload.Rng.create 42 in
  for _ = 1 to 25 do
    let q = random_query d rng in
    List.iter
      (fun algo ->
        let before = Stats.snapshot stats in
        let o, sp = Exec.analyze ~algo d.uindex q in
        let oracle =
          (Stats.diff ~before ~after:(Stats.snapshot stats)).Stats.reads
        in
        Alcotest.(check int) "outcome = oracle" oracle o.Exec.page_reads;
        Alcotest.(check int) "span tree = oracle" oracle
          (Trace.total sp "page_reads");
        Alcotest.(check int) "span entries = scanned" o.Exec.entries_scanned
          (Trace.total sp "entries");
        Alcotest.(check (option int)) "root binding count"
          (Some (List.length o.Exec.bindings))
          (Trace.field sp "bindings"))
      [ `Forward; `Parallel ]
  done

(* the same oracle reconciliation with a shared buffer pool attached:
   pool hits never reach the pager, so the span tree must still sum to
   the pager-stats delta exactly, with the hits accounted separately —
   [Trace.total sp "pool_hits"] = the outcome's pool-hit count = the
   Stats.pool_hits delta.  Warm runs must actually hit. *)
let test_analyze_matches_oracle_pooled () =
  let d = Lazy.force small in
  let stats = Pager.stats (Btree.pager (Index.tree d.uindex)) in
  Index.set_cache_pages d.uindex 64;
  Fun.protect
    ~finally:(fun () -> Index.set_cache_pages d.uindex 0)
    (fun () ->
      let rng = Workload.Rng.create 43 in
      let warm_hits = ref 0 in
      for _ = 1 to 25 do
        let q = random_query d rng in
        List.iter
          (fun algo ->
            (* run twice: the second pass sees a warm pool *)
            ignore (Exec.run ~algo d.uindex q);
            let before = Stats.snapshot stats in
            let o, sp = Exec.analyze ~algo d.uindex q in
            let delta = Stats.diff ~before ~after:(Stats.snapshot stats) in
            Alcotest.(check int) "outcome = oracle" delta.Stats.reads
              o.Exec.page_reads;
            Alcotest.(check int) "span tree = oracle" delta.Stats.reads
              (Trace.total sp "page_reads");
            Alcotest.(check int) "outcome hits = stats delta"
              delta.Stats.pool_hits o.Exec.pool_hits;
            Alcotest.(check int) "span hits = outcome hits" o.Exec.pool_hits
              (Trace.total sp "pool_hits");
            warm_hits := !warm_hits + o.Exec.pool_hits)
          [ `Forward; `Parallel ]
      done;
      Alcotest.(check bool) "warm runs hit the pool" true (!warm_hits > 0))

let test_analyze_same_answers () =
  (* analyze is the same execution, just narrated: identical results and
     identical costs to the untraced run *)
  let d = Lazy.force small in
  let rng = Workload.Rng.create 7 in
  for _ = 1 to 10 do
    let q = random_query d rng in
    List.iter
      (fun algo ->
        let o = Exec.run ~algo d.uindex q in
        let o', _ = Exec.analyze ~algo d.uindex q in
        Alcotest.(check (list int)) "same bindings" (Exec.head_oids o)
          (Exec.head_oids o');
        Alcotest.(check int) "same page reads" o.Exec.page_reads
          o'.Exec.page_reads;
        Alcotest.(check int) "same entries" o.Exec.entries_scanned
          o'.Exec.entries_scanned)
      [ `Forward; `Parallel ]
  done

let test_span_shape () =
  let d = Lazy.force small in
  (* an enumerable multi-point query forces several descents *)
  let q =
    Query.class_hierarchy
      ~value:(V_in [ Value.Int 7; Value.Int 21; Value.Int 33 ])
      (Qg.union_of_classes [ d.Dg.classes.(2); d.Dg.classes.(5) ])
  in
  let _, sp = Exec.analyze ~algo:`Parallel d.uindex q in
  Alcotest.(check string) "root named after algo" "parallel" sp.Trace.name;
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) sp.Trace.children in
  Alcotest.(check bool) "plan span first" true (List.hd names = "plan");
  Alcotest.(check bool) "merge span last" true
    (List.nth names (List.length names - 1) = "merge");
  let descents = List.filter (( = ) "descent") names in
  Alcotest.(check bool) "several descent segments" true
    (List.length descents >= 2);
  (* the forward scan of the same query has exactly one descent + one scan *)
  let _, sp = Exec.analyze ~algo:`Forward d.uindex q in
  Alcotest.(check (list string)) "forward shape"
    [ "plan"; "descent"; "scan"; "merge" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) sp.Trace.children)

(* A range over every key with alternate classes re-descends at every
   class gap of every key: hundreds of seek segments, each its own span.
   Batching their attachment must keep the children in execution order —
   plan, then the segments, then merge — with the page reads still
   summing to the pager-stats delta. *)
let test_span_order_many_segments () =
  let d = Lazy.force small in
  let stats = Pager.stats (Btree.pager (Index.tree d.uindex)) in
  let alternate =
    List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list d.Dg.classes)
  in
  let q = q_of ~lo:0 ~hi:39 ~sets:alternate in
  let before = Stats.snapshot stats in
  let o, sp = Exec.analyze ~algo:`Parallel d.uindex q in
  let delta = Stats.diff ~before ~after:(Stats.snapshot stats) in
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) sp.Trace.children in
  let segments = List.filter (( = ) "descent") names in
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 seek segments (got %d)" (List.length segments))
    true
    (List.length segments >= 200);
  Alcotest.(check (list string)) "plan; descent...; merge"
    (("plan" :: segments) @ [ "merge" ])
    names;
  Alcotest.(check int) "span tree = pager oracle" delta.Stats.reads
    (Trace.total sp "page_reads");
  Alcotest.(check int) "span entries = scanned" o.Exec.entries_scanned
    (Trace.total sp "entries");
  Alcotest.(check int) "accepted = bindings" (List.length o.Exec.bindings)
    (Trace.total sp "accepted");
  (* the query's page cache starts cold, so only the first segment in
     execution order reads the whole root-to-leaf path; later descents
     find the inner nodes cached *)
  let reads =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.Trace.name = "descent" then Trace.field s "page_reads" else None)
      sp.Trace.children
  in
  let height = Btree.height (Index.tree d.uindex) in
  Alcotest.(check bool) "first segment reads the root path" true
    (List.hd reads >= height);
  Alcotest.(check bool) "last segment finds inner nodes cached" true
    (List.nth reads (List.length reads - 1) < height);
  let _, sp = Exec.analyze ~algo:`Forward d.uindex q in
  Alcotest.(check (list string)) "forward shape"
    [ "plan"; "descent"; "scan"; "merge" ]
    (List.map (fun (s : Trace.span) -> s.Trace.name) sp.Trace.children)

let test_global_sink_emission () =
  let d = Lazy.force small in
  let q = q_of ~lo:5 ~hi:9 ~sets:(Array.to_list d.Dg.classes) in
  let o, spans =
    Trace.with_collector (fun () -> Exec.parallel d.uindex q)
  in
  match spans with
  | [ sp ] ->
      Alcotest.(check int) "emitted span = outcome" o.Exec.page_reads
        (Trace.total sp "page_reads")
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* satellite: Stats.diff gives per-query isolation without resets — interleaved
   queries and repeated runs never contaminate each other's counts *)
let test_per_query_isolation () =
  let d = Lazy.force small in
  let q1 = q_of ~lo:5 ~hi:9 ~sets:(Array.to_list d.Dg.classes) in
  let q2 = q_of ~lo:0 ~hi:39 ~sets:(Array.to_list d.Dg.classes) in
  let first = Exec.parallel d.uindex q1 in
  (* burn a lot of reads with other traffic, both algorithms *)
  ignore (Exec.forward d.uindex q2);
  ignore (Exec.parallel d.uindex q2);
  ignore (Btree.length (Index.tree d.uindex));
  let again = Exec.parallel d.uindex q1 in
  Alcotest.(check int) "same cost after unrelated traffic"
    first.Exec.page_reads again.Exec.page_reads;
  let f1 = Exec.forward d.uindex q1 in
  let f2 = Exec.forward d.uindex q1 in
  Alcotest.(check int) "forward repeatable" f1.Exec.page_reads f2.Exec.page_reads

(* satellite: buffer-pool hits/misses/evictions mirror into the pager's
   Stats.t and show up in Stats.pp *)
let test_pool_counters_in_stats () =
  let pager = Pager.create ~page_size:256 () in
  let t = Btree.create pager in
  for i = 0 to 199 do
    Btree.insert t ~key:(Printf.sprintf "key%04d" i) ~value:"v"
  done;
  let stats = Pager.stats pager in
  let before = Stats.snapshot stats in
  Alcotest.(check int) "pool counters start at 0" 0
    (before.Stats.pool_hits + before.Stats.pool_misses
   + before.Stats.pool_evictions);
  let pool = Storage.Buffer_pool.create ~capacity:4 pager in
  Btree.iter t ~read:(Storage.Buffer_pool.read pool) (fun _ -> ());
  Btree.iter t ~read:(Storage.Buffer_pool.read pool) (fun _ -> ());
  let after = Stats.snapshot stats in
  Alcotest.(check int) "hits mirrored"
    (Storage.Buffer_pool.hits pool)
    (after.Stats.pool_hits - before.Stats.pool_hits);
  Alcotest.(check int) "misses mirrored"
    (Storage.Buffer_pool.misses pool)
    (after.Stats.pool_misses - before.Stats.pool_misses);
  Alcotest.(check int) "evictions mirrored"
    (Storage.Buffer_pool.evictions pool)
    (after.Stats.pool_evictions - before.Stats.pool_evictions);
  Alcotest.(check bool) "a tiny pool does evict" true
    (Storage.Buffer_pool.evictions pool > 0);
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i =
      i + n <= h && (String.sub haystack i n = needle || go (i + 1))
    in
    go 0
  in
  let rendered = Format.asprintf "%a" Stats.pp stats in
  List.iter
    (fun needle ->
      if not (contains rendered needle) then
        Alcotest.failf "missing %S in %s" needle rendered)
    [ "pool_hits"; "pool_misses"; "pool_evictions" ]

(* satellite: journal replay / torn-commit discard increment the registry
   counters.  Deterministic crash points via write-fault injection: the
   last physical write of a sync lands in the checkpoint phase (journal
   already committed -> replay); the first lands in the journal phase
   (torn -> discard). *)
let test_journal_counters () =
  let dir = Filename.temp_file "uindex_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let jc name =
        Option.value ~default:0 (Metrics.find Metrics.default ("journal." ^ name))
      in
      let workload path fault =
        let pager = Pager.create_file ~page_size:256 path in
        let t = Btree.create pager in
        Btree.sync t;
        let w_setup = Pager.physical_writes pager in
        (match fault with
        | Some at ->
            ignore
              (Pager.create_faulty
                 { Pager.no_faults with fail_write = Some at }
                 pager)
        | None -> ());
        match
          for i = 0 to 60 do
            Btree.insert t ~key:(Printf.sprintf "k%03d" i) ~value:"v"
          done;
          Btree.sync t
        with
        | () ->
            let w_before = Pager.physical_writes pager in
            ignore w_before;
            Pager.close pager;
            (w_setup, Pager.physical_writes pager)
        | exception Pager.Fault _ ->
            (try Pager.close pager with Pager.Fault _ -> ());
            (w_setup, Pager.physical_writes pager)
      in
      (* clean run: learn the write schedule *)
      let clean = Filename.concat dir "clean.pages" in
      let w_setup, w_total = workload clean None in
      Alcotest.(check bool) "final sync does write" true (w_total > w_setup + 4);
      (* a clean file recovers without touching the journal counters *)
      let r0, t0 = (jc "replays", jc "torn_discarded") in
      Alcotest.(check bool) "no journal to replay" false (Pager.recover clean);
      Alcotest.(check int) "clean: replays unchanged" r0 (jc "replays");
      Alcotest.(check int) "clean: torn unchanged" t0 (jc "torn_discarded");
      (* crash on the very last write: the journal committed, the
         checkpoint did not finish -> recover replays it *)
      let committed = Filename.concat dir "committed.pages" in
      ignore (workload committed (Some w_total));
      let r0, n0, t0 = (jc "replays", jc "records_replayed", jc "torn_discarded") in
      Alcotest.(check bool) "committed journal replayed" true
        (Pager.recover committed);
      Alcotest.(check int) "replay counted" (r0 + 1) (jc "replays");
      Alcotest.(check bool) "records counted" true (jc "records_replayed" > n0);
      Alcotest.(check int) "no torn discard" t0 (jc "torn_discarded");
      (* crash on the first write of the final sync: the journal is torn
         -> recover discards it *)
      let torn = Filename.concat dir "torn.pages" in
      ignore (workload torn (Some (w_setup + 1)));
      let r0, t0 = (jc "replays", jc "torn_discarded") in
      Alcotest.(check bool) "torn journal not replayed" false (Pager.recover torn);
      Alcotest.(check int) "no replay" r0 (jc "replays");
      Alcotest.(check int) "torn discard counted" (t0 + 1) (jc "torn_discarded"))

let () =
  Alcotest.run "analyze"
    [
      ( "analyze",
        [
          Alcotest.test_case "span tree = pager oracle" `Quick
            test_analyze_matches_oracle;
          Alcotest.test_case "span tree = pager oracle (pooled)" `Quick
            test_analyze_matches_oracle_pooled;
          Alcotest.test_case "analyze = run" `Quick test_analyze_same_answers;
          Alcotest.test_case "span shape" `Quick test_span_shape;
          Alcotest.test_case "span order, 200+ segments" `Quick
            test_span_order_many_segments;
          Alcotest.test_case "global sink emission" `Quick
            test_global_sink_emission;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "per-query isolation" `Quick
            test_per_query_isolation;
          Alcotest.test_case "buffer-pool counters in Stats" `Quick
            test_pool_counters_in_stats;
          Alcotest.test_case "journal counters" `Quick test_journal_counters;
        ] );
    ]

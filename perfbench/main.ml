(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the seeded database (three times, timing each set-up), starts
   the workload's served deployment, computes every request line's
   expected reply in-process, warms up, then drives the workload's
   closed loop for S seconds while checking every reply.  With --trace 0
   it reports the end-to-end metrics; with --trace 1 it additionally
   replays the lines through each layer's public calls and runs a traced
   pass, and reports the per-layer metrics.  Human-readable lines come
   first; the last line of standard output is one JSON object.  Exits 1
   when any output check fails. *)

open Perfbench_util
module Db = Uindex.Db
module Index = Uindex.Index
module Query = Uindex.Query
module Exec = Uindex.Exec
module Value = Objstore.Value
module Service = Uindex_server.Service
module Client = Uindex_server.Client
module Router = Uindex_shard.Router
module Json = Obs.Json
module Metrics = Obs.Metrics
module Rng = Workload.Rng

type workload = Lookup | Scan | Mixed_rw | Routed

let workloads =
  [ ("lookup", Lookup); ("scan", Scan); ("mixed_rw", Mixed_rw); ("routed", Routed) ]

let setups = 3
let windows = 5

(* --- arguments ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload lookup|scan|mixed_rw|routed --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let num f k = match f (get k) with Some v -> v | None -> usage () in
  let w = match List.assoc_opt (get "workload") workloads with Some w -> w | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (w, num int_of_string_opt "seed", num float_of_string_opt "seconds", trace)

(* --- output checks ---------------------------------------------------------- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let int_member k j = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

(* The integer after the last ["key":] in a rendered reply — the cost
   fields sit at the end, after the rows. *)
let int_field_from_end s key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length pat in
  let rec find i =
    if i < 0 then None else if String.sub s i n = pat then Some (i + n) else find (i - 1)
  in
  match find (String.length s - n) with
  | None -> 0
  | Some i ->
      let j = ref i in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub s i (!j - i)) |> Option.value ~default:0

(* --- the workload environment ------------------------------------------------ *)

type expected = {
  bytes : string array;  (* the in-process reply to each line *)
  proj : string array;  (* its deployment-independent projection (mixed, routed) *)
  rows : int array;
  pages : int array;  (* page_reads + pool_hits: Algorithm 1's node visits *)
  fanout : int array;  (* shards contacted (1 when not routed) *)
}

type env = {
  w : workload;
  seed : int;
  dep : Deploy.t;
  lines : string array;
  exp : expected;
  readers : int;
  (* the mixed workload's writer *)
  write_rng : Rng.t;
  acked : (Value.oid * int * int) list ref;  (* oid, class, weight *)
  insert_us : float list ref;
  commit_us : float list ref;
  reader_pages : int Atomic.t;
}

let set_up w ~seed ~tag =
  let data = Data.build ~seed ~tag in
  Data.set_pools data ~share:(match w with Scan -> 0.25 | _ -> 1.0);
  match w with Routed -> Deploy.routed ~tag data | _ -> Deploy.single data

let lines_for w (d : Data.t) ~seed =
  match w with
  | Lookup | Mixed_rw -> Mix.lookup_lines d ~seed ~n:1024
  | Scan -> Mix.scan_lines d ~seed ~n:256
  | Routed ->
      (* the lookup mix with every ninth line a scan line *)
      let l = Mix.lookup_lines d ~seed ~n:512 and s = Mix.scan_lines d ~seed ~n:64 in
      Array.init 576 (fun i -> if i mod 9 = 8 then s.(i / 9) else l.(i - (i / 9)))

let expected (dep : Deploy.t) ~projections lines specs =
  let serve line =
    match dep.router with
    | Some r -> Router.serve_line r line
    | None -> Service.serve_line dep.svc line
  in
  let n = Array.length lines in
  let bytes = Array.map serve lines in
  let docs = Array.map Json.of_string bytes in
  Array.iteri
    (fun i d ->
      if not (Uindex_server.Protocol.response_is_ok d) then
        fail "line %S: error reply %s" lines.(i) bytes.(i))
    docs;
  let proj = if projections then Array.map Router.canonical_projection bytes else [||] in
  (* a routed answer must equal the unsharded engine's *)
  (match dep.router with
  | Some _ ->
      Array.iteri
        (fun i line ->
          let unsharded = Router.canonical_projection (Service.serve_line dep.svc line) in
          if proj.(i) <> unsharded then fail "routed reply differs from unsharded: %S" line)
        lines
  | None -> ());
  (* row counts of a sample of lines against a brute-force filter over
     the store's extents *)
  let sample = 16 in
  let vehicles = Objstore.Store.extent dep.data.store ~deep:true dep.data.ext.b.vehicle in
  for k = 0 to sample - 1 do
    let i = k * n / sample in
    let want = Mix.brute_count dep.data ~vehicles specs.(i) in
    let got = int_member "count" docs.(i) in
    if got <> want then fail "line %S: %d rows, brute force finds %d" lines.(i) got want
  done;
  let fanout =
    Array.map
      (fun line ->
        match dep.router with
        | Some r ->
            List.length
              (Router.route_query r
                 (Uindex.Qparse.parse (Data.schema dep.data) (Layers.query_text line)))
        | None -> 1)
      lines
  in
  {
    bytes;
    proj;
    rows = Array.map (int_member "count") docs;
    pages = Array.map (fun d -> int_member "page_reads" d + int_member "pool_hits" d) docs;
    fanout;
  }

(* --- clients ------------------------------------------------------------------ *)

let mismatch_noted = ref false

let check env li reply =
  if String.equal reply env.exp.bytes.(li) then Tally.Ok_reply
  else if env.w = Mixed_rw && String.equal (Router.canonical_projection reply) env.exp.proj.(li)
  then Tally.Ok_reply
  else begin
    let o = Tally.classify_unexpected reply in
    if o = Tally.Mismatch && not !mismatch_noted then begin
      mismatch_noted := true;
      fail "line %S: reply %s differs from expected %s" env.lines.(li)
        (String.sub reply 0 (min 200 (String.length reply)))
        (String.sub env.exp.bytes.(li) 0 (min 200 (String.length env.exp.bytes.(li))))
    end;
    o
  end

let reader_client env ~step =
  {
    Loadgen.open_ = (fun k -> (k, Client.connect_unix env.dep.front));
    step =
      (fun (k, c) i ->
        let li = Loadgen.line_index ~clients:env.readers ~n:(Array.length env.lines) k i in
        (li, step c li));
    close = (fun (_, c) -> Client.close c);
  }

let plain_step env c li =
  let reply = Client.request_raw c env.lines.(li) in
  let o = check env li reply in
  if env.w = Mixed_rw && o = Tally.Ok_reply then
    ignore
      (Atomic.fetch_and_add env.reader_pages
         (int_field_from_end reply "page_reads" + int_field_from_end reply "pool_hits"));
  o

let leaf_classes (d : Data.t) = Workload.Paper_schema.vehicle_leaf_classes d.ext

(* One write: a vehicle with an odd weight, then a synchronous commit. *)
let write env ~wrap =
  let d = env.dep.data in
  let cls = Rng.pick env.write_rng (leaf_classes d) in
  let weight = Data.weight_of (Rng.int env.write_rng Data.distinct_weights) + 1 in
  let company = Rng.pick env.write_rng d.companies in
  let oid = ref 0 in
  let ins () =
    let t0 = Unix.gettimeofday () in
    oid :=
      Db.insert d.db ~cls
        [
          ("name", Value.Str "W");
          ("weight", Value.Int weight);
          ("manufactured_by", Value.Ref company);
        ];
    env.insert_us := ((Unix.gettimeofday () -. t0) *. 1e6) :: !(env.insert_us)
  in
  let commit () =
    let t0 = Unix.gettimeofday () in
    ignore (Db.commit ~mode:`Sync d.db);
    env.commit_us := ((Unix.gettimeofday () -. t0) *. 1e6) :: !(env.commit_us)
  in
  wrap ins commit;
  env.acked := (!oid, cls, weight) :: !(env.acked)

(* The writer is a closed loop paced to one write per [write_period]:
   write [i] starts when write [i-1] has committed and not before its
   slot, so a run makes the same number of writes whatever the disk's
   fsync latency (as long as a commit takes less than the period).  A
   flush holds the writer lock that [Db.open_session] takes, so each
   write delays about one reader request; at 20 writes/s that is well
   under 1% of them, and the reader's p99 does not follow the host's
   fsync latency. *)
let write_period = 0.05

let writer_client env ~wrap =
  {
    Loadgen.open_ = (fun _ -> Unix.gettimeofday ());
    step =
      (fun t0 i ->
        let due = t0 +. (write_period *. float_of_int i) in
        let now = Unix.gettimeofday () in
        if due > now then Thread.delay (due -. now);
        write env ~wrap;
        (-1, Tally.Ok_reply));
    close = ignore;
  }

type phase = {
  reader : Loadgen.result;
  writer : Loadgen.result option;
  counters : (string * int) list;
  per_shard : int;  (* requests the router forwarded to shards *)
}

let forwarded (dep : Deploy.t) =
  match dep.router with
  | Some r -> Array.fold_left ( + ) 0 (Router.requests_per_shard r)
  | None -> 0

(* Runs the workload for [seconds]: its readers, and the writer when
   mixed.  Counter metrics are deltas over exactly this phase. *)
let phase ?(with_writer = true) env ~seconds ~step ~wrap =
  let before = Metrics.counters_json Metrics.default in
  let fwd0 = forwarded env.dep in
  let writer = ref None in
  let wt =
    if env.w = Mixed_rw && with_writer then
      Some
        (Thread.create
           (fun () ->
             writer := Some (Loadgen.run ~threads:1 ~seconds (writer_client env ~wrap)))
           ())
    else None
  in
  let reader = Loadgen.run ~threads:env.readers ~seconds (reader_client env ~step) in
  Option.iter Thread.join wt;
  let after = Metrics.counters_json Metrics.default in
  {
    reader;
    writer = !writer;
    counters = Metrics.delta ~before ~after;
    per_shard = forwarded env.dep - fwd0;
  }

let untimed_wrap ins commit = ins (); commit ()

(* Warm-up: half-second rounds until the median latency and the pools'
   residency and hit ratio stop changing (at most eight rounds).  The
   mixed workload's writer sits warm-up out, so every run of a seed
   inserts the same objects. *)
let warm_up env =
  let pools () =
    List.filter_map Index.pool (Deploy.served_indexes env.dep)
    |> List.map (fun p -> (Storage.Buffer_pool.resident p, Storage.Buffer_pool.hit_rate p))
  in
  let rec go round prev =
    let p = phase ~with_writer:false env ~seconds:0.5 ~step:(plain_step env) ~wrap:untimed_wrap in
    let now = (Stats.median p.reader.lat, pools ()) in
    let steady =
      match prev with
      | Some (m, pl) ->
          Float.abs (fst now -. m) <= 0.05 *. m
          && List.for_all2
               (fun (r, h) (r', h') -> r = r' && Float.abs (h -. h') < 0.01)
               pl (snd now)
      | None -> false
    in
    if steady || round >= 8 then round else go (round + 1) (Some now)
  in
  go 1 None

(* --- metrics ---------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
      | _ -> go ()
    in
    go ()
  in
  try from_proc ()
  with _ -> float_of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1048576.

let index_bytes_per_entry dep =
  let idx = Deploy.served_indexes dep in
  let pages = List.fold_left (fun a i -> a + Data.pages i) 0 idx in
  let entries = List.fold_left (fun a i -> a + Index.entry_count i) 0 idx in
  float_of_int (pages * Data.page_size) /. float_of_int entries

let mean_int a = Stats.mean (Array.map float_of_int a)

let end_to_end env (p : phase) ~setup_s =
  let r = p.reader in
  let wins =
    List.filter (fun (_, n, _) -> n > 0) (Loadgen.windows r windows)
  in
  let per_window f = Stats.median (Array.of_list (List.map f wins)) in
  let lat_of (s, n, _) = Array.sub r.lat s n in
  let rows_of (s, n, _) =
    let t = ref 0 in
    for j = s to s + n - 1 do t := !t + env.exp.rows.(r.line.(j)) done;
    float_of_int !t
  in
  let pages =
    if env.w = Mixed_rw then
      float_of_int (Atomic.get env.reader_pages) /. float_of_int (Array.length r.lat)
    else mean_int env.exp.pages
  in
  [
    m "setup_s" "s" setup_s;
    m "qps" "1/s" (per_window (fun (_, n, len) -> float_of_int n /. len));
    m "p50_us" "us" (per_window (fun w -> 1e6 *. Stats.median (lat_of w)));
    m "p99_us" "us" (1e6 *. Stats.tail_value r.lat);
    m "rows_per_s" "1/s" (per_window (fun ((_, _, len) as w) -> rows_of w /. len));
    m "pages_visited_per_req" "count" pages;
    m "index_bytes_per_entry" "B" (index_bytes_per_entry env.dep);
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let counter p k = float_of_int (Option.value ~default:0 (List.assoc_opt k p.counters))
let ratio a b = if b = 0. then 0. else a /. b

let timing_metrics name a =
  [ m name "us" (if a = [||] then 0. else Stats.median a);
    m (name ^ ".p99") "us" (if a = [||] then 0. else Stats.tail_value a) ]

let per_layer env (p : phase) (s : Layers.samples) ~traced ~insert_us ~commit_us =
  let reqs = float_of_int p.reader.tally.attempted in
  let commits =
    match p.writer with Some w -> float_of_int (Array.length w.lat) | None -> 0.
  in
  let get = Layers.get s in
  let sum a = Array.fold_left ( +. ) 0. a in
  let p50 a = if a = [||] then 0. else Stats.median a in
  let hits = counter p "buffer_pool.hits" and misses = counter p "buffer_pool.misses" in
  let fan_lines = Array.map (fun li -> env.exp.fanout.(li)) p.reader.line in
  List.concat
    [
      [
        m "fail_ratio" "ratio" (Tally.fail_ratio p.reader.tally);
        m "storage.pager_reads_per_req" "count" (ratio (counter p "pager.reads") reqs);
        m "storage.pool_hit_ratio" "ratio" (ratio hits (hits +. misses));
        m "storage.pool_evictions_per_req" "count"
          (ratio (counter p "buffer_pool.evictions") reqs);
        m "storage.fsyncs_per_commit" "count" (ratio (counter p "journal.fsyncs") commits);
        m "storage.pager_writes_per_commit" "count" (ratio (counter p "pager.writes") commits);
        m "storage.journal_records_per_commit" "count"
          (ratio (counter p "journal.records_written") commits);
        m "storage.group_size_mean" "count"
          (ratio (counter p "journal.group_acked") (counter p "journal.group_commits"));
        m "storage.commits_per_s" "1/s"
          (match p.writer with
          | Some w -> commits /. (w.t1 -. w.t0)
          | None -> 0.);
      ];
      timing_metrics "storage.commit_us" commit_us;
      [
        m "btree.entries_scanned_per_req" "count" (Stats.mean (get "btree.entries_scanned"));
        m "btree.rows_per_entry_scanned" "ratio"
          (ratio (sum (get "btree.rows")) (sum (get "btree.entries_scanned")));
        m "btree.descents_per_req" "count" (Stats.mean (get "btree.segments"));
      ];
      timing_metrics "core.parse_us" (get "core.parse_us");
      timing_metrics "core.session_pin_us" (get "core.session_pin_us");
      timing_metrics "core.session_close_us" (get "core.session_close_us");
      timing_metrics "core.exec_us" (get "core.exec_us");
      [ m "core.alloc_words_per_req" "words" (Stats.mean (get "core.alloc_words")) ];
      timing_metrics "core.insert_us" insert_us;
      timing_metrics "server.handle_us" (get "server.handle_us");
      timing_metrics "server.render_us" (get "server.render_us");
      timing_metrics "server.serve_line_us" (get "server.serve_line_us");
      [
        m "server.reply_bytes" "B" (Stats.mean (get "server.reply_bytes"));
        (* the in-process twin of the served call: the router's when routed *)
        m "server.wire_us" "us"
          ((1e6 *. Stats.median p.reader.lat)
          -. p50 (get (if env.dep.router = None then "server.serve_line_us" else "shard.respond_us")));
        m "server.error_replies_per_req" "ratio"
          (ratio (float_of_int p.reader.tally.typed_errors) reqs);
      ];
      timing_metrics "shard.route_us" (get "shard.route_us");
      [
        m "shard.fanout_per_req" "count"
          (if env.dep.router = None then 0. else ratio (float_of_int p.per_shard) reqs);
        m "shard.single_shard_ratio" "ratio"
          (if env.dep.router = None then 0.
           else
             ratio
               (float_of_int (Array.fold_left (fun n f -> if f = 1 then n + 1 else n) 0 fan_lines))
               (float_of_int (Array.length fan_lines)));
      ];
      timing_metrics "shard.respond_us" (get "shard.respond_us");
      timing_metrics "shard.shard_serve_us" (get "shard.shard_serve_us");
      [
        m "shard.fanout_overhead_us" "us"
          (p50 (get "shard.respond_us") -. p50 (get "shard.shard_serve_us"));
      ];
      traced;
    ]

(* --- the traced pass ------------------------------------------------------------ *)

let layers = [ "client"; "wire"; "server"; "shard"; "core"; "btree"; "storage" ]

let traced_pass env ~seconds ~untraced_p50_us =
  let r = Spans.create () in
  Deploy.restart ~recorder:r env.dep;
  let reqs = Atomic.make 0 in
  let step c li =
    let req = Atomic.fetch_and_add reqs 1 in
    let reply = Layers.traced_request r env.dep ~req c env.lines.(li) in
    if String.starts_with ~prefix:{|{"ok":true|} reply then Tally.Ok_reply
    else Tally.classify_unexpected reply
  in
  let wrap ins commit =
    let req = Atomic.fetch_and_add reqs 1 in
    Layers.traced_write r ~req ins commit
  in
  let p = phase env ~seconds ~step ~wrap in
  let spans = Spans.spans r in
  let file =
    Filename.concat Data.work_dir
      (Printf.sprintf "spans-%s-%d.jsonl"
         (fst (List.find (fun (_, w) -> w = env.w) workloads))
         env.seed)
  in
  Spans.write_jsonl file spans;
  let roots = List.filter (fun (s : Spans.span) -> s.parent < 0) spans in
  let n_roots = float_of_int (max 1 (List.length roots)) in
  let self = Spans.self_by_layer spans in
  let wire =
    Array.of_list
      (List.filter_map
         (fun (s : Spans.span) ->
           if s.name = "client.request_raw" then Some ((s.stop -. s.start) *. 1e6) else None)
         spans)
  in
  if p.reader.tally.ok = 0 then fail "traced pass completed no request";
  ( file,
    List.map
      (fun l ->
        m ("trace.self_us." ^ l) "us"
          (1e6 *. Option.value ~default:0. (List.assoc_opt l self) /. n_roots))
      layers
    @ [
        m "trace.overhead_us" "us" (Stats.median wire -. untraced_p50_us);
        m "trace.spans_per_req" "count" (float_of_int (List.length spans) /. n_roots);
        m "trace.requests" "count" n_roots;
      ] )

(* --- the mixed workload's durability check ------------------------------------------ *)

(* Closes the page files, re-opens the weight index from disk and finds
   every acknowledged insert in it. *)
let reopen_check env =
  let d = env.dep.data in
  Deploy.stop_servers env.dep;
  List.iter (fun idx -> Storage.Pager.close (Data.pager idx)) [ d.weight; d.path ];
  let wfile = List.hd d.files in
  let pager = Storage.Pager.open_file ~page_size:Data.page_size wfile in
  Fun.protect ~finally:(fun () -> Storage.Pager.close pager) @@ fun () ->
  let b = d.ext.b in
  let idx = Index.attach_class_hierarchy pager b.enc ~root:b.vehicle ~attr:"weight" in
  let missing =
    List.filter
      (fun (oid, cls, w) ->
        let q =
          Query.class_hierarchy ~value:(Query.V_eq (Value.Int w)) (Query.P_class cls)
        in
        let q = { q with comps = [ Query.comp ~slot:(Query.S_oid oid) (Query.P_class cls) ] } in
        List.length (Exec.run ~algo:`Parallel idx q).bindings <> 1)
      !(env.acked)
  in
  if missing <> [] then
    fail "%d of %d acknowledged inserts missing after reopen" (List.length missing)
      (List.length !(env.acked));
  let want = Data.n_vehicles + List.length !(env.acked) in
  if Index.entry_count idx <> want then
    fail "reopened weight index holds %d entries, expected %d" (Index.entry_count idx) want

(* Socket replies equal in-process [Service.serve_line] bytes on the same
   snapshot (the mixed workload's writer has stopped). *)
let quiescent_check env =
  let c = Client.connect_unix env.dep.front in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = Array.length env.lines in
  for k = 0 to 63 do
    let line = env.lines.(k * n / 64) in
    let sock = Client.request_raw c line in
    let local = Service.serve_line env.dep.svc line in
    if sock <> local then fail "line %S: socket reply differs from in-process" line;
    if Router.canonical_projection local <> env.exp.proj.(k * n / 64) then
      fail "line %S: answer changed under concurrent inserts" line
  done

(* --- report ------------------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " ms)

let () =
  let w, seed, seconds, trace = parse_args () in
  let name = fst (List.find (fun (_, w') -> w' = w) workloads) in
  (* set-up, repeated: the first ones in child processes (so their
     garbage never counts against this process's memory), the last one
     here, and kept *)
  let timed_set_up k =
    let t0 = Unix.gettimeofday () in
    let dep = set_up w ~seed ~tag:(Printf.sprintf "%s%d" name k) in
    (dep, Unix.gettimeofday () -. t0)
  in
  let in_child k =
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let dep, t = timed_set_up k in
        Deploy.close dep;
        let msg = Printf.sprintf "%.9f" t in
        ignore (Unix.write_substring wr msg 0 (String.length msg));
        Unix._exit 0
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let t = float_of_string_opt (In_channel.input_all ic) in
        close_in ic;
        (match (Unix.waitpid [] pid, t) with
        | (_, Unix.WEXITED 0), Some t -> t
        | _ ->
            prerr_endline "perfbench: a set-up run failed";
            exit 1)
  in
  let child_times = List.init (setups - 1) (fun k -> in_child (k + 1)) in
  let dep, last = timed_set_up setups in
  let times = child_times @ [ last ] in
  let setup_s = Stats.median (Array.of_list times) in
  let data = dep.data in
  let mix = lines_for w data ~seed in
  let lines = Array.map (fun (l : Mix.line) -> l.text) mix in
  let specs = Array.map (fun (l : Mix.line) -> l.spec) mix in
  let t_setup = Unix.gettimeofday () in
  let exp = expected dep ~projections:(w = Mixed_rw || w = Routed) lines specs in
  let t_expected = Unix.gettimeofday () in
  let env =
    {
      w;
      seed;
      dep;
      lines;
      exp;
      readers = (if w = Mixed_rw then 1 else 2);
      write_rng = Rng.create (seed lxor 0x3177);
      acked = ref [];
      insert_us = ref [];
      commit_us = ref [];
      reader_pages = Atomic.make 0;
    }
  in
  let t_start = t_setup -. List.fold_left ( +. ) 0. times in
  let rounds = warm_up env in
  env.insert_us := [];
  env.commit_us := [];
  Atomic.set env.reader_pages 0;
  let t_warm = Unix.gettimeofday () in
  (* collect the set-up and warm-up garbage now, not inside the timed run *)
  Gc.compact ();
  let p = phase env ~seconds ~step:(plain_step env) ~wrap:untimed_wrap in
  let insert_us = Array.of_list !(env.insert_us) in
  let commit_us = Array.of_list !(env.commit_us) in
  if env.w = Mixed_rw then quiescent_check env;
  let e2e = end_to_end env p ~setup_s in
  let layer_metrics =
    if not trace then []
    else begin
      let s = Layers.create () in
      let budget = Unix.gettimeofday () +. 3. in
      let i = ref 0 in
      while !i < Array.length lines && (!i < 50 || Unix.gettimeofday () < budget) do
        Layers.replay dep s lines.(!i);
        incr i
      done;
      let file, traced =
        traced_pass env ~seconds:(Float.min 5. (seconds /. 2.))
          ~untraced_p50_us:(1e6 *. Stats.median p.reader.lat)
      in
      Printf.printf "spans written to %s\n" file;
      per_layer env p s ~traced ~insert_us ~commit_us
    end
  in
  if env.w = Mixed_rw then reopen_check env;
  Deploy.close dep;
  let t_end = Unix.gettimeofday () in
  let tally =
    Tally.merge (p.reader.tally :: Option.to_list (Option.map (fun (r : Loadgen.result) -> r.tally) p.writer))
  in
  if tally.mismatches > 0 then fail "%d replies differ from the expected answer" tally.mismatches;
  let correct = !failures = [] in
  Printf.printf "workload %s, seed %d: %d objects, index pages %d+%d, pool pages %d, %d %s, closed loop%s\n"
    name seed (Objstore.Store.count data.store) (Data.pages data.weight) (Data.pages data.path)
    (Data.pool_pages data) env.readers
    (if env.readers = 1 then "connection" else "connections")
    (if w = Mixed_rw then " + 1 in-process writer (Db.commit `Sync, default group window)" else "");
  Printf.printf "set-ups %s s; warm-up %d rounds; %d request lines; %d samples (%s)\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") times))
    rounds (Array.length lines) (Array.length p.reader.lat) (Stats.tail_label p.reader.lat);
  Printf.printf
    "wall %.1f s: set-ups %.1f, expected replies %.1f, warm-up %.1f, timed %.1f, rest %.1f\n"
    (t_end -. t_start) (t_setup -. t_start) (t_expected -. t_setup) (t_warm -. t_expected)
    (p.reader.t1 -. p.reader.t0) (t_end -. p.reader.t1);
  Printf.printf "attempted %d, ok %d, typed errors %d, mismatches %d, exceptions %d, missing %d, fail_ratio %g\n"
    tally.attempted tally.ok tally.typed_errors tally.mismatches tally.exceptions
    (Tally.missing tally) (Tally.fail_ratio tally);
  (match p.writer with
  | Some wr ->
      let c = commit_us in
      Printf.printf "writer: %d commits, %.1f commits/s, commit p50 %.1f us, %s %.1f us\n"
        (Array.length wr.lat)
        (float_of_int (Array.length wr.lat) /. (wr.t1 -. wr.t0))
        (Stats.median c) (Stats.tail_label c) (Stats.tail_value c)
  | None -> ());
  Printf.printf "per window: qps%s; p50_us%s\n"
    (String.concat ""
       (List.map
          (fun (_, n, len) -> Printf.sprintf " %.0f" (float_of_int n /. len))
          (Loadgen.windows p.reader windows)))
    (String.concat ""
       (List.map
          (fun (st, n, _) ->
            Printf.sprintf " %.0f" (1e6 *. Stats.median (Array.sub p.reader.lat st n)))
          (Loadgen.windows p.reader windows)));
  Printf.printf "counter deltas over the timed run:%s\n"
    (String.concat ""
       (List.filter_map
          (fun (k, v) -> if v <> 0 then Some (Printf.sprintf " %s=%d" k v) else None)
          p.counters));
  List.iter (fun x -> Printf.printf "  %-36s %14.3f %s\n" x.name x.value x.unit) (e2e @ layer_metrics);
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev !failures);
  print_result ~correct ~attempted:tally.attempted ~failed:(Tally.failed tally)
    (if trace then layer_metrics else e2e);
  exit (if correct then 0 else 1)

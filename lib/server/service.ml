module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Ring = Obs.Ring
module Schema = Oodb_schema.Schema
module Value = Objstore.Value
module Db = Uindex.Db
module Index = Uindex.Index
module Query = Uindex.Query
module Qparse = Uindex.Qparse

let requests = Metrics.counter ~subsystem:"server" "requests"
let request_errors = Metrics.counter ~subsystem:"server" "request_errors"

let request_ns =
  Metrics.histogram ~subsystem:"server"
    ~help:"request handling latency (ns)" "request_ns"

(* per-stage histograms fed by every served request *)
let h_queue_wait =
  Metrics.histogram ~subsystem:"server"
    ~help:"time between accept and a worker picking the connection (ns)"
    "queue_wait_ns"

let h_pin =
  Metrics.histogram ~subsystem:"server"
    ~help:"snapshot-session pin latency (ns)" "session_pin_ns"

let h_exec =
  Metrics.histogram ~subsystem:"server" ~help:"query execution latency (ns)"
    "exec_ns"

let h_render =
  Metrics.histogram ~subsystem:"server"
    ~help:"response JSON rendering latency (ns)" "render_ns"

let h_bytes =
  Metrics.histogram ~subsystem:"server" ~help:"response payload bytes"
    "bytes_out"

let slow_admitted =
  Metrics.counter ~subsystem:"server"
    ~help:"requests admitted to the slow-query log" "slow_queries"

let corruption_replies =
  Metrics.counter ~subsystem:"server"
    ~help:"requests answered with a typed data_corruption error"
    "corruption_replies"

(* --- telemetry configuration ------------------------------------------ *)

type telemetry = {
  tracing : bool;
  sample_every : int;
  slow_threshold_ns : int;
  slow_capacity : int;
}

let default_telemetry =
  {
    tracing = true;
    sample_every = 1;
    slow_threshold_ns = 10_000_000 (* 10 ms *);
    slow_capacity = 128;
  }

type slow_entry = {
  se_seq : int;
  se_trace : int;
  se_at : float;
  se_line : string;
  se_dur_ns : int;
  se_reads : int;
  se_span : Trace.span option;  (* None when the request was not traced *)
}

type t = {
  db : Db.t;
  schema : Schema.t;
  route : (int * Index.t) list;  (* query arity -> serving index *)
  tel : telemetry;
  slow : slow_entry Ring.t;
  seq : int Atomic.t;  (* server-assigned trace ids and the sampling clock *)
  started : float;
  shard_info : Json.t option;  (* topology of the shard this node serves *)
}

let create ?(telemetry = default_telemetry) ?shard_info ~schema db =
  let telemetry =
    { telemetry with sample_every = max 1 telemetry.sample_every }
  in
  let route =
    List.map (fun idx -> (Index.arity idx, idx)) (Db.indexes db)
  in
  {
    db;
    schema;
    route;
    tel = telemetry;
    slow = Ring.create (max 0 telemetry.slow_capacity);
    seq = Atomic.make 0;
    started = Unix.gettimeofday ();
    shard_info;
  }

let db t = t.db
let telemetry t = t.tel

(* --- rendering -------------------------------------------------------- *)

(* One row's JSON bytes, [{"value":…,"comps":[[class,oid],…]}], written
   straight into [buf]. *)
let add_row buf schema (b : Uindex.Exec.binding) =
  let add_int i = Buffer.add_string buf (string_of_int i) in
  let add_list f l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f x)
      l;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"value\":";
  (match b.value with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Int i -> add_int i
  | Value.Str s -> Json.add_quoted buf s
  | Value.Ref o ->
      Buffer.add_string buf "{\"ref\":";
      add_int o;
      Buffer.add_char buf '}'
  | Value.Ref_set os -> add_list add_int os);
  Buffer.add_string buf ",\"comps\":";
  add_list
    (fun (cls, oid) ->
      Buffer.add_char buf '[';
      Json.add_quoted buf (Schema.name schema cls);
      Buffer.add_char buf ',';
      add_int oid;
      Buffer.add_char buf ']')
    b.comps;
  Buffer.add_char buf '}'

(* The canonical row order is the byte order of the rendered rows: each
   row is rendered once, the strings are sorted, and the sorted rows are
   joined into the array.  Exec already returns a deterministic order per
   snapshot, but sorting makes concurrent replies byte-comparable against
   a sequential baseline without trusting that, and a router can restore
   it by merging its shards' already-sorted arrays as byte streams. *)
let render_rows schema bindings =
  let buf = Buffer.create 128 in
  let row b =
    Buffer.clear buf;
    add_row buf schema b;
    Buffer.contents buf
  in
  let rows = List.sort String.compare (List.map row bindings) in
  let out =
    Buffer.create
      (List.fold_left (fun n r -> n + String.length r + 1) 2 rows)
  in
  Buffer.add_char out '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char out ',';
      Buffer.add_string out r)
    rows;
  Buffer.add_char out ']';
  Buffer.contents out

let hex_id = Printf.sprintf "%x"

let slow_entry_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.se_seq);
       ("trace_id", Json.Str (hex_id e.se_trace));
       ("at", Json.Float e.se_at);
       ("request", Json.Str e.se_line);
       ("dur_ns", Json.Int e.se_dur_ns);
       ("page_reads", Json.Int e.se_reads);
     ]
    @ match e.se_span with
      | None -> []
      | Some sp -> [ ("span", Trace.to_json sp) ])

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let slow_log_fields ?limit t =
  let entries = Ring.to_list t.slow in
  let entries =
    match limit with Some n -> take n entries | None -> entries
  in
  [
    ("threshold_ns", Json.Int t.tel.slow_threshold_ns);
    ("capacity", Json.Int (Ring.capacity t.slow));
    ("count", Json.Int (List.length entries));
    ("entries", Json.List (List.map slow_entry_json entries));
  ]

let slow_log_json ?limit t = Json.Obj (slow_log_fields ?limit t)

(* --- dispatch --------------------------------------------------------- *)

let stats_response t =
  let latency =
    match Metrics.find_summary Metrics.default "server.request_ns" with
    | Some s -> Metrics.summary_json s
    | None -> Json.Null
  in
  Protocol.ok
    [
      ("type", Json.Str "stats");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("request_latency", latency);
      ("metrics", Metrics.to_json Metrics.default);
      ("counters", Metrics.counters_json Metrics.default);
    ]

let health_response t =
  let metric name =
    Option.value ~default:0 (Metrics.find Metrics.default name)
  in
  let gc = Gc.quick_stat () in
  let acked = Db.acked_lsn t.db and durable = Db.durable_lsn t.db in
  let shard_fields =
    match t.shard_info with None -> [] | Some j -> [ ("shard", j) ]
  in
  Protocol.ok
    ([
      ("type", Json.Str "health");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("workers", Json.Int (metric "server.workers"));
      ("queue_depth", Json.Int (metric "server.queue_depth"));
      ("active_sessions", Json.Int (Db.active_sessions ()));
      ("acked_lsn", Json.Int acked);
      ("durable_lsn", Json.Int durable);
      ("lsn_lag", Json.Int (acked - durable));
      ("tracing", Json.Bool t.tel.tracing);
      ("fast_descent", Json.Bool (Btree.fast_descent ()));
      ( "supervisor",
        Json.Obj
          [
            ("worker_restarts", Json.Int (metric "server.worker_restarts"));
            ( "acceptor_restarts",
              Json.Int (metric "server.acceptor_restarts") );
            ( "restart_budget_left",
              Json.Int (metric "server.restart_budget_left") );
          ] );
      ("quarantine", Quarantine.summary_json ());
      ( "scrub",
        Json.Obj
          [
            ("passes", Json.Int (metric "scrub.passes"));
            ("pages", Json.Int (metric "scrub.pages"));
            ("issues", Json.Int (metric "scrub.issues"));
            ("last_issues", Json.Int (metric "scrub.last_issues"));
          ] );
      ( "slow_log",
        Json.Obj
          [
            ("length", Json.Int (Ring.length t.slow));
            ("capacity", Json.Int (Ring.capacity t.slow));
            ("threshold_ns", Json.Int t.tel.slow_threshold_ns);
          ] );
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Int (int_of_float gc.Gc.minor_words));
            ("promoted_words", Json.Int (int_of_float gc.Gc.promoted_words));
            ("major_words", Json.Int (int_of_float gc.Gc.major_words));
            ("minor_collections", Json.Int gc.Gc.minor_collections);
            ("major_collections", Json.Int gc.Gc.major_collections);
            ("compactions", Json.Int gc.Gc.compactions);
            ("heap_words", Json.Int gc.Gc.heap_words);
            ("top_heap_words", Json.Int gc.Gc.top_heap_words);
          ] );
    ]
    @ shard_fields)

let slow_response ?limit t =
  Protocol.ok (("type", Json.Str "slow_queries") :: slow_log_fields ?limit t)

let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

let query_response ?root t ~algo text =
  match Qparse.parse t.schema text with
  | exception Qparse.Parse_error msg ->
      Protocol.error ~detail:msg Protocol.Parse_error
  | q -> (
      let arity = List.length q.Query.comps in
      match List.assoc_opt arity t.route with
      | None ->
          Protocol.error
            ~detail:
              (Printf.sprintf "no index serves arity-%d queries" arity)
            Protocol.Unroutable
      | Some idx ->
          let pin0 = Unix.gettimeofday () in
          let s = Db.open_session t.db in
          Fun.protect ~finally:(fun () -> Db.close_session s) @@ fun () ->
          let pin_ns = ns_since pin0 in
          (* pinning can read pages: the first pin of each commit epoch
             walks every index's leftmost path to recover the tree height
             (later pins of the epoch reuse it and read nothing), before
             the executor's stats baseline.  Charge those reads to the
             root span — exec children carry only descent reads, so
             [Trace.total root "page_reads"] equals every pager read the
             request issued, across all pinned indexes. *)
          let pin_reads =
            List.fold_left
              (fun acc v ->
                acc
                + (Storage.Pager.stats (Btree.pager (Index.tree v)))
                    .Storage.Stats.reads)
              0 (Db.session_indexes s)
          in
          let exec0 = Unix.gettimeofday () in
          let out, children =
            match root with
            | None -> (Db.session_query ~algo s idx q, [])
            | Some _ ->
                Trace.with_collector (fun () ->
                    Db.session_query ~algo s idx q)
          in
          let exec_ns = ns_since exec0 in
          Metrics.observe h_pin pin_ns;
          Metrics.observe h_exec exec_ns;
          (match root with
          | Some sp ->
              Trace.add_field sp "session_pin_ns" pin_ns;
              Trace.add_field sp "page_reads" pin_reads;
              Trace.add_field sp "exec_ns" exec_ns;
              Trace.add_field sp "pool_hits" out.pool_hits;
              List.iter (Trace.add_child sp) children
          | None -> ());
          Protocol.ok
            [
              ("type", Json.Str "rows");
              ("count", Json.Int (List.length out.bindings));
              ("rows", Json.Raw (render_rows t.schema out.bindings));
              ("page_reads", Json.Int out.page_reads);
              ("pool_hits", Json.Int out.pool_hits);
              ("entries_scanned", Json.Int out.entries_scanned);
            ])

let dispatch ?deadline ?root t (req : Protocol.request) =
  let expired =
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  in
  if expired then
    Protocol.error ~detail:"deadline exceeded before execution"
      Protocol.Timeout
  else
    match req with
    | Protocol.Ping -> Protocol.ok [ ("type", Json.Str "pong") ]
    | Protocol.Quit -> Protocol.ok [ ("type", Json.Str "bye") ]
    | Protocol.Stats -> stats_response t
    | Protocol.Health -> health_response t
    | Protocol.Slow_queries limit -> slow_response ?limit t
    | Protocol.Query { algo; text } -> (
        try query_response ?root t ~algo text
        with
        | Storage.Storage_error.Corruption { page; component; detail } ->
            (* containment, not connection death: the page goes into the
               quarantine, the client gets a typed error, and every query
               that does not touch the damage keeps being served *)
            Metrics.incr corruption_replies;
            Quarantine.record ~source:"request" ?page ~component ~detail ();
            Protocol.error
              ~detail:
                (Printf.sprintf "%s%s: %s" component
                   (match page with
                   | Some p -> Printf.sprintf " (page %d)" p
                   | None -> "")
                   detail)
              Protocol.Corrupt
        | e -> Protocol.error ~detail:(Printexc.to_string e) Protocol.Internal)

(* echo a client-propagated trace id on every response, success or error *)
let attach_trace_id id = function
  | Json.Obj kvs -> Json.Obj (kvs @ [ ("trace_id", Json.Str (hex_id id)) ])
  | j -> j

(* The single request pipeline: parse result in, (response document,
   rendered payload) out.  Everything the server sends goes through
   here, so per-stage histograms, tracing, and slow-log admission see
   every request — including parse failures, which are logged spanless. *)
let serve_core ?(queued_ns = 0) ?deadline ~line t parsed =
  Metrics.incr requests;
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  if queued_ns > 0 then Metrics.observe h_queue_wait queued_ns;
  let seq = Atomic.fetch_and_add t.seq 1 in
  let client_id =
    match parsed with Ok (id, _) -> id | Error _ -> None
  in
  let traced =
    t.tel.tracing
    && (match parsed with Ok _ -> true | Error _ -> false)
    && (client_id <> None || seq mod t.tel.sample_every = 0)
  in
  let trace_id = match client_id with Some id -> id | None -> seq in
  let root = if traced then Some (Trace.span "request") else None in
  (match root with
  | Some sp ->
      Trace.add_field sp "trace_id" trace_id;
      if queued_ns > 0 then Trace.add_field sp "queue_wait_ns" queued_ns
  | None -> ());
  let resp =
    match parsed with
    | Error msg -> Protocol.error ~detail:msg Protocol.Bad_request
    | Ok (_, req) -> dispatch ?deadline ?root t req
  in
  let resp =
    match client_id with
    | Some id -> attach_trace_id id resp
    | None -> resp
  in
  let render0 = Unix.gettimeofday () in
  let payload = Json.to_string resp in
  let render_ns = ns_since render0 in
  let bytes_out = String.length payload in
  Metrics.observe h_render render_ns;
  Metrics.observe h_bytes bytes_out;
  let dur_ns = ns_since t0 in
  Metrics.observe request_ns dur_ns;
  (match root with
  | Some sp ->
      Trace.add_field sp "render_ns" render_ns;
      Trace.add_field sp "bytes_out" bytes_out;
      Trace.add_field sp "alloc_words"
        (int_of_float (Gc.minor_words () -. w0));
      Trace.add_field sp "dur_ns" dur_ns
  | None -> ());
  if Ring.capacity t.slow > 0 && dur_ns >= t.tel.slow_threshold_ns then begin
    Metrics.incr slow_admitted;
    (* traced: every read the request issued (pin + descent, the span
       total); untraced fallback: the executor's descent reads from the
       response — exact pager.reads reconciliation needs tracing on *)
    let se_reads =
      match root with
      | Some sp -> Trace.total sp "page_reads"
      | None -> (
          match Json.member "page_reads" resp with
          | Some (Json.Int n) -> n
          | _ -> 0)
    in
    Ring.add t.slow
      {
        se_seq = seq;
        se_trace = trace_id;
        se_at = t0;
        se_line = line;
        se_dur_ns = dur_ns;
        se_reads;
        se_span = root;
      }
  end;
  if not (Protocol.response_is_ok resp) then Metrics.incr request_errors;
  (resp, payload)

let handle ?deadline t (req : Protocol.request) =
  fst
    (serve_core ?deadline ~line:(Protocol.request_to_string req) t
       (Ok (None, req)))

let handle_line ?deadline t line =
  fst (serve_core ?deadline ~line t (Protocol.parse_line line))

let serve_line ?queued_ns ?deadline t line =
  snd (serve_core ?queued_ns ?deadline ~line t (Protocol.parse_line line))

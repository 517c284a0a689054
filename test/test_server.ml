(* The socket server under friendly and hostile clients: an in-process
   server over a Unix-domain socket in a temp dir, exercised with good
   queries, malformed frames, oversized lengths, truncated requests,
   mid-request disconnects, overload and shutdown.  The invariant
   throughout: a typed error reply or a clean close — never a crash, and
   never a poisoned worker (proved by serving more good requests than
   there are workers after every abuse). *)

module Dg = Workload.Datagen
module Db = Uindex.Db
module Value = Objstore.Value
module Json = Obs.Json
module Protocol = Uindex_server.Protocol
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client

let with_server ?(workers = 2) ?(backlog = 16) ?(request_timeout = 5.) f =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers;
      backlog;
      request_timeout;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f path server)

let expect_ok path line =
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let r = Client.request c line in
      if not (Protocol.response_is_ok r) then
        Alcotest.failf "expected ok for %S, got %s" line (Json.to_string r);
      r)

let expect_error path line kind =
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let r = Client.request c line in
      Alcotest.(check (option string))
        (Printf.sprintf "error kind for %S" line)
        (Some kind)
        (Protocol.response_error_kind r))

(* more good requests than workers: if any worker died or is stuck on a
   leftover connection, this hangs or fails *)
let prove_workers_alive ?(n = 5) path =
  for i = 1 to n do
    ignore (expect_ok path (if i mod 2 = 0 then "ping" else "query (Red, Bus*)"))
  done

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_reply fd =
  match Protocol.read_frame fd with
  | Protocol.Frame s -> Some (Json.of_string s)
  | Protocol.Eof | Protocol.Truncated | Protocol.Too_large _ -> None

(* --- the tests ----------------------------------------------------------- *)

let test_good_queries () =
  with_server @@ fun path _server ->
  let r = expect_ok path "query (Red, Bus*)" in
  let count = Option.bind (Json.member "count" r) Json.to_int in
  Alcotest.(check bool) "rows answered" true (Option.get count > 0);
  let r' = expect_ok path "query ([50-60], Employee*, Company*, Vehicle*)" in
  Alcotest.(check bool) "path query answered" true
    (Option.get (Option.bind (Json.member "count" r') Json.to_int) > 0);
  (* determinism: same query, byte-identical replies across connections *)
  let c1 = Client.connect_unix path and c2 = Client.connect_unix path in
  let a = Client.request_raw c1 "query (Red, Bus*)" in
  let b = Client.request_raw c2 "query (Red, Bus*)" in
  Client.close c1;
  Client.close c2;
  Alcotest.(check string) "byte-identical replies" a b;
  (* one connection, many requests *)
  let c = Client.connect_unix path in
  for _ = 1 to 5 do
    assert (Protocol.response_is_ok (Client.request c "ping"))
  done;
  Client.close c

let test_bad_requests () =
  with_server @@ fun path _server ->
  expect_error path "" "bad_request";
  expect_error path "bogus" "bad_request";
  expect_error path "query" "bad_request";
  expect_error path "query (((" "parse_error";
  expect_error path "query (Red, NoSuchClass*)" "parse_error";
  (* parse errors keep the connection alive *)
  let c = Client.connect_unix path in
  ignore (Client.request c "nonsense");
  Alcotest.(check bool) "connection survives a bad request" true
    (Protocol.response_is_ok (Client.request c "ping"));
  Client.close c;
  prove_workers_alive path

let test_oversized_frame () =
  with_server @@ fun path _server ->
  let fd = raw_connect path in
  (* a hostile header announcing 256 MiB *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (256 * 1024 * 1024));
  ignore (Unix.write fd hdr 0 4);
  (match read_reply fd with
  | Some r ->
      Alcotest.(check (option string))
        "typed reply" (Some "frame_too_large")
        (Protocol.response_error_kind r)
  | None -> Alcotest.fail "expected a frame_too_large reply");
  (* ... and the server closed the stream afterwards *)
  Alcotest.(check bool) "closed after reply" true (read_reply fd = None);
  Unix.close fd;
  prove_workers_alive path

let test_truncated_frame () =
  with_server @@ fun path _server ->
  (* header promising 100 bytes, then silence and disconnect *)
  let fd = raw_connect path in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write fd hdr 0 4);
  ignore (Unix.write fd (Bytes.of_string "only twenty bytes...") 0 20);
  Unix.close fd;
  (* partial header then disconnect *)
  let fd = raw_connect path in
  ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
  Unix.close fd;
  prove_workers_alive path

let test_mid_request_disconnect () =
  with_server @@ fun path _server ->
  (* full request, but the client vanishes before reading the reply *)
  let fd = raw_connect path in
  Protocol.write_frame fd "query (Red, Vehicle*)";
  Unix.close fd;
  (* instant disconnect, no bytes at all *)
  let fd = raw_connect path in
  Unix.close fd;
  prove_workers_alive path

let test_quit_and_garbage_payload () =
  with_server @@ fun path _server ->
  let c = Client.connect_unix path in
  let r = Client.request c "quit" in
  Alcotest.(check bool) "quit acknowledged" true (Protocol.response_is_ok r);
  (match Client.request c "ping" with
  | exception Client.Error (Client.Closed_by_server | Client.Reset) -> ()
  | _ -> Alcotest.fail "connection should be closed after quit");
  Client.close c;
  (* binary garbage as a request payload is just a bad request *)
  let fd = raw_connect path in
  Protocol.write_frame fd "\x00\xff\x13\x37 binary nonsense \x01";
  (match read_reply fd with
  | Some r ->
      Alcotest.(check (option string))
        "typed reply" (Some "bad_request")
        (Protocol.response_error_kind r)
  | None -> Alcotest.fail "expected a bad_request reply");
  Unix.close fd;
  prove_workers_alive path

let test_overload_shedding () =
  (* one worker occupied by a slow client; the backlog holds one more;
     further connections must get typed overloaded replies *)
  with_server ~workers:1 ~backlog:1 ~request_timeout:5.
  @@ fun path _server ->
  let occupier = raw_connect path in
  (* a connection the single worker pops then blocks on (until its read
     times out or we close); give the worker a moment to pop it *)
  Unix.sleepf 0.3;
  let extras = List.init 6 (fun _ -> raw_connect path) in
  Unix.sleepf 0.3;
  let sheds =
    List.fold_left
      (fun acc fd ->
        match read_reply fd with
        | Some r when Protocol.response_error_kind r = Some "overloaded" ->
            acc + 1
        | Some _ | None -> acc)
      0 extras
  in
  Alcotest.(check bool)
    (Printf.sprintf "some of 6 extras shed as overloaded (%d)" sheds)
    true (sheds >= 1);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) extras;
  Unix.close occupier;
  prove_workers_alive path

let test_stale_queue_timeout () =
  (* a connection that waited in the queue longer than the request
     timeout gets a typed timeout reply, not silent service *)
  with_server ~workers:1 ~backlog:8 ~request_timeout:0.4
  @@ fun path _server ->
  (* two idle connections ahead of [stale]: the single worker blocks
     ~0.4 s on each before its read times out, so [stale] sits in the
     queue for ~0.8 s — past its own 0.4 s deadline *)
  let occ1 = raw_connect path in
  Unix.sleepf 0.05;
  let occ2 = raw_connect path in
  Unix.sleepf 0.05;
  let stale = raw_connect path in
  let got_timeout =
    match read_reply stale with
    | Some r -> Protocol.response_error_kind r = Some "timeout"
    | None -> false
  in
  Alcotest.(check bool) "stale queued connection got a timeout reply" true
    got_timeout;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ occ1; occ2 ];
  Unix.close stale;
  prove_workers_alive path

let test_stats_response () =
  with_server @@ fun path _server ->
  ignore (expect_ok path "query (Red, Bus*)");
  let r = expect_ok path "stats" in
  (match Json.member "request_latency" r with
  | Some (Json.Obj fields) ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "request_latency missing %s" k)
        [ "count"; "p50"; "p95"; "p99" ]
  | _ -> Alcotest.fail "stats carries request_latency percentiles");
  Alcotest.(check bool) "stats carries the registry" true
    (Json.member "metrics" r <> None)

(* --- telemetry and admin introspection ----------------------------------- *)

(* like [with_server], but with control over telemetry and which indexes
   are attached (the reconciliation test wants exactly one pager serving
   queries); hands back the datagen bundle and the db for direct writes *)
let with_custom_server ?(workers = 2) ?telemetry ?(attach_path = true) f =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  if attach_path then Db.attach_index db e.path_age;
  let svc = Service.create ?telemetry ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_tel" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers;
      backlog = 16;
      request_timeout = 5.;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f ~e ~db path)

let member_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s missing %S" what k

let test_health_response () =
  with_server @@ fun path _server ->
  ignore (expect_ok path "query (Red, Bus*)");
  let r = expect_ok path "health" in
  Alcotest.(check (option int)) "workers gauge" (Some 2)
    (Json.to_int (member_exn "health" "workers" r));
  List.iter
    (fun k -> ignore (member_exn "health" k r))
    [ "uptime_s"; "queue_depth"; "active_sessions"; "tracing" ];
  let acked = Option.get (Json.to_int (member_exn "health" "acked_lsn" r)) in
  let durable =
    Option.get (Json.to_int (member_exn "health" "durable_lsn" r))
  in
  let lag = Option.get (Json.to_int (member_exn "health" "lsn_lag" r)) in
  Alcotest.(check int) "lsn_lag = acked - durable" (acked - durable) lag;
  Alcotest.(check bool) "durability never runs ahead of acks" true (lag >= 0);
  let slow = member_exn "health" "slow_log" r in
  Alcotest.(check (option int)) "default slow capacity" (Some 128)
    (Json.to_int (member_exn "slow_log" "capacity" slow));
  let gc = member_exn "health" "gc" r in
  List.iter
    (fun k ->
      match Json.to_int (member_exn "gc" k gc) with
      | Some n when n >= 0 -> ()
      | _ -> Alcotest.failf "gc.%s not a non-negative int" k)
    [ "minor_collections"; "major_collections"; "heap_words" ]

let test_admin_malformed () =
  with_server @@ fun path _server ->
  List.iter
    (fun line -> expect_error path line "bad_request")
    [
      "stats extra";
      "health 1";
      "slow-queries abc";
      "slow-queries -1";
      "slow-queries 1 2";
      "@zz ping" (* non-hex trace id *);
      "@ ping" (* empty trace id *);
      "@12345678901234567 ping" (* 17 digits: id wider than 64 bits *);
      "@ab12" (* trace id with no request *);
    ];
  (* admin abuse keeps the connection alive, like any bad request *)
  let c = Client.connect_unix path in
  ignore (Client.request c "stats bogus");
  Alcotest.(check bool) "connection survives" true
    (Protocol.response_is_ok (Client.request c "stats"));
  Client.close c;
  prove_workers_alive path

let test_trace_id_echo () =
  with_server @@ fun path _server ->
  (* no client id: no echo — a server-assigned id must stay internal so
     replies stay byte-identical with tracing on or off *)
  let r = expect_ok path "ping" in
  Alcotest.(check bool) "no trace_id unless propagated" true
    (Json.member "trace_id" r = None);
  let r = expect_ok path "@ab12 ping" in
  Alcotest.(check (option string)) "ping echo" (Some "ab12")
    (Option.bind (Json.member "trace_id" r) Json.to_str);
  let r = expect_ok path "@ff query (Red, Bus*)" in
  Alcotest.(check (option string)) "query echo" (Some "ff")
    (Option.bind (Json.member "trace_id" r) Json.to_str);
  Alcotest.(check bool) "traced query still answers" true
    (Option.get (Option.bind (Json.member "count" r) Json.to_int) > 0);
  (* the id is the only difference: stripping it restores byte equality *)
  let c = Client.connect_unix path in
  let plain = Client.request_raw c "query (Red, Bus*)" in
  let traced = Client.request c "@ab12 query (Red, Bus*)" in
  Client.close c;
  let stripped =
    match traced with
    | Json.Obj kvs -> Json.Obj (List.remove_assoc "trace_id" kvs)
    | j -> j
  in
  Alcotest.(check string) "identical sans trace_id" plain
    (Json.to_string stripped)

let test_slow_ring_eviction () =
  (* service-level: threshold 0 admits everything into a 3-slot ring, so
     5 requests must leave exactly the newest 3, newest first *)
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let telemetry =
    {
      Service.tracing = true;
      sample_every = 1;
      slow_threshold_ns = 0;
      slow_capacity = 3;
    }
  in
  let svc = Service.create ~telemetry ~schema:e.ext.b.schema db in
  let lines =
    [
      "query (Red, Bus*)";
      "query (White, Bus*)";
      "query (Red, Vehicle*)";
      "query (White, Vehicle*)";
      "ping";
    ]
  in
  List.iter (fun l -> ignore (Service.serve_line svc l)) lines;
  let j = Service.slow_log_json svc in
  Alcotest.(check (option int)) "count" (Some 3)
    (Json.to_int (member_exn "slow log" "count" j));
  let entries =
    match member_exn "slow log" "entries" j with
    | Json.List l -> l
    | _ -> Alcotest.fail "entries not a list"
  in
  Alcotest.(check (list string)) "newest first, oldest evicted"
    [ "ping"; "query (White, Vehicle*)"; "query (Red, Vehicle*)" ]
    (List.map
       (fun en ->
         Option.get (Json.to_str (member_exn "slow entry" "request" en)))
       entries);
  (* sequence numbers decrease newest-first; durations are measured *)
  let seqs =
    List.map
      (fun en -> Option.get (Json.to_int (member_exn "slow entry" "seq" en)))
      entries
  in
  Alcotest.(check (list int)) "seq strictly decreasing" [ 4; 3; 2 ] seqs;
  List.iter
    (fun en ->
      if Option.get (Json.to_int (member_exn "slow entry" "dur_ns" en)) < 0
      then Alcotest.fail "negative duration";
      ignore (member_exn "slow entry" "span" en)
      (* sampled 1-in-1, so every entry carries its span *))
    entries;
  (* the limit argument truncates from the newest end *)
  (match Json.member "entries" (Service.slow_log_json ~limit:1 svc) with
  | Some (Json.List [ en ]) ->
      Alcotest.(check (option string)) "limit keeps newest" (Some "ping")
        (Json.to_str (member_exn "slow entry" "request" en))
  | _ -> Alcotest.fail "limit 1 should keep exactly one entry");
  (* a capacity-0 ring disables the log entirely *)
  let dark =
    Service.create
      ~telemetry:{ telemetry with Service.slow_capacity = 0 }
      ~schema:e.ext.b.schema db
  in
  ignore (Service.serve_line dark "ping");
  Alcotest.(check (option int)) "capacity 0 admits nothing" (Some 0)
    (Json.to_int (member_exn "slow log" "count" (Service.slow_log_json dark)))

let test_monotone_counters_under_commits () =
  (* two stats scrapes race a committing writer: every counter delta must
     still be >= 0 — a snapshot must never observe a counter mid-rollback
     or torn *)
  with_custom_server @@ fun ~e ~db path ->
  let b = e.Dg.ext.b in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          ignore
            (Db.insert db ~cls:b.vehicle [ ("color", Value.Str "Teal") ]);
          ignore (Db.commit db);
          incr n
        done;
        !n)
  in
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Client.close c)
    (fun () ->
      let counters () = member_exn "stats" "counters" (Client.stats c) in
      let prev = ref (counters ()) in
      for round = 1 to 6 do
        ignore (Client.request c "query (Red, Bus*)");
        Unix.sleepf 0.02;
        let cur = counters () in
        List.iter
          (fun (k, v) ->
            if v < 0 then
              Alcotest.failf "round %d: counter %s went backwards by %d"
                round k (-v))
          (Obs.Metrics.delta ~before:!prev ~after:cur);
        prev := cur
      done);
  let commits = Domain.join writer in
  Alcotest.(check bool)
    (Printf.sprintf "writer interleaved commits (%d)" commits)
    true (commits > 0)

let test_page_read_reconciliation () =
  (* the acceptance invariant: the global pager.reads counter delta
     between two stats scrapes must equal the sum of per-request
     page_reads over the slow-log entries in between — every page read
     the server does (session-pin attach walks included, across both
     attached indexes) is attributed to some request's span *)
  let telemetry =
    {
      Service.tracing = true;
      sample_every = 1;
      slow_threshold_ns = 0;
      slow_capacity = 512;
    }
  in
  with_custom_server ~telemetry @@ fun ~e:_ ~db:_ path ->
  let c = Client.connect_unix path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let counters r = member_exn "stats" "counters" r in
      let before = counters (Client.stats c) in
      let lines =
        List.concat
          (List.init 10 (fun _ ->
               [
                 "query (Red, Bus*)";
                 "query (White, Vehicle*)";
                 "query (Red, Vehicle*)";
                 "ping";
               ]))
      in
      List.iter
        (fun l ->
          if not (Protocol.response_is_ok (Client.request c l)) then
            Alcotest.failf "request %S failed" l)
        lines;
      let after = counters (Client.stats c) in
      let d = Obs.Metrics.delta ~before ~after in
      let delta k = Option.value ~default:0 (List.assoc_opt k d) in
      Alcotest.(check int) "every query executed" 30 (delta "exec.queries");
      let slow = Client.slow_queries c in
      let entries =
        match member_exn "slow log" "entries" slow with
        | Json.List l -> l
        | _ -> Alcotest.fail "entries not a list"
      in
      (* ring capacity exceeds total traffic, so nothing was evicted:
         the entries are exactly the requests served (scrapes included,
         at zero reads each) *)
      Alcotest.(check int) "nothing evicted" (List.length lines + 2)
        (List.length entries);
      let attributed =
        List.fold_left
          (fun acc en ->
            acc
            + Option.get
                (Json.to_int (member_exn "slow entry" "page_reads" en)))
          0 entries
      in
      Alcotest.(check int) "pager.reads reconciles with per-request spans"
        (delta "pager.reads") attributed)

let test_concurrent_clients () =
  with_server ~workers:4 @@ fun path _server ->
  (* a sequential baseline, then 8 concurrent clients must match it *)
  let lines =
    [
      "query (Red, Bus*)";
      "query (White, Vehicle*)";
      "query ([50-60], Employee*, Company*, Vehicle*)";
    ]
  in
  let baseline =
    let c = Client.connect_unix path in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> List.map (Client.request_raw c) lines)
  in
  let clients =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            let c = Client.connect_unix path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> List.map (Client.request_raw c) lines)))
  in
  List.iteri
    (fun i d ->
      let got = Domain.join d in
      List.iter2
        (Alcotest.(check string) (Printf.sprintf "client %d byte-identical" i))
        baseline got)
    clients

let test_graceful_stop () =
  let e = Dg.exp1 ~n_vehicles:200 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_stop" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let server =
    Server.start svc (Server.default_config (Server.Unix_sock path))
  in
  let c = Client.connect_unix path in
  assert (Protocol.response_is_ok (Client.request c "ping"));
  Client.close c;
  Server.stop server;
  Server.stop server (* idempotent *);
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path);
  (match Client.connect_unix path with
  | c ->
      Client.close c;
      Alcotest.fail "listener still accepting after stop"
  | exception Client.Error (Client.Connect_failed _) -> ());
  Unix.rmdir dir

(* --- session-leak audit ----------------------------------------------- *)

(* [Db.active_sessions] must return to zero after every error path a
   hostile client or a failing backend can reach: if a worker abandons
   a request without releasing its session, snapshot reclamation stalls
   forever.  Workers may still be finishing an abandoned request when
   the client side returns, so poll briefly before declaring a leak. *)
let assert_sessions_drained label =
  let rec wait tries =
    let n = Uindex.Db.active_sessions () in
    if n = 0 then ()
    else if tries = 0 then Alcotest.failf "%s: %d sessions leaked" label n
    else begin
      Unix.sleepf 0.02;
      wait (tries - 1)
    end
  in
  wait 100

let test_session_leak_audit () =
  with_server @@ fun path _server ->
  Alcotest.(check int) "baseline" 0 (Uindex.Db.active_sessions ());
  ignore (expect_ok path "query (Red, Vehicle*)");
  assert_sessions_drained "good query";
  expect_error path "query (((" "parse_error";
  expect_error path "query (Red, NoSuchClass*)" "parse_error";
  assert_sessions_drained "parse errors";
  (* arity with no matching index: a typed unroutable reply *)
  expect_error path "query ([1-2], Employee*, Vehicle*)" "unroutable";
  assert_sessions_drained "unroutable";
  (* hostile 256 MiB length header *)
  let fd = raw_connect path in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (256 * 1024 * 1024));
  ignore (Unix.write fd hdr 0 4);
  ignore (read_reply fd);
  Unix.close fd;
  assert_sessions_drained "oversized frame";
  (* header promising bytes that never come *)
  let fd = raw_connect path in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write fd hdr 0 4);
  Unix.close fd;
  assert_sessions_drained "truncated frame";
  (* full request, client gone before the reply is written *)
  let fd = raw_connect path in
  Protocol.write_frame fd "query (White, Vehicle*)";
  Unix.close fd;
  prove_workers_alive path;
  assert_sessions_drained "mid-request disconnect"

let test_session_leak_under_chaos () =
  let module Chaos = Uindex_server.Chaos in
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  let dir = Filename.temp_file "uindex_leak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "srv.sock" in
  let chaos =
    { Chaos.none with Chaos.seed = 11; reset = 0.3; crash = 0.3; truncate = 0.2 }
  in
  let config =
    {
      (Server.default_config (Server.Unix_sock path)) with
      workers = 2;
      request_timeout = 2.;
      chaos = Some (Chaos.arm chaos);
      restart_budget = 1000;
    }
  in
  let server = Server.start svc config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* hammer the chaotic server; cut connections and crashed workers
         are expected — leaked sessions are not *)
      for i = 0 to 39 do
        let line =
          match i mod 3 with
          | 0 -> "query (Red, Vehicle*)"
          | 1 -> "query ([50-60], Employee*, Company*, Vehicle*)"
          | _ -> "query (White, Bus*)"
        in
        match Client.connect_unix path with
        | exception Client.Error _ -> ()
        | c ->
            (match Client.request c line with
            | (_ : Json.t) -> ()
            | exception Client.Error _ -> ());
            Client.close c
      done;
      assert_sessions_drained "chaos mix")

(* --- row rendering ------------------------------------------------------ *)

module Schema = Oodb_schema.Schema
module Ps = Workload.Paper_schema
module Exec = Uindex.Exec

(* The renderer rows used to go through, kept as the oracle: a Json tree
   per binding, stringified as a sort key, the trees sorted by key. *)
let oracle_rows schema bindings =
  let value_json = function
    | Value.Null -> Json.Null
    | Value.Int i -> Json.Int i
    | Value.Str s -> Json.Str s
    | Value.Ref o -> Json.Obj [ ("ref", Json.Int o) ]
    | Value.Ref_set os -> Json.List (List.map (fun o -> Json.Int o) os)
  in
  let binding_json (b : Exec.binding) =
    Json.Obj
      [
        ("value", value_json b.value);
        ( "comps",
          Json.List
            (List.map
               (fun (cls, oid) ->
                 Json.List [ Json.Str (Schema.name schema cls); Json.Int oid ])
               b.comps) );
      ]
  in
  let keyed = List.map (fun j -> (Json.to_string j, j)) (List.map binding_json bindings) in
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) keyed in
  Json.to_string (Json.List (List.map snd sorted))

let every_byte = String.init 256 Char.chr

let test_render_rows_oracle () =
  let b = Ps.base () in
  let schema = b.Ps.schema in
  let comps =
    [
      [ (b.Ps.vehicle, 7) ];
      [ (b.Ps.company, 12); (b.Ps.truck, 3) ];
      [ (b.Ps.employee, 1000); (b.Ps.auto_company, 999); (b.Ps.compact, 0) ];
    ]
  in
  let values =
    [
      Value.Null;
      Value.Int 0;
      Value.Int (-42);
      Value.Int 1000;
      Value.Int 999;
      Value.Int min_int;
      Value.Str "";
      Value.Str "Red";
      Value.Str "quote \" backslash \\ slash /";
      Value.Str "ctl \n\r\t\b\012\000\031 del \127";
      Value.Str "caf\xc3\xa9 \xe2\x82\xac \xff\xfe";
      Value.Str every_byte;
      Value.Ref 5;
      Value.Ref_set [];
      Value.Ref_set [ 3 ];
      Value.Ref_set [ 10; 2; 33 ];
    ]
  in
  let bindings =
    List.concat_map
      (fun value -> List.map (fun comps -> { Exec.value; comps }) comps)
      values
  in
  Alcotest.(check string) "no rows" (oracle_rows schema [])
    (Service.render_rows schema []);
  List.iter
    (fun bd ->
      Alcotest.(check string) "one row" (oracle_rows schema [ bd ])
        (Service.render_rows schema [ bd ]))
    bindings;
  Alcotest.(check string) "all rows, canonical order"
    (oracle_rows schema bindings)
    (Service.render_rows schema (List.rev bindings))

let prop_render_rows =
  let b = Ps.base () in
  let classes = [| b.Ps.vehicle; b.Ps.truck; b.Ps.company; b.Ps.employee |] in
  let value =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun i -> Value.Int i) int;
          map (fun s -> Value.Str s) (string_size ~gen:char (0 -- 12));
          map (fun o -> Value.Ref o) nat;
          map (fun l -> Value.Ref_set l) (list_size (0 -- 4) nat);
        ])
  in
  let comp = QCheck.Gen.(pair (map (Array.get classes) (0 -- 3)) (0 -- 2000)) in
  let binding =
    QCheck.Gen.(
      map2 (fun value comps -> { Exec.value; comps }) value
        (list_size (1 -- 3) comp))
  in
  QCheck.Test.make ~count:200 ~name:"rows = oracle on random bindings"
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) binding))
    (fun bindings ->
      Service.render_rows b.Ps.schema bindings = oracle_rows b.Ps.schema bindings)

(* the reply document spliced around the rendered rows prints exactly
   the bytes the server sends *)
let test_handle_matches_serve_line () =
  let e = Dg.exp1 ~n_vehicles:300 ~seed:3 () in
  let db = Db.create e.store in
  Db.attach_index db e.ch_color;
  Db.attach_index db e.path_age;
  let svc = Service.create ~schema:e.ext.b.schema db in
  List.iter
    (fun line ->
      let served = Service.serve_line svc line in
      Alcotest.(check string) line served
        (Json.to_string (Service.handle_line svc line));
      Alcotest.(check string) (line ^ " reparsed") served
        (Json.to_string (Json.of_string served)))
    [
      "query (Red, Vehicle*)";
      "query (*, Vehicle*)";
      "query-forward ([20-40], Employee*, Company*, Vehicle*)";
      "query (Teal, Bus)";
    ];
  let count line =
    Option.bind
      (Json.member "count" (Json.of_string (Service.serve_line svc line)))
      Json.to_int
  in
  Alcotest.(check bool) "a many-row reply is covered" true
    (Option.value ~default:0 (count "query (*, Vehicle*)") > 100)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "good queries, persistent connections" `Quick
            test_good_queries;
          Alcotest.test_case "bad requests get typed errors" `Quick
            test_bad_requests;
          Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
          Alcotest.test_case "truncated frames" `Quick test_truncated_frame;
          Alcotest.test_case "mid-request disconnect" `Quick
            test_mid_request_disconnect;
          Alcotest.test_case "quit and binary garbage" `Quick
            test_quit_and_garbage_payload;
        ] );
      ( "load",
        [
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "stale queue timeout" `Quick
            test_stale_queue_timeout;
          Alcotest.test_case "8 concurrent clients = sequential" `Quick
            test_concurrent_clients;
        ] );
      ( "service",
        [
          Alcotest.test_case "stats percentiles" `Quick test_stats_response;
          Alcotest.test_case "graceful stop" `Quick test_graceful_stop;
          Alcotest.test_case "session-leak audit" `Quick
            test_session_leak_audit;
          Alcotest.test_case "session leaks under chaos" `Quick
            test_session_leak_under_chaos;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "health fields" `Quick test_health_response;
          Alcotest.test_case "malformed admin requests" `Quick
            test_admin_malformed;
          Alcotest.test_case "trace id echo" `Quick test_trace_id_echo;
          Alcotest.test_case "slow ring eviction" `Quick
            test_slow_ring_eviction;
          Alcotest.test_case "monotone counters under commits" `Quick
            test_monotone_counters_under_commits;
          Alcotest.test_case "page-read reconciliation" `Quick
            test_page_read_reconciliation;
        ] );
      ( "render",
        [
          Alcotest.test_case "rows = old renderer" `Quick
            test_render_rows_oracle;
          QCheck_alcotest.to_alcotest prop_render_rows;
          Alcotest.test_case "handle = serve_line bytes" `Quick
            test_handle_matches_serve_line;
        ] );
    ]

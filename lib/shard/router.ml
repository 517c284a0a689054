module Json = Obs.Json
module Metrics = Obs.Metrics
module Schema = Oodb_schema.Schema
module Encoding = Oodb_schema.Encoding
module Qparse = Uindex.Qparse
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Client = Uindex_server.Client
module Protocol = Uindex_server.Protocol

(* the router feeds the same request instruments the service does, so
   [stats]/[top] read a router exactly like a plain server *)
let c_requests = Metrics.counter ~subsystem:"server" "requests"
let c_request_errors = Metrics.counter ~subsystem:"server" "request_errors"

let h_request_ns =
  Metrics.histogram ~subsystem:"server"
    ~help:"request handling latency (ns)" "request_ns"

let h_queue_wait =
  Metrics.histogram ~subsystem:"server"
    ~help:"time between accept and a worker picking the connection (ns)"
    "queue_wait_ns"

let h_fanout =
  Metrics.histogram ~subsystem:"shard"
    ~help:"shards contacted per query" "fanout"

let c_pruned =
  Metrics.counter ~subsystem:"shard"
    ~help:"shard requests avoided by interval pruning" "pruned"

let c_forwarded =
  Metrics.counter ~subsystem:"shard"
    ~help:"requests forwarded to shards" "forwarded"

let c_shard_failures =
  Metrics.counter ~subsystem:"shard"
    ~help:"queries answered with a typed shard_failure error"
    "failures"

let h_merge_ns =
  Metrics.histogram ~subsystem:"shard"
    ~help:"scatter-gather merge latency (ns)" "merge_ns"

type backend = Local of Service.t | Remote of string

type t = {
  schema : Schema.t;
  enc : Encoding.t;
  map : Shard_map.t;
  backends : backend array;
  shard_timeout : float;
  policy : Client.retry_policy;
  per_shard : int Atomic.t array;
  started : float;
}

let create ?(shard_timeout = 5.) ?(retry_policy = Client.default_retry_policy)
    ~schema ~enc ~map ~backends () =
  if Array.length backends <> Shard_map.count map then
    invalid_arg "Router.create: one backend per shard required";
  {
    schema;
    enc;
    map;
    backends;
    shard_timeout;
    policy = retry_policy;
    per_shard = Array.init (Shard_map.count map) (fun _ -> Atomic.make 0);
    started = Unix.gettimeofday ();
  }

let map t = t.map
let requests_per_shard t = Array.map Atomic.get t.per_shard
let route_query t q = Planner.route t.map t.enc q

let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
let hex_id = Printf.sprintf "%x"

let attach_trace_id id = function
  | Json.Obj kvs -> Json.Obj (kvs @ [ ("trace_id", Json.Str (hex_id id)) ])
  | j -> j

(* --- canonical projection ---------------------------------------------- *)

let canonical_projection payload =
  match Json.of_string payload with
  | exception Json.Parse_error _ -> payload
  | j ->
      let keep = [ "ok"; "type"; "count"; "rows"; "error"; "trace_id" ] in
      let members =
        List.filter_map (fun k -> Option.map (fun v -> (k, v)) (Json.member k j)) keep
      in
      Json.to_string (Json.Obj members)

(* --- per-shard calls --------------------------------------------------- *)

type shard_reply = Replied of string | Lost of string

let call t i line deadline =
  Atomic.incr t.per_shard.(i);
  Metrics.incr c_forwarded;
  match t.backends.(i) with
  | Local svc -> (
      match Service.serve_line ?deadline svc line with
      | payload -> Replied payload
      | exception e -> Lost (Printexc.to_string e))
  | Remote spec -> (
      let rc =
        Client.retrying ~timeout:t.shard_timeout ~policy:t.policy spec
      in
      Fun.protect ~finally:(fun () -> Client.retry_close rc) @@ fun () ->
      match Client.retry_request_raw rc line with
      | payload -> Replied payload
      | exception Client.Error f -> Lost (Client.failure_to_string f))

let backend_name t i =
  match t.backends.(i) with Local _ -> "local" | Remote spec -> spec

(* --- query fan-out and merge ------------------------------------------- *)

let empty_rows_reply client_id =
  let resp =
    Protocol.ok
      [
        ("type", Json.Str "rows");
        ("count", Json.Int 0);
        ("rows", Json.List []);
        ("page_reads", Json.Int 0);
        ("pool_hits", Json.Int 0);
        ("entries_scanned", Json.Int 0);
      ]
  in
  match client_id with
  | Some id -> attach_trace_id id resp
  | None -> resp

let jint j k =
  match Json.member k j with Some (Json.Int i) -> i | _ -> 0

let shard_failure_reply t client_id ~contacted ~lost =
  Metrics.incr c_shard_failures;
  let detail =
    Printf.sprintf "%d of %d shards lost: %s" (List.length lost)
      (List.length contacted)
      (String.concat "; "
         (List.map
            (fun (i, why) ->
              Printf.sprintf "shard %d (%s): %s" i (backend_name t i) why)
            lost))
  in
  let resp = Protocol.error ~detail Protocol.Shard_failure in
  match client_id with Some id -> attach_trace_id id resp | None -> resp

(* --- streaming merge ----------------------------------------------------- *)

(* A shard's reply is not parsed into a tree: a string-aware bracket scan
   of its top-level members finds the [rows] array and the byte extent of
   every row in it, and only the small remainder — the reply with that
   array emptied — goes through [Json.of_string]. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let char_at s i =
  if i < String.length s then String.unsafe_get s i
  else malformed "unexpected end of reply at byte %d" i

let rec skip_ws s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws s (i + 1)
    | _ -> i
  else i

(* the index just past the string literal whose opening quote is at [i] *)
let skip_string s i =
  let rec go j =
    match char_at s j with '"' -> j + 1 | '\\' -> go (j + 2) | _ -> go (j + 1)
  in
  go (i + 1)

(* The index just past the value starting at [i]: strings are skipped
   whole and brackets must close in kind; scalars run to the next
   delimiter and are left to whoever reads them. *)
let rec skip_value s i =
  match char_at s i with
  | '"' -> skip_string s i
  | '[' -> skip_items s (i + 1) ']'
  | '{' -> skip_items s (i + 1) '}'
  | _ ->
      let rec scalar j =
        if j < String.length s then
          match String.unsafe_get s j with
          | ',' | ':' | ']' | '}' | ' ' | '\t' | '\n' | '\r' -> j
          | _ -> scalar (j + 1)
        else j
      in
      let j = scalar i in
      if j = i then malformed "expected a value at byte %d" i else j

(* The index just past the items up to the [close] bracket, passing
   each item's extent to [f]; an object's names and values are both
   items, separated by ':' and ',' in turn. *)
and skip_items ?(f = fun _ _ -> ()) s i close =
  let rec item i =
    let i = skip_ws s i in
    let j = skip_value s i in
    f i j;
    let k = skip_ws s j in
    match char_at s k with
    | ',' -> item (k + 1)
    | ':' when close = '}' -> item (k + 1)
    | c when c = close -> k + 1
    | c -> malformed "unexpected %C at byte %d" c k
  in
  let i = skip_ws s i in
  if char_at s i = close then i + 1 else item i

type split = {
  payload : string;
  rows : (int * int) array;  (* [start, stop) of each row, in reply order *)
  rest : Json.t;  (* the reply with its rows array emptied *)
}

let split_reply payload =
  let rows = ref None in
  let rec members i =
    let i = skip_ws payload i in
    if char_at payload i <> '"' then
      malformed "expected a member name at byte %d" i;
    let k = skip_string payload i in
    let v = skip_ws payload k in
    if char_at payload v <> ':' then malformed "expected : at byte %d" v;
    let v = skip_ws payload (v + 1) in
    let stop =
      if String.sub payload i (k - i) = "\"rows\"" && char_at payload v = '['
      then begin
        let extents = ref [] in
        let f a b = extents := (a, b) :: !extents in
        let stop = skip_items ~f payload (v + 1) ']' in
        rows := Some (v, stop, List.rev !extents);
        stop
      end
      else skip_value payload v
    in
    let j = skip_ws payload stop in
    match char_at payload j with
    | ',' -> members (j + 1)
    | '}' -> ()
    | c -> malformed "unexpected %C at byte %d" c j
  in
  let i = skip_ws payload 0 in
  if char_at payload i <> '{' then malformed "expected an object";
  members (i + 1);
  match !rows with
  | None -> { payload; rows = [||]; rest = Json.of_string payload }
  | Some (a, b, extents) ->
      let rest =
        String.sub payload 0 a ^ "[]"
        ^ String.sub payload b (String.length payload - b)
      in
      { payload; rows = Array.of_list extents; rest = Json.of_string rest }

let compare_rows x (a, a') y (b, b') =
  let la = a' - a and lb = b' - b in
  let n = min la lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let c =
        Char.compare
          (String.unsafe_get x.payload (a + i))
          (String.unsafe_get y.payload (b + i))
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Every shard rendered its rows in the canonical byte order and each
   entry lives on exactly one shard, so a k-way merge of the row slices
   is byte-identical to the unsharded rendering. *)
let merge_rows splits =
  let streams = Array.of_list splits in
  let next = Array.make (Array.length streams) 0 in
  let bytes =
    Array.fold_left
      (fun n sp ->
        Array.fold_left (fun n (a, b) -> n + b - a + 1) n sp.rows)
      2 streams
  in
  let out = Buffer.create bytes in
  Buffer.add_char out '[';
  let rec emit first =
    let best = ref (-1) in
    Array.iteri
      (fun k sp ->
        if next.(k) < Array.length sp.rows then
          if
            !best < 0
            || compare_rows sp sp.rows.(next.(k)) streams.(!best)
                 streams.(!best).rows.(next.(!best))
               < 0
          then best := k)
      streams;
    if !best >= 0 then begin
      let sp = streams.(!best) in
      let a, b = sp.rows.(next.(!best)) in
      if not first then Buffer.add_char out ',';
      Buffer.add_substring out sp.payload a (b - a);
      next.(!best) <- next.(!best) + 1;
      emit false
    end
  in
  emit true;
  Buffer.add_char out ']';
  Buffer.contents out

let merge_replies t client_id ~targets replies =
  let m0 = Unix.gettimeofday () in
  let parsed =
    List.map2
      (fun i r ->
        match r with
        | Lost why -> (i, Error why)
        | Replied payload -> (
            match split_reply payload with
            | sp -> (i, Ok sp)
            | exception (Malformed msg | Json.Parse_error msg) ->
                (i, Error ("unparseable shard reply: " ^ msg))))
      targets replies
  in
  let lost =
    List.filter_map
      (function (i, Error why) -> Some (i, why) | _ -> None)
      parsed
  in
  let oks = List.filter_map (function (_, Ok sp) -> Some sp | _ -> None) parsed in
  let errors =
    List.filter (fun sp -> not (Protocol.response_is_ok sp.rest)) oks
  in
  if lost <> [] then
    Some (shard_failure_reply t client_id ~contacted:targets ~lost)
  else if errors <> [] then begin
    (* every shard agreeing on one error (e.g. unroutable arity) is that
       error; disagreement means some shards answered and some did not —
       a partial failure *)
    let kinds =
      List.sort_uniq compare
        (List.filter_map (fun sp -> Protocol.response_error_kind sp.rest) errors)
    in
    match kinds with
    | [ _ ] when List.length errors = List.length oks -> None (* pass through *)
    | _ ->
        let lost =
          List.filter_map
            (fun (i, r) ->
              match r with
              | Ok sp when not (Protocol.response_is_ok sp.rest) ->
                  Some
                    ( i,
                      Printf.sprintf "%s reply"
                        (Option.value ~default:"error"
                           (Protocol.response_error_kind sp.rest)) )
              | _ -> None)
            parsed
        in
        Some (shard_failure_reply t client_id ~contacted:targets ~lost)
  end
  else begin
    let sum f = List.fold_left (fun a sp -> a + jint sp.rest f) 0 oks in
    let resp =
      Protocol.ok
        [
          ("type", Json.Str "rows");
          ( "count",
            Json.Int
              (List.fold_left (fun n sp -> n + Array.length sp.rows) 0 oks) );
          ("rows", Json.Raw (merge_rows oks));
          ("page_reads", Json.Int (sum "page_reads"));
          ("pool_hits", Json.Int (sum "pool_hits"));
          ("entries_scanned", Json.Int (sum "entries_scanned"));
        ]
    in
    let resp =
      match client_id with
      | Some id -> attach_trace_id id resp
      | None -> resp
    in
    Metrics.observe h_merge_ns (ns_since m0);
    Some resp
  end

let respond_parsed t client_id ~line ~deadline q =
  (
      let targets = Planner.route t.map t.enc q in
      let n = List.length targets in
      Metrics.observe h_fanout n;
      Metrics.add c_pruned (Shard_map.count t.map - n);
      match targets with
      | [] -> `Doc (empty_rows_reply client_id)
      | [ i ] -> (
          (* single-shard bypass: forward the line verbatim and hand the
             shard's reply bytes back untouched *)
          match call t i line deadline with
          | Replied payload -> `Raw payload
          | Lost why ->
              `Doc
                (shard_failure_reply t client_id ~contacted:targets
                   ~lost:[ (i, why) ]))
      | targets -> (
          let arr = Array.make n (Lost "not dispatched") in
          let threads =
            List.mapi
              (fun slot i ->
                Thread.create
                  (fun () -> arr.(slot) <- call t i line deadline)
                  ())
              targets
          in
          List.iter Thread.join threads;
          match merge_replies t client_id ~targets (Array.to_list arr) with
          | Some doc -> `Doc doc
          | None -> (
              (* unanimous typed error: pass the first shard's reply through *)
              match arr.(0) with
              | Replied payload -> `Raw payload
              | Lost why ->
                  `Doc
                    (shard_failure_reply t client_id ~contacted:targets
                       ~lost:[ (List.hd targets, why) ]))))

let query_response t client_id ~line ~deadline text =
  match Qparse.parse t.schema text with
  | exception Qparse.Parse_error msg ->
      `Doc (Protocol.error ~detail:msg Protocol.Parse_error)
  | q -> respond_parsed t client_id ~line ~deadline q

let respond ?trace_id t q =
  let line =
    Protocol.line_to_string ?trace_id
      (Protocol.Query { algo = `Parallel; text = Qparse.to_syntax t.schema q })
  in
  match respond_parsed t trace_id ~line ~deadline:None q with
  | `Raw payload -> payload
  | `Doc doc -> Json.to_string doc

(* --- admin responses --------------------------------------------------- *)

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
  Protocol.ok
    [
      ("type", Json.Str "health");
      ("role", Json.Str "router");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
      ("workers", Json.Int (metric "server.workers"));
      ("queue_depth", Json.Int (metric "server.queue_depth"));
      ("shards", Json.Int (Shard_map.count t.map));
      ("topology", Shard_map.topology_json t.map);
      ( "forwarded",
        Json.List
          (Array.to_list
             (Array.map (fun a -> Json.Int (Atomic.get a)) t.per_shard)) );
      ("pruned", Json.Int (metric "shard.pruned"));
      ("shard_failures", Json.Int (metric "shard.failures"));
    ]

let slow_response =
  Protocol.ok
    [
      ("type", Json.Str "slow_queries");
      ("threshold_ns", Json.Int 0);
      ("capacity", Json.Int 0);
      ("count", Json.Int 0);
      ("entries", Json.List []);
    ]

(* --- the request pipeline ---------------------------------------------- *)

let serve_line ?(queued_ns = 0) ?deadline t line =
  Metrics.incr c_requests;
  let t0 = Unix.gettimeofday () in
  if queued_ns > 0 then Metrics.observe h_queue_wait queued_ns;
  let answer =
    match Protocol.parse_line line with
    | Error msg -> `Doc (Protocol.error ~detail:msg Protocol.Bad_request)
    | Ok (client_id, req) -> (
        let expired =
          match deadline with
          | Some d -> Unix.gettimeofday () > d
          | None -> false
        in
        if expired then
          `Doc
            (Protocol.error ~detail:"deadline exceeded before execution"
               Protocol.Timeout)
        else
          match req with
          | Protocol.Ping -> `Doc (Protocol.ok [ ("type", Json.Str "pong") ])
          | Protocol.Quit -> `Doc (Protocol.ok [ ("type", Json.Str "bye") ])
          | Protocol.Stats -> `Doc (stats_response t)
          | Protocol.Health -> `Doc (health_response t)
          | Protocol.Slow_queries _ -> `Doc slow_response
          | Protocol.Query { text; _ } ->
              let doc =
                query_response t client_id ~line ~deadline text
              in
              (match (doc, client_id) with
              | `Doc (Json.Obj _ as d), Some id
                when Json.member "trace_id" d = None ->
                  `Doc (attach_trace_id id d)
              | _ -> doc))
  in
  let payload =
    match answer with `Raw payload -> payload | `Doc doc -> Json.to_string doc
  in
  Metrics.observe h_request_ns (ns_since t0);
  let is_error =
    match answer with
    | `Doc doc -> not (Protocol.response_is_ok doc)
    | `Raw payload ->
        (* [Protocol.ok] always renders its [ok] member first, so a
           forwarded reply is a success exactly when it starts with it *)
        not (String.starts_with ~prefix:"{\"ok\":true," payload)
  in
  if is_error then Metrics.incr c_request_errors;
  payload

let handler t =
  {
    Server.serve =
      (fun ~queued_ns ~deadline line -> serve_line ~queued_ns ?deadline t line);
    on_stop = (fun () -> ());
  }

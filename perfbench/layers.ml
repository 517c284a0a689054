(* Layer measurements, taken from outside the program by timing calls
   into each layer's public functions on the request lines a workload
   sends.

   [replay] runs each line once through the request path piece by piece
   — [Qparse.parse], [Db.open_session], [Db.session_query] (with the
   minor words it allocates), [Exec.analyze] for the descent count,
   [Db.close_session], [Service.handle_line], [Obs.Json.to_string] of that
   reply, [Service.serve_line] — and, when routed, [Router.route_query],
   [Router.serve_line] and each contacted shard's [Service.serve_line].

   [traced_request] is one request of the traced run: a root span around
   the socket round trip (whose server side is recorded by the traced
   handler in {!Deploy}) followed by the same pieces replayed in-process,
   each under its own span, plus a B-tree-level replay of the query's key
   intervals whose page reads run under [storage] spans. *)

open Perfbench_util
module Db = Uindex.Db
module Index = Uindex.Index
module Query = Uindex.Query
module Qparse = Uindex.Qparse
module Exec = Uindex.Exec
module Plan = Uindex.Plan
module Service = Uindex_server.Service
module Client = Uindex_server.Client
module Router = Uindex_shard.Router
module Json = Obs.Json

(* --- named samples ------------------------------------------------------- *)

type samples = (string, float list ref) Hashtbl.t

let create () : samples = Hashtbl.create 32

let add (s : samples) name v =
  match Hashtbl.find_opt s name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add s name (ref [ v ])

let get (s : samples) name =
  match Hashtbl.find_opt s name with
  | Some l -> Array.of_list !l
  | None -> [||]

(* Times [f] and records the elapsed microseconds under [name]. *)
let timed s name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  add s name ((Unix.gettimeofday () -. t0) *. 1e6);
  v

(* --- routing a parsed query to its index, as [Service] does ------------ *)

let index_for ~weight ~path (q : Query.t) =
  if List.length q.comps = 1 then weight else path

(* The databases a line's work runs on: the unsharded one, or every shard
   the router contacts. *)
let targets (d : Deploy.t) q =
  match d.router with
  | None -> [ (d.data.db, index_for ~weight:d.data.weight ~path:d.data.path q) ]
  | Some r ->
      List.map
        (fun i ->
          let s = d.shards.(i) in
          (s.db, index_for ~weight:s.weight ~path:s.path q))
        (Router.route_query r q)

let segments span =
  let rec go (sp : Obs.Trace.span) =
    (if sp.name = "descent" || sp.name = "scan" then 1 else 0)
    + List.fold_left (fun a c -> a + go c) 0 sp.children
  in
  go span

let query_text line =
  match Uindex_server.Protocol.parse_request line with
  | Ok (Uindex_server.Protocol.Query { text; _ }) -> text
  | _ -> invalid_arg ("not a query line: " ^ line)

(* --- the in-process replay ---------------------------------------------- *)

let replay (d : Deploy.t) s line =
  let schema = Data.schema d.data in
  let q = timed s "core.parse_us" (fun () -> Qparse.parse schema (query_text line)) in
  List.iter
    (fun (db, idx) ->
      let ses = timed s "core.session_pin_us" (fun () -> Db.open_session db) in
      let w0 = Gc.minor_words () in
      let out = timed s "core.exec_us" (fun () -> Db.session_query ses idx q) in
      add s "core.alloc_words" (Gc.minor_words () -. w0);
      let _, span = Exec.analyze ~algo:`Parallel (Db.session_view ses idx) q in
      add s "btree.segments" (float_of_int (segments span));
      add s "btree.entries_scanned" (float_of_int out.entries_scanned);
      add s "btree.rows" (float_of_int (List.length out.bindings));
      timed s "core.session_close_us" (fun () -> Db.close_session ses))
    (targets d q);
  let doc = timed s "server.handle_us" (fun () -> Service.handle_line d.svc line) in
  ignore (timed s "server.render_us" (fun () -> Json.to_string doc));
  let bytes = timed s "server.serve_line_us" (fun () -> Service.serve_line d.svc line) in
  add s "server.reply_bytes" (float_of_int (String.length bytes));
  match d.router with
  | None -> ()
  | Some r ->
      let contacted = timed s "shard.route_us" (fun () -> Router.route_query r q) in
      ignore (timed s "shard.respond_us" (fun () -> Router.serve_line r line));
      let slowest =
        List.fold_left
          (fun acc i ->
            let t0 = Unix.gettimeofday () in
            ignore (Service.serve_line d.shards.(i).svc line);
            Float.max acc ((Unix.gettimeofday () -. t0) *. 1e6))
          0. contacted
      in
      add s "shard.shard_serve_us" slowest

(* --- the traced run ------------------------------------------------------ *)

(* The B-tree-level replay: the query's interval set (or, for a range,
   its key bracket) scanned on the pinned view, every page read timed as
   a [storage] span. *)
let btree_replay r ~parent ~req (d : Deploy.t) view q =
  let plan =
    Plan.compile ~enc:d.data.ext.b.enc ~ty:(Index.attr_ty view) q
  in
  let tree = Index.tree view in
  let read id =
    Spans.with_span r ~parent ~req ~layer:"storage" "pager.read" (fun _ ->
        Btree.raw_read tree id)
  in
  match Plan.intervals plan with
  | Some ivs -> Btree.scan_intervals tree ~read ivs ignore
  | None -> (
      match Plan.bracket plan with
      | Some (lo, hi) ->
          let hi = Option.value hi ~default:(String.make 16 '\xff') in
          Btree.scan_range tree ~read ~lo ~hi ignore
      | None -> ())

let traced_request r (d : Deploy.t) ~req client line =
  let schema = Data.schema d.data in
  (* the reply document whose rendering the replay times; built before
     the root span opens so it is no layer's time *)
  let doc = Service.handle_line d.svc line in
  Spans.with_span r ~req ~layer:"client" "request" (fun root ->
      let reply =
        Spans.with_span r ~parent:root ~req ~layer:"wire" "client.request_raw"
          (fun wire ->
            Deploy.register_trace ~trace_id:wire ~req;
            Client.request_raw client (Printf.sprintf "@%x %s" wire line))
      in
      Spans.with_span r ~parent:root ~req ~layer:"client" "replay" (fun rp ->
          let span layer name f = Spans.with_span r ~parent:rp ~req ~layer name f in
          let q =
            span "core" "qparse.parse" (fun _ -> Qparse.parse schema (query_text line))
          in
          (match d.router with
          | Some rt -> ignore (span "shard" "router.route_query" (fun _ -> Router.route_query rt q))
          | None -> ());
          List.iter
            (fun (db, idx) ->
              let ses = span "core" "db.open_session" (fun _ -> Db.open_session db) in
              ignore (span "core" "db.session_query" (fun _ -> Db.session_query ses idx q));
              span "btree" "btree.scan" (fun b ->
                  btree_replay r ~parent:b ~req d (Db.session_view ses idx) q);
              span "core" "db.close_session" (fun _ -> Db.close_session ses))
            (targets d q);
          ignore (span "server" "json.to_string" (fun _ -> Json.to_string doc)));
      reply)

(* One traced write of the mixed workload. *)
let traced_write r ~req f_insert f_commit =
  Spans.with_span r ~req ~layer:"client" "write" (fun root ->
      Spans.with_span r ~parent:root ~req ~layer:"core" "db.insert" (fun _ -> f_insert ());
      Spans.with_span r ~parent:root ~req ~layer:"storage" "db.commit" (fun _ ->
          f_commit ()))

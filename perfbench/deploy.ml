(* The served deployments the workloads run against, all in this process.

   - [Single]: the database behind one [Server] (2 worker domains).
   - [Routed]: the weight and path indexes split into 2 COD-range shards
     at a class-subtree boundary; each shard is its own database behind
     its own [Server], and a [Router] with [Remote] backends sits behind a
     third [Server].  The unsharded service stays in-process as the
     reference the router's answers are checked against.

   For the traced run the servers are restarted behind a handler that
   records one span per request carrying a client trace id (the
   protocol's [@<hex>] prefix).  The client uses the id of its own
   round-trip span as the trace id, so a served request's span is the
   child of the client span that sent it; a shard's span is the child
   of the router span that fanned out to it. *)

open Perfbench_util
module Db = Uindex.Db
module Index = Uindex.Index
module Service = Uindex_server.Service
module Server = Uindex_server.Server
module Protocol = Uindex_server.Protocol
module Smap = Uindex_shard.Shard_map
module Splitter = Uindex_shard.Splitter
module Router = Uindex_shard.Router

let workers = 2

type shard = {
  db : Db.t;
  weight : Index.t;
  path : Index.t;
  svc : Service.t;
  sock : string;
  files : string list;
}

type t = {
  data : Data.t;
  svc : Service.t;  (* unsharded, in-process *)
  front : string;  (* the socket clients connect to *)
  shards : shard array;  (* empty when not routed *)
  router : Router.t option;
  mutable servers : Server.t list;
}

let sock name = Filename.concat Data.work_dir (name ^ ".sock")

let config path =
  {
    (Server.default_config (Server.Unix_sock path)) with
    workers;
    backlog = 64;
    request_timeout = 30.;
  }

(* --- span recording in the server domains ------------------------------ *)

(* trace id -> (request, span a backend's span should hang under) *)
let ctx : (int, int * int) Hashtbl.t = Hashtbl.create 64
let ctx_lock = Mutex.create ()

let with_ctx f =
  Mutex.lock ctx_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx_lock) f

let register_trace ~trace_id ~req =
  with_ctx (fun () -> Hashtbl.replace ctx trace_id (req, trace_id))

let traced (r : Spans.recorder) ~layer ~name ~fanout (h : Server.handler) =
  let serve ~queued_ns ~deadline line =
    match Protocol.parse_line line with
    | Ok (Some id, _) ->
        let req, parent =
          with_ctx (fun () ->
              Option.value ~default:(-1, id) (Hashtbl.find_opt ctx id))
        in
        Spans.with_span r ~parent ~req ~layer name (fun sid ->
            if fanout then with_ctx (fun () -> Hashtbl.replace ctx id (req, sid));
            h.serve ~queued_ns ~deadline line)
    | _ -> h.serve ~queued_ns ~deadline line
  in
  { h with Server.serve }

(* --- lifecycle ----------------------------------------------------------- *)

let start_servers ?recorder t =
  let wrap ~layer ~name ~fanout h =
    match recorder with
    | Some r -> traced r ~layer ~name ~fanout h
    | None -> h
  in
  let shard_servers =
    Array.to_list
      (Array.map
         (fun (s : shard) ->
           Server.start_handler
             (wrap ~layer:"server" ~name:"shard.serve_line" ~fanout:false
                (Server.handler_of_service s.svc))
             (config s.sock))
         t.shards)
  in
  let front =
    match t.router with
    | Some r ->
        Server.start_handler
          (wrap ~layer:"shard" ~name:"router.serve_line" ~fanout:true
             (Router.handler r))
          (config t.front)
    | None ->
        Server.start_handler
          (wrap ~layer:"server" ~name:"server.serve_line" ~fanout:false
             (Server.handler_of_service t.svc))
          (config t.front)
  in
  t.servers <- front :: shard_servers

let stop_servers t =
  List.iter Server.stop t.servers;
  t.servers <- []

let restart ?recorder t =
  stop_servers t;
  start_servers ?recorder t

let single (data : Data.t) =
  let t =
    {
      data;
      svc = Service.create ~schema:(Data.schema data) data.db;
      front = sock "front";
      shards = [||];
      router = None;
      servers = [];
    }
  in
  start_servers t;
  t

let routed ~tag (data : Data.t) =
  let b = data.ext.b in
  let bounds = Splitter.choose_boundaries ~source:data.weight ~shards:2 in
  let rec ranges lo = function
    | [] -> [ { Smap.lo; hi = None; file = None; endpoint = None } ]
    | hi :: rest ->
        { Smap.lo; hi = Some hi; file = None; endpoint = None } :: ranges hi rest
  in
  let map = Smap.make (ranges "" bounds) in
  let shard i =
    let file kind = Data.fresh_file (Printf.sprintf "%s-shard%d-%s.pages" tag i kind) in
    let wf = file "weight" and pf = file "path" in
    let pager f = Storage.Pager.create_file ~page_size:Data.page_size f in
    let weight = Splitter.restrict ~source:data.weight map i (pager wf) in
    let path = Splitter.restrict ~source:data.path map i (pager pf) in
    let db = Db.create data.store in
    Db.attach_index db weight;
    Db.attach_index db path;
    Db.sync db;
    let svc = Service.create ~schema:b.schema db in
    { db; weight; path; svc; sock = sock (Printf.sprintf "shard%d" i); files = [ wf; pf ] }
  in
  let shards = Array.init (Smap.count map) shard in
  let router =
    Router.create ~schema:b.schema ~enc:b.enc ~map
      ~backends:(Array.map (fun s -> Router.Remote s.sock) shards)
      ()
  in
  let t =
    {
      data;
      svc = Service.create ~schema:b.schema data.db;
      front = sock "router";
      shards;
      router = Some router;
      servers = [];
    }
  in
  start_servers t;
  t

(* Indexes that answer the served queries: the shards' when routed. *)
let served_indexes t =
  if Array.length t.shards = 0 then [ t.data.weight; t.data.path ]
  else List.concat_map (fun (s : shard) -> [ s.weight; s.path ]) (Array.to_list t.shards)

let close t =
  stop_servers t;
  Array.iter
    (fun (s : shard) ->
      List.iter
        (fun idx -> Storage.Pager.close (Data.pager idx))
        [ s.weight; s.path ];
      List.iter Data.remove_file s.files)
    t.shards;
  Data.close t.data

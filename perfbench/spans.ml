(* In-memory span recording for the traced run.

   A span is one timed call at a layer boundary: name, layer, start, end,
   the span that caused it and the request it belongs to.  Spans are kept
   in memory (one mutex-protected list, shared by the client threads and
   the server domains) and written out when the run ends.

   A layer's self time is the span's duration minus the part of its
   interval covered by its children.  Children may overlap — the router's
   fan-out calls its shards concurrently — so the covered part is the
   length of the union of the child intervals, clipped to the parent. *)

type span = {
  id : int;
  parent : int;  (* [-1] for a root *)
  req : int;
  name : string;
  layer : string;
  start : float;
  stop : float;
}

type recorder = {
  lock : Mutex.t;
  mutable spans : span list;
  ids : int Atomic.t;
}

let create () = { lock = Mutex.create (); spans = []; ids = Atomic.make 0 }
let fresh_id r = Atomic.fetch_and_add r.ids 1

let add r sp =
  Mutex.lock r.lock;
  r.spans <- sp :: r.spans;
  Mutex.unlock r.lock

let spans r =
  Mutex.lock r.lock;
  let l = r.spans in
  Mutex.unlock r.lock;
  List.rev l

(* Runs [f id] as span [id]: children of this span pass [id] as their
   parent.  The span is recorded even when [f] raises. *)
let with_span r ?(parent = -1) ~req ~layer name f =
  let id = fresh_id r in
  let start = Unix.gettimeofday () in
  let finish () =
    add r { id; parent; req; name; layer; start; stop = Unix.gettimeofday () }
  in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Total self time per layer, in seconds, sorted by layer name. *)
let self_by_layer spans =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.layer
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.layer)))
    (self_times spans);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"req":%d,"name":%S,"layer":%S,"start":%.6f,"end":%.6f}|}
    s.id s.parent s.req s.name s.layer s.start s.stop

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter (fun s -> output_string oc (to_json_line s ^ "\n")) spans

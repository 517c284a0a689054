(* The benchmark database, generated from the seed.

   Experiment 2's scale — 150,000 vehicles — over the extended Fig. 1
   Vehicle hierarchy (twelve classes), plus companies and employees for
   the path.  Pages are 1024 bytes, as in the paper.  Two file-backed,
   bulk-built, synced indexes live under one [Db]:

   - a class-hierarchy index on [Vehicle.weight], 20,000 distinct even
     weights (odd weights are left free for the mixed workload's
     inserts, so its writes never change a reader's answer);
   - a path index on [Vehicle.manufactured_by.president.age]. *)

module Store = Objstore.Store
module Value = Objstore.Value
module Index = Uindex.Index
module Db = Uindex.Db
module Ps = Workload.Paper_schema
module Rng = Workload.Rng

let n_vehicles = 150_000

(* Experiment 1's ratios (600 companies and 200 employees per 12,000
   vehicles), scaled to 150,000 vehicles *)
let n_companies = 7_500
let n_employees = 2_500
let page_size = 1024
let distinct_weights = 20_000
let weight_base = 1_000
let weight_of k = weight_base + (2 * k)
let min_weight = weight_of 0
let max_weight = weight_of (distinct_weights - 1)
let min_age = 20
let max_age = 70
let work_dir = ".perfbench_work"

type vehicle = { oid : Value.oid; weight : int }

type t = {
  ext : Ps.extended;
  store : Store.t;
  db : Db.t;
  weight : Index.t;
  path : Index.t;
  files : string list;
  vehicles : vehicle array;
  companies : Value.oid array;
}

let schema t = t.ext.b.schema

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

let remove_file f =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ f; f ^ ".journal" ]

let fresh_file name =
  ensure_work_dir ();
  let f = Filename.concat work_dir name in
  remove_file f;
  f

let generate_store ext ~seed =
  let b = ext.Ps.b in
  let rng = Rng.create seed in
  let store = Store.create b.schema in
  let employees =
    Array.init n_employees (fun i ->
        Store.insert store ~cls:b.employee
          [
            ("name", Value.Str (Printf.sprintf "Emp%05d" i));
            ("age", Value.Int (min_age + Rng.int rng (max_age - min_age + 1)));
          ])
  in
  let company_classes =
    [| b.auto_company; b.truck_company; b.japanese_auto_company |]
  in
  let companies =
    Array.init n_companies (fun i ->
        Store.insert store
          ~cls:(Rng.pick rng company_classes)
          [
            ("name", Value.Str (Printf.sprintf "Co%05d" i));
            ("president", Value.Ref (Rng.pick rng employees));
          ])
  in
  let classes = Ps.vehicle_leaf_classes ext in
  let vehicles =
    Array.init n_vehicles (fun i ->
        let cls = Rng.pick rng classes in
        let weight = weight_of (Rng.int rng distinct_weights) in
        let oid =
          Store.insert store ~cls
            [
              ("name", Value.Str (Printf.sprintf "V%06d" i));
              ("color", Value.Str (Rng.pick rng Ps.colors));
              ("weight", Value.Int weight);
              ("manufactured_by", Value.Ref (Rng.pick rng companies));
            ]
        in
        { oid; weight })
  in
  (store, vehicles, companies)

(* [tag] keeps the page files of repeated set-ups apart. *)
let build ~seed ~tag =
  let ext = Ps.extended () in
  let b = ext.b in
  let store, vehicles, companies = generate_store ext ~seed in
  let wfile = fresh_file (Printf.sprintf "%s-weight.pages" tag) in
  let pfile = fresh_file (Printf.sprintf "%s-path.pages" tag) in
  let weight =
    Index.create_class_hierarchy
      (Storage.Pager.create_file ~page_size wfile)
      b.enc ~root:b.vehicle ~attr:"weight"
  in
  let path =
    Index.create_path
      (Storage.Pager.create_file ~page_size pfile)
      b.enc ~head:b.vehicle
      ~refs:[ "manufactured_by"; "president" ]
      ~attr:"age"
  in
  let db = Db.create store in
  Db.add_index db weight;
  Db.add_index db path;
  Db.sync db;
  { ext; store; db; weight; path; files = [ wfile; pfile ]; vehicles; companies }

let pager idx = Btree.pager (Index.tree idx)
let pages idx = Storage.Pager.page_count (pager idx)

(* Attaches a buffer pool holding [share] of each index's pages (the
   writer's page source; snapshot sessions read around it). *)
let set_pools t ~share =
  List.iter
    (fun idx ->
      Index.set_cache_pages idx
        (max 1 (int_of_float (Float.ceil (share *. float_of_int (pages idx))))))
    [ t.weight; t.path ]

let pool_pages t =
  List.fold_left
    (fun acc idx ->
      acc
      + match Index.pool idx with
        | Some p -> Storage.Buffer_pool.capacity p
        | None -> 0)
    0 [ t.weight; t.path ]

let close t =
  List.iter
    (fun idx -> Storage.Pager.close (pager idx))
    [ t.weight; t.path ];
  List.iter remove_file t.files

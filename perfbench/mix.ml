(* Request lines, generated from the seed, and a brute-force oracle.

   Every line keeps the structured query it was printed from, so its row
   count can be recomputed by filtering the object store's extents
   without going near an index. *)

module Schema = Oodb_schema.Schema
module Store = Objstore.Store
module Value = Objstore.Value
module Rng = Workload.Rng

type pat = Sub of string | Exact of string

type spec =
  | Weight of { lo : int; hi : int; pats : pat list; oid : int option }
  | Age of { lo : int; hi : int; pats : pat list }
      (** ages of the presidents of the vehicles' makers *)

type line = { text : string; spec : spec }

let pat_text = function Sub c -> c ^ "*" | Exact c -> c

let pats_text = function
  | [ p ] -> pat_text p
  | ps -> "[" ^ String.concat " | " (List.map pat_text ps) ^ "]"

let value_text lo hi =
  if lo = hi then string_of_int lo else Printf.sprintf "[%d-%d]" lo hi

let to_text = function
  | Weight { lo; hi; pats; oid } ->
      let slot = match oid with Some o -> Printf.sprintf " @%d" o | None -> "" in
      Printf.sprintf "query (%s, %s%s)" (value_text lo hi) (pats_text pats) slot
  | Age { lo; hi; pats } ->
      Printf.sprintf "query (%s, Employee*, Company*, %s)" (value_text lo hi)
        (pats_text pats)

let make spec = { text = to_text spec; spec }

let leaves =
  [|
    "CompactAutomobile"; "ForeignAuto"; "ServiceAuto"; "HeavyTruck";
    "LightTruck"; "MilitaryBus"; "TouristBus"; "PassengerBus";
  |]

let subtrees = [| "Vehicle"; "Automobile"; "Truck"; "Bus" |]
let even_weight rng = Data.weight_of (Rng.int rng Data.distinct_weights)

(* Exact-match weight lookups over a subtree, the whole hierarchy, a
   leaf class, and fully bound probes of one existing vehicle: 0 to 10
   rows each. *)
let lookup_lines (d : Data.t) ~seed ~n =
  let rng = Rng.create (seed lxor 0x10c4) in
  Array.init n (fun i ->
      let w = even_weight rng in
      make
        (match i mod 4 with
        | 0 -> Weight { lo = w; hi = w; pats = [ Sub "Bus" ]; oid = None }
        | 1 -> Weight { lo = w; hi = w; pats = [ Sub "Vehicle" ]; oid = None }
        | 2 ->
            Weight
              { lo = w; hi = w; pats = [ Exact (Rng.pick rng leaves) ]; oid = None }
        | _ ->
            let v = Rng.pick rng d.vehicles in
            Weight { lo = v.weight; hi = v.weight; pats = [ Sub "Vehicle" ]; oid = Some v.oid }))

(* Weight ranges covering 0.5-2% of the key space over subtrees and an
   alternation, and path queries over one president age: hundreds to
   thousands of rows each. *)
let scan_lines (_ : Data.t) ~seed ~n =
  let rng = Rng.create (seed lxor 0x5ca9) in
  let span = Data.max_weight - Data.min_weight in
  Array.init n (fun i ->
      match i mod 4 with
      | 3 ->
          let age = Data.min_age + Rng.int rng (Data.max_age - Data.min_age + 1) in
          make
            (Age
               { lo = age; hi = age; pats = [ Sub (Rng.pick rng [| "Bus"; "Truck" |]) ] })
      | k ->
          let frac = 0.005 +. (0.015 *. float_of_int (Rng.int rng 1001) /. 1000.) in
          let width = int_of_float (frac *. float_of_int span) in
          let lo = Data.min_weight + Rng.int rng (span - width) in
          let pats =
            match k with
            | 0 -> [ Sub (Rng.pick rng subtrees) ]
            | 1 -> [ Sub "Bus"; Exact "Truck" ]
            | _ -> [ Sub (Rng.pick rng [| "Automobile"; "Truck" |]) ]
          in
          make (Weight { lo; hi = lo + width; pats; oid = None }))

(* --- brute force -------------------------------------------------------- *)

let pat_matches schema cls = function
  | Sub c -> Schema.is_subclass schema ~sub:cls ~super:(Schema.find_exn schema c)
  | Exact c -> cls = Schema.find_exn schema c

let int_attr store oid a =
  match Store.attr store oid a with Value.Int i -> Some i | _ -> None

let follow1 store oid a =
  match Store.follow store oid a with [ o ] -> Some o | _ -> None

(* Rows the query must return, counted straight from the store's
   vehicle extent. *)
let brute_count (d : Data.t) ~vehicles spec =
  let schema = Data.schema d in
  let store = d.store in
  let in_pats pats oid =
    List.exists (pat_matches schema (Store.class_of store oid)) pats
  in
  List.length
    (List.filter
       (fun v ->
         match spec with
         | Weight { lo; hi; pats; oid } -> (
             in_pats pats v
             && (match oid with Some o -> o = v | None -> true)
             && match int_attr store v "weight" with
                | Some w -> lo <= w && w <= hi
                | None -> false)
         | Age { lo; hi; pats } -> (
             in_pats pats v
             &&
             match Option.bind (follow1 store v "manufactured_by") (fun c ->
                       follow1 store c "president")
             with
             | Some p -> (
                 match int_attr store p "age" with
                 | Some a -> lo <= a && a <= hi
                 | None -> false)
             | None -> false))
       vehicles)

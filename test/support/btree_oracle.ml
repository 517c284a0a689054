(* The decoding reference for [Btree]'s read path: point lookups and
   seek/next scans that decode every node they touch with [Node.decode]
   and binary-search the decoded keys.  It exists to check the
   production compare-in-place descent (answers, page reads, descents,
   node visits) and to time it; nothing outside the tests and the
   benchmark links it.

   Reads go through the [read] function the oracle was created with, so
   a pager's statistics see exactly the pages the oracle fetches; the
   oracle also counts its own page reads, descents and node visits.  Its
   scanner memoizes decoded internal nodes and never leaves, mirroring
   the production scanner's raw internal-page memo, and answers a seek
   that lands inside the cursor's leaf from that leaf, mirroring the
   production in-leaf step, so the two issue the same page reads for the
   same seek/next stream. *)

module Node = Btree.Node
module Bu = Storage.Bytes_util

type t = {
  tree : Btree.t;
  src : int -> Bytes.t;
  mutable page_reads : int;
  mutable descents : int;
  mutable node_visits : int;
}

let create tree ~read =
  { tree; src = read; page_reads = 0; descents = 0; node_visits = 0 }

let read t id =
  t.page_reads <- t.page_reads + 1;
  t.src id

(* The overflow chain layout, restated: each chunk page holds the next
   chunk id (u32, 0xFFFFFFFF ends the chain), the chunk length (u16)
   and the chunk bytes. *)
let value t = function
  | Node.Inline s -> s
  | Node.Overflow { head; length } ->
      let buf = Buffer.create length in
      let rec go id =
        if id <> 0xFFFFFFFF then begin
          let b = read t id in
          Buffer.add_subbytes buf b 6 (Bu.get_u16 b 4);
          go (Bu.get_u32 b 0)
        end
      in
      go head;
      Buffer.contents buf

(* first index whose key is [> key] ([~strict:true]) or [>= key] *)
let bound ~strict keys key =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare keys.(mid) key in
    if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Root to the leaf covering [key], with the number of its siblings to
   its right under its parent; an equal separator sends the descent
   right.  With [memo], decoded internal nodes are looked up and kept
   there. *)
let leaf ?memo t key =
  t.descents <- t.descents + 1;
  let node id =
    match Option.bind memo (fun m -> Hashtbl.find_opt m id) with
    | Some n -> n
    | None ->
        let n = Node.decode (read t id) in
        (match (memo, n) with
        | Some m, Node.Internal _ -> Hashtbl.add m id n
        | _ -> ());
        n
  in
  let rec go id right =
    t.node_visits <- t.node_visits + 1;
    match node id with
    | Node.Leaf l -> (l, right)
    | Node.Internal n ->
        let i = bound ~strict:true n.ikeys key in
        go n.children.(i) (Array.length n.ikeys - i)
  in
  go (Btree.root t.tree) 0

let lookup t key =
  let l, _ = leaf t key in
  let i = bound ~strict:false l.lkeys key in
  if i < Array.length l.lkeys && l.lkeys.(i) = key then Some l.lvals.(i)
  else None

let find t key = Option.map (value t) (lookup t key)
let mem t key = Option.is_some (lookup t key)

module Scanner = struct
  type oracle = t

  type t = {
    o : oracle;
    memo : (int, Node.t) Hashtbl.t;  (* internal nodes only *)
    mutable leaf : Node.leaf option;
    mutable idx : int;
    mutable walked : int;
        (* [leaf] and the [walked - 1] leaves after it share the internal
           nodes of the last walk from the root *)
  }

  let create o =
    { o; memo = Hashtbl.create 32; leaf = None; idx = 0; walked = 0 }

  (* skip past the end of a leaf, and over empty leaves, along the chain *)
  let rec normalize s =
    match s.leaf with
    | Some l when s.idx >= Array.length l.lkeys ->
        if l.next < 0 then s.leaf <- None
        else begin
          (match Node.decode (read s.o l.next) with
          | Node.Leaf l' -> s.leaf <- Some l'
          | Node.Internal _ -> failwith "Btree_oracle: leaf chain hit internal node");
          s.idx <- 0;
          s.walked <- max 0 (s.walked - 1);
          normalize s
        end
    | Some _ | None -> ()

  let peek s =
    match s.leaf with
    | Some l when s.idx < Array.length l.lkeys ->
        let v = l.lvals.(s.idx) in
        Some { Btree.key = l.lkeys.(s.idx); value = (fun () -> value s.o v) }
    | Some _ | None -> None

  (* A target above the cursor key and at most the last key of a leaf
     under the internal nodes of the last walk is found inside that leaf:
     no descent, no node visit, no read.  Any other target walks from
     the root. *)
  let seek s key =
    (match s.leaf with
    | Some l
      when s.walked > 0
           && String.compare l.lkeys.(s.idx) key < 0
           && String.compare key l.lkeys.(Array.length l.lkeys - 1) <= 0 ->
        s.idx <- bound ~strict:false l.lkeys key
    | Some _ | None ->
        let l, right = leaf ~memo:s.memo s.o key in
        s.leaf <- Some l;
        s.idx <- bound ~strict:false l.lkeys key;
        s.walked <- right + 1;
        normalize s);
    peek s

  let next s =
    s.idx <- s.idx + 1;
    normalize s;
    peek s
end

(* The compare-in-place descent (DESIGN.md §13) against the decoding
   reference in [Btree_oracle]:

   - node-level property tests proving [Node.leaf_search] and
     [Node.child_in_place] agree with plain binary-search semantics over
     the decoded node, across adversarial key shapes (dup-heavy shared
     prefixes, prefix-of-each-other chains, long keys, front coding on
     and off);
   - a tree-level differential test proving [Btree] and the oracle
     return byte-identical answers AND issue identical page reads,
     descents and node visits, on raw, pooled and non-front-coded trees;
   - an allocation assertion: a warm-pool point lookup allocates
     (almost) nothing on the minor heap;
   - scanner-reuse and memo-bound regressions. *)

let mk ?(page_size = 256) ?max_entries ?(front_coding = true) ?pool () =
  let pager =
    match pool with
    | Some p -> Storage.Buffer_pool.pager p
    | None -> Storage.Pager.create ~page_size ()
  in
  let config =
    { (Btree.default_config ~page_size) with max_entries; front_coding }
  in
  Btree.create ~config ?pool pager

(* --- node-level: in-place search vs decoded reference --------------------- *)

(* independent re-statement of the search semantics, over decoded keys *)
let ref_lower_bound (keys : string array) probe =
  let n = Array.length keys in
  let i = ref 0 in
  while !i < n && String.compare keys.(!i) probe < 0 do
    incr i
  done;
  (!i, !i < n && keys.(!i) = probe)

(* child [i] holds keys [k] with [ikeys.(i-1) <= k < ikeys.(i)]: an equal
   separator sends the descent right *)
let ref_child (n : Btree.Node.internal) probe =
  let m = Array.length n.ikeys in
  let i = ref 0 in
  while !i < m && String.compare n.ikeys.(!i) probe <= 0 do
    incr i
  done;
  n.children.(!i)

(* adversarial key shapes: tiny alphabet (heavy shared prefixes), runs
   padded to hundreds of bytes (long keys, large suffix_len), and mixed
   printable tails *)
let key_gen =
  let open QCheck.Gen in
  let small_char = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 2) in
  frequency
    [
      (5, string_size ~gen:small_char (int_range 1 8));
      ( 2,
        map2
          (fun a b -> a ^ b)
          (string_size ~gen:small_char (int_range 1 5))
          (string_size ~gen:printable (int_range 0 6)) );
      ( 1,
        map2
          (fun s n -> s ^ String.make n 'q')
          (string_size ~gen:small_char (int_range 1 4))
          (int_range 1 300) );
    ]

(* sorted unique keys, with the first key's whole prefix chain mixed in so
   front coding produces maximal-prefix entries *)
let keys_gen =
  let open QCheck.Gen in
  map
    (fun ks ->
      let ks = match ks with [] -> [ "k" ] | ks -> ks in
      let chain =
        match ks with
        | k :: _ -> List.init (String.length k) (fun i -> String.sub k 0 (i + 1))
        | [] -> []
      in
      Array.of_list (List.sort_uniq compare (chain @ ks)))
    (list_size (int_range 1 40) key_gen)

(* probes that land on, just before, just after, and inside every key *)
let probes_of keys =
  let mutate_last k delta =
    let n = String.length k in
    if n = 0 then k
    else
      String.mapi
        (fun i c -> if i = n - 1 then Char.chr ((Char.code c + delta) land 0xFF) else c)
        k
  in
  let per k =
    [
      k;
      k ^ "\x00";
      k ^ "zz";
      (if String.length k > 1 then String.sub k 0 (String.length k - 1) else "");
      mutate_last k 1;
      mutate_last k (-1);
    ]
  in
  "" :: String.make 310 'z' :: List.concat_map per (Array.to_list keys)

let leaf_of keys =
  let vals =
    Array.mapi
      (fun i k ->
        if i mod 7 = 3 then
          Btree.Node.Overflow { head = i + 2; length = 100_000 + i }
        else Btree.Node.Inline (Printf.sprintf "v%d:%s" i k))
      keys
  in
  Btree.Node.Leaf { lkeys = keys; lvals = vals; next = 42 }

let prop_leaf_search_matches_decode =
  QCheck.Test.make ~count:1000 ~name:"leaf_search = lower bound over decode"
    QCheck.(make (Gen.pair keys_gen Gen.bool))
    (fun (keys, front_coding) ->
      let node = leaf_of keys in
      let page_size = max 64 (Btree.Node.size ~front_coding node) in
      let b = Btree.Node.encode ~front_coding ~page_size node in
      let lvals =
        match node with Btree.Node.Leaf l -> l.lvals | _ -> assert false
      in
      List.for_all
        (fun probe ->
          let r = Btree.Node.leaf_search b probe in
          let i = Btree.Node.search_index r
          and exact = Btree.Node.search_exact r in
          let want_i, want_exact = ref_lower_bound keys probe in
          if i <> want_i || exact <> want_exact then
            QCheck.Test.fail_reportf
              "probe %S over %d keys (fc=%b): got (%d,%b), want (%d,%b)" probe
              (Array.length keys) front_coding i exact want_i want_exact;
          (* resumed at the answer, after the entry below it, the search
             stops there again *)
          (if i > 0 then
             let prev = keys.(i - 1) in
             let lim = min (String.length prev) (String.length probe) in
             let ml = ref 0 in
             while !ml < lim && prev.[!ml] = probe.[!ml] do
               incr ml
             done;
             let r' =
               Btree.Node.leaf_search_from b probe
                 ~off:(Btree.Node.search_off r) ~index:i ~matched:!ml
             in
             if r' <> r then
               QCheck.Test.fail_reportf "probe %S resumed at entry %d diverged"
                 probe i);
          (* the packed offset must point at the entry's payload *)
          (if exact then
             let v =
               Btree.Node.leaf_value b
                 (Btree.Node.leaf_payload_off b (Btree.Node.search_off r))
             in
             if v <> lvals.(i) then
               QCheck.Test.fail_reportf "probe %S: payload at offset diverged"
                 probe);
          true)
        (probes_of keys))

let prop_child_matches_decode =
  QCheck.Test.make ~count:1000 ~name:"child_in_place = child index over decode"
    QCheck.(make (Gen.pair keys_gen Gen.bool))
    (fun (keys, front_coding) ->
      let children = Array.init (Array.length keys + 1) (fun i -> 100 + i) in
      let node = Btree.Node.Internal { ikeys = keys; children } in
      let page_size = max 64 (Btree.Node.size ~front_coding node) in
      let b = Btree.Node.encode ~front_coding ~page_size node in
      let dec =
        match Btree.Node.decode b with
        | Btree.Node.Internal n -> n
        | Btree.Node.Leaf _ -> assert false
      in
      List.for_all
        (fun probe ->
          let got = Btree.Node.child_in_place b probe in
          let want = ref_child dec probe in
          if got <> want then
            QCheck.Test.fail_reportf
              "probe %S over %d separators (fc=%b): child %d, want %d" probe
              (Array.length keys) front_coding got want;
          let slot = Btree.Node.child_slot (Btree.Node.child_search b probe) in
          if children.(slot) <> want then
            QCheck.Test.fail_reportf "probe %S: slot %d holds %d, want %d"
              probe slot children.(slot) want;
          true)
        (probes_of keys))

(* --- tree-level differential: answers and page reads ---------------------- *)

(* keys with shared prefixes, a few hundred entries over many small pages,
   a few overflow values; returns the tree and the inserted data *)
let build_tree ?front_coding ?pool () =
  let t = mk ~page_size:256 ~max_entries:4 ?front_coding ?pool () in
  let data = Hashtbl.create 400 in
  for i = 0 to 399 do
    let key = Printf.sprintf "grp%d/item%04d" (i mod 5) i in
    let value =
      if i mod 97 = 0 then String.make 3000 (Char.chr (65 + (i mod 26)))
      else Printf.sprintf "value-%d" i
    in
    Btree.insert t ~key ~value;
    Hashtbl.replace data key value
  done;
  (t, data)

(* a pool holding the whole tree, warmed so every read is a borrowed
   pool hit *)
let pooled_tree () =
  let pool =
    Storage.Buffer_pool.create ~capacity:4096
      (Storage.Pager.create ~page_size:256 ())
  in
  let t, data = build_tree ~pool () in
  Hashtbl.iter (fun k _ -> ignore (Btree.find t k)) data;
  Btree.iter t ignore;
  (t, data)

let scenarios () =
  [
    ("raw", build_tree ());
    ("no front coding", build_tree ~front_coding:false ());
    ("pooled", pooled_tree ());
  ]

let tree_probes =
  List.init 450 (fun i -> Printf.sprintf "grp%d/item%04d" (i mod 7) i)

(* One implementation of the read path under test. *)
type impl = {
  find : string -> string option;
  mem : string -> bool;
  seek : string -> Btree.entry option;
  next : unit -> Btree.entry option;
}

let btree_impl t =
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  {
    find = Btree.find t;
    mem = Btree.mem t;
    seek = Btree.Scanner.seek sc;
    next = (fun () -> Btree.Scanner.next sc);
  }

let oracle_impl o =
  let sc = Btree_oracle.Scanner.create o in
  {
    find = Btree_oracle.find o;
    mem = Btree_oracle.mem o;
    seek = Btree_oracle.Scanner.seek sc;
    next = (fun () -> Btree_oracle.Scanner.next sc);
  }

(* The keys of every leaf, in leaf-chain order, read by decoding. *)
let leaf_keys t =
  let read = Btree.raw_read t in
  let rec leftmost id =
    match Btree.Node.decode (read id) with
    | Btree.Node.Internal n -> leftmost n.children.(0)
    | Btree.Node.Leaf l -> l
  in
  let rec chain (l : Btree.Node.leaf) acc =
    let acc = l.lkeys :: acc in
    if l.next < 0 then List.rev acc
    else
      match Btree.Node.decode (read l.next) with
      | Btree.Node.Leaf l' -> chain l' acc
      | Btree.Node.Internal _ -> failwith "leaf chain hit internal node"
  in
  chain (leftmost (Btree.root t)) []

(* the probe stream: exact finds and mems, skip-seek bursts, forward
   skip-seeks around the cursor's leaf ([leaves] from [leaf_keys]), then
   one full forward sweep through the leaf chain *)
let run_stream leaves impl =
  let finds = List.map impl.find tree_probes in
  let mems = List.map impl.mem tree_probes in
  let scanned = ref [] in
  let note = function
    | None -> ()
    | Some (e : Btree.entry) -> scanned := (e.key, e.value ()) :: !scanned
  in
  List.iteri
    (fun i k ->
      if i mod 3 = 0 then begin
        note (impl.seek k);
        for _ = 1 to 6 do
          note (impl.next ())
        done
      end)
    tree_probes;
  (* per leaf, from its first entry: the cursor key itself, ahead inside
     the leaf, exactly its last key, the cursor key again (now the last),
     behind the cursor, and one byte past the last key (into the next
     leaf); then ahead inside the next leaf after entering it along the
     chain *)
  let leaves = Array.of_list leaves in
  Array.iteri
    (fun i keys ->
      let m = Array.length keys in
      if i mod 2 = 0 && m >= 2 && i + 1 < Array.length leaves then begin
        let last = keys.(m - 1) in
        note (impl.seek keys.(0));
        note (impl.seek keys.(0));
        note (impl.seek (keys.(0) ^ "\000"));
        note (impl.seek last);
        note (impl.seek last);
        note (impl.seek keys.(0));
        note (impl.seek (last ^ "\000"));
        note (impl.next ());
        note (impl.seek last);
        note (impl.next ());
        note (impl.seek (leaves.(i + 1).(0) ^ "\000"))
      end)
    leaves;
  note (impl.seek "");
  let continue = ref true in
  while !continue do
    match impl.next () with
    | Some e -> scanned := (e.key, e.value ()) :: !scanned
    | None -> continue := false
  done;
  (finds, mems, List.rev !scanned)

let metric name =
  Option.value ~default:0 (Obs.Metrics.find Obs.Metrics.default name)

(* Run [f] and return its result with the pager reads, pool hits,
   descents and node visits it caused. *)
let measure t f =
  let stats = Storage.Pager.stats (Btree.pager t) in
  let r0 = stats.reads and h0 = stats.pool_hits in
  let d0 = metric "btree.descents" and v0 = metric "btree.node_visits" in
  let x = f () in
  ( x,
    stats.reads - r0,
    stats.pool_hits - h0,
    metric "btree.descents" - d0,
    metric "btree.node_visits" - v0 )

let test_differential () =
  List.iter
    (fun (name, (t, data)) ->
      let leaves = leaf_keys t in
      let (b_finds, b_mems, b_scanned), b_reads, b_hits, _, _ =
        measure t (fun () -> run_stream leaves (btree_impl t))
      in
      let o = Btree_oracle.create t ~read:(Btree.raw_read t) in
      let (o_finds, o_mems, o_scanned), o_reads, o_hits, _, _ =
        measure t (fun () -> run_stream leaves (oracle_impl o))
      in
      let msg s = name ^ ": " ^ s in
      let open Alcotest in
      check (list (option string)) (msg "finds = inserted data")
        (List.map (Hashtbl.find_opt data) tree_probes)
        b_finds;
      check (list (option string)) (msg "find answers") o_finds b_finds;
      check (list bool) (msg "mem answers") o_mems b_mems;
      check (list (pair string string)) (msg "scanned entries") o_scanned
        b_scanned;
      check int (msg "pager reads identical") o_reads b_reads;
      check int (msg "pool hits identical") o_hits b_hits;
      check int (msg "oracle counts its own reads") (o_reads + o_hits)
        o.page_reads;
      (* the pooled tree is fully warm: every read takes the borrowed path *)
      if name = "pooled" then begin
        check int (msg "no pager reads when warm") 0 b_reads;
        if b_hits = 0 then fail "pooled run hit no pool page"
      end
      else if b_reads = 0 then failf "%s run issued no reads" name)
    (scenarios ())

(* descents and node visits must also agree: the production path reports
   the paper's metrics exactly as the oracle counts them *)
let test_differential_metrics () =
  List.iter
    (fun (name, (t, _)) ->
      let leaves = leaf_keys t in
      let seeks = ref 0 in
      let counting impl =
        {
          impl with
          seek =
            (fun k ->
              incr seeks;
              impl.seek k);
        }
      in
      let _, _, _, descents, visits =
        measure t (fun () -> run_stream leaves (counting (btree_impl t)))
      in
      let o = Btree_oracle.create t ~read:(Btree.raw_read t) in
      ignore (run_stream leaves (oracle_impl o));
      Alcotest.(check int) (name ^ ": descents") o.descents descents;
      Alcotest.(check int) (name ^ ": node visits") o.node_visits visits;
      (* every find and mem descends; a seek descends unless it stays in
         the cursor's leaf, and the stream has such seeks *)
      let lookups = 2 * List.length tree_probes in
      if descents - lookups >= !seeks then
        Alcotest.failf "%s: %d seeks all descended" name !seeks)
    (scenarios ())

(* --- allocation: warm-pool point lookups -------------------------------- *)

let test_warm_lookup_alloc () =
  let page_size = 1024 in
  let pager = Storage.Pager.create ~page_size () in
  let pool = Storage.Buffer_pool.create ~capacity:512 pager in
  let config = { (Btree.default_config ~page_size) with max_entries = Some 16 } in
  let t = Btree.create ~config ~pool pager in
  let n = 2000 in
  let keys = Array.init n (fun i -> Printf.sprintf "warm/key%06d" (i * 3)) in
  Array.iter (fun k -> Btree.insert t ~key:k ~value:"v") keys;
  (* everything resident and MRU state settled *)
  Array.iter (fun k -> ignore (Btree.mem t k)) keys;
  let lookups = 1000 in
  let w0 = Gc.minor_words () in
  for i = 0 to lookups - 1 do
    ignore (Btree.mem t (Array.unsafe_get keys (i * 7 mod n)))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int lookups in
  if per > 8. then
    Alcotest.failf "warm point lookup allocates %.1f minor words (want ~0)" per

(* A warm seek that stays in the cursor's leaf builds only the returned
   entry, as [Scanner.next] does: each pair below lands on the same
   entry, by an in-leaf seek or by one [next]. *)
let test_in_leaf_seek_alloc () =
  let page_size = 1024 in
  let pager = Storage.Pager.create ~page_size () in
  let pool = Storage.Buffer_pool.create ~capacity:512 pager in
  let config = { (Btree.default_config ~page_size) with max_entries = Some 16 } in
  let t = Btree.create ~config ~pool pager in
  for i = 0 to 1999 do
    Btree.insert t ~key:(Printf.sprintf "warm/key%06d" (i * 3)) ~value:"v"
  done;
  let pairs =
    List.concat_map
      (fun keys ->
        List.init (Array.length keys - 1) (fun i -> (keys.(i), keys.(i + 1))))
      (leaf_keys t)
    |> Array.of_list
  in
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  let by_seek () =
    Array.iter
      (fun (a, b) ->
        ignore (Btree.Scanner.seek sc a);
        ignore (Btree.Scanner.seek sc b))
      pairs
  and by_next () =
    Array.iter
      (fun (a, _) ->
        ignore (Btree.Scanner.seek sc a);
        ignore (Btree.Scanner.next sc))
      pairs
  in
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let d0 = metric "btree.descents" in
  let seek_words = words by_seek in
  Alcotest.(check int)
    "only the first seek of each pair descends" (2 * Array.length pairs)
    (metric "btree.descents" - d0);
  let next_words = words by_next in
  if seek_words > next_words then
    Alcotest.failf "in-leaf seeks allocate %.0f words, nexts %.0f" seek_words
      next_words

(* --- scanner: memo bound and reuse --------------------------------------- *)

(* The scanner memoizes raw internal pages (so a re-seek reads only its
   leaf) but never leaves: a full iteration over a many-leaf tree keeps
   the memo at O(height) — it once pinned every decoded leaf. *)
let check_memo_bounded ?pool () =
  let t = mk ~page_size:512 ~max_entries:4 ?pool () in
  for i = 0 to 399 do
    Btree.insert t ~key:(Printf.sprintf "%05d" i) ~value:""
  done;
  if Btree.leaf_count t < 50 then
    Alcotest.failf "tree too shallow for the memo test: %d leaves"
      (Btree.leaf_count t);
  let bound = Btree.height t + 2 in
  let sc = Btree.Scanner.create t ~read:(Btree.raw_read t) in
  let worst = ref 0 in
  let cur = ref (Btree.Scanner.seek sc "") in
  let n = ref 0 in
  while !cur <> None do
    worst := max !worst (Btree.Scanner.memo_size sc);
    incr n;
    cur := Btree.Scanner.next sc
  done;
  Alcotest.(check int) "full iteration" 400 !n;
  if !worst = 0 then Alcotest.fail "the seek memoized no internal page";
  if !worst > bound then
    Alcotest.failf "memo grew to %d pages during iteration (height %d)" !worst
      (Btree.height t)

let test_memo_bounded () = check_memo_bounded ()

(* the same bound when every page is a borrowed buffer-pool hit — the
   in-place path a served scan takes *)
let test_fast_memo_bounded () =
  let pool =
    Storage.Buffer_pool.create ~capacity:4096
      (Storage.Pager.create ~page_size:512 ())
  in
  check_memo_bounded ~pool ()

(* reset re-points an existing scanner at another tree (the Exec per-domain
   cursor), and at the same tree after mutation *)
let test_scanner_reset_reuse () =
  let ta = mk ~max_entries:4 () in
  let tb = mk ~max_entries:4 () in
  for i = 0 to 49 do
    Btree.insert ta ~key:(Printf.sprintf "a%03d" i) ~value:"A";
    Btree.insert tb ~key:(Printf.sprintf "b%03d" i) ~value:"B"
  done;
  let sc = Btree.Scanner.create ta ~read:(Btree.raw_read ta) in
  (match Btree.Scanner.seek sc "a" with
  | Some e -> Alcotest.(check string) "tree A" "a000" e.Btree.key
  | None -> Alcotest.fail "expected entry in tree A");
  Btree.Scanner.reset sc tb ~read:(Btree.raw_read tb);
  Alcotest.(check int) "memo cleared" 0 (Btree.Scanner.memo_size sc);
  (match Btree.Scanner.seek sc "" with
  | Some e -> Alcotest.(check string) "tree B" "b000" e.Btree.key
  | None -> Alcotest.fail "expected entry in tree B");
  (* mutation + reset: the cursor must observe the new entry *)
  Btree.insert tb ~key:"b000a" ~value:"new";
  Btree.Scanner.reset sc tb ~read:(Btree.raw_read tb);
  (match Btree.Scanner.seek sc "b000a" with
  | Some e ->
      Alcotest.(check string) "new key" "b000a" e.Btree.key;
      Alcotest.(check string) "new value" "new" (e.Btree.value ())
  | None -> Alcotest.fail "reset scanner missed the new entry")

(* a scanner reset across trees mid-life answers what a fresh oracle
   scanner answers for every burst *)
let test_scanner_reset_differential () =
  let ta = mk ~max_entries:4 () in
  let tb = mk ~max_entries:5 () in
  for i = 0 to 99 do
    Btree.insert ta ~key:(Printf.sprintf "k%04d" (2 * i)) ~value:"a";
    Btree.insert tb ~key:(Printf.sprintf "k%04d" ((2 * i) + 1)) ~value:"b"
  done;
  let sc = Btree.Scanner.create ta ~read:(Btree.raw_read ta) in
  let burst seek next key =
    let out = ref [] in
    let note = function Some e -> out := e.Btree.key :: !out | None -> () in
    note (seek key);
    for _ = 1 to 4 do
      note (next ())
    done;
    List.rev !out
  in
  let run t key =
    Btree.Scanner.reset sc t ~read:(Btree.raw_read t);
    burst (Btree.Scanner.seek sc) (fun () -> Btree.Scanner.next sc) key
  in
  let oracle t key =
    let o =
      Btree_oracle.Scanner.create
        (Btree_oracle.create t ~read:(Btree.raw_read t))
    in
    burst (Btree_oracle.Scanner.seek o) (fun () -> Btree_oracle.Scanner.next o) key
  in
  List.iter
    (fun (t, key) ->
      Alcotest.(check (list string)) ("reset burst at " ^ key) (oracle t key)
        (run t key))
    [ (ta, "k0050"); (tb, "k0050"); (ta, "k0199"); (tb, "zzz") ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_leaf_search_matches_decode; prop_child_matches_decode ]

let () =
  Alcotest.run "descent"
    [
      ("in-place search", qsuite);
      ( "differential",
        [
          Alcotest.test_case "answers and page reads" `Quick test_differential;
          Alcotest.test_case "descent metrics" `Quick test_differential_metrics;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm point lookup" `Quick test_warm_lookup_alloc;
          Alcotest.test_case "in-leaf seek = next" `Quick
            test_in_leaf_seek_alloc;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "memo stays O(height)" `Quick test_memo_bounded;
          Alcotest.test_case "fast memo stays O(height)" `Quick
            test_fast_memo_bounded;
          Alcotest.test_case "reset and reuse" `Quick test_scanner_reset_reuse;
          Alcotest.test_case "reset differential" `Quick
            test_scanner_reset_differential;
        ] );
    ]

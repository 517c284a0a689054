(* Tests of the benchmark's own helpers: the percentile rule, self time
   with overlapping children, and failure accounting. *)

open Perfbench_util

let feq = Alcotest.float 1e-9

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_rule_full () =
  (* 1000 samples: exactly 10 rank above the 99th percentile *)
  match Stats.tail (samples 1000) with
  | Some t ->
      Alcotest.check feq "pct" 99. t.pct;
      Alcotest.check feq "value" 990. t.value;
      Alcotest.(check int) "count" 1000 t.count
  | None -> Alcotest.fail "expected a tail"

let test_rule_falls_back () =
  (* 999 samples leave only 9 above p99, so p95 is the highest supported *)
  (match Stats.tail (samples 999) with
  | Some t -> Alcotest.check feq "pct" 95. t.pct
  | None -> Alcotest.fail "expected a tail");
  (* 100 samples: p90 has exactly 10 beyond it *)
  (match Stats.tail (samples 100) with
  | Some t ->
      Alcotest.check feq "pct" 90. t.pct;
      Alcotest.check feq "value" 90. t.value
  | None -> Alcotest.fail "expected a tail");
  Alcotest.(check bool) "15 samples support nothing" true
    (Stats.tail (samples 15) = None);
  Alcotest.(check string) "label prints the count" "median of 15 (too few for a tail)"
    (Stats.tail_label (samples 15))

let test_rule_caps () =
  (* a large sample supports p99.9, but a p99 request never goes higher *)
  match Stats.tail ~max_pct:99. (samples 100_000) with
  | Some t -> Alcotest.check feq "pct" 99. t.pct
  | None -> Alcotest.fail "expected a tail"

let test_median () =
  Alcotest.check feq "odd" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check feq "even (nearest rank)" 2. (Stats.median [| 4.; 1.; 3.; 2. |])

let sp id parent layer start stop =
  { Spans.id; parent; req = 0; name = layer; layer; start; stop }

let test_self_overlap () =
  (* parent [0,10] with children [1,5] and [3,8] overlapping, plus a
     child [9,12] that runs past the parent's end *)
  let spans =
    [
      sp 0 (-1) "router" 0. 10.;
      sp 1 0 "shard" 1. 5.;
      sp 2 0 "shard" 3. 8.;
      sp 3 0 "late" 9. 12.;
    ]
  in
  let self = Spans.self_times spans in
  let of_id i = List.assoc i (List.map (fun (s, v) -> (s.Spans.id, v)) self) in
  (* covered: [1,8] (7) + [9,10] (1) = 8 *)
  Alcotest.check feq "parent self" 2. (of_id 0);
  Alcotest.check feq "leaf self" 4. (of_id 1);
  let by_layer = Spans.self_by_layer spans in
  Alcotest.check feq "shard layer" 9. (List.assoc "shard" by_layer);
  Alcotest.check feq "router layer" 2. (List.assoc "router" by_layer)

let test_self_nested () =
  let spans = [ sp 0 (-1) "a" 0. 10.; sp 1 0 "b" 2. 6.; sp 2 1 "c" 3. 4. ] in
  let by_layer = Spans.self_by_layer spans in
  Alcotest.check feq "a" 6. (List.assoc "a" by_layer);
  Alcotest.check feq "b" 3. (List.assoc "b" by_layer);
  Alcotest.check feq "c" 1. (List.assoc "c" by_layer)

let test_fail_ratio () =
  let t = Tally.create () in
  for _ = 1 to 10 do Tally.attempt t done;
  List.iter (Tally.record t)
    [ Ok_reply; Ok_reply; Ok_reply; Ok_reply; Ok_reply; Ok_reply; Typed_error;
      Exception ];
  (* two attempts never got any outcome: missing *)
  Alcotest.(check int) "missing" 2 (Tally.missing t);
  Alcotest.(check int) "failed" 4 (Tally.failed t);
  Alcotest.check feq "ratio" 0.4 (Tally.fail_ratio t);
  Alcotest.(check bool) "error envelope is typed" true
    (Tally.classify_unexpected {|{"ok":false,"error":{"kind":"timeout"}}|}
     = Tally.Typed_error);
  Alcotest.(check bool) "other bytes are a mismatch" true
    (Tally.classify_unexpected {|{"ok":true,"count":1}|} = Tally.Mismatch);
  let m = Tally.merge [ t; t ] in
  Alcotest.check feq "merged ratio" 0.4 (Tally.fail_ratio m);
  Alcotest.check feq "nothing attempted" 0. (Tally.fail_ratio (Tally.create ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "p99 with 1000 samples" `Quick test_rule_full;
          Alcotest.test_case "falls back when too few" `Quick test_rule_falls_back;
          Alcotest.test_case "never above the request" `Quick test_rule_caps;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "self time",
        [
          Alcotest.test_case "overlapping children" `Quick test_self_overlap;
          Alcotest.test_case "nested children" `Quick test_self_nested;
        ] );
      ("failures", [ Alcotest.test_case "fail_ratio" `Quick test_fail_ratio ]);
    ]

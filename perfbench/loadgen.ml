(* The one load generator behind every workload: a closed loop.

   Each of [threads] threads opens its own state (a connection, or
   nothing for the in-process writer), then repeatedly runs one step —
   the next request only after the previous reply — until the deadline.
   The loop times every step, records its outcome, and keeps the latency
   and completion time of every step that succeeded.  A step that raises
   counts as a client exception; the thread then reopens its state
   (a fresh connection) and carries on. *)

open Perfbench_util

type 'a client = {
  open_ : int -> 'a;  (** thread index -> state *)
  step : 'a -> int -> int * Tally.outcome;
      (** state, iteration -> (line index, outcome) *)
  close : 'a -> unit;
}

type result = {
  tally : Tally.t;
  at : float array;  (** completion times of successful steps, ascending *)
  lat : float array;  (** their latencies, seconds *)
  line : int array;  (** their line indexes *)
  t0 : float;
  t1 : float;
}

(* A growable sample buffer, one per thread. *)
type buf = {
  mutable n : int;
  mutable b_at : float array;
  mutable b_lat : float array;
  mutable b_line : int array;
}

let push b at lat line =
  if b.n = Array.length b.b_at then begin
    let grow a fill = Array.append a (Array.make (max 1024 b.n) fill) in
    b.b_at <- grow b.b_at 0.;
    b.b_lat <- grow b.b_lat 0.;
    b.b_line <- grow b.b_line 0
  end;
  b.b_at.(b.n) <- at;
  b.b_lat.(b.n) <- lat;
  b.b_line.(b.n) <- line;
  b.n <- b.n + 1

let run ~threads ~seconds client =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let one k tally buf () =
    match client.open_ k with
    | exception _ ->
        Tally.attempt tally;
        Tally.record tally Tally.Exception
    | st ->
        let st = ref st in
        let i = ref 0 in
        (try
           while Unix.gettimeofday () < deadline do
             Tally.attempt tally;
             let s = Unix.gettimeofday () in
             (match client.step !st !i with
             | line, outcome ->
                 let e = Unix.gettimeofday () in
                 Tally.record tally outcome;
                 if outcome = Tally.Ok_reply then push buf e (e -. s) line
             | exception _ ->
                 Tally.record tally Tally.Exception;
                 (try client.close !st with _ -> ());
                 st := client.open_ k);
             incr i
           done
         with _ -> ());
        (try client.close !st with _ -> ())
  in
  let parts =
    List.init threads (fun _ ->
        (Tally.create (), { n = 0; b_at = [||]; b_lat = [||]; b_line = [||] }))
  in
  let ths =
    List.mapi (fun k (tally, buf) -> Thread.create (one k tally buf) ()) parts
  in
  List.iter Thread.join ths;
  let t1 = Unix.gettimeofday () in
  let all =
    List.concat_map
      (fun (_, b) -> List.init b.n (fun j -> (b.b_at.(j), b.b_lat.(j), b.b_line.(j))))
      parts
    |> List.sort compare |> Array.of_list
  in
  {
    tally = Tally.merge (List.map fst parts);
    at = Array.map (fun (a, _, _) -> a) all;
    lat = Array.map (fun (_, l, _) -> l) all;
    line = Array.map (fun (_, _, i) -> i) all;
    t0;
    t1;
  }

(* The run split into [n] equal time windows: for each, the index range
   [(start, count)] of its samples and the window's length in seconds. *)
let windows r n =
  let len = (r.t1 -. r.t0) /. float_of_int n in
  let total = Array.length r.at in
  let pos = ref 0 in
  List.init n (fun w ->
      let hi = if w = n - 1 then infinity else r.t0 +. (len *. float_of_int (w + 1)) in
      let start = !pos in
      while !pos < total && r.at.(!pos) < hi do incr pos done;
      (start, !pos - start, len))

(* Line [i] of [n] for client [k] of [clients]: clients start spread
   evenly over the line list and cycle through it. *)
let line_index ~clients ~n k i = ((k * n / clients) + i) mod n

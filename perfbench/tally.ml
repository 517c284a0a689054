(* Request outcome accounting.

   Every request a client attempts ends in exactly one of: a correct
   reply, a typed error reply ([{"ok":false,...}]), a reply that differs
   from the expected answer, or a client-side exception.  A request that
   was attempted but never reached any of these (its client thread died)
   is missing.  Everything but a correct reply counts as failed. *)

type t = {
  mutable attempted : int;
  mutable ok : int;
  mutable typed_errors : int;
  mutable mismatches : int;
  mutable exceptions : int;
}

let create () =
  { attempted = 0; ok = 0; typed_errors = 0; mismatches = 0; exceptions = 0 }

type outcome = Ok_reply | Typed_error | Mismatch | Exception

let attempt t = t.attempted <- t.attempted + 1

let record t = function
  | Ok_reply -> t.ok <- t.ok + 1
  | Typed_error -> t.typed_errors <- t.typed_errors + 1
  | Mismatch -> t.mismatches <- t.mismatches + 1
  | Exception -> t.exceptions <- t.exceptions + 1

let missing t = t.attempted - t.ok - t.typed_errors - t.mismatches - t.exceptions
let failed t = t.attempted - t.ok

let fail_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int (failed t) /. float_of_int t.attempted

let merge l =
  let m = create () in
  List.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.ok <- m.ok + t.ok;
      m.typed_errors <- m.typed_errors + t.typed_errors;
      m.mismatches <- m.mismatches + t.mismatches;
      m.exceptions <- m.exceptions + t.exceptions)
    l;
  m

(* A reply that is not the expected one is a typed error when it carries
   the protocol's error envelope, and a wrong answer otherwise. *)
let classify_unexpected reply =
  if String.starts_with ~prefix:{|{"ok":false|} reply then Typed_error
  else Mismatch

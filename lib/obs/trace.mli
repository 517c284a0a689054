(** Structured query tracing: cheap span trees with integer fields.

    A span is one phase of a query's execution (plan compilation, key
    expansion, one B+-tree descent segment, the merge) annotated with
    integer fields — page-read deltas taken from [Storage.Stats]
    snapshots, entries scanned, bindings produced.  Spans nest, so a
    whole query renders as a tree: the engine's [EXPLAIN ANALYZE].

    Tracing is off by default: the global sink is {!null}, and
    instrumented code guards span construction behind {!scope}, which
    returns [None] when the sink discards everything.  The disabled cost
    is one global read and an option match per query — unmeasurable next
    to a B-tree descent.  Tests and the CLI install a {!collector} sink
    (usually via {!with_collector}) to capture finished span trees. *)

type span = {
  name : string;
  mutable fields : (string * int) list;  (** insertion order preserved *)
  mutable children : span list;  (** execution order *)
}

val span : ?fields:(string * int) list -> string -> span

val add_field : span -> string -> int -> unit
(** Appends (or replaces, by name) one field. *)

val add_child : span -> span -> unit
(** Appends a child span (kept in execution order). *)

val add_children : span -> span list -> unit
(** Appends children given in execution order, in one pass: the cost is
    the length of both lists, so a parent that batches its children
    builds its span tree in linear time. *)

val field : span -> string -> int option

val total : span -> string -> int
(** Sum of a field over the whole subtree — e.g.
    [total sp "page_reads"] is the query's total page reads when each
    descent segment carries its own delta. *)

(** {1 Sinks} *)

type sink

val null : sink
(** Discards everything; spans are never even allocated. *)

val collector : unit -> sink
val collected : sink -> span list
(** Finished root spans, in emission order; [[]] for {!null}. *)

val enabled : sink -> bool
val emit : sink -> span -> unit

(** {1 The global sink}

    The process-wide sink lives in an atomic slot, and every domain can
    shadow it with a domain-local override: {!with_collector} installs
    its collector only for the calling domain, so worker domains each
    trace into their own span list concurrently.  Collector emission
    itself is lock-free (CAS push), so even a deliberately shared
    collector never loses or corrupts spans. *)

val set_global : sink -> unit
(** Atomically replaces the process-wide sink (seen by every domain
    that has no domain-local override). *)

val global : unit -> sink

val scope : unit -> sink option
(** [Some sink] when the current domain's effective sink collects,
    [None] when tracing is off — the one-branch guard instrumented code
    uses.  The effective sink is the domain-local override when one is
    installed, the global sink otherwise. *)

val with_collector : (unit -> 'a) -> 'a * span list
(** Runs the thunk with a fresh collector installed as the calling
    domain's sink (restoring the previous override afterwards) and
    returns the spans it emitted.  Other domains are unaffected, so
    concurrent [with_collector] calls on different domains each see
    exactly their own spans. *)

(** {1 Rendering} *)

val pp : Format.formatter -> span -> unit
(** One line per span, indented by depth:
    [descent  page_reads=4 entries=12]. *)

val to_json : span -> Json.t
(** [{"name": ..., <field>: ..., "children": [...]}]. *)

(** Request dispatch: a {!Uindex.Db} behind the wire protocol.

    A service routes each parsed query to the registered index whose
    {!Uindex.Index.arity} matches the query's component count — the same
    routing the CLI's [query] command performs — and executes it inside a
    {!Uindex.Db.session}, so every request sees one committed snapshot no
    matter what the writer does meanwhile.

    Rows are rendered in a canonical sorted order (see {!render_rows}), so
    two replies to the same query against the same snapshot are
    byte-identical regardless of which worker (or process) produced them.
    A query reply's document carries its rows as an {!Obs.Json.Raw} leaf,
    so [Json.to_string] of {!handle}'s result is exactly {!serve_line}'s
    bytes.

    {b Telemetry.}  Every request flows through one pipeline that feeds
    per-stage histograms ([server.queue_wait_ns], [server.session_pin_ns],
    [server.exec_ns], [server.render_ns], [server.bytes_out],
    [server.request_ns]) in {!Obs.Metrics.default}.  When tracing is on,
    sampled requests (and every request carrying a client trace id) run
    under an {!Obs.Trace} root span whose children are the executor's
    plan/descent spans; requests at or above the slow threshold are
    admitted to a bounded ring — the slow-query log — drainable with the
    [slow-queries] admin request or {!slow_log_json}.  Telemetry never
    changes response bytes: a server-assigned trace id stays internal,
    and only a client-propagated id is echoed back.

    Page-read accounting is exact under tracing: the root span's own
    [page_reads] field carries the session-pin reads (every snapshot
    view's attach walk) and the exec children carry the descent reads,
    so summing span totals over a window of requests reconciles with
    the global [pager.reads] counter delta over the same window.

    Handling is thread-safe: any number of threads may call {!handle} on
    one service concurrently, and worker domains trace into domain-local
    collectors.

    {b Corruption containment.}  A request that trips
    [Storage_error.Corruption] (a page failed its checksum mid-query)
    is answered with a typed [data_corruption] error — the connection
    stays up — and the finding is recorded in the {!Quarantine}, which
    the [health] response surfaces alongside scrub and supervisor
    vitals.  Queries that do not touch the damaged page keep serving
    normally; none ever returns a silently wrong answer. *)

type t

type telemetry = {
  tracing : bool;  (** master switch for span capture *)
  sample_every : int;
      (** trace 1 in [n] requests (requests with a client trace id are
          always traced); clamped to at least 1 *)
  slow_threshold_ns : int;
      (** requests at least this slow enter the slow-query log; [0]
          logs everything *)
  slow_capacity : int;  (** slow-log ring size; [0] disables the log *)
}

val default_telemetry : telemetry
(** Tracing on, every request sampled, 10 ms slow threshold, 128-entry
    slow log. *)

val create :
  ?telemetry:telemetry ->
  ?shard_info:Obs.Json.t ->
  schema:Oodb_schema.Schema.t ->
  Uindex.Db.t ->
  t
(** Snapshots the database's current index registration into a routing
    table (indexes registered later are not served).  [?shard_info], when
    given, is surfaced verbatim as a ["shard"] member of the [health]
    response — a shard server uses it to report which COD range it
    holds. *)

val db : t -> Uindex.Db.t
val telemetry : t -> telemetry

val handle : ?deadline:float -> t -> Protocol.request -> Obs.Json.t
(** Executes one request and returns the response document.  [?deadline]
    is an absolute [Unix.gettimeofday] instant; a request that starts
    after its deadline gets a [timeout] error instead of running.  Never
    raises: execution failures become [internal] error responses.
    Observes the [server.requests], [server.request_errors] and
    [server.request_ns] instruments in {!Obs.Metrics.default}. *)

val handle_line : ?deadline:float -> t -> string -> Obs.Json.t
(** {!Protocol.parse_line} then {!handle}; unparseable request lines
    become [bad_request] error responses. *)

val serve_line : ?queued_ns:int -> ?deadline:float -> t -> string -> string
(** What the server's workers call: {!handle_line} plus rendering, so
    render time and payload bytes are measured and traced as part of the
    request.  [?queued_ns] is how long the connection waited in the
    accept queue; it is observed on the first request of the connection
    and recorded on its root span. *)

val render_rows : Oodb_schema.Schema.t -> Uindex.Exec.binding list -> string
(** The [rows] array of a query reply: each binding rendered once as
    [{"value":…,"comps":[[class,oid],…]}], and the rows in the canonical
    order — the byte order of their rendered strings.  Replies splice
    these bytes in as an {!Obs.Json.Raw} leaf. *)

val slow_log_json : ?limit:int -> t -> Obs.Json.t
(** Snapshot of the slow-query log, newest first — the same document
    the [slow-queries] admin request returns (sans envelope).  Used to
    dump the log when a drained server shuts down. *)

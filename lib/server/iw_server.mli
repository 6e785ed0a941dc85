(** The InterWeave server.

    A server manages an arbitrary number of segments, maintaining an
    up-to-date master copy of each in machine-independent wire format so that
    no translation is needed when forwarding data (paper, Section 3.2).  Per
    segment it keeps the blocks in a balanced tree sorted by serial number, a
    version list separated by markers (blocks move to the tail when
    modified), a marker tree sorted by version, and per-subblock version
    numbers at 16-primitive-unit granularity so that fine-grain changes can
    be forwarded without resending whole blocks.

    The server is oblivious to client languages and architectures: everything
    it stores arrived in wire format, and pointers (MIPs) are never
    swizzled here.

    {b Threading.}  Segments are partitioned across [domains] shards by a
    deterministic hash of the segment name.  Each shard owns its segments,
    its slice of the write-ahead log, and its own instrumented lock; with
    [domains = 1] (the default) requests run inline on connection threads
    under the single shard's lock — the classic one-big-lock server — and
    with [domains ≥ 2] each shard gets a dedicated OCaml 5 domain that
    drains a mailbox of requests in batches and group-commits their WAL
    fsyncs.  Session state (ids, leases, notifier registrations) stays
    global behind a small leaf mutex.  See DESIGN.md, "Threading &
    sharding". *)

type t

val create :
  ?checkpoint_dir:string ->
  ?diff_cache_capacity:int ->
  ?domains:int ->
  ?lease_secs:float ->
  ?fsync:Iw_store.fsync ->
  ?queue_max:int ->
  ?ring:Iw_ring.t ->
  unit ->
  t
(** A fresh server.  When [checkpoint_dir] is given the directory becomes the
    server's durability directory: every committed [Write_release] diff is
    appended to a per-segment write-ahead log ({!Iw_store}) {e before} the
    release is acknowledged, checkpoints (periodic, or via
    {!Iw_proto.Checkpoint}) are written crash-consistently and reset the
    log, and startup recovers each segment by loading its newest valid
    checkpoint and replaying the log past it — so a crashed server restarted
    on the same directory resumes at the exact last-acknowledged version.
    Checkpoints or logs that fail validation at startup are quarantined as
    [<file>.corrupt] with a logged warning, never a startup failure.

    [fsync] picks the log's fsync policy (default: the [IW_FSYNC]
    environment policy, falling back to [Interval 1.0]).  The policy bounds
    what a {e power loss} can lose; a plain process crash loses nothing
    acknowledged regardless, because appends always reach the kernel before
    the ack.

    [domains] (default: the [IW_DOMAINS] environment variable, else [1],
    clamped to [1..64]) picks the shard count.  Recovery always runs
    single-threaded before any worker domain is spawned, and the
    segment→shard hash is deterministic, so a directory written with one
    shard count recovers correctly under any other.  With [domains ≥ 2],
    group commit batches concurrent releases' fsyncs (up to 64 requests
    per batch) — acknowledgements are withheld until the batch's fsync, so
    durability-before-ack is unchanged.

    [lease_secs] enables per-session inactivity leases: write locks survive
    a dropped connection (so a client can reconnect and
    {!Iw_proto.Resume_session} back into them), and a session quiet for
    longer than the lease loses its locks to the next {!Iw_proto.Write_lock}
    contender — lazy reclamation, no reaper thread, counted in
    [iw_server_locks_reclaimed_total].  Without it (the default), a dropped
    connection releases its sessions' locks immediately, as before.

    [queue_max] (default: the [IW_SHARD_QUEUE_MAX] environment variable,
    else [1024]; [0] disables the bound) caps each shard's worker mailbox.
    A request arriving at a full mailbox is refused at admission with
    {!Iw_proto.R_busy_hint} instead of queueing — bounding both the
    server's queue memory and the queueing delay of everything already
    accepted.  The cap also drives a per-shard overload state machine
    (normal → shedding → read-only, with hysteresis): a shedding shard
    answers Delta/Temporal reads inline from the last committed snapshot
    rather than queueing them behind writes, and a read-only shard refuses
    {e new} write locks while still accepting releases (which free locks and
    drain the queue).  [Write_release] always bypasses the admission cap for
    the same reason.  State and pressure are exported as
    [iw_server_overload_state], [iw_server_queue_hwm],
    [iw_server_shed_total{reason}], [iw_server_expired_total{phase}], and
    [iw_server_snapshot_reads_total].

    [ring] is a test seam: it replaces the metric history ring (default
    {!Iw_ring.create}[ ()], 64 windows of 5 s), so a test can roll windows
    in milliseconds. *)

val store : t -> Iw_store.t option
(** Shard 0's durability store backing [checkpoint_dir], when one is
    configured: its [iw_store_*] instruments land in {!metrics} (shared,
    idempotently, with every other shard's store handle). *)

val domains : t -> int
(** The shard count this server was created with. *)

val queue_max : t -> int option
(** The per-shard mailbox admission cap; [None] when unbounded. *)

val shutdown : t -> unit
(** Stop the shard worker domains: each drains its mailbox (running and
    group-committing everything already accepted) and is joined.  A no-op
    with [domains = 1], and idempotent.  Requests submitted after shutdown
    raise. *)

val handle :
  ?ctx:Iw_proto.trace_ctx ->
  ?deadline_us:float ->
  ?timer:Iw_phase.timer ->
  t ->
  Iw_proto.request ->
  Iw_proto.response
(** Process one request.  Thread-safe: segment-scoped requests are
    serialized per shard (by the shard's lock, or its worker mailbox), and
    global requests synchronize on the sessions mutex.  When [ctx] is given (a request arrived with a trace-context
    envelope), the dispatch span adopts it — same [trace_id], the client's
    span as [parent_span_id] — so client and server spans stitch into one
    Perfetto timeline, and the request's seq lands in the flight
    recorder.

    When [timer] is given (a phase timer started at frame arrival —
    {!serve_conn} does this), the dispatch brackets its lock wait, service,
    and WAL time into it and leaves finishing to the caller; without one, a
    fresh timer covers just the dispatch and is folded into {!phase_stats}
    here — the direct-link path, which has no decode or reply phases.

    [deadline_us] (an absolute {!Iw_metrics.now_us} instant — {!serve_conn}
    computes it from the request envelope's remaining-budget field) lets
    the dispatch shed the request with {!Iw_proto.R_expired} once the
    budget has run out: at dequeue from the shard mailbox (phase
    ["queue"]), or for a [Write_release] at the last moment before its
    apply-and-WAL cost (phase ["wal"]).  Nothing is applied on an expired
    path, so a client retry is always safe. *)

val direct_link : t -> Iw_proto.link
(** An in-process link whose [call] is {!handle}.  No serialization overhead;
    used by single-process deployments and benchmarks that isolate
    translation costs from transport costs. *)

val serve_conn : t -> Iw_transport.conn -> unit
(** Serve one framed connection until it closes.  Write locks held by
    sessions that spoke only through this connection are released when it
    drops — unless the server runs with [lease_secs], in which case they
    are kept for a possible {!Iw_proto.Resume_session}.  A request that
    fails to decode draws an [R_error] reply (echoing the envelope seq when
    one was readable) and a flight-recorder dump instead of killing the
    connection. *)

val checkpoint : t -> unit
(** Persist every segment to the checkpoint directory (no-op without one).
    Each segment's checkpoint is written atomically (temp + fsync + rename +
    directory fsync) with a CRC trailer, and doubles as a write-ahead-log
    barrier: the segment's log is reset once its checkpoint is durable, so
    recovery cost stays bounded by the checkpoint interval.  Also triggered
    by the {!Iw_proto.Checkpoint} request. *)

val segment_names : t -> string list

(** {1 Notifications}

    Sessions that {!Iw_proto.Subscribe} to a segment are told when its
    version changes (paper, Section 2.2).  Pushes for TCP/loopback sessions
    are installed automatically by {!serve_conn}; in-process direct clients
    register theirs here. *)

val register_notifier :
  t -> session:int -> push:(Iw_proto.notification -> unit) -> unit
(** [push] is called with the notifying segment's shard lock held (but not
    the sessions lock) and must be cheap and must not call back into the
    server. *)

val unregister_session :
  ?only_if:(Iw_proto.notification -> unit) -> t -> int -> unit
(** Drop a session's notifier and all of its subscriptions.  With
    [only_if], a no-op unless the registered notifier is physically that
    closure — how a dying connection avoids tearing down a session that
    already resumed on a newer connection. *)

val subblock_units : int
(** Subblock granularity: 16 primitive data units, matching the paper. *)

(** Observability counters for tests and ablation benchmarks. *)
type stats = {
  mutable requests : int;
  mutable diffs_applied : int;
  mutable diffs_collected : int;
  mutable diff_cache_hits : int;
  mutable diff_cache_misses : int;
  mutable pred_hits : int;
  mutable pred_misses : int;
}

val stats : t -> stats

val metrics : t -> Iw_metrics.t
(** This server's metric registry: per-request-variant latency histograms
    ([iw_server_request_us{variant="..."}]), per-segment version gauges,
    version-advance and diff-cache counters, plus collect-time probes
    mirroring {!stats}.  Enabled by default — [IW_METRICS=0] disables — so a
    live server always has data for [iw-admin stats].  The [Server_stats]
    request returns this snapshot concatenated with the transport registry's
    ({!Iw_transport.metrics}). *)

val flight : t -> Iw_flight.t
(** This server's flight recorder: one entry per handled request (seq,
    variant, segment, version, latency).  Always on, even when metrics are
    off, and dumped on decode failures, uncaught handler exceptions,
    [SIGUSR1] (installed by [iw-server]), or the [Flight_recorder]
    request. *)

val slowlog : t -> Iw_slowlog.t
(** This server's sampled slow-request log: the K slowest requests per
    window, with segment, session, and the trace/span ids from the request
    envelope when one was present.  Always on, with the {!Iw_slowlog.create}
    defaults (32 entries per 10 s window); served remotely by the
    {!Iw_proto.Slow_log} request and rendered by [iw-admin slowlog]. *)

val phase_stats : t -> Iw_phase.stats
(** This server's request-lifecycle phase accumulator: exact per-phase and
    per-(variant, phase) {!Iw_hist} histograms of exclusive time in decode,
    lock-wait, service, WAL, and reply-write, plus the end-to-end total —
    what [iwbench]'s [server.*_us_per_req] metrics read on embedded runs.
    The same decomposition is exported through the registry as
    [iw_server_phase_us{phase="..."}] and [iw_server_request_total_us]
    (exact sums, bucketed quantiles), served by [Server_stats], and its
    lock-cost companions as [iw_server_lock_wait_us]/[iw_server_lock_hold_us]
    with [iw_server_inflight] and [iw_server_lock_queue_depth] gauges. *)

val ring : t -> Iw_ring.t
(** This server's metric history ring: one point of derived scalar series
    (rates, gauge levels, windowed p50/p99) per 5 s window, last 64
    windows retained, rolled lazily from the request path.  Served remotely by {!Iw_proto.Metrics_history}; powers the
    sparkline columns of [iw-admin top] and [iw-admin contention]. *)

val set_prediction : t -> bool -> unit
(** Enable/disable last-block prediction (ablation; default on). *)

(** {1 Diff validation (debug mode)} *)

val set_validate_diffs : t -> bool -> unit
(** When enabled (default off), every incoming [Write_release] diff is run
    through {!Iw_wire_check.check} against the segment before being applied;
    a diff with any issue is rejected whole with an [R_error] naming the
    issues, and the write lock is released so the segment is not wedged. *)

val diff_ctx : t -> string -> Iw_wire_check.ctx
(** The named segment's validation context — descriptor serials and block
    extents — for checking diffs outside the server (fuzz harnesses validate
    both directions of traffic with it).  An unknown segment yields
    {!Iw_wire_check.empty_ctx}.  The context reads live server state: do not
    use it concurrently with request handling. *)

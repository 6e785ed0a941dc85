(** Sampled slow-request log: the K slowest requests per time window.

    The flight recorder answers "what happened just before the crash"; the
    slow log answers "what is slow right now".  The server records every
    dispatched request's latency here; only the K slowest of the current
    window survive, so memory is O(K) no matter the request rate.  Two
    windows (current + previous) are kept so a snapshot taken right after a
    window rolls still shows the recent tail instead of an empty table.

    Entries carry the request's trace id and span id when the client sent a
    trace-context envelope, so a slow entry can be looked up directly in
    the matching Perfetto trace.

    Thread-safe: [observe] and [snapshot] take an internal mutex (never the
    server lock — observation happens after dispatch, outside it). *)

type entry = {
  e_t : float;  (** completion wall-clock time, seconds since epoch *)
  e_variant : string;
  e_segment : string;  (** [""] when the request names no segment *)
  e_session : int;
  e_seq : int;  (** envelope seq; [0] without an envelope *)
  e_trace_id : int;  (** [0] without a trace-context envelope *)
  e_span_id : int;
  e_latency_us : float;
  e_wait_us : float;  (** lock-wait share of the latency; [0.] if unknown *)
  e_service_us : float;  (** lock-held share (WAL time excluded) *)
  e_wal_us : float;  (** write-ahead-log append (+fsync) share *)
  e_deadline_missed : bool;
      (** the request carried a deadline budget and finished past it (shed
          with [R_expired], or completed but too late to matter) *)
}

type t

val create : ?k:int -> unit -> t
(** [k] slowest entries kept per 10 s window (default [32]). *)

val observe :
  t ->
  variant:string ->
  segment:string ->
  session:int ->
  seq:int ->
  trace_id:int ->
  span_id:int ->
  ?wait_us:float ->
  ?service_us:float ->
  ?wal_us:float ->
  ?deadline_missed:bool ->
  float ->
  unit
(** Consider one completed request (latency in microseconds) for the
    current window's top K.  The optional phase shares (see {!Iw_phase})
    let [iw-admin slowlog] explain an outlier without a trace file; they
    default to [0.] for callers without a phase timer.  [deadline_missed]
    (default [false]) marks a request that outlived its propagated
    deadline budget. *)

val snapshot : ?limit:int -> t -> entry list
(** Slowest first, previous and current window merged; at most [limit]
    entries (default: everything retained, at most [2 * k]). *)

(** Client–server protocol.

    All communication between an InterWeave client library and a segment's
    server uses these messages, encoded in wire format.  The same messages
    flow over an in-process direct link, a loopback queue pair, or a TCP
    connection — the transport is invisible to both sides. *)

(** Relaxed coherence models (paper, Sections 2.2 and 3.2).  [Full] always
    fetches the current version when stale at all; [Delta x] tolerates being
    up to [x] versions out of date; [Temporal x] up to [x] seconds (enforced
    client-side with a per-segment timestamp); [Diff_pct x] tolerates up to
    [x] percent of the segment's primitive data being out of date (enforced
    by the server's conservative modification counter). *)
type coherence =
  | Full
  | Delta of int
  | Temporal of float
  | Diff_pct of float

val pp_coherence : Format.formatter -> coherence -> unit

type meta_block = {
  mb_serial : int;
  mb_name : string option;
  mb_desc_serial : int;
}

type request =
  | Hello of { arch : string }
  | Open_segment of {
      session : int;
      name : string;
      create : bool;
    }
  | Segment_meta of {
      session : int;
      name : string;
    }  (** block table without payload — backs reserve-space for MIPs *)
  | Read_lock of {
      session : int;
      name : string;
      version : int;  (** version cached at the client; 0 = nothing cached *)
      coherence : coherence;
    }
  | Read_release of {
      session : int;
      name : string;
    }
  | Write_lock of {
      session : int;
      name : string;
      version : int;
    }
  | Write_release of {
      session : int;
      name : string;
      diff : Iw_wire.Diff.t;
    }
  | Register_desc of {
      session : int;
      name : string;
      desc : Iw_types.desc;
    }
  | Get_version of {
      session : int;
      name : string;
    }
  | Checkpoint of { session : int }
  | Stat of {
      session : int;
      name : string;
    }
  | Subscribe of {
      session : int;
      name : string;
    }  (** ask for change notifications on the segment (paper, Section 2.2) *)
  | Unsubscribe of {
      session : int;
      name : string;
    }
  | Server_stats of { session : int }
      (** fetch the server's live metric snapshot — backs [iw-admin stats] *)
  | Segment_stats of {
      session : int;
      segment : string option;  (** [None] = every segment *)
    }
      (** fetch only per-segment coherence series (version lag, staleness,
          diff savings, wasted acquires, write-lock wait) — backs
          [iw-admin segstats] *)
  | Flight_recorder of { session : int }
      (** fetch the server's flight-recorder ring as rendered JSON — backs
          [iw-admin flight] *)
  | Resume_session of {
      session : int;
      arch : string;
    }
      (** re-attach a previous session after a reconnect.  A server that
          still knows the session answers {!R_resumed} listing the segments
          whose write lock the session holds (non-empty only when the
          server runs with an inactivity lease — without one, locks were
          released when the old connection died); an unknown session gets
          [R_error] and the client falls back to a fresh [Hello]. *)
  | Enable_crc of { session : int }
      (** negotiate frame-level CRC-32 (see {!Iw_transport.crc_conn}).  Sent
          first on a fresh connection with [session = 0] — it is link-level,
          not session-level.  The server answers [R_ok] and CRC-protects
          every frame it sends from then on; the client does the same on
          seeing [R_ok] (see {!crc_link}). *)
  | Slow_log of {
      session : int;
      limit : int;
    }
      (** fetch the server's sampled slow-request log (the K slowest
          requests of the recent windows, slowest first, at most [limit]
          entries) — backs [iw-admin slowlog].  See {!Iw_slowlog}. *)
  | Metrics_history of {
      session : int;
      limit : int;  (** newest [limit] points; [0] = everything retained *)
    }
      (** fetch the server's metric history ring (windowed snapshots of
          derived scalar series, oldest first) — backs the sparkline trend
          columns of [iw-admin top] and [iw-admin contention].  See
          {!Iw_ring}. *)

val request_variant : request -> string
(** Stable lowercase tag for a request ([read_lock], [write_release], ...),
    used as a metric label. *)

val request_session : request -> int option
(** The session a request belongs to ([None] for [Hello], which creates
    one).  Servers use it to refresh per-session inactivity leases. *)

type stat = {
  st_version : int;
  st_blocks : int;
  st_total_units : int;
  st_diff_cache_hits : int;
  st_diff_cache_misses : int;
}

type response =
  | R_hello of { session : int }
  | R_segment of { version : int }
  | R_meta of {
      version : int;
      descs : (int * Iw_types.desc) list;
      blocks : meta_block list;
    }
  | R_up_to_date
  | R_update of Iw_wire.Diff.t
  | R_granted of Iw_wire.Diff.t option
  | R_busy  (** segment write lock held by another session *)
  | R_version of int
  | R_serial of int
  | R_stat of stat
  | R_ok
  | R_error of string
  | R_server_stats of Iw_metrics.snapshot
  | R_segment_stats of Iw_metrics.snapshot
  | R_flight of string  (** flight-recorder ring, rendered as JSON *)
  | R_resumed of { held : string list }
      (** session re-attached; [held] lists segments whose write lock the
          session still holds *)
  | R_slow_log of Iw_slowlog.entry list
      (** slow-request log entries, slowest first; trace/span ids are [0]
          when the recorded request carried no trace-context envelope *)
  | R_metrics_history of Iw_ring.point list
      (** metric history ring points, oldest first *)
  | R_busy_hint of { retry_after_ms : int }
      (** overload shed: the request was refused before queueing (bounded
          mailbox full, or a degraded shard refusing new writes); retry
          after roughly [retry_after_ms] *)
  | R_expired of { phase : string }
      (** deadline shed: the request's propagated budget had already expired
          when the server was about to spend real work on it ([phase] is
          ["queue"] at dequeue, ["wal"] just before the write-ahead append);
          nothing was applied, so a retry is always safe *)

val encode_request : Iw_wire.Buf.t -> request -> unit
(** The request body alone; on the wire every request is preceded by its
    envelope ({!encode_request_env}). *)

val decode_request : Iw_wire.Reader.t -> request
(** Decode a request body (after {!decode_envelope}). *)

val encode_response : Iw_wire.Buf.t -> response -> unit

val decode_response : Iw_wire.Reader.t -> response

(** {1 Request envelope}

    Every request is wrapped in an envelope: [0xE7] (a marker outside the
    request tag space), a protocol version byte, a feature bitmap, then the
    feature payloads — the caller's trace context, so the server's dispatch
    span lands in the same Perfetto timeline as the client span that issued
    the request, and the call's remaining deadline budget.  A frame without
    the envelope is malformed. *)

type trace_ctx = {
  tc_trace_id : int;  (** u64; same for every span of one logical operation *)
  tc_span_id : int;  (** u64; the client span issuing this request *)
  tc_seq : int;  (** u32; per-link request counter, echoed on replies *)
}

val envelope_magic : int
(** First byte of an enveloped request ([0xE7]), outside the request tag
    space. *)

val proto_version : int
(** Envelope version this library speaks (1).  A decoder rejects any
    other. *)

val feature_trace_ctx : int
(** Envelope feature bit: a {!trace_ctx} follows the header.  Unknown bits
    are rejected rather than skipped — payload lengths would be unknown. *)

val feature_deadline : int
(** Envelope feature bit: a u32 remaining-budget (milliseconds) follows the
    trace context (if any).  The server sheds requests whose budget has
    expired before it spends queue or WAL work on them ({!R_expired}). *)

(** What a request envelope carried.  [env_budget_ms = None] means the
    client sent no deadline (a link without a call timeout); [Some b]
    leaves [b] ms of budget at send time. *)
type envelope = {
  env_ctx : trace_ctx option;
  env_budget_ms : int option;
}

val encode_request_env :
  Iw_wire.Buf.t -> ?ctx:trace_ctx -> ?budget_ms:int -> request -> unit
(** The envelope header, carrying [ctx] and [budget_ms] when given, then
    the request body. *)

val decode_envelope : Iw_wire.Reader.t -> envelope
(** Consume the envelope header, leaving the reader at the request body.
    Raises [Iw_wire.Malformed] when the input does not start with one.
    Separate from {!decode_request} so a server can keep the context
    (notably the seq) when the body fails to decode. *)

(** A link is the client's view of one server, however reached.  [call]
    puts [ctx] in the request envelope when given (an in-process link has
    no envelope and ignores it). *)
type link = {
  call : ?ctx:trace_ctx -> request -> response;
  close : unit -> unit;
  description : string;
}

(** {1 Server-push notifications}

    The adaptive polling/notification protocol (paper, Section 2.2) lets the
    client library avoid communication when updates are not required: a
    subscribed client is told when a segment changes and can otherwise treat
    its cached copy as current.  Notifications share the connection with
    responses, so frames are tagged; {!demux_link} runs a receiver thread
    that dispatches notifications and hands responses to the caller. *)

type notification = {
  n_segment : string;
  n_version : int;
}

val response_frame : ?seq:int -> response -> string
(** Tag-0 frame carrying a response (what {!demux_link} expects).  With
    [seq], a tag-2 frame that prefixes the response with the originating
    request's seq; servers echo it only when the request carried a trace
    context, so untraced replies do not pay for it. *)

val notification_frame : notification -> string
(** Tag-1 frame carrying a notification. *)

val demux_link :
  ?on_io:(dir:[ `Sent | `Received ] -> int -> unit) ->
  ?call_timeout:float ->
  Iw_transport.conn ->
  on_notify:(notification -> unit) ->
  link
(** A link over a tagged framed connection.  [on_notify] runs on the receiver
    thread and must only perform cheap, thread-safe work (the client library
    sets a staleness flag).  At most one outstanding [call] at a time.
    [on_io] observes frame payload sizes; received bytes include
    notification frames and are reported from the receiver thread.

    With [call_timeout] (seconds), a [call] that receives no response in
    time shuts the connection down and raises {!Iw_transport.Timeout}: once
    a response has been missed the link is desynchronized, so the whole
    connection — not just the one call — is abandoned, and every later
    [call] on this link raises {!Iw_transport.Closed}.  Recovery means
    re-dialing (see [Iw_client.set_reconnect]).  Granularity is ~25 ms.

    A timeout-armed link also stamps the budget into each request's
    envelope ({!feature_deadline}), letting the server shed the call once
    the budget is hopeless. *)

val crc_link :
  ?on_io:(dir:[ `Sent | `Received ] -> int -> unit) ->
  ?call_timeout:float ->
  Iw_transport.conn ->
  on_notify:(notification -> unit) ->
  link
(** {!demux_link} over a frame-checksummed connection: wraps [conn] with
    {!Iw_transport.crc_conn} and negotiates {!Enable_crc} before returning,
    so everything after that exchange travels CRC-protected both ways.  The
    two negotiation frames are the link's only unprotected traffic.  A
    reply other than [R_ok] raises {!Iw_transport.Closed}; a transport
    failure during the exchange is re-raised.  Either way the link is
    closed first. *)

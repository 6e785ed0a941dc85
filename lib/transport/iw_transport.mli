(** Framed byte transports.

    A connection carries length-prefixed frames in both directions.  Two
    implementations: an in-process loopback (a pair of thread-safe queues,
    used by tests and benchmarks) and TCP (used by the standalone server). *)

type conn = {
  send : string -> unit;
  recv : unit -> string;  (** blocks until a frame arrives *)
  shutdown : unit -> unit;
      (** stop the conversation: blocked [recv]s (on any thread) raise
          {!Closed}, but the descriptor stays valid until [close].  Call this
          — not [close] — from a thread other than the receiver, or the
          descriptor number could be reused while the receiver still reads
          from it. *)
  close : unit -> unit;  (** release the descriptor; implies [shutdown] *)
  peer : string;
}

exception Closed

exception Timeout
(** Raised by a deadline-armed call (see {!Iw_proto.demux_link}) when no
    response arrived in time.  The link is desynchronized at that point — a
    late reply could pair with the next request — so the raiser shuts the
    connection down first; recovery means re-dialing. *)

exception Connect_failed of string
(** {!tcp_connect} failed before a connection existed: name resolution
    failure or a connect error (refused, unreachable, ...).  Distinct from
    {!Closed}, which means an established connection died. *)

exception Corrupt of string
(** A received frame failed its CRC check (or arrived unprotected after CRC
    framing was negotiated).  The frame's content cannot be trusted, so the
    link must be abandoned; clients treat this like {!Closed} and re-dial. *)

val metrics : unit -> Iw_metrics.t
(** The process-global transport registry: frame and byte counters per
    direction, a frame-size histogram, and a blocked-receive latency
    histogram, accumulated across every connection in the process.  Enabled
    by default; [IW_METRICS=0] (or ["" ]) disables it at startup, and
    {!Iw_metrics.set_enabled} toggles it at runtime. *)

(** {1 Frame checksums}

    An end-to-end CRC-32 over every frame, layered above the byte framing so
    it works identically over TCP and the loopback.  A protected frame is
    self-describing (marker byte [0xC3] + big-endian CRC + payload), which
    lets both framings coexist on one connection: each side sends plain
    frames until the protocol-level [Enable_crc] exchange succeeds, then
    flips its sender with {!enable_send}.  Once a protected frame has been
    received, an unprotected one raises {!Corrupt} — corruption cannot opt
    back out. *)

type crc_handle

val crc_conn : conn -> conn * crc_handle
(** Wrap a connection with CRC framing.  The returned connection receives
    both framings (verifying protected ones) and sends plain frames until
    {!enable_send}. *)

val enable_send : crc_handle -> unit
(** Start CRC-protecting sent frames.  Call once the peer has confirmed it
    verifies them. *)

val loopback : unit -> conn * conn
(** A connected pair: what one side sends, the other receives.  Both ends are
    thread-safe; [recv] blocks.  After [close], pending and future operations
    raise {!Closed}. *)

val tcp_connect : host:string -> port:int -> conn
(** Raises {!Connect_failed} when the host cannot be resolved or the
    connection is refused. *)

val tcp_server :
  port:int -> ?backlog:int -> stop:bool ref -> (conn -> unit) -> unit
(** Accept loop: spawns a thread per connection running the handler.  Checks
    [stop] once per second and returns once it is set. *)

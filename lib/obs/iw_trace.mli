(** Structured tracing: begin/end spans and instant events with monotonic
    timestamps and string attributes, written as Chrome [trace_event] JSON —
    loadable in [chrome://tracing] or Perfetto.

    Tracing is process-global and off by default; every instrumented site
    guards on {!enabled}, so a disabled tracer costs one branch per event
    (the sanitizer-hook discipline).  Setting [IW_TRACE=<path>] in the
    environment enables tracing at the first server or client constructor
    ({!attach_env}) and writes the file at process exit
    ([IW_TRACE_MODE=append] merges into an existing file); {!start}/{!stop}
    do the same programmatically.

    Events are buffered in memory and flushed as one JSON document by
    {!stop} (or the [at_exit] hook), so trace files are complete, parseable
    arrays — not truncated streams. *)

val enabled : unit -> bool

type mode =
  | Overwrite  (** replace [path] (the pre-existing behavior) *)
  | Append
      (** merge with the [traceEvents] already in [path], so the client and
          server of one run can share a file: whichever process exits last
          folds the other's events into a single Perfetto-valid document *)

val env_mode : unit -> mode
(** The [IW_TRACE_MODE] policy: unset or [""] is {!Overwrite}, [append] is
    {!Append}; any other value raises [Invalid_argument "IW_TRACE_MODE: …"]. *)

val attach_env : unit -> unit
(** Apply [IW_TRACE]/[IW_TRACE_MODE] once per process; later calls repeat
    the first call's outcome.  [Iw_server.create] and [Iw_client.connect]
    call it.
    @raise Invalid_argument as {!env_mode} does. *)

val output : unit -> (string * mode) option
(** The path and mode the running trace will be written with; [None] when
    tracing is off. *)

val start : ?mode:mode -> path:string -> unit -> unit
(** Begin recording; the trace is written to [path] by {!stop} or at process
    exit.  [mode] defaults to {!Overwrite}.  Restarting with a new path
    redirects the (single) trace. *)

val stop : unit -> unit
(** Write the buffered events and disable tracing.  Idempotent. *)

val next_id : unit -> int
(** A fresh positive identifier for a span or trace, unique within this
    process and salted with the pid and start time so ids minted by the
    client and server of one run do not collide.  Fits in a u64 wire
    field. *)

val pp_id : int -> string
(** Identifier rendered as lowercase hex, the form used in span args. *)

val span_begin : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Open a span (phase ["B"]) on the calling thread.  [cat] defaults to
    ["iw"].  Callers must close it with {!span_end} of the same name on the
    same thread; prefer {!with_span} unless control flow makes the pair
    clearer. *)

val span_end : string -> unit
(** Close a span (phase ["E"]). *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A point event (phase ["i"]). *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the end event is emitted even on
    exceptions, keeping B/E balanced.  When tracing is disabled this is just
    one branch and a call. *)

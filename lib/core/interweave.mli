(** InterWeave: distributed shared state for heterogeneous machines.

    This is the public facade over the subsystem libraries.  The programming
    model (paper, Section 2): servers maintain persistent master copies of
    {e segments} — URL-named heaps of strongly typed {e blocks} — and clients
    map cached copies into their address space, accessing them with ordinary
    reads and writes under reader/writer locks.  Pointers, including
    cross-segment pointers, are valid local addresses once mapped; a
    machine-independent pointer (MIP) ["segment#block#offset"] names any
    shared datum globally.

    {[
      let server = Interweave.start_server () in
      let c = Interweave.direct_client server in
      let h = Interweave.open_segment c "host/list" in
      Interweave.wl_acquire h;
      let p = Interweave.malloc h Desc.(structure [ field "key" int; field "next" (ptr "node") ]) in
      ...
      Interweave.wl_release h
    ]} *)

module Arch = Iw_arch
module Types = Iw_types
module Mem = Iw_mem
module Wire = Iw_wire
module Xdr = Iw_xdr
module Proto = Iw_proto
module Transport = Iw_transport
module Server = Iw_server
module Client = Iw_client

module Metrics = Iw_metrics
(** Counters, gauges, latency/size histograms; snapshot, Prometheus text
    exposition, JSON.  Registries: {!Client.metrics} (per client, default
    off), {!Server.metrics} (per server, default on), {!Transport.metrics}
    (process-global, default on).  [IW_METRICS=0|1] overrides the defaults;
    any other value is a startup error. *)

module Trace = Iw_trace
(** Structured tracing to Chrome [trace_event] JSON (Perfetto-loadable).
    [IW_TRACE=<path>] enables it for a whole process with no code changes;
    [IW_TRACE_MODE=append] lets several processes share a path.
    Requests issued while tracing carry a trace-context envelope
    ({!Proto.trace_ctx}), so client and server spans share one timeline. *)

module Flight = Iw_flight
(** Crash flight recorder: a lock-free ring of recent request events, always
    on in servers, dumped as JSON on decode failures, uncaught exceptions,
    [SIGUSR1], or [iw-admin flight]. *)

module Obs_json = Iw_obs_json
(** The minimal JSON representation used by metric and benchmark output. *)

module Fault = Iw_fault
(** Deterministic fault injection for links: seedable drop/delay/garble/close
    plans, parsed from a string or the [IW_FAULT] environment variable and
    wrapped around any {!Transport.conn}.  {!loopback_client} and
    {!tcp_client} apply [IW_FAULT] automatically. *)

module Store = Iw_store
(** Durable segments: per-segment write-ahead logs of committed diffs,
    crash-consistent checkpoint primitives, and the offline validation
    behind [iw-check --store].  A server gets one by being created with a
    [checkpoint_dir] (see {!start_server}); the [IW_FSYNC] environment
    variable (or {!Iw_server.create}'s [fsync]) picks the log's fsync
    policy. *)

type server = Iw_server.t

type client = Iw_client.t

type seg = Iw_client.seg

type addr = Iw_mem.addr

(** Building type descriptors without spelling out the variant constructors. *)
module Desc : sig
  val char : Types.desc

  val short : Types.desc

  val int : Types.desc

  val long : Types.desc

  val float : Types.desc

  val double : Types.desc

  val string : int -> Types.desc
  (** Inline string with the given local capacity (bytes, including NUL). *)

  val ptr : string -> Types.desc
  (** Typed pointer to the named type. *)

  val opaque_ptr : Types.desc

  val array : Types.desc -> int -> Types.desc

  val field : string -> Types.desc -> Types.field

  val structure : Types.field list -> Types.desc
end

(** {1 Deployment} *)

val start_server :
  ?checkpoint_dir:string ->
  ?domains:int ->
  ?lease_secs:float ->
  ?fsync:Store.fsync ->
  unit ->
  server
(** An in-process server.  With [checkpoint_dir], the server is durable:
    committed updates are write-ahead logged before being acknowledged and
    a restart on the same directory recovers every acknowledged version
    (see {!Iw_server.create}; [fsync] picks the log's fsync policy).  With
    [domains], segments are sharded across that many OCaml domains, each
    owning its segments, its slice of the log, and a group-commit batch of
    fsyncs (default 1: single-lock dispatch on caller threads).  With
    [lease_secs], write locks survive dropped connections for a possible
    {!Proto.Resume_session}, and sessions quiet for longer than the lease
    lose their locks to the next contender. *)

(** The three client constructors below also honour the [IW_SANITIZE]
    environment variable: [IW_SANITIZE=1] attaches a collecting
    {!Iw_sanitizer} (with relaxed out-of-lock reads) to every client they
    build and prints its findings to stderr at process exit — a
    zero-code-change sweep of a whole program for lock-discipline
    violations.  Values other than [0], [1] or empty are a startup error. *)

val direct_client : ?arch:Arch.t -> server -> client
(** A client wired straight to an in-process server — no transport between
    them.  This is the configuration the paper's translation-cost experiments
    isolate. *)

val loopback_client :
  ?arch:Arch.t -> ?fault:Fault.plan -> ?call_timeout:float -> server -> client
(** A client talking to the in-process server over a framed loopback channel
    served by a dedicated thread — full protocol encode/decode on both
    sides.

    Both transported-client constructors arm reconnect-with-recovery
    ({!Iw_client.set_reconnect}): a dead connection is re-dialed and the
    session resumed transparently.  Every request carries a deadline so a
    reply lost in transit (lossy network, server-side fault plan) triggers
    recovery instead of hanging the caller: [call_timeout] when given,
    else 1 s when this client injects faults itself, else 30 s.  A fault
    plan — [fault], or the [IW_FAULT] environment variable when absent —
    wraps every dialed connection in a {!Fault} injector (for loopback,
    injections land in the server's flight recorder). *)

val tcp_client :
  ?arch:Arch.t ->
  ?fault:Fault.plan ->
  ?call_timeout:float ->
  host:string ->
  port:int ->
  unit ->
  client
(** Connect to a standalone [iw_server] process.  See {!loopback_client}
    for fault-plan and recovery behaviour.
    @raise Transport.Connect_failed when the server cannot be reached. *)

(** {1 The paper's API}

    These re-export {!Iw_client} operations under the names used in the
    paper's Figure 1 discussion. *)

val open_segment : ?create:bool -> client -> string -> seg

val malloc : ?name:string -> seg -> Types.desc -> addr

val free : client -> addr -> unit

val rl_acquire : seg -> unit

val rl_release : seg -> unit

val wl_acquire : seg -> unit

val wl_release : seg -> unit

val ptr_to_mip : client -> addr -> string

val mip_to_ptr : client -> string -> addr

val set_coherence : seg -> Proto.coherence -> unit

val wl_abort : seg -> unit

val with_read_lock : seg -> (unit -> 'a) -> 'a

val with_write_lock : seg -> (unit -> 'a) -> 'a

val atomically : seg -> (unit -> 'a) -> ('a, exn) result
(** Run [f] inside a write critical section; commit its changes if it
    returns, roll every one of them back ({!wl_abort}) if it raises. *)

(** {1 Navigating typed data}

    Byte offsets of fields and elements depend on the client's architecture;
    these helpers compute them from descriptors, so application code never
    hard-codes layout. *)

type path_elem =
  | F of string  (** struct field by name *)
  | I of int  (** array element by index *)

val offset : client -> Types.desc -> path_elem list -> int * Types.desc
(** [offset c desc path] is the byte offset of the datum reached by [path]
    from the start of a value of type [desc], together with that datum's
    descriptor.  @raise Invalid_argument on a bad path. *)

val deref : client -> Types.desc -> addr -> path_elem list -> addr
(** [deref c desc a path] is [a + fst (offset c desc path)]. *)

(** Crash flight recorder: a fixed-size lock-free ring of the most recent
    request-level events (seq, variant, segment, version, latency), always
    on at ~zero cost — recording is a few stores, with no locks and no
    allocation — and dumped as JSON when something the metrics snapshot
    can't explain goes wrong: an uncaught server exception, a wire decode
    failure, [SIGUSR1], or an admin [Flight_recorder] request.

    Concurrent writers may interleave on a ring slot; a torn entry in a
    post-mortem dump is the accepted cost of a lock-free hot path. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to {!default_capacity}. *)

val default_capacity : int
(** 256 events. *)

val record :
  t ->
  ?seq:int ->
  ?segment:string ->
  ?version:int ->
  ?latency_us:float ->
  string ->
  unit
(** [record t ~seq ~segment ~version ~latency_us variant] appends one event,
    overwriting the oldest once the ring is full. *)

type view = {
  v_t : float;  (** wall-clock seconds *)
  v_seq : int;  (** request seq from the trace envelope; 0 = none *)
  v_variant : string;
  v_segment : string;
  v_version : int;
  v_latency_us : float;
}

val events : t -> view list
(** The retained events, oldest first. *)

val render_json : t -> Iw_obs_json.t
(** [{capacity; recorded; events: [{t; seq; variant; segment; version;
    latency_us}]}] — the dump format, also returned by the server's
    [Flight_recorder] request. *)

val dump_string : t -> string

val dump_target : unit -> string option
(** The file named by [IW_FLIGHT_DUMP] (read on each call); [None] means
    stderr. *)

val dump : ?reason:string -> t -> unit
(** Write the JSON dump to {!dump_target}; [reason] tags the log line. *)

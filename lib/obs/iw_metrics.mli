(** Metrics registry: named counters, gauges, and fixed-bucket log2
    histograms (microseconds and bytes), with snapshot, Prometheus-style text
    exposition, and JSON rendering.

    Each subsystem owns a registry ({!Iw_client.metrics},
    {!Iw_server.metrics}, {!Iw_transport.metrics}); instruments are
    registered once and updated on hot paths behind a single enabled-flag
    branch, so a disabled registry costs one branch per instrumented event —
    the same discipline as the sanitizer observation hooks.

    Metric names follow Prometheus conventions and may carry a literal label
    set: ["iw_server_request_us{variant=\"read_lock\"}"].  Exposition splices
    histogram [le] labels into an existing set. *)

type t

val create : ?enabled:bool -> unit -> t
(** A fresh registry.  [enabled] defaults to [true]; recording on a disabled
    registry is a no-op. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val reset : t -> unit
(** Forget every registered instrument.  Handles held by callers keep
    accepting updates (sharing the registry's enabled flag) but no longer
    appear in snapshots.  Intended for tests that must not leak series
    between cases. *)

val env_flag : string -> default:bool -> bool
(** [env_flag name ~default] reads the on/off environment switch [name]
    ([IW_METRICS], [IW_SANITIZE]): unset or [""] means [default], ["0"]
    off, ["1"] on.  Any other value raises [Invalid_argument "<name>: …"],
    so a typo such as [false] fails at startup instead of meaning "on". *)

val env_enabled : default:bool -> bool
(** [env_flag "IW_METRICS"]. *)

val with_label : string -> string -> string -> string
(** [with_label name k v] is [name{k="v"}], extending an existing label set
    when [name] already carries one. *)

(** {1 Instruments}

    Registration is idempotent: asking for an existing name returns the
    existing instrument.  A name registered as one kind cannot be re-used as
    another ([Invalid_argument]). *)

type counter

val counter : t -> ?help:string -> string -> counter

val incr : ?by:int -> counter -> unit

type gauge

val gauge : t -> ?help:string -> string -> gauge

val set_gauge : gauge -> float -> unit

type histogram

val histogram_us : t -> ?help:string -> string -> histogram
(** Latency histogram: log2 buckets from 1 µs to ~67 s, plus overflow. *)

val histogram_bytes : t -> ?help:string -> string -> histogram
(** Size histogram: log2 buckets from 1 byte to 1 GiB, plus overflow. *)

val histogram_count : t -> ?help:string -> string -> histogram
(** Small-cardinality histogram (version lags, queue depths): log2 buckets
    from 1 to 32768, plus overflow. *)

val observe : histogram -> float -> unit

val now_us : unit -> float
(** Monotonic-enough wall clock in microseconds, for use with
    {!histogram_us}. *)

val probe :
  t -> ?help:string -> ?kind:[ `Counter | `Gauge ] -> string -> (unit -> float) -> unit
(** Register a collect-time callback: its value is read at {!snapshot} time.
    This is how pre-existing flat stat records ({!Iw_client.stats},
    {!Iw_server.stats}) are re-backed onto the registry without adding any
    cost to the paths that maintain them.  [kind] defaults to [`Counter]. *)

(** {1 Snapshots} *)

type hist_view = {
  hv_unit : string;  (** ["us"] or ["bytes"] *)
  hv_bounds : float array;  (** inclusive upper bounds; overflow is implicit *)
  hv_counts : int array;  (** length [Array.length hv_bounds + 1] *)
  hv_count : int;
  hv_sum : float;
}

type value =
  | V_counter of float
  | V_gauge of float
  | V_hist of hist_view

type sample = {
  s_name : string;
  s_help : string;
  s_value : value;
}

type snapshot = sample list
(** Sorted by name; safe to concatenate across registries. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option

val hist_quantile : hist_view -> float -> float
(** Upper bound of the bucket containing the q-quantile observation
    (conservative); [infinity] when it falls in the overflow bucket, [nan]
    when the histogram is empty. *)

val render_prometheus : snapshot -> string
(** Prometheus text exposition format (HELP/TYPE lines, cumulative
    [_bucket{le=...}] series, [_sum] and [_count]). *)

val render_json : snapshot -> Iw_obs_json.t
(** Object keyed by metric name; histograms carry bounds, counts, sum,
    count, and unit. *)

val pp_text : Format.formatter -> snapshot -> unit
(** Human-readable dump: aligned counters and gauges, histograms with count,
    mean, and conservative p50/p90/p99. *)

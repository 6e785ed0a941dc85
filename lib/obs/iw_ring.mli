(** Fixed-size metric history ring: the last N windowed snapshots of a set
    of scalar series, O(N) memory however long the server runs.

    Live gauges answer "what is happening now"; the ring answers "what has
    been happening lately" without a Prometheus server in the loop.  Every
    [window_s] seconds the owner (the server's request path, lazily — no
    dedicated thread) folds its metric snapshot into one {!point}: a
    timestamp, the window's actual duration, and a flat [series -> value]
    list (counter {e rates}, gauge levels, histogram rate/percentile
    derivations — the owner chooses).  The ring keeps the newest
    [capacity] points and is served remotely by the [Metrics_history]
    protocol request, powering [iw-admin top]'s sparkline trend columns.

    Windows are {b merge-friendly}: {!merge_adjacent} combines consecutive
    points duration-weighted, so a 64-point ring renders honestly in a
    16-column sparkline — each merged cell is the time-weighted mean of
    what it covers, and rates stay rates.

    Thread-safe ([push]/[points] take an internal mutex). *)

type point = {
  p_t : float;  (** window end, seconds since epoch *)
  p_dur : float;  (** window length actually covered, seconds *)
  p_values : (string * float) list;  (** series name -> value *)
}

type t

val create : ?capacity:int -> ?window_s:float -> unit -> t
(** [capacity] points retained (default [64], min 1); [window_s] the
    owner's target roll interval (default [5.]) — advisory, stored here so
    owner and readers agree. *)

val capacity : t -> int

val window_s : t -> float

val push : t -> point -> unit
(** Append one window, evicting the oldest beyond [capacity]. *)

val points : t -> point list
(** Oldest first; at most [capacity]. *)

val clear : t -> unit

val merge_adjacent : target:int -> point list -> point list
(** Reduce to at most [target] points (min 1) by merging runs of
    consecutive points: merged [p_t] is the run's last timestamp, [p_dur]
    the summed durations, each value the duration-weighted mean of the
    run's values for that series (series absent from a point simply do not
    contribute).  Order is preserved. *)

(** An instrumented critical section — a [Mutex.t] wrapper that measures
    the cost of the lock it guards.

    The server instantiates one wrapper per shard (each shard's segments are
    served under the shard's own lock); [with_lock] brackets
    [Mutex.lock]/[Mutex.unlock] and per acquisition records

    - {b wait time} (blocked in [Mutex.lock]) and {b hold time} (lock owned)
      into [<prefix>_wait_us]/[<prefix>_hold_us] histograms, attributed per
      request variant and per segment when the caller labels the section;
    - live {b queue depth} (threads blocked waiting) and {b inflight}
      (threads waiting or holding) gauges, read by {!queue_depth} /
      {!inflight} — the server exposes them as collect-time probes;
    - a {b contention event} through {!set_on_contention} when the wait
      exceeds a threshold (default 10 ms) — the server wires this to its
      flight recorder, so "who was stuck behind whom" survives into crash
      dumps.

    The wrapper survived the shard split exactly as designed: callers name
    the section they want, not the mutex they got, so per-shard instances
    keep feeding the same aggregate series while [shard]-labeled series
    expose each shard individually.

    Thread-safe by construction; the depth counters are atomics, the
    histogram updates happen while the wrapped mutex is held (so they are
    serialized by it, not by extra locking). *)

type t

val create :
  ?metrics:Iw_metrics.t ->
  ?prefix:string ->
  ?shard:string ->
  ?contention_us:float ->
  Mutex.t ->
  t
(** Wrap [mutex].  With [metrics], wait/hold histograms are registered
    under [<prefix>_wait_us] / [<prefix>_hold_us] (default prefix
    [iw_lock]) with [variant]/[segment] labels as sections announce them.
    With [shard], every sample {e also} lands in a
    [<prefix>_wait_us{shard="..."}] / [..._hold_us{shard="..."}] pair —
    the registry deduplicates by name, so several per-shard instances
    sharing one registry still feed a single unlabeled aggregate series.
    [contention_us] is the wait threshold for {!set_on_contention} events
    (default [10_000.]). *)

val mutex : t -> Mutex.t
(** The wrapped mutex, for the few callers that need a bare
    [Mutex.lock]/[Mutex.unlock] pair (uninstrumented, but the same lock). *)

val with_lock :
  t ->
  ?variant:string ->
  ?segment:string ->
  ?extra_wait_us:float ->
  ?timer:Iw_phase.timer ->
  (unit -> 'a) ->
  'a
(** Run [f] with the lock held.  [variant]/[segment] label the recorded
    wait/hold samples ([""] = unlabeled, aggregate series only).
    [extra_wait_us] (default [0.]) is wait the caller already measured
    outside the mutex — a shard worker passes the request's mailbox queue
    time so the recorded wait and the contention threshold cover the whole
    time the request spent blocked, not just the (usually uncontended)
    final [Mutex.lock].  With [timer], the wait is bracketed as
    {!Iw_phase.Lock_wait} and the held section as {!Iw_phase.Service}.
    Exception-safe: the lock is released and the hold time recorded
    whatever [f] does. *)

val queue_depth : t -> int
(** Threads currently blocked in [Mutex.lock] under {!with_lock}. *)

val inflight : t -> int
(** Threads currently inside {!with_lock} — waiting or holding. *)

val set_on_contention :
  t -> (wait_us:float -> variant:string -> segment:string -> unit) -> unit
(** Called (with the lock held, so keep it cheap and reentrancy-free) after
    any acquisition that waited at least the [contention_us] threshold. *)

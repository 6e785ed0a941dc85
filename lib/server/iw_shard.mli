(** A shard's execution engine: a mailbox of jobs drained in batches by one
    dedicated OCaml 5 domain, with a group-commit flush hook between
    batches.

    The sharded server gives every segment exactly one owner.  In worker
    mode ([--domains N], N ≥ 2) each shard runs one of these: connection
    threads {!run} a closure and block on a per-request future; the shard's
    domain drains queued jobs in batches of at most 64 and runs
    them in arrival order, so all access to the shard's segments is
    single-threaded without the submitters ever contending on a segment
    lock.

    Group commit is the batch boundary: a job whose WAL append deferred its
    fsync (see {!Iw_store.begin_batch}) reports itself deferred, the worker
    withholds its completion, and after the batch it calls [flush] (one
    fsync per dirty log) before completing every deferred job at once.  A
    flush failure fails them all — nothing is acknowledged that is not
    durable. *)

type t

val create : ?queue_max:int -> flush:(unit -> unit) -> unit -> t
(** Spawn the worker domain.  [queue_max] (default: unbounded) bounds the
    mailbox: past it, non-urgent {!run} calls are refused with
    {!Overloaded} instead of queued — the admission gate overload control
    is built on.  [flush] runs on the worker domain with no locks held by
    this module. *)

val run : ?urgent:bool -> t -> defer:(unit -> bool) -> (unit -> 'a) -> 'a
(** Enqueue [f] and block until it completes.  [f] runs on the worker
    domain (the caller does its own shard locking inside [f]); its result
    or exception is relayed to this thread.  After [f] succeeds, [defer ()]
    is consulted (still on the worker): [true] parks the completion until
    the batch's [flush] has run — the group-commit path — and a flush
    exception replaces the result.  [urgent] (default [false]) bypasses the
    [queue_max] admission gate — reserved for work that frees resources
    (write-lock releases), which must never be refused lest the overloaded
    queue wedge on the locks it is itself waiting for.
    @raise Stopped if {!stop} was already called.
    @raise Overloaded (carrying the current depth) if the mailbox is full
    and [urgent] is false; nothing was enqueued. *)

val pending : t -> int
(** Jobs enqueued and not yet picked up by the worker — the shard's mailbox
    depth, exported through the server's queue-depth probe.  Safe from any
    thread, including metric collection. *)

val high_watermark : t -> int
(** The deepest [pending] has ever been — the queue high-watermark gauge.
    Safe from any thread. *)

val stop : t -> unit
(** Stop accepting jobs, drain everything already queued (running it
    normally, flush included), and join the worker domain.  Idempotent. *)

exception Stopped

exception Overloaded of int
(** Raised by {!run} at enqueue when the mailbox is at [queue_max]; the
    payload is the observed depth.  The job was NOT enqueued. *)

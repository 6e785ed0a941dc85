(** Durable segments: one append-only write-ahead log per store handle (one
    per server shard) of committed wire-format diffs, each record tagged with
    its segment's name, plus the crash-consistency primitives checkpoint
    files are built from.

    The server appends every committed update to its shard's log {e before}
    acknowledging the release, so a crash can only lose updates the client
    never saw acknowledged.  On startup the server loads the newest valid
    checkpoints and replays every log past them, routing each record to its
    segment by name; a torn or corrupt log tail — the normal shape of a
    crash mid-append — is truncated, not fatal.  Checkpoints are log
    barriers: once every segment of a shard is durably checkpointed its log
    is reset, so recovery cost is bounded by the checkpoint interval.

    On-disk layout (one directory per server): [<name>.ckpt] checkpoints with
    a whole-file CRC-32 trailer, [shard-<id>.wal] logs of length-prefixed
    CRC-32-protected records, and [.corrupt]-suffixed quarantined files that
    failed validation.

    Not thread-safe: each server shard owns a store handle and serializes its
    calls under the shard lock, and recovery runs before any connection is
    served. *)

(** {1 Fsync policy} *)

(** How eagerly appends reach stable storage.  Every append always reaches
    the kernel (a [kill -9] cannot lose it); fsync is what guards power loss
    and kernel crashes. *)
type fsync =
  | Always  (** fsync after every append: no acked update survives only in RAM *)
  | Interval of float  (** fsync at most once per that many seconds *)
  | Never  (** leave it to the kernel's writeback *)

val fsync_of_string : string -> (fsync, string) result
(** Parses ["always"], ["never"], ["interval"] (1 s), or
    ["interval:<seconds>"]. *)

val env_fsync : default:fsync -> fsync
(** The [IW_FSYNC] environment policy; unset or empty means [default].
    @raise Invalid_argument on an unparseable value — a bad durability policy
    is a startup error, not something to discover after the first ack. *)

val pp_fsync : Format.formatter -> fsync -> unit

(** {1 The store} *)

type t

val create :
  ?fsync:fsync ->
  ?journal:string ->
  ?metrics:Iw_metrics.t ->
  ?flight:Iw_flight.t ->
  string ->
  t
(** [create dir] opens (creating if needed) a durability directory.  [fsync]
    defaults to [Interval 1.0].  [journal] names this handle's log (default
    ["shard-0"], so [shard-0.wal]); server shards sharing one directory must
    each pass a distinct name.  The log is opened at the first append.
    [metrics] receives the [iw_store_*] instruments; omitted means they are
    recorded nowhere. *)

val dir : t -> string

val fsync_policy : t -> fsync

(** {1 Logged entries} *)

type entry =
  | Commit of {
      session : int;
          (** the releasing session — replay rebuilds the server's release
              dedup table from it, so a release retried across a restart is
              still answered with the committed version *)
      version : int;  (** the version this commit produced *)
      diff : Iw_wire.Diff.t;
    }
  | Desc of {
      serial : int;
      version : int;  (** segment version at registration time *)
      desc : Iw_types.desc;
    }

val append : t -> segment:string -> entry -> unit
(** Append one record ([u32] body length, [u32] CRC-32 of the body, body
    tagged with [segment]) and apply the fsync policy.  The first append to
    a fresh log writes a self-describing header record and fsyncs file and
    directory.  Call this {e before} acknowledging the update. *)

val truncate : t -> unit
(** Checkpoint barrier: reset the log to just its header record.  Call
    {e after} a checkpoint of every segment this handle logs is durably in
    place — crashing between the two merely leaves stale records that
    replay skips.  Inside an open batch the pending deferred fsync is
    cancelled: the checkpoints already made those records redundant. *)

(** {1 Group commit}

    A shard worker draining a batch of queued releases brackets it with
    [begin_batch]/[end_batch]: while the batch is open, [Always]-policy
    appends write their record to the kernel but defer the fsync, and
    [end_batch] makes the whole batch durable with {e one} fsync of the log,
    whatever segments it spans ([iw_store_group_commits_total],
    [iw_store_group_batch_records]).  The log-before-ack contract shifts
    accordingly: a deferred append's release must not be acknowledged (and
    its version must not become visible to reads) until [end_batch]
    returns — {!batch_dirty_segment} tells the caller whether its segment
    has anything still pending.  [Interval] and [Never] policies are
    unaffected.  An [end_batch] that fails to fsync raises, and the caller
    must fail every deferred acknowledgement. *)

val begin_batch : t -> unit
(** Open a deferral window.  Idempotent while a batch is open. *)

val end_batch : t -> unit
(** Fsync the log if the batch deferred anything, and close the window.
    A no-op when no batch is open. *)

val batch_dirty : t -> bool
(** Whether the open batch holds appends whose fsync is still deferred. *)

val batch_dirty_segment : t -> segment:string -> bool
(** Whether the open batch holds a still-deferred append for [segment]
    specifically.  Lets a read on one segment proceed immediately while a
    sibling segment's release is parked for the group fsync: the durability
    contract only forbids exposing the {e same} segment's un-fsynced
    version. *)

val recover_log : t -> file:string -> (string * entry) list option
(** Parse log [file] (a basename inside the store directory) for recovery:
    the entries of the good prefix, in append order, each paired with its
    segment's name.  A torn or corrupt tail is physically truncated (with a
    logged warning, metrics, and a flight event); a non-empty log with no
    readable header is quarantined as [<file>.corrupt] and an empty one
    removed, both yielding [None].
    @raise Failure naming the file when it holds a record of the older
    per-segment layout (a kind-1/2 body without a segment tag); the file is
    left untouched. *)

val log_path : t -> string
(** This handle's log file path. *)

val checkpoint_path : t -> string -> string
(** The checkpoint file path for a segment name. *)

val note_recovery_us : t -> float -> unit
(** Record one log's replay time in the [iw_store_recovery_us] histogram. *)

(** {1 Crash-consistency primitives}

    Used by the server's checkpoint writer and by the offline validator. *)

val checkpoint_magic : string
(** ["IWCKPT03"] — version 2 adds the CRC trailer, version 3 the
    release-dedup table (the checkpoint is a log barrier, so without it a
    release retried across checkpoint-then-crash is refused — Iw_model
    invariant MDL04).  Older files fail validation and are quarantined,
    falling back to log replay. *)

val seal : string -> string
(** Append a CRC-32 trailer over the whole body. *)

val unseal : string -> string option
(** Verify and strip the trailer; [None] on mismatch or truncation. *)

val write_atomically : string -> string -> unit
(** Write to a temporary, fsync it, rename over the destination, fsync the
    directory: after a crash the destination is either the old or the
    complete new content, never a prefix. *)

val fsync_dir : string -> unit

val quarantine : string -> string
(** Rename a file that failed validation to [<path>.corrupt] (keeping the
    evidence for the operator) and return the new path. *)

val escape_name : string -> string
(** Percent-escape a segment or log name into a filename. *)

val log_suffix : string

val checkpoint_suffix : string

(** {1 Offline validation}

    Everything [iw-check --store] can say about a durability directory
    without a server. *)

type tail =
  | Tail_clean
  | Tail_torn of string
      (** truncated length or body: consistent with a crash mid-append *)
  | Tail_corrupt of string  (** CRC mismatch or undecodable record *)

type segment_report = {
  sr_segment : string;
  sr_commits : int;
  sr_first_commit : int option;  (** first commit record's version *)
  sr_last_commit : int option;
  sr_gap : (int * int) option;
      (** [(expected, got)] at the segment's first version discontinuity *)
}

type log_report = {
  lr_file : string;
  lr_name : string option;  (** [None]: header record missing/unreadable *)
  lr_records : int;  (** valid records, header included *)
  lr_segments : segment_report list;  (** first-seen order *)
  lr_tail : tail;
}

val scan_log : string -> (log_report, string) result
(** Read-only scan of a log file; never modifies it.  A record of the older
    per-segment layout reads as [Tail_corrupt].  [Error] only when the file
    cannot be read at all. *)

val verify_checkpoint : string -> (string * int, string) result
(** Structural validation of a checkpoint file: CRC trailer, magic, and the
    leading name/version fields.  Returns [(segment_name, version)]. *)

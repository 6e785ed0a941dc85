(* Durability for segment servers: a per-segment append-only write-ahead log
   of committed wire-format diffs, plus the crash-consistency mechanics
   (atomic rename, fsync barriers, CRC trailers) that checkpoint files ride
   on.

   The contract is the classic one (cf. journaling filesystems and the
   verified-betrfs lineage): log the update durably BEFORE acknowledging it,
   make checkpoints atomic barriers that bound replay, and treat a torn or
   corrupt log tail as the expected shape of a crash — truncate it and keep
   the good prefix — rather than a fatal error.

   On-disk layout, one directory per server:

     <name>.ckpt          whole-segment checkpoint (written by Iw_server),
                          CRC-32 trailer over the whole body
     <name>.ckpt.corrupt  quarantined checkpoint that failed its CRC
     <name>.wal           the segment's write-ahead log
     <name>.wal.corrupt   quarantined log whose header was unreadable
     <journal>.jrnl       the store handle's group-commit journal (one per
                          server shard): every record a batch deferred, so
                          one journal fsync makes the whole batch durable

   WAL record format (all integers big-endian, as everywhere on the wire):

     u32 body_len | u32 crc32(body) | body

   and the body is a kind byte plus a payload:

     kind 0  header   u16-prefixed segment name (files are self-describing;
                      the escaped filename is only a convenience)
     kind 1  commit   u32 session, u32 version, Iw_wire.Diff (the diff
                      carries its own from_version; session + from_version
                      let the server rebuild its release-dedup table so a
                      release retried across a restart is still recognized)
     kind 2  desc     u32 serial, u32 registration version, descriptor
     kind 3  journal  u16-prefixed segment name, then a kind-1/2 body — a
                      copy of a segment-log record, redirected through the
                      shard journal (journal files only)

   Not thread-safe: each server shard owns a store handle and serializes its
   calls under the shard lock (a segment's log is only ever appended by its
   owning shard), and recovery runs before any connection is served. *)

type fsync =
  | Always
  | Interval of float
  | Never

let pp_fsync ppf = function
  | Always -> Format.fprintf ppf "always"
  | Interval s -> Format.fprintf ppf "interval:%gs" s
  | Never -> Format.fprintf ppf "never"

let fsync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 1.0)
  | s ->
    let prefix = "interval:" in
    if String.length s > String.length prefix
       && String.sub s 0 (String.length prefix) = prefix then begin
      let v = String.sub s (String.length prefix) (String.length s - String.length prefix) in
      let v = if Filename.check_suffix v "s" then Filename.chop_suffix v "s" else v in
      match float_of_string_opt v with
      | Some secs when secs >= 0.0 -> Ok (Interval secs)
      | Some _ -> Error (Printf.sprintf "%S: interval must be >= 0" s)
      | None -> Error (Printf.sprintf "%S: expected interval:<seconds>" s)
    end
    else
      Error
        (Printf.sprintf "%S: expected always, never, interval, or interval:<seconds>" s)

(* IW_FSYNC environment policy; an unparseable value is a startup error, not
   something to discover after the first commit was acked. *)
let env_fsync ~default =
  match Sys.getenv_opt "IW_FSYNC" with
  | None | Some "" -> default
  | Some s -> (
    match fsync_of_string s with
    | Ok f -> f
    | Error msg -> invalid_arg ("IW_FSYNC: " ^ msg))

type entry =
  | Commit of {
      session : int;
      version : int;
      diff : Iw_wire.Diff.t;
    }
  | Desc of {
      serial : int;
      version : int;
      desc : Iw_types.desc;
    }

(* Filenames mirror the server's checkpoint escaping so that a segment's
   .ckpt and .wal sort next to each other. *)
let escape_name name =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' ->
           String.make 1 c
         | c -> Printf.sprintf "%%%02x" (Char.code c))
       (List.init (String.length name) (String.get name)))

let log_suffix = ".wal"

let checkpoint_suffix = ".ckpt"

let journal_suffix = ".jrnl"

let checkpoint_magic = "IWCKPT03"

(* Low-level durability primitives. *)

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd buf off len in
      go (off + n) (len - n)
    end
  in
  go off len

(* Persist a directory entry (a rename or a fresh file) by fsyncing the
   directory itself; a no-op on systems that refuse O_RDONLY on directories. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* Crash-consistent file replacement: write to a temporary, fsync it, rename
   over the destination, fsync the directory.  After a crash the destination
   is either the old content or the complete new content, never a prefix. *)
let write_atomically path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      really_write fd (Bytes.unsafe_of_string data) 0 (String.length data);
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* CRC trailer over a whole file body: [seal] appends it, [unseal] verifies
   and strips it. *)
let seal body =
  let buf = Iw_wire.Buf.create ~capacity:(String.length body + 4) () in
  Iw_wire.Buf.add_string buf body;
  Iw_wire.Buf.u32 buf (Iw_wire.Crc32.string body);
  Iw_wire.Buf.contents buf

let unseal data =
  let n = String.length data in
  if n < 4 then None
  else begin
    let body = String.sub data 0 (n - 4) in
    let r = Iw_wire.Reader.of_string (String.sub data (n - 4) 4) in
    if Iw_wire.Reader.u32 r = Iw_wire.Crc32.string body then Some body else None
  end

(* Move a file that failed validation out of the way instead of deleting it:
   the operator may want the evidence, and recovery must not trip over it
   again on the next start. *)
let quarantine path =
  let dst = path ^ ".corrupt" in
  (try Sys.rename path dst with Sys_error _ -> ());
  dst

(* Record codec. *)

let encode_entry buf = function
  | Commit { session; version; diff } ->
    Iw_wire.Buf.u8 buf 1;
    Iw_wire.Buf.u32 buf session;
    Iw_wire.Buf.u32 buf version;
    Iw_wire.Diff.encode buf diff
  | Desc { serial; version; desc } ->
    Iw_wire.Buf.u8 buf 2;
    Iw_wire.Buf.u32 buf serial;
    Iw_wire.Buf.u32 buf version;
    Iw_wire.put_desc buf desc

(* A header body: kind 0 plus the segment name. *)
let header_body name =
  let buf = Iw_wire.Buf.create () in
  Iw_wire.Buf.u8 buf 0;
  Iw_wire.Buf.string buf name;
  Iw_wire.Buf.contents buf

(* A journal body: kind 3, the segment the record belongs to, then the
   segment-log record body (kind 1/2) verbatim. *)
let journal_body segment body =
  let buf =
    Iw_wire.Buf.create ~capacity:(String.length body + String.length segment + 8) ()
  in
  Iw_wire.Buf.u8 buf 3;
  Iw_wire.Buf.string buf segment;
  Iw_wire.Buf.add_string buf body;
  Iw_wire.Buf.contents buf

let frame_record body =
  let buf = Iw_wire.Buf.create ~capacity:(String.length body + 8) () in
  Iw_wire.Buf.u32 buf (String.length body);
  Iw_wire.Buf.u32 buf (Iw_wire.Crc32.string body);
  Iw_wire.Buf.add_string buf body;
  Iw_wire.Buf.contents buf

(* One parsed record, or the reason the scan stopped.  [Record] hands back
   the raw body; the caller decodes the kind. *)
type scan_stop =
  | Scan_eof
  | Scan_torn of string  (* truncated length/body: the normal crash shape *)
  | Scan_corrupt of string  (* CRC mismatch or undecodable body *)

let scan_records data ~f =
  let n = String.length data in
  let rec go off count =
    if off = n then (off, count, Scan_eof)
    else if n - off < 8 then (off, count, Scan_torn "truncated record length")
    else begin
      let r = Iw_wire.Reader.of_string (String.sub data off 8) in
      let len = Iw_wire.Reader.u32 r in
      let crc = Iw_wire.Reader.u32 r in
      if n - off - 8 < len then (off, count, Scan_torn "truncated record body")
      else if Iw_wire.Crc32.update 0 data ~off:(off + 8) ~len <> crc then
        (off, count, Scan_corrupt "record CRC mismatch")
      else begin
        match f (String.sub data (off + 8) len) with
        | () -> go (off + 8 + len) (count + 1)
        | exception Iw_wire.Malformed msg ->
          (off, count, Scan_corrupt ("undecodable record: " ^ msg))
      end
    end
  in
  go 0 0

let decode_entry r = function
  | 1 ->
    let session = Iw_wire.Reader.u32 r in
    let version = Iw_wire.Reader.u32 r in
    let diff = Iw_wire.Diff.decode r in
    Commit { session; version; diff }
  | 2 ->
    let serial = Iw_wire.Reader.u32 r in
    let version = Iw_wire.Reader.u32 r in
    let desc = Iw_wire.get_desc r in
    Desc { serial; version; desc }
  | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown WAL record kind %d" t))

let decode_body body k =
  let r = Iw_wire.Reader.of_string body in
  match Iw_wire.Reader.u8 r with
  | 0 -> k (`Header (Iw_wire.Reader.string r))
  | 3 ->
    let segment = Iw_wire.Reader.string r in
    k (`Journal (segment, decode_entry r (Iw_wire.Reader.u8 r)))
  | t -> k (`Entry (decode_entry r t))

(* The store. *)

type log = {
  l_fd : Unix.file_descr;
  mutable l_last_sync : float;
}

type t = {
  t_dir : string;
  t_fsync : fsync;
  t_flight : Iw_flight.t option;
  t_logs : (string, log) Hashtbl.t;  (* segment -> open log *)
  t_journal_name : string;  (* this handle's journal file basename *)
  mutable t_journal : log option;  (* open lazily, at the first journaled batch *)
  (* Group commit: while a batch is open, appends under [Always] skip their
     per-record fsync and park the dirty log here; [end_batch] makes the
     whole batch durable with one fsync — of the single dirty log, or of the
     shard journal (into which [t_batch_pending]'s record bodies are copied)
     when the batch spans several segments' logs. *)
  mutable t_batch : (string, log) Hashtbl.t option;
  mutable t_batch_records : int;
  mutable t_batch_pending : (string * string) list;  (* (segment, body), reversed *)
  m_appended : Iw_metrics.counter;
  m_append_bytes : Iw_metrics.counter;
  m_replayed : Iw_metrics.counter;
  m_truncations : Iw_metrics.counter;
  m_truncated_bytes : Iw_metrics.counter;
  m_fsync_us : Iw_metrics.histogram;
  m_recovery_us : Iw_metrics.histogram;
  m_group_commits : Iw_metrics.counter;
  m_group_batch_records : Iw_metrics.histogram;
  m_journal_records : Iw_metrics.counter;
}

let create ?(fsync = Interval 1.0) ?(journal = "journal") ?metrics ?flight dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let m =
    match metrics with
    | Some m -> m
    | None -> Iw_metrics.create ~enabled:false ()
  in
  {
    t_dir = dir;
    t_fsync = fsync;
    t_flight = flight;
    t_logs = Hashtbl.create 8;
    t_journal_name = journal;
    t_journal = None;
    t_batch = None;
    t_batch_records = 0;
    t_batch_pending = [];
    m_appended =
      Iw_metrics.counter m ~help:"WAL records appended" "iw_store_records_appended_total";
    m_append_bytes =
      Iw_metrics.counter m ~help:"WAL bytes appended" "iw_store_append_bytes_total";
    m_replayed =
      Iw_metrics.counter m ~help:"WAL records replayed at recovery"
        "iw_store_records_replayed_total";
    m_truncations =
      Iw_metrics.counter m
        ~help:"Torn or corrupt WAL tails truncated at recovery"
        "iw_store_records_truncated_total";
    m_truncated_bytes =
      Iw_metrics.counter m ~help:"WAL tail bytes discarded at recovery"
        "iw_store_truncated_bytes_total";
    m_fsync_us =
      Iw_metrics.histogram_us m ~help:"WAL fsync latency" "iw_store_fsync_us";
    m_recovery_us =
      Iw_metrics.histogram_us m ~help:"Segment recovery time (checkpoint + replay)"
        "iw_store_recovery_us";
    m_group_commits =
      Iw_metrics.counter m ~help:"Group-commit flushes (one per batch with dirty logs)"
        "iw_store_group_commits_total";
    m_group_batch_records =
      Iw_metrics.histogram_count m
        ~help:"Records whose fsync was deferred, per group-commit flush"
        "iw_store_group_batch_records";
    m_journal_records =
      Iw_metrics.counter m
        ~help:"Records redirected through the shard journal (group commit)"
        "iw_store_journal_records_total";
  }

let dir t = t.t_dir

let fsync_policy t = t.t_fsync

let note_recovery_us t us = Iw_metrics.observe t.m_recovery_us us

let log_path t segment = Filename.concat t.t_dir (escape_name segment ^ log_suffix)

let checkpoint_path t segment =
  Filename.concat t.t_dir (escape_name segment ^ checkpoint_suffix)

let journal_path t =
  Filename.concat t.t_dir (escape_name t.t_journal_name ^ journal_suffix)

let do_fsync t log =
  let t0 = Iw_metrics.now_us () in
  Unix.fsync log.l_fd;
  Iw_metrics.observe t.m_fsync_us (Iw_metrics.now_us () -. t0);
  log.l_last_sync <- Unix.gettimeofday ()

let maybe_fsync t log =
  match t.t_fsync with
  | Always -> do_fsync t log
  | Never -> ()
  | Interval secs ->
    if Unix.gettimeofday () -. log.l_last_sync >= secs then do_fsync t log

let write_record t log record =
  really_write log.l_fd (Bytes.unsafe_of_string record) 0 (String.length record);
  Iw_metrics.incr t.m_appended;
  Iw_metrics.incr ~by:(String.length record) t.m_append_bytes

let open_log t segment =
  match Hashtbl.find_opt t.t_logs segment with
  | Some log -> log
  | None ->
    let path = log_path t segment in
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let log = { l_fd = fd; l_last_sync = Unix.gettimeofday () } in
    (* A fresh (empty) log starts with its header record so the file is
       self-describing even if the directory is later reassembled by hand. *)
    if (Unix.fstat fd).Unix.st_size = 0 then begin
      write_record t log (frame_record (header_body segment));
      (* The header must hit the directory too: a log whose first record is
         torn is indistinguishable from corruption. *)
      do_fsync t log;
      fsync_dir t.t_dir
    end;
    Hashtbl.replace t.t_logs segment log;
    log

(* The shard journal: one append-only file per store handle.  Same framing
   as a segment log; its header record carries the journal name, and every
   later record is a kind-3 redirect wrapping a segment-log body. *)
let open_journal t =
  match t.t_journal with
  | Some log -> log
  | None ->
    let path = journal_path t in
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let log = { l_fd = fd; l_last_sync = Unix.gettimeofday () } in
    if (Unix.fstat fd).Unix.st_size = 0 then begin
      let header = frame_record (header_body t.t_journal_name) in
      really_write fd (Bytes.unsafe_of_string header) 0 (String.length header);
      do_fsync t log;
      fsync_dir t.t_dir
    end;
    t.t_journal <- Some log;
    log

(* Drop the journal: every record it covers is durable elsewhere — in a
   checkpoint (the caller just checkpointed every segment this handle owns)
   or in a healed segment log (recovery).  The next journaled batch starts a
   fresh file. *)
let reset_journal t =
  (match t.t_journal with
  | Some log ->
    (try Unix.close log.l_fd with Unix.Unix_error _ -> ());
    t.t_journal <- None
  | None -> ());
  let path = journal_path t in
  if Sys.file_exists path then begin
    (try Sys.remove path with Sys_error _ -> ());
    fsync_dir t.t_dir
  end

(* Append one entry and make it as durable as the policy promises before the
   caller acknowledges anything.  The write itself always reaches the kernel
   (a later kill -9 cannot lose it); fsync is what guards power loss.

   Inside an open batch an [Always]-policy append defers its fsync to
   [end_batch]; the caller must then defer the acknowledgement too.
   [durable] forces an immediate fsync regardless of policy or batch —
   recovery uses it to heal journal-only records into the log. *)
let append ?(durable = false) t ~segment entry =
  let log = open_log t segment in
  let buf = Iw_wire.Buf.create ~capacity:256 () in
  encode_entry buf entry;
  let body = Iw_wire.Buf.contents buf in
  write_record t log (frame_record body);
  if durable then do_fsync t log
  else
    match t.t_batch, t.t_fsync with
    | Some dirty, Always ->
      Hashtbl.replace dirty segment log;
      t.t_batch_records <- t.t_batch_records + 1;
      t.t_batch_pending <- (segment, body) :: t.t_batch_pending
    | _ -> maybe_fsync t log

(* Group commit.  [begin_batch] opens a deferral window; [end_batch] closes
   it with ONE fsync for the whole batch: of the single dirty log when the
   batch stayed within one segment, or of the shard journal — into which
   every deferred record body is copied — when it spans several.  Copying
   through the journal is what lets concurrent releases on different
   segments (each with its own log file) share a single fsync; the segment
   logs stay kernel-buffered, and recovery replays the journal after the
   logs to cover a power loss.  Only the [Always] policy defers:
   [Interval]/[Never] already decouple appends from fsyncs, so batching
   would change nothing. *)
let begin_batch t =
  if t.t_batch = None then begin
    t.t_batch <- Some (Hashtbl.create 4);
    t.t_batch_records <- 0;
    t.t_batch_pending <- []
  end

let batch_dirty t =
  match t.t_batch with
  | Some dirty -> Hashtbl.length dirty > 0
  | None -> false

let batch_dirty_segment t ~segment =
  match t.t_batch with
  | Some dirty -> Hashtbl.mem dirty segment
  | None -> false

let end_batch t =
  match t.t_batch with
  | None -> ()
  | Some dirty ->
    let pending = List.rev t.t_batch_pending in
    t.t_batch <- None;
    t.t_batch_pending <- [];
    if Hashtbl.length dirty > 0 then begin
      (if Hashtbl.length dirty = 1 then
         (* One segment dirtied: its own fsync is the same single syscall,
            and skipping the journal keeps it from growing needlessly. *)
         Hashtbl.iter (fun _ log -> do_fsync t log) dirty
       else begin
         let jlog = open_journal t in
         let buf = Buffer.create 1024 in
         List.iter
           (fun (segment, body) ->
             Buffer.add_string buf (frame_record (journal_body segment body)))
           pending;
         let data = Buffer.contents buf in
         really_write jlog.l_fd (Bytes.unsafe_of_string data) 0 (String.length data);
         Iw_metrics.incr ~by:(List.length pending) t.m_journal_records;
         Iw_metrics.incr ~by:(String.length data) t.m_append_bytes;
         do_fsync t jlog
       end);
      Iw_metrics.incr t.m_group_commits;
      Iw_metrics.observe t.m_group_batch_records (float_of_int t.t_batch_records)
    end;
    t.t_batch_records <- 0

(* Checkpoint barrier: the caller has just renamed a durable checkpoint into
   place, so everything the log recorded is now redundant — reset it to just
   its header.  Crash ordering: the checkpoint is durable first, so losing
   the truncation merely leaves stale records that replay will skip. *)
let truncate t ~segment =
  (* The checkpoint that triggered this truncation made every logged record
     redundant, so a pending deferred fsync for this segment is moot — and
     its parked fd is about to be closed.  Its queued journal copies go
     too: writing them later would only be skipped at replay. *)
  (match t.t_batch with
  | Some dirty ->
    Hashtbl.remove dirty segment;
    t.t_batch_pending <- List.filter (fun (s, _) -> s <> segment) t.t_batch_pending
  | None -> ());
  (match Hashtbl.find_opt t.t_logs segment with
  | Some log ->
    (try Unix.close log.l_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.t_logs segment
  | None -> ());
  let path = log_path t segment in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let log = { l_fd = fd; l_last_sync = Unix.gettimeofday () } in
  write_record t log (frame_record (header_body segment));
  do_fsync t log;
  Hashtbl.replace t.t_logs segment log

let flight_note t ?version ~segment event =
  match t.t_flight with
  | Some f -> Iw_flight.record f ~segment ?version event
  | None -> ()

(* Read a log file for recovery: parse its good prefix, physically truncate
   anything after it (a torn tail is the normal shape of a crash mid-append),
   and hand back the segment name and entries.  A log whose header record is
   unreadable tells us nothing trustworthy about any segment: quarantine it
   whole.  [file] is a name inside the store directory. *)
let recover_log t ~file =
  let path = Filename.concat t.t_dir file in
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let segment = ref None in
  let entries = ref [] in
  let good_off, _, stop =
    scan_records data ~f:(fun body ->
        decode_body body (function
          | `Header name -> if !segment = None then segment := Some name
          | `Entry e -> entries := e :: !entries
          | `Journal _ ->
            raise (Iw_wire.Malformed "journal record in a segment log")))
  in
  (match stop with
  | Scan_eof -> ()
  | Scan_torn reason | Scan_corrupt reason ->
    (* Keep the good prefix on disk exactly as parsed; later appends must
       not land after garbage. *)
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.ftruncate fd good_off;
        Unix.fsync fd);
    Iw_metrics.incr t.m_truncations;
    Iw_metrics.incr ~by:(String.length data - good_off) t.m_truncated_bytes;
    (match !segment with
    | Some s -> flight_note t ~segment:s "store_truncate"
    | None -> ());
    Printf.eprintf "iw-store: %s: %s at byte %d; truncated %d trailing byte(s)\n%!"
      path reason good_off
      (String.length data - good_off));
  match !segment with
  | None ->
    if String.length data > 0 then begin
      let dst = quarantine path in
      Printf.eprintf "iw-store: %s: no readable header record; quarantined as %s\n%!"
        path dst
    end
    else (try Sys.remove path with Sys_error _ -> ());
    None
  | Some name ->
    let entries = List.rev !entries in
    Iw_metrics.incr ~by:(List.length entries) t.m_replayed;
    Some (name, entries)

(* Read a shard journal for recovery: the good prefix's redirect records, in
   append order, each naming the segment its body belongs to.  A torn tail
   is records whose [end_batch] fsync never completed — no acknowledgement
   went out for them, so using the good prefix loses nothing promised.  The
   file is read-only here; the caller discards it (see [discard_journal])
   once every surviving record is durable in its segment's log again. *)
let recover_journal t ~file =
  let path = Filename.concat t.t_dir file in
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let entries = ref [] in
  let _, _, stop =
    scan_records data ~f:(fun body ->
        decode_body body (function
          | `Header _ -> ()
          | `Journal (segment, e) -> entries := (segment, e) :: !entries
          | `Entry _ ->
            raise (Iw_wire.Malformed "segment-log record in a shard journal")))
  in
  (match stop with
  | Scan_eof -> ()
  | Scan_torn reason | Scan_corrupt reason ->
    Printf.eprintf "iw-store: %s: %s; using the journal's good prefix\n%!" path
      reason);
  List.rev !entries

let discard_journal t ~file =
  (try Sys.remove (Filename.concat t.t_dir file) with Sys_error _ -> ());
  fsync_dir t.t_dir

(* Offline validation (iw-check --store): everything a reader can say about
   a durability directory without a server. *)

type tail =
  | Tail_clean
  | Tail_torn of string
  | Tail_corrupt of string

type log_report = {
  lr_file : string;
  lr_segment : string option;
  lr_records : int;
  lr_commits : int;
  lr_first_commit : int option;  (* first commit record's version *)
  lr_last_commit : int option;
  lr_gap : (int * int) option;  (* (expected, got) at the first discontinuity *)
  lr_tail : tail;
}

let scan_log path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let segment = ref None in
    let commits = ref 0 in
    let first = ref None in
    let last = ref None in
    let gap = ref None in
    let _, records, stop =
      scan_records data ~f:(fun body ->
          decode_body body (function
            | `Header name -> if !segment = None then segment := Some name
            | `Entry (Commit { version; _ }) ->
              incr commits;
              if !first = None then first := Some version;
              (match !last with
              | Some prev when version <> prev + 1 && !gap = None ->
                gap := Some (prev + 1, version)
              | _ -> ());
              last := Some version
            | `Entry (Desc _) -> ()
            | `Journal _ ->
              raise (Iw_wire.Malformed "journal record in a segment log")))
    in
    Ok
      {
        lr_file = Filename.basename path;
        lr_segment = !segment;
        lr_records = records;
        lr_commits = !commits;
        lr_first_commit = !first;
        lr_last_commit = !last;
        lr_gap = !gap;
        lr_tail =
          (match stop with
          | Scan_eof -> Tail_clean
          | Scan_torn r -> Tail_torn r
          | Scan_corrupt r -> Tail_corrupt r);
      }

type journal_report = {
  jr_file : string;
  jr_records : int;  (* redirect records (header excluded) *)
  jr_commits : int;
  jr_segments : string list;  (* distinct segment names, first-seen order *)
  jr_tail : tail;
}

(* Read-only scan of a shard journal, the offline counterpart of
   [recover_journal].  A torn tail is normal (an [end_batch] fsync the crash
   interrupted); a corrupt record or a non-redirect body is not. *)
let scan_journal path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let commits = ref 0 in
    let redirects = ref 0 in
    let segments = ref [] in
    let _, _, stop =
      scan_records data ~f:(fun body ->
          decode_body body (function
            | `Header _ -> ()
            | `Journal (segment, e) ->
              incr redirects;
              (match e with Commit _ -> incr commits | Desc _ -> ());
              if not (List.mem segment !segments) then
                segments := segment :: !segments
            | `Entry _ ->
              raise (Iw_wire.Malformed "segment-log record in a shard journal")))
    in
    Ok
      {
        jr_file = Filename.basename path;
        jr_records = !redirects;
        jr_commits = !commits;
        jr_segments = List.rev !segments;
        jr_tail =
          (match stop with
          | Scan_eof -> Tail_clean
          | Scan_torn r -> Tail_torn r
          | Scan_corrupt r -> Tail_corrupt r);
      }

(* Structural checkpoint validation: magic, CRC trailer, and the leading
   name/version fields.  The full body decode needs the server's segment
   structures; this is the part an offline tool can vouch for. *)
let verify_checkpoint path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match unseal data with
    | None -> Error "CRC trailer mismatch (corrupt or truncated)"
    | Some body -> (
      let r = Iw_wire.Reader.of_string body in
      match
        let magic = Iw_wire.Reader.string r in
        if magic <> checkpoint_magic then
          raise
            (Iw_wire.Malformed
               (Printf.sprintf "bad checkpoint magic %S (want %S)" magic
                  checkpoint_magic));
        let name = Iw_wire.Reader.string r in
        let version = Iw_wire.Reader.u32 r in
        (name, version)
      with
      | pair -> Ok pair
      | exception Iw_wire.Malformed msg -> Error msg))

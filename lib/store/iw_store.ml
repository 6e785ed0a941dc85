(* Durability for segment servers: one append-only write-ahead log per
   store handle (one per server shard) of committed wire-format diffs, each
   record tagged with its segment's name, plus the crash-consistency
   mechanics (atomic rename, fsync barriers, CRC trailers) that checkpoint
   files ride on.

   The contract is the classic one (cf. journaling filesystems and the
   verified-betrfs lineage): log the update durably BEFORE acknowledging it,
   make checkpoints atomic barriers that bound replay, and treat a torn or
   corrupt log tail as the expected shape of a crash — truncate it and keep
   the good prefix — rather than a fatal error.

   On-disk layout, one directory per server:

     <name>.ckpt          whole-segment checkpoint (written by Iw_server),
                          CRC-32 trailer over the whole body
     <name>.ckpt.corrupt  quarantined checkpoint that failed its CRC
     shard-<id>.wal       a shard's write-ahead log: the records of every
                          segment the shard owns, interleaved in append
                          order, so one fsync makes a whole batch durable
     shard-<id>.wal.corrupt
                          quarantined log (unreadable header, or a segment
                          whose replay stopped)

   WAL record format (all integers big-endian, as everywhere on the wire):

     u32 body_len | u32 crc32(body) | body

   and the body is a kind byte plus a payload:

     kind 0  header   u16-prefixed log name (files are self-describing)
     kind 3  record   u16-prefixed segment name, then one of
       kind 1  commit   u32 session, u32 version, Iw_wire.Diff (the diff
                        carries its own from_version; session + from_version
                        let the server rebuild its release-dedup table so a
                        release retried across a restart is still
                        recognized)
       kind 2  desc     u32 serial, u32 registration version, descriptor

   A kind 1 or 2 body outside a kind-3 record is the older per-segment log
   layout; recovery refuses it rather than guess.

   Not thread-safe: each server shard owns a store handle and serializes its
   calls under the shard lock, and recovery runs before any connection is
   served. *)

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

(* A record body: kind 3, the segment the entry belongs to, then the entry
   (kind 1/2). *)
let encode_record buf ~segment = function
  | Commit { session; version; diff } ->
    Iw_wire.Buf.u8 buf 3;
    Iw_wire.Buf.string buf segment;
    Iw_wire.Buf.u8 buf 1;
    Iw_wire.Buf.u32 buf session;
    Iw_wire.Buf.u32 buf version;
    Iw_wire.Diff.encode buf diff
  | Desc { serial; version; desc } ->
    Iw_wire.Buf.u8 buf 3;
    Iw_wire.Buf.string buf segment;
    Iw_wire.Buf.u8 buf 2;
    Iw_wire.Buf.u32 buf serial;
    Iw_wire.Buf.u32 buf version;
    Iw_wire.put_desc buf desc

(* A header body: kind 0 plus the log name. *)
let header_body name =
  let buf = Iw_wire.Buf.create () in
  Iw_wire.Buf.u8 buf 0;
  Iw_wire.Buf.string buf name;
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

let decode_body body =
  let r = Iw_wire.Reader.of_string body in
  match Iw_wire.Reader.u8 r with
  | 0 -> `Header (Iw_wire.Reader.string r)
  | 3 ->
    let segment = Iw_wire.Reader.string r in
    `Record (segment, decode_entry r (Iw_wire.Reader.u8 r))
  | 1 | 2 -> `Untagged
  | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown WAL record kind %d" t))

let untagged_layout = "untagged record: a per-segment log from an older store layout"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The store. *)

type log = {
  l_fd : Unix.file_descr;
  mutable l_last_sync : float;
}

type t = {
  t_dir : string;
  t_fsync : fsync;
  t_flight : Iw_flight.t option;
  t_name : string;  (* the log's basename, without the suffix *)
  mutable t_log : log option;  (* opened lazily, at the first append *)
  (* Group commit: while a batch is open, appends under [Always] skip their
     per-record fsync and note their segment here; [end_batch] makes the
     whole batch durable with one fsync of the log. *)
  mutable t_batch : (string, unit) Hashtbl.t option;
  mutable t_batch_records : int;
  m_appended : Iw_metrics.counter;
  m_append_bytes : Iw_metrics.counter;
  m_replayed : Iw_metrics.counter;
  m_truncations : Iw_metrics.counter;
  m_truncated_bytes : Iw_metrics.counter;
  m_fsync_us : Iw_metrics.histogram;
  m_recovery_us : Iw_metrics.histogram;
  m_group_commits : Iw_metrics.counter;
  m_group_batch_records : Iw_metrics.histogram;
}

let create ?(fsync = Interval 1.0) ?(journal = "shard-0") ?metrics ?flight dir =
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
    t_name = journal;
    t_log = None;
    t_batch = None;
    t_batch_records = 0;
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
      Iw_metrics.histogram_us m ~help:"Log replay time at recovery, per log"
        "iw_store_recovery_us";
    m_group_commits =
      Iw_metrics.counter m ~help:"Group-commit flushes (one per batch with a dirty log)"
        "iw_store_group_commits_total";
    m_group_batch_records =
      Iw_metrics.histogram_count m
        ~help:"Records whose fsync was deferred, per group-commit flush"
        "iw_store_group_batch_records";
  }

let dir t = t.t_dir

let fsync_policy t = t.t_fsync

let note_recovery_us t us = Iw_metrics.observe t.m_recovery_us us

let log_path t = Filename.concat t.t_dir (escape_name t.t_name ^ log_suffix)

let checkpoint_path t segment =
  Filename.concat t.t_dir (escape_name segment ^ checkpoint_suffix)

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

(* Open the log for appending.  A fresh (empty) log starts with its header
   record so the file is self-describing. *)
let open_log t flags =
  let fd = Unix.openfile (log_path t) (Unix.O_WRONLY :: Unix.O_CREAT :: flags) 0o644 in
  let log = { l_fd = fd; l_last_sync = Unix.gettimeofday () } in
  if (Unix.fstat fd).Unix.st_size = 0 then begin
    write_record t log (frame_record (header_body t.t_name));
    (* The header must hit the directory too: a log whose first record is
       torn is indistinguishable from corruption. *)
    do_fsync t log;
    fsync_dir t.t_dir
  end;
  t.t_log <- Some log;
  log

(* Append one entry and make it as durable as the policy promises before the
   caller acknowledges anything.  The write itself always reaches the kernel
   (a later kill -9 cannot lose it); fsync is what guards power loss.
   Inside an open batch an [Always]-policy append defers its fsync to
   [end_batch]; the caller must then defer the acknowledgement too. *)
let append t ~segment entry =
  let log =
    match t.t_log with
    | Some log -> log
    | None -> open_log t [ Unix.O_APPEND ]
  in
  let buf = Iw_wire.Buf.create ~capacity:256 () in
  encode_record buf ~segment entry;
  write_record t log (frame_record (Iw_wire.Buf.contents buf));
  match t.t_batch, t.t_fsync with
  | Some dirty, Always ->
    Hashtbl.replace dirty segment ();
    t.t_batch_records <- t.t_batch_records + 1
  | _ -> maybe_fsync t log

(* Group commit.  [begin_batch] opens a deferral window; [end_batch] closes
   it with ONE fsync of the log, whatever segments the batch spans.  Only
   the [Always] policy defers: [Interval]/[Never] already decouple appends
   from fsyncs, so batching would change nothing. *)
let begin_batch t =
  if t.t_batch = None then begin
    t.t_batch <- Some (Hashtbl.create 4);
    t.t_batch_records <- 0
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
    t.t_batch <- None;
    (match t.t_log with
    | Some log when Hashtbl.length dirty > 0 ->
      do_fsync t log;
      Iw_metrics.incr t.m_group_commits;
      Iw_metrics.observe t.m_group_batch_records (float_of_int t.t_batch_records)
    | _ -> ());
    t.t_batch_records <- 0

(* Checkpoint barrier: the caller has just renamed a durable checkpoint of
   every segment this handle logs into place, so everything the log
   recorded is now redundant — reset it to just its header, and cancel the
   open batch's deferred fsync (its records are covered too).  Crash
   ordering: the checkpoints are durable first, so losing the truncation
   merely leaves stale records that replay will skip.  A handle that has not
   appended yet has no log to reset: recovery removed every log it read. *)
let truncate t =
  (match t.t_batch with Some dirty -> Hashtbl.reset dirty | None -> ());
  match t.t_log with
  | Some log ->
    (try Unix.close log.l_fd with Unix.Unix_error _ -> ());
    t.t_log <- None;
    ignore (open_log t [ Unix.O_TRUNC ] : log)
  | None -> ()

(* Read a log file for recovery: parse its good prefix, physically truncate
   anything after it (a torn tail is the normal shape of a crash mid-append),
   and hand back the tagged entries.  A log whose header record is
   unreadable tells us nothing trustworthy: quarantine it whole.  A log in
   the older per-segment layout is refused before anything is touched.
   [file] is a name inside the store directory. *)
let recover_log t ~file =
  let path = Filename.concat t.t_dir file in
  let data = read_file path in
  let header = ref false in
  let entries = ref [] in
  let good_off, _, stop =
    scan_records data ~f:(fun body ->
        match decode_body body with
        | `Header _ -> header := true
        | `Record r -> entries := r :: !entries
        | `Untagged -> failwith (Printf.sprintf "%s: %s" path untagged_layout))
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
    Option.iter (fun f -> Iw_flight.record f ~segment:file "store_truncate") t.t_flight;
    Printf.eprintf "iw-store: %s: %s at byte %d; truncated %d trailing byte(s)\n%!"
      path reason good_off
      (String.length data - good_off));
  if not !header then begin
    if String.length data > 0 then begin
      let dst = quarantine path in
      Printf.eprintf "iw-store: %s: no readable header record; quarantined as %s\n%!"
        path dst
    end
    else (try Sys.remove path with Sys_error _ -> ());
    None
  end
  else begin
    let entries = List.rev !entries in
    Iw_metrics.incr ~by:(List.length entries) t.m_replayed;
    Some entries
  end

(* Offline validation (iw-check --store): everything a reader can say about
   a durability directory without a server. *)

type tail =
  | Tail_clean
  | Tail_torn of string
  | Tail_corrupt of string

type segment_report = {
  sr_segment : string;
  sr_commits : int;
  sr_first_commit : int option;
  sr_last_commit : int option;
  sr_gap : (int * int) option;
}

type log_report = {
  lr_file : string;
  lr_name : string option;
  lr_records : int;
  lr_segments : segment_report list;
  lr_tail : tail;
}

let scan_log path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | data ->
    let name = ref None in
    let by_segment = Hashtbl.create 8 in
    let order = ref [] in  (* segments in first-seen order, reversed *)
    let note segment version =
      let sr =
        match Hashtbl.find_opt by_segment segment with
        | Some sr -> sr
        | None ->
          order := segment :: !order;
          {
            sr_segment = segment;
            sr_commits = 0;
            sr_first_commit = None;
            sr_last_commit = None;
            sr_gap = None;
          }
      in
      let sr =
        match version with
        | None -> sr
        | Some v ->
          {
            sr with
            sr_commits = sr.sr_commits + 1;
            sr_first_commit =
              (if sr.sr_first_commit = None then Some v else sr.sr_first_commit);
            sr_last_commit = Some v;
            sr_gap =
              (match sr.sr_last_commit with
              | Some prev when v <> prev + 1 && sr.sr_gap = None -> Some (prev + 1, v)
              | _ -> sr.sr_gap);
          }
      in
      Hashtbl.replace by_segment segment sr
    in
    let _, records, stop =
      scan_records data ~f:(fun body ->
          match decode_body body with
          | `Header n -> if !name = None then name := Some n
          | `Record (segment, Commit { version; _ }) -> note segment (Some version)
          | `Record (segment, Desc _) -> note segment None
          | `Untagged -> raise (Iw_wire.Malformed untagged_layout))
    in
    Ok
      {
        lr_file = Filename.basename path;
        lr_name = !name;
        lr_records = records;
        lr_segments = List.rev_map (Hashtbl.find by_segment) !order;
        lr_tail =
          (match stop with
          | Scan_eof -> Tail_clean
          | Scan_torn r -> Tail_torn r
          | Scan_corrupt r -> Tail_corrupt r);
      }

(* Structural checkpoint validation: magic, CRC trailer, and the leading
   name/version fields.  The full body decode needs the server's segment
   structures; this is the part an offline tool can vouch for. *)
let verify_checkpoint path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | data -> (
    match unseal data with
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

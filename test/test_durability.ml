(* The durability layer: fsync-policy parsing, write-ahead-log record
   roundtrips, torn/corrupt tail handling, checkpoint sealing and
   quarantine, frame CRCs, and the acceptance scenarios — a server killed
   with SIGKILL mid-stream recovering every acknowledged version, and a
   checkpoint bounding the log it barriers. *)

module I = Interweave

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let tmpdir () =
  let d = Filename.temp_file "iwdur" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Fsync policy *)

let test_fsync_policy () =
  let ok s p =
    match Iw_store.fsync_of_string s with
    | Ok got -> Alcotest.(check bool) (Printf.sprintf "%S parses" s) true (got = p)
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  ok "always" Iw_store.Always;
  ok "never" Iw_store.Never;
  ok "interval" (Iw_store.Interval 1.0);
  ok "interval:0.25" (Iw_store.Interval 0.25);
  ok "interval:2s" (Iw_store.Interval 2.0);
  let rejects s =
    match Iw_store.fsync_of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  rejects "sometimes";
  rejects "interval:-1";
  rejects "interval:fast";
  Unix.putenv "IW_FSYNC" "never";
  Fun.protect ~finally:(fun () -> Unix.putenv "IW_FSYNC" "")
  @@ fun () ->
  Alcotest.(check bool) "IW_FSYNC wins over default" true
    (Iw_store.env_fsync ~default:Iw_store.Always = Iw_store.Never)

(* Log records *)

let u32s vs =
  let b = Iw_wire.Buf.create () in
  List.iter (Iw_wire.Buf.u32 b) vs;
  Iw_wire.Buf.contents b

let commit ~session ~version =
  Iw_store.Commit
    {
      session;
      version;
      diff =
        {
          Iw_wire.Diff.from_version = version - 1;
          to_version = version;
          new_descs = [];
          changes =
            [
              Iw_wire.Diff.Update
                {
                  serial = 1;
                  runs =
                    [ { Iw_wire.Diff.start_pu = 0; len_pu = 1; payload = u32s [ version ] } ];
                };
            ];
        };
    }

let test_wal_roundtrip () =
  let dir = tmpdir () in
  let s = Iw_store.create ~fsync:Iw_store.Never dir in
  let entries =
    [
      ("dur/a b", Iw_store.Desc { serial = 7; version = 0; desc = Iw_types.Prim Iw_arch.Int });
      ("dur/a b", commit ~session:3 ~version:1);
      ("dur/c", commit ~session:5 ~version:1);
      ("dur/a b", commit ~session:4 ~version:2);
    ]
  in
  List.iter (fun (segment, e) -> Iw_store.append s ~segment e) entries;
  let file = Filename.basename (Iw_store.log_path s) in
  Alcotest.(check string) "one log per handle" ("shard-0" ^ Iw_store.log_suffix) file;
  (match Iw_store.recover_log s ~file with
  | None -> Alcotest.fail "log did not recover"
  | Some got -> Alcotest.(check bool) "tagged entries roundtrip" true (got = entries));
  (* The read-only scan agrees and never modifies. *)
  match Iw_store.scan_log (Iw_store.log_path s) with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    Alcotest.(check bool) "tail clean" true (r.Iw_store.lr_tail = Iw_store.Tail_clean);
    Alcotest.(check (option string)) "header names the log" (Some "shard-0")
      r.Iw_store.lr_name;
    Alcotest.(check int) "records (header included)" 5 r.Iw_store.lr_records;
    match r.Iw_store.lr_segments with
    | [ a; c ] ->
      Alcotest.(check string) "first-seen order" "dur/a b" a.Iw_store.sr_segment;
      Alcotest.(check int) "commits" 2 a.Iw_store.sr_commits;
      Alcotest.(check (option int)) "first commit" (Some 1) a.Iw_store.sr_first_commit;
      Alcotest.(check (option int)) "last commit" (Some 2) a.Iw_store.sr_last_commit;
      Alcotest.(check bool) "no gap across interleaving" true (a.Iw_store.sr_gap = None);
      Alcotest.(check string) "second segment" "dur/c" c.Iw_store.sr_segment;
      Alcotest.(check int) "its commits" 1 c.Iw_store.sr_commits
    | l -> Alcotest.failf "scan found %d segment(s), want 2" (List.length l))

let commits (r : Iw_store.log_report) =
  List.fold_left (fun n sr -> n + sr.Iw_store.sr_commits) 0 r.lr_segments

let file_size path = (Unix.stat path).Unix.st_size

(* A crash mid-append leaves a physically torn last record; recovery must
   keep the good prefix and truncate the tear so the log is clean again. *)
let test_torn_tail_truncated () =
  let dir = tmpdir () in
  let s = Iw_store.create ~fsync:Iw_store.Never dir in
  List.iter
    (fun v -> Iw_store.append s ~segment:"seg" (commit ~session:1 ~version:v))
    [ 1; 2; 3 ];
  let path = Iw_store.log_path s in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (file_size path - 2);
  Unix.close fd;
  (match Iw_store.scan_log path with
  | Ok r ->
    Alcotest.(check bool) "scan sees a torn tail" true
      (match r.Iw_store.lr_tail with Iw_store.Tail_torn _ -> true | _ -> false);
    Alcotest.(check int) "good commits" 2 (commits r)
  | Error e -> Alcotest.fail e);
  (* A fresh store handle, as after a restart. *)
  let s2 = Iw_store.create ~fsync:Iw_store.Never dir in
  (match Iw_store.recover_log s2 ~file:(Filename.basename path) with
  | None -> Alcotest.fail "log did not recover"
  | Some entries -> Alcotest.(check int) "good prefix recovered" 2 (List.length entries));
  match Iw_store.scan_log path with
  | Ok r ->
    Alcotest.(check bool) "tear physically truncated" true
      (r.Iw_store.lr_tail = Iw_store.Tail_clean);
    Alcotest.(check int) "records after truncation" 3 r.Iw_store.lr_records
  | Error e -> Alcotest.fail e

(* A flipped byte is not a tear: the record frames intact but its CRC fails.
   The scan reports corruption; recovery still cuts back to the good prefix. *)
let test_corrupt_record () =
  let dir = tmpdir () in
  let s = Iw_store.create ~fsync:Iw_store.Never dir in
  List.iter
    (fun v -> Iw_store.append s ~segment:"seg" (commit ~session:1 ~version:v))
    [ 1; 2; 3 ];
  let path = Iw_store.log_path s in
  let size = file_size path in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET : int);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1 : int);
  Unix.close fd;
  (match Iw_store.scan_log path with
  | Ok r ->
    Alcotest.(check bool) "scan reports corruption, not a tear" true
      (match r.Iw_store.lr_tail with Iw_store.Tail_corrupt _ -> true | _ -> false)
  | Error e -> Alcotest.fail e);
  let s2 = Iw_store.create ~fsync:Iw_store.Never dir in
  match Iw_store.recover_log s2 ~file:(Filename.basename path) with
  | None -> Alcotest.fail "log did not recover"
  | Some entries ->
    Alcotest.(check int) "recovered to the good prefix" 2 (List.length entries)

(* Checkpoint files: CRC trailer detects a flipped byte, and the offline
   validator says so. *)
let test_checkpoint_seal () =
  let dir = tmpdir () in
  let server = I.start_server ~checkpoint_dir:dir () in
  let c = I.direct_client server in
  let g = I.open_segment c "dur/seal" in
  I.with_write_lock g (fun () ->
      let a = I.malloc g (I.Desc.array I.Desc.int 4) in
      I.Client.write_int c a 5);
  I.Server.checkpoint server;
  let path =
    Filename.concat dir (Iw_store.escape_name "dur/seal" ^ Iw_store.checkpoint_suffix)
  in
  (match Iw_store.verify_checkpoint path with
  | Ok (name, version) ->
    Alcotest.(check string) "name" "dur/seal" name;
    Alcotest.(check int) "version" 1 version
  | Error e -> Alcotest.fail e);
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (file_size path / 2) Unix.SEEK_SET : int);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1 : int);
  Unix.close fd;
  match Iw_store.verify_checkpoint path with
  | Ok _ -> Alcotest.fail "flipped byte passed validation"
  | Error _ -> ()

(* Server restart on the log alone (no checkpoint ever taken): every
   committed version must come back, and recovery must leave evidence in
   the metrics registry and flight recorder. *)
let test_wal_replay_equals_direct () =
  let dir = tmpdir () in
  let n = 16 in
  let expected = Array.make n 0 in
  let server = I.start_server ~checkpoint_dir:dir () in
  let c = I.direct_client server in
  let g = I.open_segment c "dur/replay" in
  let a = I.with_write_lock g (fun () -> I.malloc g (I.Desc.array I.Desc.int n) ~name:"xs") in
  let rng = Random.State.make [| 42 |] in
  for _round = 1 to 12 do
    let idx = Random.State.int rng n in
    let v = Random.State.int rng 10_000 in
    I.with_write_lock g (fun () -> I.Client.write_int c (a + (idx * 4)) v);
    expected.(idx) <- v
  done;
  (* No checkpoint: restart recovers purely by log replay. *)
  let server2 = I.start_server ~checkpoint_dir:dir () in
  let f = I.direct_client server2 in
  let gf = I.open_segment ~create:false f "dur/replay" in
  I.with_read_lock gf (fun () ->
      Alcotest.(check int) "version recovered exactly" 13 (I.Client.segment_version gf);
      let af = (Option.get (I.Client.find_named_block gf "xs")).Iw_mem.b_addr in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "cell %d" i)
          expected.(i)
          (I.Client.read_int f (af + (i * 4)))
      done);
  let prom = I.Metrics.render_prometheus (I.Metrics.snapshot (I.Server.metrics server2)) in
  Alcotest.(check bool) "replay counter in registry" true
    (contains ~needle:"iw_store_records_replayed_total" prom);
  Alcotest.(check bool) "replay event in flight recorder" true
    (contains ~needle:"store_replay" (Iw_flight.dump_string (I.Server.flight server2)))

(* A checkpoint is a log barrier: it resets the log, and a restart replays
   only what came after it. *)
let test_checkpoint_bounds_log () =
  let dir = tmpdir () in
  let server = I.start_server ~checkpoint_dir:dir () in
  let c = I.direct_client server in
  let g = I.open_segment c "dur/barrier" in
  let a = I.with_write_lock g (fun () -> I.malloc g (I.Desc.array I.Desc.int 4) ~name:"xs") in
  for v = 1 to 6 do
    I.with_write_lock g (fun () -> I.Client.write_int c a v)
  done;
  let log = Filename.concat dir ("shard-0" ^ Iw_store.log_suffix) in
  let before = file_size log in
  I.Server.checkpoint server;
  let after = file_size log in
  Alcotest.(check bool)
    (Printf.sprintf "checkpoint reset the log (%d -> %d bytes)" before after)
    true
    (after < before);
  I.with_write_lock g (fun () -> I.Client.write_int c a 99);
  (* Restart: checkpoint plus one replayed commit. *)
  let server2 = I.start_server ~checkpoint_dir:dir () in
  let f = I.direct_client server2 in
  let gf = I.open_segment ~create:false f "dur/barrier" in
  I.with_read_lock gf (fun () ->
      Alcotest.(check int) "version" 8 (I.Client.segment_version gf);
      let af = (Option.get (I.Client.find_named_block gf "xs")).Iw_mem.b_addr in
      Alcotest.(check int) "last write survived" 99 (I.Client.read_int f af))

(* IWCKPT03: the release-dedup table rides in the checkpoint.  This is the
   model checker's MDL04 schedule (lock, release, crash, recover, retry)
   with a checkpoint wedged between the commit and the crash: the
   checkpoint truncates the log, so if the dedup table lived only in WAL
   commit records the retried release would be refused after restart.  It
   must instead be answered with the already-committed version. *)
let test_dedup_survives_checkpoint () =
  let dir = tmpdir () in
  let name = "dur/dedup" in
  let t = Iw_server.create ~checkpoint_dir:dir () in
  let session =
    match Iw_server.handle t (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> Alcotest.fail "hello failed"
  in
  (match Iw_server.handle t (Iw_proto.Open_segment { session; name; create = true }) with
  | Iw_proto.R_segment _ -> ()
  | _ -> Alcotest.fail "open failed");
  let desc_serial =
    match
      Iw_server.handle t
        (Iw_proto.Register_desc
           { session; name; desc = Iw_types.Array (Prim Iw_arch.Int, 4) })
    with
    | Iw_proto.R_serial s -> s
    | _ -> Alcotest.fail "register failed"
  in
  let payload =
    let buf = Iw_wire.Buf.create () in
    for i = 1 to 4 do
      Iw_wire.Buf.u32 buf i
    done;
    Iw_wire.Buf.contents buf
  in
  let diff =
    {
      Iw_wire.Diff.from_version = 0;
      to_version = 1;
      new_descs = [];
      changes = [ Iw_wire.Diff.Create { serial = 1; name = Some "xs"; desc_serial; payload } ];
    }
  in
  (match Iw_server.handle t (Iw_proto.Write_lock { session; name; version = 0 }) with
  | Iw_proto.R_granted _ -> ()
  | _ -> Alcotest.fail "lock refused");
  let v =
    match Iw_server.handle t (Iw_proto.Write_release { session; name; diff }) with
    | Iw_proto.R_version v -> v
    | _ -> Alcotest.fail "release failed"
  in
  Alcotest.(check int) "committed" 1 v;
  (* The log barrier: after this the WAL holds no commit records, so only
     the checkpoint can carry the dedup entry across the restart. *)
  Iw_server.checkpoint t;
  let t2 = Iw_server.create ~checkpoint_dir:dir () in
  match Iw_server.handle t2 (Iw_proto.Write_release { session; name; diff }) with
  | Iw_proto.R_version v' ->
    Alcotest.(check int) "retry answered with the committed version" v v'
  | Iw_proto.R_error e -> Alcotest.failf "retried release refused: %s" e
  | _ -> Alcotest.fail "unexpected response to retried release"

(* A checkpoint that fails validation is quarantined — kept as evidence,
   never half-loaded — and the segment falls back to log replay. *)
let test_corrupt_checkpoint_quarantined () =
  let dir = tmpdir () in
  let server = I.start_server ~checkpoint_dir:dir () in
  let c = I.direct_client server in
  let g = I.open_segment c "dur/quar" in
  let a = I.with_write_lock g (fun () -> I.malloc g (I.Desc.array I.Desc.int 4) ~name:"xs") in
  for v = 1 to 3 do
    I.with_write_lock g (fun () -> I.Client.write_int c a v)
  done;
  (* Plant a bogus checkpoint beside the intact log. *)
  let ckpt =
    Filename.concat dir (Iw_store.escape_name "dur/quar" ^ Iw_store.checkpoint_suffix)
  in
  let oc = open_out_bin ckpt in
  output_string oc "this is not a checkpoint";
  close_out oc;
  let server2 = I.start_server ~checkpoint_dir:dir () in
  Alcotest.(check bool) "quarantined as .corrupt" true (Sys.file_exists (ckpt ^ ".corrupt"));
  (* Recovery replayed the log, so it ends by checkpointing the segment:
     the bogus bytes are replaced by a valid checkpoint of the recovered
     version. *)
  (match Iw_store.verify_checkpoint ckpt with
  | Ok (_, version) -> Alcotest.(check int) "original replaced by recovery's checkpoint" 4 version
  | Error e -> Alcotest.failf "checkpoint after recovery: %s" e);
  let f = I.direct_client server2 in
  let gf = I.open_segment ~create:false f "dur/quar" in
  I.with_read_lock gf (fun () ->
      Alcotest.(check int) "log replay recovered everything" 4
        (I.Client.segment_version gf);
      let af = (Option.get (I.Client.find_named_block gf "xs")).Iw_mem.b_addr in
      Alcotest.(check int) "value" 3 (I.Client.read_int f af));
  Alcotest.(check bool) "quarantine event in flight recorder" true
    (contains ~needle:"ckpt_quarantine" (Iw_flight.dump_string (I.Server.flight server2)))

(* Group commit over one log: a batch spanning several segments still
   costs exactly one fsync, at [end_batch], and its records come back from
   the log tagged with their segments, in append order. *)
let fsync_count m =
  match Iw_metrics.find (Iw_metrics.snapshot m) "iw_store_fsync_us" with
  | Some (Iw_metrics.V_hist h) -> h.Iw_metrics.hv_count
  | _ -> 0

let test_spanning_batch_one_fsync () =
  let dir = tmpdir () in
  let m = Iw_metrics.create ~enabled:true () in
  let s = Iw_store.create ~fsync:Iw_store.Always ~metrics:m dir in
  (* The first append creates the log (header fsync) outside any batch. *)
  Iw_store.append s ~segment:"sa" (commit ~session:1 ~version:1);
  let before = fsync_count m in
  Iw_store.begin_batch s;
  Iw_store.append s ~segment:"sa" (commit ~session:1 ~version:2);
  Iw_store.append s ~segment:"sb" (commit ~session:2 ~version:1);
  Iw_store.append s ~segment:"sc" (commit ~session:3 ~version:1);
  Alcotest.(check int) "appends in the batch defer their fsyncs" before (fsync_count m);
  Iw_store.end_batch s;
  Alcotest.(check int) "end_batch fsyncs once" (before + 1) (fsync_count m);
  match Iw_store.recover_log s ~file:(Filename.basename (Iw_store.log_path s)) with
  | Some
      [
        ("sa", Iw_store.Commit { version = 1; _ });
        ("sa", Iw_store.Commit { version = 2; _ });
        ("sb", Iw_store.Commit { version = 1; _ });
        ("sc", Iw_store.Commit { version = 1; _ });
      ] ->
    ()
  | Some l -> Alcotest.failf "log replayed %d record(s) in unexpected shape" (List.length l)
  | None -> Alcotest.fail "log did not recover"

(* Per-segment batch dirtiness — the read-lane bypass for the group-commit
   window rests on it: a segment with no deferred append in the open batch
   reports clean, so a read on it may complete (or be served from snapshot)
   while a sibling segment's release is parked for the shared fsync.  Only
   the segment's own un-fsynced version must stay invisible. *)
let test_batch_dirty_per_segment () =
  let dir = tmpdir () in
  let s = Iw_store.create ~fsync:Iw_store.Always dir in
  Alcotest.(check bool) "no batch open: nothing dirty" false
    (Iw_store.batch_dirty_segment s ~segment:"bda");
  Iw_store.append s ~segment:"bda" (commit ~session:1 ~version:1);
  Iw_store.append s ~segment:"bdb" (commit ~session:1 ~version:1);
  Iw_store.begin_batch s;
  Alcotest.(check bool) "fresh batch: nothing dirty" false (Iw_store.batch_dirty s);
  Iw_store.append s ~segment:"bda" (commit ~session:1 ~version:2);
  Alcotest.(check bool) "appended segment is dirty" true
    (Iw_store.batch_dirty_segment s ~segment:"bda");
  Alcotest.(check bool) "sibling stays clean — its readers need not wait" false
    (Iw_store.batch_dirty_segment s ~segment:"bdb");
  Iw_store.append s ~segment:"bdb" (commit ~session:2 ~version:2);
  Alcotest.(check bool) "second segment dirty once it defers too" true
    (Iw_store.batch_dirty_segment s ~segment:"bdb");
  (* A checkpoint barrier cancels the batch's deferrals: those records are
     already redundant, so readers stop waiting immediately. *)
  Iw_store.truncate s;
  Alcotest.(check bool) "truncate cancels the deferrals" false
    (Iw_store.batch_dirty_segment s ~segment:"bda" || Iw_store.batch_dirty_segment s ~segment:"bdb");
  Iw_store.append s ~segment:"bdb" (commit ~session:2 ~version:3);
  Iw_store.end_batch s;
  Alcotest.(check bool) "flush clears the batch" false (Iw_store.batch_dirty s);
  Alcotest.(check bool) "flushed segment clean" false
    (Iw_store.batch_dirty_segment s ~segment:"bdb")

(* The older per-segment layout — a shard journal, or a segment log whose
   records carry no segment tag — is refused at startup with an error that
   names the file, and the file is left byte for byte as it was. *)
let frame body =
  let b = Iw_wire.Buf.create () in
  Iw_wire.Buf.u32 b (String.length body);
  Iw_wire.Buf.u32 b (Iw_wire.Crc32.string body);
  Iw_wire.Buf.add_string b body;
  Iw_wire.Buf.contents b

let old_layout_refused file data =
  let dir = tmpdir () in
  let path = Filename.concat dir file in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc;
  (match Iw_server.create ~checkpoint_dir:dir () with
  | _ -> Alcotest.failf "%s accepted" file
  | exception Failure msg ->
    Alcotest.(check bool) (file ^ ": one line") false (String.contains msg '\n');
    Alcotest.(check bool) (file ^ ": names the file") true (contains ~needle:path msg));
  let ic = open_in_bin path in
  let after = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) (file ^ ": bytes unchanged") true (after = data);
  Alcotest.(check (list string)) (file ^ ": nothing else written") [ file ]
    (Array.to_list (Sys.readdir dir))

(* A log in which some segment's replay stopped holds records recovery could
   not use: it is quarantined, never deleted, while the other segments in it
   recover and are checkpointed. *)
let test_stopped_replay_quarantines_log () =
  let dir = tmpdir () in
  let s = Iw_store.create ~fsync:Iw_store.Never dir in
  Iw_store.append s ~segment:"ok"
    (Iw_store.Desc { serial = 1; version = 0; desc = Iw_types.Prim Iw_arch.Int });
  (* An update to a block the segment never created: replay rejects it. *)
  Iw_store.append s ~segment:"bad" (commit ~session:1 ~version:1);
  let log = Iw_store.log_path s in
  let t = Iw_server.create ~checkpoint_dir:dir () in
  Alcotest.(check bool) "log quarantined" true (Sys.file_exists (log ^ ".corrupt"));
  Alcotest.(check bool) "log not left in place" false (Sys.file_exists log);
  Alcotest.(check (list string)) "both segments recovered" [ "bad"; "ok" ]
    (Iw_server.segment_names t);
  match Iw_store.verify_checkpoint (Iw_store.checkpoint_path s "ok") with
  | Ok (_, version) -> Alcotest.(check int) "ok checkpointed" 0 version
  | Error e -> Alcotest.failf "ok not checkpointed: %s" e

let test_old_layout_refused () =
  let header name =
    let b = Iw_wire.Buf.create () in
    Iw_wire.Buf.u8 b 0;
    Iw_wire.Buf.string b name;
    frame (Iw_wire.Buf.contents b)
  in
  let untagged =
    let b = Iw_wire.Buf.create () in
    Iw_wire.Buf.u8 b 1;
    Iw_wire.Buf.u32 b 1;
    Iw_wire.Buf.u32 b 1;
    (match commit ~session:1 ~version:1 with
    | Iw_store.Commit { diff; _ } -> Iw_wire.Diff.encode b diff
    | Iw_store.Desc _ -> assert false);
    frame (Iw_wire.Buf.contents b)
  in
  old_layout_refused "shard-0.jrnl" (header "shard-0");
  old_layout_refused ("old" ^ Iw_store.log_suffix) (header "old" ^ untagged)

(* Frame checksums: a garbled protected frame surfaces as a typed
   [Transport.Corrupt], and once a link has seen one protected frame it
   refuses to fall back to unprotected ones. *)
let test_frame_crc () =
  let a, b = Iw_transport.loopback () in
  let ac, ha = Iw_transport.crc_conn a in
  let bc, _hb = Iw_transport.crc_conn b in
  Iw_transport.enable_send ha;
  ac.Iw_transport.send "hello";
  Alcotest.(check string) "protected roundtrip" "hello" (bc.Iw_transport.recv ());
  (* The bytes on the wire, read below the receiving wrapper: marker,
     big-endian CRC-32 of the payload, the payload.  Pinned, so a change of
     checksum kernel cannot change them. *)
  ac.Iw_transport.send "hello";
  Alcotest.(check string) "golden protected frame" "\xc3\x36\x10\xa6\x86hello"
    (b.Iw_transport.recv ());
  (* A protected frame with a wrong checksum — what the fault injector's
     garbling produces. *)
  a.Iw_transport.send "\xc3\x00\x00\x00\x00payload";
  (match bc.Iw_transport.recv () with
  | _ -> Alcotest.fail "corrupt frame was accepted"
  | exception Iw_transport.Corrupt _ -> ());
  (* The ratchet: after negotiation, a plain frame is itself suspect (a
     garbled marker byte must not smuggle bytes past the check). *)
  a.Iw_transport.send "plain";
  (match bc.Iw_transport.recv () with
  | _ -> Alcotest.fail "unprotected frame accepted after negotiation"
  | exception Iw_transport.Corrupt _ -> ());
  let prom =
    I.Metrics.render_prometheus (I.Metrics.snapshot (Iw_transport.metrics ()))
  in
  Alcotest.(check bool) "crc errors counted" true
    (contains ~needle:"iw_transport_crc_errors_total" prom)

(* The Enable_crc codec. *)
let test_enable_crc_codec () =
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_request buf (Iw_proto.Enable_crc { session = 0 });
  match Iw_proto.decode_request (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf)) with
  | Iw_proto.Enable_crc { session = 0 } -> ()
  | _ -> Alcotest.fail "Enable_crc did not roundtrip"

(* The acceptance scenario: a real iw-server process, killed with SIGKILL
   between acknowledged commits, restarted on the same directory.  The
   client reconnects by itself, state resumes at exactly the last
   acknowledged version, and every cell is byte-identical. *)

let server_exe = "../bin/iw_server_main.exe"

let spawn_server ?(extra_args = []) ~port ~dir () =
  Unix.create_process server_exe
    (Array.of_list
       ([
          server_exe;
          "--port";
          string_of_int port;
          "--checkpoint-dir";
          dir;
          "--lease";
          "30";
        ]
       @ extra_args))
    Unix.stdin Unix.stdout Unix.stderr

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close s;
  port

let rec wait_ready ?(attempts = 100) port =
  match I.tcp_client ~host:"127.0.0.1" ~port () with
  | c -> c
  | exception Iw_transport.Connect_failed _ when attempts > 0 ->
    Unix.sleepf 0.05;
    wait_ready ~attempts:(attempts - 1) port

let test_kill9_recovery () =
  let dir = tmpdir () in
  let port = free_port () in
  let pid = ref (spawn_server ~port ~dir ()) in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  ignore (wait_ready port : I.client);
  let n = 8 in
  let expected = Array.make n 0 in
  let acked = ref 0 in
  let c = I.tcp_client ~host:"127.0.0.1" ~port () in
  let g = I.open_segment c "dur/kill9" in
  let a = I.with_write_lock g (fun () -> I.malloc g (I.Desc.array I.Desc.int n) ~name:"xs") in
  incr acked;
  let write round =
    let idx = round mod n in
    I.with_write_lock g (fun () -> I.Client.write_int c (a + (idx * 4)) round);
    (* with_write_lock returned: the release was acknowledged, so this
       version must survive anything short of the disk itself dying. *)
    incr acked;
    expected.(idx) <- round
  in
  for round = 1 to 4 do
    write round
  done;
  (* SIGKILL between commits: no flushing, no handlers, no goodbyes. *)
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  pid := spawn_server ~port ~dir ();
  ignore (wait_ready port : I.client);
  (* The same client keeps going: its next request reconnects and, the
     session being gone, falls back to a fresh one — state intact. *)
  for round = 5 to 7 do
    write round
  done;
  (* A fresh client sees exactly the acknowledged history. *)
  let f = I.tcp_client ~host:"127.0.0.1" ~port () in
  let gf = I.open_segment ~create:false f "dur/kill9" in
  I.with_read_lock gf (fun () ->
      Alcotest.(check int) "resumed at the exact acked version" !acked
        (I.Client.segment_version gf);
      let af = (Option.get (I.Client.find_named_block gf "xs")).Iw_mem.b_addr in
      for i = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "cell %d" i)
          expected.(i)
          (I.Client.read_int f (af + (i * 4)))
      done)

(* The same scenario against a sharded server: two domains, several
   segments spread over both shards' write-ahead logs, fsync=always so the
   acks flow through group commit.  SIGKILL mid-stream must lose nothing
   acknowledged on either shard. *)
let test_kill9_recovery_sharded () =
  let dir = tmpdir () in
  let port = free_port () in
  let extra_args = [ "--domains"; "2"; "--fsync"; "always" ] in
  let pid = ref (spawn_server ~extra_args ~port ~dir ()) in
  Fun.protect ~finally:(fun () ->
      (try Unix.kill !pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] !pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  ignore (wait_ready port : I.client);
  let nsegs = 4 in
  let c = I.tcp_client ~host:"127.0.0.1" ~port () in
  let segs =
    Array.init nsegs (fun i ->
        let g = I.open_segment c (Printf.sprintf "dur/shard%d" i) in
        let a = I.with_write_lock g (fun () -> I.malloc g I.Desc.int ~name:"x") in
        (g, a, ref 1 (* acked versions: the malloc diff is version 1 *)))
  in
  let write i round =
    let g, a, acked = segs.(i) in
    I.with_write_lock g (fun () -> I.Client.write_int c a round);
    incr acked
  in
  for round = 1 to 3 do
    for i = 0 to nsegs - 1 do
      write i round
    done
  done;
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  pid := spawn_server ~extra_args ~port ~dir ();
  ignore (wait_ready port : I.client);
  (* Keep writing through the reconnect, then audit with a fresh client. *)
  for i = 0 to nsegs - 1 do
    write i 4
  done;
  let f = I.tcp_client ~host:"127.0.0.1" ~port () in
  for i = 0 to nsegs - 1 do
    let _, _, acked = segs.(i) in
    let gf = I.open_segment ~create:false f (Printf.sprintf "dur/shard%d" i) in
    I.with_read_lock gf (fun () ->
        Alcotest.(check int)
          (Printf.sprintf "shard%d at exact acked version" i)
          !acked
          (I.Client.segment_version gf);
        let af = (Option.get (I.Client.find_named_block gf "x")).Iw_mem.b_addr in
        Alcotest.(check int)
          (Printf.sprintf "shard%d last write" i)
          4
          (I.Client.read_int f af))
  done

(* A store written by an earlier build (CRC-32 byte loop): segment fx/a
   checkpointed at version 1 with block "xs" = [100; 101; 102; 103], then
   commits 2 and 3 setting xs.(1) to 2000 and 3000 in the shard log, and
   segment fx/b whose only commit, version 1, lives in the log with block
   "ys" = [7; -7].  The checksum kernel may change; these bytes must keep
   checking and recovering. *)
let fixture_log =
  "0000000afc2119bb00000773686172642d30000000375b9562c903000466782f61010000\
   000100000002000000010000000200000000000100000000010000000100000001000000\
   0100000004000007d0000000378e3728bc03000466782f61010000000100000003000000\
   020000000300000000000100000000010000000100000001000000010000000400000bb8\
   0000001797ecc4d203000466782f62020000000100000000010000000200020000003887\
   5c5d1103000466782f620100000001000000010000000000000001000000000001010000\
   00010000000101000279730000000800000007fffffff9"

let fixture_checkpoint =
  "00084957434b50543033000466782f610000000100000001000000010100000004000200\
   000001000000010000000000000000000000020000000001010000000101000278730000\
   000100000001000000010000000100000001000000100000006400000065000000660000\
   00670000000000000001000000010000000000000001e06fa481"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_stored_bytes_fixture () =
  let dir = tmpdir () in
  let write file hex =
    let oc = open_out_bin (Filename.concat dir file) in
    output_string oc (of_hex hex);
    close_out oc
  in
  write ("shard-0" ^ Iw_store.log_suffix) fixture_log;
  write ("fx%2fa" ^ Iw_store.checkpoint_suffix) fixture_checkpoint;
  (* Offline: iw-check validates every CRC in the directory. *)
  let code, report, _ = Test_cli.iw_check [ "--store"; dir ] in
  Alcotest.(check int) ("iw-check exit 0: " ^ report) 0 code;
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle report))
    [ "checkpoint OK (fx/a at version 1)"; "log OK (5 record(s), 2 segment(s))"; "store OK" ];
  (* Online: recovery restores both segments at their last version. *)
  let server = I.start_server ~checkpoint_dir:dir () in
  let c = I.direct_client server in
  let check seg ~version block want =
    let g = I.open_segment ~create:false c seg in
    I.with_read_lock g (fun () ->
        Alcotest.(check int) (seg ^ " version") version (I.Client.segment_version g);
        let a = (Option.get (I.Client.find_named_block g block)).Iw_mem.b_addr in
        List.iteri
          (fun i v ->
            Alcotest.(check int) (Printf.sprintf "%s.(%d)" block i) v
              (I.Client.read_int c (a + (i * 4))))
          want)
  in
  check "fx/a" ~version:3 "xs" [ 100; 3000; 102; 103 ];
  check "fx/b" ~version:1 "ys" [ 7; -7 ]

let suite =
  ( "durability",
    [
      Alcotest.test_case "fsync policy parsing" `Quick test_fsync_policy;
      Alcotest.test_case "WAL record roundtrip" `Quick test_wal_roundtrip;
      Alcotest.test_case "torn tail truncated" `Quick test_torn_tail_truncated;
      Alcotest.test_case "corrupt record detected" `Quick test_corrupt_record;
      Alcotest.test_case "checkpoint CRC trailer" `Quick test_checkpoint_seal;
      Alcotest.test_case "restart replays the log" `Quick test_wal_replay_equals_direct;
      Alcotest.test_case "checkpoint bounds the log" `Quick test_checkpoint_bounds_log;
      Alcotest.test_case "release dedup survives checkpoint" `Quick
        test_dedup_survives_checkpoint;
      Alcotest.test_case "corrupt checkpoint quarantined" `Quick
        test_corrupt_checkpoint_quarantined;
      Alcotest.test_case "batch dirtiness is per segment" `Quick
        test_batch_dirty_per_segment;
      Alcotest.test_case "a spanning batch costs one fsync" `Quick
        test_spanning_batch_one_fsync;
      Alcotest.test_case "stopped replay quarantines the log" `Quick
        test_stopped_replay_quarantines_log;
      Alcotest.test_case "frame CRC detects garbling" `Quick test_frame_crc;
      Alcotest.test_case "Enable_crc codec" `Quick test_enable_crc_codec;
      Alcotest.test_case "kill -9 loses nothing acknowledged" `Quick test_kill9_recovery;
      Alcotest.test_case "kill -9 with 2 domains loses nothing acknowledged" `Quick
        test_kill9_recovery_sharded;
      Alcotest.test_case "old layout refused" `Quick test_old_layout_refused;
      Alcotest.test_case "stored bytes of an older build" `Quick test_stored_bytes_fixture;
    ] )

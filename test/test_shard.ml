(* The sharded server: deterministic segment→shard routing across restarts
   and shard counts, segment creation and cross-segment reads racing through
   the worker domains, lease reclamation reaching the sessions lock from a
   worker, and group commit batching fsyncs without giving up
   durability-before-ack. *)

open Iw_proto

let int_array n = Iw_types.Array (Prim Iw_arch.Int, n)

let int_payload ?(v0 = 0) n =
  let buf = Iw_wire.Buf.create () in
  for i = 0 to n - 1 do
    Iw_wire.Buf.u32 buf (v0 + i)
  done;
  Iw_wire.Buf.contents buf

let tmpdir () =
  let d = Filename.temp_file "iwshard" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let hello t =
  match Iw_server.handle t (Hello { arch = "x86_32" }) with
  | R_hello { session } -> session
  | _ -> Alcotest.fail "hello failed"

let open_seg t session name =
  match Iw_server.handle t (Open_segment { session; name; create = true }) with
  | R_segment { version } -> version
  | r -> Alcotest.failf "open %s failed: %s" name (match r with R_error e -> e | _ -> "?")

let register t session name desc =
  match Iw_server.handle t (Register_desc { session; name; desc }) with
  | R_serial s -> s
  | _ -> Alcotest.failf "register on %s failed" name

let get_version t session name =
  match Iw_server.handle t (Get_version { session; name }) with
  | R_version v -> v
  | _ -> Alcotest.failf "get_version %s failed" name

let write_diff t session name changes =
  (match Iw_server.handle t (Write_lock { session; name; version = 0 }) with
  | R_granted _ -> ()
  | _ -> Alcotest.failf "write lock on %s refused" name);
  match
    Iw_server.handle t
      (Write_release
         {
           session;
           name;
           diff = { Iw_wire.Diff.from_version = 0; to_version = 0; new_descs = []; changes };
         })
  with
  | R_version v -> v
  | _ -> Alcotest.failf "release on %s failed" name

let create_block ~serial ~desc_serial payload =
  Iw_wire.Diff.Create { serial; name = None; desc_serial; payload }

(* Seed [name] with one 64-int block and return the registered serial. *)
let seed_segment t session name =
  ignore (open_seg t session name : int);
  let d = register t session name (int_array 64) in
  ignore (write_diff t session name [ create_block ~serial:1 ~desc_serial:d (int_payload 64) ] : int);
  d

let update_run () =
  let one = Iw_wire.Buf.create () in
  Iw_wire.Buf.u32 one 4242;
  Iw_wire.Diff.Update
    {
      serial = 1;
      runs = [ { Iw_wire.Diff.start_pu = 3; len_pu = 1; payload = Iw_wire.Buf.contents one } ];
    }

let counter_value t name =
  match Iw_metrics.find (Iw_metrics.snapshot (Iw_server.metrics t)) name with
  | Some (Iw_metrics.V_counter v) -> v
  | _ -> 0.

(* Routing is a pure function of the segment name: a directory written under
   one shard count must recover fully under any other, because each file is
   re-routed at startup, not pinned to the shard that wrote it. *)
let test_routing_stable_across_shard_counts () =
  let dir = tmpdir () in
  let names = List.init 12 (Printf.sprintf "route-%d") in
  let t = Iw_server.create ~checkpoint_dir:dir ~domains:4 () in
  Alcotest.(check int) "4 domains" 4 (Iw_server.domains t);
  let s = hello t in
  List.iter (fun n -> ignore (seed_segment t s n : int)) names;
  Iw_server.shutdown t;
  let t2 = Iw_server.create ~checkpoint_dir:dir ~domains:2 () in
  let s2 = hello t2 in
  Alcotest.(check (list string)) "all segments recovered under 2 shards"
    (List.sort compare names)
    (Iw_server.segment_names t2);
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " at v1") 1 (get_version t2 s2 n))
    names;
  (* Write again under the new shard count, then recover under a third. *)
  List.iter (fun n -> ignore (write_diff t2 s2 n [ update_run () ] : int)) names;
  Iw_server.shutdown t2;
  let t3 = Iw_server.create ~checkpoint_dir:dir ~domains:5 () in
  let s3 = hello t3 in
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " at v2") 2 (get_version t3 s3 n))
    names;
  Iw_server.shutdown t3

(* Segment creation racing through the mailboxes: shared names created by
   several threads at once must converge on one segment per name, and each
   thread's private segments must all exist afterwards. *)
let test_concurrent_create_while_routing () =
  let t = Iw_server.create ~domains:4 () in
  let shared = List.init 8 (Printf.sprintf "shared-%d") in
  let nthreads = 6 in
  let failures = Atomic.make 0 in
  let threads =
    List.init nthreads (fun k ->
        Thread.create
          (fun () ->
            try
              let s = hello t in
              List.iter (fun n -> ignore (open_seg t s n : int)) shared;
              for j = 0 to 4 do
                let own = Printf.sprintf "own-%d-%d" k j in
                ignore (seed_segment t s own : int)
              done;
              List.iter (fun n -> ignore (open_seg t s n : int)) shared
            with _ -> Atomic.incr failures)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no thread failed" 0 (Atomic.get failures);
  let expected =
    List.sort compare
      (shared
      @ List.concat_map
          (fun k -> List.init 5 (fun j -> Printf.sprintf "own-%d-%d" k j))
          (List.init nthreads Fun.id))
  in
  Alcotest.(check (list string)) "every segment exists exactly once" expected
    (Iw_server.segment_names t);
  let s = hello t in
  for k = 0 to nthreads - 1 do
    for j = 0 to 4 do
      let own = Printf.sprintf "own-%d-%d" k j in
      Alcotest.(check int) (own ^ " committed") 1 (get_version t s own)
    done
  done;
  Iw_server.shutdown t

(* Cross-segment reads while other shards' writers are busy: every read must
   see a well-formed diff at a version the segment actually reached. *)
let test_cross_segment_reads_under_writes () =
  let t = Iw_server.create ~domains:4 () in
  let setup = hello t in
  let nsegs = 8 in
  let names = Array.init nsegs (Printf.sprintf "cross-%d") in
  Array.iter (fun n -> ignore (seed_segment t setup n : int)) names;
  let failures = Atomic.make 0 in
  let writers =
    List.init 4 (fun k ->
        Thread.create
          (fun () ->
            try
              let s = hello t in
              for _ = 1 to 25 do
                ignore (write_diff t s names.(2 * k) [ update_run () ] : int);
                ignore (write_diff t s names.((2 * k) + 1) [ update_run () ] : int)
              done
            with _ -> Atomic.incr failures)
          ())
  in
  let readers =
    List.init 4 (fun k ->
        Thread.create
          (fun () ->
            try
              let s = hello t in
              for i = 0 to 49 do
                let name = names.((k + i) mod nsegs) in
                match
                  Iw_server.handle t
                    (Read_lock { session = s; name; version = 0; coherence = Full })
                with
                | R_update diff ->
                  if diff.Iw_wire.Diff.to_version < 1 then Atomic.incr failures;
                  ignore
                    (Iw_server.handle t (Read_release { session = s; name })
                      : Iw_proto.response)
                | _ -> Atomic.incr failures
              done
            with _ -> Atomic.incr failures)
          ())
  in
  List.iter Thread.join (writers @ readers);
  Alcotest.(check int) "no failures under concurrency" 0 (Atomic.get failures);
  let s = hello t in
  Array.iter
    (fun n -> Alcotest.(check int) (n ^ " final version") 26 (get_version t s n))
    names;
  Iw_server.shutdown t

(* Lease reclamation runs on the segment's home shard but reads the
   last-seen table behind the sessions lock; spreading the segments over
   shards exercises that shard-lock → t.lock dip from worker domains. *)
let test_lease_reclaim_across_shards () =
  let t = Iw_server.create ~domains:4 ~lease_secs:0.2 () in
  let sa = hello t in
  let names = List.init 4 (Printf.sprintf "lease-%d") in
  List.iter
    (fun n ->
      ignore (open_seg t sa n : int);
      match Iw_server.handle t (Write_lock { session = sa; name = n; version = 0 }) with
      | R_granted _ -> ()
      | _ -> Alcotest.failf "initial lock on %s refused" n)
    names;
  Thread.delay 0.35;
  let sb = hello t in
  List.iter
    (fun n ->
      match Iw_server.handle t (Write_lock { session = sb; name = n; version = 0 }) with
      | R_granted _ -> ()
      | R_busy -> Alcotest.failf "lease on %s not reclaimed" n
      | _ -> Alcotest.failf "contender lock on %s failed" n)
    names;
  Alcotest.(check bool) "reclaims counted" true
    (counter_value t "iw_server_locks_reclaimed_total" >= 4.);
  (* The evicted session's release finds no lock and no dedup record. *)
  (match
     Iw_server.handle t
       (Write_release
          {
            session = sa;
            name = List.hd names;
            diff = { Iw_wire.Diff.from_version = 0; to_version = 0; new_descs = []; changes = [] };
          })
   with
  | R_error _ -> ()
  | _ -> Alcotest.fail "evicted holder's release must be refused");
  Iw_server.shutdown t

(* Group commit under fsync=always: concurrent releases on worker shards
   share fsyncs (the batch counter moves), acks still imply durability (a
   restart under a different shard count recovers every acked version). *)
let test_group_commit_durability () =
  let dir = tmpdir () in
  let t = Iw_server.create ~checkpoint_dir:dir ~domains:4 ~fsync:Iw_store.Always () in
  let failures = Atomic.make 0 in
  let nthreads = 6 and writes = 9 in
  let threads =
    List.init nthreads (fun k ->
        Thread.create
          (fun () ->
            try
              let s = hello t in
              let name = Printf.sprintf "gc-%d" k in
              ignore (seed_segment t s name : int);
              for _ = 1 to writes do
                ignore (write_diff t s name [ update_run () ] : int)
              done
            with _ -> Atomic.incr failures)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no writer failed" 0 (Atomic.get failures);
  Alcotest.(check bool) "group commits happened" true
    (counter_value t "iw_store_group_commits_total" >= 1.);
  Iw_server.shutdown t;
  let t2 = Iw_server.create ~checkpoint_dir:dir ~domains:1 () in
  let s2 = hello t2 in
  for k = 0 to nthreads - 1 do
    let name = Printf.sprintf "gc-%d" k in
    Alcotest.(check int)
      (name ^ " recovered at acked version")
      (writes + 1)
      (get_version t2 s2 name)
  done;
  Iw_server.shutdown t2

(* The mailbox admission gate, exercised directly: with the worker wedged on
   a slow job and the queue at its cap, a gated run is refused with
   Overloaded — and was never enqueued — while an urgent run is still
   accepted past the cap: the resource-freeing lane must not be refusable,
   or an overloaded shard would wedge on the locks its own backlog holds. *)
let test_mailbox_admission_gate () =
  let sh = Iw_shard.create ~queue_max:2 ~flush:(fun () -> ()) () in
  let started = Atomic.make false and release = Atomic.make false in
  let ran = Atomic.make 0 and refused = Atomic.make 0 in
  let blocker =
    Thread.create
      (fun () ->
        Iw_shard.run sh ~defer:(fun () -> false) (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Thread.yield ()
            done))
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let wait_until cond =
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Thread.yield ()
    done;
    Alcotest.(check bool) "condition reached before the deadline" true (cond ())
  in
  (* Only fill once the worker holds the blocker, so the fillers themselves
     cannot race each other into the gate. *)
  wait_until (fun () -> Atomic.get started);
  let fillers =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            try Iw_shard.run sh ~defer:(fun () -> false) (fun () -> Atomic.incr ran)
            with Iw_shard.Overloaded _ -> Atomic.incr refused)
          ())
  in
  wait_until (fun () -> Iw_shard.pending sh = 2);
  (* The gate: a third non-urgent job is refused at enqueue. *)
  (match Iw_shard.run sh ~defer:(fun () -> false) (fun () -> Atomic.incr ran) with
  | () -> Alcotest.fail "gated run must be refused at a full mailbox"
  | exception Iw_shard.Overloaded d ->
    Alcotest.(check bool) "refusal reports the observed depth" true (d >= 2));
  Alcotest.(check int) "refused job was never enqueued" 2 (Iw_shard.pending sh);
  (* The urgent lane still accepts past the cap. *)
  let urgent =
    Thread.create
      (fun () ->
        Iw_shard.run sh ~urgent:true
          ~defer:(fun () -> false)
          (fun () -> Atomic.incr ran))
      ()
  in
  wait_until (fun () -> Iw_shard.pending sh = 3);
  Atomic.set release true;
  Thread.join blocker;
  List.iter Thread.join fillers;
  Thread.join urgent;
  Alcotest.(check int) "no filler was refused below the cap" 0 (Atomic.get refused);
  Alcotest.(check int) "every accepted job ran" 3 (Atomic.get ran);
  Alcotest.(check bool) "high watermark saw the urgent overflow" true
    (Iw_shard.high_watermark sh >= 3);
  Iw_shard.stop sh

let labelled_counter t base label value =
  counter_value t (Iw_metrics.with_label base label value)

(* End-to-end overload control on a sharded server: slow@shard fault
   injection saturates one shard on demand, so with queue_max:1 concurrent
   gated reads overflow the mailbox (shed_total{reason=queue_full} moves and
   R_busy_hint comes back, deadline or not), the
   overload state machine degrades the shard to read-only (new write locks
   shed with reason=read_only), and the urgent lane keeps working throughout:
   control-plane requests and releases are never refused. *)
let test_overload_shed_and_urgent_lane () =
  Unix.putenv "IW_FAULT" "slow@shard=0:20ms";
  let t =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "IW_FAULT" "")
      (fun () -> Iw_server.create ~domains:2 ~queue_max:1 ())
  in
  let s = hello t in
  (* Find a segment the fault plan slows — one routed to shard 0: its
     requests take the injected 20 ms, the other shard's return instantly. *)
  let rec probe i =
    if i > 32 then Alcotest.fail "no probe segment routed to shard 0"
    else begin
      let n = Printf.sprintf "ovl-%d" i in
      ignore (seed_segment t s n : int);
      let t0 = Unix.gettimeofday () in
      ignore (get_version t s n : int);
      if Unix.gettimeofday () -. t0 >= 0.015 then n else probe (i + 1)
    end
  in
  let slow_seg = probe 0 in
  let stop_flood = Atomic.make false and failures = Atomic.make 0 in
  let readers =
    List.init 6 (fun _ ->
        Thread.create
          (fun () ->
            try
              let rs = hello t in
              let give_up = Unix.gettimeofday () +. 30.0 in
              while
                (not (Atomic.get stop_flood)) && Unix.gettimeofday () < give_up
              do
                match
                  Iw_server.handle t
                    (Read_lock
                       { session = rs; name = slow_seg; version = 0; coherence = Full })
                with
                | R_update _ ->
                  ignore
                    (Iw_server.handle t (Read_release { session = rs; name = slow_seg })
                      : Iw_proto.response)
                | R_busy_hint _ -> Thread.yield () (* shed *)
                | _ -> Atomic.incr failures
              done
            with _ -> Atomic.incr failures)
          ())
  in
  let deadline = Unix.gettimeofday () +. 20.0 in
  (* Drive write locks at the saturated shard until the state machine has
     visibly degraded it: new writes shed with reason=read_only.  A granted
     lock (the machine recovered momentarily) is released at once so the
     flood keeps moving. *)
  let empty_release () =
    ignore
      (Iw_server.handle t
         (Write_release
            {
              session = s;
              name = slow_seg;
              diff =
                { Iw_wire.Diff.from_version = 0; to_version = 0; new_descs = []; changes = [] };
            })
        : Iw_proto.response)
  in
  while
    (labelled_counter t "iw_server_shed_total" "reason" "queue_full" < 1.
    || labelled_counter t "iw_server_shed_total" "reason" "read_only" < 1.)
    && Unix.gettimeofday () < deadline
  do
    match
      Iw_server.handle t (Write_lock { session = s; name = slow_seg; version = 0 })
    with
    | R_granted _ -> empty_release ()
    | _ -> ()
  done;
  (* Urgent lane under full saturation: metadata requests ride past the gate
     and must never be refused (get_version fails the test on anything but
     R_version). *)
  for _ = 1 to 3 do
    ignore (get_version t s slow_seg : int)
  done;
  (* A shed always draws the typed hint (clamped to [5, 2000] ms), with or
     without a stamped deadline; plain R_busy means only that another
     session holds the write lock. *)
  let rec hint_probe ?deadline_us tries =
    if tries = 0 then Alcotest.fail "request never saw a shed"
    else
      match
        Iw_server.handle ?deadline_us t
          (Read_lock { session = s; name = slow_seg; version = 0; coherence = Full })
      with
      | R_busy_hint { retry_after_ms } ->
        Alcotest.(check bool) "hint within the documented clamp" true
          (retry_after_ms >= 5 && retry_after_ms <= 2000)
      | R_busy -> Alcotest.fail "a shed must get the hint form of busy"
      | R_update _ ->
        ignore
          (Iw_server.handle t (Read_release { session = s; name = slow_seg })
            : Iw_proto.response);
        hint_probe ?deadline_us (tries - 1)
      | _ -> hint_probe ?deadline_us (tries - 1)
  in
  hint_probe 500;
  hint_probe ~deadline_us:(Iw_metrics.now_us () +. 10_000_000.) 500;
  Atomic.set stop_flood true;
  List.iter Thread.join readers;
  Alcotest.(check int) "no reader saw an error reply" 0 (Atomic.get failures);
  Alcotest.(check bool) "mailbox overflow shed requests" true
    (labelled_counter t "iw_server_shed_total" "reason" "queue_full" >= 1.);
  Alcotest.(check bool) "read-only degradation refused a new write" true
    (labelled_counter t "iw_server_shed_total" "reason" "read_only" >= 1.);
  Iw_server.shutdown t

(* Overload through the whole client stack: 32 loopback clients with call
   timeouts drive a closed read/write loop for 2 s at a two-shard server
   whose shard 0 is slowed 5 ms per request behind an 8-deep mailbox —
   far more than shard 0 can serve.  The server must refuse work (shed or
   expired) yet keep serving, peak RSS must stay under 1.5 GB, and shard
   0's mailbox may pass its cap only by the urgent-lane requests in
   flight.  Clients connect before the load and never subscribe, so their
   only urgent requests under load are the releases counted here. *)
let test_overload_through_client_stack () =
  let queue_max = 8 and clients = 32 and segments = 4 in
  Unix.putenv "IW_FAULT" "slow@shard=0:5ms";
  let t =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "IW_FAULT" "")
      (fun () -> Iw_server.create ~domains:2 ~queue_max ~lease_secs:30.0 ())
  in
  let seg_name i = Printf.sprintf "overload/seg-%d" i in
  let setup = Interweave.loopback_client t in
  for i = 0 to segments - 1 do
    let h = Interweave.open_segment setup (seg_name i) in
    Iw_client.wl_acquire h;
    ignore (Interweave.malloc ~name:"n" h (int_array 8) : int);
    Iw_client.wl_release h
  done;
  Iw_client.disconnect setup;
  (* Connect everyone before the load starts, so the only urgent requests
     under load are the releases counted below. *)
  let conns =
    List.init clients (fun _ ->
        let c = Interweave.loopback_client ~call_timeout:1.0 t in
        (Iw_client.options c).auto_subscribe <- false;
        ( c,
          Array.init segments (fun i ->
              ( Interweave.open_segment ~create:false c (seg_name i),
                Iw_client.mip_to_ptr c (seg_name i ^ "#n#0") )) ))
  in
  let accepted = Atomic.make 0 in
  let urgent = Atomic.make 0 and urgent_peak = Atomic.make 0 in
  let release h =
    let n = Atomic.fetch_and_add urgent 1 + 1 in
    let rec raise_peak () =
      let p = Atomic.get urgent_peak in
      if n > p && not (Atomic.compare_and_set urgent_peak p n) then raise_peak ()
    in
    raise_peak ();
    Fun.protect ~finally:(fun () -> Atomic.decr urgent) (fun () -> Iw_client.wl_release h)
  in
  let stop_at = Unix.gettimeofday () +. 2.0 in
  let worker (k, (c, segs)) =
    let rng = Random.State.make [| k |] in
    while Unix.gettimeofday () < stop_at do
      let h, a = segs.(Random.State.int rng segments) in
      match
        if Random.State.bool rng then begin
          Iw_client.rl_acquire h;
          ignore (Iw_client.read_int c a : int);
          Iw_client.rl_release h
        end
        else begin
          Iw_client.wl_acquire h;
          Iw_client.write_int c a k;
          release h
        end
      with
      | () -> Atomic.incr accepted
      | exception _ -> () (* shed past the retry budget, or timed out *)
    done;
    try Iw_client.disconnect c with _ -> ()
  in
  List.iter Thread.join (List.mapi (fun k conn -> Thread.create worker (k, conn)) conns);
  let shed =
    labelled_counter t "iw_server_shed_total" "reason" "queue_full"
    +. labelled_counter t "iw_server_shed_total" "reason" "read_only"
  and expired =
    labelled_counter t "iw_server_expired_total" "phase" "queue"
    +. labelled_counter t "iw_server_expired_total" "phase" "wal"
  in
  let hwm =
    match
      Iw_metrics.find
        (Iw_metrics.snapshot (Iw_server.metrics t))
        (Iw_metrics.with_label "iw_server_queue_hwm" "shard" "0")
    with
    | Some (Iw_metrics.V_gauge v) -> int_of_float v
    | _ -> Alcotest.fail "no queue high-watermark for shard 0"
  in
  Iw_server.shutdown t;
  Alcotest.(check bool) "work was shed or expired" true (shed +. expired >= 1.);
  Alcotest.(check bool) "operations were accepted" true (Atomic.get accepted > 0);
  let rss = Ycsb_core.rss_hwm_kb () in
  if rss > 1_500_000 then Alcotest.failf "peak RSS %d kB exceeds 1,500,000 kB" rss;
  if hwm > queue_max + Atomic.get urgent_peak then
    Alcotest.failf "shard 0 queue reached %d, past cap %d + %d urgent in flight" hwm
      queue_max (Atomic.get urgent_peak)

(* Deadline propagation through the dispatch: a request whose budget is
   already gone is shed before any work (phase "queue"), a release only at
   the last moment before its WAL cost (phase "wal") — and an expired path
   applies nothing, so the client's retry with a fresh budget commits
   exactly one version. *)
let test_deadline_expiry_phases () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (seed_segment t s "dl" : int);
  let past = Iw_metrics.now_us () -. 1_000. in
  (match
     Iw_server.handle ~deadline_us:past t
       (Read_lock { session = s; name = "dl"; version = 0; coherence = Full })
   with
  | R_expired { phase = "queue" } -> ()
  | R_expired { phase } -> Alcotest.failf "read expired in phase %S, not queue" phase
  | _ -> Alcotest.fail "expired read must be shed");
  (match Iw_server.handle t (Write_lock { session = s; name = "dl"; version = 0 }) with
  | R_granted _ -> ()
  | _ -> Alcotest.fail "expired read must not have taken the lock");
  let release () =
    Iw_proto.Write_release
      {
        session = s;
        name = "dl";
        diff =
          {
            Iw_wire.Diff.from_version = 0;
            to_version = 0;
            new_descs = [];
            changes = [ update_run () ];
          };
      }
  in
  (match Iw_server.handle ~deadline_us:past t (release ()) with
  | R_expired { phase = "wal" } -> ()
  | R_expired { phase } -> Alcotest.failf "release expired in phase %S, not wal" phase
  | _ -> Alcotest.fail "expired release must be shed before its WAL cost");
  Alcotest.(check int) "expired release applied nothing" 1 (get_version t s "dl");
  (* The lock is still held — retrying with a fresh budget commits once. *)
  (match
     Iw_server.handle ~deadline_us:(Iw_metrics.now_us () +. 10_000_000.) t (release ())
   with
  | R_version 2 -> ()
  | _ -> Alcotest.fail "retried release with fresh budget must commit");
  (* And a duplicate of the {e committed} release — a retry whose first
     attempt was applied but whose reply was lost — is answered from the
     release-dedup table with the same version, never applied twice. *)
  (match Iw_server.handle t (release ()) with
  | R_version 2 -> ()
  | _ -> Alcotest.fail "duplicate release must be answered from dedup");
  Alcotest.(check int) "dedup answered without a second apply" 2 (get_version t s "dl");
  Alcotest.(check bool) "queue-phase expiry counted" true
    (labelled_counter t "iw_server_expired_total" "phase" "queue" >= 1.);
  Alcotest.(check bool) "wal-phase expiry counted" true
    (labelled_counter t "iw_server_expired_total" "phase" "wal" >= 1.);
  Iw_server.shutdown t

let suite =
  ( "shard",
    [
      Alcotest.test_case "routing stable across shard counts" `Quick
        test_routing_stable_across_shard_counts;
      Alcotest.test_case "concurrent segment creation" `Quick
        test_concurrent_create_while_routing;
      Alcotest.test_case "cross-segment reads under writes" `Quick
        test_cross_segment_reads_under_writes;
      Alcotest.test_case "lease reclaim across shards" `Quick
        test_lease_reclaim_across_shards;
      Alcotest.test_case "group commit durability" `Quick
        test_group_commit_durability;
      Alcotest.test_case "mailbox admission gate" `Quick test_mailbox_admission_gate;
      Alcotest.test_case "overload shed and urgent lane" `Quick
        test_overload_shed_and_urgent_lane;
      Alcotest.test_case "deadline expiry phases" `Quick test_deadline_expiry_phases;
      Alcotest.test_case "overload through the client stack" `Slow
        test_overload_through_client_stack;
    ] )

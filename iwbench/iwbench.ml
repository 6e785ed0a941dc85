(* iwbench: one workload, one process, every end-to-end metric.

     iwbench.exe <workload> --seed N [--duration S] [--trace PATH]

   Set-up runs several times and its median is [setup_s]; the last set-up
   is kept and measured for [--duration] seconds.  Every metric prints as
   [name value unit], followed by key=value notes (sample counts); a
   percentile with fewer than ten samples beyond it prints [-] instead of a
   value.  With [--trace], the per-layer metrics and the latency ledger
   follow and the spans are written to PATH as Chrome trace_event JSON.

   Exit status: 0 clean, 1 when any operation failed (raised, was refused,
   shed, expired or skipped, or failed its correctness check), 2 on bad
   usage, 3 when an open-loop generator itself (not the connection it
   waited for) sent more than [late_limit_us] late at p99: the run is
   invalid. *)

let setups = 9

let late_limit_us = 1000.

(* ---- Counters read at both edges of the measured window ---- *)

type snap = {
  wall : float;
  cpu : float;  (* process user + system seconds, every thread and domain *)
  calls : int;
  wire_bytes : int;
  skipped_updates : int;
  twin_pages : int;
  word_diff : float;
  translate : float;
  apply : float;
  srv : Iw_server.stats;
  phase_us : float list;  (* in Iw_phase.phases order *)
  phase_total_us : float;
  phase_n : int;
  metrics : Iw_metrics.snapshot;
  gc : Gc.stat;
}

let snapshot (inst : Workloads.instance) =
  let sum f = List.fold_left (fun a c -> a + f (Iw_client.stats c)) 0 inst.clients in
  let sumf f = List.fold_left (fun a c -> a +. f (Iw_client.stats c)) 0. inst.clients in
  let ph = Iw_server.phase_stats inst.server in
  let tm = Unix.times () in
  {
    wall = Unix.gettimeofday ();
    cpu = tm.Unix.tms_utime +. tm.Unix.tms_stime;
    calls = sum (fun s -> s.Iw_client.calls);
    wire_bytes = sum (fun s -> s.Iw_client.bytes_sent + s.Iw_client.bytes_received);
    skipped_updates = sum (fun s -> s.Iw_client.updates_skipped);
    twin_pages = sum (fun s -> s.Iw_client.twin_pages);
    word_diff = sumf (fun s -> s.Iw_client.word_diff_seconds);
    translate = sumf (fun s -> s.Iw_client.translate_seconds);
    apply = sumf (fun s -> s.Iw_client.apply_seconds);
    srv = (let s = Iw_server.stats inst.server in { s with requests = s.requests });
    phase_us = List.map (Iw_phase.phase_sum_us ph) Iw_phase.phases;
    phase_total_us = Iw_phase.total_sum_us ph;
    phase_n = (Iw_phase.total_summary ph).Iw_hist.sm_count;
    metrics = Iw_metrics.snapshot (Iw_server.metrics inst.server);
    gc = Gc.quick_stat ();
  }

(* Sum (or max) of every series whose name starts with [base], so labelled
   per-shard and per-reason series aggregate. *)
let series ?(combine = ( +. )) snap base ~value =
  List.fold_left
    (fun acc s ->
      if Probe.has_prefix ~prefix:base s.Iw_metrics.s_name then
        match value s.Iw_metrics.s_value with Some v -> combine acc v | None -> acc
      else acc)
    0. snap

let counter = function
  | Iw_metrics.V_counter v | Iw_metrics.V_gauge v -> Some v
  | Iw_metrics.V_hist _ -> None

let hist_count = function
  | Iw_metrics.V_hist h -> Some (float_of_int h.Iw_metrics.hv_count)
  | _ -> None

let hist_sum = function Iw_metrics.V_hist h -> Some h.Iw_metrics.hv_sum | _ -> None

let delta a b base value = series b.metrics base ~value -. series a.metrics base ~value

(* ---- Output ---- *)

let print_metric ?(notes = []) name value unit =
  let v =
    match value with
    | Some v when Float.is_finite v -> Printf.sprintf "%.6g" v
    | _ -> "-"
  in
  print_string (String.concat " " ([ name; v; unit ] @ notes));
  print_newline ()

(* A percentile is reported only with at least ten samples beyond it. *)
let percentile h q =
  let n = Iw_hist.count h in
  let beyond = float_of_int n *. (1. -. q) in
  let v = if beyond >= 10. then Some (Iw_hist.quantile h q) else None in
  (v, [ Printf.sprintf "n=%d" n ])

let ratio a b = if b > 0. then a /. b else 0.

let merged hs =
  let acc = Iw_hist.create () in
  List.iter (fun h -> Iw_hist.merge ~into:acc h) hs;
  acc

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ---- The traced run: per-layer metrics and the ledger ---- *)

let per_layer (inst : Workloads.instance) tallies ~a ~b ~ops ~reads ~writes =
  let fi = float_of_int in
  let spans = Probe.all_spans inst.probes in
  let durs ?prefix name = Probe.durations ?prefix spans name in
  let p50 name = percentile (durs name) 0.5 in
  let total h = Iw_hist.sum h in
  let sum_tally f = List.fold_left (fun acc t -> acc +. f t) 0. tallies in
  let sum_probes f = List.fold_left (fun acc p -> acc + f p) 0 inst.probes in
  let d f = fi (f b - f a) in
  let d_us f = (f b -. f a) *. 1e6 in
  let pr ?notes name v unit = print_metric ?notes name (Some v) unit in
  let popt name (v, notes) unit = print_metric ~notes name v unit in
  let turn_n = sum_probes (fun p -> p.Probe.turn_n) in
  let turn_sum = List.fold_left (fun acc p -> acc +. p.Probe.turn_sum_us) 0. inst.probes in
  let phase_d = List.map2 ( -. ) b.phase_us a.phase_us in
  let phase_sum = List.fold_left ( +. ) 0. phase_d in
  (* client *)
  popt "client.rl_acquire.p50_us" (p50 "client.rl_acquire") "us";
  pr "client.cache_hit_ratio" (ratio (d (fun s -> s.skipped_updates)) reads) "ratio";
  popt "client.wl_release.p50_us" (p50 "client.wl_release") "us";
  pr "client.word_diff_us_per_write" (ratio (d_us (fun s -> s.word_diff)) writes) "us";
  pr "client.translate_us_per_write" (ratio (d_us (fun s -> s.translate)) writes) "us";
  pr "client.twin_pages_per_write" (ratio (d (fun s -> s.twin_pages)) writes) "count";
  pr "client.apply_us_per_read" (ratio (d_us (fun s -> s.apply)) reads) "us";
  pr "client.calls_per_op" (ratio (d (fun s -> s.calls)) ops) "count";
  pr "client.swizzles_per_read" (ratio (fi (Atomic.get Load.swizzles)) reads) "count";
  let busy = sum_probes (fun p -> p.Probe.busy) in
  pr "client.busy_retries_per_write" (ratio (fi busy) writes) "count";
  (* proto *)
  List.iter
    (fun v -> popt (Printf.sprintf "proto.call.%s.p50_us" v) (p50 ("link.call:" ^ v)) "us")
    [ "read_lock"; "write_lock"; "write_release" ];
  let calls = durs ~prefix:true "link.call:" in
  let turns = durs "server.turnaround" in
  let n_calls = Iw_hist.count calls in
  pr "proto.overhead_us_per_call"
    (ratio (total calls -. total turns) (fi n_calls))
    "us"
    ~notes:[ Printf.sprintf "n=%d" n_calls ];
  (* transport *)
  let frames = sum_probes (fun p -> Atomic.get p.Probe.frames) in
  let bytes = sum_probes (fun p -> Atomic.get p.Probe.bytes) in
  pr "transport.frames_per_op" (ratio (fi frames) ops) "count";
  pr "transport.bytes_per_op" (ratio (fi bytes) ops) "B";
  popt "transport.send.p50_us" (p50 "conn.send") "us";
  (* server *)
  popt "server.turnaround.p50_us" (percentile turns 0.5) "us";
  popt "server.turnaround.p99_us" (percentile turns 0.99) "us";
  let reqs = d (fun s -> s.phase_n) in
  List.iter2
    (fun ph us ->
      pr (Printf.sprintf "server.%s_us_per_req" (Iw_phase.name ph)) (ratio us reqs) "us")
    Iw_phase.phases phase_d;
  let phase_total = b.phase_total_us -. a.phase_total_us in
  pr "server.phase_coverage_pct" (100. *. ratio phase_sum phase_total) "pct";
  let hit_ratio hits misses = ratio (d hits) (d hits +. d misses) in
  pr "server.diff_cache_hit_ratio"
    (hit_ratio (fun s -> s.srv.diff_cache_hits) (fun s -> s.srv.diff_cache_misses))
    "ratio";
  pr "server.pred_hit_ratio"
    (hit_ratio (fun s -> s.srv.pred_hits) (fun s -> s.srv.pred_misses))
    "ratio";
  (* shard *)
  let hwm = series ~combine:Float.max b.metrics "iw_server_queue_hwm" ~value:counter in
  pr "shard.queue_hwm" hwm "count";
  pr "shard.shed_total" (delta a b "iw_server_shed_total" counter) "count";
  pr "shard.expired_total" (delta a b "iw_server_expired_total" counter) "count";
  (* store *)
  let fsyncs = delta a b "iw_store_fsync_us" hist_count in
  let batches = delta a b "iw_store_group_batch_records" hist_count in
  let appended = delta a b "iw_store_append_bytes_total" counter in
  pr "store.fsyncs_per_write" (ratio fsyncs writes) "count";
  pr "store.fsync_us_mean" (ratio (delta a b "iw_store_fsync_us" hist_sum) fsyncs) "us";
  pr "store.group_batch_mean"
    (ratio (delta a b "iw_store_group_batch_records" hist_sum) batches)
    "count";
  pr "store.append_bytes_per_write" (ratio appended writes) "B";
  (* runtime *)
  let words s = s.gc.Gc.minor_words +. s.gc.Gc.major_words -. s.gc.Gc.promoted_words in
  let majors = d (fun s -> s.gc.Gc.major_collections) in
  pr "runtime.alloc_words_per_op" (ratio (words b -. words a) ops) "words";
  pr "runtime.major_gcs_per_kop" (1000. *. ratio majors ops) "count";
  (* The ledger over traced operations: latency = generator lateness +
     client-local time + link calls, a call = link overhead + server
     turnaround, and the turnaround splits into the server's phase timer
     and what that timer does not cover (scaled from every request of the
     window, since phases are not attributable per request). *)
  let lat = total (durs ~prefix:true "op:") in
  let late = total (durs "driver.late") in
  let local = lat -. late -. total calls in
  let covered = Float.min 1. (ratio phase_sum turn_sum) in
  let share v = 100. *. ratio v lat in
  let stores = total (durs "client.stores") in
  let word_diff = sum_tally (fun t -> t.Load.word_diff_s *. 1e6) in
  let translate = sum_tally (fun t -> t.Load.translate_s *. 1e6) in
  let apply = sum_tally (fun t -> t.Load.apply_s *. 1e6) in
  let other = local -. stores -. word_diff -. translate -. apply in
  pr "ledger.late_share_pct" (share late) "pct";
  pr "ledger.client_local_share_pct" (share local) "pct";
  pr "ledger.client_other_share_pct" (share other) "pct";
  pr "ledger.proto_share_pct" (share (total calls -. total turns)) "pct";
  pr "ledger.server_phases_share_pct" (share (total turns *. covered)) "pct";
  pr "ledger.unexplained_share_pct"
    (share (total turns *. (1. -. covered)))
    "pct"
    ~notes:[ Printf.sprintf "turnarounds=%d" turn_n ];
  Printf.printf
    "# ledger client-local: stores %.1f%%, word diff %.1f%%, translate %.1f%%, apply \
     %.1f%%, other %.1f%%\n"
    (share stores) (share word_diff) (share translate) (share apply) (share other);
  spans

(* Traced against untraced operations of the same run, by median, taking
   the worse of reads and writes. *)
let trace_overhead tallies =
  let kind i =
    let tr = merged (List.map (fun t -> t.Load.traced.(i)) tallies) in
    let pl = merged (List.map (fun t -> t.Load.plain.(i)) tallies) in
    match (fst (percentile tr 0.5), fst (percentile pl 0.5)) with
    | Some a, Some b when b > 0. -> Some (100. *. ((a /. b) -. 1.))
    | _ -> None
  in
  match List.filter_map kind [ 0; 1 ] with
  | [] -> None
  | xs -> Some (List.fold_left Float.max neg_infinity xs)

(* ---- One run ---- *)

let run (w : Workloads.t) ~seed ~duration ~trace =
  let scratch = ".iwbench_run" in
  if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
  let setup = w.prepare ~seed in
  let times = ref [] and kept = ref None in
  for k = 1 to setups do
    let dir = Filename.concat scratch (Printf.sprintf "store-%d-%d" (Unix.getpid ()) k) in
    let t0 = Unix.gettimeofday () in
    let inst = setup ~trace:(trace <> None) ~dir in
    times := (Unix.gettimeofday () -. t0) :: !times;
    if k < setups then inst.teardown () else kept := Some inst;
    (* Every set-up and the window start from a collected heap, so neither
       the peak RSS nor the window's collections depend on when the garbage
       of an earlier set-up happened to be swept. *)
    Gc.full_major ()
  done;
  let inst = Option.get !kept in
  List.iter Probe.reset inst.probes;
  Atomic.set Load.swizzles 0;
  let a = snapshot inst in
  let t0 = a.wall +. 0.01 in
  let tallies = inst.generate ~trace:(trace <> None) ~t0 ~t_end:(t0 +. duration) in
  let b = snapshot inst in
  let fi = float_of_int in
  let read = merged (List.map (fun t -> t.Load.read) tallies) in
  let write = merged (List.map (fun t -> t.Load.write) tallies) in
  let late = merged (List.map (fun t -> t.Load.late) tallies) in
  let wake = merged (List.map (fun t -> t.Load.wake) tallies) in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let reads = fi (Iw_hist.count read) and writes = fi (Iw_hist.count write) in
  let ops = reads +. writes in
  let shed = delta a b "iw_server_shed_total" counter in
  let expired = delta a b "iw_server_expired_total" counter in
  let skipped = sum (fun t -> t.Load.skipped) in
  let attempted = sum (fun t -> t.Load.attempted) + skipped in
  let failed =
    sum (fun t -> t.Load.raised + t.violations) + skipped + int_of_float (shed +. expired)
  in
  let elapsed = Float.max duration (b.wall -. t0) in
  Printf.printf "# iwbench %s seed=%d duration=%gs trace=%b\n" w.name seed duration
    (trace <> None);
  print_metric "setup_s" (Some (median !times)) "s" ~notes:[ Printf.sprintf "n=%d" setups ];
  print_metric "ops_per_s" (Some (ops /. elapsed)) "ops/s"
    ~notes:[ Printf.sprintf "ops=%.0f" ops ];
  List.iter
    (fun (name, h, q) ->
      let v, notes = percentile h q in
      print_metric name v "us" ~notes)
    [
      ("read_p50_us", read, 0.5);
      ("read_p99_us", read, 0.99);
      ("write_p50_us", write, 0.5);
      ("write_p99_us", write, 0.99);
    ];
  let wire = fi (b.wire_bytes - a.wire_bytes) in
  print_metric "wire_bytes_per_op" (Some (ratio wire ops)) "B";
  print_metric "cpu_us_per_op" (Some (ratio ((b.cpu -. a.cpu) *. 1e6) ops)) "us";
  print_metric "error_ratio"
    (Some (ratio (fi failed) (fi attempted)))
    "ratio"
    ~notes:[ Printf.sprintf "attempted=%d" attempted; Printf.sprintf "failed=%d" failed ];
  print_metric "rss_peak_mb" (Some (fi (Ycsb_core.rss_hwm_kb ()) /. 1024.)) "MB";
  let p99 h = if inst.open_loop then Iw_hist.quantile h 0.99 else 0. in
  let wake_p99 = p99 wake in
  (match trace with
  | None -> ()
  | Some path ->
    let spans = per_layer inst tallies ~a ~b ~ops ~reads ~writes in
    print_metric "driver.late_p99_us" (Some (p99 late)) "us";
    print_metric "driver.wake_p99_us" (Some wake_p99) "us";
    print_metric "driver.error_ratio" (Some (ratio (fi failed) (fi attempted))) "ratio";
    print_metric "trace.overhead_pct" (trace_overhead tallies) "pct";
    Probe.write_chrome path spans);
  List.iter
    (fun t ->
      match t.Load.first_error with
      | Some e -> Printf.eprintf "iwbench: %s: first failure: %s\n" w.name e
      | None -> ())
    tallies;
  inst.teardown ();
  (try Unix.rmdir scratch with Unix.Unix_error _ -> ());
  if failed > 0 then 1
  else if wake_p99 > late_limit_us then begin
    Printf.eprintf "iwbench: %s: invalid run: generator p99 lateness %.0f us > %.0f us\n"
      w.name wake_p99 late_limit_us;
    3
  end
  else 0

let () =
  let seed = ref 1 and duration = ref 25. and trace = ref None in
  let workload = ref None in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  let usage =
    "iwbench.exe <workload> --seed N [--duration S] [--trace PATH]\nworkloads: "
    ^ String.concat ", " names
  in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--duration", Arg.Set_float duration, "S  measured seconds (default 25)");
      ( "--trace",
        Arg.String (fun p -> trace := Some p),
        "PATH  add per-layer metrics, write spans to PATH" );
    ]
  in
  let anon name =
    match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all with
    | Some w when !workload = None -> workload := Some w
    | _ -> raise (Arg.Bad ("unknown workload " ^ name))
  in
  (match Arg.parse_argv Sys.argv spec anon usage with
  | () -> ()
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | exception Arg.Help msg ->
    print_string msg;
    exit 0);
  match !workload with
  | None ->
    prerr_endline usage;
    exit 2
  | Some w ->
    if !duration <= 0. then (prerr_endline "iwbench: --duration must be positive"; exit 2);
    exit (run w ~seed:!seed ~duration:!duration ~trace:!trace)

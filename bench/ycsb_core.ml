(* Open-loop YCSB-style macro-benchmark.

   The paper's figures 4-7 are single-client microbenchmarks; this harness
   drives production-shaped load: hundreds of simulated clients, a
   configurable read/write mix, zipfian segment popularity, and a
   per-client coherence-model mix over the paper's relaxed read models
   (Full / Delta / Temporal / Diff).

   The generator is OPEN-LOOP: every operation has a scheduled arrival time
   drawn from a Poisson process fixed before the run reacts to anything,
   and latency is measured from that scheduled time — not from when the
   client actually got around to sending.  A stalled server therefore
   inflates the recorded tail (the queueing delay its victims experienced)
   instead of silently throttling the offered load, which is the
   coordinated-omission trap closed-loop harnesses fall into.

   Staleness is measured, not modelled: every committed write embeds its
   commit wall-time in the block, and the harness publishes that timestamp
   to a shared per-segment cell only after the release is acknowledged.  A
   reader samples the cell before acquiring, reads the embedded timestamp
   under the lock, and the difference is the staleness its coherence model
   actually let it observe. *)

module I = Interweave
module J = Iw_obs_json

type transport =
  | Loopback
  | Tcp

type config = {
  clients : int;
  rate : float;  (* target ops/s across all clients *)
  duration : float;  (* seconds of scheduled load *)
  read_pct : float;  (* 0..100 *)
  segments : int;
  zipf_theta : float;  (* 0 = uniform *)
  mix : (string * float) list;  (* coherence model name -> client weight *)
  delta_k : int;  (* Delta tolerance, versions *)
  temporal_s : float;  (* Temporal tolerance, seconds *)
  diff_pct : float;  (* Diff_pct tolerance, percent *)
  payload : int;  (* doubles per block, >= 2 *)
  transport : transport;
  host : string option;  (* with [port]: drive an external server *)
  port : int option;
  store : string option;  (* durable embedded server *)
  fsync : Iw_store.fsync option;
  domains : int;  (* embedded server shard worker domains; 1 = inline *)
  seed : int;
  quiet : bool;
}

let default =
  {
    clients = 64;
    rate = 2000.;
    duration = 3.;
    read_pct = 95.;
    segments = 16;
    zipf_theta = 0.99;
    mix = [ ("full", 1.); ("delta", 1.); ("temporal", 1.); ("diff", 1.) ];
    delta_k = 3;
    temporal_s = 0.05;
    diff_pct = 25.;
    payload = 16;
    transport = Loopback;
    host = None;
    port = None;
    store = None;
    fsync = None;
    domains = 1;
    seed = 42;
    quiet = false;
  }

let model_names = [ "full"; "delta"; "temporal"; "diff" ]

let coherence_of cfg = function
  | "full" -> I.Proto.Full
  | "delta" -> I.Proto.Delta cfg.delta_k
  | "temporal" -> I.Proto.Temporal cfg.temporal_s
  | "diff" -> I.Proto.Diff_pct cfg.diff_pct
  | m -> invalid_arg ("unknown coherence model " ^ m)

let seg_name i = Printf.sprintf "ycsb/seg-%d" i

(* Deterministic proportional assignment: client [idx] gets the model whose
   cumulative mix fraction covers (idx + 0.5) / clients, so a 500-client run
   with equal weights really runs 125 of each. *)
let model_of_idx cfg idx =
  let mix = List.filter (fun (_, w) -> w > 0.) cfg.mix in
  let mix = if mix = [] then [ ("full", 1.) ] else mix in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. mix in
  let u = (float_of_int idx +. 0.5) /. float_of_int (max 1 cfg.clients) in
  let rec pick acc = function
    | [ (m, _) ] -> m
    | (m, w) :: rest -> if u < (acc +. w) /. total then m else pick (acc +. w) rest
    | [] -> assert false
  in
  pick 0. mix

(* Zipfian popularity over segment ranks: weight of rank i is 1/i^theta.
   Sampling is a binary search over the precomputed cumulative weights. *)
let zipf_cumulative n theta =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cum.(i) <- !acc
  done;
  cum

let zipf_pick cum rng =
  let total = cum.(Array.length cum - 1) in
  let u = Random.State.float rng total in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo

(* What one simulated client accumulates.  Histograms are per-worker and
   merged after the join — no lock on the recording path. *)
type worker = {
  w_idx : int;
  w_model : string;
  w_lat : Iw_hist.t;  (* every completed op, us from scheduled start *)
  w_read : Iw_hist.t;
  w_write : Iw_hist.t;
  w_stale : Iw_hist.t;  (* observed staleness at read, us *)
  mutable w_reads : int;
  mutable w_writes : int;
  mutable w_errors : int;
  mutable w_skipped : int;  (* scheduled ops abandoned at the grace cutoff *)
  mutable w_bytes_sent : int;
  mutable w_bytes_received : int;
  mutable w_calls : int;
}

let new_worker ~idx ~model =
  {
    w_idx = idx;
    w_model = model;
    w_lat = Iw_hist.create ();
    w_read = Iw_hist.create ();
    w_write = Iw_hist.create ();
    w_stale = Iw_hist.create ();
    w_reads = 0;
    w_writes = 0;
    w_errors = 0;
    w_skipped = 0;
    w_bytes_sent = 0;
    w_bytes_received = 0;
    w_calls = 0;
  }

type shared = {
  latest : float array;  (* per segment: newest ACKED commit timestamp *)
  seg_stale : (Mutex.t * Iw_hist.t) array;  (* per segment, cross-worker *)
}

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

type endpoint =
  | Ep_loopback of I.server
  | Ep_tcp of string * int

(* Hundreds of workers connecting at once can outrun the server's accept
   loop (listen-backlog overflow resets the connection); back off and
   retry rather than killing the worker thread. *)
let connect_client ep =
  match ep with
  | Ep_loopback server -> I.loopback_client server
  | Ep_tcp (host, port) ->
    let rec go n =
      match I.tcp_client ~host ~port () with
      | c -> c
      | exception Iw_transport.Connect_failed _ when n > 0 ->
        Thread.delay 0.05;
        go (n - 1)
    in
    go 100

(* Embedded servers get a lease so that, under an IW_FAULT plan, a worker
   whose connection dies mid-critical-section resumes with its write lock
   intact instead of surfacing Lock_lost. *)
let make_endpoint cfg =
  match (cfg.host, cfg.port) with
  | Some h, Some p -> (Ep_tcp (h, p), None, None)
  | _ ->
    let server =
      I.start_server ~lease_secs:30.0 ~domains:cfg.domains ?checkpoint_dir:cfg.store
        ?fsync:cfg.fsync ()
    in
    (match cfg.transport with
    | Loopback -> (Ep_loopback server, Some server, None)
    | Tcp ->
      let port = free_port () in
      let stop = ref false in
      let th =
        Thread.create
          (fun () ->
            Iw_transport.tcp_server ~port ~stop (fun conn ->
                Iw_server.serve_conn server conn))
          ()
      in
      (* Wait until the accept loop answers. *)
      let rec ready n =
        match Iw_transport.tcp_connect ~host:"127.0.0.1" ~port with
        | conn -> conn.Iw_transport.close ()
        | exception Iw_transport.Connect_failed _ when n > 0 ->
          Thread.delay 0.02;
          ready (n - 1)
      in
      ready 250;
      (Ep_tcp ("127.0.0.1", port), Some server, Some (stop, th)))

(* One writer-style setup pass: create every segment with a named payload
   block whose element 0 carries the commit timestamp. *)
let setup_segments cfg ep shared =
  let c = connect_client ep in
  let desc = I.Desc.array I.Desc.double (max 2 cfg.payload) in
  for i = 0 to cfg.segments - 1 do
    let h = I.open_segment c (seg_name i) in
    I.wl_acquire h;
    (if I.Client.find_named_block h "p" = None then
       ignore (I.malloc ~name:"p" h desc : I.addr));
    let a0 = I.mip_to_ptr c (seg_name i ^ "#p#0") in
    let ts = Unix.gettimeofday () in
    I.Client.write_double c a0 ts;
    I.wl_release h;
    shared.latest.(i) <- ts
  done;
  I.Client.disconnect c;
  desc

let now () = Unix.gettimeofday ()

(* Run one scheduled op.  A completed op's latency, from its scheduled
   start, goes to the histograms; an op that raised counts only in
   [w_errors], so failures never masquerade as fast (or slow) successes. *)
let timed_op w ~is_read ~sched op =
  match op () with
  | () ->
    let lat_us = (now () -. sched) *. 1e6 in
    Iw_hist.record w.w_lat lat_us;
    Iw_hist.record (if is_read then w.w_read else w.w_write) lat_us
  | exception _ -> w.w_errors <- w.w_errors + 1

let run_worker cfg ep shared desc w start_gate =
  let c = connect_client ep in
  let model = w.w_model in
  let segs =
    Array.init cfg.segments (fun i ->
        let h = I.open_segment ~create:false c (seg_name i) in
        I.set_coherence h (coherence_of cfg model);
        let a0 = I.mip_to_ptr c (seg_name i ^ "#p#0") in
        (i, h, a0))
  in
  let rng = Random.State.make [| cfg.seed; w.w_idx; 0x59c5b |] in
  let cum = zipf_cumulative cfg.segments cfg.zipf_theta in
  let mean_gap = float_of_int cfg.clients /. cfg.rate in
  let next_gap () =
    (* Poisson arrivals: exponential inter-arrival times. *)
    -.mean_gap *. log (1. -. Random.State.float rng 1.)
  in
  let payload = max 2 cfg.payload in
  let do_read (si, h, a0) =
    let expected = shared.latest.(si) in
    I.rl_acquire h;
    let obs = I.Client.read_double c a0 in
    I.rl_release h;
    let stale_us = Float.max 0. ((expected -. obs) *. 1e6) in
    Iw_hist.record w.w_stale stale_us;
    let m, sh = shared.seg_stale.(si) in
    Mutex.lock m;
    Iw_hist.record sh stale_us;
    Mutex.unlock m;
    w.w_reads <- w.w_reads + 1
  in
  let do_write (si, h, a0) =
    I.wl_acquire h;
    let ts = now () in
    I.Client.write_double c a0 ts;
    (* Touch one payload word too so diffs carry real data, at a position
       that varies (diff runs are not always the same single word). *)
    let k = 1 + Random.State.int rng (payload - 1) in
    let ak = I.deref c desc a0 [ I.I k ] in
    I.Client.write_double c ak ts;
    I.wl_release h;
    (* Publish only after the ack: a reader that samples [latest] now is
       guaranteed the server really has this version. *)
    if ts > shared.latest.(si) then shared.latest.(si) <- ts;
    w.w_writes <- w.w_writes + 1
  in
  (* Wait for every worker to finish connecting, then read the shared
     schedule origin — connect time must not eat into the schedule. *)
  let t0, t_end = start_gate () in
  let grace = t_end +. Float.max 10. cfg.duration in
  let rec loop sched =
    if sched < t_end then begin
      let t = now () in
      if t > grace then
        (* Hopelessly behind (server stalled for the whole grace window):
           abandoning the remaining schedule is reported, never silent. *)
        w.w_skipped <-
          w.w_skipped + int_of_float (Float.max 1. ((t_end -. sched) /. mean_gap))
      else begin
        if t < sched then Thread.delay (sched -. t);
        let target = segs.(zipf_pick cum rng) in
        let is_read = Random.State.float rng 100. < cfg.read_pct in
        timed_op w ~is_read ~sched (fun () ->
            if is_read then do_read target else do_write target);
        loop (sched +. next_gap ())
      end
    end
  in
  loop (t0 +. next_gap ());
  let st = I.Client.stats c in
  w.w_bytes_sent <- st.I.Client.bytes_sent;
  w.w_bytes_received <- st.I.Client.bytes_received;
  w.w_calls <- st.I.Client.calls;
  (try I.Client.disconnect c with _ -> ())

(* NaN/infinity would render as invalid JSON; empty histograms report 0. *)
let num v = if Float.is_nan v || not (Float.is_finite v) then J.Num 0. else J.Num v

let hist_fields prefix h =
  let s = Iw_hist.summary h in
  [
    (prefix ^ "p50_us", num s.Iw_hist.sm_p50);
    (prefix ^ "p90_us", num s.Iw_hist.sm_p90);
    (prefix ^ "p99_us", num s.Iw_hist.sm_p99);
    (prefix ^ "p999_us", num s.Iw_hist.sm_p999);
    (prefix ^ "max_us", num s.Iw_hist.sm_max);
  ]

(* ---- The "phase" figure: server-side request-lifecycle decomposition ----

   Where did the latency go?  The server times every request through the
   Iw_phase pipeline (decode / lock_wait / service / wal / reply); this
   section reports each phase's request count, exact summed exclusive
   microseconds, share of the end-to-end total, and p50/p99 — plus a
   "phase:total" row whose coverage_pct says how much of the measured total
   the phases explain (the one-big-lock server should sit near 100: at
   saturation the lock wait IS the queueing).

   On embedded runs the server object is in hand and Iw_phase.stats gives
   exact Iw_hist quantiles; against an external server (--host/--port) the
   same decomposition is derived from a Server_stats snapshot, whose
   iw_server_phase_us{phase=...} histograms carry exact sums but bucketed
   (conservative) quantiles. *)

type phase_cell = {
  pc_name : string;
  pc_count : int;
  pc_sum_us : float;  (* exact accumulated exclusive us *)
  pc_p50_us : float;
  pc_p99_us : float;
}

let finite v = if Float.is_nan v || not (Float.is_finite v) then 0. else v

let phase_cells_embedded server =
  let st = I.Server.phase_stats server in
  let cell_of name count sum_us (s : Iw_hist.summary) =
    {
      pc_name = name;
      pc_count = count;
      pc_sum_us = sum_us;
      pc_p50_us = finite s.Iw_hist.sm_p50;
      pc_p99_us = finite s.Iw_hist.sm_p99;
    }
  in
  let cells =
    List.map
      (fun p ->
        let s = Iw_phase.phase_summary st p in
        cell_of (Iw_phase.name p) s.Iw_hist.sm_count (Iw_phase.phase_sum_us st p) s)
      Iw_phase.phases
  in
  let t = Iw_phase.total_summary st in
  (cells, cell_of "total" t.Iw_hist.sm_count (Iw_phase.total_sum_us st) t)

let phase_cells_of_snapshot snap =
  let cell name hist =
    match hist with
    | Some hv ->
      {
        pc_name = name;
        pc_count = hv.Iw_metrics.hv_count;
        pc_sum_us = hv.Iw_metrics.hv_sum;
        pc_p50_us = finite (Iw_metrics.hist_quantile hv 0.5);
        pc_p99_us = finite (Iw_metrics.hist_quantile hv 0.99);
      }
    | None ->
      { pc_name = name; pc_count = 0; pc_sum_us = 0.; pc_p50_us = 0.; pc_p99_us = 0. }
  in
  let hist name =
    match Iw_metrics.find snap name with
    | Some (Iw_metrics.V_hist hv) -> Some hv
    | _ -> None
  in
  let cells =
    List.map
      (fun p ->
        let n = Iw_phase.name p in
        cell n (hist (Iw_metrics.with_label "iw_server_phase_us" "phase" n)))
      Iw_phase.phases
  in
  (cells, cell "total" (hist "iw_server_request_total_us"))

(* ---- Overload accounting: what the server refused to do ----

   Shed (mailbox full or read-only degradation) and expired (deadline blown
   in queue or before the WAL) counters, read from the same server metrics
   snapshot as the phase section.  They feed the overall row's shed/expired
   cells — the load a saturated server is *supposed* to refuse — and the
   accepted_ops_per_s figure the regression gate scores as
   higher-is-better. *)

type overload_cells = {
  oc_shed : int;  (* queue_full + read_only *)
  oc_expired : int;  (* queue + wal *)
  oc_snapshot_reads : int;  (* reads served inline from the last commit *)
}

let overload_cells_of_snapshot snap =
  let counter name =
    match Iw_metrics.find snap name with
    | Some (Iw_metrics.V_counter v) -> int_of_float v
    | _ -> 0
  in
  let labelled base label value =
    counter (Iw_metrics.with_label base label value)
  in
  {
    oc_shed =
      labelled "iw_server_shed_total" "reason" "queue_full"
      + labelled "iw_server_shed_total" "reason" "read_only";
    oc_expired =
      labelled "iw_server_expired_total" "phase" "queue"
      + labelled "iw_server_expired_total" "phase" "wal";
    oc_snapshot_reads = counter "iw_server_snapshot_reads_total";
  }

(* Peak resident set (VmHWM) of this process, in kB — on an embedded run
   that includes the server, which is the point: the overload smoke run
   asserts a saturated server's memory stays bounded by the admission gate
   instead of growing with the offered load.  0 where /proc is absent. *)
let rss_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let v = try scan () with Scanf.Scan_failure _ | Failure _ -> 0 in
    close_in_noerr ic;
    v

(* One Hello + Server_stats round trip against an external server.  An old
   server that answers R_error (or drops the connection on the unknown tag)
   yields None — the phase section then reports zeros rather than failing
   the benchmark run. *)
let fetch_server_snapshot host port =
  match
    let conn = Iw_transport.tcp_connect ~host ~port in
    let link = Iw_proto.demux_link conn ~on_notify:(fun _ -> ()) in
    Fun.protect
      ~finally:(fun () -> try link.Iw_proto.close () with _ -> ())
      (fun () ->
        match link.Iw_proto.call (Iw_proto.Hello { arch = "bench" }) with
        | Iw_proto.R_hello { session } -> (
          match link.Iw_proto.call (Iw_proto.Server_stats { session }) with
          | Iw_proto.R_server_stats snap -> Some snap
          | _ -> None)
        | _ -> None)
  with
  | snap -> snap
  | exception _ -> None

let phase_json (cells, total) =
  let share sum_us =
    if total.pc_sum_us > 0. then 100. *. sum_us /. total.pc_sum_us else 0.
  in
  let phase_sum = List.fold_left (fun a c -> a +. c.pc_sum_us) 0. cells in
  let row c extra =
    J.Obj
      ([
         ("series", J.Str ("phase:" ^ c.pc_name));
         ("count", J.num_int c.pc_count);
         ("sum_us", num c.pc_sum_us);
         ("share_pct", num (share c.pc_sum_us));
         ("p50_us", num c.pc_p50_us);
         ("p99_us", num c.pc_p99_us);
       ]
      @ extra)
  in
  J.Arr
    (List.map (fun c -> row c []) cells
    @ [
        row total
          [ ("phase_sum_us", num phase_sum); ("coverage_pct", num (share phase_sum)) ];
      ])

let print_phases (cells, total) =
  if total.pc_count > 0 && total.pc_sum_us > 0. then begin
    Printf.printf "  server phases (%d requests):" total.pc_count;
    List.iter
      (fun c ->
        Printf.printf " %s %.0f%%" c.pc_name (100. *. c.pc_sum_us /. total.pc_sum_us))
      cells;
    Printf.printf "\n%!"
  end

type result = {
  rows : J.t;  (* the "ycsb" figure section: an array of flat rows *)
  phase_rows : J.t;  (* the "phase" figure section: one row per phase + total *)
  throughput : float;
  ops : int;
  errors : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

let merge_group hs =
  let acc = Iw_hist.create () in
  List.iter (fun h -> Iw_hist.merge ~into:acc h) hs;
  acc

let run cfg =
  if cfg.clients < 1 || cfg.segments < 1 || cfg.rate <= 0. || cfg.duration <= 0.
  then invalid_arg "ycsb: clients/segments >= 1, rate/duration > 0";
  let ep, server, tcp_stop = make_endpoint cfg in
  let shared =
    {
      latest = Array.make cfg.segments 0.;
      seg_stale =
        Array.init cfg.segments (fun _ -> (Mutex.create (), Iw_hist.create ()));
    }
  in
  let desc = setup_segments cfg ep shared in
  let workers =
    Array.init cfg.clients (fun i -> new_worker ~idx:i ~model:(model_of_idx cfg i))
  in
  (* Start gate: workers connect, report ready, and block until the main
     thread fixes the common schedule origin. *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let ready = ref 0 in
  let window = ref None in
  let start_gate () =
    Mutex.lock gate_m;
    incr ready;
    Condition.broadcast gate_c;
    let rec wait () =
      match !window with
      | Some w -> w
      | None ->
        Condition.wait gate_c gate_m;
        wait ()
    in
    let w = wait () in
    Mutex.unlock gate_m;
    w
  in
  let threads =
    Array.map
      (fun w -> Thread.create (fun () -> run_worker cfg ep shared desc w start_gate) ())
      workers
  in
  Mutex.lock gate_m;
  while !ready < cfg.clients do
    Condition.wait gate_c gate_m
  done;
  let t0 = now () +. 0.05 in
  window := Some (t0, t0 +. cfg.duration);
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Array.iter Thread.join threads;
  let wall = now () -. t0 in
  (match tcp_stop with
  | Some (stop, th) ->
    stop := true;
    Thread.join th
  | None -> ());
  (* Leave a durable embedded server's store validatable: a final checkpoint
     plus whatever WAL records followed it. *)
  (match server with
  | Some s when cfg.store <> None -> I.Server.checkpoint s
  | _ -> ());
  let ws = Array.to_list workers in
  let lat = merge_group (List.map (fun w -> w.w_lat) ws) in
  let read_lat = merge_group (List.map (fun w -> w.w_read) ws) in
  let write_lat = merge_group (List.map (fun w -> w.w_write) ws) in
  let sum f = List.fold_left (fun a w -> a + f w) 0 ws in
  let ops = Iw_hist.count lat in
  let errors = sum (fun w -> w.w_errors) in
  let skipped = sum (fun w -> w.w_skipped) in
  let bytes_sent = sum (fun w -> w.w_bytes_sent) in
  let bytes_received = sum (fun w -> w.w_bytes_received) in
  let elapsed = Float.max wall cfg.duration in
  let throughput = float_of_int ops /. elapsed in
  (* Grab the server's metrics once, before shutdown, for both the phase
     decomposition and the overload cells. *)
  let phase_cells, overload =
    match server with
    | Some s ->
      ( phase_cells_embedded s,
        overload_cells_of_snapshot (Iw_metrics.snapshot (I.Server.metrics s)) )
    | None -> (
      match (cfg.host, cfg.port) with
      | Some h, Some p -> (
        match fetch_server_snapshot h p with
        | Some snap ->
          (phase_cells_of_snapshot snap, overload_cells_of_snapshot snap)
        | None ->
          Printf.eprintf
            "note: external server answered no Server_stats (too old?); phase \
             section reports zeros\n%!";
          (phase_cells_of_snapshot [], overload_cells_of_snapshot []))
      | _ -> (phase_cells_of_snapshot [], overload_cells_of_snapshot []))
  in
  (* Accepted = attempts the server actually served.  Under overload the
     offered rate is a lie — shed and expired answers come back fast and
     cheap — so the regression gate scores this figure, not raw ops. *)
  let accepted = max 0 (ops - errors) in
  let accepted_per_s = float_of_int accepted /. elapsed in
  let overall_row =
    J.Obj
      ([
         ("series", J.Str "overall");
         ("clients", J.num_int cfg.clients);
         ("segments", J.num_int cfg.segments);
         ("rate_target_per_s", J.Num cfg.rate);
         ("duration_s", J.Num cfg.duration);
         ("read_pct", J.Num cfg.read_pct);
         ("zipf_theta", J.Num cfg.zipf_theta);
         ("ops", J.num_int ops);
         ("reads", J.num_int (sum (fun w -> w.w_reads)));
         ("writes", J.num_int (sum (fun w -> w.w_writes)));
         ("errors", J.num_int errors);
         ("skipped", J.num_int skipped);
         ("throughput_ops_per_s", num throughput);
         ("accepted_ops_per_s", num accepted_per_s);
         ("shed", J.num_int overload.oc_shed);
         ("expired", J.num_int overload.oc_expired);
         ("snapshot_reads", J.num_int overload.oc_snapshot_reads);
         ("rss_hwm_kb", J.num_int (rss_hwm_kb ()));
         ("mean_us", num (Iw_hist.mean lat));
       ]
      @ hist_fields "" lat
      @ [
          ("bytes_sent", J.num_int bytes_sent);
          ("bytes_received", J.num_int bytes_received);
          ("calls", J.num_int (sum (fun w -> w.w_calls)));
        ])
  in
  let rw_rows =
    [
      J.Obj
        (("series", J.Str "read")
         :: ("ops", J.num_int (Iw_hist.count read_lat))
         :: hist_fields "" read_lat);
      J.Obj
        (("series", J.Str "write")
         :: ("ops", J.num_int (Iw_hist.count write_lat))
         :: hist_fields "" write_lat);
    ]
  in
  let coh_rows =
    List.filter_map
      (fun m ->
        let group = List.filter (fun w -> w.w_model = m) ws in
        if group = [] then None
        else begin
          let glat = merge_group (List.map (fun w -> w.w_read) group) in
          let gstale = merge_group (List.map (fun w -> w.w_stale) group) in
          Some
            (J.Obj
               ([
                  ("series", J.Str ("coherence:" ^ m));
                  ("clients", J.num_int (List.length group));
                  ("reads", J.num_int (Iw_hist.count gstale));
                ]
               @ hist_fields "" glat
               @ hist_fields "stale_" gstale))
        end)
      model_names
  in
  let seg_rows =
    List.init cfg.segments (fun i ->
        let _, sh = shared.seg_stale.(i) in
        J.Obj
          ([
             ("series", J.Str ("seg:" ^ seg_name i));
             ("reads", J.num_int (Iw_hist.count sh));
           ]
          @ hist_fields "stale_" sh))
  in
  let rows = J.Arr ((overall_row :: rw_rows) @ coh_rows @ seg_rows) in
  (* The phase stats above were the embedded server's last read; shut it
     down so a process running several configurations back to back (the
     bench suite, domain sweeps) does not accumulate idle shard worker
     domains. *)
  (match server with Some s -> I.Server.shutdown s | None -> ());
  let sm = Iw_hist.summary lat in
  if not cfg.quiet then begin
    Printf.printf
      "ycsb: %d clients, %.0f ops/s offered for %.1fs (%s), %d segments, \
       zipf %.2f, %.0f%% reads\n"
      cfg.clients cfg.rate cfg.duration
      (match ep with Ep_loopback _ -> "loopback" | Ep_tcp (h, p) -> Printf.sprintf "tcp %s:%d" h p)
      cfg.segments cfg.zipf_theta cfg.read_pct;
    Printf.printf
      "  %d ops (%d errors, %d skipped), %.0f ops/s, latency us \
       p50=%.0f p90=%.0f p99=%.0f p999=%.0f max=%.0f\n"
      ops errors skipped throughput sm.Iw_hist.sm_p50 sm.Iw_hist.sm_p90
      sm.Iw_hist.sm_p99 sm.Iw_hist.sm_p999 sm.Iw_hist.sm_max;
    List.iter
      (fun m ->
        let group = List.filter (fun w -> w.w_model = m) ws in
        if group <> [] then begin
          let gstale = merge_group (List.map (fun w -> w.w_stale) group) in
          let gs = Iw_hist.summary gstale in
          Printf.printf
            "  %-9s %3d clients, staleness us p50=%.0f p99=%.0f max=%.0f (%d reads)\n"
            m (List.length group)
            (if Float.is_nan gs.Iw_hist.sm_p50 then 0. else gs.Iw_hist.sm_p50)
            (if Float.is_nan gs.Iw_hist.sm_p99 then 0. else gs.Iw_hist.sm_p99)
            (if Float.is_nan gs.Iw_hist.sm_max then 0. else gs.Iw_hist.sm_max)
            (Iw_hist.count gstale)
        end)
      model_names;
    print_phases phase_cells;
    if overload.oc_shed > 0 || overload.oc_expired > 0 || overload.oc_snapshot_reads > 0
    then
      Printf.printf
        "  overload: %d shed, %d expired, %d snapshot reads, %.0f accepted ops/s\n"
        overload.oc_shed overload.oc_expired overload.oc_snapshot_reads
        accepted_per_s;
    Printf.printf "  bytes on wire: %d sent, %d received\n%!" bytes_sent
      bytes_received
  end;
  {
    rows;
    phase_rows = phase_json phase_cells;
    throughput;
    ops;
    errors;
    p50_us = sm.Iw_hist.sm_p50;
    p99_us = sm.Iw_hist.sm_p99;
    p999_us = sm.Iw_hist.sm_p999;
  }

(* The BENCH_results.json document shape, shared by `bench --json` and the
   standalone ycsb driver.  Written atomically (temp + fsync + rename): an
   interrupted run can never leave a torn baseline behind.  The document is
   re-parsed before success is declared, so an encoder regression fails the
   producer, not the downstream consumer. *)
let write_doc ?(quick = false) ?(size = 0) path figures =
  let doc =
    J.Obj
      [
        ("suite", J.Str "iw-bench");
        ("paper", J.Str "Tang et al., ICDCS 2003");
        ("quick", J.Bool quick);
        ("size_bytes", J.num_int size);
        ("figures", J.Obj figures);
      ]
  in
  Iw_store.write_atomically path (J.to_string doc ^ "\n");
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse contents with
  | Ok _ -> Printf.printf "wrote %s\n%!" path
  | Error e ->
    Printf.eprintf "error: %s is not valid JSON: %s\n" path e;
    exit 1

(* Operator tool for a running InterWeave server: inspect segments, force
   checkpoints, dump live metrics, and dump segment contents in wire-format
   terms. *)

(* Stray notifications (e.g. from a segment another admin command subscribed
   to) are surfaced on stderr rather than silently dropped. *)
let print_notification (n : Iw_proto.notification) =
  Printf.eprintf "notification: %s -> version %d\n%!" n.Iw_proto.n_segment
    n.Iw_proto.n_version

(* An unreachable or refusing server is an ordinary operator mistake (wrong
   host/port, server down): report it plainly and exit non-zero, never a
   backtrace. *)
let tcp_connect host port =
  try Iw_transport.tcp_connect ~host ~port
  with Iw_transport.Connect_failed msg ->
    Printf.eprintf "iw-admin: %s\n" msg;
    exit 1

let connect ?(on_notify = print_notification) host port =
  let link = Iw_proto.crc_link (tcp_connect host port) ~on_notify in
  match link.Iw_proto.call (Iw_proto.Hello { arch = "admin" }) with
  | Iw_proto.R_hello { session } -> (link, session)
  | _ ->
    link.Iw_proto.close ();
    Printf.eprintf "iw-admin: handshake with %s:%d failed\n" host port;
    exit 1

let fail_response link what = function
  | Iw_proto.R_error msg ->
    link.Iw_proto.close ();
    Printf.eprintf "error: %s: %s\n" what msg;
    exit 1
  | _ ->
    link.Iw_proto.close ();
    Printf.eprintf "error: unexpected response to %s\n" what;
    exit 1

let stat host port name =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Stat { session; name }) with
  | Iw_proto.R_stat st ->
    Printf.printf "segment          %s\n" name;
    Printf.printf "version          %d\n" st.Iw_proto.st_version;
    Printf.printf "blocks           %d\n" st.Iw_proto.st_blocks;
    Printf.printf "primitive units  %d\n" st.Iw_proto.st_total_units;
    Printf.printf "diff cache       %d hits / %d misses\n" st.Iw_proto.st_diff_cache_hits
      st.Iw_proto.st_diff_cache_misses
  | r -> fail_response link "stat" r);
  link.Iw_proto.close ();
  0

let render_snapshot snap json prom =
  if json then print_endline (Iw_obs_json.to_string (Iw_metrics.render_json snap))
  else if prom then print_string (Iw_metrics.render_prometheus snap)
  else Format.printf "%a" Iw_metrics.pp_text snap

let server_stats host port json prom =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Server_stats { session }) with
  | Iw_proto.R_server_stats snap -> render_snapshot snap json prom
  | r -> fail_response link "stats" r);
  link.Iw_proto.close ();
  0

let segment_stats host port json prom segment =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Segment_stats { session; segment }) with
  | Iw_proto.R_segment_stats snap ->
    if snap = [] then
      Printf.eprintf "note: no per-segment samples yet%s\n"
        (match segment with Some s -> " for segment " ^ s | None -> "");
    render_snapshot snap json prom
  | r -> fail_response link "segstats" r);
  link.Iw_proto.close ();
  0

let flight_dump host port =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Flight_recorder { session }) with
  | Iw_proto.R_flight json -> print_endline json
  | r -> fail_response link "flight" r);
  link.Iw_proto.close ();
  0

let blocks host port name =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Segment_meta { session; name }) with
  | Iw_proto.R_meta { version; descs; blocks } ->
    Printf.printf "segment %s, version %d, %d descriptors, %d blocks\n" name version
      (List.length descs) (List.length blocks);
    List.iter
      (fun (serial, d) ->
        Format.printf "  type %-4d %a (%d units)@." serial Iw_types.pp d
          (Iw_types.prim_count d))
      descs;
    List.iter
      (fun (mb : Iw_proto.meta_block) ->
        Printf.printf "  block %-6d type %-4d %s\n" mb.Iw_proto.mb_serial
          mb.Iw_proto.mb_desc_serial
          (match mb.Iw_proto.mb_name with Some n -> n | None -> ""))
      blocks
  | r -> fail_response link "meta" r);
  link.Iw_proto.close ();
  0

let version host port name =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Get_version { session; name }) with
  | Iw_proto.R_version v -> Printf.printf "%d\n" v
  | r -> fail_response link "get-version" r);
  link.Iw_proto.close ();
  0

let checkpoint host port =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Checkpoint { session }) with
  | Iw_proto.R_ok -> print_endline "checkpoint complete"
  | r -> fail_response link "checkpoint" r);
  link.Iw_proto.close ();
  0

let pp_hex_id id = if id = 0 then "-" else Iw_trace.pp_id id

(* The server's sampled slow-request log: the K slowest requests of the
   recent windows, slowest first.  Trace/span ids are the ones the client's
   request envelope carried, so an entry can be looked up directly in the
   matching Perfetto trace. *)
let slowlog host port limit json =
  let link, session = connect host port in
  (match link.Iw_proto.call (Iw_proto.Slow_log { session; limit }) with
  | Iw_proto.R_slow_log entries ->
    if json then begin
      let open Iw_obs_json in
      print_endline
        (to_string
           (Arr
              (List.map
                 (fun (e : Iw_slowlog.entry) ->
                   Obj
                     [
                       ("t", Num e.Iw_slowlog.e_t);
                       ("latency_us", Num e.e_latency_us);
                       ("wait_us", Num e.e_wait_us);
                       ("service_us", Num e.e_service_us);
                       ("wal_us", Num e.e_wal_us);
                       ("variant", Str e.e_variant);
                       ("segment", Str e.e_segment);
                       ("session", num_int e.e_session);
                       ("seq", num_int e.e_seq);
                       ("trace_id", Str (Iw_trace.pp_id e.e_trace_id));
                       ("span_id", Str (Iw_trace.pp_id e.e_span_id));
                       ("deadline_missed", Bool e.e_deadline_missed);
                     ])
                 entries)))
    end
    else if entries = [] then
      print_endline "slow log is empty (no sampled requests in the recent windows)"
    else begin
      Printf.printf "%-12s %11s %9s %9s %9s %3s  %-14s %-24s %7s %6s  %-16s %-16s\n"
        "TIME" "LAT_US" "WAIT_US" "SVC_US" "WAL_US" "DL" "VARIANT" "SEGMENT" "SESSION"
        "SEQ" "TRACE_ID" "SPAN_ID";
      (* The wait/service/wal columns are the server-side phase shares of
         the latency (see Iw_phase) — "-" on entries recorded without a
         phase timer (a direct in-process link).  DL
         marks requests that blew their propagated deadline (answered
         R_expired, or completed after the budget ran out). *)
      let phase_col v = if v <= 0. then "-" else Printf.sprintf "%.0f" v in
      List.iter
        (fun (e : Iw_slowlog.entry) ->
          let tm = Unix.localtime e.Iw_slowlog.e_t in
          Printf.printf "%02d:%02d:%02d.%03d %11.0f %9s %9s %9s %3s  %-14s %-24s %7d %6d  %-16s %-16s\n"
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
            (int_of_float (Float.rem e.Iw_slowlog.e_t 1. *. 1000.))
            e.e_latency_us
            (phase_col e.e_wait_us)
            (phase_col e.e_service_us)
            (phase_col e.e_wal_us)
            (if e.e_deadline_missed then "DL!" else "-")
            e.e_variant
            (if e.e_segment = "" then "-" else e.e_segment)
            e.e_session e.e_seq (pp_hex_id e.e_trace_id) (pp_hex_id e.e_span_id))
        entries
    end
  | r -> fail_response link "slowlog" r);
  link.Iw_proto.close ();
  0

(* ---- iw-admin top: a refreshing terminal dashboard ----

   Polls Server_stats and Segment_stats every interval and renders the
   WINDOW between consecutive snapshots: counter deltas become rates,
   histogram bucket-count deltas become a window histogram whose
   conservative p50/p99 come from Iw_metrics.hist_quantile.  'q' (or
   ctrl-c) quits; --once renders a single frame and exits, which is also
   the testable non-tty path. *)

let value_of snap name =
  match Iw_metrics.find snap name with
  | Some (Iw_metrics.V_counter v) | Some (Iw_metrics.V_gauge v) -> Some v
  | _ -> None

let hist_of snap name =
  match Iw_metrics.find snap name with
  | Some (Iw_metrics.V_hist hv) -> Some hv
  | _ -> None

(* ---- overload series (shed / expired / queue high-watermark) ----

   The shed and expired counters carry reason/phase labels, and the queue
   high-watermark and overload-state gauges carry a shard label on
   multi-domain servers (none on a single shard) — so aggregate over every
   sample whose name is the base or base{...}: sum for counters, max for
   gauges. *)

let fold_prefixed init combine snap base =
  let brace = base ^ "{" in
  List.fold_left
    (fun acc (s : Iw_metrics.sample) ->
      let n = s.Iw_metrics.s_name in
      if n = base
         || (String.length n > String.length brace
            && String.sub n 0 (String.length brace) = brace)
      then
        match s.Iw_metrics.s_value with
        | Iw_metrics.V_counter v | Iw_metrics.V_gauge v -> combine acc v
        | Iw_metrics.V_hist _ -> acc
      else acc)
    init snap

let sum_prefixed snap base = fold_prefixed 0. ( +. ) snap base
let max_prefixed snap base = fold_prefixed 0. Float.max snap base

(* "base{segment=\"x\"}" -> Some (base, x); label values in these series
   come from segment URLs, printed as-is (escapes undone for the common
   case is not worth it here). *)
let seg_series name =
  match String.index_opt name '{' with
  | Some i when String.length name > i + 10 && String.sub name (i + 1) 9 = "segment=\"" ->
    let base = String.sub name 0 i in
    let v_start = i + 10 in
    (match String.rindex_opt name '"' with
    | Some j when j > v_start - 1 ->
      Some (base, String.sub name v_start (j - v_start))
    | _ -> None)
  | _ -> None

(* Deltas are clamped at zero: across a server restart the new snapshot's
   counts are below the old one's, and a negative rate or a quantile over
   negative bucket counts is nonsense.  The restart itself is announced once
   per frame (see [restarted]) instead of leaking into every cell. *)
let hist_delta (old_ : Iw_metrics.hist_view option) (nw : Iw_metrics.hist_view) =
  match old_ with
  | None -> nw
  | Some o when Array.length o.Iw_metrics.hv_counts = Array.length nw.Iw_metrics.hv_counts
    ->
    {
      nw with
      Iw_metrics.hv_counts =
        Array.mapi
          (fun i c -> max 0 (c - o.Iw_metrics.hv_counts.(i)))
          nw.Iw_metrics.hv_counts;
      hv_count = max 0 (nw.Iw_metrics.hv_count - o.Iw_metrics.hv_count);
      hv_sum = Float.max 0. (nw.Iw_metrics.hv_sum -. o.Iw_metrics.hv_sum);
    }
  | Some _ -> nw

(* A counter that went backwards means the server restarted (a fresh
   registry) between the two snapshots. *)
let restarted prev cur =
  List.exists
    (fun (s : Iw_metrics.sample) ->
      match s.Iw_metrics.s_value with
      | Iw_metrics.V_counter nv -> (
        match value_of prev s.Iw_metrics.s_name with
        | Some ov -> nv < ov
        | None -> false)
      | _ -> false)
    cur

let fmt_q v =
  if Float.is_nan v then "-"
  else if v = infinity then "inf"
  else if v >= 1e6 then Printf.sprintf "%.1fs" (v /. 1e6)
  else if v >= 1e4 then Printf.sprintf "%.0fms" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_rate v =
  if Float.abs v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if Float.abs v >= 1e4 then Printf.sprintf "%.0fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(* One dashboard section shared by top and contention: SHED/S and
   EXPIRED/S over the window, lifetime totals, the deepest any shard
   mailbox has ever been, and the worst shard's overload state.  Rendered
   only once the server has shed, expired or queued anything. *)
let overload_lines (emit : string -> unit) prev_snap cur_snap dt =
  let line fmt = Printf.ksprintf emit fmt in
  let shed = sum_prefixed cur_snap "iw_server_shed_total" in
  let expired = sum_prefixed cur_snap "iw_server_expired_total" in
  let snap_reads = sum_prefixed cur_snap "iw_server_snapshot_reads_total" in
  let hwm = max_prefixed cur_snap "iw_server_queue_hwm" in
  let state = max_prefixed cur_snap "iw_server_overload_state" in
  if shed > 0. || expired > 0. || snap_reads > 0. || hwm > 0. || state > 0. then begin
    let rate cur prev = Float.max 0. (cur -. prev) /. dt in
    line "%-10s %8s %9s %9s %9s %9s  state %s" "OVERLOAD" "SHED/S" "EXPIRED/S"
      "SHED_TOT" "EXP_TOT" "Q_HWM"
      (match int_of_float state with
      | 0 -> "normal"
      | 1 -> "shedding"
      | _ -> "read-only");
    let n v = Printf.sprintf "%.0f" v in
    line "%-10s %8s %9s %9s %9s %9s  snapshot reads %s" ""
      (fmt_rate (rate shed (sum_prefixed prev_snap "iw_server_shed_total")))
      (fmt_rate (rate expired (sum_prefixed prev_snap "iw_server_expired_total")))
      (n shed) (n expired) (n hwm) (n snap_reads)
  end

(* ---- sparkline trends from the server's metric history ring ----

   [Metrics_history] returns the last N windowed points of derived scalar
   series; a ring longer than the column is merged duration-weighted
   (Iw_ring.merge_adjacent), so a 64-window ring still renders honestly in
   16 cells. *)

let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline ?(width = 16) points series =
  let points = Iw_ring.merge_adjacent ~target:width points in
  let vals =
    List.filter_map (fun p -> List.assoc_opt series p.Iw_ring.p_values) points
  in
  if vals = [] then ""
  else begin
    let hi = List.fold_left Float.max 0. vals in
    String.concat ""
      (List.map
         (fun v ->
           if hi <= 0. then spark_levels.(0)
           else spark_levels.(max 0 (min 7 (int_of_float (v /. hi *. 7.999))))
         )
         vals)
  end

let fetch_history link session =
  match link.Iw_proto.call (Iw_proto.Metrics_history { session; limit = 0 }) with
  | Iw_proto.R_metrics_history pts -> pts
  | r -> fail_response link "metrics history" r

type top_frame = {
  f_t : float;
  f_server : Iw_metrics.snapshot;
  f_segs : Iw_metrics.snapshot;
  f_hist : Iw_ring.point list;  (* [] until the server's ring has rolled *)
}

let top_fetch link session =
  let server =
    match link.Iw_proto.call (Iw_proto.Server_stats { session }) with
    | Iw_proto.R_server_stats snap -> snap
    | r -> fail_response link "top" r
  in
  let segs =
    match link.Iw_proto.call (Iw_proto.Segment_stats { session; segment = None }) with
    | Iw_proto.R_segment_stats snap -> snap
    | r -> fail_response link "top" r
  in
  {
    f_t = Unix.gettimeofday ();
    f_server = server;
    f_segs = segs;
    f_hist = fetch_history link session;
  }

let render_top ~clear host port prev cur =
  let dt = Float.max 0.001 (cur.f_t -. prev.f_t) in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let rate name =
    match (value_of prev.f_server name, value_of cur.f_server name) with
    | Some a, Some b -> Float.max 0. (b -. a) /. dt
    | None, Some b -> b /. dt
    | _ -> 0.
  in
  let total name = Option.value (value_of cur.f_server name) ~default:0. in
  let tm = Unix.localtime cur.f_t in
  line "iw-admin top — %s:%d — %02d:%02d:%02d — window %.1fs — q quits" host port
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec dt;
  if restarted prev.f_server cur.f_server then
    line "── server restarted: counters reset; this window starts over ──";
  line "";
  line "req/s %-8s bytes in/s %-8s out/s %-8s locks reclaimed %.0f  sessions resumed %.0f  crc errors %.0f"
    (fmt_rate (rate "iw_server_requests_total"))
    (fmt_rate (rate "iw_transport_bytes_received_total"))
    (fmt_rate (rate "iw_transport_bytes_sent_total"))
    (total "iw_server_locks_reclaimed_total")
    (total "iw_server_sessions_resumed_total")
    (total "iw_transport_crc_errors_total");
  (match hist_of cur.f_server "iw_store_fsync_us" with
  | Some nw ->
    let d = hist_delta (hist_of prev.f_server "iw_store_fsync_us") nw in
    line "wal: fsync/s %s  fsync p99 %sus  appended/s %s"
      (fmt_rate (float_of_int d.Iw_metrics.hv_count /. dt))
      (fmt_q (Iw_metrics.hist_quantile d 0.99))
      (fmt_rate (rate "iw_store_append_bytes_total"))
  | None -> ());
  overload_lines (fun s -> line "%s" s) prev.f_server cur.f_server dt;
  line "";
  (* Per-variant request latency over the window. *)
  let prefix = "iw_server_request_us{variant=\"" in
  let variants =
    List.filter_map
      (fun (s : Iw_metrics.sample) ->
        if String.length s.Iw_metrics.s_name > String.length prefix
           && String.sub s.Iw_metrics.s_name 0 (String.length prefix) = prefix
        then
          match s.Iw_metrics.s_value with
          | Iw_metrics.V_hist hv ->
            let v_start = String.length prefix in
            let v_len = String.length s.Iw_metrics.s_name - v_start - 2 in
            Some (String.sub s.Iw_metrics.s_name v_start v_len, s.Iw_metrics.s_name, hv)
          | _ -> None
        else None)
      cur.f_server
  in
  let has_trend = cur.f_hist <> [] in
  line "%-16s %8s %9s %9s %9s %9s%s" "VARIANT" "OPS/S" "P50_US" "P99_US" "P999_US"
    "TOTAL"
    (if has_trend then "  TREND_P99" else "");
  List.iter
    (fun (variant, name, hv) ->
      let d = hist_delta (hist_of prev.f_server name) hv in
      if d.Iw_metrics.hv_count > 0 || hv.Iw_metrics.hv_count > 0 then
        line "%-16s %8s %9s %9s %9s %9d%s" variant
          (fmt_rate (float_of_int d.Iw_metrics.hv_count /. dt))
          (fmt_q (Iw_metrics.hist_quantile d 0.5))
          (fmt_q (Iw_metrics.hist_quantile d 0.99))
          (fmt_q (Iw_metrics.hist_quantile d 0.999))
          hv.Iw_metrics.hv_count
          (if has_trend then "  " ^ sparkline cur.f_hist (name ^ ":p99") else ""))
    variants;
  if has_trend then
    line "trend: req/s %s  lock_wait p99 %s  (%d windows of ~%.0fs)"
      (sparkline cur.f_hist "iw_server_requests_total:rate")
      (sparkline cur.f_hist
         (Iw_metrics.with_label "iw_server_phase_us" "phase" "lock_wait" ^ ":p99"))
      (List.length cur.f_hist)
      (match cur.f_hist with [] -> 0. | p :: _ -> Float.max 1. p.Iw_ring.p_dur);
  line "";
  (* Per-segment coherence health over the window. *)
  let seg_tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Iw_metrics.sample) ->
      match seg_series s.Iw_metrics.s_name with
      | Some (_, seg) -> if not (Hashtbl.mem seg_tbl seg) then Hashtbl.add seg_tbl seg ()
      | None -> ())
    cur.f_segs;
  let segs = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seg_tbl []) in
  if segs <> [] then begin
    line "%-28s %8s %8s %10s %10s %9s" "SEGMENT" "VERSION" "LAG_P99" "STALE_P99" "WLWAIT_P99" "SAVED_B/S";
    List.iter
      (fun seg ->
        let named base = Iw_metrics.with_label base "segment" seg in
        let q99 base =
          match hist_of cur.f_segs (named base) with
          | Some nw -> fmt_q (Iw_metrics.hist_quantile (hist_delta (hist_of prev.f_segs (named base)) nw) 0.99)
          | None -> "-"
        in
        let version =
          match value_of cur.f_segs (named "iw_server_segment_version") with
          | Some v -> Printf.sprintf "%.0f" v
          | None -> "-"
        in
        let saved =
          match
            ( value_of prev.f_segs (named "iw_seg_diff_bytes_saved_total"),
              value_of cur.f_segs (named "iw_seg_diff_bytes_saved_total") )
          with
          | Some a, Some b -> fmt_rate ((b -. a) /. dt)
          | None, Some b -> fmt_rate (b /. dt)
          | _ -> "-"
        in
        line "%-28s %8s %8s %10s %10s %9s" seg version (q99 "iw_seg_version_lag")
          (q99 "iw_seg_staleness_us") (q99 "iw_seg_wl_wait_us") saved)
      segs
  end
  else line "(no per-segment samples yet)";
  if clear then print_string "\027[2J\027[H";
  print_string (Buffer.contents buf);
  flush stdout

(* Raw-ish terminal so a single 'q' (no Enter) quits; restored on exit. *)
let with_keyboard f =
  let is_tty = try Unix.isatty Unix.stdin with _ -> false in
  if not is_tty then f (fun timeout -> Thread.delay timeout; false)
  else begin
    let saved = Unix.tcgetattr Unix.stdin in
    let raw = { saved with Unix.c_icanon = false; c_echo = false; c_vmin = 0; c_vtime = 0 } in
    Unix.tcsetattr Unix.stdin Unix.TCSADRAIN raw;
    Fun.protect
      ~finally:(fun () -> try Unix.tcsetattr Unix.stdin Unix.TCSADRAIN saved with _ -> ())
      (fun () ->
        f (fun timeout ->
            match Unix.select [ Unix.stdin ] [] [] timeout with
            | [], _, _ -> false
            | _ ->
              let b = Bytes.create 1 in
              (match Unix.read Unix.stdin b 0 1 with
              | 1 -> Bytes.get b 0 = 'q' || Bytes.get b 0 = 'Q'
              | _ -> false)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> false))
  end

(* Shared refresh loop for the dashboard views (top, contention). *)
let dashboard render host port interval once =
  let interval = Float.max 0.2 interval in
  let link, session = connect host port in
  let first = top_fetch link session in
  if once then begin
    (* One window, rendered without clearing the screen: the scriptable
       (and testable) path. *)
    Thread.delay (Float.min interval 1.0);
    let second = top_fetch link session in
    render ~clear:false host port first second;
    link.Iw_proto.close ();
    0
  end
  else
    with_keyboard (fun wait_key ->
        let prev = ref first in
        let quit = ref false in
        while not !quit do
          if wait_key interval then quit := true
          else begin
            let cur = top_fetch link session in
            render ~clear:true host port !prev cur;
            prev := cur
          end
        done;
        link.Iw_proto.close ();
        0)

let top = dashboard render_top

(* ---- iw-admin contention: where is the wall time going? ----

   The saturation question for the one-big-lock server: of the time requests
   spent end-to-end over the last window, how much was blocked on the server
   lock versus decoding, servicing under the lock, appending to the WAL, or
   writing replies?  Renders the window between two Server_stats snapshots
   as per-phase share of the measured request total
   (iw_server_phase_us{phase=...} sums over iw_server_request_total_us — the
   sums are exact, so shares are too), the lock-section wait/hold
   histograms, and the live inflight and lock-queue gauges. *)

let render_contention ~clear host port prev cur =
  let dt = Float.max 0.001 (cur.f_t -. prev.f_t) in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let tm = Unix.localtime cur.f_t in
  line "iw-admin contention — %s:%d — %02d:%02d:%02d — window %.1fs — q quits" host
    port tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec dt;
  if restarted prev.f_server cur.f_server then
    line "── server restarted: counters reset; this window starts over ──";
  let dhist name =
    match hist_of cur.f_server name with
    | Some nw -> Some (hist_delta (hist_of prev.f_server name) nw)
    | None -> None
  in
  let total = dhist "iw_server_request_total_us" in
  let total_sum = match total with Some d -> d.Iw_metrics.hv_sum | None -> 0. in
  let total_count = match total with Some d -> d.Iw_metrics.hv_count | None -> 0 in
  let gauge name = Option.value (value_of cur.f_server name) ~default:0. in
  line "";
  line "requests %s/s   inflight %.0f   lock queue %.0f"
    (fmt_rate (float_of_int total_count /. dt))
    (gauge "iw_server_inflight")
    (gauge "iw_server_lock_queue_depth");
  overload_lines (fun s -> line "%s" s) prev.f_server cur.f_server dt;
  line "";
  line "%-10s %7s %9s %9s %9s" "PHASE" "SHARE" "TIME/S" "P50_US" "P99_US";
  let phase_sum = ref 0. in
  List.iter
    (fun p ->
      let n = Iw_phase.name p in
      match dhist (Iw_metrics.with_label "iw_server_phase_us" "phase" n) with
      | None -> line "%-10s %7s %9s %9s %9s" n "-" "-" "-" "-"
      | Some d ->
        phase_sum := !phase_sum +. d.Iw_metrics.hv_sum;
        line "%-10s %6.1f%% %8.3fs %9s %9s" n
          (if total_sum > 0. then 100. *. d.Iw_metrics.hv_sum /. total_sum else 0.)
          (d.Iw_metrics.hv_sum /. 1e6 /. dt)
          (fmt_q (Iw_metrics.hist_quantile d 0.5))
          (fmt_q (Iw_metrics.hist_quantile d 0.99)))
    Iw_phase.phases;
  (match total with
  | None -> line "(no iw_server_request_total_us series yet, or IW_METRICS=0 on the server)"
  | Some d ->
    line "%-10s %6.1f%% %8.3fs %9s %9s" "total"
      (if total_sum > 0. then 100. else 0.)
      (total_sum /. 1e6 /. dt)
      (fmt_q (Iw_metrics.hist_quantile d 0.5))
      (fmt_q (Iw_metrics.hist_quantile d 0.99));
    line "coverage: phases explain %.1f%% of the measured request total"
      (if total_sum > 0. then 100. *. !phase_sum /. total_sum else 0.));
  line "";
  (match (dhist "iw_server_lock_wait_us", dhist "iw_server_lock_hold_us") with
  | Some w, Some h when w.Iw_metrics.hv_count > 0 ->
    line "lock: %s acquires/s  wait p50 %s p99 %s  hold p50 %s p99 %s"
      (fmt_rate (float_of_int w.Iw_metrics.hv_count /. dt))
      (fmt_q (Iw_metrics.hist_quantile w 0.5))
      (fmt_q (Iw_metrics.hist_quantile w 0.99))
      (fmt_q (Iw_metrics.hist_quantile h 0.5))
      (fmt_q (Iw_metrics.hist_quantile h 0.99))
  | _ -> ());
  (* Per-shard lock series (--domains > 1): the skew view.  A hot segment
     shows up as one shard's acquire rate and wait tail climbing while its
     siblings idle — rebalancing means renaming segments, so the operator
     needs to see which shard is hot before anything else. *)
  let shard_prefix = "iw_server_lock_wait_us{shard=\"" in
  let shards =
    List.filter_map
      (fun (s : Iw_metrics.sample) ->
        let n = s.Iw_metrics.s_name in
        if String.length n > String.length shard_prefix
           && String.sub n 0 (String.length shard_prefix) = shard_prefix
        then
          let v_start = String.length shard_prefix in
          Some (String.sub n v_start (String.length n - v_start - 2), n)
        else None)
      cur.f_server
  in
  if shards <> [] then begin
    line "";
    line "%-8s %10s %9s %9s %9s" "SHARD" "ACQ/S" "WAIT_P50" "WAIT_P99" "HOLD_P99";
    List.iter
      (fun (shard, wait_name) ->
        let hold_name =
          Iw_metrics.with_label "iw_server_lock_hold_us" "shard" shard
        in
        match (dhist wait_name, dhist hold_name) with
        | Some w, Some h ->
          line "%-8s %10s %9s %9s %9s" shard
            (fmt_rate (float_of_int w.Iw_metrics.hv_count /. dt))
            (fmt_q (Iw_metrics.hist_quantile w 0.5))
            (fmt_q (Iw_metrics.hist_quantile w 0.99))
            (fmt_q (Iw_metrics.hist_quantile h 0.99))
        | _ -> ())
      shards
  end;
  if cur.f_hist <> [] then
    line "trend: req/s %s  lock_wait p99 %s"
      (sparkline cur.f_hist "iw_server_requests_total:rate")
      (sparkline cur.f_hist
         (Iw_metrics.with_label "iw_server_phase_us" "phase" "lock_wait" ^ ":p99"));
  if clear then print_string "\027[2J\027[H";
  print_string (Buffer.contents buf);
  flush stdout

let contention = dashboard render_contention

let watch host port name =
  (* Subscribe and print a line per version change — a tiny liveness probe
     built on the notification protocol. *)
  let link, session =
    connect host port ~on_notify:(fun n ->
        Printf.printf "%s -> version %d\n%!" n.Iw_proto.n_segment n.Iw_proto.n_version)
  in
  (match link.Iw_proto.call (Iw_proto.Subscribe { session; name }) with
  | Iw_proto.R_ok -> Printf.printf "watching %s (ctrl-c to stop)\n%!" name
  | r -> fail_response link "subscribe" r);
  let rec forever () =
    Thread.delay 3600.;
    forever ()
  in
  forever ()

open Cmdliner

let host = Arg.(value & opt string "127.0.0.1" & info [ "h"; "host" ] ~docv:"HOST")

let port = Arg.(value & opt int 7077 & info [ "p"; "port" ] ~docv:"PORT")

let seg_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"SEGMENT")

let seg_name_opt = Arg.(value & pos 0 (some string) None & info [] ~docv:"SEGMENT")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit metrics as JSON.")

let prom_flag =
  Arg.(value & flag & info [ "prom" ] ~doc:"Emit metrics in Prometheus text exposition format.")

let cmds =
  [
    Cmd.v (Cmd.info "stat" ~doc:"Segment statistics")
      Term.(const stat $ host $ port $ seg_name);
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Dump the server's live metric snapshot (request latency histograms, \
            diff-cache and version counters, transport byte counts)")
      Term.(const server_stats $ host $ port $ json_flag $ prom_flag);
    Cmd.v
      (Cmd.info "segstats"
         ~doc:
           "Dump per-segment coherence metrics (version-lag and staleness \
            histograms, diff-bytes-saved, wasted acquires, write-lock wait), \
            optionally restricted to SEGMENT")
      Term.(const segment_stats $ host $ port $ json_flag $ prom_flag $ seg_name_opt);
    Cmd.v
      (Cmd.info "flight"
         ~doc:"Dump the server's flight recorder (recent requests) as JSON")
      Term.(const flight_dump $ host $ port);
    Cmd.v (Cmd.info "blocks" ~doc:"List a segment's blocks and types")
      Term.(const blocks $ host $ port $ seg_name);
    Cmd.v (Cmd.info "version" ~doc:"Print a segment's current version")
      Term.(const version $ host $ port $ seg_name);
    Cmd.v (Cmd.info "checkpoint" ~doc:"Persist all segments now")
      Term.(const checkpoint $ host $ port);
    Cmd.v (Cmd.info "watch" ~doc:"Stream a segment's version changes")
      Term.(const watch $ host $ port $ seg_name);
    Cmd.v
      (Cmd.info "slowlog"
         ~doc:
           "Dump the server's sampled slow-request log (the K slowest requests \
            of the recent windows, slowest first, with trace/span ids)")
      Term.(
        const slowlog $ host $ port
        $ Arg.(
            value
            & opt int 20
            & info [ "limit" ] ~docv:"N"
                ~doc:"Maximum entries to fetch; $(b,0) fetches every retained entry.")
        $ json_flag);
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Refreshing dashboard: windowed request rates and per-variant p50/p99, \
            WAL fsync latency, and per-segment version lag, staleness, write-lock \
            wait and diff savings.  Press $(b,q) to quit.")
      Term.(
        const top $ host $ port
        $ Arg.(
            value
            & opt float 2.0
            & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval.")
        $ Arg.(
            value
            & flag
            & info [ "once" ]
                ~doc:
                  "Render one frame (a single ~1s window) without clearing the \
                   screen and exit; for scripts and tests."));
    Cmd.v
      (Cmd.info "contention"
         ~doc:
           "Saturation dashboard: per-phase share of request wall time over \
            the window (decode / lock-wait / service / WAL / reply), the \
            server-lock wait and hold percentiles, live inflight and \
            lock-queue gauges, and sparkline trends from the server's metric \
            history ring.  Press $(b,q) to quit.")
      Term.(
        const contention $ host $ port
        $ Arg.(
            value
            & opt float 2.0
            & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh interval.")
        $ Arg.(
            value
            & flag
            & info [ "once" ]
                ~doc:
                  "Render one frame (a single ~1s window) without clearing the \
                   screen and exit; for scripts and tests."));
  ]

(* A connection the server drops mid-command is reported once, here, for
   every subcommand. *)
let () =
  match
    Cmd.eval' ~catch:false (Cmd.group (Cmd.info "iw-admin" ~doc:"InterWeave server admin") cmds)
  with
  | code -> exit code
  | exception (Iw_transport.Closed | Iw_transport.Corrupt _ | End_of_file) ->
    prerr_endline "iw-admin: connection to the server was lost";
    exit 1

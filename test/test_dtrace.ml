(* Distributed tracing and per-segment coherence observability, end to end:
   a loopback run with tracing on both sides must produce one Perfetto-valid
   document in which the server's dispatch span is stitched (same trace_id,
   parent/child link) under the client's lock span; append mode must merge
   runs instead of clobbering; Temporal-coherence reads must land in the
   staleness histograms served over Segment_stats. *)

module J = Iw_obs_json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_trace path =
  match J.parse (read_file path) with
  | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  | Ok doc -> (
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array")

let str_field name ev =
  match J.member name ev with Some (J.Str s) -> Some s | _ -> None

let arg name ev = Option.bind (J.member "args" ev) (str_field name)

let begins_named name evs =
  List.filter (fun ev -> str_field "ph" ev = Some "B" && str_field "name" ev = Some name) evs

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The acceptance scenario: one loopback write transaction under IW_TRACE.
   The client's [wl_acquire] span mints a trace context, the Write_lock
   request carries it over the wire, and the server's dispatch span adopts
   it.  The parsed file must show the parent/child link. *)
let test_trace_stitching () =
  let path = Filename.temp_file "iw_dtrace" ".json" in
  Iw_trace.start ~path ();
  let server = Interweave.start_server () in
  let c = Interweave.loopback_client server in
  let h = Interweave.open_segment c "dt/seg" in
  Interweave.wl_acquire h;
  let a = Interweave.malloc h (Interweave.Desc.array Interweave.Desc.int 4) in
  Iw_client.write_int c a 7;
  Interweave.wl_release h;
  Iw_trace.stop ();
  let evs = parse_trace path in
  Sys.remove path;
  let client_spans = begins_named "client.wl_acquire" evs in
  Alcotest.(check bool) "client span present" true (client_spans <> []);
  let server_spans =
    List.filter
      (fun ev -> arg "variant" ev = Some "write_lock")
      (begins_named "server.handle" evs)
  in
  Alcotest.(check bool) "server write_lock span present" true (server_spans <> []);
  let stitched =
    List.exists
      (fun cs ->
        match (arg "trace_id" cs, arg "span_id" cs) with
        | Some tid, Some sid ->
          List.exists
            (fun ss -> arg "trace_id" ss = Some tid && arg "parent_span_id" ss = Some sid)
            server_spans
        | _ -> false)
      client_spans
  in
  Alcotest.(check bool) "server span is a child of the client span" true stitched;
  (* The server side also carries the request seq for flight correlation. *)
  List.iter
    (fun ss ->
      match arg "seq" ss with
      | Some s -> Alcotest.(check bool) "seq positive" true (int_of_string s > 0)
      | None -> Alcotest.fail "server span without seq")
    server_spans

(* Append mode: a second run (standing in for the second process of a
   client/server pair sharing IW_TRACE) merges with the first instead of
   clobbering it, and the merged file still parses as one document. *)
let test_trace_append_merges () =
  let path = Filename.temp_file "iw_dtrace_append" ".json" in
  Iw_trace.start ~mode:Iw_trace.Append ~path ();
  Iw_trace.instant "first.run";
  Iw_trace.stop ();
  Iw_trace.start ~mode:Iw_trace.Append ~path ();
  Iw_trace.instant "second.run";
  Iw_trace.stop ();
  let evs = parse_trace path in
  Sys.remove path;
  let names = List.filter_map (str_field "name") evs in
  Alcotest.(check bool) "first run survived the second" true (List.mem "first.run" names);
  Alcotest.(check bool) "second run appended" true (List.mem "second.run" names)

(* Segment_stats over the wire: Temporal-coherence reads on a stale copy and
   re-acquires of a current one must show up as nonzero staleness and
   wasted-acquire series for that segment, rendered per segment by
   [iw-admin segstats --prom]. *)
let test_segstats_e2e () =
  let server = Interweave.start_server () in
  let writer = Interweave.loopback_client server in
  let reader = Interweave.loopback_client server in
  let hw = Interweave.open_segment writer "dt/coh" in
  Interweave.wl_acquire hw;
  let a = Interweave.malloc hw (Interweave.Desc.array Interweave.Desc.int 4) in
  Iw_client.write_int writer a 1;
  Interweave.wl_release hw;
  let hr = Interweave.open_segment ~create:false reader "dt/coh" in
  Interweave.rl_acquire hr;
  Interweave.rl_release hr;
  (* Age the copy behind the reader's back... *)
  for i = 2 to 3 do
    Interweave.wl_acquire hw;
    Iw_client.write_int writer a i;
    Interweave.wl_release hw
  done;
  (* ...then refresh under a zero-tolerance Temporal bound (stale: realized
     staleness observed server-side) and re-acquire (current: wasted). *)
  Interweave.set_coherence hr (Interweave.Proto.Temporal 0.);
  Interweave.rl_acquire hr;
  Interweave.rl_release hr;
  Interweave.rl_acquire hr;
  Interweave.rl_release hr;
  let link = Iw_server.direct_link server in
  let session =
    match link.Iw_proto.call (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> Alcotest.fail "handshake failed"
  in
  let snap =
    match link.Iw_proto.call (Iw_proto.Segment_stats { session; segment = Some "dt/coh" }) with
    | Iw_proto.R_segment_stats snap -> snap
    | _ -> Alcotest.fail "Segment_stats failed"
  in
  Alcotest.(check bool) "only this segment's series" true
    (snap <> []
    && List.for_all (fun s -> contains ~needle:"segment=\"dt/coh\"" s.Iw_metrics.s_name) snap);
  let hist name =
    match Iw_metrics.find snap (Iw_metrics.with_label name "segment" "dt/coh") with
    | Some (Iw_metrics.V_hist hv) -> hv
    | _ -> Alcotest.failf "no %s series" name
  in
  let lag = hist "iw_seg_version_lag" in
  Alcotest.(check bool) "version lag observed" true (lag.Iw_metrics.hv_count > 0);
  Alcotest.(check bool) "nonzero lag recorded" true (lag.Iw_metrics.hv_sum > 0.);
  let stale = hist "iw_seg_staleness_us" in
  Alcotest.(check bool) "staleness observed" true (stale.Iw_metrics.hv_count > 0);
  Alcotest.(check bool) "staleness buckets nonzero" true
    (Array.exists (fun n -> n > 0) stale.Iw_metrics.hv_counts);
  (match Iw_metrics.find snap (Iw_metrics.with_label "iw_seg_wasted_acquire_total" "segment" "dt/coh") with
  | Some (Iw_metrics.V_counter v) -> Alcotest.(check bool) "wasted acquire counted" true (v >= 1.)
  | _ -> Alcotest.fail "no wasted-acquire series");
  (* The Prometheus rendering — what segstats --prom prints — carries the
     staleness buckets for the segment. *)
  let prom = Iw_metrics.render_prometheus snap in
  Alcotest.(check bool) "prom has staleness buckets" true
    (contains ~needle:"iw_seg_staleness_us_bucket{segment=\"dt/coh\"" prom);
  (* An unfiltered query returns per-segment series only. *)
  match link.Iw_proto.call (Iw_proto.Segment_stats { session; segment = None }) with
  | Iw_proto.R_segment_stats all ->
    Alcotest.(check bool) "unfiltered has the segment's series" true
      (List.exists (fun s -> contains ~needle:"segment=\"dt/coh\"" s.Iw_metrics.s_name) all);
    Alcotest.(check bool) "unfiltered is label-scoped" true
      (List.for_all (fun s -> contains ~needle:"segment=\"" s.Iw_metrics.s_name) all)
  | _ -> Alcotest.fail "unfiltered Segment_stats failed"

let suite =
  ( "dtrace",
    [
      Alcotest.test_case "client/server trace stitching" `Quick test_trace_stitching;
      Alcotest.test_case "append mode merges runs" `Quick test_trace_append_merges;
      Alcotest.test_case "segstats end to end" `Quick test_segstats_e2e;
    ] )

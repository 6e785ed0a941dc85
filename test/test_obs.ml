(* Observability: histogram bucketing, exposition formats, trace files, the
   disabled-path no-op discipline, and the Server_stats protocol request. *)

open Iw_metrics

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool) (what ^ ": " ^ needle) true (contains ~needle hay)

let hist_of snap name =
  match find snap name with
  | Some (V_hist hv) -> hv
  | _ -> Alcotest.fail ("no histogram " ^ name)

(* Every case runs against a fresh registry and resets it on the way out, so
   no series can leak into a later case even if registries are ever shared. *)
let with_registry ?enabled f =
  let r = create ?enabled () in
  Fun.protect ~finally:(fun () -> reset r) (fun () -> f r)

(* Log2 bucketing: inclusive upper bounds, one overflow bucket. *)
let test_histogram_buckets () =
  with_registry @@ fun r ->
  let h = histogram_us r "iw_test_lat_us" in
  List.iter (observe h) [ 1.0; 1.5; 2.0; 3.0; 100.0; 1e12 ];
  let hv = hist_of (snapshot r) "iw_test_lat_us" in
  Alcotest.(check int) "27 us bounds" 27 (Array.length hv.hv_bounds);
  Alcotest.(check int) "counts = bounds + overflow" 28 (Array.length hv.hv_counts);
  Alcotest.(check (float 0.)) "first bound 1us" 1.0 hv.hv_bounds.(0);
  Alcotest.(check (float 0.)) "last bound ~67s" (float_of_int (1 lsl 26)) hv.hv_bounds.(26);
  Alcotest.(check int) "le=1 gets 1.0" 1 hv.hv_counts.(0);
  Alcotest.(check int) "le=2 gets 1.5 and 2.0" 2 hv.hv_counts.(1);
  Alcotest.(check int) "le=4 gets 3.0" 1 hv.hv_counts.(2);
  Alcotest.(check int) "le=128 gets 100.0" 1 hv.hv_counts.(7);
  Alcotest.(check int) "overflow gets 1e12" 1 hv.hv_counts.(27);
  Alcotest.(check int) "count" 6 hv.hv_count;
  Alcotest.(check (float 1e-6)) "sum" (1.0 +. 1.5 +. 2.0 +. 3.0 +. 100.0 +. 1e12) hv.hv_sum;
  (* Conservative quantiles: the bucket's upper bound. *)
  Alcotest.(check (float 0.)) "p50" 2.0 (hist_quantile hv 0.5);
  Alcotest.(check (float 0.)) "p99 in overflow" infinity (hist_quantile hv 0.99)

let test_quantile_empty () =
  with_registry @@ fun r ->
  let h = histogram_bytes r "iw_test_sz_bytes" in
  ignore (h : histogram);
  let hv = hist_of (snapshot r) "iw_test_sz_bytes" in
  Alcotest.(check bool) "empty quantile is nan" true (Float.is_nan (hist_quantile hv 0.5))

let test_prometheus_exposition () =
  with_registry @@ fun r ->
  let c = counter r ~help:"Things that happened." "iw_test_things_total" in
  incr ~by:3 c;
  let g = gauge r "iw_test_depth" in
  set_gauge g 2.5;
  let h = histogram_us r ~help:"Latency." (with_label "iw_test_op_us" "op" "get") in
  observe h 1.0;
  observe h 3.0;
  let text = render_prometheus (snapshot r) in
  check_contains "prom" text "# HELP iw_test_things_total Things that happened.\n";
  check_contains "prom" text "# TYPE iw_test_things_total counter\niw_test_things_total 3\n";
  check_contains "prom" text "# TYPE iw_test_depth gauge\niw_test_depth 2.5\n";
  check_contains "prom" text "# TYPE iw_test_op_us histogram\n";
  (* Cumulative buckets with the le label spliced after existing labels. *)
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"1\"} 1\n";
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"4\"} 2\n";
  check_contains "prom" text "iw_test_op_us_bucket{op=\"get\",le=\"+Inf\"} 2\n";
  check_contains "prom" text "iw_test_op_us_sum{op=\"get\"} 4\n";
  check_contains "prom" text "iw_test_op_us_count{op=\"get\"} 2\n"

let test_with_label () =
  Alcotest.(check string) "fresh" "m{k=\"v\"}" (with_label "m" "k" "v");
  Alcotest.(check string) "extend" "m{a=\"b\",k=\"v\"}" (with_label "m{a=\"b\"}" "k" "v");
  Alcotest.(check string) "escape" "m{k=\"a\\\"b\"}" (with_label "m" "k" "a\"b")

let test_json_roundtrip () =
  with_registry @@ fun r ->
  incr ~by:7 (counter r "iw_test_n_total");
  observe (histogram_bytes r "iw_test_sz_bytes") 100.;
  let doc = render_json (snapshot r) in
  match Iw_obs_json.parse (Iw_obs_json.to_string doc) with
  | Error e -> Alcotest.fail ("metrics JSON does not re-parse: " ^ e)
  | Ok j ->
    (match Option.bind (Iw_obs_json.member "iw_test_n_total" j) (Iw_obs_json.member "value") with
    | Some n ->
      Alcotest.(check (option (float 0.))) "counter value" (Some 7.) (Iw_obs_json.to_float n)
    | None -> Alcotest.fail "counter missing from JSON")

let test_disabled_noop () =
  with_registry ~enabled:false @@ fun r ->
  let c = counter r "iw_test_off_total" in
  let h = histogram_us r "iw_test_off_us" in
  incr c;
  observe h 5.0;
  (match find (snapshot r) "iw_test_off_total" with
  | Some (V_counter v) -> Alcotest.(check (float 0.)) "disabled counter unchanged" 0. v
  | _ -> Alcotest.fail "counter missing");
  Alcotest.(check int) "disabled histogram unchanged" 0
    (hist_of (snapshot r) "iw_test_off_us").hv_count;
  set_enabled r true;
  incr c;
  observe h 5.0;
  (match find (snapshot r) "iw_test_off_total" with
  | Some (V_counter v) -> Alcotest.(check (float 0.)) "enabled counter counts" 1. v
  | _ -> Alcotest.fail "counter missing");
  Alcotest.(check int) "enabled histogram counts" 1
    (hist_of (snapshot r) "iw_test_off_us").hv_count

let test_register_kind_clash () =
  with_registry @@ fun r ->
  ignore (counter r "iw_test_kind" : counter);
  (* Idempotent for the same kind... *)
  ignore (counter r "iw_test_kind" : counter);
  (* ...but a different kind under the same name is a programming error. *)
  match gauge r "iw_test_kind" with
  | (_ : gauge) -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_reset_isolation () =
  let r = create () in
  let c = counter r "iw_test_leaky_total" in
  incr ~by:4 c;
  observe (histogram_us r "iw_test_leaky_us") 2.0;
  Alcotest.(check int) "two series before reset" 2 (List.length (snapshot r));
  reset r;
  Alcotest.(check int) "no series after reset" 0 (List.length (snapshot r));
  (* A stale handle keeps accepting updates without resurrecting the series —
     a later case's snapshot stays clean even if an earlier case leaked the
     handle. *)
  incr c;
  Alcotest.(check int) "stale handle does not resurrect" 0 (List.length (snapshot r));
  (* The name is free again, even as a different kind. *)
  set_gauge (gauge r "iw_test_leaky_total") 1.0;
  match find (snapshot r) "iw_test_leaky_total" with
  | Some (V_gauge v) -> Alcotest.(check (float 0.)) "fresh after reset" 1.0 v
  | _ -> Alcotest.fail "re-registration after reset failed"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_file () =
  let path = Filename.temp_file "iw_trace" ".json" in
  Iw_trace.start ~path ();
  Alcotest.(check bool) "tracing on" true (Iw_trace.enabled ());
  Iw_trace.with_span ~args:[ ("segment", "t/s") ] "outer" (fun () ->
      Iw_trace.with_span "inner" (fun () -> ());
      Iw_trace.instant "mark");
  (* B/E stay balanced even when the traced thunk raises. *)
  (try Iw_trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Iw_trace.stop ();
  Alcotest.(check bool) "tracing off after stop" false (Iw_trace.enabled ());
  let doc =
    match Iw_obs_json.parse (read_file path) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  in
  Sys.remove path;
  let events =
    match Option.bind (Iw_obs_json.member "traceEvents" doc) Iw_obs_json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str field ev =
    match Iw_obs_json.member field ev with Some (Iw_obs_json.Str s) -> Some s | _ -> None
  in
  let begins = Hashtbl.create 8 and ends = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let instants = ref 0 in
  List.iter
    (fun ev ->
      (match Iw_obs_json.member "ts" ev with
      | Some (Iw_obs_json.Num ts) ->
        Alcotest.(check bool) "timestamp non-negative" true (ts >= 0.)
      | _ -> Alcotest.fail "event without numeric ts");
      match str "ph" ev, str "name" ev with
      | Some "B", Some n -> bump begins n
      | Some "E", Some n -> bump ends n
      | Some "i", Some _ ->
        Stdlib.incr instants;
        Alcotest.(check (option string)) "instant scope" (Some "t") (str "s" ev)
      | _ -> Alcotest.fail "event without ph/name")
    events;
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        ("balanced B/E for " ^ n)
        (Hashtbl.find_opt begins n) (Hashtbl.find_opt ends n))
    [ "outer"; "inner"; "boom" ];
  Alcotest.(check int) "one instant" 1 !instants;
  (* Disabled tracing is a plain call: the thunk runs, nothing is recorded. *)
  Alcotest.(check int) "with_span passthrough" 42 (Iw_trace.with_span "off" (fun () -> 42))

let test_server_stats_roundtrip () =
  (* Wire codec for snapshots, independent of any live server. *)
  let snap =
    [
      { s_name = "a_total"; s_help = "things"; s_value = V_counter 3. };
      { s_name = "g"; s_help = ""; s_value = V_gauge 1.5 };
      {
        s_name = "h_us{op=\"x\"}";
        s_help = "lat";
        s_value =
          V_hist
            {
              hv_unit = "us";
              hv_bounds = [| 1.; 2.; 4. |];
              hv_counts = [| 1; 0; 2; 1 |];
              hv_count = 4;
              hv_sum = 9.25;
            };
      };
    ]
  in
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_response buf (Iw_proto.R_server_stats snap);
  (match Iw_proto.decode_response (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf)) with
  | Iw_proto.R_server_stats snap' ->
    Alcotest.(check bool) "snapshot roundtrips" true (snap = snap')
  | _ -> Alcotest.fail "wrong response variant");
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_request buf (Iw_proto.Server_stats { session = 12 });
  match Iw_proto.decode_request (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf)) with
  | Iw_proto.Server_stats { session } -> Alcotest.(check int) "session" 12 session
  | _ -> Alcotest.fail "wrong request variant"

let test_server_stats_live () =
  (* A real server over the loopback transport: the snapshot arrives with the
     request counters and the per-variant latency histograms filled in. *)
  let server = Iw_server.create () in
  let client_end, server_end = Iw_transport.loopback () in
  let t = Thread.create (fun () -> Iw_server.serve_conn server server_end) () in
  let link = Iw_proto.demux_link client_end ~on_notify:(fun _ -> ()) in
  let session =
    match link.Iw_proto.call (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> Alcotest.fail "handshake failed"
  in
  ignore (link.Iw_proto.call (Iw_proto.Open_segment { session; name = "obs/live"; create = true }));
  ignore (link.Iw_proto.call (Iw_proto.Get_version { session; name = "obs/live" }));
  (match link.Iw_proto.call (Iw_proto.Server_stats { session }) with
  | Iw_proto.R_server_stats snap ->
    (match find snap "iw_server_requests_total" with
    | Some (V_counter v) -> Alcotest.(check bool) "requests counted" true (v >= 3.)
    | _ -> Alcotest.fail "no iw_server_requests_total");
    let hv = hist_of snap "iw_server_request_us{variant=\"hello\"}" in
    Alcotest.(check bool) "hello latency recorded" true (hv.hv_count >= 1);
    Alcotest.(check string) "latency unit" "us" hv.hv_unit;
    (* The merged snapshot also carries the process-global transport side. *)
    (match find snap "iw_transport_frames_received_total" with
    | Some (V_counter v) -> Alcotest.(check bool) "transport frames counted" true (v >= 1.)
    | _ -> Alcotest.fail "no transport metrics in snapshot")
  | _ -> Alcotest.fail "Server_stats failed");
  link.Iw_proto.close ();
  Thread.join t

let test_framed_byte_accounting () =
  (* Over a demultiplexed loopback link, client byte counters reflect actual
     framed bytes in both directions (not re-derived payload estimates). *)
  let server = Interweave.start_server () in
  let c = Interweave.loopback_client server in
  let h = Interweave.open_segment c "obs/bytes" in
  Interweave.wl_acquire h;
  let addr = Interweave.malloc h (Iw_types.Array (Iw_types.Prim Iw_arch.Int, 64)) in
  let sp = Iw_client.space c in
  for i = 0 to 63 do
    Iw_mem.store_prim sp Iw_arch.Int (addr + (i * 4)) i
  done;
  Interweave.wl_release h;
  let st = Iw_client.stats c in
  Alcotest.(check bool) "sent bytes counted" true (st.Iw_client.bytes_sent > 0);
  Alcotest.(check bool) "received bytes counted" true (st.Iw_client.bytes_received > 0);
  Alcotest.(check bool) "round trips counted" true (st.Iw_client.calls > 0);
  Iw_client.reset_stats c;
  let st = Iw_client.stats c in
  Alcotest.(check int) "reset zeroes sent" 0 st.Iw_client.bytes_sent;
  Alcotest.(check int) "reset zeroes received" 0 st.Iw_client.bytes_received;
  Iw_client.disconnect c

(* Setting a variable to "" restores the default, so every case leaves the
   environment as a later suite expects it, whatever the order. *)
let with_env name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name "") f

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s: a bad value was accepted" name
  | exception Invalid_argument msg ->
    Alcotest.(check bool) (msg ^ " names " ^ name) true
      (String.starts_with ~prefix:(name ^ ":") msg)

let test_env_policy () =
  with_env "IW_METRICS" "1" (fun () ->
      Alcotest.(check bool) "IW_METRICS=1 on" true (env_enabled ~default:false));
  with_env "IW_METRICS" "0" (fun () ->
      Alcotest.(check bool) "IW_METRICS=0 off" false (env_enabled ~default:true));
  with_env "IW_METRICS" "" (fun () ->
      Alcotest.(check bool) "IW_METRICS= default on" true (env_enabled ~default:true);
      Alcotest.(check bool) "IW_METRICS= default off" false (env_enabled ~default:false))

(* The one strict rule: a value that is neither the default nor a known
   setting is an error naming the variable, never a silent guess. *)
let test_env_rejects () =
  with_env "IW_METRICS" "false" (fun () ->
      rejects "IW_METRICS" (fun () -> env_enabled ~default:true));
  with_env "IW_SANITIZE" "yes" (fun () ->
      rejects "IW_SANITIZE" (fun () -> env_flag "IW_SANITIZE" ~default:false));
  with_env "IW_TRACE_MODE" "unique" (fun () ->
      rejects "IW_TRACE_MODE" Iw_trace.env_mode);
  with_env "IW_TRACE_MODE" "append" (fun () ->
      Alcotest.(check bool) "IW_TRACE_MODE=append" true
        (Iw_trace.env_mode () = Iw_trace.Append))

(* IW_SANITIZE is read when a client is built, not while modules
   initialise: a bad value set after start surfaces from the constructor,
   naming the variable. *)
let test_sanitize_env_at_constructor () =
  let server = Interweave.start_server () in
  with_env "IW_SANITIZE" "yes" (fun () ->
      rejects "IW_SANITIZE" (fun () -> Interweave.direct_client server))

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "empty quantile" `Quick test_quantile_empty;
      Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
      Alcotest.test_case "label splicing" `Quick test_with_label;
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "IW_SANITIZE read by the client constructor" `Quick
        test_sanitize_env_at_constructor;
      Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
      Alcotest.test_case "kind clash" `Quick test_register_kind_clash;
      Alcotest.test_case "reset isolation" `Quick test_reset_isolation;
      Alcotest.test_case "trace file" `Quick test_trace_file;
      Alcotest.test_case "server stats codec" `Quick test_server_stats_roundtrip;
      Alcotest.test_case "server stats live" `Quick test_server_stats_live;
      Alcotest.test_case "framed byte accounting" `Quick test_framed_byte_accounting;
      Alcotest.test_case "env policy" `Quick test_env_policy;
      Alcotest.test_case "env rejects bad values" `Quick test_env_rejects;
    ] )

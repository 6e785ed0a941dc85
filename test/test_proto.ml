(* Protocol message codecs: every request/response variant roundtrips, with
   and without its envelope. *)

open Iw_proto

let roundtrip_request req =
  let buf = Iw_wire.Buf.create () in
  encode_request buf req;
  decode_request (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf))

let roundtrip_response resp =
  let buf = Iw_wire.Buf.create () in
  encode_response buf resp;
  decode_response (Iw_wire.Reader.of_string (Iw_wire.Buf.contents buf))

let sample_diff =
  {
    Iw_wire.Diff.from_version = 1;
    to_version = 2;
    new_descs = [ (3, Iw_types.Prim Iw_arch.Double) ];
    changes =
      [
        Iw_wire.Diff.Update
          { serial = 4; runs = [ { Iw_wire.Diff.start_pu = 2; len_pu = 3; payload = "xyz" } ] };
        Iw_wire.Diff.Free { serial = 9 };
      ];
  }

let all_requests =
  [
    Hello { arch = "sparc32" };
    Open_segment { session = 1; name = "a/b"; create = true };
    Open_segment { session = 2; name = "a/b"; create = false };
    Segment_meta { session = 3; name = "s" };
    Read_lock { session = 4; name = "s"; version = 7; coherence = Full };
    Read_lock { session = 4; name = "s"; version = 7; coherence = Delta 3 };
    Read_lock { session = 4; name = "s"; version = 7; coherence = Temporal 2.5 };
    Read_lock { session = 4; name = "s"; version = 7; coherence = Diff_pct 12.5 };
    Read_release { session = 5; name = "s" };
    Write_lock { session = 6; name = "s"; version = 0 };
    Write_release { session = 7; name = "s"; diff = sample_diff };
    Register_desc { session = 8; name = "s"; desc = Iw_types.Ptr "node" };
    Get_version { session = 9; name = "s" };
    Checkpoint { session = 10 };
    Stat { session = 11; name = "s" };
    Segment_stats { session = 12; segment = None };
    Segment_stats { session = 12; segment = Some "host/seg" };
    Flight_recorder { session = 13 };
    Slow_log { session = 14; limit = 10 };
    Slow_log { session = 14; limit = 0 };
    Metrics_history { session = 15; limit = 0 };
    Metrics_history { session = 15; limit = 8 };
  ]

let all_responses =
  [
    R_hello { session = 42 };
    R_segment { version = 17 };
    R_meta
      {
        version = 3;
        descs = [ (1, Iw_types.Prim Iw_arch.Int) ];
        blocks =
          [
            { mb_serial = 1; mb_name = Some "head"; mb_desc_serial = 1 };
            { mb_serial = 2; mb_name = None; mb_desc_serial = 1 };
          ];
      };
    R_up_to_date;
    R_update sample_diff;
    R_granted None;
    R_granted (Some sample_diff);
    R_busy;
    R_version 12;
    R_serial 5;
    R_stat
      {
        st_version = 1;
        st_blocks = 2;
        st_total_units = 3;
        st_diff_cache_hits = 4;
        st_diff_cache_misses = 5;
      };
    R_ok;
    R_error "boom";
    R_segment_stats [];
    R_segment_stats
      [
        {
          Iw_metrics.s_name = "iw_seg_wasted_acquire_total{segment=\"s\"}";
          s_help = "wasted";
          s_value = Iw_metrics.V_counter 5.;
        };
        {
          Iw_metrics.s_name = "iw_seg_version_lag{segment=\"s\"}";
          s_help = "lag";
          s_value =
            Iw_metrics.V_hist
              {
                Iw_metrics.hv_unit = "count";
                hv_bounds = [| 1.; 2.; 4. |];
                hv_counts = [| 1; 0; 2; 0 |];
                hv_count = 3;
                hv_sum = 9.;
              };
        };
      ];
    R_flight "{\"capacity\":256,\"recorded\":0,\"events\":[]}";
    R_slow_log [];
    R_slow_log
      [
        {
          Iw_slowlog.e_t = 1700000000.5;
          e_variant = "write_release";
          e_segment = "a/b";
          e_session = 3;
          e_seq = 9;
          e_trace_id = 0x1234;
          e_span_id = 0x99;
          e_latency_us = 1234.5;
          e_wait_us = 1000.;
          e_service_us = 200.5;
          e_wal_us = 34.;
          e_deadline_missed = true;
        };
      ];
    R_busy_hint { retry_after_ms = 250 };
    R_expired { phase = "queue" };
    R_expired { phase = "wal" };
    R_metrics_history [];
    R_metrics_history
      [
        { Iw_ring.p_t = 1.5; p_dur = 5.; p_values = [ ("a:rate", 2.5); ("g", 1.) ] };
        { Iw_ring.p_t = 6.5; p_dur = 5.; p_values = [] };
      ];
  ]

let test_request_roundtrips () =
  List.iteri
    (fun i req ->
      if roundtrip_request req <> req then Alcotest.failf "request %d did not roundtrip" i)
    all_requests

let test_response_roundtrips () =
  List.iteri
    (fun i resp ->
      if roundtrip_response resp <> resp then Alcotest.failf "response %d did not roundtrip" i)
    all_responses

let test_malformed_rejected () =
  (try
     ignore (decode_request (Iw_wire.Reader.of_string "\xff") : request);
     Alcotest.fail "bad request tag accepted"
   with Iw_wire.Malformed _ -> ());
  try
    ignore (decode_response (Iw_wire.Reader.of_string "\xff") : response);
    Alcotest.fail "bad response tag accepted"
  with Iw_wire.Malformed _ -> ()

(* Request envelope: every request carries one.  Enveloped requests
   surface their context and budget; a bare request, or a corrupt or
   truncated envelope, is rejected loudly. *)

let sample_ctx = { tc_trace_id = 0x1234_5678_9abc; tc_span_id = 0x42; tc_seq = 7 }

let encode_env ?ctx ?budget_ms req =
  let buf = Iw_wire.Buf.create () in
  encode_request_env buf ?ctx ?budget_ms req;
  Iw_wire.Buf.contents buf

let decode_env s =
  let r = Iw_wire.Reader.of_string s in
  let env = decode_envelope r in
  (env, decode_request r)

let test_envelope_roundtrips () =
  List.iteri
    (fun i req ->
      List.iter
        (fun (ctx, budget_ms) ->
          let env, req' = decode_env (encode_env ?ctx ?budget_ms req) in
          if env.env_ctx <> ctx then Alcotest.failf "request %d: context lost" i;
          if env.env_budget_ms <> budget_ms then Alcotest.failf "request %d: budget lost" i;
          if req' <> req then Alcotest.failf "request %d: body did not roundtrip" i)
        [ (None, None); (Some sample_ctx, None); (None, Some 30_000); (Some sample_ctx, Some 250) ])
    all_requests

let test_envelope_missing_rejected () =
  List.iteri
    (fun i req ->
      let bare =
        let buf = Iw_wire.Buf.create () in
        encode_request buf req;
        Iw_wire.Buf.contents buf
      in
      match decode_env bare with
      | _ -> Alcotest.failf "request %d: bare request accepted" i
      | exception Iw_wire.Malformed _ -> ())
    all_requests

(* The bytes of the three per-operation requests with the 30 s budget every
   timeout-armed link stamps, recorded before the envelope became mandatory;
   they fix what each operation puts on the wire. *)
let test_envelope_golden_bytes () =
  let hex s =
    String.to_seq s
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat ""
  in
  List.iter
    (fun (req, plain, traced) ->
      let v = request_variant req in
      Alcotest.(check string) (v ^ " with budget") plain (hex (encode_env ~budget_ms:30_000 req));
      Alcotest.(check string) (v ^ " with budget and context") traced
        (hex (encode_env ~ctx:sample_ctx ~budget_ms:30_000 req)))
    [
      ( Read_lock { session = 4; name = "s"; version = 7; coherence = Delta 3 },
        "e7010200007530\
         0300000004000173000000070100000003",
        "e701030000123456789abc00000000000000420000000700007530\
         0300000004000173000000070100000003" );
      ( Write_release { session = 7; name = "s"; diff = sample_diff },
        "e7010200007530\
         0600000007000173000000010000000200010000000300050000000200000000040000000100000002000000030000000378797a0200000009",
        "e701030000123456789abc00000000000000420000000700007530\
         0600000007000173000000010000000200010000000300050000000200000000040000000100000002000000030000000378797a0200000009" );
      ( Read_release { session = 5; name = "s" },
        "e7010200007530\
         0400000005000173",
        "e701030000123456789abc00000000000000420000000700007530\
         0400000005000173" );
    ]

let test_envelope_bad_version_rejected () =
  let s = Bytes.of_string (encode_env ~ctx:sample_ctx (Checkpoint { session = 1 })) in
  Bytes.set s 1 '\x02';
  try
    ignore (decode_env (Bytes.to_string s));
    Alcotest.fail "unknown proto version accepted"
  with Iw_wire.Malformed _ -> ()

let test_envelope_unknown_feature_rejected () =
  let s = Bytes.of_string (encode_env ~ctx:sample_ctx (Checkpoint { session = 1 })) in
  (* Unknown feature bits imply payload bytes of unknown length; the decoder
     cannot skip what it cannot measure. *)
  Bytes.set s 2 (Char.chr (Char.code (Bytes.get s 2) lor 0x80));
  try
    ignore (decode_env (Bytes.to_string s));
    Alcotest.fail "unknown feature bits accepted"
  with Iw_wire.Malformed _ -> ()

let test_envelope_truncated_rejected () =
  let check_prefixes what s =
    for n = 0 to String.length s - 1 do
      match decode_env (String.sub s 0 n) with
      | _ -> Alcotest.failf "%s: %d-byte prefix decoded" what n
      | exception Iw_wire.Malformed _ -> ()
    done
  in
  check_prefixes "enveloped write_release"
    (encode_env ~ctx:sample_ctx (Write_release { session = 7; name = "s"; diff = sample_diff }));
  check_prefixes "enveloped segment_stats"
    (encode_env ~ctx:sample_ctx (Segment_stats { session = 12; segment = Some "host/seg" }))

let test_truncated_responses_rejected () =
  let check_prefixes i s =
    for n = 1 to String.length s - 1 do
      match decode_response (Iw_wire.Reader.of_string (String.sub s 0 n)) with
      | _ -> Alcotest.failf "response %d: %d-byte prefix decoded" i n
      | exception Iw_wire.Malformed _ -> ()
    done
  in
  List.iteri
    (fun i resp ->
      match resp with
      | R_segment_stats (_ :: _) | R_flight _ ->
        let buf = Iw_wire.Buf.create () in
        encode_response buf resp;
        check_prefixes i (Iw_wire.Buf.contents buf)
      | _ -> ())
    all_responses

let test_pp_coherence () =
  let s m = Format.asprintf "%a" pp_coherence m in
  Alcotest.(check string) "full" "full" (s Full);
  Alcotest.(check string) "delta" "delta-3" (s (Delta 3));
  Alcotest.(check bool) "temporal mentions seconds" true
    (String.length (s (Temporal 1.5)) > 0);
  Alcotest.(check bool) "diff mentions pct" true (String.length (s (Diff_pct 10.)) > 0)

let suite =
  ( "proto",
    [
      Alcotest.test_case "request roundtrips" `Quick test_request_roundtrips;
      Alcotest.test_case "response roundtrips" `Quick test_response_roundtrips;
      Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
      Alcotest.test_case "envelope roundtrips" `Quick test_envelope_roundtrips;
      Alcotest.test_case "envelope missing rejected" `Quick test_envelope_missing_rejected;
      Alcotest.test_case "envelope golden bytes" `Quick test_envelope_golden_bytes;
      Alcotest.test_case "envelope bad version rejected" `Quick
        test_envelope_bad_version_rejected;
      Alcotest.test_case "envelope unknown feature rejected" `Quick
        test_envelope_unknown_feature_rejected;
      Alcotest.test_case "envelope truncated rejected" `Quick test_envelope_truncated_rejected;
      Alcotest.test_case "truncated responses rejected" `Quick
        test_truncated_responses_rejected;
      Alcotest.test_case "pp coherence" `Quick test_pp_coherence;
    ] )

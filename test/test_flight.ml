(* Flight recorder: ring semantics, the live Flight_recorder request, and
   the acceptance scenario — a server-side decode failure dumps a JSON
   document holding the recent events including the failing request's
   seq. *)

module J = Iw_obs_json

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_ring_wraparound () =
  let f = Iw_flight.create ~capacity:4 () in
  for i = 1 to 6 do
    Iw_flight.record f ~seq:i ~segment:"s" ~version:i ~latency_us:(float_of_int i) "read_lock"
  done;
  let seqs = List.map (fun v -> v.Iw_flight.v_seq) (Iw_flight.events f) in
  Alcotest.(check (list int)) "last capacity events, oldest first" [ 3; 4; 5; 6 ] seqs;
  let v = List.hd (Iw_flight.events f) in
  Alcotest.(check string) "variant retained" "read_lock" v.Iw_flight.v_variant;
  Alcotest.(check string) "segment retained" "s" v.Iw_flight.v_segment;
  Alcotest.(check int) "version retained" 3 v.Iw_flight.v_version

let test_render_json_parses () =
  let f = Iw_flight.create ~capacity:4 () in
  Iw_flight.record f ~seq:9 ~segment:"a/b" ~version:3 ~latency_us:1.5 "write_lock";
  match J.parse (Iw_flight.dump_string f) with
  | Error e -> Alcotest.fail ("dump is not valid JSON: " ^ e)
  | Ok doc ->
    (match Option.bind (J.member "capacity" doc) J.to_float with
    | Some c -> Alcotest.(check (float 0.)) "capacity" 4. c
    | None -> Alcotest.fail "no capacity field");
    (match Option.bind (J.member "events" doc) J.to_list with
    | Some [ ev ] -> (
      match Option.bind (J.member "seq" ev) J.to_float with
      | Some s -> Alcotest.(check (float 0.)) "seq in dump" 9. s
      | None -> Alcotest.fail "event without seq")
    | _ -> Alcotest.fail "expected one event")

(* The acceptance scenario.  A well-formed trace envelope (carrying seq 77)
   followed by garbage where the request body should be: the server must
   reply R_error on the same connection — echoing the seq — and dump the
   flight recorder, whose JSON must contain the recent events including the
   failing request's seq. *)
let test_decode_failure_dumps () =
  let dump_path = Filename.temp_file "iw_flight" ".json" in
  Unix.putenv "IW_FLIGHT_DUMP" dump_path;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "IW_FLIGHT_DUMP" "";
      if Sys.file_exists dump_path then Sys.remove dump_path)
  @@ fun () ->
  let server = Iw_server.create () in
  let client_end, server_end = Iw_transport.loopback () in
  let t = Thread.create (fun () -> Iw_server.serve_conn server server_end) () in
  (* A normal request first, so the dump has context beyond the failure. *)
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_request_env buf
    ~ctx:{ Iw_proto.tc_trace_id = 1; tc_span_id = 2; tc_seq = 76 }
    (Iw_proto.Hello { arch = "x86_32" });
  client_end.Iw_transport.send (Iw_wire.Buf.contents buf);
  (match
     let r = Iw_wire.Reader.of_string (client_end.Iw_transport.recv ()) in
     ignore (Iw_wire.Reader.u8 r);
     ignore (Iw_wire.Reader.u32 r);
     Iw_proto.decode_response r
   with
  | Iw_proto.R_hello _ -> ()
  | _ -> Alcotest.fail "handshake failed");
  (* Envelope with seq 77, then a byte that is no request tag. *)
  let buf = Iw_wire.Buf.create () in
  Iw_wire.Buf.u8 buf Iw_proto.envelope_magic;
  Iw_wire.Buf.u8 buf Iw_proto.proto_version;
  Iw_wire.Buf.u8 buf Iw_proto.feature_trace_ctx;
  Iw_wire.Buf.u64 buf 1;
  Iw_wire.Buf.u64 buf 2;
  Iw_wire.Buf.u32 buf 77;
  Iw_wire.Buf.u8 buf 0xff;
  client_end.Iw_transport.send (Iw_wire.Buf.contents buf);
  let r = Iw_wire.Reader.of_string (client_end.Iw_transport.recv ()) in
  Alcotest.(check int) "seq-echoing reply frame" 2 (Iw_wire.Reader.u8 r);
  Alcotest.(check int) "failing seq echoed" 77 (Iw_wire.Reader.u32 r);
  (match Iw_proto.decode_response r with
  | Iw_proto.R_error msg ->
    Alcotest.(check bool) "reply names the decode failure" true
      (contains ~needle:"malformed" msg)
  | _ -> Alcotest.fail "expected R_error for the malformed request");
  (* The connection survived: a follow-up request still answers. *)
  let buf = Iw_wire.Buf.create () in
  Iw_proto.encode_request_env buf (Iw_proto.Checkpoint { session = 0 });
  client_end.Iw_transport.send (Iw_wire.Buf.contents buf);
  let r = Iw_wire.Reader.of_string (client_end.Iw_transport.recv ()) in
  ignore (Iw_wire.Reader.u8 r);
  (match Iw_proto.decode_response r with
  | Iw_proto.R_ok -> ()
  | _ -> Alcotest.fail "connection did not survive the malformed request");
  client_end.Iw_transport.close ();
  Thread.join t;
  (* The dump landed in IW_FLIGHT_DUMP and holds both the preceding traffic
     and the failing request's seq. *)
  let ic = open_in_bin dump_path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse data with
  | Error e -> Alcotest.fail ("flight dump is not valid JSON: " ^ e)
  | Ok doc -> (
    match Option.bind (J.member "events" doc) J.to_list with
    | Some evs ->
      let seqs = List.filter_map (fun ev -> Option.bind (J.member "seq" ev) J.to_float) evs in
      let variants =
        List.filter_map
          (fun ev ->
            match J.member "variant" ev with Some (J.Str s) -> Some s | _ -> None)
          evs
      in
      Alcotest.(check bool) "dump has the failing seq" true (List.mem 77. seqs);
      Alcotest.(check bool) "dump has preceding events" true (List.mem 76. seqs);
      Alcotest.(check bool) "failure tagged as decode error" true
        (List.mem "decode_error" variants)
    | None -> Alcotest.fail "dump without events array")

let test_flight_request_live () =
  let server = Iw_server.create () in
  let link = Iw_server.direct_link server in
  let session =
    match link.Iw_proto.call (Iw_proto.Hello { arch = "x86_32" }) with
    | Iw_proto.R_hello { session } -> session
    | _ -> Alcotest.fail "handshake failed"
  in
  ignore (link.Iw_proto.call (Iw_proto.Open_segment { session; name = "fl/live"; create = true }));
  match link.Iw_proto.call (Iw_proto.Flight_recorder { session }) with
  | Iw_proto.R_flight json -> (
    match J.parse json with
    | Error e -> Alcotest.fail ("R_flight is not valid JSON: " ^ e)
    | Ok doc -> (
      match Option.bind (J.member "events" doc) J.to_list with
      | Some evs ->
        let variants =
          List.filter_map
            (fun ev ->
              match J.member "variant" ev with Some (J.Str s) -> Some s | _ -> None)
            evs
        in
        Alcotest.(check bool) "recorded the open_segment" true
          (List.mem "open_segment" variants)
      | None -> Alcotest.fail "no events array"))
  | _ -> Alcotest.fail "Flight_recorder request failed"

let suite =
  ( "flight",
    [
      Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "dump json shape" `Quick test_render_json_parses;
      Alcotest.test_case "decode failure dumps with seq" `Quick test_decode_failure_dumps;
      Alcotest.test_case "live flight request" `Quick test_flight_request_live;
    ] )

(* Server behaviour at the protocol level, exercised through [handle]
   directly: lock discipline, versioning, subblock granularity, descriptor
   registration, metadata, the diff cache, and checkpoint files. *)

open Iw_proto

let int_desc = Iw_types.Prim Iw_arch.Int

let int_array n = Iw_types.Array (Prim Iw_arch.Int, n)

(* Build a wire payload of [n] consecutive ints starting at [v0]. *)
let int_payload ?(v0 = 0) n =
  let buf = Iw_wire.Buf.create () in
  for i = 0 to n - 1 do
    Iw_wire.Buf.u32 buf (v0 + i)
  done;
  Iw_wire.Buf.contents buf

let hello t =
  match Iw_server.handle t (Hello { arch = "x86_32" }) with
  | R_hello { session } -> session
  | _ -> Alcotest.fail "hello failed"

let open_seg t session name =
  match Iw_server.handle t (Open_segment { session; name; create = true }) with
  | R_segment { version } -> version
  | r -> Alcotest.failf "open failed: %s" (match r with R_error e -> e | _ -> "?")

let register t session name desc =
  match Iw_server.handle t (Register_desc { session; name; desc }) with
  | R_serial s -> s
  | _ -> Alcotest.fail "register failed"

let write_diff t session name changes =
  (match Iw_server.handle t (Write_lock { session; name; version = 0 }) with
  | R_granted _ -> ()
  | _ -> Alcotest.fail "write lock refused");
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
  | _ -> Alcotest.fail "release failed"

let create_block ~serial ?(name : string option) ~desc_serial payload =
  Iw_wire.Diff.Create { serial; name; desc_serial; payload }

let test_open_and_versions () =
  let t = Iw_server.create () in
  let s = hello t in
  Alcotest.(check int) "fresh segment at version 0" 0 (open_seg t s "seg");
  Alcotest.(check int) "reopen same" 0 (open_seg t s "seg");
  (match Iw_server.handle t (Open_segment { session = s; name = "nope"; create = false }) with
  | R_error _ -> ()
  | _ -> Alcotest.fail "opening a missing segment without create must fail");
  Alcotest.(check (list string)) "names" [ "seg" ] (Iw_server.segment_names t)

let test_create_and_fetch () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 8) in
  let v = write_diff t s "seg" [ create_block ~serial:1 ?name:(Some "xs") ~desc_serial:d (int_payload 8) ] in
  Alcotest.(check int) "version bumped" 1 v;
  (* A second session fetches everything. *)
  let s2 = hello t in
  match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 0; coherence = Full }) with
  | R_update diff ->
    Alcotest.(check int) "to current" 1 diff.Iw_wire.Diff.to_version;
    Alcotest.(check int) "one desc" 1 (List.length diff.new_descs);
    (match diff.changes with
    | [ Iw_wire.Diff.Create { serial = 1; name = Some "xs"; payload; _ } ] ->
      Alcotest.(check int) "payload size" 32 (String.length payload)
    | _ -> Alcotest.fail "expected one create")
  | _ -> Alcotest.fail "expected update"

let test_write_lock_protocol () =
  let t = Iw_server.create () in
  let s1 = hello t and s2 = hello t in
  ignore (open_seg t s1 "seg" : int);
  (match Iw_server.handle t (Write_lock { session = s1; name = "seg"; version = 0 }) with
  | R_granted None -> ()
  | _ -> Alcotest.fail "expected grant");
  (match Iw_server.handle t (Write_lock { session = s2; name = "seg"; version = 0 }) with
  | R_busy -> ()
  | _ -> Alcotest.fail "expected busy");
  (* Reentrant for the same session. *)
  (match Iw_server.handle t (Write_lock { session = s1; name = "seg"; version = 0 }) with
  | R_granted None -> ()
  | _ -> Alcotest.fail "expected reentrant grant");
  (* Release without lock is an error for others. *)
  (match
     Iw_server.handle t
       (Write_release
          {
            session = s2;
            name = "seg";
            diff = { Iw_wire.Diff.from_version = 0; to_version = 0; new_descs = []; changes = [] };
          })
   with
  | R_error _ -> ()
  | _ -> Alcotest.fail "expected error");
  match
    Iw_server.handle t
      (Write_release
         {
           session = s1;
           name = "seg";
           diff = { Iw_wire.Diff.from_version = 0; to_version = 0; new_descs = []; changes = [] };
         })
  with
  | R_version 0 -> () (* empty diff does not bump *)
  | _ -> Alcotest.fail "expected version 0"

let test_update_and_subblocks () =
  let t = Iw_server.create ~diff_cache_capacity:0 () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 64) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 64) ] : int);
  (* Touch exactly one unit (unit 20, subblock 1). *)
  let one = Iw_wire.Buf.create () in
  Iw_wire.Buf.u32 one 12345;
  ignore
    (write_diff t s "seg"
       [
         Iw_wire.Diff.Update
           {
             serial = 1;
             runs = [ { Iw_wire.Diff.start_pu = 20; len_pu = 1; payload = Iw_wire.Buf.contents one } ];
           };
       ]
      : int);
  (* A client at version 1 gets the whole containing subblock (units 16-31),
     not just the unit, and not the whole block. *)
  let s2 = hello t in
  match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 1; coherence = Full }) with
  | R_update diff -> begin
    match diff.Iw_wire.Diff.changes with
    | [ Iw_wire.Diff.Update { serial = 1; runs = [ run ] } ] ->
      Alcotest.(check int) "subblock start" 16 run.Iw_wire.Diff.start_pu;
      Alcotest.(check int) "subblock length" Iw_server.subblock_units run.Iw_wire.Diff.len_pu;
      (* The updated value is inside the run payload at position 20-16. *)
      let r = Iw_wire.Reader.of_string run.Iw_wire.Diff.payload in
      Iw_wire.Reader.skip r (4 * 4);
      Alcotest.(check int) "value" 12345 (Iw_wire.Reader.u32 r)
    | _ -> Alcotest.fail "expected one update with one run"
  end
  | _ -> Alcotest.fail "expected update"

let test_free_tombstones () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 4) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 4) ] : int);
  ignore (write_diff t s "seg" [ create_block ~serial:2 ~desc_serial:d (int_payload 4) ] : int);
  ignore (write_diff t s "seg" [ Iw_wire.Diff.Free { serial = 1 } ] : int);
  (* Client at version 2 must see the free. *)
  let s2 = hello t in
  (match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 2; coherence = Full }) with
  | R_update diff ->
    Alcotest.(check bool) "free present" true
      (List.exists
         (function Iw_wire.Diff.Free { serial = 1 } -> true | _ -> false)
         diff.Iw_wire.Diff.changes)
  | _ -> Alcotest.fail "expected update");
  (* Client at version 0 simply never hears about block 1. *)
  let s3 = hello t in
  match Iw_server.handle t (Read_lock { session = s3; name = "seg"; version = 0; coherence = Full }) with
  | R_update diff ->
    let creates =
      List.filter (function Iw_wire.Diff.Create _ -> true | _ -> false) diff.Iw_wire.Diff.changes
    in
    Alcotest.(check int) "only live blocks created" 1 (List.length creates)
  | _ -> Alcotest.fail "expected update"

let test_meta () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" int_desc in
  ignore
    (write_diff t s "seg"
       [
         create_block ~serial:1 ?name:(Some "a") ~desc_serial:d (int_payload 1);
         create_block ~serial:2 ~desc_serial:d (int_payload 1);
       ]
      : int);
  match Iw_server.handle t (Segment_meta { session = s; name = "seg" }) with
  | R_meta { version; descs; blocks } ->
    Alcotest.(check int) "version" 1 version;
    Alcotest.(check int) "descs" 1 (List.length descs);
    Alcotest.(check int) "blocks" 2 (List.length blocks);
    Alcotest.(check bool) "named" true
      (List.exists (fun mb -> mb.mb_name = Some "a") blocks)
  | _ -> Alcotest.fail "expected meta"

let test_register_idempotent () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d1 = register t s "seg" (int_array 4) in
  let d2 = register t s "seg" (int_array 4) in
  Alcotest.(check int) "same desc same serial" d1 d2;
  let d3 = register t s "seg" (int_array 5) in
  Alcotest.(check bool) "different desc different serial" true (d1 <> d3)

let test_delta_decision () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 4) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 4) ] : int);
  ignore (write_diff t s "seg" [ Iw_wire.Diff.Free { serial = 1 } ] : int);
  let s2 = hello t in
  (match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 1; coherence = Delta 5 }) with
  | R_up_to_date -> ()
  | _ -> Alcotest.fail "1 version behind within delta 5");
  (match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 1; coherence = Delta 0 }) with
  | R_update _ -> ()
  | _ -> Alcotest.fail "delta 0 forces update");
  (* Version 0 always updates regardless of model. *)
  match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 0; coherence = Delta 100 }) with
  | R_update _ -> ()
  | _ -> Alcotest.fail "nothing cached forces update"

let test_diff_cache_stats () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 256) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 256) ] : int);
  let one = Iw_wire.Buf.create () in
  Iw_wire.Buf.u32 one 7;
  ignore
    (write_diff t s "seg"
       [
         Iw_wire.Diff.Update
           { serial = 1; runs = [ { Iw_wire.Diff.start_pu = 0; len_pu = 1; payload = Iw_wire.Buf.contents one } ] };
       ]
      : int);
  let readers = List.init 3 (fun _ -> hello t) in
  List.iter
    (fun r ->
      match Iw_server.handle t (Read_lock { session = r; name = "seg"; version = 1; coherence = Full }) with
      | R_update _ -> ()
      | _ -> Alcotest.fail "expected update")
    readers;
  let st = Iw_server.stats t in
  Alcotest.(check bool) "cache hits recorded" true (st.Iw_server.diff_cache_hits >= 3)

let test_unknown_segment_errors () =
  let t = Iw_server.create () in
  let s = hello t in
  List.iter
    (fun req ->
      match Iw_server.handle t req with
      | R_error _ -> ()
      | _ -> Alcotest.fail "expected error for unknown segment")
    [
      Read_lock { session = s; name = "ghost"; version = 0; coherence = Full };
      Write_lock { session = s; name = "ghost"; version = 0 };
      Get_version { session = s; name = "ghost" };
      Stat { session = s; name = "ghost" };
      Segment_meta { session = s; name = "ghost" };
    ]

let test_bad_diff_rejected () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 4) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 4) ] : int);
  (* Unknown descriptor. *)
  (match Iw_server.handle t (Write_lock { session = s; name = "seg"; version = 1 }) with
  | R_granted _ -> ()
  | _ -> Alcotest.fail "grant");
  (match
     Iw_server.handle t
       (Write_release
          {
            session = s;
            name = "seg";
            diff =
              {
                Iw_wire.Diff.from_version = 1;
                to_version = 2;
                new_descs = [];
                changes = [ create_block ~serial:9 ~desc_serial:404 (int_payload 4) ];
              };
          })
   with
  | R_error _ -> ()
  | _ -> Alcotest.fail "unregistered descriptor must be rejected");
  (* Run beyond block end. *)
  (match Iw_server.handle t (Write_lock { session = s; name = "seg"; version = 1 }) with
  | R_granted _ | R_busy -> ()
  | _ -> Alcotest.fail "grant2");
  match
    Iw_server.handle t
      (Write_release
         {
           session = s;
           name = "seg";
           diff =
             {
               Iw_wire.Diff.from_version = 1;
               to_version = 2;
               new_descs = [];
               changes =
                 [
                   Iw_wire.Diff.Update
                     {
                       serial = 1;
                       runs = [ { Iw_wire.Diff.start_pu = 3; len_pu = 5; payload = int_payload 5 } ];
                     };
                 ];
             };
         })
  with
  | R_error _ -> ()
  | _ -> Alcotest.fail "run beyond end must be rejected"

let test_stat () =
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 40) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 40) ] : int);
  match Iw_server.handle t (Stat { session = s; name = "seg" }) with
  | R_stat st ->
    Alcotest.(check int) "version" 1 st.st_version;
    Alcotest.(check int) "blocks" 1 st.st_blocks;
    Alcotest.(check int) "units" 40 st.st_total_units
  | _ -> Alcotest.fail "expected stat"

let test_checkpoint_files () =
  let dir = Filename.temp_file "iwsrv" "" in
  Sys.remove dir;
  let t = Iw_server.create ~checkpoint_dir:dir () in
  let s = hello t in
  ignore (open_seg t s "a/b c" : int);
  let d = register t s "a/b c" (int_array 4) in
  ignore (write_diff t s "a/b c" [ create_block ~serial:1 ~desc_serial:d (int_payload 4 ~v0:9) ] : int);
  (match Iw_server.handle t (Checkpoint { session = s }) with
  | R_ok -> ()
  | _ -> Alcotest.fail "checkpoint failed");
  (* The directory holds the checkpoint plus the segment's write-ahead log
     (truncated by the checkpoint); exactly one of each, names escaped. *)
  let files = Sys.readdir dir in
  let ckpts =
    List.filter
      (fun f -> Filename.check_suffix f Iw_store.checkpoint_suffix)
      (Array.to_list files)
  in
  Alcotest.(check int) "one checkpoint file" 1 (List.length ckpts);
  Alcotest.(check bool) "escaped name" true
    (List.for_all (fun f -> String.length f > 0 && not (String.contains f '/')) ckpts);
  (* Reload and verify content. *)
  let t2 = Iw_server.create ~checkpoint_dir:dir () in
  let s2 = hello t2 in
  match Iw_server.handle t2 (Read_lock { session = s2; name = "a/b c"; version = 0; coherence = Full }) with
  | R_update diff -> begin
    match diff.Iw_wire.Diff.changes with
    | [ Iw_wire.Diff.Create { payload; _ } ] ->
      let r = Iw_wire.Reader.of_string payload in
      Alcotest.(check int) "first value" 9 (Iw_wire.Reader.u32 r)
    | _ -> Alcotest.fail "expected one create after reload"
  end
  | _ -> Alcotest.fail "expected update after reload"

let test_merged_span_updates () =
  (* Three single-unit writes to different units; a client three versions
     behind must get exactly those units (diff-cache span merge), not whole
     subblocks. *)
  let t = Iw_server.create () in
  let s = hello t in
  ignore (open_seg t s "seg" : int);
  let d = register t s "seg" (int_array 256) in
  ignore (write_diff t s "seg" [ create_block ~serial:1 ~desc_serial:d (int_payload 256) ] : int);
  let write_unit u v =
    let b = Iw_wire.Buf.create () in
    Iw_wire.Buf.u32 b v;
    ignore
      (write_diff t s "seg"
         [
           Iw_wire.Diff.Update
             { serial = 1; runs = [ { Iw_wire.Diff.start_pu = u; len_pu = 1; payload = Iw_wire.Buf.contents b } ] };
         ]
        : int)
  in
  write_unit 10 100;
  write_unit 200 200;
  write_unit 10 300;
  let s2 = hello t in
  match Iw_server.handle t (Read_lock { session = s2; name = "seg"; version = 1; coherence = Full }) with
  | R_update diff -> begin
    match diff.Iw_wire.Diff.changes with
    | [ Iw_wire.Diff.Update { runs; _ } ] ->
      let total = List.fold_left (fun acc r -> acc + r.Iw_wire.Diff.len_pu) 0 runs in
      Alcotest.(check int) "exactly the 2 distinct units" 2 total;
      let payload_of u =
        List.find_map
          (fun r ->
            if r.Iw_wire.Diff.start_pu = u then
              Some (Iw_wire.Reader.u32 (Iw_wire.Reader.of_string r.Iw_wire.Diff.payload))
            else None)
          runs
      in
      Alcotest.(check (option int)) "unit 10 has the latest value" (Some 300) (payload_of 10);
      Alcotest.(check (option int)) "unit 200" (Some 200) (payload_of 200)
    | _ -> Alcotest.fail "expected one update"
  end
  | _ -> Alcotest.fail "expected update"

(* Over a real connection, a frame without the request envelope is
   malformed: it draws R_error, and the connection keeps serving. *)
let test_bare_request_rejected () =
  let t = Iw_server.create () in
  let client_end, server_end = Iw_transport.loopback () in
  let th = Thread.create (fun () -> Iw_server.serve_conn t server_end) () in
  let exchange encode =
    let buf = Iw_wire.Buf.create () in
    encode buf (Hello { arch = "x86_32" });
    client_end.Iw_transport.send (Iw_wire.Buf.contents buf);
    let r = Iw_wire.Reader.of_string (client_end.Iw_transport.recv ()) in
    Alcotest.(check int) "response frame" 0 (Iw_wire.Reader.u8 r);
    decode_response r
  in
  (match exchange encode_request with
  | R_error msg ->
    Alcotest.(check bool) ("malformed reply: " ^ msg) true
      (String.starts_with ~prefix:"malformed: " msg)
  | _ -> Alcotest.fail "bare request accepted");
  (match exchange (fun buf req -> encode_request_env buf req) with
  | R_hello _ -> ()
  | _ -> Alcotest.fail "connection did not survive the bare request");
  client_end.Iw_transport.close ();
  Thread.join th

let suite =
  ( "server",
    [
      Alcotest.test_case "open and versions" `Quick test_open_and_versions;
      Alcotest.test_case "create and fetch" `Quick test_create_and_fetch;
      Alcotest.test_case "write lock protocol" `Quick test_write_lock_protocol;
      Alcotest.test_case "subblock granularity" `Quick test_update_and_subblocks;
      Alcotest.test_case "free tombstones" `Quick test_free_tombstones;
      Alcotest.test_case "segment meta" `Quick test_meta;
      Alcotest.test_case "register idempotent" `Quick test_register_idempotent;
      Alcotest.test_case "delta decision" `Quick test_delta_decision;
      Alcotest.test_case "diff cache stats" `Quick test_diff_cache_stats;
      Alcotest.test_case "unknown segment errors" `Quick test_unknown_segment_errors;
      Alcotest.test_case "bad diff rejected" `Quick test_bad_diff_rejected;
      Alcotest.test_case "stat" `Quick test_stat;
      Alcotest.test_case "checkpoint files" `Quick test_checkpoint_files;
      Alcotest.test_case "merged span updates" `Quick test_merged_span_updates;
      Alcotest.test_case "bare request rejected" `Quick test_bare_request_rejected;
    ] )

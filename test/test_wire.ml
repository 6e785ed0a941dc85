(* Wire format: buffers, descriptor codec, diff codec, primitive translation. *)

open Iw_wire

let test_buf_reader_roundtrip () =
  let b = Buf.create () in
  Buf.u8 b 0xab;
  Buf.u16 b 0x1234;
  Buf.u32 b 0xdeadbeef;
  Buf.u64 b 0x1122334455667788;
  Buf.f32 b 1.5;
  Buf.f64 b (-2.25);
  Buf.string b "hi";
  Buf.lstring b "longer";
  let r = Reader.of_string (Buf.contents b) in
  Alcotest.(check int) "u8" 0xab (Reader.u8 r);
  Alcotest.(check int) "u16" 0x1234 (Reader.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Reader.u32 r);
  Alcotest.(check int) "u64" 0x1122334455667788 (Reader.u64 r);
  Alcotest.(check (float 0.)) "f32" 1.5 (Reader.f32 r);
  Alcotest.(check (float 0.)) "f64" (-2.25) (Reader.f64 r);
  Alcotest.(check string) "string" "hi" (Reader.string r);
  Alcotest.(check string) "lstring" "longer" (Reader.lstring r);
  Alcotest.(check bool) "eof" true (Reader.eof r)

let test_buf_growth () =
  let b = Buf.create ~capacity:4 () in
  for i = 0 to 9999 do
    Buf.u32 b i
  done;
  Alcotest.(check int) "length" 40000 (Buf.length b);
  let r = Reader.of_string (Buf.contents b) in
  for i = 0 to 9999 do
    if Reader.u32 r <> i then Alcotest.failf "corrupt at %d" i
  done

let test_reader_truncation () =
  let r = Reader.of_string "ab" in
  (try
     ignore (Reader.u32 r : int);
     Alcotest.fail "expected Malformed"
   with Malformed _ -> ());
  let r2 = Reader.of_string "\x00\x05ab" in
  try
    ignore (Reader.string r2 : string);
    Alcotest.fail "expected Malformed on short string"
  with Malformed _ -> ()

let fig3 : Iw_types.desc =
  Struct
    [|
      { fname = "i0"; ftype = Prim Iw_arch.Int };
      { fname = "d0"; ftype = Prim Iw_arch.Double };
      { fname = "name"; ftype = Prim (Iw_arch.String 32) };
      { fname = "next"; ftype = Ptr "node" };
      { fname = "raw"; ftype = Prim Iw_arch.Pointer };
      { fname = "xs"; ftype = Array (Prim Iw_arch.Short, 5) };
    |]

let test_desc_codec () =
  List.iter
    (fun d ->
      let b = Buf.create () in
      put_desc b d;
      let d' = get_desc (Reader.of_string (Buf.contents b)) in
      if not (Iw_types.equal d d') then
        Alcotest.failf "descriptor roundtrip failed for %a" Iw_types.pp d)
    [
      Iw_types.Prim Iw_arch.Int;
      Prim (Iw_arch.String 256);
      Ptr "node";
      Array (Prim Iw_arch.Double, 42);
      fig3;
      Array (fig3, 3);
    ]

let test_diff_codec () =
  let diff =
    {
      Diff.from_version = 3;
      to_version = 5;
      new_descs = [ (1, Iw_types.Prim Iw_arch.Int); (2, fig3) ];
      changes =
        [
          Diff.Create { serial = 7; name = Some "head"; desc_serial = 2; payload = "abc" };
          Diff.Update
            {
              serial = 3;
              runs =
                [
                  { Diff.start_pu = 0; len_pu = 4; payload = "0123456789abcdef" };
                  { Diff.start_pu = 100; len_pu = 1; payload = "zzzz" };
                ];
            };
          Diff.Free { serial = 9 };
        ];
    }
  in
  let b = Buf.create () in
  Diff.encode b diff;
  let diff' = Diff.decode (Reader.of_string (Buf.contents b)) in
  Alcotest.(check bool) "roundtrip" true (diff = diff');
  Alcotest.(check int) "payload bytes" 23 (Diff.payload_bytes diff);
  Alcotest.(check int) "touched units" 5 (Diff.touched_units diff)

(* Translation: local -> wire -> local across architectures must preserve
   values, with pointers passing through the swizzle callbacks. *)
let test_translate_cross_arch () =
  let src_arch = Iw_arch.x86_32 and dst_arch = Iw_arch.sparc32 in
  let desc = fig3 in
  let src_lay = Iw_types.layout (Iw_types.local src_arch) desc in
  let dst_lay = Iw_types.layout (Iw_types.local dst_arch) desc in
  let src = Bytes.make (Iw_types.size src_lay) '\000' in
  let dst = Bytes.make (Iw_types.size dst_lay) '\000' in
  let off lay i = (Iw_types.locate_prim lay i).Iw_types.l_off in
  Iw_arch.store_uint src_arch src ~off:(off src_lay 0) ~size:4 123456;
  Iw_arch.store_double src_arch src ~off:(off src_lay 1) 3.14159;
  Iw_arch.store_cstring src ~off:(off src_lay 2) ~capacity:32 "wire-format";
  Iw_arch.store_uint src_arch src ~off:(off src_lay 3) ~size:4 0xbeef (* a live pointer *);
  Iw_arch.store_uint src_arch src ~off:(off src_lay 4) ~size:4 0 (* null *);
  List.iteri
    (fun i v -> Iw_arch.store_uint src_arch src ~off:(off src_lay (5 + i)) ~size:2 v)
    [ 1; 2; 3; 4; 5 ];
  let swizzled = ref [] in
  let buf = Buf.create () in
  collect_prims buf src_arch src_lay src ~base:0 ~from:0 ~upto:10 ~swizzle:(fun a ->
      swizzled := a :: !swizzled;
      Printf.sprintf "seg#%d" a);
  Alcotest.(check (list int)) "swizzle called for live pointer only" [ 0xbeef ] !swizzled;
  let unswizzled = ref [] in
  let r = Reader.of_string (Buf.contents buf) in
  apply_prims r dst_arch dst_lay dst ~base:0 ~from:0 ~upto:10 ~unswizzle:(fun mip ->
      unswizzled := mip :: !unswizzled;
      0x1000);
  Alcotest.(check (list string)) "unswizzle got the MIP" [ "seg#48879" ] !unswizzled;
  Alcotest.(check int) "int survives" 123456
    (Iw_arch.load_sint dst_arch dst ~off:(off dst_lay 0) ~size:4);
  Alcotest.(check (float 0.)) "double survives" 3.14159
    (Iw_arch.load_double dst_arch dst ~off:(off dst_lay 1));
  Alcotest.(check string) "string survives" "wire-format"
    (Iw_arch.load_cstring dst ~off:(off dst_lay 2) ~capacity:32);
  Alcotest.(check int) "pointer rewritten" 0x1000
    (Iw_arch.load_uint dst_arch dst ~off:(off dst_lay 3) ~size:4);
  Alcotest.(check int) "null stays null" 0
    (Iw_arch.load_uint dst_arch dst ~off:(off dst_lay 4) ~size:4);
  List.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "short %d" i) v
        (Iw_arch.load_sint dst_arch dst ~off:(off dst_lay (5 + i)) ~size:2))
    [ 1; 2; 3; 4; 5 ]

let test_translate_partial_range () =
  let arch = Iw_arch.x86_32 in
  let lay = Iw_types.layout (Iw_types.local arch) (Array (Prim Iw_arch.Int, 100)) in
  let src = Bytes.make (Iw_types.size lay) '\000' in
  for i = 0 to 99 do
    Iw_arch.store_uint arch src ~off:(i * 4) ~size:4 (i * 11)
  done;
  let buf = Buf.create () in
  collect_prims buf arch lay src ~base:0 ~from:40 ~upto:60 ~swizzle:(fun _ -> assert false);
  Alcotest.(check int) "20 ints = 80 bytes" 80 (Buf.length buf);
  let dst = Bytes.make (Iw_types.size lay) '\000' in
  apply_prims (Reader.of_string (Buf.contents buf)) arch lay dst ~base:0 ~from:40 ~upto:60
    ~unswizzle:(fun _ -> assert false);
  for i = 40 to 59 do
    Alcotest.(check int) (Printf.sprintf "elt %d" i) (i * 11)
      (Iw_arch.load_sint arch dst ~off:(i * 4) ~size:4)
  done;
  Alcotest.(check int) "outside range untouched" 0 (Iw_arch.load_sint arch dst ~off:0 ~size:4)

let test_long_widening () =
  (* 4-byte longs on x86 travel as 8-byte wire longs and land correctly in
     8-byte alpha longs, and vice versa (with truncation). *)
  let desc = Iw_types.Prim Iw_arch.Long in
  let x86_lay = Iw_types.layout (Iw_types.local Iw_arch.x86_32) desc in
  let alpha_lay = Iw_types.layout (Iw_types.local Iw_arch.alpha64) desc in
  let src = Bytes.make 4 '\000' and dst = Bytes.make 8 '\000' in
  Iw_arch.store_uint Iw_arch.x86_32 src ~off:0 ~size:4 (-42);
  let buf = Buf.create () in
  collect_prims buf Iw_arch.x86_32 x86_lay src ~base:0 ~from:0 ~upto:1 ~swizzle:(fun _ ->
      assert false);
  Alcotest.(check int) "wire long is 8 bytes" 8 (Buf.length buf);
  apply_prims (Reader.of_string (Buf.contents buf)) Iw_arch.alpha64 alpha_lay dst ~base:0
    ~from:0 ~upto:1 ~unswizzle:(fun _ -> assert false);
  Alcotest.(check int) "sign-extended on alpha" (-42)
    (Iw_arch.load_sint Iw_arch.alpha64 dst ~off:0 ~size:8)

let test_wire_size_of_prims () =
  let lay = Iw_types.layout Iw_types.wire fig3 in
  (* int 4 + double 8 + string/ptr/ptr as given + 5 shorts *)
  Alcotest.(check int) "all, strings as 4" (4 + 8 + 4 + 4 + 4 + 10)
    (wire_size_of_prims lay ~from:0 ~upto:10 ~strings_as:4);
  Alcotest.(check int) "partial" (8 + 4) (wire_size_of_prims lay ~from:1 ~upto:3 ~strings_as:4)

let prop_value_roundtrip =
  (* Random int arrays survive x86 -> wire -> alpha -> wire -> x86. *)
  QCheck.Test.make ~name:"translation roundtrip across architectures" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 64) int)
    (fun xs ->
      let n = List.length xs in
      let desc = Iw_types.Array (Prim Iw_arch.Long, n) in
      let a1 = Iw_arch.alpha64 and a2 = Iw_arch.sparc32 in
      let l1 = Iw_types.layout (Iw_types.local a1) desc in
      let l2 = Iw_types.layout (Iw_types.local a2) desc in
      let b1 = Bytes.make (Iw_types.size l1) '\000' in
      let b2 = Bytes.make (Iw_types.size l2) '\000' in
      let b3 = Bytes.make (Iw_types.size l1) '\000' in
      List.iteri (fun i v -> Iw_arch.store_uint a1 b1 ~off:(i * 8) ~size:8 v) xs;
      let buf = Buf.create () in
      collect_prims buf a1 l1 b1 ~base:0 ~from:0 ~upto:n ~swizzle:(fun _ -> "");
      apply_prims (Reader.of_string (Buf.contents buf)) a2 l2 b2 ~base:0 ~from:0 ~upto:n
        ~unswizzle:(fun _ -> 0);
      let buf2 = Buf.create () in
      collect_prims buf2 a2 l2 b2 ~base:0 ~from:0 ~upto:n ~swizzle:(fun _ -> "");
      apply_prims (Reader.of_string (Buf.contents buf2)) a1 l1 b3 ~base:0 ~from:0 ~upto:n
        ~unswizzle:(fun _ -> 0);
      (* sparc 32-bit longs truncate; so compare modulo 32-bit wraparound. *)
      List.for_all2
        (fun v i ->
          let got = Iw_arch.load_sint a1 b3 ~off:(i * 8) ~size:8 in
          let truncated =
            let m = v land 0xffffffff in
            if m land 0x80000000 <> 0 then m - (1 lsl 32) else m
          in
          got = truncated)
        xs
        (List.init n Fun.id))

(* CRC-32: the slicing-by-8 kernel must give the byte-at-a-time zlib/IEEE
   values for every length, offset and chaining split. *)
let crc_reference s ~off ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let test_crc_known_answers () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "a" 0xE8B7BE43 (Crc32.string "a");
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  let zeros = String.make (1 lsl 20) '\000' in
  Alcotest.(check int) "1 MiB of zeros"
    (crc_reference zeros ~off:0 ~len:(String.length zeros))
    (Crc32.string zeros)

let test_crc_matches_reference () =
  let rng = Random.State.make [| 27 |] in
  for len = 0 to 300 do
    let s = String.init (len + 16) (fun _ -> Char.chr (Random.State.int rng 256)) in
    for off = 0 to 15 do
      let want = crc_reference s ~off ~len in
      let got = Crc32.update 0 s ~off ~len in
      if got <> want then Alcotest.failf "len %d off %d: %08x, want %08x" len off got want
    done
  done

let test_crc_chaining () =
  let s = String.init 67 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  let n = String.length s in
  for k = 0 to n do
    Alcotest.(check int)
      (Printf.sprintf "split at %d" k)
      (Crc32.string s)
      (Crc32.update (Crc32.update 0 s ~off:0 ~len:k) s ~off:k ~len:(n - k))
  done

let test_crc_bounds () =
  List.iter
    (fun (off, len) ->
      match Crc32.update 0 "0123456789" ~off ~len with
      | _ -> Alcotest.failf "off %d len %d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 11); (3, 8); (11, 0); (max_int, 1) ]

let suite =
  ( "wire",
    [
      Alcotest.test_case "buf/reader roundtrip" `Quick test_buf_reader_roundtrip;
      Alcotest.test_case "buf growth" `Quick test_buf_growth;
      Alcotest.test_case "reader truncation" `Quick test_reader_truncation;
      Alcotest.test_case "descriptor codec" `Quick test_desc_codec;
      Alcotest.test_case "diff codec" `Quick test_diff_codec;
      Alcotest.test_case "cross-arch translation" `Quick test_translate_cross_arch;
      Alcotest.test_case "partial range translation" `Quick test_translate_partial_range;
      Alcotest.test_case "long widening" `Quick test_long_widening;
      Alcotest.test_case "wire_size_of_prims" `Quick test_wire_size_of_prims;
      QCheck_alcotest.to_alcotest prop_value_roundtrip;
      Alcotest.test_case "crc32 known answers" `Quick test_crc_known_answers;
      Alcotest.test_case "crc32 matches the byte loop" `Quick test_crc_matches_reference;
      Alcotest.test_case "crc32 chains at every split" `Quick test_crc_chaining;
      Alcotest.test_case "crc32 bounds" `Quick test_crc_bounds;
    ] )

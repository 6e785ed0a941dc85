(* Type descriptors: layout under different conventions, primitive offsets,
   isomorphic optimization, registries. *)

open Iw_types

let int_ = Prim Iw_arch.Int

let double_ = Prim Iw_arch.Double

let char_ = Prim Iw_arch.Char

let fld n t = { fname = n; ftype = t }

(* The structure from the paper's Figure 3: three ints, two doubles, and a
   pointer, with d0 and i1 interleaved so padding appears on x86. *)
let fig3 =
  Struct
    [|
      fld "i0" int_; fld "d0" double_; fld "i1" int_; fld "i2" int_;
      fld "d1" double_; fld "ptr" (Ptr "int");
    |]

let test_prim_count () =
  Alcotest.(check int) "prim" 1 (prim_count int_);
  Alcotest.(check int) "array" 12 (prim_count (Array (int_, 12)));
  Alcotest.(check int) "fig3" 6 (prim_count fig3);
  Alcotest.(check int) "nested" 20 (prim_count (Array (Struct [| fld "a" int_; fld "b" double_ |], 10)));
  Alcotest.(check int) "string counts as one" 1 (prim_count (Prim (Iw_arch.String 256)))

let test_validate () =
  Alcotest.(check bool) "ok" true (validate fig3 = Ok ());
  Alcotest.(check bool) "empty struct" true (validate (Struct [||]) <> Ok ());
  Alcotest.(check bool) "zero array" true (validate (Array (int_, 0)) <> Ok ());
  Alcotest.(check bool) "tiny string" true (validate (Prim (Iw_arch.String 1)) <> Ok ())

let test_x86_layout () =
  let lay = layout (local Iw_arch.x86_32) fig3 in
  (* x86: doubles align to 4, so no padding anywhere; ptr is 4 bytes. *)
  Alcotest.(check int) "size" 32 (size lay);
  Alcotest.(check int) "align" 4 (align lay);
  let offs = List.init 6 (fun i -> (locate_prim lay i).l_off) in
  Alcotest.(check (list int)) "offsets" [ 0; 4; 12; 16; 20; 28 ] offs

let test_sparc_layout () =
  let lay = layout (local Iw_arch.sparc32) fig3 in
  (* sparc: doubles align to 8 -> padding after i0 and after i2. *)
  Alcotest.(check int) "size" 40 (size lay);
  Alcotest.(check int) "align" 8 (align lay);
  let offs = List.init 6 (fun i -> (locate_prim lay i).l_off) in
  Alcotest.(check (list int)) "offsets" [ 0; 8; 16; 20; 24; 32 ] offs

let test_alpha_layout () =
  let lay = layout (local Iw_arch.alpha64) fig3 in
  (* alpha: 8-byte pointers and doubles. *)
  let offs = List.init 6 (fun i -> (locate_prim lay i).l_off) in
  Alcotest.(check (list int)) "offsets" [ 0; 8; 16; 20; 24; 32 ] offs;
  Alcotest.(check int) "size" 40 (size lay)

let test_wire_layout () =
  let lay = layout wire fig3 in
  (* wire: packed, int 4, double 8, pointer slot 4. *)
  Alcotest.(check int) "size" 32 (size lay);
  let offs = List.init 6 (fun i -> (locate_prim lay i).l_off) in
  Alcotest.(check (list int)) "offsets" [ 0; 4; 12; 16; 20; 28 ] offs

let test_locate_byte () =
  let lay = layout (local Iw_arch.sparc32) fig3 in
  let check_at off expected_index =
    match locate_byte lay off with
    | Some loc -> Alcotest.(check int) (Printf.sprintf "byte %d" off) expected_index loc.l_index
    | None -> Alcotest.failf "byte %d unexpectedly padding" off
  in
  check_at 0 0;
  check_at 3 0;
  check_at 8 1;
  check_at 15 1;
  check_at 20 3;
  (match locate_byte lay 5 with
  | None -> ()
  | Some _ -> Alcotest.fail "byte 5 should be padding on sparc");
  (match locate_byte lay 4096 with
  | None -> ()
  | Some _ -> Alcotest.fail "out of range should be None")

let test_locate_array () =
  let lay = layout (local Iw_arch.x86_32) (Array (fig3, 100)) in
  Alcotest.(check int) "pcount" 600 (layout_prim_count lay);
  let loc = locate_prim lay 594 in
  Alcotest.(check int) "element 99 first prim offset" (99 * 32) loc.l_off;
  match locate_byte lay ((50 * 32) + 12) with
  | Some loc -> Alcotest.(check int) "i1 of element 50" ((50 * 6) + 2) loc.l_index
  | None -> Alcotest.fail "expected a primitive"

let test_fold_prims_partial () =
  let lay = layout (local Iw_arch.x86_32) (Array (int_, 1000)) in
  let visited =
    fold_prims lay ~from:10 ~upto:15 ~init:[] ~f:(fun acc loc -> loc.l_index :: acc)
  in
  Alcotest.(check (list int)) "range" [ 14; 13; 12; 11; 10 ] visited;
  let offs =
    fold_prims lay ~from:997 ~upto:1000 ~init:[] ~f:(fun acc loc -> loc.l_off :: acc)
  in
  Alcotest.(check (list int)) "tail offsets" [ 3996; 3992; 3988 ] offs

let test_fold_prims_full_struct () =
  let lay = layout (local Iw_arch.sparc32) fig3 in
  let prims =
    fold_prims lay ~from:0 ~upto:6 ~init:[] ~f:(fun acc loc -> (loc.l_index, loc.l_off) :: acc)
    |> List.rev
  in
  Alcotest.(check int) "count" 6 (List.length prims);
  Alcotest.(check (list int)) "indices in order" [ 0; 1; 2; 3; 4; 5 ] (List.map fst prims)

let test_optimize_collapses_runs () =
  let s = Struct (Array.init 10 (fun i -> fld (Printf.sprintf "f%d" i) int_)) in
  (match optimize s with
  | Array (Prim Iw_arch.Int, 10) -> ()
  | d -> Alcotest.failf "expected int[10], got %a" pp d);
  let mixed =
    Struct [| fld "a" int_; fld "b" int_; fld "c" double_; fld "d" double_; fld "e" char_ |]
  in
  match optimize mixed with
  | Struct [| a; c; e |] ->
    Alcotest.(check bool) "a collapsed" true (a.ftype = Array (int_, 2));
    Alcotest.(check bool) "c collapsed" true (c.ftype = Array (double_, 2));
    Alcotest.(check bool) "e kept" true (e.ftype = char_)
  | d -> Alcotest.failf "unexpected shape %a" pp d

let test_optimize_flattens_arrays () =
  match optimize (Array (Array (int_, 4), 5)) with
  | Array (Prim Iw_arch.Int, 20) -> ()
  | d -> Alcotest.failf "expected int[20], got %a" pp d

let test_optimize_preserves_layout () =
  let descs = [ fig3; Array (fig3, 3); Struct (Array.init 32 (fun i -> fld (string_of_int i) int_)) ] in
  List.iter
    (fun d ->
      let d' = optimize d in
      Alcotest.(check int) "prim count" (prim_count d) (prim_count d');
      List.iter
        (fun arch ->
          let conv = local arch in
          let l = layout conv d and l' = layout conv d' in
          Alcotest.(check int) (arch.Iw_arch.name ^ " size") (size l) (size l');
          for i = 0 to prim_count d - 1 do
            let a = locate_prim l i and b = locate_prim l' i in
            if a.l_off <> b.l_off then
              Alcotest.failf "%s: prim %d moved %d -> %d" arch.Iw_arch.name i a.l_off b.l_off
          done)
        Iw_arch.all)
    descs

let test_registry () =
  let r = Registry.create () in
  let s1 = Registry.register r int_ in
  let s2 = Registry.register r fig3 in
  Alcotest.(check int) "same desc same serial" s1 (Registry.register r int_);
  Alcotest.(check bool) "distinct" true (s1 <> s2);
  Alcotest.(check bool) "find" true (Registry.find r s2 = Some fig3);
  Alcotest.(check bool) "serial_of" true (Registry.serial_of r fig3 = Some s2);
  Alcotest.(check int) "count" 2 (Registry.count r);
  let since = Registry.registered_since r s1 in
  Alcotest.(check int) "registered_since" 1 (List.length since)

let test_registry_adopt () =
  let r = Registry.create () in
  Registry.adopt r 7 fig3;
  Alcotest.(check bool) "adopted" true (Registry.find r 7 = Some fig3);
  Registry.adopt r 7 fig3;
  (* conflicting adoption must fail *)
  (try
     Registry.adopt r 7 int_;
     Alcotest.fail "expected conflict"
   with Invalid_argument _ -> ());
  (* serials continue after adopted ones *)
  let s = Registry.register r int_ in
  Alcotest.(check bool) "fresh serial after adopt" true (s > 7)

let test_registry_names () =
  let r = Registry.create () in
  Registry.define_name r "node" fig3;
  Alcotest.(check bool) "resolve" true (Registry.resolve_name r "node" = Some fig3);
  Registry.define_name r "node" fig3;
  (try
     Registry.define_name r "node" int_;
     Alcotest.fail "expected conflict"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "missing" true (Registry.resolve_name r "nope" = None)

(* Property: locate_prim and locate_byte are inverse on non-padding bytes. *)
let desc_gen =
  let open QCheck.Gen in
  let prim =
    oneofl
      [ int_; double_; char_; Prim Iw_arch.Short; Prim Iw_arch.Long; Prim Iw_arch.Float; Ptr "t" ]
  in
  let rec d n =
    if n = 0 then prim
    else
      frequency
        [
          (3, prim);
          (2, map2 (fun t k -> Array (t, 1 + k)) (d (n - 1)) (int_bound 5));
          ( 2,
            map
              (fun ts ->
                Struct (Array.of_list (List.mapi (fun i t -> fld (Printf.sprintf "f%d" i) t) ts)))
              (list_size (int_range 1 4) (d (n - 1))) );
        ]
  in
  d 3

let prop_locate_inverse =
  QCheck.Test.make ~name:"locate_prim/locate_byte inverse" ~count:300
    (QCheck.make desc_gen) (fun d ->
      List.for_all
        (fun arch ->
          let lay = layout (local arch) d in
          let n = prim_count d in
          List.for_all
            (fun i ->
              let loc = locate_prim lay i in
              match locate_byte lay loc.l_off with
              | Some loc' -> loc'.l_index = i && loc'.l_off = loc.l_off
              | None -> false)
            (List.init n Fun.id))
        Iw_arch.all)

let prop_fold_agrees_with_locate =
  QCheck.Test.make ~name:"fold_prims visits locate_prim positions" ~count:200
    (QCheck.make desc_gen) (fun d ->
      let lay = layout wire d in
      let n = prim_count d in
      let via_fold =
        fold_prims lay ~from:0 ~upto:n ~init:[] ~f:(fun acc loc -> (loc.l_index, loc.l_off) :: acc)
        |> List.rev
      in
      let via_locate = List.init n (fun i -> let l = locate_prim lay i in (l.l_index, l.l_off)) in
      via_fold = via_locate)

(* The allocation-free lookups and span iteration agree with [fold_prims]:
   every byte of a unit maps back to it, padding to -1, each unit's offset
   is where [fold_prims] puts it, and spans expand to the same units. *)
let prop_lookups_agree_with_fold =
  QCheck.Test.make ~name:"index_of_byte/offset_of_index/iter_spans agree with fold_prims"
    ~count:200
    QCheck.(pair (make desc_gen) (pair small_nat small_nat))
    (fun (d, (a, b)) ->
      List.for_all
        (fun arch ->
          let lay = layout (local arch) d in
          let n = prim_count d in
          let units =
            fold_prims lay ~from:0 ~upto:n ~init:[] ~f:(fun acc l -> l :: acc) |> List.rev
          in
          let owner = Array.make (size lay) (-1) in
          List.iter
            (fun l ->
              for k = 0 to Iw_arch.prim_size arch l.l_prim - 1 do
                owner.(l.l_off + k) <- l.l_index
              done)
            units;
          let from = min a n and upto = min n (a + b) in
          let spanned = ref [] in
          iter_spans lay ~from ~upto (fun p index off stride count ->
              for k = 0 to count - 1 do
                spanned := (p, index + k, off + (k * stride)) :: !spanned
              done);
          Array.for_all Fun.id (Array.mapi (fun off i -> index_of_byte lay off = i) owner)
          && List.for_all (fun l -> offset_of_index lay l.l_index = l.l_off) units
          && offset_of_index lay n = size lay
          && List.rev !spanned
             = List.filter_map
                 (fun l ->
                   if l.l_index >= from && l.l_index < upto then
                     Some (l.l_prim, l.l_index, l.l_off)
                   else None)
                 units)
        Iw_arch.all)

let suite =
  ( "types",
    [
      Alcotest.test_case "prim_count" `Quick test_prim_count;
      Alcotest.test_case "validate" `Quick test_validate;
      Alcotest.test_case "x86 layout" `Quick test_x86_layout;
      Alcotest.test_case "sparc layout" `Quick test_sparc_layout;
      Alcotest.test_case "alpha layout" `Quick test_alpha_layout;
      Alcotest.test_case "wire layout" `Quick test_wire_layout;
      Alcotest.test_case "locate_byte" `Quick test_locate_byte;
      Alcotest.test_case "locate in arrays" `Quick test_locate_array;
      Alcotest.test_case "fold_prims partial" `Quick test_fold_prims_partial;
      Alcotest.test_case "fold_prims struct" `Quick test_fold_prims_full_struct;
      Alcotest.test_case "optimize collapses" `Quick test_optimize_collapses_runs;
      Alcotest.test_case "optimize flattens" `Quick test_optimize_flattens_arrays;
      Alcotest.test_case "optimize preserves layout" `Quick test_optimize_preserves_layout;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "registry adopt" `Quick test_registry_adopt;
      Alcotest.test_case "registry names" `Quick test_registry_names;
      QCheck_alcotest.to_alcotest prop_locate_inverse;
      QCheck_alcotest.to_alcotest prop_lookups_agree_with_fold;
      QCheck_alcotest.to_alcotest prop_fold_agrees_with_locate;
    ] )

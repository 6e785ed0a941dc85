(* The sparse-diff path end to end: golden digests of the wire encoding of
   diffs collected by fixed seeded schedules (so a faster collect, codec or
   apply cannot change a byte on the wire), a reader's memory equal to the
   writer's after every release, and the paper's four Fig. 5 signatures
   pinned as run counts, twinned pages and payload bytes. *)

module D = Iw_wire.Diff

let encode diff =
  let buf = Iw_wire.Buf.create () in
  D.encode buf diff;
  Iw_wire.Buf.contents buf

(* A client whose link records the wire encoding of every diff it sends. *)
let tapped_client ~arch server sent =
  let inner = Iw_server.direct_link server in
  let call ?ctx (req : Iw_proto.request) =
    (match req with
    | Write_release { diff; _ } -> sent := encode diff :: !sent
    | _ -> ());
    inner.call ?ctx req
  in
  Iw_client.connect ~arch { inner with Iw_proto.call }

(* One line per primitive unit, machine-independent: pointers as MIPs. *)
let block_image c (b : Iw_mem.block) =
  let sp = Iw_client.space c in
  let lay = b.b_layout in
  let values =
    Iw_types.fold_prims lay ~from:0 ~upto:(Iw_types.layout_prim_count lay) ~init:[]
      ~f:(fun acc (l : Iw_types.located) ->
        let a = b.b_addr + l.l_off in
        let v =
          match l.l_prim with
          | Float -> Printf.sprintf "%h" (Iw_mem.load_float sp a)
          | Double -> Printf.sprintf "%h" (Iw_mem.load_double sp a)
          | Pointer ->
            let p = Iw_mem.load_prim sp Pointer a in
            if p = 0 then "null" else Iw_client.ptr_to_mip c p
          | String capacity -> String.escaped (Iw_mem.load_string sp ~capacity a)
          | (Char | Short | Int | Long) as p -> string_of_int (Iw_mem.load_prim sp p a)
        in
        v :: acc)
  in
  (b.b_serial, b.b_name, List.rev values)

let segment_image c seg =
  Iw_client.blocks seg
  |> List.map (block_image c)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* A scenario drives the writer through its critical sections, calling
   [check] after each release. *)
type scenario = {
  name : string;
  run : Iw_client.t -> string -> check:(unit -> unit) -> unit;
}

let section seg ~check body =
  Iw_client.wl_acquire seg;
  body ();
  Iw_client.wl_release seg;
  check ()

let int_array_ratios =
  let words = 4096 in
  let run w segname ~check =
    let rng = Random.State.make [| 0x1f5 |] in
    let seg = Iw_client.open_segment w segname in
    let desc = Iw_types.Array (Prim Int, words) in
    let base = ref 0 in
    section seg ~check (fun () ->
        base := Iw_client.malloc ~name:"data" seg desc;
        for i = 0 to words - 1 do
          Iw_client.write_int w (!base + (4 * i)) i
        done);
    List.iter
      (fun ratio ->
        section seg ~check (fun () ->
            let i = ref (Random.State.int rng ratio) in
            while !i < words do
              Iw_client.write_int w (!base + (4 * !i)) (Random.State.bits rng);
              i := !i + ratio
            done))
      [ 1; 2; 4; 16; 4 ]
  in
  { name = "int-ratios"; run }

let padded_structs =
  let n = 96 in
  let elem =
    Iw_types.Struct
      [|
        { fname = "c"; ftype = Prim Char };
        { fname = "d"; ftype = Prim Double };
        { fname = "s"; ftype = Prim Short };
        { fname = "i"; ftype = Prim Int };
        { fname = "f"; ftype = Prim Float };
        { fname = "l"; ftype = Prim Long };
      |]
  in
  let desc = Iw_types.Array (elem, n) in
  let run w segname ~check =
    let rng = Random.State.make [| 0x57c |] in
    let seg = Iw_client.open_segment w segname in
    let base = ref 0 in
    let field i f = Interweave.deref w desc !base [ I i; F f ] in
    section seg ~check (fun () -> base := Iw_client.malloc ~name:"rows" seg desc);
    for _ = 1 to 4 do
      section seg ~check (fun () ->
          for _ = 1 to 40 do
            let i = Random.State.int rng n in
            match Random.State.int rng 6 with
            | 0 -> Iw_client.write_char w (field i "c") (Char.chr (Random.State.int rng 256))
            | 1 -> Iw_client.write_double w (field i "d") (Random.State.float rng 1e6)
            | 2 -> Iw_client.write_short w (field i "s") (Random.State.int rng 30000)
            | 3 -> Iw_client.write_int w (field i "i") (Random.State.bits rng)
            | 4 -> Iw_client.write_float w (field i "f") (Random.State.float rng 1e3)
            | _ -> Iw_client.write_long w (field i "l") (Random.State.bits rng)
          done)
    done
  in
  { name = "padded-structs"; run }

(* Strings: one section rewrites two far-apart characters of a 64-byte
   string, so two byte runs map to the same [String _] unit. *)
let strings =
  let n = 8 and cap = 64 in
  let elem =
    Iw_types.Struct
      [| { fname = "name"; ftype = Prim (String cap) }; { fname = "n"; ftype = Prim Int } |]
  in
  let desc = Iw_types.Array (elem, n) in
  let run w segname ~check =
    let rng = Random.State.make [| 0x5e1 |] in
    let seg = Iw_client.open_segment w segname in
    let base = ref 0 in
    let name i = Interweave.deref w desc !base [ I i; F "name" ] in
    let count i = Interweave.deref w desc !base [ I i; F "n" ] in
    let long = String.make 60 'x' in
    section seg ~check (fun () ->
        base := Iw_client.malloc ~name:"names" seg desc;
        for i = 0 to n - 1 do
          Iw_client.write_string w ~capacity:cap (name i) long
        done);
    section seg ~check (fun () ->
        let s = Bytes.of_string long in
        Bytes.set s 2 'a';
        Bytes.set s 41 'b';
        Iw_client.write_string w ~capacity:cap (name 3) (Bytes.to_string s));
    for _ = 1 to 3 do
      section seg ~check (fun () ->
          for _ = 1 to 5 do
            let i = Random.State.int rng n in
            let len = Random.State.int rng (cap - 1) in
            Iw_client.write_string w ~capacity:cap (name i)
              (String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26)));
            Iw_client.write_int w (count i) (Random.State.bits rng)
          done)
    done
  in
  { name = "strings"; run }

(* Linked blocks created, modified and freed; one block is created and freed
   in the same section and never reaches the wire. *)
let create_free =
  let node =
    Iw_types.Struct
      [|
        { fname = "a"; ftype = Prim Int };
        { fname = "b"; ftype = Prim Double };
        { fname = "next"; ftype = Prim Pointer };
      |]
  in
  let run w segname ~check =
    let seg = Iw_client.open_segment w segname in
    let field a f = Interweave.deref w node a [ F f ] in
    let blocks = Array.make 8 0 in
    section seg ~check (fun () ->
        for i = 0 to 5 do
          blocks.(i) <- Iw_client.malloc seg node
        done;
        for i = 0 to 4 do
          Iw_client.write_int w (field blocks.(i) "a") i;
          Iw_client.write_ptr w (field blocks.(i) "next") blocks.(i + 1)
        done);
    section seg ~check (fun () ->
        Iw_client.free w blocks.(2);
        blocks.(6) <- Iw_client.malloc seg node;
        blocks.(7) <- Iw_client.malloc seg node;
        Iw_client.write_ptr w (field blocks.(1) "next") blocks.(6);
        Iw_client.write_ptr w (field blocks.(6) "next") blocks.(3);
        Iw_client.write_double w (field blocks.(3) "b") 2.5;
        Iw_client.write_int w (field blocks.(1) "a") 11;
        Iw_client.write_int w (field blocks.(7) "a") 7;
        let tmp = Iw_client.malloc seg node in
        Iw_client.write_int w (field tmp "a") 99;
        Iw_client.free w tmp);
    section seg ~check (fun () ->
        Iw_client.free w blocks.(4);
        Iw_client.write_int w (field blocks.(3) "a") 33;
        Iw_client.write_ptr w (field blocks.(3) "next") blocks.(5);
        Iw_client.write_int w (field blocks.(5) "a") 55)
  in
  { name = "create-free"; run }

(* Runs that cross block boundaries: adjacent 16-byte blocks, and 12-byte
   blocks whose padding word splices into the run. *)
let block_boundary =
  let run w segname ~check =
    let seg = Iw_client.open_segment w segname in
    let quads = Array.make 4 0 and triples = Array.make 4 0 in
    let quad = Iw_types.Array (Prim Int, 4) and triple = Iw_types.Array (Prim Int, 3) in
    section seg ~check (fun () ->
        for i = 0 to 3 do
          quads.(i) <- Iw_client.malloc seg quad
        done;
        for i = 0 to 3 do
          triples.(i) <- Iw_client.malloc seg triple
        done);
    section seg ~check (fun () ->
        for i = 0 to 2 do
          Iw_client.write_int w (quads.(i) + 12) (100 + i);
          Iw_client.write_int w quads.(i + 1) (200 + i);
          Iw_client.write_int w (triples.(i) + 8) (300 + i);
          Iw_client.write_int w triples.(i + 1) (400 + i)
        done);
    section seg ~check (fun () ->
        for i = 0 to 3 do
          for k = 0 to 3 do
            Iw_client.write_int w (quads.(i) + (4 * k)) ((10 * i) + k)
          done
        done)
  in
  { name = "block-boundary"; run }

(* The paper's datamining lattice: small pointer-rich blocks. *)
let mining =
  let run w segname ~check =
    let module L = Iw_seqmine.Lattice in
    let params = Iw_seqmine.Gen.scaled 0.002 in
    let db = Iw_seqmine.Gen.generate params in
    let lw = L.create w ~segment:segname ~min_support:3 in
    check ();
    let customers = params.Iw_seqmine.Gen.customers in
    let step = max 1 (customers / 5) in
    let rec go from =
      if from < customers then begin
        let upto = min customers (from + step) in
        L.update lw db ~from_customer:from ~to_customer:upto;
        check ();
        go upto
      end
    in
    go 0
  in
  { name = "mining"; run }

let scenarios =
  [ int_array_ratios; padded_structs; strings; create_free; block_boundary; mining ]

(* Run [sc] with a [writer]-architecture writer; after every release a
   [reader]-architecture reader acquires and must see the writer's memory.
   Returns the digest of every diff the writer sent, in order. *)
let run_scenario sc ~writer ~reader =
  let server = Iw_server.create () in
  let sent = ref [] in
  let w = tapped_client ~arch:writer server sent in
  let r = Iw_client.connect ~arch:reader (Iw_server.direct_link server) in
  let segname = "golden/" ^ sc.name in
  let rseg = ref None in
  let check () =
    let rs =
      match !rseg with
      | Some s -> s
      | None ->
        let s = Iw_client.open_segment ~create:false r segname in
        rseg := Some s;
        s
    in
    let ws =
      match Iw_client.find_segment w segname with
      | Some s -> s
      | None -> Alcotest.failf "%s: writer lost its segment" sc.name
    in
    Iw_client.rl_acquire rs;
    let same = segment_image w ws = segment_image r rs in
    Iw_client.rl_release rs;
    if not same then
      Alcotest.failf "%s: %s reader differs from %s writer at version %d" sc.name
        reader.Iw_arch.name writer.Iw_arch.name (Iw_client.segment_version ws)
  in
  sc.run w segname ~check;
  Digest.to_hex (Digest.string (String.concat "" (List.rev !sent)))

(* Digests of the diffs each scenario sends: a change here is a change to
   the bytes on the wire. *)
let golden =
  [
    ("int-ratios", "x86_32", "8aa3d7cbc2ccab52ca9055ff66d23233");
    ("int-ratios", "alpha64", "8aa3d7cbc2ccab52ca9055ff66d23233");
    ("padded-structs", "x86_32", "337c63e9876183fabb55d1ea944dcb8e");
    ("padded-structs", "alpha64", "5695b74a73ee6cf21344c60e7435d056");
    ("strings", "x86_32", "2225ce7fbcde5bdf9f7fefc32bc69e19");
    ("strings", "alpha64", "2225ce7fbcde5bdf9f7fefc32bc69e19");
    ("create-free", "x86_32", "5166c6c8241650095bb66d3c57e18b0b");
    ("create-free", "alpha64", "1ae30741c64b1ec9d24a536d36d383c8");
    ("block-boundary", "x86_32", "91bb575639eb116949e1ec7536579c65");
    ("block-boundary", "alpha64", "91bb575639eb116949e1ec7536579c65");
    ("mining", "x86_32", "9e2c4a538715426bb7af96659dfe1676");
    ("mining", "alpha64", "6b9351d0ca71abb80bc69e6b53364b44");
  ]

let pairs = [ (Iw_arch.x86_32, Iw_arch.alpha64); (Iw_arch.alpha64, Iw_arch.x86_32) ]

let test_golden sc () =
  List.iter
    (fun (writer, reader) ->
      let got = run_scenario sc ~writer ~reader in
      let expected =
        match
          List.find_opt (fun (n, a, _) -> n = sc.name && a = writer.Iw_arch.name) golden
        with
        | Some (_, _, d) -> d
        | None -> Alcotest.failf "no golden digest for %s/%s" sc.name writer.Iw_arch.name
      in
      Alcotest.(check string)
        (Printf.sprintf "%s written on %s" sc.name writer.Iw_arch.name)
        expected got)
    pairs

(* One Fig. 5 ratio: the diff the writer sent and the one the reader
   received, the pages the writer twinned, and the minor words spent
   outside the server by the writer's release (word diff, translate and the
   diff's wire encoding) and by the reader's acquire (decode and apply of
   the reply's diff after a wire round trip). *)
type fig5_point = {
  ratio : int;
  sent : D.t;
  received : D.t;
  twin_pages : int;
  release_words : float;
  acquire_words : float;
}

(* Fig. 5 at 256 KB: an x86_32 writer rewrites every [ratio]-th int of a
   65,536-int array and an alpha64 reader acquires after each release. *)
let fig5_array ?diff_cache_capacity ratios =
  let words = 65536 in
  let server = Iw_server.create ?diff_cache_capacity () in
  let excluded = ref 0. and sent = ref None and received = ref None in
  let server_call ?ctx req =
    let w0 = Gc.minor_words () in
    let resp = (Iw_server.direct_link server).call ?ctx req in
    excluded := !excluded +. (Gc.minor_words () -. w0);
    resp
  in
  let buf = Iw_wire.Buf.create ~capacity:(1 lsl 20) () in
  let writer_call ?ctx (req : Iw_proto.request) =
    (match req with
    | Write_release { diff; _ } ->
      sent := Some diff;
      Iw_wire.Buf.clear buf;
      D.encode buf diff
    | _ -> ());
    server_call ?ctx req
  in
  let roundtrip diff =
    let w0 = Gc.minor_words () in
    let wire = encode diff in
    excluded := !excluded +. (Gc.minor_words () -. w0);
    let diff = D.decode (Iw_wire.Reader.of_string wire) in
    received := Some diff;
    diff
  in
  let reader_call ?ctx req =
    match server_call ?ctx req with
    | Iw_proto.R_update diff -> Iw_proto.R_update (roundtrip diff)
    | R_granted (Some diff) -> R_granted (Some (roundtrip diff))
    | resp -> resp
  in
  let link call = { (Iw_server.direct_link server) with Iw_proto.call } in
  let w = Iw_client.connect ~arch:Iw_arch.x86_32 (link writer_call) in
  let r = Iw_client.connect ~arch:Iw_arch.alpha64 (link reader_call) in
  (* Large diffs must not switch the writer to whole-block mode. *)
  (Iw_client.options w).auto_no_diff <- false;
  let seg = Iw_client.open_segment w "fig5/array" in
  Iw_client.wl_acquire seg;
  let base = Iw_client.malloc ~name:"data" seg (Iw_types.Array (Prim Int, words)) in
  for i = 0 to words - 1 do
    Iw_client.write_int w (base + (4 * i)) i
  done;
  Iw_client.wl_release seg;
  let rseg = Iw_client.open_segment ~create:false r "fig5/array" in
  Iw_client.rl_acquire rseg;
  Iw_client.rl_release rseg;
  List.mapi
    (fun k ratio ->
      let twins0 = (Iw_client.stats w).twin_pages in
      Iw_client.wl_acquire seg;
      let i = ref 0 in
      while !i < words do
        Iw_client.write_int w (base + (4 * !i)) (!i + (1_000_000 * (k + 1)));
        i := !i + ratio
      done;
      excluded := 0.;
      let w0 = Gc.minor_words () in
      Iw_client.wl_release seg;
      let release_words = Gc.minor_words () -. w0 -. !excluded in
      let twin_pages = (Iw_client.stats w).twin_pages - twins0 in
      excluded := 0.;
      let r0 = Gc.minor_words () in
      Iw_client.rl_acquire rseg;
      let acquire_words = Gc.minor_words () -. r0 -. !excluded in
      Iw_client.rl_release rseg;
      {
        ratio;
        sent = Option.get !sent;
        received = Option.get !received;
        twin_pages;
        release_words;
        acquire_words;
      })
    ratios

let runs_of (diff : D.t) =
  List.concat_map (function D.Update { runs; _ } -> runs | Create _ | Free _ -> []) diff.changes

(* The paper's Fig. 5 signature 2: run splicing holds at ratio 2 and breaks
   at ratio 4.  A faster diff path must not get its speed by splicing
   differently. *)
let test_fig5_signature2 () =
  match fig5_array [ 2; 4 ] with
  | [ { sent = at2; _ }; { sent = at4; _ } ] ->
    Alcotest.(check int) "ratio 2: one run" 1 (List.length (runs_of at2));
    let runs = runs_of at4 in
    Alcotest.(check int) "ratio 4: 16,384 runs" 16384 (List.length runs);
    Alcotest.(check bool) "ratio 4: single-unit runs" true
      (List.for_all (fun (run : D.run) -> run.len_pu = 1) runs);
    Alcotest.(check int) "ratio 4: 64 KB of payload" 65536 (D.payload_bytes at4)
  | _ -> assert false

(* Fig. 5 signatures 1, 3 and 4 as counts, with the diff cache off so the
   reader's update is the server's own collection.  Per ratio: pages the
   writer twinned, the writer's diff payload, and the reader's update
   payload, in bytes: a change here is a change to what the diff path
   twins or sends. *)
let fig5_counts =
  [
    (1, 64, 262144, 262144);
    (2, 64, 262144, 262144);
    (4, 64, 65536, 262144);
    (8, 64, 32768, 262144);
    (16, 64, 16384, 262144);
    (32, 64, 8192, 131072);
    (64, 64, 4096, 65536);
    (128, 64, 2048, 32768);
    (256, 64, 1024, 16384);
    (512, 64, 512, 8192);
    (1024, 64, 256, 4096);
    (2048, 32, 128, 2048);
    (4096, 16, 64, 1024);
    (8192, 8, 32, 512);
    (16384, 4, 16, 256);
  ]

let test_fig5_signatures () =
  let points =
    fig5_array ~diff_cache_capacity:0 (List.map (fun (r, _, _, _) -> r) fig5_counts)
  in
  let got =
    List.map
      (fun p -> (p.ratio, p.twin_pages, D.payload_bytes p.sent, D.payload_bytes p.received))
      points
  in
  let nest (r, t, w, rd) = (r, (t, w, rd)) in
  Alcotest.(check (list (pair int (triple int int int))))
    "ratio -> twin pages, writer payload, reader payload"
    (List.map nest fig5_counts) (List.map nest got);
  let at ratio = List.find (fun (r, _, _, _) -> r = ratio) got in
  List.iter
    (fun (r, t, w, rd) ->
      (* Signature 1: every page is twinned until the stride passes a page
         (1024 ints), then each doubling halves the pages. *)
      Alcotest.(check int) (Printf.sprintf "ratio %d: twinned pages" r)
        (if r <= 1024 then 64 else 64 * 1024 / r)
        t;
      (* Signature 3: the server tracks 16-unit subblocks, so the reader's
         update is the whole array up to ratio 16. *)
      if r <= 16 then
        Alcotest.(check int) (Printf.sprintf "ratio %d: reader payload flat" r) 262144 rd;
      (* Signature 4: from ratio 16 on, each doubling halves both payloads. *)
      if r > 16 then begin
        let _, _, w', rd' = at (r / 2) in
        Alcotest.(check (pair int int))
          (Printf.sprintf "ratio %d: payloads halve" r)
          (w' / 2, rd' / 2) (w, rd)
      end)
    got

(* Minor words per run of the ratio-4 diff: the measured value plus 25%.
   Collect and encode measure 18.06 words per run: the byte-run list (9) and
   the run record, its payload and list cell (9).  Decode and apply measure
   9.01: the decoded run (9).  Paying the per-run constant once per block
   took these down from 167 and 53. *)
let release_budget = 22.5

let acquire_budget = 11.25

let test_alloc_budget () =
  match fig5_array [ 4 ] with
  | [ { sent; release_words; acquire_words; _ } ] ->
    let runs = float_of_int (List.length (runs_of sent)) in
    let per what words budget =
      let w = words /. runs in
      if w > budget then
        Alcotest.failf "%s: %.2f minor words per run, budget %.2f" what w budget
    in
    per "collect + encode" release_words release_budget;
    per "decode + apply" acquire_words acquire_budget
  | _ -> assert false

(* Fig. 4's one timed invariant: for fixed-size primitives the server's
   copy is byte-blittable, so applying a 1 MB whole-block update on the
   server costs a fraction of the client's collect.  Medians of 5 rounds;
   measured at more than 10x, asserted at 4x. *)
let fig4_server_vs_client prim elem_bytes write =
  let server = Iw_server.create ~diff_cache_capacity:0 () in
  let c = Interweave.direct_client ~arch:Iw_arch.x86_32 server in
  (Iw_client.options c).auto_no_diff <- false;
  let seg = Iw_client.open_segment c "fig4/array" in
  let n = (1 lsl 20) / elem_bytes in
  Iw_client.wl_acquire seg;
  let base = Iw_client.malloc ~name:"data" seg (Iw_types.Array (Prim prim, n)) in
  Iw_client.wl_release seg;
  Iw_client.set_no_diff seg true;
  let st = Iw_client.stats c in
  let rounds =
    List.init 5 (fun round ->
        Iw_client.wl_acquire seg;
        for i = 0 to n - 1 do
          write c (base + (elem_bytes * i)) (i + round)
        done;
        let c0 = st.word_diff_seconds +. st.translate_seconds in
        let t0 = Unix.gettimeofday () in
        Iw_client.wl_release seg;
        let wall = Unix.gettimeofday () -. t0 in
        let collect = st.word_diff_seconds +. st.translate_seconds -. c0 in
        (collect, wall -. collect))
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  (median (List.map fst rounds), median (List.map snd rounds))

let test_fig4_server_apply () =
  List.iter
    (fun (name, prim, elem_bytes, write) ->
      let collect, server_apply = fig4_server_vs_client prim elem_bytes write in
      if server_apply *. 4. > collect then
        Alcotest.failf "%s: server apply %.3f ms is not 4x under client collect %.3f ms"
          name (server_apply *. 1e3) (collect *. 1e3))
    [
      ("int_array", Iw_arch.Int, 4, Iw_client.write_int);
      ( "double_array",
        Iw_arch.Double,
        8,
        fun c a i -> Iw_client.write_double c a (float_of_int i) );
    ]

let suite =
  ( "diff path",
    List.map
      (fun sc -> Alcotest.test_case ("golden digest: " ^ sc.name) `Quick (test_golden sc))
      scenarios
    @ [
        Alcotest.test_case "fig5 signature 2 as run counts" `Quick test_fig5_signature2;
        Alcotest.test_case "fig5 signatures 1, 3 and 4 as counts" `Quick
          test_fig5_signatures;
        Alcotest.test_case "allocation per run" `Quick test_alloc_budget;
        Alcotest.test_case "fig4 server apply 4x under client collect" `Quick
          test_fig4_server_apply;
      ] )

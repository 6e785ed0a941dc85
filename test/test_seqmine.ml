(* The datamining substrate: deterministic generation, correct shared
   lattice mining, and the paper's Fig. 7 bandwidth ordering. *)

module Prng = Iw_seqmine.Prng
module Gen = Iw_seqmine.Gen
module Lattice = Iw_seqmine.Lattice

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Prng.int a 1_000_000) (Prng.int b 1_000_000)
  done;
  let c = Prng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1_000_000 <> Prng.int c 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_bounds () =
  let r = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v;
    let f = Prng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of bounds: %f" f
  done

let small_params = { (Gen.scaled 0.005) with Gen.avg_items_per_customer = 20 }

let test_generator_shape () =
  let db = Gen.generate small_params in
  Alcotest.(check int) "customer count" small_params.Gen.customers
    (Array.length db.Gen.sequences);
  Array.iter
    (fun seq ->
      Alcotest.(check bool) "non-empty" true (Array.length seq > 0);
      Array.iter
        (fun item ->
          if item < 1 || item > small_params.Gen.items then
            Alcotest.failf "item %d out of range" item)
        seq)
    db.Gen.sequences;
  Alcotest.(check bool) "sized roughly as requested" true
    (Gen.size_bytes db > small_params.Gen.customers * 4 * 10)

let test_generator_deterministic () =
  let a = Gen.generate small_params and b = Gen.generate small_params in
  Alcotest.(check bool) "same seed same database" true (a.Gen.sequences = b.Gen.sequences)

let test_generator_skew () =
  (* Popular (low-numbered) items must dominate. *)
  let db = Gen.generate small_params in
  let low = ref 0 and high = ref 0 in
  Array.iter
    (Array.iter (fun item ->
         if item <= small_params.Gen.items / 4 then incr low else incr high))
    db.Gen.sequences;
  (* The bottom quarter of item ids must receive far more than its
     proportional (25%) share of draws. *)
  Alcotest.(check bool)
    (Printf.sprintf "low-id items over-represented (%d low vs %d high)" !low !high)
    true
    (float_of_int !low >= 0.4 *. float_of_int (!low + !high))

(* Brute-force n-gram counts for comparison with the shared lattice. *)
let brute_counts db ~upto_customer =
  let counts = Hashtbl.create 1024 in
  let bump g = Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)) in
  for c = 0 to upto_customer - 1 do
    let s = db.Gen.sequences.(c) in
    let n = Array.length s in
    for i = 0 to n - 1 do
      bump [ s.(i) ];
      if i + 1 < n then bump [ s.(i); s.(i + 1) ];
      if i + 2 < n then bump [ s.(i); s.(i + 1); s.(i + 2) ]
    done
  done;
  counts

let test_lattice_counts_match_brute_force () =
  let db = Gen.generate small_params in
  let server = Interweave.start_server () in
  let c = Interweave.direct_client server in
  let min_support = 30 in
  let lattice = Lattice.create c ~segment:"mine/t1" ~min_support in
  let upto = small_params.Gen.customers in
  Lattice.update lattice db ~from_customer:0 ~to_customer:upto;
  let brute = brute_counts db ~upto_customer:upto in
  (* Every sequence above threshold must be in the lattice with the exact
     count. *)
  let missing = ref 0 and wrong = ref 0 and checked = ref 0 in
  Hashtbl.iter
    (fun gram count ->
      if count >= min_support then begin
        incr checked;
        match Lattice.support_of lattice gram with
        | None -> incr missing
        | Some s -> if s <> count then incr wrong
      end)
    brute;
  Alcotest.(check bool) "some sequences checked" true (!checked > 10);
  Alcotest.(check int) "no frequent sequence missing" 0 !missing;
  Alcotest.(check int) "all supports exact" 0 !wrong

let test_incremental_equals_batch () =
  let db = Gen.generate small_params in
  let server = Interweave.start_server () in
  let c = Interweave.direct_client server in
  let batch = Lattice.create c ~segment:"mine/batch" ~min_support:25 in
  Lattice.update batch db ~from_customer:0 ~to_customer:small_params.Gen.customers;
  let inc = Lattice.create c ~segment:"mine/inc" ~min_support:25 in
  let step = small_params.Gen.customers / 7 in
  let pos = ref 0 in
  while !pos < small_params.Gen.customers do
    let upto = min small_params.Gen.customers (!pos + step) in
    Lattice.update inc db ~from_customer:!pos ~to_customer:upto;
    pos := upto
  done;
  let top_batch = Lattice.top batch 20 and top_inc = Lattice.top inc 20 in
  Alcotest.(check bool) "same top-20"
    true
    (List.map snd top_batch = List.map snd top_inc
    && List.sort compare (List.map fst top_batch) = List.sort compare (List.map fst top_inc))

let test_shared_across_clients () =
  let db = Gen.generate small_params in
  let server = Interweave.start_server () in
  let writer = Interweave.direct_client ~arch:Iw_arch.x86_32 server in
  let lattice = Lattice.create writer ~segment:"mine/shared" ~min_support:30 in
  Lattice.update lattice db ~from_customer:0 ~to_customer:small_params.Gen.customers;
  let reader = Interweave.direct_client ~arch:Iw_arch.sparc32 server in
  let miner = Lattice.attach reader ~segment:"mine/shared" in
  let seg = Lattice.segment miner in
  Iw_client.rl_acquire seg;
  Alcotest.(check int) "same node count" (Lattice.node_count lattice)
    (Lattice.node_count miner);
  let top_w = Lattice.top lattice 10 and top_r = Lattice.top miner 10 in
  Alcotest.(check bool) "same top sequences" true (top_w = top_r);
  Iw_client.rl_release seg

let test_node_desc_pointer_fraction () =
  (* The paper notes ~1/3 of the summary structure is pointers. *)
  let lay = Iw_types.layout (Iw_types.local Iw_arch.x86_32) Lattice.node_desc in
  let ptr_bytes = 4 * (1 + Lattice.max_children) in
  let fraction = float_of_int ptr_bytes /. float_of_int (Iw_types.size lay) in
  Alcotest.(check bool)
    (Printf.sprintf "pointer fraction %.2f in [0.25, 0.45]" fraction)
    true
    (fraction >= 0.25 && fraction <= 0.45)

(* Fig. 7 at the benchmark's default scale: a database client grows the
   lattice by 50 increments of 1% after building it from half the
   database, and after every increment each mining client reads.  Bytes
   received must fall strictly from a cacheless full fetch, through diffs
   at every version, to Delta-2, 3 and 4; diffs save at least 80%. *)
let test_fig7_bandwidth () =
  let params = Gen.scaled 0.05 in
  let db = Gen.generate params in
  let server = Interweave.start_server () in
  let writer = Interweave.direct_client ~arch:Iw_arch.x86_32 server in
  let lattice =
    Lattice.create writer ~segment:"mining/summary"
      ~min_support:(max 5 (params.Gen.customers / 250))
  in
  let half = params.Gen.customers / 2 in
  Lattice.update lattice db ~from_customer:0 ~to_customer:half;
  let attach c = Lattice.segment (Lattice.attach c ~segment:"mining/summary") in
  let readers =
    List.map
      (fun coherence ->
        let c = Interweave.direct_client ~arch:Iw_arch.alpha64 server in
        let seg = attach c in
        Interweave.set_coherence seg coherence;
        Iw_client.rl_acquire seg;
        Iw_client.rl_release seg;
        Iw_client.reset_stats c;
        (c, seg))
      Iw_proto.[ Full; Delta 2; Delta 3; Delta 4 ]
  in
  let full = ref 0 in
  let one_pct = params.Gen.customers / 100 in
  for inc = 0 to 49 do
    let from = half + (inc * one_pct) in
    Lattice.update lattice db ~from_customer:from ~to_customer:(from + one_pct);
    List.iter
      (fun (_, seg) ->
        Iw_client.rl_acquire seg;
        Iw_client.rl_release seg)
      readers;
    let fresh = Interweave.direct_client server in
    let seg = attach fresh in
    Iw_client.rl_acquire seg;
    Iw_client.rl_release seg;
    full := !full + (Iw_client.stats fresh).bytes_received
  done;
  let bytes = !full :: List.map (fun (c, _) -> (Iw_client.stats c).bytes_received) readers in
  let rec decreasing = function a :: (b :: _ as rest) -> a > b && decreasing rest | _ -> true in
  let shown = String.concat " > " (List.map string_of_int bytes) in
  Alcotest.(check bool) ("Full > Diff-only > Delta-2 > Delta-3 > Delta-4: " ^ shown) true
    (decreasing bytes);
  let diff_only = List.nth bytes 1 in
  Alcotest.(check bool)
    (Printf.sprintf "Diff-only %d <= 20%% of Full %d" diff_only !full)
    true
    (5 * diff_only <= !full)

let suite =
  ( "seqmine",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "generator shape" `Quick test_generator_shape;
      Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
      Alcotest.test_case "generator skew" `Quick test_generator_skew;
      Alcotest.test_case "lattice matches brute force" `Quick test_lattice_counts_match_brute_force;
      Alcotest.test_case "incremental equals batch" `Quick test_incremental_equals_batch;
      Alcotest.test_case "shared across clients" `Quick test_shared_across_clients;
      Alcotest.test_case "node pointer fraction" `Quick test_node_desc_pointer_fraction;
      Alcotest.test_case "fig7 bandwidth ordering" `Slow test_fig7_bandwidth;
    ] )

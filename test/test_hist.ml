(* Iw_hist: the HDR-style histogram behind the benchmark's latencies and
   the slow-path percentile reporting.  The load-bearing property is the error
   bound: every reported quantile must be within [Iw_hist.error t] (relative)
   of the exact quantile of the recorded multiset, at any magnitude. *)

module H = Iw_hist

(* Exact q-quantile of a sorted array, with the same rank rule the
   histogram uses: rank = clamp(ceil(q * count), 1, count). *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  sorted.(rank - 1)

let check_bounded_error ~what values t =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let err = H.error t in
  List.iter
    (fun q ->
      let exact = exact_quantile sorted q in
      let approx = H.quantile t q in
      let rel =
        if exact = 0. then Float.abs approx else Float.abs (approx -. exact) /. exact
      in
      if rel > err +. 1e-12 then
        Alcotest.failf "%s: q=%.3f exact=%g approx=%g rel=%g > bound %g" what q
          exact approx rel err)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ]

(* Uniform, exponential-ish, and power-law-ish samples spanning eight
   orders of magnitude: the bound must hold everywhere, not just where the
   buckets happen to be dense. *)
let test_error_bound () =
  Random.init 7;
  let shapes =
    [
      ("uniform", fun () -> 1. +. Random.float 1e6);
      ("exp", fun () -> -.50_000. *. log (1. -. Random.float 0.999999));
      ("powerlaw", fun () -> 2. ** (Random.float 30.));
    ]
  in
  List.iter
    (fun (what, gen) ->
      let t = H.create () in
      let values = Array.init 20_000 (fun _ -> gen ()) in
      Array.iter (H.record t) values;
      Alcotest.(check int) (what ^ " count") 20_000 (H.count t);
      check_bounded_error ~what values t)
    shapes

let test_error_bound_coarse () =
  (* A coarser histogram advertises a looser bound and must still honour it. *)
  Random.init 8;
  let t = H.create ~error:0.1 () in
  Alcotest.(check bool) "bound <= requested" true (H.error t <= 0.1);
  let values = Array.init 5_000 (fun _ -> 1. +. Random.float 1e7) in
  Array.iter (H.record t) values;
  check_bounded_error ~what:"coarse" values t

let test_exact_stats () =
  let t = H.create () in
  List.iter (H.record t) [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ];
  Alcotest.(check int) "count" 8 (H.count t);
  Alcotest.(check (float 1e-9)) "sum" 31. (H.sum t);
  Alcotest.(check (float 1e-9)) "mean" 3.875 (H.mean t);
  Alcotest.(check (float 1e-9)) "min exact" 1. (H.min_value t);
  Alcotest.(check (float 1e-9)) "max exact" 9. (H.max_value t);
  Alcotest.(check (float 1e-9)) "q=1 is exact max" 9. (H.quantile t 1.)

let test_empty () =
  let t = H.create () in
  Alcotest.(check int) "count" 0 (H.count t);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (H.quantile t 0.5));
  Alcotest.(check bool) "mean nan" true (Float.is_nan (H.mean t));
  let s = H.summary t in
  Alcotest.(check bool) "summary nan" true (Float.is_nan s.H.sm_p999)

(* Merging must be exact (bucket counts add) and associative: merging
   per-worker histograms in any grouping yields identical quantiles. *)
let test_merge_associative () =
  Random.init 9;
  let mk lo hi n =
    let t = H.create () in
    let vs = Array.init n (fun _ -> lo +. Random.float (hi -. lo)) in
    Array.iter (H.record t) vs;
    (t, vs)
  in
  let a, va = mk 1. 1e3 4_000
  and b, vb = mk 1e3 1e6 3_000
  and c, vc = mk 1e6 1e9 2_000 in
  (* (a+b)+c *)
  let left = H.copy a in
  H.merge ~into:left b;
  H.merge ~into:left c;
  (* a+(b+c) *)
  let bc = H.copy b in
  H.merge ~into:bc c;
  let right = H.copy a in
  H.merge ~into:right bc;
  Alcotest.(check int) "counts" (H.count left) (H.count right);
  Alcotest.(check (float 1e-9)) "sums" (H.sum left) (H.sum right);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.3f identical" q)
        (H.quantile left q) (H.quantile right q))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ];
  (* And the merged result still honours the error bound. *)
  let all = Array.concat [ va; vb; vc ] in
  check_bounded_error ~what:"merged" all left;
  (* Mismatched resolutions must be rejected, not silently mangled. *)
  let coarse = H.create ~error:0.1 () in
  Alcotest.check_raises "resolution mismatch"
    (Invalid_argument "Iw_hist.merge: histograms have different error bounds")
    (fun () -> H.merge ~into:coarse a)

let test_overflow_and_clamp () =
  let t = H.create () in
  (* Beyond ~2^40 values clamp into the top bucket; count/max stay exact
     and quantiles saturate at the exact max rather than inventing values. *)
  H.record t 5.;
  H.record t (Float.ldexp 1. 50);
  H.record t (Float.ldexp 1. 55);
  Alcotest.(check int) "count" 3 (H.count t);
  Alcotest.(check (float 1e-9)) "max exact" (Float.ldexp 1. 55) (H.max_value t);
  Alcotest.(check (float 1e-9)) "p100 clamped to max" (Float.ldexp 1. 55)
    (H.quantile t 1.);
  Alcotest.(check bool) "p99 <= max" true (H.quantile t 0.99 <= H.max_value t);
  (* Negative, zero, and sub-unit values land in the first bucket. *)
  let u = H.create () in
  List.iter (H.record u) [ -3.; 0.; 0.25; Float.nan ];
  Alcotest.(check int) "underflow counted" 4 (H.count u);
  Alcotest.(check bool) "p50 in first bucket" true (H.quantile u 0.5 <= 1.)

let test_record_n_and_clear () =
  let t = H.create () in
  H.record_n t 100. 5_000;
  Alcotest.(check int) "count" 5_000 (H.count t);
  let q = H.quantile t 0.5 in
  Alcotest.(check bool) "p50 within bound of 100" true
    (Float.abs (q -. 100.) /. 100. <= H.error t);
  H.clear t;
  Alcotest.(check int) "cleared" 0 (H.count t);
  Alcotest.(check bool) "cleared quantile nan" true (Float.is_nan (H.quantile t 0.5))

let test_summary () =
  Random.init 10;
  let t = H.create () in
  for _ = 1 to 10_000 do
    H.record t (1. +. Random.float 1e4)
  done;
  let s = H.summary t in
  Alcotest.(check int) "count" 10_000 s.H.sm_count;
  Alcotest.(check bool) "ladder is monotone" true
    (s.H.sm_p50 <= s.H.sm_p90 && s.H.sm_p90 <= s.H.sm_p99
    && s.H.sm_p99 <= s.H.sm_p999 && s.H.sm_p999 <= s.H.sm_max)

let suite =
  ( "hist",
    [
      Alcotest.test_case "bounded relative error" `Quick test_error_bound;
      Alcotest.test_case "bounded error, coarse resolution" `Quick test_error_bound_coarse;
      Alcotest.test_case "exact count/sum/mean/min/max" `Quick test_exact_stats;
      Alcotest.test_case "empty histogram" `Quick test_empty;
      Alcotest.test_case "merge: exact and associative" `Quick test_merge_associative;
      Alcotest.test_case "overflow clamp and underflow bucket" `Quick
        test_overflow_and_clamp;
      Alcotest.test_case "record_n and clear" `Quick test_record_n_and_clear;
      Alcotest.test_case "summary ladder" `Quick test_summary;
    ] )

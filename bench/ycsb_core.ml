(* Workload helpers shared by the benchmark and the tests: zipfian key
   popularity and the process's peak resident set. *)

(* Zipfian popularity over segment ranks: weight of rank i is 1/i^theta.
   Sampling is a binary search over the precomputed cumulative weights. *)
let zipf_cumulative n theta =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cum.(i) <- !acc
  done;
  cum

let zipf_pick cum rng =
  let total = cum.(Array.length cum - 1) in
  let u = Random.State.float rng total in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) <= u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Peak resident set (VmHWM) of this process, in kB — on an embedded run
   that includes the server, which is the point: the overload test asserts
   a saturated server's memory stays bounded by the admission gate instead
   of growing with the offered load.  0 where /proc is absent. *)
let rss_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let v = try scan () with Scanf.Scan_failure _ | Failure _ -> 0 in
    close_in_noerr ic;
    v

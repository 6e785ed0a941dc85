(* Benchmark harness entry point.

   Default (no arguments): regenerate every table and figure of the paper's
   evaluation (Figures 4-7) plus the Section 3.3 optimization ablations.
   Subcommands run one experiment, optionally at reduced size. *)

let quick_size quick = if quick then 1 lsl 18 else 1 lsl 20

let eff_size quick = function Some s -> s | None -> quick_size quick

let run_fig4 ~quick:_ ~size () = ignore (Fig4.run ~size () : Fig4.row list)

let run_fig5 ~quick:_ ~size () = ignore (Fig5.run ~size () : Fig5.point list)

let run_fig6 ~quick:_ ~size:_ () = ignore (Fig6.run () : Fig6.point list)

let run_fig7 ~quick ~size:_ () =
  let scale = if quick then 0.01 else 0.05 in
  let increments = if quick then 20 else 50 in
  ignore (Fig7.run ~scale ~increments () : Fig7.bar list)

let run_ablation ~quick:_ ~size:_ () = Ablation.run ()

let run_all ~quick ~size () =
  print_endline "InterWeave benchmark suite (paper: Tang et al., ICDCS 2003)";
  run_fig4 ~quick ~size ();
  run_fig5 ~quick ~size ();
  run_fig6 ~quick ~size ();
  run_fig7 ~quick ~size ();
  Ablation.run ()

(* --check-prom rides along with the @check smoke run: drive a tiny
   two-client loopback workload through the per-segment coherence
   instrumentation and assert the gauges land in the server's Prometheus
   rendering — a guard against the observability surface silently
   regressing. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let coherence_gauges =
  [
    "iw_seg_version_lag";
    "iw_seg_staleness_us";
    "iw_seg_wasted_acquire_total";
    (* Request-lifecycle and contention series (Iw_phase / Iw_locked): the
       phase histograms land on every handled request, the lock-section
       histograms on every dispatch, and the two gauges are collect-time
       probes — all must survive in the Prometheus rendering. *)
    "iw_server_phase_us";
    "iw_server_request_total_us";
    "iw_server_lock_wait_us";
    "iw_server_lock_hold_us";
    "iw_server_lock_queue_depth";
    "iw_server_inflight";
  ]

let check_prom_gauges ?store () =
  let module I = Interweave in
  (* Leased so that, under an IW_FAULT plan (the @check fault smoke), a
     connection dropped mid-critical-section resumes with its lock intact
     instead of surfacing Lock_lost.  With --store, the server is durable:
     the directory it leaves behind — a checkpoint plus the write-ahead-log
     records of every later commit — is validation material for
     `iw-check --store`. *)
  let server = I.start_server ~lease_secs:30.0 ?checkpoint_dir:store () in
  let writer = I.loopback_client server in
  let reader = I.loopback_client server in
  let hw = I.open_segment writer "bench/prom-smoke" in
  I.wl_acquire hw;
  let a = I.malloc hw (I.Desc.array I.Desc.int 8) in
  I.Client.write_int writer a 1;
  I.wl_release hw;
  (* Checkpoint between the first commit and the rest, so the store ends
     with both a checkpoint and log records that must continue it. *)
  if store <> None then I.Server.checkpoint server;
  let hr = I.open_segment ~create:false reader "bench/prom-smoke" in
  (* First acquire pulls the copy; writes behind the reader's back create
     version lag and realized staleness on the refresh; a re-acquire with
     nothing new counts as a wasted acquire. *)
  I.rl_acquire hr;
  I.rl_release hr;
  for i = 2 to 4 do
    I.wl_acquire hw;
    I.Client.write_int writer a i;
    I.wl_release hw
  done;
  I.set_coherence hr (I.Proto.Temporal 0.);
  I.rl_acquire hr;
  I.rl_release hr;
  I.rl_acquire hr;
  I.rl_release hr;
  let prom = I.Metrics.render_prometheus (I.Metrics.snapshot (I.Server.metrics server)) in
  match List.filter (fun g -> not (contains prom g)) coherence_gauges with
  | [] ->
    Printf.printf "prom check: %s present\n%!" (String.concat ", " coherence_gauges)
  | missing ->
    Printf.eprintf "error: coherence gauges missing from --prom output: %s\n"
      (String.concat ", " missing);
    exit 1

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sizes for a fast smoke run.")

let size =
  Arg.(
    value
    & opt (some int) None
    & info [ "size" ] ~docv:"BYTES"
        ~doc:
          "Array size in bytes for figures 4 and 5 (default $(b,1048576), or $(b,262144) \
           with $(b,--quick)).")

let check_prom =
  Arg.(
    value
    & flag
    & info [ "check-prom" ]
        ~doc:
          "After the run, drive a small coherence workload and fail unless the \
           per-segment gauges appear in the server's Prometheus metric rendering.")

let store =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Make the $(b,--check-prom) smoke server durable: write-ahead log \
           and checkpoint its segment under $(docv), leaving a store that \
           $(b,iw-check --store) can validate offline.")

let term f =
  Term.(
    const (fun quick size prom_check store ->
        f ~quick ~size:(eff_size quick size) ();
        if prom_check || store <> None then check_prom_gauges ?store ();
        0)
    $ quick $ size $ check_prom $ store)

let cmd_of name doc f = Cmd.v (Cmd.info name ~doc) (term f)

let cmd =
  Cmd.group ~default:(term run_all)
    (Cmd.info "iw-bench" ~doc:"Regenerate the paper's tables and figures")
    [
      cmd_of "fig4" "Basic translation costs (Figure 4)" run_fig4;
      cmd_of "fig5" "Modification granularity sweep (Figure 5)" run_fig5;
      cmd_of "fig6" "Pointer swizzling costs (Figure 6)" run_fig6;
      cmd_of "fig7" "Datamining bandwidth (Figure 7)" run_fig7;
      cmd_of "ablation" "Optimization ablations (Section 3.3)" run_ablation;
    ]

let () = exit (Cmd.eval' cmd)

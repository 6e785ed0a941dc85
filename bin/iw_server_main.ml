(* Standalone InterWeave server: serves segments over TCP and optionally
   checkpoints them to disk on a timer, as the paper's server periodically
   does (Sec. 2.2). *)

let setup_logging verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info))

let run port checkpoint_dir checkpoint_secs fsync trace lease_secs fault_plan
    domains verbose =
  setup_logging verbose;
  Option.iter (fun path -> Iw_trace.start ~mode:(Iw_trace.env_mode ()) ~path ()) trace;
  (* --fault-plan beats IW_FAULT; either way a bad plan is a startup error,
     not something to discover mid-traffic. *)
  let fault =
    match fault_plan with
    | Some s -> (
      match Iw_fault.parse s with
      | Ok p -> Some p
      | Error msg ->
        Printf.eprintf "iw-server: invalid --fault-plan: %s\n" msg;
        exit 1)
    | None -> (
      match Iw_fault.env_plan () with
      | p -> p
      | exception Invalid_argument msg ->
        Printf.eprintf "iw-server: %s\n" msg;
        exit 1)
  in
  (* --fsync beats IW_FSYNC (which Iw_server.create consults when no policy
     is passed); a bad policy is a startup error. *)
  let fsync =
    match fsync with
    | None -> None
    | Some s -> (
      match Iw_store.fsync_of_string s with
      | Ok f -> Some f
      | Error msg ->
        Printf.eprintf "iw-server: invalid --fsync: %s\n" msg;
        exit 1)
  in
  (* A bad IW_DOMAINS, IW_SHARD_QUEUE_MAX, IW_FSYNC or IW_METRICS value is a
     startup error that names the variable. *)
  let server =
    match Iw_server.create ?checkpoint_dir ?domains ?lease_secs ?fsync () with
    | server -> server
    | exception Invalid_argument msg ->
      Printf.eprintf "iw-server: %s\n" msg;
      exit 1
  in
  (* The effective value of every knob, whichever of flag, environment or
     default it came from, in one line. *)
  let opt f = function Some v -> f v | None -> "none" in
  Logs.app (fun m ->
      m
        "config: domains=%d queue_max=%s store=%s fsync=%s lease=%s metrics=%s \
         trace=%s flight_dump=%s fault=%s"
        (Iw_server.domains server)
        (opt string_of_int (Iw_server.queue_max server))
        (opt Fun.id checkpoint_dir)
        (opt
           (fun st -> Format.asprintf "%a" Iw_store.pp_fsync (Iw_store.fsync_policy st))
           (Iw_server.store server))
        (opt (Printf.sprintf "%gs") lease_secs)
        (if Iw_metrics.enabled (Iw_server.metrics server) then "on" else "off")
        (opt
           (fun (path, mode) ->
             path ^ match mode with Iw_trace.Append -> ":append" | Overwrite -> ":overwrite")
           (Iw_trace.output ()))
        (Option.value (Iw_flight.dump_target ()) ~default:"stderr")
        (opt (Format.asprintf "%a" Iw_fault.pp) fault));
  (match fault with
  | Some p -> Logs.app (fun m -> m "FAULT INJECTION ACTIVE: %a" Iw_fault.pp p)
  | None -> ());
  (match checkpoint_dir with
  | Some dir ->
    Logs.info (fun m -> m "checkpointing to %s every %.0fs" dir checkpoint_secs);
    (* A failed checkpoint (disk full, permissions) must not silently kill
       the timer: log it, count it, and try again next interval — the
       write-ahead log is still protecting every commit in the meantime. *)
    let failures =
      Iw_metrics.counter
        (Iw_server.metrics server)
        ~help:"Periodic checkpoints that raised instead of completing"
        "iw_server_checkpoint_failures_total"
    in
    let rec ticker () =
      Thread.delay checkpoint_secs;
      (match Iw_server.checkpoint server with
      | () -> Logs.debug (fun m -> m "checkpoint complete")
      | exception e ->
        Iw_metrics.incr failures;
        Logs.err (fun m ->
            m "checkpoint failed (will retry in %.0fs): %s" checkpoint_secs
              (Printexc.to_string e)));
      ticker ()
    in
    ignore (Thread.create ticker () : Thread.t)
  | None -> ());
  (* SIGUSR1 dumps the flight recorder (recent requests) without stopping the
     server — the poor operator's core dump.  IW_FLIGHT_DUMP redirects the
     JSON from stderr to a file. *)
  (try
     ignore
       (Sys.signal Sys.sigusr1
          (Sys.Signal_handle
             (fun _ -> Iw_flight.dump ~reason:"SIGUSR1" (Iw_server.flight server)))
         : Sys.signal_behavior)
   with Invalid_argument _ -> ());
  let stop = ref false in
  Logs.app (fun m -> m "InterWeave server listening on port %d" port);
  (* One armed injector for the server's lifetime, spanning connections —
     frame counters continue across reconnects, exactly as a client-side
     injector spans re-dials.  A fresh injector per connection would replay
     the identical schedule from frame 1 on every reconnect, deterministically
     re-killing the same retried request until the client's budget runs out. *)
  let injector = Option.map Iw_fault.arm fault in
  Iw_transport.tcp_server ~port ~stop (fun conn ->
      Logs.info (fun m -> m "client connected: %s" conn.Iw_transport.peer);
      let conn =
        match injector with
        | None -> conn
        | Some inj -> Iw_fault.wrap ~flight:(Iw_server.flight server) inj conn
      in
      Iw_server.serve_conn server conn;
      Logs.info (fun m -> m "client disconnected: %s" conn.Iw_transport.peer))

open Cmdliner

let port =
  Arg.(value & opt int 7077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")

let checkpoint_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc:"Persist segments to $(docv) and reload on start.")

let checkpoint_secs =
  Arg.(
    value
    & opt float 30.
    & info [ "checkpoint-interval" ] ~docv:"SECS"
        ~doc:
          "Seconds between checkpoints.  With the write-ahead log protecting \
           every commit, this is a compaction interval — it bounds recovery \
           replay time, not durability.")

let fsync =
  Arg.(
    value
    & opt (some string) None
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Write-ahead-log fsync policy: $(b,always) (fsync before every \
           ack), $(b,interval) or $(b,interval:SECS) (at most one fsync per \
           that many seconds, default 1s), or $(b,never).  Bounds what a \
           power loss can lose; a plain crash loses nothing acknowledged \
           under any policy.  Overrides the IW_FSYNC environment variable.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let lease_secs =
  Arg.(
    value
    & opt (some float) None
    & info [ "lease" ] ~docv:"SECS"
        ~doc:
          "Per-session inactivity lease.  Write locks survive dropped \
           connections so clients can resume their session; a session quiet \
           for more than $(docv) seconds loses its locks to the next \
           contender.  Without this flag a dropped connection releases its \
           locks immediately.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject deterministic faults into every client connection, e.g. \
           $(b,seed:7,drop:0.01,delay:5ms,close\\@req=17).  For resilience \
           testing only.  Overrides the IW_FAULT environment variable.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event JSON trace of request handling to $(docv), \
           written at exit (equivalent to setting IW_TRACE=$(docv)).")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard the server across $(docv) OCaml domains: segments are \
           partitioned by a deterministic hash of their name, each shard \
           owns its slice of the write-ahead log, and concurrent releases \
           on one shard share fsyncs via group commit.  Default 1 (classic single-lock dispatch).  Overrides the \
           IW_DOMAINS environment variable.")

let cmd =
  let doc = "InterWeave segment server" in
  Cmd.v
    (Cmd.info "iw-server" ~doc)
    Term.(
      const run $ port $ checkpoint_dir $ checkpoint_secs $ fsync $ trace
      $ lease_secs $ fault_plan $ domains $ verbose)

let () = exit (Cmd.eval cmd)

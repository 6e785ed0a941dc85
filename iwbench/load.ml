(* The client stack, the operation recorder, and the two load shapes.

   [connect] assembles a client from the library's public pieces as
   [Interweave.loopback_client] does — loopback transport, frame CRCs, the
   demultiplexing link with framed byte accounting and a 30 s call
   deadline, a 2 ms write-lock busy-wait, notifications, and an armed
   reconnect — so that a [Probe] can sit between the layers.

   One difference: adaptive subscription is off.  A subscribed segment is
   served from cache until its change notification has been processed, and
   that happens on the receiver thread, after the writer may already have
   its ack.  Under CPU contention a Full read then misses a write acked
   before it began, and a Delta(3) read falls 4 writes behind; both fail
   the correctness checks.  Every read therefore asks the server. *)

let now = Unix.gettimeofday

let connect ?probe ~arch server =
  let client = ref None in
  let pre_sent = ref 0 and pre_received = ref 0 in
  let on_notify n =
    match !client with Some c -> Iw_client.handle_notification c n | None -> ()
  in
  let on_io ~dir bytes =
    match (!client, dir) with
    | Some c, `Sent ->
      let s = Iw_client.stats c in
      s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + bytes
    | Some c, `Received ->
      let s = Iw_client.stats c in
      s.Iw_client.bytes_received <- s.Iw_client.bytes_received + bytes
    | None, `Sent -> pre_sent := !pre_sent + bytes
    | None, `Received -> pre_received := !pre_received + bytes
  in
  let dial () =
    let client_end, server_end = Iw_transport.loopback () in
    let server_end =
      match probe with Some p -> Probe.wrap_server_conn p server_end | None -> server_end
    in
    ignore (Thread.create (fun () -> Iw_server.serve_conn server server_end) () : Thread.t);
    let conn, crc = Iw_transport.crc_conn client_end in
    let conn = match probe with Some p -> Probe.wrap_client_conn p conn | None -> conn in
    let link = Iw_proto.demux_link ~on_io ~call_timeout:30.0 conn ~on_notify in
    (match link.Iw_proto.call (Iw_proto.Enable_crc { session = 0 }) with
    | Iw_proto.R_ok -> Iw_transport.enable_send crc
    | _ -> failwith "iwbench: server refused frame CRCs");
    match probe with Some p -> Probe.wrap_link p link | None -> link
  in
  let c = Iw_client.connect ~arch ~busy_wait:(Some 0.002) (dial ()) in
  client := Some c;
  let s = Iw_client.stats c in
  s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + !pre_sent;
  s.Iw_client.bytes_received <- s.Iw_client.bytes_received + !pre_received;
  Iw_client.set_framed_byte_accounting c true;
  (Iw_client.options c).Iw_client.auto_subscribe <- false;
  Iw_client.enable_notifications c;
  Iw_client.set_reconnect c ~dial;
  c

(* Pointers swizzled on apply, counted by an observation hook that traced
   runs install on every client. *)
let swizzles = Atomic.make 0

let count_swizzles c =
  Iw_client.set_monitor c
    (Some
       {
         Iw_client.mon_lock = (fun _ _ -> ());
         mon_malloc = (fun _ -> ());
         mon_alloc = (fun _ _ ~len:_ -> ());
         mon_free = (fun _ -> ());
         mon_read_ptr = (fun _ _ -> ());
         mon_swizzled = (fun _ -> Atomic.incr swizzles);
       })

type kind =
  | Read
  | Write

(* What one generator thread records.  Only successful operations enter the
   latency histograms; a failed one counts against [attempted] instead. *)
type tally = {
  read : Iw_hist.t;  (* us, from the scheduled start *)
  write : Iw_hist.t;
  late : Iw_hist.t;  (* us from due to started: queueing plus [wake] *)
  wake : Iw_hist.t;  (* open loop: us from able-to-send to started *)
  traced : Iw_hist.t array;  (* by kind: traced operations of a traced run *)
  plain : Iw_hist.t array;  (* by kind: the untraced ones *)
  mutable attempted : int;
  mutable raised : int;
  mutable violations : int;  (* coherence or content check failed *)
  mutable skipped : int;  (* scheduled but abandoned past the grace period *)
  mutable first_error : string option;
  (* client-local time the client itself names, traced operations only, s *)
  mutable word_diff_s : float;
  mutable translate_s : float;
  mutable apply_s : float;
}

let tally () =
  let h () = Iw_hist.create () in
  {
    read = h ();
    write = h ();
    late = h ();
    wake = h ();
    traced = [| h (); h () |];
    plain = [| h (); h () |];
    attempted = 0;
    raised = 0;
    violations = 0;
    skipped = 0;
    first_error = None;
    word_diff_s = 0.;
    translate_s = 0.;
    apply_s = 0.;
  }

let kind_index = function Read -> 0 | Write -> 1

let note_error t msg = if t.first_error = None then t.first_error <- Some msg

(* Run one operation.  [f] performs it and returns [Error why] when its
   result failed the workload's correctness check.  [op] returns whether the
   operation succeeded. *)
let op t ?probe ~client ~traced ~kind ~sched f =
  let traced = traced && probe <> None in
  (match probe with Some p -> p.Probe.on <- traced | None -> ());
  t.attempted <- t.attempted + 1;
  let start = now () in
  let st = Iw_client.stats client in
  let wd0 = st.Iw_client.word_diff_seconds
  and tr0 = st.Iw_client.translate_seconds
  and ap0 = st.Iw_client.apply_seconds in
  let run () =
    match f () with
    | Ok () -> None
    | Error why -> Some (`Violation why)
    | exception e -> Some (`Raised e)
  in
  let outcome =
    match probe with
    | Some p when traced ->
      Probe.with_span ~t0:sched p
        (match kind with Read -> "op:read" | Write -> "op:write")
        (fun () ->
          if start > sched then Probe.add_span p "driver.late" sched start;
          run ())
    | _ -> run ()
  in
  let t1 = now () in
  Iw_hist.record t.late ((start -. sched) *. 1e6);
  match outcome with
  | None ->
    let us = (t1 -. sched) *. 1e6 in
    Iw_hist.record (match kind with Read -> t.read | Write -> t.write) us;
    if probe <> None then
      Iw_hist.record (if traced then t.traced else t.plain).(kind_index kind) us;
    if traced then begin
      t.word_diff_s <- t.word_diff_s +. (st.Iw_client.word_diff_seconds -. wd0);
      t.translate_s <- t.translate_s +. (st.Iw_client.translate_seconds -. tr0);
      t.apply_s <- t.apply_s +. (st.Iw_client.apply_seconds -. ap0)
    end;
    true
  | Some (`Violation why) ->
    t.violations <- t.violations + 1;
    note_error t ("correctness check failed: " ^ why);
    false
  | Some (`Raised e) ->
    t.raised <- t.raised + 1;
    note_error t (Printexc.to_string e);
    false

(* Open loop: Poisson arrivals at [rate] per second, fixed before the run
   reacts to anything.  [send ~sched k] runs operation [k], due at
   [sched]; a generator more than [grace] seconds behind abandons the rest
   of its schedule and reports it as skipped.

   One connection carries one operation at a time, so an operation due
   while its predecessor still runs waits for it; that wait is the system's
   and stays in the latency.  [wake] keeps only the generator's own delay:
   from the moment it could have sent (due, and the connection free) to
   the moment it did. *)
let open_loop t ~rng ~rate ~t0 ~t_end send =
  let mean_gap = 1. /. rate in
  let gap () = -.mean_gap *. log (1. -. Random.State.float rng 1.) in
  let grace = t_end +. 5. in
  let rec loop sched k free_at =
    if sched < t_end then begin
      let at = now () in
      if at > grace then
        t.skipped <- t.skipped + 1 + int_of_float ((t_end -. sched) /. mean_gap)
      else begin
        if at < sched then Thread.delay (sched -. at);
        Iw_hist.record t.wake ((now () -. Float.max sched free_at) *. 1e6);
        send ~sched k;
        loop (sched +. gap ()) (k + 1) (now ())
      end
    end
  in
  loop (t0 +. gap ()) 0 t0

(* Closed loop: the next iteration starts when the previous one ends, until
   [t_end]. *)
let closed_loop ~t_end iteration =
  let rec loop k =
    if now () < t_end then begin
      iteration k;
      loop (k + 1)
    end
  in
  loop 0

(* Generator threads: each runs [body i] and returns its tally. *)
let run_threads n body =
  let tallies = Array.init n (fun _ -> tally ()) in
  let threads = Array.init n (fun i -> Thread.create (fun () -> body i tallies.(i)) ()) in
  Array.iter Thread.join threads;
  Array.to_list tallies

(* Tracing from outside every layer boundary.

   iwbench builds each client stack itself, so it can wrap the public
   entry points of each layer without touching the library: client API
   calls (around the calls the workload makes), [link.call] (a wrapped
   [Iw_proto.link]), and [conn.send]/[conn.recv] on both ends of every
   loopback connection.  One [t] per client connection.  Untraced runs
   install no wrapper at all.

   In a traced run every other operation is traced ([on]); the rest run
   through the same wrappers with span recording off, which is what the
   [trace.overhead_pct] comparison is made against.  Frame, byte, busy and
   turnaround counts are kept for every operation of a traced run.

   Spans live in memory and are written as Chrome trace_event JSON at exit
   (loadable in Perfetto or chrome://tracing). *)

type span = {
  s_name : string;
  s_id : int;
  s_parent : int;  (* 0: a root span *)
  s_tid : int;
  s_t0 : float;  (* seconds, Unix.gettimeofday *)
  s_t1 : float;
}

type t = {
  mutable on : bool;  (* the operation in flight on this connection is traced *)
  mutable stack : int list;  (* open client-thread spans, innermost first *)
  mutable spans : span list;  (* client-thread spans, newest first *)
  mutable call_span : int;  (* link.call in flight: the server span's parent *)
  mutable busy : int;  (* Write_lock calls answered busy *)
  frames : int Atomic.t;  (* client end, both directions *)
  bytes : int Atomic.t;
  (* Server end.  Replies are sent by the connection's serving thread, but
     change notifications are pushed from whichever thread (or shard domain)
     handled the write, so this half is behind a mutex. *)
  srv : Mutex.t;
  mutable srv_spans : span list;
  mutable srv_pending : (int * float) option;  (* serving thread, recv instant *)
  mutable turn_n : int;  (* every request's turnaround, traced or not *)
  mutable turn_sum_us : float;
}

let create () =
  {
    on = false;
    stack = [];
    spans = [];
    call_span = 0;
    busy = 0;
    frames = Atomic.make 0;
    bytes = Atomic.make 0;
    srv = Mutex.create ();
    srv_spans = [];
    srv_pending = None;
    turn_n = 0;
    turn_sum_us = 0.;
  }

let now = Unix.gettimeofday

let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

let tid () = Thread.id (Thread.self ())

let parent p = match p.stack with id :: _ -> id | [] -> 0

(* Forget everything recorded so far: called when the measured window
   opens, after set-up and warm-up. *)
let reset p =
  p.spans <- [];
  p.busy <- 0;
  Atomic.set p.frames 0;
  Atomic.set p.bytes 0;
  Mutex.lock p.srv;
  p.srv_spans <- [];
  p.turn_n <- 0;
  p.turn_sum_us <- 0.;
  Mutex.unlock p.srv

(* Record [name] around [f] on the calling (client) thread.  [t0] lets an
   operation span start at its scheduled instant rather than now. *)
let with_span ?t0 p name f =
  if not p.on then f ()
  else begin
    let id = fresh_id () in
    let s_parent = parent p in
    let t0 = match t0 with Some t -> t | None -> now () in
    p.stack <- id :: p.stack;
    let finish () =
      p.stack <- List.tl p.stack;
      p.spans <-
        { s_name = name; s_id = id; s_parent; s_tid = tid (); s_t0 = t0; s_t1 = now () }
        :: p.spans
    in
    Fun.protect ~finally:finish f
  end

(* An already-elapsed interval as a child of the innermost open span. *)
let add_span p name t0 t1 =
  if p.on then
    p.spans <-
      {
        s_name = name;
        s_id = fresh_id ();
        s_parent = parent p;
        s_tid = tid ();
        s_t0 = t0;
        s_t1 = t1;
      }
      :: p.spans

let call probe name f =
  match probe with
  | Some p -> with_span p name f
  | None -> f ()

let count p s =
  Atomic.incr p.frames;
  ignore (Atomic.fetch_and_add p.bytes (String.length s) : int)

let wrap_client_conn p (conn : Iw_transport.conn) =
  {
    conn with
    Iw_transport.send =
      (fun s ->
        count p s;
        with_span p "conn.send" (fun () -> conn.Iw_transport.send s));
    recv =
      (fun () ->
        let s = conn.Iw_transport.recv () in
        count p s;
        s);
  }

(* Server turnaround: from [recv] handing a request to the serving thread
   until that same thread's next [send] (the reply) returns. *)
let wrap_server_conn p (conn : Iw_transport.conn) =
  {
    conn with
    Iw_transport.recv =
      (fun () ->
        let s = conn.Iw_transport.recv () in
        let t = now () in
        Mutex.lock p.srv;
        p.srv_pending <- Some (tid (), t);
        Mutex.unlock p.srv;
        s);
    send =
      (fun s ->
        conn.Iw_transport.send s;
        let t1 = now () in
        let me = tid () in
        Mutex.lock p.srv;
        (match p.srv_pending with
        | Some (th, t0) when th = me ->
          p.srv_pending <- None;
          p.turn_n <- p.turn_n + 1;
          p.turn_sum_us <- p.turn_sum_us +. ((t1 -. t0) *. 1e6);
          if p.on then
            p.srv_spans <-
              {
                s_name = "server.turnaround";
                s_id = fresh_id ();
                s_parent = p.call_span;
                s_tid = me;
                s_t0 = t0;
                s_t1 = t1;
              }
              :: p.srv_spans
        | _ -> ());
        Mutex.unlock p.srv);
  }

let wrap_link p (link : Iw_proto.link) =
  {
    link with
    Iw_proto.call =
      (fun ?ctx req ->
        let resp =
          with_span p
            ("link.call:" ^ Iw_proto.request_variant req)
            (fun () ->
              p.call_span <- parent p;
              link.Iw_proto.call ?ctx req)
        in
        (match (req, resp) with
        | Iw_proto.Write_lock _, (Iw_proto.R_busy | Iw_proto.R_busy_hint _) ->
          p.busy <- p.busy + 1
        | _ -> ());
        resp);
  }

let all_spans probes =
  List.concat_map
    (fun p ->
      Mutex.lock p.srv;
      let s = p.srv_spans in
      Mutex.unlock p.srv;
      p.spans @ s)
    probes

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Durations (us) of every span whose name starts with [prefix]. *)
let durations ?(prefix = false) spans name =
  let h = Iw_hist.create () in
  List.iter
    (fun s ->
      if (if prefix then has_prefix ~prefix:name s.s_name else s.s_name = name) then
        Iw_hist.record h ((s.s_t1 -. s.s_t0) *. 1e6))
    spans;
  h

let write_chrome path spans =
  let module J = Iw_obs_json in
  let origin = List.fold_left (fun a s -> Float.min a s.s_t0) infinity spans in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.s_name);
        ("cat", J.Str "iwbench");
        ("ph", J.Str "X");
        ("ts", J.Num ((s.s_t0 -. origin) *. 1e6));
        ("dur", J.Num ((s.s_t1 -. s.s_t0) *. 1e6));
        ("pid", J.num_int 1);
        ("tid", J.num_int s.s_tid);
        ("args", J.Obj [ ("span", J.num_int s.s_id); ("parent", J.num_int s.s_parent) ]);
      ]
  in
  let sorted = List.sort (fun a b -> compare a.s_t0 b.s_t0) spans in
  let doc =
    J.Obj [ ("traceEvents", J.Arr (List.map ev sorted)); ("displayTimeUnit", J.Str "ms") ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string doc))

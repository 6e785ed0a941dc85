type coherence =
  | Full
  | Delta of int
  | Temporal of float
  | Diff_pct of float

let pp_coherence ppf = function
  | Full -> Format.fprintf ppf "full"
  | Delta x -> Format.fprintf ppf "delta-%d" x
  | Temporal x -> Format.fprintf ppf "temporal-%gs" x
  | Diff_pct x -> Format.fprintf ppf "diff-%g%%" x

type meta_block = {
  mb_serial : int;
  mb_name : string option;
  mb_desc_serial : int;
}

type request =
  | Hello of { arch : string }
  | Open_segment of {
      session : int;
      name : string;
      create : bool;
    }
  | Segment_meta of {
      session : int;
      name : string;
    }
  | Read_lock of {
      session : int;
      name : string;
      version : int;
      coherence : coherence;
    }
  | Read_release of {
      session : int;
      name : string;
    }
  | Write_lock of {
      session : int;
      name : string;
      version : int;
    }
  | Write_release of {
      session : int;
      name : string;
      diff : Iw_wire.Diff.t;
    }
  | Register_desc of {
      session : int;
      name : string;
      desc : Iw_types.desc;
    }
  | Get_version of {
      session : int;
      name : string;
    }
  | Checkpoint of { session : int }
  | Stat of {
      session : int;
      name : string;
    }
  | Subscribe of {
      session : int;
      name : string;
    }
  | Unsubscribe of {
      session : int;
      name : string;
    }
  | Server_stats of { session : int }
  | Segment_stats of {
      session : int;
      segment : string option;
    }
  | Flight_recorder of { session : int }
  | Resume_session of {
      session : int;
      arch : string;
    }
  | Enable_crc of { session : int }
  | Slow_log of {
      session : int;
      limit : int;
    }
  | Metrics_history of {
      session : int;
      limit : int;
    }

let request_variant = function
  | Hello _ -> "hello"
  | Open_segment _ -> "open_segment"
  | Segment_meta _ -> "segment_meta"
  | Read_lock _ -> "read_lock"
  | Read_release _ -> "read_release"
  | Write_lock _ -> "write_lock"
  | Write_release _ -> "write_release"
  | Register_desc _ -> "register_desc"
  | Get_version _ -> "get_version"
  | Checkpoint _ -> "checkpoint"
  | Stat _ -> "stat"
  | Subscribe _ -> "subscribe"
  | Unsubscribe _ -> "unsubscribe"
  | Server_stats _ -> "server_stats"
  | Segment_stats _ -> "segment_stats"
  | Flight_recorder _ -> "flight_recorder"
  | Resume_session _ -> "resume_session"
  | Enable_crc _ -> "enable_crc"
  | Slow_log _ -> "slow_log"
  | Metrics_history _ -> "metrics_history"

let request_session = function
  | Hello _ -> None
  | Enable_crc _ -> None (* link-level: negotiated before any session exists *)
  | Open_segment { session; _ }
  | Segment_meta { session; _ }
  | Read_lock { session; _ }
  | Read_release { session; _ }
  | Write_lock { session; _ }
  | Write_release { session; _ }
  | Register_desc { session; _ }
  | Get_version { session; _ }
  | Checkpoint { session }
  | Stat { session; _ }
  | Subscribe { session; _ }
  | Unsubscribe { session; _ }
  | Server_stats { session }
  | Segment_stats { session; _ }
  | Flight_recorder { session }
  | Resume_session { session; _ }
  | Slow_log { session; _ }
  | Metrics_history { session; _ } -> Some session

type stat = {
  st_version : int;
  st_blocks : int;
  st_total_units : int;
  st_diff_cache_hits : int;
  st_diff_cache_misses : int;
}

type response =
  | R_hello of { session : int }
  | R_segment of { version : int }
  | R_meta of {
      version : int;
      descs : (int * Iw_types.desc) list;
      blocks : meta_block list;
    }
  | R_up_to_date
  | R_update of Iw_wire.Diff.t
  | R_granted of Iw_wire.Diff.t option
  | R_busy
  | R_version of int
  | R_serial of int
  | R_stat of stat
  | R_ok
  | R_error of string
  | R_server_stats of Iw_metrics.snapshot
  | R_segment_stats of Iw_metrics.snapshot
  | R_flight of string
  | R_resumed of { held : string list }
  | R_slow_log of Iw_slowlog.entry list
  | R_metrics_history of Iw_ring.point list
  | R_busy_hint of { retry_after_ms : int }
  | R_expired of { phase : string }

module Buf = Iw_wire.Buf
module Reader = Iw_wire.Reader

(* Trace context: the envelope fields a client attaches so the server's
   dispatch span can join the client's timeline.  Identifiers come from
   Iw_trace.next_id and fit u64; the seq is per-link and lets R_busy/error
   replies be correlated back to the request that drew them. *)
type trace_ctx = {
  tc_trace_id : int;
  tc_span_id : int;
  tc_seq : int;
}

(* The envelope marker is far above the request tag space (0..19), so a
   frame that lacks it is rejected loudly as malformed rather than
   misparsed. *)
let envelope_magic = 0xe7

let proto_version = 1

let feature_trace_ctx = 0x01

(* The envelope carries the call's remaining deadline budget (u32,
   milliseconds), so the server sheds requests whose budget has already
   expired instead of doing dead work. *)
let feature_deadline = 0x02

let known_features = feature_trace_ctx lor feature_deadline

(* Metric snapshots travel in the same wire format as everything else so
   iw-admin can read a remote server's registry. *)
let put_snapshot buf (snap : Iw_metrics.snapshot) =
  Buf.u32 buf (List.length snap);
  List.iter
    (fun (s : Iw_metrics.sample) ->
      Buf.string buf s.s_name;
      Buf.string buf s.s_help;
      match s.s_value with
      | Iw_metrics.V_counter v ->
        Buf.u8 buf 0;
        Buf.f64 buf v
      | Iw_metrics.V_gauge v ->
        Buf.u8 buf 1;
        Buf.f64 buf v
      | Iw_metrics.V_hist hv ->
        Buf.u8 buf 2;
        Buf.string buf hv.hv_unit;
        Buf.u16 buf (Array.length hv.hv_bounds);
        Array.iter (Buf.f64 buf) hv.hv_bounds;
        Array.iter (Buf.u32 buf) hv.hv_counts;
        Buf.u32 buf hv.hv_count;
        Buf.f64 buf hv.hv_sum)
    snap

let get_snapshot r : Iw_metrics.snapshot =
  let n = Reader.u32 r in
  List.init n (fun _ ->
      let s_name = Reader.string r in
      let s_help = Reader.string r in
      let s_value =
        match Reader.u8 r with
        | 0 -> Iw_metrics.V_counter (Reader.f64 r)
        | 1 -> Iw_metrics.V_gauge (Reader.f64 r)
        | 2 ->
          let hv_unit = Reader.string r in
          let nbounds = Reader.u16 r in
          let hv_bounds = Array.init nbounds (fun _ -> Reader.f64 r) in
          let hv_counts = Array.init (nbounds + 1) (fun _ -> Reader.u32 r) in
          let hv_count = Reader.u32 r in
          let hv_sum = Reader.f64 r in
          Iw_metrics.V_hist { hv_unit; hv_bounds; hv_counts; hv_count; hv_sum }
        | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown sample tag %d" t))
      in
      { Iw_metrics.s_name; s_help; s_value })

let put_coherence buf = function
  | Full -> Buf.u8 buf 0
  | Delta x ->
    Buf.u8 buf 1;
    Buf.u32 buf x
  | Temporal x ->
    Buf.u8 buf 2;
    Buf.f64 buf x
  | Diff_pct x ->
    Buf.u8 buf 3;
    Buf.f64 buf x

let get_coherence r =
  match Reader.u8 r with
  | 0 -> Full
  | 1 -> Delta (Reader.u32 r)
  | 2 -> Temporal (Reader.f64 r)
  | 3 -> Diff_pct (Reader.f64 r)
  | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown coherence tag %d" t))

let encode_request buf = function
  | Hello { arch } ->
    Buf.u8 buf 0;
    Buf.string buf arch
  | Open_segment { session; name; create } ->
    Buf.u8 buf 1;
    Buf.u32 buf session;
    Buf.string buf name;
    Buf.u8 buf (if create then 1 else 0)
  | Segment_meta { session; name } ->
    Buf.u8 buf 2;
    Buf.u32 buf session;
    Buf.string buf name
  | Read_lock { session; name; version; coherence } ->
    Buf.u8 buf 3;
    Buf.u32 buf session;
    Buf.string buf name;
    Buf.u32 buf version;
    put_coherence buf coherence
  | Read_release { session; name } ->
    Buf.u8 buf 4;
    Buf.u32 buf session;
    Buf.string buf name
  | Write_lock { session; name; version } ->
    Buf.u8 buf 5;
    Buf.u32 buf session;
    Buf.string buf name;
    Buf.u32 buf version
  | Write_release { session; name; diff } ->
    Buf.u8 buf 6;
    Buf.u32 buf session;
    Buf.string buf name;
    Iw_wire.Diff.encode buf diff
  | Register_desc { session; name; desc } ->
    Buf.u8 buf 7;
    Buf.u32 buf session;
    Buf.string buf name;
    Iw_wire.put_desc buf desc
  | Get_version { session; name } ->
    Buf.u8 buf 8;
    Buf.u32 buf session;
    Buf.string buf name
  | Checkpoint { session } ->
    Buf.u8 buf 9;
    Buf.u32 buf session
  | Stat { session; name } ->
    Buf.u8 buf 10;
    Buf.u32 buf session;
    Buf.string buf name
  | Subscribe { session; name } ->
    Buf.u8 buf 11;
    Buf.u32 buf session;
    Buf.string buf name
  | Unsubscribe { session; name } ->
    Buf.u8 buf 12;
    Buf.u32 buf session;
    Buf.string buf name
  | Server_stats { session } ->
    Buf.u8 buf 13;
    Buf.u32 buf session
  | Segment_stats { session; segment } ->
    Buf.u8 buf 14;
    Buf.u32 buf session;
    (match segment with
    | None -> Buf.u8 buf 0
    | Some s ->
      Buf.u8 buf 1;
      Buf.string buf s)
  | Flight_recorder { session } ->
    Buf.u8 buf 15;
    Buf.u32 buf session
  | Resume_session { session; arch } ->
    Buf.u8 buf 16;
    Buf.u32 buf session;
    Buf.string buf arch
  | Enable_crc { session } ->
    Buf.u8 buf 17;
    Buf.u32 buf session
  | Slow_log { session; limit } ->
    Buf.u8 buf 18;
    Buf.u32 buf session;
    Buf.u32 buf limit
  | Metrics_history { session; limit } ->
    Buf.u8 buf 19;
    Buf.u32 buf session;
    Buf.u32 buf limit

let decode_request r =
  match Reader.u8 r with
  | 0 -> Hello { arch = Reader.string r }
  | 1 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    let create = Reader.u8 r = 1 in
    Open_segment { session; name; create }
  | 2 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Segment_meta { session; name }
  | 3 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    let version = Reader.u32 r in
    let coherence = get_coherence r in
    Read_lock { session; name; version; coherence }
  | 4 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Read_release { session; name }
  | 5 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    let version = Reader.u32 r in
    Write_lock { session; name; version }
  | 6 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    let diff = Iw_wire.Diff.decode r in
    Write_release { session; name; diff }
  | 7 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    let desc = Iw_wire.get_desc r in
    Register_desc { session; name; desc }
  | 8 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Get_version { session; name }
  | 9 -> Checkpoint { session = Reader.u32 r }
  | 10 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Stat { session; name }
  | 11 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Subscribe { session; name }
  | 12 ->
    let session = Reader.u32 r in
    let name = Reader.string r in
    Unsubscribe { session; name }
  | 13 -> Server_stats { session = Reader.u32 r }
  | 14 ->
    let session = Reader.u32 r in
    let segment = if Reader.u8 r = 1 then Some (Reader.string r) else None in
    Segment_stats { session; segment }
  | 15 -> Flight_recorder { session = Reader.u32 r }
  | 16 ->
    let session = Reader.u32 r in
    let arch = Reader.string r in
    Resume_session { session; arch }
  | 17 -> Enable_crc { session = Reader.u32 r }
  | 18 ->
    let session = Reader.u32 r in
    let limit = Reader.u32 r in
    Slow_log { session; limit }
  | 19 ->
    let session = Reader.u32 r in
    let limit = Reader.u32 r in
    Metrics_history { session; limit }
  | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown request tag %d" t))

let put_ctx buf ctx =
  Buf.u64 buf ctx.tc_trace_id;
  Buf.u64 buf ctx.tc_span_id;
  Buf.u32 buf ctx.tc_seq

let get_ctx r =
  let tc_trace_id = Reader.u64 r in
  let tc_span_id = Reader.u64 r in
  let tc_seq = Reader.u32 r in
  { tc_trace_id; tc_span_id; tc_seq }

type envelope = {
  env_ctx : trace_ctx option;
  env_budget_ms : int option;
      (* remaining call budget at send time; None = a link without a call
         timeout *)
}

let encode_request_env buf ?ctx ?budget_ms req =
  Buf.u8 buf envelope_magic;
  Buf.u8 buf proto_version;
  Buf.u8 buf
    ((match ctx with Some _ -> feature_trace_ctx | None -> 0)
    lor match budget_ms with Some _ -> feature_deadline | None -> 0);
  Option.iter (put_ctx buf) ctx;
  Option.iter (fun b -> Buf.u32 buf (max 0 b)) budget_ms;
  encode_request buf req

(* Consumes the envelope header, leaving the reader at the request body.
   Kept separate from {!decode_request} so a server that fails to decode the
   body can still recover the seq for its error reply and flight-recorder
   entry. *)
let decode_envelope r =
  let m = Reader.u8 r in
  if m <> envelope_magic then
    raise (Iw_wire.Malformed (Printf.sprintf "missing request envelope (first byte 0x%02x)" m));
  let v = Reader.u8 r in
  if v <> proto_version then
    raise (Iw_wire.Malformed (Printf.sprintf "unsupported proto version %d" v));
  let feats = Reader.u8 r in
  if feats land lnot known_features <> 0 then
    raise (Iw_wire.Malformed (Printf.sprintf "unknown envelope features 0x%x" feats));
  let env_ctx = if feats land feature_trace_ctx <> 0 then Some (get_ctx r) else None in
  let env_budget_ms =
    if feats land feature_deadline <> 0 then Some (Reader.u32 r) else None
  in
  { env_ctx; env_budget_ms }

let encode_response buf = function
  | R_hello { session } ->
    Buf.u8 buf 0;
    Buf.u32 buf session
  | R_segment { version } ->
    Buf.u8 buf 1;
    Buf.u32 buf version
  | R_meta { version; descs; blocks } ->
    Buf.u8 buf 2;
    Buf.u32 buf version;
    Buf.u16 buf (List.length descs);
    List.iter
      (fun (serial, d) ->
        Buf.u32 buf serial;
        Iw_wire.put_desc buf d)
      descs;
    Buf.u32 buf (List.length blocks);
    List.iter
      (fun mb ->
        Buf.u32 buf mb.mb_serial;
        (match mb.mb_name with
        | None -> Buf.u8 buf 0
        | Some n ->
          Buf.u8 buf 1;
          Buf.string buf n);
        Buf.u32 buf mb.mb_desc_serial)
      blocks
  | R_up_to_date -> Buf.u8 buf 3
  | R_update diff ->
    Buf.u8 buf 4;
    Iw_wire.Diff.encode buf diff
  | R_granted None -> Buf.u8 buf 5
  | R_granted (Some diff) ->
    Buf.u8 buf 6;
    Iw_wire.Diff.encode buf diff
  | R_busy -> Buf.u8 buf 7
  | R_version v ->
    Buf.u8 buf 8;
    Buf.u32 buf v
  | R_serial s ->
    Buf.u8 buf 9;
    Buf.u32 buf s
  | R_stat st ->
    Buf.u8 buf 10;
    Buf.u32 buf st.st_version;
    Buf.u32 buf st.st_blocks;
    Buf.u32 buf st.st_total_units;
    Buf.u32 buf st.st_diff_cache_hits;
    Buf.u32 buf st.st_diff_cache_misses
  | R_ok -> Buf.u8 buf 11
  | R_error msg ->
    Buf.u8 buf 12;
    Buf.string buf msg
  | R_server_stats snap ->
    Buf.u8 buf 13;
    put_snapshot buf snap
  | R_segment_stats snap ->
    Buf.u8 buf 14;
    put_snapshot buf snap
  | R_flight json ->
    Buf.u8 buf 15;
    Buf.lstring buf json
  | R_resumed { held } ->
    Buf.u8 buf 16;
    Buf.u32 buf (List.length held);
    List.iter (Buf.string buf) held
  | R_slow_log entries ->
    Buf.u8 buf 17;
    Buf.u32 buf (List.length entries);
    List.iter
      (fun (e : Iw_slowlog.entry) ->
        Buf.f64 buf e.e_t;
        Buf.string buf e.e_variant;
        Buf.string buf e.e_segment;
        Buf.u32 buf e.e_session;
        Buf.u32 buf e.e_seq;
        Buf.u64 buf e.e_trace_id;
        Buf.u64 buf e.e_span_id;
        Buf.f64 buf e.e_latency_us;
        Buf.f64 buf e.e_wait_us;
        Buf.f64 buf e.e_service_us;
        Buf.f64 buf e.e_wal_us;
        Buf.u8 buf (if e.e_deadline_missed then 1 else 0))
      entries
  | R_metrics_history points ->
    Buf.u8 buf 18;
    Buf.u32 buf (List.length points);
    List.iter
      (fun (p : Iw_ring.point) ->
        Buf.f64 buf p.p_t;
        Buf.f64 buf p.p_dur;
        Buf.u32 buf (List.length p.p_values);
        List.iter
          (fun (k, v) ->
            Buf.string buf k;
            Buf.f64 buf v)
          p.p_values)
      points
  | R_busy_hint { retry_after_ms } ->
    Buf.u8 buf 19;
    Buf.u32 buf retry_after_ms
  | R_expired { phase } ->
    Buf.u8 buf 20;
    Buf.string buf phase

let decode_response r =
  match Reader.u8 r with
  | 0 -> R_hello { session = Reader.u32 r }
  | 1 -> R_segment { version = Reader.u32 r }
  | 2 ->
    let version = Reader.u32 r in
    let ndescs = Reader.u16 r in
    let descs =
      List.init ndescs (fun _ ->
          let serial = Reader.u32 r in
          (serial, Iw_wire.get_desc r))
    in
    let nblocks = Reader.u32 r in
    let blocks =
      List.init nblocks (fun _ ->
          let mb_serial = Reader.u32 r in
          let mb_name = if Reader.u8 r = 1 then Some (Reader.string r) else None in
          let mb_desc_serial = Reader.u32 r in
          { mb_serial; mb_name; mb_desc_serial })
    in
    R_meta { version; descs; blocks }
  | 3 -> R_up_to_date
  | 4 -> R_update (Iw_wire.Diff.decode r)
  | 5 -> R_granted None
  | 6 -> R_granted (Some (Iw_wire.Diff.decode r))
  | 7 -> R_busy
  | 8 -> R_version (Reader.u32 r)
  | 9 -> R_serial (Reader.u32 r)
  | 10 ->
    let st_version = Reader.u32 r in
    let st_blocks = Reader.u32 r in
    let st_total_units = Reader.u32 r in
    let st_diff_cache_hits = Reader.u32 r in
    let st_diff_cache_misses = Reader.u32 r in
    R_stat { st_version; st_blocks; st_total_units; st_diff_cache_hits; st_diff_cache_misses }
  | 11 -> R_ok
  | 12 -> R_error (Reader.string r)
  | 13 -> R_server_stats (get_snapshot r)
  | 14 -> R_segment_stats (get_snapshot r)
  | 15 -> R_flight (Reader.lstring r)
  | 16 ->
    let n = Reader.u32 r in
    R_resumed { held = List.init n (fun _ -> Reader.string r) }
  | 17 ->
    let n = Reader.u32 r in
    R_slow_log
      (List.init n (fun _ ->
           let e_t = Reader.f64 r in
           let e_variant = Reader.string r in
           let e_segment = Reader.string r in
           let e_session = Reader.u32 r in
           let e_seq = Reader.u32 r in
           let e_trace_id = Reader.u64 r in
           let e_span_id = Reader.u64 r in
           let e_latency_us = Reader.f64 r in
           let e_wait_us = Reader.f64 r in
           let e_service_us = Reader.f64 r in
           let e_wal_us = Reader.f64 r in
           let e_deadline_missed = Reader.u8 r = 1 in
           {
             Iw_slowlog.e_t;
             e_variant;
             e_segment;
             e_session;
             e_seq;
             e_trace_id;
             e_span_id;
             e_latency_us;
             e_wait_us;
             e_service_us;
             e_wal_us;
             e_deadline_missed;
           }))
  | 18 ->
    let n = Reader.u32 r in
    R_metrics_history
      (List.init n (fun _ ->
           let p_t = Reader.f64 r in
           let p_dur = Reader.f64 r in
           let nv = Reader.u32 r in
           let p_values =
             List.init nv (fun _ ->
                 let k = Reader.string r in
                 let v = Reader.f64 r in
                 (k, v))
           in
           { Iw_ring.p_t; p_dur; p_values }))
  | 19 -> R_busy_hint { retry_after_ms = Reader.u32 r }
  | 20 -> R_expired { phase = Reader.string r }
  | t -> raise (Iw_wire.Malformed (Printf.sprintf "unknown response tag %d" t))

type link = {
  call : ?ctx:trace_ctx -> request -> response;
  close : unit -> unit;
  description : string;
}

type notification = {
  n_segment : string;
  n_version : int;
}

(* A tag-2 frame prefixes the response with the request's seq, echoed only
   when the request carried a trace context: untraced replies stay 4 bytes
   shorter. *)
let response_frame ?seq resp =
  let buf = Buf.create () in
  (match seq with
  | None -> Buf.u8 buf 0
  | Some s ->
    Buf.u8 buf 2;
    Buf.u32 buf s);
  encode_response buf resp;
  Buf.contents buf

let notification_frame n =
  let buf = Buf.create () in
  Buf.u8 buf 1;
  Buf.string buf n.n_segment;
  Buf.u32 buf n.n_version;
  Buf.contents buf

let demux_link ?on_io ?call_timeout conn ~on_notify =
  (* One receiver thread reads every frame: notifications are dispatched
     immediately (so a staleness flag is never left sitting in a socket
     buffer), responses are handed to the single outstanding caller. *)
  let m = Mutex.create () in
  let c = Condition.create () in
  let finished = ref false in
  let dead = ref false in
  let pending : (response, exn) result Queue.t = Queue.create () in
  let push r =
    Mutex.lock m;
    Queue.push r pending;
    Condition.signal c;
    Mutex.unlock m
  in
  let receiver () =
    let rec loop () =
      let frame = conn.Iw_transport.recv () in
      (match on_io with
      | None -> ()
      | Some f -> f ~dir:`Received (String.length frame));
      let r = Reader.of_string frame in
      (match Reader.u8 r with
      | 0 -> push (Ok (decode_response r))
      | 1 ->
        let n_segment = Reader.string r in
        let n_version = Reader.u32 r in
        on_notify { n_segment; n_version }
      | 2 ->
        let seq = Reader.u32 r in
        let resp = decode_response r in
        (* Busy/error outcomes are the ones worth correlating in a log or
           trace; normal replies would just double the event volume. *)
        (match resp with
        | R_busy | R_error _ ->
          if Iw_trace.enabled () then
            Iw_trace.instant
              ~args:
                [
                  ("seq", string_of_int seq);
                  ("reply", (match resp with R_busy -> "busy" | _ -> "error"));
                ]
              "client.reply_seq"
        | _ -> ());
        push (Ok resp)
      | t -> push (Error (Iw_wire.Malformed (Printf.sprintf "unknown frame tag %d" t))));
      loop ()
    in
    (try loop ()
     with
    | Iw_transport.Closed | Iw_wire.Malformed _ -> push (Error Iw_transport.Closed)
    | Iw_transport.Corrupt _ as e ->
      (* Surface the corruption to the caller (the client's retry path
         treats it as transient and re-dials) rather than masking it as a
         plain close. *)
      push (Error e));
    Mutex.lock m;
    finished := true;
    Condition.broadcast c;
    Mutex.unlock m;
    (* Only the receiver releases the descriptor: releasing it from another
       thread could let the OS reuse the number while this thread still
       reads from it. *)
    conn.Iw_transport.close ()
  in
  ignore (Thread.create receiver () : Thread.t);
  (* [Condition] has no timed wait, so deadlines need a ticker thread that
     periodically wakes the (single) waiting caller to re-check the clock.
     Only spawned when a deadline is armed; exits with the receiver. *)
  (match call_timeout with
  | None -> ()
  | Some _ ->
    let tick () =
      while not !finished do
        Thread.delay 0.025;
        Mutex.lock m;
        Condition.broadcast c;
        Mutex.unlock m
      done
    in
    ignore (Thread.create tick () : Thread.t));
  (* A timeout-armed link stamps its call budget into every envelope. *)
  let budget_ms =
    Option.map (fun d -> int_of_float (Float.ceil (d *. 1000.))) call_timeout
  in
  let call ?ctx req =
    if !dead then raise Iw_transport.Closed;
    let buf = Buf.create () in
    encode_request_env buf ?ctx ?budget_ms req;
    let frame = Buf.contents buf in
    (match on_io with
    | None -> ()
    | Some f -> f ~dir:`Sent (String.length frame));
    conn.Iw_transport.send frame;
    let deadline =
      match call_timeout with
      | None -> None
      | Some d -> Some (Unix.gettimeofday () +. d)
    in
    Mutex.lock m;
    let rec wait () =
      if not (Queue.is_empty pending) then Queue.pop pending
      else begin
        (match deadline with
        | Some dl when Unix.gettimeofday () >= dl ->
          Mutex.unlock m;
          (* Desynchronized: a reply arriving now would pair with the next
             request.  Mark the link dead and shut the connection down; the
             receiver will push [Closed] for any still-blocked caller. *)
          dead := true;
          conn.Iw_transport.shutdown ();
          raise Iw_transport.Timeout
        | _ -> ());
        Condition.wait c m;
        wait ()
      end
    in
    let r = wait () in
    Mutex.unlock m;
    match r with Ok resp -> resp | Error e -> raise e
  in
  {
    call;
    close = conn.Iw_transport.shutdown;
    description = "demux:" ^ conn.Iw_transport.peer;
  }

let crc_link ?on_io ?call_timeout conn ~on_notify =
  let conn, crc = Iw_transport.crc_conn conn in
  let link = demux_link ?on_io ?call_timeout conn ~on_notify in
  let fail e =
    (try link.close () with _ -> ());
    raise e
  in
  match link.call (Enable_crc { session = 0 }) with
  | R_ok ->
    Iw_transport.enable_send crc;
    link
  | _ -> fail Iw_transport.Closed
  | exception e -> fail e

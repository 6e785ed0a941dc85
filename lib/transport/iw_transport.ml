type conn = {
  send : string -> unit;
  recv : unit -> string;
  shutdown : unit -> unit;
  close : unit -> unit;
  peer : string;
}

exception Closed
exception Timeout
exception Connect_failed of string
exception Corrupt of string

(* Transport-wide metrics: one process-global registry shared by every
   connection in the process, enabled by default (IW_METRICS=0 disables).
   With the registry disabled each frame costs a handful of load-and-branch
   checks and no clock reads. *)
let registry =
  lazy (Iw_metrics.create ~enabled:(Iw_metrics.env_enabled ~default:true) ())

let metrics () = Lazy.force registry

type instruments = {
  i_frames_sent : Iw_metrics.counter;
  i_frames_received : Iw_metrics.counter;
  i_bytes_sent : Iw_metrics.counter;
  i_bytes_received : Iw_metrics.counter;
  i_frame_bytes : Iw_metrics.histogram;
  i_recv_block_us : Iw_metrics.histogram;
  i_crc_errors : Iw_metrics.counter;
}

let instruments =
  lazy
    (let t = metrics () in
     {
       i_frames_sent =
         Iw_metrics.counter t ~help:"Frames sent by this process"
           "iw_transport_frames_sent_total";
       i_frames_received =
         Iw_metrics.counter t ~help:"Frames received by this process"
           "iw_transport_frames_received_total";
       i_bytes_sent =
         Iw_metrics.counter t ~help:"Frame payload bytes sent"
           "iw_transport_bytes_sent_total";
       i_bytes_received =
         Iw_metrics.counter t ~help:"Frame payload bytes received"
           "iw_transport_bytes_received_total";
       i_frame_bytes =
         Iw_metrics.histogram_bytes t ~help:"Frame payload size, both directions"
           "iw_transport_frame_bytes";
       i_recv_block_us =
         Iw_metrics.histogram_us t ~help:"Time blocked waiting for a frame"
           "iw_transport_recv_block_us";
       i_crc_errors =
         Iw_metrics.counter t ~help:"Frames rejected by the CRC check"
           "iw_transport_crc_errors_total";
     })

let instrument conn =
  let i = Lazy.force instruments in
  let t = metrics () in
  let send s =
    Iw_metrics.incr i.i_frames_sent;
    Iw_metrics.incr ~by:(String.length s) i.i_bytes_sent;
    Iw_metrics.observe i.i_frame_bytes (float_of_int (String.length s));
    conn.send s
  in
  let recv () =
    let s =
      if Iw_metrics.enabled t then begin
        let t0 = Iw_metrics.now_us () in
        let s = conn.recv () in
        Iw_metrics.observe i.i_recv_block_us (Iw_metrics.now_us () -. t0);
        s
      end
      else conn.recv ()
    in
    Iw_metrics.incr i.i_frames_received;
    Iw_metrics.incr ~by:(String.length s) i.i_bytes_received;
    Iw_metrics.observe i.i_frame_bytes (float_of_int (String.length s));
    s
  in
  { conn with send; recv }

(* Frame-level CRC-32.

   A protected frame is self-describing: marker byte 0xC3, then the big-endian
   CRC-32 of the payload, then the payload.  0xC3 cannot start an unprotected
   frame — request frames begin with the 0xE7 envelope, response frames with
   0, 1, or 2 — so a receiver can accept both framings on one connection,
   which is what makes negotiation possible: each side starts sending plain
   frames and flips to protected ones only after the Enable_crc exchange
   succeeds.

   The receive side ratchets: once one protected frame arrives, every later
   frame must be protected too, so a garbled frame cannot smuggle itself past
   the check by losing its marker byte. *)

let crc_marker = '\xc3'

type crc_handle = {
  mutable send_crc : bool;
  mutable expect_crc : bool;
}

let enable_send h = h.send_crc <- true

let crc_conn conn =
  let h = { send_crc = false; expect_crc = false } in
  let i = Lazy.force instruments in
  let reject msg =
    Iw_metrics.incr i.i_crc_errors;
    raise (Corrupt msg)
  in
  let send s =
    if not h.send_crc then conn.send s
    else begin
      let n = String.length s in
      let buf = Bytes.create (5 + n) in
      Bytes.set buf 0 crc_marker;
      Bytes.set_int32_be buf 1 (Int32.of_int (Iw_wire.Crc32.string s));
      Bytes.blit_string s 0 buf 5 n;
      conn.send (Bytes.unsafe_to_string buf)
    end
  in
  let recv () =
    let s = conn.recv () in
    if String.length s > 0 && s.[0] = crc_marker then begin
      if String.length s < 5 then reject "short CRC frame";
      let want =
        Int32.to_int (Bytes.get_int32_be (Bytes.unsafe_of_string s) 1)
        land 0xffffffff
      in
      let got = Iw_wire.Crc32.update 0 s ~off:5 ~len:(String.length s - 5) in
      if want <> got then reject "frame CRC mismatch";
      h.expect_crc <- true;
      String.sub s 5 (String.length s - 5)
    end
    else if h.expect_crc then reject "unprotected frame after CRC negotiation"
    else s
  in
  ({ conn with send; recv }, h)

(* Thread-safe blocking queue of frames. *)
module Fifo = struct
  type t = {
    q : string Queue.t;
    m : Mutex.t;
    c : Condition.t;
    mutable closed : bool;
  }

  let create () =
    { q = Queue.create (); m = Mutex.create (); c = Condition.create (); closed = false }

  let push t s =
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      raise Closed
    end;
    Queue.push s t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    let rec wait () =
      if not (Queue.is_empty t.q) then Queue.pop t.q
      else if t.closed then begin
        Mutex.unlock t.m;
        raise Closed
      end
      else begin
        Condition.wait t.c t.m;
        wait ()
      end
    in
    let v = wait () in
    Mutex.unlock t.m;
    v

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.c;
    Mutex.unlock t.m
end

let loopback () =
  let a_to_b = Fifo.create () and b_to_a = Fifo.create () in
  let close () =
    Fifo.close a_to_b;
    Fifo.close b_to_a
  in
  (* No descriptor to release: shutdown and close coincide. *)
  let a =
    {
      send = Fifo.push a_to_b;
      recv = (fun () -> Fifo.pop b_to_a);
      shutdown = close;
      close;
      peer = "loopback-b";
    }
  and b =
    {
      send = Fifo.push b_to_a;
      recv = (fun () -> Fifo.pop a_to_b);
      shutdown = close;
      close;
      peer = "loopback-a";
    }
  in
  (instrument a, instrument b)

(* TCP framing: 4-byte big-endian length prefix. *)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      match Unix.read fd buf off len with
      | 0 -> raise Closed
      | n -> go (off + n) (len - n)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd buf off len in
      go (off + n) (len - n)
    end
  in
  go off len

let conn_of_fd fd peer =
  let send_mutex = Mutex.create () in
  let state_mutex = Mutex.create () in
  let closed = ref false in
  let send s =
    Mutex.lock send_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock send_mutex)
      (fun () ->
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 (Int32.of_int (String.length s));
        (try
           really_write fd hdr 0 4;
           really_write fd (Bytes.unsafe_of_string s) 0 (String.length s)
         with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed))
  in
  let recv () =
    let hdr = Bytes.create 4 in
    (try really_read fd hdr 0 4
     with Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> raise Closed);
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > 1 lsl 30 then raise Closed;
    let payload = Bytes.create len in
    (try really_read fd payload 0 len
     with Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> raise Closed);
    Bytes.unsafe_to_string payload
  in
  let shutdown () =
    try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  in
  let close () =
    Mutex.lock state_mutex;
    let first = not !closed in
    closed := true;
    Mutex.unlock state_mutex;
    if first then begin
      shutdown ();
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  instrument { send; recv; shutdown; close; peer }

(* A peer that disappears mid-write must surface as [Closed] (the send
   path maps EPIPE/ECONNRESET), not kill the process: the default SIGPIPE
   disposition would terminate us before the Unix_error is ever raised.
   Ignored lazily by both TCP entry points so pure-loopback users keep
   their process signal state untouched. *)
let ignore_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" | "Cygwin" -> (
      try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
    | _ -> ())

let tcp_connect ~host ~port =
  Lazy.force ignore_sigpipe;
  let addr =
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE SOCK_STREAM ] with
    | { ai_addr; _ } :: _ -> ai_addr
    | [] -> raise (Connect_failed (Printf.sprintf "cannot resolve %s" host))
    | exception Unix.Unix_error (e, _, _) ->
      raise
        (Connect_failed
           (Printf.sprintf "cannot resolve %s: %s" host (Unix.error_message e)))
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Connect_failed
          (Printf.sprintf "connect to %s:%d: %s" host port (Unix.error_message e))));
  Unix.setsockopt fd TCP_NODELAY true;
  conn_of_fd fd (Printf.sprintf "%s:%d" host port)

let tcp_server ~port ?(backlog = 128) ~stop handler =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen fd backlog;
  let rec loop () =
    if !stop then Unix.close fd
    else begin
      match Unix.select [ fd ] [] [] 1.0 with
      | [], _, _ -> loop ()
      | _ ->
        let client_fd, peer_addr = Unix.accept fd in
        Unix.setsockopt client_fd TCP_NODELAY true;
        let peer =
          match peer_addr with
          | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX s -> s
        in
        let conn = conn_of_fd client_fd peer in
        let run () = try handler conn with Closed -> conn.close () in
        ignore (Thread.create run () : Thread.t);
        loop ()
    end
  in
  loop ()

type entry = {
  e_t : float;
  e_variant : string;
  e_segment : string;
  e_session : int;
  e_seq : int;
  e_trace_id : int;
  e_span_id : int;
  e_latency_us : float;
  e_wait_us : float;
  e_service_us : float;
  e_wal_us : float;
  e_deadline_missed : bool;
}

(* The current window's entries are a sorted-ascending list of length <= k:
   admission is "is it slower than the current fastest survivor", insertion
   keeps the order.  K is small (tens), so list surgery beats a heap on
   simplicity and is just as fast. *)
type t = {
  mutex : Mutex.t;
  k : int;
  mutable cur_start : float;
  mutable cur : entry list;  (* ascending by latency, length <= k *)
  mutable prev : entry list;
}

let window_s = 10.

let create ?(k = 32) () =
  {
    mutex = Mutex.create ();
    k = max 0 k;
    cur_start = Unix.gettimeofday ();
    cur = [];
    prev = [];
  }

(* Call with the mutex held. *)
let roll_locked t now =
  if now -. t.cur_start >= window_s then begin
    (* More than two whole windows of silence means even the previous
       window is stale — drop both rather than promoting ancient entries. *)
    if now -. t.cur_start >= 2. *. window_s then t.prev <- []
    else t.prev <- t.cur;
    t.cur <- [];
    t.cur_start <- now
  end

let rec insert_sorted e = function
  | [] -> [ e ]
  | x :: rest when x.e_latency_us <= e.e_latency_us -> x :: insert_sorted e rest
  | l -> e :: l

let observe t ~variant ~segment ~session ~seq ~trace_id ~span_id
    ?(wait_us = 0.) ?(service_us = 0.) ?(wal_us = 0.) ?(deadline_missed = false)
    latency_us =
  let now = Unix.gettimeofday () in
  let entry =
    {
      e_t = now;
      e_variant = variant;
      e_segment = segment;
      e_session = session;
      e_seq = seq;
      e_trace_id = trace_id;
      e_span_id = span_id;
      e_latency_us = latency_us;
      e_wait_us = wait_us;
      e_service_us = service_us;
      e_wal_us = wal_us;
      e_deadline_missed = deadline_missed;
    }
  in
  Mutex.lock t.mutex;
  roll_locked t now;
  (if List.length t.cur < t.k then t.cur <- insert_sorted entry t.cur
   else
     match t.cur with
     | fastest :: rest when latency_us > fastest.e_latency_us ->
       t.cur <- insert_sorted entry rest
     | _ -> ());
  Mutex.unlock t.mutex

let snapshot ?limit t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  roll_locked t now;
  let cur = t.cur and prev = t.prev in
  Mutex.unlock t.mutex;
  let all =
    List.sort
      (fun a b -> compare b.e_latency_us a.e_latency_us)
      (List.rev_append cur prev)
  in
  match limit with
  | Some n when n >= 0 ->
    List.filteri (fun i _ -> i < n) all
  | _ -> all

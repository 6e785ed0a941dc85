(* A shard's execution engine: one mailbox of queued jobs drained by one
   OCaml 5 domain, with a group-commit hook between batches.

   The server routes every segment-scoped request to the shard that owns the
   segment; this module is the "one owner per bucket" half of that contract.
   Connection threads submit a closure and block on a per-request future;
   the worker domain drains the mailbox in batches, runs each closure under
   the shard lock (the submitter's closure does the locking — this module
   only sequences), and signals the futures.

   Group commit rides on the batch boundary: a job may declare its
   completion DEFERRED (its WAL append skipped the fsync), in which case the
   worker withholds the future's signal, and once the batch is drained calls
   the flush hook (one fsync per dirty log) and only then completes every
   deferred job.  A flush failure fails all deferred jobs — no
   acknowledgement without durability.

   Exceptions raised by a job's closure are caught, stored in the future,
   and re-raised in the submitting thread; the worker never dies from a
   handler error.  [stop] drains the mailbox before joining the domain, so
   shutdown never abandons an accepted request. *)

type job = {
  j_run : unit -> bool;  (* true = completion deferred to the batch flush *)
  j_finish : exn option -> unit;  (* called after flush for deferred jobs *)
}

type t = {
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  q_jobs : job Queue.t;
  q_pending : int Atomic.t;  (* queued, not yet picked up: the probe value *)
  q_hwm : int Atomic.t;  (* deepest the mailbox has ever been *)
  q_queue_max : int option;  (* admission gate; None = unbounded *)
  mutable q_stop : bool;
  q_flush : unit -> unit;
  mutable q_domain : unit Domain.t option;
}

(* The most jobs one batch, and so one group-commit flush, covers. *)
let max_batch = 64

let pending t = Atomic.get t.q_pending

let high_watermark t = Atomic.get t.q_hwm

(* Drain up to [room] queued jobs.  Caller holds q_mutex. *)
let drain_locked t room =
  let batch = ref [] in
  let n = ref 0 in
  while !n < room && not (Queue.is_empty t.q_jobs) do
    batch := Queue.pop t.q_jobs :: !batch;
    Atomic.decr t.q_pending;
    incr n
  done;
  List.rev !batch

(* Run one batch; returns the deferred finishers in completion order. *)
let run_batch jobs =
  List.filter_map
    (fun job -> if job.j_run () then Some job.j_finish else None)
    jobs

let flush_deferred t deferred =
  match deferred with
  | [] -> ()
  | fins -> (
    match t.q_flush () with
    | () -> List.iter (fun fin -> fin None) fins
    | exception e -> List.iter (fun fin -> fin (Some e)) fins)

let worker t =
  let rec loop () =
    Mutex.lock t.q_mutex;
    while Queue.is_empty t.q_jobs && not t.q_stop do
      Condition.wait t.q_cond t.q_mutex
    done;
    if Queue.is_empty t.q_jobs && t.q_stop then Mutex.unlock t.q_mutex
    else begin
      let batch = drain_locked t max_batch in
      Mutex.unlock t.q_mutex;
      flush_deferred t (run_batch batch);
      loop ()
    end
  in
  loop ()

let create ?queue_max ~flush () =
  let t =
    {
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      q_jobs = Queue.create ();
      q_pending = Atomic.make 0;
      q_hwm = Atomic.make 0;
      q_queue_max = (match queue_max with Some n when n >= 1 -> Some n | _ -> None);
      q_stop = false;
      q_flush = flush;
      q_domain = None;
    }
  in
  t.q_domain <- Some (Domain.spawn (fun () -> worker t));
  t

exception Stopped

exception Overloaded of int

let run ?(urgent = false) t ~defer f =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let result = ref None in
  let done_ = ref false in
  let signal () =
    Mutex.lock m;
    done_ := true;
    Condition.signal cv;
    Mutex.unlock m
  in
  let j_run () =
    (try result := Some (Ok (f ())) with e -> result := Some (Error e));
    let deferred =
      match !result with Some (Ok _) -> defer () | _ -> false
    in
    if not deferred then signal ();
    deferred
  in
  let j_finish flush_err =
    (match flush_err with
    | Some e -> result := Some (Error e)
    | None -> ());
    signal ()
  in
  Mutex.lock t.q_mutex;
  if t.q_stop then begin
    Mutex.unlock t.q_mutex;
    raise Stopped
  end;
  (* Admission gate: past the bound, NEW work is refused at the door and the
     caller sheds it with a retry hint.  Urgent jobs (lock releases — they
     complete critical sections and free the very locks the queue is waiting
     on) always get in, so the gate can never wedge the system. *)
  (match t.q_queue_max with
  | Some cap when (not urgent) && Atomic.get t.q_pending >= cap ->
    let depth = Atomic.get t.q_pending in
    Mutex.unlock t.q_mutex;
    raise (Overloaded depth)
  | _ -> ());
  Queue.push { j_run; j_finish } t.q_jobs;
  Atomic.incr t.q_pending;
  let depth = Atomic.get t.q_pending in
  if depth > Atomic.get t.q_hwm then Atomic.set t.q_hwm depth;
  Condition.signal t.q_cond;
  Mutex.unlock t.q_mutex;
  Mutex.lock m;
  while not !done_ do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let stop t =
  Mutex.lock t.q_mutex;
  t.q_stop <- true;
  Condition.broadcast t.q_cond;
  Mutex.unlock t.q_mutex;
  match t.q_domain with
  | Some d ->
    Domain.join d;
    t.q_domain <- None
  | None -> ()

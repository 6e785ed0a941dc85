type hists = {
  mutable wait_all : Iw_metrics.histogram option;
  mutable hold_all : Iw_metrics.histogram option;
  mutable shard_pair : (Iw_metrics.histogram * Iw_metrics.histogram) option;
  by_variant : (string, Iw_metrics.histogram * Iw_metrics.histogram) Hashtbl.t;
  by_segment : (string, Iw_metrics.histogram * Iw_metrics.histogram) Hashtbl.t;
}

type t = {
  l_mutex : Mutex.t;
  l_metrics : Iw_metrics.t option;
  l_prefix : string;
  l_shard : string;
  l_contention_us : float;
  l_queue : int Atomic.t;
  l_inflight : int Atomic.t;
  l_hists : hists;
  mutable l_on_contention :
    (wait_us:float -> variant:string -> segment:string -> unit) option;
}

(* 10 ms is over 100x the per-request lock wait (mailbox wait included) of
   a durable-write workload with fsync on every append, so only a real
   convoy leaves a flight-recorder breadcrumb. *)
let create ?metrics ?(prefix = "iw_lock") ?(shard = "") ?(contention_us = 10_000.)
    mutex =
  {
    l_mutex = mutex;
    l_metrics = metrics;
    l_prefix = prefix;
    l_shard = shard;
    l_contention_us = contention_us;
    l_queue = Atomic.make 0;
    l_inflight = Atomic.make 0;
    l_hists =
      {
        wait_all = None;
        hold_all = None;
        shard_pair = None;
        by_variant = Hashtbl.create 16;
        by_segment = Hashtbl.create 16;
      };
    l_on_contention = None;
  }

let mutex t = t.l_mutex

let queue_depth t = Atomic.get t.l_queue

let inflight t = Atomic.get t.l_inflight

let set_on_contention t cb = t.l_on_contention <- Some cb

(* Handle caches are only touched while the wrapped mutex is held, so the
   mutex itself serializes them — no extra lock. *)
let pair m prefix label_k label_v =
  let lbl n =
    if label_v = "" then n else Iw_metrics.with_label n label_k label_v
  in
  ( Iw_metrics.histogram_us m ~help:"time blocked acquiring the section lock"
      (lbl (prefix ^ "_wait_us")),
    Iw_metrics.histogram_us m ~help:"time the section lock was held"
      (lbl (prefix ^ "_hold_us")) )

let labeled_pair m prefix tbl label_k label_v =
  match Hashtbl.find_opt tbl label_v with
  | Some p -> p
  | None ->
    let p = pair m prefix label_k label_v in
    Hashtbl.add tbl label_v p;
    p

let record_locked t ~variant ~segment ~wait_us ~hold_us =
  match t.l_metrics with
  | None -> ()
  | Some m when not (Iw_metrics.enabled m) -> ()
  | Some m ->
    let h = t.l_hists in
    let wait_all, hold_all =
      match (h.wait_all, h.hold_all) with
      | Some w, Some ho -> (w, ho)
      | _ ->
        let w, ho = pair m t.l_prefix "" "" in
        h.wait_all <- Some w;
        h.hold_all <- Some ho;
        (w, ho)
    in
    Iw_metrics.observe wait_all wait_us;
    Iw_metrics.observe hold_all hold_us;
    if t.l_shard <> "" then begin
      let w, ho =
        match h.shard_pair with
        | Some p -> p
        | None ->
          let p = pair m t.l_prefix "shard" t.l_shard in
          h.shard_pair <- Some p;
          p
      in
      Iw_metrics.observe w wait_us;
      Iw_metrics.observe ho hold_us
    end;
    if variant <> "" then begin
      let w, ho = labeled_pair m t.l_prefix h.by_variant "variant" variant in
      Iw_metrics.observe w wait_us;
      Iw_metrics.observe ho hold_us
    end;
    if segment <> "" then begin
      let w, ho = labeled_pair m t.l_prefix h.by_segment "segment" segment in
      Iw_metrics.observe w wait_us;
      Iw_metrics.observe ho hold_us
    end

let with_lock t ?(variant = "") ?(segment = "") ?(extra_wait_us = 0.) ?timer f =
  Atomic.incr t.l_inflight;
  Atomic.incr t.l_queue;
  (match timer with
  | Some tm -> Iw_phase.enter tm Iw_phase.Lock_wait
  | None -> ());
  let t0 = Iw_metrics.now_us () in
  Mutex.lock t.l_mutex;
  let t1 = Iw_metrics.now_us () in
  Atomic.decr t.l_queue;
  (match timer with
  | Some tm ->
    Iw_phase.leave tm Iw_phase.Lock_wait;
    Iw_phase.enter tm Iw_phase.Service
  | None -> ());
  let wait_us = t1 -. t0 +. extra_wait_us in
  (if wait_us >= t.l_contention_us then
     match t.l_on_contention with
     | Some cb -> cb ~wait_us ~variant ~segment
     | None -> ());
  Fun.protect
    ~finally:(fun () ->
      let hold_us = Iw_metrics.now_us () -. t1 in
      record_locked t ~variant ~segment ~wait_us ~hold_us;
      (match timer with
      | Some tm -> Iw_phase.leave tm Iw_phase.Service
      | None -> ());
      Atomic.decr t.l_inflight;
      Mutex.unlock t.l_mutex)
    f

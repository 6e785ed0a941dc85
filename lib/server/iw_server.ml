module Serial_tree = Iw_avl.Make (Int)
module Version_tree = Iw_avl.Make (Int)

let subblock_units = 16

type stats = {
  mutable requests : int;
  mutable diffs_applied : int;
  mutable diffs_collected : int;
  mutable diff_cache_hits : int;
  mutable diff_cache_misses : int;
  mutable pred_hits : int;
  mutable pred_misses : int;
}

(* The version list: blocks ordered by the version in which they were last
   modified, separated by markers (paper, Sec. 3.2).  Doubly linked with
   sentinels; modified blocks move to the tail. *)
type vnode = {
  mutable prev : vnode;
  mutable next : vnode;
  kind : vkind;
}

and vkind =
  | Head
  | Tail
  | Marker of int
  | Blk of sblock

and sblock = {
  sb_serial : int;
  sb_name : string option;
  sb_desc_serial : int;
  sb_lay : Iw_types.layout;  (* wire-convention layout *)
  sb_pcount : int;
  sb_data : Bytes.t;  (* packed fixed-size wire slots *)
  sb_fixed : bool;  (* no pointer or string units: payloads are [sb_data] verbatim *)
  sb_vars : (int, string) Hashtbl.t;  (* prim index -> MIP / string payload *)
  sb_created_version : int;
  mutable sb_version : int;
  sb_subvers : int array;
  mutable sb_node : vnode;
}

type seg = {
  s_name : string;
  mutable s_version : int;
  s_registry : Iw_types.Registry.t;
  mutable s_desc_versions : (int * int) list;  (* desc serial, version at registration *)
  mutable s_blocks : sblock Serial_tree.t;  (* svr_blk_number_tree *)
  s_head : vnode;
  s_tail : vnode;
  mutable s_markers : vnode Version_tree.t;  (* marker_version_tree *)
  mutable s_frees : (int * int) list;  (* serial, version freed *)
  mutable s_total_units : int;
  s_counters : (int, int ref) Hashtbl.t;  (* Diff-coherence modification counters *)
  mutable s_writer : int option;
  s_diff_cache : (int * int, Iw_wire.Diff.block_change list) Hashtbl.t;
  s_cache_order : (int * int) Queue.t;
  mutable s_pred : vnode option;  (* last-block prediction cursor *)
  s_subscribers : (int, unit) Hashtbl.t;  (* sessions to notify on change *)
  mutable s_data_bytes : int;  (* packed master-copy bytes across live blocks *)
  s_vtimes : (int, float) Hashtbl.t;  (* version -> commit wall time *)
  s_vtimes_order : int Queue.t;  (* eviction order for s_vtimes *)
  s_busy_since : (int, float) Hashtbl.t;  (* session -> first R_busy time *)
  s_releases : (int, int * int) Hashtbl.t;
      (* session -> (diff from_version, committed version) of its last
         applied Write_release — lets a release retried over a fresh
         connection be recognized as a duplicate instead of refused *)
}

(* One shard: the owner of a disjoint set of segments.  Everything reachable
   from [sh_segs] — segment structures, diff caches, the scratch buffer, the
   WAL handle — is touched only under [sh_lock].  In worker mode (domains ≥
   2) a dedicated domain drains [sh_exec]'s mailbox and takes the lock per
   job, so segment access is effectively single-threaded per shard;
   cross-shard operations (checkpoint, resume, session teardown) take shard
   locks directly, one at a time, in ascending shard order. *)
type shard = {
  sh_id : int;
  sh_segs : (string, seg) Hashtbl.t;
  sh_lock : Mutex.t;
  sh_locked : Iw_locked.t;
      (* instrumented wrapper around [sh_lock]: every segment request goes
         through it, so wait/hold time, queue depth, and contention events
         report per-shard ({shard="<id>"}) and aggregate series *)
  sh_store : Iw_store.t option;
      (* this shard's WAL handle over the shared durability directory;
         present iff checkpoint_dir is.  The shard's log is only ever
         appended/truncated through it, under [sh_lock]; group commit
         batches fsyncs across one worker drain. *)
  sh_scratch : Iw_wire.Buf.t;  (* reused payload buffer; guarded by sh_lock *)
  sh_nsegs : int Atomic.t;
      (* segment count mirror for the collect-time gauge probe: probes run
         under the registry mutex and must never take a shard lock *)
  mutable sh_exec : Iw_shard.t option;  (* worker mailbox; None = inline *)
  sh_state : int Atomic.t;
      (* overload state machine: 0 normal, 1 shedding, 2 read-only.  Driven
         by mailbox depth against IW_SHARD_QUEUE_MAX with hysteresis (see
         [overload_update]); read lock-free on the request path. *)
}

type t = {
  shards : shard array;
  mutable next_session : int;  (* guarded by [lock] *)
  session_arch : (int, string) Hashtbl.t;  (* guarded by [lock] *)
  lease_secs : float option;
      (* with a lease, a disconnect keeps the session's write locks; any
         session quiet for longer than the lease loses them to the next
         contender *)
  session_last : (int, float) Hashtbl.t;
      (* session -> last request wall time; guarded by [lock] *)
  lock : Mutex.t;
      (* the sessions lock: session tables and the notifier registry.  A
         strict LEAF under the shard locks — shard handlers may take it for
         a lease lookup or a notifier snapshot, but no thread ever acquires
         a shard lock while holding it. *)
  checkpoint_dir : string option;
  diff_cache_capacity : int;
  t_stats : stats;
  t_metrics : Iw_metrics.t;
  t_flight : Iw_flight.t;
  t_slowlog : Iw_slowlog.t;
  t_phase : Iw_phase.stats;  (* per-(variant, phase) exact histograms *)
  t_ring : Iw_ring.t;  (* windowed metric history, rolled lazily *)
  t_ring_mutex : Mutex.t;
  mutable t_ring_last : (float * Iw_metrics.snapshot) option;
  mutable t_ring_next : float;  (* wall time of the next roll *)
  t_version_advances : Iw_metrics.counter;
  t_locks_reclaimed : Iw_metrics.counter;
  t_sessions_resumed : Iw_metrics.counter;
  t_queue_max : int option;
      (* per-shard mailbox admission cap (IW_SHARD_QUEUE_MAX); None =
         unbounded, the pre-overload behavior *)
  t_shed_queue_full : Iw_metrics.counter;
  t_shed_read_only : Iw_metrics.counter;
  t_expired_queue : Iw_metrics.counter;
  t_expired_wal : Iw_metrics.counter;
  t_snapshot_reads : Iw_metrics.counter;
  t_slow_shard : (int * float) option;
      (* fault injection: per-shard service-time inflation (shard id,
         seconds) from the IW_FAULT plan's slow@shard clause *)
  mutable prediction : bool;
  notifiers : (int, Iw_proto.notification -> unit) Hashtbl.t;
      (* session -> push; guarded by [lock] *)
  mutable validate_diffs : bool;  (* run Iw_wire_check on incoming diffs *)
}

let stats t = t.t_stats

let store t = t.shards.(0).sh_store

let domains t = Array.length t.shards

let queue_max t = t.t_queue_max

(* Segment-name routing: stable FNV-1a so a segment lands on the same shard
   across restarts regardless of creation order — recovery and live routing
   agree by construction.  (Restarting with a different [--domains] is still
   safe: recovery routes every on-disk file with the same function.) *)
let shard_index t name =
  let nshards = Array.length t.shards in
  if nshards = 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff)
      name;
    !h mod nshards
  end

let shard_of t name = t.shards.(shard_index t name)

let metrics t = t.t_metrics

let flight t = t.t_flight

let slowlog t = t.t_slowlog

let phase_stats t = t.t_phase

let ring t = t.t_ring

let set_prediction t b = t.prediction <- b

let set_validate_diffs t b = t.validate_diffs <- b

(* Version-list primitives. *)

let new_list () =
  let rec head = { prev = head; next = tail; kind = Head }
  and tail = { prev = head; next = tail; kind = Tail } in
  (head, tail)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let append_before tail n =
  n.prev <- tail.prev;
  n.next <- tail;
  tail.prev.next <- n;
  tail.prev <- n

let move_to_tail seg n =
  unlink n;
  append_before seg.s_tail n

(* Variable-size primitives (pointers and strings) use 4-byte handle slots in
   the packed master copy and keep their payloads in [sb_vars]. *)
let is_var : Iw_arch.prim -> bool = function
  | Pointer | String _ -> true
  | Char | Short | Int | Long | Float | Double -> false

(* Encode primitive units [from, upto) of a master copy into run payload
   format — identical to what the client library produces, so the server can
   both forward client diffs verbatim and synthesize its own.  Because the
   master copy is stored packed in wire byte order, spans of fixed-size
   primitives are verbatim byte ranges: no translation, just a copy — the
   reason the paper's server keeps data in wire format (Sec. 3.2). *)
let encode_prims buf sb ~from ~upto =
  Iw_types.iter_spans sb.sb_lay ~from ~upto (fun prim index off stride count ->
      if is_var prim then
        for i = 0 to count - 1 do
          Iw_wire.Buf.string buf
            (match Hashtbl.find_opt sb.sb_vars (index + i) with
            | Some v -> v
            | None -> "")
        done
      else Iw_wire.Buf.raw buf sb.sb_data ~off ~len:(count * stride))

let rec fixed_size : Iw_types.desc -> bool = function
  | Prim p -> not (is_var p)
  | Ptr _ -> false
  | Array (d, _) -> fixed_size d
  | Struct fields -> Array.for_all (fun (f : Iw_types.field) -> fixed_size f.ftype) fields

(* The inverse of [encode_prims].  Applied up to the block, it returns the
   decoder of one payload covering units [from, upto), so a block's runs
   share one reader and one span closure.  A fixed-size block's payload is
   its packed master copy bytes verbatim: one blit. *)
let decode_prims sb =
  let r = Iw_wire.Reader.of_string "" in
  let f prim index off stride count =
    if is_var prim then
      for i = 0 to count - 1 do
        let v = Iw_wire.Reader.string r in
        if v = "" then Hashtbl.remove sb.sb_vars (index + i)
        else Hashtbl.replace sb.sb_vars (index + i) v
      done
    else Iw_wire.Reader.blit r sb.sb_data ~off ~len:(count * stride)
  in
  fun ~from ~upto payload ->
    if sb.sb_fixed then begin
      let off = Iw_types.offset_of_index sb.sb_lay from in
      let len = Iw_types.offset_of_index sb.sb_lay upto - off in
      if String.length payload < len then
        raise (Iw_wire.Malformed (Printf.sprintf "truncated input (need %d bytes)" len));
      Bytes.blit_string payload 0 sb.sb_data off len
    end
    else begin
      Iw_wire.Reader.reset r payload;
      Iw_types.iter_spans sb.sb_lay ~from ~upto f
    end

let full_payload buf sb =
  Iw_wire.Buf.clear buf;
  encode_prims buf sb ~from:0 ~upto:sb.sb_pcount;
  Iw_wire.Buf.contents buf

let mark_subblocks sb ~from ~upto version =
  let first = from / subblock_units
  and last = (upto - 1) / subblock_units in
  for i = first to last do
    sb.sb_subvers.(i) <- version
  done

(* Server-side diff application (paper, Sec. 3.2): append a marker, move
   modified blocks to the tail of the version list, bump subblock versions. *)

exception Reject of string

let find_block seg serial =
  match Serial_tree.find_opt serial seg.s_blocks with
  | Some sb -> sb
  | None -> raise (Reject (Printf.sprintf "no block with serial %d" serial))

let make_block seg ~serial ~name ~desc_serial ~version =
  let desc =
    match Iw_types.Registry.find seg.s_registry desc_serial with
    | Some d -> d
    | None -> raise (Reject (Printf.sprintf "unregistered descriptor %d" desc_serial))
  in
  let lay = Iw_types.layout Iw_types.wire desc in
  let pcount = Iw_types.layout_prim_count lay in
  let nsub = (pcount + subblock_units - 1) / subblock_units in
  let node = { prev = seg.s_head; next = seg.s_head; kind = Head } in
  let sb =
    {
      sb_serial = serial;
      sb_name = name;
      sb_desc_serial = desc_serial;
      sb_lay = lay;
      sb_pcount = pcount;
      sb_data = Bytes.make (Iw_types.size lay) '\000';
      sb_fixed = fixed_size desc;
      sb_vars = Hashtbl.create 4;
      sb_created_version = version;
      sb_version = version;
      sb_subvers = Array.make nsub version;
      sb_node = node;
    }
  in
  let node = { prev = node.prev; next = node.next; kind = Blk sb } in
  sb.sb_node <- node;
  sb

(* Per-segment coherence observability.  Series carry a {segment="..."}
   label; registration is idempotent and the registry locks it, so looking
   the instrument up by name at each observation is safe from concurrent
   connection threads — the same pattern as the per-variant dispatch
   histograms.  Every call site is gated on [Iw_metrics.enabled]. *)

let seg_hist_count t seg base help =
  Iw_metrics.histogram_count t.t_metrics ~help
    (Iw_metrics.with_label base "segment" seg.s_name)

let seg_hist_us t seg base help =
  Iw_metrics.histogram_us t.t_metrics ~help
    (Iw_metrics.with_label base "segment" seg.s_name)

let seg_counter t seg base help =
  Iw_metrics.counter t.t_metrics ~help
    (Iw_metrics.with_label base "segment" seg.s_name)

let observe_version_lag t seg ~version =
  Iw_metrics.observe
    (seg_hist_count t seg "iw_seg_version_lag"
       "Server version minus client cached version at lock acquire")
    (float_of_int (max 0 (seg.s_version - version)))

(* Realized staleness: how long ago the client's cached version was
   superseded — i.e. for how long it has been reading data the server had
   already replaced (nonzero in practice only under relaxed coherence).
   Needs the commit wall time of [version + 1], kept in a bounded
   version-time table. *)
let observe_staleness t seg ~version =
  if version > 0 && version < seg.s_version then
    match Hashtbl.find_opt seg.s_vtimes (version + 1) with
    | Some superseded_at ->
      Iw_metrics.observe
        (seg_hist_us t seg "iw_seg_staleness_us"
           "Realized staleness of the client's cached copy at lock acquire")
        (Float.max 0. (Iw_metrics.now_us () -. superseded_at *. 1e6))
    | None -> ()

let observe_wasted_acquire t seg ~version =
  if version > 0 && version = seg.s_version then
    Iw_metrics.incr
      (seg_counter t seg "iw_seg_wasted_acquire_total"
         "Lock acquires that found the client cache already current")

(* Bytes a diff saved over shipping the whole segment's master copy — the
   paper's core bandwidth argument, now measurable per segment. *)
let note_diff_saved t seg (diff : Iw_wire.Diff.t) =
  let saved = seg.s_data_bytes - Iw_wire.Diff.payload_bytes diff in
  if saved > 0 then
    Iw_metrics.incr ~by:saved
      (seg_counter t seg "iw_seg_diff_bytes_saved_total"
         "Bytes saved by diff transfers vs full-segment copies")

let vtimes_capacity = 512

let note_commit_time seg v =
  Hashtbl.replace seg.s_vtimes v (Unix.gettimeofday ());
  Queue.push v seg.s_vtimes_order;
  if Queue.length seg.s_vtimes_order > vtimes_capacity then
    match Queue.take_opt seg.s_vtimes_order with
    | Some old -> Hashtbl.remove seg.s_vtimes old
    | None -> ()

let apply_diff t seg (diff : Iw_wire.Diff.t) =
  if diff.changes = [] && diff.new_descs = [] then seg.s_version
  else begin
    let v = seg.s_version + 1 in
    List.iter (fun (serial, d) -> Iw_types.Registry.adopt seg.s_registry serial d)
      diff.new_descs;
    let marker = { prev = seg.s_head; next = seg.s_head; kind = Marker v } in
    append_before seg.s_tail marker;
    seg.s_markers <- Version_tree.add v marker seg.s_markers;
    List.iter
      (fun (change : Iw_wire.Diff.block_change) ->
        match change with
        | Create { serial; name; desc_serial; payload } ->
          if Serial_tree.mem serial seg.s_blocks then
            raise (Reject (Printf.sprintf "block %d already exists" serial));
          let sb = make_block seg ~serial ~name ~desc_serial ~version:v in
          decode_prims sb ~from:0 ~upto:sb.sb_pcount payload;
          seg.s_blocks <- Serial_tree.add serial sb seg.s_blocks;
          append_before seg.s_tail sb.sb_node;
          seg.s_total_units <- seg.s_total_units + sb.sb_pcount;
          seg.s_data_bytes <- seg.s_data_bytes + Bytes.length sb.sb_data
        | Update { serial; runs } ->
          (* Last-block prediction: the next modified block is usually the
             next one in the version list (paper, Sec. 3.3). *)
          let sb =
            let predicted =
              if not t.prediction then None
              else
                match seg.s_pred with
                | Some { kind = Blk p; _ } when p.sb_serial = serial -> Some p
                | Some _ | None -> None
            in
            match predicted with
            | Some p ->
              t.t_stats.pred_hits <- t.t_stats.pred_hits + 1;
              p
            | None ->
              t.t_stats.pred_misses <- t.t_stats.pred_misses + 1;
              find_block seg serial
          in
          let rec next_block n =
            match n.next.kind with
            | Blk _ | Tail -> n.next
            | Head | Marker _ -> next_block n.next
          in
          seg.s_pred <- Some (next_block sb.sb_node);
          let decode = decode_prims sb in
          List.iter
            (fun (run : Iw_wire.Diff.run) ->
              let upto = run.start_pu + run.len_pu in
              if upto > sb.sb_pcount then raise (Reject "run beyond block end");
              decode ~from:run.start_pu ~upto run.payload;
              mark_subblocks sb ~from:run.start_pu ~upto v)
            runs;
          sb.sb_version <- v;
          move_to_tail seg sb.sb_node
        | Free { serial } ->
          let sb = find_block seg serial in
          seg.s_blocks <- Serial_tree.remove serial seg.s_blocks;
          unlink sb.sb_node;
          seg.s_frees <- (serial, v) :: seg.s_frees;
          seg.s_total_units <- seg.s_total_units - sb.sb_pcount;
          seg.s_data_bytes <- seg.s_data_bytes - Bytes.length sb.sb_data)
      diff.changes;
    seg.s_version <- v;
    if Iw_metrics.enabled t.t_metrics then note_commit_time seg v;
    t.t_stats.diffs_applied <- t.t_stats.diffs_applied + 1;
    Iw_metrics.incr t.t_version_advances;
    if Iw_metrics.enabled t.t_metrics then
      Iw_metrics.set_gauge
        (Iw_metrics.gauge t.t_metrics ~help:"Current version by segment"
           (Iw_metrics.with_label "iw_server_segment_version" "segment" seg.s_name))
        (float_of_int v);
    if Iw_trace.enabled () then
      Iw_trace.instant
        ~args:[ ("segment", seg.s_name); ("version", string_of_int v) ]
        "server.version_advance";
    (* Account the update against every other session's Diff-coherence
       counter, conservatively assuming independent modifications. *)
    let touched = Iw_wire.Diff.touched_units diff in
    Hashtbl.iter (fun _ c -> c := !c + touched) seg.s_counters;
    (* Cache the writer's diff: subsequent readers one version behind can be
       served without collection (paper, Sec. 3.3, diff caching). *)
    if t.diff_cache_capacity > 0 then begin
      if Hashtbl.length seg.s_diff_cache >= t.diff_cache_capacity then begin
        match Queue.take_opt seg.s_cache_order with
        | Some key -> Hashtbl.remove seg.s_diff_cache key
        | None -> ()
      end;
      Hashtbl.replace seg.s_diff_cache (v - 1, v) diff.changes;
      Queue.push (v - 1, v) seg.s_cache_order
    end;
    v
  end

(* Build the list of changes a client at [since] needs: walk the version list
   from the first marker newer than [since]; every block after it has some
   subblocks newer than [since]. *)
let collect_changes t sh seg ~since =
  t.t_stats.diffs_collected <- t.t_stats.diffs_collected + 1;
  let start =
    match Version_tree.ceiling (since + 1) seg.s_markers with
    | Some (_, marker) -> marker
    | None -> seg.s_tail
  in
  let changes = ref [] in
  let rec walk n =
    match n.kind with
    | Tail -> ()
    | Head | Marker _ -> walk n.next
    | Blk sb ->
      (if sb.sb_created_version > since then
         changes :=
           Iw_wire.Diff.Create
             {
               serial = sb.sb_serial;
               name = sb.sb_name;
               desc_serial = sb.sb_desc_serial;
               payload = full_payload sh.sh_scratch sb;
             }
           :: !changes
       else begin
         (* Runs of consecutive subblocks newer than [since]. *)
         let nsub = Array.length sb.sb_subvers in
         let runs = ref [] in
         let i = ref 0 in
         while !i < nsub do
           if sb.sb_subvers.(!i) > since then begin
             let j = ref !i in
             while !j < nsub && sb.sb_subvers.(!j) > since do
               incr j
             done;
             let from = !i * subblock_units
             and upto = min sb.sb_pcount (!j * subblock_units) in
             let buf = sh.sh_scratch in
             Iw_wire.Buf.clear buf;
             encode_prims buf sb ~from ~upto;
             runs :=
               {
                 Iw_wire.Diff.start_pu = from;
                 len_pu = upto - from;
                 payload = Iw_wire.Buf.contents buf;
               }
               :: !runs;
             i := !j
           end
           else incr i
         done;
         match List.rev !runs with
         | [] -> ()
         | runs -> changes := Iw_wire.Diff.Update { serial = sb.sb_serial; runs } :: !changes
       end);
      walk n.next
  in
  walk start;
  let frees =
    List.filter_map
      (fun (serial, v) -> if v > since then Some (Iw_wire.Diff.Free { serial }) else None)
      seg.s_frees
  in
  frees @ List.rev !changes

(* Diff-cache span merging: if every per-version diff between [since] and the
   current version is cached, the union of their run ranges tells us exactly
   which primitive units the client is missing — at unit granularity, finer
   than the subblock versions collect_changes falls back on.  Payloads are
   encoded fresh from the master copy, so later versions win automatically. *)
let merged_changes sh seg ~since =
  let rec gather v acc =
    if v >= seg.s_version then Some (List.rev acc)
    else
      match Hashtbl.find_opt seg.s_diff_cache (v, v + 1) with
      | Some changes -> gather (v + 1) (changes :: acc)
      | None -> None
  in
  match gather since [] with
  | None -> None
  | Some per_version ->
    let created = Hashtbl.create 16 in
    let freed = Hashtbl.create 16 in
    let ranges : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (List.iter (fun (change : Iw_wire.Diff.block_change) ->
           match change with
           | Create { serial; _ } ->
             Hashtbl.replace created serial ();
             order := serial :: !order
           | Update { serial; runs } ->
             if not (Hashtbl.mem created serial) then begin
               let r =
                 match Hashtbl.find_opt ranges serial with
                 | Some r -> r
                 | None ->
                   let r = ref [] in
                   Hashtbl.replace ranges serial r;
                   order := serial :: !order;
                   r
               in
               List.iter
                 (fun (run : Iw_wire.Diff.run) ->
                   r := (run.start_pu, run.start_pu + run.len_pu) :: !r)
                 runs
             end
           | Free { serial } ->
             if Hashtbl.mem created serial then Hashtbl.remove created serial
             else Hashtbl.replace freed serial ();
             Hashtbl.remove ranges serial))
      per_version;
    let normalize l =
      let sorted = List.sort compare l in
      let rec merge = function
        | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 -> merge ((a1, max b1 b2) :: rest)
        | r :: rest -> r :: merge rest
        | [] -> []
      in
      merge sorted
    in
    let frees =
      Hashtbl.fold (fun serial () acc -> Iw_wire.Diff.Free { serial } :: acc) freed []
    in
    let rest =
      List.rev_map
        (fun serial ->
          if Hashtbl.mem created serial then begin
            let sb = find_block seg serial in
            [
              Iw_wire.Diff.Create
                {
                  serial;
                  name = sb.sb_name;
                  desc_serial = sb.sb_desc_serial;
                  payload = full_payload sh.sh_scratch sb;
                };
            ]
          end
          else
            match Hashtbl.find_opt ranges serial with
            | None -> []
            | Some r ->
              let sb = find_block seg serial in
              let runs =
                List.map
                  (fun (from, upto) ->
                    let upto = min upto sb.sb_pcount in
                    let buf = sh.sh_scratch in
                    Iw_wire.Buf.clear buf;
                    encode_prims buf sb ~from ~upto;
                    {
                      Iw_wire.Diff.start_pu = from;
                      len_pu = upto - from;
                      payload = Iw_wire.Buf.contents buf;
                    })
                  (normalize !r)
              in
              [ Iw_wire.Diff.Update { serial; runs } ])
        !order
      |> List.concat
    in
    Some (frees @ rest)

let descs_since seg ~since =
  List.filter_map
    (fun (serial, reg_v) ->
      if reg_v >= since then
        match Iw_types.Registry.find seg.s_registry serial with
        | Some d -> Some (serial, d)
        | None -> None
      else None)
    (List.sort compare seg.s_desc_versions)

let update_for t sh seg ~session ~since =
  let changes =
    match Hashtbl.find_opt seg.s_diff_cache (since, seg.s_version) with
    | Some changes ->
      t.t_stats.diff_cache_hits <- t.t_stats.diff_cache_hits + 1;
      changes
    | None -> begin
      match merged_changes sh seg ~since with
      | Some changes ->
        t.t_stats.diff_cache_hits <- t.t_stats.diff_cache_hits + 1;
        changes
      | None ->
        t.t_stats.diff_cache_misses <- t.t_stats.diff_cache_misses + 1;
        let changes = collect_changes t sh seg ~since in
        if t.diff_cache_capacity > 0 then begin
          Hashtbl.replace seg.s_diff_cache (since, seg.s_version) changes;
          Queue.push (since, seg.s_version) seg.s_cache_order
        end;
        changes
    end
  in
  (match Hashtbl.find_opt seg.s_counters session with
  | Some c -> c := 0
  | None -> Hashtbl.replace seg.s_counters session (ref 0));
  {
    Iw_wire.Diff.from_version = since;
    to_version = seg.s_version;
    new_descs = descs_since seg ~since;
    changes;
  }

let fresh_seg name =
  let head, tail = new_list () in
  {
    s_name = name;
    s_version = 0;
    s_registry = Iw_types.Registry.create ();
    s_desc_versions = [];
    s_blocks = Serial_tree.empty;
    s_head = head;
    s_tail = tail;
    s_markers = Version_tree.empty;
    s_frees = [];
    s_total_units = 0;
    s_counters = Hashtbl.create 8;
    s_writer = None;
    s_diff_cache = Hashtbl.create 16;
    s_cache_order = Queue.create ();
    s_pred = None;
    s_subscribers = Hashtbl.create 8;
    s_data_bytes = 0;
    s_vtimes = Hashtbl.create 64;
    s_vtimes_order = Queue.create ();
    s_busy_since = Hashtbl.create 4;
    s_releases = Hashtbl.create 4;
  }

(* Checkpointing (paper, Sec. 2.2): serialize each segment — metadata,
   version list order, block contents — to a file in the checkpoint
   directory.  Since IWCKPT02 a checkpoint carries a whole-file CRC trailer
   and is written through the store's atomic-replace barrier (write temp,
   fsync file, rename, fsync directory), so a crash mid-checkpoint leaves
   either the old complete file or the new one — and a file that fails
   validation at load is quarantined, with the write-ahead log as the
   fallback, instead of aborting startup.  IWCKPT03 appends the segment's
   release-dedup table, which must survive the log truncation the
   checkpoint performs. *)

let write_checkpoint dir seg =
  let buf = Iw_wire.Buf.create ~capacity:65536 () in
  Iw_wire.Buf.string buf Iw_store.checkpoint_magic;
  Iw_wire.Buf.string buf seg.s_name;
  Iw_wire.Buf.u32 buf seg.s_version;
  let descs = Iw_types.Registry.registered_since seg.s_registry 0 in
  Iw_wire.Buf.u32 buf (List.length descs);
  List.iter
    (fun (serial, d) ->
      Iw_wire.Buf.u32 buf serial;
      Iw_wire.put_desc buf d)
    descs;
  Iw_wire.Buf.u32 buf (List.length seg.s_desc_versions);
  List.iter
    (fun (s, v) ->
      Iw_wire.Buf.u32 buf s;
      Iw_wire.Buf.u32 buf v)
    seg.s_desc_versions;
  Iw_wire.Buf.u32 buf (List.length seg.s_frees);
  List.iter
    (fun (s, v) ->
      Iw_wire.Buf.u32 buf s;
      Iw_wire.Buf.u32 buf v)
    seg.s_frees;
  (* Version list in order: markers and blocks. *)
  let rec count n acc =
    match n.kind with
    | Tail -> acc
    | Head -> count n.next acc
    | Marker _ | Blk _ -> count n.next (acc + 1)
  in
  Iw_wire.Buf.u32 buf (count seg.s_head.next 0);
  let rec walk n =
    (match n.kind with
    | Tail | Head -> ()
    | Marker v ->
      Iw_wire.Buf.u8 buf 0;
      Iw_wire.Buf.u32 buf v
    | Blk sb ->
      Iw_wire.Buf.u8 buf 1;
      Iw_wire.Buf.u32 buf sb.sb_serial;
      (match sb.sb_name with
      | None -> Iw_wire.Buf.u8 buf 0
      | Some nm ->
        Iw_wire.Buf.u8 buf 1;
        Iw_wire.Buf.string buf nm);
      Iw_wire.Buf.u32 buf sb.sb_desc_serial;
      Iw_wire.Buf.u32 buf sb.sb_created_version;
      Iw_wire.Buf.u32 buf sb.sb_version;
      Iw_wire.Buf.u32 buf (Array.length sb.sb_subvers);
      Array.iter (fun v -> Iw_wire.Buf.u32 buf v) sb.sb_subvers;
      Iw_wire.Buf.lstring buf (Bytes.to_string sb.sb_data);
      Iw_wire.Buf.u32 buf (Hashtbl.length sb.sb_vars);
      Hashtbl.iter
        (fun idx s ->
          Iw_wire.Buf.u32 buf idx;
          Iw_wire.Buf.string buf s)
        sb.sb_vars);
    if n.kind <> Tail then walk n.next
  in
  walk seg.s_head.next;
  (* Since IWCKPT03 the release-dedup table rides in the checkpoint.  The
     checkpoint truncates the write-ahead log — whose commit records are the
     only other place the table can be rebuilt from — so without this
     section, commit -> crash -> recover -> checkpoint -> crash -> recover
     refuses a client's retried release and forces a duplicate re-apply
     (Iw_model invariant MDL04; `iw-check --model --crash --model-broken
     no-dedup-rebuild` prints the five-step schedule). *)
  Iw_wire.Buf.u32 buf (Hashtbl.length seg.s_releases);
  Hashtbl.iter
    (fun session (from_v, v) ->
      Iw_wire.Buf.u32 buf session;
      Iw_wire.Buf.u32 buf from_v;
      Iw_wire.Buf.u32 buf v)
    seg.s_releases;
  let path =
    Filename.concat dir
      (Iw_store.escape_name seg.s_name ^ Iw_store.checkpoint_suffix)
  in
  Iw_store.write_atomically path (Iw_store.seal (Iw_wire.Buf.contents buf))

let read_checkpoint path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let body =
    match Iw_store.unseal data with
    | Some body -> body
    | None -> raise (Iw_wire.Malformed "checkpoint CRC trailer mismatch")
  in
  let r = Iw_wire.Reader.of_string body in
  if Iw_wire.Reader.string r <> Iw_store.checkpoint_magic then
    raise (Iw_wire.Malformed "bad checkpoint magic");
  let name = Iw_wire.Reader.string r in
  let seg = fresh_seg name in
  seg.s_version <- Iw_wire.Reader.u32 r;
  let ndescs = Iw_wire.Reader.u32 r in
  for _ = 1 to ndescs do
    let serial = Iw_wire.Reader.u32 r in
    Iw_types.Registry.adopt seg.s_registry serial (Iw_wire.get_desc r)
  done;
  let ndv = Iw_wire.Reader.u32 r in
  seg.s_desc_versions <-
    List.init ndv (fun _ ->
        let s = Iw_wire.Reader.u32 r in
        let v = Iw_wire.Reader.u32 r in
        (s, v));
  let nfrees = Iw_wire.Reader.u32 r in
  seg.s_frees <-
    List.init nfrees (fun _ ->
        let s = Iw_wire.Reader.u32 r in
        let v = Iw_wire.Reader.u32 r in
        (s, v));
  let nnodes = Iw_wire.Reader.u32 r in
  for _ = 1 to nnodes do
    match Iw_wire.Reader.u8 r with
    | 0 ->
      let v = Iw_wire.Reader.u32 r in
      let marker = { prev = seg.s_head; next = seg.s_head; kind = Marker v } in
      append_before seg.s_tail marker;
      seg.s_markers <- Version_tree.add v marker seg.s_markers
    | 1 ->
      let serial = Iw_wire.Reader.u32 r in
      let name = if Iw_wire.Reader.u8 r = 1 then Some (Iw_wire.Reader.string r) else None in
      let desc_serial = Iw_wire.Reader.u32 r in
      let created = Iw_wire.Reader.u32 r in
      let version = Iw_wire.Reader.u32 r in
      let sb = make_block seg ~serial ~name ~desc_serial ~version:created in
      sb.sb_version <- version;
      let nsub = Iw_wire.Reader.u32 r in
      if nsub <> Array.length sb.sb_subvers then
        raise (Iw_wire.Malformed "checkpoint subblock count mismatch");
      for i = 0 to nsub - 1 do
        sb.sb_subvers.(i) <- Iw_wire.Reader.u32 r
      done;
      let data = Iw_wire.Reader.lstring r in
      Bytes.blit_string data 0 sb.sb_data 0 (Bytes.length sb.sb_data);
      let nvars = Iw_wire.Reader.u32 r in
      for _ = 1 to nvars do
        let idx = Iw_wire.Reader.u32 r in
        Hashtbl.replace sb.sb_vars idx (Iw_wire.Reader.string r)
      done;
      seg.s_blocks <- Serial_tree.add serial sb seg.s_blocks;
      append_before seg.s_tail sb.sb_node;
      seg.s_total_units <- seg.s_total_units + sb.sb_pcount;
      seg.s_data_bytes <- seg.s_data_bytes + Bytes.length sb.sb_data
    | t -> raise (Iw_wire.Malformed (Printf.sprintf "bad checkpoint node tag %d" t))
  done;
  let nreleases = Iw_wire.Reader.u32 r in
  for _ = 1 to nreleases do
    let session = Iw_wire.Reader.u32 r in
    let from_v = Iw_wire.Reader.u32 r in
    let v = Iw_wire.Reader.u32 r in
    Hashtbl.replace seg.s_releases session (from_v, v)
  done;
  seg

(* Startup recovery: read every shard log, load every checkpoint that
   validates (quarantining the ones that do not), then replay each log's
   records into their segments by name.  Per segment, replay applies exactly
   the prefix of commit records that continues the checkpoint — stale
   records (already covered by the checkpoint) are skipped, a version gap or
   application failure stops the segment's replay at the last consistent
   state — and rebuilds the release-dedup table from every commit record so
   a release retried across the restart is still answered with its committed
   version.

   A recovery that replayed anything ends with a checkpoint of every segment
   and then removes the logs it read, so a segment's records never straddle
   the logs of two --domains shapes.  A log in which some segment's replay
   stopped is quarantined instead: it holds records recovery could not use.
   A directory in the older per-segment layout (a .jrnl file, or a log with
   untagged records) is refused with [Failure] before anything is touched.

   Runs single-threaded at [create], before any worker domain is spawned or
   connection served.  Each recovered segment is routed to its owning shard
   with the same hash live requests use, so routing and recovery agree even
   if the server restarted with a different [--domains]. *)
let recover_store t store =
  let adopt seg =
    let sh = shard_of t seg.s_name in
    if not (Hashtbl.mem sh.sh_segs seg.s_name) then Atomic.incr sh.sh_nsegs;
    Hashtbl.replace sh.sh_segs seg.s_name seg
  in
  let find_or_create name =
    match Hashtbl.find_opt (shard_of t name).sh_segs name with
    | Some seg -> seg
    | None ->
      let seg = fresh_seg name in
      adopt seg;
      seg
  in
  (* Apply one recovered entry to its segment.  Duplicates — records already
     covered by the checkpoint — are skipped after refreshing the
     release-dedup table; a version gap or an application failure stops the
     segment's replay at the last consistent state.  [origin] names the
     source file for diagnostics. *)
  let replay_entry ~origin seg entry =
    let name = seg.s_name in
    match entry with
    | Iw_store.Desc { serial; version; desc } ->
      if Iw_types.Registry.find seg.s_registry serial = None then begin
        Iw_types.Registry.adopt seg.s_registry serial desc;
        seg.s_desc_versions <- (serial, version) :: seg.s_desc_versions;
        `Applied
      end
      else `Skipped
    | Iw_store.Commit { session; version; diff } ->
      Hashtbl.replace seg.s_releases session (diff.Iw_wire.Diff.from_version, version);
      if version <= seg.s_version then `Skipped
      else if version = seg.s_version + 1 then begin
        match apply_diff t seg diff with
        | v when v = version -> `Applied
        | v ->
          Printf.eprintf
            "iw-server: %s: replaying version %d from %s produced %d; \
             stopping replay\n\
             %!"
            name version origin v;
          `Stop
        | exception Reject msg ->
          Printf.eprintf
            "iw-server: %s: record for version %d in %s rejected (%s); \
             stopping replay at version %d\n\
             %!"
            name version origin msg seg.s_version;
          `Stop
      end
      else begin
        Printf.eprintf
          "iw-server: %s: %s jumps from version %d to %d; stopping replay\n%!"
          name origin seg.s_version version;
        `Stop
      end
  in
  let dir = Iw_store.dir store in
  let files = Sys.readdir dir in
  Array.sort compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".jrnl" then
        failwith
          (Printf.sprintf "%s: a shard journal from an older store layout"
             (Filename.concat dir f)))
    files;
  let logs =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f Iw_store.log_suffix then
          Option.map (fun entries -> (f, entries)) (Iw_store.recover_log store ~file:f)
        else None)
      (Array.to_list files)
  in
  Array.iter
    (fun f ->
      if Filename.check_suffix f Iw_store.checkpoint_suffix then begin
        let path = Filename.concat dir f in
        match read_checkpoint path with
        | seg -> adopt seg
        | exception (Iw_wire.Malformed msg | Sys_error msg) ->
          let dst = Iw_store.quarantine path in
          Printf.eprintf
            "iw-server: checkpoint %s: %s; quarantined as %s, falling back \
             to log replay\n\
             %!"
            path msg dst;
          Iw_flight.record t.t_flight "ckpt_quarantine"
      end)
    files;
  (* Per segment: the version replay started from and the commits it
     applied; and the log in which its replay stopped, if it did. *)
  let replayed = Hashtbl.create 16 in
  let stopped = Hashtbl.create 4 in
  List.iter
    (fun (f, entries) ->
      let t0 = Iw_metrics.now_us () in
      List.iter
        (fun (name, entry) ->
          if not (Hashtbl.mem stopped name) then begin
            let seg = find_or_create name in
            if not (Hashtbl.mem replayed name) then
              Hashtbl.replace replayed name (seg.s_version, ref 0);
            match replay_entry ~origin:f seg entry with
            | `Applied -> (
              match entry with
              | Iw_store.Commit _ -> incr (snd (Hashtbl.find replayed name))
              | Iw_store.Desc _ -> ())
            | `Skipped -> ()
            | `Stop -> Hashtbl.replace stopped name f
          end)
        entries;
      Iw_store.note_recovery_us store (Iw_metrics.now_us () -. t0))
    logs;
  Hashtbl.iter
    (fun name (base, n) ->
      let seg = find_or_create name in
      Iw_flight.record t.t_flight ~segment:name ~version:seg.s_version "store_replay";
      if !n > 0 then
        Printf.eprintf
          "iw-server: %s: recovered to version %d (checkpoint %d + %d \
           replayed commit(s))\n\
           %!"
          name seg.s_version base !n)
    replayed;
  if List.exists (fun (_, entries) -> entries <> []) logs then
    Array.iter
      (fun sh -> Hashtbl.iter (fun _ seg -> write_checkpoint dir seg) sh.sh_segs)
      t.shards;
  List.iter
    (fun (f, _) ->
      let path = Filename.concat dir f in
      if Hashtbl.fold (fun _ g stop -> stop || g = f) stopped false then begin
        let dst = Iw_store.quarantine path in
        Printf.eprintf "iw-server: %s: replay stopped; quarantined as %s\n%!" path dst
      end
      else Sys.remove path)
    logs;
  if logs <> [] then Iw_store.fsync_dir dir

(* Positive-integer environment knob; a bad value is a startup error, same
   policy as IW_FSYNC. *)
let env_pos_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when v > 0 -> v
    | _ -> invalid_arg (Printf.sprintf "%s: expected a positive integer, got %S" name s))

(* Group-commit flush, run by the shard's worker domain after each batch
   that deferred fsyncs: one fsync of the shard's log, whatever segments the
   batch spans.  Takes the shard lock so it cannot race a concurrent
   cross-shard checkpoint's truncate, which closes the log fd and cancels
   the deferred fsync. *)
let flush_batch sh =
  match sh.sh_store with
  | None -> ()
  | Some store ->
    Mutex.lock sh.sh_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock sh.sh_lock)
      (fun () ->
        (* lck-ok: LCK002 this is the one batched fsync every deferred
           release in the batch paid for; holding the shard lock over it is
           the group-commit design, not an accident. *)
        Iw_store.end_batch store)

(* Mailbox admission cap.  0 disables the bound (pre-overload behavior);
   unset means a generous default that only an actually saturated server
   hits. *)
let env_queue_max () =
  let v =
    match Sys.getenv_opt "IW_SHARD_QUEUE_MAX" with
    | None | Some "" -> 1024
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | _ ->
        invalid_arg
          (Printf.sprintf
             "IW_SHARD_QUEUE_MAX: expected a non-negative integer, got %S" s))
  in
  if v = 0 then None else Some v

let create ?checkpoint_dir ?(diff_cache_capacity = 64) ?domains ?lease_secs ?fsync
    ?queue_max ?ring () =
  Iw_trace.attach_env ();
  let nshards =
    let d = match domains with Some d -> d | None -> env_pos_int "IW_DOMAINS" 1 in
    max 1 (min d 64)
  in
  let t_queue_max =
    match queue_max with
    | Some v -> if v <= 0 then None else Some v
    | None -> env_queue_max ()
  in
  (* Server metrics are on by default (IW_METRICS=0 disables): a server is a
     shared, long-lived process, and iw-admin stats should find live data. *)
  let t_metrics =
    Iw_metrics.create ~enabled:(Iw_metrics.env_enabled ~default:true) ()
  in
  let t_stats =
    {
      requests = 0;
      diffs_applied = 0;
      diffs_collected = 0;
      diff_cache_hits = 0;
      diff_cache_misses = 0;
      pred_hits = 0;
      pred_misses = 0;
    }
  in
  (* Re-back the flat stats record onto the registry as collect-time
     probes, mirroring the client. *)
  let i name help read =
    Iw_metrics.probe t_metrics ~help ~kind:`Counter name
      (fun () -> float_of_int (read ()))
  in
  i "iw_server_requests_total" "Requests handled" (fun () -> t_stats.requests);
  i "iw_server_diffs_applied_total" "Write-release diffs applied"
    (fun () -> t_stats.diffs_applied);
  i "iw_server_diffs_collected_total" "Diffs collected from the version list"
    (fun () -> t_stats.diffs_collected);
  i "iw_server_diff_cache_hits_total" "Update requests served from the diff cache"
    (fun () -> t_stats.diff_cache_hits);
  i "iw_server_diff_cache_misses_total" "Update requests requiring collection"
    (fun () -> t_stats.diff_cache_misses);
  i "iw_server_pred_hits_total" "Last-block prediction hits" (fun () -> t_stats.pred_hits);
  i "iw_server_pred_misses_total" "Last-block prediction misses"
    (fun () -> t_stats.pred_misses);
  (* The flight recorder and the slow log are always on, even when metrics
     are off: each costs a few stores or a comparison per request, and they
     exist for the crash or the slowness nobody was watching for. *)
  let t_flight = Iw_flight.create () in
  let t_slowlog = Iw_slowlog.create () in
  (* The shards.  Each owns a disjoint set of segments behind its own
     instrumented lock; with one shard the label is suppressed so the
     single-domain metric output is byte-identical to the pre-shard server.
     Per-shard store handles share the registry's iw_store_* instruments
     (registration is idempotent by name), so aggregate store series stay
     continuous too. *)
  let shards =
    Array.init nshards (fun id ->
        let sh_lock = Mutex.create () in
        let shard_label = if nshards = 1 then "" else string_of_int id in
        let sh_locked =
          Iw_locked.create ~metrics:t_metrics ~prefix:"iw_server_lock"
            ~shard:shard_label sh_lock
        in
        (* A lock acquisition that waited past the contention threshold
           leaves a flight-recorder breadcrumb, so a saturation episode is
           visible in crash dumps, not just in histograms. *)
        Iw_locked.set_on_contention sh_locked (fun ~wait_us ~variant ~segment ->
            Iw_flight.record t_flight ~segment ~latency_us:wait_us
              ("lock_contention:" ^ variant));
        let sh_store =
          match checkpoint_dir with
          | None -> None
          | Some dir ->
            let fsync =
              match fsync with
              | Some f -> f
              | None -> Iw_store.env_fsync ~default:(Iw_store.Interval 1.0)
            in
            (* Each shard logs to its own file — appends race across
               shards, so they cannot share one. *)
            Some
              (Iw_store.create ~fsync
                 ~journal:(Printf.sprintf "shard-%d" id)
                 ~metrics:t_metrics ~flight:t_flight dir)
        in
        {
          sh_id = id;
          sh_segs = Hashtbl.create 16;
          sh_lock;
          sh_locked;
          sh_store;
          sh_scratch = Iw_wire.Buf.create ~capacity:65536 ();
          sh_nsegs = Atomic.make 0;
          sh_exec = None;
          sh_state = Atomic.make 0;
        })
  in
  (* Collect-time probes sum atomics across shards — a probe runs under the
     registry mutex and must never take a shard lock (lock-order inversion
     with a handler reading metrics would deadlock). *)
  Iw_metrics.probe t_metrics ~help:"Open segments" ~kind:`Gauge "iw_server_segments"
    (fun () ->
      float_of_int
        (Array.fold_left (fun acc sh -> acc + Atomic.get sh.sh_nsegs) 0 shards));
  let mailbox_pending sh =
    match sh.sh_exec with Some exec -> Iw_shard.pending exec | None -> 0
  in
  Iw_metrics.probe t_metrics
    ~help:"Requests inside the dispatch critical section (waiting or holding)"
    ~kind:`Gauge "iw_server_inflight"
    (fun () ->
      float_of_int
        (Array.fold_left
           (fun acc sh -> acc + Iw_locked.inflight sh.sh_locked + mailbox_pending sh)
           0 shards));
  Iw_metrics.probe t_metrics
    ~help:"Requests blocked waiting for a shard lock or queued to its worker"
    ~kind:`Gauge "iw_server_lock_queue_depth"
    (fun () ->
      float_of_int
        (Array.fold_left
           (fun acc sh ->
             acc + Iw_locked.queue_depth sh.sh_locked + mailbox_pending sh)
           0 shards));
  (* Overload observability: the queue high-watermark answers "how close to
     the cap did this shard ever get", the state gauge "is it degraded right
     now".  Per-shard labels, suppressed at one shard like every other
     shard-scoped series. *)
  Array.iter
    (fun sh ->
      let label base =
        if nshards = 1 then base
        else Iw_metrics.with_label base "shard" (string_of_int sh.sh_id)
      in
      Iw_metrics.probe t_metrics
        ~help:"Highest mailbox queue depth observed since startup"
        ~kind:`Gauge
        (label "iw_server_queue_hwm")
        (fun () ->
          float_of_int
            (match sh.sh_exec with
            | Some exec -> Iw_shard.high_watermark exec
            | None -> 0));
      Iw_metrics.probe t_metrics
        ~help:"Overload state: 0 normal, 1 shedding, 2 read-only"
        ~kind:`Gauge
        (label "iw_server_overload_state")
        (fun () -> float_of_int (Atomic.get sh.sh_state)))
    shards;
  let t =
    {
      shards;
      next_session = 1;
      session_arch = Hashtbl.create 16;
      lease_secs;
      session_last = Hashtbl.create 16;
      lock = Mutex.create ();
      checkpoint_dir;
      diff_cache_capacity;
      notifiers = Hashtbl.create 16;
      validate_diffs = false;
      t_stats;
      t_metrics;
      t_flight;
      t_slowlog;
      t_phase = Iw_phase.create_stats ();
      t_ring = (match ring with Some r -> r | None -> Iw_ring.create ());
      t_ring_mutex = Mutex.create ();
      t_ring_last = None;
      t_ring_next = 0.;
      t_version_advances =
        Iw_metrics.counter t_metrics ~help:"Segment version advances"
          "iw_server_version_advances_total";
      t_locks_reclaimed =
        Iw_metrics.counter t_metrics
          ~help:"Write locks reclaimed from sessions that outlived their lease"
          "iw_server_locks_reclaimed_total";
      t_sessions_resumed =
        Iw_metrics.counter t_metrics
          ~help:"Sessions re-attached by Resume_session after a reconnect"
          "iw_server_sessions_resumed_total";
      t_queue_max;
      t_shed_queue_full =
        Iw_metrics.counter t_metrics
          ~help:"Requests shed under overload, by reason"
          (Iw_metrics.with_label "iw_server_shed_total" "reason" "queue_full");
      t_shed_read_only =
        Iw_metrics.counter t_metrics
          ~help:"Requests shed under overload, by reason"
          (Iw_metrics.with_label "iw_server_shed_total" "reason" "read_only");
      t_expired_queue =
        Iw_metrics.counter t_metrics
          ~help:"Requests dropped because their deadline budget expired, by phase"
          (Iw_metrics.with_label "iw_server_expired_total" "phase" "queue");
      t_expired_wal =
        Iw_metrics.counter t_metrics
          ~help:"Requests dropped because their deadline budget expired, by phase"
          (Iw_metrics.with_label "iw_server_expired_total" "phase" "wal");
      t_snapshot_reads =
        Iw_metrics.counter t_metrics
          ~help:
            "Relaxed-coherence reads served inline from the committed \
             snapshot while the shard was shedding"
          "iw_server_snapshot_reads_total";
      t_slow_shard =
        (match Iw_fault.env_plan () with
        | Some plan -> plan.Iw_fault.p_slow
        | None -> None);
      prediction = true;
    }
  in
  (* Recovery runs single-threaded, before any worker domain exists: one
     scan of the directory, each file routed to its owning shard. *)
  (match t.shards.(0).sh_store with
  | Some store -> recover_store t store
  | None -> ());
  (* Worker domains spawn last.  domains = 1 spawns nothing: dispatch stays
     inline on connection threads under the single shard's lock, exactly
     the pre-shard behavior. *)
  if nshards > 1 then begin
    Array.iter
      (fun sh ->
        sh.sh_exec <-
          Some
            (Iw_shard.create ?queue_max:t.t_queue_max
               ~flush:(fun () -> flush_batch sh) ()))
      t.shards
  end;
  t

(* Stop accepting mailbox jobs, drain what was accepted, and join every
   worker domain.  Inline mode is a no-op.  Exiting the process without
   this is still safe for clients (pending requests either completed or
   never acked) but leaves domains to be killed mid-batch; tests and
   iw-server's signal path call it for a clean drain. *)
let shutdown t =
  Array.iter
    (fun sh ->
      match sh.sh_exec with
      | Some exec ->
        sh.sh_exec <- None;
        Iw_shard.stop exec
      | None -> ())
    t.shards

(* A shard checkpoint is also a log barrier: every segment's checkpoint is
   durably in place (atomic replace, fsynced) before the shard's log resets,
   so a crash between the two merely leaves stale records that replay skips.
   Runs under the shard's lock; with group commit active, a checkpoint
   landing mid-batch makes the batch's deferred records redundant, and the
   truncate below cancels their pending fsync. *)
let checkpoint_shard_locked t sh =
  match t.checkpoint_dir with
  | None -> ()
  | Some dir -> (
    Hashtbl.iter (fun _ seg -> write_checkpoint dir seg) sh.sh_segs;
    match sh.sh_store with
    (* lck-ok: LCK002 the checkpoint is a log barrier: truncating under the
       shard lock is what makes "checkpoint then truncate" atomic with
       respect to this shard's commits, and what orders it against the
       worker's group-commit flush. *)
    | Some store -> Iw_store.truncate store
    | None -> ())

(* Cross-shard operations (checkpoint, session resume/teardown) take shard
   locks directly — never through a shard's mailbox — one shard at a time,
   holding no other lock across the acquisition, so they cannot deadlock
   with the worker domains or with each other. *)
let with_shard_lock sh ~variant f = Iw_locked.with_lock sh.sh_locked ~variant f

let checkpoint t =
  Array.iter
    (fun sh ->
      with_shard_lock sh ~variant:"checkpoint" (fun () ->
          checkpoint_shard_locked t sh))
    t.shards

let segment_names t =
  Array.fold_left
    (fun acc sh ->
      with_shard_lock sh ~variant:"segment_names" (fun () ->
          Hashtbl.fold (fun name _ acc -> name :: acc) sh.sh_segs acc))
    [] t.shards
  |> List.sort compare

let seg_of sh name =
  match Hashtbl.find_opt sh.sh_segs name with
  | Some seg -> seg
  | None -> raise (Reject (Printf.sprintf "unknown segment %S" name))

(* What Iw_wire_check needs to know about a segment: descriptor serials and
   block extents.  The closures read the live server structures, so callers
   outside [handle] must not race with concurrent request handling. *)
let ctx_of_seg seg =
  {
    Iw_wire_check.cx_desc = (fun serial -> Iw_types.Registry.find seg.s_registry serial);
    cx_block =
      (fun serial ->
        match Serial_tree.find_opt serial seg.s_blocks with
        | Some sb -> Some (sb.sb_desc_serial, sb.sb_pcount)
        | None -> None);
  }

let diff_ctx t name =
  match Hashtbl.find_opt (shard_of t name).sh_segs name with
  | Some seg -> ctx_of_seg seg
  | None -> Iw_wire_check.empty_ctx

(* ---- Metric history ring ----

   Every ring window (5 s by default) the request path (lazily — no
   dedicated thread) folds the metric snapshot into one Iw_ring point of
   derived scalars: counter and histogram rates, gauge levels, and
   windowed p50/p99 from bucket deltas.  Only unlabeled server/store
   series plus the per-variant request and per-phase histograms are kept,
   so a point's size is bounded regardless of segment count. *)

let ring_keep name =
  (String.starts_with ~prefix:"iw_server_" name
  || String.starts_with ~prefix:"iw_store_" name)
  && (not (String.contains name '{')
     || String.starts_with ~prefix:"iw_server_request_us{variant=" name
     || String.starts_with ~prefix:"iw_server_phase_us{phase=" name)

(* Bucket-wise histogram delta, clamped at zero so a restarted server (or
   a reset registry) yields an empty window instead of negative counts. *)
let ring_delta_hist (nw : Iw_metrics.hist_view) (old : Iw_metrics.hist_view option)
    =
  match old with
  | Some o when Array.length o.hv_counts = Array.length nw.hv_counts ->
    {
      nw with
      Iw_metrics.hv_counts =
        Array.mapi (fun i c -> max 0 (c - o.hv_counts.(i))) nw.hv_counts;
      hv_count = max 0 (nw.hv_count - o.hv_count);
      hv_sum = Float.max 0. (nw.hv_sum -. o.hv_sum);
    }
  | Some _ | None -> nw

let ring_point ~t0 ~t1 old_snap new_snap =
  let dt = Float.max 1e-9 (t1 -. t0) in
  let values =
    List.concat_map
      (fun (s : Iw_metrics.sample) ->
        if not (ring_keep s.s_name) then []
        else
          match s.s_value with
          | Iw_metrics.V_counter v ->
            let prev =
              match Iw_metrics.find old_snap s.s_name with
              | Some (Iw_metrics.V_counter p) -> p
              | _ -> 0.
            in
            [ (s.s_name ^ ":rate", Float.max 0. ((v -. prev) /. dt)) ]
          | Iw_metrics.V_gauge v -> [ (s.s_name, v) ]
          | Iw_metrics.V_hist hv ->
            let prev =
              match Iw_metrics.find old_snap s.s_name with
              | Some (Iw_metrics.V_hist p) -> Some p
              | _ -> None
            in
            let d = ring_delta_hist hv prev in
            let rate = float_of_int d.Iw_metrics.hv_count /. dt in
            if d.Iw_metrics.hv_count = 0 then [ (s.s_name ^ ":rate", rate) ]
            else
              [
                (s.s_name ^ ":rate", rate);
                (s.s_name ^ ":p50", Iw_metrics.hist_quantile d 0.5);
                (s.s_name ^ ":p99", Iw_metrics.hist_quantile d 0.99);
              ])
      new_snap
  in
  { Iw_ring.p_t = t1; p_dur = t1 -. t0; p_values = values }

(* Roll the ring if a window has elapsed.  Called at the end of request
   dispatch (outside the server lock) and from the Metrics_history handler
   (under it); the ring mutex is a leaf, so both orders are safe.  An idle
   server rolls on its next request — the point's [p_dur] then honestly
   exceeds the window. *)
let maybe_roll t =
  if Iw_metrics.enabled t.t_metrics then begin
    let now = Unix.gettimeofday () in
    if now >= t.t_ring_next then begin
      Mutex.lock t.t_ring_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.t_ring_mutex)
        (fun () ->
          if now >= t.t_ring_next then begin
            t.t_ring_next <- now +. Iw_ring.window_s t.t_ring;
            let snap = Iw_metrics.snapshot t.t_metrics in
            (match t.t_ring_last with
            | Some (t0, old) when now > t0 ->
              Iw_ring.push t.t_ring (ring_point ~t0 ~t1:now old snap)
            | _ -> ());
            t.t_ring_last <- Some (now, snap)
          end)
    end
  end

(* Bracket a write-ahead-log append as the WAL phase: it runs inside the
   service (lock-held) phase, and exclusive attribution means the fsync
   cost shows up as WAL, not service. *)
let wal_phase timer f =
  match timer with
  | None -> f ()
  | Some tm ->
    Iw_phase.enter tm Iw_phase.Wal;
    Fun.protect ~finally:(fun () -> Iw_phase.leave tm Iw_phase.Wal) f

(* Requests with no home segment: session lifecycle and whole-server
   introspection.  They run on the connection thread — never through a
   shard mailbox — touching only the sessions state (under [t.lock]) and,
   for the cross-shard scans, each shard's lock in turn. *)
let is_global : Iw_proto.request -> bool = function
  | Hello _ | Resume_session _ | Checkpoint _ | Enable_crc _ | Server_stats _
  | Segment_stats _ | Flight_recorder _ | Slow_log _ | Metrics_history _ ->
    true
  | Open_segment _ | Segment_meta _ | Read_lock _ | Read_release _
  | Write_lock _ | Write_release _ | Register_desc _ | Get_version _
  | Subscribe _ | Unsubscribe _ | Stat _ ->
    false

let handle_global ?timer t (req : Iw_proto.request) : Iw_proto.response =
  (* No shard lock is taken up front here, so bracket the work as Service
     by hand to keep phase coverage honest for the global variants. *)
  let service f =
    match timer with
    | None -> f ()
    | Some tm ->
      Iw_phase.enter tm Iw_phase.Service;
      Fun.protect ~finally:(fun () -> Iw_phase.leave tm Iw_phase.Service) f
  in
  service @@ fun () : Iw_proto.response ->
  match req with
  | Hello { arch } ->
    Mutex.lock t.lock;
    let session = t.next_session in
    t.next_session <- session + 1;
    Hashtbl.replace t.session_arch session arch;
    if t.lease_secs <> None then
      Hashtbl.replace t.session_last session (Unix.gettimeofday ());
    Mutex.unlock t.lock;
    R_hello { session }
  | Resume_session { session; arch } ->
    Mutex.lock t.lock;
    let known = Hashtbl.mem t.session_arch session in
    if known then Hashtbl.replace t.session_arch session arch;
    Mutex.unlock t.lock;
    if known then begin
      let held =
        Array.fold_left
          (fun acc sh ->
            with_shard_lock sh ~variant:"resume_session" (fun () ->
                Hashtbl.fold
                  (fun name seg acc ->
                    if seg.s_writer = Some session then name :: acc else acc)
                  sh.sh_segs acc))
          [] t.shards
      in
      Iw_metrics.incr t.t_sessions_resumed;
      R_resumed { held = List.sort compare held }
    end
    else R_error (Printf.sprintf "unknown session %d" session)
  | Checkpoint _ ->
    checkpoint t;
    R_ok
  | Enable_crc _ ->
    (* Acking is the negotiation: the reply still travels unprotected, then
       both sides flip their senders (see serve_conn and the client dial). *)
    R_ok
  | Server_stats _ ->
    (* The server's own registry plus the process-global transport registry:
       one snapshot describes the whole server process. *)
    R_server_stats
      (Iw_metrics.snapshot t.t_metrics
      @ Iw_metrics.snapshot (Iw_transport.metrics ()))
  | Segment_stats { session = _; segment } ->
    (* Just the {segment="..."} series, optionally narrowed to one segment —
       what iw-admin segstats renders.  Per-segment series carry exactly one
       label, so matching the rendered label set is exact. *)
    let keep =
      match segment with
      | Some name ->
        let suffix = Iw_metrics.with_label "" "segment" name in
        fun (s : Iw_metrics.sample) -> String.ends_with ~suffix s.s_name
      | None ->
        fun (s : Iw_metrics.sample) ->
          (match String.index_opt s.s_name '{' with
          | Some i ->
            String.length s.s_name - i > 9
            && String.sub s.s_name (i + 1) 9 = "segment=\""
          | None -> false)
    in
    R_segment_stats (List.filter keep (Iw_metrics.snapshot t.t_metrics))
  | Flight_recorder _ -> R_flight (Iw_flight.dump_string t.t_flight)
  | Slow_log { session = _; limit } ->
    (* limit = 0 means "everything retained". *)
    R_slow_log
      (if limit > 0 then Iw_slowlog.snapshot ~limit t.t_slowlog
       else Iw_slowlog.snapshot t.t_slowlog)
  | Metrics_history { session = _; limit } ->
    (* Roll first so an otherwise idle server still answers with a window
       covering the time since the last roll. *)
    maybe_roll t;
    let pts = Iw_ring.points t.t_ring in
    let n = List.length pts in
    R_metrics_history
      (if limit > 0 && n > limit then
         List.filteri (fun i _ -> i >= n - limit) pts
       else pts)
  | Open_segment _ | Segment_meta _ | Read_lock _ | Read_release _
  | Write_lock _ | Write_release _ | Register_desc _ | Get_version _
  | Subscribe _ | Unsubscribe _ | Stat _ ->
    (* [is_global] routed these to their shard; unreachable. *)
    R_error "internal: segment request on global path"

(* Segment-scoped dispatch, called with [sh]'s lock held — on the
   connection thread in inline mode, on the shard's worker domain in worker
   mode.  [sh] is the segment's owning shard; routing happened in
   [handle_routed], and every segment this arm touches lives in
   [sh.sh_segs]. *)
let handle_seg_locked ?timer t sh (req : Iw_proto.request) : Iw_proto.response =
  match req with
  | Open_segment { session = _; name; create } -> begin
    match Hashtbl.find_opt sh.sh_segs name with
    | Some seg -> R_segment { version = seg.s_version }
    | None ->
      if not create then R_error (Printf.sprintf "unknown segment %S" name)
      else begin
        Hashtbl.replace sh.sh_segs name (fresh_seg name);
        Atomic.incr sh.sh_nsegs;
        R_segment { version = 0 }
      end
  end
  | Segment_meta { session = _; name } ->
    let seg = seg_of sh name in
    let blocks =
      Serial_tree.fold
        (fun serial sb acc ->
          {
            Iw_proto.mb_serial = serial;
            mb_name = sb.sb_name;
            mb_desc_serial = sb.sb_desc_serial;
          }
          :: acc)
        seg.s_blocks []
      |> List.rev
    in
    R_meta
      {
        version = seg.s_version;
        descs = Iw_types.Registry.registered_since seg.s_registry 0;
        blocks;
      }
  | Read_lock { session; name; version; coherence } ->
    let seg = seg_of sh name in
    let recent_enough =
      version = seg.s_version
      || version > 0
         &&
         match coherence with
         | Full | Temporal _ -> false
         | Delta x -> seg.s_version - version <= x
         | Diff_pct pct ->
           seg.s_total_units > 0
           &&
        let counter =
          match Hashtbl.find_opt seg.s_counters session with
          | Some c -> !c
          | None ->
            (* Unknown session: be conservative, as the paper's server is. *)
            max_int
        in
        float_of_int counter /. float_of_int seg.s_total_units *. 100. <= pct
    in
    if Iw_metrics.enabled t.t_metrics then begin
      observe_version_lag t seg ~version;
      observe_staleness t seg ~version;
      observe_wasted_acquire t seg ~version
    end;
    if recent_enough then R_up_to_date
    else begin
      let diff = update_for t sh seg ~session ~since:version in
      if Iw_metrics.enabled t.t_metrics then note_diff_saved t seg diff;
      R_update diff
    end
  | Read_release _ -> R_ok
  | Write_lock { session; name; version } ->
    let seg = seg_of sh name in
    (* Lazy lease reclamation: a write lock leased to a session that has
       been quiet past its lease is taken from it here, at the moment a
       contender asks — no reaper thread.  The old holder's eventual
       Write_release finds no lock and no duplicate-release record, so the
       loss is surfaced to it (the client maps that to [Lock_lost]).  The
       last-seen table is sessions state: dip into the leaf [t.lock] for
       the read (shard lock → t.lock is the sanctioned order). *)
    (match (seg.s_writer, t.lease_secs) with
    | Some s, Some lease when s <> session ->
      let last =
        Mutex.lock t.lock;
        let v = Hashtbl.find_opt t.session_last s in
        Mutex.unlock t.lock;
        v
      in
      let quiet_for =
        match last with
        | Some last -> Unix.gettimeofday () -. last
        | None -> infinity
      in
      if quiet_for > lease then begin
        seg.s_writer <- None;
        Iw_metrics.incr t.t_locks_reclaimed;
        Iw_flight.record t.t_flight ~segment:name ~version:seg.s_version
          "lock_reclaim"
      end
    | _ -> ());
    begin
      match seg.s_writer with
      | Some s when s <> session ->
        if
          Iw_metrics.enabled t.t_metrics
          && not (Hashtbl.mem seg.s_busy_since session)
        then Hashtbl.replace seg.s_busy_since session (Iw_metrics.now_us ());
        R_busy
      | Some _ | None ->
        if Iw_metrics.enabled t.t_metrics then begin
          observe_version_lag t seg ~version;
          observe_wasted_acquire t seg ~version;
          (* Contended waits only: the retry loop's first R_busy started the
             clock, the grant stops it. *)
          match Hashtbl.find_opt seg.s_busy_since session with
          | Some since ->
            Hashtbl.remove seg.s_busy_since session;
            Iw_metrics.observe
              (seg_hist_us t seg "iw_seg_wl_wait_us"
                 "Write-lock wait under contention, first busy to grant")
              (Iw_metrics.now_us () -. since)
          | None -> ()
        end;
        seg.s_writer <- Some session;
        if version = seg.s_version then R_granted None
        else begin
          let diff = update_for t sh seg ~session ~since:version in
          if Iw_metrics.enabled t.t_metrics then note_diff_saved t seg diff;
          R_granted (Some diff)
        end
    end
  | Write_release { session; name; diff } ->
    let seg = seg_of sh name in
    begin
      match seg.s_writer with
      | Some s when s = session ->
        if t.validate_diffs then begin
          match Iw_wire_check.check (ctx_of_seg seg) diff with
          | [] -> ()
          | issues ->
            (* Refuse the whole diff before any of it is applied, and drop
               the write lock so the segment is not wedged. *)
            seg.s_writer <- None;
            raise
              (Reject
                 (Printf.sprintf "invalid diff: %s"
                    (String.concat "; "
                       (List.map
                          (fun i -> Format.asprintf "%a" Iw_wire_check.pp_issue i)
                          issues))))
        end;
        if Iw_metrics.enabled t.t_metrics then note_diff_saved t seg diff;
        let before = seg.s_version in
        let v = apply_diff t seg diff in
        (* Log before acking: once R_version goes out, the commit must
           survive a crash.  An append failure (disk full, EIO) propagates
           and kills the connection — no ack without a durable record. *)
        (match sh.sh_store with
        | Some store when v > before ->
          wal_phase timer (fun () ->
              (* lck-ok: LCK002 log-before-ack requires the append inside the
                 commit's critical section; Iw_model invariant MDL02 is the
                 spec.  Under group commit the append returns without its
                 fsync — the ack is then parked until the batch flush makes
                 the record durable, so the discipline holds. *)
              Iw_store.append store ~segment:name
                (Iw_store.Commit { session; version = v; diff }))
        | _ -> ());
        seg.s_writer <- None;
        Hashtbl.replace seg.s_releases session (diff.Iw_wire.Diff.from_version, v);
        if v > before then begin
          (* Snapshot the subscribers' push closures under the sessions
             lock, then send without it: conn.send serializes internally,
             and holding t.lock across the sends would re-serialize every
             shard's notifications on one mutex.  With group commit the
             notification can precede the batch fsync — notifications are
             refresh hints, not durability signals (DESIGN.md, Threading &
             sharding). *)
          let pushes =
            Mutex.lock t.lock;
            let ps =
              Hashtbl.fold
                (fun subscriber () acc ->
                  if subscriber <> session then
                    match Hashtbl.find_opt t.notifiers subscriber with
                    | Some push -> push :: acc
                    | None -> acc
                  else acc)
                seg.s_subscribers []
            in
            Mutex.unlock t.lock;
            ps
          in
          List.iter
            (fun push ->
              try push { Iw_proto.n_segment = name; n_version = v }
              with Iw_transport.Closed -> ())
            pushes
        end;
        R_version v
      | Some _ | None -> (
        (* A release resent after a reconnect may duplicate one that was
           applied just before the connection died; recognize it by the
           session and the diff's base version and return the same answer
           instead of refusing. *)
        match Hashtbl.find_opt seg.s_releases session with
        | Some (from, v) when from = diff.Iw_wire.Diff.from_version -> R_version v
        | _ -> R_error "write lock not held")
    end
  | Register_desc { session = _; name; desc } ->
    let seg = seg_of sh name in
    let existing = Iw_types.Registry.serial_of seg.s_registry desc in
    let serial = Iw_types.Registry.register seg.s_registry desc in
    if existing = None then begin
      seg.s_desc_versions <- (serial, seg.s_version) :: seg.s_desc_versions;
      (* Descriptors registered since the checkpoint must survive too: a
         replayed Create diff needs its descriptor already adopted. *)
      match sh.sh_store with
      | Some store ->
        wal_phase timer (fun () ->
            (* lck-ok: LCK002 descriptor registration must be durable before
               R_serial goes out, same log-before-ack discipline as commits
               (group commit may park the ack until the batch flush). *)
            Iw_store.append store ~segment:name
              (Iw_store.Desc { serial; version = seg.s_version; desc }))
      | None -> ()
    end;
    R_serial serial
  | Get_version { session = _; name } -> R_version (seg_of sh name).s_version
  | Subscribe { session; name } ->
    Hashtbl.replace (seg_of sh name).s_subscribers session ();
    R_ok
  | Unsubscribe { session; name } ->
    Hashtbl.remove (seg_of sh name).s_subscribers session;
    R_ok
  | Stat { session = _; name } ->
    let seg = seg_of sh name in
    R_stat
      {
        st_version = seg.s_version;
        st_blocks = Serial_tree.cardinal seg.s_blocks;
        st_total_units = seg.s_total_units;
        st_diff_cache_hits = t.t_stats.diff_cache_hits;
        st_diff_cache_misses = t.t_stats.diff_cache_misses;
      }
  | Hello _ | Resume_session _ | Checkpoint _ | Enable_crc _ | Server_stats _
  | Segment_stats _ | Flight_recorder _ | Slow_log _ | Metrics_history _ ->
    (* [is_global] routed these to the connection thread; unreachable. *)
    R_error "internal: global request on shard path"

(* What the flight recorder and span args can say about a request/response
   pair without holding the server lock. *)
let request_segment : Iw_proto.request -> string = function
  | Hello _ | Checkpoint _ | Server_stats _ | Flight_recorder _ | Resume_session _
  | Enable_crc _ | Slow_log _ | Metrics_history _ ->
    ""
  | Segment_stats { segment; _ } -> Option.value segment ~default:""
  | Open_segment { name; _ }
  | Segment_meta { name; _ }
  | Read_lock { name; _ }
  | Read_release { name; _ }
  | Write_lock { name; _ }
  | Write_release { name; _ }
  | Register_desc { name; _ }
  | Get_version { name; _ }
  | Stat { name; _ }
  | Subscribe { name; _ }
  | Unsubscribe { name; _ } -> name

(* Route one request.  Global requests run on this thread; segment-scoped
   requests go to the segment's owning shard — dispatched inline under the
   shard's instrumented lock when the shard has no worker (domains = 1, the
   pre-shard fast path), or through the shard's mailbox when it does.  The
   wait and hold show up in the lock histograms (and in the request's phase
   timer as Lock_wait/Service) attributed to this variant and segment;
   mailbox queueing counts as lock wait, because that is what it is in the
   sharded design — time between asking for the shard and holding it. *)
(* ---- Overload state machine ----

   Per shard, three states with hysteresis, driven by the mailbox depth
   against the admission cap:

     normal    --depth >= 50% cap-->  shedding  --depth >= 85%-->  read-only
     normal  <--depth <= 25% cap--  shedding  <--depth <= 60%--  read-only

   Shedding drops the lowest-value work first: Delta/Temporal reads are
   answered inline from the last committed snapshot (they tolerate
   staleness by contract) instead of queueing behind writes.  Read-only
   additionally refuses {e new} write locks with a busy reply — writers
   already holding a lock still release (the urgent lane), so the queue
   drains instead of wedging. *)
let overload_update t sh exec =
  match t.t_queue_max with
  | None -> ()
  | Some cap ->
    let depth = Iw_shard.pending exec in
    let st = Atomic.get sh.sh_state in
    let st' =
      match st with
      | 0 -> if depth * 100 >= cap * 50 then 1 else 0
      | 1 ->
        if depth * 100 >= cap * 85 then 2
        else if depth * 100 <= cap * 25 then 0
        else 1
      | _ ->
        if depth * 100 <= cap * 25 then 0
        else if depth * 100 <= cap * 60 then 1
        else 2
    in
    if st' <> st then Atomic.set sh.sh_state st'

(* Retry hint for a shed reply: proportional to the depth the request found
   (deeper queue, longer back-off), clamped to something a client loop can
   live with. *)
let busy_hint_ms depth = max 5 (min 2000 (depth / 4))

(* A read that a shedding shard may answer inline from the last committed
   snapshot: the relaxed coherence models tolerate staleness by contract
   (paper, Section 3.2), so serving them without queueing sheds queue load
   at zero correctness cost.  Full and Diff_pct reads still queue — Full
   promises the current version, Diff_pct consults per-session counters the
   handler maintains. *)
let snapshot_readable : Iw_proto.request -> bool = function
  | Read_lock { coherence = Delta _ | Temporal _; _ } -> true
  | _ -> false

let handle_routed ?deadline_us ?timer t req =
  (* Racy int bump, read only by the requests probe: taking a lock for it
     would re-create the global serialization the shards removed. *)
  t.t_stats.requests <- t.t_stats.requests + 1;
  (* Any request from a session refreshes its inactivity lease. *)
  (match t.lease_secs with
  | None -> ()
  | Some _ -> (
    match Iw_proto.request_session req with
    | Some session ->
      Mutex.lock t.lock;
      Hashtbl.replace t.session_last session (Unix.gettimeofday ());
      Mutex.unlock t.lock
    | None -> ()));
  let protect f : Iw_proto.response =
    try f () with
    | Reject msg -> Iw_proto.R_error msg
    | Iw_wire.Malformed msg -> Iw_proto.R_error ("malformed: " ^ msg)
  in
  if is_global req then protect (fun () -> handle_global ?timer t req)
  else begin
    let variant = Iw_proto.request_variant req in
    let segment = request_segment req in
    let sh = shard_of t segment in
    (* Deterministic fault injection: inflate this shard's apparent service
       time (slow@shard in the IW_FAULT plan) so a test can saturate one
       shard on demand without real load. *)
    let slow_shard () =
      match t.t_slow_shard with
      | Some (id, dur) when id = sh.sh_id -> Unix.sleepf dur
      | _ -> ()
    in
    let past_deadline () =
      match deadline_us with
      | Some d -> Iw_metrics.now_us () > d
      | None -> false
    in
    (* Deadline shed: the budget the client stamped has already run out, so
       the reply cannot arrive in time — refuse before spending service or
       WAL work.  Nothing was applied, so a retry is always safe (and a
       retried release that {e was} applied earlier is answered by the
       dedup table, not here). *)
    let expired counter phase =
      Iw_metrics.incr counter;
      Iw_flight.record t.t_flight ~segment ("expired:" ^ phase ^ ":" ^ variant);
      Iw_proto.R_expired { phase }
    in
    (* A release is the one request that {e frees} resources: it must not be
       deadline-shed at dequeue (only at the last moment before its WAL
       cost) and it bypasses the admission cap, or a full queue could wedge
       the very locks its backlog is waiting on. *)
    let is_release =
      match req with Iw_proto.Write_release _ -> true | _ -> false
    in
    (* The admission gate targets the data path — the lock acquires that
       start transactions and the work queued behind them.  Everything else
       on the shard is control plane (session setup, metadata, releases,
       subscriptions): refusing those can wedge a client that is trying to
       finish or even just to leave.  Letting them bypass the cap keeps the
       mailbox bounded all the same — each connection has at most one call
       outstanding, so the overflow is at most one request per live
       connection. *)
    let gated =
      match req with
      | Iw_proto.Read_lock _ | Iw_proto.Write_lock _ -> true
      | _ -> false
    in
    let dispatch_locked () =
      if is_release && past_deadline () then expired t.t_expired_wal "wal"
      else begin
        slow_shard ();
        protect (fun () -> handle_seg_locked ?timer t sh req)
      end
    in
    match sh.sh_exec with
    | None ->
      Iw_locked.with_lock sh.sh_locked ~variant ~segment ?timer (fun () ->
          if (not is_release) && past_deadline () then
            expired t.t_expired_queue "queue"
          else dispatch_locked ())
    | Some exec ->
      overload_update t sh exec;
      let shed ~reason counter =
        Iw_metrics.incr counter;
        Iw_flight.record t.t_flight ~segment ("shed:" ^ reason ^ ":" ^ variant);
        Iw_proto.R_busy_hint { retry_after_ms = busy_hint_ms (Iw_shard.pending exec) }
      in
      let state = Atomic.get sh.sh_state in
      let is_new_write =
        match req with Iw_proto.Write_lock _ -> true | _ -> false
      in
      if state = 2 && is_new_write then shed ~reason:"read_only" t.t_shed_read_only
      else begin
        (* Shedding tier 1: relaxed-coherence reads are answered inline from
           the last committed snapshot instead of queueing behind writes —
           unless this segment has an un-fsynced version in the open batch,
           which a read must never expose (the per-segment check is what
           lets reads on clean segments proceed while a sibling's release is
           parked for the group fsync). *)
        let inline_read =
          if state >= 1 && snapshot_readable req then
            Iw_locked.with_lock sh.sh_locked ~variant ~segment ?timer (fun () ->
                let durable =
                  match sh.sh_store with
                  | Some store ->
                    not (Iw_store.batch_dirty_segment store ~segment)
                  | None -> true
                in
                if durable then begin
                  Iw_metrics.incr t.t_snapshot_reads;
                  Some (protect (fun () -> handle_seg_locked ?timer t sh req))
                end
                else None)
          else None
        in
        match inline_read with
        | Some resp -> resp
        | None -> (
          (* Worker dispatch: hand the request (and its phase timer — the
             mailbox's completion signalling synchronizes the handoff both
             ways) to the shard's domain.  [extra_wait_us] folds the queue
             wait into the shard's lock-wait histograms; Iw_phase.add
             credits it to the timer, which sat with no phase open while
             queued. *)
          let t_enq = Iw_metrics.now_us () in
          let job_deferred = ref false in
          let deferred_at = ref 0. in
          try
            let resp =
              Iw_shard.run exec ~urgent:(not gated)
                ~defer:(fun () ->
                  if !job_deferred then deferred_at := Iw_metrics.now_us ();
                  !job_deferred)
                (fun () ->
                  if (not is_release) && past_deadline () then
                    expired t.t_expired_queue "queue"
                  else begin
                    let wait_us = Iw_metrics.now_us () -. t_enq in
                    (match timer with
                    | Some tm -> Iw_phase.add tm Iw_phase.Lock_wait wait_us
                    | None -> ());
                    Iw_locked.with_lock sh.sh_locked ~variant ~segment
                      ~extra_wait_us:wait_us ?timer (fun () ->
                        (* Open (or join) the shard's group-commit batch:
                           appends under [Always] defer their fsync to the
                           batch flush. *)
                        (match sh.sh_store with
                        | Some store -> Iw_store.begin_batch store
                        | None -> ());
                        let resp = dispatch_locked () in
                        (* Deferral is decided under the lock — the batch's
                           dirty set is shard state (checkpoints prune it
                           under this same lock).  Per segment: a completed
                           request only waits for the batch fsync when its
                           {e own} segment has an un-fsynced append in it —
                           a read on a clean segment exposes nothing by
                           completing early. *)
                        (match sh.sh_store with
                        | Some store ->
                          job_deferred :=
                            Iw_store.batch_dirty_segment store ~segment
                        | None -> ());
                        resp)
                  end)
            in
            (* A deferred completion spent its tail waiting on the batch
               fsync: credit it to the WAL phase, where a synchronous fsync
               would have landed. *)
            (match timer with
            | Some tm when !job_deferred ->
              Iw_phase.add tm Iw_phase.Wal (Iw_metrics.now_us () -. !deferred_at)
            | _ -> ());
            resp
          with Iw_shard.Overloaded _ ->
            (* Admission gate: the mailbox is at IW_SHARD_QUEUE_MAX.  The
               request was never queued; refuse it now, bounding both queue
               memory and the queueing delay of everything already
               accepted. *)
            shed ~reason:"queue_full" t.t_shed_queue_full)
      end
  end

let response_version : Iw_proto.response -> int = function
  | R_segment { version } | R_meta { version; _ } | R_version version -> version
  | R_update diff | R_granted (Some diff) -> diff.Iw_wire.Diff.to_version
  | R_stat st -> st.Iw_proto.st_version
  | R_hello _ | R_up_to_date | R_granted None | R_busy | R_serial _ | R_ok
  | R_error _ | R_server_stats _ | R_segment_stats _ | R_flight _ | R_resumed _
  | R_slow_log _ | R_metrics_history _ | R_busy_hint _ | R_expired _ -> 0

(* Fold one finished request's phase timer into the observability state:
   per-phase registry histograms (exact sums, conservative quantiles — what
   the contention view reads), the exact per-(variant, phase) Iw_hist
   accumulator ([iwbench]'s [server.*_us_per_req]), the end-to-end total
   histogram, and a lazy ring roll.  Called by serve_conn after the reply
   frame is written (so the reply phase is included) and by [handle] itself
   for direct links, which have no transport phases. *)
let finish_request t ~variant timer =
  if Iw_metrics.enabled t.t_metrics then begin
    let total = Iw_phase.total_us timer in
    Iw_metrics.observe
      (Iw_metrics.histogram_us t.t_metrics
         ~help:"End-to-end request latency, arrival to reply written"
         "iw_server_request_total_us")
      total;
    List.iter
      (fun p ->
        Iw_metrics.observe
          (Iw_metrics.histogram_us t.t_metrics
             ~help:"Exclusive request time by lifecycle phase"
             (Iw_metrics.with_label "iw_server_phase_us" "phase" (Iw_phase.name p)))
          (Iw_phase.elapsed_us timer p))
      Iw_phase.phases;
    Iw_phase.record t.t_phase ~variant ~total_us:total timer;
    maybe_roll t
  end

(* Per-variant dispatch latency, span adoption, and flight recording.  The
   registry's own registration lock makes the histogram lookup safe from
   concurrent connection threads, and registration is idempotent, so there
   is no per-variant cache to race on.  When a request arrives with a trace
   context, the dispatch span joins the client's trace: same trace_id, the
   client's span as parent.

   With [timer] (serve_conn passes one started at frame arrival), phase
   attribution covers the whole connection-side lifecycle and the caller
   finishes the timer after the reply is written; without one, a fresh
   timer brackets just the dispatch and is finished here — the direct-link
   path, where decode/reply phases do not exist. *)
let handle ?ctx ?deadline_us ?timer t req =
  let metrics_on = Iw_metrics.enabled t.t_metrics in
  let trace_on = Iw_trace.enabled () in
  let owns_timer = timer = None && metrics_on in
  let timer = if owns_timer then Some (Iw_phase.start ()) else timer in
  let variant = Iw_proto.request_variant req in
  let seq = match ctx with Some c -> c.Iw_proto.tc_seq | None -> 0 in
  if trace_on then begin
    let args = [ ("variant", variant) ] in
    let args =
      match ctx with
      | None -> args
      | Some c ->
        ("trace_id", Iw_trace.pp_id c.Iw_proto.tc_trace_id)
        :: ("parent_span_id", Iw_trace.pp_id c.Iw_proto.tc_span_id)
        :: ("span_id", Iw_trace.pp_id (Iw_trace.next_id ()))
        :: ("seq", string_of_int seq)
        :: args
    in
    Iw_trace.span_begin ~args "server.handle"
  end;
  let t0 = Iw_metrics.now_us () in
  let resp =
    try handle_routed ?deadline_us ?timer t req
    with e ->
      (* handle_routed converts Reject/Malformed to R_error, so anything
         escaping it is the unexplained kind of failure the flight
         recorder exists for. *)
      Iw_flight.record t.t_flight ~seq ~segment:(request_segment req)
        ~latency_us:(Iw_metrics.now_us () -. t0)
        (variant ^ "!" ^ Printexc.to_string e);
      Iw_flight.dump ~reason:("uncaught in " ^ variant) t.t_flight;
      if trace_on then Iw_trace.span_end "server.handle";
      raise e
  in
  let dt = Iw_metrics.now_us () -. t0 in
  if metrics_on then
    Iw_metrics.observe
      (Iw_metrics.histogram_us t.t_metrics
         ~help:"Request dispatch latency by request variant"
         (Iw_metrics.with_label "iw_server_request_us" "variant" variant))
      dt;
  (* The slow log takes its own short mutex, never the server lock — the
     dispatch is already over.  Trace ids come straight from the envelope,
     so a slow entry can be found in the matching Perfetto trace. *)
  let phase_us p =
    match timer with Some tm -> Iw_phase.elapsed_us tm p | None -> 0.
  in
  (match req with
  | Iw_proto.Slow_log _ -> () (* reading the log must not pollute it *)
  | _ ->
    let trace_id, span_id =
      match ctx with
      | Some c -> (c.Iw_proto.tc_trace_id, c.Iw_proto.tc_span_id)
      | None -> (0, 0)
    in
    (* A request that carried a budget and was shed, or that completed
       only after its budget ran out, is flagged so [iw-admin slowlog]
       can tell "slow" from "slow and already useless". *)
    let deadline_missed =
      match deadline_us with
      | None -> false
      | Some d -> (
        match resp with
        | Iw_proto.R_expired _ -> true
        | _ -> Iw_metrics.now_us () > d)
    in
    Iw_slowlog.observe t.t_slowlog ~variant ~segment:(request_segment req)
      ~session:(Option.value (Iw_proto.request_session req) ~default:0)
      ~seq ~trace_id ~span_id
      ~wait_us:(phase_us Iw_phase.Lock_wait)
      ~service_us:(phase_us Iw_phase.Service)
      ~wal_us:(phase_us Iw_phase.Wal) ~deadline_missed dt);
  Iw_flight.record t.t_flight ~seq ~segment:(request_segment req)
    ~version:(response_version resp) ~latency_us:dt variant;
  (* The phase breakdown lands on the timeline as an instant next to the
     dispatch span (span_end carries no args). *)
  if trace_on && timer <> None then
    Iw_trace.instant
      ~args:
        (("variant", variant)
        :: List.map
             (fun p ->
               (Iw_phase.name p ^ "_us", Printf.sprintf "%.0f" (phase_us p)))
             Iw_phase.phases)
      "server.phases";
  if trace_on then Iw_trace.span_end "server.handle";
  (if owns_timer then
     match timer with
     | Some tm -> finish_request t ~variant tm
     | None -> ());
  resp

let direct_link t =
  {
    Iw_proto.call = (fun ?ctx req -> handle ?ctx t req);
    close = (fun () -> ());
    description = "direct";
  }

let register_notifier t ~session ~push =
  Mutex.lock t.lock;
  Hashtbl.replace t.notifiers session push;
  Mutex.unlock t.lock

(* Drop [session]'s change subscriptions from every segment this shard
   owns.  Caller holds the shard's lock. *)
let drop_subscriptions_locked sh session =
  Hashtbl.iter (fun _ seg -> Hashtbl.remove seg.s_subscribers session) sh.sh_segs

let unregister_session ?only_if t session =
  Mutex.lock t.lock;
  (* [only_if] guards against a stale connection's cleanup racing a
     resumed session: if another connection has re-registered its own
     notifier for this session, the old connection owns nothing here and
     must not tear down the new registration or its subscriptions. *)
  let owns =
    match (only_if, Hashtbl.find_opt t.notifiers session) with
    | None, _ -> true
    | Some p, Some q -> p == q
    | Some _, None -> false
  in
  if owns then Hashtbl.remove t.notifiers session;
  Mutex.unlock t.lock;
  (* Subscriptions live in shard state: sweep each shard under its own
     lock, after t.lock is gone (never the reverse order). *)
  if owns then
    Array.iter
      (fun sh ->
        with_shard_lock sh ~variant:"unregister_session" (fun () ->
            drop_subscriptions_locked sh session))
      t.shards

let release_session_locks t session =
  Array.iter
    (fun sh ->
      with_shard_lock sh ~variant:"release_session_locks" (fun () ->
          Hashtbl.iter
            (fun _ seg ->
              if seg.s_writer = Some session then seg.s_writer <- None)
            sh.sh_segs))
    t.shards

(* Serve a tagged-frame connection: responses go out as tag-0 frames and
   change notifications for this connection's sessions as tag-1 frames (the
   client side is [Iw_proto.demux_link]). *)
let serve_conn t conn =
  (* Accept CRC-protected frames from the first one onward; start protecting
     our own frames once an Enable_crc request has been acked.  The wrapper
     sits above whatever the caller hands us (including a fault-injecting
     one), so injected garbling lands on protected bytes and is caught. *)
  let conn, crc = Iw_transport.crc_conn conn in
  let sessions = ref [] in
  (try
     let rec loop () =
       let frame = conn.Iw_transport.recv () in
       (* The phase timer starts at frame arrival: decode, lock-wait,
          service, WAL, and reply-write below account every microsecond of
          this request's server-side life, exclusively. *)
       let timer = Iw_phase.start () in
       Iw_phase.enter timer Iw_phase.Decode;
       let r = Iw_wire.Reader.of_string frame in
       (* Two-phase decode: the envelope survives a malformed body, so the
          error reply and flight-recorder entry keep the request's seq —
          exactly the breadcrumb a post-mortem needs. *)
       let env, req_result =
         match Iw_proto.decode_envelope r with
         | exception Iw_wire.Malformed msg ->
           ({ Iw_proto.env_ctx = None; env_budget_ms = None }, Error msg)
         | env -> (
           env,
           match Iw_proto.decode_request r with
           | req -> Ok req
           | exception Iw_wire.Malformed msg -> Error msg)
       in
       Iw_phase.leave timer Iw_phase.Decode;
       let ctx = env.Iw_proto.env_ctx in
       let seq = Option.map (fun c -> c.Iw_proto.tc_seq) ctx in
       (match req_result with
       | Ok req ->
         (* The stamped budget counts from arrival: the absolute deadline is
            anchored here, so queue time spent before dequeue is charged
            against it — exactly the time the expiry check exists to shed. *)
         let deadline_us =
           Option.map
             (fun b -> Iw_metrics.now_us () +. (float_of_int b *. 1000.))
             env.Iw_proto.env_budget_ms
         in
         let resp = handle ?ctx ?deadline_us ~timer t req in
         (* Notifications share the connection; conn.send is thread-safe
            and registration must take the server lock, because handlers
            iterate the notifier table while holding it. *)
         let attach session =
           let push n = conn.Iw_transport.send (Iw_proto.notification_frame n) in
           sessions := (session, push) :: !sessions;
           register_notifier t ~session ~push
         in
         (match resp with
         | Iw_proto.R_hello { session } -> attach session
         | Iw_proto.R_resumed _ -> (
           match req with
           | Iw_proto.Resume_session { session; _ } -> attach session
           | _ -> ())
         | _ -> ());
         Iw_phase.enter timer Iw_phase.Reply;
         conn.Iw_transport.send (Iw_proto.response_frame ?seq resp);
         Iw_phase.leave timer Iw_phase.Reply;
         (match (req, resp) with
         | Iw_proto.Enable_crc _, Iw_proto.R_ok -> Iw_transport.enable_send crc
         | _ -> ());
         finish_request t ~variant:(Iw_proto.request_variant req) timer
       | Error msg ->
         Iw_flight.record t.t_flight ?seq "decode_error";
         Iw_flight.dump ~reason:("request decode failure: " ^ msg) t.t_flight;
         conn.Iw_transport.send
           (Iw_proto.response_frame ?seq (Iw_proto.R_error ("malformed: " ^ msg))));
       loop ()
     in
     loop ()
   with
  | Iw_transport.Closed | End_of_file -> ()
  | Iw_transport.Corrupt msg ->
    (* A failed frame checksum: drop the connection (the client re-dials)
       and leave a breadcrumb, but no post-mortem dump — under fault
       injection this is routine, not a crash. *)
    Iw_flight.record t.t_flight ("frame_corrupt:" ^ msg)
  | e ->
    (* A connection thread dying of anything else is the crash the ring
       buffer was recording for. *)
    Iw_flight.dump ~reason:("serve_conn: " ^ Printexc.to_string e) t.t_flight);
  (* Without a lease, a dead connection means dead sessions: drop their
     locks immediately (the pre-lease behavior).  With one, locks survive
     the disconnect so the client can resume; a session that never comes
     back loses them to lazy reclamation in Write_lock. *)
  if t.lease_secs = None then
    List.iter (fun (session, _) -> release_session_locks t session) !sessions;
  List.iter (fun (session, push) -> unregister_session ~only_if:push t session)
    !sessions;
  conn.Iw_transport.close ()

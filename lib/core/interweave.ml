module Arch = Iw_arch
module Types = Iw_types
module Mem = Iw_mem
module Wire = Iw_wire
module Xdr = Iw_xdr
module Proto = Iw_proto
module Transport = Iw_transport
module Server = Iw_server
module Client = Iw_client
module Metrics = Iw_metrics
module Trace = Iw_trace
module Flight = Iw_flight
module Obs_json = Iw_obs_json
module Fault = Iw_fault
module Store = Iw_store

type server = Iw_server.t

type client = Iw_client.t

type seg = Iw_client.seg

type addr = Iw_mem.addr

module Desc = struct
  let char = Types.Prim Iw_arch.Char

  let short = Types.Prim Iw_arch.Short

  let int = Types.Prim Iw_arch.Int

  let long = Types.Prim Iw_arch.Long

  let float = Types.Prim Iw_arch.Float

  let double = Types.Prim Iw_arch.Double

  let string n = Types.Prim (Iw_arch.String n)

  let ptr name = Types.Ptr name

  let opaque_ptr = Types.Prim Iw_arch.Pointer

  let array d n = Types.Array (d, n)

  let field fname ftype = { Types.fname; ftype }

  let structure fields = Types.Struct (Array.of_list fields)
end

let start_server ?checkpoint_dir ?domains ?lease_secs ?fsync () =
  Iw_server.create ?checkpoint_dir ?domains ?lease_secs ?fsync ()

(* IW_SANITIZE=1 in the environment attaches a collecting Iw_sanitizer to
   every client these helpers build, so a whole program or test suite can be
   swept for lock-discipline violations without code changes.  Reads outside
   critical sections are tolerated (harnesses routinely verify results after
   releasing their locks); everything else reports.  Findings are dumped to
   stderr at process exit. *)
let sanitize_env = Iw_metrics.env_flag "IW_SANITIZE" ~default:false

let maybe_sanitize c =
  if sanitize_env then begin
    let s = Iw_sanitizer.attach ~policy:Iw_sanitizer.Collect ~strict_reads:false c in
    at_exit (fun () ->
        match Iw_sanitizer.reports s with
        | [] -> ()
        | rs ->
          Format.eprintf "IW_SANITIZE: %d violation(s)@." (List.length rs);
          List.iter (fun r -> Format.eprintf "  %a@." Iw_sanitizer.pp_report r) rs)
  end;
  c

let direct_client ?arch server =
  let c = Iw_client.connect ?arch (Iw_server.direct_link server) in
  Iw_server.register_notifier server ~session:(Iw_client.session c)
    ~push:(Iw_client.handle_notification c);
  Iw_client.enable_notifications c;
  maybe_sanitize c

(* Clients behind a byte transport receive notifications through the tagged
   demux link; the forward reference is resolved once the client exists.
   The link's I/O callback feeds actual framed byte counts into the client's
   stats (the Hello handshake's bytes accumulate in the pre-counters until
   the client exists), replacing the payload-only approximation direct
   links are limited to.

   [dial] produces a fresh connection each time it is called: once for the
   initial link, and again on every recovery ([Iw_client.set_reconnect]).
   When a fault plan is in force — [fault], or the [IW_FAULT] environment
   variable — each dialed connection is wrapped in the injector (one armed
   injector for the client's lifetime, so frame counters and the one-shot
   close survive re-dials), and calls get a default 1 s deadline so a
   dropped frame turns into [Timeout]-and-recover instead of a hang. *)
let demux_client ?arch ?fault ?call_timeout ?flight ~busy_wait dial =
  let client = ref None in
  let pre_sent = ref 0 and pre_received = ref 0 in
  let on_notify n =
    match !client with Some c -> Iw_client.handle_notification c n | None -> ()
  in
  let on_io ~dir bytes =
    match !client with
    | Some c ->
      let s = Iw_client.stats c in
      (match dir with
      | `Sent -> s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + bytes
      | `Received -> s.Iw_client.bytes_received <- s.Iw_client.bytes_received + bytes)
    | None -> (
      match dir with
      | `Sent -> pre_sent := !pre_sent + bytes
      | `Received -> pre_received := !pre_received + bytes)
  in
  let plan = match fault with Some _ -> fault | None -> Iw_fault.env_plan () in
  let injector = Option.map Iw_fault.arm plan in
  (* Every request gets a deadline: a reply lost in transit (a faulty
     network, or a server running --fault-plan) must trigger recovery, not
     hang the caller.  Tight when this client injects faults itself, and
     generous — handlers are in-memory-fast, lock contention is R_busy
     polling, so 30 s is far beyond any honest reply — otherwise. *)
  let call_timeout =
    match (call_timeout, plan) with
    | (Some _ as t), _ -> t
    | None, Some _ -> Some 1.0
    | None, None -> Some 30.0
  in
  (* Each dialed connection negotiates frame CRCs before anything else: the
     CRC wrapper sits above the fault injector, so injected garbling lands on
     protected bytes and is detected instead of decoding into garbage.  A
     negotiation eaten by the fault plan (timeout, drop, close, a garbled
     reply) re-dials. *)
  let rec mk_retry k =
    let conn = dial () in
    let conn =
      match injector with
      | None -> conn
      | Some inj -> Iw_fault.wrap ?flight inj conn
    in
    match Iw_proto.crc_link ~on_io ?call_timeout conn ~on_notify with
    | link -> link
    | exception
        ((Iw_transport.Closed | Iw_transport.Timeout | Iw_transport.Corrupt _
         | End_of_file)
         as e) ->
      if k < 5 then mk_retry (k + 1) else raise e
  in
  let mk () = mk_retry 0 in
  (* A fault plan can eat the very first exchange; each retry dials afresh. *)
  let rec handshake k =
    let link = mk () in
    match Iw_client.connect ?arch ~busy_wait link with
    | c -> c
    | exception
        ((Iw_transport.Closed | Iw_transport.Timeout | End_of_file | Iw_client.Error _)
         as e) ->
      (try link.Iw_proto.close () with _ -> ());
      if k < 3 then handshake (k + 1) else raise e
  in
  let c = handshake 0 in
  client := Some c;
  let s = Iw_client.stats c in
  s.Iw_client.bytes_sent <- s.Iw_client.bytes_sent + !pre_sent;
  s.Iw_client.bytes_received <- s.Iw_client.bytes_received + !pre_received;
  Iw_client.set_framed_byte_accounting c true;
  Iw_client.enable_notifications c;
  Iw_client.set_reconnect c ~dial:mk;
  maybe_sanitize c

let loopback_client ?arch ?fault ?call_timeout server =
  let dial () =
    let client_end, server_end = Iw_transport.loopback () in
    let serve () = Iw_server.serve_conn server server_end in
    ignore (Thread.create serve () : Thread.t);
    client_end
  in
  demux_client ?arch ?fault ?call_timeout
    ~flight:(Iw_server.flight server)
    ~busy_wait:(Some 0.002) dial

let tcp_client ?arch ?fault ?call_timeout ~host ~port () =
  demux_client ?arch ?fault ?call_timeout ~busy_wait:(Some 0.002) (fun () ->
      Iw_transport.tcp_connect ~host ~port)

let open_segment = Iw_client.open_segment

let malloc = Iw_client.malloc

let free = Iw_client.free

let rl_acquire = Iw_client.rl_acquire

let rl_release = Iw_client.rl_release

let wl_acquire = Iw_client.wl_acquire

let wl_release = Iw_client.wl_release

let ptr_to_mip = Iw_client.ptr_to_mip

let mip_to_ptr = Iw_client.mip_to_ptr

let set_coherence = Iw_client.set_coherence

let with_read_lock g f =
  rl_acquire g;
  Fun.protect ~finally:(fun () -> rl_release g) f

let wl_abort = Iw_client.wl_abort

let with_write_lock g f =
  wl_acquire g;
  Fun.protect ~finally:(fun () -> wl_release g) f

let atomically g f =
  wl_acquire g;
  match f () with
  | v ->
    wl_release g;
    Ok v
  | exception e ->
    wl_abort g;
    Error e

type path_elem =
  | F of string
  | I of int

(* Recompute field offsets with the same algorithm as [Iw_types.layout] so
   that paths resolve to exactly the client's local layout. *)
let offset c desc path =
  let conv = Types.local (Iw_client.arch c) in
  let rec go desc off = function
    | [] -> (off, desc)
    | F name :: rest -> begin
      match desc with
      | Types.Struct fields ->
        let found = ref None in
        let cur = ref 0 in
        Array.iter
          (fun (fld : Types.field) ->
            let lay = Types.layout conv fld.ftype in
            let f_off = Iw_arch.align_up !cur (Types.align lay) in
            if fld.fname = name && !found = None then found := Some (f_off, fld.ftype);
            cur := f_off + Types.size lay)
          fields;
        begin
          match !found with
          | Some (f_off, ftype) -> go ftype (off + f_off) rest
          | None -> invalid_arg ("Interweave.offset: no field " ^ name)
        end
      | _ -> invalid_arg "Interweave.offset: field access on non-struct"
    end
    | I i :: rest -> begin
      match desc with
      | Types.Array (elem, n) ->
        if i < 0 || i >= n then invalid_arg "Interweave.offset: index out of bounds";
        let stride = Types.size (Types.layout conv elem) in
        go elem (off + (i * stride)) rest
      | _ -> invalid_arg "Interweave.offset: index on non-array"
    end
  in
  go desc 0 path

let deref c desc a path = a + fst (offset c desc path)

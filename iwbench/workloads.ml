(* The four workloads.

   Each is split in two: [prepare] makes the inputs from the seed (not
   timed), and the setup it returns starts a server, connects the clients,
   populates the segments and warms up — what [setup_s] times.  The
   instance it yields runs the measured window and tears down. *)

type instance = {
  server : Iw_server.t;
  clients : Iw_client.t list;
  probes : Probe.t list;
  open_loop : bool;
  generate : trace:bool -> t0:float -> t_end:float -> Load.tally list;
  teardown : unit -> unit;
}

type setup = trace:bool -> dir:string -> instance

type t = {
  name : string;
  prepare : seed:int -> setup;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Clients, each with its own probe when tracing. *)
let connect_all ~trace server archs =
  List.map
    (fun arch ->
      let probe = if trace then Some (Probe.create ()) else None in
      let c = Load.connect ?probe ~arch server in
      if trace then Load.count_swizzles c;
      (c, probe))
    archs

let instance ~server ~dir ~open_loop conns generate =
  {
    server;
    clients = List.map fst conns;
    probes = List.filter_map snd conns;
    open_loop;
    generate;
    teardown =
      (fun () ->
        List.iter (fun (c, _) -> try Iw_client.disconnect c with _ -> ()) conns;
        Iw_server.shutdown server;
        rm_rf dir);
  }

(* Even-numbered operations of a traced run are traced, odd ones are not. *)
let traced_op ~trace k = trace && k land 1 = 0

(* ---- kv_read_mostly and kv_write_durable ----

   16 segments, each one named block of 16 doubles; element 0 counts the
   writes the segment has committed.  A write reads the count under the
   write lock, stores count + 1 there and in two more elements, and
   publishes the count once [wl_release] has returned.  A read samples the
   published count first, so a reader under [Delta k] must then see a count
   no more than [k] behind it, and under [Full] must see all of it. *)

let kv_segments = 16

let kv_doubles = 16

let kv_seg i = Printf.sprintf "kv/seg-%d" i

let tolerance = function
  | Iw_proto.Full -> 0
  | Iw_proto.Delta k -> k
  | Iw_proto.Temporal _ | Iw_proto.Diff_pct _ -> invalid_arg "iwbench: no version bound"

type kv_shape = {
  rate : float;  (* offered ops/s over both connections *)
  read_pct : float;
  coherence : Iw_proto.coherence list;  (* one per connection *)
  durable : bool;  (* WAL with fsync after every append *)
  domains : int;
}

let kv shape ~seed : setup =
 fun ~trace ~dir ->
  let server =
    Iw_server.create
      ?checkpoint_dir:(if shape.durable then Some dir else None)
      ~fsync:Iw_store.Always ~domains:shape.domains ()
  in
  let archs = List.map (fun _ -> Iw_arch.x86_32) shape.coherence in
  let conns = connect_all ~trace server archs in
  let desc = Iw_types.Array (Iw_types.Prim Iw_arch.Double, kv_doubles) in
  let c0 = fst (List.hd conns) in
  for i = 0 to kv_segments - 1 do
    let h = Iw_client.open_segment c0 (kv_seg i) in
    Iw_client.wl_acquire h;
    ignore (Iw_client.malloc ~name:"p" h desc : Iw_client.addr);
    Iw_client.wl_release h
  done;
  let acked = Array.init kv_segments (fun _ -> Atomic.make 0) in
  let rec publish s v =
    let cur = Atomic.get acked.(s) in
    if v > cur && not (Atomic.compare_and_set acked.(s) cur v) then publish s v
  in
  let cum = Ycsb_core.zipf_cumulative kv_segments 0.99 in
  let conn_state (c, probe) coherence =
    let segs =
      Array.init kv_segments (fun i ->
          let h = Iw_client.open_segment ~create:false c (kv_seg i) in
          Iw_client.set_coherence h coherence;
          let a0 = Iw_client.mip_to_ptr c (kv_seg i ^ "#p#0") in
          (h, Array.init kv_doubles (fun k -> Interweave.deref c desc a0 [ I k ])))
    in
    let slack = tolerance coherence in
    let read s =
      let h, addrs = segs.(s) in
      let expected = Atomic.get acked.(s) in
      Probe.call probe "client.rl_acquire" (fun () -> Iw_client.rl_acquire h);
      let seen = int_of_float (Iw_client.read_double c addrs.(0)) in
      let sum = ref 0. in
      for k = 1 to kv_doubles - 1 do
        sum := !sum +. Iw_client.read_double c addrs.(k)
      done;
      ignore (Sys.opaque_identity !sum);
      Probe.call probe "client.rl_release" (fun () -> Iw_client.rl_release h);
      if expected - seen <= slack then Ok ()
      else
        Error
          (Format.asprintf "%a read of %s saw write %d, %d was acked" Iw_proto.pp_coherence
             coherence (kv_seg s) seen expected)
    in
    let write rng s =
      let h, addrs = segs.(s) in
      let k1 = 1 + Random.State.int rng (kv_doubles - 1) in
      let k2 = 1 + Random.State.int rng (kv_doubles - 1) in
      Probe.call probe "client.wl_acquire" (fun () -> Iw_client.wl_acquire h);
      let v = 1 + int_of_float (Iw_client.read_double c addrs.(0)) in
      Probe.call probe "client.stores" (fun () ->
          List.iter
            (fun k -> Iw_client.write_double c addrs.(k) (float_of_int v))
            [ 0; k1; k2 ]);
      Probe.call probe "client.wl_release" (fun () -> Iw_client.wl_release h);
      publish s v;
      Ok ()
    in
    (* One operation drawn from [rng]: segment, then kind. *)
    let send t rng ~traced ~sched =
      let s = Ycsb_core.zipf_pick cum rng in
      let kind, f =
        if Random.State.float rng 100. < shape.read_pct then (Load.Read, fun () -> read s)
        else (Load.Write, fun () -> write rng s)
      in
      ignore (Load.op t ?probe ~client:c ~traced ~kind ~sched f : bool)
    in
    send
  in
  let senders = List.map2 conn_state conns shape.coherence in
  (* Warm-up, closed loop and unrecorded: caches fill and the client's
     adaptive subscriptions settle before the window opens. *)
  List.iteri
    (fun i send ->
      let rng = Random.State.make [| seed; i; 0x77a4 |] in
      let t = Load.tally () in
      for _ = 1 to 200 do
        send t rng ~traced:false ~sched:(Load.now ())
      done)
    senders;
  let generate ~trace ~t0 ~t_end =
    let per_conn = shape.rate /. float_of_int (List.length senders) in
    Load.run_threads (List.length senders) (fun i t ->
        let send = List.nth senders i in
        let rng = Random.State.make [| seed; i; 0x6b76 |] in
        Load.open_loop t ~rng ~rate:per_conn ~t0 ~t_end (fun ~sched k ->
            send t rng ~traced:(traced_op ~trace k) ~sched))
  in
  instance ~server ~dir ~open_loop:true conns generate

let kv_read_mostly =
  {
    name = "kv_read_mostly";
    prepare =
      kv
        {
          rate = 2000.;
          read_pct = 95.;
          coherence = [ Iw_proto.Full; Iw_proto.Delta 3 ];
          durable = false;
          domains = 1;
        };
  }

let kv_write_durable =
  {
    name = "kv_write_durable";
    prepare =
      kv
        {
          rate = 1000.;
          read_pct = 50.;
          coherence = [ Iw_proto.Full; Iw_proto.Full ];
          durable = true;
          domains = 2;
        };
  }

(* ---- array_sparse ----

   Fig. 5 at modification ratio 4: an x86_32 writer rewrites every 4th int
   of a 256 KB array (16,384 stores, values derived from the iteration) and
   releases; an alpha64 reader under Full coherence then checks 64 fixed
   sample words against that iteration. *)

let array_words = 65536

let array_stride = 4

let array_samples = 64

let array_value it i = if i mod array_stride = 0 then (it * 8191) + i else i

let array_sparse =
  let prepare ~seed : setup =
    (* Half the samples on rewritten words, half on words never touched. *)
    let rng = Random.State.make [| seed; 0x5a4d |] in
    let picked = Hashtbl.create array_samples in
    let rec pick rewritten =
      let i = Random.State.int rng array_words in
      if (i mod array_stride = 0) = rewritten && not (Hashtbl.mem picked i) then begin
        Hashtbl.add picked i ();
        i
      end
      else pick rewritten
    in
    let samples = Array.init array_samples (fun k -> pick (k land 1 = 0)) in
    fun ~trace ~dir ->
      let server = Iw_server.create ~domains:1 () in
      let conns = connect_all ~trace server [ Iw_arch.x86_32; Iw_arch.alpha64 ] in
      let (w, wp), (r, rp) = (List.nth conns 0, List.nth conns 1) in
      let desc = Iw_types.Array (Iw_types.Prim Iw_arch.Int, array_words) in
      let wseg = Iw_client.open_segment w "array/data" in
      Iw_client.wl_acquire wseg;
      let base = Iw_client.malloc ~name:"data" wseg desc in
      let wstride = Interweave.deref w desc base [ I 1 ] - base in
      for i = 0 to array_words - 1 do
        Iw_client.write_int w (base + (i * wstride)) i
      done;
      Iw_client.wl_release wseg;
      let rseg = Iw_client.open_segment ~create:false r "array/data" in
      Iw_client.set_coherence rseg Iw_proto.Full;
      Iw_client.rl_acquire rseg;
      let rbase =
        match Iw_client.find_named_block rseg "data" with
        | Some b -> b.Iw_mem.b_addr
        | None -> failwith "iwbench: array block missing at the reader"
      in
      Iw_client.rl_release rseg;
      let raddrs = Array.map (fun i -> Interweave.deref r desc rbase [ I i ]) samples in
      let it = ref 0 and acked = ref 0 in
      let iteration t ~traced =
        incr it;
        let n = !it in
        let sched = Load.now () in
        let wrote =
          Load.op t ?probe:wp ~client:w ~traced ~kind:Load.Write ~sched (fun () ->
              Probe.call wp "client.wl_acquire" (fun () -> Iw_client.wl_acquire wseg);
              Probe.call wp "client.stores" (fun () ->
                  let i = ref 0 in
                  while !i < array_words do
                    Iw_client.write_int w (base + (!i * wstride)) (array_value n !i);
                    i := !i + array_stride
                  done);
              Probe.call wp "client.wl_release" (fun () -> Iw_client.wl_release wseg);
              Ok ())
        in
        if wrote then acked := n;
        let sched = Load.now () in
        ignore
          (Load.op t ?probe:rp ~client:r ~traced ~kind:Load.Read ~sched (fun () ->
               Probe.call rp "client.rl_acquire" (fun () -> Iw_client.rl_acquire rseg);
               let wrong = ref 0 in
               Array.iteri
                 (fun k a ->
                   let expected = array_value !acked samples.(k) in
                   if Iw_client.read_int r a <> expected then incr wrong)
                 raddrs;
               Probe.call rp "client.rl_release" (fun () -> Iw_client.rl_release rseg);
               if !wrong = 0 then Ok ()
               else
                 Error
                   (Printf.sprintf "%d sample words differ from iteration %d" !wrong
                      !acked))
            : bool)
      in
      let warm = Load.tally () in
      for _ = 1 to 3 do
        iteration warm ~traced:false
      done;
      let generate ~trace ~t0:_ ~t_end =
        Load.run_threads 1 (fun _ t ->
            Load.closed_loop ~t_end (fun k -> iteration t ~traced:(traced_op ~trace k)))
      in
      instance ~server ~dir ~open_loop:false conns generate
  in
  { name = "array_sparse"; prepare }

(* ---- mining ----

   The paper's datamining application (Fig. 7): an x86_32 writer feeds
   10-customer increments of the second half of a [Gen.scaled 0.05]
   database through [Lattice.update], cycling; an alpha64 reader under
   Delta(2) counts the lattice's nodes.  The count must never shrink, and
   the reader's version must be within 2 of the writer's last acked one.

   The database is the generator's own (fixed) one and the seed shuffles
   the order in which the second half arrives: lattice size drives every
   cost here, and a database drawn per seed would move it from run to
   run. *)

let mining_increment = 10

let mining =
  let prepare ~seed : setup =
    let params = Iw_seqmine.Gen.scaled 0.05 in
    let generated = Iw_seqmine.Gen.generate params in
    let customers = params.Iw_seqmine.Gen.customers in
    let half = customers / 2 in
    let sequences = Array.copy generated.Iw_seqmine.Gen.sequences in
    let rng = Random.State.make [| seed; 0x6d6e |] in
    for i = customers - 1 downto half + 1 do
      let j = half + Random.State.int rng (i - half + 1) in
      let x = sequences.(i) in
      sequences.(i) <- sequences.(j);
      sequences.(j) <- x
    done;
    let db = { generated with Iw_seqmine.Gen.sequences } in
    let min_support = max 5 (customers / 250) in
    fun ~trace ~dir ->
      let module L = Iw_seqmine.Lattice in
      let server = Iw_server.create ~domains:1 () in
      let conns = connect_all ~trace server [ Iw_arch.x86_32; Iw_arch.alpha64 ] in
      let (w, wp), (r, rp) = (List.nth conns 0, List.nth conns 1) in
      let lw = L.create w ~segment:"mining/summary" ~min_support in
      L.update lw db ~from_customer:0 ~to_customer:half;
      let lr = L.attach r ~segment:"mining/summary" in
      let rseg = L.segment lr in
      Iw_client.set_coherence rseg (Iw_proto.Delta 2);
      let cursor = ref half and acked = ref 0 and nodes = ref 0 in
      let iteration t ~traced =
        let from = !cursor in
        let upto = min customers (from + mining_increment) in
        cursor := if upto >= customers then half else upto;
        let sched = Load.now () in
        let wrote =
          Load.op t ?probe:wp ~client:w ~traced ~kind:Load.Write ~sched (fun () ->
              Probe.call wp "client.lattice_update" (fun () ->
                  L.update lw db ~from_customer:from ~to_customer:upto);
              Ok ())
        in
        if wrote then acked := Iw_client.segment_version (L.segment lw);
        let sched = Load.now () in
        ignore
          (Load.op t ?probe:rp ~client:r ~traced ~kind:Load.Read ~sched (fun () ->
               Probe.call rp "client.rl_acquire" (fun () -> Iw_client.rl_acquire rseg);
               let n = Probe.call rp "client.node_count" (fun () -> L.node_count lr) in
               let seen = Iw_client.segment_version rseg in
               Probe.call rp "client.rl_release" (fun () -> Iw_client.rl_release rseg);
               let before = !nodes in
               nodes := max before n;
               if n >= before && !acked - seen <= 2 then Ok ()
               else
                 Error
                   (Printf.sprintf "%d nodes at version %d, after %d; version %d acked" n
                      seen before !acked))
            : bool)
      in
      let warm = Load.tally () in
      for _ = 1 to 3 do
        iteration warm ~traced:false
      done;
      let generate ~trace ~t0:_ ~t_end =
        Load.run_threads 1 (fun _ t ->
            Load.closed_loop ~t_end (fun k -> iteration t ~traced:(traced_op ~trace k)))
      in
      instance ~server ~dir ~open_loop:false conns generate
  in
  { name = "mining"; prepare }

let all = [ kv_read_mostly; kv_write_durable; array_sparse; mining ]

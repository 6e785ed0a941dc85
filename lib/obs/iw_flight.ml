(* A crash flight recorder: the last [capacity] request-level events in a
   preallocated ring, recorded with no allocation beyond the argument strings
   the caller already holds and no locking.  The write cursor is a plain int
   advanced non-atomically — concurrent systhread writers can interleave on a
   slot, which at worst garbles that one entry; the recorder trades that
   benign race for a hot path of a handful of stores.  Dumps happen on
   uncaught server exceptions, decode failures, SIGUSR1, or an admin
   request — the cases where the aggregate metrics snapshot can't say which
   request hurt. *)

type event = {
  mutable fe_t : float;  (* wall clock, seconds *)
  mutable fe_seq : int;  (* request seq from the trace envelope; 0 = none *)
  mutable fe_variant : string;
  mutable fe_segment : string;
  mutable fe_version : int;
  mutable fe_latency_us : float;
}

type t = {
  f_ring : event array;
  mutable f_next : int;  (* monotonically increasing; slot = f_next mod cap *)
}

let default_capacity = 256

let empty_event () =
  { fe_t = 0.; fe_seq = 0; fe_variant = ""; fe_segment = ""; fe_version = 0;
    fe_latency_us = 0. }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Iw_flight.create: capacity must be positive";
  { f_ring = Array.init capacity (fun _ -> empty_event ()); f_next = 0 }

let record t ?(seq = 0) ?(segment = "") ?(version = 0) ?(latency_us = 0.) variant =
  let slot = t.f_ring.(t.f_next mod Array.length t.f_ring) in
  t.f_next <- t.f_next + 1;
  slot.fe_t <- Unix.gettimeofday ();
  slot.fe_seq <- seq;
  slot.fe_variant <- variant;
  slot.fe_segment <- segment;
  slot.fe_version <- version;
  slot.fe_latency_us <- latency_us

type view = {
  v_t : float;
  v_seq : int;
  v_variant : string;
  v_segment : string;
  v_version : int;
  v_latency_us : float;
}

(* Oldest first.  Copies out under no lock; an entry being overwritten
   concurrently may read torn, which is acceptable for a post-mortem aid. *)
let events t =
  let cap = Array.length t.f_ring in
  let next = t.f_next in
  let count = min next cap in
  List.init count (fun i ->
      let e = t.f_ring.((next - count + i) mod cap) in
      { v_t = e.fe_t; v_seq = e.fe_seq; v_variant = e.fe_variant;
        v_segment = e.fe_segment; v_version = e.fe_version;
        v_latency_us = e.fe_latency_us })

let render_json t =
  let open Iw_obs_json in
  Obj
    [
      ("capacity", num_int (Array.length t.f_ring));
      ("recorded", num_int t.f_next);
      ( "events",
        Arr
          (List.map
             (fun v ->
               Obj
                 [
                   ("t", Num v.v_t);
                   ("seq", num_int v.v_seq);
                   ("variant", Str v.v_variant);
                   ("segment", Str v.v_segment);
                   ("version", num_int v.v_version);
                   ("latency_us", Num v.v_latency_us);
                 ])
             (events t)) );
    ]

let dump_string t = Iw_obs_json.to_string (render_json t)

(* IW_FLIGHT_DUMP names the dump file, read at dump time so a long-lived
   server picks up the current environment; default is stderr. *)
let dump_target () =
  match Sys.getenv_opt "IW_FLIGHT_DUMP" with
  | Some path when path <> "" -> Some path
  | _ -> None

let dump ?reason t =
  let body = dump_string t in
  let header =
    match reason with
    | None -> "iw-flight dump"
    | Some r -> Printf.sprintf "iw-flight dump (%s)" r
  in
  match dump_target () with
  | Some path ->
    let oc = open_out path in
    output_string oc body;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "%s: written to %s\n%!" header path
  | None -> Printf.eprintf "%s: %s\n%!" header body

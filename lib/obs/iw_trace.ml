type ev = {
  e_ph : char;
  e_name : string;
  e_cat : string;
  e_ts : float;  (* microseconds since trace start *)
  e_tid : int;
  e_args : (string * string) list;
}

type mode =
  | Overwrite
  | Append

let on = ref false

let mutex = Mutex.create ()

let events : ev list ref = ref []

let out_path : string option ref = ref None

let out_mode : mode ref = ref Overwrite

let t0 = ref 0.

let at_exit_installed = ref false

let enabled () = !on

(* Span/trace identifiers: unique within a process and very unlikely to
   collide across the processes of one run (the pid and start time are mixed
   in), so a client-generated trace id can travel to the server and land in a
   merged Perfetto timeline without clashing. *)
let id_counter = ref 0

let id_salt =
  lazy
    (let t = int_of_float (Unix.gettimeofday () *. 1e6) in
     ((Unix.getpid () land 0xffff) lsl 40) lxor (t land 0xff_ffff_ffff))

let next_id () =
  Stdlib.incr id_counter;
  (* Stay positive and below 2^62 so the id survives u64 wire round trips on
     63-bit OCaml ints. *)
  (Lazy.force id_salt lxor (!id_counter lsl 20) lor !id_counter) land max_int

let pp_id id = Printf.sprintf "%x" id

let record ph ?(cat = "iw") ?(args = []) name =
  if !on then begin
    let ts = (Unix.gettimeofday () -. !t0) *. 1e6 in
    let e =
      { e_ph = ph; e_name = name; e_cat = cat; e_ts = ts;
        e_tid = Thread.id (Thread.self ()); e_args = args }
    in
    Mutex.lock mutex;
    events := e :: !events;
    Mutex.unlock mutex
  end

let span_begin ?cat ?args name = record 'B' ?cat ?args name

let span_end name = record 'E' name

let instant ?cat ?args name = record 'i' ?cat ?args name

let with_span ?cat ?args name f =
  if not !on then f ()
  else begin
    span_begin ?cat ?args name;
    Fun.protect ~finally:(fun () -> span_end name) f
  end

let render_event buf pid e =
  Buffer.add_string buf "{\"name\":";
  Iw_obs_json.escape buf e.e_name;
  Buffer.add_string buf ",\"cat\":";
  Iw_obs_json.escape buf e.e_cat;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%c\"" e.e_ph);
  (* Instant events need an explicit scope or some viewers drop them. *)
  if e.e_ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  Buffer.add_string buf (Printf.sprintf ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d" e.e_ts pid e.e_tid);
  (match e.e_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun j (k, v) ->
        if j > 0 then Buffer.add_char buf ',';
        Iw_obs_json.escape buf k;
        Buffer.add_char buf ':';
        Iw_obs_json.escape buf v)
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

(* In append mode the existing file's events are carried over verbatim, so
   two processes (or two runs) writing the same path produce one valid
   Chrome-trace document instead of the second clobbering the first. *)
let existing_events path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Iw_obs_json.parse data with
    | Error _ -> []
    | Ok doc ->
      (match Option.bind (Iw_obs_json.member "traceEvents" doc) Iw_obs_json.to_list with
      | Some evs -> List.map Iw_obs_json.to_string evs
      | None -> [])
  end

let write_file ~mode path evs =
  let old = match mode with Append -> existing_events path | Overwrite -> [] in
  let buf = Buffer.create (256 * (1 + List.length evs + List.length old)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let pid = Unix.getpid () in
  List.iteri
    (fun i raw ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf raw)
    old;
  List.iteri
    (fun i e ->
      if i > 0 || old <> [] then Buffer.add_char buf ',';
      render_event buf pid e)
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let stop () =
  Mutex.lock mutex;
  let evs = List.rev !events in
  let path = !out_path in
  let mode = !out_mode in
  on := false;
  events := [];
  out_path := None;
  Mutex.unlock mutex;
  match path with None -> () | Some p -> write_file ~mode p evs

let start ?(mode = Overwrite) ~path () =
  Mutex.lock mutex;
  out_path := Some path;
  out_mode := mode;
  if !t0 = 0. then t0 := Unix.gettimeofday ();
  on := true;
  let install = not !at_exit_installed in
  at_exit_installed := true;
  Mutex.unlock mutex;
  if install then at_exit stop

let output () =
  Mutex.lock mutex;
  let o = Option.map (fun p -> (p, !out_mode)) !out_path in
  Mutex.unlock mutex;
  o

(* IW_TRACE=<path> attaches tracing for the whole process with no code
   changes, mirroring IW_SANITIZE; IW_TRACE_MODE=append lets the client and
   server of one run share a path without clobbering.  A mode other than
   append is a startup error, set or not IW_TRACE, so a typo cannot
   silently overwrite. *)
let env_mode () =
  match Sys.getenv_opt "IW_TRACE_MODE" with
  | None | Some "" -> Overwrite
  | Some "append" -> Append
  | Some s -> invalid_arg (Printf.sprintf "IW_TRACE_MODE: expected append, got %S" s)

let () =
  let mode = env_mode () in
  match Sys.getenv_opt "IW_TRACE" with
  | None | Some "" -> ()
  | Some path -> start ~mode ~path ()

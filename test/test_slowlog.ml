(* The server's sampled slow-request log: unit tests of the Iw_slowlog ring,
   and the live-inspection surface end to end — a spawned iw-server loaded
   over TCP, then read back with iw-admin slowlog/top the way operators
   run them. *)

module I = Interweave
module J = Iw_obs_json
module SL = Iw_slowlog

let admin_exe = "../bin/iw_admin.exe"

let server_exe = "../bin/iw_server_main.exe"

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* (exit code, stdout) of a spawned executable, stderr passed through. *)
let run_exe exe args =
  let out = Filename.temp_file "iwslowlog" ".out" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out Unix.stderr
  in
  Unix.close fd_out;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  let stdout = read_all out in
  Sys.remove out;
  (code, stdout)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let obj_field row k =
  match row with J.Obj fs -> List.assoc_opt k fs | _ -> None

let num_field row k =
  match obj_field row k with
  | Some (J.Num v) -> v
  | _ -> Alcotest.failf "row missing numeric field %S" k

let seg_name i = Printf.sprintf "load/seg-%d" i

let segments = 2

(* A second of closed-loop load from a few TCP clients: 80% reads, 20%
   writes of one int, over [segments] segments created up front. *)
let load_over_tcp port =
  let setup = I.tcp_client ~host:"127.0.0.1" ~port () in
  for i = 0 to segments - 1 do
    let h = I.open_segment setup (seg_name i) in
    I.wl_acquire h;
    ignore (I.malloc ~name:"n" h (I.Desc.array I.Desc.int 8) : I.addr);
    I.wl_release h
  done;
  I.Client.disconnect setup;
  let stop_at = Unix.gettimeofday () +. 1.0 in
  let ops = Atomic.make 0 and failures = Atomic.make 0 in
  let worker k =
    try
      let c = I.tcp_client ~host:"127.0.0.1" ~port () in
      let segs =
        Array.init segments (fun i ->
            (I.open_segment ~create:false c (seg_name i), I.mip_to_ptr c (seg_name i ^ "#n#0")))
      in
      let rng = Random.State.make [| k |] in
      while Unix.gettimeofday () < stop_at do
        let h, a = segs.(Random.State.int rng segments) in
        if Random.State.int rng 100 < 80 then begin
          I.rl_acquire h;
          ignore (I.Client.read_int c a : int);
          I.rl_release h
        end
        else begin
          I.wl_acquire h;
          I.Client.write_int c a (Random.State.bits rng);
          I.wl_release h
        end;
        Atomic.incr ops
      done;
      I.Client.disconnect c
    with _ -> Atomic.incr failures
  in
  List.iter Thread.join (List.init 4 (Thread.create worker));
  Alcotest.(check int) "load clients saw no failure" 0 (Atomic.get failures);
  Alcotest.(check bool) "load ran operations" true (Atomic.get ops > 0)

(* Slow log + dashboard end to end: load a real server over TCP, then read
   it back with iw-admin the way an operator would. *)
let test_slowlog_and_top_live () =
  let port = Test_durability.free_port () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--port"; string_of_int port |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let probe = Test_durability.wait_ready port in
      I.Client.disconnect probe;
      load_over_tcp port;
      let host_args = [ "-p"; string_of_int port ] in
      let code, out = run_exe admin_exe ([ "slowlog"; "--json" ] @ host_args) in
      Alcotest.(check int) "slowlog exit 0" 0 code;
      (match J.parse (String.trim out) with
      | Ok (J.Arr (first :: _ as entries)) ->
        (* Slowest first, every entry fully labelled. *)
        List.iter
          (fun k ->
            if obj_field first k = None then
              Alcotest.failf "slowlog entry missing %S" k)
          [ "t"; "latency_us"; "variant"; "segment"; "session"; "trace_id"; "span_id" ];
        let lats = List.map (fun e -> num_field e "latency_us") entries in
        Alcotest.(check bool) "sorted slowest-first" true
          (List.for_all2 ( >= ) lats (List.tl lats @ [ 0. ]))
      | Ok (J.Arr []) -> Alcotest.fail "slow log empty after a loaded run"
      | Ok _ | Error _ -> Alcotest.failf "slowlog --json unparseable: %s" out);
      let code, out = run_exe admin_exe ([ "top"; "--once" ] @ host_args) in
      Alcotest.(check int) "top --once exit 0" 0 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("top shows " ^ needle) true (contains out needle))
        [ "req/s"; "VARIANT"; "P99_US"; "SEGMENT"; seg_name 0 ])

(* iw-admin dials like every other client: a fresh server that has seen no
   other client counts iw-admin's own CRC negotiation.  iw-admin polls for
   the server to come up, so it is the only client the server ever sees. *)
let test_admin_negotiates_crc () =
  let port = Test_durability.free_port () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--port"; string_of_int port |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let rec stats attempts =
        match run_exe admin_exe [ "stats"; "--prom"; "-p"; string_of_int port ] with
        | 0, out -> out
        | code, _ when attempts = 0 -> Alcotest.failf "iw-admin stats exit %d" code
        | _ ->
          Unix.sleepf 0.05;
          stats (attempts - 1)
      in
      let series = "iw_server_request_us_count{variant=\"enable_crc\"} " in
      let negotiations =
        String.split_on_char '\n' (stats 100)
        |> List.find_map (fun l ->
               if String.starts_with ~prefix:series l then
                 float_of_string_opt
                   (String.sub l (String.length series) (String.length l - String.length series))
               else None)
      in
      Alcotest.(check bool) "enable_crc served to iw-admin" true
        (match negotiations with Some n -> n >= 1. | None -> false))

(* iw-server spawned with [env] added to this process's environment, its
   stdout and stderr captured to files: (pid, stdout path, stderr path). *)
let spawn_server_env env args =
  let out = Filename.temp_file "iwserver" ".out" in
  let err = Filename.temp_file "iwserver" ".err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process_env server_exe
      (Array.of_list (server_exe :: args))
      (Array.append env (Unix.environment ()))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  (pid, out, err)

(* The startup line names every knob's effective value, including one that
   came from the environment rather than a flag. *)
let test_server_config_line () =
  let port = Test_durability.free_port () in
  let pid, out, err =
    spawn_server_env [| "IW_DOMAINS=2" |] [ "--port"; string_of_int port ]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      I.Client.disconnect (Test_durability.wait_ready port);
      match
        String.split_on_char '\n' (read_all out)
        |> List.find_opt (String.starts_with ~prefix:"config: ")
      with
      | None -> Alcotest.failf "no config line in %S" (read_all out)
      | Some line ->
        List.iter
          (fun field ->
            Alcotest.(check bool) (line ^ " has " ^ field) true (contains line field))
          [ "domains=2"; "queue_max=1024"; "fsync="; "metrics=on"; "trace=";
            "flight_dump=stderr"; "fault=none" ])

(* A switch set to neither 0 nor 1, or a trace mode other than append,
   stops the server before it listens with one line naming the variable. *)
let test_server_rejects_bad_switch () =
  List.iter
    (fun (var, value) ->
      let pid, out, err =
        spawn_server_env [| var ^ "=" ^ value |]
          [ "--port"; string_of_int (Test_durability.free_port ()) ]
      in
      (* Reap within 5 s; a server that accepted the value would listen
         forever. *)
      let rec reap attempts =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when attempts > 0 ->
          Unix.sleepf 0.05;
          reap (attempts - 1)
        | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          -1
        | _, Unix.WEXITED n -> n
        | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
      in
      let code = reap 100 in
      let stderr = read_all err in
      Sys.remove out;
      Sys.remove err;
      Alcotest.(check int) (var ^ ": exit 1") 1 code;
      Alcotest.(check bool) ("one line naming " ^ var ^ ": " ^ stderr) true
        (String.starts_with ~prefix:("iw-server: " ^ var ^ ":") stderr
        && String.index stderr '\n' = String.length stderr - 1))
    [ ("IW_METRICS", "false"); ("IW_TRACE_MODE", "unique") ]

(* Iw_slowlog unit behaviour: top-K selection, eviction of the fastest,
   limit handling, and K = 0. *)
let observe_lat t ?(variant = "read_lock") lat =
  SL.observe t ~variant ~segment:"s" ~session:1 ~seq:0 ~trace_id:0 ~span_id:0 lat

let test_slowlog_topk () =
  let t = SL.create ~k:4 () in
  List.iter (observe_lat t) [ 10.; 50.; 30.; 70.; 20.; 60. ];
  let lats = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot t) in
  Alcotest.(check (list (float 1e-9))) "4 slowest, descending" [ 70.; 60.; 50.; 30. ]
    lats;
  let lats2 = List.map (fun e -> e.SL.e_latency_us) (SL.snapshot ~limit:2 t) in
  Alcotest.(check (list (float 1e-9))) "limit 2" [ 70.; 60. ] lats2

let test_slowlog_disabled () =
  let t = SL.create ~k:0 () in
  observe_lat t 99.;
  Alcotest.(check int) "k=0 keeps nothing" 0 (List.length (SL.snapshot t))

let suite =
  ( "slowlog",
    [
      Alcotest.test_case "top-K and ordering" `Quick test_slowlog_topk;
      Alcotest.test_case "k=0 disabled" `Quick test_slowlog_disabled;
      Alcotest.test_case "live over tcp with iw-admin top" `Slow test_slowlog_and_top_live;
      Alcotest.test_case "iw-admin negotiates frame CRCs" `Quick test_admin_negotiates_crc;
      Alcotest.test_case "iw-server prints its effective config" `Quick
        test_server_config_line;
      Alcotest.test_case "iw-server rejects a bad switch value" `Quick
        test_server_rejects_bad_switch;
    ] )

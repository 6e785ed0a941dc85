(* iw-check CLI edge cases: exit codes and one-line errors for bad inputs,
   plus end-to-end runs of the --model / --race modes.
   Each case spawns the real executable, the same way operators and
   `dune build @check` invoke it. *)

let exe = "../bin/iw_check.exe"

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* (exit code, stdout, stderr) *)
let iw_check args =
  let out = Filename.temp_file "iwcheck" ".out" in
  let err = Filename.temp_file "iwcheck" ".err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  let stdout = read_all out and stderr = read_all err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let line_count s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") |> List.length

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

let test_no_args () =
  let code, _, err = iw_check [] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check int) "one line" 1 (line_count err);
  Alcotest.(check bool) ("names the modes: " ^ err) true (contains err "no IDL files")

let test_missing_idl () =
  let code, _, err = iw_check [ "definitely-not-here.idl" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check int) "one line" 1 (line_count err);
  Alcotest.(check bool) ("names the path: " ^ err) true
    (contains err "definitely-not-here.idl")

let test_store_not_a_dir () =
  let code, _, err = iw_check [ "--store"; "definitely/not/a/dir" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check int) "one line" 1 (line_count err);
  Alcotest.(check bool) ("says not a directory: " ^ err) true
    (contains err "not a directory")

let test_model_clean () =
  let code, out, _ = iw_check [ "--model"; "--crash"; "--clients"; "2" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "exhaustive" true (contains out "exhaustive");
  Alcotest.(check bool) "invariants hold" true (contains out "invariants hold")

let test_model_broken_counterexample () =
  let code, out, _ =
    iw_check [ "--model"; "--crash"; "--model-broken"; "no-dedup-rebuild" ]
  in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "MDL04" true (contains out "MDL04");
  Alcotest.(check bool) "minimized schedule" true
    (contains out "lock:0 rel:0 crash recover retry:0");
  (* the printed replay invocation reproduces the violation *)
  let code, out, _ =
    iw_check
      [
        "--model"; "--crash"; "--model-broken"; "no-dedup-rebuild"; "--replay";
        "lock:0 rel:0 crash recover retry:0";
      ]
  in
  Alcotest.(check int) "replay exit 1" 1 code;
  Alcotest.(check bool) "replay reports MDL04" true (contains out "MDL04")

let test_model_bad_flags () =
  let code, _, err = iw_check [ "--model"; "--coherence"; "warp:9" ] in
  Alcotest.(check int) "unknown coherence: exit 2" 2 code;
  Alcotest.(check bool) ("names it: " ^ err) true (contains err "warp");
  let code, _, _ = iw_check [ "--model"; "--model-broken"; "nonsense" ] in
  Alcotest.(check int) "unknown variant: exit 2" 2 code;
  let code, _, err = iw_check [ "--model"; "--replay"; "lock:0 bogus" ] in
  Alcotest.(check int) "bad schedule: exit 2" 2 code;
  Alcotest.(check bool) ("names the action: " ^ err) true (contains err "bogus")

let test_race_fixture () =
  let dir = Filename.temp_file "lck" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  write_file (Filename.concat dir "bad.ml")
    "let bad m =\n\
    \  Mutex.lock m;\n\
    \  if true then failwith \"boom\";\n\
    \  Mutex.unlock m\n";
  let code, out, _ = iw_check [ "--race"; dir ] in
  Alcotest.(check int) "LCK001 is an error: exit 1" 1 code;
  Alcotest.(check bool) ("reports LCK001: " ^ out) true (contains out "LCK001");
  (* a warning-only tree passes, and fails under --Werror *)
  write_file (Filename.concat dir "bad.ml")
    "let warn m oc =\n\
    \  Mutex.lock m;\n\
    \  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> flush oc)\n";
  let code, out, _ = iw_check [ "--race"; dir ] in
  Alcotest.(check int) "warning passes" 0 code;
  Alcotest.(check bool) ("reports LCK002: " ^ out) true (contains out "LCK002");
  let code, _, _ = iw_check [ "--race"; "--Werror"; dir ] in
  Alcotest.(check int) "warning fails under --Werror" 1 code;
  let code, _, err = iw_check [ "--race"; Filename.concat dir "no-such-subdir" ] in
  Alcotest.(check int) "missing path: exit 2" 2 code;
  Alcotest.(check bool) ("names it: " ^ err) true (contains err "no-such-subdir")

let suite =
  ( "cli",
    [
      Alcotest.test_case "no args" `Quick test_no_args;
      Alcotest.test_case "missing IDL path" `Quick test_missing_idl;
      Alcotest.test_case "nonexistent --store dir" `Quick test_store_not_a_dir;
      Alcotest.test_case "--model clean run" `Quick test_model_clean;
      Alcotest.test_case "--model broken variant counterexample" `Quick
        test_model_broken_counterexample;
      Alcotest.test_case "--model flag validation" `Quick test_model_bad_flags;
      Alcotest.test_case "--race fixtures and exit codes" `Quick test_race_fixture;
    ] )

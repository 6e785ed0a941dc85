(* Smoke test for iwbench, run by @check:

     smoke.exe IWBENCH WORKLOAD...

   Runs each workload for one second, untraced and traced.  Each run must
   print every end-to-end metric with error_ratio 0 and exit 0, or 3 (a
   late generator: @check runs rules in parallel, so lateness is not
   judged here), and the traced run's span file must parse as trace_event
   JSON with events. *)

let end_to_end =
  [
    "setup_s";
    "ops_per_s";
    "read_p50_us";
    "read_p99_us";
    "write_p50_us";
    "write_p99_us";
    "wire_bytes_per_op";
    "cpu_us_per_op";
    "error_ratio";
    "rss_peak_mb";
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run exe workload trace =
  let args =
    [ exe; workload; "--seed"; "1"; "--duration"; "1" ]
    @ match trace with Some p -> [ "--trace"; p ] | None -> []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED (0 | 3) -> ()
  | _ -> fail "%s %s exited abnormally" workload (String.concat " " args));
  let fields = List.map (String.split_on_char ' ') lines in
  List.iter
    (fun name ->
      if not (List.exists (function n :: _ -> n = name | [] -> false) fields) then
        fail "%s: metric %s missing" workload name)
    end_to_end;
  List.iter
    (function
      | "error_ratio" :: v :: _ when float_of_string_opt v <> Some 0. ->
        fail "%s: error_ratio %s" workload v
      | _ -> ())
    fields;
  match trace with
  | None -> ()
  | Some path -> (
    let doc = read_file path in
    Sys.remove path;
    match Iw_obs_json.parse doc with
    | Ok j -> (
      match Option.bind (Iw_obs_json.member "traceEvents" j) Iw_obs_json.to_list with
      | Some (_ :: _) -> ()
      | _ -> fail "%s: span file has no events" workload)
    | Error e -> fail "%s: span file does not parse: %s" workload e)

let () =
  match Array.to_list Sys.argv with
  | _ :: exe :: workloads ->
    let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
    List.iter
      (fun w ->
        run exe w None;
        run exe w (Some (Printf.sprintf "smoke-%s.trace.json" w)))
      workloads
  | _ -> fail "usage: smoke.exe IWBENCH WORKLOAD..."

(* Standalone driver for the analysis tooling: lints IDL files against every
   (or a chosen set of) machine architecture descriptors, model-checks the
   coherence protocol (--model), lints the OCaml tree's lock discipline
   (--race), validates fault plans (--fault-plan) and durability
   directories (--store).
   Exit status: 0 when clean (notes never fail a run), 1 when errors — or,
   under --Werror, warnings — were reported, 2 on usage or parse failures. *)

let resolve_arches = function
  | [] -> Ok Iw_arch.all
  | names ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Iw_arch.find n with
        | Some a -> go (a :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown architecture %S (known: %s)" n
               (String.concat ", " (List.map (fun a -> a.Iw_arch.name) Iw_arch.all))))
    in
    go [] names

(* --fault-plan: validate an IW_FAULT / --fault-plan string without running
   anything, so CI and operators can vet a plan before pointing it at a
   server. *)
let run_fault_plan s =
  match Iw_fault.parse s with
  | Ok p ->
    Format.printf "fault plan OK: %a@." Iw_fault.pp p;
    0
  | Error msg ->
    Printf.eprintf "iw-check: invalid fault plan: %s\n" msg;
    1

(* --store: offline validation of a server's durability directory — every
   checkpoint's magic and CRC trailer, every write-ahead-log record's CRC,
   and version continuity from each checkpoint into its segment's log.  A
   torn log tail is reported but does not fail the run (it is the normal
   shape of a crash and recovery truncates it); corrupt records, bad
   checkpoints, version gaps, and checkpoint→log discontinuities do. *)
let run_store dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "iw-check: %s: not a directory\n" dir;
    2
  end
  else begin
    let files = Sys.readdir dir in
    Array.sort compare files;
    let errors = ref 0 in
    let err fmt =
      incr errors;
      Printf.ksprintf (fun m -> Printf.eprintf "iw-check: %s\n" m) fmt
    in
    (* Checkpoint versions by segment name, for continuity against the log. *)
    let ckpt_versions = Hashtbl.create 8 in
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Filename.check_suffix f Iw_store.checkpoint_suffix then begin
          match Iw_store.verify_checkpoint path with
          | Ok (name, version) ->
            Hashtbl.replace ckpt_versions name version;
            Printf.printf "%s: checkpoint OK (%s at version %d)\n" f name version
          | Error msg -> err "%s: %s" f msg
        end
        else if Filename.check_suffix f Iw_store.log_suffix then begin
          match Iw_store.scan_log path with
          | Error msg -> err "%s: %s" f msg
          | Ok r ->
            (match r.Iw_store.lr_tail with
            | Iw_store.Tail_clean -> ()
            | Iw_store.Tail_torn reason ->
              Printf.printf
                "%s: torn tail (%s) — consistent with a crash; recovery will \
                 truncate it\n"
                f reason
            | Iw_store.Tail_corrupt reason -> err "%s: %s" f reason);
            (match r.Iw_store.lr_gap with
            | Some (expected, got) ->
              err "%s: version gap in log: expected %d, found %d" f expected got
            | None -> ());
            (match r.Iw_store.lr_segment with
            | None ->
              if r.Iw_store.lr_records > 0 then err "%s: no header record" f
            | Some name ->
              (* Continuity: the log's first commit must continue its
                 segment's checkpoint (or start from scratch without one).
                 First commits at or below the checkpoint version are stale
                 records the checkpoint already covers — replay skips them. *)
              let ckpt =
                match Hashtbl.find_opt ckpt_versions name with
                | Some v -> v
                | None -> 0
              in
              (match r.Iw_store.lr_first_commit with
              | Some first when first > ckpt + 1 ->
                err
                  "%s: log for %s starts at version %d but its checkpoint \
                   ends at %d (missing %d version(s))"
                  f name first ckpt
                  (first - ckpt - 1)
              | _ -> ());
              Printf.printf
                "%s: log OK (%s, %d record(s), %d commit(s)%s)\n" f name
                r.Iw_store.lr_records r.Iw_store.lr_commits
                (match (r.Iw_store.lr_first_commit, r.Iw_store.lr_last_commit) with
                | Some a, Some b -> Printf.sprintf ", versions %d..%d" a b
                | _ -> ""))
        end
        else if Filename.check_suffix f Iw_store.journal_suffix then begin
          (* A shard journal: group commit's single-fsync file.  A torn tail
             is an interrupted [end_batch] whose releases were never
             acknowledged — normal crash shape, like a torn log tail. *)
          match Iw_store.scan_journal path with
          | Error msg -> err "%s: %s" f msg
          | Ok r ->
            (match r.Iw_store.jr_tail with
            | Iw_store.Tail_clean -> ()
            | Iw_store.Tail_torn reason ->
              Printf.printf
                "%s: torn tail (%s) — an interrupted group commit; recovery \
                 will use the good prefix\n"
                f reason
            | Iw_store.Tail_corrupt reason -> err "%s: %s" f reason);
            Printf.printf
              "%s: journal OK (%d redirect record(s), %d commit(s), %d \
               segment(s))\n"
              f r.Iw_store.jr_records r.Iw_store.jr_commits
              (List.length r.Iw_store.jr_segments)
        end
        else if Filename.check_suffix f ".corrupt" then
          Printf.printf "%s: quarantined file (left by a previous recovery)\n" f)
      files;
    if !errors = 0 then begin
      Printf.printf "%s: store OK\n" dir;
      0
    end
    else 1
  end

(* --model: exhaustively explore the bounded protocol model.  Exit 0 when
   every reachable state satisfies the invariants, 1 with a minimized,
   replayable schedule when one fails, 2 on bad flags. *)
let run_model ~clients ~segments ~depth ~crash ~seed ~broken ~coherence ~queue ~replay_sched =
  let ( let* ) r k =
    match r with
    | Ok v -> k v
    | Error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
  in
  let* coherences =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | s :: rest -> (
        match Iw_model.coherence_of_string s with
        | Ok c -> go (c :: acc) rest
        | Error e -> Error e)
    in
    match String.split_on_char ',' coherence |> List.filter (fun s -> s <> "") with
    | [] -> Error "empty --coherence list"
    | parts -> go [] parts
  in
  let* broken =
    match broken with
    | None -> Ok None
    | Some s -> Result.map Option.some (Iw_model.broken_of_string s)
  in
  let* () = if clients < 1 then Error "--clients must be at least 1" else Ok () in
  let* () = if segments < 1 then Error "--segments must be at least 1" else Ok () in
  let* () =
    match queue with
    | Some q when q < 1 -> Error "--queue must be at least 1"
    | _ -> Ok ()
  in
  let cfg =
    {
      Iw_model.default_config with
      Iw_model.n_clients = clients;
      n_segments = segments;
      coherences;
      crash;
      queue;
      broken;
    }
  in
  let pp_coh = function
    | Iw_model.Full -> "full"
    | Iw_model.Delta n -> Printf.sprintf "delta:%d" n
    | Iw_model.Temporal -> "temporal"
    | Iw_model.Diff_bound n -> Printf.sprintf "diff:%d" n
  in
  Printf.printf "model: %d client(s), %d segment(s), coherence [%s], lease on, crash %s%s%s\n"
    clients segments
    (String.concat ", "
       (List.init clients (fun i -> pp_coh cfg.Iw_model.coherences.(i mod Array.length cfg.Iw_model.coherences))))
    (if crash then "on" else "off")
    (match queue with
    | Some q -> Printf.sprintf ", mailbox cap %d" q
    | None -> "")
    (match cfg.Iw_model.broken with
    | None -> ""
    | Some _ -> Printf.sprintf ", broken variant injected");
  match replay_sched with
  | Some sched_s -> (
    let* sched = Iw_explore.schedule_of_string sched_s in
    match Iw_explore.replay cfg sched with
    | Error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
    | Ok None ->
      Printf.printf "replay: %d step(s), no violation\n" (List.length sched);
      0
    | Ok (Some viol) ->
      Printf.printf "replay: violation %s: %s\n" viol.Iw_model.v_code
        viol.Iw_model.v_message;
      1)
  | None -> (
    let r = Iw_explore.explore ?seed ~max_states:depth cfg in
    Printf.printf "explored %d state(s), %d transition(s), max depth %d%s\n"
      r.Iw_explore.r_states r.Iw_explore.r_transitions r.Iw_explore.r_depth
      (if r.Iw_explore.r_truncated then
         Printf.sprintf " — TRUNCATED at the %d-state bound (not exhaustive)" depth
       else if r.Iw_explore.r_violation <> None then " — stopped at first violation"
       else " — exhaustive");
    match r.Iw_explore.r_violation with
    | None ->
      Printf.printf "invariants hold on every explored state\n";
      0
    | Some cx ->
      Printf.printf "VIOLATION %s: %s\n" cx.Iw_explore.cx_code cx.Iw_explore.cx_message;
      Printf.printf "minimized schedule (%d step(s), shrunk from %d):\n  %s\n"
        (List.length cx.Iw_explore.cx_schedule)
        cx.Iw_explore.cx_shrunk_from
        (Iw_explore.schedule_to_string cx.Iw_explore.cx_schedule);
      Printf.printf "replay with: iw-check --model%s --clients %d%s%s --coherence %s%s --replay '%s'\n"
        (if crash then " --crash" else "")
        clients
        (if segments > 1 then Printf.sprintf " --segments %d" segments else "")
        (match queue with
        | Some q -> Printf.sprintf " --queue %d" q
        | None -> "")
        coherence
        (match broken with
        | Some b ->
          Printf.sprintf " --model-broken %s"
            (match b with
            | Iw_model.No_dedup_rebuild -> "no-dedup-rebuild"
            | Iw_model.Ack_before_log -> "ack-before-log"
            | Iw_model.No_lock_check -> "no-lock-check"
            | Iw_model.No_reclaim -> "no-reclaim"
            | Iw_model.Stale_full_reads -> "stale-full-reads"
            | Iw_model.Shed_applied -> "shed-applied")
        | None -> "")
        (Iw_explore.schedule_to_string cx.Iw_explore.cx_schedule);
      1)

(* --race: the source-level lock-discipline lint over .ml trees. *)
let run_race paths werror =
  let paths = if paths = [] then [ "lib"; "bin" ] else paths in
  match Iw_src_lint.lint_files paths with
  | Error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Ok ds -> (
    List.iter (fun d -> Format.printf "%a@." Iw_src_lint.pp_diagnostic d) ds;
    if ds = [] then Printf.printf "race: %s: clean\n" (String.concat " " paths);
    match Iw_src_lint.worst ds with
    | Some Iw_lint.Error -> 1
    | Some Iw_lint.Warning when werror -> 1
    | _ -> 0)

let run files json werror arch_names =
  match resolve_arches arch_names with
  | Error msg ->
    Printf.eprintf "iw-check: %s\n" msg;
    2
  | Ok arches -> (
    try
      let per_file =
        List.map
          (fun file ->
            let decls = Iw_idl.parse_file file in
            (file, Iw_lint.lint ~arches decls))
          files
      in
      if json then begin
        let entry (file, ds) =
          Printf.sprintf "{\"file\":\"%s\",\"diagnostics\":%s}" file (Iw_lint.to_json ds)
        in
        print_endline ("[" ^ String.concat "," (List.map entry per_file) ^ "]")
      end
      else
        List.iter
          (fun (file, ds) ->
            List.iter
              (fun d -> Format.printf "%a@." (Iw_lint.pp_diagnostic ~file) d)
              ds)
          per_file;
      let worst = Iw_lint.worst (List.concat_map snd per_file) in
      match worst with
      | Some Iw_lint.Error -> 1
      | Some Iw_lint.Warning when werror -> 1
      | _ -> 0
    with
    | Iw_idl.Parse_error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2
    | Sys_error msg ->
      Printf.eprintf "iw-check: %s\n" msg;
      2)

open Cmdliner

(* plain strings, not Arg.file: each mode reports a missing path itself with
   the documented exit code 2 instead of cmdliner's generic CLI error *)
let files =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "IDL files to lint; .ml trees for --race.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Validate a fault-injection plan (the IW_FAULT / iw-server \
           --fault-plan syntax, e.g. \
           $(b,seed:7,drop:0.01,delay:5ms,close\\@req=17)) and print its \
           normalized form, instead of linting IDL files.")

let store_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Validate a server durability directory (a --checkpoint-dir): \
           checkpoint magic and CRC trailers, write-ahead-log record CRCs, \
           and version continuity from each checkpoint into its log.  Run \
           it against a stopped (or crashed) server's directory; a torn log \
           tail is reported but passes, since recovery truncates it.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")

let werror =
  Arg.(value & flag & info [ "Werror" ] ~doc:"Treat warnings as errors (exit 1).")

let arch_names =
  Arg.(
    value
    & opt_all string []
    & info [ "arch" ] ~docv:"NAME"
        ~doc:"Architecture(s) to check layouts against (repeatable; default: all).")

(* --lint is the default mode; the flag exists so invocations read naturally
   alongside --model / --race. *)
let lint_flag =
  Arg.(value & flag & info [ "lint" ] ~doc:"Run the IDL lint pass (the default).")

let model_flag =
  Arg.(
    value & flag
    & info [ "model" ]
        ~doc:
          "Exhaustively explore the bounded protocol model (write locks, \
           leases, release dedup, WAL/checkpoint) and check its invariants \
           (MDL01-MDL06) on every reachable state.  A violation prints a \
           minimized, replayable schedule and exits 1.")

let model_depth =
  Arg.(
    value
    & opt int 200_000
    & info [ "depth" ] ~docv:"N"
        ~doc:"State bound for --model: stop (and report truncation) after exploring $(docv) states.")

let model_crash =
  Arg.(
    value & flag
    & info [ "crash" ]
        ~doc:
          "Enable crash actions in --model: server crash/recover, \
           checkpoint barriers, and client death (lease reclamation fodder).")

let model_clients =
  Arg.(
    value & opt int 2
    & info [ "clients" ] ~docv:"N" ~doc:"Number of model clients for --model.")

let model_segments =
  Arg.(
    value & opt int 1
    & info [ "segments" ] ~docv:"N"
        ~doc:
          "Number of independent segments (model shards) for --model.  \
           Client $(i,i) writes segment $(i,i) mod $(docv) and reads segment \
           ($(i,i)+1) mod $(docv), so every invariant is re-checked with \
           per-shard locks, WALs, and checkpoints.")

let model_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Shuffle the per-state action order of --model deterministically; \
           different seeds walk the same state space in a different order.")

let model_broken =
  Arg.(
    value
    & opt (some string) None
    & info [ "model-broken" ] ~docv:"VARIANT"
        ~doc:
          "Re-introduce a protocol bug on purpose (no-dedup-rebuild, \
           ack-before-log, no-lock-check, no-reclaim, stale-full-reads, \
           shed-applied) to demonstrate the invariant that catches it.")

let model_queue =
  Arg.(
    value
    & opt (some int) None
    & info [ "queue" ] ~docv:"CAP"
        ~doc:
          "Bound the model's shard mailbox at $(docv) queued releases: \
           releases split into submit (admission-gated), then apply or shed \
           (refused without side effects; the client resubmits).  Default: \
           the unbounded pre-overload model.")

let model_coherence =
  Arg.(
    value
    & opt string "full,delta:1"
    & info [ "coherence" ] ~docv:"LIST"
        ~doc:
          "Comma-separated per-client coherence models for --model (full, \
           delta:N, temporal, diff:N), cycled over the clients.")

let model_replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCHEDULE"
        ~doc:
          "Replay a space-separated action schedule (as printed by a \
           --model violation) under the same configuration instead of \
           exploring.")

let race_flag =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run the source-level lock-discipline lint (LCK001-LCK004) over \
           the .ml trees given as positional arguments (default: lib bin).")

let cmd =
  let doc = "static checks for InterWeave: IDL lint, protocol model checker, lock-discipline lint, fault-plan and store validation" in
  Cmd.v
    (Cmd.info "iw-check" ~doc)
    Term.(
      const
        (fun files json werror arches _lint fault_plan store model depth crash
             clients segments seed broken coherence queue replay race ->
          if race then run_race files werror
          else if model || replay <> None then
            run_model ~clients ~segments ~depth ~crash ~seed ~broken ~coherence ~queue
              ~replay_sched:replay
          else
            match (fault_plan, store) with
            | Some plan, _ -> run_fault_plan plan
            | None, Some dir -> run_store dir
            | None, None ->
              if files = [] then begin
                Printf.eprintf
                  "iw-check: no IDL files given (and no --model, --race, \
                   --fault-plan, or --store)\n";
                2
              end
              else run files json werror arches)
      $ files $ json $ werror $ arch_names $ lint_flag $ fault_plan $ store_dir
      $ model_flag $ model_depth $ model_crash $ model_clients $ model_segments
      $ model_seed $ model_broken $ model_coherence $ model_queue $ model_replay
      $ race_flag)

let () = exit (Cmd.eval' cmd)

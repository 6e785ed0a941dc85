(* On-line visualization and steering (paper, Section 4.5).

   The Astroflow experience: a simulator publishes frames into a segment;
   a visualization client renders them, controlling its update rate simply
   by setting a temporal coherence bound — no explicit network code in
   either program.

   Run with: dune exec examples/astroflow.exe *)

open Interweave

let render frame w h =
  let shades = " .:-=+*#%@" in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let v = frame.((y * w) + x) in
      let i = min 9 (int_of_float (v *. 2.)) in
      print_char shades.[max 0 i]
    done;
    print_newline ()
  done

let main () =
  let server = start_server () in

  (* Simulation engine (the Fortran side in the paper). *)
  let simc = direct_client ~arch:Arch.alpha64 server in
  let sim = Iw_sim.create simc ~segment:"host/astroflow" ~width:48 ~height:16 in

  (* Visualization front end (the Java-on-a-Pentium side). *)
  let vizc = direct_client ~arch:Arch.x86_32 server in
  let viz = Iw_sim.attach vizc ~segment:"host/astroflow" in
  (* The front end controls its frequency of updates with a temporal bound;
     0 means "always fetch the newest frame". *)
  Iw_sim.set_viewer_interval viz 0.;

  for frame = 1 to 24 do
    Iw_sim.step sim;
    if frame mod 8 = 0 then begin
      Printf.printf "--- viewer frame at step %d ---\n" (Iw_sim.steps_published viz);
      render (Iw_sim.read_frame viz) (Iw_sim.width viz) (Iw_sim.height viz)
    end
  done;

  (* Steering (the paper's Sec. 4.5 "visualization and steering"): the front
     end cranks the source up through the shared control segment. *)
  Iw_sim.set_source_strength viz 40.;
  for _ = 1 to 8 do
    Iw_sim.step sim
  done;
  Printf.printf "--- after the viewer boosts the source to 40 ---\n";
  render (Iw_sim.read_frame viz) (Iw_sim.width viz) (Iw_sim.height viz);

  let sim_sum = Iw_sim.checksum sim and viz_sum = Iw_sim.checksum viz in
  Printf.printf "checksums: simulator %.3f, viewer %.3f (%s)\n" sim_sum viz_sum
    (if abs_float (sim_sum -. viz_sum) < 1e-6 then "identical across architectures"
     else "DIVERGED");

  let st = Client.stats vizc in
  Printf.printf "viewer received %d payload bytes over %d diffs\n" st.Client.bytes_received
    st.Client.diffs_received

(* A bad IW_* value (IW_SANITIZE=yes, say) raises Invalid_argument naming
   the variable when the server or a client is built: one line, exit 1. *)
let () =
  match main () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline ("astroflow: " ^ msg);
    exit 1

(* Incremental interactive datamining (paper, Section 4.4).

   A database server builds a lattice of frequent item sequences from a
   growing transaction database and shares it through the segment
   "host/mining-demo".  A mining client queries the lattice; because results
   are statistical, it relaxes coherence (Delta 3) and skips most updates.

   Run with: dune exec examples/datamining.exe *)

open Interweave
module Gen = Iw_seqmine.Gen
module Lattice = Iw_seqmine.Lattice

let main () =
  let server = start_server () in

  (* Database-server side: an InterWeave client that owns the summary. *)
  let dbc = direct_client ~arch:Arch.x86_32 server in
  let params = Gen.scaled 0.02 in
  let db = Gen.generate params in
  Printf.printf "database: %d customers, %d items, %.1f MB\n" params.Gen.customers
    params.Gen.items
    (float_of_int (Gen.size_bytes db) /. 1024. /. 1024.);
  let lattice = Lattice.create dbc ~segment:"host/mining-demo" ~min_support:40 in

  (* Initial build from the first half of the database. *)
  let half = params.Gen.customers / 2 in
  Lattice.update lattice db ~from_customer:0 ~to_customer:half;
  Printf.printf "initial summary from %d customers: %d sequence nodes\n" half
    (Lattice.node_count lattice);

  (* Mining-client side: different architecture, relaxed coherence. *)
  let mc = direct_client ~arch:Arch.alpha64 server in
  let miner = Lattice.attach mc ~segment:"host/mining-demo" in
  set_coherence (Lattice.segment miner) (Proto.Delta 3);

  let query label =
    let seg = Lattice.segment miner in
    rl_acquire seg;
    let top = Lattice.top miner 5 in
    Printf.printf "%s: top sequences (version %d):\n" label (Client.segment_version seg);
    List.iter
      (fun (seq, support) ->
        Printf.printf "   [%s]  support %d\n"
          (String.concat " -> " (List.map string_of_int seq))
          support)
      top;
    rl_release seg
  in
  query "first mining query";

  (* The database keeps growing: 1% increments, mining queries in between. *)
  let one_pct = params.Gen.customers / 100 in
  for inc = 0 to 9 do
    let from = half + (inc * one_pct) in
    Lattice.update lattice db ~from_customer:from ~to_customer:(from + one_pct);
    if (inc + 1) mod 5 = 0 then
      query (Printf.sprintf "after %d%% more data" (inc + 1))
  done;

  let st = Client.stats mc in
  Printf.printf
    "mining client: %d diffs applied, %d updates skipped by Delta-3 coherence, %d payload bytes\n"
    st.Client.diffs_received st.Client.updates_skipped st.Client.bytes_received

(* A bad IW_* value (IW_SANITIZE=yes, say) raises Invalid_argument naming
   the variable when the server or a client is built: one line, exit 1. *)
let () =
  match main () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline ("datamining: " ^ msg);
    exit 1

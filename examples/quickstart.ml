(* Quickstart: the shared linked list from Figure 1 of the paper.

   Two clients — one little-endian 32-bit, one big-endian — share the list
   "host/list".  The writer inserts under a write lock; the reader searches
   under read locks, following pointers that InterWeave swizzled into its own
   address space.  Node accessors come from list_types.ml, generated from
   list.idl by iw-idlc at build time.

   Run with: dune exec examples/quickstart.exe *)

open Interweave
open List_types

(* IW_open_segment + IW_mip_to_ptr: the paper's list_init. *)
let list_init c =
  let h = open_segment c "host/list" in
  wl_acquire h;
  let head =
    match Client.find_named_block h "head" with
    | Some b -> b.Mem.b_addr
    | None -> Node.malloc ~name:"head" h
  in
  wl_release h;
  (h, head)

(* The paper's list_insert: allocate, link at the front. *)
let list_insert c h head key =
  wl_acquire h;
  let p = Node.malloc h in
  Node.set_key c p key;
  Node.set_next c p (Node.get_next c head);
  Node.set_next c head p;
  wl_release h

(* The paper's list_search. *)
let list_search c h head key =
  rl_acquire h;
  let rec go p =
    if p = 0 then None
    else if Node.get_key c p = key then Some p
    else go (Node.get_next c p)
  in
  let r = go (Node.get_next c head) in
  rl_release h;
  r

let main () =
  let server = start_server () in
  let writer = direct_client ~arch:Arch.x86_32 server in
  let reader = direct_client ~arch:Arch.sparc32 server in

  let wh, whead = list_init writer in
  List.iter (list_insert writer wh whead) [ 10; 20; 30; 40; 50 ];
  Printf.printf "writer (x86_32) inserted keys 10..50 into %s\n"
    (ptr_to_mip writer whead);

  (* Bootstrap the reader from a MIP, as the paper's example does. *)
  let rhead = mip_to_ptr reader "host/list#head" in
  let rh = Option.get (Client.find_segment reader "host/list") in
  List.iter
    (fun key ->
      match list_search reader rh rhead key with
      | Some p ->
        Printf.printf "reader (sparc32) found key %d at local address %#x (MIP %s)\n" key p
          (ptr_to_mip reader p)
      | None -> Printf.printf "reader (sparc32) did NOT find key %d\n" key)
    [ 30; 50; 99 ];

  (* Concurrent update: the reader sees it on its next lock. *)
  list_insert writer wh whead 99;
  (match list_search reader rh rhead 99 with
  | Some _ -> print_endline "after one more insert, key 99 is visible to the reader"
  | None -> print_endline "BUG: key 99 should be visible");

  let st = Client.stats reader in
  Printf.printf "reader transferred %d payload bytes in %d diffs\n"
    st.Client.bytes_received st.Client.diffs_received

(* A bad IW_* value (IW_SANITIZE=yes, say) raises Invalid_argument naming
   the variable when the server or a client is built: one line, exit 1. *)
let () =
  match main () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline ("quickstart: " ^ msg);
    exit 1

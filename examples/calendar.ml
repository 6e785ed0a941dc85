(* A shared calendar: the "mix"-style CSCW workload the paper's Figure 4
   motivates — records full of small strings, integers, and pointers, updated
   a few fields at a time by different users on different machines.

   Each user owns a segment of appointments; a shared directory segment
   points at every user's schedule, so browsing follows cross-segment
   pointers.  Run with: dune exec examples/calendar.exe *)

open Interweave

let appt_desc =
  Desc.structure
    [
      Desc.field "day" Desc.int;
      Desc.field "hour" Desc.int;
      Desc.field "title" (Desc.string 48);
      Desc.field "location" (Desc.string 24);
      Desc.field "next" (Desc.ptr "appt");
    ]

let dir_entry_desc =
  Desc.structure
    [
      Desc.field "user" (Desc.string 16);
      Desc.field "schedule" Desc.opaque_ptr;  (* cross-segment pointer *)
      Desc.field "next" (Desc.ptr "dir_entry");
    ]

let f c desc a name = deref c desc a [ F name ]

(* Add an appointment to a user's own segment and register the user in the
   shared directory if not yet present. *)
let add_appointment c ~user ~day ~hour ~title ~location =
  let seg = open_segment c ("calendar/" ^ user) in
  wl_acquire seg;
  let head =
    match Client.find_named_block seg "head" with
    | Some b -> b.Mem.b_addr
    | None -> malloc ~name:"head" seg appt_desc
  in
  let a = malloc seg appt_desc in
  Client.write_int c (f c appt_desc a "day") day;
  Client.write_int c (f c appt_desc a "hour") hour;
  Client.write_string c ~capacity:48 (f c appt_desc a "title") title;
  Client.write_string c ~capacity:24 (f c appt_desc a "location") location;
  Client.write_ptr c (f c appt_desc a "next") (Client.read_ptr c (f c appt_desc head "next"));
  Client.write_ptr c (f c appt_desc head "next") a;
  wl_release seg;
  let dir = open_segment c "calendar/directory" in
  wl_acquire dir;
  let dhead =
    match Client.find_named_block dir "head" with
    | Some b -> b.Mem.b_addr
    | None -> malloc ~name:"head" dir dir_entry_desc
  in
  let rec registered e =
    e <> 0
    && (Client.read_string c ~capacity:16 (f c dir_entry_desc e "user") = user
        || registered (Client.read_ptr c (f c dir_entry_desc e "next")))
  in
  if not (registered (Client.read_ptr c (f c dir_entry_desc dhead "next"))) then begin
    let e = malloc dir dir_entry_desc in
    Client.write_string c ~capacity:16 (f c dir_entry_desc e "user") user;
    Client.write_ptr c (f c dir_entry_desc e "schedule") head;
    Client.write_ptr c (f c dir_entry_desc e "next")
      (Client.read_ptr c (f c dir_entry_desc dhead "next"));
    Client.write_ptr c (f c dir_entry_desc dhead "next") e
  end;
  wl_release dir

(* Browse everyone's schedule by walking the directory's cross-segment
   pointers. *)
let browse c =
  let dir = open_segment ~create:false c "calendar/directory" in
  rl_acquire dir;
  let dhead = (Option.get (Client.find_named_block dir "head")).Mem.b_addr in
  let rec each_entry e =
    if e <> 0 then begin
      let user = Client.read_string c ~capacity:16 (f c dir_entry_desc e "user") in
      let sched = Client.read_ptr c (f c dir_entry_desc e "schedule") in
      (* The schedule lives in another segment; lock it before reading. *)
      let useg = Option.get (Client.segment_of_addr c sched) in
      rl_acquire useg;
      Printf.printf "  %s:\n" user;
      let rec each_appt a =
        if a <> 0 then begin
          Printf.printf "    day %d %02d:00  %-20s @ %s\n"
            (Client.read_int c (f c appt_desc a "day"))
            (Client.read_int c (f c appt_desc a "hour"))
            (Client.read_string c ~capacity:48 (f c appt_desc a "title"))
            (Client.read_string c ~capacity:24 (f c appt_desc a "location"));
          each_appt (Client.read_ptr c (f c appt_desc a "next"))
        end
      in
      each_appt (Client.read_ptr c (f c appt_desc sched "next"));
      rl_release useg;
      each_entry (Client.read_ptr c (f c dir_entry_desc e "next"))
    end
  in
  each_entry (Client.read_ptr c (f c dir_entry_desc dhead "next"));
  rl_release dir

let main () =
  let server = start_server () in
  let alice = direct_client ~arch:Arch.x86_32 server in
  let bob = direct_client ~arch:Arch.sparc32 server in
  let carol = direct_client ~arch:Arch.alpha64 server in

  add_appointment alice ~user:"alice" ~day:1 ~hour:9 ~title:"ICDCS talk" ~location:"room 301";
  add_appointment alice ~user:"alice" ~day:1 ~hour:14 ~title:"office hours" ~location:"CSB 726";
  add_appointment bob ~user:"bob" ~day:2 ~hour:11 ~title:"reading group" ~location:"library";
  add_appointment carol ~user:"carol" ~day:3 ~hour:16 ~title:"demo: InterWeave" ~location:"lab";

  print_endline "carol (alpha64) browses everyone's calendars:";
  browse carol;

  (* Bob reschedules; alice sees the change on her next browse. *)
  add_appointment bob ~user:"bob" ~day:2 ~hour:15 ~title:"reading group (moved)" ~location:"cafe";
  print_endline "alice (x86_32) browses after bob's update:";
  browse alice

(* A bad IW_* value (IW_SANITIZE=yes, say) raises Invalid_argument naming
   the variable when the server or a client is built: one line, exit 1. *)
let () =
  match main () with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline ("calendar: " ^ msg);
    exit 1

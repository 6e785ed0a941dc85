(* Counters and gauges are bare mutable fields; histograms are fixed arrays
   indexed by a short scan over power-of-two bounds.  Every mutation is
   guarded by one load-and-branch on the registry's enabled flag (shared into
   each instrument as a bool ref), so a disabled registry costs a single
   branch per instrumented event.  Updates are not atomic: like the client
   and server stat records, instruments tolerate the benign races of
   systhread interleaving rather than taking a lock per event. *)

type counter = {
  c_on : bool ref;
  mutable c_value : int;
}

type gauge = {
  g_on : bool ref;
  mutable g_value : float;
}

type histogram = {
  h_on : bool ref;
  h_unit : string;
  h_bounds : float array;
  h_counts : int array;  (* length (Array.length h_bounds) + 1: last = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
}

type probe_fn = {
  p_kind : [ `Counter | `Gauge ];
  p_read : unit -> float;
}

type item =
  | I_counter of counter
  | I_gauge of gauge
  | I_hist of histogram
  | I_probe of probe_fn

type t = {
  r_on : bool ref;
  r_mutex : Mutex.t;  (* guards registration and snapshot, not updates *)
  r_items : (string, string * item) Hashtbl.t;  (* name -> help, instrument *)
}

let create ?(enabled = true) () =
  { r_on = ref enabled; r_mutex = Mutex.create (); r_items = Hashtbl.create 32 }

let enabled t = !(t.r_on)

let set_enabled t b = t.r_on := b

(* Forget every instrument.  Existing instrument handles keep working (their
   enabled ref is shared) but no longer appear in snapshots; tests use this
   to keep registries from leaking series into each other. *)
let reset t =
  Mutex.lock t.r_mutex;
  Hashtbl.reset t.r_items;
  Mutex.unlock t.r_mutex

let env_flag name ~default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some "0" -> false
  | Some "1" -> true
  | Some s -> invalid_arg (Printf.sprintf "%s: expected 0 or 1, got %S" name s)

let env_enabled ~default = env_flag "IW_METRICS" ~default

let with_label name k v =
  let buf = Buffer.create (String.length name + String.length k + String.length v + 8) in
  let add_label () =
    Buffer.add_string buf k;
    Buffer.add_string buf "=\"";
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.add_char buf '"'
  in
  if String.length name > 0 && name.[String.length name - 1] = '}' then begin
    Buffer.add_string buf (String.sub name 0 (String.length name - 1));
    Buffer.add_char buf ',';
    add_label ();
    Buffer.add_char buf '}'
  end
  else begin
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    add_label ();
    Buffer.add_char buf '}'
  end;
  Buffer.contents buf

let register t name help mk match_existing =
  Mutex.lock t.r_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.r_mutex)
    (fun () ->
      match Hashtbl.find_opt t.r_items name with
      | Some (_, item) -> begin
        match match_existing item with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Iw_metrics: %S already registered as another kind" name)
      end
      | None ->
        let v, item = mk () in
        Hashtbl.replace t.r_items name (help, item);
        v)

let counter t ?(help = "") name =
  register t name help
    (fun () ->
      let c = { c_on = t.r_on; c_value = 0 } in
      (c, I_counter c))
    (function I_counter c -> Some c | _ -> None)

let incr ?(by = 1) c = if !(c.c_on) then c.c_value <- c.c_value + by

let gauge t ?(help = "") name =
  register t name help
    (fun () ->
      let g = { g_on = t.r_on; g_value = 0. } in
      (g, I_gauge g))
    (function I_gauge g -> Some g | _ -> None)

let set_gauge g v = if !(g.g_on) then g.g_value <- v

(* Power-of-two upper bounds: 2^0 .. 2^(n-1), plus an implicit overflow
   bucket.  26 bounds of microseconds reach ~67 s; 31 bounds of bytes reach
   1 GiB. *)
let log2_bounds n = Array.init n (fun i -> float_of_int (1 lsl i))

let us_bounds = log2_bounds 27

let byte_bounds = log2_bounds 31

let make_hist t name help unit_ bounds =
  register t name help
    (fun () ->
      let h =
        {
          h_on = t.r_on;
          h_unit = unit_;
          h_bounds = bounds;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_count = 0;
          h_sum = 0.;
        }
      in
      (h, I_hist h))
    (function I_hist h -> Some h | _ -> None)

let histogram_us t ?(help = "") name = make_hist t name help "us" us_bounds

let histogram_bytes t ?(help = "") name = make_hist t name help "bytes" byte_bounds

(* 16 bounds of counts reach 32768 — plenty for version lags and similar
   small-cardinality distributions. *)
let count_bounds = log2_bounds 16

let histogram_count t ?(help = "") name = make_hist t name help "count" count_bounds

let observe h v =
  if !(h.h_on) then begin
    let n = Array.length h.h_bounds in
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do
      i := !i + 1
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v
  end

let now_us () = Unix.gettimeofday () *. 1e6

let probe t ?(help = "") ?(kind = `Counter) name read =
  register t name help
    (fun () -> ((), I_probe { p_kind = kind; p_read = read }))
    (function I_probe _ -> Some () | _ -> None)

(* Snapshots. *)

type hist_view = {
  hv_unit : string;
  hv_bounds : float array;
  hv_counts : int array;
  hv_count : int;
  hv_sum : float;
}

type value =
  | V_counter of float
  | V_gauge of float
  | V_hist of hist_view

type sample = {
  s_name : string;
  s_help : string;
  s_value : value;
}

type snapshot = sample list

let snapshot t =
  Mutex.lock t.r_mutex;
  let samples =
    Hashtbl.fold
      (fun name (help, item) acc ->
        let value =
          match item with
          | I_counter c -> V_counter (float_of_int c.c_value)
          | I_gauge g -> V_gauge g.g_value
          | I_probe p -> begin
            match p.p_kind with
            | `Counter -> V_counter (p.p_read ())
            | `Gauge -> V_gauge (p.p_read ())
          end
          | I_hist h ->
            V_hist
              {
                hv_unit = h.h_unit;
                hv_bounds = h.h_bounds;
                hv_counts = Array.copy h.h_counts;
                hv_count = h.h_count;
                hv_sum = h.h_sum;
              }
        in
        { s_name = name; s_help = help; s_value = value } :: acc)
      t.r_items []
  in
  Mutex.unlock t.r_mutex;
  List.sort (fun a b -> compare a.s_name b.s_name) samples

let find snap name =
  List.find_map (fun s -> if s.s_name = name then Some s.s_value else None) snap

let hist_quantile hv q =
  if hv.hv_count = 0 then Float.nan
  else begin
    let target = q *. float_of_int hv.hv_count in
    let rec go i acc =
      if i >= Array.length hv.hv_counts then infinity
      else begin
        let acc = acc + hv.hv_counts.(i) in
        if float_of_int acc >= target then
          if i < Array.length hv.hv_bounds then hv.hv_bounds.(i) else infinity
        else go (i + 1) acc
      end
    in
    go 0 0
  end

(* "name{a="b"}" -> base and label body (without braces). *)
let split_labels name =
  match String.index_opt name '{' with
  | Some i when name.[String.length name - 1] = '}' ->
    (String.sub name 0 i, Some (String.sub name (i + 1) (String.length name - i - 2)))
  | _ -> (name, None)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* The exposition format escapes backslash and newline in HELP text (label
   values additionally escape double quotes, handled in [with_label] at
   registration time — segment names are URLs and can contain anything). *)
let escape_help help =
  let buf = Buffer.create (String.length help) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    help;
  Buffer.contents buf

let render_prometheus snap =
  let buf = Buffer.create 1024 in
  let described = Hashtbl.create 16 in
  let describe base help typ =
    if not (Hashtbl.mem described base) then begin
      Hashtbl.replace described base ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base (escape_help help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base typ)
    end
  in
  let series base labels value =
    (match labels with
    | None -> Buffer.add_string buf base
    | Some body -> Buffer.add_string buf (Printf.sprintf "%s{%s}" base body));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (fmt_float value);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun s ->
      let base, labels = split_labels s.s_name in
      match s.s_value with
      | V_counter v ->
        describe base s.s_help "counter";
        series base labels v
      | V_gauge v ->
        describe base s.s_help "gauge";
        series base labels v
      | V_hist hv ->
        describe base s.s_help "histogram";
        let with_le le =
          match labels with
          | None -> Some (Printf.sprintf "le=\"%s\"" le)
          | Some body -> Some (Printf.sprintf "%s,le=\"%s\"" body le)
        in
        let cum = ref 0 in
        Array.iteri
          (fun i count ->
            cum := !cum + count;
            let le =
              if i < Array.length hv.hv_bounds then fmt_float hv.hv_bounds.(i)
              else "+Inf"
            in
            series (base ^ "_bucket") (with_le le) (float_of_int !cum))
          hv.hv_counts;
        series (base ^ "_sum") labels hv.hv_sum;
        series (base ^ "_count") labels (float_of_int hv.hv_count))
    snap;
  Buffer.contents buf

let render_json snap =
  let open Iw_obs_json in
  Obj
    (List.map
       (fun s ->
         let v =
           match s.s_value with
           | V_counter v -> Obj [ ("type", Str "counter"); ("value", Num v) ]
           | V_gauge v -> Obj [ ("type", Str "gauge"); ("value", Num v) ]
           | V_hist hv ->
             Obj
               [
                 ("type", Str "histogram");
                 ("unit", Str hv.hv_unit);
                 ("bounds", Arr (Array.to_list (Array.map (fun b -> Num b) hv.hv_bounds)));
                 ("counts", Arr (Array.to_list (Array.map num_int hv.hv_counts)));
                 ("count", num_int hv.hv_count);
                 ("sum", Num hv.hv_sum);
               ]
         in
         (s.s_name, v))
       snap)

let pp_text ppf snap =
  let q hv p =
    let v = hist_quantile hv p in
    if Float.is_nan v then "-"
    else if v = infinity then Printf.sprintf ">%s" (fmt_float hv.hv_bounds.(Array.length hv.hv_bounds - 1))
    else "<=" ^ fmt_float v
  in
  List.iter
    (fun s ->
      match s.s_value with
      | V_counter v | V_gauge v -> Format.fprintf ppf "%-56s %s@." s.s_name (fmt_float v)
      | V_hist hv ->
        let mean =
          if hv.hv_count = 0 then "-"
          else fmt_float (hv.hv_sum /. float_of_int hv.hv_count)
        in
        Format.fprintf ppf "%-56s count=%d sum=%s mean=%s %s  p50%s p90%s p99%s@."
          s.s_name hv.hv_count (fmt_float hv.hv_sum) mean hv.hv_unit (q hv 0.5)
          (q hv 0.9) (q hv 0.99))
    snap

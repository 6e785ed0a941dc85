type prim = Iw_arch.prim

type desc =
  | Prim of prim
  | Ptr of string
  | Array of desc * int
  | Struct of field array

and field = {
  fname : string;
  ftype : desc;
}

let equal = ( = )

let rec pp ppf = function
  | Prim Iw_arch.Char -> Format.fprintf ppf "char"
  | Prim Short -> Format.fprintf ppf "short"
  | Prim Int -> Format.fprintf ppf "int"
  | Prim Long -> Format.fprintf ppf "long"
  | Prim Float -> Format.fprintf ppf "float"
  | Prim Double -> Format.fprintf ppf "double"
  | Prim Pointer -> Format.fprintf ppf "ptr"
  | Prim (String n) -> Format.fprintf ppf "string<%d>" n
  | Ptr name -> Format.fprintf ppf "%s*" name
  | Array (d, n) -> Format.fprintf ppf "%a[%d]" pp d n
  | Struct fields ->
    Format.fprintf ppf "struct {@[";
    Array.iter (fun f -> Format.fprintf ppf " %s:%a;" f.fname pp f.ftype) fields;
    Format.fprintf ppf "@] }"

let rec prim_count = function
  | Prim _ | Ptr _ -> 1
  | Array (d, n) -> n * prim_count d
  | Struct fields -> Array.fold_left (fun acc f -> acc + prim_count f.ftype) 0 fields

let rec validate = function
  | Prim (Iw_arch.String n) ->
    if n >= 2 then Ok () else Error "string capacity must be at least 2"
  | Prim _ | Ptr _ -> Ok ()
  | Array (_, n) when n <= 0 -> Error "array count must be positive"
  | Array (d, _) -> validate d
  | Struct [||] -> Error "struct must have at least one field"
  | Struct fields ->
    Array.fold_left
      (fun acc f -> match acc with Error _ -> acc | Ok () -> validate f.ftype)
      (Ok ()) fields

type conv = {
  cname : string;
  size_of : prim -> int;
  align_of : prim -> int;
  memo : (desc, layout) Hashtbl.t;
}

and layout = {
  conv : conv;
  ldesc : desc;
  lsize : int;  (* stride: size aligned up to [lalign] *)
  lalign : int;
  lpcount : int;
  shape : shape;
}

and shape =
  | L_prim of prim
  | L_array of { elem : layout; count : int }
  | L_struct of { fields : fld array }

and fld = {
  f_name : string;
  f_off : int;
  f_pstart : int;
  f_lay : layout;
}

let local_convs : (string, conv) Hashtbl.t = Hashtbl.create 8

let local arch =
  match Hashtbl.find_opt local_convs arch.Iw_arch.name with
  | Some c -> c
  | None ->
    let c =
      {
        cname = arch.Iw_arch.name;
        size_of = Iw_arch.prim_size arch;
        align_of = Iw_arch.prim_align arch;
        memo = Hashtbl.create 64;
      }
    in
    Hashtbl.add local_convs arch.Iw_arch.name c;
    c

(* Packed machine-independent layout used for server master copies: no
   padding; variable-length prims (pointers, strings) occupy 4-byte handle
   slots because their payloads live in a separate area (paper, Sec. 3.2). *)
let wire =
  let size_of = function
    | Iw_arch.Char -> 1
    | Short -> 2
    | Int -> 4
    | Long -> 8
    | Float -> 4
    | Double -> 8
    | Pointer -> 4
    | String _ -> 4
  in
  { cname = "wire"; size_of; align_of = (fun _ -> 1); memo = Hashtbl.create 64 }

let rec layout conv desc =
  match Hashtbl.find_opt conv.memo desc with
  | Some l -> l
  | None ->
    let l =
      match desc with
      | Ptr _ ->
        let p = Iw_arch.Pointer in
        let align = conv.align_of p in
        {
          conv;
          ldesc = desc;
          lsize = Iw_arch.align_up (conv.size_of p) align;
          lalign = align;
          lpcount = 1;
          shape = L_prim p;
        }
      | Prim p ->
        let align = conv.align_of p in
        {
          conv;
          ldesc = desc;
          lsize = Iw_arch.align_up (conv.size_of p) align;
          lalign = align;
          lpcount = 1;
          shape = L_prim p;
        }
      | Array (d, n) ->
        let elem = layout conv d in
        {
          conv;
          ldesc = desc;
          lsize = n * elem.lsize;
          lalign = elem.lalign;
          lpcount = n * elem.lpcount;
          shape = L_array { elem; count = n };
        }
      | Struct fields ->
        let n = Array.length fields in
        let flds = Array.make n { f_name = ""; f_off = 0; f_pstart = 0; f_lay = layout conv (Prim Char) } in
        let off = ref 0 and pstart = ref 0 and align = ref 1 in
        for i = 0 to n - 1 do
          let f = fields.(i) in
          let f_lay = layout conv f.ftype in
          let f_off = Iw_arch.align_up !off f_lay.lalign in
          flds.(i) <- { f_name = f.fname; f_off; f_pstart = !pstart; f_lay };
          off := f_off + f_lay.lsize;
          pstart := !pstart + f_lay.lpcount;
          if f_lay.lalign > !align then align := f_lay.lalign
        done;
        {
          conv;
          ldesc = desc;
          lsize = Iw_arch.align_up !off !align;
          lalign = !align;
          lpcount = !pstart;
          shape = L_struct { fields = flds };
        }
    in
    Hashtbl.add conv.memo desc l;
    l

let size l = l.lsize

let align l = l.lalign

let layout_prim_count l = l.lpcount

let descriptor l = l.ldesc

type located = {
  l_prim : prim;
  l_index : int;
  l_off : int;
}

let index_of_byte lay off0 =
  let rec go lay ~off ~base_idx =
    if off < 0 || off >= lay.lsize then -1
    else
      match lay.shape with
      | L_prim p -> if off < lay.conv.size_of p then base_idx else -1
      | L_array { elem; count = _ } ->
        let i = off / elem.lsize in
        go elem ~off:(off - (i * elem.lsize)) ~base_idx:(base_idx + (i * elem.lpcount))
      | L_struct { fields } ->
        (* Greatest field whose offset is <= off; fields start at offset 0. *)
        let lo = ref 0 and hi = ref (Array.length fields) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if fields.(mid).f_off <= off then lo := mid else hi := mid
        done;
        let f = fields.(!lo) in
        go f.f_lay ~off:(off - f.f_off) ~base_idx:(base_idx + f.f_pstart)
  in
  go lay ~off:off0 ~base_idx:0

let offset_of_index lay idx0 =
  let rec go lay ~idx ~base_off =
    match lay.shape with
    | L_prim _ -> base_off
    | L_array { elem; count = _ } ->
      let i = idx / elem.lpcount in
      go elem ~idx:(idx - (i * elem.lpcount)) ~base_off:(base_off + (i * elem.lsize))
    | L_struct { fields } ->
      (* Greatest field starting at or before unit [idx]. *)
      let lo = ref 0 and hi = ref (Array.length fields) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if fields.(mid).f_pstart <= idx then lo := mid else hi := mid
      done;
      let f = fields.(!lo) in
      go f.f_lay ~idx:(idx - f.f_pstart) ~base_off:(base_off + f.f_off)
  in
  if idx0 >= lay.lpcount then lay.lsize else go lay ~idx:idx0 ~base_off:0

let fold_prims lay ~from ~upto ~init ~f =
  let rec go lay ~base_off ~base_idx acc =
    let lo = base_idx and hi = base_idx + lay.lpcount in
    if upto <= lo || from >= hi then acc
    else
      match lay.shape with
      | L_prim p -> f acc { l_prim = p; l_index = base_idx; l_off = base_off }
      | L_array { elem; count } ->
        let first =
          if from <= lo then 0 else (from - base_idx) / elem.lpcount
        and last =
          if upto >= hi then count - 1 else (upto - 1 - base_idx) / elem.lpcount
        in
        let acc = ref acc in
        for i = first to last do
          acc :=
            go elem
              ~base_off:(base_off + (i * elem.lsize))
              ~base_idx:(base_idx + (i * elem.lpcount))
              !acc
        done;
        !acc
      | L_struct { fields } ->
        Array.fold_left
          (fun acc fl ->
            go fl.f_lay ~base_off:(base_off + fl.f_off)
              ~base_idx:(base_idx + fl.f_pstart) acc)
          acc fields
  in
  go lay ~base_off:0 ~base_idx:0 init

type span = {
  s_prim : prim;
  s_index : int;
  s_off : int;
  s_stride : int;
  s_count : int;
}

(* A toplevel recursion rather than a local closure, delivering a span's
   fields as arguments: translation calls this once per diff run, and it
   allocates nothing. *)
let rec spans_within lay ~from ~upto ~f ~base_off ~base_idx =
  let lo = base_idx and hi = base_idx + lay.lpcount in
  if upto <= lo || from >= hi then ()
  else
    match lay.shape with
    | L_prim p -> f p base_idx base_off lay.lsize 1
    | L_array { elem = { shape = L_prim p; lsize = stride; _ }; count } ->
      let first = if from <= lo then 0 else from - base_idx
      and last = if upto >= hi then count - 1 else upto - 1 - base_idx in
      f p (base_idx + first) (base_off + (first * stride)) stride (last - first + 1)
    | L_array { elem; count } ->
      let first = if from <= lo then 0 else (from - base_idx) / elem.lpcount
      and last =
        if upto >= hi then count - 1 else (upto - 1 - base_idx) / elem.lpcount
      in
      for i = first to last do
        spans_within elem ~from ~upto ~f
          ~base_off:(base_off + (i * elem.lsize))
          ~base_idx:(base_idx + (i * elem.lpcount))
      done
    | L_struct { fields } ->
      for i = 0 to Array.length fields - 1 do
        let fl = fields.(i) in
        spans_within fl.f_lay ~from ~upto ~f ~base_off:(base_off + fl.f_off)
          ~base_idx:(base_idx + fl.f_pstart)
      done

let iter_spans lay ~from ~upto f = spans_within lay ~from ~upto ~f ~base_off:0 ~base_idx:0

let fold_spans lay ~from ~upto ~init ~f =
  let acc = ref init in
  iter_spans lay ~from ~upto (fun s_prim s_index s_off s_stride s_count ->
      acc := f !acc { s_prim; s_index; s_off; s_stride; s_count });
  !acc

let locate_prim lay idx =
  if idx < 0 || idx >= lay.lpcount then
    invalid_arg "Iw_types.locate_prim: index out of range";
  let found = ref None in
  iter_spans lay ~from:idx ~upto:(idx + 1) (fun p _ off _ _ ->
      found := Some { l_prim = p; l_index = idx; l_off = off });
  match !found with Some l -> l | None -> assert false (* idx is in range *)

let locate_byte lay off =
  let i = index_of_byte lay off in
  if i < 0 then None else Some (locate_prim lay i)

(* Isomorphic descriptors (paper, Sec. 3.3): runs of consecutive struct
   fields of identical primitive type become one array field, and arrays of
   arrays of primitives are flattened.  Layout is preserved because a
   primitive's size is always a multiple of its alignment, so consecutive
   same-prim fields are contiguous under every convention. *)
let rec optimize desc =
  match desc with
  | Prim _ | Ptr _ -> desc
  | Array (d, n) -> begin
    match optimize d with
    | Array (d', m) -> Array (d', n * m)
    | d' -> Array (d', n)
  end
  | Struct fields ->
    let collapsed = ref [] in
    let flush_run p run_len first_name =
      if run_len = 1 then collapsed := { fname = first_name; ftype = Prim p } :: !collapsed
      else collapsed := { fname = first_name; ftype = Array (Prim p, run_len) } :: !collapsed
    in
    let run : (prim * int * string) option ref = ref None in
    let emit f =
      (match !run with Some (p, n, name) -> flush_run p n name | None -> ());
      run := None;
      collapsed := f :: !collapsed
    in
    Array.iter
      (fun f ->
        match (optimize f.ftype, !run) with
        | Prim p, Some (p', n, name) when p = p' -> run := Some (p', n + 1, name)
        | Prim p, Some (p', n, name) ->
          flush_run p' n name;
          run := Some (p, 1, f.fname)
        | Prim p, None -> run := Some (p, 1, f.fname)
        | t, _ -> emit { fname = f.fname; ftype = t })
      fields;
    (match !run with Some (p, n, name) -> flush_run p n name | None -> ());
    let fields' = Array.of_list (List.rev !collapsed) in
    begin
      match fields' with
      | [| { ftype = (Array _ | Prim _ | Ptr _) as t; _ } |] -> t
      | _ -> Struct fields'
    end

module Registry = struct
  type t = {
    mutable by_serial : (int * desc) list;  (* descending serial *)
    serials : (desc, int) Hashtbl.t;
    names : (string, desc) Hashtbl.t;
    mutable next : int;
  }

  let create () =
    { by_serial = []; serials = Hashtbl.create 16; names = Hashtbl.create 16; next = 1 }

  let register t desc =
    match Hashtbl.find_opt t.serials desc with
    | Some s -> s
    | None ->
      let s = t.next in
      t.next <- s + 1;
      Hashtbl.add t.serials desc s;
      t.by_serial <- (s, desc) :: t.by_serial;
      s

  let find t serial =
    List.find_map (fun (s, d) -> if s = serial then Some d else None) t.by_serial

  let adopt t serial desc =
    (match find t serial with
    | Some d when not (equal d desc) ->
      invalid_arg "Iw_types.Registry.adopt: conflicting serial assignment"
    | Some _ | None -> ());
    if find t serial = None then begin
      Hashtbl.replace t.serials desc serial;
      t.by_serial <- (serial, desc) :: t.by_serial;
      if serial >= t.next then t.next <- serial + 1
    end

  let serial_of t desc = Hashtbl.find_opt t.serials desc

  let registered_since t serial =
    List.filter (fun (s, _) -> s > serial) t.by_serial
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let count t = List.length t.by_serial

  let define_name t name desc =
    match Hashtbl.find_opt t.names name with
    | Some d when not (equal d desc) ->
      invalid_arg ("Iw_types.Registry.define_name: conflicting definition of " ^ name)
    | Some _ -> ()
    | None -> Hashtbl.add t.names name desc

  let resolve_name t name = Hashtbl.find_opt t.names name

  let names t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.names []
end

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the zlib variant:
   a running value starts at 0 and checksums compose by chaining [update].
   Used for frame checksums on the transport and record checksums in the
   durable store — both ends of the wire must agree on this exact variant.

   Slicing-by-8: [t0] is the classic byte table, and [tk.(n)] is the CRC of
   byte [n] followed by [k] zero bytes, so one step folds 8 input bytes with
   8 independent lookups instead of 8 dependent ones.  The tables are built
   at module initialisation, not on first use, so shard domains and
   connection threads checksumming for the first time at once cannot race
   to build them. *)
module Crc32 = struct
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let slice prev = Array.map (fun c -> t0.(c land 0xff) lxor (c lsr 8)) prev

  let t1 = slice t0
  let t2 = slice t1
  let t3 = slice t2
  let t4 = slice t3
  let t5 = slice t4
  let t6 = slice t5
  let t7 = slice t6

  (* Two 32-bit loads per step, not one 64-bit one: [Int64.to_int] would drop
     bit 63. *)
  let u32le s i = Int32.to_int (String.get_int32_le s i) land 0xffffffff

  let update crc s ~off ~len =
    (* [off > length - len], not [off + len > length]: the sum can overflow. *)
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Iw_wire.Crc32.update";
    let c = ref (crc lxor 0xffffffff) in
    let i = ref off in
    let last8 = off + len - 8 in
    while !i <= last8 do
      let a = u32le s !i lxor !c and b = u32le s (!i + 4) in
      c :=
        Array.unsafe_get t7 (a land 0xff)
        lxor Array.unsafe_get t6 ((a lsr 8) land 0xff)
        lxor Array.unsafe_get t5 ((a lsr 16) land 0xff)
        lxor Array.unsafe_get t4 (a lsr 24)
        lxor Array.unsafe_get t3 (b land 0xff)
        lxor Array.unsafe_get t2 ((b lsr 8) land 0xff)
        lxor Array.unsafe_get t1 ((b lsr 16) land 0xff)
        lxor Array.unsafe_get t0 (b lsr 24);
      i := !i + 8
    done;
    for j = !i to off + len - 1 do
      c :=
        Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
        lxor (!c lsr 8)
    done;
    !c lxor 0xffffffff

  let string s = update 0 s ~off:0 ~len:(String.length s)
end

module Buf = struct
  type t = {
    mutable data : Bytes.t;
    mutable len : int;
  }

  let create ?(capacity = 256) () = { data = Bytes.create (max capacity 16); len = 0 }

  let length b = b.len

  let clear b = b.len <- 0

  let ensure b n =
    let need = b.len + n in
    if need > Bytes.length b.data then begin
      let cap = ref (Bytes.length b.data * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit b.data 0 data 0 b.len;
      b.data <- data
    end

  let contents b = Bytes.sub_string b.data 0 b.len

  let to_bytes b = Bytes.sub b.data 0 b.len

  let u8 b v =
    ensure b 1;
    Bytes.unsafe_set b.data b.len (Char.unsafe_chr (v land 0xff));
    b.len <- b.len + 1

  (* Manual byte stores: these run once per primitive datum translated, and
     the [Int32]/[Int64] conversions of the Bytes setters box. *)
  let u16 b v =
    ensure b 2;
    let d = b.data and p = b.len in
    Bytes.unsafe_set d p (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set d (p + 1) (Char.unsafe_chr (v land 0xff));
    b.len <- p + 2

  let u32 b v =
    ensure b 4;
    let d = b.data and p = b.len in
    Bytes.unsafe_set d p (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set d (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set d (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set d (p + 3) (Char.unsafe_chr (v land 0xff));
    b.len <- p + 4

  let u64 b v =
    ensure b 8;
    let d = b.data and p = b.len in
    (* [asr] sign-extends, so the top byte carries two's complement just as
       [Int64.of_int] would. *)
    for i = 0 to 7 do
      Bytes.unsafe_set d (p + i) (Char.unsafe_chr ((v asr (8 * (7 - i))) land 0xff))
    done;
    b.len <- p + 8

  let f32 b v =
    ensure b 4;
    Bytes.set_int32_be b.data b.len (Int32.bits_of_float v);
    b.len <- b.len + 4

  let f64 b v =
    ensure b 8;
    Bytes.set_int64_be b.data b.len (Int64.bits_of_float v);
    b.len <- b.len + 8

  let raw b src ~off ~len =
    ensure b len;
    Bytes.blit src off b.data b.len len;
    b.len <- b.len + len

  let add_string b s =
    let len = String.length s in
    ensure b len;
    Bytes.blit_string s 0 b.data b.len len;
    b.len <- b.len + len

  let string b s =
    if String.length s > 0xffff then invalid_arg "Iw_wire.Buf.string: too long";
    u16 b (String.length s);
    add_string b s

  let lstring b s =
    u32 b (String.length s);
    add_string b s

  let pad b n =
    ensure b n;
    Bytes.fill b.data b.len n '\000';
    b.len <- b.len + n
end

module Reader = struct
  type t = {
    mutable data : Bytes.t;
    mutable limit : int;
    mutable pos : int;
  }

  let of_bytes data = { data; limit = Bytes.length data; pos = 0 }

  let of_string s = of_bytes (Bytes.unsafe_of_string s)

  let reset r s =
    r.data <- Bytes.unsafe_of_string s;
    r.limit <- String.length s;
    r.pos <- 0

  let pos r = r.pos

  let remaining r = r.limit - r.pos

  let eof r = r.pos >= r.limit

  let need r n = if r.pos + n > r.limit then malformed "truncated input (need %d bytes)" n

  let u8 r =
    need r 1;
    let v = Char.code (Bytes.unsafe_get r.data r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    need r 2;
    let d = r.data and p = r.pos in
    let v =
      (Char.code (Bytes.unsafe_get d p) lsl 8) lor Char.code (Bytes.unsafe_get d (p + 1))
    in
    r.pos <- p + 2;
    v

  let u32 r =
    need r 4;
    let d = r.data and p = r.pos in
    let v =
      (Char.code (Bytes.unsafe_get d p) lsl 24)
      lor (Char.code (Bytes.unsafe_get d (p + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get d (p + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get d (p + 3))
    in
    r.pos <- p + 4;
    v

  let u64 r =
    need r 8;
    let d = r.data and p = r.pos in
    let v = ref 0 in
    for i = 0 to 7 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get d (p + i))
    done;
    r.pos <- p + 8;
    !v

  let f32 r =
    need r 4;
    let v = Int32.float_of_bits (Bytes.get_int32_be r.data r.pos) in
    r.pos <- r.pos + 4;
    v

  let f64 r =
    need r 8;
    let v = Int64.float_of_bits (Bytes.get_int64_be r.data r.pos) in
    r.pos <- r.pos + 8;
    v

  let take r n =
    need r n;
    let s = Bytes.sub_string r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let blit r dst ~off ~len =
    need r len;
    Bytes.blit r.data r.pos dst off len;
    r.pos <- r.pos + len

  let string r =
    let n = u16 r in
    take r n

  let lstring r =
    let n = u32 r in
    take r n

  let skip r n =
    need r n;
    r.pos <- r.pos + n
end

(* Type descriptor codec. *)

let prim_code : Iw_arch.prim -> int = function
  | Char -> 0
  | Short -> 1
  | Int -> 2
  | Long -> 3
  | Float -> 4
  | Double -> 5
  | Pointer -> 6
  | String _ -> 7

let rec put_desc buf (d : Iw_types.desc) =
  match d with
  | Prim p -> begin
    Buf.u8 buf 0;
    Buf.u8 buf (prim_code p);
    match p with String cap -> Buf.u32 buf cap | _ -> ()
  end
  | Ptr name ->
    Buf.u8 buf 3;
    Buf.string buf name
  | Array (d, n) ->
    Buf.u8 buf 1;
    Buf.u32 buf n;
    put_desc buf d
  | Struct fields ->
    Buf.u8 buf 2;
    Buf.u16 buf (Array.length fields);
    Array.iter
      (fun (f : Iw_types.field) ->
        Buf.string buf f.fname;
        put_desc buf f.ftype)
      fields

let rec get_desc r : Iw_types.desc =
  match Reader.u8 r with
  | 0 -> begin
    match Reader.u8 r with
    | 0 -> Prim Char
    | 1 -> Prim Short
    | 2 -> Prim Int
    | 3 -> Prim Long
    | 4 -> Prim Float
    | 5 -> Prim Double
    | 6 -> Prim Pointer
    | 7 -> Prim (String (Reader.u32 r))
    | c -> malformed "unknown primitive code %d" c
  end
  | 1 ->
    let n = Reader.u32 r in
    Array (get_desc r, n)
  | 2 ->
    let n = Reader.u16 r in
    let fields =
      Array.init n (fun _ ->
          let fname = Reader.string r in
          { Iw_types.fname; ftype = get_desc r })
    in
    Struct fields
  | 3 -> Ptr (Reader.string r)
  | t -> malformed "unknown descriptor tag %d" t

module Diff = struct
  type run = {
    start_pu : int;
    len_pu : int;
    payload : string;
  }

  type block_change =
    | Update of {
        serial : int;
        runs : run list;
      }
    | Create of {
        serial : int;
        name : string option;
        desc_serial : int;
        payload : string;
      }
    | Free of { serial : int }

  type t = {
    from_version : int;
    to_version : int;
    new_descs : (int * Iw_types.desc) list;
    changes : block_change list;
  }

  let payload_bytes t =
    List.fold_left
      (fun acc c ->
        match c with
        | Update { runs; _ } ->
          List.fold_left (fun acc r -> acc + String.length r.payload) acc runs
        | Create { payload; _ } -> acc + String.length payload
        | Free _ -> acc)
      0 t.changes

  let touched_units t =
    List.fold_left
      (fun acc c ->
        match c with
        | Update { runs; _ } -> List.fold_left (fun acc r -> acc + r.len_pu) acc runs
        | Create _ | Free _ -> acc)
      0 t.changes

  (* Bytes [encode] writes, less the descriptors. *)
  let encoded_size t =
    List.fold_left
      (fun acc c ->
        match c with
        | Update { runs; _ } ->
          List.fold_left (fun acc r -> acc + 12 + String.length r.payload) (acc + 9) runs
        | Create { name; payload; _ } ->
          acc + 14 + String.length payload
          + (match name with None -> 0 | Some n -> 2 + String.length n)
        | Free _ -> acc + 5)
      14 t.changes

  let encode buf t =
    (* Reserve the whole encoding at once: a diff of many runs would
       otherwise regrow the buffer a dozen times. *)
    Buf.ensure buf (encoded_size t);
    Buf.u32 buf t.from_version;
    Buf.u32 buf t.to_version;
    Buf.u16 buf (List.length t.new_descs);
    List.iter
      (fun (serial, d) ->
        Buf.u32 buf serial;
        put_desc buf d)
      t.new_descs;
    Buf.u32 buf (List.length t.changes);
    List.iter
      (fun c ->
        match c with
        | Update { serial; runs } ->
          Buf.u8 buf 0;
          Buf.u32 buf serial;
          Buf.u32 buf (List.length runs);
          List.iter
            (fun r ->
              Buf.u32 buf r.start_pu;
              Buf.u32 buf r.len_pu;
              Buf.lstring buf r.payload)
            runs
        | Create { serial; name; desc_serial; payload } ->
          Buf.u8 buf 1;
          Buf.u32 buf serial;
          Buf.u32 buf desc_serial;
          (match name with
          | None -> Buf.u8 buf 0
          | Some n ->
            Buf.u8 buf 1;
            Buf.string buf n);
          Buf.lstring buf payload
        | Free { serial } ->
          Buf.u8 buf 2;
          Buf.u32 buf serial)
      t.changes

  let decode r =
    let from_version = Reader.u32 r in
    let to_version = Reader.u32 r in
    let ndescs = Reader.u16 r in
    let new_descs =
      List.init ndescs (fun _ ->
          let serial = Reader.u32 r in
          (serial, get_desc r))
    in
    let nchanges = Reader.u32 r in
    let changes =
      List.init nchanges (fun _ ->
          match Reader.u8 r with
          | 0 ->
            let serial = Reader.u32 r in
            let nruns = Reader.u32 r in
            let runs =
              List.init nruns (fun _ ->
                  let start_pu = Reader.u32 r in
                  let len_pu = Reader.u32 r in
                  let payload = Reader.lstring r in
                  { start_pu; len_pu; payload })
            in
            Update { serial; runs }
          | 1 ->
            let serial = Reader.u32 r in
            let desc_serial = Reader.u32 r in
            let name = if Reader.u8 r = 1 then Some (Reader.string r) else None in
            let payload = Reader.lstring r in
            Create { serial; name; desc_serial; payload }
          | 2 -> Free { serial = Reader.u32 r }
          | t -> malformed "unknown block change tag %d" t)
    in
    { from_version; to_version; new_descs; changes }

  let pp ppf t =
    Format.fprintf ppf "diff v%d->v%d (%d descs, %d changes, %d payload bytes)"
      t.from_version t.to_version (List.length t.new_descs) (List.length t.changes)
      (payload_bytes t)
end

(* Primitive translation between local and wire format. *)

(* Translation iterates spans — maximal runs of identical primitives — so
   bulk arrays run a tight per-type loop with the dispatch hoisted out.
   Applied up to the value's image, each direction builds its span closure
   once and returns the per-range translator, so the runs of one block share
   it. *)
let collect_prims buf arch lay bytes ~base ~swizzle =
  let f prim _index off stride n =
    let off0 = base + off in
    match prim with
    | Iw_arch.Char ->
      for i = 0 to n - 1 do
        Buf.u8 buf (Iw_arch.load_uint arch bytes ~off:(off0 + (i * stride)) ~size:1)
      done
    | Short ->
      for i = 0 to n - 1 do
        Buf.u16 buf (Iw_arch.load_uint arch bytes ~off:(off0 + (i * stride)) ~size:2)
      done
    | Int ->
      for i = 0 to n - 1 do
        Buf.u32 buf (Iw_arch.load_uint arch bytes ~off:(off0 + (i * stride)) ~size:4)
      done
    | Long ->
      let size = arch.Iw_arch.long_size in
      for i = 0 to n - 1 do
        Buf.u64 buf (Iw_arch.load_sint arch bytes ~off:(off0 + (i * stride)) ~size)
      done
    | Float ->
      for i = 0 to n - 1 do
        Buf.f32 buf (Iw_arch.load_float arch bytes ~off:(off0 + (i * stride)))
      done
    | Double ->
      for i = 0 to n - 1 do
        Buf.f64 buf (Iw_arch.load_double arch bytes ~off:(off0 + (i * stride)))
      done
    | Pointer ->
      let size = arch.Iw_arch.pointer_size in
      for i = 0 to n - 1 do
        let addr = Iw_arch.load_uint arch bytes ~off:(off0 + (i * stride)) ~size in
        Buf.string buf (if addr = 0 then "" else swizzle addr)
      done
    | String capacity ->
      for i = 0 to n - 1 do
        Buf.string buf (Iw_arch.load_cstring bytes ~off:(off0 + (i * stride)) ~capacity)
      done
  in
  fun ~from ~upto -> Iw_types.iter_spans lay ~from ~upto f

let apply_prims r arch lay bytes ~base ~unswizzle =
  let f prim _index off stride n =
    let off0 = base + off in
    match prim with
    | Iw_arch.Char ->
      for i = 0 to n - 1 do
        Iw_arch.store_uint arch bytes ~off:(off0 + (i * stride)) ~size:1 (Reader.u8 r)
      done
    | Short ->
      for i = 0 to n - 1 do
        Iw_arch.store_uint arch bytes ~off:(off0 + (i * stride)) ~size:2 (Reader.u16 r)
      done
    | Int ->
      for i = 0 to n - 1 do
        Iw_arch.store_uint arch bytes ~off:(off0 + (i * stride)) ~size:4 (Reader.u32 r)
      done
    | Long ->
      let size = arch.Iw_arch.long_size in
      for i = 0 to n - 1 do
        Iw_arch.store_uint arch bytes ~off:(off0 + (i * stride)) ~size (Reader.u64 r)
      done
    | Float ->
      for i = 0 to n - 1 do
        Iw_arch.store_float arch bytes ~off:(off0 + (i * stride)) (Reader.f32 r)
      done
    | Double ->
      for i = 0 to n - 1 do
        Iw_arch.store_double arch bytes ~off:(off0 + (i * stride)) (Reader.f64 r)
      done
    | Pointer ->
      let size = arch.Iw_arch.pointer_size in
      for i = 0 to n - 1 do
        let mip = Reader.string r in
        let addr = if mip = "" then 0 else unswizzle mip in
        Iw_arch.store_uint arch bytes ~off:(off0 + (i * stride)) ~size addr
      done
    | String capacity ->
      for i = 0 to n - 1 do
        Iw_arch.store_cstring bytes ~off:(off0 + (i * stride)) ~capacity (Reader.string r)
      done
  in
  fun ~from ~upto -> Iw_types.iter_spans lay ~from ~upto f

let wire_size_of_prims lay ~from ~upto ~strings_as =
  Iw_types.fold_prims lay ~from ~upto ~init:0
    ~f:(fun acc (loc : Iw_types.located) ->
      acc
      +
      match loc.l_prim with
      | Iw_arch.Char -> 1
      | Short -> 2
      | Int | Float -> 4
      | Long | Double -> 8
      | Pointer | String _ -> strings_as)

(** Machine-independent wire format.

    The wire format captures both whole values and diffs of complex data
    structures — including pointers — in a machine- and language-independent
    form (paper, Sections 1 and 3.1).  Integers travel big-endian, floating
    point as IEEE 754 bit patterns, strings length-prefixed, and pointers as
    MIP strings.  A block diff is a block serial number plus run-length
    encoded changes whose offsets and lengths are measured in primitive data
    units (Figure 3). *)

exception Malformed of string
(** Raised by decoders on truncated or corrupt input. *)

(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) in the zlib
    convention: a running value starts at 0, and [update] chains.  Shared by
    the transport's frame checksums and the durable store's log records so
    both sides of the wire agree on the exact variant. *)
module Crc32 : sig
  val string : string -> int
  (** CRC of a whole string. *)

  val update : int -> string -> off:int -> len:int -> int
  (** Extend a running CRC with [len] bytes of [s] at [off]. *)
end

(** Growable write buffer. *)
module Buf : sig
  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  val clear : t -> unit

  val contents : t -> string

  val to_bytes : t -> Bytes.t

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit

  val u32 : t -> int -> unit

  val u64 : t -> int -> unit

  val f32 : t -> float -> unit

  val f64 : t -> float -> unit

  val raw : t -> Bytes.t -> off:int -> len:int -> unit

  val add_string : t -> string -> unit
  (** Append the bytes of [s] with no length prefix. *)

  val string : t -> string -> unit
  (** [u16] length prefix followed by the bytes. *)

  val lstring : t -> string -> unit
  (** [u32] length prefix followed by the bytes. *)

  val pad : t -> int -> unit
  (** Append that many zero bytes. *)
end

(** Cursor-based reader over immutable input. *)
module Reader : sig
  type t

  val of_string : string -> t

  val of_bytes : Bytes.t -> t
  (** The reader aliases the bytes; do not mutate them while reading. *)

  val reset : t -> string -> unit
  (** Point the reader at the start of another input, so a loop over many
      small payloads needs one reader. *)

  val pos : t -> int

  val remaining : t -> int

  val eof : t -> bool

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val u64 : t -> int

  val f32 : t -> float

  val f64 : t -> float

  val take : t -> int -> string

  val blit : t -> Bytes.t -> off:int -> len:int -> unit
  (** Copy the next [len] bytes into [dst] at [off] without allocating. *)

  val string : t -> string

  val lstring : t -> string

  val skip : t -> int -> unit
end

(** {1 Type descriptor codec}

    Servers are oblivious to client languages and obtain type descriptors in
    wire form from clients (paper, Section 3.2). *)

val put_desc : Buf.t -> Iw_types.desc -> unit

val get_desc : Reader.t -> Iw_types.desc

(** {1 Diffs} *)

module Diff : sig
  (** One run-length-encoded change: [len_pu] primitive units starting at
      primitive offset [start_pu], with their wire-format payload. *)
  type run = {
    start_pu : int;
    len_pu : int;
    payload : string;
  }

  type block_change =
    | Update of {
        serial : int;
        runs : run list;  (** ascending, non-overlapping *)
      }
    | Create of {
        serial : int;
        name : string option;
        desc_serial : int;
        payload : string;  (** full wire-format content *)
      }
    | Free of { serial : int }

  (** A segment diff: everything that changed between two versions. *)
  type t = {
    from_version : int;
    to_version : int;
    new_descs : (int * Iw_types.desc) list;
        (** descriptors first referenced by this diff, with their serials *)
    changes : block_change list;
  }

  val payload_bytes : t -> int
  (** Total run/create payload size: the bandwidth-relevant part of a diff. *)

  val touched_units : t -> int
  (** Total primitive units covered by the diff's runs and creates — what the
      server's Diff-coherence counter accumulates (paper, Section 3.2). *)

  val encode : Buf.t -> t -> unit

  val decode : Reader.t -> t

  val pp : Format.formatter -> t -> unit
end

(** {1 Primitive translation}

    Translate primitive units between a value in local format and the wire
    format.  Pointer units call back into the client for swizzling (paper,
    Section 3.1): [swizzle] turns a local address into a MIP string and
    [unswizzle] the reverse; address 0 and the empty MIP denote null. *)

val collect_prims :
  Buf.t ->
  Iw_arch.t ->
  Iw_types.layout ->
  Bytes.t ->
  base:int ->
  swizzle:(int -> string) ->
  from:int ->
  upto:int ->
  unit
(** Append the wire encoding of primitive units [from, upto) of the value
    whose local image starts at byte [base] of the buffer.  Applied up to
    [swizzle], returns a translator to call once per unit range of that
    value: the setup is paid once, not per range. *)

val apply_prims :
  Reader.t ->
  Iw_arch.t ->
  Iw_types.layout ->
  Bytes.t ->
  base:int ->
  unswizzle:(string -> int) ->
  from:int ->
  upto:int ->
  unit
(** Inverse of {!collect_prims}: decode units [from, upto) from the reader
    into the local image.  Partial application works the same way; point
    the reader at each range's payload with {!Reader.reset}. *)

val wire_size_of_prims :
  Iw_types.layout -> from:int -> upto:int -> strings_as:int -> int
(** Upper-bound wire payload size of a unit range, counting each pointer or
    string unit as [strings_as] bytes.  Used for buffer pre-sizing and for
    bandwidth accounting. *)

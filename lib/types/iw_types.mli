(** Runtime type descriptors.

    Every InterWeave block has a well-defined type described by a descriptor
    (paper, Section 2.1).  Descriptors drive translation between a machine's
    local format and the machine-independent wire format: they record, for
    every field, both its byte offset in local format and its
    machine-independent {e primitive offset} — its index in the flattened
    sequence of primitive data units (paper, Section 3.1, Figure 3). *)

type prim = Iw_arch.prim

type desc =
  | Prim of prim
  | Ptr of string
      (** A typed pointer: the name of the pointed-at type, resolved through a
          {!Registry}.  Naming (rather than inlining) the pointee keeps
          recursive types — a list node pointing to itself — acyclic.  Lays
          out exactly like [Prim Pointer]. *)
  | Array of desc * int
  | Struct of field array

and field = {
  fname : string;
  ftype : desc;
}

val equal : desc -> desc -> bool

val pp : Format.formatter -> desc -> unit

val prim_count : desc -> int
(** Number of primitive data units in a value of this type.  [Pointer] and
    [String _] each count as one unit. *)

val validate : desc -> (unit, string) result
(** Reject descriptors that cannot describe a block: empty structs or arrays,
    non-positive string capacities. *)

(** {1 Layout}

    A {!conv} is a set of size/alignment conventions: one per machine
    architecture ({!local}), plus the packed machine-independent convention
    used by the server to store master copies ({!wire}), in which pointers and
    strings occupy fixed 4-byte handle slots because their variable-length
    payloads are stored separately (paper, Section 3.2). *)

type conv

val local : Iw_arch.t -> conv
(** Layout conventions of the given architecture.  Calls with the same
    architecture share one memo table. *)

val wire : conv
(** Packed machine-independent layout: no padding, chars 1 byte, shorts 2,
    ints and floats 4, longs and doubles 8, pointer/string slots 4. *)

type layout
(** Memoized layout of one descriptor under one convention. *)

val layout : conv -> desc -> layout

val size : layout -> int
(** Total size in bytes, including trailing padding to the type's alignment. *)

val align : layout -> int

val layout_prim_count : layout -> int

val descriptor : layout -> desc

(** Location of one primitive data unit inside a value. *)
type located = {
  l_prim : prim;
  l_index : int;  (** primitive offset: index in the flattened unit sequence *)
  l_off : int;  (** byte offset of the unit's first byte *)
}

val locate_byte : layout -> int -> located option
(** [locate_byte lay off] finds the primitive unit whose bytes span local byte
    offset [off].  [None] if [off] falls on alignment padding. *)

val index_of_byte : layout -> int -> int
(** The primitive offset of the unit {!locate_byte} would find, or [-1];
    allocates nothing. *)

val offset_of_index : layout -> int -> int
(** Byte offset of primitive unit [i >= 0] ({!locate_prim}'s [l_off]), or
    the layout's size for [i] at or past the unit count; allocates nothing. *)

val locate_prim : layout -> int -> located
(** [locate_prim lay i] finds primitive unit number [i].
    @raise Invalid_argument if [i] is out of range. *)

val fold_prims :
  layout -> from:int -> upto:int -> init:'a -> f:('a -> located -> 'a) -> 'a
(** Fold [f] over primitive units [from] (inclusive) to [upto] (exclusive), in
    primitive-offset order.  Whole arrays are traversed arithmetically, so a
    partial fold over a huge array costs only the units visited. *)

(** A maximal run of consecutive identical primitives at constant stride —
    what an array (or an isomorphic-optimized struct) flattens to. *)
type span = {
  s_prim : prim;
  s_index : int;  (** primitive offset of the first unit *)
  s_off : int;  (** byte offset of the first unit *)
  s_stride : int;  (** bytes between consecutive units *)
  s_count : int;
}

val fold_spans :
  layout -> from:int -> upto:int -> init:'a -> f:('a -> span -> 'a) -> 'a
(** Like {!fold_prims} but delivers arrays of primitives as single spans, so
    translation can run a tight per-type loop over bulk data. *)

val iter_spans :
  layout -> from:int -> upto:int -> (prim -> int -> int -> int -> int -> unit) -> unit
(** The spans of {!fold_spans}, in the same order, with each span's fields
    passed as arguments ([s_prim s_index s_off s_stride s_count]): it
    allocates nothing, for translation loops that run once per diff run. *)

(** {1 Isomorphic descriptors} *)

val optimize : desc -> desc
(** Collapse runs of two or more consecutive struct fields with identical
    primitive type into a single array field, and flatten nested arrays of
    primitives — the paper's isomorphic type descriptor optimization
    (Section 3.3).  The result has the same layout and primitive sequence
    under every convention; only traversal gets cheaper. *)

(** {1 Registry}

    Type descriptors carry segment-specific serial numbers used in
    wire-format messages (paper, Section 3.1).  A registry holds one
    segment's serial assignment plus the name table that resolves {!Ptr}
    references. *)

module Registry : sig
  type t

  val create : unit -> t

  val register : t -> desc -> int
  (** Assign (or return the existing) serial for a descriptor. *)

  val adopt : t -> int -> desc -> unit
  (** Record a serial assignment received over the wire.
      @raise Invalid_argument on a conflicting existing assignment. *)

  val find : t -> int -> desc option

  val serial_of : t -> desc -> int option

  val registered_since : t -> int -> (int * desc) list
  (** Descriptors with serial strictly greater than the argument, ascending —
      what a diff to a client holding that many descriptors must carry. *)

  val count : t -> int

  val define_name : t -> string -> desc -> unit
  (** Bind a type name for {!Ptr} resolution.  Rebinding to a different
      descriptor raises [Invalid_argument]. *)

  val resolve_name : t -> string -> desc option

  val names : t -> (string * desc) list
end

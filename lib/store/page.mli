(** B-tree page layout.

    A page is the in-memory image of one disk block of a key-sequenced
    file. Leaves hold (encoded key, record image) pairs in key order and
    are chained for sequential scans; internal nodes hold separator keys
    and child block numbers.

    A block is a type byte (0 leaf, 1 node), a 16-bit entry count, a
    32-bit [next + 1] (leaf) or [child0] (node), then the entries back to
    back: a leaf entry is the key and the record, each a varint length
    and its bytes; a node entry is the key, written the same way, then a
    32-bit child.

    A cached page is read through its {!view}: a leaf stays its block,
    read in place through a table of entry offsets, and a node is
    decoded. A view is shared by every reader of its cache frame, so it
    is never modified in place: a leaf edit splices a new block, and a
    node edit builds a new entry array. *)

type t =
  | Leaf of { entries : (string * string) array; next : int }
      (** [next] is the block number of the right sibling, or -1 *)
  | Node of { child0 : int; entries : (string * int) array }
      (** keys in [entries] separate children: keys < entries.(0) go to
          [child0], keys in [[entries.(i), entries.(i+1))] to the child of
          entry [i] *)

val empty_leaf : t

(** [encode ~block_size p] serializes to exactly [block_size] bytes.
    Raises [Invalid_argument] if the page does not fit. *)
val encode : block_size:int -> t -> string

val decode : string -> t

(** [size p] is the serialized size in bytes (without block padding). *)
val size : t -> int

(** [leaf_entry_size key record] is the bytes one leaf entry occupies. *)
val leaf_entry_size : string -> string -> int

(** [split_cut ~block_size p mid] is where to split [p], a page one
    entry too large for its block: a leaf keeps entries [[0, c)] and moves
    [[c, n)] to its new right sibling; a node keeps [[0, c)], promotes
    entry [c] and moves [[c + 1, n)]. It is [mid] whenever both halves
    fit, and otherwise the cut nearest [mid] on the side that overflows.
    When no entry is larger than half a block less its header, that cut
    fits both halves: the largest left half that fits leaves a right half
    smaller than two entries, and the other way round. *)
val split_cut : block_size:int -> t -> int -> int

(** {1 Leaves in place} *)

(** A leaf block and the offset of each of its entries, built once when
    the block enters a cache frame. Every accessor reads the block; only
    {!leaf_key}, {!leaf_record} and {!leaf_entries} build strings. *)
type leaf

val leaf_count : leaf -> int

(** [leaf_next l] is the right sibling's block number, or -1. *)
val leaf_next : leaf -> int

(** [leaf_size l] is [size] of the leaf: the bytes its header and entries
    use. *)
val leaf_size : leaf -> int

(** [leaf_block l] is the block [l] reads. *)
val leaf_block : leaf -> string

(** [record_pos l i] and [record_len l i] locate entry [i]'s record image
    in [leaf_block l]. *)
val record_pos : leaf -> int -> int

val record_len : leaf -> int -> int

(** [leaf_key l i] and [leaf_record l i] copy entry [i]'s key and record
    out of the block. *)
val leaf_key : leaf -> int -> string

val leaf_record : leaf -> int -> string

(** [leaf_entries l] copies every entry: {!decode}'s entry array. *)
val leaf_entries : leaf -> (string * string) array

(** [compare_key l i k] is [Keycode.compare_keys (leaf_key l i) k] (its
    sign), read in place. *)
val compare_key : leaf -> int -> string -> int

(** [key_equal l i k] is [String.equal (leaf_key l i) k], read in place. *)
val key_equal : leaf -> int -> string -> bool

(** [leaf_find l key] is the index of the first entry whose key is
    [>= key] in byte order (binary search in place). *)
val leaf_find : leaf -> string -> int

(** {2 Splices}

    Each returns a new [block_size]-byte block equal to [encode] of the
    edited entry array, built by moving the untouched entries' bytes as
    they are. Each raises [Invalid_argument] if the result does not fit. *)

(** [leaf_insert ~block_size l i ~key ~record] puts the entry at index [i]. *)
val leaf_insert :
  block_size:int -> leaf -> int -> key:string -> record:string -> string

(** [leaf_replace ~block_size l i ~record] gives entry [i] a new record. *)
val leaf_replace : block_size:int -> leaf -> int -> record:string -> string

(** [leaf_remove ~block_size l i] drops entry [i]. *)
val leaf_remove : block_size:int -> leaf -> int -> string

(** {1 Cached views} *)

type view =
  | Leaf_view of leaf
  | Node_view of { child0 : int; entries : (string * int) array }
      (** as {!Node} *)

(** [view s] is the cached form of block [s]: for a leaf, one walk over
    its entries' lengths builds the offset table. Raises
    {!Nsql_util.Codec.Truncated} if the entries run past the block's end. *)
val view : string -> view

(** [find_child node_entries child0 key] is the child block to descend to
    for [key]. *)
val find_child : (string * int) array -> int -> string -> int

val pp : Format.formatter -> t -> unit

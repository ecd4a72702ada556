(** B-tree page layout.

    A page is the in-memory image of one disk block of a key-sequenced
    file. Leaves hold (encoded key, record image) pairs in key order and
    are chained for sequential scans; internal nodes hold separator keys
    and child block numbers.

    A decoded page is shared by every reader of its cache frame, so it is
    never modified in place: the fields are immutable, and edits build new
    entry arrays. *)

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

(** [find_leaf_pos entries key] is the index of the first entry whose key
    is [>= key] (binary search). *)
val find_leaf_pos : (string * string) array -> string -> int

(** [find_child node_entries child0 key] is the child block to descend to
    for [key]. *)
val find_child : (string * int) array -> int -> string -> int

val pp : Format.formatter -> t -> unit

(** Key-sequenced files: the B-tree access method of the Disk Process.

    Keys are order-preserving encoded byte strings ({!Nsql_util.Keycode});
    records are opaque byte images. Pages live in disk blocks accessed
    through the {!Nsql_cache.Cache} buffer pool, so every structural
    operation participates in LRU caching, WAL ordering, bulk I/O and
    pre-fetch.

    Deletion is lazy (a drained leaf stays chained and is skipped by
    scans), as in several production B-trees; splits allocate at the end of
    the volume, so physical clustering of a sequentially loaded file
    degrades as it takes random inserts — exactly the behaviour the paper
    notes for bulk I/O ("where physical clustering ... has been broken due
    to B-tree splits, some bulk I/Os may be less than maximal length").

    A resident leaf is read in place ({!Page.leaf}): seeks, lookups and
    cursors compare keys inside the cached block, and an insert, update
    or delete that fits splices its one entry into a copy of the block.
    Only a split and {!load_sorted} encode an entry array. A split keeps
    its usual cut (the middle, or just the new entry at the right edge of
    the file) whenever both halves fit, and otherwise moves the cut
    toward the half that overflows. *)

type t

(** [create sim cache ~name] allocates an empty tree (one root leaf). *)
val create : Nsql_sim.Sim.t -> Nsql_cache.Cache.t -> name:string -> t

val name : t -> string
val record_count : t -> int
val height : t -> int
val root_block : t -> int

(** [lookup t key] returns a copy of the record image stored under [key]. *)
val lookup : t -> string -> string option

(** [record_fits t ~key ~record] — is the entry within the size a page can
    hold? Mutations must verify this {e before} writing their audit
    record, so a failed operation leaves no trace in the trail. *)
val record_fits : t -> key:string -> record:string -> bool

(** [insert t ~key ~record ~lsn] adds a new record.
    Fails with [Duplicate_key] if present. *)
val insert :
  t -> key:string -> record:string -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** [update t ~key ~record ~lsn] replaces an existing record and returns
    the old image. Fails with [Not_found_key] if absent. *)
val update :
  t -> key:string -> record:string -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [upsert t ~key ~record ~lsn] inserts or replaces (recovery replay). *)
val upsert : t -> key:string -> record:string -> lsn:int64 -> unit

(** [delete t ~key ~lsn] removes a record and returns its old image.
    Fails with [Not_found_key] if absent. *)
val delete : t -> key:string -> lsn:int64 -> (string, Nsql_util.Errors.t) result

(** [load_sorted t entries ~lsn] bulk-loads an empty tree from entries
    sorted by strictly ascending key, producing physically contiguous
    leaves. Fails if the tree is non-empty or keys are unsorted. *)
val load_sorted :
  t -> (string * string) list -> lsn:int64 -> (unit, Nsql_util.Errors.t) result

(** {1 Cursors}

    A cursor denotes a position at an actual entry, or the end. Cursors
    are value-snapshots: after any mutation, re-seek by key (which is what
    the FS-DP continuation re-drive protocol does anyway). *)

type cursor

(** [seek t key] positions at the first entry with key [>= key]. *)
val seek : t -> string -> cursor

(** [cursor_leaf t c] is the view of the leaf the cursor rests on, read
    through the cache; [None] at the end. The entry is at
    [cursor_index c] of it, read in place with the {!Page.leaf}
    accessors. *)
val cursor_leaf : t -> cursor -> Page.leaf option

(** [cursor_index c] is the cursor's entry index in its leaf (-1 at the
    end). *)
val cursor_index : cursor -> int

(** [cursor_entry t c] is a copy of the (key, record) at the cursor: the
    same cache access as {!cursor_leaf}. *)
val cursor_entry : t -> cursor -> (string * string) option

(** [advance t c] moves to the next entry. *)
val advance : t -> cursor -> cursor

(** [cursor_block c] is the leaf block the cursor rests on (-1 at the
    end) — the Disk Process uses it to drive sequential pre-fetch. *)
val cursor_block : cursor -> int

(** {1 Diagnostics} *)

(** [read_page t block] is the view of the page stored in [block], read
    through the cache. The view is the cache frame's, shared by every
    reader: callers must not mutate a node's entry array. *)
val read_page : t -> int -> Page.view

(** [leaf_blocks t] lists leaf block numbers in key order. *)
val leaf_blocks : t -> int list

(** [check_invariants t] walks the tree verifying ordering, separator
    correctness and leaf chaining; returns a violation description if any.
    For tests. *)
val check_invariants : t -> (unit, string) result

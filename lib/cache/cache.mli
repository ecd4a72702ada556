(** The Disk Process cache manager.

    An LRU buffer pool staging disk blocks in main memory, obeying the
    write-ahead-log protocol: a dirty block whose latest change carries log
    sequence number [page_lsn] may be written to disk only after the audit
    trail is durable through [page_lsn]. The pool is wired to the audit
    subsystem through two callbacks so the libraries stay decoupled.

    Set-oriented access enables the paper's three cache optimizations, all
    implemented here:
    - {b bulk I/O}: {!read_range} fetches missing blocks of a key span in
      maximal consecutive strings, one I/O per string (≤ 28 KB each);
    - {b asynchronous pre-fetch}: {!prefetch} starts bulk reads that
      complete in the background; a later access waits only for the
      remaining latency, overlapping CPU work with disk transfers;
    - {b asynchronous write-behind}: {!write_behind} finds strings of dirty
      blocks whose audit is already durable and writes them out in bulk
      during idle time.

    It also implements the GUARDIAN virtual-memory handshake: {!steal}
    surrenders the coldest frames to the operating system, cleaning dirty
    ones first. *)

type t

(** [create sim disk ~capacity ~durable_lsn ~force_log] builds a pool of
    [capacity] frames over [disk]. [durable_lsn ()] reports how far the
    audit trail is durable; [force_log lsn] forces it durable through
    [lsn]. *)
val create :
  Nsql_sim.Sim.t ->
  Nsql_disk.Disk.t ->
  capacity:int ->
  durable_lsn:(unit -> int64) ->
  force_log:(int64 -> unit) ->
  t

val disk : t -> Nsql_disk.Disk.t
val capacity : t -> int

(** [cached t] is the number of resident frames. *)
val cached : t -> int

(** [read t block] returns the block contents, fetching on a miss. *)
val read : t -> int -> string

(** A decoded form of a frame's contents, owned by the frame. Clients
    extend the type with their own decoded representation. *)
type view = ..

type view += No_view  (** the frame holds no decoded form yet *)

(** [read_view t block decode] accesses [block] exactly as {!read} does —
    same hit/miss accounting, LRU touch, in-flight wait and CPU charge —
    and returns the frame's decoded view, calling [decode] on the contents
    only if the frame holds none. The view lives as long as the frame's
    bytes: {!write} drops it, and it leaves the pool with the frame on
    eviction, {!steal} and {!drop_all}. [decode] must be a pure function
    of the bytes, must not return [No_view], and its result must never be
    mutated, since every later reader shares it. *)
val read_view : t -> int -> (string -> view) -> view

(** [write t block data ~lsn] replaces the cached contents and drops the
    frame's decoded view; the block becomes dirty with
    [page_lsn = max old lsn]. No disk I/O happens here — the WAL protocol
    governs when the frame reaches disk. *)
val write : t -> int -> string -> lsn:int64 -> unit

(** [read_range t ~first ~count] ensures blocks [first..first+count-1] are
    resident, reading the missing ones in maximal bulk strings, and
    returns their contents in order. *)
val read_range : t -> first:int -> count:int -> string array

(** [prefetch t ~first ~count] starts asynchronous bulk reads for the
    missing blocks of the range. Returns immediately. *)
val prefetch : t -> first:int -> count:int -> unit

(** [write_behind t] scans for strings of dirty resident blocks whose
    [page_lsn] is already durable and writes them out asynchronously in
    maximal bulk strings. Returns the number of blocks queued. *)
val write_behind : t -> int

(** [flush_block t block] synchronously cleans one block (forcing the log
    first if the WAL protocol requires it). No-op if not resident/dirty. *)
val flush_block : t -> int -> unit

(** [flush_all t] synchronously cleans every dirty frame (control point /
    shutdown). *)
val flush_all : t -> unit

(** [steal t n] surrenders up to [n] cold frames to simulated VM pressure;
    dirty victims are cleaned first (respecting WAL). Returns the number
    of frames actually freed. *)
val steal : t -> int -> int

(** [drop_all t] empties the pool without writing anything — simulates a
    processor crash (volatile memory lost). *)
val drop_all : t -> unit

(** [resident t block] — is the block in the pool? (No LRU effect; used by
    the pre-fetch heuristic and tests.) *)
val resident : t -> int -> bool

(** [is_dirty t block] reports whether a resident block is dirty (for
    tests of the WAL invariant). *)
val is_dirty : t -> int -> bool

(** [dirty_count t] is the number of dirty resident frames. *)
val dirty_count : t -> int

(** [mru_order t] lists the resident blocks from most to least recently
    used, the order eviction takes them in reverse. (No LRU effect; for
    tests of the replacement order.) *)
val mru_order : t -> int list

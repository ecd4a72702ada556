(** Mutable binary min-heap, used for the simulation event queue.

    Priorities are floats (simulated microseconds); ties are broken by
    insertion order, so simultaneous events fire first-scheduled-first —
    this keeps the whole simulation deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

(** [push h ~prio x] inserts [x] with priority [prio]. *)
val push : 'a t -> prio:float -> 'a -> unit

(** [min_prio h] is the smallest priority, if any. *)
val min_prio : 'a t -> float option

(** [due_by h bound] is true when some priority is [<= bound]. Unlike
    {!min_prio} it allocates nothing, so the simulation clock can test
    for due events on every advance. *)
val due_by : 'a t -> float -> bool

(** [pop_min h] removes and returns the minimum element. *)
val pop_min : 'a t -> (float * 'a) option

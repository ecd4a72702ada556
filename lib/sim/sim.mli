(** The simulation world: a deterministic clock, an event queue, and the
    statistics record every subsystem charges against.

    Time is in simulated microseconds. Asynchronous activity (pre-fetch
    completions, write-behind, group-commit timers) is modelled as events:
    whenever the clock advances past an event's due time the event fires.
    There is no wall-clock or randomness anywhere in the simulation. *)

type t

val create : ?config:Config.t -> unit -> t

val config : t -> Config.t
val stats : t -> Stats.t

(** The world's span collector (see {!Tracer}); disabled at creation.
    Drive it through the high-level [Nsql_trace.Trace] API. *)
val tracer : t -> Tracer.t

(** The world's monitor storage (see {!Moncore}); disabled at creation.
    Drive it through the high-level [Nsql_monitor.Monitor] API. While
    enabled, every real clock advance is attributed to the current
    {!Moncore.cat} and apportioned across sampler slices — [tick] runs
    under [C_compute], [drain] under [C_await], and subsystems pass
    [?cat] to their charges and waits — so per-category totals tile
    [now] deltas exactly. Bit-identical results, stats, and clock either
    way. *)
val moncore : t -> Moncore.t

(** [now t] is the current simulated time in microseconds. *)
val now : t -> float

(** [tick t n] charges [n] CPU ticks: bumps the counter and advances the
    clock by [n * cpu_tick_us] under [C_compute], firing any events that
    come due. It is [charge ~cat:C_compute] plus the counter. *)
val tick : t -> int -> unit

(** [charge ?cat t us] advances the clock by [us] microseconds. With
    monitoring on, the movement is attributed to [cat] (default: the
    category current at the call). Under a {!capture} the time
    accumulates virtually instead. When monitoring is off and no event is
    due by the target time, the clock is set directly and nothing is
    allocated. *)
val charge : ?cat:Moncore.cat -> t -> float -> unit

(** [wait_until ?cat t when_] advances the clock to at least [when_],
    attributing the movement to [cat] as {!charge} does. Used when a
    synchronous operation must wait for an asynchronous completion. *)
val wait_until : ?cat:Moncore.cat -> t -> float -> unit

(** [schedule t ~at f] registers [f] to fire when the clock reaches [at].
    Events scheduled at or before the current time fire on the next clock
    movement (or [flush_events]). *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [after t delay f] is [schedule t ~at:(now t +. delay) f]. *)
val after : t -> float -> (unit -> unit) -> unit

(** [flush_events t] fires every event due at or before the current time. *)
val flush_events : t -> unit

(** [next_event t] is the due time of the earliest pending event, if any.
    Used by blocking waiters (e.g. {!Nsql_msg.Msg.await} on a parked lock
    request) to pump the event loop one step at a time: advance the clock
    to the returned time and the event fires. Must not be used to busy-wait
    under a {!capture} — events do not fire while the clock is frozen. *)
val next_event : t -> float option

(** [in_capture t] is true while a {!capture} is running. Blocking event
    pumps must refuse to run under a capture (they would spin forever). *)
val in_capture : t -> bool

(** [drain t] advances the clock until the event queue is empty (an idle
    period: pending write-behind, timers, etc. all complete). *)
val drain : t -> unit

(** [capture t f] runs [f] with the real clock frozen and returns its
    result together with the virtual elapsed time [f] would have taken.
    Inside the capture, [charge] and [wait_until] accumulate into the
    virtual clock ([now] reports base + accumulated), while CPU-tick and
    statistics counters — and persistent resource state such as disk busy
    windows — mutate exactly as in a blocking run. This is the substrate
    for nowait (overlapped) requests: issue each request under its own
    capture from the same base time, then the batch costs the {e max} of
    the captured elapsed times rather than their sum, with identical
    counters. Captures nest: an inner capture bases itself on the outer
    virtual clock. *)
val capture : t -> (unit -> 'a) -> 'a * float

(** [snapshot t] copies the statistics for later {!Stats.diff}. *)
val snapshot : t -> Stats.t

(** [measure t f] runs [f] and returns its result together with the
    statistics delta it produced. *)
val measure : t -> (unit -> 'a) -> 'a * Stats.t

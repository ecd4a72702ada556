module Heap = Nsql_util.Heap

type capture = { cap_base : float; mutable cap_accum : float }

(* all-float, so storing the clock does not box *)
type clock = { mutable now : float }

type t = {
  config : Config.t;
  stats : Stats.t;
  tracer : Tracer.t;
  moncore : Moncore.t;
  clock : clock;
  events : (unit -> unit) Heap.t;
  mutable firing : bool;
  mutable capture : capture option;
}

let create ?(config = Config.default) () =
  let tracer = Tracer.create () in
  (match !Tracer.creation_hook with None -> () | Some f -> f tracer);
  let moncore = Moncore.create () in
  let stats = Stats.create () in
  (* cumulative counters the sampler snapshots at each slice close; the
     order matches [Moncore.probe_names] *)
  Moncore.set_probe moncore (fun () ->
      [|
        stats.Stats.msgs_sent;
        stats.Stats.disk_reads;
        stats.Stats.disk_writes;
        stats.Stats.checkpoint_bytes;
        stats.Stats.lock_waits;
      |]);
  (match !Moncore.creation_hook with None -> () | Some f -> f moncore);
  {
    config;
    stats;
    tracer;
    moncore;
    clock = { now = 0. };
    events = Heap.create ();
    firing = false;
    capture = None;
  }

let config t = t.config
let stats t = t.stats
let tracer t = t.tracer
let moncore t = t.moncore

let now t =
  match t.capture with
  | None -> t.clock.now
  | Some c -> c.cap_base +. c.cap_accum

(* Events may schedule further events while firing; the loop re-examines the
   heap top each round. [firing] guards against re-entrant firing when an
   event handler itself advances the clock. *)
let rec fire_loop t =
  if Heap.due_by t.events t.clock.now then
    match Heap.pop_min t.events with
    | Some (_, f) ->
        f ();
        fire_loop t
    | None -> ()

let fire_due t =
  if (not t.firing) && Heap.due_by t.events t.clock.now then begin
    t.firing <- true;
    match fire_loop t with
    | () -> t.firing <- false
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        t.firing <- false;
        Printexc.raise_with_backtrace e bt
  end

let advance_to t when_ =
  (* step through intermediate event times so each event sees a clock that
     has just reached its due time; these two assignments are the only
     places the clock moves while monitoring, so reporting them to the
     monitor here makes the per-category clock attribution exhaustive by
     construction *)
  let rec loop () =
    match Heap.min_prio t.events with
    | Some due when due <= when_ && due > t.clock.now ->
        Moncore.clock_advance t.moncore ~from_:t.clock.now ~to_:due;
        t.clock.now <- due;
        fire_due t;
        loop ()
    | _ ->
        if when_ > t.clock.now then begin
          Moncore.clock_advance t.moncore ~from_:t.clock.now ~to_:when_;
          t.clock.now <- when_
        end;
        fire_due t
  in
  loop ()

let advance_in t cat when_ =
  match cat with
  | None -> advance_to t when_
  | Some c -> Moncore.with_cat t.moncore c (fun () -> advance_to t when_)

(* Move the real clock forward to [when_ > now]. With monitoring off and no
   event due by [when_], [advance_to] would find no intermediate event,
   report nothing and fire nothing, so setting the clock is the same
   program without the allocation (DESIGN.md §5l). *)
let[@inline] move_clock t cat when_ =
  if Moncore.enabled t.moncore || Heap.due_by t.events when_ then
    advance_in t cat when_
  else t.clock.now <- when_

let[@inline] charge_in t cat us =
  if us > 0. then
    match t.capture with
    | None -> move_clock t cat (t.clock.now +. us)
    | Some c -> c.cap_accum <- c.cap_accum +. us

let charge ?cat t us = charge_in t cat us

let tick t n =
  if n > 0 then begin
    t.stats.Stats.cpu_ticks <- t.stats.Stats.cpu_ticks + n;
    charge_in t (Some Moncore.C_compute)
      (float_of_int n *. t.config.Config.cpu_tick_us)
  end

let wait_until ?cat t when_ =
  match t.capture with
  | None -> if when_ > t.clock.now then move_clock t cat when_
  | Some c ->
      if when_ -. c.cap_base > c.cap_accum then
        c.cap_accum <- when_ -. c.cap_base

(* Run [f] with the real clock frozen: every [charge] and [wait_until]
   accumulates virtual elapsed time instead of advancing the real clock, while
   counters ([tick], stats) and persistent resource state (disk busy
   windows, cache stamps) mutate exactly as in a blocking run. Events
   scheduled during the capture keep their virtual due times and fire
   once the real clock later advances past them. Captures nest: an inner
   capture bases itself on the outer one's virtual clock. *)
let capture t f =
  let saved = t.capture in
  let c = { cap_base = now t; cap_accum = 0. } in
  t.capture <- Some c;
  let result = Fun.protect ~finally:(fun () -> t.capture <- saved) f in
  (result, c.cap_accum)

let schedule t ~at f =
  Heap.push t.events ~prio:(max at t.clock.now) f

let after t delay f = schedule t ~at:(t.clock.now +. delay) f

let flush_events t = fire_due t

let next_event t = Heap.min_prio t.events

let in_capture t = t.capture <> None

let drain t =
  Moncore.with_cat t.moncore Moncore.C_await (fun () ->
      let rec loop () =
        match Heap.min_prio t.events with
        | None -> ()
        | Some due ->
            advance_to t (max due t.clock.now);
            loop ()
      in
      loop ())

let snapshot t = Stats.copy t.stats

let measure t f =
  let before = snapshot t in
  let result = f () in
  let after_ = snapshot t in
  (result, Stats.diff ~before ~after:after_)

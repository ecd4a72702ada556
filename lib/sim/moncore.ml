(* Per-world monitor storage: the layer below [Sim] that the resource
   monitor (lib/monitor) reads and every subsystem feeds.

   Like [Tracer], this module is pure bookkeeping. It never touches the
   simulation — callers pass clock values in, and every entry point is a
   single [enabled] branch when monitoring is off. The simulated clock
   itself is attributed here: while monitoring is on, [Sim.advance_to]
   reports every real clock movement through [clock_advance], tagged with
   the *category* current at that instant ([with_cat], or the [?cat] of
   [Sim.charge] and [Sim.wait_until]), so the
   per-category totals tile [Sim.now] deltas exactly — every config time
   constant is a binary-exact multiple of 0.25 us far below 2^52, so the
   float additions that split an advance across categories and slice
   boundaries are exact.

   The same clock hook drives the time-sliced sampler: when an advance
   crosses a slice boundary the open slice is closed — instantaneous
   gauges sampled, cumulative stat counters probed — and a fresh one
   opened, with the advance apportioned exactly across the boundary. No
   event is ever scheduled for sampling (a self-rescheduling sampler
   would keep [Sim.drain] alive forever and perturb event order). *)

(* where a clock advance is charged; [C_other] is the default for any
   movement no subsystem claimed *)
type cat = C_compute | C_msg | C_disk | C_lockwait | C_ckpt | C_await | C_other

let n_cats = 7

let cat_index = function
  | C_compute -> 0
  | C_msg -> 1
  | C_disk -> 2
  | C_lockwait -> 3
  | C_ckpt -> 4
  | C_await -> 5
  | C_other -> 6

let cat_names =
  [| "compute"; "msg"; "disk"; "lock_wait"; "ckpt"; "await"; "other" |]

(* instantaneous occupancy counters, sampled at slice close *)
type gauge = G_outstanding | G_parked | G_locks | G_diskq

let n_gauges = 4

let gauge_index = function
  | G_outstanding -> 0
  | G_parked -> 1
  | G_locks -> 2
  | G_diskq -> 3

let gauge_names = [| "outstanding"; "parked"; "locks"; "diskq" |]

(* resources whose service time is accumulated per slice (iostat-style:
   a slice's busy time is the service time of work *completed* in it,
   so overlapped service can exceed the slice length) *)
type res = R_dp | R_disk

let n_res = 2
let res_index = function R_dp -> 0 | R_disk -> 1
let res_names = [| "dp"; "disk" |]

(* cumulative counters probed from [Stats] at each slice close; the
   closure installed by [Sim.create] must produce them in this order *)
let probe_names =
  [| "msgs_sent"; "disk_reads"; "disk_writes"; "checkpoint_bytes"; "lock_waits" |]

type slice = {
  sl_start : float;
  sl_cats : float array;  (* per-category us spent inside the slice *)
  sl_busy : float array;  (* per-resource service us completed in the slice *)
  mutable sl_gauges : int array;  (* gauge values at slice close *)
  mutable sl_stats : int array;  (* cumulative probe at slice close *)
}

type stmt = {
  st_name : string;
  st_start : float;
  st_elapsed : float;
  st_cats : float array;  (* sums to [st_elapsed] exactly *)
}

let slice_cap = 8192
let stmt_cap = 16384

type t = {
  mutable enabled : bool;
  mutable cat : cat;
  mutable start_now : float;  (* clock when enabled / cleared *)
  mutable last_now : float;  (* clock high-water mark seen by the hook *)
  mutable slice_us : float;
  cat_us : float array;  (* per-category totals since [start_now] *)
  busy_us : float array;  (* per-resource totals since [start_now] *)
  gauges : int array;
  mutable cur : slice;
  mutable slices : slice array;
  mutable n_slices : int;
  mutable dropped_slices : int;
  mutable probe : (unit -> int array) option;
  hists : (string, Hist.t) Hashtbl.t;
  mutable stmts : stmt array;
  mutable n_stmts : int;
  mutable dropped_stmts : int;
}

let fresh_slice start =
  {
    sl_start = start;
    sl_cats = Array.make n_cats 0.;
    sl_busy = Array.make n_res 0.;
    sl_gauges = Array.make n_gauges 0;
    sl_stats = Array.make (Array.length probe_names) 0;
  }

let create () =
  {
    enabled = false;
    cat = C_other;
    start_now = 0.;
    last_now = 0.;
    slice_us = 10_000.;
    cat_us = Array.make n_cats 0.;
    busy_us = Array.make n_res 0.;
    gauges = Array.make n_gauges 0;
    cur = fresh_slice 0.;
    slices = [||];
    n_slices = 0;
    dropped_slices = 0;
    probe = None;
    hists = Hashtbl.create 16;
    stmts = [||];
    n_stmts = 0;
    dropped_stmts = 0;
  }

(* sim.create installs the stats probe; a monitor hook may already have
   enabled the world before the probe exists, hence the late binding *)
let set_probe t f = t.probe <- Some f

let creation_hook : (t -> unit) option ref = ref None

let enabled t = t.enabled

let clear t ~now =
  t.cat <- C_other;
  t.start_now <- now;
  t.last_now <- now;
  Array.fill t.cat_us 0 n_cats 0.;
  Array.fill t.busy_us 0 n_res 0.;
  Array.fill t.gauges 0 n_gauges 0;
  t.cur <- fresh_slice now;
  t.slices <- [||];
  t.n_slices <- 0;
  t.dropped_slices <- 0;
  Hashtbl.reset t.hists;
  t.stmts <- [||];
  t.n_stmts <- 0;
  t.dropped_stmts <- 0

let set_enabled t ~now on =
  if on && not t.enabled then clear t ~now;
  t.enabled <- on

let set_slice_us t us =
  if us <= 0. then invalid_arg "Moncore.set_slice_us";
  t.slice_us <- us

(* --- clock attribution ---------------------------------------------------- *)

let with_cat t c f =
  if not t.enabled then f ()
  else begin
    let saved = t.cat in
    t.cat <- c;
    Fun.protect ~finally:(fun () -> t.cat <- saved) f
  end

let push_slice t sl =
  if t.n_slices >= slice_cap then t.dropped_slices <- t.dropped_slices + 1
  else begin
    if t.n_slices >= Array.length t.slices then begin
      let cap = max 64 (2 * Array.length t.slices) in
      let a = Array.make (min cap slice_cap) sl in
      Array.blit t.slices 0 a 0 t.n_slices;
      t.slices <- a
    end;
    t.slices.(t.n_slices) <- sl;
    t.n_slices <- t.n_slices + 1
  end

let close_slice t sl =
  sl.sl_gauges <- Array.copy t.gauges;
  (match t.probe with None -> () | Some f -> sl.sl_stats <- f ());
  push_slice t sl

let clock_advance t ~from_ ~to_ =
  if t.enabled && to_ > from_ then begin
    let ci = cat_index t.cat in
    let rec go from_ =
      let sl = t.cur in
      let slice_end = sl.sl_start +. t.slice_us in
      if to_ <= slice_end then begin
        let dt = to_ -. from_ in
        sl.sl_cats.(ci) <- sl.sl_cats.(ci) +. dt;
        t.cat_us.(ci) <- t.cat_us.(ci) +. dt
      end
      else begin
        let dt = slice_end -. from_ in
        if dt > 0. then begin
          sl.sl_cats.(ci) <- sl.sl_cats.(ci) +. dt;
          t.cat_us.(ci) <- t.cat_us.(ci) +. dt
        end;
        close_slice t sl;
        t.cur <- fresh_slice slice_end;
        go slice_end
      end
    in
    go from_;
    t.last_now <- to_
  end

(* --- feeds ---------------------------------------------------------------- *)

let observe t name v =
  if t.enabled then begin
    let h =
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
          let h = Hist.create () in
          Hashtbl.replace t.hists name h;
          h
    in
    Hist.record h v
  end

let add_busy t r dur =
  if t.enabled && dur > 0. then begin
    let ri = res_index r in
    t.cur.sl_busy.(ri) <- t.cur.sl_busy.(ri) +. dur;
    t.busy_us.(ri) <- t.busy_us.(ri) +. dur
  end

let gauge_add t g d =
  if t.enabled then begin
    let gi = gauge_index g in
    t.gauges.(gi) <- t.gauges.(gi) + d
  end

let note_stmt t ~name ~start ~elapsed ~cats =
  if t.enabled then begin
    if t.n_stmts >= stmt_cap then t.dropped_stmts <- t.dropped_stmts + 1
    else begin
      let st = { st_name = name; st_start = start; st_elapsed = elapsed; st_cats = cats } in
      if t.n_stmts >= Array.length t.stmts then begin
        let cap = max 64 (2 * Array.length t.stmts) in
        let a = Array.make (min cap stmt_cap) st in
        Array.blit t.stmts 0 a 0 t.n_stmts;
        t.stmts <- a
      end;
      t.stmts.(t.n_stmts) <- st;
      t.n_stmts <- t.n_stmts + 1
    end
  end

(* --- reads ---------------------------------------------------------------- *)

let start_now t = t.start_now
let last_now t = t.last_now
let slice_us t = t.slice_us
let cat_snapshot t = Array.copy t.cat_us
let busy_snapshot t = Array.copy t.busy_us
let gauge_value t g = t.gauges.(gauge_index g)
let dropped_slices t = t.dropped_slices
let dropped_stmts t = t.dropped_stmts

let slices t = Array.to_list (Array.sub t.slices 0 t.n_slices)
let current_slice t = t.cur
let stmts t = Array.to_list (Array.sub t.stmts 0 t.n_stmts)

let hist t name = Hashtbl.find_opt t.hists name

let hists t =
  Nsql_util.Tbl.sorted_bindings t.hists

(* One round of a workload: fresh node, load, untimed warm-up, the timed
   phase of a fixed number of operations, output checks, crash and
   recovery of every volume, and the checks again. The host clock brackets
   the library calls only; the simulated clock and counters are read from
   the node. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Moncore = Nsql_sim.Moncore
module Errors = Nsql_util.Errors
module W = Workloads

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* host time spent inside [N.exec], the core layer's public entry *)
type exec_clock = { mutable exec_s : float; mutable stmts : int }

let exec_clock () = { exec_s = 0.; stmts = 0 }

(* Run an operation's statements in order. A failed statement ends the
   operation; an open transaction is rolled back. *)
let run_op clock s (op : W.op) =
  let exec sql =
    let t0 = now_ns () in
    let r = N.exec s sql in
    clock.exec_s <- clock.exec_s +. secs_since t0;
    clock.stmts <- clock.stmts + 1;
    r
  in
  let rec go acc = function
    | [] -> op.check (List.rev acc)
    | sql :: rest -> (
        match exec sql with
        | Ok r -> go (r :: acc) rest
        | Error e ->
            if N.current_tx s <> None then ignore (exec "ROLLBACK WORK");
            Error (Printf.sprintf "%s: %s" sql (Errors.to_string e)))
  in
  go [] op.stmts

type round = {
  setup_s : float;  (** host: node creation, load and warm-up *)
  setup_sim_us : float;
  host_ms : float array;  (** per timed operation *)
  sim_ms : float array;
  phase_host_s : float;
  phase_sim_us : float;
  alloc_words : float;  (** minor-heap words over the timed phase *)
  delta : Stats.t;  (** counters over the timed phase *)
  cats_us : float array;  (** Moncore time categories over the timed phase *)
  exec : exec_clock;  (** timed phase *)
  restart_s : float;
  restart_sim_us : float;
  replayed : int;
  attempted : int;
  failures : string list;  (** failed operations and checks, any phase *)
}

(* Everything a round reports on the simulated clock, as exact text: two
   rounds of one seed must agree byte for byte, traced or not. *)
let sim_fingerprint r =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%h " x) in
  f r.setup_sim_us;
  Array.iter f r.sim_ms;
  f r.phase_sim_us;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%d " k v))
    (Stats.to_assoc r.delta);
  f r.restart_sim_us;
  Buffer.add_string b (string_of_int r.replayed);
  List.iter (fun e -> Buffer.add_string b ("\n" ^ e)) r.failures;
  Buffer.contents b

(* Hooks for the traced round: [phase_start] runs on the warm node just
   before the timed phase, [after_op] after each timed operation (inside
   the phase's host time, outside the operation's own latency) and
   [phase_end] right after it. *)
type hooks = {
  phase_start : N.node -> unit;
  after_op : unit -> unit;
  phase_end : unit -> unit;
}

let no_hooks = { phase_start = ignore; after_op = ignore; phase_end = ignore }

let run ?(hooks = no_hooks) (w : W.t) (plan : W.plan) =
  let failures = ref [] in
  let fail phase i e =
    failures := Printf.sprintf "%s op %d: %s" phase i e :: !failures
  in
  let setup_clock = exec_clock () in
  let run_all phase s ops =
    List.iteri
      (fun i op ->
        match run_op setup_clock s op with
        | Ok () -> ()
        | Error e -> fail phase i e)
      ops
  in
  Gc.compact ();
  let t_setup = now_ns () in
  let node = N.create_node ~config:w.config ~volumes:W.volumes () in
  (match w.load node with
  | Ok () -> ()
  | Error e -> fail "load" 0 (Errors.to_string e));
  let s = N.session node in
  run_all "warmup" s plan.warmup;
  let setup_s = secs_since t_setup in
  let sim = N.sim node in
  let mc = Sim.moncore sim in
  let setup_sim_us = Sim.now sim in
  (* timed phase *)
  hooks.phase_start node;
  let ops = Array.of_list plan.timed in
  let n = Array.length ops in
  let host_ms = Array.make n 0. and sim_ms = Array.make n 0. in
  let exec = exec_clock () in
  let before = N.snapshot node in
  let cats0 = Moncore.cat_snapshot mc in
  let sim0 = Sim.now sim in
  let words0 = Gc.minor_words () in
  let t_phase = now_ns () in
  Array.iteri
    (fun i op ->
      let s0 = Sim.now sim in
      let t0 = now_ns () in
      let r = run_op exec s op in
      host_ms.(i) <- secs_since t0 *. 1e3;
      sim_ms.(i) <- (Sim.now sim -. s0) /. 1e3;
      (match r with Ok () -> () | Error e -> fail "timed" i e);
      hooks.after_op ())
    ops;
  let phase_host_s = secs_since t_phase in
  let alloc_words = Gc.minor_words () -. words0 in
  let phase_sim_us = Sim.now sim -. sim0 in
  let delta = Stats.diff ~before ~after:(N.snapshot node) in
  let cats_us = Array.map2 ( -. ) (Moncore.cat_snapshot mc) cats0 in
  hooks.phase_end ();
  run_all "verify" s plan.verify;
  (* restart: crash and recover every volume *)
  let sim1 = Sim.now sim in
  let t_restart = now_ns () in
  let replayed = ref 0 in
  for v = 0 to W.volumes - 1 do
    N.crash_volume node v;
    let o = N.recover_volume node v in
    replayed := !replayed + o.Nsql_tmf.Recovery.replayed
  done;
  let restart_s = secs_since t_restart in
  let restart_sim_us = Sim.now sim -. sim1 in
  run_all "restart-verify" s plan.verify;
  ( node,
    {
      setup_s;
      setup_sim_us;
      host_ms;
      sim_ms;
      phase_host_s;
      phase_sim_us;
      alloc_words;
      delta;
      cats_us;
      exec;
      restart_s;
      restart_sim_us;
      replayed = !replayed;
      attempted = n;
      failures = List.rev !failures;
    } )

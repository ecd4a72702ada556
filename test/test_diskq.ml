(* PR-10 battery: the multi-queue disk and the two accounting bugfixes.

   Three layers of defence:

   - depth-1 bit-identity: the golden fingerprints in {!Golden} (captured
     from the pre-queue-model build) must be reproduced exactly by the
     default configuration AND by an explicit [disk_queue_depth = 1] —
     full statistics vector and final simulated clock, byte for byte;

   - device semantics: submission/completion handle behaviour, channel
     overlap at depth, the repaired [Disk.stall] arithmetic (an idle
     device is delayed by exactly the stall; a backlog already past the
     stall point absorbs it — the pre-PR code overwrote the backlog),
     and the repaired [Cache.read_range] hit/miss accounting (a miss per
     absent block, hits only for blocks resident before the call);

   - determinism: QCheck sweeps checking that random submit/complete
     interleavings — including chaos-style transient disk faults — replay
     byte-identically at every depth, and that the data read is the same
     at depth 8 as at depth 1. *)

module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module N = Nsql_core.Nonstop_sql
module Wisconsin = Nsql_workload.Wisconsin
module Errors = Nsql_util.Errors

(* --- depth-1 golden fingerprints -------------------------------------- *)

let check_golden name expected run () =
  Alcotest.(check string)
    (name ^ ": pre-queue-model fingerprint reproduced")
    expected (run ())

let golden_cases =
  List.map2
    (fun (name, run) expected ->
      Alcotest.test_case
        (Printf.sprintf "golden: %s (default depth 1)" name)
        `Quick
        (check_golden name expected run))
    Golden.scenarios
    [
      Golden.golden_queries;
      Golden.golden_transfers;
      Golden.golden_cold_scans;
      Golden.golden_chaos6;
      Golden.golden_chaos12;
    ]

(* the FS-DP re-drive paths: the fan-out-off schedule, RSBB and
   record-at-a-time access, the index paths and fallbacks, and the chain
   failure branch (statement errors, unchanged rows and every Disk
   Process's request tags, CLOSE^SCB included) *)
let redrive_golden_cases =
  List.map2
    (fun (name, run) expected ->
      Alcotest.test_case (Printf.sprintf "golden: %s" name) `Quick (fun () ->
          Alcotest.(check string)
            (name ^ ": pre-refactor fingerprint reproduced")
            expected (run ())))
    Golden.redrive_scenarios Golden.redrive_goldens

(* an explicit depth-1 config must be indistinguishable from the default *)
let explicit_depth1_cases =
  [
    Alcotest.test_case "golden: queries (explicit depth 1)" `Quick
      (check_golden "queries" Golden.golden_queries (fun () ->
           Golden.queries
             ~config:(Config.v ~fs_fanout:true ~disk_queue_depth:1 ())
             ()));
    Alcotest.test_case "golden: transfers (explicit depth 1)" `Quick
      (check_golden "transfers" Golden.golden_transfers (fun () ->
           Golden.transfers
             ~config:
               (Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000.
                  ~disk_queue_depth:1 ())
             ()));
    Alcotest.test_case "golden: cold_scans (explicit depth 1)" `Quick
      (check_golden "cold_scans" Golden.golden_cold_scans (fun () ->
           Golden.cold_scans
             ~config:
               (Config.v ~fs_fanout:true ~cache_blocks:16 ~disk_queue_depth:1
                  ())
             ()));
  ]

(* --- device semantics -------------------------------------------------- *)

let setup ?(depth = 1) ?(blocks = 256) () =
  let sim = Sim.create ~config:(Config.v ~disk_queue_depth:depth ()) () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d blocks);
  (sim, d)

let submit_costs_nothing () =
  let sim, d = setup ~depth:4 () in
  let t0 = Sim.now sim in
  let io = Disk.submit_read d ~first:0 ~count:7 in
  Alcotest.(check (float 0.)) "submission is free" t0 (Sim.now sim);
  Alcotest.(check bool) "completion in the future" true
    (Disk.io_done_at io > t0);
  let data = Disk.complete d io in
  Alcotest.(check (float 0.))
    "complete waits to the done-time" (Disk.io_done_at io) (Sim.now sim);
  Alcotest.(check int) "seven blocks" 7 (Array.length data)

(* four random-position reads: at depth 4 the seeks overlap across the
   channels (equal service times, so total elapsed = one I/O); at depth 1
   they serialize to exactly four times that *)
let channels_overlap () =
  let firsts = [ 0; 50; 100; 150 ] in
  let run depth =
    let sim, d = setup ~depth () in
    let t0 = Sim.now sim in
    let ios = List.map (fun first -> Disk.submit_read d ~first ~count:7) firsts in
    List.iter (fun io -> ignore (Disk.complete d io)) ios;
    Sim.now sim -. t0
  in
  let e1 = run 1 and e4 = run 4 in
  Alcotest.(check (float 0.)) "depth 4 overlaps fully" (e1 /. 4.) e4

let gauge_tracks_inflight () =
  let sim, d = setup ~depth:4 () in
  let mc = Sim.moncore sim in
  Moncore.set_enabled mc ~now:(Sim.now sim) true;
  let ios = List.map (fun first -> Disk.submit_read d ~first ~count:7) [ 0; 50; 100 ] in
  Alcotest.(check int) "three in flight" 3 (Disk.queue_depth d);
  Alcotest.(check int) "gauge agrees" 3 (Moncore.gauge_value mc Moncore.G_diskq);
  List.iter (fun io -> ignore (Disk.complete d io)) ios;
  Alcotest.(check int) "drained" 0 (Disk.queue_depth d);
  Alcotest.(check int) "gauge retired" 0
    (Moncore.gauge_value mc Moncore.G_diskq)

(* regression: [stall] on an idle device delays the next I/O by exactly
   the stall — and only measures from [now], not from zero *)
let stall_delays_idle_device () =
  (* baseline cost of the same read without a stall *)
  let sim, d = setup () in
  let t0 = Sim.now sim in
  ignore (Disk.read_bulk d ~first:40 ~count:3);
  let io_cost = Sim.now sim -. t0 in
  let sim, d = setup () in
  Sim.tick sim 100;
  let t0 = Sim.now sim in
  Disk.stall d ~us:1000.;
  ignore (Disk.read_bulk d ~first:40 ~count:3);
  Alcotest.(check (float 0.))
    "read starts exactly at the end of the stall" (1000. +. io_cost)
    (Sim.now sim -. t0)

(* regression: a backlog already extending past [now + us] absorbs the
   stall. The pre-PR code set [busy_until <- now + us] unconditionally,
   so a stall *shortened* the queue and later I/Os started too early. *)
let stall_absorbed_by_backlog () =
  let sim, d = setup () in
  let io = Disk.submit_read d ~first:0 ~count:7 in
  let backlog_end = Disk.io_done_at io in
  Alcotest.(check bool) "backlog extends past the stall" true
    (backlog_end > Sim.now sim +. 1.);
  Disk.stall d ~us:1.;
  let io2 = Disk.submit_read d ~first:7 ~count:7 in
  Alcotest.(check bool)
    "second I/O queues behind the full backlog, not the stall" true
    (Disk.io_done_at io2 > backlog_end);
  ignore (Disk.complete d io);
  ignore (Disk.complete d io2)

(* --- read_range accounting regressions --------------------------------- *)

let cache_setup ?(depth = 1) ?(capacity = 64) () =
  let sim = Sim.create ~config:(Config.v ~disk_queue_depth:depth ()) () in
  let disk = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate disk 256);
  let cache =
    Cache.create sim disk ~capacity
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:(fun _ -> ())
  in
  (sim, disk, cache)

(* regression: a cold range is one miss per absent block and zero hits —
   the pre-PR code counted every fetched block as a hit *)
let read_range_cold_counts_misses () =
  let sim, _disk, cache = cache_setup () in
  let s = Sim.stats sim in
  ignore (Cache.read_range cache ~first:10 ~count:10);
  Alcotest.(check int) "a miss per absent block" 10 s.Stats.cache_misses;
  Alcotest.(check int) "no hits on a cold range" 0 s.Stats.cache_hits

let read_range_warm_counts_hits () =
  let sim, _disk, cache = cache_setup () in
  let s = Sim.stats sim in
  ignore (Cache.read_range cache ~first:10 ~count:10);
  ignore (Cache.read_range cache ~first:10 ~count:10);
  Alcotest.(check int) "warm range hits every block" 10 s.Stats.cache_hits;
  Alcotest.(check int) "no further misses" 10 s.Stats.cache_misses

let read_range_mixed_residency () =
  let sim, _disk, cache = cache_setup () in
  let s = Sim.stats sim in
  ignore (Cache.read cache 14);
  (* one resident block in the middle of an absent range *)
  ignore (Cache.read_range cache ~first:10 ~count:10);
  Alcotest.(check int) "one hit for the pre-resident block"
    1 s.Stats.cache_hits;
  Alcotest.(check int) "a miss per absent block (1 + 9)"
    10 s.Stats.cache_misses

let read_range_returns_disk_contents () =
  let _sim, disk, cache = cache_setup ~depth:4 () in
  let bs = Disk.block_size disk in
  for i = 0 to 27 do
    Disk.write disk i (String.make bs (Char.chr (Char.code 'a' + (i mod 26))))
  done;
  let got = Cache.read_range cache ~first:0 ~count:28 in
  Alcotest.(check int) "28 blocks" 28 (Array.length got);
  Array.iteri
    (fun i data ->
      Alcotest.(check char)
        (Printf.sprintf "block %d contents" i)
        (Char.chr (Char.code 'a' + (i mod 26)))
        data.[0])
    got

let read_range_depth_overlaps () =
  let run depth =
    let sim, _disk, cache = cache_setup ~depth () in
    let t0 = Sim.now sim in
    ignore (Cache.read_range cache ~first:0 ~count:28);
    Sim.now sim -. t0
  in
  let e1 = run 1 and e4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "four strings in flight beat serial (%.1f < %.1f)" e4 e1)
    true (e4 < e1)

(* --- determinism sweeps ------------------------------------------------ *)

(* a deterministic pseudo-random interleaving of submissions, completions,
   stalls and transient faults, driven from one integer seed; returns the
   closing fingerprint (clock + full stats) and a digest of the data *)
let random_io_run ~depth ~seed =
  let sim, d = setup ~depth ~blocks:256 () in
  let rng = Random.State.make [| seed |] in
  (* deterministic fault plan: roughly one I/O in six suffers a retry *)
  Disk.set_fault_hook d
    (Some
       (fun () ->
         if Random.State.int rng 6 = 0 then
           Some (float_of_int (1 + Random.State.int rng 3) *. 100.)
         else None));
  let bs = Disk.block_size d in
  for i = 0 to 255 do
    Disk.write d i (String.make bs (Char.chr (i mod 256)))
  done;
  let pending = Queue.create () in
  let digest = Buffer.create 64 in
  let retire () =
    let io = Queue.pop pending in
    let data = Disk.complete d io in
    Array.iter (fun b -> Buffer.add_char digest b.[0]) data
  in
  for _ = 1 to 40 do
    (match Random.State.int rng 10 with
    | 0 -> Disk.stall d ~us:(float_of_int (Random.State.int rng 500))
    | 1 | 2 -> if not (Queue.is_empty pending) then retire ()
    | _ ->
        if Queue.length pending >= depth then retire ();
        let count = 1 + Random.State.int rng 7 in
        let first = Random.State.int rng (256 - count) in
        Queue.push (Disk.submit_read d ~first ~count) pending);
    Sim.tick sim (Random.State.int rng 50)
  done;
  while not (Queue.is_empty pending) do
    retire ()
  done;
  ( Golden.fingerprint_of ~stats:(Sim.stats sim) ~now:(Sim.now sim),
    Buffer.contents digest )

let completion_order_deterministic =
  QCheck.Test.make ~count:15
    ~name:"diskq: random interleavings replay byte-identically at any depth"
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, dexp) ->
      let depth = 1 lsl dexp in
      let f1, d1 = random_io_run ~depth ~seed in
      let f2, d2 = random_io_run ~depth ~seed in
      if f1 <> f2 then
        QCheck.Test.fail_reportf
          "seed %d depth %d: fingerprints differ:@.%s@.%s" seed depth f1 f2;
      d1 = d2)

let data_identical_across_depths =
  QCheck.Test.make ~count:15
    ~name:"diskq: depth changes timing, never data"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d1 = random_io_run ~depth:1 ~seed in
      let _, d8 = random_io_run ~depth:8 ~seed in
      if d1 <> d8 then
        QCheck.Test.fail_reportf "seed %d: depth 8 read different data" seed;
      true)

(* pre-fetch and write-behind pumped through a faulty deep-queue device:
   contents survive the retries, the transient-error counter moves, and
   the whole interleaving replays byte-identically *)
let prefetch_writebehind_under_faults () =
  let run () =
    let sim, disk, cache = cache_setup ~depth:4 ~capacity:64 () in
    let rng = Random.State.make [| 42 |] in
    Disk.set_fault_hook disk
      (Some
         (fun () ->
           if Random.State.int rng 4 = 0 then Some 250. else None));
    let bs = Disk.block_size disk in
    for i = 0 to 55 do
      Disk.write disk i (String.make bs (Char.chr (Char.code 'A' + (i mod 56))))
    done;
    Cache.prefetch cache ~first:0 ~count:28;
    (* dirty a second stripe and drain it through write-behind *)
    for i = 28 to 55 do
      Cache.write cache i (String.make bs 'z') ~lsn:1L
    done;
    ignore (Cache.write_behind cache);
    let got = Cache.read_range cache ~first:0 ~count:28 in
    Array.iteri
      (fun i data ->
        Alcotest.(check char)
          (Printf.sprintf "prefetched block %d" i)
          (Char.chr (Char.code 'A' + (i mod 56)))
          data.[0])
      got;
    Cache.flush_all cache;
    let s = Sim.stats sim in
    Alcotest.(check bool) "transient faults were injected" true
      (s.Stats.disk_transient_errors > 0);
    Alcotest.(check bool) "write-behind ran" true
      (s.Stats.writebehind_writes > 0);
    Alcotest.(check bool) "prefetch ran" true (s.Stats.prefetch_reads > 0);
    Golden.fingerprint_of ~stats:s ~now:(Sim.now sim)
  in
  Alcotest.(check string) "faulty deep-queue run replays identically"
    (run ()) (run ())

(* the cold-scan scenario replays byte-identically at every depth (the
   fingerprints differ ACROSS depths — that is the point of the knob) *)
let scenario_deterministic_per_depth () =
  List.iter
    (fun depth ->
      let config () =
        Config.v ~fs_fanout:true ~cache_blocks:16 ~disk_queue_depth:depth ()
      in
      let f1 = Golden.cold_scans ~config:(config ()) () in
      let f2 = Golden.cold_scans ~config:(config ()) () in
      Alcotest.(check string)
        (Printf.sprintf "cold_scans deterministic at depth %d" depth)
        f1 f2)
    [ 2; 8 ]

(* SQL rowsets are depth-invariant: same Wisconsin queries, same answers,
   at depths 1, 2, 4, 8 and 16 *)
let rowsets_identical_across_depths () =
  let run depth =
    let config = Config.v ~cache_blocks:32 ~disk_queue_depth:depth () in
    let node = N.create_node ~config ~volumes:2 () in
    let rows = 600 in
    Errors.get_ok ~ctx:"wisc"
      (Wisconsin.create node ~name:"t" ~rows ~partitions:2 ());
    let s = N.session node in
    List.map
      (fun sql ->
        match N.exec_exn s sql with
        | N.Rows rs -> Format.asprintf "%a" N.pp_rowset rs
        | _ -> Alcotest.fail ("no rowset from " ^ sql))
      [
        "SELECT COUNT(*), SUM(unique1) FROM t";
        "SELECT unique1, stringu1 FROM t WHERE unique2 < 47";
        "SELECT COUNT(*), MIN(unique2), MAX(unique2) FROM t WHERE two = 0";
      ]
  in
  let base = run 1 in
  List.iter
    (fun depth ->
      List.iteri
        (fun i (expect, got) ->
          Alcotest.(check string)
            (Printf.sprintf "query %d rowset at depth %d" i depth)
            expect got)
        (List.combine base (run depth)))
    [ 2; 4; 8; 16 ]

let invalid_depth_rejected () =
  let sim = Sim.create ~config:(Config.v ~disk_queue_depth:0 ()) () in
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Disk($DATA): disk_queue_depth 0 < 1") (fun () ->
      ignore (Disk.create sim ~name:"$DATA"))

let suite =
  golden_cases @ redrive_golden_cases @ explicit_depth1_cases
  @ [
      Alcotest.test_case "submit costs nothing, complete waits" `Quick
        submit_costs_nothing;
      Alcotest.test_case "channels overlap at depth" `Quick channels_overlap;
      Alcotest.test_case "queue-depth gauge tracks in-flight" `Quick
        gauge_tracks_inflight;
      Alcotest.test_case "stall delays an idle device (regression)" `Quick
        stall_delays_idle_device;
      Alcotest.test_case "backlog absorbs a shorter stall (regression)"
        `Quick stall_absorbed_by_backlog;
      Alcotest.test_case "cold read_range counts misses (regression)" `Quick
        read_range_cold_counts_misses;
      Alcotest.test_case "warm read_range counts hits" `Quick
        read_range_warm_counts_hits;
      Alcotest.test_case "mixed-residency read_range accounting" `Quick
        read_range_mixed_residency;
      Alcotest.test_case "read_range returns disk contents" `Quick
        read_range_returns_disk_contents;
      Alcotest.test_case "read_range overlaps strings at depth" `Quick
        read_range_depth_overlaps;
      QCheck_alcotest.to_alcotest completion_order_deterministic;
      QCheck_alcotest.to_alcotest data_identical_across_depths;
      Alcotest.test_case "prefetch/write-behind under disk faults" `Quick
        prefetch_writebehind_under_faults;
      Alcotest.test_case "scenarios deterministic per depth" `Quick
        scenario_deterministic_per_depth;
      Alcotest.test_case "rowsets identical across depths" `Quick
        rowsets_identical_across_depths;
      Alcotest.test_case "invalid depth rejected" `Quick
        invalid_depth_rejected;
    ]

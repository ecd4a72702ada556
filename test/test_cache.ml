(* Tests of the buffer pool: LRU, WAL protocol, bulk reads, pre-fetch,
   write-behind, VM stealing. *)

module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache

(* A little stand-in for the audit trail: durability is advanced manually,
   and we record every force request. *)
type fake_log = { mutable durable : int64; mutable forced : int64 list }

let setup ?(capacity = 16) () =
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate disk 256);
  let log = { durable = 0L; forced = [] } in
  let cache =
    Cache.create sim disk ~capacity
      ~durable_lsn:(fun () -> log.durable)
      ~force_log:(fun lsn ->
        log.forced <- lsn :: log.forced;
        log.durable <- lsn)
  in
  (sim, disk, cache, log)

let block_of cache c = String.make (Disk.block_size (Cache.disk cache)) c

let hit_miss_counting () =
  let sim, _disk, cache, _log = setup () in
  let s = Sim.stats sim in
  ignore (Cache.read cache 0);
  Alcotest.(check int) "first read misses" 1 s.Stats.cache_misses;
  ignore (Cache.read cache 0);
  Alcotest.(check int) "second read hits" 1 s.Stats.cache_hits;
  Alcotest.(check int) "one disk read total" 1 s.Stats.disk_reads

let write_read_through () =
  let sim, _disk, cache, _log = setup () in
  let payload = block_of cache 'z' in
  Cache.write cache 5 payload ~lsn:10L;
  Alcotest.(check string) "read back from cache" payload (Cache.read cache 5);
  Alcotest.(check bool) "dirty" true (Cache.is_dirty cache 5);
  let s = Sim.stats sim in
  Alcotest.(check int) "no disk write yet" 0 s.Stats.disk_writes

let lru_evicts_coldest () =
  let sim, _disk, cache, _log = setup ~capacity:8 () in
  let s = Sim.stats sim in
  for i = 0 to 7 do
    ignore (Cache.read cache i)
  done;
  (* touch block 0 so block 1 is the coldest, then overflow the pool *)
  ignore (Cache.read cache 0);
  ignore (Cache.read cache 8);
  Alcotest.(check int) "capacity respected" 8 (Cache.cached cache);
  let misses = s.Stats.cache_misses in
  ignore (Cache.read cache 0);
  Alcotest.(check int) "hot block survived" misses s.Stats.cache_misses;
  ignore (Cache.read cache 1);
  Alcotest.(check int) "coldest block was evicted" (misses + 1)
    s.Stats.cache_misses

let wal_forces_log_before_write () =
  let _sim, disk, cache, log = setup () in
  let payload = block_of cache 'w' in
  Cache.write cache 3 payload ~lsn:42L;
  Cache.flush_block cache 3;
  Alcotest.(check bool) "log forced through 42" true
    (List.exists (fun l -> Int64.compare l 42L >= 0) log.forced);
  Alcotest.(check string) "block on disk" payload (Disk.read disk 3);
  Alcotest.(check bool) "clean now" false (Cache.is_dirty cache 3)

let wal_no_force_when_durable () =
  let _sim, _disk, cache, log = setup () in
  log.durable <- 100L;
  Cache.write cache 3 (block_of cache 'q') ~lsn:42L;
  Cache.flush_block cache 3;
  Alcotest.(check (list int64)) "no force needed" [] log.forced

let eviction_respects_wal () =
  let _sim, _disk, cache, log = setup ~capacity:8 () in
  Cache.write cache 0 (block_of cache 'd') ~lsn:77L;
  (* filling the pool forces eviction of block 0 *)
  for i = 1 to 9 do
    ignore (Cache.read cache i)
  done;
  Alcotest.(check bool) "forced before eviction write" true
    (List.exists (fun l -> Int64.compare l 77L >= 0) log.forced)

let read_range_bulk () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  let s = Sim.stats sim in
  let datas = Cache.read_range cache ~first:0 ~count:14 in
  Alcotest.(check int) "all returned" 14 (Array.length datas);
  (* 14 blocks, bulk limit 7 -> exactly 2 bulk I/Os *)
  Alcotest.(check int) "two I/Os" 2 s.Stats.disk_reads;
  Alcotest.(check int) "both bulk" 2 s.Stats.bulk_reads;
  (* second scan: no further I/O *)
  ignore (Cache.read_range cache ~first:0 ~count:14);
  Alcotest.(check int) "cached afterwards" 2 s.Stats.disk_reads

let read_range_fills_gaps () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  ignore (Cache.read cache 2);
  (* cached block splits the range: [0..1] and [3..5] fetched separately *)
  let s = Sim.stats sim in
  let before = s.Stats.disk_reads in
  ignore (Cache.read_range cache ~first:0 ~count:6);
  Alcotest.(check int) "two string fetches" (before + 2) s.Stats.disk_reads

let prefetch_overlaps_io () =
  let sim, _disk, cache, _log = setup ~capacity:32 () in
  let s = Sim.stats sim in
  Cache.prefetch cache ~first:0 ~count:7;
  Alcotest.(check int) "async read issued" 1 s.Stats.prefetch_reads;
  let t0 = Sim.now sim in
  (* CPU work proceeds while the read is in flight *)
  Sim.tick sim 100;
  ignore (Cache.read cache 0);
  Alcotest.(check int) "read was a hit" 1 s.Stats.cache_hits;
  Alcotest.(check bool) "waited at most the remaining latency" true
    (Sim.now sim -. t0 < 40_000.)

let write_behind_strings () =
  let _sim, disk, cache, log = setup ~capacity:32 () in
  (* dirty blocks 0..6 under lsn 5, plus an isolated dirty block 20 *)
  for i = 0 to 6 do
    Cache.write cache i (block_of cache (Char.chr (48 + i))) ~lsn:5L
  done;
  Cache.write cache 20 (block_of cache 'x') ~lsn:5L;
  (* not durable yet: write-behind must do nothing *)
  let queued = Cache.write_behind cache in
  Alcotest.(check int) "WAL blocks write-behind" 0 queued;
  log.durable <- 5L;
  let s = Sim.stats _sim in
  let queued = Cache.write_behind cache in
  Alcotest.(check int) "all eligible queued" 8 queued;
  Alcotest.(check int) "one bulk + one single write" 2 s.Stats.disk_writes;
  Alcotest.(check int) "bulk write used" 1 s.Stats.bulk_writes;
  Alcotest.(check int) "counted as write-behind" 2 s.Stats.writebehind_writes;
  Alcotest.(check int) "nothing dirty left" 0 (Cache.dirty_count cache);
  Sim.drain _sim;
  Alcotest.(check string) "contents on disk" (block_of cache '0')
    (Disk.read disk 0)

let steal_cleans_and_frees () =
  let _sim, _disk, cache, log = setup ~capacity:16 () in
  for i = 0 to 9 do
    ignore (Cache.read cache i)
  done;
  Cache.write cache 3 (block_of cache 's') ~lsn:9L;
  let freed = Cache.steal cache 10 in
  Alcotest.(check int) "freed all" 10 freed;
  Alcotest.(check int) "empty now" 0 (Cache.cached cache);
  Alcotest.(check bool) "dirty victim forced the log" true
    (List.exists (fun l -> Int64.compare l 9L >= 0) log.forced)

let crash_drops_dirty () =
  let _sim, disk, cache, _log = setup () in
  Cache.write cache 7 (block_of cache 'c') ~lsn:3L;
  Cache.drop_all cache;
  Alcotest.(check string) "disk untouched"
    (String.make (Disk.block_size disk) '\x00')
    (Disk.read disk 7);
  Alcotest.(check int) "cache empty" 0 (Cache.cached cache)

(* --- decoded views ------------------------------------------------------- *)

(* A view that records the bytes it was decoded from, and how many decodes
   ran: the memo must call [decode] once per residency of unchanged bytes. *)
type Cache.view += Copy of string

let counting_decode decodes data =
  incr decodes;
  Copy data

let view_data cache decodes block =
  match Cache.read_view cache block (counting_decode decodes) with
  | Copy data -> data
  | _ -> Alcotest.fail "foreign view"

let lru_order cache = List.rev (Cache.mru_order cache)

(* The same access script through [read] and through [read_view] must
   leave identical counters, clock, LRU order and returned bytes. Each
   script begins with [pre], which runs the same calls on both sides. *)
let view_accounting_matches_read () =
  let run ~pre ~blocks via_view =
    let sim, _disk, cache, _log = setup ~capacity:8 () in
    pre sim cache;
    let decodes = ref 0 in
    let datas =
      List.map
        (fun b ->
          if via_view then view_data cache decodes b else Cache.read cache b)
        blocks
    in
    let stats = Stats.to_assoc (Sim.stats sim) and now = Sim.now sim in
    (datas, stats, now, lru_order cache)
  in
  let check name ~pre ~blocks =
    let datas, stats, now, lru = run ~pre ~blocks false in
    let vdatas, vstats, vnow, vlru = run ~pre ~blocks true in
    Alcotest.(check (list string)) (name ^ ": contents") datas vdatas;
    Alcotest.(check (list (pair string int))) (name ^ ": stats") stats vstats;
    Alcotest.(check (float 0.)) (name ^ ": clock") now vnow;
    Alcotest.(check (list int)) (name ^ ": LRU order") lru vlru
  in
  let nothing _ _ = () in
  check "miss" ~pre:nothing ~blocks:[ 3; 4; 5 ];
  check "hit"
    ~pre:(fun _ cache ->
      for b = 0 to 5 do
        Cache.write cache b (block_of cache (Char.chr (97 + b))) ~lsn:0L
      done)
    ~blocks:[ 2; 0; 2; 5; 1 ];
  check "in-flight prefetch"
    ~pre:(fun sim cache ->
      Cache.prefetch cache ~first:0 ~count:6;
      Sim.tick sim 10)
    ~blocks:[ 1; 4; 1; 9; 12; 0 ];
  check "evicting misses" ~pre:nothing
    ~blocks:(List.init 20 (fun i -> i * 7 mod 13))

(* A view is decoded once per residency of unchanged bytes; a write,
   eviction, steal or crash drops it, and the next access decodes again. *)
let view_dropped_on_change () =
  let _sim, _disk, cache, _log = setup ~capacity:8 () in
  let decodes = ref 0 in
  let expect name n data =
    Alcotest.(check string) (name ^ ": contents") data
      (view_data cache decodes 5);
    Alcotest.(check int) (name ^ ": decodes") n !decodes
  in
  let zero = block_of cache '\x00' and w = block_of cache 'w' in
  expect "first access" 1 zero;
  expect "memoised" 1 zero;
  Cache.write cache 5 w ~lsn:1L;
  expect "after write" 2 w;
  expect "memoised after write" 2 w;
  for b = 10 to 17 do
    ignore (Cache.read cache b)
  done;
  Alcotest.(check bool) "evicted" false (Cache.resident cache 5);
  expect "after eviction" 3 w;
  ignore (Cache.steal cache 8);
  expect "after steal" 4 w;
  Cache.drop_all cache;
  expect "after drop_all" 5 w

(* --- the LRU ring ---------------------------------------------------------- *)

type lru_op = Read of int | Write of int | Steal of int | Drop_all

let pp_lru_op = function
  | Read b -> Printf.sprintf "read %d" b
  | Write b -> Printf.sprintf "write %d" b
  | Steal n -> Printf.sprintf "steal %d" n
  | Drop_all -> "drop_all"

(* The sentinel ring against a list model, MRU first: a hit or a write to
   a resident block moves it to the front, an insert into a full pool drops
   the last block first, [steal n] drops the last [n]. *)
let ring_matches_model =
  let capacity = 8 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun b -> Read b) (int_bound 15));
          (3, map (fun b -> Write b) (int_bound 15));
          (1, map (fun n -> Steal n) (int_bound 4));
          (1, return Drop_all);
        ])
  in
  QCheck.Test.make ~name:"LRU ring walks like a list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_lru_op ops))
       QCheck.Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let _sim, _disk, cache, _log = setup ~capacity () in
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      let access b model =
        if List.mem b model then b :: List.filter (( <> ) b) model
        else b :: take (capacity - 1) model
      in
      let step model = function
        | Read b ->
            ignore (Cache.read cache b);
            access b model
        | Write b ->
            Cache.write cache b (block_of cache 'w') ~lsn:1L;
            access b model
        | Steal n ->
            ignore (Cache.steal cache n);
            take (max 0 (List.length model - n)) model
        | Drop_all ->
            Cache.drop_all cache;
            []
      in
      let _ =
        List.fold_left
          (fun model o ->
            let model = step model o in
            if Cache.mru_order cache <> model then
              QCheck.Test.fail_reportf "after %s: ring [%s], model [%s]"
                (pp_lru_op o)
                (String.concat " " (List.map string_of_int (Cache.mru_order cache)))
                (String.concat " " (List.map string_of_int model));
            model)
          [] ops
      in
      true)

(* A hit on a resident block with no event due allocates only the boxed
   float of its CPU charge. *)
let hit_allocation () =
  let _sim, _disk, cache, _log = setup () in
  ignore (Cache.read cache 3);
  ignore (Cache.read cache 4);
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    ignore (Cache.read cache (3 + (i land 1)))
  done;
  let per_hit = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per hit, at most 4" per_hit)
    true (per_hit <= 4.)

let suite =
  [
    Alcotest.test_case "hit/miss counting" `Quick hit_miss_counting;
    Alcotest.test_case "write read-through" `Quick write_read_through;
    Alcotest.test_case "capacity respected" `Quick lru_evicts_coldest;
    Alcotest.test_case "WAL: force before flush" `Quick
      wal_forces_log_before_write;
    Alcotest.test_case "WAL: no force when durable" `Quick
      wal_no_force_when_durable;
    Alcotest.test_case "WAL: eviction forces log" `Quick eviction_respects_wal;
    Alcotest.test_case "read_range uses bulk I/O" `Quick read_range_bulk;
    Alcotest.test_case "read_range fills gaps" `Quick read_range_fills_gaps;
    Alcotest.test_case "prefetch overlaps CPU and I/O" `Quick
      prefetch_overlaps_io;
    Alcotest.test_case "write-behind bulk strings under WAL" `Quick
      write_behind_strings;
    Alcotest.test_case "VM steal cleans and frees" `Quick steal_cleans_and_frees;
    Alcotest.test_case "crash drops dirty pages" `Quick crash_drops_dirty;
    Alcotest.test_case "read_view accounts exactly like read" `Quick
      view_accounting_matches_read;
    Alcotest.test_case "view decoded again after write/evict/steal/crash"
      `Quick view_dropped_on_change;
    QCheck_alcotest.to_alcotest ring_matches_model;
    Alcotest.test_case "a hit allocates at most 4 words" `Quick hit_allocation;
  ]

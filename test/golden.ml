(* Depth-1 golden fingerprints: canonical strings of the full statistics
   vector plus the final simulated clock for three fixed workloads. The
   constants below were captured from the pre-queue-model build (after the
   PR-10 stall/read_range accounting bugfixes, before the multi-queue disk
   rework) and pin the contract that [disk_queue_depth = 1] — the default —
   reproduces the single-[busy_until] disk byte for byte: same results,
   same counters, same clock. test_diskq checks them on every run.

   No Alcotest in here: the module is also compiled standalone by the
   one-off capture driver that (re)generates the constants, so keep it a
   pure library over the nsql libs. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit
module Chaos = Nsql_chaos.Chaos
module Fs = Nsql_fs.Fs
module Msg = Nsql_msg.Msg
module Dp_msg = Nsql_dp.Dp_msg

let get_ok = Errors.get_ok

let fingerprint_of ~stats ~now =
  String.concat ";"
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
       (Stats.to_assoc stats))
  ^ Printf.sprintf ";now=%.6f" now

let fingerprint node =
  fingerprint_of ~stats:(N.snapshot node) ~now:(Sim.now (N.sim node))

(* a rowset as its row count and the MD5 of its printed rows *)
let digest rows =
  Printf.sprintf "%d rows %s" (List.length rows)
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map (Format.asprintf "%a" Nsql_row.Row.pp_row) rows))))

(* the test_monitor Wisconsin mini-suite: selections, aggregates, a join
   and DML over a partitioned table — scans, prefetch, bulk I/O, audit *)
let queries ?config ?access () =
  let config = match config with Some c -> c | None -> Config.v ~fs_fanout:true () in
  let node = N.create_node ~config ~volumes:4 () in
  let rows = 200 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:4 ());
  get_ok ~ctx:"wisc2" (Wisconsin.create node ~name:"t2" ~rows ());
  let s = N.session node in
  N.set_access_mode s access;
  List.iter
    (fun q -> ignore (N.exec_exn s q.Wisconsin.q_sql))
    (Wisconsin.selection_queries ~table:"t" ~rows
    @ Wisconsin.agg_and_join_queries ~table:"t" ~table2:"t2" ~rows);
  ignore (N.exec_exn s "UPDATE t SET two = 1 WHERE unique2 < 20");
  ignore (N.exec_exn s "DELETE FROM t WHERE unique2 >= 190");
  Sim.drain (N.sim node);
  fingerprint node

(* contended DebitCredit with DP lock-wait queues: dirties the cache hard
   enough to drive write-behind and eviction cleaning *)
let transfers ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"transfer setup" (Debitcredit.setup_transfer node ~accounts:4)
  in
  let rep = Debitcredit.run_transfers db ~terminals:4 ~txs_per_terminal:10 () in
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = 40);
  Sim.drain (N.sim node);
  fingerprint node

(* a pool far smaller than the table: scans run cold, so demand bulk
   reads, pre-fetch, eviction cleaning and re-reads all hit the disk *)
let cold_scans ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> Config.v ~fs_fanout:true ~cache_blocks:16 ()
  in
  let node = N.create_node ~config ~volumes:2 () in
  let rows = 4000 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:2 ());
  let s = N.session node in
  ignore (N.exec_exn s "SELECT COUNT(*), SUM(unique1) FROM t");
  ignore (N.exec_exn s "SELECT unique1 FROM t WHERE unique2 < 50");
  ignore (N.exec_exn s "UPDATE t SET two = 1 WHERE unique2 < 40");
  ignore (N.exec_exn s "SELECT COUNT(*), MIN(unique2) FROM t WHERE two = 1");
  Sim.drain (N.sim node);
  fingerprint node

(* chaos runs whose plans include audit stalls, disk transients and VM
   pressure (seeds 6 and 12 carry all three): pins the repaired
   [Disk.stall] arithmetic under faults; the applied-fault counts ride
   along in the fingerprint *)
let chaos ~seed () =
  let r = Chaos.run ~txs:40 ~seed () in
  assert (r.Chaos.r_violations = []);
  fingerprint_of ~stats:r.Chaos.r_stats
    ~now:(float_of_int r.Chaos.r_txs_committed)
  ^ ";"
  ^ String.concat ";"
      (List.map (fun (k, n) -> Printf.sprintf "fault_%s=%d" k n) r.Chaos.r_faults)

(* secondary-index paths over a partitioned table: online index
   creation, an index scan with base-row reads, an UPDATE of the indexed
   column and a DELETE (both take the requester-side fallback that keeps
   the index in step) *)
let indexed ~fanout () =
  let config = Config.v ~fs_fanout:fanout () in
  let node = N.create_node ~config ~volumes:4 () in
  let rows = 200 in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:4 ());
  let s = N.session node in
  ignore (N.exec_exn s "CREATE INDEX t_one ON t (onepercent)");
  ignore (N.exec_exn s "SELECT unique1, unique2 FROM t WHERE onepercent = 1");
  ignore (N.exec_exn s "UPDATE t SET onepercent = 3 WHERE unique2 < 30");
  ignore (N.exec_exn s "SELECT unique2, two FROM t WHERE onepercent = 3");
  ignore (N.exec_exn s "DELETE FROM t WHERE unique2 >= 170");
  Sim.drain (N.sim node);
  fingerprint node

(* The failure branch of the per-partition re-drive chains: another
   transaction holds an exclusive record lock in one partition of a
   4-partition table, and small requests ([dp_records_per_request = 8])
   leave every chain with re-drives to go when that partition's Disk
   Process denies the lock. A full-range UPDATE and a pushed-down
   COUNT( * ) under shared read locks both fail. The result names each
   statement's outcome, whether the table's rows are unchanged after the
   lock holder rolls back, and every Disk Process's request-tag sequence
   over the two statements, recorded by a pass-through fault filter — so
   it pins which chains were re-driven and which were closed with
   CLOSE^SCB. *)
let blocked_chains ~fanout () =
  let config = Config.v ~fs_fanout:fanout ~dp_records_per_request:8 () in
  let node = N.create_node ~config ~volumes:4 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows:200 ~partitions:4 ());
  let all_rows () =
    match N.exec_exn (N.session node) "SELECT * FROM t" with
    | N.Rows { rows; _ } -> rows
    | _ -> failwith "blocked_chains: not a rowset"
  in
  let before = all_rows () in
  let holder = N.session node in
  ignore (N.exec_exn holder "BEGIN WORK");
  ignore (N.exec_exn holder "UPDATE t SET two = 7 WHERE unique2 = 130");
  let s = N.session node in
  N.set_read_lock s Dp_msg.L_shared;
  let log = ref [] in
  Msg.set_fault_filter (N.msys node)
    (Some
       (fun ~from:_ ~to_name ~tag ->
         log := (to_name, tag) :: !log;
         Msg.Fault_pass));
  let outcome sql =
    match N.exec s sql with
    | Ok r -> Format.asprintf "%a" N.pp_exec_result r
    | Error e -> Errors.to_string e
  in
  let updated = outcome "UPDATE t SET two = 1" in
  let counted = outcome "SELECT COUNT(*) FROM t" in
  Msg.set_fault_filter (N.msys node) None;
  ignore (N.exec_exn holder "ROLLBACK WORK");
  let unchanged = all_rows () = before in
  let tags = List.rev !log in
  let dps = List.sort_uniq compare (List.map fst tags) in
  String.concat "\n"
    ([ "update: " ^ updated; "count: " ^ counted;
       Printf.sprintf "rows unchanged: %b" unchanged;
       Printf.sprintf "now=%.6f" (Sim.now (N.sim node)) ]
    @ List.map
        (fun dp ->
          dp ^ ": "
          ^ String.concat ","
              (List.filter_map
                 (fun (d, tag) -> if String.equal d dp then Some tag else None)
                 tags))
        dps)

(* Scans over a mixed-type table whose nullable VARCHAR, CHAR, BOOL and
   FLOAT columns sit ahead of the predicate column [late], so every
   Disk Process scan walks (and skips) varying-width fields before the
   one it filters on. Under the given access mode it runs SQL selections
   on the late column and on IS NULL / IS NOT NULL, a pushed-down GROUP
   BY on the key prefix, UPDATE and DELETE ... WHERE on the late column,
   and File System scans whose projections reorder, duplicate and
   overlap the predicate's columns, plus a direct aggregate. Small
   requests force re-drives (and aggregate-state checkpoints) mid-scan.
   Each rowset is recorded as its row count and digest, followed by the
   full statistics vector and the final simulated clock. *)
let mixed_scans ~access () =
  let config = Config.v ~dp_records_per_request:40 () in
  let node = N.create_node ~config ~volumes:2 () in
  let s = N.session node in
  ignore
    (N.exec_exn s
       "CREATE TABLE m (g INT NOT NULL, k INT NOT NULL, name VARCHAR(24) NOT \
        NULL, note VARCHAR(40), code CHAR(6), flag BOOL, score FLOAT, late \
        INT, PRIMARY KEY (g, k))");
  let opt cond v = if cond then "NULL" else v in
  for batch = 0 to 5 do
    let values =
      List.init 40 (fun j ->
          let i = (batch * 40) + j in
          Printf.sprintf "(%d, %d, '%s', %s, %s, %s, %s, %s)" (i / 60) i
            ("n" ^ String.make (i mod 9) 'a' ^ string_of_int i)
            (opt (i mod 3 = 0) (Printf.sprintf "'%s'" (String.make (i mod 31) 'x')))
            (opt (i mod 5 = 0) (Printf.sprintf "'c%03d'" (i mod 1000)))
            (opt (i mod 11 = 0) (if i mod 2 = 0 then "TRUE" else "FALSE"))
            (opt (i mod 4 = 1) (Printf.sprintf "%d.5" i))
            (opt (i mod 6 = 5) (string_of_int ((i * 37) mod 100))))
    in
    ignore (N.exec_exn s ("INSERT INTO m VALUES " ^ String.concat ", " values))
  done;
  let outcome sql =
    match N.exec s sql with
    | Ok (N.Rows { rows; _ }) -> digest rows
    | Ok r -> Format.asprintf "%a" N.pp_exec_result r
    | Error e -> Errors.to_string e
  in
  N.set_access_mode s (match access with Fs.A_vsbb -> None | a -> Some a);
  let sql =
    List.map
      (fun q -> q ^ ": " ^ outcome q)
      [
        "SELECT k, name, late FROM m WHERE late > 80";
        "SELECT * FROM m WHERE note IS NULL AND late < 40";
        "SELECT k, note, code FROM m WHERE score IS NOT NULL AND flag IS NULL";
        "SELECT late, k, late, name FROM m WHERE late BETWEEN 10 AND 30";
        "SELECT g, COUNT(*), SUM(late), MIN(name), MAX(score), AVG(late) FROM \
         m WHERE late >= 20 GROUP BY g";
        "SELECT COUNT(*), MIN(note), MAX(code) FROM m WHERE code IS NOT NULL";
        "UPDATE m SET note = 'u', score = score + 1.0 WHERE late < 15";
        "DELETE FROM m WHERE late > 90";
        "SELECT * FROM m";
      ]
  in
  let fs = N.fs node in
  let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "m") in
  let file = tbl.N.Catalog.t_file in
  let module Expr = Nsql_expr.Expr in
  let scan ?pred ?proj () =
    get_ok ~ctx:"scan"
      (N.in_tx s (fun tx ->
           let sc =
             Fs.open_scan fs file ~tx ~access ~range:Expr.full_range ?pred ?proj
               ~lock:Dp_msg.L_none ()
           in
           let rec drain acc =
             match Fs.scan_next fs sc with
             | Ok (Some r) -> drain (r :: acc)
             | Ok None ->
                 Fs.close_scan fs sc;
                 Ok (List.rev acc)
             | Error e ->
                 Fs.close_scan fs sc;
                 Error e
           in
           drain []))
  in
  let late_lt n = Expr.(Cmp (Lt, Field 7, int_ n)) in
  let scans =
    [
      ("late<50 proj 7,0,7,2", scan ~pred:(late_lt 50) ~proj:[| 7; 0; 7; 2 |] ());
      ( "note IS NULL proj 3,3,5",
        scan ~pred:Expr.(Is_null (Field 3)) ~proj:[| 3; 3; 5 |] () );
      ( "late IS NOT NULL and code<>'c007' proj 6,4",
        scan
          ~pred:Expr.(Not (Is_null (Field 7)) &&& Cmp (Ne, Field 4, str "c007"))
          ~proj:[| 6; 4 |] () );
      ("no pred proj 6,1", scan ~proj:[| 6; 1 |] ());
      ("late<30 all columns", scan ~pred:(late_lt 30) ());
    ]
  in
  let agg =
    get_ok ~ctx:"aggregate"
      (N.in_tx s (fun tx ->
           Fs.aggregate fs file ~tx ~range:Expr.full_range
             ~pred:Expr.(Not (Is_null (Field 3)))
             ~group_keys:[| 0 |]
             ~aggs:
               Dp_msg.
                 [
                   { ag_kind = Agg_count_star; ag_arg = None };
                   { ag_kind = Agg_sum; ag_arg = Some (Expr.Field 7) };
                   { ag_kind = Agg_min; ag_arg = Some (Expr.Field 4) };
                   { ag_kind = Agg_max; ag_arg = Some (Expr.Field 6) };
                 ]
             ~lock:Dp_msg.L_none ()))
  in
  let agg =
    List.map
      (fun (key_vals, accs) ->
        Format.asprintf "%a %s" Nsql_row.Row.pp_row key_vals
          (String.concat ","
             (List.map
                (fun a ->
                  Format.asprintf "%d/%d/%h/%a/%a" a.Dp_msg.aa_count a.aa_sum_i
                    a.aa_sum_f Nsql_row.Row.pp_value a.aa_min
                    Nsql_row.Row.pp_value a.aa_max)
                accs)))
      agg
  in
  Sim.drain (N.sim node);
  String.concat "\n"
    (sql
    @ List.map (fun (label, rows) -> label ^ ": " ^ digest rows) scans
    @ [ "aggregate: " ^ String.concat " | " agg; fingerprint node ])

let scenarios =
  [
    ("queries", fun () -> queries ());
    ("transfers", fun () -> transfers ());
    ("cold_scans", fun () -> cold_scans ());
    ("chaos_seed6", fun () -> chaos ~seed:6 ());
    ("chaos_seed12", fun () -> chaos ~seed:12 ());
  ]

(* the FS-DP re-drive paths under both fan-out schedules, every access
   mode, the index fallbacks and the chain failure branch *)
let redrive_scenarios =
  [
    ("queries_nofanout", fun () -> queries ~config:(Config.v ~fs_fanout:false ()) ());
    ("queries_rsbb", fun () -> queries ~access:Fs.A_rsbb ());
    ("queries_record", fun () -> queries ~access:Fs.A_record ());
    ("indexed_fanout", fun () -> indexed ~fanout:true ());
    ("indexed_nofanout", fun () -> indexed ~fanout:false ());
    ("blocked_fanout", fun () -> blocked_chains ~fanout:true ());
    ("blocked_nofanout", fun () -> blocked_chains ~fanout:false ());
  ]

(* the Disk Process's column-subset decode: the mixed-type scans under
   virtual and real sequential block buffering *)
let column_scenarios =
  [
    ("mixed_vsbb", fun () -> mixed_scans ~access:Fs.A_vsbb ());
    ("mixed_rsbb", fun () -> mixed_scans ~access:Fs.A_rsbb ());
  ]
(* --- captured constants (regenerate with the PR-10 capture driver) --- *)

let golden_queries =
  "msgs_sent=50;msg_req_bytes=90398;msg_reply_bytes=19683;msgs_remote=50;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=91178;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=5045;cache_misses=0;cache_steals=0;cpu_ticks=86053;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=4;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1652;records_returned=629;exec_batches=20;exec_rows=629;redrives=1;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=474586.500000"

let golden_transfers =
  "msgs_sent=222;msg_req_bytes=18708;msg_reply_bytes=11558;msgs_remote=222;msgs_internode=0;checkpoint_msgs=428;checkpoint_bytes=22049;disk_reads=2;disk_writes=41;blocks_read=2;blocks_written=48;bulk_reads=0;bulk_writes=7;prefetch_reads=0;writebehind_writes=0;cache_hits=306;cache_misses=2;cache_steals=0;cpu_ticks=17532;lock_requests=315;lock_conflicts=103;lock_waits=63;deadlocks=4;audit_records=230;audit_bytes=31740;audit_flushes=41;audit_flush_full=0;audit_flush_timer=41;group_commit_txs=41;tx_begun=49;tx_committed=41;tx_aborted=8;records_read=0;records_returned=0;exec_batches=0;exec_rows=0;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=2647241.000000"

let golden_cold_scans =
  "msgs_sent=52;msg_req_bytes=880809;msg_reply_bytes=1074;msgs_remote=52;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=882802;disk_reads=102;disk_writes=373;blocks_read=578;blocks_written=614;bulk_reads=80;bulk_writes=41;prefetch_reads=80;writebehind_writes=0;cache_hits=32817;cache_misses=22;cache_steals=0;cpu_ticks=512149;lock_requests=80;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=4047;audit_bytes=1153858;audit_flushes=42;audit_flush_full=40;audit_flush_timer=2;group_commit_txs=2;tx_begun=5;tx_committed=5;tx_aborted=0;records_read=8090;records_returned=50;exec_batches=1;exec_rows=50;redrives=4;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=3155230.000000"

let golden_chaos6 =
  "msgs_sent=415;msg_req_bytes=13762;msg_reply_bytes=12882;msgs_remote=415;msgs_internode=0;checkpoint_msgs=302;checkpoint_bytes=15170;disk_reads=11;disk_writes=56;blocks_read=22;blocks_written=59;bulk_reads=3;bulk_writes=3;prefetch_reads=0;writebehind_writes=0;cache_hits=2114;cache_misses=8;cache_steals=5;cpu_ticks=53421;lock_requests=284;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=399;audit_bytes=19271;audit_flushes=51;audit_flush_full=0;audit_flush_timer=51;group_commit_txs=51;tx_begun=68;tx_committed=63;tx_aborted=5;records_read=336;records_returned=290;exec_batches=28;exec_rows=274;redrives=0;faults_injected=8;msg_path_retries=0;disk_transient_errors=0;takeovers=1;takeover_denials=0;now=35.000000;fault_msg_delay=2;fault_msg_flap=0;fault_takeover=2;fault_crash=1;fault_disk_transient=1;fault_vm_pressure=1;fault_audit_stall=1;fault_2pc_crash=0"

let golden_chaos12 =
  "msgs_sent=507;msg_req_bytes=15034;msg_reply_bytes=19496;msgs_remote=507;msgs_internode=0;checkpoint_msgs=295;checkpoint_bytes=14244;disk_reads=11;disk_writes=55;blocks_read=21;blocks_written=59;bulk_reads=3;bulk_writes=4;prefetch_reads=0;writebehind_writes=0;cache_hits=2475;cache_misses=8;cache_steals=5;cpu_ticks=62089;lock_requests=284;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=389;audit_bytes=18795;audit_flushes=50;audit_flush_full=0;audit_flush_timer=50;group_commit_txs=50;tx_begun=68;tx_committed=65;tx_aborted=3;records_read=470;records_returned=427;exec_batches=34;exec_rows=412;redrives=0;faults_injected=7;msg_path_retries=0;disk_transient_errors=2;takeovers=1;takeover_denials=0;now=37.000000;fault_msg_delay=0;fault_msg_flap=0;fault_takeover=1;fault_crash=1;fault_disk_transient=3;fault_vm_pressure=1;fault_audit_stall=1;fault_2pc_crash=0"

(* --- re-drive goldens: captured before the FS chain driver and the DP
   subset-scan loop were each folded into one implementation --- *)

let golden_queries_nofanout =
  "msgs_sent=50;msg_req_bytes=90398;msg_reply_bytes=19683;msgs_remote=50;msgs_internode=0;checkpoint_msgs=55;checkpoint_bytes=91178;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=5045;cache_misses=0;cache_steals=0;cpu_ticks=86053;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=4;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1652;records_returned=629;exec_batches=20;exec_rows=629;redrives=1;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=589882.500000"

let golden_queries_rsbb =
  "msgs_sent=146;msg_req_bytes=91238;msg_reply_bytes=445123;msgs_remote=146;msgs_internode=0;checkpoint_msgs=87;checkpoint_bytes=90824;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=5429;cache_misses=0;cache_steals=0;cpu_ticks=93573;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=4;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1652;records_returned=1622;exec_batches=74;exec_rows=829;redrives=97;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=586007.500000"

let golden_queries_record =
  "msgs_sent=1671;msg_req_bytes=113863;msg_reply_bytes=445349;msgs_remote=1671;msgs_internode=0;checkpoint_msgs=20;checkpoint_bytes=89765;disk_reads=0;disk_writes=12;blocks_read=0;blocks_written=37;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=6663;cache_misses=0;cache_steals=0;cpu_ticks=142070;lock_requests=36;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=448;audit_bytes=119212;audit_flushes=8;audit_flush_full=4;audit_flush_timer=4;group_commit_txs=4;tx_begun=14;tx_committed=14;tx_aborted=0;records_read=1653;records_returned=1623;exec_batches=829;exec_rows=829;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=4076758.500000"

let golden_indexed_fanout =
  "msgs_sent=361;msg_req_bytes=61850;msg_reply_bytes=59250;msgs_remote=361;msgs_internode=0;checkpoint_msgs=242;checkpoint_bytes=63240;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=29;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=3041;cache_misses=0;cache_steals=0;cpu_ticks=64208;lock_requests=224;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=560;audit_bytes=97440;audit_flushes=6;audit_flush_full=2;audit_flush_timer=4;group_commit_txs=4;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=390;records_returned=390;exec_batches=8;exec_rows=390;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1344364.500000"

let golden_indexed_nofanout =
  "msgs_sent=361;msg_req_bytes=61850;msg_reply_bytes=59250;msgs_remote=361;msgs_internode=0;checkpoint_msgs=242;checkpoint_bytes=63240;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=29;bulk_reads=0;bulk_writes=5;prefetch_reads=0;writebehind_writes=0;cache_hits=3041;cache_misses=0;cache_steals=0;cpu_ticks=64208;lock_requests=224;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=560;audit_bytes=97440;audit_flushes=6;audit_flush_full=2;audit_flush_timer=4;group_commit_txs=4;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=390;records_returned=390;exec_batches=8;exec_rows=390;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1359778.000000"

let golden_blocked_fanout =
  String.concat ""
    [
      "update: lock timeout/deadlock: blocked by transactions [3]\n";
      "count: lock timeout/deadlock: blocked by transactions [3]\n";
      "rows unchanged: true\n";
      "now=298026.000000\n";
      "$DATA1: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,CLOSE^SCB,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,CLOSE^SCB\n";
      "$DATA2: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,CLOSE^SCB,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,CLOSE^SCB\n";
      "$DATA3: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT\n";
      "$DATA4: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,CLOSE^SCB,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,CLOSE^SCB";
    ]

let golden_blocked_nofanout =
  String.concat ""
    [
      "update: lock timeout/deadlock: blocked by transactions [3]\n";
      "count: lock timeout/deadlock: blocked by transactions [3]\n";
      "rows unchanged: true\n";
      "now=525204.000000\n";
      "$DATA1: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT\n";
      "$DATA2: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT\n";
      "$DATA3: UPDATE^SUBSET^FIRST,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,UPDATE^SUBSET^NEXT,AGGREGATE^FIRST,AGGREGATE^NEXT,AGGREGATE^NEXT,AGGREGATE^NEXT";
    ]

let redrive_goldens =
  [
    golden_queries_nofanout;
    golden_queries_rsbb;
    golden_queries_record;
    golden_indexed_fanout;
    golden_indexed_nofanout;
    golden_blocked_fanout;
    golden_blocked_nofanout;
  ]

(* --- column-subset goldens: captured before the Disk Process scans
   stopped decoding whole records --- *)

let golden_mixed_vsbb =
  String.concat "\n"
    [
      "SELECT k, name, late FROM m WHERE late > 80: 38 rows 61941874f90c1fc01508e02948dda393";
      "SELECT * FROM m WHERE note IS NULL AND late < 40: 32 rows 6de3e6561c33ea8351740be1b50e959c";
      "SELECT k, note, code FROM m WHERE score IS NOT NULL AND flag IS NULL: 17 rows 8f47c5464c803d6d8648b92fa1d6dbb6";
      "SELECT late, k, late, name FROM m WHERE late BETWEEN 10 AND 30: 41 rows 8b8befa4eb24dc986892501730799562";
      "SELECT g, COUNT(*), SUM(late), MIN(name), MAX(score), AVG(late) FROM m WHERE late >= 20 GROUP BY g: 4 rows f0799d9d22b065b4a37921d7847de5b7";
      "SELECT COUNT(*), MIN(note), MAX(code) FROM m WHERE code IS NOT NULL: 1 rows 22e776f85d81bda198cebeb5972243f0";
      "UPDATE m SET note = 'u', score = score + 1.0 WHERE late < 15: 31 row(s) affected";
      "DELETE FROM m WHERE late > 90: 18 row(s) affected";
      "SELECT * FROM m: 222 rows ab85811cce4f07b54b9a8647c826955c";
      "late<50 proj 7,0,7,2: 100 rows e24f0b1a54b76987b78e027901dc985d";
      "note IS NULL proj 3,3,5: 61 rows 0837e3400fc86a056514e9e7d7335f5c";
      "late IS NOT NULL and code<>'c007' proj 6,4: 143 rows 2e7e0785cab08c5a89a8a2057d96c31e";
      "no pred proj 6,1: 222 rows 758e383394320772e4e5d0f074ac9c25";
      "late<30 all columns: 59 rows a7bac64e00232af1987cb1607888852e";
      "aggregate: (0) 41/0/0x0p+0/NULL/NULL,31/1211/0x0p+0/0/84,31/0/0x0p+0/\"c001\"/\"c059\",30/0/0x1.cbp+9/1.5/59.5 | (1) 40/0/0x0p+0/NULL/NULL,30/1289/0x0p+0/0/90,32/0/0x0p+0/\"c061\"/\"c119\",30/0/0x1.5ap+11/64.5/119.5 | (2) 40/0/0x0p+0/NULL/NULL,30/1374/0x0p+0/2/90,31/0/0x0p+0/\"c121\"/\"c179\",29/0/0x1.1368p+12/123.5/179.5 | (3) 40/0/0x0p+0/NULL/NULL,30/1193/0x0p+0/0/88,33/0/0x0p+0/\"c182\"/\"c239\",31/0/0x1.98f8p+12/182.5/239.5";
      "msgs_sent=336;msg_req_bytes=17924;msg_reply_bytes=36939;msgs_remote=336;msgs_internode=0;checkpoint_msgs=301;checkpoint_bytes=28230;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=14;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=8704;cache_misses=0;cache_steals=0;cpu_ticks=153641;lock_requests=289;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=318;audit_bytes=24965;audit_flushes=8;audit_flush_full=0;audit_flush_timer=8;group_commit_txs=8;tx_begun=21;tx_committed=21;tx_aborted=0;records_read=3474;records_returned=935;exec_batches=63;exec_rows=935;redrives=80;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1598587.500000";
    ]

let golden_mixed_rsbb =
  String.concat "\n"
    [
      "SELECT k, name, late FROM m WHERE late > 80: 38 rows 61941874f90c1fc01508e02948dda393";
      "SELECT * FROM m WHERE note IS NULL AND late < 40: 32 rows 6de3e6561c33ea8351740be1b50e959c";
      "SELECT k, note, code FROM m WHERE score IS NOT NULL AND flag IS NULL: 17 rows 8f47c5464c803d6d8648b92fa1d6dbb6";
      "SELECT late, k, late, name FROM m WHERE late BETWEEN 10 AND 30: 41 rows 8b8befa4eb24dc986892501730799562";
      "SELECT g, COUNT(*), SUM(late), MIN(name), MAX(score), AVG(late) FROM m WHERE late >= 20 GROUP BY g: 4 rows f0799d9d22b065b4a37921d7847de5b7";
      "SELECT COUNT(*), MIN(note), MAX(code) FROM m WHERE code IS NOT NULL: 1 rows 22e776f85d81bda198cebeb5972243f0";
      "UPDATE m SET note = 'u', score = score + 1.0 WHERE late < 15: 31 row(s) affected";
      "DELETE FROM m WHERE late > 90: 18 row(s) affected";
      "SELECT * FROM m: 222 rows ab85811cce4f07b54b9a8647c826955c";
      "late<50 proj 7,0,7,2: 100 rows e24f0b1a54b76987b78e027901dc985d";
      "note IS NULL proj 3,3,5: 61 rows 0837e3400fc86a056514e9e7d7335f5c";
      "late IS NOT NULL and code<>'c007' proj 6,4: 143 rows 2e7e0785cab08c5a89a8a2057d96c31e";
      "no pred proj 6,1: 222 rows 758e383394320772e4e5d0f074ac9c25";
      "late<30 all columns: 59 rows a7bac64e00232af1987cb1607888852e";
      "aggregate: (0) 41/0/0x0p+0/NULL/NULL,31/1211/0x0p+0/0/84,31/0/0x0p+0/\"c001\"/\"c059\",30/0/0x1.cbp+9/1.5/59.5 | (1) 40/0/0x0p+0/NULL/NULL,30/1289/0x0p+0/0/90,32/0/0x0p+0/\"c061\"/\"c119\",30/0/0x1.5ap+11/64.5/119.5 | (2) 40/0/0x0p+0/NULL/NULL,30/1374/0x0p+0/2/90,31/0/0x0p+0/\"c121\"/\"c179\",29/0/0x1.1368p+12/123.5/179.5 | (3) 40/0/0x0p+0/NULL/NULL,30/1193/0x0p+0/0/88,33/0/0x0p+0/\"c182\"/\"c239\",31/0/0x1.98f8p+12/182.5/239.5";
      "msgs_sent=369;msg_req_bytes=18427;msg_reply_bytes=202036;msgs_remote=369;msgs_internode=0;checkpoint_msgs=293;checkpoint_bytes=25375;disk_reads=0;disk_writes=8;blocks_read=0;blocks_written=14;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=8847;cache_misses=0;cache_steals=0;cpu_ticks=154706;lock_requests=289;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=318;audit_bytes=24965;audit_flushes=8;audit_flush_full=0;audit_flush_timer=8;group_commit_txs=8;tx_begun=21;tx_committed=21;tx_aborted=0;records_read=3474;records_returned=2772;exec_batches=107;exec_rows=1287;redrives=113;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1739025.000000";
    ]

let column_goldens = [ golden_mixed_vsbb; golden_mixed_rsbb ]

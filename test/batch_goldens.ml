(* Goldens of the batched executor's scenarios in test_batch, captured
   while the row-at-a-time pull engine still ran beside the batched one:
   the pull engine reproduced every constant below byte for byte. Each is
   the scenario's SQL (or query ids), its rowset digests and the full
   statistics vector with the final simulated clock. *)

let select =
  [
    (* seed 5 *)
    String.concat "\n"
      [
        "SELECT unique1, unique2, stringu1 FROM t WHERE unique1 < 21";
        "21 rows a2295ae629c338aec83b2a7c654a2ef3";
        "msgs_sent=27;msg_req_bytes=85123;msg_reply_bytes=5854;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85738;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=53267;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=261;exec_batches=8;exec_rows=261;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=393653.500000";
      ];
    (* seed 17 *)
    String.concat "\n"
      [
        "SELECT * FROM t WHERE unique2 >= 49 AND unique2 < 174";
        "125 rows ebc8ab41483df9dc3c9f369d29ad667d";
        "msgs_sent=34;msg_req_bytes=85125;msg_reply_bytes=38957;msgs_remote=34;msgs_internode=0;checkpoint_msgs=38;checkpoint_bytes=85635;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=2817;cache_misses=0;cache_steals=0;cpu_ticks=51321;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=365;records_returned=365;exec_batches=15;exec_rows=365;redrives=8;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=411418.500000";
      ];
    (* seed 10 *)
    String.concat "\n"
      [
        "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t WHERE unique2 >= 42 AND unique2 < 62 GROUP BY onepercent";
        "2 rows 2f002cd1a6010718771176b68e762200";
        "msgs_sent=25;msg_req_bytes=85004;msg_reply_bytes=5275;msgs_remote=25;msgs_internode=0;checkpoint_msgs=34;checkpoint_bytes=85611;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=2566;cache_misses=0;cache_steals=0;cpu_ticks=47122;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=260;records_returned=260;exec_batches=6;exec_rows=260;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=392653.000000";
      ];
    (* seed 2 *)
    String.concat "\n"
      [
        "SELECT tenpercent, AVG(unique1) FROM t WHERE two = 0 OR onepercent = 0 GROUP BY tenpercent HAVING COUNT(*) > 2";
        "12 rows 14750d6e16e3740a0c85b87560b87182";
        "msgs_sent=27;msg_req_bytes=85179;msg_reply_bytes=7021;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85794;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=57056;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=360;exec_batches=8;exec_rows=360;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=395416.000000";
      ];
    (* seed 20 *)
    String.concat "\n"
      [
        "SELECT unique1, stringu1 FROM t ORDER BY unique1 DESC LIMIT 2";
        "2 rows f51b26e76533019fc91e886469e4ad83";
        "msgs_sent=27;msg_req_bytes=85063;msg_reply_bytes=15301;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85678;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=55113;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=480;exec_batches=8;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=396286.500000";
      ];
    (* seed 21 *)
    String.concat "\n"
      [
        "SELECT DISTINCT four, twenty FROM t WHERE four = 0 AND unique1 >= 197 ORDER BY four, twenty";
        "5 rows b66460a9bf0c400744e74f673343a59e";
        "msgs_sent=27;msg_req_bytes=85179;msg_reply_bytes=4919;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85792;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=55028;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=250;exec_batches=7;exec_rows=250;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=393991.500000";
      ];
    (* seed 6 *)
    String.concat "\n"
      [
        "SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 = b.unique2 AND a.unique1 < 55";
        "23 rows dcc8c013c414fceff4a2b5585556bd0f";
        "msgs_sent=82;msg_req_bytes=85822;msg_reply_bytes=23495;msgs_remote=82;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85722;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3134;cache_misses=0;cache_steals=0;cpu_ticks=57068;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=295;exec_batches=8;exec_rows=295;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=512507.500000";
      ];
    (* seed 22 *)
    String.concat "\n"
      [
        "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique3), AVG(two) FROM t WHERE onepercent = 1";
        "1 rows 66f0da45e221436e0299864995eccda6";
        "msgs_sent=144;msg_req_bytes=86531;msg_reply_bytes=39870;msgs_remote=144;msgs_internode=0;checkpoint_msgs=33;checkpoint_bytes=85574;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3004;cache_misses=0;cache_steals=0;cpu_ticks=58294;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=360;records_returned=360;exec_batches=5;exec_rows=360;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=662044.000000";
      ];
  ]

let select_chaos =
  [
    (* seed 5 *)
    String.concat "\n"
      [
        "SELECT unique1, unique2, stringu1 FROM t WHERE unique1 < 21";
        "21 rows a2295ae629c338aec83b2a7c654a2ef3";
        "msgs_sent=27;msg_req_bytes=85123;msg_reply_bytes=5854;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85738;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=53267;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=261;exec_batches=8;exec_rows=261;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=393899.000000";
      ];
    (* seed 17 *)
    String.concat "\n"
      [
        "SELECT * FROM t WHERE unique2 >= 49 AND unique2 < 174";
        "125 rows ebc8ab41483df9dc3c9f369d29ad667d";
        "msgs_sent=34;msg_req_bytes=85125;msg_reply_bytes=38957;msgs_remote=34;msgs_internode=0;checkpoint_msgs=38;checkpoint_bytes=85635;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=2817;cache_misses=0;cache_steals=0;cpu_ticks=51321;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=365;records_returned=365;exec_batches=15;exec_rows=365;redrives=8;faults_injected=0;msg_path_retries=3;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=413128.500000";
      ];
    (* seed 10 *)
    String.concat "\n"
      [
        "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t WHERE unique2 >= 42 AND unique2 < 62 GROUP BY onepercent";
        "2 rows 2f002cd1a6010718771176b68e762200";
        "msgs_sent=25;msg_req_bytes=85004;msg_reply_bytes=5275;msgs_remote=25;msgs_internode=0;checkpoint_msgs=34;checkpoint_bytes=85611;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=2566;cache_misses=0;cache_steals=0;cpu_ticks=47122;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=260;records_returned=260;exec_batches=6;exec_rows=260;redrives=0;faults_injected=0;msg_path_retries=2;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=393678.500000";
      ];
    (* seed 2 *)
    String.concat "\n"
      [
        "SELECT tenpercent, AVG(unique1) FROM t WHERE two = 0 OR onepercent = 0 GROUP BY tenpercent HAVING COUNT(*) > 2";
        "12 rows 14750d6e16e3740a0c85b87560b87182";
        "msgs_sent=27;msg_req_bytes=85179;msg_reply_bytes=7021;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85794;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=57056;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=360;exec_batches=8;exec_rows=360;redrives=0;faults_injected=0;msg_path_retries=1;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=396306.500000";
      ];
    (* seed 20 *)
    String.concat "\n"
      [
        "SELECT unique1, stringu1 FROM t ORDER BY unique1 DESC LIMIT 2";
        "2 rows f51b26e76533019fc91e886469e4ad83";
        "msgs_sent=27;msg_req_bytes=85063;msg_reply_bytes=15301;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85678;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=55113;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=480;exec_batches=8;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=396286.500000";
      ];
    (* seed 21 *)
    String.concat "\n"
      [
        "SELECT DISTINCT four, twenty FROM t WHERE four = 0 AND unique1 >= 197 ORDER BY four, twenty";
        "5 rows b66460a9bf0c400744e74f673343a59e";
        "msgs_sent=27;msg_req_bytes=85179;msg_reply_bytes=4919;msgs_remote=27;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85792;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3024;cache_misses=0;cache_steals=0;cpu_ticks=55028;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=250;exec_batches=7;exec_rows=250;redrives=0;faults_injected=0;msg_path_retries=1;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=395053.500000";
      ];
    (* seed 6 *)
    String.concat "\n"
      [
        "SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 = b.unique2 AND a.unique1 < 55";
        "23 rows dcc8c013c414fceff4a2b5585556bd0f";
        "msgs_sent=82;msg_req_bytes=85822;msg_reply_bytes=23495;msgs_remote=82;msgs_internode=0;checkpoint_msgs=36;checkpoint_bytes=85722;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3134;cache_misses=0;cache_steals=0;cpu_ticks=57068;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=480;records_returned=295;exec_batches=8;exec_rows=295;redrives=0;faults_injected=0;msg_path_retries=1;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=512553.000000";
      ];
    (* seed 22 *)
    String.concat "\n"
      [
        "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique3), AVG(two) FROM t WHERE onepercent = 1";
        "1 rows 66f0da45e221436e0299864995eccda6";
        "msgs_sent=144;msg_req_bytes=86531;msg_reply_bytes=39870;msgs_remote=144;msgs_internode=0;checkpoint_msgs=33;checkpoint_bytes=85574;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=3004;cache_misses=0;cache_steals=0;cpu_ticks=58294;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=607;audit_bytes=115778;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=4;tx_committed=4;tx_aborted=0;records_read=360;records_returned=360;exec_batches=5;exec_rows=360;redrives=0;faults_injected=0;msg_path_retries=1;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=673861.500000";
      ];
  ]

let dml =
  [
    (* seed 2 *)
    String.concat "\n"
      [
        "UPDATE t SET unique3 = unique3 + 22, stringu1 = 'touched' WHERE two = 0 OR onepercent = 0: 120";
        "DELETE FROM t WHERE tenpercent = 7: 10";
        "230 rows daddff20c20cf76fdcb257c6873036d1";
        "msgs_sent=65;msg_req_bytes=86003;msg_reply_bytes=16895;msgs_remote=65;msgs_internode=0;checkpoint_msgs=82;checkpoint_bytes=89067;disk_reads=0;disk_writes=11;blocks_read=0;blocks_written=39;bulk_reads=0;bulk_writes=8;prefetch_reads=0;writebehind_writes=0;cache_hits=4592;cache_misses=0;cache_steals=0;cpu_ticks=85266;lock_requests=171;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=751;audit_bytes=129774;audit_flushes=8;audit_flush_full=3;audit_flush_timer=5;group_commit_txs=5;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=950;records_returned=480;exec_batches=12;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=617114.000000";
      ];
    (* seed 4 *)
    String.concat "\n"
      [
        "UPDATE t SET unique3 = unique3 + 22, stringu1 = 'touched' WHERE tenpercent = 8: 10";
        "DELETE FROM t WHERE unique2 >= 121 AND unique2 < 270: 119";
        "121 rows 19072a7a56ea34774943c6ac5e0bdf98";
        "msgs_sent=390;msg_req_bytes=90733;msg_reply_bytes=45129;msgs_remote=390;msgs_internode=0;checkpoint_msgs=405;checkpoint_bytes=95411;disk_reads=0;disk_writes=13;blocks_read=0;blocks_written=47;bulk_reads=0;bulk_writes=8;prefetch_reads=0;writebehind_writes=0;cache_hits=4990;cache_misses=0;cache_steals=0;cpu_ticks=98366;lock_requests=386;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=859;audit_bytes=156936;audit_flushes=9;audit_flush_full=4;audit_flush_timer=5;group_commit_txs=5;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=720;records_returned=480;exec_batches=9;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1650725.500000";
      ];
  ]

let dml_chaos =
  [
    (* seed 2 *)
    String.concat "\n"
      [
        "UPDATE t SET unique3 = unique3 + 22, stringu1 = 'touched' WHERE two = 0 OR onepercent = 0: 120";
        "DELETE FROM t WHERE tenpercent = 7: 10";
        "230 rows daddff20c20cf76fdcb257c6873036d1";
        "msgs_sent=65;msg_req_bytes=86003;msg_reply_bytes=16895;msgs_remote=65;msgs_internode=0;checkpoint_msgs=82;checkpoint_bytes=89067;disk_reads=0;disk_writes=11;blocks_read=0;blocks_written=39;bulk_reads=0;bulk_writes=8;prefetch_reads=0;writebehind_writes=0;cache_hits=4592;cache_misses=0;cache_steals=0;cpu_ticks=85266;lock_requests=171;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=751;audit_bytes=129774;audit_flushes=8;audit_flush_full=3;audit_flush_timer=5;group_commit_txs=5;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=950;records_returned=480;exec_batches=12;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=6;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=623388.500000";
      ];
    (* seed 4 *)
    String.concat "\n"
      [
        "UPDATE t SET unique3 = unique3 + 22, stringu1 = 'touched' WHERE tenpercent = 8: 10";
        "DELETE FROM t WHERE unique2 >= 121 AND unique2 < 270: 119";
        "121 rows 19072a7a56ea34774943c6ac5e0bdf98";
        "msgs_sent=390;msg_req_bytes=90733;msg_reply_bytes=45129;msgs_remote=390;msgs_internode=0;checkpoint_msgs=405;checkpoint_bytes=95411;disk_reads=0;disk_writes=13;blocks_read=0;blocks_written=47;bulk_reads=0;bulk_writes=8;prefetch_reads=0;writebehind_writes=0;cache_hits=4990;cache_misses=0;cache_steals=0;cpu_ticks=98366;lock_requests=386;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=859;audit_bytes=156936;audit_flushes=9;audit_flush_full=4;audit_flush_timer=5;group_commit_txs=5;tx_begun=6;tx_committed=6;tx_aborted=0;records_read=720;records_returned=480;exec_batches=9;exec_rows=480;redrives=0;faults_injected=0;msg_path_retries=124;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=1786457.000000";
      ];
  ]

let wisconsin =
  String.concat "\n"
    [
      "W1: 2 rows 5be8f64324410fbf568fe754617a62f1 now=392020.000000";
      "W2: 24 rows f6b4ea8442c2c931b3576e4859acfe80 now=404421.000000";
      "W3: 2 rows c9d188882ca88b58b87d1c9d7399e694 now=409949.500000";
      "W4: 2 rows 358dd684b0add6f440f96d4d9e3c7daf now=415305.000000";
      "W5: 1 rows e50255d14d97ac3f2a58286055342030 now=420213.500000";
      "W6: 240 rows 441f2ea04d6aad4d75942c92ce74b328 now=426975.000000";
      "W20: 1 rows 2b0239075850078563ec7e976b50e1f8 now=431711.500000";
      "W21: 2 rows f22f9bbdf9e5c1e49d18d13784166a2b now=439197.000000";
      "W22: 2 rows b99802ad4d60bc03644d6d44073ef3d5 now=446682.500000";
      "W30: 0 rows d41d8cd98f00b204e9800998ecf8427e now=455845.000000";
      "msgs_sent=61;msg_req_bytes=86296;msg_reply_bytes=27153;msgs_remote=61;msgs_internode=0;checkpoint_msgs=67;checkpoint_bytes=86956;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=6623;cache_misses=0;cache_steals=0;cpu_ticks=113237;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=616;audit_bytes=115904;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=13;tx_committed=13;tx_aborted=0;records_read=2186;records_returned=993;exec_batches=24;exec_rows=993;redrives=2;faults_injected=0;msg_path_retries=0;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=455845.000000";
    ]

let wisconsin_chaos =
  String.concat "\n"
    [
      "W1: 2 rows 5be8f64324410fbf568fe754617a62f1 now=392020.000000";
      "W2: 24 rows f6b4ea8442c2c931b3576e4859acfe80 now=406774.000000";
      "W3: 2 rows c9d188882ca88b58b87d1c9d7399e694 now=412686.500000";
      "W4: 2 rows 358dd684b0add6f440f96d4d9e3c7daf now=418602.000000";
      "W5: 1 rows e50255d14d97ac3f2a58286055342030 now=424014.500000";
      "W6: 240 rows 441f2ea04d6aad4d75942c92ce74b328 now=431248.000000";
      "W20: 1 rows 2b0239075850078563ec7e976b50e1f8 now=437169.000000";
      "W21: 2 rows f22f9bbdf9e5c1e49d18d13784166a2b now=445126.500000";
      "W22: 2 rows b99802ad4d60bc03644d6d44073ef3d5 now=453084.000000";
      "W30: 0 rows d41d8cd98f00b204e9800998ecf8427e now=462670.500000";
      "msgs_sent=61;msg_req_bytes=86296;msg_reply_bytes=27153;msgs_remote=61;msgs_internode=0;checkpoint_msgs=67;checkpoint_bytes=86956;disk_reads=0;disk_writes=9;blocks_read=0;blocks_written=34;bulk_reads=0;bulk_writes=6;prefetch_reads=0;writebehind_writes=0;cache_hits=6623;cache_misses=0;cache_steals=0;cpu_ticks=113237;lock_requests=17;lock_conflicts=0;lock_waits=0;deadlocks=0;audit_records=616;audit_bytes=115904;audit_flushes=6;audit_flush_full=3;audit_flush_timer=3;group_commit_txs=3;tx_begun=13;tx_committed=13;tx_aborted=0;records_read=2186;records_returned=993;exec_batches=24;exec_rows=993;redrives=2;faults_injected=0;msg_path_retries=4;disk_transient_errors=0;takeovers=0;takeover_denials=0;now=462670.500000";
    ]

(* The experiment harness: regenerates every quantitative claim and figure
   of the paper (experiments E1-E13 of DESIGN.md), then runs Bechamel
   micro-benchmarks over the core code paths.

   Run with: dune exec bench/main.exe
   Results are discussed against the paper in EXPERIMENTS.md. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Row = Nsql_row.Row
module Rowvec = Nsql_row.Rowvec
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Tmf = Nsql_tmf.Tmf
module Trail = Nsql_audit.Trail
module Enscribe = Nsql_enscribe.Enscribe
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit
module Trace = Nsql_trace.Trace
module Tracer = Nsql_sim.Tracer
module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist
module Monitor = Nsql_monitor.Monitor

let get_ok = Errors.get_ok
let printf = Format.printf
let fpr = Printf.sprintf

let heading id title paper =
  printf "@.==== %s: %s ====@." id title;
  printf "paper: %s@.@." paper

(* --- machine-readable results ------------------------------------- *)

(* every experiment emits at least one headline datum; all values are
   simulation statistics, so a given seed reproduces the file byte for
   byte — which is what the CI smoke job diffs against its checked-in
   expectation *)
let json_records : (string * string * float) list ref = ref []

let emit id metric value = json_records := (id, metric, value) :: !json_records

let write_json path =
  let recs = List.rev !json_records in
  let n = List.length recs in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (id, metric, v) ->
      Printf.fprintf oc "  {\"id\": \"%s\", \"metric\": \"%s\", \"value\": %s}%s\n"
        id metric
        (Printf.sprintf "%.6g" v)
        (if i = n - 1 then "" else ","))
    recs;
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* E1: RSBB vs record-at-a-time on an era-typical file                  *)
(* ------------------------------------------------------------------ *)

let e1_rsbb_vs_record () =
  heading "E1" "sequential read: record-at-a-time vs SBB"
    "\"SBB reduces FS-DP message traffic by the file's physical blocking \
     factor ... RSBB gives a factor of three over the record-at-a-time \
     interface\"";
  (* a ~1.2 KB record gives the paper's blocking factor of three in 4 KB
     blocks *)
  let rows = 300 in
  let record = String.make 1200 'r' in
  let scan sbb =
    let node = N.create_node ~volumes:1 () in
    let file =
      get_ok ~ctx:"create"
        (Fs.create_enscribe_file (N.fs node) ~fname:"F"
           ~kind:Dp_msg.K_key_sequenced
           ~partitions:[ Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) } ])
    in
    let h = Enscribe.open_file (N.fs node) file ~sbb in
    get_ok ~ctx:"load"
      (Tmf.run (N.tmf node) (fun tx ->
           let rec go i =
             if i >= rows then Ok ()
             else
               match Enscribe.write h ~tx ~key:(Keycode.of_int i) ~record with
               | Ok () -> go (i + 1)
               | Error _ as e -> e
           in
           go 0));
    let count = ref 0 in
    let (), delta =
      N.measure node (fun () ->
          get_ok ~ctx:"scan"
            (Tmf.run (N.tmf node) (fun tx ->
                 let open Errors in
                 let* () =
                   if sbb then Enscribe.lockfile h ~tx ~lock:Dp_msg.L_shared
                   else Ok ()
                 in
                 Enscribe.keyposition h ~key:"";
                 let rec drain () =
                   let* entry = Enscribe.readnext h ~tx ~lock:Dp_msg.L_none in
                   match entry with
                   | None -> Ok ()
                   | Some _ ->
                       incr count;
                       drain ()
                 in
                 drain ())))
    in
    assert (!count = rows);
    delta
  in
  let d_rec = scan false in
  let d_sbb = scan true in
  printf "%-22s %10s %12s %14s@." "interface" "messages" "reply bytes"
    "msgs/record";
  let line name (d : Stats.t) =
    printf "%-22s %10d %12d %14.2f@." name d.Stats.msgs_sent
      d.Stats.msg_reply_bytes
      (float_of_int d.Stats.msgs_sent /. float_of_int rows)
  in
  line "record-at-a-time" d_rec;
  line "SBB (RSBB)" d_sbb;
  let factor =
    float_of_int d_rec.Stats.msgs_sent /. float_of_int d_sbb.Stats.msgs_sent
  in
  printf "RSBB message factor: %.1fx (paper: ~3x at blocking factor 3)@." factor;
  emit "e1" "rsbb_message_factor" factor

(* ------------------------------------------------------------------ *)
(* E2: VSBB on the Wisconsin queries                                    *)
(* ------------------------------------------------------------------ *)

let e2_vsbb_wisconsin () =
  heading "E2" "Wisconsin selections: record vs RSBB vs VSBB"
    "\"RSBB gives a factor of three over the record-at-a-time interface. \
     VSBB gives NonStop SQL an additional factor of three over RSBB on \
     many of the Wisconsin benchmark queries\"";
  let rows = 2000 in
  let node = N.create_node ~volumes:1 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"tenktup1" ~rows ());
  let s = N.session node in
  printf "%-4s %-44s %8s %8s %8s %11s %11s@." "id" "query" "rec" "RSBB" "VSBB"
    "rec/RSBB" "RSBB/VSBB";
  let vsbb_total = ref 0 in
  List.iter
    (fun q ->
      let cost mode =
        N.set_access_mode s mode;
        let _, delta =
          N.measure node (fun () -> N.exec_exn s q.Wisconsin.q_sql)
        in
        delta.Stats.msgs_sent
      in
      let m_rec = cost (Some Fs.A_record) in
      let m_rsbb = cost (Some Fs.A_rsbb) in
      let m_vsbb = cost (Some Fs.A_vsbb) in
      vsbb_total := !vsbb_total + m_vsbb;
      printf "%-4s %-44s %8d %8d %8d %10.1fx %10.1fx@." q.Wisconsin.q_id
        q.Wisconsin.q_desc m_rec m_rsbb m_vsbb
        (float_of_int m_rec /. float_of_int m_rsbb)
        (float_of_int m_rsbb /. float_of_int m_vsbb))
    (Wisconsin.selection_queries ~table:"tenktup1" ~rows);
  N.set_access_mode s None;
  emit "e2" "vsbb_messages_total" (float_of_int !vsbb_total)

(* ------------------------------------------------------------------ *)
(* E3: update at the data source                                        *)
(* ------------------------------------------------------------------ *)

let e3_update_subset () =
  heading "E3" "UPDATE via expression vs read-then-update"
    "\"delegating an update via update expression to the disk process \
     eliminates the extra message which would otherwise be required for \
     the requester to read the record before updating it\"";
  let rows = 500 in
  let mk () =
    let node = N.create_node ~volumes:1 () in
    let s = N.session node in
    ignore
      (N.exec_exn s
         "CREATE TABLE account (acctno INT PRIMARY KEY, balance FLOAT NOT \
          NULL)");
    get_ok ~ctx:"load"
      (Tmf.run (N.tmf node) (fun tx ->
           let tbl =
             get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "account")
           in
           let buf =
             Fs.open_insert_buffer (N.fs node) tbl.N.Catalog.t_file ~tx
               ~capacity:100
           in
           let rec go i =
             if i >= rows then Fs.flush_insert_buffer (N.fs node) buf
             else
               match
                 Fs.buffered_insert (N.fs node) buf
                   [| Row.Vint i; Row.Vfloat (float_of_int i) |]
               with
               | Ok () -> go (i + 1)
               | Error _ as e -> e
           in
           go 0));
    (node, s)
  in
  let node1, s1 = mk () in
  let _, d_sql =
    N.measure node1 (fun () ->
        match N.exec_exn s1 "UPDATE account SET balance = balance * 1.07" with
        | N.Affected n -> assert (n = rows)
        | _ -> assert false)
  in
  let node2, _s2 = mk () in
  let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node2) "account") in
  let _, d_rmw =
    N.measure node2 (fun () ->
        get_ok ~ctx:"rmw"
          (Tmf.run (N.tmf node2) (fun tx ->
               let rec go i =
                 if i >= rows then Ok ()
                 else
                   let key =
                     get_ok ~ctx:"key"
                       (Row.key_of_values tbl.N.Catalog.t_schema [ Row.Vint i ])
                   in
                   match
                     Fs.update_row_via_key (N.fs node2) tbl.N.Catalog.t_file
                       ~tx ~key
                       [
                         {
                           Expr.target = 1;
                           source = Expr.(Binop (Mul, Field 1, float_ 1.07));
                         };
                       ]
                   with
                   | Ok () -> go (i + 1)
                   | Error _ as e -> e
               in
               go 0)))
  in
  printf "%-28s %10s %12s %14s@." "path" "messages" "req bytes" "msgs/record";
  let line name (d : Stats.t) =
    printf "%-28s %10d %12d %14.3f@." name d.Stats.msgs_sent
      d.Stats.msg_req_bytes
      (float_of_int d.Stats.msgs_sent /. float_of_int rows)
  in
  line "read + rewrite per record" d_rmw;
  line "UPDATE^SUBSET (delegated)" d_sql;
  let factor =
    float_of_int d_rmw.Stats.msgs_sent /. float_of_int d_sql.Stats.msgs_sent
  in
  printf "message factor: %.0fx@." factor;
  emit "e3" "update_message_factor" factor

(* ------------------------------------------------------------------ *)
(* E4: field-compressed audit                                           *)
(* ------------------------------------------------------------------ *)

let e4_audit_compression () =
  heading "E4" "field-compressed vs full-image audit records"
    "\"The resultant field-compressed audit records are generally reduced \
     in size ... The audit buffer fills up less frequently ... each \
     bulk-write of the audit trail commits a larger group of \
     transactions\"";
  let rows = 400 in
  let mk () =
    let config = Config.v ~audit_buffer_bytes:8192 () in
    let node = N.create_node ~config ~volumes:1 () in
    let s = N.session node in
    ignore
      (N.exec_exn s
         "CREATE TABLE account (acctno INT PRIMARY KEY, balance FLOAT NOT \
          NULL, filler CHAR(200) NOT NULL)");
    for i = 0 to rows - 1 do
      ignore (N.exec_exn s (fpr "INSERT INTO account VALUES (%d, 100.0, 'x')" i))
    done;
    (node, s)
  in
  (* all updates inside one transaction, so the only audit flushes are
     buffer-full flushes — the frequency the paper says compression cuts *)
  let run_txs node s ~compressed =
    let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "account") in
    N.measure node (fun () ->
        if compressed then begin
          ignore (N.exec_exn s "BEGIN WORK");
          for i = 0 to rows - 1 do
            match
              N.exec s
                (fpr "UPDATE account SET balance = balance + 1.0 WHERE acctno = %d" i)
            with
            | Ok _ -> ()
            | Error e -> failwith (Errors.to_string e)
          done;
          ignore (N.exec_exn s "COMMIT WORK")
        end
        else
          get_ok ~ctx:"rmw"
            (Tmf.run (N.tmf node) (fun tx ->
                 let rec go i =
                   if i >= rows then Ok ()
                   else
                     let key =
                       get_ok ~ctx:"key"
                         (Row.key_of_values tbl.N.Catalog.t_schema [ Row.Vint i ])
                     in
                     match
                       Fs.update_row_via_key (N.fs node) tbl.N.Catalog.t_file
                         ~tx ~key
                         [
                           {
                             Expr.target = 1;
                             source = Expr.(Binop (Add, Field 1, float_ 1.));
                           };
                         ]
                     with
                     | Ok () -> go (i + 1)
                     | Error _ as e -> e
                 in
                 go 0)))
  in
  let node1, s1 = mk () in
  let (), d_sql = run_txs node1 s1 ~compressed:true in
  let node2, s2 = mk () in
  let (), d_full = run_txs node2 s2 ~compressed:false in
  printf "%-26s %12s %12s %18s@." "audit format" "audit bytes"
    "bytes/update" "buffer-full flushes";
  let line name (d : Stats.t) =
    printf "%-26s %12d %12.0f %18d@." name d.Stats.audit_bytes
      (float_of_int d.Stats.audit_bytes /. float_of_int rows)
      d.Stats.audit_flush_full
  in
  line "full-record images" d_full;
  line "field-compressed (SQL)" d_sql;
  let ratio =
    float_of_int d_full.Stats.audit_bytes
    /. float_of_int d_sql.Stats.audit_bytes
  in
  printf
    "audit size ratio: %.1fx smaller; buffer-full flush ratio: %.1fx fewer@."
    ratio
    (float_of_int d_full.Stats.audit_flush_full
    /. float_of_int (max 1 d_sql.Stats.audit_flush_full));
  emit "e4" "audit_size_ratio" ratio

(* ------------------------------------------------------------------ *)
(* E5: bulk I/O and pre-fetch                                           *)
(* ------------------------------------------------------------------ *)

let e5_bulk_prefetch () =
  heading "E5" "cache optimizations for a key-range scan"
    "\"it reads into cache buffers sequential strings of physical blocks \
     using bulk I/O's ... the Disk Process attempts to pre-fetch data ... \
     allows cpu-bound processing ... in parallel with disk I/O's\"";
  let rows = 2000 in
  let run ~prefetch ~bulk_bytes =
    let config =
      Config.v ~dp_prefetch:prefetch ~bulk_io_max_bytes:bulk_bytes ()
    in
    let node = N.create_node ~config ~volumes:1 () in
    get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
    (* cool the cache: GUARDIAN steals every frame (cleaning dirty ones) *)
    ignore (N.vm_pressure node 0 ~frames:max_int);
    let s = N.session node in
    let t0 = Sim.now (N.sim node) in
    let _, delta =
      N.measure node (fun () ->
          match N.exec_exn s "SELECT COUNT(*) FROM t" with
          | N.Rows { rows = [ [| Row.Vint n |] ]; _ } -> assert (n = rows)
          | _ -> assert false)
    in
    (delta, Sim.now (N.sim node) -. t0)
  in
  let d_plain, t_plain = run ~prefetch:false ~bulk_bytes:4096 in
  let d_bulk, t_bulk = run ~prefetch:true ~bulk_bytes:4096 in
  let d_pre, t_pre = run ~prefetch:true ~bulk_bytes:(28 * 1024) in
  printf "%-34s %8s %8s %10s %12s@." "configuration" "I/Os" "blocks"
    "blocks/IO" "elapsed(ms)";
  let line name (d : Stats.t) t =
    printf "%-34s %8d %8d %10.2f %12.1f@." name d.Stats.disk_reads
      d.Stats.blocks_read
      (float_of_int d.Stats.blocks_read
      /. float_of_int (max 1 d.Stats.disk_reads))
      (t /. 1000.)
  in
  line "per-block reads (no pre-fetch)" d_plain t_plain;
  line "pre-fetch, 4 KB I/O limit" d_bulk t_bulk;
  line "pre-fetch, 28 KB bulk I/O" d_pre t_pre;
  let io_reduction =
    float_of_int d_plain.Stats.disk_reads
    /. float_of_int (max 1 d_pre.Stats.disk_reads)
  in
  printf "I/O count reduction: %.1fx; elapsed reduction: %.1fx@." io_reduction
    (t_plain /. t_pre);
  emit "e5" "io_reduction" io_reduction

(* ------------------------------------------------------------------ *)
(* E6: asynchronous write-behind                                        *)
(* ------------------------------------------------------------------ *)

let e6_write_behind () =
  heading "E6" "write-behind of dirty sequential block strings"
    "\"This mechanism uses idle time between Disk Process requests to \
     write out strings of sequential blocks updated under a subset ... \
     without violating write-ahead-log protocol\"";
  let rows = 1500 in
  let prepare () =
    let node = N.create_node ~volumes:1 () in
    get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
    let s = N.session node in
    (match N.exec_exn s "UPDATE t SET two = 1 - two" with
    | N.Affected n -> assert (n = rows)
    | _ -> assert false);
    node
  in
  (* WAL check: before commit makes audit durable, write-behind refuses *)
  let node = N.create_node ~volumes:1 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows:200 ());
  let s = N.session node in
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE t SET two = 1 - two");
  let premature = Dp.idle (N.dps node).(0) in
  ignore (N.exec_exn s "COMMIT WORK");
  printf "blocks written behind before commit (WAL must forbid): %d@."
    premature;
  let node_wb = prepare () in
  let dirty = Cache.dirty_count (Dp.cache (N.dps node_wb).(0)) in
  let _, d_wb =
    N.measure node_wb (fun () -> ignore (Dp.idle (N.dps node_wb).(0)))
  in
  let node_sync = prepare () in
  let _, d_sync =
    N.measure node_sync (fun () ->
        Cache.flush_all (Dp.cache (N.dps node_sync).(0)))
  in
  printf "@.%d dirty blocks to clean after the subset update:@." dirty;
  printf "%-30s %10s %12s@." "mechanism" "write I/Os" "bulk writes";
  printf "%-30s %10d %12d@." "synchronous per-block" d_sync.Stats.disk_writes
    d_sync.Stats.bulk_writes;
  printf "%-30s %10d %12d@." "write-behind (bulk strings)"
    d_wb.Stats.disk_writes d_wb.Stats.bulk_writes;
  let reduction =
    float_of_int d_sync.Stats.disk_writes
    /. float_of_int (max 1 d_wb.Stats.disk_writes)
  in
  printf "write I/O reduction: %.1fx@." reduction;
  emit "e6" "write_io_reduction" reduction

(* ------------------------------------------------------------------ *)
(* E7: group commit timers                                              *)
(* ------------------------------------------------------------------ *)

let e7_group_commit () =
  heading "E7" "group-commit timer behaviour under load"
    "\"timers have been introduced to force out pending commits from a \
     partially full buffer. Response times are minimized by dynamically \
     adjusting the timers based on such system statistics as transaction \
     rate\" [Helland]";
  let txs = 400 in
  (* transactions arrive on the simulated clock and their COMMIT records
     wait for the group-commit flush; the driver advances time in small
     steps so concurrent commits can share one flush *)
  let run ~interarrival_us ~timer =
    let sim = Sim.create () in
    let volume = Disk.create sim ~name:"$AUDIT" in
    let trail = Trail.create sim volume in
    (match timer with
    | `Pinned us -> Trail.set_timer_us trail us
    | `Adaptive -> ());
    let update_image = String.make 60 'u' in
    let completions = ref [] in
    let before = Sim.snapshot sim in
    for tx = 1 to txs do
      Sim.charge sim interarrival_us;
      ignore (Trail.append trail ~tx Nsql_audit.Audit_record.Begin_tx);
      ignore
        (Trail.append trail ~tx
           (Nsql_audit.Audit_record.Insert
              { file = 0; key = "k"; image = update_image }));
      let lsn = Trail.append trail ~tx Nsql_audit.Audit_record.Commit_tx in
      Trail.request_commit trail ~tx lsn;
      let requested_at = Sim.now sim in
      completions := (lsn, requested_at, ref None) :: !completions;
      (* note completions that became durable while time passed *)
      List.iter
        (fun (l, _, done_at) ->
          if !done_at = None && Int64.compare l (Trail.durable_lsn trail) <= 0
          then done_at := Some (Sim.now sim))
        !completions
    done;
    (* drain the tail *)
    let rec settle guard =
      if guard > 10_000 then failwith "E7: settle did not converge";
      if
        List.exists (fun (_, _, done_at) -> !done_at = None) !completions
      then begin
        Sim.charge sim 500.;
        List.iter
          (fun (l, _, done_at) ->
            if
              !done_at = None
              && Int64.compare l (Trail.durable_lsn trail) <= 0
            then done_at := Some (Sim.now sim))
          !completions;
        settle (guard + 1)
      end
    in
    settle 0;
    let after = Sim.snapshot sim in
    let d = Stats.diff ~before ~after in
    let total_response =
      List.fold_left
        (fun acc (_, t0, done_at) ->
          match !done_at with Some t1 -> acc +. (t1 -. t0) | None -> acc)
        0. !completions
    in
    (d, total_response /. float_of_int txs)
  in
  printf "%-22s %-12s %8s %12s %14s@." "timer" "tx rate" "flushes" "txs/flush"
    "response(ms)";
  let flushes_total = ref 0 in
  List.iter
    (fun (rate_name, interarrival_us) ->
      List.iter
        (fun (timer_name, timer) ->
          let d, resp = run ~interarrival_us ~timer in
          flushes_total := !flushes_total + d.Stats.audit_flushes;
          printf "%-22s %-12s %8d %12.2f %14.2f@." timer_name rate_name
            d.Stats.audit_flushes
            (float_of_int d.Stats.group_commit_txs
            /. float_of_int (max 1 d.Stats.audit_flushes))
            (resp /. 1000.))
        [
          ("timer 1 ms", `Pinned 1_000.);
          ("timer 10 ms", `Pinned 10_000.);
          ("timer 50 ms", `Pinned 50_000.);
          ("adaptive (Helland)", `Adaptive);
        ])
    [ ("high (2k/s)", 500.); ("low (100/s)", 10_000.) ];
  emit "e7" "audit_flushes_total" (float_of_int !flushes_total)

(* ------------------------------------------------------------------ *)
(* E8: DebitCredit, SQL vs ENSCRIBE                                     *)
(* ------------------------------------------------------------------ *)

let e8_debitcredit () =
  heading "E8" "DebitCredit: NonStop SQL vs ENSCRIBE"
    "\"The result is an SQL system which matches the performance of the \
     pre-existing DBMS\" (abstract)";
  let txs = 200 in
  let accounts = 1000 and tellers = 100 and branches = 10 in
  let aid i = (i * 131) mod accounts in
  let delta_of i = float_of_int ((i mod 21) - 10) in
  let node_sql = N.create_node ~volumes:2 () in
  let db_sql =
    get_ok ~ctx:"setup"
      (Debitcredit.setup_sql node_sql ~accounts ~tellers ~branches)
  in
  let s = N.session node_sql in
  let (), d_sql =
    N.measure node_sql (fun () ->
        for i = 0 to txs - 1 do
          get_ok ~ctx:"tx"
            (Debitcredit.run_sql_tx db_sql s ~aid:(aid i) ~delta:(delta_of i))
        done)
  in
  let node_ens = N.create_node ~volumes:2 () in
  let db_ens =
    get_ok ~ctx:"setup"
      (Debitcredit.setup_enscribe node_ens ~accounts ~tellers ~branches)
  in
  let (), d_ens =
    N.measure node_ens (fun () ->
        for i = 0 to txs - 1 do
          get_ok ~ctx:"tx"
            (Debitcredit.run_enscribe_tx node_ens db_ens ~aid:(aid i)
               ~delta:(delta_of i))
        done)
  in
  printf "per transaction (%d transactions):@." txs;
  printf "%-14s %10s %12s %10s %12s %12s@." "interface" "messages" "msg bytes"
    "disk I/Os" "CPU ticks" "audit bytes";
  let line name (d : Stats.t) =
    let f v = float_of_int v /. float_of_int txs in
    printf "%-14s %10.1f %12.0f %10.2f %12.0f %12.0f@." name
      (f d.Stats.msgs_sent)
      (f (d.Stats.msg_req_bytes + d.Stats.msg_reply_bytes))
      (f (d.Stats.disk_reads + d.Stats.disk_writes))
      (f d.Stats.cpu_ticks) (f d.Stats.audit_bytes)
  in
  line "ENSCRIBE" d_ens;
  line "NonStop SQL" d_sql;
  let msg_ratio =
    float_of_int d_sql.Stats.msgs_sent /. float_of_int d_ens.Stats.msgs_sent
  in
  printf
    "SQL/ENSCRIBE: %.2fx messages, %.2fx CPU — comparable or better, as \
     claimed@."
    msg_ratio
    (float_of_int d_sql.Stats.cpu_ticks /. float_of_int d_ens.Stats.cpu_ticks);
  emit "e8" "sql_enscribe_msg_ratio" msg_ratio

(* ------------------------------------------------------------------ *)
(* E9: Figure 2 message trace                                           *)
(* ------------------------------------------------------------------ *)

let e9_figure2_trace () =
  heading "E9" "Figure 2: access via alternate key"
    "\"The File System in doing an update via alternate key first sends a \
     request to the disk server managing the index to find the primary \
     key. It then sends the update expression to the server managing the \
     primary key partition.\"";
  let node = N.create_node ~volumes:2 () in
  let schema =
    Row.schema
      [|
        Row.column "acctno" Row.T_int;
        Row.column "balance" Row.T_float;
        Row.column "owner" (Row.T_varchar 24);
      |]
      ~key:[ "acctno" ]
  in
  let file =
    get_ok ~ctx:"create"
      (Fs.create_file (N.fs node) ~fname:"account" ~schema
         ~partitions:[ Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) } ]
         ~indexes:
           [ Fs.{ is_name = "by_owner"; is_cols = [ 2 ]; is_dp = (N.dps node).(1) } ]
         ())
  in
  get_ok ~ctx:"load"
    (Tmf.run (N.tmf node) (fun tx ->
         let rec go i =
           if i >= 100 then Ok ()
           else
             match
               Fs.insert_row (N.fs node) file ~tx
                 [| Row.Vint i; Row.Vfloat 100.; Row.Vstr (fpr "cust-%03d" i) |]
             with
             | Ok () -> go (i + 1)
             | Error _ as e -> e
         in
         go 0));
  let sim = N.sim node in
  Trace.clear sim;
  Trace.set_enabled sim true;
  let row =
    get_ok ~ctx:"fig2"
      (Tmf.run (N.tmf node) (fun tx ->
           Fs.read_row_via_index (N.fs node) file ~tx ~index:"by_owner"
             ~index_key:[ Row.Vstr "cust-042" ]))
  in
  Trace.set_enabled sim false;
  let trace = Trace.msg_spans (Trace.take sim) in
  (match row with
  | Some r -> printf "row found: %a@." Row.pp_row r
  | None -> printf "row not found!@.");
  printf "message flow:@.";
  List.iter (fun sp -> printf "  %a@." Trace.pp_msg_span sp) trace;
  printf "FS-DP messages for the alternate-key read: %d (paper: 2)@."
    (List.length trace);
  emit "e9" "fs_dp_messages" (float_of_int (List.length trace))

(* ------------------------------------------------------------------ *)
(* E10: continuation re-drive limits                                    *)
(* ------------------------------------------------------------------ *)

let e10_redrive () =
  heading "E10" "continuation re-drive protocol"
    "\"To prevent a single set-oriented FS-DP request from monopolizing a \
     Disk Process over a long period of time, limits on the ... time \
     spent per request message are set. If exceeded, a continuation \
     re-drive protocol is triggered.\"";
  let rows = 2000 in
  printf "%-24s %10s %12s %18s@." "per-request limit" "messages" "re-drives"
    "max records/msg";
  let msgs_total = ref 0 in
  List.iter
    (fun limit ->
      let config = Config.v ~dp_records_per_request:limit () in
      let node = N.create_node ~config ~volumes:1 () in
      get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
      let s = N.session node in
      (* a selective predicate on a non-key column: the DP must examine
         every record but returns almost none, so only the record limit
         triggers re-drives *)
      let _, delta =
        N.measure node (fun () ->
            match N.exec_exn s "SELECT unique2 FROM t WHERE unique1 = 1" with
            | N.Rows { rows = r; _ } -> assert (List.length r = 1)
            | _ -> assert false)
      in
      msgs_total := !msgs_total + delta.Stats.msgs_sent;
      printf "%-24d %10d %12d %18d@." limit delta.Stats.msgs_sent
        delta.Stats.redrives (min limit rows))
    [ 64; 256; 1024; 4096 ];
  emit "e10" "messages_total" (float_of_int !msgs_total)

(* ------------------------------------------------------------------ *)
(* E11: blocked sequential inserts (future-work extension)              *)
(* ------------------------------------------------------------------ *)

let e11_blocked_insert () =
  heading "E11" "blocked sequential insert interface"
    "\"If a blocked interface for inserts were introduced, the message \
     traffic between the File System and the Disk Process could be \
     reduced by the blocking factor\" (future enhancements)";
  let rows = 1000 in
  let run capacity =
    let node = N.create_node ~volumes:1 () in
    let s = N.session node in
    ignore
      (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v CHAR(60) NOT NULL)");
    let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "t") in
    let _, delta =
      N.measure node (fun () ->
          get_ok ~ctx:"ins"
            (Tmf.run (N.tmf node) (fun tx ->
                 match capacity with
                 | None ->
                     let rec go i =
                       if i >= rows then Ok ()
                       else
                         match
                           Fs.insert_row (N.fs node) tbl.N.Catalog.t_file ~tx
                             [| Row.Vint i; Row.Vstr "v" |]
                         with
                         | Ok () -> go (i + 1)
                         | Error _ as e -> e
                     in
                     go 0
                 | Some cap ->
                     let buf =
                       Fs.open_insert_buffer (N.fs node) tbl.N.Catalog.t_file
                         ~tx ~capacity:cap
                     in
                     let rec go i =
                       if i >= rows then Fs.flush_insert_buffer (N.fs node) buf
                       else
                         match
                           Fs.buffered_insert (N.fs node) buf
                             [| Row.Vint i; Row.Vstr "v" |]
                         with
                         | Ok () -> go (i + 1)
                         | Error _ as e -> e
                     in
                     go 0)))
    in
    delta.Stats.msgs_sent
  in
  let base = run None in
  printf "%-26s %10s %14s@." "interface" "messages" "msgs/insert";
  printf "%-26s %10d %14.3f@." "INSERT^ROW per record" base
    (float_of_int base /. float_of_int rows);
  List.iter
    (fun cap ->
      let m = run (Some cap) in
      printf "%-26s %10d %14.3f@." (fpr "INSERT^BLOCK of %d" cap) m
        (float_of_int m /. float_of_int rows))
    [ 10; 30; 100 ];
  emit "e11" "msgs_per_insert_unblocked" (float_of_int base /. float_of_int rows)

(* ------------------------------------------------------------------ *)
(* E12: virtual-block group locking                                     *)
(* ------------------------------------------------------------------ *)

let e12_vblock_locking () =
  heading "E12" "virtual-block group locking"
    "\"Record locking has been extended to a form of virtual block \
     locking in which the records of the virtual block are locked as a \
     group.\"";
  let rows = 1000 in
  let run access =
    let node = N.create_node ~volumes:1 () in
    get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
    let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "t") in
    let _, delta =
      N.measure node (fun () ->
          get_ok ~ctx:"scan"
            (Tmf.run (N.tmf node) (fun tx ->
                 let sc =
                   Fs.open_scan (N.fs node) tbl.N.Catalog.t_file ~tx ~access
                     ~range:Expr.full_range ~proj:[| 1 |] ~lock:Dp_msg.L_shared
                     ()
                 in
                 let rec drain k =
                   match Fs.scan_next (N.fs node) sc with
                   | Ok (Some _) -> drain (k + 1)
                   | Ok None ->
                       Fs.close_scan (N.fs node) sc;
                       assert (k = rows);
                       Ok ()
                   | Error _ as e -> e
                 in
                 drain 0)))
    in
    delta
  in
  let d_rec = run Fs.A_record in
  let d_vsbb = run Fs.A_vsbb in
  printf "%-24s %14s %12s@." "locking regime" "lock requests" "locks/row";
  let line name (d : Stats.t) =
    printf "%-24s %14d %12.3f@." name d.Stats.lock_requests
      (float_of_int d.Stats.lock_requests /. float_of_int rows)
  in
  line "record locks" d_rec;
  line "virtual-block group" d_vsbb;
  let reduction =
    float_of_int d_rec.Stats.lock_requests
    /. float_of_int (max 1 d_vsbb.Stats.lock_requests)
  in
  printf "lock-acquisition reduction: %.0fx@." reduction;
  emit "e12" "lock_reduction" reduction

(* ------------------------------------------------------------------ *)
(* E13: distribution transparency over partitions                       *)
(* ------------------------------------------------------------------ *)

let e13_partitions () =
  heading "E13" "horizontally partitioned tables (Figure 1 architecture)"
    "\"Base files ... may be horizontally partitioned, based on record \
     key ranges, into multiple fragments residing on a distributed set of \
     disk volumes\"";
  let rows = 2000 in
  printf "%-12s %10s %10s %12s %16s@." "partitions" "messages" "remote"
    "result rows" "rows/partition";
  let msgs_total = ref 0 in
  List.iter
    (fun parts ->
      let node = N.create_node ~volumes:4 () in
      get_ok ~ctx:"wisc"
        (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
      let s = N.session node in
      let result, delta =
        N.measure node (fun () ->
            match
              N.exec_exn s
                "SELECT COUNT(*) FROM t WHERE unique1 >= 500 AND unique1 < 700"
            with
            | N.Rows { rows = [ [| Row.Vint n |] ]; _ } -> n
            | _ -> assert false)
      in
      let per_part =
        String.concat "/"
          (List.init parts (fun i ->
               string_of_int
                 (Dp.record_count (N.dps node).(i)
                    ~file:
                      (Option.get (Dp.file_id (N.dps node).(i) (fpr "t#p%d" i))))))
      in
      msgs_total := !msgs_total + delta.Stats.msgs_sent;
      printf "%-12d %10d %10d %12d %16s@." parts delta.Stats.msgs_sent
        delta.Stats.msgs_remote result per_part)
    [ 1; 2; 4 ];
  emit "e13" "messages_total" (float_of_int !msgs_total)


(* ------------------------------------------------------------------ *)
(* E14: buffered update/delete where current (future-work extension)   *)
(* ------------------------------------------------------------------ *)

let e14_apply_block () =
  heading "E14" "buffered update/delete where current"
    "\"By allowing the updates (deletes) to occur in a buffer local to the \
     File System, and then sending the buffer full of updates (deletes) to \
     the Disk Process in one message, substantial message traffic savings \
     ... could be realized\" (future enhancements)";
  let rows = 1000 in
  (* the cursor owner updates every third record it visits — a selection
     the Disk Process cannot evaluate (it is the application's choice), so
     set-oriented delegation does not apply *)
  let run capacity =
    let node = N.create_node ~volumes:1 () in
    let s = N.session node in
    ignore
      (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v FLOAT NOT NULL)");
    let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "t") in
    get_ok ~ctx:"load"
      (Tmf.run (N.tmf node) (fun tx ->
           let buf =
             Fs.open_insert_buffer (N.fs node) tbl.N.Catalog.t_file ~tx
               ~capacity:100
           in
           let rec go i =
             if i >= rows then Fs.flush_insert_buffer (N.fs node) buf
             else
               match
                 Fs.buffered_insert (N.fs node) buf [| Row.Vint i; Row.Vfloat 1. |]
               with
               | Ok () -> go (i + 1)
               | Error _ as e -> e
           in
           go 0));
    let bump = [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ 1.)) } ] in
    let updated = ref 0 in
    let _, delta =
      N.measure node (fun () ->
          get_ok ~ctx:"cursor"
            (Tmf.run (N.tmf node) (fun tx ->
                 let sc =
                   Fs.open_scan (N.fs node) tbl.N.Catalog.t_file ~tx
                     ~access:Fs.A_vsbb ~range:Expr.full_range ~proj:[| 0 |]
                     ~lock:Dp_msg.L_exclusive ()
                 in
                 let apply_buf =
                   match capacity with
                   | Some cap ->
                       Some (Fs.open_apply_buffer (N.fs node) tbl.N.Catalog.t_file ~tx ~capacity:cap)
                   | None -> None
                 in
                 (* the cursor pops row by row, so each per-row message
                    goes out right after that row's pop charge *)
                 let rec walk () =
                   match Fs.scan_next (N.fs node) sc with
                   | Ok None -> (
                       match apply_buf with
                       | Some b -> Fs.flush_apply_buffer (N.fs node) b
                       | None -> Ok ())
                   | Ok (Some [| Row.Vint k |]) when k mod 3 = 0 -> (
                       incr updated;
                       let key =
                         get_ok ~ctx:"key"
                           (Row.key_of_values tbl.N.Catalog.t_schema
                              [ Row.Vint k ])
                       in
                       let applied =
                         match apply_buf with
                         | Some b -> Fs.buffered_update (N.fs node) b ~key bump
                         | None ->
                             Fs.update_row_via_key (N.fs node)
                               tbl.N.Catalog.t_file ~tx ~key bump
                       in
                       match applied with Ok () -> walk () | Error _ as e -> e)
                   | Ok (Some _) -> walk ()
                   | Error _ as e -> e
                 in
                 (* close on every exit, errors and raises included *)
                 Fun.protect
                   ~finally:(fun () -> Fs.close_scan (N.fs node) sc)
                   walk)))
    in
    (delta.Stats.msgs_sent, !updated)
  in
  let base, n_updated = run None in
  printf "cursor over %d rows, %d of them updated at the requester:@." rows
    n_updated;
  printf "%-30s %10s %16s@." "interface" "messages" "msgs/updated row";
  printf "%-30s %10d %16.3f@." "read + UPDATE per record" base
    (float_of_int base /. float_of_int n_updated);
  List.iter
    (fun cap ->
      let m, _ = run (Some cap) in
      printf "%-30s %10d %16.3f@." (fpr "APPLY^BLOCK of %d" cap) m
        (float_of_int m /. float_of_int n_updated))
    [ 10; 50 ];
  emit "e14" "messages_unbuffered" (float_of_int base)

(* ------------------------------------------------------------------ *)
(* E15: remote requester — filtering at the source across the network   *)
(* ------------------------------------------------------------------ *)

let e15_remote_requester () =
  heading "E15" "remote requester: VSBB across the network"
    "\"In a distributed system, this produces important performance \
     benefits due to reduced message traffic, since only selected and \
     projected data is returned to a remote requester.\"";
  let rows = 1000 in
  let run ~remote mode =
    let node = N.create_node ~remote_requester:remote ~volumes:1 () in
    get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
    let s = N.session node in
    N.set_access_mode s mode;
    let t0 = Sim.now (N.sim node) in
    let _, delta =
      N.measure node (fun () ->
          ignore
            (N.exec_exn s
               "SELECT unique1 FROM t WHERE tenpercent = 3"))
    in
    (delta, Sim.now (N.sim node) -. t0)
  in
  printf "%-12s %-18s %9s %12s %12s@." "requester" "interface" "msgs"
    "reply bytes" "elapsed(ms)";
  let msgs_total = ref 0 in
  List.iter
    (fun (where, remote) ->
      List.iter
        (fun (mode_name, mode) ->
          let d, t = run ~remote mode in
          msgs_total := !msgs_total + d.Stats.msgs_sent;
          printf "%-12s %-18s %9d %12d %12.1f@." where mode_name
            d.Stats.msgs_sent d.Stats.msg_reply_bytes (t /. 1000.))
        [ ("record-at-a-time", Some Fs.A_record); ("VSBB", Some Fs.A_vsbb) ])
    [ ("local", false); ("remote node", true) ];
  emit "e15" "messages_total" (float_of_int !msgs_total)


(* ------------------------------------------------------------------ *)
(* E16: distributed transactions — the cost of network atomicity        *)
(* ------------------------------------------------------------------ *)

let e16_distributed_tx () =
  heading "E16" "network transactions: two-phase commit cost"
    "\"A transaction mechanism coordinates the atomic commitment of \
     updates by multiple processes in the network\" [Borr1] — the \
     facility NonStop SQL inherits for distribution";
  let schema =
    Row.schema
      [| Row.column "k" Row.T_int; Row.column "v" Row.T_float |]
      ~key:[ "k" ]
  in
  let key i = get_ok ~ctx:"key" (Row.key_of_values schema [ Row.Vint i ]) in
  let bump fs_ file tx i delta =
    Fs.update_subset fs_ file ~tx
      ~range:Expr.{ lo = key i; hi = Keycode.successor (key i) }
      [ { Expr.target = 1; source = Expr.(Binop (Add, Field 1, float_ delta)) } ]
  in
  let cluster = N.create_cluster ~nodes:2 ~volumes_per_node:1 () in
  let nodes = N.cluster_nodes cluster in
  let mk node_id rows =
    let node = nodes.(node_id) in
    let file =
      get_ok ~ctx:"create"
        (Fs.create_file (N.fs node)
           ~fname:(fpr "t%d" node_id)
           ~schema
           ~partitions:[ Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) } ]
           ~indexes:[] ())
    in
    get_ok ~ctx:"load"
      (Tmf.run (N.tmf node) (fun tx ->
           let rec go i =
             if i >= rows then Ok ()
             else
               match
                 Fs.insert_row (N.fs node) file ~tx [| Row.Vint i; Row.Vfloat 0. |]
               with
               | Ok () -> go (i + 1)
               | Error _ as e -> e
           in
           go 0));
    file
  in
  let f0 = mk 0 100 and f1 = mk 1 100 in
  let txs = 50 in
  (* local transactions: both updates on node 0's file *)
  let s0 = Nsql_sim.Sim.stats (N.sim nodes.(0)) in
  let before = Stats.copy s0 in
  for i = 0 to txs - 1 do
    get_ok ~ctx:"local"
      (Tmf.run (N.tmf nodes.(0)) (fun tx ->
           let open Errors in
           let* _ = bump (N.fs nodes.(0)) f0 tx (i mod 100) 1. in
           let* _ = bump (N.fs nodes.(0)) f0 tx ((i + 7) mod 100) (-1.) in
           Ok ()))
  done;
  let d_local = Stats.diff ~before ~after:(Stats.copy s0) in
  (* network transactions: one update on each node, 2PC *)
  let before = Stats.copy s0 in
  for i = 0 to txs - 1 do
    get_ok ~ctx:"dtx"
      (let open Errors in
       let* dtx = N.network_tx cluster ~home:0 in
       let* _ = bump (N.fs nodes.(0)) f0 (Nsql_dtx.Dtx.coordinator_tx dtx) (i mod 100) 1. in
       let* tx1 = Nsql_dtx.Dtx.branch dtx ~node_id:1 in
       let* _ = bump (N.fs nodes.(0)) f1 tx1 (i mod 100) (-1.) in
       Nsql_dtx.Dtx.commit dtx)
  done;
  let d_dtx = Stats.diff ~before ~after:(Stats.copy s0) in
  printf "per transaction (%d two-update transactions):@." txs;
  printf "%-28s %10s %12s %14s@." "transaction kind" "messages" "internode"
    "audit flushes";
  let line name (d : Stats.t) =
    let f v = float_of_int v /. float_of_int txs in
    printf "%-28s %10.1f %12.1f %14.1f@." name (f d.Stats.msgs_sent)
      (f d.Stats.msgs_internode) (f d.Stats.audit_flushes)
  in
  line "local (one node)" d_local;
  line "network (2PC, two nodes)" d_dtx;
  printf
    "the atomicity premium: TMF^BEGIN + TMF^PREPARE + TMF^COMMIT messages      and one extra log force per branch@.";
  emit "e16" "network_msgs_per_tx"
    (float_of_int d_dtx.Stats.msgs_sent /. float_of_int txs)


(* ------------------------------------------------------------------ *)
(* E17: nowait fan-out across partitions                                *)
(* ------------------------------------------------------------------ *)

let e17_parallel_scan () =
  heading "E17" "parallel partitioned scan via nowait fan-out"
    "\"requests may be issued nowait ... the File System overlaps requests \
     to the Disk Processes managing the partitions\" — the GUARDIAN nowait \
     message primitive lets one requester keep every partition's Disk \
     Process busy at once";
  let rows = 2000 in
  let parts = 4 in
  let run fanout =
    let config = Config.v ~fs_fanout:fanout () in
    let node = N.create_node ~config ~volumes:4 () in
    get_ok ~ctx:"wisc"
      (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
    let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "t") in
    let t0 = Sim.now (N.sim node) in
    let _, delta =
      N.measure node (fun () ->
          get_ok ~ctx:"scan"
            (Tmf.run (N.tmf node) (fun tx ->
                 let sc =
                   Fs.open_scan (N.fs node) tbl.N.Catalog.t_file ~tx
                     ~access:Fs.A_vsbb ~range:Expr.full_range
                     ~proj:[| 0; 1 |] ~lock:Dp_msg.L_shared ()
                 in
                 let rec drain k =
                   match Fs.scan_next (N.fs node) sc with
                   | Ok (Some _) -> drain (k + 1)
                   | Ok None ->
                       Fs.close_scan (N.fs node) sc;
                       assert (k = rows);
                       Ok ()
                   | Error _ as e -> e
                 in
                 drain 0)))
    in
    (delta, Sim.now (N.sim node) -. t0)
  in
  let d_seq, t_seq = run false in
  let d_par, t_par = run true in
  printf "full scan of %d rows over %d partitions:@." rows parts;
  printf "%-26s %10s %12s %12s@." "driver" "messages" "reply bytes"
    "elapsed(ms)";
  let line name (d : Stats.t) t =
    printf "%-26s %10d %12d %12.1f@." name d.Stats.msgs_sent
      d.Stats.msg_reply_bytes (t /. 1000.)
  in
  line "sequential (one at a time)" d_seq t_seq;
  line "nowait fan-out" d_par t_par;
  let speedup = t_seq /. t_par in
  printf
    "elapsed reduction: %.1fx with identical message (%b) and byte (%b) \
     counts — the fan-out pays only the slowest partition per round@."
    speedup
    (d_seq.Stats.msgs_sent = d_par.Stats.msgs_sent)
    (d_seq.Stats.msg_reply_bytes = d_par.Stats.msg_reply_bytes);
  assert (d_seq.Stats.msgs_sent = d_par.Stats.msgs_sent);
  assert (d_seq.Stats.msg_reply_bytes = d_par.Stats.msg_reply_bytes);
  emit "e17" "elapsed_speedup" speedup;
  emit "e17" "messages_fanout" (float_of_int d_par.Stats.msgs_sent);
  emit "e17" "messages_sequential" (float_of_int d_seq.Stats.msgs_sent);
  emit "e17" "reply_bytes_fanout" (float_of_int d_par.Stats.msg_reply_bytes)

(* ------------------------------------------------------------------ *)
(* E18: aggregate pushdown to the Disk Process                          *)
(* ------------------------------------------------------------------ *)

let e18_agg_pushdown () =
  heading "E18" "aggregate evaluation at the data source"
    "\"passing ... operations directly to the Disk Process\" taken one \
     step further: COUNT/SUM/MIN/MAX fold inside the Disk Process's \
     re-drive budget and the reply carries accumulator state instead of \
     rows";
  let rows = 2000 in
  let parts = 4 in
  let sql = "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique2) FROM t" in
  let run pushdown =
    let node = N.create_node ~volumes:4 () in
    get_ok ~ctx:"wisc"
      (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
    let s = N.session node in
    (* pinning the access mode disables pushdown, so the baseline ships
       the (projected) rows and aggregates at the requester *)
    if not pushdown then N.set_access_mode s (Some Fs.A_vsbb);
    let result, delta =
      N.measure node (fun () ->
          match N.exec_exn s sql with
          | N.Rows { rows = [ row ]; _ } -> row
          | _ -> assert false)
    in
    (result, delta)
  in
  let r_client, d_client = run false in
  let r_push, d_push = run true in
  assert (r_client = r_push);
  printf "%s@.  over %d rows in %d partitions (both return %a):@." sql rows
    parts Row.pp_row r_push;
  printf "%-28s %10s %12s@." "evaluation" "messages" "reply bytes";
  let line name (d : Stats.t) =
    printf "%-28s %10d %12d@." name d.Stats.msgs_sent d.Stats.msg_reply_bytes
  in
  line "requester-side (VSBB scan)" d_client;
  line "pushed to Disk Process" d_push;
  let byte_ratio =
    float_of_int d_client.Stats.msg_reply_bytes
    /. float_of_int d_push.Stats.msg_reply_bytes
  in
  printf "reply-byte reduction: %.0fx; message reduction: %.1fx@." byte_ratio
    (float_of_int d_client.Stats.msgs_sent
    /. float_of_int d_push.Stats.msgs_sent);
  emit "e18" "reply_byte_ratio" byte_ratio;
  emit "e18" "reply_bytes_pushdown" (float_of_int d_push.Stats.msg_reply_bytes);
  emit "e18" "reply_bytes_client" (float_of_int d_client.Stats.msg_reply_bytes);
  emit "e18" "messages_pushdown" (float_of_int d_push.Stats.msgs_sent)

(* ------------------------------------------------------------------ *)
(* A1 (ablation): VSBB reply-buffer size                               *)
(* ------------------------------------------------------------------ *)

let a1_vsbb_buffer () =
  heading "A1" "ablation: virtual-block (reply buffer) size"
    "design choice: the VSBB reply buffer bounds how much selected and \
     projected data one GET message returns; larger virtual blocks mean \
     fewer re-drives but bigger replies and coarser group locks";
  let rows = 2000 in
  printf "%-14s %10s %12s %14s@." "buffer" "messages" "reply bytes"
    "lock requests";
  let msgs_total = ref 0 in
  List.iter
    (fun buf_bytes ->
      let config = Config.v ~vsbb_buffer_bytes:buf_bytes () in
      let node = N.create_node ~config ~volumes:1 () in
      get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
      let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog node) "t") in
      let _, delta =
        N.measure node (fun () ->
            get_ok ~ctx:"scan"
              (Tmf.run (N.tmf node) (fun tx ->
                   let sc =
                     Fs.open_scan (N.fs node) tbl.N.Catalog.t_file ~tx
                       ~access:Fs.A_vsbb ~range:Expr.full_range
                       ~proj:[| 0; 1 |] ~lock:Dp_msg.L_shared ()
                   in
                   let rec drain k =
                     match Fs.scan_next (N.fs node) sc with
                     | Ok (Some _) -> drain (k + 1)
                     | Ok None ->
                         Fs.close_scan (N.fs node) sc;
                         assert (k = rows);
                         Ok ()
                     | Error _ as e -> e
                   in
                   drain 0)))
      in
      msgs_total := !msgs_total + delta.Stats.msgs_sent;
      printf "%-14s %10d %12d %14d@."
        (fpr "%d B" buf_bytes)
        delta.Stats.msgs_sent delta.Stats.msg_reply_bytes
        delta.Stats.lock_requests)
    [ 1024; 4096; 16384 ];
  emit "a1" "messages_total" (float_of_int !msgs_total)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks over the core paths                        *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  printf "@.==== Bechamel micro-benchmarks (real time per run) ====@.";
  let open Bechamel in
  let open Toolkit in
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$B" in
  ignore (Disk.allocate disk 4096);
  let cache =
    Cache.create sim disk ~capacity:256
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:(fun _ -> ())
  in
  let tree = Nsql_store.Btree.create sim cache ~name:"B" in
  for i = 0 to 999 do
    get_ok ~ctx:"ins"
      (Nsql_store.Btree.insert tree ~key:(Keycode.of_int i)
         ~record:(String.make 100 'x') ~lsn:1L)
  done;
  let schema =
    Row.schema
      [|
        Row.column "a" Row.T_int;
        Row.column "b" Row.T_float;
        Row.column "c" (Row.T_varchar 40);
      |]
      ~key:[ "a" ]
  in
  let row = [| Row.Vint 42; Row.Vfloat 3.14; Row.Vstr "hello, tandem" |] in
  let image = Row.encode schema row in
  let pred =
    Expr.(And (Cmp (Gt, Field 1, float_ 1.), Like (Field 2, "hello%")))
  in
  let counter = ref 1_000_000 in
  let sql_node = N.create_node ~volumes:1 () in
  let sql_session = N.session sql_node in
  ignore
    (N.exec_exn sql_session "CREATE TABLE t (k INT PRIMARY KEY, v FLOAT NOT NULL)");
  for i = 0 to 99 do
    ignore (N.exec_exn sql_session (fpr "INSERT INTO t VALUES (%d, 1.0)" i))
  done;
  let tests =
    [
      Test.make ~name:"keycode.of_int"
        (Staged.stage (fun () -> Keycode.of_int 123456));
      Test.make ~name:"row.encode" (Staged.stage (fun () -> Row.encode schema row));
      Test.make ~name:"row.decode"
        (Staged.stage (fun () -> Row.decode_exn schema image));
      Test.make ~name:"expr.eval_pred"
        (Staged.stage (fun () -> Expr.eval_pred row pred));
      Test.make ~name:"btree.lookup"
        (Staged.stage (fun () ->
             Nsql_store.Btree.lookup tree (Keycode.of_int 500)));
      Test.make ~name:"btree.insert+delete"
        (Staged.stage (fun () ->
             incr counter;
             let k = Keycode.of_int !counter in
             get_ok ~ctx:"i"
               (Nsql_store.Btree.insert tree ~key:k ~record:"r" ~lsn:1L);
             ignore (Nsql_store.Btree.delete tree ~key:k ~lsn:1L)));
      Test.make ~name:"cache.read (hit)"
        (Staged.stage (fun () -> Cache.read cache 1));
    ]
    @ (* two inner-loop shapes over the same 1000 rows (filter →
         group/aggregate, 50 groups): a row-at-a-time pull pays a
         next()/option closure per operator boundary, a codec-encoded
         group key, and kind/argument dispatch per row; the executor
         loops over the array with a value-hashed key and feeders
         resolved once per query *)
      (let op_batch =
         Array.init 1000 (fun i ->
             [| Row.Vint (i mod 50); Row.Vint i; Row.Vfloat 3.14 |])
       in
       let op_pred = Expr.(Cmp (Ge, Field 1, int_ 0)) in
       let op_keys = [ Expr.Field 0 ] in
       let op_specs =
         Dp_msg.
           [
             { ag_kind = Agg_count_star; ag_arg = None };
             { ag_kind = Agg_sum; ag_arg = Some (Expr.Field 1) };
           ]
       in
       [
         Test.make ~name:"op.per-row filter+group (1k)"
           (Staged.stage (fun () ->
                let i = ref 0 in
                let source () =
                  if !i >= Array.length op_batch then None
                  else begin
                    let r = op_batch.(!i) in
                    incr i;
                    Some r
                  end
                in
                let rec filtered () =
                  match source () with
                  | None -> None
                  | Some r ->
                      if Expr.eval_pred r op_pred then Some r else filtered ()
                in
                let table = Hashtbl.create 64 in
                let groups = ref 0 in
                let rec go () =
                  match filtered () with
                  | None -> ()
                  | Some r ->
                      let keys = List.map (fun e -> Expr.eval r e) op_keys in
                      let w = Nsql_util.Codec.writer () in
                      Row.encode_values w (Array.of_list keys);
                      let kenc = Nsql_util.Codec.contents w in
                      let accs =
                        match Hashtbl.find_opt table kenc with
                        | Some accs -> accs
                        | None ->
                            let accs =
                              List.map (fun _ -> Dp_msg.fresh_acc ()) op_specs
                            in
                            Hashtbl.add table kenc accs;
                            incr groups;
                            accs
                      in
                      List.iter2
                        (fun spec acc -> Dp_msg.feed_spec acc spec r)
                        op_specs accs;
                      go ()
                in
                go ();
                !groups));
         (let op_key = Expr.Field 0 in
          let feeds = List.map Dp_msg.feeder op_specs in
          Test.make ~name:"op.batched filter+group (1k)"
            (Staged.stage (fun () ->
                 let b =
                   Rowvec.filter (fun r -> Expr.eval_pred r op_pred) op_batch
                 in
                 let table = Hashtbl.create 64 in
                 let groups = ref 0 in
                 for i = 0 to Array.length b - 1 do
                   let r = b.(i) in
                   let v = Expr.eval r op_key in
                   let accs =
                     match Hashtbl.find table v with
                     | accs -> accs
                     | exception Not_found ->
                         let accs =
                           List.map (fun _ -> Dp_msg.fresh_acc ()) op_specs
                         in
                         Hashtbl.add table v accs;
                         incr groups;
                         accs
                   in
                   List.iter2 (fun f acc -> f acc r) feeds accs
                 done;
                 !groups)));
       ])
    @ [
      Test.make ~name:"sql.point select"
        (Staged.stage (fun () -> N.exec_exn sql_session "SELECT v FROM t WHERE k = 7"));
      Test.make ~name:"sql.update expression"
        (Staged.stage (fun () ->
             N.exec_exn sql_session "UPDATE t SET v = v + 1.0 WHERE k = 7"));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ per_run ] -> printf "%-28s %12.0f ns/run@." name per_run
          | _ -> printf "%-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* E19: span-profile attribution of the message-flow wins               *)
(* ------------------------------------------------------------------ *)

let e19_profile_attribution () =
  heading "E19" "span profile attributes messages to operators and legs"
    "the span tracer replays E17's fan-out scan and the E1 access-mode \
     comparison, attributing messages and records to individual plan \
     operators and partition legs; observation is free — counters and \
     clock stay bit-identical with tracing on";
  let rows = 2000 in
  let parts = 4 in
  let scan_traced mode =
    let config = Config.v ~fs_fanout:true () in
    let node = N.create_node ~config ~volumes:4 () in
    get_ok ~ctx:"wisc"
      (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
    let s = N.session node in
    N.set_access_mode s mode;
    let sim = N.sim node in
    Trace.clear sim;
    Trace.set_enabled sim true;
    let _, delta =
      N.measure node (fun () ->
          match N.exec_exn s "SELECT unique1, unique2 FROM t" with
          | N.Rows { rows = r; _ } -> assert (List.length r = rows)
          | _ -> assert false)
    in
    Trace.set_enabled sim false;
    (Trace.take sim, delta)
  in
  let spans, delta = scan_traced (Some Fs.A_vsbb) in
  printf "%a@." (fun ppf l -> Trace.pp_profile ppf l) spans;
  let legs =
    List.filter (fun sp -> sp.Tracer.sp_cat = "fs.leg") spans
  in
  printf "%-18s %10s %12s@." "partition leg" "messages" "records";
  List.iter
    (fun leg ->
      printf "%-18s %10d %12d@." leg.Tracer.sp_name
        leg.Tracer.sp_stats.Stats.msgs_sent
        leg.Tracer.sp_stats.Stats.records_read)
    legs;
  let leg_msgs =
    List.fold_left (fun a l -> a + l.Tracer.sp_stats.Stats.msgs_sent) 0 legs
  in
  let leg_recs =
    List.fold_left (fun a l -> a + l.Tracer.sp_stats.Stats.records_read) 0 legs
  in
  printf
    "legs account for %d of %d statement messages and %d of %d records — \
     the fan-out win is the overlap, not the message count@."
    leg_msgs delta.Stats.msgs_sent leg_recs delta.Stats.records_read;
  assert (List.length legs = parts);
  assert (leg_recs = rows);
  (* access-mode ratios, measured from the trace's message spans *)
  let msg_count mode =
    let spans, _ = scan_traced mode in
    List.length (Trace.msg_spans spans)
  in
  let m_rec = msg_count (Some Fs.A_record) in
  let m_rsbb = msg_count (Some Fs.A_rsbb) in
  let m_vsbb = msg_count (Some Fs.A_vsbb) in
  printf
    "messages per full scan (from msg spans): record=%d rsbb=%d vsbb=%d \
     (%.0fx / %.1fx / 1x)@."
    m_rec m_rsbb m_vsbb
    (float_of_int m_rec /. float_of_int m_vsbb)
    (float_of_int m_rsbb /. float_of_int m_vsbb);
  emit "e19" "fanout_legs" (float_of_int (List.length legs));
  emit "e19" "leg_messages" (float_of_int leg_msgs);
  emit "e19" "record_vsbb_msg_ratio"
    (float_of_int m_rec /. float_of_int m_vsbb);
  emit "e19" "rsbb_vsbb_msg_ratio"
    (float_of_int m_rsbb /. float_of_int m_vsbb)

(* ------------------------------------------------------------------ *)
(* E20: lock waiting under multi-terminal contention                    *)
(* ------------------------------------------------------------------ *)

let e20_contention () =
  heading "E20" "multi-terminal contention: waits, deadlocks, retries"
    "the Disk Process is the locale for concurrency control: conflicting \
     requests queue in the DP (reply withheld, requester undisturbed), \
     wait-for cycles are detected at block time and the youngest \
     transaction is denied, its session aborts and retries";
  let txs_per_terminal = 10 in
  let accounts = 4 in
  printf "%9s %9s %9s %9s %9s %9s %10s %8s@." "terminals" "committed"
    "waits" "deadlocks" "timeouts" "retries" "wait_ms" "tps";
  List.iter
    (fun terminals ->
      let config =
        Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
      in
      let node = N.create_node ~config ~volumes:2 () in
      let db =
        get_ok ~ctx:"e20 setup" (Debitcredit.setup_transfer node ~accounts)
      in
      let sim = N.sim node in
      Trace.clear sim;
      Trace.set_enabled sim true;
      let t0 = Sim.now sim in
      let rep, delta =
        N.measure node (fun () ->
            Debitcredit.run_transfers db ~terminals ~txs_per_terminal ())
      in
      let elapsed_us = Sim.now sim -. t0 in
      Trace.set_enabled sim false;
      (* lock-wait time comes from the trace: the DP emits one
         "lock_wait_end" instant per un-parked request, carrying the
         queued duration and the outcome *)
      let wait_us =
        List.fold_left
          (fun acc sp ->
            if String.equal sp.Tracer.sp_name "lock_wait_end" then
              match Trace.attr sp "wait_us" with
              | Some (Tracer.Float w) -> acc +. w
              | _ -> acc
            else acc)
          0. (Trace.take sim)
      in
      let sum =
        get_ok ~ctx:"e20 balances" (Debitcredit.transfer_balance_sum db)
      in
      assert (Float.abs (sum -. (1000. *. float_of_int accounts)) < 1e-6);
      assert (rep.Debitcredit.x_failed = 0);
      assert (rep.Debitcredit.x_committed = terminals * txs_per_terminal);
      (* one terminal never conflicts with itself: waiting must be free *)
      if terminals = 1 then begin
        assert (delta.Stats.lock_waits = 0);
        assert (delta.Stats.deadlocks = 0);
        assert (rep.Debitcredit.x_retries = 0)
      end;
      let tps =
        float_of_int rep.Debitcredit.x_committed /. (elapsed_us /. 1e6)
      in
      printf "%9d %9d %9d %9d %9d %9d %10.2f %8.0f@." terminals
        rep.Debitcredit.x_committed delta.Stats.lock_waits
        delta.Stats.deadlocks rep.Debitcredit.x_timeout_aborts
        rep.Debitcredit.x_retries (wait_us /. 1e3) tps;
      emit "e20" (fpr "lock_waits_%d" terminals)
        (float_of_int delta.Stats.lock_waits);
      emit "e20" (fpr "deadlocks_%d" terminals)
        (float_of_int delta.Stats.deadlocks);
      emit "e20" (fpr "retries_%d" terminals)
        (float_of_int rep.Debitcredit.x_retries);
      emit "e20" (fpr "wait_ms_%d" terminals) (wait_us /. 1e3))
    [ 1; 2; 4; 8 ];
  printf
    "@.every conflict parks on the owning Disk Process's FIFO queue; the \
     reply is withheld until release or budget expiry — no requester-side \
     polling messages@."

(* ------------------------------------------------------------------ *)
(* E21: process-pair takeover under live traffic                        *)
(* ------------------------------------------------------------------ *)

let e21_takeover () =
  heading "E21" "process-pair takeover under live DebitCredit contention"
    "every Disk Process runs as a NonStop process pair: the primary \
     checkpoints SCBs, lock grants and wait-queue membership to its hot \
     backup, so when the primary fails mid-run the backup resumes as \
     primary with no recovery pass and no acknowledged commit lost";
  let terminals = 4 and txs_per_terminal = 25 and accounts = 4 in
  let config =
    Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  (* fault-free calibration run: identical node, identical workload. Its
     elapsed time locates the virtual-time midpoint of the real run, and
     its throughput is the dip's reference *)
  let base_elapsed, base_tps =
    let node = N.create_node ~config ~volumes:2 () in
    let db =
      get_ok ~ctx:"e21 setup" (Debitcredit.setup_transfer node ~accounts)
    in
    let sim = N.sim node in
    let t0 = Sim.now sim in
    let rep =
      Debitcredit.run_transfers db ~terminals ~txs_per_terminal ()
    in
    let elapsed = Sim.now sim -. t0 in
    assert (rep.Debitcredit.x_failed = 0);
    (elapsed, float_of_int rep.Debitcredit.x_committed /. elapsed *. 1e6)
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"e21 setup" (Debitcredit.setup_transfer node ~accounts)
  in
  let sim = N.sim node in
  (* oracle mirror plus a commit timestamp stream, so throughput can be
     split into before/after-takeover windows *)
  let expected = Array.make accounts 1000. in
  let commit_times = ref [] in
  let on_commit ~src ~dst ~delta =
    expected.(src) <- expected.(src) -. delta;
    expected.(dst) <- expected.(dst) +. delta;
    commit_times := Sim.now sim :: !commit_times
  in
  (* fail the hot volume's primary at the run's midpoint: terminals are
     mid-transaction — some scanning, some parked on the wait queue, some
     between phases *)
  let t0 = Sim.now sim in
  let takeover_at = t0 +. (base_elapsed /. 2.) in
  let takeover_latency = ref nan in
  Sim.schedule sim ~at:takeover_at (fun () ->
      let before = Sim.now sim in
      assert (N.takeover_volume node 0);
      takeover_latency := Sim.now sim -. before);
  let rep, delta =
    N.measure node (fun () ->
        Debitcredit.run_transfers ~on_commit db ~terminals ~txs_per_terminal
          ())
  in
  let elapsed_us = Sim.now sim -. t0 in
  (* ACID + conservation oracle across the takeover *)
  let balances = get_ok ~ctx:"e21 balances" (Debitcredit.transfer_balances db) in
  List.iter
    (fun (aid, b) -> assert (Float.abs (b -. expected.(aid)) < 1e-6))
    balances;
  let sum = List.fold_left (fun acc (_, b) -> acc +. b) 0. balances in
  assert (Float.abs (sum -. (1000. *. float_of_int accounts)) < 1e-6);
  (* zero acknowledged-commit loss: every parameter set commits exactly
     once, none abandoned *)
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = terminals * txs_per_terminal);
  assert (delta.Stats.takeovers = 1);
  let before_n, after_n =
    List.fold_left
      (fun (b, a) t -> if t < takeover_at then (b + 1, a) else (b, a + 1))
      (0, 0) !commit_times
  in
  let tps_before = float_of_int before_n /. (takeover_at -. t0) *. 1e6 in
  let tps_after =
    float_of_int after_n /. (t0 +. elapsed_us -. takeover_at) *. 1e6
  in
  printf "%10s %9s %11s %12s %9s %10s %10s %9s@." "committed" "takeovers"
    "ckpt_denied" "latency_us" "base_tps" "tps_before" "tps_after"
    "slowdown";
  printf "%10d %9d %11d %12.1f %9.1f %10.1f %10.1f %8.2fx@."
    rep.Debitcredit.x_committed delta.Stats.takeovers
    rep.Debitcredit.x_takeover_aborts !takeover_latency base_tps tps_before
    tps_after (elapsed_us /. base_elapsed);
  printf
    "@.the dip is the takeover latency plus re-driven lock waits; with the \
     replica maintained by the checkpoint stream, no transaction is denied \
     and no committed work is lost@.";
  emit "e21" "committed" (float_of_int rep.Debitcredit.x_committed);
  emit "e21" "takeover_latency_us" !takeover_latency;
  emit "e21" "takeover_aborts" (float_of_int rep.Debitcredit.x_takeover_aborts);
  emit "e21" "tps_base" base_tps;
  emit "e21" "tps_before" tps_before;
  emit "e21" "tps_after" tps_after;
  emit "e21" "slowdown" (elapsed_us /. base_elapsed);
  emit "e21" "lock_waits" (float_of_int delta.Stats.lock_waits)

(* ------------------------------------------------------------------ *)
(* E22: push-based batched executor                                     *)
(* ------------------------------------------------------------------ *)

let e22_batched_executor () =
  heading "E22"
    "push-based batched executor: reply buffers as operator batches"
    "the File System already receives whole VSBB reply buffers; the \
     executor keeps each buffer intact as one operator-exchange batch — \
     tight array loops inside every operator, no per-record closure call \
     or list cons at operator boundaries";
  let rows = 10_000 in
  let sql =
    "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t GROUP \
     BY onepercent"
  in
  let reps = 25 in
  let node = N.create_node ~volumes:1 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ());
  let s = N.session node in
  (* the first execution warms the cache *)
  ignore (N.exec_exn s sql);
  let sim = N.sim node in
  let _, delta = N.measure node (fun () -> ignore (N.exec_exn s sql)) in
  (* one traced run for the per-operator span profile *)
  Trace.clear sim;
  Trace.set_enabled sim true;
  ignore (N.exec_exn s sql);
  Trace.set_enabled sim false;
  let spans = Trace.take sim in
  (* host-CPU throughput over repeated executions of the same query *)
  let h0 = Sys.time () in
  for _ = 1 to reps do
    ignore (N.exec_exn s sql)
  done;
  let rps = float_of_int (reps * rows) /. (Sys.time () -. h0) in
  (* the operator chain, from the planner's descriptor API *)
  printf "operator chain (planner descriptors):@.";
  let chain_node = N.create_node ~volumes:1 () in
  get_ok ~ctx:"wisc" (Wisconsin.create chain_node ~name:"t" ~rows:8 ());
  (match Nsql_sql.Parser.parse sql with
  | Ok (Nsql_sql.Ast.St_select stmt) -> (
      match Nsql_sql.Planner.plan_select (N.catalog chain_node) stmt with
      | Ok plan ->
          List.iter
            (fun od -> printf "  %a@." Nsql_sql.Planner.pp_op_desc od)
            (Nsql_sql.Planner.operators plan)
      | Error _ -> assert false)
  | _ -> assert false);
  printf "@.per-operator span profile:@.%a@."
    (fun ppf l -> Trace.pp_profile ~cats:[ "op" ] ppf l)
    spans;
  let rows_per_batch =
    float_of_int delta.Stats.exec_rows /. float_of_int delta.Stats.exec_batches
  in
  printf "%10s %12s %10s %12s@." "messages" "reply bytes" "batches" "records/s";
  printf "%10d %12d %10d %12.0f@." delta.Stats.msgs_sent
    delta.Stats.msg_reply_bytes delta.Stats.exec_batches rps;
  printf "@.%.1f rows per batch@." rows_per_batch;
  (* --- operator-pipeline throughput --------------------------------- *)
  (* Batching targets the per-record cost inside the executor's operator
     chain, so measure exactly that: the same filter→project→aggregate
     pipeline over the same materialized scan output (the real VSBB reply
     batches), once with row-at-a-time list shapes and once with the
     executor's array loops. The storage stack is out of the picture;
     every simulated charge (5 ticks per grouped row, 2 per emitted row)
     stays in. *)
  let filter_pred = Expr.(Cmp (Ge, Field 1, int_ 0)) in
  let key_exprs = [ Expr.Field 6 ] in
  let key0 = Expr.Field 6 in
  let specs =
    List.map Nsql_sql.Planner.dp_agg_spec
      Nsql_sql.Ast.
        [
          (A_count_star, None);
          (A_sum, Some (Expr.Field 0));
          (A_min, Some (Expr.Field 1));
        ]
  in
  let proj_exprs = [ Expr.Field 0; Expr.Field 1; Expr.Field 2; Expr.Field 3 ] in
  let finish spec acc = Dp_msg.finish_acc spec.Dp_msg.ag_kind acc in
  let feeds = List.map Dp_msg.feeder specs in
  (* the row-at-a-time shapes the executor had before it consumed whole
     reply buffers: a [scan_next]-style pop per row (tick, result boxing,
     cons) into a materialized list, then list phases with one closure
     call, key encode and cons per row *)
  let pull_pipeline sim rows =
    let buf = ref rows in
    let next () =
      match !buf with
      | [] -> Ok None
      | r :: tl ->
          buf := tl;
          Sim.tick sim 3;
          Ok (Some r)
    in
    let rec drain acc =
      match next () with
      | Ok (Some r) -> drain (r :: acc)
      | Ok None -> List.rev acc
      | Error _ -> assert false
    in
    let rows = drain [] in
    let rows = List.filter (fun r -> Expr.eval_pred r filter_pred) rows in
    let table = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun row ->
        Sim.tick sim 5;
        let keys = List.map (fun k -> Expr.eval row k) key_exprs in
        let kenc =
          let w = Nsql_util.Codec.writer () in
          Row.encode_values w (Array.of_list keys);
          Nsql_util.Codec.contents w
        in
        let accs =
          match Hashtbl.find_opt table kenc with
          | Some (_, a) -> a
          | None ->
              let a = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
              Hashtbl.replace table kenc (keys, a);
              order := kenc :: !order;
              a
        in
        List.iter2 (fun spec acc -> Dp_msg.feed_spec acc spec row) specs accs)
      rows;
    let grouped =
      List.rev_map
        (fun kenc ->
          let keys, accs = Hashtbl.find table kenc in
          Array.of_list (keys @ List.map2 finish specs accs))
        !order
    in
    let out =
      List.map
        (fun row ->
          Array.of_list (List.map (fun e -> Expr.eval row e) proj_exprs))
        grouped
    in
    Sim.tick sim (2 * List.length out);
    out
  in
  (* the executor's shapes: array loops, aggregated ticks, and the
     scalar-key fast path that skips the per-row key encode *)
  let proj_arr = Array.of_list proj_exprs in
  let batched_pipeline sim batches =
    (* [scan_next_batch]-style take: each reply buffer is surrendered
       whole, one aggregated tick per batch *)
    List.iter (fun b -> Sim.tick sim (3 * Array.length b)) batches;
    let batches =
      List.filter_map
        (fun b ->
          let b = Rowvec.filter (fun r -> Expr.eval_pred r filter_pred) b in
          if Array.length b = 0 then None else Some b)
        batches
    in
    let table = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun batch ->
        let n = Array.length batch in
        if n > 0 then Sim.tick sim (5 * n);
        for i = 0 to n - 1 do
          let row = batch.(i) in
          (* single-key fast path, as in the engine: the value itself is
             the group identity — no per-row key list, no encode *)
          let v = Expr.eval row key0 in
          let gk =
            match v with
            | Row.Vfloat _ ->
                `Enc
                  (let w = Nsql_util.Codec.writer () in
                   Row.encode_values w [| v |];
                   Nsql_util.Codec.contents w)
            | _ -> `Val v
          in
          let accs =
            match Hashtbl.find table gk with
            | _, a -> a
            | exception Not_found ->
                let a = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
                Hashtbl.replace table gk ([ v ], a);
                order := gk :: !order;
                a
          in
          List.iter2 (fun f acc -> f acc row) feeds accs
        done)
      batches;
    let grouped =
      Rowvec.of_list
        (List.rev_map
           (fun gk ->
             let keys, accs = Hashtbl.find table gk in
             Array.of_list (keys @ List.map2 finish specs accs))
           !order)
    in
    let out =
      Rowvec.map (fun row -> Array.map (fun e -> Expr.eval row e) proj_arr)
        grouped
    in
    Sim.tick sim (2 * Array.length out);
    out
  in
  (* materialize the real reply batches once, off the clock *)
  let feed_node = N.create_node ~volumes:1 () in
  get_ok ~ctx:"wisc" (Wisconsin.create feed_node ~name:"t" ~rows ());
  let tbl = get_ok ~ctx:"find" (N.Catalog.find (N.catalog feed_node) "t") in
  let batches =
    get_ok ~ctx:"feed"
      (Tmf.run (N.tmf feed_node) (fun tx ->
           let fs = N.fs feed_node in
           let sc =
             Fs.open_scan fs tbl.N.Catalog.t_file ~tx ~access:Fs.A_vsbb
               ~range:Expr.full_range ~lock:Dp_msg.L_shared ()
           in
           let rec go acc =
             match Fs.scan_next_batch fs sc with
             | Ok (Some b) -> go (b :: acc)
             | Ok None -> Ok (List.rev acc)
             | Error _ as e -> e
           in
           Fun.protect ~finally:(fun () -> Fs.close_scan fs sc) (fun () ->
               go [])))
  in
  let row_list = List.concat_map Array.to_list batches in
  (* same answer from both shapes before timing anything *)
  let check_pull = pull_pipeline (Sim.create ()) row_list in
  let check_bat = batched_pipeline (Sim.create ()) batches in
  assert (check_pull = Array.to_list check_bat);
  (* interleave the two shapes in alternating blocks so load and GC
     drift hit both equally; Sys.time is CPU time, immune to wall noise *)
  let blocks = 10 and reps = 40 in
  let t_pull = ref 0. and t_bat = ref 0. in
  let sim_pull = Sim.create () and sim_bat = Sim.create () in
  Gc.compact ();
  for _ = 1 to blocks do
    let h0 = Sys.time () in
    for _ = 1 to reps do
      ignore (pull_pipeline sim_pull row_list)
    done;
    let h1 = Sys.time () in
    for _ = 1 to reps do
      ignore (batched_pipeline sim_bat batches)
    done;
    let h2 = Sys.time () in
    t_pull := !t_pull +. (h1 -. h0);
    t_bat := !t_bat +. (h2 -. h1)
  done;
  let total = float_of_int (blocks * reps * rows) in
  let pipe_pull = total /. !t_pull in
  let pipe_bat = total /. !t_bat in
  let pipe_speedup = pipe_bat /. pipe_pull in
  printf
    "@.operator pipeline over the materialized reply batches \
     (scan-drain→filter→project→aggregate, %d rows):@."
    rows;
  printf "%-22s %14s@." "shape" "records/s";
  printf "%-22s %14.0f@." "row-at-a-time" pipe_pull;
  printf "%-22s %14.0f@." "batched" pipe_bat;
  printf "operator-pipeline speedup: %.2fx records/s@." pipe_speedup;
  (* regression floor: kept below the ~2x typically measured so host
     variance cannot flake the smoke job, but low enough to catch a
     batched path that has fallen back to per-row work *)
  assert (pipe_speedup >= 1.5);
  (* host-dependent throughput is printed, not emitted: the smoke diff
     compares the JSON byte-for-byte, so only deterministic values go in *)
  emit "e22" "messages" (float_of_int delta.Stats.msgs_sent);
  emit "e22" "reply_bytes" (float_of_int delta.Stats.msg_reply_bytes);
  emit "e22" "batches" (float_of_int delta.Stats.exec_batches);
  emit "e22" "batch_rows" (float_of_int delta.Stats.exec_rows);
  emit "e22" "rows_per_batch" rows_per_batch

(* ------------------------------------------------------------------ *)
(* E23: the resource monitor — latency percentiles and utilization      *)
(* ------------------------------------------------------------------ *)

let e23_monitor () =
  heading "E23" "resource monitor: terminal latency and utilization"
    "zero-perturbation observability: fixed-bucket latency histograms, a \
     time-sliced utilization/queueing sampler, and an exhaustive tiling \
     of simulated time into categories — monitoring on vs off is \
     bit-identical in results, counters and clock";
  let terminals = 4 and txs_per_terminal = 25 and accounts = 4 in
  let config =
    Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000. ()
  in
  let probe_idx name =
    let rec go i =
      if i >= Array.length Moncore.probe_names then assert false
      else if String.equal Moncore.probe_names.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  (* --- part A: E20-shape contention, monitored ----------------------- *)
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"e23 setup" (Debitcredit.setup_transfer node ~accounts)
  in
  let sim = N.sim node in
  Monitor.set_enabled sim true;
  let t0 = Sim.now sim in
  let rep = Debitcredit.run_transfers db ~terminals ~txs_per_terminal () in
  let elapsed = Sim.now sim -. t0 in
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = terminals * txs_per_terminal);
  let mc = Sim.moncore sim in
  (* the tiling invariant: category totals sum to the clock delta exactly
     (float-equal, not within epsilon — the quanta are binary-exact) *)
  let cats = Moncore.cat_snapshot mc in
  let total = Array.fold_left ( +. ) 0. cats in
  assert (total = Sim.now sim -. Moncore.start_now mc);
  printf "%a@." Monitor.pp_report sim;
  let h =
    match Moncore.hist mc "transfer" with
    | Some h -> h
    | None -> failwith "E23: no transfer histogram"
  in
  let q p = Hist.quantile h p in
  printf
    "terminal-perceived transfer latency: n=%d p50=%.1f p95=%.1f p99=%.1f \
     max=%.1f (us)@."
    (Hist.count h) (q 0.5) (q 0.95) (q 0.99) (Hist.max_value h);
  let busy = Moncore.busy_snapshot mc in
  let dp_util = busy.(Moncore.res_index Moncore.R_dp) /. elapsed in
  let await_share = cats.(Moncore.cat_index Moncore.C_await) /. total in
  (* DP-side queue time of parked requests: the terminal spends the same
     interval in await (overlapped), which is why C_await dominates *)
  let lw =
    match Moncore.hist mc "lock_wait" with
    | Some h -> h
    | None -> failwith "E23: no lock_wait histogram"
  in
  printf
    "DP utilization %.2f (%d volumes); awaiting-completion share %.2f; \
     lock-wait queue time p50=%.1f p95=%.1f (us, n=%d)@."
    dp_util 2 await_share (Hist.quantile lw 0.5) (Hist.quantile lw 0.95)
    (Hist.count lw);
  emit "e23" "transfer_p50_us" (q 0.5);
  emit "e23" "transfer_p95_us" (q 0.95);
  emit "e23" "transfer_p99_us" (q 0.99);
  emit "e23" "transfer_max_us" (Hist.max_value h);
  emit "e23" "dp_util" dp_util;
  emit "e23" "await_share" await_share;
  emit "e23" "lock_wait_p50_us" (Hist.quantile lw 0.5);
  emit "e23" "lock_wait_p95_us" (Hist.quantile lw 0.95);
  emit "e23" "lock_wait_n" (float_of_int (Hist.count lw));
  (* --- part B: the E21 takeover dip as a sampled transient ------------ *)
  let base_elapsed =
    let node = N.create_node ~config ~volumes:2 () in
    let db =
      get_ok ~ctx:"e23 base" (Debitcredit.setup_transfer node ~accounts)
    in
    let sim = N.sim node in
    let t0 = Sim.now sim in
    let rep = Debitcredit.run_transfers db ~terminals ~txs_per_terminal () in
    assert (rep.Debitcredit.x_failed = 0);
    Sim.now sim -. t0
  in
  let node = N.create_node ~config ~volumes:2 () in
  let db =
    get_ok ~ctx:"e23 tko setup" (Debitcredit.setup_transfer node ~accounts)
  in
  let sim = N.sim node in
  Monitor.set_slice_us sim 50_000.;
  Monitor.set_enabled sim true;
  let t0 = Sim.now sim in
  let takeover_at = t0 +. (base_elapsed /. 2.) in
  Sim.schedule sim ~at:takeover_at (fun () ->
      assert (N.takeover_volume node 0));
  let rep = Debitcredit.run_transfers db ~terminals ~txs_per_terminal () in
  assert (rep.Debitcredit.x_failed = 0);
  assert (rep.Debitcredit.x_committed = terminals * txs_per_terminal);
  let mc = Sim.moncore sim in
  let cats = Moncore.cat_snapshot mc in
  let total = Array.fold_left ( +. ) 0. cats in
  assert (total = Sim.now sim -. Moncore.start_now mc);
  let slices = Array.of_list (Moncore.slices mc) in
  let n = Array.length slices in
  assert (n >= 3);
  let msg_i = probe_idx "msgs_sent" in
  let ckpt_i = probe_idx "checkpoint_bytes" in
  let parked_i = Moncore.gauge_index Moncore.G_parked in
  (* per-slice message throughput from the cumulative stats probe; slice 0
     is skipped — its delta reaches back into setup *)
  let delta_of i idx =
    slices.(i).Moncore.sl_stats.(idx) - slices.(i - 1).Moncore.sl_stats.(idx)
  in
  let tko_slice =
    let rec go i =
      if i >= n then n - 1
      else
        let s = slices.(i) in
        if
          s.Moncore.sl_start <= takeover_at
          && takeover_at < s.Moncore.sl_start +. 50_000.
        then i
        else go (i + 1)
    in
    go 0
  in
  printf
    "@.takeover at %.0fus falls in slice %d of %d (50ms slices; window \
     around it shown):@."
    takeover_at tko_slice n;
  printf "%7s %10s %10s %8s %12s@." "slice" "t(ms)" "msgs" "parked"
    "ckpt bytes";
  for i = max 1 (tko_slice - 5) to min (n - 1) (tko_slice + 5) do
    printf "%6d%s %10.1f %10d %8d %12d@." i
      (if i = tko_slice then "*" else " ")
      (slices.(i).Moncore.sl_start /. 1000.)
      (delta_of i msg_i)
      slices.(i).Moncore.sl_gauges.(parked_i)
      (delta_of i ckpt_i)
  done;
  (* the dip: message throughput in the takeover window drops below the
     steady-state peak while the replay's checkpoint traffic lands *)
  let dip_msgs =
    min (delta_of tko_slice msg_i)
      (delta_of (min (n - 1) (tko_slice + 1)) msg_i)
  in
  let steady_msgs = ref 0 in
  for i = 1 to n - 1 do
    if i < tko_slice || i > tko_slice + 1 then
      steady_msgs := max !steady_msgs (delta_of i msg_i)
  done;
  let max_parked = ref 0 in
  Array.iter
    (fun s -> max_parked := max !max_parked s.Moncore.sl_gauges.(parked_i))
    slices;
  printf
    "dip: %d msgs in the takeover window vs %d at the steady peak; max \
     parked waiters %d@."
    dip_msgs !steady_msgs !max_parked;
  assert (dip_msgs < !steady_msgs);
  emit "e23" "tko_slices" (float_of_int n);
  emit "e23" "tko_dip_msgs" (float_of_int dip_msgs);
  emit "e23" "tko_steady_msgs" (float_of_int !steady_msgs);
  emit "e23" "tko_max_parked" (float_of_int !max_parked)

(* ------------------------------------------------------------------ *)
(* E24: multi-queue disk — IOPS and scan throughput vs queue depth      *)
(* ------------------------------------------------------------------ *)

let e24_disk_queue () =
  heading "E24" "multi-queue disk: IOPS and scan throughput vs queue depth"
    "the paper's disk process overlaps seeks across spindles; the \
     simulated volume generalizes its single busy-window to an \
     io_uring-style submission/completion queue of configurable depth — \
     depth 1 stays byte-identical to the historical device, deeper \
     queues overlap transfers for higher IOPS and faster cold scans \
     while every query answers exactly the same";
  let depths = [ 1; 2; 4; 8; 16 ] in
  (* --- part A: raw device IOPS, pipelined random reads ---------------- *)
  (* a fixed scatter of single-block reads pumped through the device with
     up to [depth] in flight: every depth sees the same address list, so
     the elapsed ratio is pure queue overlap *)
  let ios = 240 and vol_blocks = 4096 in
  let iops depth =
    let sim = Sim.create ~config:(Config.v ~disk_queue_depth:depth ()) () in
    let mc = Sim.moncore sim in
    Moncore.set_enabled mc ~now:(Sim.now sim) true;
    let d = Disk.create sim ~name:"$DATA" in
    ignore (Disk.allocate d vol_blocks);
    let pending = Queue.create () in
    let t0 = Sim.now sim in
    for i = 0 to ios - 1 do
      if Queue.length pending >= depth then
        ignore (Disk.complete d (Queue.pop pending));
      Queue.push (Disk.submit_read d ~first:(i * 997 mod vol_blocks) ~count:1)
        pending
    done;
    while not (Queue.is_empty pending) do
      ignore (Disk.complete d (Queue.pop pending))
    done;
    let elapsed = Sim.now sim -. t0 in
    let qh =
      match Moncore.hist mc "diskq:$DATA" with
      | Some h -> h
      | None -> failwith "E24: no depth-at-submission histogram"
    in
    let lh =
      match Moncore.hist mc "disk:$DATA" with
      | Some h -> h
      | None -> failwith "E24: no per-volume latency histogram"
    in
    ( float_of_int ios /. (elapsed /. 1e6),
      Hist.quantile qh 0.95,
      Hist.quantile lh 0.5,
      Hist.quantile lh 0.95 )
  in
  printf
    "raw device, %d scattered single-block reads pumped at depth \
     (per-volume submit→complete latency from the monitor):@."
    ios;
  printf "%-8s %10s %12s %14s %14s@." "depth" "IOPS" "queue p95"
    "latency p50" "latency p95";
  let iops_by_depth =
    List.map
      (fun depth ->
        let rate, q95, l50, l95 = iops depth in
        printf "%-8d %10.0f %12.1f %12.1fus %12.1fus@." depth rate q95 l50
          l95;
        (depth, rate))
      depths
  in
  let iops1 = List.assoc 1 iops_by_depth in
  let iops8 = List.assoc 8 iops_by_depth in
  (* queueing cannot make the device slower, and 8 channels over seeks
     dominated by positioning time must overlap substantially *)
  List.iter (fun (_, r) -> assert (r >= iops1)) iops_by_depth;
  assert (iops8 /. iops1 >= 1.5);
  (* --- part B: cold Wisconsin scan-drain throughput ------------------- *)
  (* the DP's deep read-ahead keeps [depth * bulk] blocks in flight
     (clamped to half the pool); the scan drains the same rowset at every
     depth, only the elapsed time moves *)
  let rows = 10_000 in
  let sql = "SELECT COUNT(*), SUM(unique1) FROM t" in
  let scan depth =
    let config = Config.v ~cache_blocks:256 ~disk_queue_depth:depth () in
    let node = N.create_node ~config ~volumes:1 () in
    get_ok ~ctx:"e24 wisc" (Wisconsin.create node ~name:"t" ~rows ());
    let s = N.session node in
    (* evict the freshly loaded table: fill the pool from a second one *)
    get_ok ~ctx:"e24 wisc2" (Wisconsin.create node ~name:"u" ~rows ());
    ignore (N.exec_exn s "SELECT COUNT(*) FROM u");
    let sim = N.sim node in
    Monitor.set_enabled sim true;
    let t0 = Sim.now sim in
    let r = N.exec_exn s sql in
    let elapsed = Sim.now sim -. t0 in
    let rowset =
      match r with
      | N.Rows rs -> Format.asprintf "%a" N.pp_rowset rs
      | _ -> assert false
    in
    let mc = Sim.moncore sim in
    let cats = Moncore.cat_snapshot mc in
    let total = Array.fold_left ( +. ) 0. cats in
    (* the monitor's exhaustive tiling survives the deep queue: category
       totals still sum to the clock delta exactly *)
    assert (total = Sim.now sim -. Moncore.start_now mc);
    (elapsed, rowset, cats.(Moncore.cat_index Moncore.C_disk))
  in
  let runs = List.map (fun d -> (d, scan d)) depths in
  let e1, rowset1, disk1 = List.assoc 1 runs in
  printf
    "@.cold scan drain, %d-row Wisconsin table (%s), deep read-ahead at \
     depth:@."
    rows sql;
  printf "%-8s %14s %10s %14s@." "depth" "elapsed" "speedup" "C_disk time";
  List.iter
    (fun (d, (e, rowset, disk_us)) ->
      assert (rowset = rowset1);
      assert (e <= e1);
      printf "%-8d %12.1fus %9.2fx %12.1fus@." d e (e1 /. e) disk_us)
    runs;
  let e8, _, disk8 = List.assoc 8 runs in
  (* the acceptance gate: ≥1.5x at depth 8, identical rowsets (checked
     above for every depth), blocking disk time squeezed by the overlap *)
  assert (e1 /. e8 >= 1.5);
  assert (disk8 < disk1);
  (* --- part C: DebitCredit under a deep queue ------------------------- *)
  (* OLTP rides the same device model: the money must still conserve *)
  let tx_check depth =
    let config =
      Config.v ~dp_lock_wait:true ~lock_wait_timeout_us:150_000.
        ~disk_queue_depth:depth ()
    in
    let node = N.create_node ~config ~volumes:2 () in
    let db =
      get_ok ~ctx:"e24 dc" (Debitcredit.setup_transfer node ~accounts:8)
    in
    let rep = Debitcredit.run_transfers db ~terminals:4 ~txs_per_terminal:25 () in
    assert (rep.Debitcredit.x_failed = 0);
    assert (rep.Debitcredit.x_committed = 100);
    let total =
      get_ok ~ctx:"e24 sum" (Debitcredit.transfer_balance_sum db)
    in
    (* conservation: transfers move money between accounts, never create
       or destroy it — 8 accounts seeded at 1000.0 each *)
    assert (total = 8. *. 1000.);
    rep.Debitcredit.x_committed
  in
  let c1 = tx_check 1 and c8 = tx_check 8 in
  printf
    "@.DebitCredit at depth 1 and 8: %d and %d transfers committed, \
     account balances conserved at both depths@."
    c1 c8;
  (* deterministic sim values only (the smoke diff is byte-for-byte) *)
  emit "e24" "iops_depth1" iops1;
  emit "e24" "iops_depth8" iops8;
  List.iter
    (fun (d, (e, _, _)) ->
      emit "e24" (fpr "scan_depth%d_us" d) e)
    runs;
  emit "e24" "scan_speedup_d8" (e1 /. e8)

(* ------------------------------------------------------------------ *)
(* the experiment registry and command line                             *)
(* ------------------------------------------------------------------ *)

let registry =
  [
    ("e1", "sequential read: record-at-a-time vs SBB", e1_rsbb_vs_record);
    ("e2", "Wisconsin selections: record vs RSBB vs VSBB", e2_vsbb_wisconsin);
    ("e3", "UPDATE via expression vs read-then-update", e3_update_subset);
    ("e4", "field-compressed vs full-image audit records",
     e4_audit_compression);
    ("e5", "cache optimizations for a key-range scan", e5_bulk_prefetch);
    ("e6", "write-behind of dirty sequential block strings", e6_write_behind);
    ("e7", "group-commit timer behaviour under load", e7_group_commit);
    ("e8", "DebitCredit: NonStop SQL vs ENSCRIBE", e8_debitcredit);
    ("e9", "Figure 2: access via alternate key", e9_figure2_trace);
    ("e10", "continuation re-drive protocol", e10_redrive);
    ("e11", "blocked sequential insert interface", e11_blocked_insert);
    ("e12", "virtual-block group locking", e12_vblock_locking);
    ("e13", "horizontally partitioned tables", e13_partitions);
    ("e14", "buffered update/delete where current", e14_apply_block);
    ("e15", "remote requester: VSBB across the network", e15_remote_requester);
    ("e16", "network transactions: two-phase commit cost", e16_distributed_tx);
    ("e17", "parallel partitioned scan via nowait fan-out", e17_parallel_scan);
    ("e18", "aggregate evaluation at the data source", e18_agg_pushdown);
    ("e19", "span profile attributes messages to operators",
     e19_profile_attribution);
    ("e20", "multi-terminal contention: waits, deadlocks, retries",
     e20_contention);
    ("e21", "process-pair takeover under live traffic", e21_takeover);
    ("e22", "push-based batched executor", e22_batched_executor);
    ("e23", "resource monitor: latency percentiles and utilization",
     e23_monitor);
    ("e24", "multi-queue disk: IOPS and scan throughput vs queue depth",
     e24_disk_queue);
    ("a1", "ablation: VSBB reply-buffer size", a1_vsbb_buffer);
    ("micro", "Bechamel micro-benchmarks over the core paths",
     micro_benchmarks);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--list] [--only e1,e17,...] [--json results.json] \
     [--trace DIR] [--monitor DIR]\n\
     experiment ids: e1-e24, a1, micro (--list for descriptions)";
  exit 2

(* --trace: enable span collection on every simulation world an experiment
   creates (via the tracer creation hook) and write one Chrome trace-event
   file per experiment. Tracing never perturbs the simulation, so results
   are identical with and without the flag. *)
let ensure_dir dir =
  (try
     if not (Sys.is_directory dir) then begin
       prerr_endline (dir ^ " is not a directory");
       exit 2
     end
   with Sys_error _ -> Sys.mkdir dir 0o755)

let run_with_trace dir (id, _, f) =
  let worlds = ref [] in
  Tracer.creation_hook :=
    Some
      (fun tr ->
        Tracer.set_enabled tr true;
        worlds := tr :: !worlds);
  Fun.protect
    ~finally:(fun () -> Tracer.creation_hook := None)
    f;
  let spans = List.map Tracer.take (List.rev !worlds) in
  let path = Filename.concat dir (id ^ ".json") in
  let oc = open_out path in
  output_string oc (Trace.chrome_json spans);
  close_out oc;
  printf "trace written to %s (%d worlds, %d spans)@." path
    (List.length spans)
    (List.fold_left (fun a l -> a + List.length l) 0 spans)

(* --monitor: turn the resource monitor on for every simulation world an
   experiment creates (via the moncore creation hook) and export one
   monitor JSON file per experiment. Like --trace, the flag never perturbs
   the simulation — results are identical with and without it, and the
   exports themselves are byte-identical across runs (CI diffs them). *)
let run_with_monitor dir (id, _, f) =
  let worlds = ref [] in
  Moncore.creation_hook :=
    Some
      (fun mc ->
        Moncore.set_enabled mc ~now:0. true;
        worlds := mc :: !worlds);
  Fun.protect
    ~finally:(fun () -> Moncore.creation_hook := None)
    f;
  let path = Filename.concat dir (id ^ ".monitor.json") in
  let oc = open_out path in
  output_string oc (Monitor.json_of_moncores (List.rev !worlds));
  close_out oc;
  printf "monitor export written to %s (%d worlds)@." path
    (List.length !worlds)

let () =
  let json_path = ref None in
  let trace_dir = ref None in
  let monitor_dir = ref None in
  let only = ref None in
  let list_only = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        parse_args rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse_args rest
    | "--trace" :: dir :: rest ->
        trace_dir := Some dir;
        parse_args rest
    | "--monitor" :: dir :: rest ->
        monitor_dir := Some dir;
        parse_args rest
    | "--only" :: ids :: rest ->
        let ids =
          String.split_on_char ',' ids
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        List.iter
          (fun id ->
            if not (List.exists (fun (id', _, _) -> id = id') registry)
            then begin
              prerr_endline ("unknown experiment id: " ^ id);
              usage ()
            end)
          ids;
        only := Some ids;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter (fun (id, desc, _) -> printf "%-6s %s@." id desc) registry;
    exit 0
  end;
  let chosen =
    match !only with
    | None -> registry
    | Some ids -> List.filter (fun (id, _, _) -> List.mem id ids) registry
  in
  printf "NonStop SQL reproduction — experiment harness@.";
  printf
    "(see DESIGN.md for the experiment index, EXPERIMENTS.md for the \
     paper-vs-measured discussion)@.";
  let runner =
    match (!trace_dir, !monitor_dir) with
    | None, None -> fun (_, _, f) -> f ()
    | Some dir, None ->
        ensure_dir dir;
        run_with_trace dir
    | None, Some dir ->
        ensure_dir dir;
        run_with_monitor dir
    | Some tdir, Some mdir ->
        ensure_dir tdir;
        ensure_dir mdir;
        fun exp -> run_with_trace tdir (match exp with
          | (id, desc, f) -> (id, desc, fun () -> run_with_monitor mdir (id, desc, f)))
  in
  List.iter runner chosen;
  (match !json_path with
  | None -> ()
  | Some path ->
      write_json path;
      printf "@.machine-readable results written to %s@." path);
  printf "@.all experiments complete.@."

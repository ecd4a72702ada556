(* The traced run's per-layer numbers. Counts come from the timed phase's
   Stats delta; simulated time per layer from the program's own Tracer
   spans and Moncore categories, switched on through their creation hooks;
   host time per layer from probes: the benchmark times its own calls into
   each layer's public functions on the workload's data. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Tracer = Nsql_sim.Tracer
module Moncore = Nsql_sim.Moncore
module Hist = Nsql_sim.Hist
module Trace = Nsql_trace.Trace
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Btree = Nsql_store.Btree
module Parser = Nsql_sql.Parser
module Planner = Nsql_sql.Planner
module Catalog = Nsql_sql.Catalog
module Ast = Nsql_sql.Ast
module Errors = Nsql_util.Errors
module W = Workloads

let now_ns = Runner.now_ns
let secs_since = Runner.secs_since

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* --- span accounting ------------------------------------------------- *)

let span_cats = [ "stmt"; "op"; "fs"; "msg"; "dp"; "cache"; "disk"; "lock"; "tmf" ]

type spans = {
  count : (string, int) Hashtbl.t;
  self_us : (string, float) Hashtbl.t;  (** duration minus child coverage *)
  mutable dropped : int;
}

let spans () = { count = Hashtbl.create 16; self_us = Hashtbl.create 16; dropped = 0 }

let bump tbl k v zero add =
  Hashtbl.replace tbl k (add v (Option.value ~default:zero (Hashtbl.find_opt tbl k)))

(* length of the union of intervals sorted by start *)
let covered ivs =
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

let absorb acc (sps : Tracer.span list) =
  let children = Hashtbl.create 256 in
  List.iter
    (fun (sp : Tracer.span) ->
      match sp.sp_parent with
      | Some p -> Hashtbl.add children p sp
      | None -> ())
    sps;
  List.iter
    (fun (sp : Tracer.span) ->
      let lo = sp.sp_start and hi = sp.sp_end in
      let ivs =
        List.filter_map
          (fun (c : Tracer.span) ->
            let a = Float.max lo c.sp_start and b = Float.min hi c.sp_end in
            if b > a then Some (a, b) else None)
          (Hashtbl.find_all children sp.sp_id)
        |> List.sort compare
      in
      bump acc.count sp.sp_cat 1 0 ( + );
      bump acc.self_us sp.sp_cat (hi -. lo -. covered ivs) 0. ( +. ))
    sps

(* --- the traced round ------------------------------------------------ *)

type traced = {
  round : Runner.round;
  spans : spans;
  hists : (string * Hist.t) list;  (** Moncore histograms, timed phase *)
}

(* One round with the program's Tracer and Moncore switched on for the
   world it builds. Spans are drained after every operation, so the ring
   never wraps inside the timed phase and each span is counted once. *)
let traced_round (w : W.t) plan =
  let acc = spans () in
  let sim = ref None and hists = ref [] and active = ref false in
  let drain () =
    match !sim with
    | Some s when !active ->
        acc.dropped <- acc.dropped + Trace.dropped s;
        absorb acc (Trace.take s)
    | _ -> ()
  in
  let hooks =
    Runner.
      {
        phase_start =
          (fun node ->
            let s = N.sim node in
            sim := Some s;
            ignore (Trace.take s);
            Moncore.clear (Sim.moncore s) ~now:(Sim.now s);
            active := true);
        after_op = drain;
        phase_end =
          (fun () ->
            active := false;
            match !sim with
            | Some s -> hists := Moncore.hists (Sim.moncore s)
            | None -> ());
      }
  in
  Tracer.creation_hook := Some (fun tr -> Tracer.set_enabled tr true);
  Moncore.creation_hook :=
    Some (fun mc -> Moncore.set_enabled mc ~now:0. true);
  let _, round =
    Fun.protect
      ~finally:(fun () ->
        Tracer.creation_hook := None;
        Moncore.creation_hook := None)
      (fun () -> Runner.run ~hooks w plan)
  in
  { round; spans = acc; hists = !hists }

(* --- host-time probes ------------------------------------------------- *)

(* median host seconds of [f] over passes repeated until [budget_s] is
   spent, at least three *)
let per_pass ?(budget_s = 0.15) f =
  let times = ref [] and t_start = now_ns () in
  while List.length !times < 3 || secs_since t_start < budget_s do
    let t0 = now_ns () in
    f ();
    times := secs_since t0 :: !times
  done;
  median !times

let ok = function Ok v -> v | Error e -> failwith (Errors.to_string e)

let primary_path cat sql =
  match ok (Parser.parse sql) with
  | Ast.St_select sel -> (
      let plan = ok (Planner.plan_select cat sel) in
      match plan.Planner.p_access with
      | Planner.Ap_primary { access; range; pred; proj } ->
          (plan.Planner.p_table, access, range, pred, proj)
      | Planner.Ap_index _ -> failwith ("probe query uses an index: " ^ sql))
  | _ -> failwith ("probe query is not a SELECT: " ^ sql)

let compile cat sql =
  match ok (Parser.parse sql) with
  | Ast.St_select sel -> ignore (ok (Planner.plan_select cat sel))
  | Ast.St_update { u_table; u_sets; u_where } ->
      ignore (ok (Planner.plan_update cat ~table:u_table ~sets:u_sets ~where:u_where))
  | Ast.St_delete { d_table; d_where } ->
      ignore (ok (Planner.plan_delete cat ~table:d_table ~where:d_where))
  | _ -> ()

type probes = {
  parse_us : float;
  compile_us : float;
  drain_ns_per_row : float;
  codec_ns_per_byte : float;
  eval_ns_per_row : float;
  decode_ns_per_row : float;
  encode_ns_per_row : float;
  seek_us : float;
  advance_ns : float;
  lookup_us : float;
}

(* the standalone tree: its own Sim, Disk and Cache, the same encoded rows
   and the workload's pool size *)
let store_probe config schema rows r =
  let sim = Sim.create ~config () in
  let disk = Disk.create sim ~name:"$PROBE" in
  let cache =
    Cache.create sim disk ~capacity:config.Config.cache_blocks
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:ignore
  in
  let bt = Btree.create sim cache ~name:"probe" in
  let entries =
    Array.to_list
      (Array.map (fun row -> (Row.key_of_row schema row, Row.encode schema row)) rows)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  ok (Btree.load_sorted bt entries ~lsn:1L);
  let keys = Array.of_list (List.map fst entries) in
  let probes = Array.init 256 (fun _ -> keys.(Gen.int r (Array.length keys))) in
  let nk = fi (Array.length probes) in
  let seek = per_pass (fun () -> Array.iter (fun k -> ignore (Btree.seek bt k)) probes) in
  let lookup = per_pass (fun () -> Array.iter (fun k -> ignore (Btree.lookup bt k)) probes) in
  let walk =
    per_pass (fun () ->
        let rec go c =
          match Btree.cursor_entry bt c with
          | None -> ()
          | Some _ -> go (Btree.advance bt c)
        in
        go (Btree.seek bt ""))
  in
  (seek /. nk *. 1e6, walk /. fi (Array.length keys) *. 1e9, lookup /. nk *. 1e6)

let probes (w : W.t) ~seed node (plan : W.plan) =
  let cat = N.catalog node in
  let pred_sql, range_sqls, rows = w.probe ~seed in
  let stmts = List.concat_map (fun (op : W.op) -> op.stmts) plan.timed in
  let nstmts = fi (List.length stmts) in
  let parse = per_pass (fun () -> List.iter (fun q -> ignore (Parser.parse q)) stmts) in
  let comp = per_pass (fun () -> List.iter (compile cat) stmts) in
  (* scan drain: the File System's scan API over the workload's ranges *)
  let fs = N.fs node and s = N.session node in
  let paths = List.map (primary_path cat) range_sqls in
  let drained = ref 0 in
  let drain () =
    ok
      (N.in_tx s (fun tx ->
           List.iter
             (fun ((tbl : Catalog.table), access, range, pred, proj) ->
               let sc =
                 Fs.open_scan fs tbl.t_file ~tx ~access ~range ?pred ?proj
                   ~lock:Dp_msg.L_none ()
               in
               Fun.protect
                 ~finally:(fun () -> Fs.close_scan fs sc)
                 (fun () ->
                   let rec go () =
                     match ok (Fs.scan_next_batch fs sc) with
                     | None -> ()
                     | Some b ->
                         drained := !drained + Array.length b;
                         go ()
                   in
                   go ()))
             paths;
           Ok ()))
  in
  drain ();
  let per_drain = !drained in
  let drain_s = per_pass drain in
  (* the VSBB reply codec over reply buffers of the workload's rows *)
  let schema = (ok (Catalog.find cat w.probe_table)).t_schema in
  let buf_bytes = w.config.Config.vsbb_buffer_bytes in
  let replies =
    let blocks = ref [] and cur = ref [] and bytes = ref 0 in
    Array.iter
      (fun row ->
        cur := row :: !cur;
        bytes := !bytes + Row.encoded_size schema row;
        if !bytes >= buf_bytes then begin
          blocks := List.rev !cur :: !blocks;
          cur := [];
          bytes := 0
        end)
      rows;
    if !cur <> [] then blocks := List.rev !cur :: !blocks;
    List.rev_map
      (fun rows -> Dp_msg.Rp_vblock { rows; last_key = ""; more = true; scb = 1 })
      !blocks
  in
  let reply_bytes =
    List.fold_left (fun a r -> a + String.length (Dp_msg.encode_reply r)) 0 replies
  in
  let codec =
    per_pass (fun () ->
        List.iter
          (fun r -> ignore (Dp_msg.decode_reply (Dp_msg.encode_reply r)))
          replies)
  in
  (* predicate and row codec over the reference rows *)
  let _, _, _, pred, _ = primary_path cat pred_sql in
  let pred = match pred with Some p -> p | None -> failwith "probe predicate absorbed" in
  let nrows = fi (Array.length rows) in
  let eval = per_pass (fun () -> Array.iter (fun r -> ignore (Expr.eval_pred r pred)) rows) in
  let encoded = Array.map (Row.encode schema) rows in
  let enc = per_pass (fun () -> Array.iter (fun r -> ignore (Row.encode schema r)) rows) in
  let dec = per_pass (fun () -> Array.iter (fun e -> ignore (Row.decode schema e)) encoded) in
  let seek_us, advance_ns, lookup_us =
    store_probe w.config schema rows (Gen.rng ~seed ~salt:9)
  in
  {
    parse_us = parse /. nstmts *. 1e6;
    compile_us = comp /. nstmts *. 1e6;
    drain_ns_per_row = drain_s /. fi (max 1 per_drain) *. 1e9;
    codec_ns_per_byte = codec /. fi (max 1 reply_bytes) *. 1e9;
    eval_ns_per_row = eval /. nrows *. 1e9;
    decode_ns_per_row = dec /. nrows *. 1e9;
    encode_ns_per_row = enc /. nrows *. 1e9;
    seek_us;
    advance_ns;
    lookup_us;
  }

(* --- the ROADMAP baseline shapes -------------------------------------- *)

(* The host-clock table in ROADMAP.md was taken on one volume with the
   default configuration and a 10k-row Wisconsin table: a warm row count,
   the E22 GROUP BY and a 10% UPDATE. Measured the same way here so the
   trajectory keeps that baseline. *)
let roadmap_shapes rows =
  let node = N.create_node ~volumes:1 () in
  ok (Nsql_workload.Wisconsin.create node ~name:"t" ~rows ());
  let s = N.session node in
  let time sql =
    ignore (ok (N.exec s sql));
    per_pass ~budget_s:0.3 (fun () -> ignore (ok (N.exec s sql))) *. 1e3
  in
  ( time "SELECT COUNT(*) FROM t",
    time
      "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t GROUP BY \
       onepercent",
    time
      (Printf.sprintf "UPDATE t SET unique3 = unique3 + 1 WHERE unique2 < %d"
         (rows / 10)) )

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let per_layer ~(untraced : Runner.round) (t : traced) (p : probes)
    ~roadmap:(count_ms, group_ms, update_ms) =
  let r = t.round in
  let d = r.delta in
  let ops = fi r.attempted in
  let per_op x = fi x /. ops in
  let hq name q =
    match List.assoc_opt name t.hists with
    | Some h -> Hist.quantile h q
    | None -> 0.
  in
  let cat c = r.cats_us.(Moncore.cat_index c) /. 1e3 /. ops in
  let span_metrics =
    List.concat_map
      (fun c ->
        [
          m (Printf.sprintf "trace.%s.span_self_sim_ms_per_op" c) "sim_ms"
            (Option.value ~default:0. (Hashtbl.find_opt t.spans.self_us c) /. 1e3 /. ops);
          m (Printf.sprintf "trace.%s.spans_per_op" c) "count"
            (per_op (Option.value ~default:0 (Hashtbl.find_opt t.spans.count c)));
        ])
      span_cats
  in
  [
    m "sql.parse_us_per_stmt" "us" p.parse_us;
    m "sql.compile_us_per_stmt" "us" p.compile_us;
    m "sql.exec_rows_per_batch" "rows" (ratio (fi d.exec_rows) (fi d.exec_batches));
    m "core.exec_us_per_stmt" "us"
      (ratio untraced.exec.exec_s (fi untraced.exec.stmts) *. 1e6);
    m "fs.redrives_per_op" "count" (per_op d.redrives);
    m "fs.rows_per_reply" "rows" (ratio (fi d.records_returned) (fi d.msgs_sent));
    m "fs.scan_drain_ns_per_row" "ns" p.drain_ns_per_row;
    m "msg.req_bytes_per_op" "bytes" (per_op d.msg_req_bytes);
    m "msg.reply_bytes_per_op" "bytes" (per_op d.msg_reply_bytes);
    m "msg.remote_share" "ratio" (ratio (fi d.msgs_remote) (fi d.msgs_sent));
    m "msg.checkpoint_msgs_per_op" "count" (per_op d.checkpoint_msgs);
    m "msg.checkpoint_bytes_per_op" "bytes" (per_op d.checkpoint_bytes);
    m "dp.records_read_per_op" "count" (per_op d.records_read);
    m "dp.records_returned_per_op" "count" (per_op d.records_returned);
    m "dp.selectivity" "ratio" (ratio (fi d.records_returned) (fi d.records_read));
    m "dp.request_sim_p50_us" "sim_us" (hq "dp" 0.5);
    m "dp.request_sim_p95_us" "sim_us" (hq "dp" 0.95);
    m "dp_msg.reply_codec_ns_per_byte" "ns" p.codec_ns_per_byte;
    m "expr.eval_pred_ns_per_row" "ns" p.eval_ns_per_row;
    m "row.decode_ns_per_row" "ns" p.decode_ns_per_row;
    m "row.encode_ns_per_row" "ns" p.encode_ns_per_row;
    m "store.seek_us" "us" p.seek_us;
    m "store.advance_ns_per_record" "ns" p.advance_ns;
    m "store.lookup_us" "us" p.lookup_us;
    m "cache.page_accesses_per_record" "count"
      (ratio (fi (d.cache_hits + d.cache_misses)) (fi d.records_read));
    m "cache.hit_ratio" "ratio"
      (ratio (fi d.cache_hits) (fi (d.cache_hits + d.cache_misses)));
    m "cache.misses_per_op" "count" (per_op d.cache_misses);
    m "cache.steals" "count" (fi d.cache_steals);
    m "disk.reads_per_op" "count" (per_op d.disk_reads);
    m "disk.writes_per_op" "count" (per_op d.disk_writes);
    m "disk.blocks_per_read" "blocks" (ratio (fi d.blocks_read) (fi d.disk_reads));
    m "disk.bulk_reads_per_op" "count" (per_op d.bulk_reads);
    m "disk.prefetch_reads_per_op" "count" (per_op d.prefetch_reads);
    m "disk.writebehind_writes_per_op" "count" (per_op d.writebehind_writes);
    m "disk.blocks_read_per_miss" "blocks" (ratio (fi d.blocks_read) (fi d.cache_misses));
    m "disk.transient_errors" "count" (fi d.disk_transient_errors);
    m "disk.latency_sim_p95_us" "sim_us" (hq "disk" 0.95);
    m "lock.requests_per_op" "count" (per_op d.lock_requests);
    m "lock.conflicts_per_op" "count" (per_op d.lock_conflicts);
    m "lock.waits_per_op" "count" (per_op d.lock_waits);
    m "lock.wait_sim_p95_us" "sim_us" (hq "lock_wait" 0.95);
    m "audit.records_per_op" "count" (per_op d.audit_records);
    m "audit.bytes_per_op" "bytes" (per_op d.audit_bytes);
    m "audit.flushes_per_op" "count" (per_op d.audit_flushes);
    m "audit.flush_full_share" "ratio" (ratio (fi d.audit_flush_full) (fi d.audit_flushes));
    m "tmf.txs_per_group_commit" "count" (ratio (fi d.group_commit_txs) (fi d.audit_flushes));
    m "tmf.restart_records_replayed" "count" (fi r.replayed);
    m "sim.cpu_ticks_per_op" "count" (per_op d.cpu_ticks);
    m "sim.time.compute_ms_per_op" "sim_ms" (cat Moncore.C_compute);
    m "sim.time.msg_ms_per_op" "sim_ms" (cat Moncore.C_msg);
    m "sim.time.disk_ms_per_op" "sim_ms" (cat Moncore.C_disk);
    m "sim.time.lockwait_ms_per_op" "sim_ms" (cat Moncore.C_lockwait);
    m "sim.time.ckpt_ms_per_op" "sim_ms" (cat Moncore.C_ckpt);
    m "sim.time.await_ms_per_op" "sim_ms" (cat Moncore.C_await);
    m "sim.time.other_ms_per_op" "sim_ms" (cat Moncore.C_other);
  ]
  @ span_metrics
  @ [
      m "trace.host_overhead_ratio" "ratio" (ratio r.phase_host_s untraced.phase_host_s);
      m "trace.dropped_spans" "count" (fi t.spans.dropped);
      m "roadmap.count_star_ms" "ms" count_ms;
      m "roadmap.group_by_ms" "ms" group_ms;
      m "roadmap.update_10pct_ms" "ms" update_ms;
    ]

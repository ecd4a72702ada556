(* Goldens for the push-based batched executor: for every query shape of
   the generator below, an UPDATE+DELETE pair and the published Wisconsin
   suite, each with and without a chaos fault filter delaying and flapping
   the Disk Processes, the rowset digest, the whole [Stats.to_assoc]
   vector (messages, bytes, locks, batches, rows) and the simulated clock
   are pinned. They were captured while the row-at-a-time pull engine
   still ran beside the batched one and agreed with it on every scenario,
   so each constant is the pull reference's output too: the batching is an
   implementation change only, and any divergence from a golden is a bug. *)

module N = Nsql_core.Nonstop_sql
module Sim = Nsql_sim.Sim
module Msg = Nsql_msg.Msg
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin

let get_ok = Errors.get_ok
let fpr = Printf.sprintf
let rows = 240
let parts = 4

(* a tiny deterministic generator: one seed fixes the whole scenario *)
let prng seed =
  let state = ref (max 1 (seed land 0x3FFFFFFF)) in
  fun n ->
    state := (!state * 48271 + 13) land 0x3FFFFFFF;
    !state mod n

let random_where next =
  match next 7 with
  | 0 -> ""
  | 1 -> fpr " WHERE unique1 < %d" (next rows)
  | 2 -> fpr " WHERE tenpercent = %d" (next 10)
  | 3 ->
      let lo = next rows in
      fpr " WHERE unique2 >= %d AND unique2 < %d" lo (lo + 1 + next rows)
  | 4 -> fpr " WHERE two = 0 OR onepercent = %d" (next (1 + (rows / 100)))
  | 5 ->
      (* equality on the secondary-indexed column: exercises the
         index-scan batch path *)
      fpr " WHERE onepercent = %d" (next (1 + (rows / 100)))
  | _ -> fpr " WHERE four = %d AND unique1 >= %d" (next 4) (next rows)

(* the query shapes cover every batched operator: scan + residual filter,
   projection, grouped and grand aggregates with HAVING, ORDER BY,
   DISTINCT, LIMIT, and the keyed and scan joins *)
let random_select next =
  let where = random_where next in
  match next 8 with
  | 0 -> fpr "SELECT unique1, unique2, stringu1 FROM t%s" where
  | 1 -> fpr "SELECT * FROM t%s" where
  | 2 ->
      fpr "SELECT onepercent, COUNT(*), SUM(unique1), MIN(unique2) FROM t%s GROUP BY onepercent"
        where
  | 3 ->
      fpr
        "SELECT tenpercent, AVG(unique1) FROM t%s GROUP BY tenpercent HAVING COUNT(*) > %d"
        where (next 8)
  | 4 -> fpr "SELECT unique1, stringu1 FROM t%s ORDER BY unique1 DESC LIMIT %d" where (1 + next 20)
  | 5 -> fpr "SELECT DISTINCT four, twenty FROM t%s ORDER BY four, twenty" where
  | 6 ->
      fpr "SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 = b.unique2 AND a.unique1 < %d"
        (next (rows / 2))
  | _ ->
      fpr "SELECT COUNT(*), SUM(unique1), MIN(unique2), MAX(unique3), AVG(two) FROM t%s"
        where

(* chaos: deterministic delays and path flaps keyed on (seed, dest, tag);
   delivery always succeeds, only latencies and arrival order move *)
let install_chaos node seed =
  Msg.set_fault_filter (N.msys node)
    (Some
       (fun ~from:_ ~to_name ~tag ->
         match Hashtbl.hash (seed, to_name, tag) mod 5 with
         | 0 -> Msg.Fault_delay (float_of_int (Hashtbl.hash (to_name, seed) mod 700))
         | 1 -> Msg.Fault_path_retry (float_of_int (Hashtbl.hash (tag, seed) mod 300))
         | _ -> Msg.Fault_pass))

let make_node ~chaos seed =
  let node = N.create_node ~volumes:4 () in
  get_ok ~ctx:"wisc" (Wisconsin.create node ~name:"t" ~rows ~partitions:parts ());
  get_ok ~ctx:"wisc2" (Wisconsin.create node ~name:"t2" ~rows:(rows / 2) ());
  ignore (N.exec_exn (N.session node) "CREATE INDEX t_op ON t (onepercent)");
  if chaos then install_chaos node seed;
  node

let run_sql node sql =
  match N.exec_exn (N.session node) sql with
  | N.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail ("not a rowset: " ^ sql)

(* seeds whose generated SELECT takes shapes 0 to 7 in turn; their WHERE
   clauses are a residual filter, key ranges, an OR, none, a conjunction
   and an index equality *)
let select_seeds = [ 5; 17; 10; 2; 20; 21; 6; 22 ]

let select_scenario ~chaos seed =
  let sql = random_select (prng seed) in
  let node = make_node ~chaos seed in
  let rows = run_sql node sql in
  String.concat "\n" [ sql; Golden.digest rows; Golden.fingerprint node ]

(* the DML drivers: an UPDATE and a DELETE, then a probe of the table *)
let dml_seeds = [ 2; 4 ]

let dml_scenario ~chaos seed =
  let next = prng seed in
  let upd =
    fpr "UPDATE t SET unique3 = unique3 + %d, stringu1 = 'touched'%s"
      (1 + next 50) (random_where next)
  in
  let del = fpr "DELETE FROM t%s" (random_where next) in
  let node = make_node ~chaos seed in
  let s = N.session node in
  let affected stmt =
    match N.exec_exn s stmt with
    | N.Affected n -> fpr "%s: %d" stmt n
    | _ -> Alcotest.fail ("not a DML result: " ^ stmt)
  in
  let upd = affected upd in
  let del = affected del in
  let probe = run_sql node "SELECT unique2, unique3, stringu1 FROM t" in
  String.concat "\n" [ upd; del; Golden.digest probe; Golden.fingerprint node ]

(* the published Wisconsin suite on one node, query by query *)
let wisconsin_scenario ~chaos =
  let node = make_node ~chaos 1 in
  let lines =
    List.map
      (fun q ->
        let rows = run_sql node q.Wisconsin.q_sql in
        fpr "%s: %s now=%.6f" q.Wisconsin.q_id (Golden.digest rows)
          (Sim.now (N.sim node)))
      (Wisconsin.selection_queries ~table:"t" ~rows
      @ Wisconsin.agg_and_join_queries ~table:"t" ~table2:"t2" ~rows)
  in
  String.concat "\n" (lines @ [ Golden.fingerprint node ])

let check_goldens name scenarios goldens () =
  List.iter2
    (fun (label, run) expected ->
      Alcotest.(check string) (name ^ " " ^ label) expected (run ()))
    scenarios goldens

let seeded run seeds =
  List.map (fun seed -> (fpr "seed %d" seed, fun () -> run seed)) seeds

let case ~chaos name scenarios goldens =
  let name = if chaos then name ^ " (under chaos)" else name in
  Alcotest.test_case name `Quick (check_goldens name scenarios goldens)

let suite =
  let both name scenarios goldens goldens_chaos =
    [
      case ~chaos:false name (scenarios ~chaos:false) goldens;
      case ~chaos:true name (scenarios ~chaos:true) goldens_chaos;
    ]
  in
  both "batched select = pull select"
    (fun ~chaos -> seeded (select_scenario ~chaos) select_seeds)
    Batch_goldens.select Batch_goldens.select_chaos
  @ both "batched DML = pull DML"
      (fun ~chaos -> seeded (dml_scenario ~chaos) dml_seeds)
      Batch_goldens.dml Batch_goldens.dml_chaos
  @ both "Wisconsin suite: batched = pull"
      (fun ~chaos -> [ ("suite", fun () -> wisconsin_scenario ~chaos) ])
      [ Batch_goldens.wisconsin ] [ Batch_goldens.wisconsin_chaos ]

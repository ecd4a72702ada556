(* The three workloads. Each is a load, a seeded operation list and the
   output checks; the library receives only SQL text (and, for loading,
   the generator parameters of lib/workload). One operation is one query,
   one statement or one transaction. *)

module N = Nsql_core.Nonstop_sql
module Row = Nsql_row.Row
module Config = Nsql_sim.Config
module Errors = Nsql_util.Errors
module Wisconsin = Nsql_workload.Wisconsin
module Debitcredit = Nsql_workload.Debitcredit

type check = N.exec_result list -> (unit, string) result

type op = {
  stmts : string list;  (** sent to the library in order *)
  check : check;  (** checks the statements' results against the model *)
}

(* [warmup] runs once after the load, untimed; [timed] is the measured
   phase; [verify] re-checks the final state before and after restart *)
type plan = { warmup : op list; timed : op list; verify : op list }

type scale = {
  rows : int;  (** Wisconsin [t] *)
  rows2 : int;  (** Wisconsin [t2], the join's inner table *)
  wisc_cache_blocks : int;
  scan_rounds : int;  (** wisc_scan: passes over the ten query shapes *)
  update_rounds : int;  (** wisc_update: passes over the six-op mix *)
  accounts : int;
  tellers : int;
  branches : int;
  warm_txs : int;
  txs : int;
}

(* The benchmark's size. [t] is 10k rows of ~270 bytes, about 2x the
   128-block pool per volume, so wisc_* are larger than cache; the
   DebitCredit tables fit in the default 512-block pool. *)
let full =
  {
    rows = 10_000;
    rows2 = 1_000;
    wisc_cache_blocks = 128;
    scan_rounds = 4;
    update_rounds = 10;
    accounts = 1000;
    tellers = 100;
    branches = 10;
    warm_txs = 100;
    txs = 2000;
  }

(* every workload's data sits on two Disk Process volumes *)
let volumes = 2

type t = {
  name : string;
  config : Config.t;
  load : N.node -> (unit, Errors.t) result;
  plan : seed:int -> plan;
  probe_table : string;
  probe : seed:int -> string * string list * Row.row array;
      (** inputs of the per-layer probes: a query whose predicate runs at
          the data source, key-range queries to drain, and the reference
          rows of [probe_table] *)
}

(* --- checks -------------------------------------------------------------- *)

let show_row r = Format.asprintf "%a" Row.pp_row r

let single = function
  | [ r ] -> Ok r
  | rs -> Error (Printf.sprintf "expected one result, got %d" (List.length rs))

let rows_of results =
  match single results with
  | Ok (N.Rows rs) -> Ok rs.Nsql_sql.Executor.rows
  | Ok r -> Error (Format.asprintf "expected rows, got %a" N.pp_exec_result r)
  | Error e -> Error e

let by_col c (a : Row.row) (b : Row.row) = Row.compare_value a.(c) b.(c)

(* the answer, compared as a multiset ordered by column [key] *)
let expect_rows ~key (expected : Row.row list) : check =
 fun results ->
  match rows_of results with
  | Error e -> Error e
  | Ok got ->
      let got = List.sort (by_col key) got in
      let expected = List.sort (by_col key) expected in
      let ng = List.length got and ne = List.length expected in
      if ng <> ne then Error (Printf.sprintf "%d rows, expected %d" ng ne)
      else
        List.fold_left2
          (fun acc g e ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                if Row.equal_row g e then Ok ()
                else
                  Error
                    (Printf.sprintf "row %s, expected %s" (show_row g)
                       (show_row e)))
          (Ok ()) got expected

let expect_affected n : check =
 fun results ->
  match single results with
  | Ok (N.Affected m) when m = n -> Ok ()
  | Ok r ->
      Error (Format.asprintf "%a, expected %d affected" N.pp_exec_result r n)
  | Error e -> Error e

let expect_results (expected : N.exec_result list) : check =
 fun results ->
  let same a b =
    match (a, b) with
    | N.Done, N.Done -> true
    | N.Affected x, N.Affected y -> x = y
    | _ -> false
  in
  if List.length results = List.length expected
     && List.for_all2 same results expected
  then Ok ()
  else
    Error
      (String.concat "; "
         (List.map (Format.asprintf "%a" N.pp_exec_result) results))

let range lo n = List.init n (fun i -> lo + i)

(* --- Wisconsin ----------------------------------------------------------- *)

let wisc_config sc = Config.v ~cache_blocks:sc.wisc_cache_blocks ()

let wisc_load sc node =
  let open Errors in
  let* () = Wisconsin.create node ~name:"t" ~rows:sc.rows ~partitions:2 () in
  Wisconsin.create node ~name:"t2" ~rows:sc.rows2 ()

(* per onepercent group: MIN and SUM of unique2 *)
let group_answers (w : Gen.wisc) =
  let g = max 1 (w.n / 100) in
  let mins = Array.make g max_int and sums = Array.make g 0 in
  Array.iteri
    (fun u2 u1 ->
      let k = u1 mod g in
      mins.(k) <- min mins.(k) u2;
      sums.(k) <- sums.(k) + u2)
    w.u1;
  (mins, sums)

(* the W1-W6, W20-W22 and W30 shapes of lib/workload/wisconsin.ml, with
   range starts and keys drawn from [r] *)
let scan_shapes (w : Gen.wisc) (w2 : Gen.wisc) (mins, sums) r =
  let n = w.n in
  let one = max 1 (n / 100) and ten = max 1 (n / 10) in
  let start width = Gen.int r (n - width + 1) in
  let full_row_u2 u2 = Gen.row_of_u2 w u2 in
  let q sql check = { stmts = [ sql ]; check } in
  let q1 =
    let a = start one in
    q
      (Printf.sprintf "SELECT * FROM t WHERE unique2 >= %d AND unique2 < %d" a
         (a + one))
      (expect_rows ~key:Gen.c_unique2 (List.map full_row_u2 (range a one)))
  in
  let q2 =
    let a = start ten in
    q
      (Printf.sprintf "SELECT * FROM t WHERE unique2 >= %d AND unique2 < %d" a
         (a + ten))
      (expect_rows ~key:Gen.c_unique2 (List.map full_row_u2 (range a ten)))
  in
  let q3 =
    let a = start one in
    q
      (Printf.sprintf "SELECT * FROM t WHERE unique1 >= %d AND unique1 < %d" a
         (a + one))
      (expect_rows ~key:Gen.c_unique2
         (List.map (fun u1 -> full_row_u2 w.u2_of_u1.(u1)) (range a one)))
  in
  let q4 =
    let a = start one in
    q
      (Printf.sprintf
         "SELECT unique1, stringu1 FROM t WHERE unique1 >= %d AND unique1 < %d"
         a (a + one))
      (expect_rows ~key:0
         (List.map
            (fun u1 -> [| Row.Vint u1; Row.Vstr (Gen.string_of_unique u1) |])
            (range a one)))
  in
  let q5 =
    let k = Gen.int r n in
    q
      (Printf.sprintf "SELECT * FROM t WHERE unique1 = %d" k)
      (expect_rows ~key:Gen.c_unique2 [ full_row_u2 w.u2_of_u1.(k) ])
  in
  let q6 =
    q "SELECT unique2, two FROM t"
      (expect_rows ~key:0
         (List.init n (fun u2 -> [| Row.Vint u2; Row.Vint (w.u1.(u2) mod 2) |])))
  in
  let q20 = q "SELECT MIN(unique2) FROM t" (expect_rows ~key:0 [ [| Row.Vint 0 |] ]) in
  let groups a =
    Array.to_list (Array.mapi (fun g v -> [| Row.Vint g; Row.Vint v |]) a)
  in
  let q21 =
    q "SELECT onepercent, MIN(unique2) FROM t GROUP BY onepercent"
      (expect_rows ~key:0 (groups mins))
  in
  let q22 =
    q "SELECT onepercent, SUM(unique2) FROM t GROUP BY onepercent"
      (expect_rows ~key:0 (groups sums))
  in
  let q30 =
    let a = start one in
    q
      (Printf.sprintf
         "SELECT a.unique2, b.stringu1 FROM t a, t2 b WHERE a.unique2 = \
          b.unique2 AND a.unique1 >= %d AND a.unique1 < %d"
         a (a + one))
      (expect_rows ~key:0
         (List.filter_map
            (fun u1 ->
              let u2 = w.u2_of_u1.(u1) in
              if u2 < w2.n then
                Some
                  [| Row.Vint u2; Row.Vstr (Gen.string_of_unique w2.u1.(u2)) |]
              else None)
            (range a one)))
  in
  [ q1; q2; q3; q4; q5; q6; q20; q21; q22; q30 ]

(* probe inputs shared by both Wisconsin workloads *)
let wisc_probe sc (w : Gen.wisc Lazy.t) ~seed =
  let r = Gen.rng ~seed ~salt:7 in
  let one = max 1 (sc.rows / 100) and ten = max 1 (sc.rows / 10) in
  let start width = Gen.int r (sc.rows - width + 1) in
  let a = start one in
  let pred =
    Printf.sprintf "SELECT * FROM t WHERE unique1 >= %d AND unique1 < %d" a
      (a + one)
  in
  let ranges =
    List.map
      (fun width ->
        let a = start width in
        Printf.sprintf "SELECT * FROM t WHERE unique2 >= %d AND unique2 < %d" a
          (a + width))
      [ one; ten; sc.rows ]
  in
  (pred, ranges, Array.init sc.rows (Gen.row_of_u2 (Lazy.force w)))

let wisc_scan sc =
  let w = lazy (Gen.wisc sc.rows) and w2 = lazy (Gen.wisc sc.rows2) in
  let plan ~seed =
    let w = Lazy.force w and w2 = Lazy.force w2 in
    let answers = group_answers w in
    let r = Gen.rng ~seed ~salt:1 in
    let pass () = scan_shapes w w2 answers r in
    let warmup = pass () in
    let timed = List.concat (List.init sc.scan_rounds (fun _ -> pass ())) in
    { warmup; timed; verify = warmup }
  in
  {
    name = "wisc_scan";
    config = wisc_config sc;
    load = wisc_load sc;
    plan;
    probe_table = "t";
    probe = wisc_probe sc w;
  }

(* the write mix, six operations: SET unique3 = unique3 + k over three 1%
   clustered (unique2) ranges and one 1% non-clustered (unique1) range,
   and two transactions that each delete one row and insert the
   generator's row back, so the row count stays fixed. Half the operations
   are clustered updates, so the median lands inside that class. [u3] is
   the model of column unique3. *)
let update_mix (w : Gen.wisc) u3 r =
  let n = w.n in
  let one = max 1 (n / 100) in
  let upd ~clustered lo =
    let col = if clustered then "unique2" else "unique1" in
    let u2_of u = if clustered then u else w.u2_of_u1.(u) in
    let k = 1 + Gen.int r 9 in
    List.iter
      (fun u ->
        let u2 = u2_of u in
        u3.(u2) <- u3.(u2) + k)
      (range lo one);
    {
      stmts =
        [
          Printf.sprintf
            "UPDATE t SET unique3 = unique3 + %d WHERE %s >= %d AND %s < %d" k
            col lo col (lo + one);
        ];
      check = expect_affected one;
    }
  in
  let start () = Gen.int r (n - one + 1) in
  let replace () =
    let x = Gen.int r n in
    u3.(x) <- w.u1.(x);
    {
      stmts =
        [
          "BEGIN WORK";
          Printf.sprintf "DELETE FROM t WHERE unique2 = %d" x;
          Printf.sprintf "INSERT INTO t VALUES (%s)"
            (Gen.sql_of_row (Gen.row_of_u2 w x));
          "COMMIT WORK";
        ];
      check = expect_results N.[ Done; Affected 1; Affected 1; Done ];
    }
  in
  (* built in execution order: the model must see each replace after the
     updates before it *)
  let c1 = upd ~clustered:true (start ()) in
  let nc = upd ~clustered:false (start ()) in
  let c2 = upd ~clustered:true (start ()) in
  let r1 = replace () in
  let c3 = upd ~clustered:true (start ()) in
  let r2 = replace () in
  [ c1; nc; c2; r1; c3; r2 ]

let wisc_update sc =
  let w = lazy (Gen.wisc sc.rows) in
  let plan ~seed =
    let w = Lazy.force w in
    let u3 = Array.copy w.u1 in
    let r = Gen.rng ~seed ~salt:2 in
    let warmup = update_mix w u3 r in
    let timed =
      List.concat (List.init sc.update_rounds (fun _ -> update_mix w u3 r))
    in
    let total = Array.fold_left ( + ) 0 u3 in
    let verify =
      [
        { stmts = [ "SELECT COUNT(*), SUM(unique3) FROM t" ];
          check = expect_rows ~key:0 [ [| Row.Vint w.n; Row.Vint total |] ] };
        { stmts = [ "SELECT unique2, unique3 FROM t" ];
          check =
            expect_rows ~key:0
              (List.init w.n (fun u2 -> [| Row.Vint u2; Row.Vint u3.(u2) |])) };
      ]
    in
    { warmup; timed; verify }
  in
  {
    name = "wisc_update";
    config = wisc_config sc;
    load = wisc_load sc;
    plan;
    probe_table = "t";
    probe = wisc_probe sc w;
  }

(* --- DebitCredit ------------------------------------------------------- *)

let filler = String.make 96 'f'

(* one TP1 transaction; deltas are whole numbers so the float balance sums
   the checks compare are exact *)
let dc_tx sc (acct, sums) r hid =
  let aid = Gen.int r sc.accounts in
  let tid = aid mod sc.tellers in
  let bid = tid mod sc.branches in
  let delta = Gen.int r 199_999 - 99_999 in
  acct.(aid) <- acct.(aid) + delta;
  sums := !sums + delta;
  let set table col id =
    Printf.sprintf "UPDATE %s SET balance = balance %s %d.0 WHERE %s = %d"
      table (if delta < 0 then "-" else "+") (abs delta) col id
  in
  {
    stmts =
      [
        "BEGIN WORK";
        set "account" "aid" aid;
        set "teller" "tid" tid;
        set "branch" "bid" bid;
        Printf.sprintf "INSERT INTO history VALUES (%d, %d, %d, %d, %d.0, '%s')"
          hid aid tid bid delta filler;
        "COMMIT WORK";
      ];
    check =
      expect_results
        N.[ Done; Affected 1; Affected 1; Affected 1; Affected 1; Done ];
  }

let debitcredit sc =
  let plan ~seed =
    let acct = Array.make sc.accounts 1000 and sums = ref 0 in
    let r = Gen.rng ~seed ~salt:3 in
    let txs lo n = List.init n (fun i -> dc_tx sc (acct, sums) r (lo + i)) in
    let warmup = txs 0 sc.warm_txs in
    let timed = txs sc.warm_txs sc.txs in
    let committed = sc.warm_txs + sc.txs in
    let fl x = Row.Vfloat (float_of_int x) in
    let sum_is table count =
      { stmts = [ Printf.sprintf "SELECT SUM(balance) FROM %s" table ];
        check = expect_rows ~key:0 [ [| fl ((1000 * count) + !sums) |] ] }
    in
    let verify =
      [
        { stmts = [ "SELECT aid, balance FROM account" ];
          check =
            expect_rows ~key:0
              (List.init sc.accounts (fun a -> [| Row.Vint a; fl acct.(a) |])) };
        sum_is "teller" sc.tellers;
        sum_is "branch" sc.branches;
        { stmts = [ "SELECT COUNT(*), SUM(delta) FROM history" ];
          check = expect_rows ~key:0 [ [| Row.Vint committed; fl !sums |] ] };
      ]
    in
    { warmup; timed; verify }
  in
  let accounts = Array.init sc.accounts (fun a ->
    [| Row.Vint a; Row.Vint (a mod sc.branches); Row.Vfloat 1000.; Row.Vstr filler |])
  in
  {
    name = "debitcredit";
    config = Config.default;
    load =
      (fun node ->
        Result.map ignore
          (Debitcredit.setup_sql node ~accounts:sc.accounts ~tellers:sc.tellers
             ~branches:sc.branches));
    plan;
    probe_table = "account";
    probe =
      (fun ~seed ->
        let r = Gen.rng ~seed ~salt:7 in
        let a = Gen.int r (sc.accounts / 2) in
        ( "SELECT * FROM account WHERE balance > 0.0",
          [ Printf.sprintf "SELECT * FROM account WHERE aid >= %d AND aid < %d"
              a (a + (sc.accounts / 2)) ],
          accounts ));
  }

let all sc = [ wisc_scan sc; wisc_update sc; debitcredit sc ]

(* Second wave of SQL tests: expression corner cases, multi-key ordering,
   planner details, wide transactions, and a parser pretty-print/reparse
   property. *)

module N = Nsql_core.Nonstop_sql
module Row = Nsql_row.Row
module Fs = Nsql_fs.Fs
module Parser = Nsql_sql.Parser
module Ast = Nsql_sql.Ast
module Errors = Nsql_util.Errors

let setup () =
  let node = N.create_node ~volumes:2 () in
  (node, N.session node)

let rows_of = function
  | N.Rows rs -> rs.Nsql_sql.Executor.rows
  | _ -> Alcotest.fail "expected rows"

let ints rs = List.map (fun r -> match r.(0) with Row.Vint i -> i | _ -> -1) rs

let multi_column_key () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE ledger (branch INT, acct INT, amount FLOAT NOT NULL, \
        PRIMARY KEY (branch, acct))");
  for b = 0 to 3 do
    for a = 0 to 9 do
      ignore
        (N.exec_exn s
           (Printf.sprintf "INSERT INTO ledger VALUES (%d, %d, %d.0)" b a
              ((b * 100) + a)))
    done
  done;
  (* an equality on the key prefix + range on the next key column becomes a
     primary range — check both the plan and the answer *)
  let plan =
    Errors.get_ok ~ctx:"explain"
      (N.explain s "SELECT amount FROM ledger WHERE branch = 2 AND acct >= 3 AND acct < 6")
  in
  Alcotest.(check bool) ("range plan: " ^ plan) true
    (String.length plan > 0);
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT acct FROM ledger WHERE branch = 2 AND acct >= 3 AND acct < 6 \
          ORDER BY acct")
  in
  Alcotest.(check (list int)) "rows in key prefix range" [ 3; 4; 5 ] (ints rs);
  (* duplicate of full composite key rejected, same prefix allowed *)
  (match N.exec s "INSERT INTO ledger VALUES (2, 3, 0.0)" with
  | Error (Errors.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "composite duplicate accepted");
  match N.exec s "INSERT INTO ledger VALUES (2, 99, 0.0)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errors.to_string e)

let order_by_multiple_keys () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE t (k INT PRIMARY KEY, a INT NOT NULL, b INT NOT NULL)");
  List.iteri
    (fun k (a, b) ->
      ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d)" k a b)))
    [ (1, 5); (2, 3); (1, 1); (2, 9); (1, 3) ];
  let rs = rows_of (N.exec_exn s "SELECT a, b FROM t ORDER BY a ASC, b DESC") in
  let pairs =
    List.map
      (fun r ->
        match r with
        | [| Row.Vint a; Row.Vint b |] -> (a, b)
        | _ -> (-1, -1))
      rs
  in
  Alcotest.(check (list (pair int int))) "asc then desc"
    [ (1, 5); (1, 3); (1, 1); (2, 9); (2, 3) ]
    pairs

let expression_precedence () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE one (k INT PRIMARY KEY)");
  ignore (N.exec_exn s "INSERT INTO one VALUES (1)");
  let scalar sql =
    match rows_of (N.exec_exn s sql) with
    | [ [| v |] ] -> v
    | _ -> Alcotest.fail "expected one scalar"
  in
  (match scalar "SELECT 2 + 3 * 4 FROM one" with
  | Row.Vint 14 -> ()
  | v -> Alcotest.fail (Format.asprintf "precedence: %a" Row.pp_value v));
  (match scalar "SELECT (2 + 3) * 4 FROM one" with
  | Row.Vint 20 -> ()
  | v -> Alcotest.fail (Format.asprintf "parens: %a" Row.pp_value v));
  (match scalar "SELECT 10 / 4 FROM one" with
  | Row.Vint 2 -> ()
  | v -> Alcotest.fail (Format.asprintf "int division: %a" Row.pp_value v));
  (match scalar "SELECT 10 / 4.0 FROM one" with
  | Row.Vfloat f when abs_float (f -. 2.5) < 1e-9 -> ()
  | v -> Alcotest.fail (Format.asprintf "float division: %a" Row.pp_value v));
  match scalar "SELECT 'a' || 'b' || 'c' FROM one" with
  | Row.Vstr "abc" -> ()
  | v -> Alcotest.fail (Format.asprintf "concat: %a" Row.pp_value v)

let limit_edge_cases () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY)");
  for i = 0 to 9 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  Alcotest.(check int) "limit 0" 0
    (List.length (rows_of (N.exec_exn s "SELECT k FROM t LIMIT 0")));
  Alcotest.(check int) "limit beyond size" 10
    (List.length (rows_of (N.exec_exn s "SELECT k FROM t LIMIT 100")));
  Alcotest.(check (list int)) "limit with order" [ 9; 8 ]
    (ints (rows_of (N.exec_exn s "SELECT k FROM t ORDER BY k DESC LIMIT 2")))

(* a numeric literal the host cannot represent is a parse error naming
   the literal, from the parser and from a session alike *)
let unrepresentable_literals () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE a (k INT PRIMARY KEY)");
  let parse_error = function
    | Error (Errors.Parse_error msg) -> msg
    | Ok _ -> "accepted"
    | Error e -> Errors.to_string e
  in
  List.iter
    (fun (sql, msg) ->
      Alcotest.(check string) ("Parser.parse: " ^ sql) msg (parse_error (Parser.parse sql));
      Alcotest.(check string) ("N.exec: " ^ sql) msg (parse_error (N.exec s sql)))
    [
      ( "SELECT * FROM a LIMIT 99999999999999999999",
        "integer literal 99999999999999999999 out of range" );
      ( "SELECT * FROM a WHERE k < 4611686018427387904",
        "integer literal 4611686018427387904 out of range" );
      ("SELECT * FROM a WHERE k < 1e", "malformed numeric literal 1e");
    ]

(* A leaf split must cut where both halves fit. Nine short rows and two
   long ones overflow the leaf; its middle cut would leave the long rows
   and four short ones in a right half of 4,115 bytes. *)
(* an index key is NOT NULL columns, each once; a bad column list is a
   Bad_request naming the column, and no index file reaches a DP *)
let bad_index_column_lists () =
  let node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE a (k INT PRIMARY KEY, g INT, v VARCHAR(20))");
  ignore
    (N.exec_exn s "CREATE TABLE b (k INT PRIMARY KEY, g INT NOT NULL, v INT)");
  List.iter
    (fun (sql, file) ->
      (match N.exec s sql with
      | Error (Errors.Bad_request msg) ->
          Alcotest.(check bool) (sql ^ " names g: " ^ msg) true
            (List.mem "g" (String.split_on_char ' ' msg))
      | Error e -> Alcotest.failf "%s: %s" sql (Errors.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" sql);
      Array.iter
        (fun dp ->
          Alcotest.(check bool) (file ^ " not created") true
            (Nsql_dp.Dp.file_id dp file = None))
        (N.dps node))
    [
      ("CREATE INDEX a_g ON a (g)", "a#ix_a_g");
      ("CREATE INDEX b_gg ON b (g, g)", "b#ix_b_gg");
    ];
  (* the tables are untouched and a good index still builds *)
  ignore (N.exec_exn s "INSERT INTO b VALUES (1, 7, 0), (2, 8, 0)");
  ignore (N.exec_exn s "CREATE INDEX b_g ON b (g)");
  Alcotest.(check (list int)) "read via the good index" [ 2 ]
    (ints (rows_of (N.exec_exn s "SELECT k FROM b WHERE g = 8")))

let split_of_skewed_rows () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE w (k INT PRIMARY KEY, v VARCHAR(2000))");
  List.iter
    (fun k -> ignore (N.exec_exn s (Printf.sprintf "INSERT INTO w VALUES (%d, 's')" k)))
    (1000 :: List.init 8 (fun i -> i + 1));
  List.iter
    (fun k ->
      ignore
        (N.exec_exn s
           (Printf.sprintf "INSERT INTO w VALUES (%d, '%s')" k (String.make 1990 'x'))))
    [ 9; 10 ];
  Alcotest.(check (list int)) "every row, in key order"
    (List.init 10 (fun i -> i + 1) @ [ 1000 ])
    (ints (rows_of (N.exec_exn s "SELECT k FROM w")));
  let long = Row.Vstr (String.make 1990 'x') in
  let rs = rows_of (N.exec_exn s "SELECT v FROM w WHERE k >= 9 AND k <= 10") in
  Alcotest.(check int) "two long rows" 2 (List.length rs);
  Alcotest.(check bool) "the long rows read back whole" true
    (List.for_all (fun r -> Row.equal_value r.(0) long) rs)

let self_join_with_aliases () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)");
  for i = 0 to 5 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (5 - i)))
  done;
  (* pairs where a.v = b.k: a keyed self-join through aliases *)
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT a.k, b.v FROM t a, t b WHERE b.k = a.v AND a.k <= 2 ORDER BY a.k")
  in
  let pairs =
    List.map
      (fun r -> match r with [| Row.Vint a; Row.Vint b |] -> (a, b) | _ -> (-1, -1))
      rs
  in
  Alcotest.(check (list (pair int int))) "self join" [ (0, 0); (1, 1); (2, 2) ] pairs

let group_by_expression () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY)");
  for i = 0 to 19 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  (* group by a computed expression, and reuse it in the projection *)
  let rs =
    rows_of
      (N.exec_exn s
         "SELECT k / 5, COUNT(*) FROM t GROUP BY k / 5 ORDER BY k / 5")
  in
  Alcotest.(check int) "four buckets" 4 (List.length rs);
  List.iter
    (fun r ->
      match r with
      | [| Row.Vint _; Row.Vint 5 |] -> ()
      | _ -> Alcotest.fail "bucket size")
    rs

let having_filters_groups () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, g INT NOT NULL)");
  List.iteri
    (fun k g -> ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" k g)))
    [ 0; 0; 0; 1; 1; 2 ];
  let rs =
    rows_of
      (N.exec_exn s "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY g")
  in
  Alcotest.(check (list int)) "groups above threshold" [ 0; 1 ] (ints rs)

let update_delete_interactions () =
  let _node, s = setup () in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)");
  for i = 0 to 9 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" i))
  done;
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE t SET v = 1 WHERE k < 5");
  ignore (N.exec_exn s "DELETE FROM t WHERE v = 1");
  (* the same transaction sees its own effects *)
  (match rows_of (N.exec_exn s "SELECT COUNT(*) FROM t") with
  | [ [| Row.Vint 5 |] ] -> ()
  | _ -> Alcotest.fail "in-tx visibility");
  ignore (N.exec_exn s "ROLLBACK WORK");
  match rows_of (N.exec_exn s "SELECT COUNT(*) FROM t") with
  | [ [| Row.Vint 10 |] ] -> ()
  | _ -> Alcotest.fail "rollback of update-then-delete"

let insert_with_column_list () =
  let _node, s = setup () in
  ignore
    (N.exec_exn s
       "CREATE TABLE t (k INT PRIMARY KEY, a INT, b VARCHAR(8))");
  ignore (N.exec_exn s "INSERT INTO t (b, k) VALUES ('x', 7)");
  match rows_of (N.exec_exn s "SELECT k, a, b FROM t") with
  | [ [| Row.Vint 7; Row.Null; Row.Vstr "x" |] ] -> ()
  | _ -> Alcotest.fail "column-list insert with NULL fill"

let cross_partition_transaction () =
  (* one transaction spanning partitions on different Disk Processes must
     commit/abort atomically across both *)
  let node = N.create_node ~volumes:2 () in
  let s = N.session node in
  let schema =
    Row.schema [| Row.column "k" Row.T_int; Row.column "v" Row.T_int |] ~key:[ "k" ]
  in
  let split = Errors.get_ok ~ctx:"key" (Row.key_of_values schema [ Row.Vint 50 ]) in
  let file =
    Errors.get_ok ~ctx:"create"
      (Fs.create_file (N.fs node) ~fname:"t" ~schema
         ~partitions:
           [
             Fs.{ ps_lo = ""; ps_dp = (N.dps node).(0) };
             Fs.{ ps_lo = split; ps_dp = (N.dps node).(1) };
           ]
         ~indexes:[] ())
  in
  Errors.get_ok ~ctx:"reg" (Nsql_sql.Catalog.register (N.catalog node) "t" file);
  ignore (N.exec_exn s "INSERT INTO t VALUES (10, 0), (90, 0)");
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "UPDATE t SET v = 1");
  ignore (N.exec_exn s "ROLLBACK WORK");
  match rows_of (N.exec_exn s "SELECT SUM(v) FROM t") with
  | [ [| Row.Vint 0 |] ] -> ()
  | _ -> Alcotest.fail "cross-partition rollback"

(* pretty-printing a random expression and reparsing it must be identity *)
let sexpr_gen =
  let open QCheck.Gen in
  let lit =
    oneof
      [
        map (fun i -> Ast.E_lit (Ast.L_int i)) (int_bound 1000);
        map (fun b -> Ast.E_lit (Ast.L_bool b)) bool;
        return (Ast.E_lit Ast.L_null);
        map (fun s -> Ast.E_lit (Ast.L_string s))
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
      ]
  in
  let col =
    map (fun c -> Ast.E_col (None, "c" ^ string_of_int c)) (int_bound 5)
  in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ lit; col ]
      else
        let sub = self (depth - 1) in
        oneof
          [
            lit;
            col;
            map2 (fun a b -> Ast.E_binop (Ast.Add, a, b)) sub sub;
            map2 (fun a b -> Ast.E_binop (Ast.Mul, a, b)) sub sub;
            map2 (fun a b -> Ast.E_cmp (Ast.Le, a, b)) sub sub;
            map2 (fun a b -> Ast.E_and (a, b)) sub sub;
            map2 (fun a b -> Ast.E_or (a, b)) sub sub;
            map (fun a -> Ast.E_not a) sub;
            map (fun a -> Ast.E_is_null a) sub;
          ])
    3

let rec sexpr_equal a b =
  match (a, b) with
  | Ast.E_col (q1, c1), Ast.E_col (q2, c2) -> q1 = q2 && c1 = c2
  | Ast.E_lit l1, Ast.E_lit l2 -> l1 = l2
  | Ast.E_binop (o1, a1, b1), Ast.E_binop (o2, a2, b2) ->
      o1 = o2 && sexpr_equal a1 a2 && sexpr_equal b1 b2
  | Ast.E_cmp (o1, a1, b1), Ast.E_cmp (o2, a2, b2) ->
      o1 = o2 && sexpr_equal a1 a2 && sexpr_equal b1 b2
  | Ast.E_and (a1, b1), Ast.E_and (a2, b2) | Ast.E_or (a1, b1), Ast.E_or (a2, b2)
    ->
      sexpr_equal a1 a2 && sexpr_equal b1 b2
  | Ast.E_not a1, Ast.E_not a2 | Ast.E_is_null a1, Ast.E_is_null a2 ->
      sexpr_equal a1 a2
  | _ -> false

let pp_reparse_roundtrip =
  QCheck.Test.make ~name:"pp_sexpr then parse_expr is identity" ~count:300
    (QCheck.make sexpr_gen) (fun e ->
      let text = Format.asprintf "%a" Ast.pp_sexpr e in
      match Parser.parse_expr text with
      | Ok e' -> sexpr_equal e e'
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "multi-column key range" `Quick multi_column_key;
    Alcotest.test_case "ORDER BY multiple keys" `Quick order_by_multiple_keys;
    Alcotest.test_case "expression precedence" `Quick expression_precedence;
    Alcotest.test_case "LIMIT edge cases" `Quick limit_edge_cases;
    Alcotest.test_case "unrepresentable numeric literals" `Quick
      unrepresentable_literals;
    Alcotest.test_case "leaf split of skewed rows" `Quick split_of_skewed_rows;
    Alcotest.test_case "CREATE INDEX on bad columns" `Quick
      bad_index_column_lists;
    Alcotest.test_case "self join with aliases" `Quick self_join_with_aliases;
    Alcotest.test_case "GROUP BY expression" `Quick group_by_expression;
    Alcotest.test_case "HAVING filters groups" `Quick having_filters_groups;
    Alcotest.test_case "update/delete in one tx + rollback" `Quick
      update_delete_interactions;
    Alcotest.test_case "INSERT with column list" `Quick insert_with_column_list;
    Alcotest.test_case "cross-partition transaction" `Quick
      cross_partition_transaction;
    QCheck_alcotest.to_alcotest pp_reparse_roundtrip;
  ]

(* late addition: repeatable-read SELECTs via the session lock mode *)
let select_lock_mode () =
  let node = N.create_node () in
  let s = N.session node in
  ignore (N.exec_exn s "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)");
  for i = 0 to 9 do
    ignore (N.exec_exn s (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" i))
  done;
  (* browse read takes no locks: a concurrent writer is unimpeded *)
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "SELECT * FROM t");
  let writer = Errors.get_ok ~ctx:"tx" (N.in_tx s (fun tx -> Ok tx)) in
  ignore writer;
  ignore (N.exec_exn s "COMMIT WORK");
  (* shared read locks block a writer until commit *)
  N.set_read_lock s Nsql_dp.Dp_msg.L_shared;
  ignore (N.exec_exn s "BEGIN WORK");
  ignore (N.exec_exn s "SELECT * FROM t");
  (match
     N.in_tx s (fun tx ->
         let tbl = Errors.get_ok ~ctx:"find" (Nsql_sql.Catalog.find (N.catalog node) "t") in
         Fs.update_subset (N.fs node) tbl.Nsql_sql.Catalog.t_file ~tx
           ~range:Nsql_expr.Expr.full_range
           [ { Nsql_expr.Expr.target = 1;
               source = Nsql_expr.Expr.(Const (Row.Vint 1)) } ])
   with
  | Error (Errors.Lock_timeout _) -> ()
  | Ok _ -> Alcotest.fail "writer ignored shared read locks"
  | Error e -> Alcotest.fail (Errors.to_string e));
  ignore (N.exec_exn s "COMMIT WORK");
  N.set_read_lock s Nsql_dp.Dp_msg.L_none

let suite =
  suite
  @ [ Alcotest.test_case "SELECT lock modes" `Quick select_lock_mode ]

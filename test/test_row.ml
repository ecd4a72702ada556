(* Tests of schemas, rows, the record codec and key encoding. *)

module Row = Nsql_row.Row
module Codec = Nsql_util.Codec

let emp_schema =
  Row.schema
    [|
      Row.column "empno" Row.T_int;
      Row.column "name" (Row.T_varchar 32);
      Row.column "hire_date" (Row.T_char 10);
      Row.column ~nullable:true "salary" Row.T_float;
      Row.column "active" Row.T_bool;
    |]
    ~key:[ "empno" ]

let sample =
  [| Row.Vint 7; Row.Vstr "Borr"; Row.Vstr "1988-06-01"; Row.Vfloat 95000.; Row.Vbool true |]

let roundtrip () =
  let img = Row.encode emp_schema sample in
  match Row.decode emp_schema img with
  | Ok row -> Alcotest.(check bool) "roundtrip" true (Row.equal_row sample row)
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let roundtrip_nulls () =
  let row =
    [| Row.Vint 1; Row.Vstr ""; Row.Vstr ""; Row.Null; Row.Vbool false |]
  in
  let img = Row.encode emp_schema row in
  match Row.decode emp_schema img with
  | Ok row' -> Alcotest.(check bool) "null roundtrip" true (Row.equal_row row row')
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let validate_rejects () =
  let bad_type = [| Row.Vstr "x"; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |] in
  (match Row.validate emp_schema bad_type with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted wrong type"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  let bad_null = [| Row.Null; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |] in
  (match Row.validate emp_schema bad_null with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted NULL key"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  let too_wide =
    [| Row.Vint 1; Row.Vstr (String.make 40 'x'); Row.Vstr "b"; Row.Null; Row.Vbool true |]
  in
  match Row.validate emp_schema too_wide with
  | Error (Nsql_util.Errors.Type_error _) -> ()
  | Ok () -> Alcotest.fail "accepted overwide varchar"
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let key_ordering () =
  let key i = Row.key_of_row emp_schema
      [| Row.Vint i; Row.Vstr "x"; Row.Vstr "d"; Row.Null; Row.Vbool true |]
  in
  Alcotest.(check bool) "keys ordered" true
    (String.compare (key (-5)) (key 3) < 0 && String.compare (key 3) (key 1000) < 0)

let key_of_values_prefix () =
  match Row.key_of_values emp_schema [ Row.Vint 42 ] with
  | Ok k ->
      let full = Row.key_of_row emp_schema
          [| Row.Vint 42; Row.Vstr "a"; Row.Vstr "b"; Row.Null; Row.Vbool true |]
      in
      Alcotest.(check string) "prefix equals full single-col key" full k
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e)

let projection () =
  let proj = Row.project sample [| 1; 2 |] in
  Alcotest.(check bool) "projected" true
    (Row.equal_row [| Row.Vstr "Borr"; Row.Vstr "1988-06-01" |] proj);
  let ps = Row.projected_schema emp_schema [| 1; 2 |] in
  Alcotest.(check int) "projected schema arity" 2 (Array.length ps.Row.cols)

let field_number () =
  (match Row.field_number emp_schema "salary" with
  | Ok i -> Alcotest.(check int) "salary is #3" 3 i
  | Error e -> Alcotest.fail (Nsql_util.Errors.to_string e));
  match Row.field_number emp_schema "nope" with
  | Error (Nsql_util.Errors.Name_error _) -> ()
  | _ -> Alcotest.fail "unknown column accepted"

let char_padding_stripped () =
  let row = [| Row.Vint 1; Row.Vstr "n"; Row.Vstr "89"; Row.Null; Row.Vbool true |] in
  let img = Row.encode emp_schema row in
  let row' = Row.decode_exn emp_schema img in
  (match row'.(2) with
  | Row.Vstr s -> Alcotest.(check string) "padding stripped" "89" s
  | _ -> Alcotest.fail "wrong type")

let decode_truncated () =
  let img = Row.encode emp_schema sample in
  let internal = function
    | Error (Nsql_util.Errors.Internal _) -> true
    | Ok _ | Error _ -> false
  in
  Alcotest.(check bool) "shorter than the null bitmap" true
    (internal (Row.decode emp_schema ""));
  Alcotest.(check bool) "cut inside a field" true
    (internal (Row.decode emp_schema (String.sub img 0 5)))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Row.Vint i) int;
        map (fun f -> Row.Vfloat f) (float_bound_inclusive 1e9);
        map (fun b -> Row.Vbool b) bool;
        map (fun s -> Row.Vstr s) (string_size (int_bound 20));
      ])

let compare_total_order =
  QCheck.Test.make ~name:"value comparison antisymmetric" ~count:300
    QCheck.(pair (make value_gen) (make value_gen))
    (fun (a, b) ->
      Row.compare_value a b = -Row.compare_value b a
      || Row.compare_value a b = 0)

let roundtrip_random =
  let schema =
    Row.schema
      [|
        Row.column "k" Row.T_int;
        Row.column ~nullable:true "a" (Row.T_varchar 64);
        Row.column ~nullable:true "b" Row.T_float;
        Row.column ~nullable:true "c" Row.T_bool;
      |]
      ~key:[ "k" ]
  in
  QCheck.Test.make ~name:"record codec roundtrip (random rows)" ~count:300
    QCheck.(
      quad int
        (option (string_of_size (Gen.int_bound 40)))
        (option float) (option bool))
    (fun (k, a, b, c) ->
      let v_of f = function None -> Row.Null | Some x -> f x in
      let row =
        [|
          Row.Vint k;
          v_of (fun s -> Row.Vstr s) a;
          v_of (fun f -> Row.Vfloat f) b;
          v_of (fun b -> Row.Vbool b) c;
        |]
      in
      match Row.decode schema (Row.encode schema row) with
      | Ok row' -> Row.equal_row row row'
      | Error _ -> false)

(* [values_size] must equal what [encode_values] writes; the strings
   straddle the one/two-byte varint boundary and rows run past 127 fields *)
let values_size_matches_encoding =
  let open QCheck.Gen in
  let str =
    oneof
      [
        map (fun n -> String.make n 'x') (oneofl [ 0; 127; 128; 300 ]);
        string_size (int_bound 20);
      ]
  in
  let value =
    frequency
      [
        (1, return Row.Null);
        (1, map (fun b -> Row.Vbool b) bool);
        (2, map (fun i -> Row.Vint i) int);
        (1, map (fun f -> Row.Vfloat f) float);
        (2, map (fun s -> Row.Vstr s) str);
      ]
  in
  QCheck.Test.make ~name:"values_size equals the encoded length" ~count:300
    (QCheck.make (array_size (oneof [ int_bound 10; int_range 120 140 ]) value))
    (fun row ->
      let w = Codec.writer () in
      Row.encode_values w row;
      Codec.written w = Row.values_size row)

let suite =
  [
    Alcotest.test_case "record codec roundtrip" `Quick roundtrip;
    Alcotest.test_case "record codec nulls" `Quick roundtrip_nulls;
    Alcotest.test_case "validate rejects bad rows" `Quick validate_rejects;
    Alcotest.test_case "key encoding ordered" `Quick key_ordering;
    Alcotest.test_case "key of values prefix" `Quick key_of_values_prefix;
    Alcotest.test_case "projection" `Quick projection;
    Alcotest.test_case "field numbers" `Quick field_number;
    Alcotest.test_case "char padding stripped" `Quick char_padding_stripped;
    Alcotest.test_case "decode rejects truncated images" `Quick decode_truncated;
    QCheck_alcotest.to_alcotest compare_total_order;
    QCheck_alcotest.to_alcotest roundtrip_random;
    QCheck_alcotest.to_alcotest values_size_matches_encoding;
  ]

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
  Alcotest.(check int) "projected schema arity" 2 (Array.length ps.Row.cols);
  let fields = [| 4; 0; 4 |] in
  let direct = Codec.writer () and via = Codec.writer () in
  Row.encode_fields direct sample fields;
  Row.encode_values via (Row.project sample fields);
  Alcotest.(check string) "encode_fields = encode_values of the projection"
    (Codec.contents via) (Codec.contents direct)

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

(* A record inside a block is read only up to its own length: a record
   cut short and followed by other bytes (here a whole second record) must
   fail on a column past the cut exactly as the bare cut record does, not
   read the bytes after it as its own. *)
let decode_in_block_bounded () =
  let img = Row.encode emp_schema sample in
  let cut = 5 in
  let block = "hdr" ^ String.sub img 0 cut ^ img in
  let all = Row.all_columns in
  let decode img ~pos ~len =
    Row.decode_into emp_schema all img ~pos ~len
      (Array.make (Array.length sample) Row.Null)
  in
  let internal = function
    | Error (Nsql_util.Errors.Internal _) -> true
    | Ok _ | Error _ -> false
  in
  Alcotest.(check bool) "bare cut record" true
    (internal (decode (String.sub img 0 cut) ~pos:0 ~len:cut));
  Alcotest.(check bool) "cut record inside a block" true
    (internal (decode block ~pos:3 ~len:cut));
  let whole = Array.make (Array.length sample) Row.Null in
  Alcotest.(check bool) "the record after it decodes" true
    (Row.decode_into emp_schema all block ~pos:(3 + cut)
       ~len:(String.length img) whole
     = Ok ()
    && Row.equal_row whole sample)

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

(* --- column-subset decode ------------------------------------------------ *)

(* a random schema (column 0 is the INT key; the rest mix every type,
   nullable or not), a row for it, and a list of wanted field numbers
   with repeats *)
let colset_case_gen =
  let open QCheck.Gen in
  let col_type =
    oneof
      [
        return Row.T_int;
        return Row.T_float;
        return Row.T_bool;
        map (fun n -> Row.T_char n) (int_range 1 8);
        map (fun n -> Row.T_varchar n) (int_range 0 200);
      ]
  in
  let value_of = function
    | Row.T_int -> map (fun i -> Row.Vint i) int
    | Row.T_float -> map (fun f -> Row.Vfloat f) float
    | Row.T_bool -> map (fun b -> Row.Vbool b) bool
    | Row.T_char n | Row.T_varchar n ->
        map (fun s -> Row.Vstr s) (string_size ~gen:printable (int_bound n))
  in
  int_range 1 20 >>= fun n ->
  list_repeat (n - 1) (pair col_type bool) >>= fun rest ->
  let cols =
    Array.of_list
      (Row.column "c0" Row.T_int
      :: List.mapi
           (fun i (ty, nullable) ->
             Row.column ~nullable (Printf.sprintf "c%d" (i + 1)) ty)
           rest)
  in
  let schema = Row.schema cols ~key:[ "c0" ] in
  flatten_a
    (Array.map
       (fun c ->
         if c.Row.nullable then
           frequency [ (1, return Row.Null); (2, value_of c.Row.col_type) ]
         else value_of c.Row.col_type)
       cols)
  >>= fun row ->
  list_size (int_bound 6) (int_bound (n - 1)) >>= fun fields ->
  int_bound 1000 >|= fun cut -> (schema, row, fields, cut)

(* byte offset just past field [i] in the image of [row] *)
let field_end schema row i =
  let nbytes = (Array.length schema.Row.cols + 7) / 8 in
  let size j =
    match (row.(j), schema.Row.cols.(j).Row.col_type) with
    | Row.Null, _ -> 0
    | _, (Row.T_int | Row.T_float) -> 8
    | _, Row.T_bool -> 1
    | _, Row.T_char n -> n
    | Row.Vstr s, Row.T_varchar _ ->
        Codec.varint_size (String.length s) + String.length s
    | _, Row.T_varchar _ -> assert false
  in
  let e = ref nbytes in
  for j = 0 to i do
    e := !e + size j
  done;
  !e

(* the scratch starts full of garbage; every wanted column must come out
   as the full decode has it (a null one as [Null], never garbage) and
   every other entry must be left alone. A truncated image must fail
   exactly when the cut lies before the end of the last wanted column
   (or inside the null bitmap). *)
let decode_into_matches_decode =
  QCheck.Test.make ~name:"decode_into = decode on the wanted columns" ~count:500
    (QCheck.make colset_case_gen)
    (fun (schema, row, fields, cut) ->
      let img = Row.encode schema row in
      let full = Row.decode_exn schema img in
      let cs = Row.colset schema fields in
      let garbage = Row.Vstr "stale" in
      let scratch = Array.make (Array.length row) garbage in
      let decoded_ok =
        match
          Row.decode_into schema cs img ~pos:0 ~len:(String.length img) scratch
        with
        | Ok () -> true
        | Error _ -> false
      in
      let wanted i = List.mem i fields in
      let columns_ok =
        List.for_all
          (fun i ->
            if wanted i then Row.equal_value scratch.(i) full.(i)
            else scratch.(i) == garbage)
          (List.init (Array.length row) Fun.id)
      in
      let cut = cut mod (String.length img + 1) in
      let last = List.fold_left max (-1) fields in
      let must_fail = cut < field_end schema row last in
      let failed =
        match
          Row.decode_into schema cs (String.sub img 0 cut) ~pos:0 ~len:cut
            (Array.make (Array.length row) garbage)
        with
        | Ok () -> false
        | Error (Nsql_util.Errors.Internal _) -> true
        | Error _ -> false
      in
      decoded_ok && columns_ok && failed = must_fail)

(* A Wisconsin-shaped record: 13 INT columns, then three CHAR(52). *)
let wisc_schema =
  Row.schema
    (Array.init 16 (fun i ->
         Row.column (Printf.sprintf "c%d" i)
           (if i < 13 then Row.T_int else Row.T_char 52)))
    ~key:[ "c0" ]

let wisc_row =
  Array.init 16 (fun i ->
      if i < 13 then Row.Vint (i * 7919) else Row.Vstr (String.make 20 'x'))

(* Decoding one INT column of a Wisconsin record into a scratch row
   allocates the reader and the value, and nothing per skipped column:
   at most 8 words a record. *)
let one_column_allocation () =
  let img = Row.encode wisc_schema wisc_row in
  let scratch = Array.make 16 Row.Null in
  List.iter
    (fun field ->
      let cs = Row.colset wisc_schema [ field ] in
      let n = 10_000 in
      let len = String.length img in
      Row.decode_into_exn wisc_schema cs img ~pos:0 ~len scratch;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Row.decode_into_exn wisc_schema cs img ~pos:0 ~len scratch
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "field %d: %.2f words per record <= 8" field words)
        true (words <= 8.);
      Alcotest.(check bool) "decoded" true
        (Row.equal_value scratch.(field) wisc_row.(field)))
    [ 0; 12 ]

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
    Alcotest.test_case "decode in a block stops at the record's end" `Quick
      decode_in_block_bounded;
    QCheck_alcotest.to_alcotest compare_total_order;
    QCheck_alcotest.to_alcotest roundtrip_random;
    QCheck_alcotest.to_alcotest values_size_matches_encoding;
    QCheck_alcotest.to_alcotest decode_into_matches_decode;
    Alcotest.test_case "one-column decode allocation" `Quick
      one_column_allocation;
  ]

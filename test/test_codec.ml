(* Unit and property tests for the binary codec and the order-preserving
   key encoding. *)

module Codec = Nsql_util.Codec
module Keycode = Nsql_util.Keycode

let roundtrip_ints () =
  let w = Codec.writer () in
  Codec.w_u8 w 0xab;
  Codec.w_u16 w 0xbeef;
  Codec.w_u32 w 0xdeadbeef;
  Codec.w_i64 w (-42L);
  Codec.w_int w min_int;
  Codec.w_varint w 0;
  Codec.w_varint w 127;
  Codec.w_varint w 128;
  Codec.w_varint w 300_000;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "u8" 0xab (Codec.r_u8 r);
  Alcotest.(check int) "u16" 0xbeef (Codec.r_u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Codec.r_u32 r);
  Alcotest.(check int64) "i64" (-42L) (Codec.r_i64 r);
  Alcotest.(check int) "int" min_int (Codec.r_int r);
  Alcotest.(check int) "varint 0" 0 (Codec.r_varint r);
  Alcotest.(check int) "varint 127" 127 (Codec.r_varint r);
  Alcotest.(check int) "varint 128" 128 (Codec.r_varint r);
  Alcotest.(check int) "varint 300000" 300_000 (Codec.r_varint r);
  Alcotest.(check bool) "drained" true (Codec.at_end r)

let roundtrip_strings () =
  let w = Codec.writer () in
  Codec.w_bytes w "";
  Codec.w_bytes w "hello\x00world";
  Codec.w_float w 3.14;
  Codec.w_bool w true;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check string) "empty" "" (Codec.r_bytes r);
  Alcotest.(check string) "nul-embedded" "hello\x00world" (Codec.r_bytes r);
  Alcotest.(check (float 1e-12)) "float" 3.14 (Codec.r_float r);
  Alcotest.(check bool) "bool" true (Codec.r_bool r)

let truncated_raises () =
  let r = Codec.reader "ab" in
  Alcotest.check_raises "truncated" Codec.Truncated (fun () ->
      ignore (Codec.r_u32 r))

let raw_rstrip () =
  let r = Codec.reader "ab c  |   |xyz" in
  Alcotest.(check string) "trailing blanks dropped" "ab c" (Codec.r_raw_rstrip r 6);
  Alcotest.(check int) "consumed the full width" 6 (Codec.pos r);
  ignore (Codec.r_u8 r);
  Alcotest.(check string) "all blanks" "" (Codec.r_raw_rstrip r 3);
  ignore (Codec.r_u8 r);
  Alcotest.(check string) "no blanks" "xyz" (Codec.r_raw_rstrip r 3);
  Alcotest.check_raises "truncated" Codec.Truncated (fun () ->
      ignore (Codec.r_raw_rstrip r 1))

let varint_size_matches () =
  List.iter
    (fun n ->
      let w = Codec.writer () in
      Codec.w_varint w n;
      Alcotest.(check int) (string_of_int n) (Codec.written w) (Codec.varint_size n))
    [ 0; 1; 127; 128; 16383; 16384; 300_000; max_int ]

let unread_restores () =
  let r = Codec.reader "abc" in
  ignore (Codec.r_u8 r);
  ignore (Codec.r_u8 r);
  Codec.unread r 1;
  Alcotest.(check int) "re-read" (Char.code 'b') (Codec.r_u8 r)

let skip_moves () =
  let r = Codec.reader "abcdef" in
  Codec.skip r 2;
  Alcotest.(check int) "skipped two" (Char.code 'c') (Codec.r_u8 r);
  Codec.skip r 3;
  Alcotest.(check bool) "drained" true (Codec.at_end r);
  Alcotest.check_raises "past the end" Codec.Truncated (fun () -> Codec.skip r 1);
  Alcotest.check_raises "negative length" Codec.Truncated (fun () ->
      Codec.skip (Codec.reader "ab") (-1))

let reset_reuses () =
  let w = Codec.writer () in
  Codec.w_bytes w "first";
  Codec.reset w;
  Alcotest.(check int) "empty after reset" 0 (Codec.written w);
  Codec.w_varint w 300;
  let fresh = Codec.writer () in
  Codec.w_varint fresh 300;
  Alcotest.(check string) "same bytes as a fresh writer" (Codec.contents fresh)
    (Codec.contents w)

(* --- keycode ---------------------------------------------------------- *)

let int_order =
  QCheck.Test.make ~name:"keycode int order-preserving" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      compare (Keycode.of_int a) (Keycode.of_int b) = compare a b)

let float_order =
  QCheck.Test.make ~name:"keycode float order-preserving" ~count:500
    QCheck.(pair float float)
    (fun (a, b) ->
      QCheck.assume (not (Float.is_nan a) && not (Float.is_nan b));
      compare (Keycode.of_float a) (Keycode.of_float b) = Float.compare a b)

let string_order =
  QCheck.Test.make ~name:"keycode string order-preserving" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      compare (Keycode.of_string a) (Keycode.of_string b)
      = compare (String.compare a b) 0
      ||
      (* allow any sign, just require same ordering direction *)
      compare (Keycode.of_string a) (Keycode.of_string b) * String.compare a b
      > 0
      || String.equal a b)

let string_concat_unambiguous =
  (* multi-field keys: ("ab","c") must not collide or misorder with
     ("a","bc") *)
  QCheck.Test.make ~name:"keycode concatenation keeps field boundaries"
    ~count:500
    QCheck.(pair (pair string string) (pair string string))
    (fun ((a1, a2), (b1, b2)) ->
      let ka = Keycode.of_string a1 ^ Keycode.of_string a2 in
      let kb = Keycode.of_string b1 ^ Keycode.of_string b2 in
      if String.equal ka kb then a1 = b1 && a2 = b2 else true)

let int_roundtrip =
  QCheck.Test.make ~name:"keycode int roundtrip" ~count:500 QCheck.int
    (fun i ->
      Keycode.read_int (Codec.reader (Keycode.of_int i)) = i)

let string_roundtrip =
  QCheck.Test.make ~name:"keycode string roundtrip" ~count:500 QCheck.string
    (fun s ->
      String.equal (Keycode.read_string (Codec.reader (Keycode.of_string s))) s)

let string_roundtrip_concat =
  QCheck.Test.make ~name:"keycode string roundtrip after concatenation"
    ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      let r = Codec.reader (Keycode.of_string a ^ Keycode.of_string b) in
      String.equal (Keycode.read_string r) a
      && String.equal (Keycode.read_string r) b)

let float_roundtrip =
  QCheck.Test.make ~name:"keycode float roundtrip" ~count:500 QCheck.float
    (fun f ->
      QCheck.assume (not (Float.is_nan f));
      Keycode.read_float (Codec.reader (Keycode.of_float f)) = f)

let sentinels () =
  Alcotest.(check int) "low < x" (-1)
    (Keycode.compare_keys Keycode.low_value (Keycode.of_int 0));
  Alcotest.(check int) "x < high" (-1)
    (Keycode.compare_keys (Keycode.of_int max_int) Keycode.high_value);
  Alcotest.(check int) "high = high" 0
    (Keycode.compare_keys Keycode.high_value Keycode.high_value)

let successor_bounds () =
  let k = Keycode.of_int 5 in
  Alcotest.(check bool) "k < succ k" true
    (String.compare k (Keycode.successor k) < 0);
  Alcotest.(check (option string)) "prefix ub of 0xff" None
    (Keycode.prefix_upper_bound "\xff\xff");
  match Keycode.prefix_upper_bound "ab" with
  | Some ub ->
      Alcotest.(check bool) "ab... < ub" true (String.compare "ab\xff\xff" ub < 0)
  | None -> Alcotest.fail "expected upper bound"

let contents_padded_zero_fills () =
  let w = Codec.writer () in
  Codec.w_bytes w "page";
  Codec.w_u32 w 7;
  Alcotest.(check string) "zero-filled to size"
    (Codec.contents w ^ String.make (16 - Codec.written w) '\x00')
    (Codec.contents_padded w 16);
  Alcotest.(check string) "exact size" (Codec.contents w)
    (Codec.contents_padded w (Codec.written w));
  match Codec.contents_padded w 4 with
  | _ -> Alcotest.fail "overflow accepted"
  | exception Invalid_argument _ -> ()

(* The in-place comparisons answer what comparing the copied sub-string
   would, for any placement of the key inside a larger string, including
   the high-value sentinel and its prefixes. *)
let compare_sub_matches =
  let key =
    QCheck.Gen.(
      oneof
        [
          string_size (int_bound 12);
          return Keycode.high_value;
          map
            (fun n -> String.sub Keycode.high_value 0 n)
            (int_bound (String.length Keycode.high_value));
        ])
  in
  QCheck.Test.make ~name:"compare_sub = compare of the sub-string" ~count:500
    QCheck.(
      make
        Gen.(
          quad key key (string_size (int_bound 4)) (string_size (int_bound 4))))
    (fun (a, b, before, after) ->
      let s = before ^ a ^ after in
      let pos = String.length before and len = String.length a in
      let sign x = compare x 0 in
      sign (Codec.compare_sub s ~pos ~len b) = sign (String.compare a b)
      && sign (Keycode.compare_keys_sub s ~pos ~len b)
         = sign (Keycode.compare_keys a b))

let sub_reader_bounded () =
  let r = Codec.sub_reader "abcdef" ~pos:1 ~len:3 in
  Alcotest.(check string) "reads its range" "bc" (Codec.r_raw r 2);
  Alcotest.(check int) "remaining" 1 (Codec.remaining r);
  (match Codec.r_raw r 2 with
  | _ -> Alcotest.fail "read past the range"
  | exception Codec.Truncated -> ());
  match Codec.sub_reader "abc" ~pos:2 ~len:2 with
  | _ -> Alcotest.fail "range outside the string accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "codec sub_reader stops at its range" `Quick
      sub_reader_bounded;
    QCheck_alcotest.to_alcotest compare_sub_matches;
    Alcotest.test_case "codec int roundtrip" `Quick roundtrip_ints;
    Alcotest.test_case "codec string/float/bool roundtrip" `Quick
      roundtrip_strings;
    Alcotest.test_case "codec truncated read raises" `Quick truncated_raises;
    Alcotest.test_case "codec unread" `Quick unread_restores;
    Alcotest.test_case "codec skip" `Quick skip_moves;
    Alcotest.test_case "codec reset" `Quick reset_reuses;
    Alcotest.test_case "codec r_raw_rstrip" `Quick raw_rstrip;
    Alcotest.test_case "codec varint_size" `Quick varint_size_matches;
    Alcotest.test_case "codec contents_padded" `Quick
      contents_padded_zero_fills;
    Alcotest.test_case "keycode sentinels" `Quick sentinels;
    Alcotest.test_case "keycode successor / prefix bound" `Quick
      successor_bounds;
    QCheck_alcotest.to_alcotest int_order;
    QCheck_alcotest.to_alcotest float_order;
    QCheck_alcotest.to_alcotest string_order;
    QCheck_alcotest.to_alcotest string_concat_unambiguous;
    QCheck_alcotest.to_alcotest int_roundtrip;
    QCheck_alcotest.to_alcotest string_roundtrip;
    QCheck_alcotest.to_alcotest string_roundtrip_concat;
    QCheck_alcotest.to_alcotest float_roundtrip;
  ]

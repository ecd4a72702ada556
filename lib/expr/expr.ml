module Row = Nsql_row.Row
module Codec = Nsql_util.Codec
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

open Errors

type binop = Add | Sub | Mul | Div | Concat

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Field of int
  | Const of Row.value
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Like of t * string

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Concat -> "||"

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp ppf = function
  | Field i -> Format.fprintf ppf "#%d" i
  | Const v -> Row.pp_value ppf v
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (binop_symbol op) pp b
  | Cmp (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_symbol op) pp b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "(NOT %a)" pp a
  | Is_null a -> Format.fprintf ppf "(%a IS NULL)" pp a
  | Like (a, pat) -> Format.fprintf ppf "(%a LIKE %S)" pp a pat

let rec equal a b =
  match (a, b) with
  | Field i, Field j -> i = j
  | Const u, Const v -> Row.equal_value u v
  | Binop (o, a1, a2), Binop (p, b1, b2) -> o = p && equal a1 b1 && equal a2 b2
  | Cmp (o, a1, a2), Cmp (p, b1, b2) -> o = p && equal a1 b1 && equal a2 b2
  | And (a1, a2), And (b1, b2) | Or (a1, a2), Or (b1, b2) ->
      equal a1 b1 && equal a2 b2
  | Not a, Not b | Is_null a, Is_null b -> equal a b
  | Like (a, p), Like (b, q) -> equal a b && String.equal p q
  | ( ( Field _ | Const _ | Binop _ | Cmp _ | And _ | Or _ | Not _ | Is_null _
      | Like _ ),
      _ ) ->
      false

let rec size = function
  | Field _ | Const _ -> 1
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
      1 + size a + size b
  | Not a | Is_null a | Like (a, _) -> 1 + size a

let fields e =
  let rec go acc = function
    | Field i -> i :: acc
    | Const _ -> acc
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        go (go acc a) b
    | Not a | Is_null a | Like (a, _) -> go acc a
  in
  List.sort_uniq compare (go [] e)

let rec map_fields f = function
  | Field i -> Field (f i)
  | Const _ as e -> e
  | Binop (op, a, b) -> Binop (op, map_fields f a, map_fields f b)
  | Cmp (op, a, b) -> Cmp (op, map_fields f a, map_fields f b)
  | And (a, b) -> And (map_fields f a, map_fields f b)
  | Or (a, b) -> Or (map_fields f a, map_fields f b)
  | Not a -> Not (map_fields f a)
  | Is_null a -> Is_null (map_fields f a)
  | Like (a, p) -> Like (map_fields f a, p)

let int_ i = Const (Row.Vint i)
let float_ f = Const (Row.Vfloat f)
let str s = Const (Row.Vstr s)
let bool_ b = Const (Row.Vbool b)
let null = Const Row.Null
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let conjuncts e =
  let rec go acc = function
    | And (a, b) -> go (go acc b) a
    | e -> e :: acc
  in
  go [] e

let conjoin = function
  | [] -> Const (Row.Vbool true)
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

(* --- type checking --------------------------------------------------- *)

let is_numeric = function Row.T_int | Row.T_float -> true | _ -> false
let is_stringy = function Row.T_char _ | Row.T_varchar _ -> true | _ -> false

let type_of_value = function
  | Row.Null -> None
  | Row.Vint _ -> Some Row.T_int
  | Row.Vfloat _ -> Some Row.T_float
  | Row.Vbool _ -> Some Row.T_bool
  | Row.Vstr s -> Some (Row.T_varchar (max 1 (String.length s)))

let comparable a b =
  (is_numeric a && is_numeric b)
  || (is_stringy a && is_stringy b)
  || Row.equal_col_type a b

let typecheck sch e =
  let open Row in
  let rec go = function
    | Field i ->
        if i < 0 || i >= Array.length sch.cols then
          fail (Name_error (Printf.sprintf "field #%d out of range" i))
        else Ok sch.cols.(i).col_type
    | Const v -> (
        match type_of_value v with
        | Some ty -> Ok ty
        | None -> Ok T_int (* NULL adopts context type; int is a placeholder *))
    | Binop (Concat, a, b) ->
        let* ta = go a in
        let* tb = go b in
        if is_stringy ta && is_stringy tb then Ok (T_varchar 65535)
        else fail (Type_error "|| requires string operands")
    | Binop (op, a, b) ->
        let* ta = go a in
        let* tb = go b in
        if is_numeric ta && is_numeric tb then
          if equal_col_type ta T_float || equal_col_type tb T_float || op = Div
          then Ok T_float
          else Ok T_int
        else fail (Type_error (binop_symbol op ^ " requires numeric operands"))
    | Cmp (_, a, b) ->
        let* ta = go a in
        let* tb = go b in
        if comparable ta tb then Ok T_bool
        else
          fail
            (Type_error
               (Format.asprintf "cannot compare %a with %a" pp_col_type ta
                  pp_col_type tb))
    | And (a, b) | Or (a, b) ->
        let* ta = go a in
        let* tb = go b in
        if equal_col_type ta T_bool && equal_col_type tb T_bool then Ok T_bool
        else fail (Type_error "AND/OR require boolean operands")
    | Not a ->
        let* ta = go a in
        if equal_col_type ta T_bool then Ok T_bool
        else fail (Type_error "NOT requires a boolean operand")
    | Is_null a ->
        let* _ = go a in
        Ok T_bool
    | Like (a, _) ->
        let* ta = go a in
        if is_stringy ta then Ok T_bool
        else fail (Type_error "LIKE requires a string operand")
  in
  go e

(* --- evaluation ------------------------------------------------------ *)

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* classic backtracking wildcard match; % = any run, _ = one char *)
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '%' ->
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let num_binop op a b =
  let open Row in
  match (op, a, b) with
  | Add, Vint x, Vint y -> Vint (x + y)
  | Sub, Vint x, Vint y -> Vint (x - y)
  | Mul, Vint x, Vint y -> Vint (x * y)
  | Div, Vint _, Vint 0 -> Null
  | Div, Vint x, Vint y -> Vint (x / y)
  | _ ->
      let f = function
        | Vint i -> float_of_int i
        | Vfloat f -> f
        | _ -> invalid_arg "Expr: numeric op on non-numeric"
      in
      let x = f a and y = f b in
      let r =
        match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> if y = 0. then Float.nan else x /. y
        | Concat -> invalid_arg "Expr: concat in num_binop"
      in
      if Float.is_nan r && op = Div && y = 0. then Null else Vfloat r

let rec eval row e =
  let open Row in
  match e with
  | Field i -> row.(i)
  | Const v -> v
  | Binop (Concat, a, b) -> (
      match (eval row a, eval row b) with
      | Null, _ | _, Null -> Null
      | Vstr x, Vstr y -> Vstr (x ^ y)
      | _ -> invalid_arg "Expr.eval: || on non-strings")
  | Binop (op, a, b) -> (
      match (eval row a, eval row b) with
      | Null, _ | _, Null -> Null
      | x, y -> num_binop op x y)
  | Cmp (op, a, b) -> (
      match (eval row a, eval row b) with
      | Null, _ | _, Null -> Null
      | x, y ->
          let c = Row.compare_value x y in
          let r =
            match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
          in
          Vbool r)
  | And (a, b) -> (
      (* Kleene logic *)
      match eval row a with
      | Vbool false -> Vbool false
      | Vbool true -> eval row b
      | Null -> ( match eval row b with Vbool false -> Vbool false | _ -> Null)
      | _ -> invalid_arg "Expr.eval: AND on non-boolean")
  | Or (a, b) -> (
      match eval row a with
      | Vbool true -> Vbool true
      | Vbool false -> eval row b
      | Null -> ( match eval row b with Vbool true -> Vbool true | _ -> Null)
      | _ -> invalid_arg "Expr.eval: OR on non-boolean")
  | Not a -> (
      match eval row a with
      | Vbool b -> Vbool (not b)
      | Null -> Null
      | _ -> invalid_arg "Expr.eval: NOT on non-boolean")
  | Is_null a -> Vbool (eval row a = Null)
  | Like (a, pattern) -> (
      match eval row a with
      | Null -> Null
      | Vstr s -> Vbool (like_match ~pattern s)
      | _ -> invalid_arg "Expr.eval: LIKE on non-string")

let eval_pred row e =
  match eval row e with Row.Vbool true -> true | _ -> false

(* --- assignments ----------------------------------------------------- *)

type assignment = { target : int; source : t }

let apply_assignments row assignments =
  let updated = Array.copy row in
  List.iter (fun a -> updated.(a.target) <- eval row a.source) assignments;
  updated

(* --- wire codec ------------------------------------------------------ *)

let tag_of_binop = function Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Concat -> 4
let binop_of_tag = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Div | 4 -> Concat
  | n -> invalid_arg (Printf.sprintf "Expr.decode: bad binop tag %d" n)

let tag_of_cmp = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5
let cmp_of_tag = function
  | 0 -> Eq | 1 -> Ne | 2 -> Lt | 3 -> Le | 4 -> Gt | 5 -> Ge
  | n -> invalid_arg (Printf.sprintf "Expr.decode: bad cmp tag %d" n)

let encode_value = Row.encode_value
let decode_value = Row.decode_value

let rec encode w = function
  | Field i ->
      Codec.w_u8 w 0;
      Codec.w_varint w i
  | Const v ->
      Codec.w_u8 w 1;
      encode_value w v
  | Binop (op, a, b) ->
      Codec.w_u8 w 2;
      Codec.w_u8 w (tag_of_binop op);
      encode w a;
      encode w b
  | Cmp (op, a, b) ->
      Codec.w_u8 w 3;
      Codec.w_u8 w (tag_of_cmp op);
      encode w a;
      encode w b
  | And (a, b) ->
      Codec.w_u8 w 4;
      encode w a;
      encode w b
  | Or (a, b) ->
      Codec.w_u8 w 5;
      encode w a;
      encode w b
  | Not a ->
      Codec.w_u8 w 6;
      encode w a
  | Is_null a ->
      Codec.w_u8 w 7;
      encode w a
  | Like (a, pattern) ->
      Codec.w_u8 w 8;
      encode w a;
      Codec.w_bytes w pattern

let rec decode r =
  match Codec.r_u8 r with
  | 0 -> Field (Codec.r_varint r)
  | 1 -> Const (decode_value r)
  | 2 ->
      let op = binop_of_tag (Codec.r_u8 r) in
      let a = decode r in
      let b = decode r in
      Binop (op, a, b)
  | 3 ->
      let op = cmp_of_tag (Codec.r_u8 r) in
      let a = decode r in
      let b = decode r in
      Cmp (op, a, b)
  | 4 ->
      let a = decode r in
      let b = decode r in
      And (a, b)
  | 5 ->
      let a = decode r in
      let b = decode r in
      Or (a, b)
  | 6 -> Not (decode r)
  | 7 -> Is_null (decode r)
  | 8 ->
      let a = decode r in
      let pattern = Codec.r_bytes r in
      Like (a, pattern)
  | n -> invalid_arg (Printf.sprintf "Expr.decode: bad expr tag %d" n)

let encode_assignment w a =
  Codec.w_varint w a.target;
  encode w a.source

let decode_assignment r =
  let target = Codec.r_varint r in
  let source = decode r in
  { target; source }

(* --- key-range extraction -------------------------------------------- *)

type key_range = { lo : string; hi : string }

let full_range = { lo = Keycode.low_value; hi = Keycode.high_value }

let pp_key_range ppf r =
  let pp_key ppf k =
    if String.equal k Keycode.low_value then Format.pp_print_string ppf "LOW"
    else if String.equal k Keycode.high_value then
      Format.pp_print_string ppf "HIGH"
    else Format.fprintf ppf "%S" k
  in
  Format.fprintf ppf "[%a, %a)" pp_key r.lo pp_key r.hi

let range_contains r key =
  Keycode.compare_keys r.lo key <= 0 && Keycode.compare_keys key r.hi < 0

let encode_key_value ty v =
  let open Row in
  match (v, ty) with
  | Vint i, T_int -> Some (Keycode.of_int i)
  | Vfloat f, T_float -> Some (Keycode.of_float f)
  | Vbool b, T_bool -> Some (Keycode.of_bool b)
  | Vstr s, (T_char _ | T_varchar _) -> Some (Keycode.of_string s)
  | _ -> None

(* Which comparisons on the key column [col] can constrain the range?
   Normalize [Const cmp Field] to [Field cmp' Const]. *)
let as_key_constraint col e =
  let flip = function
    | Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
  in
  match e with
  | Cmp (op, Field f, Const v) when f = col -> Some (op, v)
  | Cmp (op, Const v, Field f) when f = col -> Some (flip op, v)
  | _ -> None

let extract_key_range sch pred =
  let open Row in
  let cs = conjuncts pred in
  (* walk key columns: absorb equalities while possible, then at most one
     range-constraining column *)
  let absorbed = ref [] in
  let prefix = Buffer.create 16 in
  let lo = ref None and hi = ref None in
  let stop = ref false in
  let key_cols = sch.key_cols in
  let i = ref 0 in
  while (not !stop) && !i < Array.length key_cols do
    let col = key_cols.(!i) in
    let ty = sch.cols.(col).col_type in
    (* find an equality on this column *)
    let eq =
      List.find_opt
        (fun c ->
          match as_key_constraint col c with
          | Some (Eq, v) -> encode_key_value ty v <> None
          | _ -> false)
        cs
    in
    match eq with
    | Some c ->
        (match as_key_constraint col c with
        | Some (Eq, v) -> (
            match encode_key_value ty v with
            | Some enc ->
                Buffer.add_string prefix enc;
                absorbed := c :: !absorbed
            | None -> assert false)
        | _ -> assert false);
        incr i
    | None ->
        (* collect range constraints on this column, then stop *)
        List.iter
          (fun c ->
            match as_key_constraint col c with
            | Some (Lt, v) | Some (Le, v) -> (
                match encode_key_value ty v with
                | Some enc ->
                    let op =
                      match as_key_constraint col c with
                      | Some (op, _) -> op
                      | None -> assert false
                    in
                    let bound =
                      match op with
                      | Lt -> Buffer.contents prefix ^ enc
                      | Le -> (
                          match
                            Keycode.prefix_upper_bound
                              (Buffer.contents prefix ^ enc)
                          with
                          | Some b -> b
                          | None -> Keycode.high_value)
                      | _ -> assert false
                    in
                    (match !hi with
                    | None -> hi := Some bound
                    | Some h ->
                        if Keycode.compare_keys bound h < 0 then hi := Some bound);
                    absorbed := c :: !absorbed
                | None -> ())
            | Some (Gt, v) | Some (Ge, v) -> (
                match encode_key_value ty v with
                | Some enc ->
                    let op =
                      match as_key_constraint col c with
                      | Some (op, _) -> op
                      | None -> assert false
                    in
                    let bound =
                      match op with
                      | Ge -> Buffer.contents prefix ^ enc
                      | Gt -> (
                          match
                            Keycode.prefix_upper_bound
                              (Buffer.contents prefix ^ enc)
                          with
                          | Some b -> b
                          | None -> Keycode.high_value)
                      | _ -> assert false
                    in
                    (match !lo with
                    | None -> lo := Some bound
                    | Some l ->
                        if Keycode.compare_keys bound l > 0 then lo := Some bound);
                    absorbed := c :: !absorbed
                | None -> ())
            | _ -> ())
          cs;
        stop := true
  done;
  let prefix_s = Buffer.contents prefix in
  let range =
    if String.length prefix_s = 0 then
      {
        lo = (match !lo with Some l -> l | None -> Keycode.low_value);
        hi = (match !hi with Some h -> h | None -> Keycode.high_value);
      }
    else begin
      let default_hi =
        match Keycode.prefix_upper_bound prefix_s with
        | Some b -> b
        | None -> Keycode.high_value
      in
      {
        lo = (match !lo with Some l -> l | None -> prefix_s);
        hi = (match !hi with Some h -> h | None -> default_hi);
      }
    end
  in
  let residual =
    List.filter (fun c -> not (List.memq c !absorbed)) cs
  in
  let residual = match residual with [] -> None | cs -> Some (conjoin cs) in
  (range, residual)

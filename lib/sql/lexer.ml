module Errors = Nsql_util.Errors

type token =
  | T_ident of string
  | T_keyword of string
  | T_int of int
  | T_float of float
  | T_string of string
  | T_symbol of string
  | T_eof

let pp_token ppf = function
  | T_ident s -> Format.fprintf ppf "ident %s" s
  | T_keyword s -> Format.fprintf ppf "keyword %s" s
  | T_int i -> Format.fprintf ppf "int %d" i
  | T_float f -> Format.fprintf ppf "float %g" f
  | T_string s -> Format.fprintf ppf "string '%s'" s
  | T_symbol s -> Format.fprintf ppf "symbol %s" s
  | T_eof -> Format.pp_print_string ppf "<eof>"

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "INSERT"; "INTO"; "VALUES";
    "UPDATE"; "SET"; "DELETE"; "CREATE"; "TABLE"; "INDEX"; "ON"; "PRIMARY";
    "KEY"; "CHECK"; "NULL"; "IS"; "LIKE"; "BETWEEN"; "IN"; "AS"; "ORDER";
    "GROUP"; "BY"; "HAVING"; "ASC"; "DESC"; "LIMIT"; "BEGIN"; "COMMIT";
    "ROLLBACK"; "WORK"; "INT"; "INTEGER"; "FLOAT"; "REAL"; "DOUBLE"; "BOOL";
    "BOOLEAN"; "CHAR"; "VARCHAR"; "TRUE"; "FALSE"; "COUNT"; "SUM"; "MIN";
    "MAX"; "AVG"; "JOIN"; "INNER"; "PRECISION"; "UNIQUE"; "DISTINCT"; "DROP";
  ]

let is_keyword s = List.mem (String.uppercase_ascii s) keywords

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let error = ref None in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  let push_float lit =
    match float_of_string lit with
    | f -> push (T_float f)
    | exception Failure _ -> error := Some ("malformed numeric literal " ^ lit)
  in
  while !error = None && !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      if is_keyword word then push (T_keyword (String.uppercase_ascii word))
      else push (T_ident (String.lowercase_ascii word))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        incr i;
        while !i < n && is_digit src.[!i] do incr i done;
        (if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
           incr i;
           if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
           while !i < n && is_digit src.[!i] do incr i done
         end);
        push_float (String.sub src start (!i - start))
      end
      else if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        while !i < n && is_digit src.[!i] do incr i done;
        push_float (String.sub src start (!i - start))
      end
      else begin
        let lit = String.sub src start (!i - start) in
        match int_of_string lit with
        | v -> push (T_int v)
        | exception Failure _ ->
            error := Some ("integer literal " ^ lit ^ " out of range")
      end
    end
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !error = None do
        if !i >= n then error := Some "unterminated string literal"
        else if src.[!i] = '\'' then
          if !i + 1 < n && src.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if !error = None then push (T_string (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" | "||" ->
          push (T_symbol (if two = "!=" then "<>" else two));
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | ',' | ';' | '=' | '<' | '>' | '+' | '-' | '*' | '/'
          | '.' ->
              push (T_symbol (String.make 1 c));
              incr i
          | c -> error := Some (Printf.sprintf "unexpected character %C" c))
    end
  done;
  match !error with
  | Some msg -> Errors.fail (Errors.Parse_error msg)
  | None -> Ok (List.rev (T_eof :: !tokens))

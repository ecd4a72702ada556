(* Seeded inputs and the reference models the output checks compare
   against. Nothing here touches the simulator: the library only ever sees
   the SQL text these functions produce. *)

module Row = Nsql_row.Row

(* splitmix64: a stable generator independent of the stdlib's [Random],
   so one seed gives the same inputs on every OCaml version *)
type rng = { mutable s : int64 }

let rng ~seed ~salt = { s = Int64.(logxor (of_int seed) (mul (of_int salt) 0x9E3779B97F4A7C15L)) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* uniform in [0, bound) *)
let int r bound = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

(* --- the Wisconsin relation in closed form ----------------------------- *)

(* These replicate the generator in lib/workload/wisconsin.ml: unique2 is
   the key 0..n-1, unique1 a fixed xorshift permutation of it, and every
   other column a function of (n, unique1, unique2). The checks compare
   the simulator's answers with values computed here, never with values
   read back from the simulator. *)
let permutation n =
  let state = ref 88172645463325252L in
  let next_int bound =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))
  in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = next_int (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let string_of_unique u =
  let letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  let b = Bytes.make 7 'A' in
  let rec fill i u =
    if i >= 0 then begin
      Bytes.set b i letters.[u mod 26];
      fill (i - 1) (u / 26)
    end
  in
  fill 6 u;
  Bytes.to_string b ^ "xxxxxxxxxxxxxxxxxxxxxxxxx"

let wisc_row n u1 u2 : Row.row =
  [|
    Row.Vint u1;
    Row.Vint u2;
    Row.Vint (u1 mod 2);
    Row.Vint (u1 mod 4);
    Row.Vint (u1 mod 10);
    Row.Vint (u1 mod 20);
    Row.Vint (u1 mod max 1 (n / 100));
    Row.Vint (u1 mod max 1 (n / 10));
    Row.Vint (u1 mod max 1 (n / 5));
    Row.Vint (u1 mod 2);
    Row.Vint u1;
    Row.Vint (u1 mod max 1 (n / 100) * 2);
    Row.Vint ((u1 mod max 1 (n / 100) * 2) + 1);
    Row.Vstr (string_of_unique u1);
    Row.Vstr (string_of_unique u2);
    Row.Vstr (string_of_unique (u1 mod 4));
  |]

(* column position of the key, for ordering answers *)
let c_unique2 = 1

type wisc = {
  n : int;
  u1 : int array;  (** unique1 of each unique2 *)
  u2_of_u1 : int array;
}

let wisc n =
  let u1 = permutation n in
  let u2_of_u1 = Array.make n 0 in
  Array.iteri (fun u2 v -> u2_of_u1.(v) <- u2) u1;
  { n; u1; u2_of_u1 }

let row_of_u2 w u2 = wisc_row w.n w.u1.(u2) u2

(* SQL literal text of a Wisconsin row, for INSERT *)
let sql_of_row (r : Row.row) =
  String.concat ", "
    (Array.to_list
       (Array.map
          (function
            | Row.Vint i -> string_of_int i
            | Row.Vstr s -> "'" ^ s ^ "'"
            | v -> invalid_arg (Format.asprintf "sql_of_row: %a" Row.pp_value v))
          r))

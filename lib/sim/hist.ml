(* Deterministic fixed-bucket latency histogram.

   Buckets are log-spaced: bucket 0 holds everything at or below 1 us and
   bucket [i] covers (edges.(i-1), edges.(i)] with a fixed ratio of
   2^(1/8) (~9% per bucket), so 256 buckets reach past an hour of
   simulated microseconds. The edges are precomputed by repeated
   multiplication — no [log] in the record path — and lookup is a binary
   search, so the bucket assignment of a given float is a pure function
   of its value.

   A histogram deliberately stores only int bucket counts plus the exact
   min/max: there is no float sum, so [merge] is associative and
   order-independent to the bit (int additions commute; min/max are
   lattice operations). Quantiles are read as the upper edge of the
   bucket holding the rank, clamped to the observed max — always an
   upper bound on the true order statistic, and always inside the same
   bucket as it. *)

let n_buckets = 256

let edges =
  let e = Array.make n_buckets 1.0 in
  let ratio = 2. ** 0.125 in
  for i = 1 to n_buckets - 1 do
    e.(i) <- e.(i - 1) *. ratio
  done;
  e

(* smallest [i] with [v <= edges.(i)]; values beyond the last edge clamp
   into the final bucket *)
let bucket_of v =
  if v <= edges.(0) then 0
  else if v > edges.(n_buckets - 1) then n_buckets - 1
  else begin
    let lo = ref 0 and hi = ref (n_buckets - 1) in
    (* invariant: edges.(!lo) < v <= edges.(!hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= edges.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

type t = {
  counts : int array;
  mutable n : int;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make n_buckets 0; n = 0; min_v = infinity; max_v = neg_infinity }

let record t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let is_empty t = t.n = 0
let min_value t = if t.n = 0 then 0. else t.min_v
let max_value t = if t.n = 0 then 0. else t.max_v

let merge a b =
  let m = create () in
  for i = 0 to n_buckets - 1 do
    m.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  m.n <- a.n + b.n;
  m.min_v <- min a.min_v b.min_v;
  m.max_v <- max a.max_v b.max_v;
  m

let quantile t q =
  if t.n = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let b = ref 0 and cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    (* the final bucket is unbounded above (overflow clamps into it), so
       its edge is no upper bound — the observed max is *)
    let v = if !b = n_buckets - 1 then t.max_v else edges.(!b) in
    if v > t.max_v then t.max_v else v
  end

(* (bucket index, count) for every non-empty bucket, in index order *)
let nonzero t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

exception Truncated

type writer = Buffer.t

let writer () = Buffer.create 64
let writer_sized n = Buffer.create n

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_u16 b v =
  w_u8 b v;
  w_u8 b (v lsr 8)

let w_u32 b v =
  w_u16 b (v land 0xffff);
  w_u16 b ((v lsr 16) land 0xffff)

let w_i64 b v = Buffer.add_int64_le b v
let w_int b v = Buffer.add_int64_le b (Int64.of_int v)

(* top-level, not a local closure over [b]: writing a varint allocates
   nothing *)
let rec w_varint_loop b n =
  if n < 0x80 then w_u8 b n
  else begin
    w_u8 b (0x80 lor (n land 0x7f));
    w_varint_loop b (n lsr 7)
  end

let w_varint b n =
  if n < 0 then invalid_arg "Codec.w_varint: negative";
  w_varint_loop b n

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let w_float b f = w_i64 b (Int64.bits_of_float f)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_raw b s = Buffer.add_string b s

let w_bytes b s =
  w_varint b (String.length s);
  w_raw b s

let written = Buffer.length
let contents = Buffer.contents
let reset = Buffer.clear

let contents_padded b n =
  let out = Bytes.make n '\x00' in
  Buffer.blit b 0 out 0 (Buffer.length b);
  Bytes.unsafe_to_string out

(* [lim] is the offset one past the last byte the reader may consume *)
type reader = { src : string; mutable pos : int; lim : int }

let reader src = { src; pos = 0; lim = String.length src }

let sub_reader src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length src then
    invalid_arg "Codec.sub_reader";
  { src; pos; lim = pos + len }

let need r n = if r.pos + n > r.lim then raise Truncated

let r_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  let lo = r_u8 r in
  let hi = r_u8 r in
  lo lor (hi lsl 8)

let r_u32 r =
  let lo = r_u16 r in
  let hi = r_u16 r in
  lo lor (hi lsl 16)

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

(* not through [r_i64]: converting in place keeps the int64 unboxed *)
let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

(* top-level, not a local closure over [r]: reading a varint allocates
   nothing *)
let rec r_varint_loop r shift acc =
  let b = r_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else r_varint_loop r (shift + 7) acc

let r_varint r = r_varint_loop r 0 0

let r_float r = Int64.float_of_bits (r_i64 r)
let r_bool r = r_u8 r <> 0

let r_raw r n =
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_raw_rstrip r n =
  need r n;
  let p = r.pos in
  let e = ref (p + n) in
  while !e > p && String.unsafe_get r.src (!e - 1) = ' ' do
    decr e
  done;
  r.pos <- p + n;
  String.sub r.src p (!e - p)

let r_bytes r =
  let n = r_varint r in
  r_raw r n

let skip r n =
  if n < 0 then raise Truncated;
  need r n;
  r.pos <- r.pos + n

let unread r n =
  if n > r.pos then invalid_arg "Codec.unread";
  r.pos <- r.pos - n

let pos r = r.pos
let remaining r = r.lim - r.pos
let at_end r = remaining r = 0

(* top-level, not a local closure: comparing allocates nothing *)
let rec compare_sub_loop s pos b i n =
  if i = n then 0
  else
    let c =
      Char.compare (String.unsafe_get s (pos + i)) (String.unsafe_get b i)
    in
    if c <> 0 then c else compare_sub_loop s pos b (i + 1) n

let compare_sub s ~pos ~len b =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.compare_sub";
  let lb = String.length b in
  let c = compare_sub_loop s pos b 0 (min len lb) in
  if c <> 0 then c else Int.compare len lb

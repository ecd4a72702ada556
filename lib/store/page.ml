module Codec = Nsql_util.Codec
module Keycode = Nsql_util.Keycode

type t =
  | Leaf of { entries : (string * string) array; next : int }
  | Node of { child0 : int; entries : (string * int) array }

let empty_leaf = Leaf { entries = [||]; next = -1 }

let varint_size = Codec.varint_size

let bytes_size s = varint_size (String.length s) + String.length s

let leaf_entry_size key record = bytes_size key + bytes_size record

let node_entry_size key = bytes_size key + 4

(* the page type byte, the entry count and [next] or [child0] *)
let header_size = 1 + 2 + 4

let size = function
  | Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (k, r) -> acc + leaf_entry_size k r)
        header_size entries
  | Node { entries; _ } ->
      Array.fold_left
        (fun acc (k, _) -> acc + node_entry_size k)
        header_size entries

let encode ~block_size p =
  let w = Codec.writer_sized block_size in
  (match p with
  | Leaf { entries; next } ->
      Codec.w_u8 w 0;
      Codec.w_u16 w (Array.length entries);
      Codec.w_u32 w (next + 1);
      Array.iter
        (fun (k, r) ->
          Codec.w_bytes w k;
          Codec.w_bytes w r)
        entries
  | Node { child0; entries } ->
      Codec.w_u8 w 1;
      Codec.w_u16 w (Array.length entries);
      Codec.w_u32 w child0;
      Array.iter
        (fun (k, c) ->
          Codec.w_bytes w k;
          Codec.w_u32 w c)
        entries);
  let n = Codec.written w in
  if n > block_size then
    invalid_arg
      (Printf.sprintf "Page.encode: page of %d bytes exceeds block size %d" n
         block_size);
  Codec.contents_padded w block_size

let decode_node r =
  let n = Codec.r_u16 r in
  let child0 = Codec.r_u32 r in
  let entries =
    Array.init n (fun _ ->
        let k = Codec.r_bytes r in
        let c = Codec.r_u32 r in
        (k, c))
  in
  (child0, entries)

let decode s =
  let r = Codec.reader s in
  match Codec.r_u8 r with
  | 0 ->
      let n = Codec.r_u16 r in
      let next = Codec.r_u32 r - 1 in
      let entries =
        Array.init n (fun _ ->
            let k = Codec.r_bytes r in
            let v = Codec.r_bytes r in
            (k, v))
      in
      Leaf { entries; next }
  | 1 ->
      let child0, entries = decode_node r in
      Node { child0; entries }
  | tag -> invalid_arg (Printf.sprintf "Page.decode: bad page type %d" tag)

(* --- leaves read in place ------------------------------------------------ *)

(* [slots.(i)] is the offset of entry [i]'s key-length varint in [block],
   and [slots.(n)] the offset one past the last entry, so the leaf's used
   size. *)
type leaf = { block : string; slots : int array; next : int }

(* a varint read in place; top-level so it allocates nothing *)
let rec varint_at s p shift acc =
  let b = Char.code (String.unsafe_get s p) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_at s (p + 1) (shift + 7) acc

(* the offset table of a leaf block, read by [r] from just after the
   type byte *)
let leaf_of_block block r =
  let n = Codec.r_u16 r in
  let next = Codec.r_u32 r - 1 in
  let slots = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    slots.(i) <- Codec.pos r;
    Codec.skip r (Codec.r_varint r);
    Codec.skip r (Codec.r_varint r)
  done;
  slots.(n) <- Codec.pos r;
  { block; slots; next }

let leaf_count l = Array.length l.slots - 1
let leaf_next l = l.next
let leaf_size l = l.slots.(leaf_count l)
let leaf_block l = l.block

let key_len l i = varint_at l.block l.slots.(i) 0 0

(* [key_pos l i kl] is where entry [i]'s key of [kl] bytes starts *)
let key_pos l i kl = l.slots.(i) + varint_size kl

(* the offset of entry [i]'s record-length varint *)
let record_at l i =
  let kl = key_len l i in
  key_pos l i kl + kl

let record_len l i = varint_at l.block (record_at l i) 0 0

let record_pos l i =
  let p = record_at l i in
  p + varint_size (varint_at l.block p 0 0)

let leaf_key l i =
  let kl = key_len l i in
  String.sub l.block (key_pos l i kl) kl

let leaf_record l i = String.sub l.block (record_pos l i) (record_len l i)

let compare_key l i key =
  let kl = key_len l i in
  Keycode.compare_keys_sub l.block ~pos:(key_pos l i kl) ~len:kl key

let compare_key_bytes l i key =
  let kl = key_len l i in
  Codec.compare_sub l.block ~pos:(key_pos l i kl) ~len:kl key

let key_equal l i key =
  key_len l i = String.length key && compare_key_bytes l i key = 0

(* first index with key >= probe, in byte order (the order the tree is
   built in) *)
let leaf_find l key =
  let lo = ref 0 and hi = ref (leaf_count l) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key_bytes l mid key < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let leaf_entries l =
  Array.init (leaf_count l) (fun i -> (leaf_key l i, leaf_record l i))

(* [put_bytes b p s] writes [s] as [Codec.w_bytes] does at offset [p] of
   [b] and returns the offset after it *)
let rec put_varint b p n =
  if n < 0x80 then begin
    Bytes.set_uint8 b p n;
    p + 1
  end
  else begin
    Bytes.set_uint8 b p (0x80 lor (n land 0x7f));
    put_varint b (p + 1) (n lsr 7)
  end

let put_bytes b p s =
  let p = put_varint b p (String.length s) in
  Bytes.blit_string s 0 b p (String.length s);
  p + String.length s

(* The block with entries [pos, pos + drop) replaced by [add]'s entry, if
   any. Entries are stored back to back after the header, so the bytes
   before [pos] and after the dropped ones move as they are, and the
   result is exactly what [encode] writes for the edited entry array. *)
let splice ~block_size l pos ~drop add =
  let n = leaf_count l in
  let cut = l.slots.(pos) and resume = l.slots.(pos + drop) in
  let tail = leaf_size l - resume in
  let added, count =
    match add with
    | None -> (0, n - drop)
    | Some (k, r) -> (leaf_entry_size k r, n - drop + 1)
  in
  let size = cut + added + tail in
  if size > block_size then
    invalid_arg
      (Printf.sprintf "Page.splice: page of %d bytes exceeds block size %d"
         size block_size);
  let b = Bytes.make block_size '\x00' in
  Bytes.blit_string l.block 0 b 0 cut;
  Bytes.set_uint16_le b 1 count;
  (match add with
  | None -> ()
  | Some (k, r) -> ignore (put_bytes b (put_bytes b cut k) r));
  Bytes.blit_string l.block resume b (cut + added) tail;
  Bytes.unsafe_to_string b

let leaf_insert ~block_size l pos ~key ~record =
  splice ~block_size l pos ~drop:0 (Some (key, record))

let leaf_replace ~block_size l pos ~record =
  splice ~block_size l pos ~drop:1 (Some (leaf_key l pos, record))

let leaf_remove ~block_size l pos = splice ~block_size l pos ~drop:1 None

type view =
  | Leaf_view of leaf
  | Node_view of { child0 : int; entries : (string * int) array }

let view block =
  let r = Codec.reader block in
  match Codec.r_u8 r with
  | 0 -> Leaf_view (leaf_of_block block r)
  | 1 ->
      let child0, entries = decode_node r in
      Node_view { child0; entries }
  | tag -> invalid_arg (Printf.sprintf "Page.view: bad page type %d" tag)

let split_cut ~block_size p mid =
  let sizes, promoted =
    match p with
    | Leaf { entries; _ } ->
        (Array.map (fun (k, r) -> leaf_entry_size k r) entries, 0)
    | Node { entries; _ } ->
        (Array.map (fun (k, _) -> node_entry_size k) entries, 1)
  in
  let n = Array.length sizes in
  (* [prefix.(c)] is the size of a page holding entries [0, c) *)
  let prefix = Array.make (n + 1) header_size in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + sizes.(i)
  done;
  let left_fits c = prefix.(c) <= block_size in
  let right_fits c = header_size + prefix.(n) - prefix.(c + promoted) <= block_size in
  let rec down c = if c <= 1 || left_fits c then c else down (c - 1) in
  let rec up c = if c >= n - 1 - promoted || right_fits c then c else up (c + 1) in
  if not (left_fits mid) then down mid
  else if not (right_fits mid) then up mid
  else mid

let find_child entries child0 key =
  (* last separator <= key selects its child; none selects child0 *)
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = entries.(mid) in
    if String.compare k key <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then child0 else snd entries.(!lo - 1)

let pp ppf = function
  | Leaf { entries; next } ->
      Format.fprintf ppf "Leaf(%d entries, next=%d)" (Array.length entries)
        next
  | Node { child0; entries } ->
      Format.fprintf ppf "Node(child0=%d, %d separators)" child0
        (Array.length entries)

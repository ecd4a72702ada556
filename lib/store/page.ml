module Codec = Nsql_util.Codec

type t =
  | Leaf of { entries : (string * string) array; next : int }
  | Node of { child0 : int; entries : (string * int) array }

let empty_leaf = Leaf { entries = [||]; next = -1 }

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max n 0) 1

let bytes_size s = varint_size (String.length s) + String.length s

let leaf_entry_size key record = bytes_size key + bytes_size record

let node_entry_size key = bytes_size key + 4

let size = function
  | Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (k, r) -> acc + leaf_entry_size k r)
        (1 + 2 + 4) entries
  | Node { entries; _ } ->
      Array.fold_left
        (fun acc (k, _) -> acc + node_entry_size k)
        (1 + 2 + 4) entries

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
      let n = Codec.r_u16 r in
      let child0 = Codec.r_u32 r in
      let entries =
        Array.init n (fun _ ->
            let k = Codec.r_bytes r in
            let c = Codec.r_u32 r in
            (k, c))
      in
      Node { child0; entries }
  | tag -> invalid_arg (Printf.sprintf "Page.decode: bad page type %d" tag)

(* first index with key >= probe *)
let find_leaf_pos entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = entries.(mid) in
    if String.compare k key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

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

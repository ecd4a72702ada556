module Sim = Nsql_sim.Sim
module Cache = Nsql_cache.Cache
module Disk = Nsql_disk.Disk
module Errors = Nsql_util.Errors

type t = {
  sim : Sim.t;
  cache : Cache.t;
  name : string;
  mutable root : int;
  mutable nrecords : int;
  mutable height : int;
  block_size : int;
}

let alloc_block t = Disk.allocate (Cache.disk t.cache) 1

(* Each resident frame keeps its page view, built once per residency
   instead of once per access: a leaf is its block plus the offset of each
   entry, read in place, and a node is decoded. The cache drops the view
   whenever the frame's bytes change. A view is immutable, so sharing it
   between readers is safe. *)
type Cache.view += Page_view of Page.view

let read_page t block =
  match Cache.read_view t.cache block (fun data -> Page_view (Page.view data)) with
  | Page_view p -> p
  | _ -> invalid_arg "Btree.read_page: block holds a foreign view"

let write_page t block page ~lsn =
  Cache.write t.cache block (Page.encode ~block_size:t.block_size page) ~lsn

let create sim cache ~name =
  let block_size = Disk.block_size (Cache.disk cache) in
  let t =
    { sim; cache; name; root = 0; nrecords = 0; height = 1; block_size }
  in
  let root = Disk.allocate (Cache.disk cache) 1 in
  t.root <- root;
  write_page t root Page.empty_leaf ~lsn:0L;
  t

let name t = t.name
let record_count t = t.nrecords
let height t = t.height
let root_block t = t.root

(* --- descent ----------------------------------------------------------- *)

(* Returns the leaf's block and view and the path of internal nodes
   visited: [(block, child0, entries)] outermost first. *)
let rec descend t block path key =
  Sim.tick t.sim 10;
  match read_page t block with
  | Page.Leaf_view l -> (block, l, List.rev path)
  | Page.Node_view { child0; entries } ->
      let child = Page.find_child entries child0 key in
      descend t child ((block, child0, entries) :: path) key

let find_leaf t key = descend t t.root [] key

(* the index of [key] in [l], if present *)
let find_key l key =
  let pos = Page.leaf_find l key in
  if pos < Page.leaf_count l && Page.key_equal l pos key then Some pos
  else None

let lookup t key =
  let _, l, _ = find_leaf t key in
  match find_key l key with
  | Some pos -> Some (Page.leaf_record l pos)
  | None -> None

(* --- array edits -------------------------------------------------------- *)

let array_insert arr pos x =
  let n = Array.length arr in
  Array.init (n + 1) (fun i ->
      if i < pos then arr.(i) else if i = pos then x else arr.(i - 1))

(* --- splits -------------------------------------------------------------- *)

(* Propagate (separator, new right child) insertion up the path; splits
   internal nodes as needed and grows a new root at the top. *)
let rec insert_into_parent t path sep right_block ~lsn =
  match path with
  | [] ->
      (* the root split: make a new root *)
      let new_root = alloc_block t in
      let page =
        Page.Node { child0 = t.root; entries = [| (sep, right_block) |] }
      in
      write_page t new_root page ~lsn;
      t.root <- new_root;
      t.height <- t.height + 1
  | (block, child0, entries) :: rest ->
      (* find insertion position: first separator > sep *)
      let pos =
        let lo = ref 0 and hi = ref (Array.length entries) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if String.compare (fst entries.(mid)) sep <= 0 then lo := mid + 1
          else hi := mid
        done;
        !lo
      in
      let entries' = array_insert entries pos (sep, right_block) in
      let page = Page.Node { child0; entries = entries' } in
      if Page.size page <= t.block_size then write_page t block page ~lsn
      else begin
        (* split the node: the middle separator moves up *)
        let n = Array.length entries' in
        let mid = Page.split_cut ~block_size:t.block_size page (n / 2) in
        let promoted, right_child0 = entries'.(mid) in
        let left_entries = Array.sub entries' 0 mid in
        let right_entries = Array.sub entries' (mid + 1) (n - mid - 1) in
        let right = alloc_block t in
        write_page t block (Page.Node { child0; entries = left_entries }) ~lsn;
        write_page t right
          (Page.Node { child0 = right_child0; entries = right_entries })
          ~lsn;
        insert_into_parent t rest promoted right ~lsn
      end

let split_leaf t block (l : (string * string) array) next path ~lsn ~rightmost =
  let n = Array.length l in
  (* splitting an always-ascending (rightmost) insert half-and-half would
     leave every leaf half full; peeling off just the new entry keeps
     sequentially loaded files dense, as production B-trees do *)
  let mid =
    Page.split_cut ~block_size:t.block_size
      (Page.Leaf { entries = l; next })
      (if rightmost then n - 1 else n / 2)
  in
  let left_entries = Array.sub l 0 mid in
  let right_entries = Array.sub l mid (n - mid) in
  let right = alloc_block t in
  let sep = fst right_entries.(0) in
  write_page t right (Page.Leaf { entries = right_entries; next }) ~lsn;
  write_page t block (Page.Leaf { entries = left_entries; next = right }) ~lsn;
  insert_into_parent t (List.rev path) sep right ~lsn

(* --- mutations ------------------------------------------------------------ *)

(* An edit that still fits splices the one entry into a copy of the leaf's
   block; only an edit that overflows it decodes the entries, to split
   them. *)

let max_record_size t = (t.block_size - 16) / 2 - 8

let record_fits t ~key ~record =
  Page.leaf_entry_size key record <= max_record_size t

let insert t ~key ~record ~lsn =
  if not (record_fits t ~key ~record) then
    Errors.fail
      (Errors.Bad_request
         (Printf.sprintf "record of %d bytes exceeds maximum"
            (String.length record)))
  else begin
    let block, l, path = find_leaf t key in
    let pos = Page.leaf_find l key in
    if pos < Page.leaf_count l && Page.key_equal l pos key then
      Errors.fail (Errors.Duplicate_key key)
    else begin
      Sim.tick t.sim 10;
      (if Page.leaf_size l + Page.leaf_entry_size key record <= t.block_size
       then
         Cache.write t.cache block
           (Page.leaf_insert ~block_size:t.block_size l pos ~key ~record)
           ~lsn
       else
         let next = Page.leaf_next l in
         (* rightmost = appending at the end of the last leaf *)
         let rightmost = next = -1 && pos = Page.leaf_count l in
         split_leaf t block
           (array_insert (Page.leaf_entries l) pos (key, record))
           next path ~lsn ~rightmost);
      t.nrecords <- t.nrecords + 1;
      Ok ()
    end
  end

let update t ~key ~record ~lsn =
  let block, l, path = find_leaf t key in
  match find_key l key with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some pos ->
      Sim.tick t.sim 10;
      let old = Page.leaf_record l pos in
      let size =
        Page.leaf_size l - Page.leaf_entry_size key old
        + Page.leaf_entry_size key record
      in
      (if size <= t.block_size then
         Cache.write t.cache block
           (Page.leaf_replace ~block_size:t.block_size l pos ~record)
           ~lsn
       else
         let entries = Page.leaf_entries l in
         entries.(pos) <- (key, record);
         split_leaf t block entries (Page.leaf_next l) path ~lsn
           ~rightmost:false);
      Ok old

let upsert t ~key ~record ~lsn =
  match update t ~key ~record ~lsn with
  | Ok _ -> ()
  | Error _ -> (
      match insert t ~key ~record ~lsn with
      | Ok () -> ()
      | Error e ->
          failwith ("Btree.upsert: " ^ Nsql_util.Errors.to_string e))

let delete t ~key ~lsn =
  let block, l, _path = find_leaf t key in
  match find_key l key with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some pos ->
      Sim.tick t.sim 10;
      let old = Page.leaf_record l pos in
      Cache.write t.cache block
        (Page.leaf_remove ~block_size:t.block_size l pos)
        ~lsn;
      t.nrecords <- t.nrecords - 1;
      Ok old

(* --- bulk load -------------------------------------------------------------- *)

let fill_target t = t.block_size * 9 / 10

let load_sorted t entries ~lsn =
  if t.nrecords > 0 then
    Errors.fail (Errors.Bad_request "load_sorted: tree not empty")
  else begin
    let sorted =
      let rec check = function
        | a :: (b :: _ as rest) ->
            String.compare (fst a) (fst b) < 0 && check rest
        | _ -> true
      in
      check entries
    in
    if not sorted then
      Errors.fail (Errors.Bad_request "load_sorted: keys not strictly ascending")
    else begin
      (* build the leaf level into contiguous blocks *)
      let leaves = ref [] in
      let current = ref [] in
      let current_size = ref 12 in
      let flush () =
        if !current <> [] then begin
          leaves := Array.of_list (List.rev !current) :: !leaves;
          current := [];
          current_size := 12
        end
      in
      List.iter
        (fun (k, r) ->
          let es = Page.leaf_entry_size k r in
          if !current_size + es > fill_target t && !current <> [] then flush ();
          current := (k, r) :: !current;
          current_size := !current_size + es)
        entries;
      flush ();
      let leaf_pages = Array.of_list (List.rev !leaves) in
      let nleaves = Array.length leaf_pages in
      if nleaves = 0 then Ok ()
      else begin
        let first_block = Disk.allocate (Cache.disk t.cache) nleaves in
        Array.iteri
          (fun i page_entries ->
            let next = if i = nleaves - 1 then -1 else first_block + i + 1 in
            write_page t (first_block + i)
              (Page.Leaf { entries = page_entries; next })
              ~lsn)
          leaf_pages;
        (* build internal levels bottom-up *)
        let rec build_level level_blocks level_keys height =
          (* level_keys.(i) is the minimum key under level_blocks.(i) *)
          if Array.length level_blocks = 1 then begin
            t.root <- level_blocks.(0);
            t.height <- height
          end
          else begin
            let groups = ref [] in
            let cur_children = ref [] in
            let cur_size = ref 12 in
            let flush_group () =
              if !cur_children <> [] then begin
                groups := Array.of_list (List.rev !cur_children) :: !groups;
                cur_children := [];
                cur_size := 12
              end
            in
            Array.iteri
              (fun i block ->
                let k = level_keys.(i) in
                let es = Page.leaf_entry_size k "" + 4 in
                if !cur_size + es > fill_target t && !cur_children <> [] then
                  flush_group ();
                cur_children := (k, block) :: !cur_children;
                cur_size := !cur_size + es)
              level_blocks;
            flush_group ();
            let groups = Array.of_list (List.rev !groups) in
            let ngroups = Array.length groups in
            let first = Disk.allocate (Cache.disk t.cache) ngroups in
            let parent_keys = Array.make ngroups "" in
            Array.iteri
              (fun i group ->
                parent_keys.(i) <- fst group.(0);
                let child0 = snd group.(0) in
                let seps =
                  Array.sub group 1 (Array.length group - 1)
                in
                write_page t (first + i)
                  (Page.Node { child0; entries = seps })
                  ~lsn)
              groups;
            build_level
              (Array.init ngroups (fun i -> first + i))
              parent_keys (height + 1)
          end
        in
        let leaf_keys =
          Array.map (fun page_entries -> fst page_entries.(0)) leaf_pages
        in
        (* the pre-allocated empty root leaf from [create] is abandoned *)
        build_level
          (Array.init nleaves (fun i -> first_block + i))
          leaf_keys 1;
        t.nrecords <- List.length entries;
        Ok ()
      end
    end
  end

(* --- cursors ------------------------------------------------------------- *)

type cursor = End | At of { block : int; idx : int }

(* normalize a position: skip past drained leaves *)
let rec normalize t block idx =
  match read_page t block with
  | Page.Leaf_view l ->
      if idx < Page.leaf_count l then At { block; idx }
      else if Page.leaf_next l < 0 then End
      else normalize t (Page.leaf_next l) 0
  | Page.Node_view _ ->
      invalid_arg "Btree.cursor: position on internal node"

let seek t key =
  let block, l, _ = find_leaf t key in
  let pos = Page.leaf_find l key in
  if pos < Page.leaf_count l then At { block; idx = pos }
  else if Page.leaf_next l < 0 then End
  else normalize t (Page.leaf_next l) 0

let cursor_leaf t = function
  | End -> None
  | At { block; idx } -> (
      match read_page t block with
      | Page.Leaf_view l when idx < Page.leaf_count l -> Some l
      | Page.Leaf_view _ | Page.Node_view _ -> None)

let cursor_index = function End -> -1 | At { idx; _ } -> idx

let cursor_entry t c =
  match cursor_leaf t c with
  | None -> None
  | Some l ->
      let i = cursor_index c in
      Some (Page.leaf_key l i, Page.leaf_record l i)

let advance t = function
  | End -> End
  | At { block; idx } -> normalize t block (idx + 1)

let cursor_block = function End -> -1 | At { block; _ } -> block

(* --- diagnostics ----------------------------------------------------------- *)

let leftmost_leaf t =
  let rec go block =
    match read_page t block with
    | Page.Leaf_view _ -> block
    | Page.Node_view { child0; _ } -> go child0
  in
  go t.root

let leaf_blocks t =
  let rec walk block acc =
    if block < 0 then List.rev acc
    else
      match read_page t block with
      | Page.Leaf_view l -> walk (Page.leaf_next l) (block :: acc)
      | Page.Node_view _ -> List.rev acc
  in
  walk (leftmost_leaf t) []

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* 1. every leaf is sorted; chain keys ascend *)
  let rec check_chain block last_key count =
    if block < 0 then Ok count
    else
      match read_page t block with
      | Page.Node_view _ -> fail "leaf chain reaches internal node %d" block
      | Page.Leaf_view l ->
          let n = Page.leaf_count l in
          let rec check_sorted i last =
            if i >= n then Ok last
            else begin
              let k = Page.leaf_key l i in
              match last with
              | Some lk when String.compare lk k >= 0 ->
                  fail "keys out of order in leaf %d" block
              | _ -> check_sorted (i + 1) (Some k)
            end
          in
          let ( let* ) r f = match r with Ok x -> f x | Error e -> Error e in
          let* last = check_sorted 0 last_key in
          check_chain (Page.leaf_next l) last (count + n)
  in
  match check_chain (leftmost_leaf t) None 0 with
  | Error e -> Error e
  | Ok count ->
      if count <> t.nrecords then
        fail "record count mismatch: chain has %d, counter says %d" count
          t.nrecords
      else begin
        (* 2. every key reachable via descent *)
        let ok = ref (Ok ()) in
        let rec walk block =
          if !ok = Ok () then
            match read_page t block with
            | Page.Leaf_view l ->
                for i = 0 to Page.leaf_count l - 1 do
                  if !ok = Ok () then begin
                    let k = Page.leaf_key l i in
                    let _, found, _ = find_leaf t k in
                    if find_key found k = None then
                      ok := fail "key %S not reachable by descent" k
                  end
                done
            | Page.Node_view { child0; entries } ->
                walk child0;
                Array.iter (fun (_, c) -> walk c) entries
        in
        walk t.root;
        !ok
      end

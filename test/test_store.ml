(* Tests of the storage structures: B-tree (incl. splits, cursors, bulk
   load, invariants under random workloads), relative and entry-sequenced
   files. *)

module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Btree = Nsql_store.Btree
module Page = Nsql_store.Page
module Relfile = Nsql_store.Relfile
module Entryfile = Nsql_store.Entryfile
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors

let setup ?(capacity = 128) () =
  let sim = Sim.create () in
  let disk = Disk.create sim ~name:"$DATA" in
  let cache =
    Cache.create sim disk ~capacity
      ~durable_lsn:(fun () -> Int64.max_int)
      ~force_log:(fun _ -> ())
  in
  (sim, cache)

let k i = Keycode.of_int i
let get_ok = Errors.get_ok

(* --- page codec --------------------------------------------------------- *)

let page_roundtrip () =
  let leaf =
    Page.Leaf
      {
        entries = [| ("a", "rec-a"); ("b", String.make 100 'x') |];
        next = 42;
      }
  in
  let node = Page.Node { child0 = 7; entries = [| ("m", 8); ("t", 9) |] } in
  let check p =
    let img = Page.encode ~block_size:4096 p in
    Alcotest.(check int) "padded to block" 4096 (String.length img);
    Alcotest.(check string) "roundtrip"
      (Format.asprintf "%a" Page.pp p)
      (Format.asprintf "%a" Page.pp (Page.decode img))
  in
  check leaf;
  check node;
  (* decoded content equality, not just shape *)
  match Page.decode (Page.encode ~block_size:4096 leaf) with
  | Page.Leaf { entries; next } ->
      Alcotest.(check int) "next" 42 next;
      Alcotest.(check string) "key" "a" (fst entries.(0));
      Alcotest.(check string) "rec" "rec-a" (snd entries.(0))
  | Page.Node _ -> Alcotest.fail "wrong page type"

let page_overflow_rejected () =
  let huge = Page.Leaf { entries = [| ("k", String.make 5000 'x') |]; next = -1 } in
  (try
     ignore (Page.encode ~block_size:4096 huge);
     Alcotest.fail "oversized page accepted"
   with Invalid_argument _ -> ())

(* --- b-tree -------------------------------------------------------------- *)

let insert_lookup () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"five" ~lsn:1L);
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 1) ~record:"one" ~lsn:2L);
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 9) ~record:"nine" ~lsn:3L);
  Alcotest.(check (option string)) "lookup 5" (Some "five") (Btree.lookup t (k 5));
  Alcotest.(check (option string)) "lookup 1" (Some "one") (Btree.lookup t (k 1));
  Alcotest.(check (option string)) "missing" None (Btree.lookup t (k 2));
  Alcotest.(check int) "count" 3 (Btree.record_count t)

let duplicate_rejected () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"a" ~lsn:1L);
  match Btree.insert t ~key:(k 5) ~record:"b" ~lsn:2L with
  | Error (Errors.Duplicate_key _) -> ()
  | Ok () -> Alcotest.fail "duplicate accepted"
  | Error e -> Alcotest.fail (Errors.to_string e)

let update_delete () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 5) ~record:"old" ~lsn:1L);
  let old = get_ok ~ctx:"upd" (Btree.update t ~key:(k 5) ~record:"new" ~lsn:2L) in
  Alcotest.(check string) "old returned" "old" old;
  Alcotest.(check (option string)) "updated" (Some "new") (Btree.lookup t (k 5));
  let img = get_ok ~ctx:"del" (Btree.delete t ~key:(k 5) ~lsn:3L) in
  Alcotest.(check string) "deleted image" "new" img;
  Alcotest.(check (option string)) "gone" None (Btree.lookup t (k 5));
  (match Btree.delete t ~key:(k 5) ~lsn:4L with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "double delete accepted");
  Alcotest.(check int) "count" 0 (Btree.record_count t)

let many_inserts_split () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 2000 in
  let record i = Printf.sprintf "record-%06d-%s" i (String.make 50 'p') in
  (* insert in a shuffled but deterministic order *)
  let order = Array.init n (fun i -> (i * 7919) mod n) in
  Array.iter
    (fun i ->
      get_ok ~ctx:"ins" (Btree.insert t ~key:(k i) ~record:(record i) ~lsn:1L))
    order;
  Alcotest.(check int) "count" n (Btree.record_count t);
  Alcotest.(check bool) "tree grew" true (Btree.height t > 1);
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for i = 0 to n - 1 do
    match Btree.lookup t (k i) with
    | Some r -> assert (String.equal r (record i))
    | None -> Alcotest.fail (Printf.sprintf "key %d lost" i)
  done

let cursor_scan () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  List.iter
    (fun i -> get_ok ~ctx:"ins" (Btree.insert t ~key:(k i) ~record:(string_of_int i) ~lsn:1L))
    [ 2; 4; 6; 8; 10 ];
  let collect from =
    let rec go c acc =
      match Btree.cursor_entry t c with
      | None -> List.rev acc
      | Some (_, r) -> go (Btree.advance t c) (r :: acc)
    in
    go (Btree.seek t from) []
  in
  Alcotest.(check (list string)) "from low" [ "2"; "4"; "6"; "8"; "10" ]
    (collect Keycode.low_value);
  Alcotest.(check (list string)) "from 5" [ "6"; "8"; "10" ] (collect (k 5));
  Alcotest.(check (list string)) "from 6 inclusive" [ "6"; "8"; "10" ]
    (collect (k 6));
  Alcotest.(check (list string)) "past end" [] (collect (k 11))

let cursor_skips_drained_leaves () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 600 in
  for i = 0 to n - 1 do
    get_ok ~ctx:"ins"
      (Btree.insert t ~key:(k i) ~record:(String.make 60 'r') ~lsn:1L)
  done;
  (* drain a middle key range entirely *)
  for i = 100 to 399 do
    ignore (get_ok ~ctx:"del" (Btree.delete t ~key:(k i) ~lsn:2L))
  done;
  let rec count c acc =
    match Btree.cursor_entry t c with
    | None -> acc
    | Some _ -> count (Btree.advance t c) (acc + 1)
  in
  Alcotest.(check int) "scan skips empties" 300
    (count (Btree.seek t Keycode.low_value) 0);
  match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let bulk_load_contiguous () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let n = 1000 in
  let entries = List.init n (fun i -> (k i, Printf.sprintf "r%d-%s" i (String.make 80 'w'))) in
  get_ok ~ctx:"load" (Btree.load_sorted t entries ~lsn:1L);
  Alcotest.(check int) "count" n (Btree.record_count t);
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* leaves must be physically consecutive *)
  let leaves = Btree.leaf_blocks t in
  let contiguous =
    let rec go = function
      | a :: (b :: _ as rest) -> b = a + 1 && go rest
      | _ -> true
    in
    go leaves
  in
  Alcotest.(check bool) "leaves contiguous" true contiguous;
  Alcotest.(check (option string)) "lookup works"
    (Some (Printf.sprintf "r%d-%s" 123 (String.make 80 'w')))
    (Btree.lookup t (k 123))

let bulk_load_rejects () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  (match Btree.load_sorted t [ (k 2, "b"); (k 1, "a") ] ~lsn:1L with
  | Error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "unsorted accepted");
  get_ok ~ctx:"ins" (Btree.insert t ~key:(k 0) ~record:"x" ~lsn:1L);
  match Btree.load_sorted t [ (k 1, "a") ] ~lsn:1L with
  | Error (Errors.Bad_request _) -> ()
  | _ -> Alcotest.fail "non-empty accepted"

let btree_random_ops =
  QCheck.Test.make ~name:"btree matches model under random ops" ~count:30
    QCheck.(list (pair (int_bound 2) (int_bound 200)))
    (fun ops ->
      let sim, cache = setup () in
      let t = Btree.create sim cache ~name:"T" in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, key) ->
          let ks = k key in
          match op with
          | 0 -> (
              let r = Printf.sprintf "v%d" key in
              match Btree.insert t ~key:ks ~record:r ~lsn:1L with
              | Ok () ->
                  assert (not (Hashtbl.mem model key));
                  Hashtbl.replace model key r
              | Error (Errors.Duplicate_key _) -> assert (Hashtbl.mem model key)
              | Error e -> failwith (Errors.to_string e))
          | 1 -> (
              match Btree.delete t ~key:ks ~lsn:1L with
              | Ok _ ->
                  assert (Hashtbl.mem model key);
                  Hashtbl.remove model key
              | Error (Errors.Not_found_key _) ->
                  assert (not (Hashtbl.mem model key))
              | Error e -> failwith (Errors.to_string e))
          | _ -> (
              let r = Printf.sprintf "u%d" key in
              match Btree.update t ~key:ks ~record:r ~lsn:1L with
              | Ok _ ->
                  assert (Hashtbl.mem model key);
                  Hashtbl.replace model key r
              | Error (Errors.Not_found_key _) ->
                  assert (not (Hashtbl.mem model key))
              | Error e -> failwith (Errors.to_string e)))
        ops;
      (match Btree.check_invariants t with
      | Ok () -> ()
      | Error e -> failwith e);
      Hashtbl.fold
        (fun key r acc -> acc && Btree.lookup t (k key) = Some r)
        model true
      && Btree.record_count t = Hashtbl.length model)

(* [leaf_matches l bytes] — do the in-place accessors of leaf view [l]
   read what [Page.decode bytes] holds, and are [bytes] exactly what
   [Page.encode] writes for those entries (so every splice that built
   them was byte-identical to encoding the edited entry array)? *)
let leaf_matches ~block_size l bytes =
  match Page.decode bytes with
  | Page.Node _ -> false
  | Page.Leaf { entries; next } as page ->
      let n = Array.length entries in
      let block = Page.leaf_block l in
      let entry_ok i =
        let key, record = entries.(i) in
        String.equal (Page.leaf_key l i) key
        && String.equal (Page.leaf_record l i) record
        && String.equal
             (String.sub block (Page.record_pos l i) (Page.record_len l i))
             record
        && Page.key_equal l i key
        && Page.compare_key l i key = 0
        && Page.leaf_find l key = i
        && Page.leaf_find l (Keycode.successor key) = i + 1
      in
      Page.leaf_count l = n
      && Page.leaf_next l = next
      && Page.leaf_size l = Page.size page
      && List.for_all entry_ok (List.init n Fun.id)
      && Page.leaf_entries l = entries
      && String.equal bytes (Page.encode ~block_size page)

(* [splices_match ~block_size l at] — do the three splices of leaf [l] at
   the index [at] picks give exactly [Page.encode] of the edited entry
   array? *)
let splices_match ~block_size l at =
  match Page.decode (Page.leaf_block l) with
  | Page.Node _ -> false
  | Page.Leaf { entries; next } ->
      let n = Array.length entries in
      let encode entries = Page.encode ~block_size (Page.Leaf { entries; next }) in
      let pos = at mod (n + 1) in
      let before = Array.sub entries 0 pos
      and after = Array.sub entries pos (n - pos) in
      (* a key between the neighbours is not needed: splices do not
         compare keys *)
      let fresh = ("new-key", String.make (at mod 40) 'n') in
      let inserted = Array.concat [ before; [| fresh |]; after ] in
      let insert_ok =
        Page.size (Page.Leaf { entries = inserted; next }) > block_size
        || String.equal
             (Page.leaf_insert ~block_size l pos ~key:(fst fresh)
                ~record:(snd fresh))
             (encode inserted)
      in
      let edit_ok =
        pos = n
        ||
        let replaced = Array.copy entries in
        replaced.(pos) <- (fst entries.(pos), "r");
        let removed =
          Array.append before (Array.sub entries (pos + 1) (n - pos - 1))
        in
        String.equal (Page.leaf_replace ~block_size l pos ~record:"r")
          (encode replaced)
        && String.equal (Page.leaf_remove ~block_size l pos) (encode removed)
      in
      insert_ok && edit_ok

(* Every page reachable from the root, read through the cache's view,
   must read what a fresh decode of the frame's bytes holds: a leaf
   through its in-place accessors, a node as decoded entries. The leaf
   that key [at] seeks to is spliced too. *)
let views_coherent cache t ~at =
  let block_size = Disk.block_size (Cache.disk cache) in
  let target = Btree.cursor_block (Btree.seek t (k at)) in
  let rec walk block =
    let bytes = Cache.read cache block in
    match Btree.read_page t block with
    | Page.Leaf_view l ->
        if not (leaf_matches ~block_size l bytes) then
          failwith (Printf.sprintf "leaf view of block %d misreads it" block);
        if block = target && not (splices_match ~block_size l at) then
          failwith (Printf.sprintf "a splice of block %d differs" block)
    | Page.Node_view { child0; entries } ->
        if Page.decode bytes <> Page.Node { child0; entries } then
          failwith (Printf.sprintf "stale view of block %d" block);
        walk child0;
        Array.iter (fun (_, c) -> walk c) entries
  in
  walk (Btree.root_block t)

(* Random inserts, updates, deletes and bulk reloads on an 8-frame pool, so
   frames are written, evicted and re-read with their views in every
   state; the views must track the bytes after every step. Op 3 moves the
   contents into a fresh tree with [load_sorted]. Record sizes are skewed,
   from one byte to nearly the largest a leaf takes, so leaves split with
   entries of very different weights. *)
let btree_views_coherent =
  QCheck.Test.make ~name:"btree page views track frame bytes" ~count:30
    QCheck.(list (triple (int_bound 3) (int_bound 200) (int_bound 3)))
    (fun ops ->
      let sim, cache = setup ~capacity:8 () in
      let t = ref (Btree.create sim cache ~name:"T") in
      let model = Hashtbl.create 64 in
      let record key tag size =
        let len =
          match size with
          | 0 -> 0
          | 1 -> 100 + key
          | 2 -> 1000 + (key * 3)
          | _ -> 1800 + key
        in
        Printf.sprintf "%s%d-%s" tag key (String.make len 'v')
      in
      List.iter
        (fun (op, key, size) ->
          let ks = k key in
          (match op with
          | 0 -> (
              let r = record key "i" size in
              match Btree.insert !t ~key:ks ~record:r ~lsn:1L with
              | Ok () -> Hashtbl.replace model key r
              | Error (Errors.Duplicate_key _) -> ()
              | Error e -> failwith (Errors.to_string e))
          | 1 -> (
              match Btree.delete !t ~key:ks ~lsn:1L with
              | Ok _ -> Hashtbl.remove model key
              | Error (Errors.Not_found_key _) -> ()
              | Error e -> failwith (Errors.to_string e))
          | 2 -> (
              let r = record key "u" size in
              match Btree.update !t ~key:ks ~record:r ~lsn:1L with
              | Ok _ -> Hashtbl.replace model key r
              | Error (Errors.Not_found_key _) -> ()
              | Error e -> failwith (Errors.to_string e))
          | _ ->
              let sorted =
                List.sort compare
                  (Hashtbl.fold (fun key r acc -> (key, r) :: acc) model [])
              in
              let fresh = Btree.create sim cache ~name:"T" in
              get_ok ~ctx:"load"
                (Btree.load_sorted fresh
                   (List.map (fun (key, r) -> (k key, r)) sorted)
                   ~lsn:1L);
              t := fresh);
          views_coherent cache !t ~at:key;
          match Btree.check_invariants !t with
          | Ok () -> ()
          | Error e -> failwith e)
        ops;
      Hashtbl.fold
        (fun key r acc -> acc && Btree.lookup !t (k key) = Some r)
        model true
      && Btree.record_count !t = Hashtbl.length model)

(* A split must cut where both halves fit. Nine short entries and two
   long ones overflow a leaf whose middle cut would leave the long ones
   and four short ones in a right half of 4,115 bytes; the cut moves one
   entry right instead. A leaf's offset table must read both halves. *)
let split_of_skewed_entries () =
  let sim, cache = setup () in
  let t = Btree.create sim cache ~name:"T" in
  let short = String.make 11 's' and long = String.make 2001 'x' in
  List.iter
    (fun (i, r) -> get_ok ~ctx:"ins" (Btree.insert t ~key:(k i) ~record:r ~lsn:1L))
    ((1000, short)
    :: List.init 8 (fun i -> (i + 1, short))
    @ [ (9, long); (10, long) ]);
  (match Btree.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two leaves" 2 (List.length (Btree.leaf_blocks t));
  List.iter
    (fun (i, r) ->
      Alcotest.(check (option string))
        (Printf.sprintf "lookup %d" i)
        (Some r)
        (Btree.lookup t (k i)))
    [ (1, short); (8, short); (9, long); (10, long); (1000, short) ]

(* --- relative files ------------------------------------------------------ *)

let relfile_basics () =
  let sim, cache = setup () in
  let f = Relfile.create sim cache ~name:"R" ~slot_size:100 in
  get_ok ~ctx:"w" (Relfile.write f ~slot:5 ~record:"fifth" ~lsn:1L);
  Alcotest.(check string) "read" "fifth" (get_ok ~ctx:"r" (Relfile.read f ~slot:5));
  (match Relfile.read f ~slot:4 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "empty slot readable");
  (match Relfile.write f ~slot:5 ~record:"again" ~lsn:2L with
  | Error (Errors.Duplicate_key _) -> ()
  | _ -> Alcotest.fail "overwrite allowed");
  let old = get_ok ~ctx:"rw" (Relfile.rewrite f ~slot:5 ~record:"v2" ~lsn:3L) in
  Alcotest.(check string) "old" "fifth" old;
  let slot = get_ok ~ctx:"app" (Relfile.append f ~record:"appended" ~lsn:4L) in
  Alcotest.(check int) "append fills lowest free" 0 slot;
  ignore (get_ok ~ctx:"del" (Relfile.delete f ~slot:5 ~lsn:5L));
  (match Relfile.read f ~slot:5 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "deleted slot readable");
  Alcotest.(check int) "record count" 1 (Relfile.record_count f)

let relfile_many_slots () =
  let sim, cache = setup () in
  let f = Relfile.create sim cache ~name:"R" ~slot_size:64 in
  for i = 0 to 499 do
    get_ok ~ctx:"w" (Relfile.write f ~slot:i ~record:(Printf.sprintf "s%d" i) ~lsn:1L)
  done;
  let seen = ref 0 in
  Relfile.iter f (fun slot r ->
      Alcotest.(check string) "slot content" (Printf.sprintf "s%d" slot) r;
      incr seen);
  Alcotest.(check int) "iter sees all" 500 !seen

(* --- entry-sequenced files ------------------------------------------------ *)

let entryfile_basics () =
  let sim, cache = setup () in
  let f = Entryfile.create sim cache ~name:"E" in
  let a1 = get_ok ~ctx:"a" (Entryfile.append f ~record:"first" ~lsn:1L) in
  let a2 = get_ok ~ctx:"a" (Entryfile.append f ~record:"second" ~lsn:2L) in
  Alcotest.(check bool) "addresses ascend" true (a2 > a1);
  Alcotest.(check string) "read 1" "first" (get_ok ~ctx:"r" (Entryfile.read f ~addr:a1));
  Alcotest.(check string) "read 2" "second" (get_ok ~ctx:"r" (Entryfile.read f ~addr:a2));
  match Entryfile.read f ~addr:99999 with
  | Error (Errors.Not_found_key _) -> ()
  | _ -> Alcotest.fail "bogus address readable"

let entryfile_iter_order () =
  let sim, cache = setup () in
  let f = Entryfile.create sim cache ~name:"E" in
  let n = 300 in
  let addrs =
    List.init n (fun i ->
        get_ok ~ctx:"a"
          (Entryfile.append f ~record:(Printf.sprintf "entry-%d-%s" i (String.make 40 'e')) ~lsn:1L))
  in
  let seen = ref [] in
  Entryfile.iter f (fun addr _ -> seen := addr :: !seen);
  Alcotest.(check (list int)) "iter in insertion order" addrs (List.rev !seen);
  Alcotest.(check int) "count" n (Entryfile.record_count f)

let suite =
  [
    Alcotest.test_case "page codec roundtrip" `Quick page_roundtrip;
    Alcotest.test_case "page overflow rejected" `Quick page_overflow_rejected;
    Alcotest.test_case "btree insert/lookup" `Quick insert_lookup;
    Alcotest.test_case "btree duplicate rejected" `Quick duplicate_rejected;
    Alcotest.test_case "btree update/delete" `Quick update_delete;
    Alcotest.test_case "btree splits (2000 keys)" `Quick many_inserts_split;
    Alcotest.test_case "btree cursor scan" `Quick cursor_scan;
    Alcotest.test_case "btree cursor skips drained leaves" `Quick
      cursor_skips_drained_leaves;
    Alcotest.test_case "btree bulk load contiguous" `Quick bulk_load_contiguous;
    Alcotest.test_case "btree bulk load rejects bad input" `Quick
      bulk_load_rejects;
    QCheck_alcotest.to_alcotest btree_random_ops;
    QCheck_alcotest.to_alcotest btree_views_coherent;
    Alcotest.test_case "btree split of skewed entries fits" `Quick
      split_of_skewed_entries;
    Alcotest.test_case "relfile basics" `Quick relfile_basics;
    Alcotest.test_case "relfile many slots" `Quick relfile_many_slots;
    Alcotest.test_case "entryfile basics" `Quick entryfile_basics;
    Alcotest.test_case "entryfile iteration order" `Quick entryfile_iter_order;
  ]

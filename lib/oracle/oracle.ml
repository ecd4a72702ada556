module Row = Nsql_row.Row

module Smap = Map.Make (String)

type keyed_file = {
  kf_schema : Row.schema;
  kf_indexes : (string * int list) list;
  mutable kf_rows : Row.row Smap.t;  (** encoded primary key -> row *)
}

type entry_file = { mutable ef_entries : string list (** reversed *) }

type file_state = F_keyed of keyed_file | F_entry of entry_file

type t = { files : (string, file_state) Hashtbl.t }

let create () = { files = Hashtbl.create 8 }

let add_file t ~name ~schema ~indexes =
  Hashtbl.replace t.files name
    (F_keyed { kf_schema = schema; kf_indexes = indexes; kf_rows = Smap.empty })

let add_entry_file t ~name =
  Hashtbl.replace t.files name (F_entry { ef_entries = [] })

let keyed t file =
  match Hashtbl.find_opt t.files file with
  | Some (F_keyed kf) -> kf
  | Some (F_entry _) ->
      invalid_arg (Printf.sprintf "Oracle: %s is entry-sequenced" file)
  | None -> invalid_arg (Printf.sprintf "Oracle: unknown file %s" file)

let entry t file =
  match Hashtbl.find_opt t.files file with
  | Some (F_entry ef) -> ef
  | Some (F_keyed _) ->
      invalid_arg (Printf.sprintf "Oracle: %s is key-sequenced" file)
  | None -> invalid_arg (Printf.sprintf "Oracle: unknown file %s" file)

let row_count t ~file = Smap.cardinal (keyed t file).kf_rows

let rows t ~file = Smap.bindings (keyed t file).kf_rows

let entries t ~file = List.rev (entry t file).ef_entries

let lookup t ~file ~key = Smap.find_opt key (keyed t file).kf_rows

(* --- transaction views -------------------------------------------------- *)

type op =
  | O_insert of string * string * Row.row
  | O_update of string * string * Row.row
  | O_delete of string * string
  | O_append of string * string

type view = {
  v_oracle : t;
  mutable v_ops : op list;  (** reversed *)
  v_overlay : (string * string, Row.row option) Hashtbl.t;
      (** (file, key) -> Some row (present) / None (deleted) *)
}

let view t = { v_oracle = t; v_ops = []; v_overlay = Hashtbl.create 16 }

let v_lookup v ~file ~key =
  match Hashtbl.find_opt v.v_overlay (file, key) with
  | Some state -> state
  | None -> lookup v.v_oracle ~file ~key

let key_of v ~file row = Row.key_of_row (keyed v.v_oracle file).kf_schema row

let v_insert v ~file row =
  let key = key_of v ~file row in
  if v_lookup v ~file ~key <> None then
    invalid_arg (Printf.sprintf "Oracle.v_insert: duplicate key in %s" file);
  Hashtbl.replace v.v_overlay (file, key) (Some row);
  v.v_ops <- O_insert (file, key, row) :: v.v_ops

let v_update v ~file row =
  let key = key_of v ~file row in
  if v_lookup v ~file ~key = None then
    invalid_arg (Printf.sprintf "Oracle.v_update: missing key in %s" file);
  Hashtbl.replace v.v_overlay (file, key) (Some row);
  v.v_ops <- O_update (file, key, row) :: v.v_ops

let v_delete v ~file ~key =
  if v_lookup v ~file ~key = None then
    invalid_arg (Printf.sprintf "Oracle.v_delete: missing key in %s" file);
  Hashtbl.replace v.v_overlay (file, key) None;
  v.v_ops <- O_delete (file, key) :: v.v_ops

let v_append v ~file ~record =
  ignore (entry v.v_oracle file);
  v.v_ops <- O_append (file, record) :: v.v_ops

let commit t v =
  List.iter
    (fun op ->
      match op with
      | O_insert (file, key, row) | O_update (file, key, row) ->
          let kf = keyed t file in
          kf.kf_rows <- Smap.add key row kf.kf_rows
      | O_delete (file, key) ->
          let kf = keyed t file in
          kf.kf_rows <- Smap.remove key kf.kf_rows
      | O_append (file, record) ->
          let ef = entry t file in
          ef.ef_entries <- record :: ef.ef_entries)
    (List.rev v.v_ops)

(* --- end-of-run checks --------------------------------------------------- *)

let pp_row row = Format.asprintf "%a" Row.pp_row row

let check_file t ~file ~actual =
  let kf = keyed t file in
  let expected = Smap.bindings kf.kf_rows in
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let rec walk exp act =
    match (exp, act) with
    | [], [] -> ()
    | (k, row) :: exp', [] ->
        add "%s: durability: committed row %s (key %S) lost" file (pp_row row) k;
        walk exp' []
    | [], (k, row) :: act' ->
        add "%s: atomicity: uncommitted row %s (key %S) visible" file
          (pp_row row) k;
        walk [] act'
    | (ke, re) :: exp', (ka, ra) :: act' ->
        let c = String.compare ke ka in
        if c = 0 then begin
          if not (Row.equal_row re ra) then
            add "%s: key %S holds %s, oracle expects %s" file ka (pp_row ra)
              (pp_row re);
          walk exp' act'
        end
        else if c < 0 then begin
          add "%s: durability: committed row %s (key %S) lost" file (pp_row re)
            ke;
          walk exp' act
        end
        else begin
          add "%s: atomicity: uncommitted row %s (key %S) visible" file
            (pp_row ra) ka;
          walk exp act'
        end
  in
  walk expected actual;
  List.rev !violations

let check_entries t ~file ~actual =
  let expected = entries t ~file in
  if List.length expected <> List.length actual then
    [
      Printf.sprintf "%s: %d committed entries, %d found" file
        (List.length expected) (List.length actual);
    ]
  else
    List.concat
      (List.mapi
         (fun i (e, a) ->
           if String.equal e a then []
           else [ Printf.sprintf "%s: entry %d is %S, oracle expects %S" file i a e ])
         (List.combine expected actual))

let check_index t ~file ~index ~actual =
  let kf = keyed t file in
  let cols =
    match List.assoc_opt index kf.kf_indexes with
    | Some cols -> cols
    | None ->
        invalid_arg (Printf.sprintf "Oracle: unknown index %s on %s" index file)
  in
  (* the index scan returns base rows ordered by (index columns, primary
     key); derive the same ordering from the committed base rows *)
  let expected =
    List.stable_sort
      (fun (ka, a) (kb, b) ->
        let rec cmp = function
          | [] -> String.compare ka kb
          | c :: rest ->
              let d = Row.compare_value a.(c) b.(c) in
              if d <> 0 then d else cmp rest
        in
        cmp cols)
      (Smap.bindings kf.kf_rows)
    |> List.map snd
  in
  if List.length expected <> List.length actual then
    [
      Printf.sprintf "%s.%s: index scan returned %d rows, oracle expects %d"
        file index (List.length actual) (List.length expected);
    ]
  else
    List.concat
      (List.mapi
         (fun i (e, a) ->
           if Row.equal_row e a then []
           else
             [
               Printf.sprintf "%s.%s: position %d is %s, oracle expects %s" file
                 index i (pp_row a) (pp_row e);
             ])
         (List.combine expected actual))

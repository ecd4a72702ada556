module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Dp = Nsql_dp.Dp
module Dp_msg = Nsql_dp.Dp_msg
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Tbl = Nsql_util.Tbl
module Trace = Nsql_trace.Trace
module Stats = Nsql_sim.Stats

open Errors

type t = { sim : Sim.t; msys : Msg.system; my_processor : Msg.processor }

type partition_spec = { ps_lo : string; ps_dp : Dp.t }

type index_spec = { is_name : string; is_cols : int list; is_dp : Dp.t }

type partition = { p_lo : string; p_dp : Dp.t; p_file : int }

type index_ = {
  ix_name : string;
  ix_cols : int array;  (** base field numbers, in index-key order *)
  ix_all_cols : int array;  (** index cols then base key cols (deduped) *)
  ix_basekey_pos : int array;  (** where each base key col sits in ix rows *)
  ix_schema : Row.schema;
  ix_dp : Dp.t;
  ix_file : int;
}

type file = {
  fname : string;
  schema : Row.schema option;
  kind : Dp_msg.file_kind_spec;
  parts : partition array;  (** sorted by [p_lo] ascending; parts.(0).p_lo = "" *)
  indexes : index_ list;
}

let create sim msys ~my_processor = { sim; msys; my_processor }

let file_name f = f.fname
let file_schema f = f.schema
let file_kind f = f.kind
let partition_count f = Array.length f.parts
let index_names f = List.map (fun ix -> ix.ix_name) f.indexes

(* nowait fan-out across partitions, unless configured off for A/B runs *)
let fanout t = (Sim.config t.sim).Config.fs_fanout

(* --- messaging --------------------------------------------------------- *)

let decode_or_internal reply_payload =
  match Dp_msg.decode_reply reply_payload with
  | Ok reply -> reply
  | Error e ->
      Dp_msg.Rp_error
        (Errors.Internal
           ("malformed reply: " ^ Dp_msg.decode_error_to_string e))

let send t dp req =
  let payload = Dp_msg.encode_request req in
  let t0 = Sim.now t.sim in
  let reply =
    decode_or_internal
      (Msg.send t.msys ~from:t.my_processor ~tag:(Dp_msg.tag req)
         (Dp.endpoint dp) payload)
  in
  (* caller-perceived request/reply round trip, hops included *)
  Nsql_sim.Moncore.observe (Sim.moncore t.sim) "fs_req" (Sim.now t.sim -. t0);
  reply

(* overlapped request: issue now, collect the reply (and the latency) at
   the await. Every completion returned here must be awaited. *)
let send_nowait t dp req =
  Msg.send_nowait t.msys ~from:t.my_processor ~tag:(Dp_msg.tag req)
    (Dp.endpoint dp) (Dp_msg.encode_request req)

let await_reply t c = decode_or_internal (Msg.await t.msys c)

let record_count t f =
  (* one RECORD^COUNT message per partition; overlapped when fan-out is on *)
  let count_of = function Dp_msg.Rp_slot n -> n | _ -> 0 in
  if fanout t then begin
    let cs =
      Array.map
        (fun p -> send_nowait t p.p_dp (Dp_msg.R_record_count { file = p.p_file }))
        f.parts
    in
    Array.fold_left (fun acc c -> acc + count_of (await_reply t c)) 0 cs
  end
  else
    Array.fold_left
      (fun acc p ->
        acc + count_of (send t p.p_dp (Dp_msg.R_record_count { file = p.p_file })))
      0 f.parts

let blocked_error blockers =
  Errors.Lock_timeout
    (Printf.sprintf "blocked by transactions [%s]"
       (String.concat "; " (List.map string_of_int blockers)))

(* Every reply path surfaces protocol errors and lock denials the same
   way, so the shared arms live in this one classifier. [k] matches only
   the success shapes of the operation (returning [None] for anything
   else) and [ctx] names the operation for the unexpected-reply
   diagnostic. *)
let classify ~ctx reply k =
  match reply with
  | Dp_msg.Rp_error e -> Error e
  | Dp_msg.Rp_blocked { blockers; _ } -> Error (blocked_error blockers)
  | reply -> (
      match k reply with
      | Some r -> r
      | None -> Error (Errors.Internal ("unexpected reply to " ^ ctx)))

let expect_ok reply =
  classify ~ctx:"request" reply (function
    | Dp_msg.Rp_ok -> Some (Ok ())
    | _ -> None)

(* blocked (batched) requests acknowledge with either OK or a progress
   report; both mean the whole batch was applied *)
let expect_applied ~ctx reply =
  classify ~ctx reply (function
    | Dp_msg.Rp_progress _ | Dp_msg.Rp_ok -> Some (Ok ())
    | _ -> None)

let expect_file = function
  | Dp_msg.Rp_file id -> Ok id
  | Dp_msg.Rp_error e -> Error e
  | _ -> Error (Errors.Internal "unexpected reply to CREATE^FILE")

let expect_record reply =
  classify ~ctx:"READ" reply (function
    | Dp_msg.Rp_record { key; record } -> Some (Ok (key, record))
    | _ -> None)

(* --- partition routing --------------------------------------------------- *)

(* the partition whose [lo, next-lo) interval contains [key] *)
let route f key =
  let n = Array.length f.parts in
  let rec go i = if i + 1 < n && Keycode.compare_keys f.parts.(i + 1).p_lo key <= 0 then go (i + 1) else i in
  f.parts.(go 0)

(* clip [range] to each partition; returns the non-empty pieces in order *)
let partition_ranges f (range : Expr.key_range) =
  let n = Array.length f.parts in
  let pieces = ref [] in
  for i = n - 1 downto 0 do
    let p = f.parts.(i) in
    let p_hi = if i + 1 < n then f.parts.(i + 1).p_lo else Keycode.high_value in
    let lo = if Keycode.compare_keys range.Expr.lo p.p_lo > 0 then range.Expr.lo else p.p_lo in
    let hi = if Keycode.compare_keys range.Expr.hi p_hi < 0 then range.Expr.hi else p_hi in
    if Keycode.compare_keys lo hi < 0 then
      pieces := (p, Expr.{ lo; hi }) :: !pieces
  done;
  !pieces

(* --- file creation --------------------------------------------------------- *)

let validate_partitions partitions =
  match partitions with
  | [] -> fail (Errors.Invalid_argument_error "no partitions")
  | first :: _ ->
      if not (String.equal first.ps_lo "") then
        fail
          (Errors.Invalid_argument_error
             "first partition must start at LOW-VALUE")
      else begin
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              Keycode.compare_keys a.ps_lo b.ps_lo < 0 && sorted rest
          | _ -> true
        in
        if sorted partitions then Ok ()
        else fail (Errors.Invalid_argument_error "partition keys not ascending")
      end

let build_index_meta (schema : Row.schema) spec =
  let key_cols = Array.to_list schema.Row.key_cols in
  let ix_cols = Array.of_list spec.is_cols in
  let extra = List.filter (fun k -> not (List.mem k spec.is_cols)) key_cols in
  let all = Array.of_list (spec.is_cols @ extra) in
  let cols = Array.map (fun i -> schema.Row.cols.(i)) all in
  let names = Array.map (fun c -> c.Row.col_name) cols in
  let ix_schema = Row.schema cols ~key:(Array.to_list names) in
  let pos_of base_col =
    let rec go i =
      if i >= Array.length all then invalid_arg "Fs: index misses base key col"
      else if all.(i) = base_col then i
      else go (i + 1)
    in
    go 0
  in
  let ix_basekey_pos = Array.of_list (List.map pos_of key_cols) in
  (ix_cols, all, ix_basekey_pos, ix_schema)

let create_file t ~fname ~schema ?check ~partitions ~indexes () =
  let* () = validate_partitions partitions in
  let* parts =
    Errors.list_map
      (fun (i, ps) ->
        let pname = Printf.sprintf "%s#p%d" fname i in
        let reply =
          send t ps.ps_dp
            (Dp_msg.R_create_file
               { fname = pname; kind = Dp_msg.K_key_sequenced; schema = Some schema; check })
        in
        let* id = expect_file reply in
        Ok { p_lo = ps.ps_lo; p_dp = ps.ps_dp; p_file = id })
      (List.mapi (fun i ps -> (i, ps)) partitions)
  in
  let* index_metas =
    Errors.list_map
      (fun spec ->
        let ix_cols, ix_all_cols, ix_basekey_pos, ix_schema =
          build_index_meta schema spec
        in
        let iname = Printf.sprintf "%s#ix_%s" fname spec.is_name in
        let reply =
          send t spec.is_dp
            (Dp_msg.R_create_file
               { fname = iname; kind = Dp_msg.K_key_sequenced; schema = Some ix_schema; check = None })
        in
        let* id = expect_file reply in
        Ok
          {
            ix_name = spec.is_name;
            ix_cols;
            ix_all_cols;
            ix_basekey_pos;
            ix_schema;
            ix_dp = spec.is_dp;
            ix_file = id;
          })
      indexes
  in
  Ok
    {
      fname;
      schema = Some schema;
      kind = Dp_msg.K_key_sequenced;
      parts = Array.of_list parts;
      indexes = index_metas;
    }

let create_enscribe_file t ~fname ~kind ~partitions =
  let* () = validate_partitions partitions in
  let* parts =
    Errors.list_map
      (fun (i, ps) ->
        let pname = Printf.sprintf "%s#p%d" fname i in
        let reply =
          send t ps.ps_dp
            (Dp_msg.R_create_file { fname = pname; kind; schema = None; check = None })
        in
        let* id = expect_file reply in
        Ok { p_lo = ps.ps_lo; p_dp = ps.ps_dp; p_file = id })
      (List.mapi (fun i ps -> (i, ps)) partitions)
  in
  Ok { fname; schema = None; kind; parts = Array.of_list parts; indexes = [] }

(* --- index helpers ------------------------------------------------------------ *)

let index_row ix row = Row.project row ix.ix_all_cols

let index_key ix row = Row.key_of_row ix.ix_schema (index_row ix row)

let base_key_of_index_row f ix irow =
  match f.schema with
  | None -> invalid_arg "Fs: index on schema-less file"
  | Some schema ->
      let values =
        Array.to_list (Array.map (fun p -> irow.(p)) ix.ix_basekey_pos)
      in
      Row.key_of_values schema values

let index_schema f ~index =
  match List.find_opt (fun ix -> String.equal ix.ix_name index) f.indexes with
  | Some ix -> Ok ix.ix_schema
  | None -> fail (Errors.Name_error ("unknown index " ^ index))

(* --- record-at-a-time operations ------------------------------------------------ *)

let read t f ~tx ~key ~lock =
  let p = route f key in
  let* _k, record = expect_record (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock })) in
  Ok record

let insert t f ~tx ~key ~record =
  let p = route f key in
  expect_ok (send t p.p_dp (Dp_msg.R_insert { file = p.p_file; tx; key; record }))

let update t f ~tx ~key ~record =
  let p = route f key in
  expect_ok (send t p.p_dp (Dp_msg.R_update { file = p.p_file; tx; key; record }))

let append_entry t f ~tx ~record =
  (* entry-sequenced files are unpartitioned: all appends go to EOF *)
  let p = f.parts.(0) in
  classify ~ctx:"ENTRY^APPEND"
    (send t p.p_dp (Dp_msg.R_entry_append { file = p.p_file; tx; record }))
    (function Dp_msg.Rp_slot addr -> Some (Ok addr) | _ -> None)

let delete t f ~tx ~key =
  let p = route f key in
  expect_ok (send t p.p_dp (Dp_msg.R_delete { file = p.p_file; tx; key }))

let lock_file t f ~tx ~lock =
  if fanout t && Array.length f.parts > 1 then begin
    (* overlap the per-partition LOCKFILE round trips; every completion is
       awaited (first failing partition wins, in partition order) *)
    let cs =
      Array.map
        (fun p -> send_nowait t p.p_dp (Dp_msg.R_lock_file { file = p.p_file; tx; lock }))
        f.parts
    in
    Array.fold_left
      (fun acc c ->
        let reply = await_reply t c in
        match acc with Error _ -> acc | Ok () -> expect_ok reply)
      (Ok ()) cs
  end
  else
    let rec go i =
      if i >= Array.length f.parts then Ok ()
      else
        let p = f.parts.(i) in
        let* () =
          expect_ok (send t p.p_dp (Dp_msg.R_lock_file { file = p.p_file; tx; lock }))
        in
        go (i + 1)
    in
    go 0

let lock_generic t f ~tx ~prefix ~lock =
  let p = route f prefix in
  expect_ok
    (send t p.p_dp (Dp_msg.R_lock_generic { file = p.p_file; tx; prefix; lock }))

(* relative and entry-sequenced files are unpartitioned: every request goes
   through the first (only) partition, like [append_entry] *)

let rel_read t f ~tx ~slot =
  let p = f.parts.(0) in
  let* _k, record =
    expect_record (send t p.p_dp (Dp_msg.R_rel_read { file = p.p_file; tx; slot }))
  in
  Ok record

let rel_write t f ~tx ~slot ~record =
  let p = f.parts.(0) in
  classify ~ctx:"REL^WRITE"
    (send t p.p_dp (Dp_msg.R_rel_write { file = p.p_file; tx; slot; record }))
    (function Dp_msg.Rp_slot s -> Some (Ok s) | _ -> None)

let rel_rewrite t f ~tx ~slot ~record =
  let p = f.parts.(0) in
  expect_ok
    (send t p.p_dp (Dp_msg.R_rel_rewrite { file = p.p_file; tx; slot; record }))

let rel_delete t f ~tx ~slot =
  let p = f.parts.(0) in
  expect_ok (send t p.p_dp (Dp_msg.R_rel_delete { file = p.p_file; tx; slot }))

let entry_read t f ~tx ~addr =
  let p = f.parts.(0) in
  let* _k, record =
    expect_record (send t p.p_dp (Dp_msg.R_entry_read { file = p.p_file; tx; addr }))
  in
  Ok record

(* --- SQL row operations ----------------------------------------------------------- *)

let require_schema f =
  match f.schema with
  | Some s -> Ok s
  | None -> fail (Errors.Bad_request (f.fname ^ " is not a SQL file"))

let insert_row t f ~tx row =
  let* schema = require_schema f in
  let* () = Row.validate schema row in
  let key = Row.key_of_row schema row in
  let p = route f key in
  let* () =
    expect_ok (send t p.p_dp (Dp_msg.R_insert_row { file = p.p_file; tx; row }))
  in
  (* secondary-index maintenance: one message per index *)
  Errors.list_iter
    (fun ix ->
      expect_ok
        (send t ix.ix_dp
           (Dp_msg.R_insert_row { file = ix.ix_file; tx; row = index_row ix row })))
    f.indexes

let delete_index_entries t f ~tx old_row =
  Errors.list_iter
    (fun ix ->
      let key = index_key ix old_row in
      expect_ok (send t ix.ix_dp (Dp_msg.R_delete { file = ix.ix_file; tx; key })))
    f.indexes

let update_row_via_key t f ~tx ~key assignments =
  let* schema = require_schema f in
  let p = route f key in
  (* requester-side read-modify-write: costs an extra message vs. the
     delegated update-expression path (the paper's point) *)
  let* _k, record =
    expect_record
      (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock = Dp_msg.L_exclusive }))
  in
  let old_row = Row.decode_exn schema record in
  let new_row = Expr.apply_assignments old_row assignments in
  let* () = Row.validate schema new_row in
  let new_record = Row.encode schema new_row in
  let* () =
    expect_ok
      (send t p.p_dp (Dp_msg.R_update { file = p.p_file; tx; key; record = new_record }))
  in
  (* index maintenance for the indices whose entries changed *)
  Errors.list_iter
    (fun ix ->
      let old_ir = index_row ix old_row and new_ir = index_row ix new_row in
      if Row.equal_row old_ir new_ir then Ok ()
      else
        let* () =
          expect_ok
            (send t ix.ix_dp
               (Dp_msg.R_delete { file = ix.ix_file; tx; key = index_key ix old_row }))
        in
        expect_ok
          (send t ix.ix_dp (Dp_msg.R_insert_row { file = ix.ix_file; tx; row = new_ir })))
    f.indexes

let delete_row_via_key t f ~tx ~key =
  let* schema = require_schema f in
  let p = route f key in
  let* _k, record =
    expect_record
      (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key; lock = Dp_msg.L_exclusive }))
  in
  let old_row = Row.decode_exn schema record in
  let* () = expect_ok (send t p.p_dp (Dp_msg.R_delete { file = p.p_file; tx; key })) in
  delete_index_entries t f ~tx old_row

let read_row_via_index t f ~tx ~index ~index_key:ikey_values =
  let* schema = require_schema f in
  match List.find_opt (fun ix -> String.equal ix.ix_name index) f.indexes with
  | None -> fail (Errors.Name_error ("unknown index " ^ index))
  | Some ix -> (
      let* prefix = Row.key_of_values ix.ix_schema ikey_values in
      (* message 1: read the first matching index record *)
      let reply =
        send t ix.ix_dp
          (Dp_msg.R_read_next
             {
               file = ix.ix_file;
               tx;
               from_key = prefix;
               inclusive = true;
               lock = Dp_msg.L_none;
               sbb = false;
             })
      in
      classify ~ctx:"index READ^NEXT" reply (function
        | Dp_msg.Rp_end -> Some (Ok None)
        | Dp_msg.Rp_record { key; record } ->
            (* check the index record is within the prefix *)
            let within =
              String.length key >= String.length prefix
              && String.equal (String.sub key 0 (String.length prefix)) prefix
            in
            Some
              (if not within then Ok None
               else begin
                 let irow = Row.decode_exn ix.ix_schema record in
                 let* base_key = base_key_of_index_row f ix irow in
                 (* message 2: read the base record on its partition *)
                 let p = route f base_key in
                 let* _k, base_record =
                   expect_record
                     (send t p.p_dp
                        (Dp_msg.R_read
                           { file = p.p_file; tx; key = base_key; lock = Dp_msg.L_none }))
                 in
                 Ok (Some (Row.decode_exn schema base_record))
               end)
        | _ -> None))

(* --- ENSCRIBE sequential read --------------------------------------------- *)

let read_next_raw t f ~tx ~from_key ~inclusive ~lock ~sbb =
  (* partitions at or after the one holding [from_key], in key order *)
  let n = Array.length f.parts in
  let rec try_part i from_key inclusive =
    if i >= n then Ok []
    else begin
      let p = f.parts.(i) in
      let reply =
        send t p.p_dp
          (Dp_msg.R_read_next { file = p.p_file; tx; from_key; inclusive; lock; sbb })
      in
      classify ~ctx:"READ^NEXT" reply (function
        | Dp_msg.Rp_end ->
            (* this partition is exhausted: continue in the next one *)
            Some
              (if i + 1 < n then try_part (i + 1) f.parts.(i + 1).p_lo true
               else Ok [])
        | Dp_msg.Rp_record { key; record } -> Some (Ok [ (key, record) ])
        | Dp_msg.Rp_block { entries; _ } -> Some (Ok entries)
        | _ -> None)
    end
  in
  let start_part =
    let rec go i =
      if i + 1 < n && Keycode.compare_keys f.parts.(i + 1).p_lo from_key <= 0
      then go (i + 1)
      else i
    in
    go 0
  in
  try_part start_part from_key inclusive

(* --- set-oriented scans -------------------------------------------------------------- *)

type access = A_record | A_rsbb | A_vsbb

let access_name = function
  | A_record -> "record"
  | A_rsbb -> "rsbb"
  | A_vsbb -> "vsbb"

type scan_item = I_row of Row.row | I_entry of string * string

(* the blocking driver: one partition at a time, one outstanding request *)
type seq_scan = {
  sc_file : file;
  sc_tx : int;
  sc_access : access;
  sc_pred : Expr.t option;
  sc_proj : int array option;
  sc_lock : Dp_msg.lock_mode;
  mutable sc_parts : (partition * Expr.key_range) list;  (** head = current *)
  mutable sc_scb : int option;
  mutable sc_last_key : string;
  mutable sc_started : bool;  (** GET^FIRST already sent in this partition *)
  mutable sc_buf : scan_item list;
  mutable sc_done : bool;
  sc_span : Trace.h;  (** scan-lifetime span, finished at close *)
}

(* the nowait driver: every partition keeps one outstanding re-drive *)
type par_part = {
  pp_part : partition;
  pp_range : Expr.key_range;
  mutable pp_scb : int option;
  mutable pp_last_key : string;
  mutable pp_pending : Msg.completion option;
  mutable pp_front : scan_item list;
  mutable pp_chunks : scan_item list list;  (** newest first *)
  mutable pp_done : bool;  (** partition exhausted on the DP side *)
  mutable pp_span : Trace.h;
      (** fan-out leg span; its counter deltas are attributed per
          interaction (issue, re-drive, close), never by window diff —
          sibling legs interleave inside the scan's extent *)
}

type par_scan = {
  pr_file : file;
  pr_tx : int;
  pr_access : access;  (** [A_rsbb] or [A_vsbb] *)
  pr_pred : Expr.t option;
  pr_proj : int array option;
  pr_lock : Dp_msg.lock_mode;
  pr_ordered : bool;
  pr_parts : par_part array;
  mutable pr_cur : int;  (** ordered: next partition to consume *)
  mutable pr_front : scan_item list;  (** unordered: arrival-order queue *)
  mutable pr_chunks : scan_item list list;
  mutable pr_started : bool;
  mutable pr_dead : bool;  (** closed or failed: yield nothing more *)
  pr_span : Trace.h;
}

type scan = Seq of seq_scan | Par of par_scan

let open_scan t f ~tx ~access ~range ?pred ?proj ?(ordered = true) ~lock () =
  let pieces = partition_ranges f range in
  (* the record-at-a-time path stays blocking: it is the old-interface
     baseline, and its lock acquisition is inherently one-at-a-time *)
  let par = fanout t && access <> A_record && List.length pieces > 1 in
  (* [push:false]: a scan handle outlives this call, so its span must not
     sit on the open-span stack between interactions — scan_next_item and
     close_scan bracket each interaction in an attribute window instead *)
  let sp =
    if Trace.enabled t.sim then
      Trace.begin_span t.sim ~push:false ~cat:"fs"
        ~attrs:
          [
            ("file", Trace.Str f.fname);
            ("access", Trace.Str (access_name access));
            ("partitions", Trace.Int (List.length pieces));
            ("parallel", Trace.Bool par);
          ]
        (access_name access ^ " scan " ^ f.fname)
    else None
  in
  if par then
    Par
      {
        pr_file = f;
        pr_tx = tx;
        pr_access = access;
        pr_pred = pred;
        pr_proj = proj;
        pr_lock = lock;
        pr_ordered = ordered;
        pr_parts =
          Array.of_list
            (List.map
               (fun (p, r) ->
                 {
                   pp_part = p;
                   pp_range = r;
                   pp_scb = None;
                   pp_last_key = "";
                   pp_pending = None;
                   pp_front = [];
                   pp_chunks = [];
                   pp_done = false;
                   pp_span = None;
                 })
               pieces);
        pr_cur = 0;
        pr_front = [];
        pr_chunks = [];
        pr_started = false;
        pr_dead = false;
        pr_span = sp;
      }
  else
    Seq
      {
        sc_file = f;
        sc_tx = tx;
        sc_access = access;
        sc_pred = pred;
        sc_proj = proj;
        sc_lock = lock;
        sc_parts = pieces;
        sc_scb = None;
        sc_last_key = "";
        sc_started = false;
        sc_buf = [];
        sc_done = false;
        sc_span = sp;
      }

(* client-side filtering for the record-at-a-time and RSBB paths *)
let client_select_gen ~schema ~pred ~proj key record =
  match schema with
  | None -> Some (I_entry (key, record))
  | Some schema -> (
      let row = Row.decode_exn schema record in
      match pred with
      | Some p when not (Expr.eval_pred row p) -> None
      | _ -> (
          match proj with
          | Some fields -> Some (I_row (Row.project row fields))
          | None -> Some (I_row row)))

(* --- sequential (blocking) scan driver ----------------------------------- *)

let seq_close t sc =
  (match (sc.sc_scb, sc.sc_parts) with
  | Some scb, (p, _) :: _ ->
      Trace.attribute t.sim sc.sc_span (fun () ->
          ignore (send t p.p_dp (Dp_msg.R_close_scb { scb })))
  | _ -> ());
  sc.sc_scb <- None;
  sc.sc_done <- true;
  Trace.finish t.sim sc.sc_span

(* move to the next partition *)
let advance_partition t sc =
  (match (sc.sc_scb, sc.sc_parts) with
  | Some scb, (p, _) :: _ -> ignore (send t p.p_dp (Dp_msg.R_close_scb { scb }))
  | _ -> ());
  sc.sc_scb <- None;
  sc.sc_started <- false;
  sc.sc_last_key <- "";
  match sc.sc_parts with
  | [] -> sc.sc_done <- true
  | _ :: rest ->
      sc.sc_parts <- rest;
      if rest = [] then sc.sc_done <- true

let client_select sc key record =
  client_select_gen ~schema:sc.sc_file.schema ~pred:sc.sc_pred
    ~proj:sc.sc_proj key record

(* one reply buffer absorbed into the scan's item buffer = one
   executor-visible batch; counted at the absorb site so the pull and
   batched executors (which drain the same buffers) agree exactly *)
let note_batch t n =
  if n > 0 then begin
    let s = Sim.stats t.sim in
    s.Stats.exec_batches <- s.Stats.exec_batches + 1;
    s.Stats.exec_rows <- s.Stats.exec_rows + n
  end

(* one FS-DP interaction to refill the buffer; true if the scan may continue *)
let refill t sc =
  match sc.sc_parts with
  | [] ->
      sc.sc_done <- true;
      Ok ()
  | (p, range) :: _ -> (
      match sc.sc_access with
      | A_record -> (
          let from_key, inclusive =
            if sc.sc_started then (sc.sc_last_key, false)
            else (range.Expr.lo, true)
          in
          sc.sc_started <- true;
          let reply =
            send t p.p_dp
              (Dp_msg.R_read_next
                 {
                   file = p.p_file;
                   tx = sc.sc_tx;
                   from_key;
                   inclusive;
                   lock = sc.sc_lock;
                   sbb = false;
                 })
          in
          classify ~ctx:"READ^NEXT" reply (function
            | Dp_msg.Rp_end ->
                advance_partition t sc;
                Some (Ok ())
            | Dp_msg.Rp_record { key; record } ->
                if Keycode.compare_keys key range.Expr.hi >= 0 then begin
                  advance_partition t sc;
                  Some (Ok ())
                end
                else begin
                  sc.sc_last_key <- key;
                  (match client_select sc key record with
                  | Some item ->
                      sc.sc_buf <- [ item ];
                      note_batch t 1
                  | None -> ());
                  Some (Ok ())
                end
            | _ -> None))
      | A_rsbb | A_vsbb -> (
          let buffering =
            match sc.sc_access with
            | A_rsbb -> Dp_msg.B_rsbb
            | A_vsbb | A_record -> Dp_msg.B_vsbb
          in
          let reply =
            match sc.sc_scb with
            | None when not sc.sc_started ->
                sc.sc_started <- true;
                send t p.p_dp
                  (Dp_msg.R_get_first
                     {
                       file = p.p_file;
                       tx = sc.sc_tx;
                       buffering;
                       range;
                       pred = (if sc.sc_access = A_vsbb then sc.sc_pred else None);
                       proj = (if sc.sc_access = A_vsbb then sc.sc_proj else None);
                       lock = sc.sc_lock;
                     })
            | Some scb ->
                send t p.p_dp
                  (Dp_msg.R_get_next
                     { file = p.p_file; tx = sc.sc_tx; scb; after_key = sc.sc_last_key })
            | None ->
                (* SCB lost but scan started: treat as exhausted *)
                Dp_msg.Rp_end
          in
          classify ~ctx:"GET" reply (function
            | Dp_msg.Rp_end ->
                (* the Disk Process has already dropped the SCB *)
                sc.sc_scb <- None;
                advance_partition t sc;
                Some (Ok ())
            | Dp_msg.Rp_vblock { rows; last_key; more; scb } ->
                sc.sc_scb <- (if more then Some scb else None);
                sc.sc_last_key <- last_key;
                sc.sc_buf <- List.map (fun r -> I_row r) rows;
                note_batch t (List.length sc.sc_buf);
                if not more then advance_partition t sc;
                Some (Ok ())
            | Dp_msg.Rp_block { entries; last_key; more; scb } ->
                sc.sc_scb <- (if more then Some scb else None);
                sc.sc_last_key <- last_key;
                sc.sc_buf <-
                  List.filter_map (fun (k, r) -> client_select sc k r) entries;
                note_batch t (List.length sc.sc_buf);
                if not more then advance_partition t sc;
                Some (Ok ())
            | _ -> None)))

let rec seq_next_item t sc =
  match sc.sc_buf with
  | item :: rest ->
      sc.sc_buf <- rest;
      Sim.tick t.sim 3;
      Ok (Some item)
  | [] ->
      if sc.sc_done then Ok None
      else
        let* () = refill t sc in
        if sc.sc_buf = [] && sc.sc_done then Ok None else seq_next_item t sc

(* take everything currently buffered as one batch. Draining item-by-item
   does nothing to the simulation between pops (the pops are pure), so one
   aggregated [Sim.tick (3n)] fires the same events at the same times as n
   interleaved [Sim.tick 3]s — the batched and pull paths are
   observationally identical. [tick:false] hands the rows over uncharged:
   the caller owes [Sim.tick 3] per row *before* any per-row message, which
   keeps message send times exact for consumers that interleave sends with
   consumption (index base reads, keyed fallbacks). *)
let rec seq_next_items ~tick t sc =
  match sc.sc_buf with
  | _ :: _ as items ->
      sc.sc_buf <- [];
      if tick then Sim.tick t.sim (3 * List.length items);
      Ok (Some items)
  | [] ->
      if sc.sc_done then Ok None
      else
        let* () = refill t sc in
        if sc.sc_buf = [] && sc.sc_done then Ok None
        else seq_next_items ~tick t sc

(* --- parallel (nowait) scan driver ---------------------------------------- *)

(* pop one buffered item; chunks hold whole replies, newest first *)
let chunk_take ~front ~chunks ~set_front ~set_chunks =
  match front with
  | it :: rest ->
      set_front rest;
      Some it
  | [] -> (
      match List.concat (List.rev chunks) with
      | [] -> None
      | it :: rest ->
          set_chunks [];
          set_front rest;
          Some it)

let pp_take pp =
  chunk_take ~front:pp.pp_front ~chunks:pp.pp_chunks
    ~set_front:(fun l -> pp.pp_front <- l)
    ~set_chunks:(fun l -> pp.pp_chunks <- l)

let pr_take ps =
  chunk_take ~front:ps.pr_front ~chunks:ps.pr_chunks
    ~set_front:(fun l -> ps.pr_front <- l)
    ~set_chunks:(fun l -> ps.pr_chunks <- l)

(* drain the whole buffer in pop order: the items a sequence of pops would
   return, with no simulation activity between them *)
let pp_take_all pp =
  let items = pp.pp_front @ List.concat (List.rev pp.pp_chunks) in
  pp.pp_front <- [];
  pp.pp_chunks <- [];
  items

let pr_take_all ps =
  let items = ps.pr_front @ List.concat (List.rev ps.pr_chunks) in
  ps.pr_front <- [];
  ps.pr_chunks <- [];
  items

(* ordered scans buffer per partition (ranges are disjoint and ascending,
   so partition order IS key order); unordered scans queue arrivals *)
let par_absorb ps pp items =
  match items with
  | [] -> ()
  | items ->
      if ps.pr_ordered then pp.pp_chunks <- items :: pp.pp_chunks
      else ps.pr_chunks <- items :: ps.pr_chunks

(* launch: one GET^FIRST^VSBB (or RSBB) per partition, all overlapped *)
let par_issue_first t ps =
  ps.pr_started <- true;
  Array.iteri
    (fun i pp ->
      if Trace.enabled t.sim then
        pp.pp_span <-
          Trace.begin_span t.sim ~parent:ps.pr_span ~push:false ~tid:(i + 1)
            ~cat:"fs.leg"
            ~attrs:[ ("partition", Trace.Int i) ]
            ("leg " ^ Dp.name pp.pp_part.p_dp);
      let vsbb = ps.pr_access = A_vsbb in
      let req =
        Dp_msg.R_get_first
          {
            file = pp.pp_part.p_file;
            tx = ps.pr_tx;
            buffering = (if vsbb then Dp_msg.B_vsbb else Dp_msg.B_rsbb);
            range = pp.pp_range;
            pred = (if vsbb then ps.pr_pred else None);
            proj = (if vsbb then ps.pr_proj else None);
            lock = ps.pr_lock;
          }
      in
      Trace.attribute t.sim pp.pp_span (fun () ->
          pp.pp_pending <- Some (send_nowait t pp.pp_part.p_dp req)))
    ps.pr_parts

(* fold one reply into the partition state; keep one re-drive outstanding *)
let par_process t ps pp reply =
  Trace.attribute t.sim pp.pp_span @@ fun () ->
  classify ~ctx:"GET" reply (function
  | Dp_msg.Rp_end ->
      pp.pp_scb <- None;
      pp.pp_done <- true;
      Some (Ok ())
  | Dp_msg.Rp_vblock { rows; last_key; more; scb } ->
      pp.pp_last_key <- last_key;
      let items = List.map (fun r -> I_row r) rows in
      par_absorb ps pp items;
      note_batch t (List.length items);
      if more then begin
        pp.pp_scb <- Some scb;
        pp.pp_pending <-
          Some
            (send_nowait t pp.pp_part.p_dp
               (Dp_msg.R_get_next
                  { file = pp.pp_part.p_file; tx = ps.pr_tx; scb; after_key = last_key }))
      end
      else begin
        pp.pp_scb <- None;
        pp.pp_done <- true
      end;
      Some (Ok ())
  | Dp_msg.Rp_block { entries; last_key; more; scb } ->
      pp.pp_last_key <- last_key;
      let items =
        List.filter_map
          (fun (k, r) ->
            client_select_gen ~schema:ps.pr_file.schema ~pred:ps.pr_pred
              ~proj:ps.pr_proj k r)
          entries
      in
      par_absorb ps pp items;
      note_batch t (List.length items);
      if more then begin
        pp.pp_scb <- Some scb;
        pp.pp_pending <-
          Some
            (send_nowait t pp.pp_part.p_dp
               (Dp_msg.R_get_next
                  { file = pp.pp_part.p_file; tx = ps.pr_tx; scb; after_key = last_key }))
      end
      else begin
        pp.pp_scb <- None;
        pp.pp_done <- true
      end;
      Some (Ok ())
  | _ -> None)

(* drain every outstanding completion (charging its latency); called on
   error and on close so no completion is ever leaked *)
let par_quiesce t ps =
  Array.iter
    (fun pp ->
      match pp.pp_pending with
      | None -> ()
      | Some c ->
          pp.pp_pending <- None;
          (match await_reply t c with
          | Dp_msg.Rp_vblock { more; scb; _ } | Dp_msg.Rp_block { more; scb; _ } ->
              pp.pp_scb <- (if more then Some scb else None)
          | Dp_msg.Rp_blocked { scb; _ } when scb >= 0 -> pp.pp_scb <- Some scb
          | _ -> pp.pp_scb <- None);
          pp.pp_done <- true)
    ps.pr_parts

(* await the earliest outstanding completion across ALL partitions (ties
   break to the lowest partition index — pure function of simulated time)
   and fold its reply in; [Ok false] when nothing was outstanding *)
let par_await_some t ps =
  let idxs = ref [] in
  Array.iteri
    (fun i pp -> if pp.pp_pending <> None then idxs := i :: !idxs)
    ps.pr_parts;
  match List.rev !idxs with
  | [] -> Ok false
  | idxs -> (
      let cs = List.map (fun i -> Option.get ps.pr_parts.(i).pp_pending) idxs in
      let which, payload = Msg.await_any t.msys cs in
      let pp = ps.pr_parts.(List.nth idxs which) in
      pp.pp_pending <- None;
      match par_process t ps pp (decode_or_internal payload) with
      | Ok () -> Ok true
      | Error e ->
          par_quiesce t ps;
          ps.pr_dead <- true;
          Error e)

let rec par_next_item t ps =
  if ps.pr_dead then Ok None
  else begin
    if not ps.pr_started then par_issue_first t ps;
    if ps.pr_ordered then begin
      if ps.pr_cur >= Array.length ps.pr_parts then Ok None
      else begin
        let pp = ps.pr_parts.(ps.pr_cur) in
        match pp_take pp with
        | Some it ->
            Sim.tick t.sim 3;
            Ok (Some it)
        | None ->
            if pp.pp_done && pp.pp_pending = None then begin
              ps.pr_cur <- ps.pr_cur + 1;
              par_next_item t ps
            end
            else
              let* progressed = par_await_some t ps in
              if progressed then par_next_item t ps else Ok None
      end
    end
    else begin
      match pr_take ps with
      | Some it ->
          Sim.tick t.sim 3;
          Ok (Some it)
      | None ->
          let all_done =
            Array.for_all (fun pp -> pp.pp_done && pp.pp_pending = None) ps.pr_parts
          in
          if all_done then Ok None
          else
            let* progressed = par_await_some t ps in
            if progressed then par_next_item t ps else Ok None
    end
  end

(* batch variant of [par_next_item]: same await/advance decisions, but a
   non-empty buffer is surrendered whole (see [seq_next_items] for the
   tick-equivalence argument) *)
let rec par_next_items ~tick t ps =
  if ps.pr_dead then Ok None
  else begin
    if not ps.pr_started then par_issue_first t ps;
    if ps.pr_ordered then begin
      if ps.pr_cur >= Array.length ps.pr_parts then Ok None
      else begin
        let pp = ps.pr_parts.(ps.pr_cur) in
        match pp_take_all pp with
        | _ :: _ as items ->
            if tick then Sim.tick t.sim (3 * List.length items);
            Ok (Some items)
        | [] ->
            if pp.pp_done && pp.pp_pending = None then begin
              ps.pr_cur <- ps.pr_cur + 1;
              par_next_items ~tick t ps
            end
            else
              let* progressed = par_await_some t ps in
              if progressed then par_next_items ~tick t ps else Ok None
      end
    end
    else begin
      match pr_take_all ps with
      | _ :: _ as items ->
          if tick then Sim.tick t.sim (3 * List.length items);
          Ok (Some items)
      | [] ->
          let all_done =
            Array.for_all (fun pp -> pp.pp_done && pp.pp_pending = None) ps.pr_parts
          in
          if all_done then Ok None
          else
            let* progressed = par_await_some t ps in
            if progressed then par_next_items ~tick t ps else Ok None
    end
  end

(* --- common scan interface -------------------------------------------------- *)

(* every interaction runs inside an attribute window on the scan's span:
   children begun here nest under it and its counter delta accumulates
   exactly over scan work, not whatever the caller does while holding the
   handle open *)
let scan_next_item t sc =
  let h = match sc with Seq sc -> sc.sc_span | Par ps -> ps.pr_span in
  Trace.attribute t.sim h (fun () ->
      match sc with
      | Seq sc -> seq_next_item t sc
      | Par ps -> par_next_item t ps)

let scan_file = function Seq sc -> sc.sc_file | Par ps -> ps.pr_file

let close_scan t = function
  | Seq sc -> seq_close t sc
  | Par ps ->
      Trace.attribute t.sim ps.pr_span (fun () ->
          par_quiesce t ps;
          Array.iter
            (fun pp ->
              (match pp.pp_scb with
              | Some scb ->
                  pp.pp_scb <- None;
                  Trace.attribute t.sim pp.pp_span (fun () ->
                      ignore
                        (send t pp.pp_part.p_dp (Dp_msg.R_close_scb { scb })))
              | None -> ());
              Trace.finish t.sim pp.pp_span)
            ps.pr_parts);
      Trace.finish t.sim ps.pr_span;
      ps.pr_dead <- true

let scan_next t sc =
  let* item = scan_next_item t sc in
  match item with
  | None -> Ok None
  | Some (I_row row) -> Ok (Some row)
  | Some (I_entry (_, record)) -> (
      match (scan_file sc).schema with
      | Some schema -> Ok (Some (Row.decode_exn schema record))
      | None -> Error (Errors.Bad_request "scan_next on schema-less file"))

(* surface everything the scan has buffered — at least one FS-DP reply
   buffer — as one row array; [None] when the scan is exhausted. With
   [~tick:false] the per-row pop charge is NOT applied: the consumer must
   charge [Sim.tick 3] per row before any per-row message it sends, so the
   message timeline stays byte-identical to the pull path. *)
let scan_next_batch ?(tick = true) t sc =
  let h = match sc with Seq sc -> sc.sc_span | Par ps -> ps.pr_span in
  let* items =
    Trace.attribute t.sim h (fun () ->
        match sc with
        | Seq sc -> seq_next_items ~tick t sc
        | Par ps -> par_next_items ~tick t ps)
  in
  match items with
  | None -> Ok None
  | Some items -> (
      match (scan_file sc).schema with
      | Some schema ->
          Ok
            (Some
               (Array.of_list items |> Array.map (function
                  | I_row row -> row
                  | I_entry (_, record) -> Row.decode_exn schema record)))
      | None ->
          if List.exists (function I_entry _ -> true | I_row _ -> false) items
          then Error (Errors.Bad_request "scan_next_batch on a schema-less file")
          else
            Ok
              (Some
                 (Array.of_list items |> Array.map (function
                    | I_row row -> row
                    | I_entry _ -> assert false))))

let scan_next_entry t sc =
  let* item = scan_next_item t sc in
  match item with
  | None -> Ok None
  | Some (I_entry (k, r)) -> Ok (Some (k, r))
  | Some (I_row _) ->
      Error (Errors.Bad_request "scan_next_entry on a projected scan")

(* --- set-oriented update / delete ------------------------------------------------------ *)

let assignments_touch_index f assignments =
  List.exists
    (fun ix ->
      List.exists
        (fun a -> Array.exists (fun c -> c = a.Expr.target) ix.ix_all_cols)
        assignments)
    f.indexes

(* The continuation re-drive, written once: one FIRST/NEXT chain per
   partition piece of a range. [fold i reply] absorbs a reply on chain [i]
   and answers [Ok (Some (scb, last_key))] to re-drive the chain after
   [last_key], [Ok None] once the subset is exhausted (the Disk Process
   dropped the SCB), or the error. There are two schedules.

   Nowait: every chain keeps one request outstanding and replies fold in
   earliest-completion order; once a chain has failed, a sibling that
   still has [more] is closed with CLOSE^SCB instead of re-driven. *)
let chains_nowait t parts ~first ~next fold =
  let pending =
    Array.map (fun (p, prange) -> Some (send_nowait t p.p_dp (first p prange))) parts
  in
  let err = ref None in
  let rec loop () =
    let idxs = ref [] in
    Array.iteri (fun i c -> if c <> None then idxs := i :: !idxs) pending;
    match List.rev !idxs with
    | [] -> ()
    | idxs ->
        let cs = List.map (fun i -> Option.get pending.(i)) idxs in
        let which, payload = Msg.await_any t.msys cs in
        let i = List.nth idxs which in
        pending.(i) <- None;
        let p, _ = parts.(i) in
        (match fold i (decode_or_internal payload) with
        | Ok None -> ()
        | Ok (Some (scb, last_key)) ->
            if !err = None then
              pending.(i) <- Some (send_nowait t p.p_dp (next p scb last_key))
            else
              (* a sibling partition failed: abandon this chain *)
              ignore (send t p.p_dp (Dp_msg.R_close_scb { scb }))
        | Error e -> if !err = None then err := Some e);
        loop ()
  in
  loop ();
  match !err with Some e -> Error e | None -> Ok ()

(* Blocking: one partition after another, stopping at the first error. *)
let chains_blocking t parts ~first ~next fold =
  let rec chain i =
    if i >= Array.length parts then Ok ()
    else
      let p, prange = parts.(i) in
      let rec drive req =
        let* redrive = fold i (send t p.p_dp req) in
        match redrive with
        | Some (scb, last_key) -> drive (next p scb last_key)
        | None -> chain (i + 1)
      in
      drive (first p prange)
  in
  chain 0

(* the chains of [range] over [f]'s partitions, overlapped when fan-out is
   on and there is more than one, in one [fs] span named [name] *)
let drive_chains t f ~name ?(attrs = []) ~range ~first ~next fold =
  let parts = Array.of_list (partition_ranges f range) in
  let par = fanout t && Array.length parts > 1 in
  let run = if par then chains_nowait else chains_blocking in
  if not (Trace.enabled t.sim) then run t parts ~first ~next fold
  else begin
    let sp =
      Trace.begin_span t.sim ~cat:"fs"
        ~attrs:
          ([
             ("file", Trace.Str f.fname);
             ("partitions", Trace.Int (Array.length parts));
             ("parallel", Trace.Bool par);
           ]
          @ attrs)
        (name ^ " " ^ f.fname)
    in
    Fun.protect
      ~finally:(fun () -> Trace.finish t.sim sp)
      (fun () -> run t parts ~first ~next fold)
  end

(* the delegated path: UPDATE^SUBSET / DELETE^SUBSET chains, summing the
   records each reply reports processed *)
let drive_subset t f ~range ~first ~next =
  let total = ref 0 in
  let* () =
    drive_chains t f ~name:"subset" ~range ~first ~next (fun _ reply ->
        classify ~ctx:"SUBSET request" reply (function
          | Dp_msg.Rp_progress { processed; last_key; more; scb } ->
              total := !total + processed;
              Some (Ok (if more then Some (scb, last_key) else None))
          | _ -> None))
  in
  Ok !total

(* the requester-side path when index maintenance rules the delegated one
   out: qualify with a VSBB scan projecting the key columns, then [apply]
   one via-key read-modify-write per qualifying key. The keys arrive a
   whole reply buffer at a time; the pop tick is deferred ([~tick:false])
   and re-applied before each [apply] so the message timeline matches the
   row-at-a-time driver exactly. *)
let via_keys t f schema ~tx ~range ?pred apply =
  let sc =
    open_scan t f ~tx ~access:A_vsbb ~range ?pred ~proj:schema.Row.key_cols
      ~lock:Dp_msg.L_exclusive ()
  in
  let rec go count =
    let* batch = scan_next_batch ~tick:false t sc in
    match batch with
    | None -> Ok count
    | Some batch ->
        let n = Array.length batch in
        let rec each i =
          if i >= n then go (count + n)
          else begin
            Sim.tick t.sim 3;
            let* key = Row.key_of_values schema (Array.to_list batch.(i)) in
            let* () = apply key in
            each (i + 1)
          end
        in
        each 0
  in
  (* close on every exit — errors and raises out of the driver (a
     malformed record decode) must not leave the scan (or its span) open *)
  Fun.protect ~finally:(fun () -> close_scan t sc) (fun () -> go 0)

let update_subset t f ~tx ~range ?pred assignments =
  let* schema = require_schema f in
  if assignments_touch_index f assignments then
    via_keys t f schema ~tx ~range ?pred (fun key ->
        update_row_via_key t f ~tx ~key assignments)
  else
    drive_subset t f ~range
      ~first:(fun p prange ->
        Dp_msg.R_update_subset_first
          { file = p.p_file; tx; range = prange; pred; assignments })
      ~next:(fun p scb after_key ->
        Dp_msg.R_update_subset_next { file = p.p_file; tx; scb; after_key })

let delete_subset t f ~tx ~range ?pred () =
  let* schema = require_schema f in
  if f.indexes <> [] then
    via_keys t f schema ~tx ~range ?pred (fun key ->
        delete_row_via_key t f ~tx ~key)
  else
    drive_subset t f ~range
      ~first:(fun p prange ->
        Dp_msg.R_delete_subset_first { file = p.p_file; tx; range = prange; pred })
      ~next:(fun p scb after_key ->
        Dp_msg.R_delete_subset_next { file = p.p_file; tx; scb; after_key })

(* --- aggregate pushdown ------------------------------------------------------ *)

(* merge per-partition group lists in partition (= key) order; a group
   whose rows straddle a partition boundary merges accumulator-wise *)
let merge_partition_groups per_part =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun groups ->
      List.iter
        (fun (keyvals, accs) ->
          let gk =
            let w = Nsql_util.Codec.writer () in
            Row.encode_values w keyvals;
            Nsql_util.Codec.contents w
          in
          match Hashtbl.find_opt tbl gk with
          | None ->
              Hashtbl.replace tbl gk (keyvals, accs);
              order := gk :: !order
          | Some (_, into_accs) ->
              List.iter2 (fun into acc -> Dp_msg.merge_acc ~into acc) into_accs accs)
        groups)
    per_part;
  List.rev_map
    (fun gk ->
      match Hashtbl.find_opt tbl gk with
      | Some g -> g
      | None -> Errors.fatal "Fs.aggregate: group order desync")
    !order

(* one AGGREGATE^FIRST / AGGREGATE^NEXT chain per partition; intermediate
   replies carry no groups (the partials stay in the Disk Process SCB), the
   final one ships the partition's groups *)
let aggregate t f ~tx ~range ?pred ~group_keys ~aggs ~lock () =
  let* _schema = require_schema f in
  let per_part = Array.make (partition_count f) [] in
  let* () =
    drive_chains t f ~name:"aggregate"
      ~attrs:[ ("groups", Trace.Int (Array.length group_keys)) ]
      ~range
      ~first:(fun p prange ->
        Dp_msg.R_agg_first
          { file = p.p_file; tx; range = prange; pred; group_keys; aggs; lock })
      ~next:(fun p scb after_key ->
        Dp_msg.R_agg_next { file = p.p_file; tx; scb; after_key })
      (fun i reply ->
        classify ~ctx:"AGGREGATE request" reply (function
          | Dp_msg.Rp_agg { groups; last_key; more; scb } ->
              if not more then per_part.(i) <- groups;
              Some (Ok (if more then Some (scb, last_key) else None))
          | _ -> None))
  in
  Ok (merge_partition_groups per_part)

(* --- blocked sequential inserts --------------------------------------------------------- *)

type insert_buffer = {
  ib_file : file;
  ib_tx : int;
  ib_capacity : int;
  mutable ib_rows : Row.row list;  (** newest first *)
}

let open_insert_buffer _t f ~tx ~capacity =
  if capacity < 1 then invalid_arg "Fs.open_insert_buffer: capacity < 1";
  { ib_file = f; ib_tx = tx; ib_capacity = capacity; ib_rows = [] }

let flush_insert_buffer t b =
  match b.ib_rows with
  | [] -> Ok ()
  | rows_rev ->
      let rows = List.rev rows_rev in
      b.ib_rows <- [];
      let* schema = require_schema b.ib_file in
      (* group by partition, one INSERT^BLOCK message per partition *)
      let groups = Hashtbl.create 4 in
      List.iter
        (fun row ->
          let p = route b.ib_file (Row.key_of_row schema row) in
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt groups p.p_file)
          in
          Hashtbl.replace groups p.p_file (row :: existing))
        rows;
      let* () =
        Errors.list_iter
          (fun (pfile, prows) ->
            let p =
              Array.to_list b.ib_file.parts
              |> List.find (fun p -> p.p_file = pfile)
            in
            expect_applied ~ctx:"INSERT^BLOCK"
              (send t p.p_dp
                 (Dp_msg.R_insert_block
                    { file = pfile; tx = b.ib_tx; rows = List.rev prows })))
          (Tbl.sorted_bindings groups)
      in
      (* index maintenance, also blocked *)
      Errors.list_iter
        (fun ix ->
          let irows = List.map (fun row -> index_row ix row) rows in
          expect_applied ~ctx:"INSERT^BLOCK"
            (send t ix.ix_dp
               (Dp_msg.R_insert_block
                  { file = ix.ix_file; tx = b.ib_tx; rows = irows })))
        b.ib_file.indexes

let buffered_insert t b row =
  b.ib_rows <- row :: b.ib_rows;
  if List.length b.ib_rows >= b.ib_capacity then flush_insert_buffer t b
  else Ok ()

(* --- buffered update/delete where current ----------------------------------- *)

type apply_buffer = {
  ab_file : file;
  ab_tx : int;
  ab_capacity : int;
  mutable ab_ops : (string * Dp_msg.buffered_op) list;  (** newest first *)
}

let open_apply_buffer _t f ~tx ~capacity =
  if capacity < 1 then invalid_arg "Fs.open_apply_buffer: capacity < 1";
  { ab_file = f; ab_tx = tx; ab_capacity = capacity; ab_ops = [] }

let flush_apply_buffer t b =
  match b.ab_ops with
  | [] -> Ok ()
  | ops_rev ->
      let ops = List.rev ops_rev in
      b.ab_ops <- [];
      if b.ab_file.indexes <> [] then
        (* index maintenance needs the requester-side path *)
        Errors.list_iter
          (fun (key, op) ->
            match op with
            | Dp_msg.Ob_update assignments ->
                update_row_via_key t b.ab_file ~tx:b.ab_tx ~key assignments
            | Dp_msg.Ob_delete -> delete_row_via_key t b.ab_file ~tx:b.ab_tx ~key)
          ops
      else begin
        (* group by partition, one APPLY^BLOCK per partition touched *)
        let groups = Hashtbl.create 4 in
        List.iter
          (fun (key, op) ->
            let p = route b.ab_file key in
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt groups p.p_file)
            in
            Hashtbl.replace groups p.p_file ((key, op) :: existing))
          ops;
        Errors.list_iter
          (fun (pfile, pops) ->
            let p =
              Array.to_list b.ab_file.parts
              |> List.find (fun p -> p.p_file = pfile)
            in
            expect_applied ~ctx:"APPLY^BLOCK"
              (send t p.p_dp
                 (Dp_msg.R_apply_block
                    { file = pfile; tx = b.ab_tx; ops = List.rev pops })))
          (Tbl.sorted_bindings groups)
      end

let buffer_op t b key op =
  b.ab_ops <- (key, op) :: b.ab_ops;
  if List.length b.ab_ops >= b.ab_capacity then flush_apply_buffer t b
  else Ok ()

let buffered_update t b ~key assignments =
  buffer_op t b key (Dp_msg.Ob_update assignments)

let buffered_delete t b ~key = buffer_op t b key Dp_msg.Ob_delete

(* --- index scans -------------------------------------------------------------------------- *)

(* An index scan in either stream shape. The index is viewed as a
   one-partition key-sequenced file and scanned with VSBB, so selection on
   index fields runs in the index's Disk Process; [pull sc base_row]
   surfaces the next item, resolving each qualifying entry with one base
   READ through [base_row]. *)
let open_index_scan t f ~tx ~index ~range ?pred ?proj ~lock pull =
  let* schema = require_schema f in
  match List.find_opt (fun ix -> String.equal ix.ix_name index) f.indexes with
  | None -> fail (Errors.Name_error ("unknown index " ^ index))
  | Some ix ->
      let ix_file : file =
        {
          fname = f.fname ^ "#ix_" ^ index;
          schema = Some ix.ix_schema;
          kind = Dp_msg.K_key_sequenced;
          parts = [| { p_lo = ""; p_dp = ix.ix_dp; p_file = ix.ix_file } |];
          indexes = [];
        }
      in
      let sc = open_scan t ix_file ~tx ~access:A_vsbb ~range ?pred ~lock () in
      let base_row irow =
        let* base_key = base_key_of_index_row f ix irow in
        let p = route f base_key in
        let* _k, record =
          expect_record
            (send t p.p_dp (Dp_msg.R_read { file = p.p_file; tx; key = base_key; lock }))
        in
        let row = Row.decode_exn schema record in
        Ok (match proj with Some fields -> Row.project row fields | None -> row)
      in
      let next () =
        match pull sc base_row with
        | Ok (Some _) as r -> r
        | (Ok None | Error _) as r ->
            (* release eagerly at the end of the stream (scan-close is
               idempotent, callers may pull past the end) *)
            close_scan t sc;
            r
      in
      (* the caller must run [close] on every exit: a fault can abandon the
         stream between pulls, and only closing releases the SCB and the
         scan's trace span *)
      Ok (next, fun () -> close_scan t sc)

let index_scan t f ~tx ~index ~range ?pred ?proj ~lock () =
  open_index_scan t f ~tx ~index ~range ?pred ?proj ~lock (fun sc base_row ->
      let* irow = scan_next t sc in
      match irow with
      | None -> Ok None
      | Some irow ->
          let* row = base_row irow in
          Ok (Some row))

(* batch variant of [index_scan]: one call surfaces a whole buffered batch
   of index entries resolved to base rows. The index-scan pops are taken
   uncharged ([~tick:false]) and the pop tick is re-applied immediately
   before each base READ, so the message timeline is byte-identical to
   pulling rows one at a time. *)
let index_scan_batch t f ~tx ~index ~range ?pred ?proj ~lock () =
  open_index_scan t f ~tx ~index ~range ?pred ?proj ~lock (fun sc base_row ->
      let* irows = scan_next_batch ~tick:false t sc in
      match irows with
      | None -> Ok None
      | Some irows ->
          let n = Array.length irows in
          let out = Array.make n [||] in
          let rec fill i =
            if i >= n then Ok (Some out)
            else begin
              Sim.tick t.sim 3;
              let* row = base_row irows.(i) in
              out.(i) <- row;
              fill (i + 1)
            end
          in
          fill 0)

(* --- online index creation ------------------------------------------------ *)

let add_index t f ~tx spec =
  let* schema = require_schema f in
  if List.exists (fun ix -> String.equal ix.ix_name spec.is_name) f.indexes
  then fail (Errors.File_exists ("index " ^ spec.is_name))
  else begin
    let ix_cols, ix_all_cols, ix_basekey_pos, ix_schema =
      build_index_meta schema spec
    in
    let iname = Printf.sprintf "%s#ix_%s" f.fname spec.is_name in
    let* id =
      expect_file
        (send t spec.is_dp
           (Dp_msg.R_create_file
              { fname = iname; kind = Dp_msg.K_key_sequenced;
                schema = Some ix_schema; check = None }))
    in
    let ix =
      {
        ix_name = spec.is_name;
        ix_cols;
        ix_all_cols;
        ix_basekey_pos;
        ix_schema;
        ix_dp = spec.is_dp;
        ix_file = id;
      }
    in
    (* backfill: scan the base with VSBB projecting the index fields, ship
       the entries with blocked inserts *)
    let sc =
      open_scan t f ~tx ~access:A_vsbb ~range:Expr.full_range
        ~proj:ix_all_cols ~lock:Dp_msg.L_shared ()
    in
    let batch = ref [] in
    let flush () =
      match !batch with
      | [] -> Ok ()
      | rows ->
          let rows = List.rev rows in
          batch := [];
          expect_applied ~ctx:"INSERT^BLOCK"
            (send t spec.is_dp (Dp_msg.R_insert_block { file = id; tx; rows }))
    in
    let rec fill () =
      let* row = scan_next t sc in
      match row with
      | None -> flush ()
      | Some irow ->
          batch := irow :: !batch;
          let* () = if List.length !batch >= 50 then flush () else Ok () in
          fill ()
    in
    let* () = Fun.protect ~finally:(fun () -> close_scan t sc) fill in
    Ok { f with indexes = ix :: f.indexes }
  end

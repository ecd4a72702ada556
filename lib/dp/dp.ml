module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Moncore = Nsql_sim.Moncore
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Cache = Nsql_cache.Cache
module Lock = Nsql_lock.Lock
module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr
module Btree = Nsql_store.Btree
module Relfile = Nsql_store.Relfile
module Entryfile = Nsql_store.Entryfile
module Tmf = Nsql_tmf.Tmf
module Trail = Nsql_audit.Trail
module Ar = Nsql_audit.Audit_record
module Keycode = Nsql_util.Keycode
module Errors = Nsql_util.Errors
module Trace = Nsql_trace.Trace

open Dp_msg

type structure =
  | S_btree of Btree.t
  | S_rel of Relfile.t
  | S_entry of Entryfile.t

type file = {
  f_id : int;
  f_name : string;
  f_kind : file_kind_spec;
  f_schema : Row.schema option;
  f_check : Expr.t option;
  mutable f_structure : structure;
}

(* What a Subset Control Block remembers so that re-drives don't have to
   re-send the predicate / projection / update expression. *)
type scb_body =
  | Scb_read of {
      buffering : buffering;
      pred : Expr.t option;
      proj : int array option;
      lock : lock_mode;
    }
  | Scb_update of { pred : Expr.t option; assignments : Expr.assignment list }
  | Scb_delete of { pred : Expr.t option }
  | Scb_agg of {
      pred : Expr.t option;
      group_keys : int array;
      aggs : agg_spec list;
      lock : lock_mode;
      (* partial state accumulated across re-drives, keyed by the encoded
         group-key values; [ag_order] remembers first-seen order (= key
         order, since the scan is key-ordered) so the final reply never
         depends on hash-table traversal order *)
      ag_groups : (string, Row.row * agg_acc list) Hashtbl.t;
      mutable ag_order : string list;  (** reversed *)
    }

type scb = {
  scb_file : int;
  scb_lo : string;  (** inclusive begin of the key range *)
  scb_hi : string;  (** exclusive end of the key range *)
  scb_body : scb_body;
  mutable scb_prev_leaf : int;  (** pre-fetch heuristic state *)
  mutable scb_pf_hi : int;
      (** highest block the deep (queue-depth > 1) read-ahead has
          submitted for this scan. Advisory only — not checkpointed, so
          after a takeover the frontier resets and the heuristic re-arms
          from the next sequential leaf. *)
}

(* A request parked on the lock wait queue: its reply is withheld (the
   requester holds a pending completion) until a release re-dispatch grants
   it, the wait budget expires, or deadlock resolution denies it. *)
type waiter = {
  w_tx : int;
  w_req : request;
  w_deferral : Msg.deferral;
  w_parked_at : float;
  w_payload : string;  (** raw request bytes, checkpointed to the backup *)
}

(* The backup half's replica of takeover-relevant state, maintained purely
   from the checkpoint stream (see {!Dp_msg.ckpt_item}): decoded SCB copies,
   the lock grant log (newest first; releases filter it), and the FIFO wait
   queue. Waiters are held by reference — the message-system deferral and
   its scheduled timeout survive the takeover, so budgets keep counting. *)
type replica = {
  rp_scbs : (int, scb) Hashtbl.t;
  mutable rp_locks : (int * int * Lock.resource * Lock.mode) list;
  mutable rp_parked : waiter list;
  mutable rp_bytes : int;  (** checkpoint bytes absorbed (observability) *)
}

type t = {
  sim : Sim.t;
  msys : Msg.system;
  tmf : Tmf.t;
  dp_name : string;
  endpoint : Msg.endpoint;
  volume : Disk.t;
  cache : Cache.t;
  locks : Lock.t;
  files : (int, file) Hashtbl.t;
  by_name : (string, int) Hashtbl.t;
  scbs : (int, scb) Hashtbl.t;
  mutable next_scb : int;
  (* lock wait queue, FIFO (oldest first). Invariant: a transaction has
     outgoing waitgraph edges iff it has a waiter in this queue or is the
     requester currently being probed. *)
  mutable waiters : waiter list;
  waitgraph : Lock.Waitgraph.g;
  (* checkpoint items accumulated (reversed) while a request executes;
     flushed as one checkpoint message when the request completes *)
  mutable ckpt_pending : Dp_msg.ckpt_item list;
  (* backup-side replica; [Some] iff a backup exists and
     [Config.dp_checkpoint] is on. Cleared by takeover (the backup is
     consumed) and by crash. *)
  mutable replica : replica option;
  (* transactions whose un-checkpointed state was lost in a replica-less
     takeover: their requests are denied with the retryable
     [Errors.Takeover] until they finish *)
  denied : (int, unit) Hashtbl.t;
  mutable lost_scbs : bool;  (** SCBs were dropped by a replica-less takeover *)
}

(* [handler] is defined at the bottom of this file (it needs the whole
   dispatch machinery); [create] wires the endpoint through this cell, and
   [pump_cell] lets the lock-release hook reach the wait-queue pump the
   same way. *)
let handler_cell : (t -> string -> string) ref =
  ref (fun _ _ -> assert false)

let pump_cell : (t -> unit) ref = ref (fun _ -> ())

(* --- process-pair checkpointing ---------------------------------------- *)

(* Checkpoint traffic flows whenever a backup exists — the replica knob
   only decides whether the backup half applies it. That keeps the knob
   free: on or off, message counts, bytes and clock are identical. *)
let ckpt_active t = Msg.endpoint_backup t.endpoint <> None

let ckpt_push t item =
  if ckpt_active t then t.ckpt_pending <- item :: t.ckpt_pending

(* Emit one checkpoint message immediately (park/unpark/release events that
   happen outside a request's execution window). *)
let ckpt_emit t items =
  if ckpt_active t then Msg.checkpoint t.msys t.endpoint (encode_ckpt items)

let ckpt_body_of_scb scb =
  match scb.scb_body with
  | Scb_read { buffering; pred; proj; lock } ->
      Cs_read { buffering; pred; proj; lock }
  | Scb_update { pred; assignments } -> Cs_update { pred; assignments }
  | Scb_delete { pred } -> Cs_delete { pred }
  | Scb_agg { pred; group_keys; aggs; lock; _ } ->
      Cs_agg { pred; group_keys; aggs; lock }

let scb_of_ckpt ~file ~lo ~hi body =
  let scb_body =
    match body with
    | Cs_read { buffering; pred; proj; lock } ->
        Scb_read { buffering; pred; proj; lock }
    | Cs_update { pred; assignments } -> Scb_update { pred; assignments }
    | Cs_delete { pred } -> Scb_delete { pred }
    | Cs_agg { pred; group_keys; aggs; lock } ->
        Scb_agg
          {
            pred;
            group_keys;
            aggs;
            lock;
            ag_groups = Hashtbl.create 16;
            ag_order = [];
          }
  in
  {
    scb_file = file;
    scb_lo = lo;
    scb_hi = hi;
    scb_body;
    scb_prev_leaf = -10;
    scb_pf_hi = -1;
  }

(* The backup half absorbing a checkpoint message: pure heap bookkeeping,
   never touching the simulation clock or counters — the wire cost was
   already charged by [Msg.checkpoint]. *)
let apply_ckpt t payload =
  match t.replica with
  | None -> ()
  | Some rp -> (
      match decode_ckpt payload with
      | Error e ->
          Errors.fatal
            ("Dp replica: malformed checkpoint: " ^ decode_error_to_string e)
      | Ok items ->
          rp.rp_bytes <- rp.rp_bytes + String.length payload;
          List.iter
            (fun item ->
              match item with
              | Ck_intent _ ->
                  (* the mutation lands in the shared durable structures;
                     the replica only mirrors control state *)
                  ()
              | Ck_lock { tx; file; res; mode } ->
                  rp.rp_locks <- (tx, file, res, mode) :: rp.rp_locks
              | Ck_release { tx } ->
                  rp.rp_locks <-
                    List.filter (fun (tx', _, _, _) -> tx' <> tx) rp.rp_locks
              | Ck_scb_open { scb; file; lo; hi; body } ->
                  Hashtbl.replace rp.rp_scbs scb (scb_of_ckpt ~file ~lo ~hi body)
              | Ck_agg_state { scb; groups } -> (
                  match Hashtbl.find_opt rp.rp_scbs scb with
                  | Some { scb_body = Scb_agg ag; _ } ->
                      Hashtbl.reset ag.ag_groups;
                      ag.ag_order <- [];
                      List.iter
                        (fun (key_vals, accs) ->
                          let w = Nsql_util.Codec.writer () in
                          Row.encode_values w key_vals;
                          let gk = Nsql_util.Codec.contents w in
                          Hashtbl.replace ag.ag_groups gk (key_vals, accs);
                          ag.ag_order <- gk :: ag.ag_order)
                        groups
                  | Some _ | None -> ())
              | Ck_scb_close { scb } -> Hashtbl.remove rp.rp_scbs scb
              | Ck_park { tx; payload = _ } -> (
                  (* mirror the live waiter record by reference: its
                     deferral and scheduled timeout stay valid across
                     takeover, so budgets keep counting *)
                  match List.find_opt (fun w -> w.w_tx = tx) t.waiters with
                  | Some w -> rp.rp_parked <- rp.rp_parked @ [ w ]
                  | None -> ())
              | Ck_unpark { tx } ->
                  rp.rp_parked <-
                    List.filter (fun w -> w.w_tx <> tx) rp.rp_parked)
            items)

let create sim msys tmf ~name ~processor ?backup () =
  let volume = Disk.create sim ~name in
  let trail = Tmf.trail tmf in
  let cfg = Sim.config sim in
  let cache =
    Cache.create sim volume ~capacity:cfg.Config.cache_blocks
      ~durable_lsn:(fun () -> Trail.durable_lsn trail)
      ~force_log:(fun lsn -> Trail.force trail lsn)
  in
  let locks = Lock.create sim in
  let endpoint =
    Msg.register msys ~name ~processor ?backup (fun _ -> assert false)
  in
  let t =
    {
      sim;
      msys;
      tmf;
      dp_name = name;
      endpoint;
      volume;
      cache;
      locks;
      files = Hashtbl.create 16;
      by_name = Hashtbl.create 16;
      scbs = Hashtbl.create 16;
      next_scb = 0;
      waiters = [];
      waitgraph = Lock.Waitgraph.create ();
      ckpt_pending = [];
      replica =
        (if backup <> None && cfg.Config.dp_checkpoint then
           Some
             {
               rp_scbs = Hashtbl.create 16;
               rp_locks = [];
               rp_parked = [];
               rp_bytes = 0;
             }
         else None);
      denied = Hashtbl.create 8;
      lost_scbs = false;
    }
  in
  (* mirror lock grants into the checkpoint stream *)
  Lock.set_grant_hook locks
    (Some (fun ~tx ~file res mode -> ckpt_push t (Ck_lock { tx; file; res; mode })));
  (* the backup half consumes the checkpoint stream *)
  if t.replica <> None then
    Msg.set_checkpoint_receiver endpoint (Some (fun payload -> apply_ckpt t payload));
  (* two-phase locking: locks drop at transaction finish, then the wait
     queue is pumped — freed resources may grant parked requests *)
  Tmf.register_resource_manager tmf ~on_finish:(fun tx ->
      let held = Lock.held locks ~tx in
      Lock.release_all locks ~tx;
      Hashtbl.remove t.denied tx;
      if held > 0 then ckpt_emit t [ Ck_release { tx } ];
      !pump_cell t);
  Msg.set_handler endpoint (fun payload -> !handler_cell t payload);
  t

let name t = t.dp_name
let endpoint t = t.endpoint
let volume t = t.volume
let cache t = t.cache
let locks t = t.locks

let file_id t fname = Hashtbl.find_opt t.by_name fname

let find_file t id =
  match Hashtbl.find_opt t.files id with
  | Some f -> Ok f
  | None -> Errors.fail (Errors.File_not_found (Printf.sprintf "#%d" id))

let file_schema t ~file =
  match Hashtbl.find_opt t.files file with
  | Some f -> f.f_schema
  | None -> None

let record_count t ~file =
  match Hashtbl.find_opt t.files file with
  | Some { f_structure = S_btree b; _ } -> Btree.record_count b
  | Some { f_structure = S_rel r; _ } -> Relfile.record_count r
  | Some { f_structure = S_entry e; _ } -> Entryfile.record_count e
  | None -> 0

(* --- small helpers ----------------------------------------------------- *)

let ( let* ) = Errors.( let* )

let audit t ~tx body = Trail.append (Tmf.trail t.tmf) ~tx body

let require_tx t tx =
  if tx <= 0 then Errors.fail Errors.No_transaction
  else if not (Tmf.is_active t.tmf ~tx) then
    Errors.fail (Errors.Tx_aborted (Printf.sprintf "tx %d not active" tx))
  else Ok ()

let btree_of f =
  match f.f_structure with
  | S_btree b -> Ok b
  | S_rel _ | S_entry _ ->
      Errors.fail (Errors.Bad_request "operation requires a key-sequenced file")

let rel_of f =
  match f.f_structure with
  | S_rel r -> Ok r
  | S_btree _ | S_entry _ ->
      Errors.fail (Errors.Bad_request "operation requires a relative file")

let entry_of f =
  match f.f_structure with
  | S_entry e -> Ok e
  | S_btree _ | S_rel _ ->
      Errors.fail (Errors.Bad_request "operation requires an entry-sequenced file")

let lock_of_mode = function
  | L_shared -> Some Lock.Shared
  | L_exclusive -> Some Lock.Exclusive
  | L_none -> None

(* Acquire or report blockage. [Error] carries blockers. *)
let try_lock t ~tx ~file resource mode =
  match Lock.acquire t.locks ~tx ~file resource mode with
  | Lock.Granted -> Ok ()
  | Lock.Blocked blockers -> Error blockers

type 'a lock_result = Locked of 'a | Lock_wait of int list

(* --- recovery-capable primitive mutations ------------------------------ *)

(* All mutations funnel through these, so normal operation, undo, and
   replay behave identically. Each validates that the operation will
   succeed, then audits, then applies: an audit record must never describe
   an operation that failed, or recovery would replay it. *)

let do_insert t ~tx f ~key ~record =
  let* b = btree_of f in
  if Btree.lookup b key <> None then Errors.fail (Errors.Duplicate_key key)
  else if not (Btree.record_fits b ~key ~record) then
    Errors.fail (Errors.Bad_request "record exceeds maximum size")
  else begin
    let lsn = audit t ~tx (Ar.Insert { file = f.f_id; key; image = record }) in
    match Btree.insert b ~key ~record ~lsn with
    | Ok () -> Ok lsn
    | Error e -> Errors.fatal ("Dp.do_insert: audited insert failed: " ^ Errors.to_string e)
  end

let do_delete t ~tx f ~key =
  let* b = btree_of f in
  match Btree.lookup b key with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some image ->
      let lsn = audit t ~tx (Ar.Delete { file = f.f_id; key; image }) in
      let* _old = Btree.delete b ~key ~lsn in
      Ok image

let do_update_full t ~tx f ~key ~record =
  let* b = btree_of f in
  match Btree.lookup b key with
  | None -> Errors.fail (Errors.Not_found_key key)
  | Some _ when not (Btree.record_fits b ~key ~record) ->
      Errors.fail (Errors.Bad_request "record exceeds maximum size")
  | Some before ->
      let lsn =
        audit t ~tx (Ar.Update_full { file = f.f_id; key; before; after = record })
      in
      let* _old = Btree.update b ~key ~record ~lsn in
      Ok before

(* field-compressed update: audit only the touched fields *)
let do_update_fields t ~tx f ~key ~before_row ~after_row ~targets schema =
  let* b = btree_of f in
  let record = Row.encode schema after_row in
  if not (Btree.record_fits b ~key ~record) then
    Errors.fail (Errors.Bad_request "record exceeds maximum size")
  else begin
    let fields =
      List.map (fun i -> (i, before_row.(i), after_row.(i))) targets
    in
    let lsn = audit t ~tx (Ar.Update_fields { file = f.f_id; key; fields }) in
    let* _old = Btree.update b ~key ~record ~lsn in
    Ok ()
  end

(* undo closures registered with TMF; they re-audit (compensation) *)
let register_undo_insert t ~tx f ~key =
  Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
      match do_delete t ~tx f ~key with
      | Ok _ -> ()
      | Error e -> Errors.fatal ("Dp undo-insert: " ^ Errors.to_string e))

let register_undo_delete t ~tx f ~key ~image =
  Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
      match do_insert t ~tx f ~key ~record:image with
      | Ok _ -> ()
      | Error e -> Errors.fatal ("Dp undo-delete: " ^ Errors.to_string e))

let register_undo_update t ~tx f ~key ~before =
  Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
      match do_update_full t ~tx f ~key ~record:before with
      | Ok _ -> ()
      | Error e -> Errors.fatal ("Dp undo-update: " ^ Errors.to_string e))

(* --- constraint checking ------------------------------------------------- *)

let check_constraint f row =
  match f.f_check with
  | None -> Ok ()
  | Some check ->
      if Expr.eval_pred row check then Ok ()
      else
        Errors.fail
          (Errors.Constraint_violation
             (Format.asprintf "CHECK %a rejected row %a" Expr.pp check
                Row.pp_row row))

let validate_sql_row f row =
  match f.f_schema with
  | None -> Ok ()
  | Some schema -> Row.validate schema row

(* --- point / record operations ------------------------------------------- *)

let op_read t ~file ~tx ~key ~lock =
  let* f = find_file t file in
  let* b = btree_of f in
  let locked =
    match lock_of_mode lock with
    | None -> Ok ()
    | Some mode -> (
        match try_lock t ~tx ~file (Lock.Record key) mode with
        | Ok () -> Ok ()
        | Error blockers -> Error blockers)
  in
  match locked with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () -> (
      Sim.tick t.sim 15;
      match Btree.lookup b key with
      | Some record -> Ok (Rp_record { key; record })
      | None -> Errors.fail (Errors.Not_found_key key))

let op_entry_read_next t ~file ~tx ~from_addr ~inclusive =
  ignore tx;
  let* f = find_file t file in
  let* e = entry_of f in
  let start = if inclusive then from_addr else from_addr + 1 in
  Sim.tick t.sim 10;
  match Entryfile.next_from e ~addr:start with
  | None -> Ok Rp_end
  | Some (addr, record) ->
      let st = Sim.stats t.sim in
      st.Stats.records_read <- st.Stats.records_read + 1;
      st.Stats.records_returned <- st.Stats.records_returned + 1;
      Ok (Rp_record { key = Keycode.of_int addr; record })

let op_read_next t ~file ~tx ~from_key ~inclusive ~lock ~sbb =
  let* f = find_file t file in
  match f.f_structure with
  | S_entry _ ->
      (* entry-sequenced sequential read: addressed by record address *)
      let from_addr =
        if String.equal from_key "" then -1
        else Keycode.read_int (Nsql_util.Codec.reader from_key)
      in
      op_entry_read_next t ~file ~tx ~from_addr ~inclusive
  | S_rel _ | S_btree _ ->
  let* b = btree_of f in
  let start = if inclusive then from_key else Keycode.successor from_key in
  let cursor = Btree.seek b start in
  match Btree.cursor_entry b cursor with
  | None -> Ok Rp_end
  | Some (key, record) ->
      if sbb then begin
        (* real sequential block buffering: ship the rest of this physical
           block in one reply; only file-level locking is effective *)
        let this_block = Btree.cursor_block cursor in
        let rec collect c acc last =
          match Btree.cursor_entry b c with
          | Some (k, r) when Btree.cursor_block c = this_block ->
              collect (Btree.advance b c) ((k, r) :: acc) k
          | Some _ | None ->
              (List.rev acc, last, Btree.cursor_entry b c <> None)
        in
        let entries, last_key, more = collect cursor [] key in
        let s = Sim.stats t.sim in
        s.Stats.records_read <- s.Stats.records_read + List.length entries;
        s.Stats.records_returned <-
          s.Stats.records_returned + List.length entries;
        Sim.tick t.sim (10 * List.length entries);
        Ok (Rp_block { entries; last_key; more; scb = -1 })
      end
      else begin
        let locked =
          match lock_of_mode lock with
          | None -> Ok ()
          | Some mode -> (
              match try_lock t ~tx ~file (Lock.Record key) mode with
              | Ok () -> Ok ()
              | Error blockers -> Error blockers)
        in
        match locked with
        | Error blockers ->
            Ok
              (Rp_blocked
                 { blockers; processed = 0; last_key = from_key; scb = -1 })
        | Ok () ->
            let s = Sim.stats t.sim in
            s.Stats.records_read <- s.Stats.records_read + 1;
            s.Stats.records_returned <- s.Stats.records_returned + 1;
            Sim.tick t.sim 15;
            Ok (Rp_record { key; record })
      end

(* whole-record writes to a SQL file must still satisfy its structure and
   CHECK constraint — the Disk Process enforces them regardless of which
   interface carried the record *)
let check_sql_image f record =
  match f.f_schema with
  | None -> Ok ()
  | Some schema -> (
      match Row.decode schema record with
      | Error _ -> Errors.fail (Errors.Bad_request "malformed record image")
      | Ok row ->
          let* () = Row.validate schema row in
          check_constraint f row)

let op_insert t ~file ~tx ~key ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () = check_sql_image f record in
  match try_lock t ~tx ~file (Lock.Record key) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* _lsn = do_insert t ~tx f ~key ~record in
      register_undo_insert t ~tx f ~key;
      Ok Rp_ok

let op_update t ~file ~tx ~key ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* () = check_sql_image f record in
  match try_lock t ~tx ~file (Lock.Record key) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* before = do_update_full t ~tx f ~key ~record in
      register_undo_update t ~tx f ~key ~before;
      Ok Rp_ok

let op_delete t ~file ~tx ~key =
  let* () = require_tx t tx in
  let* f = find_file t file in
  match try_lock t ~tx ~file (Lock.Record key) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* image = do_delete t ~tx f ~key in
      register_undo_delete t ~tx f ~key ~image;
      Ok Rp_ok

let op_lock_file t ~file ~tx ~lock =
  let* _f = find_file t file in
  match lock_of_mode lock with
  | None -> Errors.fail (Errors.Bad_request "LOCKFILE with mode none")
  | Some mode -> (
      match try_lock t ~tx ~file Lock.File mode with
      | Ok () -> Ok Rp_ok
      | Error blockers ->
          Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 }))

(* --- relative / entry-sequenced operations -------------------------------- *)

let op_lock_generic t ~file ~tx ~prefix ~lock =
  let* _f = find_file t file in
  match lock_of_mode lock with
  | None -> Errors.fail (Errors.Bad_request "LOCKGENERIC with mode none")
  | Some mode -> (
      match try_lock t ~tx ~file (Lock.Generic prefix) mode with
      | Ok () -> Ok Rp_ok
      | Error blockers ->
          Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 }))

let rel_key slot = Keycode.of_int slot

let op_rel_read t ~file ~tx ~slot =
  ignore tx;
  let* f = find_file t file in
  let* r = rel_of f in
  let* record = Relfile.read r ~slot in
  Ok (Rp_record { key = rel_key slot; record })

let op_rel_write t ~file ~tx ~slot ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* r = rel_of f in
  match try_lock t ~tx ~file (Lock.Record (rel_key slot)) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* () =
        if String.length record > Relfile.slot_size r then
          Errors.fail (Errors.Bad_request "record exceeds slot size")
        else
          match Relfile.read r ~slot with
          | Ok _ -> Errors.fail (Errors.Duplicate_key (string_of_int slot))
          | Error (Errors.Not_found_key _) -> Ok ()
          | Error e -> Errors.fail e
      in
      let lsn =
        audit t ~tx (Ar.Insert { file = f.f_id; key = rel_key slot; image = record })
      in
      let* () = Relfile.write r ~slot ~record ~lsn in
      Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
          ignore
            (audit t ~tx
               (Ar.Delete { file = f.f_id; key = rel_key slot; image = record }));
          match Relfile.delete r ~slot ~lsn with
          | Ok _ -> ()
          | Error err -> Errors.fatal ("Dp undo-rel-insert: " ^ Errors.to_string err));
      Ok (Rp_slot slot)

let op_rel_rewrite t ~file ~tx ~slot ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* r = rel_of f in
  match try_lock t ~tx ~file (Lock.Record (rel_key slot)) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* before = Relfile.read r ~slot in
      let* () =
        if String.length record > Relfile.slot_size r then
          Errors.fail (Errors.Bad_request "record exceeds slot size")
        else Ok ()
      in
      let lsn =
        audit t ~tx
          (Ar.Update_full { file = f.f_id; key = rel_key slot; before; after = record })
      in
      let* _old = Relfile.rewrite r ~slot ~record ~lsn in
      Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
          ignore
            (audit t ~tx
               (Ar.Update_full
                  { file = f.f_id; key = rel_key slot; before = record; after = before }));
          match Relfile.rewrite r ~slot ~record:before ~lsn with
          | Ok _ -> ()
          | Error err -> Errors.fatal ("Dp undo-rel-rewrite: " ^ Errors.to_string err));
      Ok Rp_ok

let op_rel_delete t ~file ~tx ~slot =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* r = rel_of f in
  match try_lock t ~tx ~file (Lock.Record (rel_key slot)) Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* image = Relfile.read r ~slot in
      let lsn =
        audit t ~tx (Ar.Delete { file = f.f_id; key = rel_key slot; image })
      in
      let* _old = Relfile.delete r ~slot ~lsn in
      Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
          ignore
            (audit t ~tx (Ar.Insert { file = f.f_id; key = rel_key slot; image }));
          match Relfile.write r ~slot ~record:image ~lsn with
          | Ok () -> ()
          | Error err -> Errors.fatal ("Dp undo-rel-delete: " ^ Errors.to_string err));
      Ok Rp_ok

let op_entry_append t ~file ~tx ~record =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* e = entry_of f in
  (* entry-sequenced inserts at EOF: serialize appenders via a generic
     lock on the EOF *)
  match try_lock t ~tx ~file (Lock.Generic "EOF") Lock.Exclusive with
  | Error blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
  | Ok () ->
      let* () =
        let bs = Disk.block_size t.volume in
        if String.length record + 2 > bs then
          Errors.fail (Errors.Bad_request "record exceeds block size")
        else Ok ()
      in
      let lsn = audit t ~tx (Ar.Insert { file = f.f_id; key = ""; image = record }) in
      let* addr = Entryfile.append e ~record ~lsn in
      Tmf.register_undo t.tmf ~tx ~owner:t.dp_name (fun () ->
          ignore
            (audit t ~tx
               (Ar.Delete { file = f.f_id; key = Keycode.of_int addr; image = record }));
          match Entryfile.truncate_to e ~addr ~lsn with
          | Ok () -> ()
          | Error err -> Errors.fatal ("Dp undo-append: " ^ Errors.to_string err));
      Ok (Rp_slot addr)

let op_entry_read t ~file ~tx ~addr =
  ignore tx;
  let* f = find_file t file in
  let* e = entry_of f in
  let* record = Entryfile.read e ~addr in
  Ok (Rp_record { key = Keycode.of_int addr; record })

(* --- set-oriented scans ---------------------------------------------------- *)

let alloc_scb t scb =
  let id = t.next_scb in
  t.next_scb <- id + 1;
  Hashtbl.replace t.scbs id scb;
  ckpt_push t
    (Ck_scb_open
       {
         scb = id;
         file = scb.scb_file;
         lo = scb.scb_lo;
         hi = scb.scb_hi;
         body = ckpt_body_of_scb scb;
       });
  id

let find_scb t id =
  match Hashtbl.find_opt t.scbs id with
  | Some scb -> Ok scb
  | None ->
      if t.lost_scbs then
        (* the cursor predates a replica-less takeover: retryable, so the
           session's retry machinery re-runs the statement from scratch *)
        Errors.fail
          (Errors.Takeover (Printf.sprintf "SCB %d lost in takeover" id))
      else
        Errors.fail (Errors.Bad_request (Printf.sprintf "unknown SCB %d" id))

(* Sequential pre-fetch heuristic: when the scan enters leaf block [b] and
   the previous leaf was [b-1] (physically clustered), asynchronously read
   ahead. Where clustering is broken by splits, the heuristic stays quiet.

   At queue depth 1 the read-ahead is one bulk window, re-armed only once
   the previous window has drained so each pre-fetch is a maximal bulk
   I/O — the historical behaviour, byte for byte. With a deeper device
   queue the scan keeps [disk_queue_depth] windows in flight: each
   sequential leaf entry tops the submitted frontier ([scb_pf_hi]) up to
   [depth] windows ahead, so the bulk transfers overlap each other and
   the DP's reply encoding across the device's channels. *)
let maybe_prefetch t scb block =
  let cfg = Sim.config t.sim in
  let depth = cfg.Config.disk_queue_depth in
  (if cfg.Config.dp_prefetch && block = scb.scb_prev_leaf + 1 then
     let window = Disk.max_bulk_blocks t.volume in
     if depth <= 1 then begin
       if not (Cache.resident t.cache (block + 1)) then begin
         let first = block + 1 in
         let avail = Disk.blocks t.volume - first in
         if avail > 0 then
           Cache.prefetch t.cache ~first ~count:(min window avail)
       end
     end
     else begin
       (* clamp the frontier to what the pool can hold: steady state keeps
          the unconsumed read-ahead plus the same number of just-consumed
          blocks resident (their LRU ages interleave), so a span past half
          the pool — less slack for the index path — evicts pre-fetched
          blocks before the scan reaches them and the scan degenerates
          into demand re-reads with seeks *)
       let cap = Cache.capacity t.cache in
       let span = min (depth * window) (max window ((cap / 2) - window)) in
       let target = min (block + span) (Disk.blocks t.volume - 1) in
       let lo = max (block + 1) (scb.scb_pf_hi + 1) in
       if target >= lo then begin
         Cache.prefetch t.cache ~first:lo ~count:(target - lo + 1);
         scb.scb_pf_hi <- target
       end
     end);
  scb.scb_prev_leaf <- block

(* The loop a GET^FIRST/GET^NEXT and an AGGREGATE^FIRST/AGGREGATE^NEXT
   execution share: seek to [from_key] and walk up to the SCB's upper
   bound, pre-fetch on entering each leaf, count and charge every record
   examined, and stop at the record limit or the processor-time slice,
   probing whether the subset has [more]. [stop_at_block blk] ends the
   request (with [more]) before a record in leaf [blk]; [visit key record]
   does the scan's own per-record work and answers whether its reply is
   full. One virtual-block range lock then covers the span examined,
   replacing per-record locks, and [reply last_key more] builds the reply
   once it is granted. *)
let scan_subset t ~tx f b scb scb_id ~from_key ~lock ~stop_at_block ~visit
    ~reply =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let ticks0 = s.Stats.cpu_ticks in
  let examined = ref 0 in
  let last_key = ref from_key in
  let more = ref false in
  let stop = ref false in
  let cursor = ref (Btree.seek b from_key) in
  while not !stop do
    match Btree.cursor_entry b !cursor with
    | None -> stop := true
    | Some (key, record) ->
        if Keycode.compare_keys key scb.scb_hi >= 0 then stop := true
        else begin
          (match Btree.cursor_block !cursor with
          | Some blk ->
              if stop_at_block blk then begin
                stop := true;
                more := true
              end
              else maybe_prefetch t scb blk
          | None -> ());
          if not !stop then begin
            incr examined;
            s.Stats.records_read <- s.Stats.records_read + 1;
            Sim.tick t.sim 15;
            let full = visit key record in
            last_key := key;
            cursor := Btree.advance b !cursor;
            (* re-drive triggers: full reply, record limit, or the
               processor-time slice *)
            if
              full
              || !examined >= cfg.Config.dp_records_per_request
              || s.Stats.cpu_ticks - ticks0 >= cfg.Config.dp_ticks_per_request
            then begin
              stop := true;
              more := Btree.cursor_entry b !cursor <> None
            end
          end
        end
  done;
  let lock_outcome =
    match lock_of_mode lock with
    | None -> Ok ()
    | Some mode ->
        if Keycode.compare_keys from_key !last_key <= 0 && !examined > 0 then
          try_lock t ~tx ~file:f.f_id
            (Lock.Range (from_key, Keycode.successor !last_key))
            mode
        else Ok ()
  in
  match lock_outcome with
  | Error blockers ->
      Rp_blocked { blockers; processed = 0; last_key = from_key; scb = scb_id }
  | Ok () -> reply !last_key !more

(* One GET^FIRST/GET^NEXT execution: fill a (virtual or real) block. *)
let run_read_scan t ~tx f scb scb_id ~from_key =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let* b = btree_of f in
  match scb.scb_body with
  | Scb_update _ | Scb_delete _ | Scb_agg _ ->
      Errors.fail (Errors.Bad_request "SCB is not a read subset")
  | Scb_read { buffering; pred; proj; lock } ->
      let schema = f.f_schema in
      let reply_bytes = ref 0 in
      let out = ref [] in
      let out_count = ref 0 in
      let first_block = ref (-1) in
      (* RSBB ships exactly one physical block per message *)
      let stop_at_block blk =
        if !first_block < 0 then first_block := blk;
        buffering = B_rsbb && blk <> !first_block
      in
      let visit key record =
        let selected, row =
          match (pred, schema) with
          | None, _ -> (true, None)
          | Some p, Some sch ->
              let row = Row.decode_exn sch record in
              Sim.tick t.sim (2 * Expr.size p);
              (Expr.eval_pred row p, Some row)
          | Some _, None -> (true, None)
        in
        if selected then begin
          (match (buffering, proj, schema) with
          | B_vsbb, Some fields, Some sch ->
              let row =
                match row with Some r -> r | None -> Row.decode_exn sch record
              in
              let projected = Row.project row fields in
              let w = Nsql_util.Codec.writer () in
              Row.encode_values w projected;
              reply_bytes := !reply_bytes + Nsql_util.Codec.written w;
              out := `Row projected :: !out
          | B_vsbb, None, Some sch ->
              let row =
                match row with Some r -> r | None -> Row.decode_exn sch record
              in
              let w = Nsql_util.Codec.writer () in
              Row.encode_values w row;
              reply_bytes := !reply_bytes + Nsql_util.Codec.written w;
              out := `Row row :: !out
          | B_vsbb, _, None | B_rsbb, _, _ ->
              reply_bytes := !reply_bytes + String.length key + String.length record;
              out := `Entry (key, record) :: !out);
          incr out_count;
          s.Stats.records_returned <- s.Stats.records_returned + 1;
          Sim.tick t.sim 10
        end;
        !reply_bytes >= cfg.Config.vsbb_buffer_bytes
      in
      Ok
        (scan_subset t ~tx f b scb scb_id ~from_key ~lock ~stop_at_block ~visit
           ~reply:(fun last_key more ->
             let items = List.rev !out in
             if !out_count = 0 && not more then Rp_end
             else
               let rows =
                 List.filter_map (function `Row r -> Some r | `Entry _ -> None) items
               in
               let entries =
                 List.filter_map
                   (function `Entry e -> Some e | `Row _ -> None)
                   items
               in
               if buffering = B_vsbb && f.f_schema <> None then
                 Rp_vblock { rows; last_key; more; scb = scb_id }
               else Rp_block { entries; last_key; more; scb = scb_id }))

(* One AGGREGATE^FIRST/AGGREGATE^NEXT execution: fold qualifying records
   into the SCB's per-group accumulators under the same re-drive budget
   and range lock as a read scan. Intermediate replies carry no group data
   (the partials stay in the SCB); the final reply ships every group's
   accumulator state in first-seen order — which is key order, because
   the scan is. *)
let run_agg_scan t ~tx f scb scb_id ~from_key =
  let* b = btree_of f in
  match scb.scb_body with
  | Scb_read _ | Scb_update _ | Scb_delete _ ->
      Errors.fail (Errors.Bad_request "SCB is not an aggregate subset")
  | Scb_agg ({ pred; group_keys; aggs; lock; ag_groups; _ } as ag) ->
      let* schema =
        match f.f_schema with
        | Some sch -> Ok sch
        | None ->
            Errors.fail (Errors.Bad_request "AGGREGATE requires a SQL file")
      in
      let visit _key record =
        let row = Row.decode_exn schema record in
        let selected =
          match pred with
          | None -> true
          | Some p ->
              Sim.tick t.sim (2 * Expr.size p);
              Expr.eval_pred row p
        in
        if selected then begin
          let key_vals = Array.map (fun i -> row.(i)) group_keys in
          let w = Nsql_util.Codec.writer () in
          Row.encode_values w key_vals;
          let gk = Nsql_util.Codec.contents w in
          let accs =
            match Hashtbl.find_opt ag_groups gk with
            | Some (_, accs) -> accs
            | None ->
                let accs = List.map (fun _ -> fresh_acc ()) aggs in
                Hashtbl.replace ag_groups gk (key_vals, accs);
                ag.ag_order <- gk :: ag.ag_order;
                accs
          in
          List.iter2 (fun acc spec -> feed_spec acc spec row) accs aggs;
          Sim.tick t.sim 5
        end;
        false
      in
      Ok
        (scan_subset t ~tx f b scb scb_id ~from_key ~lock
           ~stop_at_block:(fun _ -> false)
           ~visit
           ~reply:(fun last_key more ->
             let groups =
               if more then []
               else
                 List.rev_map
                   (fun gk ->
                     match Hashtbl.find_opt ag_groups gk with
                     | Some g -> g
                     | None -> Errors.fatal "Dp.run_agg_scan: group order desync")
                   ag.ag_order
             in
             Rp_agg { groups; last_key; more; scb = scb_id }))

(* One UPDATE^SUBSET / DELETE^SUBSET execution.

   Restart semantics: the FIRST message starts at the range's begin key
   (inclusive); each NEXT message carries the last fully processed key and
   restarts strictly after it. If a record's lock is unavailable, the reply
   reports the last key processed {e before} it (or "" if none this
   request), so the re-drive retries the conflicting record. One update is
   applied per matched record; updated records are never revisited because
   the scan key always advances past them. *)
let run_write_scan t ~tx f scb scb_id ~from_key ~inclusive =
  let cfg = Sim.config t.sim in
  let s = Sim.stats t.sim in
  let* () = require_tx t tx in
  let* b = btree_of f in
  let* schema =
    match f.f_schema with
    | Some sch -> Ok sch
    | None -> Errors.fail (Errors.Bad_request "set update requires a SQL file")
  in
  let pred, action =
    match scb.scb_body with
    | Scb_update { pred; assignments } -> (pred, `Update assignments)
    | Scb_delete { pred } -> (pred, `Delete)
    | Scb_read _ | Scb_agg _ -> invalid_arg "Dp.run_write_scan: read SCB"
  in
  let apply_one key record row =
    match action with
    | `Update assignments ->
        let after_row = Expr.apply_assignments row assignments in
        Sim.tick t.sim
          (List.fold_left
             (fun acc a -> acc + (2 * Expr.size a.Expr.source))
             0 assignments);
        let* () = validate_sql_row f after_row in
        let* () = check_constraint f after_row in
        let targets = List.map (fun a -> a.Expr.target) assignments in
        let* () =
          do_update_fields t ~tx f ~key ~before_row:row ~after_row ~targets
            schema
        in
        register_undo_update t ~tx f ~key ~before:record;
        Ok ()
    | `Delete ->
        let* image = do_delete t ~tx f ~key in
        register_undo_delete t ~tx f ~key ~image;
        Ok ()
  in
  let ticks0 = s.Stats.cpu_ticks in
  let examined = ref 0 in
  let processed = ref 0 in
  (* last key fully handled this request; "" = none yet *)
  let last_done = ref "" in
  let next_seek = ref (if inclusive then from_key else Keycode.successor from_key) in
  let more = ref false in
  let result = ref None in
  let continue_ = ref true in
  while !continue_ do
    let cursor = Btree.seek b !next_seek in
    match Btree.cursor_entry b cursor with
    | None -> continue_ := false
    | Some (key, record) ->
        if Keycode.compare_keys key scb.scb_hi >= 0 then continue_ := false
        else begin
          (match Btree.cursor_block cursor with
          | Some blk -> maybe_prefetch t scb blk
          | None -> ());
          incr examined;
          s.Stats.records_read <- s.Stats.records_read + 1;
          Sim.tick t.sim 15;
          let row = Row.decode_exn schema record in
          let selected =
            match pred with
            | None -> true
            | Some p ->
                Sim.tick t.sim (2 * Expr.size p);
                Expr.eval_pred row p
          in
          if selected then begin
            (* per-record exclusive lock for set mutations *)
            match try_lock t ~tx ~file:f.f_id (Lock.Record key) Lock.Exclusive with
            | Error blockers ->
                result :=
                  Some
                    (Rp_blocked
                       {
                         blockers;
                         processed = !processed;
                         last_key = !last_done;
                         scb = scb_id;
                       });
                continue_ := false
            | Ok () -> (
                match apply_one key record row with
                | Ok () ->
                    incr processed;
                    last_done := key;
                    next_seek := Keycode.successor key
                | Error e ->
                    result := Some (Rp_error e);
                    continue_ := false)
          end
          else begin
            last_done := key;
            next_seek := Keycode.successor key
          end;
          if
            !continue_
            && (!examined >= cfg.Config.dp_records_per_request
               || s.Stats.cpu_ticks - ticks0 >= cfg.Config.dp_ticks_per_request)
          then begin
            more := true;
            continue_ := false
          end
        end
  done;
  match !result with
  | Some r -> Ok r
  | None ->
      Ok
        (Rp_progress
           {
             processed = !processed;
             last_key = !last_done;
             more = !more;
             scb = scb_id;
           })

(* --- SQL row inserts --------------------------------------------------------- *)

let insert_sql_row t ~tx f row =
  let* schema =
    match f.f_schema with
    | Some s -> Ok s
    | None -> Errors.fail (Errors.Bad_request "INSERT^ROW requires a SQL file")
  in
  let* () = Row.validate schema row in
  let* () = check_constraint f row in
  let key = Row.key_of_row schema row in
  match try_lock t ~tx ~file:f.f_id (Lock.Record key) Lock.Exclusive with
  | Error blockers -> Ok (Lock_wait blockers)
  | Ok () ->
      let record = Row.encode schema row in
      let* _lsn = do_insert t ~tx f ~key ~record in
      register_undo_insert t ~tx f ~key;
      Ok (Locked key)

let op_insert_row t ~file ~tx ~row =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* r = insert_sql_row t ~tx f row in
  match r with
  | Locked _ -> Ok Rp_ok
  | Lock_wait blockers ->
      Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })

(* Blocked sequential insert (the paper's future enhancement, E11): the
   whole target key range is locked by prior agreement, then the batch is
   applied with one message. *)
let op_insert_block t ~file ~tx ~rows =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* schema =
    match f.f_schema with
    | Some s -> Ok s
    | None -> Errors.fail (Errors.Bad_request "INSERT^BLOCK requires a SQL file")
  in
  match rows with
  | [] -> Ok Rp_ok
  | _ :: _ ->
      let keys = List.map (fun row -> Row.key_of_row schema row) rows in
      let lo = List.fold_left min (List.hd keys) keys in
      let hi = Keycode.successor (List.fold_left max (List.hd keys) keys) in
      (* the empty target range is locked before the batch lands, avoiding
         late-detected duplicate keys *)
      (match try_lock t ~tx ~file (Lock.Range (lo, hi)) Lock.Exclusive with
      | Error blockers ->
          Ok (Rp_blocked { blockers; processed = 0; last_key = ""; scb = -1 })
      | Ok () ->
          let rec apply n = function
            | [] ->
                Ok
                  (Rp_progress
                     { processed = n; last_key = ""; more = false; scb = -1 })
            | row :: rest ->
                let* () = Row.validate schema row in
                let* () = check_constraint f row in
                let key = Row.key_of_row schema row in
                let record = Row.encode schema row in
                let* _lsn = do_insert t ~tx f ~key ~record in
                register_undo_insert t ~tx f ~key;
                apply (n + 1) rest
          in
          apply 0 rows)

(* A buffer of updates/deletes of specific records, applied under one
   message. Updates are audited field-compressed; the whole batch fails on
   the first error (the transaction's undo restores prior ops). *)
let op_apply_block t ~file ~tx ~ops =
  let* () = require_tx t tx in
  let* f = find_file t file in
  let* schema =
    match f.f_schema with
    | Some s -> Ok s
    | None -> Errors.fail (Errors.Bad_request "APPLY^BLOCK requires a SQL file")
  in
  let* b = btree_of f in
  let apply (key, op) =
    match try_lock t ~tx ~file (Lock.Record key) Lock.Exclusive with
    | Error blockers -> Error (`Blocked blockers)
    | Ok () -> (
        match op with
        | Ob_delete -> (
            match do_delete t ~tx f ~key with
            | Ok image ->
                register_undo_delete t ~tx f ~key ~image;
                Ok ()
            | Error e -> Error (`Err e))
        | Ob_update assignments -> (
            match Btree.lookup b key with
            | None -> Error (`Err (Errors.Not_found_key key))
            | Some record -> (
                let row = Row.decode_exn schema record in
                let after_row = Expr.apply_assignments row assignments in
                let checked =
                  let* () = validate_sql_row f after_row in
                  let* () = check_constraint f after_row in
                  let targets =
                    List.map (fun a -> a.Expr.target) assignments
                  in
                  let* () =
                    do_update_fields t ~tx f ~key ~before_row:row ~after_row
                      ~targets schema
                  in
                  register_undo_update t ~tx f ~key ~before:record;
                  Ok ()
                in
                match checked with Ok () -> Ok () | Error e -> Error (`Err e))))
  in
  let rec go n = function
    | [] -> Ok (Rp_progress { processed = n; last_key = ""; more = false; scb = -1 })
    | op :: rest -> (
        match apply op with
        | Ok () -> go (n + 1) rest
        | Error (`Blocked blockers) ->
            Ok (Rp_blocked { blockers; processed = n; last_key = ""; scb = -1 })
        | Error (`Err e) -> Error e)
  in
  go 0 ops

(* --- DDL ----------------------------------------------------------------------- *)

let op_create_file t ~fname ~kind ~schema ~check =
  if Hashtbl.mem t.by_name fname then Errors.fail (Errors.File_exists fname)
  else if schema = None && check <> None then
    Errors.fail (Errors.Bad_request "CHECK constraint requires a schema")
  else begin
    let id = Tmf.allocate_file_id t.tmf in
    let structure =
      match kind with
      | K_key_sequenced ->
          S_btree (Btree.create t.sim t.cache ~name:fname)
      | K_relative slot_size ->
          S_rel (Relfile.create t.sim t.cache ~name:fname ~slot_size)
      | K_entry_sequenced -> S_entry (Entryfile.create t.sim t.cache ~name:fname)
    in
    let f =
      { f_id = id; f_name = fname; f_kind = kind; f_schema = schema;
        f_check = check; f_structure = structure }
    in
    Hashtbl.replace t.files id f;
    Hashtbl.replace t.by_name fname id;
    Ok (Rp_file id)
  end

(* The Disk Process frees a Subset Control Block itself as soon as it
   reports the subset exhausted, so the File System never has to send a
   CLOSE^SCB for a completed subset. *)
let drop_scb_when_done t = function
  | Rp_end -> ()
  | Rp_block { more = false; scb; _ }
  | Rp_vblock { more = false; scb; _ }
  | Rp_progress { more = false; scb; _ }
  | Rp_agg { more = false; scb; _ } ->
      if scb >= 0 && Hashtbl.mem t.scbs scb then begin
        Hashtbl.remove t.scbs scb;
        ckpt_push t (Ck_scb_close { scb })
      end
  | Rp_ok | Rp_file _ | Rp_record _ | Rp_row _ | Rp_slot _ | Rp_block _
  | Rp_vblock _ | Rp_progress _ | Rp_agg _ | Rp_blocked _ | Rp_error _ ->
      ()

(* Aggregate SCBs are the one cursor with server-held progress: when a
   re-drive boundary leaves partials in the SCB ([more = true]), checkpoint
   them so the backup's replica folds from the same accumulators. *)
let ckpt_agg_progress t scb_id scb reply =
  match reply with
  | Rp_agg { more = true; _ } -> (
      match scb.scb_body with
      | Scb_agg ag when ckpt_active t ->
          let groups =
            List.rev_map
              (fun gk -> Hashtbl.find ag.ag_groups gk)
              ag.ag_order
          in
          ckpt_push t (Ck_agg_state { scb = scb_id; groups })
      | _ -> ())
  | _ -> ()

(* --- dispatch -------------------------------------------------------------------- *)

let dispatch t req : (reply, Errors.t) result =
  match req with
  | R_create_file { fname; kind; schema; check } ->
      op_create_file t ~fname ~kind ~schema ~check
  | R_read { file; tx; key; lock } -> op_read t ~file ~tx ~key ~lock
  | R_read_next { file; tx; from_key; inclusive; lock; sbb } ->
      op_read_next t ~file ~tx ~from_key ~inclusive ~lock ~sbb
  | R_insert { file; tx; key; record } -> op_insert t ~file ~tx ~key ~record
  | R_update { file; tx; key; record } -> op_update t ~file ~tx ~key ~record
  | R_delete { file; tx; key } -> op_delete t ~file ~tx ~key
  | R_lock_file { file; tx; lock } -> op_lock_file t ~file ~tx ~lock
  | R_lock_generic { file; tx; prefix; lock } ->
      op_lock_generic t ~file ~tx ~prefix ~lock
  | R_rel_read { file; tx; slot } -> op_rel_read t ~file ~tx ~slot
  | R_rel_write { file; tx; slot; record } ->
      op_rel_write t ~file ~tx ~slot ~record
  | R_rel_rewrite { file; tx; slot; record } ->
      op_rel_rewrite t ~file ~tx ~slot ~record
  | R_rel_delete { file; tx; slot } -> op_rel_delete t ~file ~tx ~slot
  | R_entry_append { file; tx; record } -> op_entry_append t ~file ~tx ~record
  | R_entry_read { file; tx; addr } -> op_entry_read t ~file ~tx ~addr
  | R_get_first { file; tx; buffering; range; pred; proj; lock } ->
      let* f = find_file t file in
      let scb =
        {
          scb_file = file;
          scb_lo = range.Expr.lo;
          scb_hi = range.Expr.hi;
          scb_body = Scb_read { buffering; pred; proj; lock };
          scb_prev_leaf = -10;
          scb_pf_hi = -1;
        }
      in
      let scb_id = alloc_scb t scb in
      let* reply = run_read_scan t ~tx f scb scb_id ~from_key:range.Expr.lo in
      drop_scb_when_done t reply;
      Ok reply
  | R_get_next { file; tx; scb; after_key } ->
      let s = Sim.stats t.sim in
      s.Stats.redrives <- s.Stats.redrives + 1;
      let* f = find_file t file in
      let* scb_rec = find_scb t scb in
      let* reply =
        run_read_scan t ~tx f scb_rec scb ~from_key:(Keycode.successor after_key)
      in
      drop_scb_when_done t reply;
      Ok reply
  | R_update_subset_first { file; tx; range; pred; assignments } ->
      let* f = find_file t file in
      (* reject primary-key updates: the scan is keyed on them *)
      let* () =
        match f.f_schema with
        | Some sch ->
            let key_cols = Array.to_list sch.Row.key_cols in
            if
              List.exists
                (fun a -> List.mem a.Expr.target key_cols)
                assignments
            then
              Errors.fail
                (Errors.Bad_request "UPDATE of primary-key columns not allowed")
            else Ok ()
        | None -> Ok ()
      in
      let scb =
        {
          scb_file = file;
          scb_lo = range.Expr.lo;
          scb_hi = range.Expr.hi;
          scb_body = Scb_update { pred; assignments };
          scb_prev_leaf = -10;
          scb_pf_hi = -1;
        }
      in
      let scb_id = alloc_scb t scb in
      let* reply =
        run_write_scan t ~tx f scb scb_id ~from_key:range.Expr.lo ~inclusive:true
      in
      drop_scb_when_done t reply;
      Ok reply
  | R_update_subset_next { file; tx; scb; after_key } ->
      let s = Sim.stats t.sim in
      s.Stats.redrives <- s.Stats.redrives + 1;
      let* f = find_file t file in
      let* scb_rec = find_scb t scb in
      let inclusive = String.equal after_key "" in
      let from_key = if inclusive then scb_rec.scb_lo else after_key in
      let* reply = run_write_scan t ~tx f scb_rec scb ~from_key ~inclusive in
      drop_scb_when_done t reply;
      Ok reply
  | R_delete_subset_first { file; tx; range; pred } ->
      let* f = find_file t file in
      let scb =
        {
          scb_file = file;
          scb_lo = range.Expr.lo;
          scb_hi = range.Expr.hi;
          scb_body = Scb_delete { pred };
          scb_prev_leaf = -10;
          scb_pf_hi = -1;
        }
      in
      let scb_id = alloc_scb t scb in
      let* reply =
        run_write_scan t ~tx f scb scb_id ~from_key:range.Expr.lo ~inclusive:true
      in
      drop_scb_when_done t reply;
      Ok reply
  | R_delete_subset_next { file; tx; scb; after_key } ->
      let s = Sim.stats t.sim in
      s.Stats.redrives <- s.Stats.redrives + 1;
      let* f = find_file t file in
      let* scb_rec = find_scb t scb in
      let inclusive = String.equal after_key "" in
      let from_key = if inclusive then scb_rec.scb_lo else after_key in
      let* reply = run_write_scan t ~tx f scb_rec scb ~from_key ~inclusive in
      drop_scb_when_done t reply;
      Ok reply
  | R_insert_row { file; tx; row } -> op_insert_row t ~file ~tx ~row
  | R_insert_block { file; tx; rows } -> op_insert_block t ~file ~tx ~rows
  | R_apply_block { file; tx; ops } -> op_apply_block t ~file ~tx ~ops
  | R_close_scb { scb } ->
      if Hashtbl.mem t.scbs scb then begin
        Hashtbl.remove t.scbs scb;
        ckpt_push t (Ck_scb_close { scb })
      end;
      Ok Rp_ok
  | R_agg_first { file; tx; range; pred; group_keys; aggs; lock } ->
      let* f = find_file t file in
      let scb =
        {
          scb_file = file;
          scb_lo = range.Expr.lo;
          scb_hi = range.Expr.hi;
          scb_body =
            Scb_agg
              {
                pred;
                group_keys;
                aggs;
                lock;
                ag_groups = Hashtbl.create 16;
                ag_order = [];
              };
          scb_prev_leaf = -10;
          scb_pf_hi = -1;
        }
      in
      let scb_id = alloc_scb t scb in
      let* reply = run_agg_scan t ~tx f scb scb_id ~from_key:range.Expr.lo in
      ckpt_agg_progress t scb_id scb reply;
      drop_scb_when_done t reply;
      Ok reply
  | R_agg_next { file; tx; scb; after_key } ->
      let s = Sim.stats t.sim in
      s.Stats.redrives <- s.Stats.redrives + 1;
      let* f = find_file t file in
      let* scb_rec = find_scb t scb in
      let* reply =
        run_agg_scan t ~tx f scb_rec scb ~from_key:(Keycode.successor after_key)
      in
      ckpt_agg_progress t scb scb_rec reply;
      drop_scb_when_done t reply;
      Ok reply
  | R_record_count { file } ->
      let* _f = find_file t file in
      Ok (Rp_slot (record_count t ~file))

(* The transaction a request runs under, if any ([tx = 0] marks
   transactionless ENSCRIBE-style access). *)
let req_tx (req : request) =
  match req with
  | R_read { tx; _ }
  | R_read_next { tx; _ }
  | R_insert { tx; _ }
  | R_update { tx; _ }
  | R_delete { tx; _ }
  | R_lock_file { tx; _ }
  | R_lock_generic { tx; _ }
  | R_rel_read { tx; _ }
  | R_rel_write { tx; _ }
  | R_rel_rewrite { tx; _ }
  | R_rel_delete { tx; _ }
  | R_entry_append { tx; _ }
  | R_entry_read { tx; _ }
  | R_get_first { tx; _ }
  | R_get_next { tx; _ }
  | R_update_subset_first { tx; _ }
  | R_update_subset_next { tx; _ }
  | R_delete_subset_first { tx; _ }
  | R_delete_subset_next { tx; _ }
  | R_insert_row { tx; _ }
  | R_insert_block { tx; _ }
  | R_apply_block { tx; _ }
  | R_agg_first { tx; _ }
  | R_agg_next { tx; _ } -> Some tx
  | R_create_file _ | R_close_scb _ | R_record_count _ -> None

let run_request t req =
  match req_tx req with
  | Some tx when tx > 0 && Hashtbl.mem t.denied tx ->
      (* the transaction had un-checkpointed work in flight when the backup
         took over: its effects here are unknown, so every further request
         is refused until the transaction finishes (abort + retry) *)
      let s = Sim.stats t.sim in
      s.Stats.takeover_denials <- s.Stats.takeover_denials + 1;
      Rp_error
        (Errors.Takeover
           (Printf.sprintf "tx %d was in flight on %s at takeover" tx
              t.dp_name))
  | _ -> ( match dispatch t req with Ok reply -> reply | Error e -> Rp_error e)

(* Ship the deltas a dispatched request accumulated to the backup, as one
   checkpoint message. A mutation additionally carries its own request
   bytes (the write intent), so the charge covers exactly what a real
   process pair would ship before acknowledging. *)
let flush_ckpt t req =
  let pending = t.ckpt_pending in
  t.ckpt_pending <- [];
  if ckpt_active t then begin
    let items = List.rev pending in
    let items =
      if is_mutation req then Ck_intent { payload = encode_request req } :: items
      else items
    in
    if items <> [] then ckpt_emit t items
  end

let request_body t req =
  if not (Trace.enabled t.sim) then run_request t req
  else begin
    (* one span per dispatched request; a re-drive reusing a Subset
       Control Block is marked, making SCB hits visible per operator *)
    let attrs =
      ("dp", Trace.Str t.dp_name)
      ::
      (match req with
      | R_get_next { scb; _ }
      | R_update_subset_next { scb; _ }
      | R_delete_subset_next { scb; _ }
      | R_agg_next { scb; _ } ->
          [ ("scb_reuse", Trace.Bool true); ("scb", Trace.Int scb) ]
      | R_agg_first _ -> [ ("agg_fold", Trace.Bool true) ]
      | R_create_file _ | R_read _ | R_read_next _ | R_insert _ | R_update _
      | R_delete _ | R_lock_file _ | R_lock_generic _ | R_rel_read _
      | R_rel_write _ | R_rel_rewrite _ | R_rel_delete _ | R_entry_append _
      | R_entry_read _ | R_get_first _ | R_update_subset_first _
      | R_delete_subset_first _ | R_insert_row _ | R_insert_block _
      | R_apply_block _ | R_close_scb _ | R_record_count _ -> [])
    in
    let sp = Trace.begin_span t.sim ~cat:"dp" ~attrs (tag req) in
    Fun.protect
      ~finally:(fun () -> Trace.finish t.sim sp)
      (fun () -> run_request t req)
  end

let request t req =
  (* service duration via the capture-aware clock: virtual under a nowait
     issue or a pump re-dispatch, real when blocking — either way the
     requester-perceived service time of this dispatch *)
  let mc = Sim.moncore t.sim in
  let t0 = Sim.now t.sim in
  Sim.tick t.sim 20;
  let reply = request_body t req in
  flush_ckpt t req;
  let dur = Sim.now t.sim -. t0 in
  Moncore.observe mc "dp" dur;
  Moncore.add_busy mc Moncore.R_dp dur;
  reply

(* --- lock wait queue ------------------------------------------------------ *)

(* With [Config.dp_lock_wait] set, a blocked point request is parked on a
   FIFO wait queue instead of being denied: the Disk Process withholds the
   reply (a {!Msg.defer} deferral), records wait-for edges, and
   re-dispatches the request when a transaction finish releases locks.
   Only operations where [Rp_blocked] implies nothing was applied may park,
   because the re-dispatch repeats the whole operation; subset scans and
   apply-block batches carry partial progress (processed counts, SCB and
   accumulator state) and keep the immediate-denial protocol. *)
let park_tx (req : request) =
  match req with
  | R_read { tx; _ } -> Some tx
  | R_read_next { tx; _ } -> Some tx
  | R_insert { tx; _ } -> Some tx
  | R_update { tx; _ } -> Some tx
  | R_delete { tx; _ } -> Some tx
  | R_lock_file { tx; _ } -> Some tx
  | R_lock_generic { tx; _ } -> Some tx
  | R_rel_write { tx; _ } -> Some tx
  | R_rel_rewrite { tx; _ } -> Some tx
  | R_rel_delete { tx; _ } -> Some tx
  | R_entry_append { tx; _ } -> Some tx
  | R_insert_row { tx; _ } -> Some tx
  | R_insert_block { tx; _ } -> Some tx
  | R_create_file _ | R_rel_read _ | R_entry_read _ | R_get_first _
  | R_get_next _ | R_update_subset_first _ | R_update_subset_next _
  | R_delete_subset_first _ | R_delete_subset_next _ | R_apply_block _
  | R_close_scb _ | R_agg_first _ | R_agg_next _ | R_record_count _ -> None

let emit_wait_end t w ~outcome =
  Moncore.observe (Sim.moncore t.sim) "lock_wait"
    (Sim.now t.sim -. w.w_parked_at);
  if Trace.enabled t.sim then
    Trace.instant t.sim ~cat:"lock"
      ~attrs:
        [
          ("dp", Str t.dp_name);
          ("tx", Int w.w_tx);
          ("wait_us", Float (Sim.now t.sim -. w.w_parked_at));
          ("outcome", Str outcome);
        ]
      "lock_wait_end"

let remove_waiter t w =
  t.waiters <- List.filter (fun w' -> w' != w) t.waiters;
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked (-1);
  Lock.Waitgraph.clear_waiting t.waitgraph ~tx:w.w_tx;
  ckpt_emit t [ Ck_unpark { tx = w.w_tx } ]

(* Deny a parked waiter (deadlock victim, wait-budget expiry): deliver the
   withheld reply as an error so its session can abort and retry. *)
let deny_waiter t w ~outcome err =
  remove_waiter t w;
  emit_wait_end t w ~outcome;
  Msg.resolve t.msys w.w_deferral (encode_reply (Rp_error err))

let find_waiter t ~tx = List.find_opt (fun w -> w.w_tx = tx) t.waiters

(* Deadlock resolution: while the wait-for relation has a cycle through
   [tx], deny the youngest transaction of the cycle (highest id — begun
   last, least work lost). Every cycle node has outgoing edges, so it is
   either parked here or is [tx] itself: the victim is always locally
   reachable. Returns [`Deny e] when [tx] itself must be denied. *)
let rec resolve_cycles t ~tx =
  match Lock.Waitgraph.find_cycle t.waitgraph ~tx with
  | None -> `Park
  | Some cycle ->
      let victim = List.fold_left max tx cycle in
      let s = Sim.stats t.sim in
      s.Stats.deadlocks <- s.Stats.deadlocks + 1;
      if Trace.enabled t.sim then
        Trace.instant t.sim ~cat:"lock"
          ~attrs:
            [
              ("dp", Str t.dp_name);
              ("victim", Int victim);
              ("cycle_len", Int (List.length cycle));
            ]
          "deadlock";
      let msg =
        Printf.sprintf "tx %d chosen as victim (cycle of %d)" victim
          (List.length cycle)
      in
      if victim = tx then begin
        Lock.Waitgraph.clear_waiting t.waitgraph ~tx;
        `Deny (Errors.Deadlock msg)
      end
      else begin
        (match find_waiter t ~tx:victim with
        | Some w -> deny_waiter t w ~outcome:"deadlock" (Errors.Deadlock msg)
        | None ->
            (* unreachable: a non-requester cycle node has out-edges only
               while parked *)
            Lock.Waitgraph.clear_waiting t.waitgraph ~tx:victim);
        resolve_cycles t ~tx
      end

let park t req ~tx ~blockers ~payload =
  Lock.Waitgraph.set_waiting t.waitgraph ~tx ~on:blockers;
  match resolve_cycles t ~tx with
  | `Deny e -> `Deny e
  | `Park ->
      let d = Msg.defer t.msys in
      let w =
        {
          w_tx = tx;
          w_req = req;
          w_deferral = d;
          w_parked_at = Sim.now t.sim;
          w_payload = payload;
        }
      in
      t.waiters <- t.waiters @ [ w ];
      Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked 1;
      ckpt_emit t [ Ck_park { tx; payload } ];
      let s = Sim.stats t.sim in
      s.Stats.lock_waits <- s.Stats.lock_waits + 1;
      let budget = (Sim.config t.sim).Config.lock_wait_timeout_us in
      (* [Sim.schedule] against the virtual clock: under a nowait capture
         [Sim.after] would base the deadline on the frozen real clock *)
      Sim.schedule t.sim
        ~at:(Sim.now t.sim +. budget)
        (fun () ->
          if not (Msg.resolved d) then
            deny_waiter t w ~outcome:"timeout"
              (Errors.Lock_timeout "lock wait budget expired"));
      `Parked

(* Re-dispatch parked requests after a lock release, in FIFO order. The
   whole queue is scanned: per-resource FIFO is preserved (an earlier
   waiter on the freed resource re-dispatches first) while waiters on
   unrelated resources are not head-of-line blocked behind it. Each
   re-dispatch runs under a clock capture so its work lands on the parked
   requester's timeline, not the releasing transaction's. *)
let pump t =
  if t.waiters <> [] then
    List.iter
      (fun w ->
        (* a waiter denied by cycle resolution earlier in this scan is
           already resolved *)
        if not (Msg.resolved w.w_deferral) then
          let (), _probe_cost =
            Sim.capture t.sim (fun () ->
                match request t w.w_req with
                | Rp_blocked { blockers; _ } -> (
                    (* still blocked: refresh edges (the blocker set may
                       have changed) and re-check for cycles *)
                    Lock.Waitgraph.clear_waiting t.waitgraph ~tx:w.w_tx;
                    Lock.Waitgraph.set_waiting t.waitgraph ~tx:w.w_tx
                      ~on:blockers;
                    match resolve_cycles t ~tx:w.w_tx with
                    | `Park -> ()
                    | `Deny e -> deny_waiter t w ~outcome:"deadlock" e)
                | reply ->
                    remove_waiter t w;
                    emit_wait_end t w
                      ~outcome:
                        (match reply with
                        | Rp_error _ -> "error"
                        | _ -> "granted");
                    Msg.resolve t.msys w.w_deferral (encode_reply reply))
          in
          ())
      t.waiters

let handler t payload =
  match decode_request payload with
  | Error e ->
      encode_reply
        (Rp_error
           (Errors.Bad_request
              ("malformed request: " ^ decode_error_to_string e)))
  | Ok req -> (
      let reply = request t req in
      let action =
        match reply with
        | Rp_blocked { blockers; _ }
          when (Sim.config t.sim).Config.dp_lock_wait -> (
            match park_tx req with
            | Some tx when tx > 0 -> (
                match park t req ~tx ~blockers ~payload with
                | `Parked -> `Parked
                | `Deny e -> `Reply (Rp_error e))
            | Some _ | None -> `Reply reply)
        | _ -> `Reply reply
      in
      match action with
      | `Parked ->
          (* the reply is withheld; this placeholder is discarded by Msg *)
          ""
      | `Reply reply -> encode_reply reply)

(* Process-pair takeover: the backup resumes as primary. With an active
   replica (checkpointing on) every acknowledged piece of state survives —
   SCB definitions, aggregate partials, granted locks in grant order, and
   the parked waiters with their live deferrals, so wait budgets keep
   counting. Without a replica the backup still answers, but cursors and
   locks are gone: transactions that were in flight here are denied with a
   retryable [Errors.Takeover] until they finish, and parked requests are
   flushed the same way. *)
let takeover t =
  if not (Msg.takeover_endpoint t.endpoint) then
    Errors.fail
      (Errors.Bad_request (t.dp_name ^ ": process pair has no backup"))
  else begin
    let s = Sim.stats t.sim in
    s.Stats.takeovers <- s.Stats.takeovers + 1;
    let cfg = Sim.config t.sim in
    t.ckpt_pending <- [];
    (match t.replica with
    | Some rp ->
        (* rebuild primary structures from the replica alone: anything the
           checkpoint stream missed is deliberately lost, which is what the
           byte-identity and takeover tests probe *)
        Hashtbl.reset t.scbs;
        Lock.clear_all t.locks;
        Lock.Waitgraph.clear t.waitgraph;
        let items = ref 0 in
        List.iter
          (fun (id, scb) ->
            incr items;
            Hashtbl.replace t.scbs id scb)
          (Nsql_util.Tbl.sorted_bindings rp.rp_scbs);
        (* oldest grant first, so Shared-then-Exclusive upgrades replay in
           the order the primary granted them *)
        let locks = List.rev rp.rp_locks in
        List.iter (fun _ -> incr items) locks;
        Lock.restore t.locks locks;
        (* waiter records survive by reference: the withheld deferrals and
           the already-scheduled wait-budget timeouts stay valid, so FIFO
           order and remaining budgets carry across the takeover *)
        let old_parked = List.length t.waiters in
        t.waiters <-
          List.filter (fun w -> not (Msg.resolved w.w_deferral)) rp.rp_parked;
        Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked
          (List.length t.waiters - old_parked);
        List.iter (fun _ -> incr items) t.waiters;
        (* the new primary has no backup: stop consuming checkpoints *)
        Msg.set_checkpoint_receiver t.endpoint None;
        t.replica <- None;
        (* rebuild cost: one message-handling quantum plus work linear in
           the replayed state *)
        Moncore.with_cat (Sim.moncore t.sim) Moncore.C_ckpt (fun () ->
            Sim.charge t.sim cfg.Config.msg_cpu_cost_us);
        Sim.tick t.sim (50 * !items);
        (* re-dispatch survivors: a waiter whose blocker never checkpointed
           re-parks against the restored lock table *)
        pump t
    | None ->
        (* no replica was maintained: volatile cursor and lock state is
           gone. Deny every transaction that had work in flight here with a
           retryable error; the wait queue is flushed the same way. *)
        List.iter
          (fun (tx, _file, _res, _mode) -> Hashtbl.replace t.denied tx ())
          (Lock.snapshot t.locks);
        List.iter (fun w -> Hashtbl.replace t.denied w.w_tx ()) t.waiters;
        Hashtbl.reset t.scbs;
        t.lost_scbs <- true;
        Lock.clear_all t.locks;
        Lock.Waitgraph.clear t.waitgraph;
        let parked = t.waiters in
        t.waiters <- [];
        Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked
          (-List.length parked);
        List.iter
          (fun w ->
            if not (Msg.resolved w.w_deferral) then begin
              emit_wait_end t w ~outcome:"takeover";
              Msg.resolve t.msys w.w_deferral
                (encode_reply
                   (Rp_error
                      (Errors.Takeover
                         (t.dp_name ^ ": primary failed, state not checkpointed"))))
            end)
          parked;
        Moncore.with_cat (Sim.moncore t.sim) Moncore.C_ckpt (fun () ->
            Sim.charge t.sim cfg.Config.msg_cpu_cost_us));
    Ok ()
  end

(* --- idle-time work ------------------------------------------------------------- *)

let idle t = Cache.write_behind t.cache

(* --- crash and recovery ----------------------------------------------------------- *)

let crash t =
  Cache.drop_all t.cache;
  Hashtbl.reset t.scbs;
  (* lock tables are volatile too *)
  Lock.clear_all t.locks;
  (* a crash takes both halves of the pair down: the replica is as gone as
     the primary's own volatile state *)
  t.ckpt_pending <- [];
  (match t.replica with
  | Some rp ->
      Hashtbl.reset rp.rp_scbs;
      rp.rp_locks <- [];
      rp.rp_parked <- [];
      rp.rp_bytes <- 0
  | None -> ());
  (* parked requests lose their server: flush each with an I/O error so no
     requester is left holding a completion that can never resolve *)
  Lock.Waitgraph.clear t.waitgraph;
  let parked = t.waiters in
  t.waiters <- [];
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_parked
    (-List.length parked);
  List.iter
    (fun w ->
      if not (Msg.resolved w.w_deferral) then begin
        emit_wait_end t w ~outcome:"crash";
        Msg.resolve t.msys w.w_deferral
          (encode_reply
             (Rp_error (Errors.Io_error (t.dp_name ^ ": disk process crashed"))))
      end)
    parked;
  (* in-flight transactions lose their compensations against this volume:
     restart recovery treats them as losers here, and the transactions can
     still abort cleanly on surviving volumes *)
  Tmf.forget_owner t.tmf ~owner:t.dp_name

let recover_with_gen t ~resolve =
  (* rebuild every structure empty (the file labels survive on disk), in
     file-id order: creation order decides cache/disk allocation *)
  List.iter
    (fun (_, f) ->
      let structure =
        match f.f_kind with
        | K_key_sequenced -> S_btree (Btree.create t.sim t.cache ~name:f.f_name)
        | K_relative slot_size ->
            S_rel (Relfile.create t.sim t.cache ~name:f.f_name ~slot_size)
        | K_entry_sequenced ->
            S_entry (Entryfile.create t.sim t.cache ~name:f.f_name)
      in
      f.f_structure <- structure)
    (Nsql_util.Tbl.sorted_bindings t.files);
  let apply body =
    let with_file file k =
      match Hashtbl.find_opt t.files file with Some f -> k f | None -> ()
    in
    match body with
    | Ar.Insert { file; key; image } ->
        with_file file (fun f ->
            match f.f_structure with
            | S_btree b -> Btree.upsert b ~key ~record:image ~lsn:0L
            | S_rel r ->
                let slot = Keycode.read_int (Nsql_util.Codec.reader key) in
                Errors.swallow (Relfile.write r ~slot ~record:image ~lsn:0L)
            | S_entry e -> Errors.swallow (Entryfile.append e ~record:image ~lsn:0L))
    | Ar.Delete { file; key; _ } ->
        with_file file (fun f ->
            match f.f_structure with
            | S_btree b -> Errors.swallow (Btree.delete b ~key ~lsn:0L)
            | S_rel r ->
                let slot = Keycode.read_int (Nsql_util.Codec.reader key) in
                Errors.swallow (Relfile.delete r ~slot ~lsn:0L)
            | S_entry _ -> ())
    | Ar.Update_full { file; key; after; _ } ->
        with_file file (fun f ->
            match f.f_structure with
            | S_btree b -> Btree.upsert b ~key ~record:after ~lsn:0L
            | S_rel r ->
                let slot = Keycode.read_int (Nsql_util.Codec.reader key) in
                Errors.swallow (Relfile.rewrite r ~slot ~record:after ~lsn:0L)
            | S_entry _ -> ())
    | Ar.Update_fields { file; key; fields } ->
        with_file file (fun f ->
            match (f.f_structure, f.f_schema) with
            | S_btree b, Some schema -> (
                match Btree.lookup b key with
                | Some record ->
                    let row = Row.decode_exn schema record in
                    List.iter (fun (i, _before, after) -> row.(i) <- after) fields;
                    Btree.upsert b ~key ~record:(Row.encode schema row) ~lsn:0L
                | None -> ())
            | _ -> ())
    | Ar.Begin_tx | Ar.Commit_tx | Ar.Abort_tx | Ar.Prepare_tx _ -> ()
  in
  Nsql_tmf.Recovery.rollforward_with (Tmf.trail t.tmf) ~resolve ~apply

let recover t =
  recover_with_gen t
    ~resolve:(fun ~coordinator_node:_ ~coordinator_tx:_ -> false)

let recover_with t ~resolve = recover_with_gen t ~resolve

let check_invariants t =
  List.fold_left
    (fun acc (_, f) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match f.f_structure with
          | S_btree b -> Btree.check_invariants b
          | S_rel _ | S_entry _ -> Ok ()))
    (Ok ())
    (Nsql_util.Tbl.sorted_bindings t.files)

let () = handler_cell := handler
let () = pump_cell := pump

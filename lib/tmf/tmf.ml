module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Trail = Nsql_audit.Trail
module Ar = Nsql_audit.Audit_record
module Errors = Nsql_util.Errors

type tx_state = Active | Prepared | Committed | Aborted

(* Undo actions are tagged with the resource manager (volume) that
   registered them: when that volume crashes, its actions become
   meaningless (the volume's state is rebuilt from the audit trail, where
   an unfinished transaction is a loser) and must be forgotten so the
   transaction can still abort cleanly on the surviving volumes. *)
type undo_entry = { u_owner : string option; u_act : unit -> unit }

type tx_entry = { mutable tx_state : tx_state; mutable undo : undo_entry list }

type t = {
  sim : Sim.t;
  trail : Trail.t;
  mutable next_tx : int;
  mutable next_file_id : int;
  table : (int, tx_entry) Hashtbl.t;
  mutable on_finish : (int -> unit) list;
}

let create sim trail =
  {
    sim;
    trail;
    next_tx = 1;
    next_file_id = 0;
    table = Hashtbl.create 64;
    on_finish = [];
  }

let allocate_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

let trail t = t.trail

let register_resource_manager t ~on_finish =
  t.on_finish <- on_finish :: t.on_finish

let begin_tx t =
  let tx = t.next_tx in
  t.next_tx <- tx + 1;
  Hashtbl.replace t.table tx { tx_state = Active; undo = [] };
  ignore (Trail.append t.trail ~tx Ar.Begin_tx);
  let s = Sim.stats t.sim in
  s.Stats.tx_begun <- s.Stats.tx_begun + 1;
  Sim.tick t.sim 20;
  tx

let state t ~tx =
  match Hashtbl.find_opt t.table tx with
  | Some e -> Some e.tx_state
  | None -> None

let is_active t ~tx =
  match state t ~tx with Some Active -> true | Some _ | None -> false

let register_undo t ~tx ?owner undo =
  match Hashtbl.find_opt t.table tx with
  | Some e when e.tx_state = Active ->
      e.undo <- { u_owner = owner; u_act = undo } :: e.undo
  | Some _ | None -> invalid_arg "Tmf.register_undo: transaction not active"

let forget_owner t ~owner =
  List.iter
    (fun (_, e) ->
      match e.tx_state with
      | Active | Prepared ->
          e.undo <-
            List.filter (fun u -> u.u_owner <> Some owner) e.undo
      | Committed | Aborted -> ())
    (Nsql_util.Tbl.sorted_bindings t.table)

let finish t tx = List.iter (fun f -> f tx) t.on_finish

let prepare t ~tx ~coordinator_node ~coordinator_tx =
  match Hashtbl.find_opt t.table tx with
  | Some ({ tx_state = Active; _ } as e) ->
      let lsn =
        Trail.append t.trail ~tx (Ar.Prepare_tx { coordinator_node; coordinator_tx })
      in
      (* a branch must be durable-ready before it answers the coordinator *)
      Trail.force t.trail lsn;
      e.tx_state <- Prepared;
      Sim.tick t.sim 20;
      Ok ()
  | Some _ | None -> Errors.fail Errors.No_transaction

let commit t ~tx =
  match Hashtbl.find_opt t.table tx with
  | None | Some { tx_state = Committed | Aborted; _ } ->
      Errors.fail Errors.No_transaction
  | Some e ->
      (* a read-only transaction logged no work: no COMMIT record and no
         group-commit wait are needed (two-phase locks still release) *)
      if e.undo <> [] || e.tx_state = Prepared then begin
        let lsn = Trail.append t.trail ~tx Ar.Commit_tx in
        Trail.request_commit t.trail ~tx lsn;
        Trail.await_durable t.trail lsn
      end;
      e.tx_state <- Committed;
      e.undo <- [];
      let s = Sim.stats t.sim in
      s.Stats.tx_committed <- s.Stats.tx_committed + 1;
      finish t tx;
      Sim.tick t.sim 20;
      Ok ()

let abort t ~tx =
  match Hashtbl.find_opt t.table tx with
  | None | Some { tx_state = Committed | Aborted; _ } ->
      Errors.fail Errors.No_transaction
  | Some e ->
      (* undo in reverse registration order; actions were pushed, so the
         list is already newest-first *)
      List.iter (fun u -> u.u_act ()) e.undo;
      e.undo <- [];
      ignore (Trail.append t.trail ~tx Ar.Abort_tx);
      e.tx_state <- Aborted;
      let s = Sim.stats t.sim in
      s.Stats.tx_aborted <- s.Stats.tx_aborted + 1;
      finish t tx;
      Sim.tick t.sim 20;
      Ok ()

let run t f =
  let tx = begin_tx t in
  match f tx with
  | Ok result -> (
      match commit t ~tx with Ok () -> Ok result | Error _ as e -> e)
  | Error err ->
      (match abort t ~tx with
      | Ok () -> ()
      | Error e2 ->
          Errors.fatal ("Tmf.run: abort failed: " ^ Errors.to_string e2));
      Error err

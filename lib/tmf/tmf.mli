(** TMF — the Transaction Monitoring Facility.

    Coordinates transactions across the Disk Processes of a node: assigns
    transaction identifiers, writes BEGIN/COMMIT/ABORT audit records to the
    shared audit trail, performs group-commit waits, and drives undo on
    abort.

    Resource managers (Disk Processes) register two callbacks:
    - an {e on-finish} hook, called with the transaction id after commit or
      abort — this is where two-phase locking releases its locks;
    - per-operation {e undo actions}, registered as work is done and run in
      reverse order on abort (logical compensation).

    Restart recovery is in {!Recovery}. *)

type t

type tx_state = Active | Prepared | Committed | Aborted

val create : Nsql_sim.Sim.t -> Nsql_audit.Trail.t -> t

val trail : t -> Nsql_audit.Trail.t

(** [register_resource_manager t ~on_finish] adds a participant whose
    [on_finish] runs at every transaction completion. *)
val register_resource_manager : t -> on_finish:(int -> unit) -> unit

(** [begin_tx t] starts a transaction and returns its id. *)
val begin_tx : t -> int

(** [allocate_file_id t] hands out a node-global file identifier, so that
    audit records in the shared trail name files unambiguously across the
    node's Disk Processes. *)
val allocate_file_id : t -> int

(** [state t ~tx] is the transaction's state, if known. *)
val state : t -> tx:int -> tx_state option

(** [is_active t ~tx] is true for in-flight transactions. *)
val is_active : t -> tx:int -> bool

(** [register_undo t ~tx ?owner undo] pushes a compensation action.
    [owner] names the resource manager (volume) whose state the action
    compensates — see {!forget_owner}. *)
val register_undo : t -> tx:int -> ?owner:string -> (unit -> unit) -> unit

(** [forget_owner t ~owner] drops, from every in-flight (active or
    prepared) transaction, the undo actions registered by [owner]. Called
    when that volume crashes: its volatile state is gone, and restart
    recovery will treat the unfinished transactions as losers there, so
    running their compensations would double-undo. The transactions can
    then still abort cleanly on the surviving volumes. *)
val forget_owner : t -> owner:string -> unit

(** [prepare t ~tx ~coordinator_node ~coordinator_tx] makes the
    transaction a ready branch of a network transaction: its PREPARE
    record is forced to the trail and its locks are retained until the
    coordinator's decision arrives. No further work is accepted. *)
val prepare :
  t -> tx:int -> coordinator_node:int -> coordinator_tx:int ->
  (unit, Nsql_util.Errors.t) result

(** [commit t ~tx] writes the COMMIT record, waits for group commit
    durability, then releases the participants. Also commits a prepared
    branch when the coordinator's decision arrives. *)
val commit : t -> tx:int -> (unit, Nsql_util.Errors.t) result

(** [abort t ~tx] runs the undo actions in reverse, writes the ABORT
    record, and releases the participants. *)
val abort : t -> tx:int -> (unit, Nsql_util.Errors.t) result

(** [run t f] wraps [f] in a transaction: commits on [Ok], aborts on
    [Error] (returning the original error). *)
val run :
  t -> (int -> ('a, Nsql_util.Errors.t) result) -> ('a, Nsql_util.Errors.t) result

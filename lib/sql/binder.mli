(** Name resolution and lowering of surface expressions to the
    single-record expression language.

    A binding environment lists the FROM tables in order; the bound
    expression sees the {e joined row} — the concatenation of the tables'
    fields — so a column reference becomes [Expr.Field (offset + field)].
    For a single-table query the joined row is just the record, and the
    bound expression is exactly the single-variable form the File System
    can ship to a Disk Process. *)

module Row = Nsql_row.Row
module Expr = Nsql_expr.Expr

type env_entry = {
  en_table : string;  (** catalog name *)
  en_alias : string option;
  en_schema : Row.schema;
  en_offset : int;  (** first field number of this table in the joined row *)
}

type env = env_entry list

(** [env_of_tables tables] builds the environment, assigning offsets in
    order. *)
val env_of_tables : (string * string option * Row.schema) list -> env

(** [resolve env ~qualifier ~column] finds the joined-row field number.
    Unqualified names must be unambiguous. *)
val resolve :
  env -> qualifier:string option -> column:string ->
  (int, Nsql_util.Errors.t) result

(** [bind env e] lowers a surface expression (no aggregates allowed). *)
val bind : env -> Ast.sexpr -> (Expr.t, Nsql_util.Errors.t) result

(** [lit_value l] converts a literal. *)
val lit_value : Ast.literal -> Row.value

(** Operator lowering, shared with the planner's aggregate rewriting. *)
val cmp_op : Ast.cmp -> Expr.cmp
val bin_op : Ast.binop -> Expr.binop

(** Single-variable scalar expressions.

    These are the expressions the File System ships to the Disk Process
    inside set-oriented requests: selection predicates (filters applied at
    the data source), update expressions ([SET BALANCE = BALANCE * 1.07]),
    and CHECK integrity constraints. They reference fields of exactly one
    record by field number — the paper's "single-variable query".

    Evaluation follows SQL three-valued logic: any comparison involving
    NULL yields [Null]; [And]/[Or]/[Not] implement Kleene logic; a record
    satisfies a predicate only if it evaluates to true (unknown filters
    out). *)

type binop = Add | Sub | Mul | Div | Concat

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Field of int  (** field number in the record at hand *)
  | Const of Nsql_row.Row.value
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Like of t * string  (** SQL LIKE with [%] and [_] wildcards *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** [size e] is the node count, used for CPU-cost accounting. *)
val size : t -> int

(** [fields e] is the sorted list of field numbers referenced. *)
val fields : t -> int list

(** [map_fields f e] renumbers every field reference — used when an
    expression bound against a full record must run against a projected
    one. *)
val map_fields : (int -> int) -> t -> t

(** {1 Construction helpers} *)

val int_ : int -> t
val float_ : float -> t
val str : string -> t
val bool_ : bool -> t
val null : t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

(** [conjuncts e] flattens nested [And]s. *)
val conjuncts : t -> t list

(** [conjoin es] rebuilds a conjunction ([Const true] if empty). *)
val conjoin : t list -> t

(** {1 Type checking} *)

(** [typecheck schema e] checks field references and operand types, and
    returns the expression's column type. Boolean results are [T_bool]. *)
val typecheck :
  Nsql_row.Row.schema -> t -> (Nsql_row.Row.col_type, Nsql_util.Errors.t) result

(** {1 Evaluation} *)

(** [eval row e] evaluates against a record. Division by zero yields
    [Null] (with a diagnostic available via [strict] evaluation in the SQL
    layer if needed). Raises nothing on well-typed input. *)
val eval : Nsql_row.Row.row -> t -> Nsql_row.Row.value

(** [eval_pred row e] is [true] iff [eval row e] is [Vbool true]. *)
val eval_pred : Nsql_row.Row.row -> t -> bool

(** [like_match ~pattern s] is SQL LIKE matching. *)
val like_match : pattern:string -> string -> bool

(** {1 Updates and constraints} *)

(** An assignment [SET field := expr], evaluated against the old record. *)
type assignment = { target : int; source : t }

(** [apply_assignments row assignments] builds the updated row; all sources
    are evaluated against the {e old} row, as in SQL. *)
val apply_assignments : Nsql_row.Row.row -> assignment list -> Nsql_row.Row.row

(** {1 Wire codec} — expressions are message payload in FS-DP requests. *)

val encode : Nsql_util.Codec.writer -> t -> unit
val decode : Nsql_util.Codec.reader -> t

val encode_assignment : Nsql_util.Codec.writer -> assignment -> unit
val decode_assignment : Nsql_util.Codec.reader -> assignment

(** {1 Key-range extraction}

    Given a predicate over a record with the given schema, determine the
    primary-key range it implies: equality conjuncts on a key prefix
    followed by at most one inequality on the next key column. The
    remaining conjuncts become the residual predicate that the Disk
    Process (or, for non-pushable parts, the Executor) still evaluates. *)

type key_range = {
  lo : string;  (** inclusive encoded begin key ({!Nsql_util.Keycode}) *)
  hi : string;  (** exclusive encoded end key, or {!Nsql_util.Keycode.high_value} *)
}

(** The whole-file range. *)
val full_range : key_range

val pp_key_range : Format.formatter -> key_range -> unit

(** [range_contains r key] tests an encoded key against a range. *)
val range_contains : key_range -> string -> bool

(** [extract_key_range schema e] is [(range, residual)] where [residual] is
    the conjunction of the conjuncts not absorbed into the range ([None] if
    all were absorbed). *)
val extract_key_range :
  Nsql_row.Row.schema -> t -> key_range * t option

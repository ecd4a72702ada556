(** Rows, schemas, and the on-disk record format.

    Both ENSCRIBE files and SQL tables store records in the same
    key-sequenced / relative / entry-sequenced file structures; a record is
    a byte string produced by this module's codec, and its primary key is
    the order-preserving {!Nsql_util.Keycode} encoding of the key columns.
    The Disk Process addresses fields by *field number* (position in the
    record descriptor), exactly as the paper's FS-DP interface does. *)

(** {1 Types} *)

type col_type =
  | T_int  (** 64-bit signed integer *)
  | T_float  (** IEEE double *)
  | T_bool
  | T_char of int  (** fixed-width character field, blank padded *)
  | T_varchar of int  (** variable width with maximum *)

val pp_col_type : Format.formatter -> col_type -> unit
val equal_col_type : col_type -> col_type -> bool

type column = { col_name : string; col_type : col_type; nullable : bool }

type schema = {
  cols : column array;
  key_cols : int array;  (** field numbers of the primary-key columns *)
}

(** [schema cols ~key] builds a schema; key columns are named. Raises
    [Invalid_argument] on unknown/duplicate names or nullable keys. *)
val schema : column array -> key:string list -> schema

val column : ?nullable:bool -> string -> col_type -> column

(** [field_number s name] is the field number of column [name]. *)
val field_number : schema -> string -> (int, Nsql_util.Errors.t) result

(** {1 Values and rows} *)

type value = Null | Vint of int | Vfloat of float | Vbool of bool | Vstr of string

type row = value array

val pp_value : Format.formatter -> value -> unit
val pp_row : Format.formatter -> row -> unit
val equal_value : value -> value -> bool
val equal_row : row -> row -> bool

(** [compare_value a b] orders values of the same runtime type; [Null]
    sorts below everything. Cross-type comparison of numerics coerces int
    to float. *)
val compare_value : value -> value -> int

(** [validate s row] checks arity, types, widths, and nullability. *)
val validate : schema -> row -> (unit, Nsql_util.Errors.t) result

(** {1 Record codec} *)

(** [encode s row] is the on-disk byte image of [row]: a null bitmap
    followed by the fields in order. *)
val encode : schema -> row -> string

(** [decode s bytes] parses a record image into a fresh row: the
    all-columns case of {!decode_into}. *)
val decode : schema -> string -> (row, Nsql_util.Errors.t) result

(** [decode_exn s bytes] is [decode] for trusted (self-written) images. *)
val decode_exn : schema -> string -> row

(** {2 Column subsets}

    A scan that reads a few columns of each record decodes only those,
    into a row it reuses from record to record. *)

(** A set of field numbers of one schema. *)
type colset

(** [colset s fields] is the set of [fields] (duplicates allowed). Raises
    [Invalid_argument] if a field number is not a column of [s]. *)
val colset : schema -> int list -> colset

(** [all_columns] is every column of any schema. *)
val all_columns : colset

(** [decode_into s cs img ~pos ~len row] decodes the record image held
    in the [len] bytes of [img] from offset [pos] — the whole of [img],
    or one record inside a cached block. It writes each column of [cs]
    into [row.(i)] — [Null] for a null field — and leaves every other
    entry of [row] as it was. It walks the image only up to the last
    column of [cs], skipping unwanted fields without building their
    values, and never reads past [pos + len]. [row] must have a slot per
    column of [s], and [cs] must come from [s]. A truncated image is an
    [Internal] error when the walk reaches the cut (always when the cut
    is inside the null bitmap), whatever bytes follow the cut in [img].
    Raises [Invalid_argument] if the range is not inside [img]. *)
val decode_into :
  schema ->
  colset ->
  string ->
  pos:int ->
  len:int ->
  row ->
  (unit, Nsql_util.Errors.t) result

(** [decode_into_exn] is {!decode_into} for trusted images. *)
val decode_into_exn :
  schema -> colset -> string -> pos:int -> len:int -> row -> unit

(** [encoded_size s row] is [String.length (encode s row)] without building
    the string. *)
val encoded_size : schema -> row -> int

(** {1 Value wire codec}

    Tagged encoding of a single value, used in expression constants and in
    field-compressed audit records. *)

val encode_value : Nsql_util.Codec.writer -> value -> unit
val decode_value : Nsql_util.Codec.reader -> value

(** Schema wire codec (used by DDL requests and the catalog). *)

val encode_schema : Nsql_util.Codec.writer -> schema -> unit
val decode_schema : Nsql_util.Codec.reader -> schema

(** Row-of-values wire codec (schema-less, tagged values). *)

val encode_values : Nsql_util.Codec.writer -> row -> unit
val decode_values : Nsql_util.Codec.reader -> row

(** [encode_fields w row fields] writes the bytes
    [encode_values w (project row fields)] writes, without building the
    projection. *)
val encode_fields : Nsql_util.Codec.writer -> row -> int array -> unit

(** [values_size row] is the number of bytes [encode_values] writes for
    [row], computed without encoding it. *)
val values_size : row -> int

(** {1 Keys} *)

(** [key_of_row s row] encodes the primary-key columns order-preservingly. *)
val key_of_row : schema -> row -> string

(** [key_of_values s vs] encodes [vs] as a key; [vs] must match the key
    columns' types. A prefix of the key columns is allowed (for generic
    positioning). *)
val key_of_values : schema -> value list -> (string, Nsql_util.Errors.t) result

(** {1 Projection} *)

(** [project row fields] extracts the given field numbers in order. *)
val project : row -> int array -> row

(** [projected_schema s fields] is the schema of a projection (keys of the
    projected schema are cleared). *)
val projected_schema : schema -> int array -> schema

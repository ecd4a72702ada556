module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Moncore = Nsql_sim.Moncore
module Keycode = Nsql_util.Keycode
module Trace = Nsql_trace.Trace

type mode = Shared | Exclusive

let pp_mode ppf = function
  | Shared -> Format.pp_print_string ppf "S"
  | Exclusive -> Format.pp_print_string ppf "X"

type resource =
  | File
  | Record of string
  | Generic of string
  | Range of string * string

let pp_resource ppf = function
  | File -> Format.pp_print_string ppf "FILE"
  | Record k -> Format.fprintf ppf "REC(%S)" k
  | Generic p -> Format.fprintf ppf "GEN(%S)" p
  | Range (lo, hi) -> Format.fprintf ppf "RANGE[%S,%S)" lo hi

type outcome = Granted | Blocked of int list

(* Every resource maps to an interval [lo, hi) of encoded-key space;
   hi = Keycode.high_value means unbounded above (inclusive of HIGH). *)
let interval = function
  | File -> (Keycode.low_value, Keycode.high_value)
  | Record k -> (k, Keycode.successor k)
  | Generic p -> (
      ( p,
        match Keycode.prefix_upper_bound p with
        | Some b -> b
        | None -> Keycode.high_value ))
  | Range (lo, hi) -> (lo, hi)

let intervals_overlap (lo1, hi1) (lo2, hi2) =
  Keycode.compare_keys lo1 hi2 < 0 && Keycode.compare_keys lo2 hi1 < 0

let modes_conflict a b =
  match (a, b) with Shared, Shared -> false | _ -> true

type entry = {
  e_tx : int;
  e_file : int;
  e_res : resource;
  e_iv : string * string;
  mutable e_mode : mode;
}

type file_table = {
  (* exact-key record locks, the common case, hashed for O(1) probing *)
  points : (string, entry list ref) Hashtbl.t;
  (* file / generic / range locks, normally few *)
  mutable ranged : entry list;
}

type t = {
  sim : Sim.t;
  files : (int, file_table) Hashtbl.t;
  by_tx : (int, entry list ref) Hashtbl.t;
  (* observer for process-pair checkpointing: called on every new grant and
     on every actual S->X upgrade (not on no-op re-grants), so a mirror of
     the table can be maintained elsewhere *)
  mutable grant_hook : (tx:int -> file:int -> resource -> mode -> unit) option;
}

let create sim =
  { sim; files = Hashtbl.create 16; by_tx = Hashtbl.create 16;
    grant_hook = None }

let set_grant_hook t hook = t.grant_hook <- hook

let notify_grant t ~tx ~file res mode =
  match t.grant_hook with None -> () | Some f -> f ~tx ~file res mode

let file_table t file =
  match Hashtbl.find_opt t.files file with
  | Some ft -> ft
  | None ->
      let ft = { points = Hashtbl.create 64; ranged = [] } in
      Hashtbl.replace t.files file ft;
      ft

(* All entries of [file] whose interval overlaps [iv]. For a point probe we
   only consult the matching hash bucket plus the ranged list; for a ranged
   probe we must scan the points too. *)
let overlapping ft res iv =
  let ranged = List.filter (fun e -> intervals_overlap e.e_iv iv) ft.ranged in
  match res with
  | Record k -> (
      match Hashtbl.find_opt ft.points k with
      | Some es -> !es @ ranged
      | None -> ranged)
  | File | Generic _ | Range _ ->
      Hashtbl.fold
        (fun _ es acc ->
          List.fold_left
            (fun acc e ->
              if intervals_overlap e.e_iv iv then e :: acc else acc)
            acc !es)
        ft.points ranged

let index_by_tx t e =
  match Hashtbl.find_opt t.by_tx e.e_tx with
  | Some es -> es := e :: !es
  | None -> Hashtbl.replace t.by_tx e.e_tx (ref [ e ])

let insert ft e =
  match e.e_res with
  | Record k -> (
      match Hashtbl.find_opt ft.points k with
      | Some es -> es := e :: !es
      | None -> Hashtbl.replace ft.points k (ref [ e ]))
  | File | Generic _ | Range _ -> ft.ranged <- e :: ft.ranged

let same_resource a b =
  match (a, b) with
  | File, File -> true
  | Record x, Record y | Generic x, Generic y -> String.equal x y
  | Range (a1, a2), Range (b1, b2) -> String.equal a1 b1 && String.equal a2 b2
  | (File | Record _ | Generic _ | Range _), _ -> false

let acquire t ~tx ~file res mode =
  let s = Sim.stats t.sim in
  s.Stats.lock_requests <- s.Stats.lock_requests + 1;
  Sim.tick t.sim 5;
  let ft = file_table t file in
  let iv = interval res in
  let over = overlapping ft res iv in
  (* an existing identical lock held by tx? *)
  let own =
    List.find_opt (fun e -> e.e_tx = tx && same_resource e.e_res res) over
  in
  let conflicts =
    List.filter (fun e -> e.e_tx <> tx && modes_conflict e.e_mode mode) over
  in
  match conflicts with
  | [] -> (
      match own with
      | Some e ->
          (* re-grant; upgrade S -> X in place *)
          if mode = Exclusive && e.e_mode = Shared then begin
            e.e_mode <- Exclusive;
            notify_grant t ~tx ~file res Exclusive
          end;
          Granted
      | None ->
          let e = { e_tx = tx; e_file = file; e_res = res; e_iv = iv; e_mode = mode } in
          insert ft e;
          index_by_tx t e;
          Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_locks 1;
          notify_grant t ~tx ~file res mode;
          Granted)
  | cs ->
      s.Stats.lock_conflicts <- s.Stats.lock_conflicts + 1;
      let blockers = List.sort_uniq compare (List.map (fun e -> e.e_tx) cs) in
      if Trace.enabled t.sim then
        Trace.instant t.sim ~cat:"lock"
          ~attrs:
            [
              ("file", Int file);
              ("res", Str (Format.asprintf "%a" pp_resource res));
              ("mode", Str (Format.asprintf "%a" pp_mode mode));
              ("blockers", Int (List.length blockers));
            ]
          "lock_conflict";
      Blocked blockers

let remove_entry t e =
  match Hashtbl.find_opt t.files e.e_file with
  | None -> ()
  | Some ft -> (
      match e.e_res with
      | Record k -> (
          match Hashtbl.find_opt ft.points k with
          | Some es ->
              es := List.filter (fun e' -> e' != e) !es;
              if !es = [] then Hashtbl.remove ft.points k
          | None -> ())
      | File | Generic _ | Range _ ->
          ft.ranged <- List.filter (fun e' -> e' != e) ft.ranged)

let release_all t ~tx =
  match Hashtbl.find_opt t.by_tx tx with
  | None -> ()
  | Some es ->
      List.iter (remove_entry t) !es;
      Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_locks
        (-List.length !es);
      Hashtbl.remove t.by_tx tx

let clear_all t =
  let held =
    List.fold_left
      (fun acc (_, es) -> acc + List.length !es)
      0
      (Nsql_util.Tbl.sorted_bindings t.by_tx)
  in
  Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_locks (-held);
  Hashtbl.reset t.files;
  Hashtbl.reset t.by_tx

let held t ~tx =
  match Hashtbl.find_opt t.by_tx tx with
  | Some es -> List.length !es
  | None -> 0

let total_locks t =
  List.fold_left
    (fun acc (_, es) -> acc + List.length !es)
    0
    (Nsql_util.Tbl.sorted_bindings t.by_tx)

(* A deterministic image of every granted lock, ordered by transaction id
   then grant order within the transaction. Used by takeover tests and by
   the denial path to learn which transactions held pre-takeover state. *)
let snapshot t =
  List.concat_map
    (fun (tx, es) ->
      List.rev_map (fun e -> (tx, e.e_file, e.e_res, e.e_mode)) !es)
    (Nsql_util.Tbl.sorted_bindings t.by_tx)

(* Rebuild the table from a grant log — takeover on the new primary. No
   stats, no ticks, no conflict checks: the log only ever contains grants
   that were legal when made, and replaying upgrades last keeps the final
   mode right (an S entry followed by an X entry for the same resource). *)
let restore t entries =
  List.iter
    (fun (tx, file, res, mode) ->
      let ft = file_table t file in
      let own =
        List.find_opt
          (fun e -> e.e_tx = tx && same_resource e.e_res res)
          (overlapping ft res (interval res))
      in
      match own with
      | Some e -> if mode = Exclusive then e.e_mode <- Exclusive
      | None ->
          let e =
            { e_tx = tx; e_file = file; e_res = res; e_iv = interval res;
              e_mode = mode }
          in
          insert ft e;
          index_by_tx t e;
          Moncore.gauge_add (Sim.moncore t.sim) Moncore.G_locks 1)
    entries

module Waitgraph = struct
  type g = (int, int list) Hashtbl.t

  let create () : g = Hashtbl.create 16

  (* Merge, don't replace: a waiter blocked by several holders (e.g. an
     S->X upgrade against multiple readers) has an edge to each of them,
     and edges accumulated across probes must all survive. Callers that
     want replace semantics clear first. *)
  let set_waiting g ~tx ~on =
    let existing = Option.value ~default:[] (Hashtbl.find_opt g tx) in
    Hashtbl.replace g tx (List.sort_uniq compare (existing @ on))

  let clear_waiting g ~tx = Hashtbl.remove g tx

  let clear g = Hashtbl.reset g

  let find_cycle g ~tx =
    (* DFS from tx following wait-for edges; a path back to tx is a cycle *)
    let rec dfs path visited node =
      if List.mem node path && node = tx then Some (List.rev path)
      else if List.mem node visited then None
      else
        let succs = Option.value ~default:[] (Hashtbl.find_opt g node) in
        let rec try_succs = function
          | [] -> None
          | s :: rest -> (
              if s = tx then Some (List.rev (node :: path))
              else
                match dfs (node :: path) (node :: visited) s with
                | Some c -> Some c
                | None -> try_succs rest)
        in
        try_succs succs
    in
    let succs = Option.value ~default:[] (Hashtbl.find_opt g tx) in
    let rec from = function
      | [] -> None
      | s :: rest -> (
          if s = tx then Some [ tx ]
          else
            match dfs [ tx ] [ tx ] s with
            | Some c -> Some c
            | None -> from rest)
    in
    from succs
end

module Row = Nsql_row.Row
module Rowvec = Nsql_row.Rowvec
module Expr = Nsql_expr.Expr
module Fs = Nsql_fs.Fs
module Dp_msg = Nsql_dp.Dp_msg
module Fastsort = Nsql_sort.Fastsort
module Errors = Nsql_util.Errors
module Sim = Nsql_sim.Sim
module Config = Nsql_sim.Config
module Trace = Nsql_trace.Trace

open Errors
open Planner

type ctx = {
  fs : Fs.t;
  sim : Sim.t;
  tx : int;
  read_lock : Dp_msg.lock_mode;
}

type rowset = { cols : string list; rows : Row.row list }

let pp_rowset ppf rs =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " rs.cols);
  List.iter (fun row -> Format.fprintf ppf "%a@," Row.pp_row row) rs.rows;
  Format.fprintf ppf "(%d rows)@]" (List.length rs.rows)

(* The executor has two engines over the same FS traffic:

   - the batched engine (default, [Config.exec_batch]): each FS-DP reply
     buffer flows through the operator chain as one row array, with tight
     loops inside every operator and no per-record closures across
     operator boundaries;
   - the pull engine: the original row-at-a-time reference path, kept for
     A/B runs and as the regression gate.

   Both produce byte-identical rowsets, message traffic, counters and
   simulated clock (test-enforced): the batch boundary is the reply buffer
   the pull path was already draining, and aggregated per-row CPU charges
   fire the same simulation events at the same times as the interleaved
   per-row charges they replace. *)

(* a traced operator span around [f]: [f] gets a [note] for attributes
   known only once the operator has run. Both engines use the same span
   names and attributes, so profiles are comparable across them. *)
let op_span ctx name attrs f =
  if not (Trace.enabled ctx.sim) then f (fun _ -> ())
  else begin
    let sp = Trace.begin_span ctx.sim ~cat:"op" ~attrs name in
    Fun.protect
      ~finally:(fun () -> Trace.finish ctx.sim sp)
      (fun () -> f (fun out -> List.iter (fun (k, v) -> Trace.add_attr sp k v) out))
  end

(* --- pull engine: base-table row streams ----------------------------------- *)

(* pull all rows of the first table's access path *)
let scan_table1 ctx (plan : select_plan) =
  let tbl = plan.p_table in
  match plan.p_access with
  | Ap_primary { access; range; pred; proj } ->
      let sc =
        Fs.open_scan ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~access ~range ?pred
          ?proj ~lock:ctx.read_lock ()
      in
      (* close on every exit — error or raise — since leaving the scan open
         would also leave its SCB and span open *)
      let rec go acc =
        match Fs.scan_next ctx.fs sc with
        | Ok (Some row) -> go (row :: acc)
        | Ok None -> Ok (List.rev acc)
        | Error e -> Error e
      in
      Fun.protect
        ~finally:(fun () -> Fs.close_scan ctx.fs sc)
        (fun () -> go [])
  | Ap_index { index; range; ipred; residual } ->
      let* next, close =
        Fs.index_scan ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~index ~range
          ?pred:ipred ~lock:ctx.read_lock ()
      in
      let rec go acc =
        let* row = next () in
        match row with
        | None -> Ok (List.rev acc)
        | Some row ->
            let keep =
              match residual with None -> true | Some p -> Expr.eval_pred row p
            in
            go (if keep then row :: acc else acc)
      in
      (* close on every exit, like the primary path: a raise mid-decode
         must not leak the index scan's SCB and span *)
      Fun.protect ~finally:close (fun () -> go [])

let scan_table0 ctx (plan : select_plan) =
  let tbl = plan.p_table in
  let path =
    match plan.p_access with
    | Ap_primary _ -> "primary"
    | Ap_index { index; _ } -> "index:" ^ index
  in
  op_span ctx
    ("scan " ^ tbl.Catalog.t_name)
    [ ("table", Trace.Str tbl.Catalog.t_name); ("path", Trace.Str path) ]
    (fun note ->
      let res = scan_table1 ctx plan in
      (match res with
      | Ok rows -> note [ ("rows_out", Trace.Int (List.length rows)) ]
      | Error _ -> ());
      res)

(* one nested-loop / keyed join step: extend each prefix row *)
let join_step1 ctx prefix_rows step =
  let tbl = step.j_table in
  let schema = tbl.Catalog.t_schema in
  match step.j_inner with
  | Ji_keyed { key_exprs } ->
      (* point read per outer row *)
      let* joined =
        Errors.list_map
          (fun prefix ->
            let values = List.map (fun e -> Expr.eval prefix e) key_exprs in
            if List.exists (fun v -> v = Row.Null) values then Ok []
            else
              let* key = Row.key_of_values schema values in
              match
                Fs.read ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~key
                  ~lock:ctx.read_lock
              with
              | Ok record ->
                  let inner = Row.decode_exn schema record in
                  Ok [ Array.append prefix inner ]
              | Error (Errors.Not_found_key _) -> Ok []
              | Error e -> Error e)
          prefix_rows
      in
      Ok (List.concat joined)
  | Ji_scan { pred } ->
      (* rescan the inner per outer row, with the inner-only predicate
         delegated to the Disk Process — and its primary-key conjuncts
         turned into the scan range, so the rescan touches only the
         qualifying span *)
      let range, pred =
        match pred with
        | None -> (Expr.full_range, None)
        | Some p -> (
            match Expr.extract_key_range schema p with
            | range, residual -> (range, residual))
      in
      let* joined =
        Errors.list_map
          (fun prefix ->
            let sc =
              Fs.open_scan ctx.fs tbl.Catalog.t_file ~tx:ctx.tx
                ~access:Fs.A_vsbb ~range ?pred ~lock:ctx.read_lock ()
            in
            let rec go acc =
              match Fs.scan_next ctx.fs sc with
              | Ok (Some inner) -> go (Array.append prefix inner :: acc)
              | Ok None -> Ok (List.rev acc)
              | Error e -> Error e
            in
            Fun.protect
              ~finally:(fun () -> Fs.close_scan ctx.fs sc)
              (fun () -> go []))
          prefix_rows
      in
      Ok (List.concat joined)

let join_step ctx prefix_rows step =
  let tbl = step.j_table in
  let kind =
    match step.j_inner with Ji_keyed _ -> "keyed" | Ji_scan _ -> "scan"
  in
  op_span ctx
    ("join " ^ tbl.Catalog.t_name)
    [
      ("table", Trace.Str tbl.Catalog.t_name);
      ("kind", Trace.Str kind);
      ("rows_in", Trace.Int (List.length prefix_rows));
    ]
    (fun note ->
      let res = join_step1 ctx prefix_rows step in
      (match res with
      | Ok rows -> note [ ("rows_out", Trace.Int (List.length rows)) ]
      | Error _ -> ());
      res)

let apply_post step rows =
  match step.j_post with
  | None -> rows
  | Some p -> List.filter (fun row -> Expr.eval_pred row p) rows

(* --- aggregation ---------------------------------------------------------------

   The client-side group path and the pushed-down path (Disk Process
   partials combined with [Dp_msg.merge_acc]) use the same accumulators,
   so both produce identical values and group order. *)

let finish_spec spec acc = Dp_msg.finish_acc spec.Dp_msg.ag_kind acc

let group_rows1 ctx (g : group_spec) rows =
  let specs = List.map dp_agg_spec g.g_aggs in
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      Sim.tick ctx.sim 5;
      let keys = List.map (fun k -> Expr.eval row k) g.g_keys in
      let kenc =
        let w = Nsql_util.Codec.writer () in
        Row.encode_values w (Array.of_list keys);
        Nsql_util.Codec.contents w
      in
      let accs =
        match Hashtbl.find_opt table kenc with
        | Some (_, accs) -> accs
        | None ->
            let accs = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
            Hashtbl.replace table kenc (keys, accs);
            order := kenc :: !order;
            accs
      in
      List.iter2 (fun spec acc -> Dp_msg.feed_spec acc spec row) specs accs)
    rows;
  (* a grand aggregate over zero rows still yields one row *)
  if Hashtbl.length table = 0 && g.g_keys = [] then begin
    let accs = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
    Hashtbl.replace table "" ([], accs);
    order := [ "" ]
  end;
  let output =
    List.rev_map
      (fun kenc ->
        let keys, accs = Hashtbl.find table kenc in
        Array.of_list (keys @ List.map2 finish_spec specs accs))
      !order
  in
  match g.g_having with
  | None -> output
  | Some h -> List.filter (fun row -> Expr.eval_pred row h) output

let group_rows ctx (g : group_spec) rows =
  op_span ctx "group"
    [
      ("rows_in", Trace.Int (List.length rows));
      ("keys", Trace.Int (List.length g.g_keys));
    ]
    (fun note ->
      let out = group_rows1 ctx g rows in
      note [ ("rows_out", Trace.Int (List.length out)) ];
      out)

(* --- sort / project / limit ------------------------------------------------------ *)

let sort_rows1 ctx order rows =
  if order = [] then rows
  else begin
    let decorated =
      List.map (fun row -> (List.map (fun (e, _) -> Expr.eval row e) order, row)) rows
    in
    let compare_rows (ka, _) (kb, _) =
      let rec go ks (specs : (Expr.t * bool) list) =
        match (ks, specs) with
        | (a, b) :: rest, (_, desc) :: specs ->
            let c = Row.compare_value a b in
            if c <> 0 then if desc then -c else c else go rest specs
        | _ -> 0
      in
      go (List.combine ka kb) order
    in
    let sorted, _stats = Fastsort.sort ctx.sim ~compare:compare_rows decorated in
    List.map snd sorted
  end

let sort_rows ctx order rows =
  if order = [] then rows
  else
    op_span ctx "sort"
      [ ("rows", Trace.Int (List.length rows)) ]
      (fun _ -> sort_rows1 ctx order rows)

let project rows exprs =
  List.map (fun row -> Array.of_list (List.map (fun e -> Expr.eval row e) exprs)) rows

(* order-preserving de-duplication on encoded output rows *)
let distinct rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun row ->
      let w = Nsql_util.Codec.writer () in
      Row.encode_values w row;
      let k = Nsql_util.Codec.contents w in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    rows

let limit n rows =
  match n with
  | None -> rows
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      take n rows

(* --- entry points ------------------------------------------------------------------ *)

(* pushed-down aggregation: no scan — one AGGREGATE re-drive chain per
   partition, the File System merges partials, and the group-output rows
   (keys then finished aggregate values, in first-seen = key order) are
   identical to what [group_rows] would have produced *)
let pushdown_group_rows1 ctx (plan : select_plan) (g : group_spec)
    (ap : agg_pushdown) =
  let* groups =
    Fs.aggregate ctx.fs plan.p_table.Catalog.t_file ~tx:ctx.tx
      ~range:ap.ap_range ?pred:ap.ap_pred ~group_keys:ap.ap_group_keys
      ~aggs:ap.ap_aggs ~lock:ctx.read_lock ()
  in
  let rows =
    List.map
      (fun (keyvals, accs) ->
        Sim.tick ctx.sim 2;
        Array.append keyvals
          (Array.of_list (List.map2 finish_spec ap.ap_aggs accs)))
      groups
  in
  (* a grand aggregate over zero rows still yields one row *)
  let rows =
    if rows = [] && Array.length ap.ap_group_keys = 0 then
      [
        Array.of_list
          (List.map (fun spec -> finish_spec spec (Dp_msg.fresh_acc ())) ap.ap_aggs);
      ]
    else rows
  in
  match g.g_having with
  | None -> Ok rows
  | Some h -> Ok (List.filter (fun row -> Expr.eval_pred row h) rows)

let pushdown_group_rows ctx (plan : select_plan) (g : group_spec)
    (ap : agg_pushdown) =
  op_span ctx
    ("group-pushdown " ^ plan.p_table.Catalog.t_name)
    [
      ("table", Trace.Str plan.p_table.Catalog.t_name);
      ("keys", Trace.Int (Array.length ap.ap_group_keys));
    ]
    (fun note ->
      let res = pushdown_group_rows1 ctx plan g ap in
      (match res with
      | Ok rows -> note [ ("rows_out", Trace.Int (List.length rows)) ]
      | Error _ -> ());
      res)

let run_select_pull ctx (plan : select_plan) =
  let* rows =
    match (plan.p_group, plan.p_pushdown) with
    | Some g, Some ap -> pushdown_group_rows ctx plan g ap
    | _ ->
        let* rows = scan_table0 ctx plan in
        let* rows =
          let rec steps rows = function
            | [] -> Ok rows
            | step :: rest ->
                let* joined = join_step ctx rows step in
                steps (apply_post step joined) rest
          in
          steps rows plan.p_joins
        in
        Ok
          (match plan.p_group with
          | Some g -> group_rows ctx g rows
          | None -> rows)
  in
  let rows = sort_rows ctx plan.p_order rows in
  let rows =
    op_span ctx "emit"
      [ ("rows_in", Trace.Int (List.length rows)) ]
      (fun note ->
        let rows = project rows plan.p_exprs in
        let rows = if plan.p_distinct then distinct rows else rows in
        let rows = limit plan.p_limit rows in
        Sim.tick ctx.sim (2 * List.length rows);
        note [ ("rows_out", Trace.Int (List.length rows)) ];
        rows)
  in
  Ok { cols = plan.p_names; rows }

(* === batched engine ==========================================================

   Operators consume and emit row batches; each batch is one FS-DP reply
   buffer (as the pull path would have drained it). Per-row CPU charges
   are applied once per batch in aggregate where the interleaved work is
   pure OCaml, and re-applied per row exactly where the pull path put them
   when a per-row message follows (keyed joins, index base reads) — see
   [Fs.scan_next_batch] for the contract. *)

(* scan the first table's access path as a list of batches, in order *)
let scan_batches1 ctx (plan : select_plan) =
  let tbl = plan.p_table in
  match plan.p_access with
  | Ap_primary { access; range; pred; proj } ->
      let sc =
        Fs.open_scan ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~access ~range ?pred
          ?proj ~lock:ctx.read_lock ()
      in
      let rec go acc =
        match Fs.scan_next_batch ctx.fs sc with
        | Ok (Some batch) ->
            Nsql_sim.Moncore.observe (Sim.moncore ctx.sim) "batch_rows"
              (float_of_int (Array.length batch));
            go (batch :: acc)
        | Ok None -> Ok (List.rev acc)
        | Error e -> Error e
      in
      Fun.protect
        ~finally:(fun () -> Fs.close_scan ctx.fs sc)
        (fun () -> go [])
  | Ap_index { index; range; ipred; residual } ->
      let* next_batch, close =
        Fs.index_scan_batch ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~index ~range
          ?pred:ipred ~lock:ctx.read_lock ()
      in
      (* the residual filter runs here, a batch at a time *)
      let rec go acc =
        let* batch = next_batch () in
        match batch with
        | None -> Ok (List.rev acc)
        | Some batch ->
            Nsql_sim.Moncore.observe (Sim.moncore ctx.sim) "batch_rows"
              (float_of_int (Array.length batch));
            let batch =
              match residual with
              | None -> batch
              | Some p -> Rowvec.filter (fun row -> Expr.eval_pred row p) batch
            in
            go (if Array.length batch = 0 then acc else batch :: acc)
      in
      Fun.protect ~finally:close (fun () -> go [])

let scan_batches ctx (plan : select_plan) =
  let tbl = plan.p_table in
  let path =
    match plan.p_access with
    | Ap_primary _ -> "primary"
    | Ap_index { index; _ } -> "index:" ^ index
  in
  op_span ctx
    ("scan " ^ tbl.Catalog.t_name)
    [ ("table", Trace.Str tbl.Catalog.t_name); ("path", Trace.Str path) ]
    (fun note ->
      let res = scan_batches1 ctx plan in
      (match res with
      | Ok batches ->
          note
            [
              ("rows_out", Trace.Int (Rowvec.total_rows batches));
              ("batches", Trace.Int (List.length batches));
            ]
      | Error _ -> ());
      res)

(* one join step over a batch of prefix rows *)
let join_batch ctx step batch =
  let tbl = step.j_table in
  let schema = tbl.Catalog.t_schema in
  match step.j_inner with
  | Ji_keyed { key_exprs } ->
      (* point read per outer row: the tick/message interleaving is
         per-row by nature, so only the operator boundary is batched *)
      let out = Rowvec.buf (Array.length batch) in
      let n = Array.length batch in
      let rec go i =
        if i >= n then Ok (Rowvec.contents out)
        else begin
          let prefix = batch.(i) in
          let values = List.map (fun e -> Expr.eval prefix e) key_exprs in
          if List.exists (fun v -> v = Row.Null) values then go (i + 1)
          else
            let* key = Row.key_of_values schema values in
            match
              Fs.read ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~key
                ~lock:ctx.read_lock
            with
            | Ok record ->
                Rowvec.push out (Array.append prefix (Row.decode_exn schema record));
                go (i + 1)
            | Error (Errors.Not_found_key _) -> go (i + 1)
            | Error e -> Error e
        end
      in
      go 0
  | Ji_scan { pred } ->
      let range, pred =
        match pred with
        | None -> (Expr.full_range, None)
        | Some p -> (
            match Expr.extract_key_range schema p with
            | range, residual -> (range, residual))
      in
      let out = Rowvec.buf (max 1 (Array.length batch)) in
      let n = Array.length batch in
      let rec go i =
        if i >= n then Ok (Rowvec.contents out)
        else begin
          let prefix = batch.(i) in
          let sc =
            Fs.open_scan ctx.fs tbl.Catalog.t_file ~tx:ctx.tx ~access:Fs.A_vsbb
              ~range ?pred ~lock:ctx.read_lock ()
          in
          let rec drain () =
            match Fs.scan_next_batch ctx.fs sc with
            | Ok (Some inner) ->
                Array.iter (fun r -> Rowvec.push out (Array.append prefix r)) inner;
                drain ()
            | Ok None -> Ok ()
            | Error e -> Error e
          in
          let* () =
            Fun.protect ~finally:(fun () -> Fs.close_scan ctx.fs sc) drain
          in
          go (i + 1)
        end
      in
      go 0

let apply_post_batches step batches =
  match step.j_post with
  | None -> batches
  | Some p ->
      List.filter_map
        (fun batch ->
          let batch = Rowvec.filter (fun row -> Expr.eval_pred row p) batch in
          if Array.length batch = 0 then None else Some batch)
        batches

let join_batches ctx batches step =
  let tbl = step.j_table in
  let kind =
    match step.j_inner with Ji_keyed _ -> "keyed" | Ji_scan _ -> "scan"
  in
  op_span ctx
    ("join " ^ tbl.Catalog.t_name)
    [
      ("table", Trace.Str tbl.Catalog.t_name);
      ("kind", Trace.Str kind);
      ("rows_in", Trace.Int (Rowvec.total_rows batches));
    ]
    (fun note ->
      let res = Errors.list_map (join_batch ctx step) batches in
      (match res with
      | Ok out -> note [ ("rows_out", Trace.Int (Rowvec.total_rows out)) ]
      | Error _ -> ());
      res)

(* Group identity in the batched engine: the pull path encodes every
   row's key values to a byte string; for non-float keys structural
   equality coincides with encoding equality (the codec is canonical for
   Null/Vint/Vbool/Vstr), so the values themselves can key the hash table
   and the per-row writer allocation and encode disappear. Floats keep
   the encoded form: [-0. = 0.] and NaN make structural and encoded
   equality disagree, and group identity must match the pull engine's
   exactly. *)
type gkey =
  | K_val of Row.value  (** single non-float key, the common case *)
  | K_vals of Row.value list
  | K_row of Row.row
  | K_enc of string

let gkey_of keys =
  if List.exists (function Row.Vfloat _ -> true | _ -> false) keys then
    K_enc
      (let w = Nsql_util.Codec.writer () in
       Row.encode_values w (Array.of_list keys);
       Nsql_util.Codec.contents w)
  else K_vals keys

(* batched group/aggregate: one aggregated tick per batch, then a tight
   feed loop — same accumulators and group order as the pull path *)
let group_batches1 ctx (g : group_spec) batches =
  let specs = List.map dp_agg_spec g.g_aggs in
  let table : (gkey, Row.value list * Dp_msg.agg_acc list) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  let feeds = List.map Dp_msg.feeder specs in
  let fresh gk keys =
    let accs = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
    Hashtbl.replace table gk (keys, accs);
    order := gk :: !order;
    accs
  in
  let feed row accs = List.iter2 (fun f acc -> f acc row) feeds accs in
  (match g.g_keys with
  | [ k ] ->
      (* single group key: the key value itself is the group identity —
         no per-row list, no encode *)
      List.iter
        (fun batch ->
          let n = Array.length batch in
          if n > 0 then Sim.tick ctx.sim (5 * n);
          for i = 0 to n - 1 do
            let row = batch.(i) in
            let v = Expr.eval row k in
            let gk =
              match v with Row.Vfloat _ -> gkey_of [ v ] | _ -> K_val v
            in
            let accs =
              match Hashtbl.find table gk with
              | _, accs -> accs
              | exception Not_found -> fresh gk [ v ]
            in
            feed row accs
          done)
        batches
  | _ ->
      List.iter
        (fun batch ->
          let n = Array.length batch in
          if n > 0 then Sim.tick ctx.sim (5 * n);
          for i = 0 to n - 1 do
            let row = batch.(i) in
            let keys = List.map (fun key -> Expr.eval row key) g.g_keys in
            let gk = gkey_of keys in
            let accs =
              match Hashtbl.find table gk with
              | _, accs -> accs
              | exception Not_found -> fresh gk keys
            in
            feed row accs
          done)
        batches);
  (* a grand aggregate over zero rows still yields one row *)
  if Hashtbl.length table = 0 && g.g_keys = [] then begin
    let accs = List.map (fun _ -> Dp_msg.fresh_acc ()) specs in
    Hashtbl.replace table (K_vals []) ([], accs);
    order := [ K_vals [] ]
  end;
  let output =
    List.rev_map
      (fun gk ->
        let keys, accs = Hashtbl.find table gk in
        Array.of_list (keys @ List.map2 finish_spec specs accs))
      !order
  in
  match g.g_having with
  | None -> output
  | Some h -> List.filter (fun row -> Expr.eval_pred row h) output

let group_batches ctx (g : group_spec) batches =
  op_span ctx "group"
    [
      ("rows_in", Trace.Int (Rowvec.total_rows batches));
      ("keys", Trace.Int (List.length g.g_keys));
    ]
    (fun note ->
      let out = group_batches1 ctx g batches in
      note [ ("rows_out", Trace.Int (List.length out)) ];
      out)

let sort_batches ctx order batches =
  if order = [] then batches
  else begin
    (* sorting needs the whole input anyway: concatenate once and reuse
       the pull path's Fastsort (same simulated sort cost on the same
       input) *)
    let sort () =
      [ Rowvec.of_list (sort_rows1 ctx order (Rowvec.list_of_batches batches)) ]
    in
    if not (Trace.enabled ctx.sim) then sort ()
    else
      op_span ctx "sort"
        [ ("rows", Trace.Int (Rowvec.total_rows batches)) ]
        (fun _ -> sort ())
  end

(* order-preserving de-duplication, array-in array-out; same identity
   fast path as the batched group (floats fall back to the encoding) *)
let distinct_batch rows =
  let seen : (gkey, unit) Hashtbl.t = Hashtbl.create 64 in
  Rowvec.filter
    (fun row ->
      let k =
        if Array.exists (function Row.Vfloat _ -> true | _ -> false) row then
          K_enc
            (let w = Nsql_util.Codec.writer () in
             Row.encode_values w row;
             Nsql_util.Codec.contents w)
        else K_row row
      in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    rows

let emit_batches ctx (plan : select_plan) batches =
  op_span ctx "emit"
    [ ("rows_in", Trace.Int (Rowvec.total_rows batches)) ]
    (fun note ->
      let exprs = Array.of_list plan.p_exprs in
      let projected =
        List.map
          (Rowvec.map (fun row -> Array.map (fun e -> Expr.eval row e) exprs))
          batches
      in
      let rows = Rowvec.concat projected in
      let rows = if plan.p_distinct then distinct_batch rows else rows in
      let rows =
        match plan.p_limit with
        | Some n when Array.length rows > n -> Array.sub rows 0 n
        | _ -> rows
      in
      Sim.tick ctx.sim (2 * Array.length rows);
      note [ ("rows_out", Trace.Int (Array.length rows)) ];
      Rowvec.to_list rows)

let run_select_batched ctx (plan : select_plan) =
  let* batches =
    match (plan.p_group, plan.p_pushdown) with
    | Some g, Some ap ->
        (* the pushed-down path is already set-oriented end to end; its
           group-output rows form the single source batch *)
        let* rows = pushdown_group_rows ctx plan g ap in
        Ok [ Rowvec.of_list rows ]
    | _ ->
        let* batches = scan_batches ctx plan in
        let* batches =
          let rec steps batches = function
            | [] -> Ok batches
            | step :: rest ->
                let* joined = join_batches ctx batches step in
                steps (apply_post_batches step joined) rest
          in
          steps batches plan.p_joins
        in
        Ok
          (match plan.p_group with
          | Some g -> [ Rowvec.of_list (group_batches ctx g batches) ]
          | None -> batches)
  in
  let batches = sort_batches ctx plan.p_order batches in
  Ok { cols = plan.p_names; rows = emit_batches ctx plan batches }

let run_select ctx (plan : select_plan) =
  if (Sim.config ctx.sim).Config.exec_batch then run_select_batched ctx plan
  else run_select_pull ctx plan

let traced_dml ctx name table f =
  op_span ctx (name ^ " " ^ table) [ ("table", Trace.Str table) ] (fun note ->
      let res = f () in
      (match res with Ok n -> note [ ("rows", Trace.Int n) ] | Error _ -> ());
      res)

let run_update ctx (plan : update_plan) =
  traced_dml ctx "update" plan.up_table.Catalog.t_name (fun () ->
      Fs.update_subset ctx.fs plan.up_table.Catalog.t_file ~tx:ctx.tx
        ~range:plan.up_range ?pred:plan.up_pred plan.up_assignments)

let run_delete ctx (plan : delete_plan) =
  traced_dml ctx "delete" plan.dp_table.Catalog.t_name (fun () ->
      Fs.delete_subset ctx.fs plan.dp_table.Catalog.t_file ~tx:ctx.tx
        ~range:plan.dp_range ?pred:plan.dp_pred ())

let run_insert0 ctx (tbl : Catalog.table) ~cols values =
  let schema = tbl.Catalog.t_schema in
  let width = Array.length schema.Row.cols in
  let* positions =
    match cols with
    | None -> Ok None
    | Some names ->
        let* ps = Errors.list_map (Row.field_number schema) names in
        Ok (Some ps)
  in
  let build literals =
    match positions with
    | None ->
        if List.length literals <> width then
          fail
            (Errors.Type_error
               (Printf.sprintf "INSERT supplies %d values for %d columns"
                  (List.length literals) width))
        else Ok (Array.of_list (List.map Binder.lit_value literals))
    | Some ps ->
        if List.length literals <> List.length ps then
          fail (Errors.Type_error "INSERT column/value count mismatch")
        else begin
          let row = Array.make width Row.Null in
          List.iter2
            (fun p l -> row.(p) <- Binder.lit_value l)
            ps literals;
          Ok row
        end
  in
  let rec go n = function
    | [] -> Ok n
    | literals :: rest ->
        let* row = build literals in
        let* () = Fs.insert_row ctx.fs tbl.Catalog.t_file ~tx:ctx.tx row in
        go (n + 1) rest
  in
  go 0 values

let run_insert ctx (tbl : Catalog.table) ~cols values =
  traced_dml ctx "insert" tbl.Catalog.t_name (fun () ->
      run_insert0 ctx tbl ~cols values)

(* The benchmark's own tests, on a reduced scale of the same workloads:
   one seed repeats byte for byte, a second seed changes the inputs and
   still passes every output check, tracing does not perturb, and the
   output checks can fail. *)

open Perfbench_lib
module W = Workloads

let small =
  W.
  {
    rows = 2000;
    rows2 = 200;
    wisc_cache_blocks = 32;
    scan_rounds = 1;
    update_rounds = 3;
    accounts = 100;
    tellers = 10;
    branches = 2;
    warm_txs = 10;
    txs = 60;
  }

let round w plan = snd (Runner.run w plan)

let no_failures (r : Runner.round) =
  Alcotest.(check (list string)) "no failed operation or check" [] r.failures

let sql (plan : W.plan) = List.concat_map (fun (op : W.op) -> op.stmts) plan.timed

let repeats (w : W.t) () =
  let plan = w.plan ~seed:7 in
  let a = round w plan and b = round w (w.plan ~seed:7) in
  no_failures a;
  Alcotest.(check string)
    "simulated metrics and counters repeat" (Runner.sim_fingerprint a)
    (Runner.sim_fingerprint b)

let held_out_seed (w : W.t) () =
  let p7 = w.plan ~seed:7 and p8 = w.plan ~seed:8 in
  Alcotest.(check bool) "inputs differ" true (sql p7 <> sql p8);
  no_failures (round w p8)

let trace_is_free (w : W.t) () =
  let plan = w.plan ~seed:7 in
  let untraced = round w plan in
  let traced = Layers.traced_round w plan in
  no_failures traced.round;
  Alcotest.(check string)
    "traced round matches untraced" (Runner.sim_fingerprint untraced)
    (Runner.sim_fingerprint traced.round);
  Alcotest.(check int) "no dropped spans" 0 traced.spans.dropped;
  Alcotest.(check bool) "spans collected" true (Hashtbl.length traced.spans.count > 0)

(* Skipping one timed operation leaves the final state off the model, so
   the verify checks must fail before and after the restart. *)
let checks_fail (w : W.t) () =
  let plan = w.plan ~seed:7 in
  let skipped = { plan with timed = List.tl plan.timed } in
  let r = round w skipped in
  let verify_failures prefix =
    List.length
      (List.filter (fun f -> String.starts_with ~prefix f) r.failures)
  in
  Alcotest.(check bool) "verify fails" true (verify_failures "verify " > 0);
  Alcotest.(check bool) "verify fails after restart" true
    (verify_failures "restart-verify " > 0)

(* wisc_scan's state never changes, so its per-query answers carry the
   checks: a wrong expected answer must be caught. *)
let scan_check_fails () =
  let w = W.wisc_scan small in
  let plan = w.plan ~seed:7 in
  match plan.timed with
  | q1 :: q2 :: rest ->
      let swapped = { plan with timed = { q1 with check = q2.check } :: q2 :: rest } in
      let r = round w swapped in
      Alcotest.(check bool) "wrong answer detected" true (r.failures <> [])
  | _ -> Alcotest.fail "plan too short"

let () =
  let per (w : W.t) =
    ( w.name,
      [
        Alcotest.test_case "one seed repeats" `Quick (repeats w);
        Alcotest.test_case "held-out seed passes" `Quick (held_out_seed w);
        Alcotest.test_case "tracing is free" `Quick (trace_is_free w);
      ] )
  in
  Alcotest.run "perfbench"
    (List.map per (W.all small)
    @ [
        ( "checks",
          [
            Alcotest.test_case "wisc_scan wrong answer" `Quick scan_check_fails;
            Alcotest.test_case "wisc_update skipped update" `Quick
              (checks_fail (W.wisc_update small));
            Alcotest.test_case "debitcredit skipped transaction" `Quick
              (checks_fail (W.debitcredit small));
          ] );
      ])

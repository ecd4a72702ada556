(* The benchmark: one workload, one seed, closed loop with one client.

     main.exe --workload wisc_scan|wisc_update|debitcredit --seed N
              --seconds S --trace 0|1

   --trace 0 repeats whole rounds (set-up, timed phase, restart) for
   about S seconds, at least twice, and reports the end-to-end metrics;
   simulated-clock values must repeat exactly in every round. --trace 1
   runs a fixed amount of work whatever S is: one untraced round, one
   round with the program's Tracer and Moncore on, and the host probes,
   and reports the per-layer metrics.
   The last line of standard output is the JSON result. *)

open Perfbench_lib
module W = Workloads
module L = Layers

let fi = float_of_int

(* nearest-rank percentile *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

(* Host speed on a shared VM is bimodal: on a 2-vCPU Xeon guest a fixed
   CPU loop ran up to 1.6x slower for stretches of seconds to minutes
   while other tenants were busy. Host latencies therefore vary by 10-40%
   between runs even as each operation's best over a run's rounds, so
   they are printed for reading but are not in the result; the result
   holds the host figures that repeat (allocation, heap, and the median
   round's set-up time) and the simulated ones. Simulated values come
   from the first round; the others must repeat it exactly. *)
let end_to_end (rounds : Runner.round list) =
  let r0 = List.hd rounds in
  let host f = List.map f rounds in
  let ops = fi r0.attempted in
  let d = r0.delta in
  let heap = (Gc.quick_stat ()).top_heap_words in
  L.
    [
      m "host_alloc_words_per_op" "words"
        (median (host (fun r -> r.alloc_words /. fi r.attempted)));
      m "host_peak_heap_mb" "MiB" (fi (heap * (Sys.word_size / 8)) /. 1048576.);
      m "setup_s" "s" (median (host (fun r -> r.setup_s)));
      m "sim_ops_per_s" "1/sim_s" (ops /. (r0.phase_sim_us /. 1e6));
      m "sim_op_p50_ms" "sim_ms" (percentile r0.sim_ms 0.5);
      m "sim_op_p95_ms" "sim_ms" (percentile r0.sim_ms 0.95);
      m "sim_restart_ms" "sim_ms" (r0.restart_sim_us /. 1e3);
      m "msgs_per_op" "count" (fi d.msgs_sent /. ops);
      m "msg_bytes_per_op" "bytes" (fi (d.msg_req_bytes + d.msg_reply_bytes) /. ops);
      m "disk_ios_per_op" "count" (fi (d.disk_reads + d.disk_writes) /. ops);
    ]

(* host latency: each timed operation's best over the run's rounds, which
   all run the same operations *)
let host_latency (rounds : Runner.round list) =
  let r0 = List.hd rounds in
  let best_ms =
    Array.mapi
      (fun i x ->
        List.fold_left (fun a (r : Runner.round) -> Float.min a r.host_ms.(i)) x rounds)
      r0.host_ms
  in
  L.
    [
      m "host_ops_per_s" "1/s"
        (fi r0.attempted /. (Array.fold_left ( +. ) 0. best_ms /. 1e3));
      m "host_op_p50_ms" "ms" (percentile best_ms 0.5);
      m "host_op_p95_ms" "ms" (percentile best_ms 0.95);
      m "restart_s" "s"
        (List.fold_left (fun a (r : Runner.round) -> Float.min a r.restart_s) infinity rounds);
    ]

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let print_metrics (metrics : L.metric list) =
  List.iter
    (fun (x : L.metric) -> Printf.printf "%-40s %16.6f %s\n" x.name x.value x.unit_)
    metrics

let print_result ~correct ~attempted ~failed (metrics : L.metric list) =
  print_metrics metrics;
  let fields =
    List.map
      (fun (x : L.metric) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_number x.value) (json_string x.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let report_failures (r : Runner.round) =
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) r.failures

let ops_run (plan : W.plan) (r : Runner.round) =
  r.attempted + List.length plan.warmup + (2 * List.length plan.verify)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME wisc_scan, wisc_update or debitcredit");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let sc = W.full in
  let w =
    match List.find_opt (fun (w : W.t) -> w.name = !workload) (W.all sc) with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let seed = !seed in
  let plan = w.plan ~seed in
  let t_start = Runner.now_ns () in
  let round () =
    let node, r = Runner.run w plan in
    report_failures r;
    Printf.eprintf "%s seed %d: setup %.3fs, %d ops in %.3fs, restart %.3fs\n%!"
      w.name seed r.setup_s r.attempted r.phase_host_s r.restart_s;
    (node, r)
  in
  if !trace = 0 then begin
    (* start another round only if it should end within the budget *)
    let rec loop acc =
      let _, r = round () in
      let acc = r :: acc in
      let elapsed = Runner.secs_since t_start in
      let per_round = elapsed /. fi (List.length acc) in
      if List.length acc < 2 || elapsed +. per_round <= fi !seconds then loop acc
      else List.rev acc
    in
    let rounds = loop [] in
    let r0 = List.hd rounds in
    let fp0 = Runner.sim_fingerprint r0 in
    let repeat = List.for_all (fun r -> Runner.sim_fingerprint r = fp0) rounds in
    if not repeat then prerr_endline "simulated metrics differ between rounds of one seed";
    let failed = List.fold_left (fun a (r : Runner.round) -> a + List.length r.failures) 0 rounds in
    let attempted = List.fold_left (fun a r -> a + ops_run plan r) 0 rounds in
    print_endline "host latency (not in the result: varies with the host's load)";
    print_metrics (host_latency rounds);
    print_result ~correct:(repeat && failed = 0) ~attempted ~failed (end_to_end rounds)
  end
  else begin
    let node, untraced = round () in
    let traced = L.traced_round w plan in
    report_failures traced.round;
    let identical =
      Runner.sim_fingerprint untraced = Runner.sim_fingerprint traced.round
    in
    if not identical then prerr_endline "tracing changed the simulated metrics";
    if traced.spans.dropped > 0 then prerr_endline "span ring wrapped";
    let probes = L.probes w ~seed node plan in
    let roadmap = L.roadmap_shapes sc.rows in
    let failed = List.length untraced.failures + List.length traced.round.failures in
    let attempted = ops_run plan untraced + ops_run plan traced.round in
    print_result
      ~correct:(identical && failed = 0 && traced.spans.dropped = 0)
      ~attempted ~failed
      (L.per_layer ~untraced traced probes ~roadmap)
  end

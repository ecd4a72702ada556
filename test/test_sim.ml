(* Tests of the simulation world: clock, events, heap, stats, message
   system, disk cost model. *)

module Heap = Nsql_util.Heap
module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Msg = Nsql_msg.Msg
module Disk = Nsql_disk.Disk
module Tracer = Nsql_sim.Tracer
module Trace = Nsql_trace.Trace
module Moncore = Nsql_sim.Moncore
module Monitor = Nsql_monitor.Monitor

let heap_orders () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~prio:p v)
    [ (3., "c"); (1., "a"); (2., "b"); (1., "a2") ];
  let pop () = match Heap.pop_min h with Some (_, v) -> v | None -> "END" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  let p5 = pop () in
  let popped = [ p1; p2; p3; p4; p5 ] in
  Alcotest.(check (list string)) "order with FIFO ties"
    [ "a"; "a2"; "b"; "c"; "END" ]
    popped

let heap_property =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~prio:p ()) prios;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (p, ()) -> p >= last && drain p
      in
      drain neg_infinity)

let clock_advances () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.)) "starts at 0" 0. (Sim.now sim);
  Sim.charge sim 100.;
  Alcotest.(check (float 0.)) "charge" 100. (Sim.now sim);
  Sim.tick sim 50;
  Alcotest.(check (float 0.)) "ticks move clock" 150. (Sim.now sim);
  Alcotest.(check int) "ticks counted" 50 (Sim.stats sim).Stats.cpu_ticks

let events_fire_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~at:50. (fun () -> log := "b" :: !log);
  Sim.schedule sim ~at:10. (fun () -> log := "a" :: !log);
  Sim.schedule sim ~at:90. (fun () -> log := "c" :: !log);
  Sim.charge sim 60.;
  Alcotest.(check (list string)) "due events fired" [ "a"; "b" ] (List.rev !log);
  Sim.drain sim;
  Alcotest.(check (list string)) "drained" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 90. (Sim.now sim)

let event_schedules_event () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~at:10. (fun () ->
      incr fired;
      Sim.schedule sim ~at:20. (fun () -> incr fired));
  Sim.drain sim;
  Alcotest.(check int) "both fired" 2 !fired

(* --- the clock's fast path ----------------------------------------------- *)

(* What an event does when it fires. *)
type handler = H_none | H_after of float | H_tick of int

type step =
  | Schedule of float * handler  (** at [now + offset]; may be in the past *)
  | After of float * handler
  | Tick of int
  | Charge of Moncore.cat option * float
  | Wait of Moncore.cat option * float  (** until [now + offset] *)
  | Capture of step list
  | Flush

let rec pp_step = function
  | Schedule (o, _) -> Printf.sprintf "schedule %+g" o
  | After (d, _) -> Printf.sprintf "after %g" d
  | Tick n -> Printf.sprintf "tick %d" n
  | Charge (c, us) -> Printf.sprintf "charge%s %g" (if c = None then "" else " ~cat") us
  | Wait (c, o) -> Printf.sprintf "wait%s %+g" (if c = None then "" else " ~cat") o
  | Capture l -> "capture [" ^ String.concat "; " (List.map pp_step l) ^ "]"
  | Flush -> "flush"

let step_gen =
  let open QCheck.Gen in
  (* quarter-microsecond multiples, like every configured time constant *)
  let quarters lo hi = map (fun k -> float_of_int k *. 0.25) (int_range lo hi) in
  let handler =
    frequency
      [
        (2, return H_none);
        (1, map (fun d -> H_after d) (quarters 0 200));
        (1, map (fun n -> H_tick n) (int_range 1 40));
      ]
  in
  let cat = oneofl [ None; Some Moncore.C_disk; Some Moncore.C_msg; Some Moncore.C_await ] in
  fix
    (fun self depth ->
      frequency
        ([
           (3, map2 (fun o h -> Schedule (o, h)) (quarters (-40) 400) handler);
           (1, map2 (fun d h -> After (d, h)) (quarters 0 400) handler);
           (3, map (fun n -> Tick n) (int_range 0 60));
           (2, map2 (fun c us -> Charge (c, us)) cat (quarters 0 400));
           (2, map2 (fun c o -> Wait (c, o)) cat (quarters (-40) 400));
           (1, return Flush);
         ]
        @
        if depth = 0 then []
        else [ (1, map (fun l -> Capture l) (list_size (int_bound 5) (self (depth - 1)))) ]))
    2

(* Run a script and record, after every step, the clock and the events
   fired so far with the clock each one saw. Outside captures it also
   checks the queue invariant the fast path is documented against: no
   pending event is earlier than [now]. *)
let run_script ~monitoring script =
  let sim = Sim.create () in
  if monitoring then Monitor.set_enabled sim true;
  let fired = ref [] and next_id = ref 0 and log = ref [] in
  let fresh () =
    incr next_id;
    !next_id
  in
  let rec event h id () =
    fired := (id, Sim.now sim) :: !fired;
    match h with
    | H_none -> ()
    | H_after d -> Sim.after sim d (event H_none (fresh ()))
    | H_tick n -> Sim.tick sim n
  in
  let rec exec = function
    | Schedule (o, h) -> Sim.schedule sim ~at:(Sim.now sim +. o) (event h (fresh ()))
    | After (d, h) -> Sim.after sim d (event h (fresh ()))
    | Tick n -> Sim.tick sim n
    | Charge (cat, us) -> Sim.charge ?cat sim us
    | Wait (cat, o) -> Sim.wait_until ?cat sim (Sim.now sim +. o)
    | Capture l ->
        let (), elapsed = Sim.capture sim (fun () -> List.iter record l) in
        log := `Elapsed elapsed :: !log
    | Flush -> Sim.flush_events sim
  and record step =
    exec step;
    if (not (Sim.in_capture sim))
       && match Sim.next_event sim with Some due -> due < Sim.now sim | None -> false
    then QCheck.Test.fail_reportf "after %s: an event is pending in the past" (pp_step step);
    log := `Step (Sim.now sim, !fired) :: !log
  in
  List.iter record script;
  Sim.drain sim;
  log := `Step (Sim.now sim, !fired) :: !log;
  List.rev !log

let fast_path_equivalence =
  QCheck.Test.make ~name:"clock fast path = monitored path, step by step" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map pp_step l))
       QCheck.Gen.(list_size (int_bound 40) step_gen))
    (fun script -> run_script ~monitoring:false script = run_script ~monitoring:true script)

(* The clock's fast path: with monitoring off and no event due, a tick
   only sets the clock. 4 words per call leaves room for one boxed float
   at a call boundary the compiler does not inline. *)
let tick_allocation () =
  let sim = Sim.create () in
  Sim.schedule sim ~at:1e12 ignore;
  Sim.tick sim 1;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Sim.tick sim 1
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per tick, at most 4" per_call)
    true (per_call <= 4.);
  Alcotest.(check int) "ticks counted" (n + 1) (Sim.stats sim).Stats.cpu_ticks

let measure_diffs () =
  let sim = Sim.create () in
  Sim.tick sim 7;
  let (), delta = Sim.measure sim (fun () -> Sim.tick sim 5) in
  Alcotest.(check int) "delta isolated" 5 delta.Stats.cpu_ticks

(* --- message system ---------------------------------------------------- *)

let msg_roundtrip_and_counters () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let proc_a = Msg.{ node = 0; cpu = 0 } in
  let proc_b = Msg.{ node = 0; cpu = 1 } in
  let server =
    Msg.register sys ~name:"$DATA" ~processor:proc_b (fun req ->
        req ^ "-reply")
  in
  let reply = Msg.send sys ~from:proc_a ~tag:"TEST" server "hello" in
  Alcotest.(check string) "handler ran" "hello-reply" reply;
  let s = Sim.stats sim in
  Alcotest.(check int) "one message" 1 s.Stats.msgs_sent;
  Alcotest.(check int) "req bytes" 5 s.Stats.msg_req_bytes;
  Alcotest.(check int) "reply bytes" 11 s.Stats.msg_reply_bytes;
  Alcotest.(check int) "remote" 1 s.Stats.msgs_remote

let msg_local_vs_remote_cost () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let p0 = Msg.{ node = 0; cpu = 0 } in
  let p1 = Msg.{ node = 0; cpu = 1 } in
  let n1 = Msg.{ node = 1; cpu = 0 } in
  let mk name proc = Msg.register sys ~name ~processor:proc (fun _ -> "") in
  let local = mk "$LOCAL" p0 in
  let cross = mk "$CROSS" p1 in
  let remote = mk "$REMOTE" n1 in
  let cost target =
    let t0 = Sim.now sim in
    ignore (Msg.send sys ~from:p0 ~tag:"T" target "x");
    Sim.now sim -. t0
  in
  let cl = cost local and cc = cost cross and cr = cost remote in
  Alcotest.(check bool) "local < cross" true (cl < cc);
  Alcotest.(check bool) "cross < node" true (cc < cr)

let msg_trace () =
  let sim = Sim.create () in
  let sys = Msg.create sim in
  let p0 = Msg.{ node = 0; cpu = 0 } in
  let server = Msg.register sys ~name:"$D1" ~processor:p0 (fun _ -> "ok") in
  Trace.set_enabled sim true;
  ignore (Msg.send sys ~from:p0 ~tag:"READ" server "req");
  Trace.set_enabled sim false;
  let trace = Trace.msg_spans (Trace.take sim) in
  Alcotest.(check int) "one entry" 1 (List.length trace);
  let sp = List.hd trace in
  Alcotest.(check string) "tag" "READ" sp.Tracer.sp_name;
  (match Trace.attr sp "to" with
  | Some (Trace.Str s) -> Alcotest.(check string) "target" "$D1" s
  | _ -> Alcotest.fail "msg span has no 'to' attribute")

(* --- disk --------------------------------------------------------------- *)

let disk_roundtrip () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  let first = Disk.allocate d 10 in
  let bs = Disk.block_size d in
  let payload = String.init bs (fun i -> Char.chr (i mod 256)) in
  Disk.write d (first + 3) payload;
  Alcotest.(check string) "read back" payload (Disk.read d (first + 3));
  Alcotest.(check string) "other block zero"
    (String.make bs '\x00')
    (Disk.read d first)

let disk_bulk_counts () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 20);
  let s = Sim.stats sim in
  ignore (Disk.read_bulk d ~first:0 ~count:7);
  Alcotest.(check int) "one io" 1 s.Nsql_sim.Stats.disk_reads;
  Alcotest.(check int) "seven blocks" 7 s.Nsql_sim.Stats.blocks_read;
  Alcotest.(check int) "bulk" 1 s.Nsql_sim.Stats.bulk_reads;
  Alcotest.check_raises "bulk limit enforced"
    (Invalid_argument
       "Disk($DATA): bulk I/O of 8 blocks exceeds limit 7") (fun () ->
      ignore (Disk.read_bulk d ~first:0 ~count:8))

let disk_sequential_cheaper () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 100);
  ignore (Disk.read d 10);
  let t0 = Sim.now sim in
  ignore (Disk.read d 11);
  let sequential = Sim.now sim -. t0 in
  let t1 = Sim.now sim in
  ignore (Disk.read d 50);
  let random = Sim.now sim -. t1 in
  Alcotest.(check bool) "sequential cheaper" true (sequential < random)

let disk_mirrored_writes () =
  let sim = Sim.create () in
  let d = Disk.create ~mirrored:true sim ~name:"$MIR" in
  ignore (Disk.allocate d 4);
  let bs = Disk.block_size d in
  Disk.write d 0 (String.make bs 'x');
  let s = Sim.stats sim in
  Alcotest.(check int) "two physical writes" 2 s.Nsql_sim.Stats.disk_writes;
  Alcotest.(check int) "two blocks" 2 s.Nsql_sim.Stats.blocks_written

let disk_async_completion () =
  let sim = Sim.create () in
  let d = Disk.create sim ~name:"$DATA" in
  ignore (Disk.allocate d 20);
  let t0 = Sim.now sim in
  let _data, completion = Disk.read_bulk_async d ~first:0 ~count:7 in
  Alcotest.(check (float 0.)) "clock did not advance" t0 (Sim.now sim);
  Alcotest.(check bool) "completion in the future" true (completion > t0)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick heap_orders;
    QCheck_alcotest.to_alcotest heap_property;
    Alcotest.test_case "clock advances" `Quick clock_advances;
    Alcotest.test_case "events fire in order" `Quick events_fire_in_order;
    Alcotest.test_case "event schedules event" `Quick event_schedules_event;
    Alcotest.test_case "measure diffs stats" `Quick measure_diffs;
    Alcotest.test_case "tick allocates at most 4 words" `Quick tick_allocation;
    QCheck_alcotest.to_alcotest fast_path_equivalence;
    Alcotest.test_case "msg roundtrip and counters" `Quick
      msg_roundtrip_and_counters;
    Alcotest.test_case "msg distance costs" `Quick msg_local_vs_remote_cost;
    Alcotest.test_case "msg trace" `Quick msg_trace;
    Alcotest.test_case "disk roundtrip" `Quick disk_roundtrip;
    Alcotest.test_case "disk bulk I/O counters" `Quick disk_bulk_counts;
    Alcotest.test_case "disk sequential cost" `Quick disk_sequential_cheaper;
    Alcotest.test_case "disk mirrored writes" `Quick disk_mirrored_writes;
    Alcotest.test_case "disk async completion" `Quick disk_async_completion;
  ]

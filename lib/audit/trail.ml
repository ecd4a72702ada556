module Sim = Nsql_sim.Sim
module Stats = Nsql_sim.Stats
module Config = Nsql_sim.Config
module Disk = Nsql_disk.Disk
module Trace = Nsql_trace.Trace

type flush_reason = Flush_full | Flush_timer | Flush_force

type t = {
  sim : Sim.t;
  volume : Disk.t;
  buffer : Buffer.t;
  mutable next_lsn : int64;
  mutable last_staged_lsn : int64;
  mutable durable_lsn : int64;
  mutable write_pos : int;  (** byte offset of the durable trail's end *)
  mutable pending : (int * int64) list;  (** (tx, commit lsn) awaiting flush *)
  mutable timer_armed : bool;
  mutable timer_due : float;
  mutable timer_us : float;
  mutable timer_pinned : bool;
  mutable last_commit_at : float;
  mutable ewma_interval_us : float;
  mutable tail_image : Bytes.t;  (** in-memory image of the partial last block *)
}

let create sim volume =
  let cfg = Sim.config sim in
  {
    sim;
    volume;
    buffer = Buffer.create cfg.Config.audit_buffer_bytes;
    next_lsn = 1L;
    last_staged_lsn = 0L;
    durable_lsn = 0L;
    write_pos = 0;
    pending = [];
    timer_armed = false;
    timer_due = 0.;
    timer_us = cfg.Config.group_commit_timer_us;
    timer_pinned = not cfg.Config.group_commit_adaptive;
    last_commit_at = 0.;
    ewma_interval_us = cfg.Config.group_commit_timer_us;
    tail_image = Bytes.make cfg.Config.block_size '\x00';
  }

let next_lsn t = t.next_lsn
let volume t = t.volume
let durable_lsn t = t.durable_lsn

let set_timer_us t us =
  t.timer_us <- us;
  t.timer_pinned <- true

let current_timer_us t = t.timer_us

(* Write the staged bytes to the volume, continuing the byte stream at
   [write_pos]: the first block is rewritten in full if partially filled. *)
let write_to_volume t data =
  let bs = Disk.block_size t.volume in
  let first_block = t.write_pos / bs in
  let offset = t.write_pos mod bs in
  let total = offset + String.length data in
  let nblocks = (total + bs - 1) / bs in
  (* the partial head block's image is kept in memory between flushes (the
     audit Disk Process never re-reads its own tail) *)
  let images =
    Array.init nblocks (fun i ->
        let block = Bytes.make bs '\x00' in
        if i = 0 && offset > 0 then
          Bytes.blit t.tail_image 0 block 0 offset;
        (* copy the slice of [data] that lands in this block *)
        let data_start = max 0 ((i * bs) - offset) in
        let block_start = if i = 0 then offset else 0 in
        let len =
          min (String.length data - data_start) (bs - block_start)
        in
        if len > 0 then Bytes.blit_string data data_start block block_start len;
        Bytes.to_string block)
  in
  (* make sure the volume is large enough *)
  let needed = first_block + nblocks in
  if Disk.blocks t.volume < needed then
    ignore (Disk.allocate t.volume (needed - Disk.blocks t.volume));
  (* bulk-write in chunks bounded by the bulk I/O limit *)
  let limit = Disk.max_bulk_blocks t.volume in
  let rec write_chunks i =
    if i < nblocks then begin
      let n = min limit (nblocks - i) in
      Disk.write_bulk t.volume ~first:(first_block + i)
        (Array.sub images i n);
      write_chunks (i + n)
    end
  in
  write_chunks 0;
  t.write_pos <- t.write_pos + String.length data;
  (* remember the new tail image for the next flush *)
  let tail_idx = (t.write_pos - 1) / bs - first_block in
  if tail_idx >= 0 && tail_idx < nblocks then
    t.tail_image <- Bytes.of_string images.(tail_idx)

let flush t reason =
  if Buffer.length t.buffer > 0 then begin
    let sp =
      if Trace.enabled t.sim then
        Trace.begin_span t.sim ~cat:"tmf"
          ~attrs:
            [
              ( "reason",
                Trace.Str
                  (match reason with
                  | Flush_full -> "full"
                  | Flush_timer -> "timer"
                  | Flush_force -> "force") );
              ("bytes", Trace.Int (Buffer.length t.buffer));
            ]
          "audit_flush"
      else None
    in
    let s = Sim.stats t.sim in
    s.Stats.audit_flushes <- s.Stats.audit_flushes + 1;
    (match reason with
    | Flush_full -> s.Stats.audit_flush_full <- s.Stats.audit_flush_full + 1
    | Flush_timer -> s.Stats.audit_flush_timer <- s.Stats.audit_flush_timer + 1
    | Flush_force -> ());
    let data = Buffer.contents t.buffer in
    Buffer.clear t.buffer;
    write_to_volume t data;
    t.durable_lsn <- t.last_staged_lsn;
    (* the flush commits every pending transaction whose commit record is
       now durable: one I/O, a group of commits *)
    let committed, still_waiting =
      List.partition (fun (_, lsn) -> Int64.compare lsn t.durable_lsn <= 0)
        t.pending
    in
    s.Stats.group_commit_txs <- s.Stats.group_commit_txs + List.length committed;
    t.pending <- still_waiting;
    if t.pending = [] then t.timer_armed <- false;
    Trace.add_attr sp "group_commits" (Trace.Int (List.length committed));
    Trace.finish t.sim sp
  end

let append t ~tx body =
  let lsn = t.next_lsn in
  t.next_lsn <- Int64.add t.next_lsn 1L;
  let record = Audit_record.{ lsn; tx; body } in
  let encoded = Audit_record.encode record in
  Buffer.add_string t.buffer encoded;
  t.last_staged_lsn <- lsn;
  let s = Sim.stats t.sim in
  s.Stats.audit_records <- s.Stats.audit_records + 1;
  s.Stats.audit_bytes <- s.Stats.audit_bytes + String.length encoded;
  Sim.tick t.sim 5;
  let cfg = Sim.config t.sim in
  if Buffer.length t.buffer >= cfg.Config.audit_buffer_bytes then
    flush t Flush_full;
  lsn

let force t lsn =
  if Int64.compare t.durable_lsn lsn < 0 then begin
    if Int64.compare t.last_staged_lsn lsn < 0 then
      invalid_arg "Trail.force: lsn not yet appended";
    flush t Flush_force
  end

(* Helland adaptation: aim the timer at collecting [target_batch] commits,
   estimated from the EWMA of commit inter-arrival times, within bounds. *)
let target_batch = 4.
let min_timer_us = 1_000.
let max_timer_us = 50_000.

let adapt_timer t =
  if not t.timer_pinned then begin
    let now = Sim.now t.sim in
    if t.last_commit_at > 0. then begin
      let interval = now -. t.last_commit_at in
      t.ewma_interval_us <-
        (0.8 *. t.ewma_interval_us) +. (0.2 *. interval)
    end;
    t.last_commit_at <- now;
    t.timer_us <-
      Float.min max_timer_us
        (Float.max min_timer_us (target_batch *. t.ewma_interval_us))
  end

let arm_timer t =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    let due = Sim.now t.sim +. t.timer_us in
    t.timer_due <- due;
    Sim.schedule t.sim ~at:due (fun () ->
        (* the timer may have been logically disarmed by an earlier flush *)
        if t.timer_armed && t.pending <> [] then flush t Flush_timer)
  end

let request_commit t ~tx lsn =
  adapt_timer t;
  if Int64.compare lsn t.durable_lsn > 0 then begin
    t.pending <- (tx, lsn) :: t.pending;
    arm_timer t
  end

let await_durable t lsn =
  let guard = ref 0 in
  while Int64.compare t.durable_lsn lsn < 0 do
    incr guard;
    if !guard > 1000 then failwith "Trail.await_durable: stuck";
    if t.timer_armed then begin
      (* group-commit: idle until the timer pops *)
      Sim.wait_until ~cat:Nsql_sim.Moncore.C_await t.sim t.timer_due;
      Sim.flush_events t.sim;
      (* the timer event may have found nothing pending; ensure progress *)
      if Int64.compare t.durable_lsn lsn < 0 then flush t Flush_timer
    end
    else force t lsn
  done

let read_durable t =
  let bs = Disk.block_size t.volume in
  let nblocks = (t.write_pos + bs - 1) / bs in
  if nblocks = 0 then []
  else begin
    let buf = Buffer.create t.write_pos in
    let limit = Disk.max_bulk_blocks t.volume in
    let rec read_chunks i =
      if i < nblocks then begin
        let n = min limit (nblocks - i) in
        Array.iter (Buffer.add_string buf)
          (Disk.read_bulk t.volume ~first:i ~count:n);
        read_chunks (i + n)
      end
    in
    read_chunks 0;
    let bytes_ = String.sub (Buffer.contents buf) 0 t.write_pos in
    let r = Nsql_util.Codec.reader bytes_ in
    let records = ref [] in
    while not (Nsql_util.Codec.at_end r) do
      records := Audit_record.decode r :: !records
    done;
    List.rev !records
  end

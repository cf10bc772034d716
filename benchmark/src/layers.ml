(* The per-layer metrics of a traced run, read where each layer keeps
   them: the program's [Obs] counters and histograms, its [Prof]
   simulated-time span tree, the benchmark's own host-time spans
   ({!Span}) and the runtime's [Gc] counters. Every workload reports
   every metric; a layer the workload bypasses reads 0.

   Counts are totals over the measured phase; [.sim_ms] and [.host_us]
   are means per call; [drive.*_ms] are per workload operation. *)

module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let all =
  [
    ("ladder.max_rps", "1/s");
    ("ladder.rungs", "count");
    ("gen.late_p99_ms", "ms");
    ("gen.backlog_max", "count");
    ("net.send.calls", "count");
    ("net.send.host_us", "us");
    ("net.poll.useful_ratio", "ratio");
    ("server.tick.calls", "count");
    ("server.tick.host_us", "us");
    ("server.nak_ratio", "ratio");
    ("server.wait_p99_ms", "ms");
    ("server.service_p99_ms", "ms");
    ("server.get.sim_ms", "ms");
    ("server.put.sim_ms", "ms");
    ("server.shared_sweeps", "count");
    ("directory.lookup.calls", "count");
    ("directory.lookup.sim_ms", "ms");
    ("directory.lookup.host_us", "us");
    ("directory.pages", "count");
    ("file.read.sim_ms", "ms");
    ("file.read.host_us", "us");
    ("file.read.words_per_s", "1/s");
    ("file.write.sim_ms", "ms");
    ("file.write.host_us", "us");
    ("file.create.sim_ms", "ms");
    ("file.delete.sim_ms", "ms");
    ("page.read.calls", "count");
    ("page.read.sim_ms", "ms");
    ("page.write.calls", "count");
    ("page.write.sim_ms", "ms");
    ("fs.allocate.calls", "count");
    ("fs.allocate.sim_ms", "ms");
    ("fs.free.calls", "count");
    ("fs.flush.sim_ms", "ms");
    ("bio.hit_ratio", "ratio");
    ("bio.fills", "count");
    ("bio.evictions", "count");
    ("bio.absorbed", "count");
    ("bio.sectors_per_flush", "sectors");
    ("bio.write_conflicts", "count");
    ("label_cache.hit_ratio", "ratio");
    ("sched.sweeps", "count");
    ("sched.requests_per_sweep", "requests");
    ("sched.merged_batches", "count");
    ("drive.ops", "count");
    ("drive.seeks", "count");
    ("drive.seek_ms", "ms");
    ("drive.rotation_ms", "ms");
    ("drive.transfer_ms", "ms");
    ("drive.busy_pct", "%");
    ("drive.op_p99_ms", "ms");
    ("drive.retries", "count");
    ("scavenger.sim_s", "s");
    ("scavenger.host_ms", "ms");
    ("scavenger.sectors_scanned", "count");
    ("boot.sim_ms", "ms");
    ("boot.host_ms", "ms");
    ("boot.escalations", "count");
    ("fsck.host_ms", "ms");
    ("fsck.violations", "count");
    ("host.raw_us_per_op", "us");
    ("host.kernel_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace_overhead_pct", "%");
  ]

let unit_of name = List.assoc name all

let counter name = match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0

let histogram name =
  match Obs.find name with
  | Some (Obs.Histogram s) -> s
  | Some (Obs.Counter _) | None ->
      { Obs.count = 0; sum = 0; min = 0; max = 0; mean = 0.0; p50 = 0; p90 = 0; p99 = 0 }

(* Calls and simulated microseconds of every [Prof] node so named. *)
let prof name =
  List.fold_left
    (fun (calls, us) (n : Prof.snapshot) ->
      if String.equal n.Prof.name name then (calls + n.Prof.calls, us + n.Prof.total_us)
      else (calls, us))
    (0, 0)
    (Prof.flatten (Prof.tree ()))

let per_call (calls, us) =
  if calls = 0 then 0.0 else float_of_int us /. 1e3 /. float_of_int calls

let f = float_of_int

(* Everything the program and the spans recorded since the phase began
   ([Obs.reset] and {!Span.reset} at its start, [gc0] sampled there).
   [extra] carries what only the workload knows: the generator, the
   server's NAKs, recovery timings. *)
let collect ~ops ~sim_us ~(gc0 : Gc.stat) ~extra =
  let gc = Gc.quick_stat () in
  let per_op x = if ops = 0 then 0.0 else x /. f ops in
  let page_read = prof "page.read" and page_write = prof "page.write" in
  let alloc = prof "fs.allocate_page" and flush = prof "fs.flush" in
  let seek = counter "disk.seek_us"
  and rot = counter "disk.rotational_wait_us"
  and xfer = counter "disk.transfer_us" in
  let sweeps = counter "disk.sched.sweeps" in
  let bio_hits = counter "fs.bio.hits" and bio_misses = counter "fs.bio.misses" in
  let lc_hits = counter "fs.label_cache.hits" in
  let lc_misses = counter "fs.label_cache.misses" in
  let flushed = counter "fs.bio.flushed_sectors" in
  let bio_flushes = counter "fs.bio.flushes" in
  let measured =
    [
      ("net.send.calls", f (Span.calls "net.send"));
      ("net.send.host_us", Span.self_us "net.send");
      ("server.tick.calls", f (Span.calls "server.tick"));
      ("server.tick.host_us", Span.self_us "server.tick");
      ("server.wait_p99_ms", f (histogram "trace.wait_us").Obs.p99 /. 1e3);
      ("server.service_p99_ms", f (histogram "trace.service_us").Obs.p99 /. 1e3);
      ("server.get.sim_ms", (histogram "server.get_us").Obs.mean /. 1e3);
      ("server.put.sim_ms", (histogram "server.put_us").Obs.mean /. 1e3);
      ("server.shared_sweeps", f (counter "server.activities.shared_sweeps"));
      ("directory.lookup.calls", f (Span.calls "directory.lookup"));
      ("directory.lookup.sim_ms", Span.sim_ms "directory.lookup");
      ("directory.lookup.host_us", Span.self_us "directory.lookup");
      ("file.read.sim_ms", Span.sim_ms "file.read");
      ("file.read.host_us", Span.self_us "file.read");
      ("file.write.sim_ms", Span.sim_ms "file.write");
      ("file.write.host_us", Span.self_us "file.write");
      ("file.create.sim_ms", Span.sim_ms "file.create");
      ("file.delete.sim_ms", Span.sim_ms "file.delete");
      ("page.read.calls", f (fst page_read));
      ("page.read.sim_ms", per_call page_read);
      ("page.write.calls", f (fst page_write));
      ("page.write.sim_ms", per_call page_write);
      ("fs.allocate.calls", f (fst alloc));
      ("fs.allocate.sim_ms", per_call alloc);
      ("fs.free.calls", f (fst (prof "fs.free_page")));
      ("fs.flush.sim_ms", per_call flush);
      ("bio.hit_ratio", Stats.ratio bio_hits (bio_hits + bio_misses));
      ("bio.fills", f (counter "fs.bio.fills"));
      ("bio.evictions", f (counter "fs.bio.evictions"));
      ("bio.absorbed", f (counter "fs.bio.absorbed"));
      ("bio.sectors_per_flush", Stats.ratio flushed bio_flushes);
      ("bio.write_conflicts", f (counter "fs.bio.write_conflicts"));
      ("label_cache.hit_ratio", Stats.ratio lc_hits (lc_hits + lc_misses));
      ("sched.sweeps", f sweeps);
      ("sched.requests_per_sweep", Stats.ratio (counter "disk.sched.requests") sweeps);
      ("sched.merged_batches", f (counter "disk.sched.merged_batches"));
      ("drive.ops", f (counter "disk.operations"));
      ("drive.seeks", f (counter "disk.seeks"));
      ("drive.seek_ms", per_op (f seek /. 1e3));
      ("drive.rotation_ms", per_op (f rot /. 1e3));
      ("drive.transfer_ms", per_op (f xfer /. 1e3));
      ( "drive.busy_pct",
        if sim_us = 0 then 0.0 else 100.0 *. f (seek + rot + xfer) /. f sim_us );
      ("drive.op_p99_ms", f (histogram "disk.op_us").Obs.p99 /. 1e3);
      ("drive.retries", f (counter "disk.retries"));
      (* Less what host calibration itself cost the runtime. *)
      ( "gc.minor_words_per_op",
        per_op
          (gc.Gc.minor_words -. gc0.Gc.minor_words -. !Host.calibration_minor_words) );
      ( "gc.promoted_words_per_op",
        per_op
          (gc.Gc.promoted_words -. gc0.Gc.promoted_words
          -. !Host.calibration_promoted_words) );
      ( "gc.major_collections",
        f
          (gc.Gc.major_collections - gc0.Gc.major_collections
          - !Host.calibration_major_collections) );
    ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name measured) ~default:0.0
      in
      (name, v))
    all

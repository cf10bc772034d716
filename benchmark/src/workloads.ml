(* The four workloads, each run start to finish: set-up (timed, repeated,
   median reported), the measured phase, the ladder where there is one,
   and the correctness oracles. One result record per run. *)

module Obs = Alto_obs.Obs
module Json = Alto_obs.Json
module Directory = Alto_fs.Directory
module File = Alto_fs.File
module Fsck = Alto_fs.Fsck
module Flight = Alto_fs.Flight

type result = {
  workload : string;
  attempted : int;
  failed : int;
  failures : string list;
  end_to_end : (string * float) list;
  samples : (string * int) list;  (** The count behind each end-to-end metric. *)
  layers : (string * float) list;
  curve : Json.t list;
  sim : string;  (** Every simulated-clock result, printed: equal runs replay. *)
}

let names = [ "serve_hot"; "serve_cold"; "session"; "recover" ]

(* The end-to-end metrics in report order: name, unit, and the clock
   that measures it. *)
let end_to_end =
  [
    ("latency_ms", "ms", "sim");
    ("tail_ms", "ms", "sim");
    ("throughput", "1/s", "sim");
    ("host_us_per_op", "us", "host");
    ("peak_mem_mb", "MB", "host");
    ("setup_s", "s", "host");
  ]

(* Set up from scratch, each time on a quiet registry, at least seven
   times and until a second of CPU has gone into it, and keep the
   last; [setup_s] is the median of the calibrated times ({!Host}), and
   the count is its sample size. A set-up of a few milliseconds thus
   still gets a steady reading. *)
let timed_setup build =
  let rec go times spent =
    Obs.reset ();
    Flight.disable ();
    let t0 = Host.cpu_us () in
    let x = build () in
    let us = Host.cpu_us () -. t0 in
    let times = (Host.normalize us ~kernel_us:(Host.calibrate ()) /. 1e6) :: times in
    let n = List.length times in
    if n >= 7 && (spent +. us >= 1e6 || n >= 60) then
      ((Stats.median (Array.of_list times), n), x)
    else go times (spent +. us)
  in
  go [] 0.0

(* Start a measured phase: a quiet registry and span table. *)
let begin_phase () =
  Obs.reset ();
  Span.reset ();
  Host.reset ();
  Gc.quick_stat ()

(* [host_us_per_op] from a phase's stretches (segments, or recover's
   cycles), each calibrated on its own: the mean over all of them, so
   every part of the workload's mix counts. A lower quartile would
   read only the cheapest stretches, and which stretches are cheap
   depends on the seed. The raw reading and the kernel's go to the
   per-layer table. *)
let host_cost ~raw ~kernels =
  let calibrated = Array.map2 (fun us k -> Host.normalize us ~kernel_us:k) raw kernels in
  ( Stats.mean calibrated,
    [ ("host.raw_us_per_op", Stats.mean raw); ("host.kernel_us", Stats.mean kernels) ] )

let peak_mem_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let directory_pages fs =
  match Directory.open_root fs with
  | Ok root -> float_of_int (File.last_page root)
  | Error _ -> 0.0

let ms_of_us a = Array.map (fun us -> float_of_int us /. 1e3) a

(* The typical latency is the median, or for a sample with two modes
   (recoveries that did or did not escalate) the mean; the tail is the
   highest percentile the sample supports. *)
let latency_metrics ?(typical = `Median) ms =
  let sorted = Stats.sorted_floats ms in
  [
    ( "latency_ms",
      match typical with
      | `Median -> Stats.quantile_sorted sorted 0.5
      | `Mean -> Stats.mean ms );
    ("tail_ms", Stats.quantile_sorted sorted (Stats.tail_percentile (Array.length ms)));
  ]

let fmt_float x = Printf.sprintf "%.6g" x

(* {2 serve_hot and serve_cold} *)

let serve (cfg : Serve.config) ~seed ~ref_arrivals =
  let warm w =
    let rate = cfg.Serve.ref_rate and n = cfg.Serve.warmup in
    let a = Serve.arrivals cfg ~seed ~stream:2 ~start_us:(Serve.now_us w) ~rate ~n in
    ignore (Serve.run_phase w a : Serve.phase)
  in
  let (setup_s, setups), w =
    timed_setup (fun () ->
        let w = Serve.build cfg ~seed in
        warm w;
        w)
  in
  let gc0 = begin_phase () in
  let t0 = Serve.now_us w in
  let rate = cfg.Serve.ref_rate in
  let a = Serve.arrivals cfg ~seed ~stream:3 ~start_us:t0 ~rate ~n:ref_arrivals in
  let meter = Host.meter () in
  let p = Serve.run_phase ~meter w a in
  let late_ms = Stats.sorted_floats (ms_of_us p.Serve.late_us) in
  let host_us_per_op, host_layers =
    host_cost ~raw:(Host.raw meter) ~kernels:(Host.kernels meter)
  in
  let layers =
    Layers.collect ~ops:ref_arrivals ~sim_us:(Serve.now_us w - t0) ~gc0
      ~extra:
        ([
          ("gen.late_p99_ms", Stats.quantile_sorted late_ms 0.99);
          ("gen.backlog_max", float_of_int p.Serve.backlog_max);
          ("net.poll.useful_ratio", Stats.ratio p.Serve.useful_polls p.Serve.polls);
          ("server.nak_ratio", Stats.ratio p.Serve.naks p.Serve.sends);
          ("directory.pages", directory_pages w.Serve.fs);
        ]
        @ host_layers)
  in
  let rungs, max_rps = Span.paused (fun () -> Serve.ladder w ~seed) in
  let layers =
    List.map
      (fun (n, v) ->
        match n with
        | "ladder.max_rps" -> (n, max_rps)
        | "ladder.rungs" -> (n, float_of_int (List.length rungs))
        | _ -> (n, v))
      layers
  in
  Span.paused (fun () -> Serve.check_puts w);
  let curve =
    List.map
      (fun (r : Serve.rung) ->
        let lat = Stats.sorted_floats (Serve.latencies_ms r.Serve.phase) in
        let late = Stats.sorted_floats (ms_of_us r.Serve.phase.Serve.late_us) in
        Json.Obj
          [
            ("rate", Json.Float r.Serve.rate);
            ("offered", Json.Int r.Serve.phase.Serve.offered);
            ("completed", Json.Int r.Serve.phase.Serve.answered);
            ("completed_rps", Json.Float (Serve.completed_rps r.Serve.phase));
            ("p50_ms", Json.Float (Stats.quantile_sorted lat 0.5));
            ("p99_ms", Json.Float (Serve.p99_ms r.Serve.phase));
            ("misses", Json.Int r.Serve.phase.Serve.misses);
            ("naks", Json.Int r.Serve.phase.Serve.naks);
            ("bio_hit_ratio", Json.Float r.Serve.bio_hit_ratio);
            ("late_p99_ms", Json.Float (Stats.quantile_sorted late 0.99));
            ("stopped_early", Json.Bool r.Serve.phase.Serve.stopped_early);
            ("pass", Json.Bool r.Serve.pass);
          ])
      rungs
  in
  let e2e =
    latency_metrics (Serve.latencies_ms p)
    @ [
        ("throughput", Serve.busy_rps p);
        ("host_us_per_op", host_us_per_op);
        ("peak_mem_mb", peak_mem_mb ());
        ("setup_s", setup_s);
      ]
  in
  let attempted =
    cfg.Serve.warmup + ref_arrivals
    + List.fold_left (fun n (r : Serve.rung) -> n + r.Serve.phase.Serve.offered) 0 rungs
  in
  {
    workload = cfg.Serve.name;
    attempted;
    failed = w.Serve.failed;
    failures = List.rev w.Serve.failures;
    end_to_end = e2e;
    samples =
      [
        ("latency_ms", ref_arrivals);
        ("tail_ms", ref_arrivals);
        ("throughput", ref_arrivals);
        ("host_us_per_op", Array.length (Host.raw meter));
        ("peak_mem_mb", 1);
        ("setup_s", setups);
      ];
    layers;
    curve;
    sim =
      String.concat " "
        (List.map fmt_float
           [
             List.assoc "latency_ms" e2e;
             List.assoc "tail_ms" e2e;
             List.assoc "throughput" e2e;
             max_rps;
             float_of_int p.Serve.naks;
             float_of_int (Serve.now_us w);
           ])
      ^ Json.to_string (Json.List curve);
  }

(* {2 session} *)

let session ~seed ~ops =
  let (setup_s, setups), t = timed_setup (fun () -> Session.build ~seed) in
  let gc0 = begin_phase () in
  t.Ops.words_read <- 0;
  t.Ops.read_us <- 0;
  let r = Session.run ~seed ~ops t in
  let host_us_per_op, host_layers =
    host_cost ~raw:(Host.raw r.Session.host) ~kernels:(Host.kernels r.Session.host)
  in
  let layers =
    Layers.collect ~ops ~sim_us:r.Session.sim_us ~gc0
      ~extra:
        ([
          ( "file.read.words_per_s",
            if t.Ops.read_us = 0 then 0.0
            else float_of_int t.Ops.words_read *. 1e6 /. float_of_int t.Ops.read_us );
          ("directory.pages", directory_pages t.Ops.fs);
        ]
        @ host_layers)
  in
  Span.paused (fun () -> Ops.verify_all t);
  let ops_per_s = float_of_int ops *. 1e6 /. float_of_int r.Session.sim_us in
  let e2e =
    latency_metrics (ms_of_us r.Session.latency_us)
    @ [
        ("throughput", ops_per_s);
        ("host_us_per_op", host_us_per_op);
        ("peak_mem_mb", peak_mem_mb ());
        ("setup_s", setup_s);
      ]
  in
  {
    workload = "session";
    attempted = ops;
    failed = t.Ops.failed;
    failures = List.rev t.Ops.failures;
    end_to_end = e2e;
    samples =
      [
        ("latency_ms", ops);
        ("tail_ms", ops);
        ("throughput", ops);
        ("host_us_per_op", Array.length (Host.raw r.Session.host));
        ("peak_mem_mb", 1);
        ("setup_s", setups);
      ];
    layers;
    curve = [];
    sim =
      String.concat " "
        (List.map fmt_float
           [
             List.assoc "latency_ms" e2e;
             List.assoc "tail_ms" e2e;
             ops_per_s;
             float_of_int r.Session.sim_us;
           ]);
  }

(* {2 recover} *)

let recover ~seed ~cycles =
  let (setup_s, setups), pack =
    timed_setup (fun () -> Recover.build (Gen.make ~seed ~stream:21))
  in
  let gc0 = begin_phase () in
  let drive, t, cs, sim_us = Recover.run ~seed ~cycles pack in
  let cs = Array.of_list cs in
  let field f = Array.map f cs in
  let mean f = Stats.mean (field f) in
  let total f = float_of_int (Array.fold_left (fun n c -> n + f c) 0 cs) in
  let scavenge_s =
    Stats.median (field (fun c -> float_of_int c.Recover.scavenge_us /. 1e6))
  in
  let host_us_per_op, host_layers =
    host_cost
      ~raw:(field (fun c -> c.Recover.host_us))
      ~kernels:(field (fun c -> c.Recover.kernel_us))
  in
  let layers =
    Layers.collect ~ops:cycles ~sim_us ~gc0
      ~extra:
        ([
           ("scavenger.sim_s", scavenge_s);
          ("scavenger.host_ms", mean (fun c -> c.Recover.scavenge_host_us /. 1e3));
          ( "scavenger.sectors_scanned",
            mean (fun c -> float_of_int c.Recover.sectors_scanned) );
          ("boot.sim_ms", mean (fun c -> float_of_int c.Recover.boot_us /. 1e3));
          ("boot.host_ms", mean (fun c -> c.Recover.boot_host_us /. 1e3));
          ("boot.escalations", total (fun c -> if c.Recover.escalated then 1 else 0));
          ("fsck.host_ms", mean (fun c -> c.Recover.fsck_host_us /. 1e3));
          ("fsck.violations", total (fun c -> c.Recover.violations));
          ("directory.pages", directory_pages t.Ops.fs);
        ]
        @ host_layers)
  in
  (* The last word: the pack the final scavenge left is certified and
     holds exactly what the model says. *)
  Span.paused (fun () ->
      Ops.flush t;
      let final = Fsck.check drive in
      List.iter
        (fun issue -> Ops.fail t (Format.asprintf "final fsck: %a" Fsck.pp_issue issue))
        final.Fsck.violations;
      Ops.verify_all t);
  let sectors_per_s =
    Stats.median
      (field (fun c ->
           float_of_int c.Recover.sectors_scanned *. 1e6
           /. float_of_int c.Recover.scavenge_us))
  in
  let e2e =
    latency_metrics ~typical:`Mean
      (field (fun c -> float_of_int c.Recover.recover_us /. 1e3))
    @ [
        ("throughput", sectors_per_s);
        ("host_us_per_op", host_us_per_op);
        ("peak_mem_mb", peak_mem_mb ());
        ("setup_s", setup_s);
      ]
  in
  {
    workload = "recover";
    attempted = cycles;
    failed = t.Ops.failed;
    failures = List.rev t.Ops.failures;
    end_to_end = e2e;
    samples =
      [
        ("latency_ms", cycles);
        ("tail_ms", cycles);
        ("throughput", cycles);
        ("host_us_per_op", cycles);
        ("peak_mem_mb", 1);
        ("setup_s", setups);
      ];
    layers;
    curve = [];
    sim =
      String.concat " "
        (List.map fmt_float
           [
             List.assoc "latency_ms" e2e;
             List.assoc "tail_ms" e2e;
             sectors_per_s;
             float_of_int sim_us;
           ]);
  }

(* {2 Sizing}

   A run's measured phase is sized from [seconds], at rates that take
   about that long on a 2-core x86-64 container: serve_hot 15k
   arrivals, serve_cold 4k arrivals, session 8k operations and recover
   15 crash cycles per second. Sizing never depends on the host clock, so
   a seed and a length replay the same simulation anywhere. *)
let run name ~seed ~seconds =
  match name with
  | "serve_hot" -> serve Serve.hot ~seed ~ref_arrivals:(15_000 * seconds)
  | "serve_cold" -> serve Serve.cold ~seed ~ref_arrivals:(4_000 * seconds)
  | "session" -> session ~seed ~ops:(8_000 * seconds)
  | "recover" -> recover ~seed ~cycles:(15 * seconds)
  | other -> invalid_arg ("unknown workload " ^ other)

(* The benchmark's own guarantees, at a scale that runs in seconds:
   seeded inputs replay, the oracles catch wrong bytes, the ladder
   stops at its first failing rung, and quantiles move with ties. *)

open Altos_benchmark

(* A small corpus and crew, so a phase is a few hundred requests. *)
let tiny =
  {
    Serve.hot with
    Serve.files = 8;
    stations = 8;
    rung_arrivals = 200;
    warmup = 50;
    max_rungs = 6;
  }

let arrivals cfg w ~seed ~n =
  let rate = cfg.Serve.ref_rate in
  Serve.arrivals cfg ~seed ~stream:3 ~start_us:(Serve.now_us w) ~rate ~n

let phase cfg ~seed ~n =
  let w = Serve.build cfg ~seed in
  (w, Serve.run_phase w (arrivals cfg w ~seed ~n))

let test_stream_replays () =
  let stream seed =
    Serve.arrivals Serve.cold ~seed ~stream:3 ~start_us:0 ~rate:2.0 ~n:500
  in
  Alcotest.(check bool) "same seed, same stream" true (stream 7 = stream 7);
  Alcotest.(check bool) "another seed, another stream" false (stream 7 = stream 8)

let test_serve_replays () =
  let w1, p1 = phase tiny ~seed:5 ~n:300 in
  let w2, p2 = phase tiny ~seed:5 ~n:300 in
  Alcotest.(check (array int)) "latencies" p1.Serve.latency_us p2.Serve.latency_us;
  Alcotest.(check int) "clock" (Serve.now_us w1) (Serve.now_us w2);
  Alcotest.(check int) "no failures" 0 (w1.Serve.failed + w2.Serve.failed)

let test_session_replays () =
  let run seed =
    let t = Session.build ~seed in
    let r = Session.run ~seed ~ops:300 t in
    Ops.verify_all t;
    Alcotest.(check int) "no failures" 0 t.Ops.failed;
    r.Session.latency_us
  in
  Alcotest.(check (array int)) "same seed, same latencies" (run 4) (run 4);
  Alcotest.(check bool) "another seed, other latencies" false (run 4 = run 5)

let test_recover_replays () =
  let run () =
    let pack = Recover.build (Gen.make ~seed:3 ~stream:21) in
    let _, t, cycles, _ = Recover.run ~seed:3 ~cycles:2 pack in
    Alcotest.(check int) "no failures" 0 t.Ops.failed;
    List.map
      (fun c -> (c.Recover.recover_us, c.Recover.scavenge_us, c.Recover.burst_ops))
      cycles
  in
  Alcotest.(check (list (triple int int int))) "cycles" (run ()) (run ())

let test_corrupt_body_fails () =
  let w = Serve.build tiny ~seed:2 in
  (* Zipf makes file 0 the most requested. *)
  w.Serve.bodies.(0) <- "not what the server holds";
  let p = Serve.run_phase w (arrivals tiny w ~seed:2 ~n:200) in
  Alcotest.(check bool) "GETs of file 0 count as failures" true (w.Serve.failed > 0);
  Alcotest.(check bool) "and as misses" true (p.Serve.misses >= w.Serve.failed)

let test_session_model_catches_corruption () =
  let t = Session.build ~seed:6 in
  let name = t.Ops.names.(0) in
  Hashtbl.replace t.Ops.model name "something else";
  Ops.verify_all t;
  Alcotest.(check int) "one wrong file, one failure" 1 t.Ops.failed

let test_ladder_stops_at_failure () =
  (* A 1 µs limit: no request can meet it, so the first rung fails and
     is the last. *)
  let w = Serve.build { tiny with Serve.limit_us = 1 } ~seed:1 in
  let rungs, best = Serve.ladder w ~seed:1 in
  Alcotest.(check int) "one rung" 1 (List.length rungs);
  let r = List.hd rungs in
  Alcotest.(check bool) "it failed" false r.Serve.pass;
  Alcotest.(check bool) "and stopped early" true r.Serve.phase.Serve.stopped_early;
  Alcotest.(check (float 0.0)) "no rate met the limit" 0.0 best

let test_ladder_shape () =
  (* Rates climb while rungs pass; the first failure ends the climb,
     and the best rate is the last one that passed. *)
  let cfg = { tiny with Serve.r0 = 40.0; step = 1.5; limit_us = 400_000 } in
  let w = Serve.build cfg ~seed:1 in
  let rungs, best = Serve.ladder w ~seed:1 in
  let n = List.length rungs in
  Alcotest.(check bool) "the ladder failed before its top" true (n < cfg.Serve.max_rungs);
  List.iteri
    (fun i r ->
      Alcotest.(check bool) "only the last rung failed" (i < n - 1) r.Serve.pass)
    rungs;
  let last_pass = List.nth rungs (n - 2) in
  Alcotest.(check (float 1e-9)) "best is the last passing rate" last_pass.Serve.rate best

let test_rung_pass_follows_p99 () =
  let _, p = phase tiny ~seed:1 ~n:10 in
  let n = 2000 in
  let with_latencies f = { p with Serve.latency_us = Array.init n f; offered = n } in
  (* 19 misses, under 1% of 2000, above answers tied at 1 ms: the p99
     interpolates into the misses, and the rung fails as its p99 says. *)
  let tied = with_latencies (fun i -> if i < n - 19 then 1000 else -1) in
  Alcotest.(check bool) "tied: p99 is infinite" false (Float.is_finite (Serve.p99_ms tied));
  Alcotest.(check bool) "tied: the rung fails" false (Serve.meets_limit tiny tied);
  (* The same misses above distinct answers leave the p99 on an answer. *)
  let distinct = with_latencies (fun i -> if i < n - 19 then 1000 + i else -1) in
  Alcotest.(check bool) "distinct: the rung passes" true (Serve.meets_limit tiny distinct);
  (* The early stop's count: that many late answers, all tied, fail the
     rung whatever the rest read. *)
  let late = tiny.Serve.limit_us + 1 and k = Serve.certain_misses n in
  let stop = with_latencies (fun i -> if i < n - k then 1000 else late) in
  Alcotest.(check bool) "certain misses fail the rung" false (Serve.meets_limit tiny stop);
  let short = with_latencies (fun i -> if i < n - k + 1 then 1000 else late) in
  Alcotest.(check bool) "one fewer need not" true (Serve.meets_limit tiny short)

let test_quantiles () =
  let q = Stats.quantile in
  Alcotest.(check (float 1e-9)) "plain median" 2.5 (q [| 1.; 2.; 3.; 4. |] 0.5);
  (* Ties: the median moves with the share of the tied value. *)
  let a = q [| 1.; 2.; 2.; 2.; 3. |] 0.5 and b = q [| 1.; 2.; 2.; 2.; 3.; 3. |] 0.5 in
  Alcotest.(check bool) "tie shares move the median" true (a <> b);
  Alcotest.(check (float 1e-9)) "a symmetric tie sits at its value" 2.0 a;
  Alcotest.(check bool) "a miss makes the tail infinite" false
    (Float.is_finite (q [| 1.; Float.infinity |] 0.99))

let () =
  Alcotest.run "benchmark"
    [
      ( "replay",
        [
          Alcotest.test_case "arrival streams" `Quick test_stream_replays;
          Alcotest.test_case "serve phase" `Quick test_serve_replays;
          Alcotest.test_case "session" `Quick test_session_replays;
          Alcotest.test_case "recover" `Quick test_recover_replays;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "corrupted GET body" `Quick test_corrupt_body_fails;
          Alcotest.test_case "session shadow model" `Quick
            test_session_model_catches_corruption;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "stops at the first failing rung" `Quick
            test_ladder_stops_at_failure;
          Alcotest.test_case "climbs until a rung fails" `Quick test_ladder_shape;
          Alcotest.test_case "a rung passes by its reported p99" `Quick
            test_rung_pass_follows_p99;
        ] );
      ("stats", [ Alcotest.test_case "mid-quantiles" `Quick test_quantiles ]);
    ]

(* The observability layer: registry semantics, histogram summaries,
   trace ring wraparound, JSON emission — and an integration
   check that the disk layer really charges its motion to the global
   metrics. *)

module Obs = Alto_obs.Obs
module Json = Alto_obs.Json
module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address

(* Every test starts from a clean slate; the registry is process-wide. *)
let fresh () = Obs.reset ()

(* {2 Counters} *)

let test_counter_basics () =
  fresh ();
  let c = Obs.counter "test.birds" in
  Alcotest.(check int) "starts at zero" 0 (Obs.counter_value c);
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "accumulates" 5 (Obs.counter_value c);
  Alcotest.(check string) "name" "test.birds" (Obs.counter_name c)

let test_counter_registry_is_shared () =
  fresh ();
  let a = Obs.counter "test.shared" in
  Obs.add a 3;
  let b = Obs.counter "test.shared" in
  Obs.incr b;
  Alcotest.(check int) "same underlying cell" 4 (Obs.counter_value a)

let test_counter_monotonic () =
  fresh ();
  let c = Obs.counter "test.mono" in
  match Obs.add c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative add accepted"

let test_kind_mismatch_rejected () =
  fresh ();
  let (_ : Obs.counter) = Obs.counter "test.kind" in
  (match Obs.histogram "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histogram registered over a counter");
  let (_ : Obs.histogram) = Obs.histogram "test.kind2" in
  match Obs.counter "test.kind2" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter registered over a histogram"

(* {2 Histograms} *)

let test_histogram_summary () =
  fresh ();
  let h = Obs.histogram "test.sizes" in
  let empty = Obs.summary h in
  Alcotest.(check int) "empty count" 0 empty.Obs.count;
  Alcotest.(check int) "empty min" 0 empty.Obs.min;
  List.iter (Obs.observe h) [ 10; -2; 7; 10; 0 ];
  let s = Obs.summary h in
  Alcotest.(check int) "count" 5 s.Obs.count;
  Alcotest.(check int) "sum" 25 s.Obs.sum;
  Alcotest.(check int) "min" (-2) s.Obs.min;
  Alcotest.(check int) "max" 10 s.Obs.max;
  Alcotest.(check (float 0.001)) "mean" 5.0 s.Obs.mean

let test_percentiles_exact_below_bucket_resolution () =
  fresh ();
  let h = Obs.histogram "test.small" in
  (* Every value below 16 has a bucket of its own, so percentiles are
     exact order statistics on this stream. *)
  List.iter (Obs.observe h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "p50 exact" 5 (Obs.percentile h 0.50);
  Alcotest.(check int) "p90 exact" 9 (Obs.percentile h 0.90);
  Alcotest.(check int) "p99 exact" 10 (Obs.percentile h 0.99);
  Alcotest.(check int) "p0 is the min" 1 (Obs.percentile h 0.0);
  Alcotest.(check int) "p100 is the max" 10 (Obs.percentile h 1.0)

let test_percentiles_within_one_bucket () =
  fresh ();
  let h = Obs.histogram "test.big" in
  for v = 1 to 1000 do
    Obs.observe h v
  done;
  (* Above 16 a bucket spans 12.5% of its value: the reported percentile
     is the floor of the right bucket, never more than one bucket off. *)
  List.iter
    (fun (p, exact) ->
      let got = Obs.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bucket (exact %d, got %d)" (100. *. p)
           exact got)
        true
        (got <= exact && float_of_int got >= 0.875 *. float_of_int exact))
    [ (0.50, 500); (0.90, 900); (0.99, 990) ];
  Alcotest.(check int) "empty histogram reports 0" 0
    (Obs.percentile (Obs.histogram "test.empty") 0.5)

let test_percentiles_tolerate_negative_values () =
  fresh ();
  let h = Obs.histogram "test.neg" in
  List.iter (Obs.observe h) [ -5; -1; 2; 3 ];
  (* Negative observations land in the zero bucket: low percentiles read
     as 0, and the exact [min]/[max] bounds keep the clamp honest. *)
  Alcotest.(check int) "negatives read as the zero bucket" 0 (Obs.percentile h 0.0);
  Alcotest.(check int) "p100 is the max" 3 (Obs.percentile h 1.0);
  let s = Obs.summary h in
  Alcotest.(check int) "summary p50 populated" (Obs.percentile h 0.5) s.Obs.p50;
  let all_neg = Obs.histogram "test.allneg" in
  List.iter (Obs.observe all_neg) [ -5; -3 ];
  Alcotest.(check int) "all-negative stream clamps to max" (-3)
    (Obs.percentile all_neg 0.5)

(* {2 Snapshot and reset} *)

let test_snapshot_and_reset () =
  fresh ();
  Obs.add (Obs.counter "test.a") 7;
  Obs.observe (Obs.histogram "test.b") 3;
  (match Obs.find "test.a" with
  | Some (Obs.Counter 7) -> ()
  | _ -> Alcotest.fail "find test.a");
  let names = List.map fst (Obs.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted" true (List.sort compare names = names);
  Obs.event "test.before";
  Obs.reset ();
  (match Obs.find "test.a" with
  | Some (Obs.Counter 0) -> ()
  | _ -> Alcotest.fail "reset keeps registration, zeroes value");
  (match Obs.find "test.b" with
  | Some (Obs.Histogram s) -> Alcotest.(check int) "histogram emptied" 0 s.Obs.count
  | _ -> Alcotest.fail "reset keeps histogram");
  (* The trace rewinds too: the flight recorder's window depends on it. *)
  Obs.event "test.after";
  match Obs.trace () with
  | [ e ] ->
      Alcotest.(check string) "ring holds only the new event" "test.after" e.Obs.name;
      Alcotest.(check int) "sequence restarts at 0" 0 e.Obs.seq
  | events -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length events))

(* {2 Trace ring} *)

let test_trace_wraparound () =
  fresh ();
  for i = 0 to 1033 do
    Obs.event ~fields:[ ("i", Obs.I i) ] "test.tick"
  done;
  let events = Obs.trace () in
  Alcotest.(check int) "ring keeps capacity" 1024 (List.length events);
  let newest = List.init 1024 (fun k -> 10 + k) in
  let is = List.map (fun e -> match e.Obs.fields with [ (_, Obs.I i) ] -> i | _ -> -1) events in
  Alcotest.(check (list int)) "newest 1,024, oldest first" newest is;
  let seqs = List.map (fun e -> e.Obs.seq) events in
  Alcotest.(check (list int)) "sequence numbers survive eviction" newest seqs

(* {2 Spans} *)

let test_span_times_sim_clock () =
  fresh ();
  let clock = Alto_machine.Sim_clock.create () in
  let x =
    Obs.time clock "test.span_us" (fun () ->
        Alto_machine.Sim_clock.advance_us clock 123;
        "done")
  in
  Alcotest.(check string) "result passes through" "done" x;
  (match Obs.find "test.span_us" with
  | Some (Obs.Histogram s) ->
      Alcotest.(check int) "one observation" 1 s.Obs.count;
      Alcotest.(check int) "elapsed simulated time" 123 s.Obs.sum
  | _ -> Alcotest.fail "span histogram missing");
  let names = List.map (fun e -> e.Obs.name) (Obs.trace ()) in
  Alcotest.(check (list string))
    "begin/end events" [ "test.span_us.begin"; "test.span_us.end" ] names

(* {2 JSON} *)

let test_json_rendering () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.String "say \"hi\"\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
      ]
  in
  Alcotest.(check string)
    "compact form" "{\"a\":1,\"b\":\"say \\\"hi\\\"\\n\",\"c\":[true,null,1.5]}"
    (Json.to_string doc);
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "whole floats keep a point" "2.0"
    (Json.to_string (Json.Float 2.0))

let test_metrics_json () =
  fresh ();
  Obs.add (Obs.counter "test.j") 2;
  let s = Json.to_string (Obs.metrics_json ()) in
  Alcotest.(check bool) "counter serialized" true
    (let sub = "\"test.j\":{\"type\":\"counter\",\"value\":2}" in
     let rec find i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* {2 Integration: the disk layer feeds the registry} *)

let test_drive_run_charges_motion () =
  fresh ();
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let value = Array.make Sector.value_words Word.zero in
  let read index =
    match
      Drive.run drive (Disk_address.of_index index)
        { Drive.op_none with Drive.value = Some Drive.Read }
        ~value ()
    with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "read failed"
  in
  let counter_of name =
    match Obs.find name with
    | Some (Obs.Counter v) -> v
    | _ -> Alcotest.fail ("no counter " ^ name)
  in
  (* Sector 0, cylinder 0: no seek. *)
  read 0;
  Alcotest.(check int) "no seek on cylinder 0" 0 (counter_of "disk.seeks");
  (* A distant cylinder: exactly one seek, with simulated time charged. *)
  let sectors_per_cylinder = Drive.sector_count drive / Geometry.diablo_31.Geometry.cylinders in
  read (100 * sectors_per_cylinder);
  Alcotest.(check int) "one seek to cylinder 100" 1 (counter_of "disk.seeks");
  Alcotest.(check bool) "seek time charged" true (counter_of "disk.seek_us" > 0);
  (* Re-reading sector 0 must wait for the platter to come round again. *)
  read 0;
  Alcotest.(check bool) "rotational wait charged" true
    (counter_of "disk.rotational_wait_us" > 0);
  Alcotest.(check int) "three operations" 3 (counter_of "disk.operations");
  Alcotest.(check int) "words read" (3 * Sector.value_words)
    (counter_of "disk.words_read");
  (* The seek left its trace events behind. *)
  let seeks =
    List.filter (fun e -> String.equal e.Obs.name "disk.seek") (Obs.trace ())
  in
  Alcotest.(check int) "seek events traced" 2 (List.length seeks)

let () =
  Alcotest.run "alto obs"
    [
      ( "registry",
        [
          ("counter basics", `Quick, test_counter_basics);
          ("counter registry shared", `Quick, test_counter_registry_is_shared);
          ("counter monotonic", `Quick, test_counter_monotonic);
          ("kind mismatch rejected", `Quick, test_kind_mismatch_rejected);
          ("histogram summary", `Quick, test_histogram_summary);
          ("percentiles exact when small", `Quick, test_percentiles_exact_below_bucket_resolution);
          ("percentiles within one bucket", `Quick, test_percentiles_within_one_bucket);
          ("percentiles with negatives", `Quick, test_percentiles_tolerate_negative_values);
          ("snapshot and reset", `Quick, test_snapshot_and_reset);
        ] );
      ( "trace",
        [
          ("ring wraparound", `Quick, test_trace_wraparound);
          ("span times the sim clock", `Quick, test_span_times_sim_clock);
        ] );
      ( "json",
        [
          ("rendering", `Quick, test_json_rendering);
          ("metrics json", `Quick, test_metrics_json);
        ] );
      ( "integration",
        [ ("drive charges motion", `Quick, test_drive_run_charges_motion) ] );
    ]

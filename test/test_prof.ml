(* The causal span profiler and the on-pack flight recorder: span trees
   accumulate by code path and survive exceptions, disk charges land in
   the span that caused them and balance the drive's aggregate counters
   exactly, the flight record sealed before a crash is adopted at the
   next boot and readable through the executive, and fixed-seed runs
   produce byte-identical span trees and pack images. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Drive = Alto_disk.Drive
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Flight = Alto_fs.Flight
module System = Alto_os.System
module Executive = Alto_os.Executive
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let fresh () = Obs.reset ()

let create_file fs name content =
  match File.create fs ~name with
  | Error e -> Alcotest.failf "create %s: %a" name File.pp_error e
  | Ok file -> (
      (match File.write_bytes file ~pos:0 content with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write %s: %a" name File.pp_error e);
      (match File.flush_leader file with
      | Ok () -> ()
      | Error e -> Alcotest.failf "flush %s: %a" name File.pp_error e);
      match Directory.open_root fs with
      | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
      | Ok root -> (
          match Directory.add root ~name (File.leader_name file) with
          | Ok () -> file
          | Error e -> Alcotest.failf "add %s: %a" name Directory.pp_error e))

let find_exn tree name =
  match Prof.find tree name with
  | Some s -> s
  | None -> Alcotest.failf "span %s missing from the tree" name

let occurrences haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i n =
    if i + nl > hl then n
    else if String.sub haystack i nl = needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let contains haystack needle = occurrences haystack needle > 0

(* {2 The span tree} *)

let test_nested_spans_accumulate () =
  fresh ();
  let clock = Sim_clock.create () in
  for _ = 1 to 3 do
    Prof.span clock "outer" (fun () ->
        Sim_clock.advance_us clock 10;
        Prof.span clock "inner" (fun () -> Sim_clock.advance_us clock 5))
  done;
  let t = Prof.tree () in
  let outer = find_exn t "outer" in
  Alcotest.(check (list string))
    "root has one child" [ "outer" ]
    (List.map (fun (s : Prof.snapshot) -> s.Prof.name) t.Prof.children);
  Alcotest.(check int) "outer calls" 3 outer.Prof.calls;
  Alcotest.(check int) "outer total" 45 outer.Prof.total_us;
  Alcotest.(check int) "outer self" 30 outer.Prof.self_us;
  (match outer.Prof.children with
  | [ inner ] ->
      Alcotest.(check string) "inner nested" "inner" inner.Prof.name;
      Alcotest.(check int) "inner calls" 3 inner.Prof.calls;
      Alcotest.(check int) "inner total" 15 inner.Prof.total_us;
      Alcotest.(check int) "inner self" 15 inner.Prof.self_us
  | _ -> Alcotest.fail "outer should have exactly the inner child");
  (* Same name under a different parent is a different node. *)
  Prof.span clock "inner" (fun () -> Sim_clock.advance_us clock 2);
  let t = Prof.tree () in
  let top_inner =
    List.find
      (fun (s : Prof.snapshot) -> s.Prof.name = "inner")
      t.Prof.children
  in
  Alcotest.(check int) "top-level inner is its own node" 2 top_inner.Prof.total_us;
  Alcotest.(check int) "root total sums children" 47 t.Prof.total_us

let test_exception_still_closes_the_span () =
  fresh ();
  let clock = Sim_clock.create () in
  (try
     Prof.span clock "boom" (fun () ->
         Sim_clock.advance_us clock 7;
         failwith "bang")
   with Failure _ -> ());
  Prof.span clock "after" (fun () -> Sim_clock.advance_us clock 2);
  let t = Prof.tree () in
  let boom = find_exn t "boom" in
  Alcotest.(check int) "raising span still charged" 7 boom.Prof.total_us;
  Alcotest.(check (list string))
    "the next span is a sibling, not a child" [ "after"; "boom" ]
    (List.map (fun (s : Prof.snapshot) -> s.Prof.name) t.Prof.children);
  Alcotest.(check int) "boom has no children" 0 (List.length boom.Prof.children)

let test_notes_mark_zero_cost_causes () =
  fresh ();
  let clock = Sim_clock.create () in
  Prof.span clock "parent" (fun () ->
      Sim_clock.advance_us clock 4;
      Prof.note "hit";
      Prof.note "hit");
  let parent = find_exn (Prof.tree ()) "parent" in
  match parent.Prof.children with
  | [ hit ] ->
      Alcotest.(check string) "note nests under its cause" "hit" hit.Prof.name;
      Alcotest.(check int) "note counts calls" 2 hit.Prof.calls;
      Alcotest.(check int) "note costs nothing" 0 hit.Prof.total_us;
      Alcotest.(check int) "parent keeps its self time" 4 parent.Prof.self_us
  | _ -> Alcotest.fail "expected exactly the note child"

let test_retry_motion_files_under_retry () =
  fresh ();
  let clock = Sim_clock.create () in
  Prof.span clock "op" (fun () ->
      Prof.charge_seek 5;
      Prof.with_retry (fun () ->
          Prof.charge_seek 3;
          Prof.charge_rotation 2));
  let op = find_exn (Prof.tree ()) "op" in
  Alcotest.(check int) "first-attempt seek" 5 op.Prof.seek_us;
  Alcotest.(check int) "no rotation outside retry" 0 op.Prof.rotation_us;
  Alcotest.(check int) "retry motion pooled" 5 op.Prof.retry_us;
  Alcotest.(check int) "disk_us sums the components" 10 (Prof.disk_us op)

(* {2 Integration: attribution balances the drive's books} *)

let test_disk_charges_balance_the_counters () =
  fresh ();
  let drive = Drive.create ~pack_id:5 tiny in
  let fs = Fs.format drive in
  Obs.reset ();
  let clock = Fs.clock fs in
  let file =
    Obs.time clock "test.op_us" (fun () ->
        create_file fs "Books.dat" (String.make 3000 'b'))
  in
  let (_ : (Bytes.t, File.error) result) =
    Obs.time clock "test.op_us" (fun () -> File.read_bytes file ~pos:0 ~len:3000)
  in
  let t = Prof.tree () in
  let op = find_exn t "test.op_us" in
  Alcotest.(check bool) "the operation cost simulated time" true
    (op.Prof.total_us > 0);
  (* The cost is attributed: some span below the operation carries disk
     charges, and the page layer shows up as the cause. *)
  let charged =
    List.exists (fun s -> Prof.disk_us s > 0) (Prof.flatten op)
  in
  Alcotest.(check bool) "disk time lands inside the operation" true charged;
  let (_ : Prof.snapshot) = find_exn op "page.read" in
  (* Conservation: the four components summed over the whole tree are
     exactly the drive's motion counters — not within a tolerance. *)
  let counter name =
    match Obs.find name with
    | Some (Obs.Counter v) -> v
    | _ -> Alcotest.failf "no counter %s" name
  in
  let totals = Prof.disk_totals () in
  Alcotest.(check int) "seek+retry vs disk counters"
    (counter "disk.seek_us" + counter "disk.rotational_wait_us"
    + counter "disk.transfer_us")
    (totals.Prof.t_seek_us + totals.Prof.t_rotation_us
    + totals.Prof.t_transfer_us + totals.Prof.t_retry_us)

(* {2 No charge outside a span}

   The root absorbs the disk time no span claims. Over a session's
   operations and over a crash and its recovery, every drive motion
   falls inside a named span, so the root holds none of its own. *)

let small = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 25 }

(* Creates, appends, rewrites and deletes, then a flush. *)
let session fs =
  let files =
    List.init 6 (fun i -> create_file fs (Printf.sprintf "S%d.dat" i) (String.make (700 * (i + 1)) 's'))
  in
  List.iteri
    (fun i file ->
      ignore (File.append_bytes file (String.make 900 'a') : (unit, File.error) result);
      if i mod 2 = 0 then ignore (File.replace file (String.make 1500 'r') : (unit, File.error) result);
      if i mod 3 = 0 then ignore (File.delete file : (unit, File.error) result))
    files;
  ignore (Fs.flush fs : (unit, Fs.error) result)

let check_root_uncharged what =
  let root = Prof.tree () in
  Alcotest.(check (list int))
    (what ^ ": the root's own seek, rotation and transfer")
    [ 0; 0; 0 ]
    [ root.Prof.seek_us; root.Prof.rotation_us; root.Prof.transfer_us ]

let test_session_charges_no_root_time () =
  let fs = Fs.format (Drive.create ~pack_id:7 small) in
  Obs.reset ();
  session fs;
  Alcotest.(check bool) "the session moved the disk" true ((Prof.disk_totals ()).Prof.t_transfer_us > 0);
  check_root_uncharged "session"

let test_recovery_charges_no_root_time () =
  let drive = Drive.create ~pack_id:8 small in
  let fs = Fs.format drive in
  let (_ : File.t) = create_file fs "Kept.dat" (String.make 2000 'k') in
  (match Fs.mark_clean fs with Ok () -> () | Error e -> Alcotest.failf "clean: %a" Fs.pp_error e);
  Obs.reset ();
  Fault.crash_after_writes drive 12;
  (match session fs with
  | () -> Alcotest.fail "the session outran its crash point"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  let system = System.boot ~drive () in
  Flight.disable ();
  Alcotest.(check bool) "boot recovered a dirty pack" true
    (System.recovery system <> Alto_fs.Recovery.Clean);
  Alcotest.(check (list string)) "fsck" []
    (List.map (Format.asprintf "%a" Alto_fs.Fsck.pp_issue) (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations);
  check_root_uncharged "recovery"

(* {2 The flight recorder} *)

(* Runs before any test adopts a record: a pack that predates the
   recorder mounts and recovers exactly as before. *)
let test_old_pack_without_a_record_boots () =
  fresh ();
  let drive = Drive.create ~pack_id:6 tiny in
  let fs = Fs.format drive in
  let (_ : File.t) = create_file fs "Old.dat" "pre-recorder pack" in
  Alcotest.(check bool) "mutation left the pack dirty" true (Fs.dirty fs);
  let system = System.boot ~drive () in
  Alcotest.(check bool) "recovery ran and cleaned the pack" false
    (Fs.dirty (System.fs system));
  Alcotest.(check bool) "nothing was adopted" true (Flight.adopted () = None);
  Keyboard.feed (System.keyboard system) "blackbox\nquit\n";
  let (_ : Executive.outcome) = Executive.run system in
  Alcotest.(check bool) "blackbox reports the absence" true
    (contains
       (Display.contents (System.display system))
       "no flight record adopted")

let test_flight_record_round_trip () =
  fresh ();
  let drive = Drive.create ~pack_id:7 tiny in
  let system = System.boot ~drive () in
  Keyboard.feed (System.keyboard system) "put Log.txt black box test\nquit\n";
  let outcome = Executive.run system in
  Alcotest.(check bool) "first session quit" true outcome.Executive.quit;
  Alcotest.(check bool) "quit left the pack clean" false
    (Fs.dirty (System.fs system));
  (* The shutdown sealed a record into the catalogue. *)
  (match Directory.open_root (System.fs system) with
  | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  | Ok root -> (
      match Directory.lookup root Flight.file_name with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.failf "%s not catalogued" Flight.file_name
      | Error e -> Alcotest.failf "lookup: %a" Directory.pp_error e));
  (* The next incarnation crashes: a mutation with no clean shutdown. *)
  let (_ : File.t) = create_file (System.fs system) "Unsaved.dat" "lost work" in
  Alcotest.(check bool) "crash left the pack dirty" true
    (Fs.dirty (System.fs system));
  (* Reboot. The dirty mount adopts the record sealed at the last quit,
     then recovery cleans the volume. *)
  let reborn = System.boot ~drive () in
  Alcotest.(check bool) "recovery cleaned the pack" false
    (Fs.dirty (System.fs reborn));
  (match Flight.adopted () with
  | None -> Alcotest.fail "no flight record adopted"
  | Some record ->
      Alcotest.(check bool) "record carries the magic" true
        (contains record "altos.flight/1");
      Alcotest.(check bool) "record names its reason" true
        (contains record "\"reason\":\"quit\"");
      Alcotest.(check bool) "record snapshots the metrics" true
        (contains record "\"metrics\""));
  (* And the executive can read the black box aloud. *)
  Keyboard.feed (System.keyboard reborn) "blackbox\nquit\n";
  let (_ : Executive.outcome) = Executive.run reborn in
  Alcotest.(check bool) "blackbox prints the record" true
    (contains (Display.contents (System.display reborn)) "altos.flight/1")

(* A seal holds the events recorded since arming, at most the newest
   256: none from before a disable/enable pair, and none from before an
   [Obs.reset], which forgets them. *)
let test_seal_holds_the_window_since_arming () =
  fresh ();
  Flight.disable ();
  let fs = Fs.format (Drive.create ~pack_id:8 tiny) in
  let seal () =
    Flight.flush ~reason:"test" fs;
    match Flight.adopt fs with
    | Some record -> record
    | None -> Alcotest.fail "no record sealed"
  in
  Obs.event "test.unarmed";
  Flight.enable ();
  Obs.event "test.first_arming";
  Flight.disable ();
  Flight.enable ();
  Obs.event "test.armed";
  let record = seal () in
  Alcotest.(check bool) "the events since arming" true (contains record "test.armed");
  Alcotest.(check bool) "none from before arming" false (contains record "test.unarmed");
  Alcotest.(check bool) "none from before a disable/enable pair" false
    (contains record "test.first_arming");
  for i = 0 to 299 do
    Obs.event ~fields:[ ("i", Obs.I i) ] "test.tick"
  done;
  let record = seal () in
  Alcotest.(check int) "the newest 256 events" 256
    (occurrences record "\"name\":\"test.tick\"");
  Alcotest.(check bool) "the oldest of them kept" true (contains record "{\"i\":44}");
  Alcotest.(check bool) "older ones dropped" false (contains record "{\"i\":43}");
  Obs.event "test.before_reset";
  Obs.reset ();
  Obs.event "test.after_reset";
  let record = seal () in
  Alcotest.(check bool) "the events since the reset" true
    (contains record "test.after_reset");
  Alcotest.(check bool) "none from before the reset" false
    (contains record "test.before_reset" || contains record "test.tick");
  Flight.disable ()

(* {2 Determinism} *)

let test_fixed_seed_runs_are_identical () =
  let run () =
    Obs.reset ();
    (* Drain the recorder's ring so both runs seal from the same state,
       then re-arm it: the flight file's bytes are part of the image. *)
    Flight.disable ();
    Flight.enable ();
    let drive = Drive.create ~pack_id:11 tiny in
    let fs = Fs.format drive in
    Fault.set_soft_errors drive ~seed:77 ~rate:0.0;
    let clock = Fs.clock fs in
    Obs.time clock "run.session_us" (fun () ->
        let a = create_file fs "A.dat" (String.make 700 'a') in
        let (_ : File.t) = create_file fs "B.dat" (String.make 1400 'b') in
        (match File.read_bytes a ~pos:0 ~len:700 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "read: %a" File.pp_error e);
        match Scavenger.scavenge drive with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "scavenge: %s" msg);
    (Prof.tree (), drive)
  in
  let tree1, drive1 = run () in
  let tree2, drive2 = run () in
  Alcotest.(check bool) "span trees identical" true (tree1 = tree2);
  let n = Drive.sector_count drive1 in
  Alcotest.(check int) "same pack size" n (Drive.sector_count drive2);
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let a = Drive.peek drive1 (Disk_address.of_index i) in
    let b = Drive.peek drive2 (Disk_address.of_index i) in
    if a <> b then incr mismatches
  done;
  Alcotest.(check int) "pack images byte-identical" 0 !mismatches

let () =
  Alcotest.run "alto prof"
    [
      ( "spans",
        [
          ("nested spans accumulate", `Quick, test_nested_spans_accumulate);
          ("exception still closes", `Quick, test_exception_still_closes_the_span);
          ("notes mark zero-cost causes", `Quick, test_notes_mark_zero_cost_causes);
          ("retry motion files under retry", `Quick, test_retry_motion_files_under_retry);
          ("charges balance the counters", `Quick, test_disk_charges_balance_the_counters);
          ("a session charges the root nothing", `Quick, test_session_charges_no_root_time);
          ("a recovery charges the root nothing", `Quick, test_recovery_charges_no_root_time);
        ] );
      ( "flight",
        [
          ("old pack without a record", `Quick, test_old_pack_without_a_record_boots);
          ("round trip across a crash", `Quick, test_flight_record_round_trip);
          ("a seal holds the window since arming", `Quick,
            test_seal_holds_the_window_since_arming);
        ] );
      ( "determinism",
        [ ("fixed-seed runs identical", `Quick, test_fixed_seed_runs_are_identical) ] );
    ]

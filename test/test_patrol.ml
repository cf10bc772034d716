(* The online patrol: the incremental verify sweep finds marginal
   sectors by retry evidence and moves their pages to safety before the
   sector dies; its slice rules settle the sectors an unsafe shutdown's
   write-ahead map names, so recovery reads those cylinders instead of
   the whole pack; and quarantine verdicts survive remount in the
   descriptor's bad-sector table. *)

module Word = Alto_machine.Word
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Patrol = Alto_fs.Patrol
module Scavenger = Alto_fs.Scavenger
module Recovery = Alto_fs.Recovery
module Page = Alto_fs.Page
module System = Alto_os.System
module Executive = Alto_os.Executive
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let addr i = Disk_address.of_index i

let counter name =
  match Alto_obs.Obs.find name with Some (Alto_obs.Obs.Counter n) -> n | _ -> 0

let make_volume ?(geometry = tiny) ?(seed = 42) () =
  let drive = Drive.create ~pack_id:3 geometry in
  let fs = Fs.format drive in
  (* Seed the drive's fault PRNG without enabling base soft errors, so
     marginal-sector draws are reproducible. *)
  Fault.set_soft_errors drive ~seed ~rate:0.0;
  (drive, fs)

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

let open_by_name fs name =
  match Directory.open_root fs with
  | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  | Ok root -> (
      match Directory.lookup root name with
      | Error e -> Alcotest.failf "lookup %s: %a" name Directory.pp_error e
      | Ok None -> Alcotest.failf "%s: vanished from the catalogue" name
      | Ok (Some e) -> (
          match File.open_leader fs e.Directory.entry_file with
          | Error err -> Alcotest.failf "open %s: %a" name File.pp_error err
          | Ok f -> (f, e.Directory.entry_file.Page.addr)))

let read_all file =
  match File.read_bytes file ~pos:0 ~len:(File.byte_length file) with
  | Ok bytes -> Bytes.to_string bytes
  | Error e -> Alcotest.failf "read: %a" File.pp_error e

let page_addr file pn =
  match File.page_name file pn with
  | Ok fn -> fn.Page.addr
  | Error e -> Alcotest.failf "page_name %d: %a" pn File.pp_error e

(* Sweep full laps until the patrol has moved [relocations] pages (or a
   generous lap budget runs out — the marginal rates below make missing
   a sector for ten straight laps practically impossible). *)
let sweep_until patrol ~relocations =
  let n = Drive.sector_count (Fs.drive (Patrol.fs patrol)) in
  let budget = ref (10 * ((n / 24) + 1)) in
  while Patrol.relocated patrol < relocations && !budget > 0 do
    ignore (Patrol.tick patrol : Patrol.report);
    decr budget
  done;
  Alcotest.(check bool) "patrol found and moved the page(s)" true
    (Patrol.relocated patrol >= relocations)

let pack_image drive =
  List.init (Drive.sector_count drive) (fun i ->
      let s = Drive.peek drive (addr i) in
      ( Array.to_list (Sector.part_of s Sector.Header),
        Array.to_list (Sector.part_of s Sector.Label),
        Array.to_list (Sector.part_of s Sector.Value) ))

(* {2 the sweep} *)

(* A wearing-out sector is detected by retry evidence and its page moved
   before the sector degrades to permanently bad: contents intact, old
   sector quarantined, and the pack still sound for a remount and for
   the scavenger. *)
let test_marginal_page_relocated () =
  let drive, fs = make_volume () in
  let content = String.init 900 (fun i -> Char.chr (33 + (i mod 90))) in
  let file = create_file fs "Victim.dat" content in
  let victim = page_addr file 1 in
  Fault.make_marginal drive victim ~rate:0.8 ~growth:1.0 ~degrade_after:50;
  let patrol = Patrol.create fs in
  sweep_until patrol ~relocations:1;
  Alcotest.(check bool) "caught before the sector went hard-bad" false
    (Drive.is_bad drive victim);
  Alcotest.(check bool) "old sector quarantined" true
    (Fs.quarantined fs victim);
  Alcotest.(check int) "no page was lost" 0 (Patrol.pages_lost patrol);
  (* A fresh handle (stale hints forgotten) finds the moved page. *)
  let fresh, _ = open_by_name fs "Victim.dat" in
  Alcotest.(check string) "contents byte-identical" content (read_all fresh);
  Alcotest.(check bool) "the page really moved" true
    (not (Disk_address.equal (page_addr fresh 1) victim));
  (* The pack is sound across a remount... *)
  (match Fs.flush fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  (match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok fs2 ->
      let again, _ = open_by_name fs2 "Victim.dat" in
      Alcotest.(check string) "contents survive remount" content (read_all again));
  (* ...and for the scavenger: nothing left to lose. *)
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, report) ->
      Alcotest.(check int) "scavenger agrees nothing was lost" 0
        report.Scavenger.pages_lost

(* The patrol moves a page of a file whose leader still says
   consecutive; its predecessor's label, rewritten by the move, names
   the new home. A planned whole-file read takes that link from the
   verified-label table instead of extrapolating to the retired sector,
   so every request it parks succeeds. *)
let test_plan_follows_relocated_link () =
  let drive, fs = make_volume () in
  let content = String.init (8 * Sector.bytes_per_page) (fun i -> Char.chr (33 + (i mod 90))) in
  let file = create_file fs "Planned.dat" content in
  let victim = page_addr file 2 in
  Fault.make_marginal drive victim ~rate:0.8 ~growth:1.0 ~degrade_after:50;
  let patrol = Patrol.create fs in
  sweep_until patrol ~relocations:1;
  let fresh, _ = open_by_name fs "Planned.dat" in
  Alcotest.(check bool) "the leader still says consecutive" true
    (File.leader fresh).Alto_fs.Leader.maybe_consecutive;
  match File.plan_read fresh with
  | Error e -> Alcotest.failf "plan: %a" File.pp_error e
  | Ok None -> Alcotest.fail "an 8-page file planned nothing"
  | Ok (Some plan) ->
      let refused0 = counter "disk.check_failures" in
      let outcomes = Sched.run_batch drive (File.plan_requests plan) in
      Array.iteri
        (fun j (o : Sched.outcome) ->
          Alcotest.(check bool) (Printf.sprintf "request %d succeeds" j) true
            (Result.is_ok o.Sched.result))
        outcomes;
      (match File.finish_read plan outcomes with
      | Ok got -> Alcotest.(check string) "contents byte-identical" content got
      | Error e -> Alcotest.failf "finish: %a" File.pp_error e);
      Alcotest.(check int) "no label check refused" 0 (counter "disk.check_failures" - refused0)

(* Relocating a leader page must re-point the catalogue: the directory
   entry's address hint follows the move. *)
let test_leader_relocation_fixes_catalogue () =
  let drive, fs = make_volume () in
  let content = "the leader of this file lives on a dying sector" in
  let file = create_file fs "Leader.dat" content in
  let old_leader = (File.leader_name file).Page.addr in
  Fault.make_marginal drive old_leader ~rate:0.8 ~growth:1.0 ~degrade_after:50;
  let patrol = Patrol.create fs in
  sweep_until patrol ~relocations:1;
  let fresh, entry_addr = open_by_name fs "Leader.dat" in
  Alcotest.(check bool) "the catalogue entry follows the move" true
    (not (Disk_address.equal entry_addr old_leader));
  Alcotest.(check string) "contents intact through the new leader" content
    (read_all fresh)

(* The same seed must give the same patrol: identical packs, identical
   relocation counts. *)
let test_deterministic_under_seed () =
  let run () =
    let drive, fs = make_volume ~seed:77 () in
    let _ = create_file fs "A.dat" (String.make 1400 'a') in
    let b = create_file fs "B.dat" (String.make 900 'b') in
    Fault.make_marginal drive (page_addr b 1) ~rate:0.7 ~growth:1.0
      ~degrade_after:60;
    let patrol = Patrol.create fs in
    for _ = 1 to 12 do
      ignore (Patrol.tick patrol : Patrol.report)
    done;
    (match Fs.flush fs with
    | Ok () -> ()
    | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
    (pack_image drive, Patrol.relocated patrol, Patrol.slices patrol)
  in
  let image1, relocated1, slices1 = run () in
  let image2, relocated2, slices2 = run () in
  Alcotest.(check int) "same slice count" slices1 slices2;
  Alcotest.(check int) "same relocation count" relocated1 relocated2;
  Alcotest.(check bool) "identical pack images" true (image1 = image2)

(* {2 unsafe shutdown} *)

(* The write-ahead map: set and persisted by the first mutation, emptied
   by a consistency point, and readable across remounts. *)
let test_dirty_flag_lifecycle () =
  let drive, fs = make_volume () in
  Alcotest.(check bool) "a fresh format is clean" false (Fs.dirty fs);
  let _ = create_file fs "Mut.dat" "mutation" in
  Alcotest.(check bool) "mutation set the flag" true (Fs.dirty fs);
  (* The map was written through before the first write: a remount (the
     crash view) sees it without any further flush. *)
  (match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok crashed -> Alcotest.(check bool) "crash view is dirty" true (Fs.dirty crashed));
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok clean -> Alcotest.(check bool) "clean shutdown persisted" false (Fs.dirty clean)

let through_map fs =
  match Recovery.recover fs with
  | fs, Recovery.Through_map (cylinders, report) -> (fs, cylinders, report)
  | _, outcome -> Alcotest.failf "recovered by %a" Recovery.pp_outcome outcome

(* Power fails mid-workload; the pack mounts dirty, recovery reads only
   the cylinders the map names, and the volume is sound and clean
   afterwards. *)
let test_crash_recovery_bounded () =
  let drive, fs = make_volume ~geometry:{ tiny with Geometry.cylinders = 5 } () in
  let keep = String.init 1200 (fun i -> Char.chr (65 + (i mod 26))) in
  let _ = create_file fs "Keep.dat" keep in
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  (* Now a workload that dies mid-flight. *)
  Fault.crash_after_writes drive 49;
  (try
     for i = 0 to 30 do
       ignore (create_file fs (Printf.sprintf "Doomed%d.dat" i) (String.make 700 'd'))
     done;
     Alcotest.fail "the crash point never fired"
   with Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "mount after crash: %s" msg
  | Ok crashed ->
      Alcotest.(check bool) "the pack mounts dirty" true (Fs.dirty crashed);
      let mapped = Fs.mapped_cylinders crashed in
      Alcotest.(check bool) "the map names less than the pack" true
        (mapped <> [] && List.length mapped < 5);
      let crashed, cylinders, report = through_map crashed in
      Alcotest.(check (list int)) "recovery read the mapped cylinders" mapped cylinders;
      Alcotest.(check bool) "no more than those cylinders and the walks" true
        (report.Scavenger.sectors_scanned >= 24 * List.length mapped);
      Alcotest.(check bool) "recovery declared the consistency point" false
        (Fs.dirty crashed);
      (* The volume is sound: the pre-crash file reads back, and a fresh
         mount starts clean. *)
      let kept, _ = open_by_name crashed "Keep.dat" in
      Alcotest.(check string) "pre-crash data intact" keep (read_all kept);
      (match Fs.mount drive with
      | Error msg -> Alcotest.failf "clean remount: %s" msg
      | Ok clean -> Alcotest.(check bool) "clean after recovery" false (Fs.dirty clean));
      List.iter
        (fun i -> Alcotest.failf "fsck: %a" Alto_fs.Fsck.pp_issue i)
        (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations

(* A recovery through the map ends at a consistency point: the map is
   empty on the platter, the next boot mounts clean, and a later crash
   maps only what was written after it. *)
let test_recovery_declares_a_consistency_point () =
  let drive, fs = make_volume () in
  let _ = create_file fs "Keep.dat" (String.make 900 'k') in
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  let _ = create_file fs "Dirty.dat" "unsaved" in
  let crashed =
    match Fs.mount drive with Ok fs -> fs | Error msg -> Alcotest.failf "mount: %s" msg
  in
  let _, cylinders, _ = through_map crashed in
  Alcotest.(check bool) "something was mapped" true (cylinders <> []);
  (match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok again ->
      Alcotest.(check (list int)) "the map is empty" [] (Fs.mapped_cylinders again);
      (match Recovery.recover again with
      | _, Recovery.Clean -> ()
      | _, outcome -> Alcotest.failf "a second boot recovered by %a" Recovery.pp_outcome outcome));
  let _, _ = open_by_name crashed "Dirty.dat" in
  ()

(* A clean pack is used as it mounts: boot reads both descriptor
   records and nothing else — no directory, no file. *)
let test_clean_boot_reads_only_the_records () =
  let drive, fs = make_volume ~geometry:Geometry.diablo_31 () in
  let _ = create_file fs "Keep.dat" (String.make 900 'k') in
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  let operations () = Alto_obs.Obs.(counter_value (counter "disk.operations")) in
  let before = operations () in
  match Recovery.boot drive with
  | booted, Recovery.Clean ->
      Alcotest.(check int) "one operation per record page"
        (Fs.descriptor_page_count booted) (operations () - before)
  | _, outcome ->
      Alcotest.failf "a clean pack recovered by %a" Recovery.pp_outcome outcome

(* A crash between reserving a page and writing it leaks the map bit;
   recovery through the map reclaims it (label free, map busy). *)
let test_abandoned_reservation_reclaimed () =
  let drive, fs = make_volume () in
  let reserved =
    match Fs.reserve_pages fs 1 with
    | Ok [ a ] -> a
    | Ok _ -> Alcotest.fail "reserve: expected one page"
    | Error e -> Alcotest.failf "reserve: %a" Fs.pp_error e
  in
  (match Fs.flush fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  (* Crash: the reservation's owner never writes the page. *)
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok crashed ->
      Alcotest.(check bool) "the leak survived the crash" false
        (Fs.is_free_in_map crashed reserved);
      let crashed, _, _ = through_map crashed in
      Alcotest.(check bool) "the leaked page is free again" true
        (Fs.is_free_in_map crashed reserved);
      match Fs.mount drive with
      | Error msg -> Alcotest.failf "remount: %s" msg
      | Ok again ->
          Alcotest.(check bool) "and stays free on the platter" true
            (Fs.is_free_in_map again reserved)

(* A flush is not a consistency point: the map keeps every cylinder
   written since the last one, and only [mark_clean] empties it. *)
let test_flush_keeps_the_map () =
  let drive, fs = make_volume () in
  let _ = create_file fs "Mut.dat" "mutation" in
  let mapped = Fs.mapped_cylinders fs in
  Alcotest.(check bool) "the write mapped a cylinder" true (mapped <> []);
  (match Fs.flush fs with Ok () -> () | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  (match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok after_flush ->
      Alcotest.(check (list int)) "flush kept the map" mapped (Fs.mapped_cylinders after_flush));
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok clean ->
      Alcotest.(check (list int)) "a consistency point empties it" [] (Fs.mapped_cylinders clean)

(* {2 the bad-sector table} *)

(* The descriptor record's table is the one store of quarantine
   verdicts: on a Model 31, 70 of them survive a flush and a remount in
   the table itself, no file is created for them, and the allocator
   still refuses every one. *)
let test_table_survives_remount () =
  let drive, fs = make_volume ~geometry:Geometry.diablo_31 () in
  let names fs =
    match Result.bind (Directory.open_root fs) Directory.entries with
    | Ok entries -> List.map (fun (e : Directory.entry) -> e.Directory.entry_name) entries
    | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  in
  let catalogued = names fs in
  let victims =
    List.filteri
      (fun k _ -> k < 70)
      (List.filter
         (fun i -> Fs.is_free_in_map fs (addr i))
         (List.init (Drive.sector_count drive) Fun.id))
  in
  List.iter (fun i -> Fs.quarantine fs (addr i)) victims;
  (match Fs.flush fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok fs2 ->
      Alcotest.(check (list int)) "all 70 verdicts, oldest first" victims
        (List.map Disk_address.to_index (Fs.bad_sector_table fs2));
      Alcotest.(check (list string)) "no file catalogued for them" catalogued (names fs2);
      let last = addr (List.nth victims 69) in
      Alcotest.(check bool) "busy in the map" false (Fs.is_free_in_map fs2 last);
      Fs.mark_free fs2 last;
      Alcotest.(check bool) "mark_free refuses it" false (Fs.is_free_in_map fs2 last)

(* {2 the health command} *)

let test_health_command () =
  let system = System.boot ~geometry:tiny () in
  Keyboard.feed (System.keyboard system) "health\nquit\n";
  let outcome = Executive.run system in
  Alcotest.(check bool) "both commands ran" true
    (outcome.Executive.commands_executed = 2 && outcome.Executive.quit);
  let text = Display.contents (System.display system) in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  (* A virgin pack does not mount: boot rebuilt it by scavenging. *)
  Alcotest.(check bool) "reports how boot recovered" true
    (contains "boot:    verifying scavenge (unmountable)");
  Alcotest.(check bool) "reports the patrol cursor" true (contains "patrol:");
  Alcotest.(check bool) "reports the bad-sector table's fill" true
    (contains
       (Printf.sprintf "bad:     0 of %d bad-sector table entries"
          (Fs.bad_sector_capacity (System.fs system))));
  (* quit declared the consistency point: the pack reboots clean, with
     no recovery. *)
  Alcotest.(check bool) "quit left the volume clean" false
    (Fs.dirty (System.fs system))

let () =
  Alcotest.run "alto patrol"
    [
      ( "sweep",
        [
          ("marginal page relocated", `Quick, test_marginal_page_relocated);
          ( "leader relocation fixes catalogue",
            `Quick,
            test_leader_relocation_fixes_catalogue );
          ("deterministic under seed", `Quick, test_deterministic_under_seed);
          ("a plan follows a relocated link", `Quick, test_plan_follows_relocated_link);
        ] );
      ( "shutdown",
        [
          ("dirty flag lifecycle", `Quick, test_dirty_flag_lifecycle);
          ("crash recovery bounded", `Quick, test_crash_recovery_bounded);
          ( "recovery declares a consistency point",
            `Quick,
            test_recovery_declares_a_consistency_point );
          ("flush keeps the map", `Quick, test_flush_keeps_the_map);
          ( "a clean boot reads only the records",
            `Quick,
            test_clean_boot_reads_only_the_records );
          ( "abandoned reservation reclaimed",
            `Quick,
            test_abandoned_reservation_reclaimed );
        ] );
      ("table", [ ("seventy verdicts survive remount", `Quick, test_table_survives_remount) ]);
      ("health", [ ("health command reports", `Quick, test_health_command) ]);
    ]

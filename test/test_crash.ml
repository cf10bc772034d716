(* Crash consistency: the power fails at an arbitrary write, between
   sectors or tearing one, in the middle of real workloads; one
   scavenge later the volume must be sound and no file may ever contain
   torn or alien bytes. This is the property §3.3's label discipline
   was designed for — "recovery from crashes and resistance to misuse"
   (§1). *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fault = Alto_disk.Fault
module Reliable = Alto_disk.Reliable
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Recovery = Alto_fs.Recovery
module Compactor = Alto_fs.Compactor
module Flight = Alto_fs.Flight
module Checkpoint = Alto_world.Checkpoint
module World = Alto_world.World
module System = Alto_os.System
module Crash_harness = Alto_os.Crash_harness

let small_geometry = { Geometry.diablo_31 with Geometry.model = "crash"; cylinders = 25 }

(* Deterministic per-version page contents: any readable page of file
   [seed] must match version 1 or version 2 exactly. *)
let pattern = Crash_harness.pattern

let len1 seed = 800 + (seed * 300)
let len2 seed = len1 seed + if seed mod 2 = 0 then 600 else -300
let deleted seed = seed mod 5 = 3

let build () =
  let drive = Drive.create ~pack_id:3 small_geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  (* Ten files with version-1 contents. *)
  let files =
    List.init 10 (fun seed ->
        let name = Printf.sprintf "C%02d.dat" seed in
        let file =
          match File.create fs ~name with Ok f -> f | Error _ -> failwith "create"
        in
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:1 (len1 seed)) with
        | Ok () -> ()
        | Error _ -> failwith "write");
        (match Directory.add root ~name (File.leader_name file) with
        | Ok () -> ()
        | Error _ -> failwith "add");
        (name, seed, file))
  in
  (drive, fs, root, files)

(* The workload that gets interrupted: overwrite every file with
   version 2 (some longer, some shorter), delete two files, create two
   new ones. *)
let workload fs root files =
  List.iter
    (fun (name, seed, file) ->
      if deleted seed then begin
        (match File.delete file with Ok () -> () | Error _ -> ());
        match Directory.remove root name with Ok _ -> () | Error _ -> ()
      end
      else begin
        (match File.truncate file ~len:0 with Ok () -> () | Error _ -> ());
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:2 (len2 seed)) with
        | Ok () -> ()
        | Error _ -> ());
        match File.flush_leader file with Ok () -> () | Error _ -> ()
      end)
    files;
  List.iter
    (fun seed ->
      let name = Printf.sprintf "N%02d.dat" seed in
      match File.create fs ~name with
      | Ok f -> (
          (match File.write_bytes f ~pos:0 (pattern ~seed:(seed + 50) ~version:2 1200) with
          | Ok () -> ()
          | Error _ -> ());
          match Directory.add root ~name (File.leader_name f) with
          | Ok () -> ()
          | Error _ -> ())
      | Error _ -> ())
    [ 90; 91 ]

(* What every file must hold after recovery: each page that reads back
   matches its version 1 or its version 2, never torn or alien bytes. *)
let expects =
  List.init 10 (fun seed ->
      {
        Crash_harness.e_name = Printf.sprintf "C%02d.dat" seed;
        e_seed = seed;
        e_len1 = len1 seed;
        e_len2 = (if deleted seed then 0 else len2 seed);
        e_touched = true;
        e_may_vanish = deleted seed;
      })
  @ List.map
      (fun seed ->
        {
          Crash_harness.e_name = Printf.sprintf "N%02d.dat" seed;
          e_seed = seed + 50;
          e_len1 = 0;
          e_len2 = 1200;
          e_touched = true;
          e_may_vanish = true;
        })
      [ 90; 91 ]

(* Crash the workload at write [point], check the write-ahead map the
   platter holds against the pack as the writes found it, and recover by
   one scavenge: the checker finds no violation and every file holds
   what it may. *)
let crash_at ?tear point =
  let drive, fs, root, files = build () in
  let before = Crash_harness.image drive in
  Fault.crash_after_writes ?tear drive point;
  let crashed =
    match workload fs root files with
    | () -> false
    | exception Drive.Power_failure -> true
  in
  Fault.cancel_crash drive;
  (match Fs.mount drive with
  | Ok mounted ->
      Option.iter (Alcotest.failf "write %d: %s" point) (Crash_harness.write_ahead_miss before mounted)
  | Error _ -> ());
  (* The machine is gone; all in-core state (fs handle, file handles,
     the allocation map!) is lost. Recovery starts from the drive. *)
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge after crash at %d: %s" point msg
  | Ok (fs', _report) ->
      List.iter
        (fun i -> Alcotest.failf "crash at %d: fsck: %a" point Alto_fs.Fsck.pp_issue i)
        (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations;
      List.iter
        (fun msg -> Alcotest.failf "crash at %d: %s" point msg)
        (List.concat_map (Crash_harness.verify_expect fs') expects);
      (match Fs.mount drive with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "remount after crash at %d: %s" point msg);
      crashed

(* How many writes the workload issues: the crash points to sweep. *)
let workload_writes =
  lazy
    (let drive, fs, root, files = build () in
     let before = Drive.write_ops drive in
     workload fs root files;
     Drive.write_ops drive - before)

(* Where the early sweep ends and the dense one begins. *)
let early_writes = 60

(* Crash at every write of the workload from [first] up to [last]
   (default: its last write) — mid-truncate, mid-free, mid-write,
   mid-create — with the fatal write cut off by [tears]. *)
let sweep ?(first = 0) ?last tears () =
  let writes = Lazy.force workload_writes in
  let last = Option.value last ~default:writes in
  let inside = first < last && last <= writes in
  Alcotest.(check bool) "the workload writes past the sweep" true inside;
  for point = first to last - 1 do
    List.iter
      (fun tear ->
        if not (crash_at ?tear point) then Alcotest.failf "crash point %d never fired" point)
      tears
  done

let test_no_crash_baseline () =
  (* With a crash point past its last write the workload completes and
     still verifies. *)
  Alcotest.(check bool) "did not crash" false (crash_at 1_000_000)

let prop_crash_anywhere =
  QCheck.Test.make ~name:"crash at any operation leaves a recoverable pack" ~count:40
    QCheck.(int_bound 400)
    (fun point ->
      match crash_at (point mod Lazy.force workload_writes) with
      | crashed -> crashed
      | exception _ -> false)

let test_crash_during_world_swap () =
  (* OutLoad is hundreds of sequential writes; a crash mid-swap must
     leave both the volume and the previous world file usable. *)
  let geometry = { Geometry.diablo_31 with Geometry.model = "w"; cylinders = 80 } in
  let drive = Drive.create ~pack_id:4 geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let state =
    match Checkpoint.state_file fs ~directory:root ~name:"W.state" with
    | Ok f -> f
    | Error _ -> failwith "state"
  in
  let memory = Alto_machine.Memory.create () in
  let cpu = Alto_machine.Cpu.create memory in
  Alto_machine.Memory.write memory 1234 (Word.of_int 0xAAAA);
  (match World.out_load cpu state with Ok () -> () | Error _ -> failwith "first save");
  (* Second save dies halfway through. *)
  Alto_machine.Memory.write memory 1234 (Word.of_int 0xBBBB);
  Fault.crash_after_writes drive 150;
  (match World.out_load cpu state with
  | Ok () -> Alcotest.fail "should have crashed"
  | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', _) -> (
      let root' =
        match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root"
      in
      match Directory.lookup root' "W.state" with
      | Ok (Some e) -> (
          match File.open_leader fs' e.Directory.entry_file with
          | Error err -> Alcotest.failf "state file unopenable: %a" File.pp_error err
          | Ok f -> (
              (* The image is a page-level mix of old and new world; both
                 had 0xAAAA or 0xBBBB at 1234, and everything else equal,
                 so the restored world must be coherent except possibly
                 that word. *)
              match World.read_saved_memory f ~pos:1234 ~len:1 with
              | Ok [| w |] ->
                  let v = Word.to_int w in
                  Alcotest.(check bool) "word is one of the two versions" true
                    (v = 0xAAAA || v = 0xBBBB)
              | Ok _ | Error _ ->
                  (* A crash very early can leave the header mid-write;
                     peek_registers failing cleanly is acceptable — what
                     is not acceptable is a crash of our own machinery. *)
                  ()))
      | Ok None | Error _ -> Alcotest.fail "state file lost entirely")

(* {2 The crash point and the torn sector} *)

(* A small committed volume plus one file with a delayed overwrite
   pending in the track buffers — the flush sweep is the write the
   crash-point tests aim at. *)
let committed_with_pending_overwrite () =
  let drive, fs, _root, files = build () in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush2");
  let _, _, f0 = List.hd files in
  (match File.write_bytes f0 ~pos:0 (pattern ~seed:0 ~version:2 800) with
  | Ok () -> ()
  | Error _ -> failwith "overwrite");
  (drive, fs)

let torn_sectors drive =
  List.filter
    (fun i -> Drive.is_torn drive (Disk_address.of_index i))
    (List.init (Drive.sector_count drive) Fun.id)

let test_clean_crash_point_tears_nothing () =
  let drive, fs = committed_with_pending_overwrite () in
  Fault.crash_after_writes drive 0;
  Alcotest.(check bool) "armed" true (Drive.crash_pending drive);
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Alcotest.(check bool) "fired" false (Drive.crash_pending drive);
  Alcotest.(check (list int)) "no sector torn" [] (torn_sectors drive)

let test_cancelled_crash_point_never_fires () =
  let drive, fs = committed_with_pending_overwrite () in
  Fault.crash_after_writes ~tear:Drive.Torn_value drive 3;
  Fault.cancel_crash drive;
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  Alcotest.(check (list int)) "no sector torn" [] (torn_sectors drive)

let test_torn_sector_fails_until_rewritten () =
  let drive, fs = committed_with_pending_overwrite () in
  Fault.crash_after_writes ~tear:Drive.Torn_value drive 0;
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  let addr =
    match torn_sectors drive with
    | [ i ] -> Disk_address.of_index i
    | l -> Alcotest.failf "expected one torn sector, found %d" (List.length l)
  in
  (* The torn part is detectably unreadable... *)
  let buf = Array.make Sector.value_words Word.zero in
  (match
     Reliable.run ~policy:Reliable.salvage_policy drive addr
       { Drive.op_none with value = Some Drive.Read }
       ~value:buf ()
   with
  | Ok () -> Alcotest.fail "a torn value must not read back"
  | Error _ -> ());
  (* ...and a full rewrite of the part heals it, as production paths do. *)
  (match
     Reliable.run drive addr
       { Drive.op_none with value = Some Drive.Write }
       ~value:(Array.make Sector.value_words (Word.of_int 0x5A5A))
       ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "healing rewrite failed: %a" Drive.pp_error e);
  Alcotest.(check bool) "torn state cleared" false (Drive.is_torn drive addr);
  match
    Reliable.run ~policy:Reliable.salvage_policy drive addr
      { Drive.op_none with value = Some Drive.Read }
      ~value:buf ()
  with
  | Ok () -> Alcotest.(check int) "fresh words" 0x5A5A (Word.to_int buf.(0))
  | Error e -> Alcotest.failf "healed sector unreadable: %a" Drive.pp_error e

(* {2 The flight recorder's own seal} *)

let test_damaged_flight_seal_reads_as_absent () =
  let drive = Drive.create ~pack_id:6 small_geometry in
  let fs = Fs.format drive in
  Flight.enable ();
  Flight.flush ~reason:"test" fs;
  (match Flight.adopt fs with
  | Some _ -> ()
  | None -> Alcotest.fail "an intact seal must adopt");
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let log =
    match Directory.lookup root Flight.file_name with
    | Ok (Some e) -> (
        match File.open_leader fs e.Directory.entry_file with
        | Ok f -> f
        | Error _ -> failwith "open log")
    | Ok None | Error _ -> failwith "no flight record file"
  in
  (* One byte garbled mid-payload: the checksum must reject the seal. *)
  let len = File.byte_length log in
  (match File.write_bytes log ~pos:(len - 10) "X" with
  | Ok () -> ()
  | Error _ -> failwith "garble");
  (match Flight.adopt fs with
  | None -> ()
  | Some _ -> Alcotest.fail "a garbled seal must read as absent");
  (* A truncated record — the torn tail a crash mid-seal leaves — must
     fail the header's length check, not hand garbage to a consumer. *)
  (match File.truncate log ~len:(len - 7) with
  | Ok () -> ()
  | Error _ -> failwith "truncate");
  (match Flight.adopt fs with
  | None -> ()
  | Some _ -> Alcotest.fail "a truncated seal must read as absent");
  Flight.disable ()

(* {2 Boot meets an unmountable pack} *)

let test_boot_scavenges_before_formatting () =
  let drive, fs, _root, _files = build () in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (* Garble the label of the first page of each descriptor record slot:
     the pack no longer mounts, but every file is still on the platter —
     boot must reach for the scavenger, not the formatter. *)
  let rng = Alto_machine.Splitmix.of_seed 7 in
  List.iter
    (fun i -> Fault.corrupt_part rng drive (Disk_address.of_index i) Sector.Label)
    [ 2; 2 + (Fs.descriptor_page_count fs / 2) ];
  (match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mount should fail on a garbled descriptor"
  | Error _ -> ());
  let sys = System.boot ~drive () in
  let fs' = System.fs sys in
  let root' =
    match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root"
  in
  (match Directory.lookup root' "C00.dat" with
  | Ok (Some e) -> (
      match File.open_leader fs' e.Directory.entry_file with
      | Ok f -> Alcotest.(check int) "C00.dat intact" 800 (File.byte_length f)
      | Error err -> Alcotest.failf "C00.dat unopenable: %a" File.pp_error err)
  | Ok None -> Alcotest.fail "C00.dat lost: boot formatted instead of scavenging"
  | Error e -> Alcotest.failf "root entries: %a" Directory.pp_error e);
  Flight.disable ()

(* {2 Every write of a workload, through the harness}

   Each sweep below hands one workload to [Crash_harness.sweep] at every
   write it issues, cleanly and with the fatal sector's label or value
   torn. The harness checks the write-ahead map, recovers by its rule —
   boot, and one verifying scavenge if the checker or the content oracle
   still objects — and after it neither may. Every crash point must
   fire, and the workload must write at least as often as it did when
   its sweep was written. *)

(* No page was left headless: no [Scavenged.*] name in the root, and
   every catalogued file's leader still carries its entry's name. A file
   the mutation creates is exempt from the second: its leader's delayed
   rewrite is a write in flight, and when a crash tears it recovery
   rebuilds the leader under a scavenger's name. *)
let nothing_headless expects fs =
  let created name = List.exists (fun e -> e.Crash_harness.e_name = name && e.e_len1 = 0) expects in
  match Result.bind (Directory.open_root fs) Directory.entries with
  | Error _ -> Some "root unreadable"
  | Ok entries ->
      List.find_map
        (fun (e : Directory.entry) ->
          let name = e.Directory.entry_name in
          if String.starts_with ~prefix:"Scavenged." name then
            Some ("headless pages adopted as " ^ name)
          else
            match File.open_leader fs e.Directory.entry_file with
            | Ok f when not (created name || String.equal (File.leader f).Alto_fs.Leader.name name) ->
                Some
                  (Printf.sprintf "%s has a rebuilt leader named %s" name
                     (File.leader f).Alto_fs.Leader.name)
            | Ok _ | Error _ -> None)
        entries

let harness_workload w_name ~build ~mutate expects =
  {
    Crash_harness.w_name;
    w_build = (fun () -> (build (), expects));
    w_mutate = mutate;
    w_after_crash = ignore;
    w_extra = nothing_headless expects;
  }

let every_write ~min_writes what w =
  let t = Crash_harness.sweep ~points_per_workload:max_int [ w ] in
  List.iter print_endline t.Crash_harness.violation_log;
  Alcotest.(check int) (what ^ ": no invariant violations") 0 t.Crash_harness.violations;
  Alcotest.(check int) (what ^ ": every crash point fired") 0 t.Crash_harness.completed;
  Alcotest.(check bool) (what ^ " writes") true (t.Crash_harness.trials / 3 >= min_writes);
  t

let mount_exn drive = match Fs.mount drive with Ok fs -> fs | Error msg -> failwith msg

let open_exn fs name =
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  match Directory.lookup root name with
  | Ok (Some e) -> (
      match File.open_leader fs e.Directory.entry_file with Ok f -> f | Error _ -> failwith "open")
  | Ok None | Error _ -> failwith "lookup"

(* {3 Replacing in place}

   [File.replace] in its three shapes — a grow, a shrink and a same-size
   rewrite with a shorter tail — on a committed pack. Every page of
   every file reads back as its old or its new version. *)

let replace_cases = [ ("Grow.dat", 1, 700, 3400); ("Shrink.dat", 2, 1900, 700); ("Same.dat", 3, 1400, 1100) ]

(* A fresh pack on [geometry] holding [files], each [(name, seed, len)]
   written whole as version 1 and catalogued, then a consistency point.
   [prepare] sets the volume up before the first file. *)
let committed_pack ?(prepare = ignore) ~pack_id geometry files =
  let drive = Drive.create ~pack_id geometry in
  let fs = Fs.format drive in
  prepare fs;
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  List.iter
    (fun (name, seed, len) ->
      match
        Result.bind (File.create fs ~name) (fun f ->
            Result.bind (File.replace f (pattern ~seed ~version:1 len)) (fun () ->
                Result.map_error (fun _ -> File.Hint_failed) (Directory.add root ~name (File.leader_name f))))
      with
      | Ok () -> ()
      | Error _ -> failwith "plant")
    files;
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

let replace_pack () =
  committed_pack ~pack_id:8 small_geometry
    (List.map (fun (name, seed, len1, _) -> (name, seed, len1)) replace_cases)

let replace_expects ~touched =
  List.map
    (fun (name, seed, len1, len2) ->
      {
        Crash_harness.e_name = name;
        e_seed = seed;
        e_len1 = len1;
        e_len2 = (if touched then len2 else len1);
        e_touched = touched;
        e_may_vanish = false;
      })
    replace_cases

let replace_all drive =
  let fs = mount_exn drive in
  List.iter
    (fun (name, seed, _, len2) -> ignore (File.replace (open_exn fs name) (pattern ~seed ~version:2 len2)))
    replace_cases

let test_replace_crash_points () =
  ignore @@ every_write ~min_writes:10 "the replaces"
    (harness_workload "replace" ~build:replace_pack ~mutate:replace_all (replace_expects ~touched:true))

(* {3 Creating a file}

   [File.create], a multi-page [File.write_bytes] and [Directory.add] on
   the committed replace pack. The new file's leader goes down naming a
   page 1 not yet written, and each fresh page names its successor
   before that is written. Recovery keeps the committed files whole; the
   new file is gone, or reads back a prefix of its bytes under its own
   name. Its leader is written first, so no page is ever adopted
   headless; a crash that tears the leader's delayed rewrite leaves it
   rebuilt under a scavenger's name. *)

let new_file =
  {
    Crash_harness.e_name = "New.dat";
    e_seed = 4;
    e_len1 = 0;
    e_len2 = (5 * Sector.bytes_per_page) + 300;
    e_touched = true;
    e_may_vanish = true;
  }

let create_work drive =
  let fs = mount_exn drive in
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  let name = new_file.Crash_harness.e_name in
  match File.create fs ~name with
  | Error _ -> ()
  | Ok f ->
      ignore (File.write_bytes f ~pos:0 (pattern ~seed:new_file.e_seed ~version:2 new_file.e_len2));
      ignore (File.flush_leader f);
      ignore (Directory.add root ~name (File.leader_name f));
      ignore (Fs.flush fs)

let test_create_crash_points () =
  ignore @@ every_write ~min_writes:10 "the create"
    (harness_workload "create" ~build:replace_pack ~mutate:create_work
       (new_file :: replace_expects ~touched:false))

(* {3 Freeing a run}

   [File.delete] and [File.truncate] free their pages as one run, in
   elevator order rather than last page first, so a crash part way can
   free pages from the middle of the file. Recovery keeps the prefix up
   to the first freed page: the file stays whole, stops short holding
   only its old bytes, or (a delete whose leader went) is gone. Because
   the leader is freed last, no page is ever left headless, so no
   [Scavenged.*] name may appear, in the directory or on a leader. *)

let run_file = "Run.dat"
let run_seed = 6
let run_bytes = (14 * Sector.bytes_per_page) - 200

let run_expect ~len2 =
  {
    Crash_harness.e_name = run_file;
    e_seed = run_seed;
    e_len1 = run_bytes;
    e_len2 = len2;
    e_touched = true;
    e_may_vanish = len2 = 0;
  }

(* The file laid out consecutively, or scattered so that the elevator
   frees it in an order unrelated to its page numbers. *)
let run_pack ~scattered () =
  committed_pack ~pack_id:9 small_geometry
    ~prepare:(fun fs ->
      if scattered then Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 9)))
    [ (run_file, run_seed, run_bytes) ]

let on_run_file drive f = ignore (f (open_exn (mount_exn drive) run_file))

let test_delete_run_crash_points () =
  List.iter
    (fun scattered ->
      ignore @@ every_write ~min_writes:15 "the delete"
        (harness_workload "delete" ~build:(run_pack ~scattered)
           ~mutate:(fun drive -> on_run_file drive File.delete)
           [ run_expect ~len2:0 ]))
    [ false; true ]

let test_truncate_run_crash_points () =
  List.iter
    (fun scattered ->
      ignore @@ every_write ~min_writes:10 "the truncate"
        (harness_workload "truncate" ~build:(run_pack ~scattered)
           ~mutate:(fun drive -> on_run_file drive (File.truncate ~len:1800))
           [ run_expect ~len2:1800 ]))
    [ false; true ]

(* {2 Boot's recovery path}

   A pack that crashed is settled through its write-ahead map, whatever
   the patrol's cursor says, and the checker certifies the pack it
   leaves. A pack whose map cannot serve is scavenged whole. *)

(* The run file's delete killed at its sixth write, with pages freed
   from the middle of the file, on a pack whose saved patrol cursor is
   [cursor]. *)
let crashed_delete ?(cursor = 0) ~scattered () =
  Flight.disable ();
  let drive = run_pack ~scattered () in
  (if cursor > 0 then
     match Fs.mount drive with
     | Error msg -> failwith msg
     | Ok fs -> (
         Fs.set_patrol_cursor fs cursor;
         match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean"));
  Fault.crash_after_writes drive 5;
  (match on_run_file drive File.delete with
  | () -> failwith "the delete outran its crash point"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  drive

let saved_cursor drive =
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "mount: %s" msg
  | Ok fs ->
      Alcotest.(check bool) "the crash left the pack dirty" true (Fs.dirty fs);
      Fs.patrol_cursor fs

(* The same pack with both descriptor records overwritten: nothing says
   where the crash wrote, and the pack does not mount. *)
let crashed_delete_without_map ~scattered () =
  let drive = crashed_delete ~scattered () in
  let pages =
    match Fs.mount drive with
    | Ok fs -> Fs.descriptor_page_count fs
    | Error msg -> failwith msg
  in
  List.iter
    (fun i ->
      Drive.poke drive (Disk_address.of_index i) Sector.Value
        (Array.make Sector.value_words Word.zero))
    (List.init pages (fun k -> 2 + k));
  drive

(* Boot a crashed pack, and fail unless the recovery [expected] ran. *)
let boot_by ~expected drive =
  let sys = System.boot ~drive () in
  Flight.disable ();
  let r = System.recovery sys in
  if not (expected r) then Alcotest.failf "boot recovered by %a" System.pp_recovery r

let through_map = function Recovery.Through_map _ -> true | _ -> false

let certified drive =
  List.iter
    (fun i -> Alcotest.failf "fsck: %a" Alto_fs.Fsck.pp_issue i)
    (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations

let test_dirty_pack_boots_through_the_map () =
  let drive = crashed_delete ~scattered:false () in
  Alcotest.(check int) "the cursor is at 0" 0 (saved_cursor drive);
  boot_by ~expected:through_map drive;
  certified drive;
  let fs = mount_exn drive in
  List.iter Alcotest.fail (Crash_harness.verify_expect fs (run_expect ~len2:0));
  Option.iter Alcotest.fail (nothing_headless [ run_expect ~len2:0 ] fs)

let test_mid_lap_recovers_through_the_map () =
  let count name = Alto_obs.Obs.counter_value (Alto_obs.Obs.counter name) in
  let cursor = Geometry.sector_count small_geometry / 2 in
  let drive = crashed_delete ~cursor ~scattered:false () in
  Alcotest.(check int) "the cursor survived the crash" cursor (saved_cursor drive);
  let scavenges = count "scavenger.runs" in
  boot_by ~expected:through_map drive;
  Alcotest.(check int) "no scavenge" scavenges (count "scavenger.runs")

let test_lost_map_scavenges_whole () =
  let drive = crashed_delete_without_map ~scattered:false () in
  (match Fs.mount drive with
  | Ok _ -> Alcotest.fail "a pack with neither record mounted"
  | Error _ -> ());
  boot_by drive ~expected:(function Recovery.Scavenged (Recovery.Unmountable, _) -> true | _ -> false);
  certified drive

(* A boot's recovery, through the map or (with the map lost) a whole-pack
   scavenge, killed at every write it issues. *)
let test_boot_scavenge_crash_points () =
  let boot drive =
    ignore (System.boot ~drive () : System.t);
    Flight.disable ()
  in
  List.iter
    (fun (plant, what) ->
      List.iter
        (fun scattered ->
          ignore @@ every_write ~min_writes:5 what
            (harness_workload "boot" ~build:(plant ~scattered) ~mutate:boot [ run_expect ~len2:0 ]))
        [ false; true ])
    [ (crashed_delete ?cursor:None, "the repair"); (crashed_delete_without_map, "the scavenge") ]

(* {2 Serials after a dirty boot} *)

(* Serials named by some label on the platter, read out of band. *)
let serials_on_platter drive =
  List.filter_map
    (fun i ->
      match
        Alto_fs.Label.classify (Drive.peek drive (Disk_address.of_index i)).Sector.label
      with
      | Alto_fs.Label.Valid l -> Some l.Alto_fs.Label.fid.Alto_fs.File_id.serial
      | Alto_fs.Label.Free | Alto_fs.Label.Bad | Alto_fs.Label.Garbage _ -> None)
    (List.init (Drive.sector_count drive) Fun.id)

(* The descriptor records the serial counter only when it is written, so
   a crash loses every create since the last write — but not their
   labels. A dirty boot must not hand one of those serials out again,
   or the next scavenge merges two files under one id. *)
let test_dirty_boot_hands_out_unused_serials () =
  let drive = Drive.create ~pack_id:5 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let create fs name =
    match File.create fs ~name with Ok f -> f | Error _ -> Alcotest.failf "create %s" name
  in
  List.iter (fun i -> ignore (create fs (Printf.sprintf "A%d" i) : File.t)) [ 1; 2; 3; 4 ];
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  List.iter (fun i -> ignore (create fs (Printf.sprintf "B%d" i) : File.t)) [ 1; 2; 3; 4 ];
  let taken = serials_on_platter drive in
  let sys = System.boot ~drive () in
  Flight.disable ();
  let serial = (File.fid (create (System.fs sys) "C")).Alto_fs.File_id.serial in
  if List.mem serial taken then
    Alcotest.failf "serial %d already labels a sector on the platter" serial

(* However many serials a volume hands out between descriptor writes,
   a dirty mount of what the platter then says resumes beyond them. *)
let test_dirty_mount_resumes_past_every_serial () =
  let drive = Drive.create ~pack_id:5 Geometry.diablo_31 in
  let fs = Fs.format drive in
  (* The first mutation marks the pack dirty on the platter. *)
  (match Fs.reserve_pages fs 1 with Ok _ -> () | Error _ -> Alcotest.fail "reserve");
  let last = ref 0 in
  for _ = 1 to 10_000 do
    last := (Fs.fresh_fid fs).Alto_fs.File_id.serial
  done;
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "mount: %s" msg
  | Ok mounted ->
      Alcotest.(check bool) "mounted dirty" true (Fs.dirty mounted);
      if Fs.next_serial mounted <= !last then
        Alcotest.failf "a dirty mount resumes at %d, but %d is in use"
          (Fs.next_serial mounted) !last

(* {2 The write-ahead map} *)

(* A committed pack whose files are scattered by interleaved growth:
   compaction has every page to move. *)
let scattered_pack () =
  let drive = Drive.create ~pack_id:12 small_geometry in
  let fs = Fs.format drive in
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  let files =
    List.init 4 (fun seed ->
        let name = Printf.sprintf "K%02d.dat" seed in
        match File.create fs ~name with
        | Ok f ->
            (match Directory.add root ~name (File.leader_name f) with
            | Ok () -> ()
            | Error _ -> failwith "add");
            (f, seed)
        | Error _ -> failwith "create")
  in
  for r = 0 to 3 do
    List.iter
      (fun (f, seed) ->
        match File.write_bytes f ~pos:(r * 512) (String.sub (pattern ~seed ~version:1 2048) (r * 512) 512) with
        | Ok () -> ()
        | Error _ -> failwith "extend")
      files
  done;
  List.iter (fun (f, _) -> ignore (File.flush_leader f)) files;
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

let compact drive =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs -> ignore (Compactor.compact fs : (Fs.t * Scavenger.report, string) result)

(* A pack with a world saved to its state file, and little else. *)
let world_pack () =
  let geometry = { Geometry.diablo_31 with Geometry.model = "w"; cylinders = 14 } in
  let drive = Drive.create ~pack_id:4 geometry in
  let fs = Fs.format drive in
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  (match Checkpoint.state_file fs ~directory:root ~name:"W.state" with
  | Ok state ->
      let memory = Alto_machine.Memory.create () in
      Alto_machine.Memory.fill memory ~pos:0 ~len:65536 (Word.of_int 0xAAAA);
      ignore (World.out_load (Alto_machine.Cpu.create memory) state : (unit, World.error) result)
  | Error _ -> failwith "state");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

let out_load drive =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs -> (
      let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
      match Checkpoint.state_file fs ~directory:root ~name:"W.state" with
      | Ok state ->
          let memory = Alto_machine.Memory.create () in
          Alto_machine.Memory.fill memory ~pos:0 ~len:65536 (Word.of_int 0xBBBB);
          ignore (World.out_load (Alto_machine.Cpu.create memory) state : (unit, World.error) result)
      | Error _ -> failwith "state")

(* Kill [work] at each of its writes: everything outside the descriptor
   that reached the platter lies in the cylinders the pack's map names,
   so whenever anything did, the pack mounts dirty. Returns the writes,
   and how many crash points left a change behind. *)
let crashes_mount_dirty ~plant ~work =
  let writes =
    let drive = plant () in
    let before = Drive.write_ops drive in
    work drive;
    Drive.write_ops drive - before
  in
  let changed_points = ref 0 in
  for point = 0 to writes - 1 do
    let drive = plant () in
    let before = Crash_harness.image drive in
    Fault.crash_after_writes drive point;
    (try work drive with Drive.Power_failure -> ());
    Fault.cancel_crash drive;
    match Fs.mount drive with
    | Error _ -> ()
    | Ok fs ->
        if Crash_harness.changed before fs <> [] then incr changed_points;
        Option.iter (Alcotest.failf "write %d: %s" point) (Crash_harness.write_ahead_miss before fs)
  done;
  (writes, !changed_points)

let test_compaction_crash_mounts_dirty () =
  let writes, changed = crashes_mount_dirty ~plant:scattered_pack ~work:compact in
  Alcotest.(check bool) "the compaction moves pages" true (writes >= 20);
  Alcotest.(check bool) "nearly every crash point changed the pack" true (changed >= writes - 3)

let test_out_load_crash_mounts_dirty () =
  let writes, changed = crashes_mount_dirty ~plant:world_pack ~work:out_load in
  Alcotest.(check bool) "the swap writes the image" true (writes >= 100);
  Alcotest.(check bool) "nearly every crash point changed the pack" true (changed >= writes - 3)

(* A change poked past the fence into a clean pack, then a write
   through it: killed before the write's map record lands, whether the
   record was cut off or torn, the pack mounts clean holding the change,
   and the harness reports it. Once the record names the cylinder, the
   same change breaks no rule. *)
let test_unmapped_write_is_reported () =
  let far = Geometry.sector_count small_geometry - 1 in
  let zeros = Array.make Sector.value_words Word.zero in
  let writes drive =
    Drive.poke drive (Disk_address.of_index far) Sector.Value zeros;
    let write = { Drive.op_none with value = Some Drive.Write } in
    ignore (Reliable.run drive (Disk_address.of_index (far - 1)) write ~value:zeros ())
  in
  let pack () = committed_pack ~pack_id:13 small_geometry [] in
  let w = harness_workload "bypass" ~build:pack ~mutate:writes [] in
  let t = Crash_harness.sweep ~points_per_workload:max_int [ w ] in
  List.iter
    (fun tear ->
      let line = Printf.sprintf "bypass@0%s: sector %d changed outside the write-ahead map" tear far in
      Alcotest.(check bool) line true (List.mem line t.Crash_harness.violation_log))
    [ ""; "/torn-label"; "/torn-value" ];
  Alcotest.(check int) "nothing once the map names it" 3 t.Crash_harness.violations

(* A compaction that ran to its end on a clean pack leaves it clean. *)
let test_compaction_keeps_a_clean_pack_clean () =
  let drive = scattered_pack () in
  compact drive;
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "mount: %s" msg
  | Ok fs -> Alcotest.(check bool) "clean after a whole compaction" false (Fs.dirty fs)

(* The second map write of a run dies torn: the pack still mounts, the
   older descriptor record answers, and recovery reads what it names. *)
let test_torn_map_write_keeps_the_older_map () =
  let drive = run_pack ~scattered:false () in
  let fs = match Fs.mount drive with Ok fs -> fs | Error msg -> failwith msg in
  let n = Drive.sector_count drive and per_cylinder = 24 in
  let last = Disk_address.of_index (n - 1) in
  let middle = Disk_address.of_index (n / 2) in
  Fs.announce fs [ middle ];
  let older = Fs.mapped_cylinders fs in
  Alcotest.(check (list int)) "one cylinder mapped" [ n / 2 / per_cylinder ] older;
  Fault.crash_after_writes ~tear:Drive.Torn_value drive 0;
  (match Fs.announce fs [ last ] with
  | () -> Alcotest.fail "the map write outran its crash point"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  (* The records are the descriptor's data pages, after its leader. *)
  let records = List.init (Fs.descriptor_page_count fs) (fun k -> Disk_address.of_index (2 + k)) in
  Alcotest.(check bool) "a record is torn" true (List.exists (Drive.is_torn drive) records);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "a torn record left the pack unmountable: %s" msg
  | Ok crashed -> (
      Alcotest.(check (list int)) "the older record answers" older (Fs.mapped_cylinders crashed);
      match Recovery.recover crashed with
      | _, Recovery.Through_map (cylinders, _) ->
          Alcotest.(check (list int)) "recovery read the older map" older cylinders;
          certified drive
      | _, outcome -> Alcotest.failf "recovered by %a" Recovery.pp_outcome outcome)

(* A dirty boot reads the mapped cylinders, a sector each, plus what its
   repairs read — never the pack. *)
let test_dirty_boot_reads_the_mapped_cylinders () =
  let drive = crashed_delete ~scattered:false () in
  let fs = match Fs.mount drive with Ok fs -> fs | Error msg -> failwith msg in
  let cylinders = Fs.mapped_cylinders fs in
  let ops () = Alto_obs.Obs.(counter_value (counter "disk.operations")) in
  let writes () = Drive.write_ops drive in
  let ops0 = ops () and writes0 = writes () in
  let report =
    match Scavenger.repair fs ~cylinders with
    | Ok r -> r
    | Error why -> Alcotest.failf "the map did not settle the pack: %s" why
  in
  let reads = ops () - ops0 - (writes () - writes0) in
  let swept = 24 * List.length cylinders in
  let walked = report.Scavenger.sectors_scanned - swept in
  Alcotest.(check bool) "the sweep read every mapped sector" true (walked >= 0);
  (* What the repairs read: the pages the walks followed, and the root
     directory, a track of it at a time. *)
  if reads > swept + walked + 24 then
    Alcotest.failf "%d reads for %d mapped cylinders and %d walked pages" reads
      (List.length cylinders) walked;
  Alcotest.(check bool) "a fraction of the pack" true (reads < Drive.sector_count drive / 4)

(* {2 The descriptor, crashed at every write}

   On a Model 31 a descriptor record spans two pages, so a crash can fall
   between a record's pages. A burst of descriptor writes — map
   announcements for new cylinders, a flush carrying a new patrol
   cursor, then a consistency point — is killed at each of its writes,
   cleanly or tearing the fatal sector: the pack mounts from the other
   record slot, recovers through its map or comes back clean, with the
   patrol cursor old or new, and every committed file reads back as it
   was. *)

let descriptor_files = [ ("D1.dat", 21, 700); ("D2.dat", 22, 2600); ("D3.dat", 23, 5200) ]
let burst_cursor = 1200

let model_31_pack () = committed_pack ~pack_id:11 Geometry.diablo_31 descriptor_files

let descriptor_burst drive =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs ->
      let cylinder c = Disk_address.of_index (c * 24) in
      Fs.announce fs [ cylinder 60 ];
      Fs.announce fs [ cylinder 120; cylinder 180 ];
      Fs.set_patrol_cursor fs burst_cursor;
      (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
      Fs.announce fs [ cylinder 200 ];
      match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean"

let test_descriptor_crash_points () =
  (match Fs.mount (model_31_pack ()) with
  | Ok fs -> Alcotest.(check int) "two record slots of two pages" 4 (Fs.descriptor_page_count fs)
  | Error msg -> Alcotest.failf "mount: %s" msg);
  let expects =
    List.map
      (fun (name, seed, len) ->
        { (run_expect ~len2:len) with Crash_harness.e_name = name; e_seed = seed; e_len1 = len;
          e_touched = false })
      descriptor_files
  in
  let cursor fs =
    match Fs.patrol_cursor fs with
    | 0 | 1200 -> nothing_headless expects fs
    | c -> Some (Printf.sprintf "the patrol cursor reads %d, neither old nor new" c)
  in
  let w = harness_workload "descriptor" ~build:model_31_pack ~mutate:descriptor_burst expects in
  let t = every_write ~min_writes:10 "the burst" { w with Crash_harness.w_extra = cursor } in
  Alcotest.(check int) "five records, two pages each" 30 t.Crash_harness.trials;
  Alcotest.(check int) "every dirty pack recovered through its map" t.Crash_harness.dirty_boots
    t.Crash_harness.through_map;
  Alcotest.(check int) "no escalation" 0 t.Crash_harness.scavenges

(* The scavenger moves a page off a descriptor sector and frees it: a
   free sector's value is all ones, which under the descriptor's label
   would read back as a record with the highest sequence number. The
   rebuilt descriptor lays such a sector down empty, so the pack mounts
   from the record it wrote. *)
let test_rebuild_empties_foreign_slots () =
  let drive = Drive.create ~pack_id:12 small_geometry in
  let fs = Fs.format drive in
  List.iter
    (fun k ->
      let addr = Disk_address.of_index (2 + k) in
      Drive.poke drive addr Sector.Label (Alto_fs.Label.free_words ());
      Drive.poke drive addr Sector.Value (Alto_fs.Label.free_value ()))
    (List.init (Fs.descriptor_page_count fs) Fun.id);
  (match Fs.rebuild_descriptor (Fs.create_unmounted drive) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rebuild: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "the rebuilt descriptor does not mount: %s" msg

(* Recovery through the map leaves what a whole-pack scavenge leaves. *)
let test_recovery_agrees_with_a_scavenge () =
  let compared, disagreements = Crash_harness.differential ~points_per_workload:3 () in
  List.iter print_endline disagreements;
  Alcotest.(check int) "45 crash points" 45 compared;
  Alcotest.(check int) "no disagreement" 0 (List.length disagreements)

(* {2 The harness, in miniature} *)

let test_harness_small_sweep () =
  let t = Crash_harness.run ~points_per_workload:3 () in
  List.iter print_endline t.Crash_harness.violation_log;
  Alcotest.(check int) "no invariant violations" 0 t.Crash_harness.violations;
  Alcotest.(check int) "no escalations" 0 t.Crash_harness.scavenges;
  Alcotest.(check int) "45 trials" 45 t.Crash_harness.trials;
  Alcotest.(check bool) "crash points fired" true (t.Crash_harness.crash_points > 0);
  Alcotest.(check bool) "torn variants fired" true (t.Crash_harness.torn_points > 0)

(* Sixty points per workload reach the compaction's in-place rewrites:
   a torn one must leave a twin the boot scavenge adopts. *)
let test_harness_sixty_points () =
  let t = Crash_harness.run ~points_per_workload:60 () in
  List.iter print_endline t.Crash_harness.violation_log;
  Alcotest.(check int) "684 trials" 684 t.Crash_harness.trials;
  Alcotest.(check int) "no invariant violations" 0 t.Crash_harness.violations;
  Alcotest.(check int) "no escalations" 0 t.Crash_harness.scavenges

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto crash consistency"
    [
      ( "power failure",
        [
          (* The clean crash points, split at the sixtieth write;
             together they cover every write. *)
          ("early sweep", `Quick, sweep ~last:early_writes [ None ]);
          ("dense sweep", `Quick, sweep ~first:early_writes [ None ]);
          ("torn-write sweep", `Quick, sweep [ Some Drive.Torn_label; Some Drive.Torn_value ]);
          ("baseline without crash", `Quick, test_no_crash_baseline);
          ("mid world swap", `Quick, test_crash_during_world_swap);
          property prop_crash_anywhere;
        ] );
      ( "crash points and torn sectors",
        [
          ("a clean crash point tears nothing", `Quick, test_clean_crash_point_tears_nothing);
          ("a cancelled crash point never fires", `Quick, test_cancelled_crash_point_never_fires);
          ("a torn sector fails until rewritten", `Quick, test_torn_sector_fails_until_rewritten);
          ("a damaged flight seal reads as absent", `Quick, test_damaged_flight_seal_reads_as_absent);
          ("boot scavenges before formatting", `Quick, test_boot_scavenges_before_formatting);
          ("the harness in miniature", `Quick, test_harness_small_sweep);
          ("the harness at sixty points", `Quick, test_harness_sixty_points);
          ("replace survives a crash at every write", `Quick, test_replace_crash_points);
          ("create survives a crash at every write", `Quick, test_create_crash_points);
          ("delete survives a crash at every write", `Quick, test_delete_run_crash_points);
          ("truncate survives a crash at every write", `Quick, test_truncate_run_crash_points);
          ( "a dirty pack boots certified through the map",
            `Quick,
            test_dirty_pack_boots_through_the_map );
          ( "a dirty pack mid-lap recovers through the map",
            `Quick,
            test_mid_lap_recovers_through_the_map );
          ("a lost map scavenges the whole pack", `Quick, test_lost_map_scavenges_whole);
          ( "boot scavenge survives a crash at every write",
            `Quick,
            test_boot_scavenge_crash_points );
          ("a dirty boot hands out unused serials", `Quick, test_dirty_boot_hands_out_unused_serials);
          ( "a dirty mount resumes past every serial",
            `Quick,
            test_dirty_mount_resumes_past_every_serial );
        ] );
      ( "write-ahead map",
        [
          ("a crash mid-compaction mounts dirty", `Quick, test_compaction_crash_mounts_dirty);
          ("a crash mid-OutLoad mounts dirty", `Quick, test_out_load_crash_mounts_dirty);
          ("an unmapped write is reported", `Quick, test_unmapped_write_is_reported);
          ( "a whole compaction keeps a clean pack clean",
            `Quick,
            test_compaction_keeps_a_clean_pack_clean );
          ( "a torn map write keeps the older map",
            `Quick,
            test_torn_map_write_keeps_the_older_map );
          ( "a dirty boot reads the mapped cylinders",
            `Quick,
            test_dirty_boot_reads_the_mapped_cylinders );
          ( "recovery agrees with a scavenge",
            `Quick,
            test_recovery_agrees_with_a_scavenge );
          ( "the descriptor survives a crash at every write",
            `Quick,
            test_descriptor_crash_points );
          ( "a rebuilt descriptor empties foreign slots",
            `Quick,
            test_rebuild_empties_foreign_slots );
        ] );
    ]

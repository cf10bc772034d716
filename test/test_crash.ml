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
let pattern ~seed ~version n =
  String.init n (fun i -> Char.chr (32 + (((i / 17) + (seed * 31) + (version * 47)) mod 90)))

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
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:1 (800 + (seed * 300))) with
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
      if seed mod 5 = 3 then begin
        (match File.delete file with Ok () -> () | Error _ -> ());
        match Directory.remove root name with Ok _ -> () | Error _ -> ()
      end
      else begin
        let n = 800 + (seed * 300) + if seed mod 2 = 0 then 600 else -300 in
        (match File.truncate file ~len:0 with Ok () -> () | Error _ -> ());
        (match File.write_bytes file ~pos:0 (pattern ~seed ~version:2 n) with
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

(* After recovery: every page of every catalogued file must match the
   corresponding page of some version of that file's pattern — no torn
   pages, no alien bytes. *)
let verify fs' =
  let root' =
    match Directory.open_root fs' with Ok r -> r | Error _ -> failwith "root after"
  in
  let entries =
    match Directory.entries root' with Ok e -> e | Error _ -> failwith "entries"
  in
  List.iter
    (fun (e : Directory.entry) ->
      let name = e.Directory.entry_name in
      let seed =
        if String.length name >= 3 && (name.[0] = 'C' || name.[0] = 'N') then
          match int_of_string_opt (String.sub name 1 2) with
          | Some s -> Some (if name.[0] = 'N' then s - 40 else s)
          | None -> None
        else None
      in
      match seed with
      | None -> () (* SysDir etc. *)
      | Some seed -> (
          match File.open_leader fs' e.Directory.entry_file with
          | Error err ->
              Alcotest.failf "%s unopenable after recovery: %a" name File.pp_error err
          | Ok f -> (
              let len = File.byte_length f in
              match File.read_bytes f ~pos:0 ~len with
              | Error err -> Alcotest.failf "%s unreadable: %a" name File.pp_error err
              | Ok bytes ->
                  let got = Bytes.to_string bytes in
                  (* Compare page by page against both versions (a crash
                     mid-overwrite legitimately leaves a prefix of v2 and
                     a suffix of v1 at page granularity). *)
                  let v1 = pattern ~seed ~version:1 (len + 4096) in
                  let v2 = pattern ~seed ~version:2 (len + 4096) in
                  let pages = (len + 511) / 512 in
                  for p = 0 to pages - 1 do
                    let lo = p * 512 in
                    let plen = min 512 (len - lo) in
                    let slice = String.sub got lo plen in
                    let matches v = String.equal slice (String.sub v lo plen) in
                    if not (matches v1 || matches v2) then
                      Alcotest.failf "%s page %d holds torn or alien bytes" name p
                  done)))
    entries

(* The write-ahead rule, checked out of band: every sector whose label
   or value differs from [before] (the image the pack held when the
   writes began) lies in a cylinder of the map the platter holds — the
   descriptor's own pages excepted, which hold the map. A pack that
   does not mount owes the whole of it. *)
let map_covers where drive before =
  match Fs.mount drive with
  | Error _ -> ()
  | Ok fs ->
      let mapped = Fs.mapped_cylinders fs in
      let g = Drive.geometry drive in
      let per_cylinder = g.Geometry.heads * g.Geometry.sectors_per_track in
      let descriptor_top = 1 + Fs.descriptor_page_count fs in
      Array.iteri
        (fun i (label, value) ->
          let now = Drive.peek drive (Disk_address.of_index i) in
          if
            i > descriptor_top
            && (now.Sector.label <> label || now.Sector.value <> value)
            && not (List.mem (i / per_cylinder) mapped)
          then Alcotest.failf "%s: sector %d changed outside the map" where i)
        before

let image drive =
  Array.init (Drive.sector_count drive) (fun i ->
      let s = Drive.peek drive (Disk_address.of_index i) in
      (s.Sector.label, s.Sector.value))

let crash_at ?tear point =
  let drive, fs, root, files = build () in
  let before = image drive in
  Fault.crash_after_writes ?tear drive point;
  let crashed =
    match workload fs root files with
    | () -> false
    | exception Drive.Power_failure -> true
  in
  Fault.cancel_crash drive;
  map_covers (Printf.sprintf "write %d" point) drive before;
  (* The machine is gone; all in-core state (fs handle, file handles,
     the allocation map!) is lost. Recovery starts from the drive. *)
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge after crash at %d: %s" point msg
  | Ok (fs', _report) ->
      verify fs';
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
  let rng = Random.State.make [| 7 |] in
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

(* {2 Replacing in place, crashed at every write}

   [File.replace] in its three shapes — a grow, a shrink and a same-size
   rewrite with a shorter tail — on a committed pack, killed at every
   writing operation, cleanly and with the fatal sector's label or value
   torn. The recovery rule is the harness's: boot, and a scavenge if the
   checker or the content oracle still objects. After it the checker
   finds no violation, and every page of every file reads back as its
   old or its new version. Kept outside the harness so its gated
   crash-point count stays exact. *)

let replace_cases = [ ("Grow.dat", 1, 700, 3400); ("Shrink.dat", 2, 1900, 700); ("Same.dat", 3, 1400, 1100) ]

let replace_pack () =
  let drive = Drive.create ~pack_id:8 small_geometry in
  let fs = Fs.format drive in
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  List.iter
    (fun (name, seed, len1, _) ->
      match File.create fs ~name with
      | Error _ -> failwith "create"
      | Ok f -> (
          match
            Result.bind (File.replace f (pattern ~seed ~version:1 len1)) (fun () ->
                Result.map_error (fun _ -> File.Hint_failed) (Directory.add root ~name (File.leader_name f)))
          with
          | Ok () -> ()
          | Error _ -> failwith "plant"))
    replace_cases;
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

let replace_all drive =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs ->
      let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
      List.iter
        (fun (name, seed, _, len2) ->
          match Directory.lookup root name with
          | Ok (Some e) -> (
              match File.open_leader fs e.Directory.entry_file with
              | Ok f -> ignore (File.replace f (pattern ~seed ~version:2 len2))
              | Error _ -> ())
          | Ok None | Error _ -> ())
        replace_cases

(* What the content oracle objects to on the recovered pack. *)
let replace_damage drive =
  match Fs.mount drive with
  | Error msg -> [ "remount: " ^ msg ]
  | Ok fs -> (
      match Directory.open_root fs with
      | Error _ -> [ "root unopenable" ]
      | Ok root ->
          List.concat_map
            (fun (name, seed, len1, len2) ->
              match Directory.lookup root name with
              | Ok None | Error _ -> [ name ^ " lost" ]
              | Ok (Some e) -> (
                  match File.open_leader fs e.Directory.entry_file with
                  | Error _ -> [ name ^ " unopenable" ]
                  | Ok f ->
                      let len = File.byte_length f in
                      let v1 = pattern ~seed ~version:1 (max len1 len + 512) in
                      let v2 = pattern ~seed ~version:2 (max len2 len + 512) in
                      List.filter_map
                        (fun p ->
                          let pos = p * 512 in
                          let n = min 512 (len - pos) in
                          match File.read_bytes f ~pos ~len:n with
                          | Error _ -> Some (Printf.sprintf "%s page %d unreadable" name p)
                          | Ok b ->
                              let got = Bytes.to_string b in
                              let matches v = String.equal got (String.sub v pos n) in
                              if matches v1 || matches v2 then None
                              else Some (Printf.sprintf "%s page %d torn or alien" name p))
                        (List.init ((len + 511) / 512) Fun.id)))
            replace_cases)

let tear_name = function
  | None -> ""
  | Some Drive.Torn_label -> " torn label"
  | Some Drive.Torn_value -> " torn value"

(* Kill [work] at every write it issues on a freshly [plant]ed pack,
   cleanly and with the fatal sector's label or value torn; check that
   the map the platter holds covers every sector the writes changed; and
   recover by the harness's rule: boot, and one verifying scavenge if
   the checker or [damage] still objects. After it the checker must find
   no violation and [damage] nothing. Returns how many writes [work]
   issues. *)
let sweep_crash_points ~plant ~work ~damage =
  let writes =
    let drive = plant () in
    let before = Drive.write_ops drive in
    work drive;
    Drive.write_ops drive - before
  in
  for point = 0 to writes - 1 do
    List.iter
      (fun tear ->
        let drive = plant () in
        let before = image drive in
        Fault.crash_after_writes ?tear drive point;
        (match work drive with
        | () -> Alcotest.failf "crash point %d never fired" point
        | exception Drive.Power_failure -> ());
        Fault.cancel_crash drive;
        let where = Printf.sprintf "write %d%s" point (tear_name tear) in
        map_covers where drive before;
        let sys = System.boot ~drive () in
        ignore (Fs.mark_clean (System.fs sys));
        Flight.disable ();
        let judge () = ((Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations, damage drive) in
        let violations, damage =
          match judge () with
          | [], [] -> ([], [])
          | _ -> (
              match Scavenger.scavenge drive with
              | Error msg -> Alcotest.failf "%s: scavenge failed: %s" where msg
              | Ok _ -> judge ())
        in
        List.iter (fun i -> Alcotest.failf "%s: fsck: %a" where Alto_fs.Fsck.pp_issue i) violations;
        List.iter (fun msg -> Alcotest.failf "%s: %s" where msg) damage)
      [ None; Some Drive.Torn_label; Some Drive.Torn_value ]
  done;
  writes

let test_replace_crash_points () =
  let writes = sweep_crash_points ~plant:replace_pack ~work:replace_all ~damage:replace_damage in
  Alcotest.(check bool) "the replaces write" true (writes >= 10)

(* {2 Creating a file, crashed at every write}

   [File.create], a multi-page [File.write_bytes] and [Directory.add] on
   the committed replace pack, killed at every write, cleanly and torn.
   The new file's leader goes down naming a page 1 not yet written, and
   each fresh page names its successor before that is written. Recovery
   keeps the committed files whole; the new file is gone, or reads back
   a prefix of its bytes under its own name (its leader is written
   first, so no page is ever left headless). *)

let created_name = "New.dat"
let created_contents = pattern ~seed:4 ~version:1 ((5 * Sector.bytes_per_page) + 300)

let create_work drive =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs -> (
      let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
      match File.create fs ~name:created_name with
      | Error _ -> ()
      | Ok f ->
          ignore (File.write_bytes f ~pos:0 created_contents);
          ignore (File.flush_leader f);
          ignore (Directory.add root ~name:created_name (File.leader_name f));
          ignore (Fs.flush fs))

let create_damage drive =
  match Fs.mount drive with
  | Error msg -> [ "remount: " ^ msg ]
  | Ok fs -> (
      match Directory.open_root fs with
      | Error _ -> [ "root unopenable" ]
      | Ok root -> (
          match Directory.entries root with
          | Error _ -> [ "root unreadable" ]
          | Ok entries ->
              let contents name =
                match Directory.lookup root name with
                | Ok None -> None
                | Error _ -> Some (Error "lookup failed")
                | Ok (Some e) -> (
                    match File.open_leader fs e.Directory.entry_file with
                    | Error _ -> Some (Error "unopenable")
                    | Ok f -> (
                        match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
                        | Error _ -> Some (Error "unreadable")
                        | Ok b -> Some (Ok (Bytes.to_string b))))
              in
              List.filter_map
                (fun (e : Directory.entry) ->
                  if String.starts_with ~prefix:"Scavenged." e.Directory.entry_name then
                    Some ("headless pages adopted as " ^ e.Directory.entry_name)
                  else None)
                entries
              @ List.concat_map
                  (fun (name, seed, len1, _) ->
                    match contents name with
                    | None -> [ name ^ " lost" ]
                    | Some (Error why) -> [ name ^ " " ^ why ]
                    | Some (Ok got) ->
                        if String.equal got (pattern ~seed ~version:1 len1) then []
                        else [ name ^ " changed" ])
                  replace_cases
              @
              match contents created_name with
              | None -> []
              | Some (Error why) -> [ created_name ^ " " ^ why ]
              | Some (Ok got) ->
                  let n = String.length got in
                  if n <= String.length created_contents && String.equal got (String.sub created_contents 0 n)
                  then []
                  else [ Printf.sprintf "%s holds %d bytes that are not a prefix of its own" created_name n ]))

let test_create_crash_points () =
  let writes = sweep_crash_points ~plant:replace_pack ~work:create_work ~damage:create_damage in
  Alcotest.(check bool) "the create writes every page" true (writes >= 10)

(* {2 Freeing a run, crashed at every write}

   [File.delete] and [File.truncate] free their pages as one run, in
   elevator order rather than last page first, so a crash part way can
   free pages from the middle of the file. Recovery keeps the prefix up
   to the first freed page: the file stays whole, stops short holding
   only its old bytes, or (a delete whose leader went) is gone. Because
   the leader is freed last, no page is ever left headless, so no
   [Scavenged.*] name may appear, in the directory or on a leader. *)

let run_file = "Run.dat"
let run_bytes = (14 * Sector.bytes_per_page) - 200
let run_contents = pattern ~seed:6 ~version:1 run_bytes

(* The file laid out consecutively, or scattered so that the elevator
   frees it in an order unrelated to its page numbers. *)
let run_pack ~scattered () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  if scattered then Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 9));
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  (match
     Result.bind (File.create fs ~name:run_file) (fun f ->
         Result.bind (File.replace f run_contents) (fun () ->
             Result.map_error (fun _ -> File.Hint_failed) (Directory.add root ~name:run_file (File.leader_name f))))
   with
  | Ok () -> ()
  | Error _ -> failwith "plant");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

let on_run_file drive f =
  match Fs.mount drive with
  | Error msg -> failwith msg
  | Ok fs -> (
      let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
      match Directory.lookup root run_file with
      | Ok (Some e) -> (
          match File.open_leader fs e.Directory.entry_file with
          | Ok file -> ignore (f file)
          | Error _ -> failwith "open")
      | Ok None | Error _ -> failwith "lookup")

let run_damage ~may_vanish drive =
  match Fs.mount drive with
  | Error msg -> [ "remount: " ^ msg ]
  | Ok fs -> (
      match Directory.open_root fs with
      | Error _ -> [ "root unopenable" ]
      | Ok root -> (
          let headless =
            match Directory.entries root with
            | Error _ -> [ "root unreadable" ]
            | Ok entries ->
                List.filter_map
                  (fun (e : Directory.entry) ->
                    if String.starts_with ~prefix:"Scavenged." e.Directory.entry_name then
                      Some ("headless pages adopted as " ^ e.Directory.entry_name)
                    else None)
                  entries
          in
          headless
          @
          match Directory.lookup root run_file with
          | Ok None -> if may_vanish then [] else [ run_file ^ " lost" ]
          | Error _ -> [ run_file ^ " lookup failed" ]
          | Ok (Some e) -> (
              match File.open_leader fs e.Directory.entry_file with
              | Error _ -> [ run_file ^ " unopenable" ]
              | Ok f when not (String.equal (File.leader f).Alto_fs.Leader.name run_file) ->
                  [ Printf.sprintf "%s has a rebuilt leader named %s" run_file (File.leader f).Alto_fs.Leader.name ]
              | Ok f -> (
                  let len = File.byte_length f in
                  match File.read_bytes f ~pos:0 ~len with
                  | Error _ -> [ run_file ^ " unreadable" ]
                  | Ok b ->
                      if len <= run_bytes && String.equal (Bytes.to_string b) (String.sub run_contents 0 len)
                      then []
                      else [ Printf.sprintf "%s holds %d bytes that are not its old prefix" run_file len ]))))

let test_delete_run_crash_points () =
  List.iter
    (fun scattered ->
      let writes =
        sweep_crash_points ~plant:(run_pack ~scattered)
          ~work:(fun drive -> on_run_file drive File.delete)
          ~damage:(run_damage ~may_vanish:true)
      in
      Alcotest.(check bool) "the delete writes every page" true (writes >= 15))
    [ false; true ]

let test_truncate_run_crash_points () =
  List.iter
    (fun scattered ->
      let writes =
        sweep_crash_points ~plant:(run_pack ~scattered)
          ~work:(fun drive -> on_run_file drive (File.truncate ~len:1800))
          ~damage:(run_damage ~may_vanish:false)
      in
      Alcotest.(check bool) "the truncate writes every page it cuts" true (writes >= 10))
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

let test_dirty_pack_boots_through_the_map () =
  let drive = crashed_delete ~scattered:false () in
  Alcotest.(check int) "the cursor is at 0" 0 (saved_cursor drive);
  let sys = System.boot ~drive () in
  Flight.disable ();
  (match System.recovery sys with
  | Recovery.Through_map _ -> ()
  | r -> Alcotest.failf "boot recovered by %a" System.pp_recovery r);
  List.iter
    (fun i -> Alcotest.failf "fsck: %a" Alto_fs.Fsck.pp_issue i)
    (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations;
  List.iter Alcotest.fail (run_damage ~may_vanish:true drive)

let test_mid_lap_recovers_through_the_map () =
  let count name = Alto_obs.Obs.counter_value (Alto_obs.Obs.counter name) in
  let cursor = Geometry.sector_count small_geometry / 2 in
  let drive = crashed_delete ~cursor ~scattered:false () in
  Alcotest.(check int) "the cursor survived the crash" cursor (saved_cursor drive);
  let scavenges = count "scavenger.runs" in
  let sys = System.boot ~drive () in
  Flight.disable ();
  (match System.recovery sys with
  | Recovery.Through_map _ -> ()
  | r -> Alcotest.failf "boot recovered by %a" System.pp_recovery r);
  Alcotest.(check int) "no scavenge" scavenges (count "scavenger.runs")

let test_lost_map_scavenges_whole () =
  let drive = crashed_delete_without_map ~scattered:false () in
  (match Fs.mount drive with
  | Ok _ -> Alcotest.fail "a pack with neither record mounted"
  | Error _ -> ());
  let sys = System.boot ~drive () in
  Flight.disable ();
  (match System.recovery sys with
  | Recovery.Scavenged (Recovery.Unmountable, _) -> ()
  | r -> Alcotest.failf "boot recovered by %a" System.pp_recovery r);
  List.iter
    (fun i -> Alcotest.failf "fsck: %a" Alto_fs.Fsck.pp_issue i)
    (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations

(* A boot's recovery, through the map or (with the map lost) a whole-pack
   scavenge, killed at every write it issues. *)
let test_boot_scavenge_crash_points () =
  List.iter
    (fun (plant, what) ->
      List.iter
        (fun scattered ->
          let writes =
            sweep_crash_points ~plant:(plant ~scattered)
              ~work:(fun drive -> ignore (System.boot ~drive () : System.t))
              ~damage:(run_damage ~may_vanish:true)
          in
          Alcotest.(check bool) (what ^ " writes") true (writes >= 5))
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

(* Kill [work] at each of its writes: whenever anything outside the
   descriptor reached the platter, the pack mounts dirty. Returns the
   writes, and how many crash points left a change behind. *)
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
    let before = image drive in
    let top = match Fs.mount drive with Ok fs -> 1 + Fs.descriptor_page_count fs | Error m -> failwith m in
    Fault.crash_after_writes drive point;
    (try work drive with Drive.Power_failure -> ());
    Fault.cancel_crash drive;
    let changed = ref false in
    Array.iteri
      (fun i (label, value) ->
        let now = Drive.peek drive (Disk_address.of_index i) in
        if i > top && (now.Sector.label <> label || now.Sector.value <> value) then changed := true)
      before;
    if !changed then begin
      incr changed_points;
      match Fs.mount drive with
      | Error _ -> ()
      | Ok fs ->
          if not (Fs.dirty fs) then Alcotest.failf "write %d changed the pack, which mounts clean" point
    end
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
          List.iter
            (fun i -> Alcotest.failf "fsck: %a" Alto_fs.Fsck.pp_issue i)
            (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations
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
   record slot, recovers through its map or comes back clean, and every
   committed file reads back as it was. *)

let descriptor_files = [ ("D1.dat", 21, 700); ("D2.dat", 22, 2600); ("D3.dat", 23, 5200) ]
let burst_cursor = 1200

let model_31_pack () =
  let drive = Drive.create ~pack_id:11 Geometry.diablo_31 in
  let fs = Fs.format drive in
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
    descriptor_files;
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "clean");
  drive

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
  Flight.disable ();
  let writes =
    let drive = model_31_pack () in
    (match Fs.mount drive with
    | Ok fs -> Alcotest.(check int) "two record slots of two pages" 4 (Fs.descriptor_page_count fs)
    | Error msg -> Alcotest.failf "mount: %s" msg);
    let before = Drive.write_ops drive in
    descriptor_burst drive;
    Drive.write_ops drive - before
  in
  Alcotest.(check int) "five records, two pages each" 10 writes;
  for point = 0 to writes - 1 do
    List.iter
      (fun tear ->
        let drive = model_31_pack () in
        Fault.crash_after_writes ?tear drive point;
        (match descriptor_burst drive with
        | () -> Alcotest.failf "crash point %d never fired" point
        | exception Drive.Power_failure -> ());
        Fault.cancel_crash drive;
        let where = Printf.sprintf "write %d%s" point (tear_name tear) in
        match Fs.mount drive with
        | Error msg -> Alcotest.failf "%s: the pack does not mount: %s" where msg
        | Ok crashed -> (
            let cursor = Fs.patrol_cursor crashed in
            if cursor <> 0 && cursor <> burst_cursor then
              Alcotest.failf "%s: the patrol cursor reads %d, neither old nor new" where cursor;
            match Recovery.recover crashed with
            | fs, (Recovery.Clean | Recovery.Through_map _) ->
                List.iter
                  (fun i -> Alcotest.failf "%s: fsck: %a" where Alto_fs.Fsck.pp_issue i)
                  (Alto_fs.Fsck.check drive).Alto_fs.Fsck.violations;
                let root =
                  match Directory.open_root fs with Ok r -> r | Error _ -> Alcotest.failf "%s: root" where
                in
                List.iter
                  (fun (name, seed, len) ->
                    let got =
                      match Directory.lookup root name with
                      | Ok (Some e) -> (
                          match File.open_leader fs e.Directory.entry_file with
                          | Error _ -> None
                          | Ok f ->
                              Result.to_option
                                (Result.map Bytes.to_string
                                   (File.read_bytes f ~pos:0 ~len:(File.byte_length f))))
                      | Ok None | Error _ -> None
                    in
                    if got <> Some (pattern ~seed ~version:1 len) then
                      Alcotest.failf "%s: %s does not read back as committed" where name)
                  descriptor_files
            | _, outcome -> Alcotest.failf "%s: recovered by %a" where Recovery.pp_outcome outcome))
      [ None; Some Drive.Torn_label; Some Drive.Torn_value ]
  done

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

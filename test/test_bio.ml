(* The track buffer cache (bio): fills of what the heads pass, whole
   tracks for tracks that come back, absorbed delayed writes,
   generation-policed coherence, and the two properties the design
   hangs on — a crash with dirty buffers loses at most recent
   page contents (never structure, never a settled page), and a
   workload replayed with the cache disabled leaves a byte-identical
   pack. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Fs = Alto_fs.Fs
module Bio = Alto_fs.Bio
module Label_cache = Alto_fs.Label_cache
module File = Alto_fs.File
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger

let small_geometry = { Geometry.diablo_31 with Geometry.model = "bio"; cylinders = 25 }

let counter name =
  match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0

let ok pp = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" pp e

(* A raw drive with a standalone bio on top — no file system, so the
   tests can watch single sectors. *)
let raw_bio ?tracks () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let bio = Bio.create ~label_cache:(Label_cache.create drive) drive in
  Option.iter (Bio.set_tracks bio) tracks;
  (drive, bio)

let addr i = Disk_address.of_index i

let distinct_label tag =
  Array.init Sector.label_words (fun k -> Word.of_int (tag + k))

let distinct_value tag = Array.make Sector.value_words (Word.of_int tag)

(* An all-wildcard name check: any label passes, as for a raw sector. *)
let wildcard () = Array.make Sector.label_words Word.zero

(* The value [probe] ({!Bio.lookup} or {!Bio.peek}) serves for a
   sector, if the cache holds it. *)
let served probe bio a =
  let value = Array.make Sector.value_words Word.zero in
  match probe bio a ~label:(wildcard ()) ~value with
  | Some (Ok ()) -> Some value
  | Some (Error _) | None -> None

let absorbed bio a value = Bio.absorb bio a ~label:(wildcard ()) value = Some (Ok ())

let spt_of drive = (Drive.geometry drive).Geometry.sectors_per_track
let now drive = Alto_machine.Sim_clock.now_us (Drive.clock drive)

let cylinder_of drive a =
  let cylinder, _, _ = Disk_address.chs (Drive.geometry drive) a in
  cylinder

(* The sector of [track] the heads would reach last: the one just before
   the slot where they land. A miss there reads the whole track. *)
let last_to_pass drive track =
  let spt = spt_of drive in
  let catch = Drive.catch_slot drive ~cylinder:(cylinder_of drive (addr (track * spt))) in
  addr ((track * spt) + ((catch + spt - 1) mod spt))

let fill_whole drive bio track = Bio.fill bio (last_to_pass drive track)

(* The sectors of [track] the cache holds, in slot order. *)
let resident_slots drive bio track =
  let spt = spt_of drive in
  List.filter (fun s -> Bio.resident bio (addr ((track * spt) + s))) (List.init spt Fun.id)

(* {2 Fills and hits} *)

let test_fill_serves_whole_track () =
  let drive, bio = raw_bio () in
  let spt = (Drive.geometry drive).Geometry.sectors_per_track in
  (* Stamp the track so served values are recognizable. *)
  for s = 0 to spt - 1 do
    Drive.poke drive (addr s) Sector.Value (distinct_value (100 + s))
  done;
  let hits0 = counter "fs.bio.hits" and misses0 = counter "fs.bio.misses" in
  (* The miss is on the sector the heads reach last, so every sector of
     the track passes under them on the way. *)
  let wanted = last_to_pass drive 0 in
  (match served Bio.lookup bio wanted with
  | Some _ -> Alcotest.fail "cold cache should miss"
  | None -> Bio.fill bio wanted);
  (* Every sector of the track is now a memory hit with the true bytes. *)
  for s = 0 to spt - 1 do
    match served Bio.lookup bio (addr s) with
    | None -> Alcotest.failf "sector %d not served after the track fill" s
    | Some value ->
        Alcotest.(check int)
          (Printf.sprintf "sector %d value" s)
          (100 + s) (Word.to_int value.(0))
  done;
  Alcotest.(check int) "one miss for the whole track" 1
    (counter "fs.bio.misses" - misses0);
  Alcotest.(check int) "twelve hits after one fill" spt
    (counter "fs.bio.hits" - hits0);
  Alcotest.(check int) "one resident track" 1 (Bio.cached_tracks bio)

let test_disabled_cache_is_inert () =
  let _drive, bio = raw_bio ~tracks:0 () in
  Alcotest.(check bool) "disabled" false (Bio.enabled bio);
  Bio.fill bio (addr 0);
  Alcotest.(check (option reject)) "nothing buffered"
    None
    (Option.map (fun _ -> ()) (served Bio.peek bio (addr 0)));
  Alcotest.(check bool) "absorb refuses" false
    (absorbed bio (addr 0) (distinct_value 7))

(* {2 Delayed writes} *)

let test_absorb_and_coalesced_flush () =
  let drive, bio = raw_bio () in
  let spt = (Drive.geometry drive).Geometry.sectors_per_track in
  for s = 0 to (2 * spt) - 1 do
    Drive.poke drive (addr s) Sector.Label (distinct_label 0x1000);
    Drive.poke drive (addr s) Sector.Value (distinct_value 1)
  done;
  fill_whole drive bio 0;
  fill_whole drive bio 1;
  (* Absorb three writes on the first track, one on the second. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "absorb %d" s)
        true
        (absorbed bio (addr s) (distinct_value (200 + s))))
    [ 0; 3; 7; spt ];
  Alcotest.(check int) "four dirty sectors" 4 (Bio.dirty_sectors bio);
  (* Nothing has reached the platter yet — the writes are delayed. *)
  let before = Drive.peek drive (addr 3) in
  Alcotest.(check int) "platter still v1" 1
    (Word.to_int (Sector.part_of before Sector.Value).(0));
  let report = Bio.flush bio in
  Alcotest.(check int) "flush wrote four sectors" 4 report.Bio.sectors;
  Alcotest.(check int) "coalesced into two track sweeps" 2 report.Bio.tracks;
  Alcotest.(check int) "no conflicts" 0 report.Bio.conflicts;
  Alcotest.(check int) "clean after flush" 0 (Bio.dirty_sectors bio);
  List.iter
    (fun s ->
      let sec = Drive.peek drive (addr s) in
      Alcotest.(check int)
        (Printf.sprintf "platter sector %d updated" s)
        (200 + s)
        (Word.to_int (Sector.part_of sec Sector.Value).(0)))
    [ 0; 3; 7; spt ]

let test_generation_kills_buffered_sector () =
  let drive, bio = raw_bio () in
  Drive.poke drive (addr 5) Sector.Value (distinct_value 42);
  fill_whole drive bio 0;
  (match served Bio.peek bio (addr 5) with
  | Some _ -> ()
  | None -> Alcotest.fail "sector 5 should be buffered");
  (* Out-of-band mutation bumps the label generation; the buffered copy
     must die rather than mask it. *)
  Drive.poke drive (addr 5) Sector.Value (distinct_value 43);
  (match served Bio.lookup bio (addr 5) with
  | Some _ -> Alcotest.fail "stale sector served after an out-of-band poke"
  | None -> ());
  (* Unpoked neighbours on the same track stay served. *)
  match served Bio.lookup bio (addr 4) with
  | Some _ -> ()
  | None -> Alcotest.fail "neighbour sector wrongly invalidated"

let test_conflicted_delayed_write_is_dropped () =
  let drive, bio = raw_bio () in
  Drive.poke drive (addr 2) Sector.Label (distinct_label 0x2000);
  fill_whole drive bio 0;
  Alcotest.(check bool) "absorbed" true (absorbed bio (addr 2) (distinct_value 9));
  (* Someone re-labels the sector underneath the delayed write. *)
  Drive.poke drive (addr 2) Sector.Label (distinct_label 0x3000);
  Drive.poke drive (addr 2) Sector.Value (distinct_value 77);
  let report = Bio.flush bio in
  Alcotest.(check int) "the stale write was dropped" 1 report.Bio.conflicts;
  let sec = Drive.peek drive (addr 2) in
  Alcotest.(check int) "the platter won" 77
    (Word.to_int (Sector.part_of sec Sector.Value).(0))

let test_eviction_flushes_dirty_track () =
  let drive, bio = raw_bio ~tracks:2 () in
  let spt = (Drive.geometry drive).Geometry.sectors_per_track in
  fill_whole drive bio 0;
  Alcotest.(check bool) "dirty on track 0" true
    (absorbed bio (addr 1) (distinct_value 55));
  (* Touch two more tracks; the LRU (dirty) track must be flushed, not
     dropped. *)
  Bio.fill bio (addr spt);
  Bio.fill bio (addr (2 * spt));
  Alcotest.(check int) "capacity respected" 2 (Bio.cached_tracks bio);
  let sec = Drive.peek drive (addr 1) in
  Alcotest.(check int) "evicted dirty sector reached the platter" 55
    (Word.to_int (Sector.part_of sec Sector.Value).(0))

(* {2 How much a miss reads} *)

(* A drive in a fixed state, the clock mid-revolution and the heads
   parked on cylinder 2; two calls make twins. *)
let parked_drive () =
  let drive, bio = raw_bio () in
  let spt = spt_of drive in
  let track = 2 * (Drive.geometry drive).Geometry.heads in
  ignore (Drive.run drive (addr (track * spt)) Drive.op_none () : (unit, Drive.error) result);
  Alto_machine.Sim_clock.advance_us (Drive.clock drive) 12_345;
  (drive, bio)

(* A cold miss reads from the slot where the heads land through the
   wanted sector and no further, and ends when a read of the wanted
   sector alone would. *)
let test_cold_miss_reads_the_prefix () =
  let drive, bio = parked_drive () in
  let twin, _ = parked_drive () in
  let spt = spt_of drive in
  let track = 7 in
  let catch = Drive.catch_slot drive ~cylinder:(cylinder_of drive (addr (track * spt))) in
  let rel = (catch + 5) mod spt in
  let wanted = addr ((track * spt) + rel) in
  let t0 = now drive in
  Alcotest.(check int) "the twin starts at the same instant" t0 (now twin);
  Bio.fill bio wanted;
  Alcotest.(check (list int)) "the catch slot through the wanted sector"
    (List.sort compare (List.init 6 (fun k -> (catch + k) mod spt)))
    (resident_slots drive bio track);
  let label = Array.make Sector.label_words Word.zero
  and value = Array.make Sector.value_words Word.zero in
  (match
     Drive.run twin wanted
       { Drive.op_none with Drive.label = Some Drive.Read; value = Some Drive.Read }
       ~label ~value ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "direct read: %a" Drive.pp_error e);
  Alcotest.(check int) "costs what the wanted sector alone costs"
    (now twin - t0) (now drive - t0)

(* A track evicted within the last [tracks] evictions comes back whole;
   one evicted longer ago gets the prefix like any cold track. The
   misses land on the catch slot, so a prefix is one sector. *)
let test_returning_track_is_read_whole () =
  let drive, bio = raw_bio ~tracks:2 () in
  let spt = spt_of drive in
  let miss track =
    let cylinder = cylinder_of drive (addr (track * spt)) in
    Bio.fill bio (addr ((track * spt) + Drive.catch_slot drive ~cylinder));
    List.length (resident_slots drive bio track)
  in
  let evictions0 = counter "fs.bio.evictions" in
  Alcotest.(check int) "a cold track reads one sector" 1 (miss 0);
  ignore (miss 1 : int);
  ignore (miss 2 : int);
  ignore (miss 3 : int);
  ignore (miss 4 : int);
  (* Evictions so far, oldest first: tracks 0, 1 and 2. *)
  Alcotest.(check int) "three evictions" 3 (counter "fs.bio.evictions" - evictions0);
  Alcotest.(check int) "evicted three evictions ago: the prefix" 1 (miss 0);
  (* That miss evicted track 3, so track 2 left two evictions ago. *)
  Alcotest.(check int) "evicted two evictions ago: the whole track" spt (miss 2)

(* A sequential reader's next miss finds the heads over its sector: each
   miss reads that one sector and waits for nothing. *)
let test_sequential_misses_do_not_wait () =
  let drive, bio = raw_bio () in
  let spt = spt_of drive in
  Alcotest.(check int) "the heads land on slot 0" 0 (Drive.catch_slot drive ~cylinder:0);
  let t0 = now drive
  and misses0 = counter "fs.bio.misses"
  and read0 = counter "fs.bio.fill_sectors"
  and wait0 = counter "disk.rotational_wait_us" in
  for s = 0 to spt - 1 do
    match served Bio.lookup bio (addr s) with
    | Some _ -> Alcotest.failf "sector %d was buffered before its miss" s
    | None -> Bio.fill bio (addr s)
  done;
  Alcotest.(check int) "a miss per sector" spt (counter "fs.bio.misses" - misses0);
  Alcotest.(check int) "each miss read one sector" spt (counter "fs.bio.fill_sectors" - read0);
  Alcotest.(check int) "no rotational wait" 0 (counter "disk.rotational_wait_us" - wait0);
  Alcotest.(check int) "one sector time a sector"
    (spt * Geometry.sector_time_us (Drive.geometry drive))
    (now drive - t0);
  Alcotest.(check int) "the whole track is buffered" spt
    (List.length (resident_slots drive bio 0))

(* {2 Crash with dirty buffers}

   Settled pages are committed: a crash that loses every delayed write
   must still present them intact, and the pack must scavenge and
   remount cleanly. *)

let page_string tag len = String.make len (Char.chr (65 + tag))

let test_crash_loses_at_most_delayed_values () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let file = ok File.pp_error (File.create fs ~name:"Settled.dat") in
  let len = 4 * Sector.bytes_per_page in
  ok File.pp_error (File.write_bytes file ~pos:0 (page_string 0 len));
  ok File.pp_error (File.flush_leader file);
  ok Directory.pp_error (Directory.add root ~name:"Settled.dat" (File.leader_name file));
  (* Commit version 1: everything on the platter. *)
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "fs flush");
  (* Version 2 is absorbed into the track buffers and never flushed —
     the machine dies with the buffers dirty. The overwrite goes in
     misaligned chunks: read-modify-write traffic, the path the cache
     absorbs (aligned full pages write through the batcher). *)
  let v2 = page_string 1 len in
  let chunk = 500 in
  let rec overwrite pos =
    if pos < len then begin
      let n = min chunk (len - pos) in
      ok File.pp_error (File.write_bytes file ~pos (String.sub v2 pos n));
      overwrite (pos + n)
    end
  in
  overwrite 0;
  Alcotest.(check bool) "the crash really has dirty buffers" true
    (Bio.dirty_sectors (Fs.bio fs) > 0);
  (* All in-core state is lost; recovery starts from the drive. *)
  let fs' =
    match Scavenger.scavenge drive with
    | Ok (fs', _) -> fs'
    | Error msg -> Alcotest.failf "scavenge after crash: %s" msg
  in
  let root' = ok Directory.pp_error (Directory.open_root fs') in
  (match Directory.lookup root' "Settled.dat" with
  | Ok (Some e) ->
      let f = ok File.pp_error (File.open_leader fs' e.Directory.entry_file) in
      let got =
        Bytes.to_string (ok File.pp_error (File.read_bytes f ~pos:0 ~len))
      in
      let v1 = page_string 0 len and v2 = page_string 1 len in
      let pages = len / Sector.bytes_per_page in
      for p = 0 to pages - 1 do
        let slice = String.sub got (p * Sector.bytes_per_page) Sector.bytes_per_page in
        let matches v =
          String.equal slice (String.sub v (p * Sector.bytes_per_page) Sector.bytes_per_page)
        in
        if not (matches v1 || matches v2) then
          Alcotest.failf "page %d holds torn or alien bytes after the crash" p
      done
  | Ok None -> Alcotest.fail "committed file lost by the crash"
  | Error e -> Alcotest.failf "directory unreadable: %a" Directory.pp_error e);
  match Fs.mount drive with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "remount after crash: %s" msg

(* {2 Cache transparency}

   The same deterministic workload, cached and uncached, must leave the
   two packs byte-identical — the cache may reorder and coalesce disk
   traffic but never change what ends up on the platter. (File creation
   happens inside the first simulated second on both packs, so leader
   timestamps agree; after that the runs' clocks diverge freely.) *)

let transparency_workload ~cached =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  if not cached then Bio.set_tracks (Fs.bio fs) 0;
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let files =
    List.init 2 (fun i ->
        let name = Printf.sprintf "T%d.dat" i in
        let f = ok File.pp_error (File.create fs ~name) in
        ok Directory.pp_error (Directory.add root ~name (File.leader_name f));
        f)
  in
  (* Grow, overwrite misaligned, truncate — plenty of read-modify-write
     traffic for the cache to absorb. *)
  List.iteri
    (fun i f ->
      let len = (6 + i) * Sector.bytes_per_page in
      ok File.pp_error (File.write_bytes f ~pos:0 (page_string i len));
      ok File.pp_error
        (File.write_bytes f ~pos:300 (page_string (i + 3) (2 * Sector.bytes_per_page)));
      ok File.pp_error (File.truncate f ~len:(len - 700)))
    files;
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "fs flush");
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  drive

(* The crash-ordering promise: the write-ahead map reaches the platter
   {e before} the first delayed write is acknowledged, so a crash with
   dirty buffers always boots into recovery — never into a volume that
   claims to be clean while delayed writes rot in lost core. *)
let test_dirty_flag_on_platter_before_delayed_ack () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let file = ok File.pp_error (File.create fs ~name:"Flag.dat") in
  ok File.pp_error (File.write_bytes file ~pos:0 (page_string 0 Sector.bytes_per_page));
  ok Directory.pp_error (Directory.add root ~name:"Flag.dat" (File.leader_name file));
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> Alcotest.fail "mark_clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush2");
  (* One overwrite, acknowledged but delayed — nothing else. The machine
     now dies: the buffers are gone, only the platter answers. *)
  ok File.pp_error (File.write_bytes file ~pos:0 (page_string 1 Sector.bytes_per_page));
  Alcotest.(check bool) "the write really is delayed" true
    (Bio.dirty_sectors (Fs.bio fs) > 0);
  let fs' =
    match Fs.mount drive with
    | Ok fs' -> fs'
    | Error msg -> Alcotest.failf "platter unmountable: %s" msg
  in
  Alcotest.(check bool) "platter already announces the dirty volume" true
    (Fs.dirty fs')

(* The same promise must survive a remount: each mount wires its own
   [on_write] hook to its own track buffers (a world swap or recovery
   boot swaps the whole [Fs] handle underneath the machine). *)
let test_dirty_flag_rearms_after_remount () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let file = ok File.pp_error (File.create fs ~name:"Flag.dat") in
  ok File.pp_error (File.write_bytes file ~pos:0 (page_string 0 Sector.bytes_per_page));
  ok Directory.pp_error (Directory.add root ~name:"Flag.dat" (File.leader_name file));
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> Alcotest.fail "mark_clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush2");
  (* The first incarnation is abandoned wholesale; a second mounts. *)
  let fs2 =
    match Fs.mount drive with
    | Ok fs2 -> fs2
    | Error msg -> Alcotest.failf "remount: %s" msg
  in
  Alcotest.(check bool) "clean at the consistency point" false (Fs.dirty fs2);
  let root2 = ok Directory.pp_error (Directory.open_root fs2) in
  let file2 =
    match Directory.lookup root2 "Flag.dat" with
    | Ok (Some e) -> ok File.pp_error (File.open_leader fs2 e.Directory.entry_file)
    | Ok None | Error _ -> Alcotest.fail "Flag.dat lost across remount"
  in
  ok File.pp_error (File.write_bytes file2 ~pos:0 (page_string 2 Sector.bytes_per_page));
  Alcotest.(check bool) "the write really is delayed" true
    (Bio.dirty_sectors (Fs.bio fs2) > 0);
  let fs3 =
    match Fs.mount drive with
    | Ok fs3 -> fs3
    | Error msg -> Alcotest.failf "third mount: %s" msg
  in
  Alcotest.(check bool) "remounted handle still announces first" true (Fs.dirty fs3)

let image drive =
  List.init (Drive.sector_count drive) (fun s ->
      let sec = Drive.peek drive (addr s) in
      ( Array.to_list (Sector.part_of sec Sector.Header),
        Array.to_list (Sector.part_of sec Sector.Label),
        Array.to_list (Sector.part_of sec Sector.Value) ))

let test_cached_and_uncached_packs_identical () =
  let cached = image (transparency_workload ~cached:true) in
  let uncached = image (transparency_workload ~cached:false) in
  List.iteri
    (fun s (c, u) ->
      if c <> u then Alcotest.failf "sector %d differs between the two packs" s)
    (List.combine cached uncached)

(* A delayed write keeps the owner it was absorbed for. Once its page is
   freed and the sector handed to another file, the verified-label table
   names the new owner, so a flush checked against the table's label
   would overwrite the new owner's page; checked against the pattern the
   write was absorbed under, the platter refuses it. *)
let test_delayed_write_keeps_its_owner () =
  let drive = Drive.create ~pack_id:9 small_geometry in
  let fs = Fs.format drive in
  let bio = Fs.bio fs in
  let file = ok File.pp_error (File.create fs ~name:"Gone.dat") in
  ok File.pp_error (File.write_bytes file ~pos:0 (page_string 0 100));
  ignore (Bio.flush bio : Bio.flush_report);
  let target = (ok File.pp_error (File.page_name file 1)).Page.addr in
  (* Buffer the page's track, then overwrite part of the page. *)
  ignore (ok File.pp_error (File.read_bytes file ~pos:0 ~len:100) : Bytes.t);
  ok File.pp_error (File.write_bytes file ~pos:10 (page_string 1 20));
  Alcotest.(check int) "the overwrite is delayed" 1 (Bio.dirty_sectors bio);
  ok File.pp_error (File.delete file);
  (* Every other free sector busy: the next reservation takes the page. *)
  for i = 0 to Drive.sector_count drive - 1 do
    if i <> Disk_address.to_index target && Fs.is_free_in_map fs (addr i) then
      Fs.mark_busy fs (addr i)
  done;
  (match Fs.reserve_pages fs 1 with
  | Ok [ a ] when Disk_address.equal a target -> ()
  | Ok _ | Error _ -> Alcotest.fail "the freed sector was not handed out");
  let label =
    Label.make ~fid:(Fs.fresh_fid fs) ~page:1 ~length:Sector.bytes_per_page
      ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  (match Fs.write_reserved fs target label (distinct_value 0x77) with
  | Ok () -> ()
  | Error `Quarantined -> Alcotest.fail "the new owner's write failed");
  let conflicts0 = counter "fs.bio.write_conflicts" in
  let report = Bio.flush bio in
  Alcotest.(check int) "the flush refuses the stale write" 1 report.Bio.conflicts;
  Alcotest.(check int) "and counts it" 1 (counter "fs.bio.write_conflicts" - conflicts0);
  Alcotest.(check int) "the new owner's value stands" 0x77
    (Word.to_int (Sector.part_of (Drive.peek drive target) Sector.Value).(0))

let () =
  Alcotest.run "alto bio"
    [
      ( "track buffers",
        [
          ("a fill serves the whole track", `Quick, test_fill_serves_whole_track);
          ("a disabled cache is inert", `Quick, test_disabled_cache_is_inert);
          ("absorbed writes flush coalesced", `Quick, test_absorb_and_coalesced_flush);
          ("generation bump kills the buffer", `Quick, test_generation_kills_buffered_sector);
          ("conflicted delayed write dropped", `Quick, test_conflicted_delayed_write_is_dropped);
          ("eviction flushes a dirty track", `Quick, test_eviction_flushes_dirty_track);
          ("a delayed write keeps its owner", `Quick, test_delayed_write_keeps_its_owner);
        ] );
      ( "fills",
        [
          ("a cold miss reads the prefix", `Quick, test_cold_miss_reads_the_prefix);
          ("a returning track is read whole", `Quick, test_returning_track_is_read_whole);
          ("sequential misses do not wait", `Quick, test_sequential_misses_do_not_wait);
        ] );
      ( "crash and transparency",
        [
          ("crash loses at most delayed values", `Quick, test_crash_loses_at_most_delayed_values);
          ("dirty flag beats the delayed ack", `Quick, test_dirty_flag_on_platter_before_delayed_ack);
          ("dirty flag re-arms after remount", `Quick, test_dirty_flag_rearms_after_remount);
          ("cached and uncached packs identical", `Quick, test_cached_and_uncached_packs_identical);
        ] );
    ]

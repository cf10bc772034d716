(* The robustness machinery: scavenger, compacting scavenger, the hint
   recovery ladder, and installed hint files. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Leader = Alto_fs.Leader
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Compactor = Alto_fs.Compactor
module Sweep = Alto_fs.Sweep
module Hints = Alto_fs.Hints
module Install = Alto_fs.Install

let small_geometry =
  { Geometry.diablo_31 with Geometry.model = "test disk"; cylinders = 20 }

let fresh_fs ?(geometry = small_geometry) () =
  let drive = Drive.create ~pack_id:7 geometry in
  (drive, Fs.format drive)

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let file_ok what r = check_ok File.pp_error what r
let dir_ok what r = check_ok Directory.pp_error what r

let scavenge_ok drive =
  match Scavenger.scavenge drive with
  | Ok x -> x
  | Error msg -> Alcotest.failf "scavenge: %s" msg

(* A compaction hands back the volume it rebuilt. *)
let compact_ok fs =
  match Compactor.compact fs with
  | Ok x -> x
  | Error msg -> Alcotest.failf "compact: %s" msg

(* Quiesce a live handle: push its delayed track-buffer writes to the
   platter, the way the Executive does before any raw-pack work. The
   damage these tests inject is to a pack at rest — not to one with
   acknowledged writes still in core (that case is test_bio's). *)
let settle fs = ignore (Alto_fs.Bio.flush (Fs.bio fs))

let payload n seed =
  String.init n (fun i -> Char.chr (32 + ((i * 13) + seed) mod 95))

(* Create a catalogued file with [n] bytes of deterministic content. *)
let make_file fs root name n seed =
  let file = file_ok "create" (File.create fs ~name) in
  file_ok "write" (File.write_bytes file ~pos:0 (payload n seed));
  file_ok "flush" (File.flush_leader file);
  dir_ok "add" (Directory.add root ~name (File.leader_name file));
  settle fs;
  file

let reopen_by_name fs name =
  let root = dir_ok "root" (Directory.open_root fs) in
  match dir_ok "lookup" (Directory.lookup root name) with
  | Some e -> file_ok "open" (File.open_leader fs e.Directory.entry_file)
  | None -> Alcotest.failf "file %S not in the root directory" name

let check_content fs name n seed =
  let file = reopen_by_name fs name in
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:n)) in
  Alcotest.(check string) (name ^ " content intact") (payload n seed) got

(* {2 scavenger} *)

let test_scavenge_clean_disk () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore (make_file fs root "One.txt" 1000 1);
  ignore (make_file fs root "Two.txt" 2000 2);
  let free_before = Fs.free_count fs in
  let fs', report = scavenge_ok drive in
  (* Two user files plus the root directory itself. *)
  Alcotest.(check int) "files found" 3 report.Scavenger.files_found;
  Alcotest.(check int) "nothing lost" 0 report.Scavenger.pages_lost;
  Alcotest.(check int) "no orphans" 0 report.Scavenger.orphans_adopted;
  Alcotest.(check bool) "root survived" false report.Scavenger.root_rebuilt;
  Alcotest.(check int) "free count identical" free_before (Fs.free_count fs');
  check_content fs' "One.txt" 1000 1;
  check_content fs' "Two.txt" 2000 2

(* The scavenger judges the catalogue from the values its sweep read:
   a pack that needs no repair costs its directory and orphan passes
   no disk time at all. *)
let test_scavenge_reads_no_directory_on_a_sound_pack () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let sub = dir_ok "create" (Directory.create fs ~name:"Work.") in
  dir_ok "catalogue sub" (Directory.add root ~name:"Work." (File.leader_name sub));
  ignore (make_file fs sub "Nested.txt" 700 6);
  for i = 1 to 4 do
    ignore (make_file fs root (Printf.sprintf "F%d.dat" i) (300 * i) i)
  done;
  Alto_obs.Prof.reset ();
  let _, report = scavenge_ok drive in
  Alcotest.(check int) "two directories" 2 report.Scavenger.directories_found;
  Alcotest.(check int) "no orphans" 0 report.Scavenger.orphans_adopted;
  let tree = Alto_obs.Prof.tree () in
  let total name =
    match Alto_obs.Prof.find tree name with
    | Some s -> s.Alto_obs.Prof.total_us
    | None -> Alcotest.failf "no %s span" name
  in
  Alcotest.(check bool) "the sweep is charged" true (total "scavenger.sweep" > 0);
  Alcotest.(check int) "directories" 0 (total "scavenger.directories");
  Alcotest.(check int) "orphans" 0 (total "scavenger.orphans")

(* A directory page squatting in the descriptor's reserved range is
   copied out before the catalogue is verified; the value it carries to
   its new sector is the one the directory is read from. *)
let test_evacuated_directory_page_keeps_its_entries () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let names = List.init 5 (fun i -> Printf.sprintf "Kept%d.txt" i) in
  List.iteri (fun i name -> ignore (make_file fs root name (200 + (100 * i)) i)) names;
  let page = file_ok "page 1" (File.page_name root 1) in
  let reserved = Disk_address.of_index (Fs.descriptor_page_count fs) in
  let sector = Drive.peek drive page.Page.addr in
  Drive.poke drive reserved Sector.Label sector.Sector.label;
  Drive.poke drive reserved Sector.Value sector.Sector.value;
  Drive.poke drive page.Page.addr Sector.Label (Label.free_words ());
  Drive.poke drive page.Page.addr Sector.Value (Label.free_value ());
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "one page relocated" 1 report.Scavenger.relocated_pages;
  Alcotest.(check int) "no entry removed" 0 report.Scavenger.entries_removed;
  Alcotest.(check int) "no orphans" 0 report.Scavenger.orphans_adopted;
  let root' = dir_ok "root" (Directory.open_root fs') in
  Alcotest.(check (list string)) "entries" names
    (List.map
       (fun e -> e.Directory.entry_name)
       (dir_ok "entries" (Directory.entries root')));
  List.iteri (fun i name -> check_content fs' name (200 + (100 * i)) i) names

let test_scavenge_after_descriptor_destroyed () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore (make_file fs root "Data.txt" 1500 3);
  (* Obliterate the descriptor's pages — labels and all. *)
  let rng = Alto_machine.Splitmix.of_seed 1 in
  for i = 1 to 1 + Fs.descriptor_page_count fs do
    Fault.corrupt_part rng drive (Disk_address.of_index i) Sector.Label;
    Fault.corrupt_part rng drive (Disk_address.of_index i) Sector.Value
  done;
  (match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mount should fail with a destroyed descriptor"
  | Error _ -> ());
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "no user pages lost" 0 report.Scavenger.pages_lost;
  check_content fs' "Data.txt" 1500 3;
  (* And the rebuilt descriptor mounts normally. *)
  match Fs.mount drive with
  | Ok fs'' -> Alcotest.(check int) "free counts agree" (Fs.free_count fs') (Fs.free_count fs'')
  | Error msg -> Alcotest.failf "mount after scavenge: %s" msg

let test_orphan_adopted_under_leader_name () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore (make_file fs root "Precious.txt" 800 4);
  (* Lose the directory entry — the only catalogue record. *)
  Alcotest.(check bool) "removed" true (dir_ok "remove" (Directory.remove root "Precious.txt"));
  settle fs;
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "one orphan adopted" 1 report.Scavenger.orphans_adopted;
  check_content fs' "Precious.txt" 800 4

let test_scrambled_directory_loses_names_not_files () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let sub = dir_ok "create" (Directory.create fs ~name:"Work.") in
  dir_ok "catalogue sub" (Directory.add root ~name:"Work." (File.leader_name sub));
  let file = file_ok "create" (File.create fs ~name:"Doc.txt") in
  file_ok "write" (File.write_bytes file ~pos:0 (payload 900 5));
  dir_ok "add" (Directory.add sub ~name:"Doc.txt" (File.leader_name file));
  settle fs;
  (* Scramble the subdirectory's data page: its entries are garbage now. *)
  let rng = Alto_machine.Splitmix.of_seed 2 in
  let page1 = file_ok "page" (File.page_name sub 1) in
  Fault.corrupt_part rng drive page1.Page.addr Sector.Value;
  let fs', report = scavenge_ok drive in
  (* §3.4: "If a directory is destroyed, we don't lose any files, but we
     do lose some information." Doc.txt must survive, adopted into the
     root under its leader name. *)
  Alcotest.(check bool) "doc adopted" true (report.Scavenger.orphans_adopted >= 1);
  check_content fs' "Doc.txt" 900 5

let test_dangling_entry_removed () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Brief.txt" 300 6 in
  (* Delete the file but "forget" the directory entry. *)
  file_ok "delete" (File.delete file);
  settle fs;
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "dangling entry dropped" 1 report.Scavenger.entries_removed;
  let root' = dir_ok "root" (Directory.open_root fs') in
  Alcotest.(check bool) "no entry left" true
    (dir_ok "lookup" (Directory.lookup root' "Brief.txt") = None)

let test_stale_entry_address_fixed () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore (make_file fs root "Move.txt" 600 7);
  (* Point the entry's hint somewhere absurd. *)
  Alcotest.(check bool) "poisoned" true
    (dir_ok "update" (Directory.update_address root "Move.txt" (Disk_address.of_index 400)));
  settle fs;
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "address fixed" 1 report.Scavenger.entries_fixed;
  check_content fs' "Move.txt" 600 7

(* Long.txt, five pages, scavenged after the label of its page 3
   decayed, and with it the page's bytes when [gone]. *)
let decayed_page_3 ~gone =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Long.txt" 2500 8 in
  let victim = file_ok "page" (File.page_name file 3) in
  Fault.corrupt_part (Alto_machine.Splitmix.of_seed 3) drive victim.Page.addr Sector.Label;
  if gone then Fault.make_value_unreadable drive victim.Page.addr;
  (drive, scavenge_ok drive)

(* Page 3's bytes are gone too: pages 3-5 become unreachable. *)
let test_gap_truncates_file () =
  let _, (fs', report) = decayed_page_3 ~gone:true in
  Alcotest.(check int) "one incomplete file" 1 report.Scavenger.incomplete_files;
  Alcotest.(check bool) "pages lost" true (report.Scavenger.pages_lost >= 2);
  let survivor = reopen_by_name fs' "Long.txt" in
  Alcotest.(check int) "truncated to two pages" 2 (File.last_page survivor);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes survivor ~pos:0 ~len:1024)) in
  Alcotest.(check string) "surviving prefix intact" (String.sub (payload 2500 8) 0 1024) got

(* Page 3's bytes still read: the pages either side both link to its
   sector, so it is relabelled and the file loses nothing. *)
let test_decayed_label_bridged () =
  let drive, (fs', report) = decayed_page_3 ~gone:false in
  Alcotest.(check int) "no incomplete file" 0 report.Scavenger.incomplete_files;
  Alcotest.(check int) "nothing lost" 0 report.Scavenger.pages_lost;
  check_content fs' "Long.txt" 2500 8;
  Alcotest.(check int) "stable" 0 (snd (scavenge_ok drive)).Scavenger.links_repaired

let test_wrong_links_repaired () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Chain.txt" 1500 9 in
  (* Swap the next-links of pages 1 and 2 so the chain lies. *)
  let p1 = file_ok "p1" (File.page_name file 1) in
  let sector = Drive.peek drive p1.Page.addr in
  let words = sector.Sector.label in
  words.(5) <- Disk_address.to_word p1.Page.addr (* next := itself: nonsense *);
  Drive.poke drive p1.Page.addr Sector.Label words;
  let fs', report = scavenge_ok drive in
  Alcotest.(check bool) "links repaired" true (report.Scavenger.links_repaired >= 1);
  Alcotest.(check int) "nothing lost" 0 report.Scavenger.pages_lost;
  check_content fs' "Chain.txt" 1500 9;
  (* A second scavenge finds nothing left to repair. *)
  let _, report2 = scavenge_ok drive in
  Alcotest.(check int) "stable" 0 report2.Scavenger.links_repaired

let test_bad_sectors_quarantined () =
  let drive, fs = fresh_fs () in
  ignore fs;
  let bad = Disk_address.of_index 100 in
  Fault.make_bad drive bad;
  let fs', report = scavenge_ok drive in
  Alcotest.(check bool) "bad counted" true (report.Scavenger.bad_sectors >= 1);
  Alcotest.(check bool) "never allocatable" false (Fs.is_free_in_map fs' bad)

let test_value_verification_marks_bad_pages () =
  (* §3.5: "During scavenging any permanently bad pages are marked in
     the label with a special value so that they will never be used
     again." A page whose data surface fails (label still fine) is found
     by the sweep's value read, stamped bad, and its file truncated at
     the damage. *)
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Surface.dat" 2000 12 in
  let victim = file_ok "page" (File.page_name file 2) in
  Fault.make_value_unreadable drive victim.Page.addr;
  (* Before any scavenge the damage bites the reader... *)
  let f = reopen_by_name fs "Surface.dat" in
  (match File.read_bytes f ~pos:0 ~len:2000 with
  | Ok _ -> Alcotest.fail "read through a dead surface"
  | Error _ -> ());
  (* ...and the scavenge marks the page and truncates the file. *)
  let fs2, report = scavenge_ok drive in
  Alcotest.(check int) "one page marked bad" 1 report.Scavenger.pages_marked_bad;
  (match Alto_disk.Sector.part_of (Drive.peek drive victim.Page.addr) Alto_disk.Sector.Label
         |> Label.classify with
  | Label.Bad -> ()
  | Label.Valid _ | Label.Free | Label.Garbage _ ->
      Alcotest.fail "label does not carry the bad marker");
  Alcotest.(check bool) "never allocatable" false (Fs.is_free_in_map fs2 victim.Page.addr);
  let survivor = reopen_by_name fs2 "Surface.dat" in
  Alcotest.(check int) "truncated before the damage" 1 (File.last_page survivor);
  (match File.read_bytes survivor ~pos:0 ~len:(File.byte_length survivor) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "survivor unreadable: %a" File.pp_error e);
  (* A later ordinary scavenge keeps the quarantine. *)
  let _, again = scavenge_ok drive in
  Alcotest.(check bool) "marker persists as a bad sector" true
    (again.Scavenger.bad_sectors >= 1)

let test_duplicate_absolute_name () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Twin.txt" 400 10 in
  let p1 = file_ok "p1" (File.page_name file 1) in
  let original = Drive.peek drive p1.Page.addr in
  (* Forge a second sector claiming to be the same page. *)
  let forged = Disk_address.of_index 350 in
  Drive.poke drive forged Sector.Label original.Sector.label;
  Drive.poke drive forged Sector.Value original.Sector.value;
  let fs', report = scavenge_ok drive in
  Alcotest.(check int) "duplicate detected" 1 report.Scavenger.duplicate_pages;
  check_content fs' "Twin.txt" 400 10

let test_scavenge_heavy_decay () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  for i = 1 to 8 do
    ignore (make_file fs root (Printf.sprintf "F%d.dat" i) (400 * i) i)
  done;
  let rng = Alto_machine.Splitmix.of_seed 99 in
  ignore (Fault.decay rng drive ~fraction:0.05);
  let fs', _report = scavenge_ok drive in
  (* Whatever survived must be structurally sound: every cataloged file
     opens and reads to its full length without error. *)
  let root' = dir_ok "root" (Directory.open_root fs') in
  List.iter
    (fun (e : Directory.entry) ->
      match File.open_leader fs' e.Directory.entry_file with
      | Error err ->
          Alcotest.failf "entry %S does not open: %a" e.Directory.entry_name
            File.pp_error err
      | Ok f -> (
          match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
          | Ok _ -> ()
          | Error err ->
              Alcotest.failf "entry %S does not read: %a" e.Directory.entry_name
                File.pp_error err))
    (dir_ok "entries" (Directory.entries root'));
  (* And a fresh mount agrees with the rebuilt handle. *)
  match Fs.mount drive with
  | Ok fs'' -> Alcotest.(check int) "maps agree" (Fs.free_count fs') (Fs.free_count fs'')
  | Error msg -> Alcotest.failf "mount: %s" msg

let test_scavenge_everything_destroyed () =
  (* Even a root directory loss is survivable: a new root is built and
     files are adopted into it. *)
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore (make_file fs root "Last.txt" 700 11);
  let rng = Alto_machine.Splitmix.of_seed 5 in
  (* Destroy the root directory's pages entirely. *)
  let root_fn = File.leader_name root in
  Fault.corrupt_part rng drive root_fn.Page.addr Sector.Label;
  let p1 = file_ok "p1" (File.page_name root 1) in
  Fault.corrupt_part rng drive p1.Page.addr Sector.Label;
  let fs', report = scavenge_ok drive in
  Alcotest.(check bool) "root rebuilt" true report.Scavenger.root_rebuilt;
  check_content fs' "Last.txt" 700 11

(* {2 compacting scavenger} *)

let fragment_fs () =
  (* Build files under a scattering allocator so their pages interleave. *)
  let drive, fs = fresh_fs () in
  Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 21));
  let root = dir_ok "root" (Directory.open_root fs) in
  let names = [ ("Alpha.dat", 3000, 31); ("Beta.dat", 2000, 32); ("Gamma.dat", 2500, 33) ] in
  List.iter (fun (name, n, seed) -> ignore (make_file fs root name n seed)) names;
  (drive, fs, names)

let test_compact_makes_consecutive () =
  let _drive, fs, names = fragment_fs () in
  let fragmented =
    let f = reopen_by_name fs "Alpha.dat" in
    check_ok File.pp_error "fraction" (File.consecutive_fraction f)
  in
  Alcotest.(check bool) "fragmented before" true (fragmented < 0.9);
  let fs, report = compact_ok fs in
  Alcotest.(check bool) "files compacted" true (report.Scavenger.files_consecutive >= 3);
  List.iter
    (fun (name, n, seed) ->
      check_content fs name n seed;
      let f = reopen_by_name fs name in
      let fraction =
        check_ok File.pp_error "fraction" (File.consecutive_fraction f)
      in
      Alcotest.(check (float 0.001)) (name ^ " fully consecutive") 1.0 fraction;
      Alcotest.(check bool) (name ^ " leader flag") true
        (File.leader f).Leader.maybe_consecutive)
    names

let test_compact_then_mount_and_scavenge_stable () =
  let drive, fs, names = fragment_fs () in
  ignore (compact_ok fs);
  (* A fresh mount sees the same world. *)
  let fs' =
    match Fs.mount drive with Ok f -> f | Error msg -> Alcotest.failf "mount: %s" msg
  in
  List.iter (fun (name, n, seed) -> check_content fs' name n seed) names;
  (* The scavenger finds nothing to fix. *)
  let _, report = scavenge_ok drive in
  Alcotest.(check int) "no repairs" 0 report.Scavenger.links_repaired;
  Alcotest.(check int) "no loss" 0 report.Scavenger.pages_lost;
  Alcotest.(check int) "no orphans" 0 report.Scavenger.orphans_adopted

let test_compact_full_disk () =
  (* The swap-with-buffer permutation needs no free sectors. *)
  let _drive, fs = fresh_fs () in
  Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 22));
  let root = dir_ok "root" (Directory.open_root fs) in
  let rec fill i =
    match File.create fs ~name:(Printf.sprintf "Fill%d." i) with
    | Ok f -> (
        dir_ok "add" (Directory.add root ~name:(Printf.sprintf "Fill%d." i) (File.leader_name f));
        match File.write_bytes f ~pos:0 (payload 1800 i) with
        | Ok () -> fill (i + 1)
        | Error _ -> i)
    | Error _ -> i
  in
  let made = fill 0 in
  Alcotest.(check bool) "disk is crowded" true (Fs.free_count fs < 40);
  let fs, report = compact_ok fs in
  Alcotest.(check bool) "moves happened" true (report.Scavenger.relocated_pages > 0);
  (* Spot-check some files (later ones may have failed mid-write when
     the disk filled; check the early complete ones). *)
  for i = 0 to min 3 (made - 1) do
    check_content fs (Printf.sprintf "Fill%d." i) 1800 i
  done

(* Interleaved files, with one of them on marginal sectors: most
   placements swap a page in the way, and a page leaving a marginal
   sector cannot take it in, so the staged twin becomes its home. The
   sectors the sweep found marginal end quarantined and hold no page,
   and nothing is lost. (A marginal sector the sweep happened to read
   cleanly stays in service, as in any scavenge, so reads are patient.) *)
let test_compact_off_marginal_sectors () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let names = [ ("Red.dat", 41); ("Green.dat", 42); ("Blue.dat", 43) ] in
  let files =
    List.map
      (fun (name, seed) ->
        let file = file_ok "create" (File.create fs ~name) in
        dir_ok "add" (Directory.add root ~name (File.leader_name file));
        (file, seed))
      names
  in
  for r = 0 to 3 do
    List.iter
      (fun (file, seed) ->
        let page = String.sub (payload 2048 seed) (r * 512) 512 in
        file_ok "extend" (File.write_bytes file ~pos:(r * 512) page))
      files
  done;
  List.iter (fun (file, _) -> file_ok "flush" (File.flush_leader file)) files;
  settle fs;
  let green = fst (List.nth files 1) in
  let victims =
    List.init (File.last_page green) (fun i ->
        (file_ok "page" (File.page_name green (i + 1))).Page.addr)
  in
  List.iter
    (fun a -> Fault.make_marginal ~rate:0.8 ~growth:1.0 ~degrade_after:1_000 drive a)
    victims;
  let fs', report =
    match Scavenger.rebuild ~suspect_retries:1 Compactor.layout drive with
    | Ok r -> r
    | Error msg -> Alcotest.failf "compact: %s" msg
  in
  Alcotest.(check bool) "marginal pages moved" true
    (report.Scavenger.marginal_relocated >= 1);
  Alcotest.(check int) "nothing lost" 0 report.Scavenger.pages_lost;
  let quarantined = Fs.bad_sector_table fs' in
  Alcotest.(check bool) "old sectors quarantined" true (List.length quarantined >= 1);
  List.iter
    (fun (name, seed) ->
      let file = reopen_by_name fs' name in
      for pn = 0 to File.last_page file do
        let at = (file_ok "page" (File.page_name file pn)).Page.addr in
        if List.exists (Disk_address.equal at) quarantined then
          Alcotest.failf "%s page %d on a quarantined sector" name pn
      done;
      let rec patient_read k =
        match File.read_bytes file ~pos:0 ~len:2048 with
        | Ok got -> Bytes.to_string got
        | Error _ when k > 0 -> patient_read (k - 1)
        | Error e -> Alcotest.failf "read: %a" File.pp_error e
      in
      Alcotest.(check string) (name ^ " content intact") (payload 2048 seed)
        (patient_read 5))
    names

(* A compaction rewrites every leader's last-page hint. The old
   compactor did it with a value write, which leaves the label
   generation alone, so a leader whose track the cache held kept the old
   hints (and a later [flush_leader] wrote them back); the volume a
   compaction returns must open every leader as the platter holds it. *)
let test_compact_refreshes_buffered_leaders () =
  let drive, fs = fresh_fs () in
  Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 23));
  let root = dir_ok "root" (Directory.open_root fs) in
  for i = 0 to 59 do
    let name = Printf.sprintf "Entry%02d." i in
    let file = file_ok "create" (File.create fs ~name) in
    dir_ok "add" (Directory.add root ~name (File.leader_name file))
  done;
  settle fs;
  ignore (dir_ok "entries" (Directory.entries (dir_ok "root" (Directory.open_root fs))));
  let fs, _ = compact_ok fs in
  let root_fn = Option.get (Fs.root_dir fs) in
  let opened = File.leader (file_ok "open" (File.open_leader fs root_fn)) in
  let on_platter =
    check_ok Fmt.string "leader"
      (Leader.of_value (Drive.peek drive root_fn.Page.addr).Sector.value)
  in
  Alcotest.(check int) "last page as compacted" on_platter.Leader.last_page
    opened.Leader.last_page;
  Alcotest.(check int) "last page address as compacted"
    (Disk_address.to_index on_platter.Leader.last_addr)
    (Disk_address.to_index opened.Leader.last_addr)

(* {2 the hint ladder} *)

let ladder_setup () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = make_file fs root "Target.txt" 1400 40 in
  (drive, fs, root, file)

let request ?page_hint ?leader_hint ?fid () =
  {
    Hints.req_name = "Target.txt";
    req_fid = fid;
    req_page = 2;
    req_page_hint = page_hint;
    req_leader_hint = leader_hint;
  }

let rungs_of (s : Hints.success) = List.map (fun a -> a.Hints.rung) s.Hints.attempts

let run_ladder fs root req =
  match Hints.read_page fs ~directory:root req with
  | Ok s -> s
  | Error f -> Alcotest.failf "ladder failed: %s" f.Hints.reason

let test_ladder_direct () =
  let _drive, fs, root, file = ladder_setup () in
  let p2 = file_ok "p2" (File.page_name file 2) in
  let s =
    run_ladder fs root
      (request ~fid:(File.fid file) ~page_hint:p2.Page.addr
         ~leader_hint:(File.leader_name file).Page.addr ())
  in
  Alcotest.(check bool) "one attempt" true (rungs_of s = [ Hints.Direct ]);
  Alcotest.(check bool) "right page" true
    (Disk_address.equal s.Hints.resolved.Page.addr p2.Page.addr)

let test_ladder_leader_chain () =
  let _drive, fs, root, file = ladder_setup () in
  (* A wrong page hint, but a good leader hint. *)
  let s =
    run_ladder fs root
      (request ~fid:(File.fid file)
         ~page_hint:(Disk_address.of_index 333)
         ~leader_hint:(File.leader_name file).Page.addr ())
  in
  Alcotest.(check bool) "two rungs" true
    (rungs_of s = [ Hints.Direct; Hints.Leader_chain ])

let test_ladder_directory_fid () =
  let _drive, fs, root, file = ladder_setup () in
  let s =
    run_ladder fs root
      (request ~fid:(File.fid file)
         ~page_hint:(Disk_address.of_index 333)
         ~leader_hint:(Disk_address.of_index 222) ())
  in
  Alcotest.(check bool) "three rungs" true
    (rungs_of s = [ Hints.Direct; Hints.Leader_chain; Hints.Directory_fid ])

let test_ladder_directory_name () =
  let _drive, fs, root, file = ladder_setup () in
  (* Recreate the file under the same name: the old FV is dead. *)
  let old_fid = File.fid file in
  file_ok "delete" (File.delete file);
  Alcotest.(check bool) "deleted from dir" true (dir_ok "rm" (Directory.remove root "Target.txt"));
  let file2 = make_file fs root "Target.txt" 1400 41 in
  Alcotest.(check bool) "new fid" false (File_id.equal old_fid (File.fid file2));
  let s = run_ladder fs root (request ~fid:old_fid ~page_hint:(Disk_address.of_index 333) ()) in
  Alcotest.(check bool) "reaches name rung" true
    (List.mem Hints.Directory_name (rungs_of s));
  Alcotest.(check bool) "found the recreated file" true
    (File_id.equal s.Hints.resolved.Page.abs.Page.fid (File.fid file2))

let test_ladder_scavenge () =
  let _drive, fs, root, file = ladder_setup () in
  (* The entry is lost and every hint is stale: only the scavenger can
     find the file again (it adopts it under its leader name). *)
  let fid = File.fid file in
  Alcotest.(check bool) "entry dropped" true (dir_ok "rm" (Directory.remove root "Target.txt"));
  let s = run_ladder fs root (request ~fid ~page_hint:(Disk_address.of_index 333) ()) in
  Alcotest.(check bool) "scavenged" true (List.mem Hints.Scavenge (rungs_of s));
  Alcotest.(check bool) "right file" true
    (File_id.equal s.Hints.resolved.Page.abs.Page.fid fid);
  (* The rungs get progressively more expensive. *)
  let time rung =
    match List.find_opt (fun a -> a.Hints.rung = rung) s.Hints.attempts with
    | Some a -> a.Hints.elapsed_us
    | None -> Alcotest.failf "rung not attempted"
  in
  Alcotest.(check bool) "scavenge dwarfs direct" true (time Hints.Scavenge > time Hints.Direct)

let test_consecutive_file_arithmetic () =
  (* §3.6: "A program is free to assume that a file is consecutive and,
     knowing the address ai of page i, to compute the address of page j
     as ai + j - i. The label check will prevent any incorrect
     overwriting of data." *)
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let (_ : File.t) = make_file fs root "Consec.dat" 2048 50 in
  let fs, _ = compact_ok fs in
  let file = reopen_by_name fs "Consec.dat" in
  let p1 = file_ok "p1" (File.page_name file 1) in
  (* Arithmetic for page 4 from page 1. *)
  let guessed = Disk_address.offset p1.Page.addr 3 in
  let fn = Page.full_name (File.fid file) ~page:4 ~addr:guessed in
  (match Page.read drive fn with
  | Ok (label, _) -> Alcotest.(check int) "label confirms page 4" 4 label.Alto_fs.Label.page
  | Error e -> Alcotest.failf "arithmetic hint should hit: %a" Page.pp_error e);
  (* A wrong guess is refuted, not destructive. *)
  let bogus = Page.full_name (File.fid file) ~page:9 ~addr:guessed in
  match Page.write drive bogus (Array.make Sector.value_words Word.zero) with
  | Ok _ -> Alcotest.fail "wrong-page write must be refused"
  | Error (Page.Hint_failed _) -> (
      (* And the data is untouched. *)
      match Page.read drive fn with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "page damaged: %a" Page.pp_error e)
  | Error e -> Alcotest.failf "unexpected: %a" Page.pp_error e

(* {2 installed hint files} *)

let install_ok what r = check_ok Install.pp_error what r

let test_install_save_load_fast_open () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let names = [ "Scratch1."; "Scratch2."; "Journal."; "Messages." ] in
  let state = install_ok "install" (Install.install fs ~directory:root ~names) in
  install_ok "save" (Install.save fs ~directory:root ~state_name:"Editor.state" state);
  (* A fresh program instance: load the state file and open by hints. *)
  let loaded =
    match install_ok "load" (Install.load fs ~directory:root ~state_name:"Editor.state") with
    | Some s -> s
    | None -> Alcotest.fail "state file missing"
  in
  Alcotest.(check int) "four entries" 4 (List.length loaded);
  (match Install.fast_open fs loaded with
  | Ok files -> Alcotest.(check int) "all opened" 4 (List.length files)
  | Error (`Reinstall_required msg) -> Alcotest.failf "fast open: %s" msg);
  (* Installing again is idempotent: same files, same hints. *)
  let again = install_ok "reinstall" (Install.install fs ~directory:root ~names) in
  List.iter2
    (fun (a : Install.entry) (b : Install.entry) ->
      Alcotest.(check bool) "same file id" true
        (File_id.equal a.Install.leader.Page.abs.Page.fid b.Install.leader.Page.abs.Page.fid))
    state again

let test_install_hint_failure_forces_reinstall () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let names = [ "Aux1."; "Aux2." ] in
  let state = install_ok "install" (Install.install fs ~directory:root ~names) in
  install_ok "save" (Install.save fs ~directory:root ~state_name:"Prog.state" state);
  (* The scratch file gets deleted behind the program's back. *)
  let victim = reopen_by_name fs "Aux1." in
  file_ok "delete" (File.delete victim);
  ignore (dir_ok "rm" (Directory.remove root "Aux1."));
  let loaded =
    Option.get (install_ok "load" (Install.load fs ~directory:root ~state_name:"Prog.state"))
  in
  (match Install.fast_open fs loaded with
  | Ok _ -> Alcotest.fail "stale hints must not open"
  | Error (`Reinstall_required _) -> ());
  (* §3.6: "the program must repeat the installation phase." *)
  let state' = install_ok "reinstall" (Install.install fs ~directory:root ~names) in
  install_ok "save" (Install.save fs ~directory:root ~state_name:"Prog.state" state');
  match Install.fast_open fs state' with
  | Ok files -> Alcotest.(check int) "whole suite reopened" 2 (List.length files)
  | Error (`Reinstall_required msg) -> Alcotest.failf "after reinstall: %s" msg

(* {2 property: random damage never makes the volume unrecoverable} *)

let prop_scavenge_always_recovers =
  QCheck.Test.make ~name:"scavenge always yields a mountable volume" ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 80))
    (fun (seed, per_mille) ->
      let fraction = float_of_int per_mille /. 1000.0 in
      let drive, fs = fresh_fs () in
      let root =
        match Directory.open_root fs with Ok r -> r | Error _ -> QCheck.assume_fail ()
      in
      for i = 1 to 5 do
        ignore (make_file fs root (Printf.sprintf "P%d." i) (300 * i) i)
      done;
      let rng = Alto_machine.Splitmix.of_seed seed in
      ignore (Fault.decay rng drive ~fraction);
      match Scavenger.scavenge drive with
      | Error _ -> false
      | Ok (fs', _) -> (
          (* Invariants: map matches labels, all catalogued files read. *)
          match Directory.open_root fs' with
          | Error _ -> false
          | Ok root' -> (
              match Directory.entries root' with
              | Error _ -> false
              | Ok entries ->
                  List.for_all
                    (fun (e : Directory.entry) ->
                      match File.open_leader fs' e.Directory.entry_file with
                      | Error _ -> false
                      | Ok f -> (
                          match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
                          | Ok _ -> true
                          | Error _ -> false))
                    entries
                  && Result.is_ok (Fs.mount drive))))

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto_fs recovery"
    [
      ( "scavenger",
        [
          ("clean disk", `Quick, test_scavenge_clean_disk);
          ( "a sound pack reads no directory",
            `Quick,
            test_scavenge_reads_no_directory_on_a_sound_pack );
          ( "evacuated directory page keeps entries",
            `Quick,
            test_evacuated_directory_page_keeps_its_entries );
          ("descriptor destroyed", `Quick, test_scavenge_after_descriptor_destroyed);
          ("orphan adopted", `Quick, test_orphan_adopted_under_leader_name);
          ("scrambled directory", `Quick, test_scrambled_directory_loses_names_not_files);
          ("dangling entry removed", `Quick, test_dangling_entry_removed);
          ("stale entry address fixed", `Quick, test_stale_entry_address_fixed);
          ("gap truncates file", `Quick, test_gap_truncates_file);
          ("decayed label bridged", `Quick, test_decayed_label_bridged);
          ("wrong links repaired", `Quick, test_wrong_links_repaired);
          ("bad sectors quarantined", `Quick, test_bad_sectors_quarantined);
          ("duplicate absolute name", `Quick, test_duplicate_absolute_name);
          ("value verification marks bad pages", `Quick, test_value_verification_marks_bad_pages);
          ("heavy decay", `Quick, test_scavenge_heavy_decay);
          ("everything destroyed", `Quick, test_scavenge_everything_destroyed);
          property prop_scavenge_always_recovers;
        ] );
      ( "compactor",
        [
          ("makes files consecutive", `Quick, test_compact_makes_consecutive);
          ("stable under mount+scavenge", `Quick, test_compact_then_mount_and_scavenge_stable);
          ("full disk", `Quick, test_compact_full_disk);
          ("refreshes buffered leaders", `Quick, test_compact_refreshes_buffered_leaders);
          ("moves pages off marginal sectors", `Quick, test_compact_off_marginal_sectors);
        ] );
      ( "hints",
        [
          ("direct", `Quick, test_ladder_direct);
          ("leader chain", `Quick, test_ladder_leader_chain);
          ("directory by FV", `Quick, test_ladder_directory_fid);
          ("directory by name", `Quick, test_ladder_directory_name);
          ("scavenge rung", `Quick, test_ladder_scavenge);
          ("consecutive arithmetic", `Quick, test_consecutive_file_arithmetic);
        ] );
      ( "install",
        [
          ("save/load/fast open", `Quick, test_install_save_load_fast_open);
          ("hint failure forces reinstall", `Quick, test_install_hint_failure_forces_reinstall);
        ] );
    ]

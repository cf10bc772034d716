(* The offline checker: a pure read-only pass over a pack image, run
   against healthy volumes, wrecks, and torn survivors of a crash. It
   needs no live [System] — a raw drive is enough — and its verdict is
   the oracle the crash-injection harness gates on: violations are
   broken recovery promises, findings are damage the self-healing
   machinery absorbs. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Bio = Alto_fs.Bio
module Directory = Alto_fs.Directory
module Fsck = Alto_fs.Fsck
module Sweep = Alto_fs.Sweep
module Scavenger = Alto_fs.Scavenger
module Obs = Alto_obs.Obs

let geometry = { Geometry.diablo_31 with Geometry.model = "fsck"; cylinders = 25 }

let pattern seed n =
  String.init n (fun i -> Char.chr (32 + ((i + (seed * 13)) mod 90)))

(* Drive operations so far, summed over every drive. *)
let operations () = Obs.counter_value (Obs.counter "disk.operations")

(* A committed pack: six catalogued files, every delayed write flushed,
   the descriptor marked clean — a consistency point. *)
let build ?(pack_id = 21) () =
  let drive = Drive.create ~pack_id geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root"
  in
  let files =
    List.init 6 (fun seed ->
        let name = Printf.sprintf "F%02d.dat" seed in
        let f =
          match File.create fs ~name with Ok f -> f | Error _ -> failwith "create"
        in
        (match File.write_bytes f ~pos:0 (pattern seed (600 + (seed * 300))) with
        | Ok () -> ()
        | Error _ -> failwith "write");
        (match Directory.add root ~name (File.leader_name f) with
        | Ok () -> ()
        | Error _ -> failwith "add");
        (name, f))
  in
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> failwith "mark_clean");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush2");
  (drive, fs, root, files)

let has_class cls issues =
  List.exists (fun i -> String.equal i.Fsck.i_class cls) issues

let test_clean_verdict_on_committed_pack () =
  let drive, _, _, _ = build () in
  let r = Fsck.check drive in
  if not (Fsck.clean r) then
    Alcotest.failf "committed pack not clean:@.%a" Fsck.pp_report r;
  Alcotest.(check bool) "descriptor mounts" true r.Fsck.descriptor_ok;
  Alcotest.(check bool) "6 catalogued files" true (r.Fsck.counts.Fsck.catalogued >= 6);
  Alcotest.(check int) "no orphans" 0 r.Fsck.counts.Fsck.orphans

let test_runs_offline_on_a_wreck () =
  (* An unformatted drive: no descriptor, no files, no live [System] —
     the checker must still sweep the labels and report, not raise. *)
  let drive = Drive.create ~pack_id:22 geometry in
  let r = Fsck.check drive in
  Alcotest.(check bool) "descriptor unmountable" false r.Fsck.descriptor_ok;
  Alcotest.(check bool) "reported as a violation" true
    (has_class "descriptor" r.Fsck.violations);
  Alcotest.(check int) "whole pack swept" (Drive.sector_count drive)
    r.Fsck.counts.Fsck.sectors

let test_check_is_read_only () =
  let drive, _, _, _ = build () in
  let before = Drive.write_ops drive in
  ignore (Fsck.check drive : Fsck.report);
  Alcotest.(check int) "no writing operations" before (Drive.write_ops drive)

let test_dangling_entry_is_a_violation () =
  let drive, fs, _, files = build () in
  (* Delete the file's pages but leave the catalogue entry standing:
     a promise [ls] makes and [open] breaks. *)
  let _, f0 = List.hd files in
  (match File.delete f0 with Ok () -> () | Error _ -> failwith "delete");
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  let r = Fsck.check drive in
  Alcotest.(check bool) "dangling entry flagged" true
    (has_class "dangling-entry" r.Fsck.violations)

let test_garbled_leader_label_then_scavenge () =
  let drive, fs, root, _ = build () in
  let addr =
    match Directory.lookup root "F01.dat" with
    | Ok (Some e) -> e.Directory.entry_file.Alto_fs.Page.addr
    | Ok None | Error _ -> failwith "lookup"
  in
  ignore fs;
  Fault.corrupt_part (Alto_machine.Splitmix.of_seed 41) drive addr Sector.Label;
  let r = Fsck.check drive in
  Alcotest.(check bool) "headless catalogued file is a violation" true
    (r.Fsck.violations <> []);
  Alcotest.(check bool) "unparseable label is a finding" true
    (has_class "garbage-label" r.Fsck.findings);
  (* The cure the report prescribes: one scavenge, then a second check
     must find every promise restored. *)
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, _) ->
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

let test_torn_page_detected_then_scavenge () =
  let drive, fs, _, files = build () in
  (* Overwrite one committed file (same length), leave the new value
     delayed in the track buffers, and tear the first write of the
     flush sweep — a committed catalogued page is now torn. *)
  let _, f3 = List.nth files 3 in
  (match File.write_bytes f3 ~pos:0 (pattern 77 (600 + (3 * 300))) with
  | Ok () -> ()
  | Error _ -> failwith "overwrite");
  Fault.crash_after_writes ~tear:Drive.Torn_value drive 0;
  (match Fs.flush fs with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  let torn = ref 0 in
  for i = 0 to Drive.sector_count drive - 1 do
    if Drive.is_torn drive (Disk_address.of_index i) then incr torn
  done;
  Alcotest.(check int) "exactly one sector torn" 1 !torn;
  let r = Fsck.check drive in
  Alcotest.(check bool) "torn catalogued page is a violation" true
    (has_class "torn-page" r.Fsck.violations);
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (_, _) ->
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

(* {2 One pass over the pack}

   The checker and the verifying scavenger read each sector's header,
   label and value in one operation. These cases pin what that single
   read must still tell apart. *)

let leader_address root name =
  match Directory.lookup root name with
  | Ok (Some e) -> e.Directory.entry_file.Alto_fs.Page.addr
  | Ok None | Error _ -> Alcotest.failf "lookup %s" name

let page_address f pn =
  match File.page_name f pn with
  | Ok fn -> fn.Alto_fs.Page.addr
  | Error _ -> Alcotest.failf "page %d" pn

(* Leave [addr] torn: rewrite its own label and value with the power
   failing partway through. *)
let tear drive addr how =
  let sector = Drive.peek drive addr in
  (* A writer maps the sector's cylinder before it writes there; do the
     same, so the write the crash tears is the sector's own and not a
     descriptor record's. *)
  (match Fs.mount drive with Ok fs -> Fs.announce fs [ addr ] | Error _ -> ());
  Fault.crash_after_writes ~tear:how drive 0;
  (match
     Drive.run drive addr
       { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
       ~label:sector.Sector.label ~value:sector.Sector.value ()
   with
  | Ok () | Error _ -> Alcotest.fail "expected a power failure"
  | exception Drive.Power_failure -> ());
  Fault.cancel_crash drive

let test_unreadable_value_stays_live () =
  let drive, _, _, files = build () in
  let dead = page_address (List.assoc "F02.dat" files) 1 in
  Drive.set_value_unreadable drive dead true;
  let torn = page_address (List.assoc "F04.dat" files) 1 in
  tear drive torn Drive.Torn_label;
  let sweep = Sweep.run drive in
  (* Every class is what a read of that sector's header and label alone
     makes of it. *)
  Array.iteri
    (fun i cls ->
      let alone =
        match Alto_fs.Page.read_raw drive (Disk_address.of_index i) with
        | Error _ -> Sweep.Bad_media
        | Ok (_, label) -> (
            match Alto_fs.Label.classify label with
            | Alto_fs.Label.Valid l -> Sweep.Live l
            | Alto_fs.Label.Free -> Sweep.Free_sector
            | Alto_fs.Label.Bad -> Sweep.Marked_bad
            | Alto_fs.Label.Garbage msg -> Sweep.Garbage msg)
      in
      if cls <> alone then
        Alcotest.failf "sector %d swept as %a, reads alone as %a" i Sweep.pp_class cls
          Sweep.pp_class alone)
    sweep.Sweep.classes;
  let i = Disk_address.to_index dead in
  (match sweep.Sweep.classes.(i) with
  | Sweep.Live _ -> ()
  | c -> Alcotest.failf "a dead data surface classed as %a" Sweep.pp_class c);
  Alcotest.(check bool) "its value is unreadable" true
    (sweep.Sweep.values.(i) = Sweep.Unreadable);
  (match sweep.Sweep.classes.(Disk_address.to_index torn) with
  | Sweep.Bad_media -> ()
  | c -> Alcotest.failf "a torn label classed as %a" Sweep.pp_class c);
  let r = Fsck.check drive in
  Alcotest.(check bool) "fsck reports the unreadable page" true
    (List.exists
       (fun is -> is.Fsck.i_class = "unreadable-page" && is.Fsck.i_addr = Some i)
       r.Fsck.violations)

let test_fsck_reads_each_sector_once () =
  let drive = Drive.create ~pack_id:23 Geometry.diablo_31 in
  let (_ : Fs.t) = Fs.format drive in
  let before = operations () in
  let r = Fsck.check drive in
  Alcotest.(check bool) "a fresh pack checks clean" true (Fsck.clean r);
  let ops = operations () - before in
  let n = Drive.sector_count drive in
  if 10 * ops >= 11 * n then
    Alcotest.failf "fsck issued %d operations for %d sectors" ops n

(* The patrol's slices and the replica audit read a run of sectors
   with [Sweep.read], wrapping past the last sector; the whole-pack
   sweep is the same read from sector 0. Wherever the short read got a
   value back, both must tell the same story, and the callback must see
   the platter's own label and value. *)
let test_wrapping_read_agrees_with_the_sweep () =
  let drive, _, _, files = build () in
  let dead = page_address (List.assoc "F02.dat" files) 1 in
  Drive.set_value_unreadable drive dead true;
  let torn = page_address (List.assoc "F04.dat" files) 1 in
  tear drive torn Drive.Torn_label;
  let n = Drive.sector_count drive in
  let start = min (Disk_address.to_index dead) (Disk_address.to_index torn) in
  let seen = Array.make n false in
  let read =
    Sweep.read drive ~start ~k:n ~on_value:(fun j _ label value ->
        let i = (start + j) mod n in
        let sector = Drive.peek drive (Disk_address.of_index i) in
        if label <> sector.Sector.label || value <> sector.Sector.value then
          Alcotest.failf "entry %d: the callback saw other bits than sector %d holds" j i;
        seen.(j) <- true)
  in
  let run = Sweep.run drive in
  Array.iteri
    (fun j v ->
      let i = (start + j) mod n in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d: callback iff read back" j)
        (v <> Sweep.Unreadable) seen.(j);
      if v <> run.Sweep.values.(i) then Alcotest.failf "sector %d: verdicts differ" i;
      if v <> Sweep.Unreadable && read.Sweep.classes.(j) <> run.Sweep.classes.(i) then
        Alcotest.failf "sector %d read as %a, swept as %a" i Sweep.pp_class
          read.Sweep.classes.(j) Sweep.pp_class run.Sweep.classes.(i))
    read.Sweep.values;
  List.iter
    (fun a ->
      let j = (Disk_address.to_index a - start + n) mod n in
      Alcotest.(check bool) "a damaged sector does not read back" true
        (read.Sweep.values.(j) = Sweep.Unreadable))
    [ dead; torn ]

(* The replica audit's digest over a slice that wraps: FNV-1a over each
   sector's index, then its label and value words as the platter holds
   them, or a sentinel where the read fails. *)
let test_wrapping_digest_matches_the_platter () =
  let drive, fs, _, _ = build () in
  let n = Drive.sector_count drive in
  let dead = Disk_address.of_index (n - 2) in
  Drive.set_value_unreadable drive dead true;
  let start = n - 5 and k = 12 in
  let digest = Alto_fs.Audit.digest fs ~start ~k in
  let fold h w = Int64.mul (Int64.logxor h (Int64.of_int w)) 0x100000001b3L in
  let expected = ref 0xcbf29ce484222325L in
  for j = 0 to k - 1 do
    let i = (start + j) mod n in
    expected := fold !expected i;
    if i = Disk_address.to_index dead then expected := fold !expected 0xDEAD
    else begin
      let sector = Drive.peek drive (Disk_address.of_index i) in
      Array.iter (fun w -> expected := fold !expected (Word.to_int w)) sector.Sector.label;
      Array.iter (fun w -> expected := fold !expected (Word.to_int w)) sector.Sector.value
    end
  done;
  Alcotest.(check int64) "digest" !expected digest

(* A verifying scavenge over a leader with a torn value, a leader
   squatting on the descriptor's reserved range, a leader whose value
   reads back but is no leader, and a dead page with a readable twin.
   The expected figures are the ones the scavenger gave when it read
   labels, values and leaders in three separate batches. *)
let test_verifying_scavenge_matches_the_batched_passes () =
  let drive, fs, root, files = build () in
  let dead = page_address (List.assoc "F05.dat" files) 1 in
  let twin = Disk_address.of_index 350 in
  let sector = Drive.peek drive dead in
  Drive.poke drive twin Sector.Label sector.Sector.label;
  Drive.poke drive twin Sector.Value sector.Sector.value;
  Drive.set_value_unreadable drive dead true;
  tear drive (leader_address root "F01.dat") Drive.Torn_value;
  let squatter = leader_address root "F02.dat" in
  let reserved = Disk_address.of_index (Fs.descriptor_page_count fs) in
  let sector = Drive.peek drive squatter in
  Drive.poke drive reserved Sector.Label sector.Sector.label;
  Drive.poke drive reserved Sector.Value sector.Sector.value;
  Drive.poke drive squatter Sector.Label (Alto_fs.Label.free_words ());
  Drive.poke drive squatter Sector.Value (Alto_fs.Label.free_value ());
  Fault.zero_part drive (leader_address root "F03.dat") Sector.Value;
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', r) ->
      Alcotest.(check int) "nameless files" 1 r.Scavenger.nameless_files;
      Alcotest.(check int) "pages lost" 1 r.Scavenger.pages_lost;
      Alcotest.(check int) "leaders rebuilt" 1 r.Scavenger.leaders_rebuilt;
      Alcotest.(check int) "pages relocated" 1 r.Scavenger.relocated_pages;
      Alcotest.(check int) "rescued from twins" 1 r.Scavenger.duplicates_rescued;
      (* Sector numbers as the layout places the files: the descriptor
         file's two one-page record slots put the first user page at
         sector 4. *)
      Alcotest.(check (list int)) "quarantined" [ 9; 26 ]
        (List.map Disk_address.to_index (Fs.bad_sector_table fs'));
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

(* {2 The catalogue from the sweep}

   The checker reads the root directory out of its own sweep: after the
   sweep, the descriptor is the only thing it reads. Its verdicts on a
   damaged root are the ones a read of the root through [File] gives. *)

let root_leader fs =
  match Fs.root_dir fs with
  | Some fn -> fn.Alto_fs.Page.addr
  | None -> Alcotest.fail "no root"

let test_fsck_reads_only_the_descriptor_after_its_sweep () =
  let drive, fs, root, files = build () in
  let target = File.leader_name (snd (List.hd files)) in
  for i = 0 to 39 do
    let name = Printf.sprintf "Catalogue-entry-%02d-with-a-long-name.dat" i in
    match Directory.add root ~name target with
    | Ok () -> ()
    | Error e -> Alcotest.failf "add: %a" Directory.pp_error e
  done;
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  Alcotest.(check bool) "the root spans three pages or more" true
    (File.last_page root >= 3);
  let counted f =
    let before = operations () in
    f ();
    operations () - before
  in
  let sweep = counted (fun () -> ignore (Sweep.run drive : Sweep.t)) in
  let mount = counted (fun () -> ignore (Fs.mount drive : (Fs.t, string) result)) in
  let check = counted (fun () -> ignore (Fsck.check drive : Fsck.report)) in
  Alcotest.(check int) "a check is its sweep plus the descriptor's reads" (sweep + mount)
    check

(* Every root verdict, as [pp_issue] prints it: the root's own, and the
   entry, orphan and page issues that follow from it. *)
let root_verdicts r =
  let keep i =
    List.mem i.Fsck.i_class
      [ "root"; "dangling-entry"; "stale-entry-address"; "orphan"; "unreadable-page" ]
  in
  List.map
    (Format.asprintf "%a" Fsck.pp_issue)
    (List.filter keep (r.Fsck.violations @ r.Fsck.findings))

let test_root_verdicts_match_a_read_through_file () =
  let verdicts what damage expected =
    let drive, fs, root, files = build () in
    damage drive fs root files;
    Alcotest.(check (list string)) what expected (root_verdicts (Fsck.check drive))
  in
  let page1 root = page_address root 1 in
  (* Slot [k]'s first word in the root's first data page: every entry
     here is a 6-word header and a 4-word name. *)
  let slot k = 10 * k in
  let poke_word drive addr i w =
    let value = Array.copy (Drive.peek drive addr).Sector.value in
    value.(i) <- Word.of_int w;
    Drive.poke drive addr Sector.Value value
  in
  (* A root that does not scan catalogues nothing: every file, the root
     included, is an orphan. *)
  let all_orphans =
    List.map
      (Printf.sprintf "orphan: %s is catalogued nowhere (scavenger will adopt it)")
      [ "D2!1"; "F18!1"; "F21!1"; "F20!1"; "F19!1"; "F17!1"; "F16!1" ]
  in
  verdicts "an illegible root leader"
    (fun drive fs _ _ -> Fault.zero_part drive (root_leader fs) Sector.Value)
    ("root: the root directory does not open: file structure damaged: leader: bad magic"
    :: all_orphans);
  verdicts "an unreadable root page"
    (fun drive _ root _ -> Drive.set_value_unreadable drive (page1 root) true)
    (("root: the root directory does not read: hint failed, consult a directory or the \
       scavenger"
     :: all_orphans)
    @ [ "unreadable-page @ 5: D2!1 page 1 will not read back" ]);
  verdicts "a malformed slot"
    (fun drive _ root _ -> poke_word drive (page1 root) (slot 2 + 5) 0xff)
    ("root: the root directory does not read: directory malformed: entry name length \
      inconsistent"
    :: all_orphans);
  verdicts "a dangling entry"
    (fun _ fs _ files ->
      let _, f0 = List.hd files in
      (match File.delete f0 with Ok () -> () | Error _ -> failwith "delete");
      (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
      ignore (Bio.flush (Fs.bio fs) : Bio.flush_report))
    [ "dangling-entry: \"F00.dat\" names a file with no pages" ];
  verdicts "a stale entry address"
    (fun drive _ root _ -> poke_word drive (page1 root) (slot 3 + 4) 300)
    [ "stale-entry-address: \"F03.dat\" hints a wrong leader address" ]

(* A scavenge that cannot read the root's leader builds a fresh root
   under a fresh directory id; the descriptor names it, so the checker
   must count it catalogued, not as an orphan. *)
let test_rebuilt_root_is_catalogued () =
  let drive = Drive.create ~pack_id:21 geometry in
  let fs = Fs.format drive in
  let root = match Directory.open_root fs with Ok r -> r | Error _ -> failwith "root" in
  for i = 0 to 4 do
    let name = Printf.sprintf "G%d.dat" i in
    let f = match File.create fs ~name with Ok f -> f | Error _ -> failwith "create" in
    (match File.write_bytes f ~pos:0 (pattern i 700) with
    | Ok () -> ()
    | Error _ -> failwith "write");
    match Directory.add root ~name (File.leader_name f) with
    | Ok () -> ()
    | Error _ -> failwith "add"
  done;
  (match Fs.flush fs with Ok () -> () | Error _ -> failwith "flush");
  ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
  Drive.poke drive (root_leader fs) Sector.Value (Array.make Sector.value_words Word.zero);
  match Scavenger.scavenge drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', report) ->
      Alcotest.(check bool) "the root was rebuilt" true report.Scavenger.root_rebuilt;
      (match Fs.root_dir fs' with
      | Some fn ->
          Alcotest.(check bool) "under a fresh id" false
            (Alto_fs.File_id.equal fn.Alto_fs.Page.abs.Alto_fs.Page.fid
               Alto_fs.File_id.root_directory)
      | None -> Alcotest.fail "no root after the scavenge");
      let r = Fsck.check drive in
      if not (Fsck.clean r) then Alcotest.failf "not clean:@.%a" Fsck.pp_report r

let () =
  Alcotest.run "alto fsck"
    [
      ( "offline checker",
        [
          ("clean verdict on a committed pack", `Quick, test_clean_verdict_on_committed_pack);
          ("runs offline on a wreck", `Quick, test_runs_offline_on_a_wreck);
          ("the check is read-only", `Quick, test_check_is_read_only);
          ("dangling entry is a violation", `Quick, test_dangling_entry_is_a_violation);
          ("garbled leader label, then scavenge", `Quick, test_garbled_leader_label_then_scavenge);
          ("torn page detected, then scavenge", `Quick, test_torn_page_detected_then_scavenge);
        ] );
      ( "one pass",
        [
          ("an unreadable value stays live", `Quick, test_unreadable_value_stays_live);
          ("fsck reads each sector once", `Quick, test_fsck_reads_each_sector_once);
          ("a wrapping read agrees", `Quick, test_wrapping_read_agrees_with_the_sweep);
          ("a wrapping digest agrees", `Quick, test_wrapping_digest_matches_the_platter);
          ( "a verifying scavenge matches the batched passes",
            `Quick,
            test_verifying_scavenge_matches_the_batched_passes );
        ] );
      ( "catalogue",
        [
          ( "only the descriptor after a sweep",
            `Quick,
            test_fsck_reads_only_the_descriptor_after_its_sweep );
          ( "root verdicts match File's",
            `Quick,
            test_root_verdicts_match_a_read_through_file );
          ("a rebuilt root is catalogued", `Quick, test_rebuilt_root_is_catalogued);
        ] );
    ]

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

let geometry = { Geometry.diablo_31 with Geometry.model = "fsck"; cylinders = 25 }

let pattern seed n =
  String.init n (fun i -> Char.chr (32 + ((i + (seed * 13)) mod 90)))

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
  Fault.corrupt_part (Random.State.make [| 41 |]) drive addr Sector.Label;
  let r = Fsck.check drive in
  Alcotest.(check bool) "headless catalogued file is a violation" true
    (r.Fsck.violations <> []);
  Alcotest.(check bool) "unparseable label is a finding" true
    (has_class "garbage-label" r.Fsck.findings);
  (* The cure the report prescribes: one scavenge, then a second check
     must find every promise restored. *)
  match Scavenger.scavenge ~verify_values:true drive with
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
  match Scavenger.scavenge ~verify_values:true drive with
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
  let labels = Sweep.run drive in
  let values = Sweep.run ~read_values:true drive in
  Alcotest.(check bool) "classes match the label-only sweep" true
    (labels.Sweep.classes = values.Sweep.classes);
  let i = Disk_address.to_index dead in
  (match values.Sweep.classes.(i) with
  | Sweep.Live _ -> ()
  | c -> Alcotest.failf "a dead data surface classed as %a" Sweep.pp_class c);
  Alcotest.(check bool) "its value is unreadable" true
    (values.Sweep.values.(i) = Sweep.Unreadable);
  (match values.Sweep.classes.(Disk_address.to_index torn) with
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
  let before = (Drive.stats drive).Drive.operations in
  let r = Fsck.check drive in
  Alcotest.(check bool) "a fresh pack checks clean" true (Fsck.clean r);
  let ops = (Drive.stats drive).Drive.operations - before in
  let n = Drive.sector_count drive in
  if 10 * ops >= 11 * n then
    Alcotest.failf "fsck issued %d operations for %d sectors" ops n

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
  match Scavenger.scavenge ~verify_values:true drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', r) ->
      Alcotest.(check int) "nameless files" 1 r.Scavenger.nameless_files;
      Alcotest.(check int) "pages lost" 1 r.Scavenger.pages_lost;
      Alcotest.(check int) "leaders rebuilt" 1 r.Scavenger.leaders_rebuilt;
      Alcotest.(check int) "pages relocated" 1 r.Scavenger.relocated_pages;
      Alcotest.(check int) "rescued from twins" 1 r.Scavenger.duplicates_rescued;
      Alcotest.(check (list int)) "quarantined" [ 8; 25 ]
        (List.map Disk_address.to_index (Fs.bad_sector_table fs'));
      let r2 = Fsck.check drive in
      if r2.Fsck.violations <> [] then
        Alcotest.failf "violations survived the scavenge:@.%a" Fsck.pp_report r2

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
          ( "a verifying scavenge matches the batched passes",
            `Quick,
            test_verifying_scavenge_matches_the_batched_passes );
        ] );
    ]

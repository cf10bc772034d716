(* File-system core: format/mount, allocation protocol, files, directories. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Leader = Alto_fs.Leader

(* Obs counters are process-wide: a case reads the delta it caused. *)
let counted name = Alto_obs.Obs.(counter_value (counter name))

let small_geometry =
  (* A small disk keeps tests fast while exercising every code path. *)
  {
    Geometry.diablo_31 with
    Geometry.model = "test disk";
    cylinders = 20;
  }

let fresh_fs ?(geometry = small_geometry) () =
  let drive = Drive.create ~pack_id:7 geometry in
  (drive, Fs.format drive)

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let fs_ok what r = check_ok Fs.pp_error what r
let file_ok what r = check_ok File.pp_error what r
let dir_ok what r = check_ok Directory.pp_error what r

(* {2 format / mount} *)

let test_format_then_mount () =
  let drive, fs = fresh_fs () in
  Alcotest.(check bool) "root directory exists" true (Fs.root_dir fs <> None);
  let fs' =
    match Fs.mount drive with Ok fs -> fs | Error e -> Alcotest.failf "mount: %s" e
  in
  Alcotest.(check int) "free count survives mount" (Fs.free_count fs) (Fs.free_count fs');
  Alcotest.(check bool) "root survives mount" true (Fs.root_dir fs' <> None)

let test_mount_rejects_unformatted () =
  let drive = Drive.create ~pack_id:1 small_geometry in
  match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mounted an unformatted pack"
  | Error _ -> ()

let test_mount_rejects_corrupt_descriptor () =
  let drive, _fs = fresh_fs () in
  let junk = Array.make Sector.value_words (Word.of_int 0xDEAD) in
  Drive.poke drive Fs.descriptor_leader_address Sector.Value junk;
  match Fs.mount drive with
  | Ok _ -> Alcotest.fail "mounted despite a destroyed descriptor leader"
  | Error _ -> ()

let test_boot_page_never_allocated () =
  let _drive, fs = fresh_fs () in
  Alcotest.(check bool) "DA0 busy" false (Fs.is_free_in_map fs Fs.boot_address)

(* {2 allocation protocol} *)

let test_allocate_writes_label_and_value () =
  let drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let value = Array.make Sector.value_words (Word.of_int 0xBEEF) in
  let label addr =
    ignore addr;
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr = fs_ok "allocate" (Fs.allocate_page fs ~label ~value) in
  let sector = Drive.peek drive addr in
  Alcotest.(check int) "value written" 0xBEEF (Word.to_int sector.Sector.value.(0));
  match Label.classify sector.Sector.label with
  | Label.Valid l ->
      Alcotest.(check bool) "fid matches" true (File_id.equal l.Label.fid fid)
  | Label.Free | Label.Bad | Label.Garbage _ -> Alcotest.fail "label not valid"

let test_stale_map_hint_is_survived () =
  let drive, fs = fresh_fs () in
  (* Lie in the map: mark a busy page (the descriptor leader) free. *)
  Fs.mark_free fs Fs.descriptor_leader_address;
  let before = counted "fs.stale_map_hits" in
  (* Force allocation to try the liar first. *)
  let free_before = Fs.free_count fs in
  let rec exhaust n =
    if n = 0 then ()
    else
      let fid = Fs.fresh_fid fs in
      let label _ =
        Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil ~prev:Disk_address.nil
      in
      match Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.zero) with
      | Ok _ -> exhaust (n - 1)
      | Error Fs.Disk_full -> ()
      | Error e -> Alcotest.failf "allocate: %a" Fs.pp_error e
  in
  exhaust free_before;
  let after = counted "fs.stale_map_hits" in
  Alcotest.(check bool) "the lie was caught by the label check" true (after > before);
  (* The descriptor leader was never overwritten. *)
  match Label.classify (Drive.peek drive Fs.descriptor_leader_address).Sector.label with
  | Label.Valid l ->
      Alcotest.(check bool) "still the descriptor's page" true
        (File_id.equal l.Label.fid File_id.descriptor)
  | Label.Free | Label.Bad | Label.Garbage _ ->
      Alcotest.fail "descriptor page damaged by a stale map hint"

let test_free_page_writes_ones () =
  let drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let label _ =
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr =
    fs_ok "allocate"
      (Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.one))
  in
  fs_ok "free" (Fs.free_page fs (Page.full_name fid ~page:1 ~addr));
  let sector = Drive.peek drive addr in
  (match Label.classify sector.Sector.label with
  | Label.Free -> ()
  | Label.Valid _ | Label.Bad | Label.Garbage _ -> Alcotest.fail "label not freed");
  Alcotest.(check int) "value is ones" 0xffff (Word.to_int sector.Sector.value.(100));
  Alcotest.(check bool) "map bit cleared" true (Fs.is_free_in_map fs addr)

let test_free_page_refuses_wrong_name () =
  let _drive, fs = fresh_fs () in
  let fid = Fs.fresh_fid fs in
  let other = Fs.fresh_fid fs in
  let label _ =
    Label.make ~fid ~page:1 ~length:512 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  let addr =
    fs_ok "allocate"
      (Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.one))
  in
  match Fs.free_page fs (Page.full_name other ~page:1 ~addr) with
  | Ok () -> Alcotest.fail "freed a page under the wrong name"
  | Error (Fs.Page_error _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Fs.pp_error e

let test_disk_full () =
  let _drive, fs = fresh_fs () in
  let rec fill ~leave =
    let fid = Fs.fresh_fid fs in
    let label _ =
      Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil ~prev:Disk_address.nil
    in
    if Fs.free_count fs > leave then
      match Fs.allocate_page fs ~label ~value:(Array.make Sector.value_words Word.zero) with
      | Ok _ -> fill ~leave
      | Error Fs.Disk_full -> ()
      | Error e -> Alcotest.failf "allocate: %a" Fs.pp_error e
  in
  fill ~leave:1;
  (* A file needs its leader and page 1: with room for one, it takes
     neither. *)
  (match File.create fs ~name:"Late." with
  | Error (File.Fs_error Fs.Disk_full) -> ()
  | Ok _ -> Alcotest.fail "a file fitted into one free page"
  | Error e -> Alcotest.failf "expected a full disk, got %a" File.pp_error e);
  Alcotest.(check int) "the last free page stays free" 1 (Fs.free_count fs);
  fill ~leave:0;
  Alcotest.(check int) "no free pages left" 0 (Fs.free_count fs)

(* {2 files} *)

let test_create_and_reopen () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Quux.txt") in
  Alcotest.(check int) "empty" 0 (File.byte_length file);
  Alcotest.(check int) "one data page" 1 (File.last_page file);
  let reopened = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check string) "leader name" "Quux.txt" (File.leader reopened).Leader.name;
  Alcotest.(check int) "length" 0 (File.byte_length reopened)

let lorem n =
  String.init n (fun i -> Char.chr (32 + ((i * 7) mod 95)))

let test_write_read_roundtrip () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Data.") in
  let payload = lorem 2000 in
  file_ok "write" (File.write_bytes file ~pos:0 payload);
  Alcotest.(check int) "length" 2000 (File.byte_length file);
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:2000) in
  Alcotest.(check string) "roundtrip" payload (Bytes.to_string got);
  (* Partial read across a page boundary. *)
  let got = file_ok "read" (File.read_bytes file ~pos:500 ~len:100) in
  Alcotest.(check string) "mid read" (String.sub payload 500 100) (Bytes.to_string got)

let test_overwrite_middle () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Data.") in
  file_ok "write" (File.write_bytes file ~pos:0 (String.make 1500 'a'));
  file_ok "patch" (File.write_bytes file ~pos:700 "HELLO");
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:1500)) in
  Alcotest.(check string) "patched" "HELLO" (String.sub got 700 5);
  Alcotest.(check char) "before intact" 'a' got.[699];
  Alcotest.(check char) "after intact" 'a' got.[705];
  Alcotest.(check int) "length unchanged" 1500 (File.byte_length file)

let test_odd_offsets_roundtrip () =
  (* Bytes and words are copied a word at a time where they pair up;
     spans starting or ending on an odd byte, or crossing a page, must
     still match the plain string model byte for byte. *)
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Odd.") in
  let model = Bytes.of_string (lorem 1501) in
  file_ok "write" (File.write_bytes file ~pos:0 (Bytes.to_string model));
  List.iter
    (fun (pos, len) ->
      let patch = String.init len (fun i -> Char.chr (65 + ((pos + i) mod 26))) in
      file_ok "patch" (File.write_bytes file ~pos patch);
      Bytes.blit_string patch 0 model pos len)
    [ (1, 1); (3, 4); (511, 2); (510, 3); (1023, 300); (1500, 1); (700, 0) ];
  Alcotest.(check int) "length" 1501 (File.byte_length file);
  List.iter
    (fun (pos, len) ->
      let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos ~len)) in
      let want = Bytes.sub_string model pos (max 0 (min len (1501 - pos))) in
      Alcotest.(check string) (Printf.sprintf "bytes %d+%d" pos len) want got)
    [
      (0, 1501); (1, 1); (1, 2); (511, 1); (511, 2); (511, 514); (1023, 477); (1499, 9);
      (1501, 3);
    ];
  List.iter
    (fun (pos, len) ->
      let got = file_ok "read words" (File.read_words file ~pos ~len) in
      let bytes = Bytes.sub_string model (2 * pos) (2 * Array.length got) in
      Alcotest.(check int)
        (Printf.sprintf "word count %d+%d" pos len)
        (max 0 (min len ((1501 / 2) - pos)))
        (Array.length got);
      Alcotest.(check (array int))
        (Printf.sprintf "words %d+%d" pos len)
        (Array.map Word.to_int (Word.words_of_string bytes))
        (Array.map Word.to_int got))
    [ (0, 750); (0, 751); (255, 2); (256, 300); (749, 5) ]

let test_word_pages_match_read_words () =
  (* [read_word_pages] hands out the page values in place when every
     page before the last is full, and assembles fresh pages otherwise;
     either way the words are [read_words]'s. *)
  let _drive, fs = fresh_fs () in
  let same what a b =
    let pages, n = file_ok "word pages" (File.read_word_pages a) in
    let words = file_ok "read words" (File.read_words b ~pos:0 ~len:(File.byte_length b / 2)) in
    Alcotest.(check int) (what ^ ": word count") (Array.length words) n;
    Alcotest.(check (array int)) what (Array.map Word.to_int words)
      (Array.init n (fun i ->
           Word.to_int pages.(i / Sector.value_words).(i mod Sector.value_words)))
  in
  let file = file_ok "create" (File.create fs ~name:"Paged.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 1125));
  same "full pages, odd length" file file;
  (* Two handles still believing the last page holds 101 bytes; a third
     grows it by 12 and shortens page 1 by as many, so the stale handles'
     words no longer lie page-aligned. *)
  let stale () = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  let a = stale () and b = stale () in
  file_ok "grow" (File.write_bytes file ~pos:1125 (String.make 12 '#'));
  let fn = file_ok "page 1" (File.page_name file 1) in
  let value, _ = file_ok "read page 1" (File.read_page file 1) in
  let cache = Fs.label_cache fs and bio = Fs.bio fs and drive = Fs.drive fs in
  (match Page.read_label ~cache drive fn with
  | Error e -> Alcotest.failf "label: %a" Page.pp_error e
  | Ok old -> (
      let new_label =
        Label.make ~fid:(File.fid file) ~page:1 ~length:500 ~next:old.Label.next
          ~prev:old.Label.prev
      in
      match Page.rewrite_label ~cache ~bio drive fn ~new_label ~value with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rewrite: %a" Page.pp_error e));
  same "a short page before the last" a b

(* A page before the last that holds less than a full page pushes the
   rest of the file onto later pages, so a whole-file read runs out of
   pages. The batched read of a consecutive file, the page-by-page read
   of a scattered one, and a scan of the pages held in memory must give
   that one verdict; the batch used to run off its own array. *)
let test_short_middle_page () =
  let drive, fs = fresh_fs () in
  let run = file_ok "create" (File.create fs ~name:"Run.") in
  file_ok "write" (File.write_bytes run ~pos:0 (lorem (6 * Sector.bytes_per_page)));
  let scattered = file_ok "create" (File.create fs ~name:"Scattered.") in
  let other = file_ok "create" (File.create fs ~name:"Other.") in
  for _ = 1 to 6 do
    file_ok "append" (File.append_bytes scattered (lorem Sector.bytes_per_page));
    file_ok "append" (File.append_bytes other (lorem Sector.bytes_per_page))
  done;
  let shorten file =
    file_ok "leader" (File.flush_leader file);
    let fn = file_ok "page 3" (File.page_name file 3) in
    let value, _ = file_ok "read page 3" (File.read_page file 3) in
    let cache = Fs.label_cache fs and bio = Fs.bio fs in
    match Page.read_label ~cache drive fn with
    | Error e -> Alcotest.failf "label: %a" Page.pp_error e
    | Ok old -> (
        let new_label =
          Label.make ~fid:(File.fid file) ~page:3 ~length:100 ~next:old.Label.next
            ~prev:old.Label.prev
        in
        match Page.rewrite_label ~cache ~bio drive fn ~new_label ~value with
        | Ok () -> ()
        | Error e -> Alcotest.failf "rewrite: %a" Page.pp_error e)
  in
  shorten run;
  shorten scattered;
  fs_ok "flush" (Fs.flush fs);
  ignore (Alto_fs.Bio.flush (Fs.bio fs) : Alto_fs.Bio.flush_report);
  let fs' =
    match Fs.mount drive with Ok f -> f | Error m -> Alcotest.failf "mount: %s" m
  in
  let verdict = Format.asprintf "%a" File.pp_error (File.No_such_page 7) in
  let refused what = function
    | Ok _ -> Alcotest.failf "%s: read past a short page" what
    | Error e ->
        Alcotest.(check string) what verdict (Format.asprintf "%a" File.pp_error e)
  in
  List.iter
    (fun (what, file) ->
      let f = file_ok "open" (File.open_leader fs' (File.leader_name file)) in
      Alcotest.(check bool) (what ^ ": consecutive") (what = "batched")
        (File.leader f).Leader.maybe_consecutive;
      refused what (File.read_bytes f ~pos:0 ~len:(File.byte_length f)))
    [ ("batched", run); ("page by page", scattered) ];
  (* The same pages as a sweep holds them: each value with its label's
     length. *)
  let held =
    Array.init 6 (fun i ->
        let fn = file_ok "page" (File.page_name run (i + 1)) in
        let sector = Drive.peek drive fn.Page.addr in
        match Label.of_words sector.Sector.label with
        | Ok label -> (sector.Sector.value, label.Label.length)
        | Error msg -> Alcotest.failf "label: %s" msg)
  in
  refused "in memory" (File.word_pages_of held);
  let through_file =
    Directory.entries (file_ok "open" (File.open_leader fs' (File.leader_name run)))
  in
  let in_memory = Directory.entries_of held in
  let show = function
    | Ok entries -> Printf.sprintf "%d entries" (List.length entries)
    | Error e -> Format.asprintf "%a" Directory.pp_error e
  in
  Alcotest.(check string) "a directory scan agrees" (show through_file) (show in_memory);
  Alcotest.(check string) "and refuses" verdict (show in_memory)

let test_append_grows () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Grow.") in
  for i = 1 to 5 do
    file_ok "append" (File.append_bytes file (String.make 300 (Char.chr (64 + i))))
  done;
  Alcotest.(check int) "length" 1500 (File.byte_length file);
  Alcotest.(check int) "pages" 3 (File.last_page file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:1500)) in
  Alcotest.(check char) "first chunk" 'A' got.[0];
  Alcotest.(check char) "last chunk" 'E' got.[1499]

let test_exactly_full_page_then_append () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Full.") in
  file_ok "write" (File.write_bytes file ~pos:0 (String.make 512 'x'));
  Alcotest.(check int) "one full page" 1 (File.last_page file);
  file_ok "append" (File.append_bytes file "y");
  Alcotest.(check int) "second page" 2 (File.last_page file);
  Alcotest.(check int) "513 bytes" 513 (File.byte_length file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:510 ~len:3)) in
  Alcotest.(check string) "boundary" "xxy" got

let test_truncate () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Trunc.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 2000));
  let free_before = Fs.free_count fs in
  file_ok "truncate" (File.truncate file ~len:600);
  Alcotest.(check int) "length" 600 (File.byte_length file);
  Alcotest.(check int) "pages" 2 (File.last_page file);
  Alcotest.(check bool) "pages reclaimed" true (Fs.free_count fs > free_before);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:0 ~len:600)) in
  Alcotest.(check string) "content preserved" (String.sub (lorem 2000) 0 600) got;
  file_ok "truncate to zero" (File.truncate file ~len:0);
  Alcotest.(check int) "empty" 0 (File.byte_length file);
  Alcotest.(check int) "still one data page" 1 (File.last_page file)

let test_delete_reclaims_everything () =
  let _drive, fs = fresh_fs () in
  let before = Fs.free_count fs in
  let file = file_ok "create" (File.create fs ~name:"Doomed.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 3000));
  file_ok "delete" (File.delete file);
  Alcotest.(check int) "all pages back" before (Fs.free_count fs)

let test_stale_hint_recovery () =
  let _drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Hints.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 2500));
  (* Forget everything, then read: the handle must re-derive addresses
     by chasing links from the leader. *)
  File.invalidate_hints file;
  Alcotest.(check int) "no hints" 0 (File.hinted_pages file);
  let got = Bytes.to_string (file_ok "read" (File.read_bytes file ~pos:2000 ~len:100)) in
  Alcotest.(check string) "read after invalidation"
    (String.sub (lorem 2500) 2000 100)
    got;
  Alcotest.(check bool) "hints relearned" true (File.hinted_pages file > 0)

(* A hint that names no sector is a hint that failed: a last-page hint
   beyond the pack sends the open down the chain, and a leader address
   beyond it is refused, not raised. *)
let test_hint_beyond_pack () =
  let drive = Drive.create ~pack_id:7 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let file = file_ok "create" (File.create fs ~name:"Far.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 2000));
  file_ok "flush" (File.flush_leader file);
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  let beyond = Disk_address.of_index 0x7000 in
  let leader = File.leader file in
  Drive.poke drive (File.leader_name file).Page.addr Sector.Value
    (Leader.to_value
       (Leader.with_last leader ~last_page:leader.Leader.last_page ~last_addr:beyond));
  let reopened = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check int) "true length" 2000 (File.byte_length reopened);
  match File.open_leader fs (Page.full_name (File.fid file) ~page:0 ~addr:beyond) with
  | Error File.Hint_failed -> ()
  | Ok _ -> Alcotest.fail "opened a leader beyond the pack"
  | Error e -> Alcotest.failf "expected a failed hint, got %a" File.pp_error e

let test_leader_dates_advance () =
  let drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Dated.") in
  let created = (File.leader file).Leader.created_s in
  Alto_machine.Sim_clock.advance_us (Drive.clock drive) 5_000_000;
  file_ok "write" (File.write_bytes file ~pos:0 "data");
  file_ok "flush" (File.flush_leader file);
  let reopened = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  let l = File.leader reopened in
  Alcotest.(check int) "created preserved" created l.Leader.created_s;
  Alcotest.(check bool) "written advanced" true (l.Leader.written_s > created);
  (* Reading updates the in-core read date; the next leader flush
     persists it — the paper's "dates of … last read" (§3.2). *)
  Alto_machine.Sim_clock.advance_us (Drive.clock drive) 5_000_000;
  let (_ : Bytes.t) = file_ok "read" (File.read_bytes reopened ~pos:0 ~len:4) in
  file_ok "flush" (File.flush_leader reopened);
  let again = file_ok "open" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check bool) "read date advanced" true
    ((File.leader again).Leader.read_s > l.Leader.written_s)

(* {2 replacing a file's contents} *)

let other n = String.init n (fun i -> Char.chr (33 + (((i * 13) + 5) mod 90)))

(* A catalogued file of [before] bytes opened through a fresh handle, so
   [replace] starts from the leader's hints alone; [None] is a file just
   created and never written. *)
let replace_subject ?(scattered = false) before =
  let drive, fs = fresh_fs () in
  if scattered then Fs.set_policy fs (Fs.Scattered (Random.State.make [| 5 |]));
  let root = dir_ok "root" (Directory.open_root fs) in
  let free0 = Fs.free_count fs in
  let file = file_ok "create" (File.create fs ~name:"Swap.") in
  dir_ok "add" (Directory.add root ~name:"Swap." (File.leader_name file));
  match before with
  | None -> (drive, fs, free0, file)
  | Some n ->
      file_ok "write" (File.write_bytes file ~pos:0 (lorem n));
      file_ok "flush" (File.flush_leader file);
      (drive, fs, free0, file_ok "reopen" (File.open_leader fs (File.leader_name file)))

(* Every page-count transition, on a consecutive and on a scattered
   file: the result reads back exactly through a fresh handle, holds
   only the pages it needs, and leaves a pack fsck calls clean. *)
let test_replace_transitions () =
  List.iter
    (fun scattered ->
      List.iter
        (fun (before, after) ->
          let what =
            Printf.sprintf "%s %s -> %d bytes"
              (if scattered then "scattered" else "consecutive")
              (match before with Some n -> string_of_int n | None -> "fresh")
              after
          in
          let drive, fs, free0, file = replace_subject ~scattered before in
          file_ok "replace" (File.replace file (other after));
          ignore (Alto_fs.Bio.flush (Fs.bio fs));
          let again = file_ok "reopen" (File.open_leader fs (File.leader_name file)) in
          Alcotest.(check int) (what ^ ": length") after (File.byte_length again);
          let got = file_ok "read" (File.read_bytes again ~pos:0 ~len:after) in
          Alcotest.(check string) (what ^ ": contents") (other after) (Bytes.to_string got);
          let pages = max 1 ((after + 511) / 512) in
          Alcotest.(check int) (what ^ ": pages") pages (File.last_page again);
          Alcotest.(check int) (what ^ ": sectors in use") (free0 - pages - 1) (Fs.free_count fs);
          fs_ok "mark clean" (Fs.mark_clean fs);
          let report = Alto_fs.Fsck.check drive in
          if not (Alto_fs.Fsck.clean report) then
            Alcotest.failf "%s: %a" what Alto_fs.Fsck.pp_report report)
        [
          (Some 300, 1900); (Some 1900, 300); (Some 1400, 1100); (Some 1900, 0);
          (Some 0, 1300); (None, 1300); (Some 1024, 1024); (Some 512, 1536);
          (Some 2048, 1);
        ])
    [ false; true ]

(* A replace allocates and frees only the difference in page count: the
   pages both versions share are rewritten where they stand. *)
let test_replace_in_place () =
  List.iter
    (fun (before, after) ->
      let what = Printf.sprintf "%d -> %d bytes" before after in
      let _, _, _, file = replace_subject (Some before) in
      let allocations0 = counted "fs.page_allocations"
      and frees0 = counted "fs.page_frees" in
      file_ok "replace" (File.replace file (other after));
      let allocations = counted "fs.page_allocations" - allocations0
      and frees = counted "fs.page_frees" - frees0 in
      let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:after) in
      Alcotest.(check string) (what ^ ": contents") (other after) (Bytes.to_string got);
      let pages n = max 1 ((n + 511) / 512) in
      Alcotest.(check int) (what ^ ": allocations")
        (max 0 (pages after - pages before))
        allocations;
      Alcotest.(check int) (what ^ ": frees")
        (max 0 (pages before - pages after))
        frees)
    [ (2048, 2048); (2000, 1600); (1800, 1536); (2048, 1024); (1024, 2048); (600, 2000) ]

(* A grow that runs out of room stops with every page it allocated
   linked into the file: nothing leaks, and the pack stays clean. *)
let test_replace_full_volume () =
  let drive, fs, _, file = replace_subject (Some 600) in
  let root = dir_ok "root" (Directory.open_root fs) in
  let filler = file_ok "create" (File.create fs ~name:"Filler.") in
  dir_ok "add" (Directory.add root ~name:"Filler." (File.leader_name filler));
  while Fs.free_count fs > 1 do
    file_ok "fill" (File.append_bytes filler (String.make 512 'f'))
  done;
  (match File.replace file (other 2000) with
  | Error (File.Fs_error Fs.Disk_full) -> ()
  | Ok () -> Alcotest.fail "four pages fitted into the room for three"
  | Error e -> Alcotest.failf "expected a full disk, got %a" File.pp_error e);
  Alcotest.(check int) "the last free page went to the file" 0 (Fs.free_count fs);
  let again = file_ok "reopen" (File.open_leader fs (File.leader_name file)) in
  Alcotest.(check int) "and is linked into its chain" 3 (File.last_page again);
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  fs_ok "mark clean" (Fs.mark_clean fs);
  let report = Alto_fs.Fsck.check drive in
  if not (Alto_fs.Fsck.clean report) then Alcotest.failf "%a" Alto_fs.Fsck.pp_report report

(* {2 runs of pages} *)

(* A settled catalogued file of [pages] full pages on a dirty volume. *)
let run_subject pages =
  let drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Run.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem (pages * Sector.bytes_per_page)));
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  (drive, fs, file)

(* Calls of every profile node named [name]; with [child], calls of
   that node's children so named instead. *)
let span_calls ?child name =
  List.fold_left
    (fun n (s : Alto_obs.Prof.snapshot) ->
      if not (String.equal s.Alto_obs.Prof.name name) then n
      else
        match child with
        | None -> n + s.Alto_obs.Prof.calls
        | Some c ->
            List.fold_left
              (fun n (k : Alto_obs.Prof.snapshot) ->
                if String.equal k.Alto_obs.Prof.name c then n + k.Alto_obs.Prof.calls else n)
              n s.Alto_obs.Prof.children)
    0
    (Alto_obs.Prof.flatten (Alto_obs.Prof.tree ()))

(* One page freed alone waits a turn between its check and its write;
   a run's checks and writes each take one elevator pass. *)
let test_delete_run_is_fast () =
  let drive, fs, file = run_subject 24 in
  let free0 = Fs.free_count fs in
  let clock = Drive.clock drive in
  let t0 = Alto_machine.Sim_clock.now_us clock in
  file_ok "delete" (File.delete file);
  let revs =
    float_of_int (Alto_machine.Sim_clock.now_us clock - t0)
    /. float_of_int small_geometry.Geometry.rotation_us
  in
  if revs >= 10.0 then Alcotest.failf "deleting 24 pages took %.1f revolutions" revs;
  Alcotest.(check int) "every page freed" (free0 + 25) (Fs.free_count fs)

(* §3.3 as E3 measures it: against the unchecked ablation, a page
   allocated or freed alone pays about one revolution for its label
   check, and a page inside a run a fraction of one. No in-core label
   may stand in for an allocation or free check. *)
let test_check_cost () =
  let pages = 24 and page = Sector.bytes_per_page in
  (* Simulated µs a page: allocated alone, freed alone, allocated in a
     run, freed in a run. *)
  let per_page ~checking =
    let drive, fs = fresh_fs () in
    Fs.set_label_checking fs checking;
    let clock = Drive.clock drive in
    let timed f =
      let t0 = Alto_machine.Sim_clock.now_us clock in
      f ();
      (Alto_machine.Sim_clock.now_us clock - t0) / pages
    in
    let one_page_file name =
      let f = file_ok "create" (File.create fs ~name) in
      file_ok "write" (File.write_bytes f ~pos:0 (lorem page));
      f
    in
    let single = one_page_file "Single." in
    let alloc_one =
      timed (fun () ->
          for _ = 1 to pages do
            file_ok "append" (File.append_bytes single (other page))
          done)
    in
    let free_one =
      timed (fun () ->
          for k = pages - 1 downto 0 do
            file_ok "truncate" (File.truncate single ~len:((k + 1) * page))
          done)
    in
    let run = one_page_file "Run." in
    let alloc_run =
      timed (fun () -> file_ok "extend" (File.append_bytes run (other (pages * page))))
    in
    let free_run = timed (fun () -> file_ok "cut" (File.truncate run ~len:page)) in
    [ alloc_one; free_one; alloc_run; free_run ]
  in
  let rev = float_of_int small_geometry.Geometry.rotation_us in
  List.iter2
    (fun (what, lo, hi) (on, off) ->
      let cost = float_of_int (on - off) /. rev in
      if cost < lo || cost > hi then
        Alcotest.failf "%s: the check costs %+.2f rev a page" what cost)
    [
      ("allocating alone", 0.9, 1.1);
      ("freeing alone", 0.9, 1.1);
      ("allocating in a run", neg_infinity, 0.25);
      ("freeing in a run", neg_infinity, 0.25);
    ]
    (List.combine (per_page ~checking:true) (per_page ~checking:false))

let test_free_run_refused_frees_nothing () =
  let _drive, fs, file = run_subject 4 in
  let names = List.init 4 (fun i -> file_ok "name" (File.page_name file (i + 1))) in
  let stranger = Fs.fresh_fid fs in
  let names =
    List.mapi
      (fun i (fn : Page.full_name) ->
        if i = 2 then Page.full_name stranger ~page:3 ~addr:fn.Page.addr else fn)
      names
  in
  let free0 = Fs.free_count fs in
  (match Fs.free_pages fs names with
  | Error (Fs.Page_error (Page.Hint_failed _)) -> ()
  | Ok () -> Alcotest.fail "freed a run holding a wrong name"
  | Error e -> Alcotest.failf "expected a refused name, got %a" Fs.pp_error e);
  Alcotest.(check int) "nothing freed" free0 (Fs.free_count fs);
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:(4 * Sector.bytes_per_page)) in
  Alcotest.(check string) "every page reads back" (lorem (4 * Sector.bytes_per_page))
    (Bytes.to_string got)

let test_extend_run_writes () =
  let drive, fs, file = run_subject 1 in
  let writes0 = Drive.write_ops drive in
  let maps0 = Alto_obs.Obs.(counter_value (counter "fs.map_writes")) in
  let reserves0 = span_calls "fs.allocate_page" in
  let passes0 = span_calls ~child:"disk.sched.sweep" "fs.allocate_page" in
  let free0 = Fs.free_count fs in
  let body = other (24 * Sector.bytes_per_page) in
  file_ok "extend" (File.append_bytes file body);
  let maps = Alto_obs.Obs.(counter_value (counter "fs.map_writes")) - maps0 in
  Alcotest.(check bool) "at most one map write for the run" true (maps <= 1);
  Alcotest.(check int) "one pre-linked write a page and one relink of the old last" 25
    (Drive.write_ops drive - writes0 - maps);
  Alcotest.(check int) "one reservation" 1 (span_calls "fs.allocate_page" - reserves0);
  Alcotest.(check int) "one check pass" 1
    (span_calls ~child:"disk.sched.sweep" "fs.allocate_page" - passes0);
  Alcotest.(check int) "24 pages taken" (free0 - 24) (Fs.free_count fs);
  let got = file_ok "read" (File.read_bytes file ~pos:Sector.bytes_per_page ~len:(String.length body)) in
  Alcotest.(check string) "contents" body (Bytes.to_string got)

(* A write that extends a partial last page past its end: the page's
   one rewrite carries its new length and the link into the run, so no
   page is rewritten twice and no fresh page is rewritten at all. *)
let test_extend_partial_run_writes () =
  let drive, fs = fresh_fs () in
  let file = file_ok "create" (File.create fs ~name:"Part.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 300));
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  let writes0 = Drive.write_ops drive in
  let maps0 = Alto_obs.Obs.(counter_value (counter "fs.map_writes")) in
  let rewrites0 = span_calls "page.rewrite_label" in
  let body = other (24 * Sector.bytes_per_page) in
  file_ok "extend" (File.append_bytes file body);
  let maps = Alto_obs.Obs.(counter_value (counter "fs.map_writes")) - maps0 in
  Alcotest.(check int) "the last page's rewrite and one write a fresh page" 25
    (Drive.write_ops drive - writes0 - maps);
  Alcotest.(check int) "one rewrite: new length and link together" 1
    (span_calls "page.rewrite_label" - rewrites0);
  Alcotest.(check int) "pages" 25 (File.last_page file);
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:(File.byte_length file)) in
  Alcotest.(check string) "contents" (lorem 300 ^ body) (Bytes.to_string got)

(* A reserved sector that refuses its write part way through a run: it
   is quarantined, the run's next sector stands in, and the page before
   it, whose label named the dud, is relinked to the stand-in. With the
   free check off (E3's ablation) a dud is first found by its write. *)
let test_refused_sector_mid_run () =
  let drive, fs = fresh_fs () in
  Fs.set_policy fs Fs.Near_previous;
  let file = file_ok "create" (File.create fs ~name:"Dud.") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem Sector.bytes_per_page));
  let page1 = file_ok "page 1" (File.page_name file 1) in
  (* The coming run is the next six sectors: page 4's is the dud. *)
  let dud = Disk_address.offset page1.Page.addr 3 in
  Alto_disk.Fault.make_bad drive dud;
  Fs.set_label_checking fs false;
  let body = other (6 * Sector.bytes_per_page) in
  file_ok "extend" (File.append_bytes file body);
  Fs.set_label_checking fs true;
  let page3 = file_ok "page 3" (File.page_name file 3) in
  let page4 = file_ok "page 4" (File.page_name file 4) in
  Alcotest.(check bool) "page 3 landed before the dud" true
    (Disk_address.equal page3.Page.addr (Disk_address.offset dud (-1)));
  Alcotest.(check bool) "page 4 stands on the run's next sector" true
    (Disk_address.equal page4.Page.addr (Disk_address.offset dud 1));
  (match Page.read_label drive page3 with
  | Ok label ->
      Alcotest.(check bool) "page 3 relinked to the stand-in" true
        (Disk_address.equal label.Label.next page4.Page.addr)
  | Error e -> Alcotest.failf "page 3: %a" Page.pp_error e);
  let again = file_ok "reopen" (File.open_leader fs (File.leader_name file)) in
  let got = file_ok "read" (File.read_bytes again ~pos:0 ~len:(File.byte_length again)) in
  Alcotest.(check string) "contents" (lorem Sector.bytes_per_page ^ body) (Bytes.to_string got);
  let root = dir_ok "root" (Directory.open_root fs) in
  dir_ok "add" (Directory.add root ~name:"Dud." (File.leader_name file));
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  fs_ok "mark clean" (Fs.mark_clean fs);
  let report = Alto_fs.Fsck.check drive in
  if not (Alto_fs.Fsck.clean report) then Alcotest.failf "%a" Alto_fs.Fsck.pp_report report

let test_refused_write_returns_run () =
  let drive, fs, file = run_subject 1 in
  let last = file_ok "name" (File.page_name file 1) in
  let free0 = Fs.free_count fs in
  (* Someone else's label under the handle's last page: the relink after
     the first fresh page is refused. *)
  let stranger = Fs.fresh_fid fs in
  Drive.poke drive last.Page.addr Sector.Label
    (Label.to_words
       (Label.make ~fid:stranger ~page:1 ~length:Sector.bytes_per_page
          ~next:Disk_address.nil ~prev:Disk_address.nil));
  (match File.append_bytes file (other (24 * Sector.bytes_per_page)) with
  | Ok () -> Alcotest.fail "extended a file whose last page is not its own"
  | Error _ -> ());
  Alcotest.(check int) "only the page written stays taken" (free0 - 1) (Fs.free_count fs)

(* {2 directories} *)

let test_directory_add_lookup_remove () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Memo.txt") in
  dir_ok "add" (Directory.add root ~name:"Memo.txt" (File.leader_name file));
  (match dir_ok "lookup" (Directory.lookup root "Memo.txt") with
  | Some e ->
      Alcotest.(check bool) "fid matches" true
        (File_id.equal e.Directory.entry_file.Page.abs.Page.fid (File.fid file))
  | None -> Alcotest.fail "entry not found");
  Alcotest.(check bool) "absent name" true
    (dir_ok "lookup" (Directory.lookup root "Nothing.") = None);
  Alcotest.(check bool) "removed" true (dir_ok "remove" (Directory.remove root "Memo.txt"));
  Alcotest.(check bool) "gone" true (dir_ok "lookup" (Directory.lookup root "Memo.txt") = None);
  Alcotest.(check bool) "remove again" false
    (dir_ok "remove" (Directory.remove root "Memo.txt"))

let test_directory_slot_reuse () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let add name =
    let file = file_ok "create" (File.create fs ~name) in
    dir_ok "add" (Directory.add root ~name (File.leader_name file))
  in
  add "Aaaa.";
  add "Bbbb.";
  add "Cccc.";
  let size_before = File.byte_length root in
  ignore (dir_ok "remove" (Directory.remove root "Bbbb."));
  add "Dddd.";
  (* Same-sized entry reuses the freed slot: the directory didn't grow. *)
  Alcotest.(check int) "slot reused" size_before (File.byte_length root);
  let names =
    List.map (fun e -> e.Directory.entry_name) (dir_ok "entries" (Directory.entries root))
  in
  Alcotest.(check (list string)) "live entries" [ "Aaaa."; "Dddd."; "Cccc." ] names

let test_directory_duplicate_rejected () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Once.") in
  dir_ok "add" (Directory.add root ~name:"Once." (File.leader_name file));
  match Directory.add root ~name:"Once." (File.leader_name file) with
  | Ok () -> Alcotest.fail "duplicate entry accepted"
  | Error (Directory.Malformed _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Directory.pp_error e

let test_directory_graph () =
  (* Directories can form an arbitrary graph: a file in two directories,
     a subdirectory containing its parent. *)
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let sub = dir_ok "create sub" (Directory.create fs ~name:"Subdir.") in
  dir_ok "enter sub" (Directory.add root ~name:"Subdir." (File.leader_name sub));
  dir_ok "parent link" (Directory.add sub ~name:"Parent." (File.leader_name root));
  let file = file_ok "create" (File.create fs ~name:"Shared.") in
  dir_ok "in root" (Directory.add root ~name:"Shared." (File.leader_name file));
  dir_ok "in sub" (Directory.add sub ~name:"SharedToo." (File.leader_name file));
  let from_sub =
    match dir_ok "lookup" (Directory.lookup sub "SharedToo.") with
    | Some e -> e.Directory.entry_file
    | None -> Alcotest.fail "missing"
  in
  let via = file_ok "open via sub" (File.open_leader fs from_sub) in
  Alcotest.(check bool) "same file" true (File_id.equal (File.fid via) (File.fid file))

let test_update_address () =
  let _drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Mov.") in
  dir_ok "add" (Directory.add root ~name:"Mov." (File.leader_name file));
  let fake = Disk_address.of_index 17 in
  Alcotest.(check bool) "updated" true
    (dir_ok "update" (Directory.update_address root "Mov." fake));
  match dir_ok "lookup" (Directory.lookup root "Mov.") with
  | Some e ->
      Alcotest.(check bool) "address changed" true
        (Disk_address.equal e.Directory.entry_file.Page.addr fake)
  | None -> Alcotest.fail "entry vanished"

let test_serial_counter_persists () =
  (* File ids must never repeat across a remount: the serial counter is
     part of the descriptor. *)
  let drive, fs = fresh_fs () in
  let f1 = file_ok "create" (File.create fs ~name:"A.") in
  (match Fs.flush fs with Ok () -> () | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  let fs' = match Fs.mount drive with Ok f -> f | Error m -> Alcotest.failf "%s" m in
  let f2 = file_ok "create after remount" (File.create fs' ~name:"B.") in
  Alcotest.(check bool) "ids distinct across remount" false
    (File_id.equal (File.fid f1) (File.fid f2));
  Alcotest.(check bool) "serial advanced" true
    ((File.fid f2).File_id.serial > (File.fid f1).File_id.serial)

let test_nonstandard_disk_geometry () =
  (* §5.2: "a program using a large non-standard disk … include[s] a
     package that implements only the disk object" and reuses every
     standard package. Here the non-standard disk is just a different
     shape; streams, directories and the scavenger neither know nor
     care. *)
  let geometry =
    {
      Geometry.diablo_31 with
      Geometry.model = "non-standard video disk";
      cylinders = 330;
      heads = 4;
      sectors_per_track = 10;
      rotation_us = 24_000;
    }
  in
  (match Geometry.validate geometry with
  | Ok () -> ()
  | Error e -> Alcotest.failf "geometry: %s" e);
  let drive = Drive.create ~pack_id:9 geometry in
  let fs = Fs.format drive in
  let root = dir_ok "root" (Directory.open_root fs) in
  let file = file_ok "create" (File.create fs ~name:"Big.dat") in
  file_ok "write" (File.write_bytes file ~pos:0 (lorem 4000));
  dir_ok "add" (Directory.add root ~name:"Big.dat" (File.leader_name file));
  let got = file_ok "read" (File.read_bytes file ~pos:0 ~len:4000) in
  Alcotest.(check string) "standard packages over a non-standard disk" (lorem 4000)
    (Bytes.to_string got);
  (* The shape is absolute data in the descriptor; a remount recovers it. *)
  (match Fs.mount drive with
  | Ok fs' -> Alcotest.(check bool) "shape round-trips" true (Geometry.equal (Fs.geometry fs') geometry)
  | Error m -> Alcotest.failf "mount: %s" m);
  match Alto_fs.Scavenger.scavenge drive with
  | Ok (_, report) ->
      Alcotest.(check int) "scavenger too" 0 report.Alto_fs.Scavenger.pages_lost
  | Error m -> Alcotest.failf "scavenge: %s" m

(* {3 Directories over several pages}

   Entries of odd-length names straddle the 256-word page boundaries;
   every operation must agree with a plain decode of the directory's
   words. *)

(* The live slots of a directory, decoded straight from
   [File.read_words]: (slot position, slot length, entry). *)
let reference_slots dir =
  let words = file_ok "read words" (File.read_words dir ~pos:0 ~len:(File.byte_length dir / 2)) in
  let w i = Word.to_int words.(i) in
  let rec scan pos acc =
    if pos >= Array.length words then List.rev acc
    else
      let len = w pos land 0xff in
      if len = 0 then Alcotest.fail "reference decode: zero-length slot"
      else if w pos land 0x100 = 0 then scan (pos + len) acc
      else
        let fid =
          match File_id.of_words words.(pos + 1) words.(pos + 2) words.(pos + 3) with
          | Ok fid -> fid
          | Error msg -> Alcotest.failf "reference decode: %s" msg
        in
        let name_len = w (pos + 5) in
        let name =
          Word.string_of_words (Array.sub words (pos + 6) ((name_len + 1) / 2)) ~len:name_len
        in
        let entry =
          {
            Directory.entry_name = name;
            entry_file = Page.full_name fid ~page:0 ~addr:(Disk_address.of_word words.(pos + 4));
          }
        in
        scan (pos + len) ((pos, len, entry) :: acc)
  in
  scan 0 []

let entry_testable =
  Alcotest.testable
    (fun fmt (e : Directory.entry) ->
      Format.fprintf fmt "%S -> %a" e.Directory.entry_name Page.pp_full_name e.Directory.entry_file)
    (fun a b ->
      String.equal a.Directory.entry_name b.Directory.entry_name
      && File_id.equal a.entry_file.Page.abs.Page.fid b.entry_file.Page.abs.Page.fid
      && Disk_address.equal a.entry_file.Page.addr b.entry_file.Page.addr)

(* Every data page of [dir], as the scavenger holds them: value and
   label length. *)
let data_pages dir =
  Array.init (File.last_page dir) (fun i -> file_ok "page" (File.read_page dir (i + 1)))

let check_against_reference what dir =
  let reference = List.map (fun (_, _, e) -> e) (reference_slots dir) in
  Alcotest.(check (list entry_testable)) (what ^ ": entries") reference
    (dir_ok "entries" (Directory.entries dir));
  List.iter
    (fun (e : Directory.entry) ->
      Alcotest.(check (option entry_testable))
        (what ^ ": lookup " ^ e.Directory.entry_name)
        (Some e)
        (dir_ok "lookup" (Directory.lookup dir e.Directory.entry_name)))
    reference;
  let salvaged, truncated = Directory.salvage_of (data_pages dir) in
  Alcotest.(check (list entry_testable)) (what ^ ": salvage") reference salvaged;
  Alcotest.(check bool) (what ^ ": salvage complete") false truncated

(* Odd lengths from 3 to 39 bytes, each name distinct. *)
let long_name i =
  Printf.sprintf "%03d%s" i (String.make (2 * (i mod 19)) (Char.chr (97 + (i mod 26))))

(* A directory of [count] long-named entries pointing at a few files. *)
let paged_directory count =
  let _drive, fs = fresh_fs () in
  let dir = dir_ok "create" (Directory.create fs ~name:"Paged.") in
  let files =
    Array.init 3 (fun i ->
        File.leader_name (file_ok "create" (File.create fs ~name:(Printf.sprintf "F%d." i))))
  in
  for i = 0 to count - 1 do
    dir_ok "add" (Directory.add dir ~name:(long_name i) files.(i mod 3))
  done;
  (dir, files)

let crosses_page (pos, len, _) = pos / Sector.value_words <> (pos + len - 1) / Sector.value_words

let test_directory_across_pages () =
  let dir, files = paged_directory 60 in
  (* Names that differ only in their odd last byte, or in length. *)
  List.iteri
    (fun i name -> dir_ok "add twin" (Directory.add dir ~name files.(i mod 3)))
    [ "Twin.a1"; "Twin.a2"; "Twin.a"; "Twin.a12" ];
  Alcotest.(check bool) "three pages or more" true (File.last_page dir >= 3);
  check_against_reference "built" dir;
  Alcotest.(check (option entry_testable)) "absent name" None
    (dir_ok "lookup" (Directory.lookup dir "Nowhere."));
  (* Free a slot that straddles a page boundary, then refill it with a
     name of the same word size. *)
  let pos, len, victim =
    match List.find_opt crosses_page (reference_slots dir) with
    | Some slot -> slot
    | None -> Alcotest.fail "no entry crosses a page boundary"
  in
  Alcotest.(check bool) "removed" true
    (dir_ok "remove" (Directory.remove dir victim.Directory.entry_name));
  Alcotest.(check (option entry_testable)) "gone" None
    (dir_ok "lookup" (Directory.lookup dir victim.Directory.entry_name));
  check_against_reference "after remove" dir;
  let size = File.byte_length dir in
  let name = String.make (String.length victim.Directory.entry_name) 'Z' in
  Alcotest.(check int) "same slot size" len (Directory.entry_words name);
  dir_ok "add" (Directory.add dir ~name files.(1));
  Alcotest.(check int) "slot reused, directory did not grow" size (File.byte_length dir);
  (match List.find_opt (fun (p, _, _) -> p = pos) (reference_slots dir) with
  | Some (_, _, e) ->
      Alcotest.(check string) "new name in the freed slot" name e.Directory.entry_name
  | None -> Alcotest.fail "freed slot not reused");
  check_against_reference "after add" dir;
  Alcotest.(check bool) "address hint refreshed" true
    (dir_ok "update" (Directory.update_address dir name (Disk_address.of_index 21)));
  check_against_reference "after update" dir

let test_directory_corrupt_after_match () =
  (* The scan checks every live slot, past the one being looked up too:
     a damaged later slot makes the directory Malformed, and salvage
     keeps what precedes it. *)
  let corrupt what damage expect =
    let dir, _files = paged_directory 60 in
    let slots = reference_slots dir in
    let _, _, first = List.hd slots in
    let pos, len, _ = List.nth slots 50 in
    let before = List.filteri (fun i _ -> i < 50) (List.map (fun (_, _, e) -> e) slots) in
    let at, w = damage pos len (file_ok "read" (File.read_words dir ~pos ~len)) in
    file_ok "damage" (File.write_words dir ~pos:at [| Word.of_int w |]);
    (match Directory.lookup dir first.Directory.entry_name with
    | Error (Directory.Malformed msg) -> Alcotest.(check string) (what ^ ": lookup") expect msg
    | Ok _ -> Alcotest.failf "%s: lookup ignored the damaged slot" what
    | Error e -> Alcotest.failf "%s: %a" what Directory.pp_error e);
    (match Directory.entries dir with
    | Error (Directory.Malformed msg) -> Alcotest.(check string) (what ^ ": entries") expect msg
    | Ok _ | Error _ -> Alcotest.failf "%s: entries did not refuse" what);
    let salvaged, truncated = Directory.salvage_of (data_pages dir) in
    Alcotest.(check (list entry_testable)) (what ^ ": salvage keeps the prefix") before salvaged;
    Alcotest.(check bool) (what ^ ": salvage truncated") true truncated
  in
  corrupt "reserved bit"
    (fun pos _ words -> (pos + 1, Word.to_int words.(1) lor 0x4000))
    "file id: reserved bit set";
  corrupt "name length"
    (fun pos len _ -> (pos + 5, (2 * (len - 6)) + 1))
    "entry name length inconsistent"

(* Property: random directory traffic matches an association-list
   model (names unique, order preserved for the survivors). *)
let prop_directory_matches_model =
  (* 48 distinct names of 1 to 40 bytes: enough live entries to spread
     the directory over several pages. *)
  let names =
    Array.init 48 (fun k ->
        String.init (1 + (k * 17 mod 40)) (fun i ->
            if i = 0 then Char.chr (48 + k) else Char.chr (97 + ((k + i) mod 26))))
  in
  QCheck.Test.make ~name:"random directory ops match an assoc model" ~count:25
    QCheck.(list_of_size Gen.(1 -- 150) (pair (int_bound 2) (int_bound 47)))
    (fun ops ->
      let drive = Drive.create ~pack_id:5 small_geometry in
      let fs = Fs.format drive in
      let root =
        match Directory.open_root fs with Ok r -> r | Error _ -> QCheck.assume_fail ()
      in
      (* A small pool of files to point entries at. *)
      let pool =
        Array.init 4 (fun i ->
            match File.create fs ~name:(Printf.sprintf "Pool%d." i) with
            | Ok f -> File.leader_name f
            | Error _ -> QCheck.assume_fail ())
      in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, k) ->
          if !ok then
            let name = names.(k) in
            match op with
            | 0 -> (
                let fn = pool.(k mod Array.length pool) in
                match Directory.add root ~name fn with
                | Ok () ->
                    if List.mem_assoc name !model then ok := false
                    else model := !model @ [ (name, fn) ]
                | Error (Directory.Malformed _) ->
                    if not (List.mem_assoc name !model) then ok := false
                | Error _ -> ok := false)
            | 1 -> (
                match Directory.remove root name with
                | Ok removed ->
                    if removed <> List.mem_assoc name !model then ok := false
                    else model := List.remove_assoc name !model
                | Error _ -> ok := false)
            | _ -> (
                match Directory.lookup root name with
                | Ok (Some e) -> (
                    match List.assoc_opt name !model with
                    | Some fn ->
                        if
                          not
                            (File_id.equal e.Directory.entry_file.Page.abs.Page.fid
                               fn.Page.abs.Page.fid)
                        then ok := false
                    | None -> ok := false)
                | Ok None -> if List.mem_assoc name !model then ok := false
                | Error _ -> ok := false))
        ops;
      (* Final sweep: the live entries equal the model as a set (slot
         reuse reorders the file, so order is not insertion order). *)
      !ok
      &&
      match Directory.entries root with
      | Error _ -> false
      | Ok entries ->
          List.sort compare
            (List.map (fun (e : Directory.entry) -> e.Directory.entry_name) entries)
          = List.sort compare (List.map fst !model))

let suite =
  [
    ("format then mount", `Quick, test_format_then_mount);
    ("mount rejects unformatted", `Quick, test_mount_rejects_unformatted);
    ("mount rejects corrupt descriptor", `Quick, test_mount_rejects_corrupt_descriptor);
    ("boot page never allocated", `Quick, test_boot_page_never_allocated);
    ("allocate writes label+value", `Quick, test_allocate_writes_label_and_value);
    ("stale map hint survived", `Quick, test_stale_map_hint_is_survived);
    ("free writes ones", `Quick, test_free_page_writes_ones);
    ("free refuses wrong name", `Quick, test_free_page_refuses_wrong_name);
    ("disk full", `Quick, test_disk_full);
    ("create and reopen", `Quick, test_create_and_reopen);
    ("write/read roundtrip", `Quick, test_write_read_roundtrip);
    ("overwrite middle", `Quick, test_overwrite_middle);
    ("odd offsets round-trip", `Quick, test_odd_offsets_roundtrip);
    ("word pages match read_words", `Quick, test_word_pages_match_read_words);
    ("a short middle page refuses every read alike", `Quick, test_short_middle_page);
    ("append grows", `Quick, test_append_grows);
    ("full page then append", `Quick, test_exactly_full_page_then_append);
    ("truncate", `Quick, test_truncate);
    ("delete reclaims", `Quick, test_delete_reclaims_everything);
    ("stale hint recovery", `Quick, test_stale_hint_recovery);
    ("hint beyond the pack fails as a hint", `Quick, test_hint_beyond_pack);
    ("leader dates", `Quick, test_leader_dates_advance);
    ("replace across page-count transitions", `Quick, test_replace_transitions);
    ("replace rewrites shared pages in place", `Quick, test_replace_in_place);
    ("replace on a full volume leaks nothing", `Quick, test_replace_full_volume);
    ("delete frees a run in few turns", `Quick, test_delete_run_is_fast);
    ("free run with a wrong name frees nothing", `Quick, test_free_run_refused_frees_nothing);
    ("label check costs a turn alone, not in a run", `Quick, test_check_cost);
    ("extend by a run writes as page by page", `Quick, test_extend_run_writes);
    ("extend a partial last page by a run", `Quick, test_extend_partial_run_writes);
    ("a sector refusing its write mid-run is stood in for", `Quick, test_refused_sector_mid_run);
    ("refused write returns the run", `Quick, test_refused_write_returns_run);
    ("directory add/lookup/remove", `Quick, test_directory_add_lookup_remove);
    ("directory slot reuse", `Quick, test_directory_slot_reuse);
    ("directory duplicate rejected", `Quick, test_directory_duplicate_rejected);
    ("directory graph", `Quick, test_directory_graph);
    ("directory update address", `Quick, test_update_address);
    ("directory across pages agrees with a plain decode", `Quick, test_directory_across_pages);
    ("directory damage after the match is still found", `Quick, test_directory_corrupt_after_match);
    ("serial counter persists", `Quick, test_serial_counter_persists);
    ("non-standard disk geometry", `Quick, test_nonstandard_disk_geometry);
    QCheck_alcotest.to_alcotest ~verbose:false prop_directory_matches_model;
  ]

let () = Alcotest.run "alto_fs" [ ("fs", suite) ]

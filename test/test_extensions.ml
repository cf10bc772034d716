(* The paper's sketched-but-unbuilt extensions, built: journaled
   directories (§3.5) and the network file server / diskless client
   (§5.2), plus the k-th-page hint density knob (§3.6). *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Journal = Alto_fs.Journal
module Scavenger = Alto_fs.Scavenger
module Net = Alto_net.Net
module File_server = Alto_server.File_server

let small_geometry = { Geometry.diablo_31 with Geometry.model = "test"; cylinders = 25 }

let fresh_fs () =
  let drive = Drive.create ~pack_id:7 small_geometry in
  (drive, Fs.format drive)

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let file_ok what r = check_ok File.pp_error what r
let dir_ok what r = check_ok Directory.pp_error what r
let jr_ok what r = check_ok Journal.pp_error what r

let make_file fs name contents =
  let file = file_ok "create" (File.create fs ~name) in
  if String.length contents > 0 then
    file_ok "write" (File.write_bytes file ~pos:0 contents);
  file_ok "flush" (File.flush_leader file);
  file

(* {2 journaled directories} *)

let journaled () =
  let drive, fs = fresh_fs () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let jd = jr_ok "create" (Journal.create fs ~parent:root ~name:"Vault.") in
  (drive, fs, root, jd)

let test_journal_basic_ops () =
  let _drive, fs, _root, jd = journaled () in
  let a = make_file fs "A.txt" "alpha" in
  let b = make_file fs "B.txt" "beta" in
  jr_ok "add A" (Journal.add jd ~name:"A.txt" (File.leader_name a));
  jr_ok "add B under alias" (Journal.add jd ~name:"Alias.B" (File.leader_name b));
  (match jr_ok "lookup" (Journal.lookup jd "Alias.B") with
  | Some e ->
      Alcotest.(check bool) "alias points at B" true
        (File_id.equal e.Directory.entry_file.Page.abs.Page.fid (File.fid b))
  | None -> Alcotest.fail "alias missing");
  Alcotest.(check int) "two records journaled" 2
    (jr_ok "records" (Journal.journal_records jd));
  Alcotest.(check bool) "removed" true (jr_ok "remove" (Journal.remove jd "A.txt"));
  Alcotest.(check int) "three records" 3 (jr_ok "records" (Journal.journal_records jd))

let test_snapshot_truncates_journal () =
  let _drive, fs, _root, jd = journaled () in
  let a = make_file fs "A.txt" "alpha" in
  jr_ok "add" (Journal.add jd ~name:"A.txt" (File.leader_name a));
  jr_ok "snapshot" (Journal.take_snapshot jd);
  Alcotest.(check int) "journal empty" 0 (jr_ok "records" (Journal.journal_records jd));
  (* And the state is all in the snapshot: recover from it alone. *)
  let recovery = jr_ok "recover" (Journal.recover jd) in
  Alcotest.(check int) "restored from snapshot" 1 recovery.Journal.entries_restored;
  Alcotest.(check int) "nothing replayed" 0 recovery.Journal.records_replayed

let test_recovery_restores_lost_names () =
  (* The decisive scenario: a file catalogued under an alias that is NOT
     its leader name. Plain scavenging adopts orphans under leader names,
     so the alias is unrecoverable without the journal. *)
  let drive, fs, _root, jd = journaled () in
  let doc = make_file fs "LeaderName.txt" "the contents" in
  jr_ok "add under alias" (Journal.add jd ~name:"TotallyDifferent." (File.leader_name doc));
  jr_ok "snapshot" (Journal.take_snapshot jd);
  let extra = make_file fs "Extra.txt" "more" in
  jr_ok "post-snapshot add" (Journal.add jd ~name:"Extra.txt" (File.leader_name extra));
  Alcotest.(check bool) "post-snapshot remove" true
    (jr_ok "rm" (Journal.remove jd "Extra.txt"));
  jr_ok "re-add" (Journal.add jd ~name:"Extra2." (File.leader_name extra));
  (* Destroy the directory's data page contents. *)
  let rng = Alto_machine.Splitmix.of_seed 11 in
  let dir_file = Journal.directory jd in
  let p1 = file_ok "p1" (File.page_name dir_file 1) in
  Fault.corrupt_part rng drive p1.Page.addr Sector.Value;
  (* The scavenger makes the volume sound again — but the alias is gone
     (the file reappears under its leader name in the root). *)
  let fs', _report =
    match Scavenger.scavenge drive with Ok x -> x | Error m -> Alcotest.failf "%s" m
  in
  let root' = dir_ok "root" (Directory.open_root fs') in
  Alcotest.(check bool) "scavenger could not restore the alias" true
    (dir_ok "lookup" (Directory.lookup root' "TotallyDifferent.") = None);
  (* The journaled package can. *)
  let jd' = jr_ok "reopen" (Journal.open_existing fs' ~parent:root' ~name:"Vault.") in
  let recovery = jr_ok "recover" (Journal.recover jd') in
  Alcotest.(check int) "both names back" 2 recovery.Journal.entries_restored;
  Alcotest.(check int) "replayed the tail" 3 recovery.Journal.records_replayed;
  (match jr_ok "lookup" (Journal.lookup jd' "TotallyDifferent.") with
  | Some e -> (
      (* And the entry leads to the right bytes. *)
      match File.open_leader fs' e.Directory.entry_file with
      | Ok f ->
          let got =
            Bytes.to_string (file_ok "read" (File.read_bytes f ~pos:0 ~len:(File.byte_length f)))
          in
          Alcotest.(check string) "contents" "the contents" got
      | Error e -> Alcotest.failf "open: %a" File.pp_error e)
  | None -> Alcotest.fail "alias not recovered");
  match jr_ok "lookup2" (Journal.lookup jd' "Extra2.") with
  | Some _ -> ()
  | None -> Alcotest.fail "post-snapshot rename lost"

let test_recovery_is_idempotent () =
  let _drive, fs, _root, jd = journaled () in
  let a = make_file fs "A.txt" "alpha" in
  jr_ok "add" (Journal.add jd ~name:"A.txt" (File.leader_name a));
  let r1 = jr_ok "recover" (Journal.recover jd) in
  let r2 = jr_ok "recover again" (Journal.recover jd) in
  Alcotest.(check int) "same entries" r1.Journal.entries_restored r2.Journal.entries_restored;
  match jr_ok "lookup" (Journal.lookup jd "A.txt") with
  | Some _ -> ()
  | None -> Alcotest.fail "entry lost by recovery"

let test_journal_survives_ordinary_use () =
  (* The wrapped directory is still a plain directory: the standard
     package reads it. *)
  let _drive, fs, _root, jd = journaled () in
  let a = make_file fs "A.txt" "alpha" in
  jr_ok "add" (Journal.add jd ~name:"A.txt" (File.leader_name a));
  let plain = dir_ok "entries via Directory" (Directory.entries (Journal.directory jd)) in
  Alcotest.(check int) "visible to the standard package" 1 (List.length plain)

(* {2 file server and diskless client} *)

let server_setup () =
  let drive, fs = fresh_fs () in
  ignore drive;
  let root = dir_ok "root" (Directory.open_root fs) in
  ignore root;
  let net = Net.create () in
  let station = Net.attach net ~name:"server" in
  let server = File_server.create fs station in
  let client = Net.attach net ~name:"client" in
  let pump () = ignore (File_server.tick server : int) in
  (fs, server, client, pump)

let client_ok what r = check_ok File_server.Client.pp_error what r

let test_server_get () =
  let fs, _server, client, pump = server_setup () in
  let root = dir_ok "root" (Directory.open_root fs) in
  let doc = make_file fs "Doc.txt" "over the wire" in
  dir_ok "add" (Directory.add root ~name:"Doc.txt" (File.leader_name doc));
  let got = client_ok "fetch" (File_server.Client.fetch client ~server:"server" ~name:"Doc.txt" ~pump) in
  Alcotest.(check string) "contents" "over the wire" got

let test_server_get_missing () =
  let _fs, _server, client, pump = server_setup () in
  match File_server.Client.fetch client ~server:"server" ~name:"Nope." ~pump with
  | Error (File_server.Client.Remote _) -> ()
  | Ok _ -> Alcotest.fail "fetched a phantom"
  | Error e -> Alcotest.failf "wrong error: %a" File_server.Client.pp_error e

let test_server_put_then_get () =
  let _fs, _server, client, pump = server_setup () in
  (* The server's books are the registry's, summed over every server. *)
  let served name =
    match Alto_obs.Obs.find name with
    | Some (Alto_obs.Obs.Histogram s) -> s.Alto_obs.Obs.count
    | _ -> 0
  in
  let puts0 = served "server.put_us" and gets0 = served "server.get_us" in
  let body = String.init 3000 (fun i -> Char.chr (32 + (i mod 90))) in
  client_ok "store" (File_server.Client.store client ~server:"server" ~name:"Up.dat" body ~pump);
  let got = client_ok "fetch" (File_server.Client.fetch client ~server:"server" ~name:"Up.dat" ~pump) in
  Alcotest.(check string) "round trip" body got;
  (* Overwrite. *)
  client_ok "overwrite" (File_server.Client.store client ~server:"server" ~name:"Up.dat" "short" ~pump);
  let got = client_ok "fetch" (File_server.Client.fetch client ~server:"server" ~name:"Up.dat" ~pump) in
  Alcotest.(check string) "overwritten" "short" got;
  Alcotest.(check int) "2 puts" 2 (served "server.put_us" - puts0);
  Alcotest.(check int) "2 gets" 2 (served "server.get_us" - gets0)

let test_server_listing () =
  let _fs, _server, client, pump = server_setup () in
  client_ok "store" (File_server.Client.store client ~server:"server" ~name:"One." "1" ~pump);
  client_ok "store" (File_server.Client.store client ~server:"server" ~name:"Two." "2" ~pump);
  let names = client_ok "listing" (File_server.Client.listing client ~server:"server" ~pump) in
  Alcotest.(check bool) "One listed" true (List.mem "One." names);
  Alcotest.(check bool) "Two listed" true (List.mem "Two." names)

let test_server_persists () =
  (* Files stored over the network are ordinary files: they survive a
     remount of the server's pack. *)
  let drive, fs = fresh_fs () in
  let net = Net.create () in
  let station = Net.attach net ~name:"server" in
  let server = File_server.create fs station in
  let client = Net.attach net ~name:"client" in
  let pump () = ignore (File_server.tick server : int) in
  client_ok "store" (File_server.Client.store client ~server:"server" ~name:"Keep." "kept" ~pump);
  let fs' = match Fs.mount drive with Ok f -> f | Error m -> Alcotest.failf "%s" m in
  let root = dir_ok "root" (Directory.open_root fs') in
  match dir_ok "lookup" (Directory.lookup root "Keep.") with
  | Some e ->
      let f = file_ok "open" (File.open_leader fs' e.Directory.entry_file) in
      Alcotest.(check string) "content survived" "kept"
        (Bytes.to_string (file_ok "read" (File.read_bytes f ~pos:0 ~len:4)))
  | None -> Alcotest.fail "stored file not catalogued"

(* {2 k-th page hints} *)

let test_retain_every_kth_hint () =
  let _drive, fs = fresh_fs () in
  let file = make_file fs "Paged.dat" (String.make 6000 'p') in
  (* Warm every hint. *)
  for pn = 1 to File.last_page file do
    ignore (file_ok "read" (File.read_page file pn))
  done;
  Alcotest.(check int) "all hinted" (File.last_page file) (File.hinted_pages file);
  File.retain_hints file ~every:4;
  Alcotest.(check bool) "thinned" true (File.hinted_pages file <= File.last_page file / 4 + 1);
  (* Access still works — links fill the gaps from the retained hints. *)
  let got = file_ok "read" (File.read_bytes file ~pos:5000 ~len:10) in
  Alcotest.(check int) "read through sparse hints" 10 (Bytes.length got);
  Alcotest.check_raises "every must be positive"
    (Invalid_argument "File.retain_hints: every must be >= 1") (fun () ->
      File.retain_hints file ~every:0)

let () =
  Alcotest.run "alto extensions"
    [
      ( "journal",
        [
          ("basic ops", `Quick, test_journal_basic_ops);
          ("snapshot truncates journal", `Quick, test_snapshot_truncates_journal);
          ("recovery restores lost names", `Quick, test_recovery_restores_lost_names);
          ("recovery idempotent", `Quick, test_recovery_is_idempotent);
          ("plain directory compatible", `Quick, test_journal_survives_ordinary_use);
        ] );
      ( "file server",
        [
          ("get", `Quick, test_server_get);
          ("get missing", `Quick, test_server_get_missing);
          ("put then get", `Quick, test_server_put_then_get);
          ("listing", `Quick, test_server_listing);
          ("stored files persist", `Quick, test_server_persists);
        ] );
      ("hints", [ ("retain every k-th", `Quick, test_retain_every_kth_hint) ]);
    ]

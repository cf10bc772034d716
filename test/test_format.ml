(* The on-disk representations: file ids, labels, leader pages,
   directory entries — the formats that are "standardized at a level
   below any of the software" and therefore must hold under property
   testing, not just the happy path. *)

module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Leader = Alto_fs.Leader

(* {2 generators} *)

let gen_fid =
  QCheck.Gen.(
    map3
      (fun serial version directory ->
        File_id.make ~directory ~serial:(1 + serial) ~version:(1 + version) ())
      (int_bound (File_id.max_serial - 1))
      (int_bound 0xfffd) bool)

let arb_fid = QCheck.make ~print:(Format.asprintf "%a" File_id.pp) gen_fid

let gen_address =
  QCheck.Gen.(
    frequency [ (9, map Disk_address.of_index (int_bound 0xfffe)); (1, return Disk_address.nil) ])

let gen_label =
  QCheck.Gen.(
    gen_fid >>= fun fid ->
    int_bound 0xffff >>= fun page ->
    int_bound Sector.bytes_per_page >>= fun length ->
    gen_address >>= fun next ->
    map (fun prev -> Label.make ~fid ~page ~length ~next ~prev) gen_address)

let arb_label = QCheck.make ~print:(Format.asprintf "%a" Label.pp) gen_label

(* {2 file ids} *)

let prop_fid_roundtrip =
  QCheck.Test.make ~name:"file id word encoding roundtrips" ~count:500 arb_fid
    (fun fid ->
      let w0, w1, v = File_id.to_words fid in
      match File_id.of_words w0 w1 v with
      | Ok fid' -> File_id.equal fid fid'
      | Error _ -> false)

let prop_fid_order_consistent =
  QCheck.Test.make ~name:"file id compare is a total order" ~count:200
    QCheck.(pair arb_fid arb_fid)
    (fun (a, b) ->
      let c = File_id.compare a b in
      (c = 0) = File_id.equal a b && compare (File_id.compare b a) 0 = compare 0 c)

let test_fid_rejects_garbage () =
  (* Reserved bit set. *)
  (match File_id.of_words (Word.of_int 0x4000) Word.one Word.one with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reserved bit accepted");
  (* Serial zero. *)
  (match File_id.of_words Word.zero Word.zero Word.one with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "serial 0 accepted");
  (* Version extremes. *)
  (match File_id.of_words Word.zero Word.one Word.zero with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version 0 accepted");
  match File_id.of_words Word.zero Word.one (Word.of_int 0xffff) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version 0xffff accepted"

let test_fid_make_validates () =
  Alcotest.check_raises "serial too big"
    (Invalid_argument
       (Printf.sprintf "File_id.make: serial %d out of range" (File_id.max_serial + 1)))
    (fun () -> ignore (File_id.make ~serial:(File_id.max_serial + 1) ~version:1 ()));
  let fid = File_id.make ~serial:File_id.max_serial ~version:0xfffe () in
  Alcotest.check_raises "version ceiling"
    (Invalid_argument "File_id.make: version 65535 out of range") (fun () ->
      ignore (File_id.next_version fid))

let test_directory_flag_reserved_subset () =
  (* §3.4: "we reserve a subset of the file identifiers for directory
     files" — the flag must survive the encoding and partition the id
     space. *)
  let plain = File_id.make ~serial:500 ~version:2 () in
  let dir = File_id.make ~directory:true ~serial:500 ~version:2 () in
  Alcotest.(check bool) "flag read back" true (File_id.is_directory dir);
  Alcotest.(check bool) "not on plain" false (File_id.is_directory plain);
  Alcotest.(check bool) "distinct ids" false (File_id.equal plain dir)

(* {2 labels} *)

let prop_label_roundtrip =
  QCheck.Test.make ~name:"label word encoding roundtrips" ~count:500 arb_label
    (fun label ->
      match Label.classify (Label.to_words label) with
      | Label.Valid label' -> Label.equal label label'
      | Label.Free | Label.Bad | Label.Garbage _ -> false)

let prop_label_never_classifies_as_free_or_bad =
  QCheck.Test.make ~name:"no valid label collides with free/bad patterns" ~count:500
    arb_label (fun label ->
      let words = Label.to_words label in
      (not (words = Label.free_words ())) && not (words = Label.bad_words ()))

let test_label_special_patterns () =
  (match Label.classify (Label.free_words ()) with
  | Label.Free -> ()
  | _ -> Alcotest.fail "free pattern not classified Free");
  (match Label.classify (Label.bad_words ()) with
  | Label.Bad -> ()
  | _ -> Alcotest.fail "bad pattern not classified Bad");
  match Label.classify (Array.make Sector.label_words Word.zero) with
  | Label.Garbage _ -> ()
  | _ -> Alcotest.fail "zeroed label not classified Garbage"

let prop_check_name_matches_own_label =
  QCheck.Test.make ~name:"check_name pattern matches the page's own label" ~count:300
    arb_label (fun label ->
      (* Simulate the controller's check action in miniature. *)
      let disk = Label.to_words label in
      let pattern = Label.check_name label.Label.fid ~page:label.Label.page in
      let matches = ref true in
      Array.iteri
        (fun i p ->
          if (not (Word.equal p Word.zero)) && not (Word.equal p disk.(i)) then
            matches := false)
        pattern;
      !matches)

let prop_check_name_refutes_other_files =
  QCheck.Test.make ~name:"check_name refutes a different file's label" ~count:300
    QCheck.(pair arb_label arb_fid)
    (fun (label, other_fid) ->
      QCheck.assume (not (File_id.equal label.Label.fid other_fid));
      let disk = Label.to_words label in
      let pattern = Label.check_name other_fid ~page:label.Label.page in
      let refuted = ref false in
      Array.iteri
        (fun i p ->
          if (not (Word.equal p Word.zero)) && not (Word.equal p disk.(i)) then
            refuted := true)
        pattern;
      !refuted)

let test_label_length_validated () =
  let fid = File_id.make ~serial:1 ~version:1 () in
  Alcotest.check_raises "length > 512" (Invalid_argument "Label.make: length out of [0, 512]")
    (fun () ->
      ignore
        (Label.make ~fid ~page:0 ~length:513 ~next:Disk_address.nil ~prev:Disk_address.nil))

(* {2 leader pages} *)

let gen_leader =
  QCheck.Gen.(
    string_size ~gen:(char_range 'a' 'z') (0 -- Leader.max_name_length) >>= fun name ->
    int_bound 0xffff >>= fun last_page ->
    gen_address >>= fun last_addr ->
    triple (int_bound 1_000_000) (int_bound 1_000_000) bool >>= fun (created, written, flag) ->
    return
      (Leader.make ~created_s:created ~written_s:written ~read_s:0 ~name ~last_page
         ~last_addr ~maybe_consecutive:flag ()))

let arb_leader = QCheck.make ~print:(Format.asprintf "%a" Leader.pp) gen_leader

let prop_leader_roundtrip =
  QCheck.Test.make ~name:"leader page encoding roundtrips" ~count:300 arb_leader
    (fun leader ->
      match Leader.of_value (Leader.to_value leader) with
      | Ok leader' -> Leader.equal leader leader'
      | Error _ -> false)

let test_leader_rejects_garbage () =
  (match Leader.of_value (Array.make Sector.value_words Word.zero) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zeroed value accepted as a leader");
  match Leader.of_value (Array.make 10 Word.zero) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short value accepted"

let test_leader_name_limits () =
  Alcotest.check_raises "overlong name" (Invalid_argument "Leader: name longer than 63 bytes")
    (fun () ->
      ignore
        (Leader.make ~name:(String.make 64 'x') ~last_page:0 ~last_addr:Disk_address.nil
           ~maybe_consecutive:false ()));
  Alcotest.check_raises "NUL in name" (Invalid_argument "Leader: name contains NUL")
    (fun () ->
      ignore
        (Leader.make ~name:"bad\000name" ~last_page:0 ~last_addr:Disk_address.nil
           ~maybe_consecutive:false ()))

(* {2 reading a pack with nothing but the documented layout}

   The openness claim: the disk format is the interface. Write a file
   through the system, then reconstruct its contents using only Drive
   reads and the documented word layouts — no Fs, File or Directory. *)

let test_foreign_environment_reads_the_pack () =
  let geometry = { Alto_disk.Geometry.diablo_31 with Alto_disk.Geometry.model = "t"; cylinders = 20 } in
  let drive = Alto_disk.Drive.create ~pack_id:3 geometry in
  let fs = Alto_fs.Fs.format drive in
  let file =
    match Alto_fs.File.create fs ~name:"Shared.txt" with
    | Ok f -> f
    | Error _ -> Alcotest.fail "create"
  in
  let text = String.init 1200 (fun i -> Char.chr (33 + (i mod 90))) in
  (match Alto_fs.File.write_bytes file ~pos:0 text with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  let leader_addr = (Alto_fs.File.leader_name file).Alto_fs.Page.addr in
  (* The "foreign environment": raw sector reads + layout knowledge. *)
  let read_sector addr =
    let label = Array.make Sector.label_words Word.zero in
    let value = Array.make Sector.value_words Word.zero in
    match
      Alto_disk.Drive.run drive addr
        { Alto_disk.Drive.op_none with
          Alto_disk.Drive.label = Some Alto_disk.Drive.Read;
          value = Some Alto_disk.Drive.Read
        }
        ~label ~value ()
    with
    | Ok () -> (label, value)
    | Error _ -> Alcotest.fail "raw read"
  in
  let buffer = Buffer.create 1200 in
  (* Label layout: word 5 = next link; word 4 = byte count. *)
  let rec walk addr first =
    let label, value = read_sector addr in
    if not first then begin
      let len = Word.to_int label.(4) in
      Buffer.add_string buffer (Word.string_of_words value ~len)
    end;
    let next = Disk_address.of_word label.(5) in
    if not (Disk_address.is_nil next) then walk next false
  in
  walk leader_addr true;
  Alcotest.(check string) "reconstructed from raw sectors" text (Buffer.contents buffer)

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let qcheck tests =
  List.map
    (fun t ->
      let rand = Random.State.make [| qcheck_seed |] in
      QCheck_alcotest.to_alcotest ~verbose:false ~rand t)
    tests

let () =
  Alcotest.run "alto_fs formats"
    [
      ( "file ids",
        [
          ("rejects garbage", `Quick, test_fid_rejects_garbage);
          ("make validates", `Quick, test_fid_make_validates);
          ("directory subset", `Quick, test_directory_flag_reserved_subset);
        ]
        @ qcheck [ prop_fid_roundtrip; prop_fid_order_consistent ] );
      ( "labels",
        [
          ("special patterns", `Quick, test_label_special_patterns);
          ("length validated", `Quick, test_label_length_validated);
        ]
        @ qcheck
            [
              prop_label_roundtrip;
              prop_label_never_classifies_as_free_or_bad;
              prop_check_name_matches_own_label;
              prop_check_name_refutes_other_files;
            ] );
      ( "leaders",
        [
          ("rejects garbage", `Quick, test_leader_rejects_garbage);
          ("name limits", `Quick, test_leader_name_limits);
        ]
        @ qcheck [ prop_leader_roundtrip ] );
      ( "the format is the interface",
        [ ("foreign environment reads the pack", `Quick, test_foreign_environment_reads_the_pack) ] );
    ]

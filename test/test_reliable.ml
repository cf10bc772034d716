(* The transient-fault model and the bounded-retry recovery layer:
   seeded soft errors are deterministic, the retry ladder absorbs them
   without data loss, marginal sectors degrade to hard failures, and the
   scavenger copies still-readable pages off failing sectors into a
   persistent quarantine. *)

module Word = Alto_machine.Word
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Obs = Alto_obs.Obs

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let make_drive ?(geometry = tiny) ?(pack_id = 3) () = Drive.create ~pack_id geometry

let addr i = Disk_address.of_index i

let label_buf () = Array.make Sector.label_words Word.zero
let value_buf () = Array.make Sector.value_words Word.zero

let write_sector drive a ~label ~value =
  match
    Drive.run drive a
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label ~value ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Drive.pp_error e

let counter name =
  match Obs.find name with
  | Some (Obs.Counter v) -> v
  | Some (Obs.Histogram _) | None -> 0

let read_value ?policy drive a =
  let value = value_buf () in
  let r =
    Reliable.run ?policy drive a
      { Drive.op_none with value = Some Drive.Read }
      ~value ()
  in
  (r, value)

(* {2 the retry ladder} *)

let test_transient_recovery () =
  let drive = make_drive () in
  let want = Array.init Sector.value_words (fun i -> Word.of_int (i land 0xFFFF)) in
  write_sector drive (addr 5) ~label:(label_buf ()) ~value:want;
  Fault.set_soft_errors drive ~seed:42 ~rate:0.4;
  let soft0 = counter "disk.soft_errors" in
  let retries0 = counter "disk.retries" in
  let recovered0 = counter "disk.retry_recovered" in
  let exhausted0 = counter "disk.retry_exhausted" in
  for _ = 1 to 50 do
    match read_value ~policy:Reliable.salvage_policy drive (addr 5) with
    | Ok (), got -> Alcotest.(check bool) "data intact" true (got = want)
    | Error e, _ -> Alcotest.failf "read: %a" Drive.pp_error e
  done;
  Alcotest.(check bool) "soft errors tripped" true
    (counter "disk.soft_errors" > soft0);
  Alcotest.(check bool) "retries happened" true (counter "disk.retries" > retries0);
  Alcotest.(check bool) "recoveries recorded" true
    (counter "disk.retry_recovered" > recovered0);
  Alcotest.(check int) "nothing exhausted" exhausted0 (counter "disk.retry_exhausted")

let test_writes_never_transient () =
  let drive = make_drive () in
  Fault.set_soft_errors drive ~seed:7 ~rate:1.0;
  let soft0 = counter "disk.soft_errors" in
  (* Write-only operations draw no soft errors even at rate 1.0. *)
  for i = 0 to 11 do
    write_sector drive (addr i) ~label:(label_buf ()) ~value:(value_buf ())
  done;
  Alcotest.(check int) "no soft errors on writes" soft0
    (counter "disk.soft_errors")

let test_hard_errors_not_retried () =
  let drive = make_drive () in
  Fault.make_bad drive (addr 4);
  let result, retries =
    let value = value_buf () in
    Reliable.run_counted drive (addr 4)
      { Drive.op_none with value = Some Drive.Read }
      ~value ()
  in
  (match result with
  | Error Drive.Bad_sector -> ()
  | Ok () -> Alcotest.fail "read a bad sector"
  | Error e -> Alcotest.failf "unexpected: %a" Drive.pp_error e);
  Alcotest.(check int) "deterministic errors are not retried" 0 retries

(* {2 determinism} *)

(* The same seed, rate and operation sequence must produce the same
   retry counts and the same pack image — the property the CI regression
   gate rests on. *)
let test_determinism () =
  let run_once () =
    let drive = make_drive () in
    let soft0 = counter "disk.soft_errors" in
    let value = Array.init Sector.value_words (fun i -> Word.of_int (i * 3)) in
    for i = 0 to Drive.sector_count drive - 1 do
      write_sector drive (addr i) ~label:(label_buf ()) ~value
    done;
    Fault.set_soft_errors drive ~seed:1234 ~rate:0.3;
    let retries =
      List.init (Drive.sector_count drive) (fun i ->
          let r, n =
            Reliable.run_counted ~policy:Reliable.salvage_policy drive (addr i)
              { Drive.op_none with value = Some Drive.Read }
              ~value:(value_buf ()) ()
          in
          (match r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "read: %a" Drive.pp_error e);
          n)
    in
    (retries, counter "disk.soft_errors" - soft0, drive)
  in
  let r1, soft1, d1 = run_once () in
  let r2, soft2, d2 = run_once () in
  Alcotest.(check (list int)) "identical retry counts" r1 r2;
  Alcotest.(check int) "identical soft error totals" soft1 soft2;
  let image d =
    List.init (Drive.sector_count d) (fun i ->
        let s = Drive.peek d (addr i) in
        ( Array.to_list (Sector.part_of s Sector.Header),
          Array.to_list (Sector.part_of s Sector.Label),
          Array.to_list (Sector.part_of s Sector.Value) ))
  in
  Alcotest.(check bool) "identical pack images" true (image d1 = image d2)

(* {2 marginal sectors} *)

let test_marginal_degrades () =
  let drive = make_drive () in
  write_sector drive (addr 9) ~label:(label_buf ()) ~value:(value_buf ());
  Fault.make_marginal ~rate:1.0 ~growth:1.0 ~degrade_after:3 drive (addr 9);
  Alcotest.(check bool) "marginal" true (Drive.is_marginal drive (addr 9));
  (* Every value read fails; after 3 failures the sector is hard-bad. *)
  (match read_value ~policy:Reliable.salvage_policy drive (addr 9) with
  | Error Drive.Bad_sector, _ -> ()
  | Ok (), _ -> Alcotest.fail "a dying sector read clean"
  | Error e, _ -> Alcotest.failf "expected degradation, got %a" Drive.pp_error e);
  Alcotest.(check int) "three failures recorded" 3 (Drive.soft_failures drive (addr 9));
  (* Labels stay readable right up until degradation: the disease is
     value-only, so the sweep can still identify the page. *)
  match
    Drive.run drive (addr 9)
      { Drive.op_none with label = Some Drive.Read }
      ~label:(label_buf ()) ()
  with
  | Error Drive.Bad_sector -> ()
  | Ok () -> Alcotest.fail "degraded sector still serves labels"
  | Error e -> Alcotest.failf "unexpected: %a" Drive.pp_error e

let test_retry_exhaustion () =
  let drive = make_drive () in
  write_sector drive (addr 2) ~label:(label_buf ()) ~value:(value_buf ());
  Fault.make_marginal ~rate:1.0 ~growth:1.0 ~degrade_after:1_000 drive (addr 2);
  let exhausted0 = counter "disk.retry_exhausted" in
  let result, retries =
    Reliable.run_counted drive (addr 2)
      { Drive.op_none with value = Some Drive.Read }
      ~value:(value_buf ()) ()
  in
  (match result with
  | Error (Drive.Transient _) -> ()
  | Ok () -> Alcotest.fail "an always-failing read succeeded"
  | Error e -> Alcotest.failf "unexpected: %a" Drive.pp_error e);
  Alcotest.(check int) "ladder ran its full length"
    Reliable.default_policy.Reliable.max_retries retries;
  Alcotest.(check int) "exhaustion counted" (exhausted0 + 1)
    (counter "disk.retry_exhausted")

(* {2 the persistent bad-sector table} *)

let test_quarantine_blocks_allocation () =
  let drive = make_drive () in
  let fs = Fs.format drive in
  (* Quarantine one free sector, then allocate everything: the
     quarantined address must never be handed out, and freeing it must
     not resurrect it. *)
  let victim =
    let rec find i =
      if Fs.is_free_in_map fs (addr i) then addr i else find (i + 1)
    in
    find 0
  in
  Fs.quarantine fs victim;
  Alcotest.(check bool) "quarantined" true (Fs.quarantined fs victim);
  let fid = Fs.fresh_fid fs in
  let rec drain acc =
    match
      Fs.allocate_page fs
        ~label:(fun _ ->
          Label.make ~fid ~page:0 ~length:0 ~next:Disk_address.nil
            ~prev:Disk_address.nil)
        ~value:(value_buf ())
    with
    | Ok a -> drain (a :: acc)
    | Error Fs.Disk_full -> acc
    | Error e -> Alcotest.failf "allocate: %a" Fs.pp_error e
  in
  let allocated = drain [] in
  Alcotest.(check bool) "filled the rest of the disk" true
    (List.length allocated > 0);
  Alcotest.(check bool) "the quarantined sector was never proposed" false
    (List.exists (Disk_address.equal victim) allocated);
  Fs.mark_free fs victim;
  Alcotest.(check bool) "mark_free cannot resurrect it" false
    (Fs.is_free_in_map fs victim)

let test_bad_table_survives_remount () =
  let drive = make_drive () in
  let fs = Fs.format drive in
  let victims =
    List.filter (fun a -> Fs.is_free_in_map fs a) [ addr 20; addr 31; addr 32 ]
  in
  Alcotest.(check int) "three free victims" 3 (List.length victims);
  List.iter (Fs.quarantine fs) victims;
  (match Fs.flush fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "mount: %s" msg
  | Ok fs' ->
      Alcotest.(check (list int)) "table survives, in order"
        (List.map Disk_address.to_index victims)
        (List.map Disk_address.to_index (Fs.bad_sector_table fs'));
      List.iter
        (fun v ->
          Alcotest.(check bool) "still busy in the map" false
            (Fs.is_free_in_map fs' v))
        victims

(* {2 scavenger copy-out} *)

let test_scavenger_rescues_marginal () =
  let drive = make_drive ~pack_id:1 () in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with
    | Ok r -> r
    | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  in
  let body = String.init 2600 (fun i -> Char.chr (32 + ((i * 7) mod 95))) in
  let file =
    match File.create fs ~name:"Precious.dat" with
    | Ok f -> f
    | Error e -> Alcotest.failf "create: %a" File.pp_error e
  in
  (match File.write_bytes file ~pos:0 body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" File.pp_error e);
  (match File.flush_leader file with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" File.pp_error e);
  (match Directory.add root ~name:"Precious.dat" (File.leader_name file) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %a" Directory.pp_error e);
  (* The file's own data pages go marginal (several of them, so at least
     one shows retry effort to the single verify probe). *)
  let victims =
    List.init (File.last_page file) (fun i ->
        match File.page_name file (i + 1) with
        | Ok n -> n.Page.addr
        | Error e -> Alcotest.failf "page_name: %a" File.pp_error e)
  in
  Alcotest.(check bool) "have victims" true (List.length victims >= 3);
  List.iter
    (fun a -> Fault.make_marginal ~rate:0.8 ~growth:1.0 ~degrade_after:1_000 drive a)
    victims;
  match Scavenger.scavenge ~suspect_retries:1 drive with
  | Error msg -> Alcotest.failf "scavenge: %s" msg
  | Ok (fs', report) ->
      Alcotest.(check bool) "rescued at least one marginal page" true
        (report.Scavenger.marginal_relocated >= 1);
      Alcotest.(check bool) "quarantined the old sectors" true
        (List.length (Fs.bad_sector_table fs') >= 1);
      List.iter
        (fun a ->
          if Fs.quarantined fs' a then
            Alcotest.(check bool) "quarantined sector is busy" false
              (Fs.is_free_in_map fs' a))
        victims;
      (* The data survived the move. *)
      let root' =
        match Directory.open_root fs' with
        | Ok r -> r
        | Error e -> Alcotest.failf "root': %a" Directory.pp_error e
      in
      let entry =
        match Directory.lookup root' "Precious.dat" with
        | Ok (Some e) -> e
        | Ok None -> Alcotest.fail "Precious.dat vanished"
        | Error e -> Alcotest.failf "lookup: %a" Directory.pp_error e
      in
      let rec patient_read k =
        if k = 0 then Alcotest.fail "file unreadable after rescue"
        else
          match File.open_leader fs' entry.Directory.entry_file with
          | Error _ -> patient_read (k - 1)
          | Ok f -> (
              match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
              | Ok got -> Bytes.to_string got
              | Error _ -> patient_read (k - 1))
      in
      Alcotest.(check string) "content intact" body (patient_read 5)

(* {2 file traffic under a soft-error soak} *)

let test_fs_traffic_under_soak () =
  let drive = make_drive ~geometry:{ tiny with Geometry.cylinders = 8 } () in
  let fs = Fs.format drive in
  Fault.set_soft_errors drive ~seed:99 ~rate:0.05;
  let soft0 = counter "disk.soft_errors" in
  let exhausted0 = counter "disk.retry_exhausted" in
  let root =
    match Directory.open_root fs with
    | Ok r -> r
    | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  in
  let mk i =
    let name = Printf.sprintf "S%02d.dat" i in
    let body =
      String.init (700 + (137 * i)) (fun j -> Char.chr (32 + (((j * 13) + i) mod 95)))
    in
    let f =
      match File.create fs ~name with
      | Ok f -> f
      | Error e -> Alcotest.failf "create: %a" File.pp_error e
    in
    (match File.write_bytes f ~pos:0 body with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %a" File.pp_error e);
    (match Directory.add root ~name (File.leader_name f) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "add: %a" Directory.pp_error e);
    (name, body)
  in
  let expected = List.init 10 mk in
  List.iter
    (fun (name, body) ->
      match Directory.lookup root name with
      | Ok (Some e) -> (
          match File.open_leader fs e.Directory.entry_file with
          | Ok f -> (
              match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
              | Ok got -> Alcotest.(check string) name body (Bytes.to_string got)
              | Error err -> Alcotest.failf "read %s: %a" name File.pp_error err)
          | Error err -> Alcotest.failf "open %s: %a" name File.pp_error err)
      | Ok None -> Alcotest.failf "%s not catalogued" name
      | Error e -> Alcotest.failf "lookup: %a" Directory.pp_error e)
    expected;
  Alcotest.(check bool) "the soak actually exercised the ladder" true
    (counter "disk.soft_errors" > soft0);
  Alcotest.(check int) "no ladder ran dry" exhausted0
    (counter "disk.retry_exhausted")

let () =
  Alcotest.run "alto reliable"
    [
      ( "ladder",
        [
          ("transient recovery", `Quick, test_transient_recovery);
          ("writes never transient", `Quick, test_writes_never_transient);
          ("hard errors not retried", `Quick, test_hard_errors_not_retried);
          ("retry exhaustion", `Quick, test_retry_exhaustion);
        ] );
      ("determinism", [ ("seeded faults replay", `Quick, test_determinism) ]);
      ("marginal", [ ("degrades to bad", `Quick, test_marginal_degrades) ]);
      ( "quarantine",
        [
          ("allocator skips quarantined", `Quick, test_quarantine_blocks_allocation);
          ("table survives remount", `Quick, test_bad_table_survives_remount);
          ("scavenger rescues marginal", `Quick, test_scavenger_rescues_marginal);
        ] );
      ("soak", [ ("fs traffic intact", `Quick, test_fs_traffic_under_soak) ]);
    ]

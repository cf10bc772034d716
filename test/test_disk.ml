(* Disk substrate: geometry, addresses, the controller's check/write
   semantics, and the rotational timing model the experiments rest on. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Fault = Alto_disk.Fault
module Obs = Alto_obs.Obs

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let make_drive ?(geometry = tiny) () = Drive.create ~pack_id:3 geometry

(* {2 geometry} *)

let test_capacity () =
  (* §2: each pack "can store 2.5 megabytes". *)
  let bytes = Geometry.capacity_bytes Geometry.diablo_31 in
  Alcotest.(check bool) "diablo 31 is ~2.5 MB" true
    (bytes > 2_400_000 && bytes < 2_600_000);
  Alcotest.(check int) "diablo 44 doubles it" (2 * bytes)
    (Geometry.capacity_bytes Geometry.diablo_44)

let test_transfer_rate () =
  (* §2: the drive "can transfer 64k words in about one second". One
     track of 12 sectors moves 3072 words per 40 ms revolution. *)
  let g = Geometry.diablo_31 in
  let words_per_rev = g.Geometry.sectors_per_track * Sector.value_words in
  let seconds_for_64k = 65536.0 /. float_of_int words_per_rev *. (float_of_int g.Geometry.rotation_us /. 1e6) in
  Alcotest.(check bool) "64k words in about a second" true
    (seconds_for_64k > 0.7 && seconds_for_64k < 1.3)

let test_geometry_words_roundtrip () =
  List.iter
    (fun g ->
      match Geometry.of_words (Geometry.to_words g) with
      | Ok g' -> Alcotest.(check bool) "roundtrip" true (Geometry.equal g g')
      | Error e -> Alcotest.fail e)
    [ Geometry.diablo_31; Geometry.diablo_44; tiny ]

let test_geometry_validate () =
  let bad = { Geometry.diablo_31 with Geometry.cylinders = 0 } in
  (match Geometry.validate bad with Error _ -> () | Ok () -> Alcotest.fail "accepted 0 cylinders");
  let too_big = { Geometry.diablo_31 with Geometry.cylinders = 10_000 } in
  match Geometry.validate too_big with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted a disk too big for 16-bit addresses"

let gen_geometry =
  QCheck.Gen.(
    map3
      (fun cylinders heads sectors ->
        {
          Geometry.diablo_31 with
          Geometry.model = "random";
          cylinders = 1 + cylinders;
          heads = 1 + heads;
          sectors_per_track = 1 + sectors;
        })
      (int_bound 100) (int_bound 7) (int_bound 23))

let prop_geometry_words_roundtrip =
  QCheck.Test.make ~name:"geometry word encoding roundtrips" ~count:200
    (QCheck.make ~print:(Format.asprintf "%a" Geometry.pp) gen_geometry)
    (fun g ->
      match Geometry.of_words (Geometry.to_words g) with
      | Ok g' -> Geometry.equal g g'
      | Error _ -> false)

let prop_chs_bijective =
  QCheck.Test.make ~name:"address<->chs is a bijection" ~count:100
    (QCheck.make ~print:(Format.asprintf "%a" Geometry.pp) gen_geometry)
    (fun g ->
      let n = Geometry.sector_count g in
      let seen = Hashtbl.create n in
      let ok = ref true in
      for i = 0 to min (n - 1) 499 do
        let a = Disk_address.of_index i in
        let cylinder, head, sector = Disk_address.chs g a in
        if Hashtbl.mem seen (cylinder, head, sector) then ok := false;
        Hashtbl.replace seen (cylinder, head, sector) ();
        if
          not
            (Disk_address.equal a (Disk_address.of_chs g ~cylinder ~head ~sector))
        then ok := false;
        if cylinder >= g.Geometry.cylinders || head >= g.Geometry.heads
           || sector >= g.Geometry.sectors_per_track
        then ok := false
      done;
      !ok)

(* {2 disk addresses} *)

let test_address_chs_roundtrip () =
  let g = tiny in
  for i = 0 to Geometry.sector_count g - 1 do
    let a = Disk_address.of_index i in
    let cylinder, head, sector = Disk_address.chs g a in
    let back = Disk_address.of_chs g ~cylinder ~head ~sector in
    Alcotest.(check bool) "chs roundtrip" true (Disk_address.equal a back)
  done

let test_address_nil () =
  Alcotest.(check bool) "nil is nil" true (Disk_address.is_nil Disk_address.nil);
  let w = Disk_address.to_word Disk_address.nil in
  Alcotest.(check bool) "nil word roundtrip" true
    (Disk_address.is_nil (Disk_address.of_word w));
  Alcotest.check_raises "to_index nil" (Invalid_argument "Disk_address.to_index: nil address")
    (fun () -> ignore (Disk_address.to_index Disk_address.nil))

let test_address_offset () =
  let a = Disk_address.of_index 10 in
  Alcotest.(check int) "offset" 15 (Disk_address.to_index (Disk_address.offset a 5));
  Alcotest.(check int) "negative offset" 5 (Disk_address.to_index (Disk_address.offset a (-5)))

(* {2 transfer semantics} *)

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

let test_header_formatted () =
  let drive = make_drive () in
  let header = Array.make Sector.header_words Word.zero in
  (match
     Drive.run drive (addr 5)
       { Drive.op_none with header = Some Drive.Read }
       ~header ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read: %a" Drive.pp_error e);
  Alcotest.(check int) "pack id" 3 (Word.to_int header.(0));
  Alcotest.(check int) "own address" 5 (Word.to_int header.(1))

let test_write_then_read () =
  let drive = make_drive () in
  let label = Array.init Sector.label_words (fun i -> Word.of_int (i + 1)) in
  let value = Array.init Sector.value_words (fun i -> Word.of_int (i * 3)) in
  write_sector drive (addr 2) ~label ~value;
  let lb = label_buf () and vb = value_buf () in
  (match
     Drive.run drive (addr 2)
       { Drive.op_none with label = Some Drive.Read; value = Some Drive.Read }
       ~label:lb ~value:vb ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read: %a" Drive.pp_error e);
  Alcotest.(check bool) "label back" true (lb = label);
  Alcotest.(check bool) "value back" true (vb = value)

let test_check_wildcard_pattern_match () =
  let drive = make_drive () in
  let label = Array.init Sector.label_words (fun i -> Word.of_int (10 + i)) in
  write_sector drive (addr 1) ~label ~value:(value_buf ());
  (* Pattern: assert words 0 and 2, wildcard the rest. *)
  let pattern = label_buf () in
  pattern.(0) <- Word.of_int 10;
  pattern.(2) <- Word.of_int 12;
  (match
     Drive.run drive (addr 1)
       { Drive.op_none with label = Some Drive.Check }
       ~label:pattern ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check: %a" Drive.pp_error e);
  (* §3.3: "If a memory word is 0, however, it is replaced by the
     corresponding disk word" — the wildcards now hold the label. *)
  Alcotest.(check bool) "wildcards filled" true (pattern = label)

let test_check_mismatch_aborts () =
  let drive = make_drive () in
  let label = Array.init Sector.label_words (fun i -> Word.of_int (10 + i)) in
  write_sector drive (addr 1) ~label ~value:(value_buf ());
  let pattern = label_buf () in
  pattern.(3) <- Word.of_int 999;
  let vb = Array.make Sector.value_words (Word.of_int 0xAAAA) in
  (match
     Drive.run drive (addr 1)
       { Drive.op_none with label = Some Drive.Check; value = Some Drive.Write }
       ~label:pattern ~value:vb ()
   with
  | Error (Drive.Check_mismatch { part = Sector.Label; offset = 3; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Drive.pp_error e
  | Ok () -> Alcotest.fail "check should have failed");
  (* The aborted write never touched the value. *)
  let back = value_buf () in
  (match
     Drive.run drive (addr 1)
       { Drive.op_none with value = Some Drive.Read }
       ~value:back ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read: %a" Drive.pp_error e);
  Alcotest.(check int) "value untouched" 0 (Word.to_int back.(0))

let test_write_continuation_rule () =
  let drive = make_drive () in
  let expect_invalid op ~header ~label ~value =
    match Drive.run drive (addr 0) op ?header ?label ?value () with
    | exception Invalid_argument _ -> ()
    | Ok () | Error _ -> Alcotest.fail "op violating write continuation accepted"
  in
  (* label write without value write *)
  expect_invalid
    { Drive.op_none with label = Some Drive.Write }
    ~header:None ~label:(Some (label_buf ())) ~value:None;
  (* header write without the rest *)
  expect_invalid
    { Drive.op_none with header = Some Drive.Write; value = Some Drive.Write }
    ~header:(Some (Array.make Sector.header_words Word.zero))
    ~label:None ~value:(Some (value_buf ()))

let test_buffer_validation () =
  let drive = make_drive () in
  (match
     Drive.run drive (addr 0) { Drive.op_none with label = Some Drive.Read } ()
   with
  | exception Invalid_argument _ -> ()
  | Ok () | Error _ -> Alcotest.fail "missing buffer accepted");
  match
    Drive.run drive (addr 0)
      { Drive.op_none with label = Some Drive.Read }
      ~label:(Array.make 3 Word.zero) ()
  with
  | exception Invalid_argument _ -> ()
  | Ok () | Error _ -> Alcotest.fail "short buffer accepted"

let test_bad_sector () =
  let drive = make_drive () in
  Drive.set_bad drive (addr 4) true;
  match
    Drive.run drive (addr 4)
      { Drive.op_none with label = Some Drive.Read }
      ~label:(label_buf ()) ()
  with
  | Error Drive.Bad_sector -> ()
  | Ok () | Error _ -> Alcotest.fail "bad sector readable"

(* The drive's books are the registry's [disk.*] counters. *)
let counter name = Obs.counter_value (Obs.counter name)

let test_stats_accumulate () =
  let drive = make_drive () in
  Obs.reset ();
  write_sector drive (addr 0) ~label:(label_buf ()) ~value:(value_buf ());
  let lb = label_buf () in
  ignore (Drive.run drive (addr 0) { Drive.op_none with label = Some Drive.Read } ~label:lb ());
  Alcotest.(check int) "operations" 2 (counter "disk.operations");
  Alcotest.(check int) "words written" (Sector.label_words + Sector.value_words)
    (counter "disk.words_written");
  Alcotest.(check int) "words read" Sector.label_words (counter "disk.words_read")

(* {2 timing model} *)

let elapsed drive f =
  let t0 = Sim_clock.now_us (Drive.clock drive) in
  f ();
  Sim_clock.now_us (Drive.clock drive) - t0

let read_value drive a =
  match
    Drive.run drive a { Drive.op_none with value = Some Drive.Read } ~value:(value_buf ()) ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read: %a" Drive.pp_error e

let test_consecutive_sectors_stream () =
  (* Reading the 12 sectors of one track in order must take about one
     revolution: no rotational wait between consecutive sectors. *)
  let drive = make_drive () in
  read_value drive (addr 0);
  let t =
    elapsed drive (fun () ->
        for i = 1 to 11 do
          read_value drive (addr i)
        done)
  in
  Alcotest.(check int) "11 sectors, zero wait"
    (11 * Geometry.sector_time_us tiny)
    t

let test_same_sector_costs_a_revolution () =
  (* §3.3: re-touching the sector just passed costs a full turn — the
     price of allocate/free. *)
  let drive = make_drive () in
  read_value drive (addr 0);
  let t = elapsed drive (fun () -> read_value drive (addr 0)) in
  Alcotest.(check int) "one revolution" tiny.Geometry.rotation_us t

let test_seek_charged_once () =
  let drive = make_drive () in
  read_value drive (addr 0);
  Obs.reset ();
  (* Sector on the last cylinder: exactly one seek. *)
  let far = Geometry.sector_count tiny - 1 in
  read_value drive (addr far);
  Alcotest.(check int) "one seek" 1 (counter "disk.seeks");
  let expected =
    Geometry.seek_time_us tiny ~from_cylinder:0 ~to_cylinder:(tiny.Geometry.cylinders - 1)
  in
  Alcotest.(check int) "seek time" expected (counter "disk.seek_us");
  (* Same cylinder again: no more seeks. *)
  read_value drive (addr (far - 1));
  Alcotest.(check int) "still one seek" 1 (counter "disk.seeks")

(* {2 fault injection} *)

let test_fault_corrupt_and_decay () =
  let rng = Alto_machine.Splitmix.of_seed 42 in
  let drive = make_drive () in
  let good = Array.init Sector.label_words (fun i -> Word.of_int (i + 1)) in
  write_sector drive (addr 1) ~label:good ~value:(value_buf ());
  Fault.corrupt_part rng drive (addr 1) Sector.Label;
  let now = (Drive.peek drive (addr 1)).Sector.label in
  Alcotest.(check bool) "label changed" false (now = good);
  let victims = Fault.decay rng drive ~fraction:0.5 in
  let n = List.length victims in
  let total = Drive.sector_count drive in
  Alcotest.(check bool) "roughly half decayed" true (n > total / 4 && n < 3 * total / 4)

let test_fault_flip_word () =
  let rng = Alto_machine.Splitmix.of_seed 7 in
  let drive = make_drive () in
  let value = Array.make Sector.value_words (Word.of_int 0x5555) in
  write_sector drive (addr 2) ~label:(label_buf ()) ~value;
  Fault.flip_word rng drive (addr 2) Sector.Value;
  let after = (Drive.peek drive (addr 2)).Sector.value in
  let diffs = ref 0 in
  Array.iteri (fun i w -> if not (Word.equal w value.(i)) then incr diffs) after;
  Alcotest.(check int) "exactly one word differs" 1 !diffs

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto_disk"
    [
      ( "geometry",
        [
          ("capacity", `Quick, test_capacity);
          ("transfer rate", `Quick, test_transfer_rate);
          ("word encoding roundtrip", `Quick, test_geometry_words_roundtrip);
          ("validation", `Quick, test_geometry_validate);
        ] );
      ( "address",
        [
          ("chs roundtrip", `Quick, test_address_chs_roundtrip);
          ("nil", `Quick, test_address_nil);
          ("offset arithmetic", `Quick, test_address_offset);
          property prop_geometry_words_roundtrip;
          property prop_chs_bijective;
        ] );
      ( "transfer",
        [
          ("header formatted", `Quick, test_header_formatted);
          ("write then read", `Quick, test_write_then_read);
          ("check is a pattern match", `Quick, test_check_wildcard_pattern_match);
          ("check mismatch aborts", `Quick, test_check_mismatch_aborts);
          ("write continuation rule", `Quick, test_write_continuation_rule);
          ("buffer validation", `Quick, test_buffer_validation);
          ("bad sector", `Quick, test_bad_sector);
          ("stats", `Quick, test_stats_accumulate);
        ] );
      ( "timing",
        [
          ("consecutive sectors stream", `Quick, test_consecutive_sectors_stream);
          ("same sector costs a revolution", `Quick, test_same_sector_costs_a_revolution);
          ("seek charged once", `Quick, test_seek_charged_once);
        ] );
      ( "faults",
        [
          ("corrupt and decay", `Quick, test_fault_corrupt_and_decay);
          ("flip word", `Quick, test_fault_flip_word);
        ] );
    ]

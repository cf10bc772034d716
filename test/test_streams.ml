(* Streams: the abstract object, memory streams, buffered disk streams,
   keyboard type-ahead and the display. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Zone = Alto_zones.Zone
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Stream = Alto_streams.Stream
module Memory_stream = Alto_streams.Memory_stream
module Disk_stream = Alto_streams.Disk_stream
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display

let small_geometry = { Geometry.diablo_31 with Geometry.model = "test"; cylinders = 20 }

let fresh_file () =
  let drive = Drive.create ~pack_id:7 small_geometry in
  let fs = Fs.format drive in
  match File.create fs ~name:"Stream.test" with
  | Ok f -> (fs, f)
  | Error e -> Alcotest.failf "create: %a" File.pp_error e

(* {2 the abstract object} *)

let test_missing_operations_raise () =
  let s = Stream.make "hollow" in
  (match s.Stream.get () with
  | exception Stream.Not_supported { operation = "get"; _ } -> ()
  | _ -> Alcotest.fail "get should be unsupported");
  (match s.Stream.put 0 with
  | exception Stream.Not_supported { operation = "put"; _ } -> ()
  | _ -> Alcotest.fail "put should be unsupported");
  (* reset/close default to harmless no-ops. *)
  s.Stream.reset ();
  s.Stream.close ();
  Alcotest.(check bool) "at_end defaults false" false (s.Stream.at_end ())

let test_user_replaces_operations () =
  (* The open-system move: take a standard stream and substitute one
     operation — here an upper-casing put on a buffer stream. *)
  let base, contents = Memory_stream.buffer () in
  let shouting =
    { base with Stream.put = (fun c -> base.Stream.put (Char.code (Char.uppercase_ascii (Char.chr c)))) }
  in
  Stream.put_string shouting "quietly";
  Alcotest.(check string) "operation substituted" "QUIETLY" (contents ())

let test_helpers () =
  let s = Memory_stream.of_string "one\ntwo\nthree" in
  Alcotest.(check (option string)) "line 1" (Some "one") (Stream.get_line s);
  Alcotest.(check (option string)) "line 2" (Some "two") (Stream.get_line s);
  Alcotest.(check (option string)) "line 3" (Some "three") (Stream.get_line s);
  Alcotest.(check (option string)) "eof" None (Stream.get_line s);
  s.Stream.reset ();
  Alcotest.(check string) "get_all" "one\ntwo\nthree" (Stream.get_all s);
  s.Stream.reset ();
  Alcotest.(check string) "get_string" "one\nt" (Stream.get_string s 5)

let test_copy () =
  let src = Memory_stream.of_string "pump me" in
  let dst, contents = Memory_stream.buffer () in
  let n = Stream.copy ~src ~dst in
  Alcotest.(check int) "count" 7 n;
  Alcotest.(check string) "copied" "pump me" (contents ())

(* {2 memory region streams} *)

let test_region_stream () =
  let memory = Memory.create () in
  let s = Memory_stream.on_region memory ~pos:100 ~len:4 in
  s.Stream.put 11;
  s.Stream.put 22;
  Alcotest.(check int) "written through" 22 (Word.to_int (Memory.read memory 101));
  ignore (s.Stream.control "set-position" 0);
  Alcotest.(check (option int)) "read back" (Some 11) (s.Stream.get ());
  ignore (s.Stream.control "set-position" 4);
  Alcotest.(check bool) "at end" true (s.Stream.at_end ());
  Alcotest.(check (option int)) "get past end" None (s.Stream.get ());
  match s.Stream.put 1 with
  | exception Stream.Closed _ -> ()
  | () -> Alcotest.fail "put past end must fail"

(* {2 disk streams} *)

let test_disk_stream_write_read () =
  let _fs, file = fresh_file () in
  let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
  Stream.put_string s "alpha beta gamma";
  ignore (s.Stream.control "flush" 0);
  Alcotest.(check int) "length" 16 (s.Stream.control "length" 0);
  ignore (s.Stream.control "set-position" 6);
  Alcotest.(check string) "mid read" "beta" (Stream.get_string s 4);
  s.Stream.close ();
  Alcotest.(check int) "persisted" 16 (File.byte_length file)

let test_disk_stream_spans_pages () =
  let _fs, file = fresh_file () in
  let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
  let text = String.init 1500 (fun i -> Char.chr (65 + (i mod 26))) in
  Stream.put_string s text;
  s.Stream.reset ();
  Alcotest.(check string) "round trip across pages" text (Stream.get_all s);
  s.Stream.close ();
  Alcotest.(check int) "three pages" 3 (File.last_page file)

let test_disk_stream_overwrite () =
  let _fs, file = fresh_file () in
  let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
  Stream.put_string s (String.make 600 'x');
  ignore (s.Stream.control "set-position" 510);
  Stream.put_string s "BRIDGE";
  s.Stream.reset ();
  let all = Stream.get_all s in
  Alcotest.(check string) "straddles the page boundary" "BRIDGE" (String.sub all 510 6);
  Alcotest.(check int) "length unchanged" 600 (String.length all);
  s.Stream.close ()

let test_disk_stream_truncate_control () =
  let _fs, file = fresh_file () in
  let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
  Stream.put_string s (String.make 1000 'y');
  ignore (s.Stream.control "flush" 0);
  ignore (s.Stream.control "truncate" 100);
  Alcotest.(check int) "shorter" 100 (s.Stream.control "length" 0);
  s.Stream.close ();
  Alcotest.(check int) "on disk too" 100 (File.byte_length file)

let test_disk_stream_modes () =
  let _fs, file = fresh_file () in
  let w = Disk_stream.open_file ~mode:Disk_stream.Write_only file in
  (match w.Stream.get () with
  | exception Stream.Not_supported _ -> ()
  | _ -> Alcotest.fail "write-only stream must not read");
  Stream.put_string w "data";
  w.Stream.close ();
  let r = Disk_stream.open_file ~mode:Disk_stream.Read_only file in
  (match r.Stream.put 0 with
  | exception Stream.Not_supported _ -> ()
  | _ -> Alcotest.fail "read-only stream must not write");
  Alcotest.(check string) "reads" "data" (Stream.get_all r);
  r.Stream.close ()

(* A reader leaves a clean pack as it found it: reading a file to the
   end and closing the stream writes nothing, not even a write-ahead
   map record. A writer still persists the length it left. *)
let test_disk_stream_reader_writes_nothing () =
  let fs, file = fresh_file () in
  let w = Disk_stream.open_file ~mode:Disk_stream.Write_only file in
  Stream.put_string w (String.make 1200 'r');
  w.Stream.close ();
  Alcotest.(check int) "the writer persisted its length" 1200
    (match File.open_leader fs (File.leader_name file) with
    | Ok f -> File.byte_length f
    | Error e -> Alcotest.failf "reopen: %a" File.pp_error e);
  (match Fs.mark_clean fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark_clean: %a" Fs.pp_error e);
  let drive = Fs.drive fs in
  let writes = Drive.write_ops drive in
  let r = Disk_stream.open_file ~mode:Disk_stream.Read_only file in
  Alcotest.(check int) "read to the end" 1200 (String.length (Stream.get_all r));
  r.Stream.close ();
  Alcotest.(check int) "no write reached the drive" writes (Drive.write_ops drive);
  Alcotest.(check bool) "the pack is still clean" false (Fs.dirty fs)

let test_disk_stream_closed () =
  let _fs, file = fresh_file () in
  let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
  s.Stream.close ();
  s.Stream.close () (* idempotent *);
  match s.Stream.get () with
  | exception Stream.Closed _ -> ()
  | _ -> Alcotest.fail "closed stream must not read"

let test_disk_stream_zone_workspace () =
  (* The page buffer lives in a zone in the simulated memory; closing
     releases it. *)
  let _fs, file = fresh_file () in
  let memory = Memory.create () in
  let zone = Zone.format memory ~pos:2000 ~len:600 in
  let s =
    Disk_stream.open_file ~workspace:(memory, Zone.obj zone)
      ~mode:Disk_stream.Read_write file
  in
  Alcotest.(check int) "buffer allocated" 1 (Zone.stats zone).Zone.live_blocks;
  Stream.put_string s "through simulated memory";
  s.Stream.reset ();
  Alcotest.(check string) "works" "through simulated memory" (Stream.get_all s);
  s.Stream.close ();
  Alcotest.(check int) "buffer released" 0 (Zone.stats zone).Zone.live_blocks

(* Property: random stream traffic against a byte-buffer model. *)
let prop_disk_stream_matches_model =
  QCheck.Test.make ~name:"random disk-stream ops match a buffer model" ~count:25
    QCheck.(list_of_size Gen.(1 -- 80) (pair (int_bound 3) (int_bound 1500)))
    (fun ops ->
      let _fs, file = fresh_file () in
      let s = Disk_stream.open_file ~mode:Disk_stream.Read_write file in
      let model = Buffer.create 256 in
      let pos = ref 0 in
      let ok = ref true in
      List.iteri
        (fun step (op, arg) ->
          if !ok then
            match op with
            | 0 ->
                (* put one byte at the shared position *)
                let b = 32 + (step mod 90) in
                if !pos <= Buffer.length model then begin
                  s.Stream.put b;
                  let text = Buffer.contents model in
                  let text =
                    if !pos < String.length text then
                      String.mapi (fun i c -> if i = !pos then Char.chr b else c) text
                    else text ^ String.make 1 (Char.chr b)
                  in
                  Buffer.clear model;
                  Buffer.add_string model text;
                  incr pos
                end
            | 1 -> (
                (* get one byte *)
                match s.Stream.get () with
                | Some b ->
                    if
                      !pos >= Buffer.length model
                      || Char.code (Buffer.nth model !pos) <> b
                    then ok := false
                    else incr pos
                | None -> if !pos < Buffer.length model then ok := false)
            | 2 ->
                (* seek somewhere valid *)
                let target = if Buffer.length model = 0 then 0 else arg mod (Buffer.length model + 1) in
                ignore (s.Stream.control "set-position" target);
                pos := target
            | _ ->
                (* length must agree *)
                if s.Stream.control "length" 0 <> Buffer.length model then ok := false)
        ops;
      (* Close, reopen read-only, compare everything. *)
      s.Stream.close ();
      let r = Disk_stream.open_file ~mode:Disk_stream.Read_only file in
      let everything = Stream.get_all r in
      r.Stream.close ();
      !ok && String.equal everything (Buffer.contents model))

(* {2 keyboard and display} *)

let test_keyboard_type_ahead () =
  let kb = Keyboard.create () in
  Keyboard.feed kb "first";
  let s1 = Keyboard.stream kb in
  Alcotest.(check string) "consume some" "fir" (Stream.get_string s1 3);
  (* A different consumer (the next program) sees the rest: the buffer
     outlives any one stream. *)
  let s2 = Keyboard.stream kb in
  Alcotest.(check string) "type-ahead survives" "st" (Stream.get_string s2 5);
  Alcotest.(check bool) "dry" true (s2.Stream.at_end ());
  Keyboard.feed kb "more";
  Alcotest.(check int) "pending" 4 (s2.Stream.control "pending" 0)

let test_display () =
  let d = Display.create ~columns:10 () in
  let s = Display.stream d in
  Stream.put_line s "hello";
  Stream.put_string s "a very long line wraps";
  Alcotest.(check int) "wrapped" 4 (List.length (Display.lines d));
  Alcotest.(check string) "first line" "hello" (List.hd (Display.lines d));
  s.Stream.put (Char.code '\012');
  Alcotest.(check string) "form feed clears" "" (Display.contents d)

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto_streams"
    [
      ( "object",
        [
          ("missing operations raise", `Quick, test_missing_operations_raise);
          ("user replaces operations", `Quick, test_user_replaces_operations);
          ("helpers", `Quick, test_helpers);
          ("copy", `Quick, test_copy);
        ] );
      ("memory", [ ("region stream", `Quick, test_region_stream) ]);
      ( "disk",
        [
          ("write/read", `Quick, test_disk_stream_write_read);
          ("spans pages", `Quick, test_disk_stream_spans_pages);
          ("overwrite", `Quick, test_disk_stream_overwrite);
          ("truncate control", `Quick, test_disk_stream_truncate_control);
          ("modes", `Quick, test_disk_stream_modes);
          ("a reader writes nothing", `Quick, test_disk_stream_reader_writes_nothing);
          ("closed", `Quick, test_disk_stream_closed);
          ("zone workspace", `Quick, test_disk_stream_zone_workspace);
          property prop_disk_stream_matches_model;
        ] );
      ( "devices",
        [
          ("keyboard type-ahead", `Quick, test_keyboard_type_ahead);
          ("display", `Quick, test_display);
        ] );
    ]

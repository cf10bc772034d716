module Word = Alto_machine.Word
module Cpu = Alto_machine.Cpu
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Disk_address = Alto_disk.Disk_address
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Page = Alto_fs.Page

type error =
  | No_boot_record
  | Boot_file_missing of Page.full_name
  | World_error of World.error

let pp_error fmt = function
  | No_boot_record -> Format.pp_print_string fmt "no boot record at sector 0"
  | Boot_file_missing fn ->
      Format.fprintf fmt "boot record points at %a but the file is not there"
        Page.pp_full_name fn
  | World_error e -> World.pp_error fmt e

(* The boot record's value: magic, then the boot world's full name. *)
let record_magic = 0xB007

let install fs file =
  let fn = File.leader_name file in
  let value = Array.make Sector.value_words Word.zero in
  value.(0) <- Word.of_int record_magic;
  let w0, w1, v = File_id.to_words fn.Page.abs.Page.fid in
  value.(1) <- w0;
  value.(2) <- w1;
  value.(3) <- v;
  value.(4) <- Disk_address.to_word fn.Page.addr;
  (* Sector 0 carries its own label so the sweep sees it as live. *)
  let label =
    Alto_fs.Label.make
      ~fid:(File_id.make ~serial:3 ~version:1 ())
      ~page:0 ~length:10 ~next:Disk_address.nil ~prev:Disk_address.nil
  in
  match
    Reliable.run (Fs.drive fs) Fs.boot_address
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:(Alto_fs.Label.to_words label) ~value ()
  with
  | Ok () -> Ok ()
  | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
      Error No_boot_record

let boot_file fs =
  let value = Array.make Sector.value_words Word.zero in
  match
    Reliable.run (Fs.drive fs) Fs.boot_address
      { Drive.op_none with value = Some Drive.Read }
      ~value ()
  with
  | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
      Error No_boot_record
  | Ok () ->
      if Word.to_int value.(0) <> record_magic then Error No_boot_record
      else (
        match File_id.of_words value.(1) value.(2) value.(3) with
        | Error _ -> Error No_boot_record
        | Ok fid ->
            Ok (Page.full_name fid ~page:0 ~addr:(Disk_address.of_word value.(4))))

let boot fs cpu =
  (* A pack that mounts dirty crashed: recover it as every boot does
     (flight record first, then the write-ahead map or, where that
     cannot serve, a whole-pack scavenge) before trusting the volume
     with a world. *)
  let fs, (_ : Alto_fs.Recovery.outcome) = Alto_fs.Recovery.recover fs in
  match boot_file fs with
  | Error e -> Error e
  | Ok fn -> (
      match File.open_leader fs fn with
      | Error _ -> Error (Boot_file_missing fn)
      | Ok file -> (
          match World.in_load cpu file ~message:[||] with
          | Ok () -> Ok ()
          | Error e -> Error (World_error e)))

module Word = Alto_machine.Word
module Cpu = Alto_machine.Cpu
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Install = Alto_fs.Install
module Directory = Alto_fs.Directory

type error = World_error of World.error | Catalogue of Install.error

let pp_error fmt = function
  | World_error e -> World.pp_error fmt e
  | Catalogue e -> Install.pp_error fmt e

let ( let* ) = Result.bind
let world r = Result.map_error (fun e -> World_error e) r
let catalogue r = Result.map_error (fun e -> Catalogue e) r

let state_file fs ~directory ~name =
  let* existing = catalogue (Result.map_error (fun e -> Install.Dir_error e) (Directory.lookup directory name)) in
  let* file =
    match existing with
    | Some e ->
        catalogue
          (Result.map_error (fun e -> Install.File_error e)
             (File.open_leader fs e.Directory.entry_file))
    | None ->
        let* file =
          catalogue
            (Result.map_error (fun e -> Install.File_error e) (File.create fs ~name))
        in
        let* () =
          catalogue
            (Result.map_error (fun e -> Install.Dir_error e)
               (Directory.add directory ~name (File.leader_name file)))
        in
        Ok file
  in
  (* Pre-size so swaps never pay the per-page extension cost. *)
  let wanted = 2 * World.state_file_words in
  if File.byte_length file >= wanted then Ok file
  else
    let pad = String.make (wanted - File.byte_length file) '\000' in
    let* () =
      catalogue
        (Result.map_error (fun e -> Install.File_error e)
           (File.write_bytes file ~pos:(File.byte_length file) pad))
    in
    Ok file

let save cpu file = world (World.out_load cpu file)


let transfer cpu ~save_to ~restore_from ~message =
  let* () = world (World.out_load cpu save_to) in
  world (World.in_load cpu restore_from ~message)

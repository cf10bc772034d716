module Word = Alto_machine.Word
module Disk_address = Alto_disk.Disk_address

type t = {
  dir : File.t;
  journal : File.t;
  snapshot : File.t;
}

type error =
  | Dir_error of Directory.error
  | File_error of File.error
  | Journal_corrupt of string

let pp_error fmt = function
  | Dir_error e -> Directory.pp_error fmt e
  | File_error e -> File.pp_error fmt e
  | Journal_corrupt msg -> Format.fprintf fmt "journal corrupt: %s" msg

let ( let* ) = Result.bind
let dir_err r = Result.map_error (fun e -> Dir_error e) r
let file_err r = Result.map_error (fun e -> File_error e) r

let journal_name name = name ^ ";journal"
let snapshot_name name = name ^ ";snapshot"

(* {2 Journal records}

   One record per mutation, in words:
     0        operation: 1 = add, 2 = remove
     1        name length in bytes
     2..      packed name
     then     file id (3 words) and leader address (1 word); zeros for
              remove. *)

let op_add = 1
let op_remove = 2

let encode_record ~op ~name fn =
  let name_words = Word.words_of_string name in
  let fid_words =
    match fn with
    | Some (fn : Page.full_name) ->
        let w0, w1, v = File_id.to_words fn.Page.abs.Page.fid in
        [| w0; w1; v; Disk_address.to_word fn.Page.addr |]
    | None -> Array.make 4 Word.zero
  in
  Array.concat
    [
      [| Word.of_int_exn op; Word.of_int_exn (String.length name) |];
      name_words;
      fid_words;
    ]

let decode_records words =
  let total = Array.length words in
  let rec go acc pos =
    if pos >= total then Ok (List.rev acc)
    else if pos + 2 > total then Error (Journal_corrupt "truncated record header")
    else
      let op = Word.to_int words.(pos) in
      let name_len = Word.to_int words.(pos + 1) in
      let name_words = (name_len + 1) / 2 in
      let record_end = pos + 2 + name_words + 4 in
      if name_len > Directory.max_name_length then
        Error (Journal_corrupt "absurd name length")
      else if record_end > total then Error (Journal_corrupt "truncated record")
      else
        let name =
          Word.string_of_words (Array.sub words (pos + 2) name_words) ~len:name_len
        in
        if op = op_add then
          match
            File_id.of_words
              words.(pos + 2 + name_words)
              words.(pos + 2 + name_words + 1)
              words.(pos + 2 + name_words + 2)
          with
          | Error msg -> Error (Journal_corrupt msg)
          | Ok fid ->
              let addr = Disk_address.of_word words.(pos + 2 + name_words + 3) in
              go ((`Add (name, Page.full_name fid ~page:0 ~addr)) :: acc) record_end
        else if op = op_remove then go (`Remove name :: acc) record_end
        else Error (Journal_corrupt (Printf.sprintf "unknown operation %d" op))
  in
  go [] 0

let append_record t record =
  let pos = File.byte_length t.journal / 2 in
  file_err (File.write_words t.journal ~pos record)

(* {2 Construction} *)

let catalogued fs parent name ~directory =
  let* file =
    file_err
      (if directory then File.create_directory_file fs ~name else File.create fs ~name)
  in
  let* () = dir_err (Directory.add parent ~name (File.leader_name file)) in
  Ok file

let create fs ~parent ~name =
  let* dir = catalogued fs parent name ~directory:true in
  let* journal = catalogued fs parent (journal_name name) ~directory:false in
  let* snapshot = catalogued fs parent (snapshot_name name) ~directory:false in
  Ok { dir; journal; snapshot }

let open_one fs parent name =
  let* entry = dir_err (Directory.lookup parent name) in
  match entry with
  | None -> Error (Dir_error (Directory.Malformed (Printf.sprintf "no file %S" name)))
  | Some e -> file_err (File.open_leader fs e.Directory.entry_file)

let open_existing fs ~parent ~name =
  let* dir = open_one fs parent name in
  let* journal = open_one fs parent (journal_name name) in
  let* snapshot = open_one fs parent (snapshot_name name) in
  Ok { dir; journal; snapshot }

let directory t = t.dir

(* {2 Journaled mutations: log first, then apply} *)

let add t ~name fn =
  let* () = append_record t (encode_record ~op:op_add ~name (Some fn)) in
  dir_err (Directory.add t.dir ~name fn)

let remove t name =
  let* () = append_record t (encode_record ~op:op_remove ~name None) in
  dir_err (Directory.remove t.dir name)

let lookup t name = dir_err (Directory.lookup t.dir name)

type recovery = { entries_restored : int; records_replayed : int }

(* {2 Snapshot and recovery} *)

let take_snapshot t =
  let len = File.byte_length t.dir in
  let* bytes = file_err (File.read_bytes t.dir ~pos:0 ~len) in
  let* () = file_err (File.replace t.snapshot (Bytes.to_string bytes)) in
  let* () = file_err (File.truncate t.journal ~len:0) in
  file_err (File.flush_leader t.journal)

let read_journal t =
  let total = File.byte_length t.journal / 2 in
  let* words = file_err (File.read_words t.journal ~pos:0 ~len:total) in
  decode_records words

let journal_records t =
  let* records = read_journal t in
  Ok (List.length records)

let recover t =
  (* The snapshot holds directory-format bytes, so the standard scanner
     reads it directly. *)
  let* base =
    match Directory.entries t.snapshot with
    | Ok entries -> Ok entries
    | Error e -> Error (Dir_error e)
  in
  let* records = read_journal t in
  let apply entries = function
    | `Add (name, fn) ->
        (* Replace any stale same-name entry, as Directory.add would have
           refused a duplicate at logging time. *)
        { Directory.entry_name = name; entry_file = fn }
        :: List.filter (fun (e : Directory.entry) -> not (String.equal e.Directory.entry_name name)) entries
    | `Remove name ->
        List.filter
          (fun (e : Directory.entry) -> not (String.equal e.Directory.entry_name name))
          entries
  in
  let final = List.rev (List.fold_left apply (List.rev base) records) in
  let* () = dir_err (Directory.rewrite t.dir final) in
  Ok { entries_restored = List.length final; records_replayed = List.length records }

module Word = Alto_machine.Word
module Disk_address = Alto_disk.Disk_address

type entry = { entry_name : string; entry_file : Page.full_name }

type error =
  | File_error of File.error
  | Malformed of string
  | Name_too_long of string

let pp_error fmt = function
  | File_error e -> File.pp_error fmt e
  | Malformed msg -> Format.fprintf fmt "directory malformed: %s" msg
  | Name_too_long name -> Format.fprintf fmt "name too long: %S" name

let max_name_length = Leader.max_name_length

let header_words = 6
let live_flag = 0x100

let entry_words name = header_words + ((String.length name + 1) / 2)

let wrap r = Result.map_error (fun e -> File_error e) r

let check_name name =
  if String.length name = 0 then Error (Malformed "empty name")
  else if String.length name > max_name_length || String.contains name '\000' then
    Error (Name_too_long name)
  else Ok ()

let create fs ~name = wrap (File.create_directory_file fs ~name)

let open_root fs =
  match Fs.root_dir fs with
  | None -> Error (Malformed "this volume has no root directory")
  | Some fn -> wrap (File.open_leader fs fn)

let encode_entry name (fn : Page.full_name) =
  let n = entry_words name in
  let words = Array.make n Word.zero in
  words.(0) <- Word.of_int_exn ((live_flag lor n) land 0xffff);
  let w0, w1, v = File_id.to_words fn.Page.abs.Page.fid in
  words.(1) <- w0;
  words.(2) <- w1;
  words.(3) <- v;
  words.(4) <- Disk_address.to_word fn.Page.addr;
  words.(5) <- Word.of_int_exn (String.length name);
  Array.blit (Word.words_of_string name) 0 words header_words
    ((String.length name + 1) / 2);
  words

(* {2 Scanning in place}

   A scan walks the slots over the page values as read, never copying
   the directory: word [i] lies at [pages.(i / 256).(i mod 256)], 256
   being [Sector.value_words]. Every live slot is checked (header
   length, file id, name length) wherever the scan goes, so a damaged
   slot anywhere makes the whole directory [Malformed]; names are
   compared where they lie, and an {!entry} is built only for a slot a
   caller asks for. *)

type view = { pages : Word.t array array; total : int }

let view words = Result.map (fun (pages, total) -> { pages; total }) (wrap words)
let read_view dir = view (File.read_word_pages dir)

let word v i = v.pages.(i lsr 8).(i land 0xff)
let int_at v i = (word v i :> int)

let check_live v pos len =
  if len < header_words then Error (Malformed "entry shorter than its header")
  else
    match File_id.check_words (word v (pos + 1)) (word v (pos + 2)) (word v (pos + 3)) with
    | Error msg -> Error (Malformed msg)
    | Ok () ->
        let name_len = int_at v (pos + 5) in
        if name_len > max_name_length || header_words + ((name_len + 1) / 2) > len then
          Error (Malformed "entry name length inconsistent")
        else Ok ()

(* Whether the checked live slot at [pos] holds [name], comparing from
   byte [i] on: two bytes a word, then the high byte of an odd tail. *)
let rec name_from v pos name i =
  let n = String.length name in
  if i + 1 < n then
    int_at v (pos + header_words + (i / 2)) = String.get_uint16_be name i
    && name_from v pos name (i + 2)
  else i >= n || int_at v (pos + header_words + (i / 2)) lsr 8 = Char.code name.[i]

let holds_name v pos name = int_at v (pos + 5) = String.length name && name_from v pos name 0

(* The entry in the checked live slot at [pos]. *)
let entry_at v pos =
  let name_len = int_at v (pos + 5) in
  let fid =
    (* Checked by the scan. *)
    Result.get_ok (File_id.of_words (word v (pos + 1)) (word v (pos + 2)) (word v (pos + 3)))
  in
  {
    entry_name =
      String.init name_len (fun i ->
          let w = int_at v (pos + header_words + (i / 2)) in
          Char.chr (if i land 1 = 0 then w lsr 8 else w land 0xff));
    entry_file = Page.full_name fid ~page:0 ~addr:(Disk_address.of_word (word v (pos + 4)));
  }

(* Fold [f acc ~pos ~len ~live] over every slot in file order. *)
let fold_slots v f init =
  let rec scan acc pos =
    if pos >= v.total then Ok acc
    else
      let w0 = int_at v pos in
      let live = w0 land live_flag <> 0 in
      let len = w0 land 0xff in
      if len = 0 then Error (Malformed "zero-length entry")
      else if pos + len > v.total then Error (Malformed "entry overruns directory")
      else
        match if live then check_live v pos len else Ok () with
        | Error e -> Error e
        | Ok () -> scan (f acc ~pos ~len ~live) (pos + len)
  in
  scan init 0

let live_entries v =
  Result.map List.rev
    (fold_slots v (fun acc ~pos ~len:_ ~live -> if live then entry_at v pos :: acc else acc) [])

let entries dir = Result.bind (read_view dir) live_entries
let entries_of pages = Result.bind (view (File.word_pages_of pages)) live_entries

(* The first live slot holding [name]. The scan still runs to the end,
   so a damaged slot after the match is reported too. *)
let find_slot v name =
  fold_slots v
    (fun found ~pos ~len:_ ~live ->
      match found with
      | Some _ -> found
      | None -> if live && holds_name v pos name then Some pos else None)
    None

let lookup dir name =
  let ( let* ) = Result.bind in
  let* v = read_view dir in
  let* slot = find_slot v name in
  Ok (Option.map (entry_at v) slot)

(* The first free slot of at least [need] words, and whether [name] is
   already present. *)
let plan_add v name need =
  fold_slots v
    (fun ((slot, dup) as acc) ~pos ~len ~live ->
      if live then if (not dup) && holds_name v pos name then (slot, true) else acc
      else if slot = None && len >= need then (Some (pos, len), dup)
      else acc)
    (None, false)

let add dir ~name fn =
  let ( let* ) = Result.bind in
  let* () = check_name name in
  let need = entry_words name in
  let* v = read_view dir in
  let* slot, dup = plan_add v name need in
  if dup then Error (Malformed (Printf.sprintf "duplicate entry %S" name))
  else
    let words = encode_entry name fn in
    match slot with
    | Some (pos, len) ->
        if len > need then begin
          (* Split: the remainder stays a free slot. *)
          let* () =
            wrap
              (File.write_words dir ~pos:(pos + need)
                 [| Word.of_int_exn (len - need) |])
          in
          wrap (File.write_words dir ~pos words)
        end
        else wrap (File.write_words dir ~pos words)
    | None -> wrap (File.write_words dir ~pos:v.total words)

let open_or_create dir ~name =
  let ( let* ) = Result.bind in
  let fs = File.fs dir in
  let* found = lookup dir name in
  match found with
  | Some e -> wrap (File.open_leader fs e.entry_file)
  | None -> (
      let* file = wrap (File.create fs ~name) in
      match add dir ~name (File.leader_name file) with
      | Ok () -> Ok file
      | Error e ->
          (* Uncatalogued, the file would stay allocated until the next
             scavenge. *)
          ignore (File.delete file);
          Error e)

let remove dir name =
  let ( let* ) = Result.bind in
  let* v = read_view dir in
  let* slot = find_slot v name in
  match slot with
  | None -> Ok false
  | Some pos ->
      let len = int_at v pos land 0xff in
      let* () = wrap (File.write_words dir ~pos [| Word.of_int_exn len |]) in
      Ok true

let update_address dir name addr =
  let ( let* ) = Result.bind in
  let* v = read_view dir in
  let* slot = find_slot v name in
  match slot with
  | None -> Ok false
  | Some pos ->
      let* () = wrap (File.write_words dir ~pos:(pos + 4) [| Disk_address.to_word addr |]) in
      Ok true

let salvage_view viewed =
  let found = ref [] in
  let scanned =
    match viewed with
    | Error _ -> false
    | Ok v ->
        Result.is_ok
          (fold_slots v
             (fun () ~pos ~len:_ ~live -> if live then found := entry_at v pos :: !found)
             ())
  in
  (List.rev !found, not scanned)

let salvage_of pages = salvage_view (view (File.word_pages_of pages))

let rewrite dir entries =
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        check_name e.entry_name)
      (Ok ()) entries
  in
  let chunks = List.map (fun e -> encode_entry e.entry_name e.entry_file) entries in
  let words = Array.concat chunks in
  let* () = wrap (File.truncate dir ~len:0) in
  if Array.length words = 0 then Ok () else wrap (File.write_words dir ~pos:0 words)

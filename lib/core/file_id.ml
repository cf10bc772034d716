module Word = Alto_machine.Word

type t = { serial : int; version : int; directory : bool }

let max_serial = (1 lsl 30) - 1

(* Word 0 layout: bit 15 = directory flag, bit 14 = reserved (always 0
   in a valid id — this bit distinguishes valid labels from the all-ones
   free pattern and the bad-page marker), bits 13-0 = serial high part.
   Word 1 = serial low 16 bits. *)
let reserved_bit = 0x4000

let make ?(directory = false) ~serial ~version () =
  if serial < 1 || serial > max_serial then
    invalid_arg (Printf.sprintf "File_id.make: serial %d out of range" serial)
  else if version < 1 || version > 0xfffe then
    invalid_arg (Printf.sprintf "File_id.make: version %d out of range" version)
  else { serial; version; directory }

let descriptor = make ~serial:1 ~version:1 ()
let root_directory = make ~directory:true ~serial:2 ~version:1 ()
let first_user_serial = 16

let is_directory t = t.directory

let next_version t = make ~directory:t.directory ~serial:t.serial ~version:(t.version + 1) ()

let to_words t =
  let w0 = (if t.directory then 0x8000 else 0) lor (t.serial lsr 16) in
  (Word.of_int_exn w0, Word.of_int_exn (t.serial land 0xffff), Word.of_int_exn t.version)

let serial_of w0 w1 = ((Word.to_int w0 land 0x3fff) lsl 16) lor Word.to_int w1

let check_words w0 w1 v =
  let v = Word.to_int v in
  if Word.to_int w0 land reserved_bit <> 0 then Error "file id: reserved bit set"
  else if serial_of w0 w1 < 1 then Error "file id: serial 0"
  else if v < 1 || v > 0xfffe then Error "file id: bad version"
  else Ok ()

let of_words w0 w1 v =
  match check_words w0 w1 v with
  | Error msg -> Error msg
  | Ok () ->
      Ok
        {
          serial = serial_of w0 w1;
          version = Word.to_int v;
          directory = Word.to_int w0 land 0x8000 <> 0;
        }

let equal a b = a.serial = b.serial && a.version = b.version && a.directory = b.directory

let compare a b =
  match Stdlib.compare a.serial b.serial with
  | 0 -> Stdlib.compare (a.version, a.directory) (b.version, b.directory)
  | c -> c

let pp fmt t =
  Format.fprintf fmt "%s%d!%d" (if t.directory then "D" else "F") t.serial t.version

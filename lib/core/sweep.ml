module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address

type sector_class =
  | Live of Label.t
  | Free_sector
  | Marked_bad
  | Bad_media
  | Garbage of string

type value_read = Read_back of int | Unreadable

type t = {
  classes : sector_class array;
  headers_ok : bool array;
  values : value_read array;
}

let classify_sector header label ~pack_id ~index =
  let cls =
    match Label.classify label with
    | Label.Valid l -> Live l
    | Label.Free -> Free_sector
    | Label.Bad -> Marked_bad
    | Label.Garbage msg -> Garbage msg
  in
  let header_ok =
    Word.to_int header.(0) = pack_id
    && Disk_address.equal (Disk_address.of_word header.(1)) (Disk_address.of_index index)
  in
  (cls, header_ok)

let run ?policy ?on_value drive =
  let n = Drive.sector_count drive in
  let pack_id = Drive.pack_id drive in
  let classes = Array.make n Free_sector in
  let headers_ok = Array.make n true in
  let values = Array.make n Unreadable in
  (* One probe buffer per part, shared by every request: the scheduler
     completes each request before it issues the next, so each sector is
     classified (and its value handed on) while the buffers hold it. *)
  let header = Array.make Sector.header_words Word.zero in
  let label = Array.make Sector.label_words Word.zero in
  let value = Array.make Sector.value_words Word.zero in
  let classify i =
    let cls, header_ok = classify_sector header label ~pack_id ~index:i in
    classes.(i) <- cls;
    headers_ok.(i) <- header_ok;
    cls
  in
  (* Everything in one elevator batch, each request through the retry
     ladder, issued cylinder by cylinder from wherever the heads happen
     to be. *)
  let batch indexes op ?value on_done =
    ignore
      (Sched.run_batch ?policy drive
         ~on_done:(fun j outcome -> on_done indexes.(j) outcome)
         (Array.map
            (fun i -> Sched.request ~header ~label ?value (Disk_address.of_index i) op)
            indexes)
        : Sched.outcome array)
  in
  let failed = ref [] in
  batch (Array.init n Fun.id)
    { Drive.header = Some Drive.Read; label = Some Drive.Read; value = Some Drive.Read }
    ~value
    (fun i outcome ->
      match outcome.Sched.result with
      | Ok () -> (
          values.(i) <- Read_back outcome.Sched.retries;
          match (classify i, on_value) with
          | Live l, Some f -> f i l value
          | _ -> ())
      | Error _ -> failed := i :: !failed);
  (* Which part failed is not reported, so a failed combined read says
     nothing about the label: read header and label again on their own,
     after the pass, rather than judging the sector by its data. *)
  batch (Array.of_list (List.rev !failed))
    { Drive.op_none with Drive.header = Some Drive.Read; label = Some Drive.Read }
    (fun i outcome ->
      match outcome.Sched.result with
      | Ok () -> ignore (classify i : sector_class)
      | Error (Drive.Bad_sector | Drive.Transient _) ->
          (* A transient here means retries were exhausted: treat as
             failing media. *)
          classes.(i) <- Bad_media
      | Error (Drive.Check_mismatch _) ->
          (* The sweep performs no checks. *)
          assert false);
  { classes; headers_ok; values }

let pp_class fmt = function
  | Live l -> Format.fprintf fmt "live %a" Label.pp l
  | Free_sector -> Format.pp_print_string fmt "free"
  | Marked_bad -> Format.pp_print_string fmt "marked bad"
  | Bad_media -> Format.pp_print_string fmt "bad media"
  | Garbage msg -> Format.fprintf fmt "garbage (%s)" msg

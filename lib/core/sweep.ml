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

type t = { classes : sector_class array; values : value_read array }

let classify label =
  match Label.classify label with
  | Label.Valid l -> Live l
  | Label.Free -> Free_sector
  | Label.Bad -> Marked_bad
  | Label.Garbage msg -> Garbage msg

(* Everything in one elevator batch, each request through the retry
   ladder, issued cylinder by cylinder from wherever the heads happen to
   be. The requests share [op] and the buffers. [on_done j outcome] fires
   as entry [j] completes, before the next request is issued. *)
let batch ?policy drive sectors op ~label ?value on_done =
  let label = Some label in
  ignore
    (Sched.run_batch ?policy drive ~on_done
       (Array.map (fun i -> Sched.request ?label ?value (Disk_address.of_index i) op) sectors)
      : Sched.outcome array)

let sweep ?policy drive sectors ~on_value =
  let k = Array.length sectors in
  let classes = Array.make k Bad_media in
  let values = Array.make k Unreadable in
  (* One probe buffer per part, shared by every request: the scheduler
     completes each request before it issues the next, so each sector is
     classified (and its value handed on) while the buffers hold it. *)
  let label = Array.make Sector.label_words Word.zero in
  let value = Array.make Sector.value_words Word.zero in
  batch ?policy drive sectors
    { Drive.op_none with Drive.label = Some Drive.Read; value = Some Drive.Read }
    ~label ~value
    (fun j outcome ->
      match outcome.Sched.result with
      | Ok () ->
          let cls = classify label in
          classes.(j) <- cls;
          (* A first-time read shares one verdict. *)
          values.(j) <-
            (match outcome.Sched.retries with 0 -> Read_back 0 | r -> Read_back r);
          on_value j cls label value
      | Error _ -> ());
  { classes; values }

let read ~on_value drive ~start ~k =
  let n = Drive.sector_count drive in
  sweep drive (Array.init k (fun j -> (start + j) mod n)) ~on_value

let run_sectors ?policy ?(on_value = fun _ _ _ _ -> ()) drive sectors =
  let t =
    sweep ?policy drive sectors ~on_value:(fun j cls label value ->
        on_value sectors.(j) cls label value)
  in
  (* Which part failed is not reported, so a failed combined read says
     nothing about the label: read the label again on its own, after
     the pass, rather than judging the sector by its data. *)
  let failed = ref [] in
  for j = Array.length sectors - 1 downto 0 do
    if t.values.(j) = Unreadable then failed := j :: !failed
  done;
  let failed = Array.of_list !failed in
  let label = Array.make Sector.label_words Word.zero in
  batch ?policy drive
    (Array.map (fun j -> sectors.(j)) failed)
    { Drive.op_none with Drive.label = Some Drive.Read }
    ~label
    (fun j outcome ->
      match outcome.Sched.result with
      | Ok () -> t.classes.(failed.(j)) <- classify label
      | Error (Drive.Bad_sector | Drive.Transient _) ->
          (* A transient here means retries were exhausted: treat as
             failing media, as the combined read already did. *)
          ()
      | Error (Drive.Check_mismatch _) ->
          (* The sweep performs no checks. *)
          assert false);
  t

let run ?policy ?on_value drive =
  run_sectors ?policy ?on_value drive (Array.init (Drive.sector_count drive) Fun.id)

let pp_class fmt = function
  | Live l -> Format.fprintf fmt "live %a" Label.pp l
  | Free_sector -> Format.pp_print_string fmt "free"
  | Marked_bad -> Format.pp_print_string fmt "marked bad"
  | Bad_media -> Format.pp_print_string fmt "bad media"
  | Garbage msg -> Format.fprintf fmt "garbage (%s)" msg

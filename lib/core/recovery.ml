module Drive = Alto_disk.Drive
module Obs = Alto_obs.Obs

let m_through_map = Obs.counter "fs.recovery.through_map"
let m_cylinders = Obs.counter "fs.recovery.cylinders"
let m_scavenges = Obs.counter "fs.recovery.scavenges"

type cause = Unmountable | No_map_record | Whole_pack | Unsettled of string

(* Whole-pack fallbacks by cause, the repair's refusal over a damaged
   root apart from its others. *)
let m_unmountable = Obs.counter "fs.recovery.fallback.unmountable"
let m_no_map_record = Obs.counter "fs.recovery.fallback.no_map_record"
let m_whole_pack = Obs.counter "fs.recovery.fallback.whole_pack"
let m_root_needs_repair = Obs.counter "fs.recovery.fallback.root_needs_repair"
let m_refused = Obs.counter "fs.recovery.fallback.refused"

let counter_of = function
  | Unmountable -> m_unmountable
  | No_map_record -> m_no_map_record
  | Whole_pack -> m_whole_pack
  | Unsettled why when String.equal why Scavenger.root_needs_repair -> m_root_needs_repair
  | Unsettled _ -> m_refused

type outcome =
  | Clean
  | Through_map of int list * Scavenger.report
  | Scavenged of cause * Scavenger.report
  | Unrecovered of string
  | Formatted

let scavenge drive cause =
  Obs.incr m_scavenges;
  Obs.incr (counter_of cause);
  Result.map (fun (fs, report) -> (fs, Scavenged (cause, report))) (Scavenger.scavenge drive)

let recover fs =
  let load_spill () = match Bad_sectors.load fs with Ok _ | Error _ -> () in
  match Fs.mapped_cylinders fs with
  | Some [] ->
      load_spill ();
      (fs, Clean)
  | mapped -> (
      (* Recovery writes over the volume: read the black box first. *)
      ignore (Flight.adopt fs : string option);
      let drive = Fs.drive fs in
      let whole = List.length (Option.value ~default:[] mapped) = (Drive.geometry drive).cylinders in
      let scavenged =
        match mapped with
        | None -> scavenge drive No_map_record
        | Some _ when whole -> scavenge drive Whole_pack
        | Some cylinders -> (
            load_spill ();
            match Scavenger.repair fs ~cylinders with
            | Ok report ->
                Obs.incr m_through_map;
                Obs.add m_cylinders (List.length cylinders);
                Ok (fs, Through_map (cylinders, report))
            | Error why -> scavenge drive (Unsettled why))
      in
      match scavenged with Ok r -> r | Error why -> (fs, Unrecovered why))

let boot drive =
  match Fs.mount drive with
  | Ok fs -> recover fs
  | Error _ -> (
      (* Wreckage, not a blank: the labels are rebuilt into a descriptor,
         §3.6's last rung, before the formatter. *)
      match scavenge drive Unmountable with
      | Ok r -> r
      | Error _ -> (Fs.format drive, Formatted))

let pp_outcome fmt = function
  | Clean -> Format.fprintf fmt "clean mount, nothing to recover"
  | Through_map (cylinders, report) ->
      Format.fprintf fmt "@[<v>through the write-ahead map, %d cylinders@,%a@]"
        (List.length cylinders) Scavenger.pp_report report
  | Scavenged (cause, report) ->
      Format.fprintf fmt "@[<v>verifying scavenge (%s)@,%a@]"
        (match cause with
        | Unmountable -> "unmountable"
        | No_map_record -> "no map record read back"
        | Whole_pack -> "the map covers the whole pack"
        | Unsettled why -> "the map could not settle it: " ^ why)
        Scavenger.pp_report report
  | Unrecovered why -> Format.fprintf fmt "dirty, and the scavenge failed: %s" why
  | Formatted -> Format.fprintf fmt "unmountable and unscavengeable: formatted"

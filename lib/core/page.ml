module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

(* Label-check aborts: disk operations cut short because the sector's
   label did not carry the absolute name the caller asserted. Every one
   is a hint (or an allocation map) caught lying before it could do
   damage — the quantity §3.3 says the check exists to bound. *)
let m_label_check_aborts = Obs.counter "fs.label_check_aborts"

type absolute = { fid : File_id.t; page : int }

type full_name = { abs : absolute; addr : Disk_address.t }

let full_name fid ~page ~addr = { abs = { fid; page }; addr }

let pp_full_name fmt fn =
  Format.fprintf fmt "(%a, %d) @@ %a" File_id.pp fn.abs.fid fn.abs.page
    Disk_address.pp fn.addr

type error = Hint_failed of Drive.error | Bad_label of string

let pp_error fmt = function
  | Hint_failed e -> Format.fprintf fmt "hint failed: %a" Drive.pp_error e
  | Bad_label msg -> Format.fprintf fmt "bad label: %s" msg

let decode_checked_label buf =
  match Label.of_words buf with
  | Ok label -> Ok label
  | Error msg ->
      Obs.incr m_label_check_aborts;
      Error (Bad_label msg)

let hint_failed e =
  (match e with
  | Drive.Check_mismatch _ -> Obs.incr m_label_check_aborts
  | Drive.Bad_sector -> ()
  | Drive.Transient _ ->
      (* The reliable layer already retried; what reaches here is a
         retry-exhausted sector, i.e. a hard failure. *)
      ());
  Error (Hint_failed e)

(* A hint that names no sector fails as a hint, with no disk operation:
   the drive would refuse the address outright. *)
let on_pack drive fn f =
  if Drive.has_sector drive fn.addr then f () else Error (Hint_failed Drive.Bad_sector)

(* Remember a label image the operation that just completed verified. *)
let note cache addr words =
  match cache with
  | None -> ()
  | Some c -> Label_cache.note_verified c addr words

(* A label check: from the verified-label table when the sector's entry
   is live, else one label-only operation on the platter, whose verified
   label the table then records. *)
let check_label cache drive fn label_buf =
  match Option.bind cache (fun c -> Label_cache.check c fn.addr label_buf) with
  | Some verdict ->
      Prof.note "page.cache_hit";
      verdict
  | None ->
      if cache <> None then Prof.note "page.cache_miss";
      let checked =
        Reliable.run drive fn.addr
          { Drive.op_none with label = Some Drive.Check }
          ~label:label_buf ()
      in
      if Result.is_ok checked then note cache fn.addr label_buf;
      checked

let with_value value = function Ok label -> Ok (label, value) | Error e -> Error e

let read ?cache ?bio drive fn =
  on_pack drive fn @@ fun () ->
  Prof.span (Drive.clock drive) "page.read" @@ fun () ->
  let label_buf = Label.check_name fn.abs.fid ~page:fn.abs.page in
  let value = Array.make Sector.value_words Word.zero in
  (* A buffered track sector answers from core: the name check comes
     from the verified-label table (platter truth while the generation
     is live), mismatch verdicts included, so a stale hint is refused
     whether the track is buffered or not. *)
  let served = function
    | Error e -> hint_failed e
    | Ok () ->
        Prof.note "page.bio_hit";
        with_value value (decode_checked_label label_buf)
  in
  let direct () =
    match
      Reliable.run drive fn.addr
        { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read }
        ~label:label_buf ~value ()
    with
    | Error e -> hint_failed e
    | Ok () ->
        note cache fn.addr label_buf;
        Option.iter (fun b -> Bio.install b fn.addr ~value) bio;
        with_value value (decode_checked_label label_buf)
  in
  match bio with
  | None -> direct ()
  | Some b -> (
      match Bio.lookup b fn.addr ~label:label_buf ~value with
      | Some verdict -> served verdict
      | None -> (
          Bio.fill b fn.addr;
          match Bio.peek b fn.addr ~label:label_buf ~value with
          | Some verdict -> served verdict
          | None ->
              (* The fill could not read this sector (or the cache is
                 disabled): the direct path reports the true error and
                 climbs the usual ladder. *)
              direct ()))

let read_label ?cache drive fn =
  on_pack drive fn @@ fun () ->
  Prof.span (Drive.clock drive) "page.read_label" @@ fun () ->
  let label_buf = Label.check_name fn.abs.fid ~page:fn.abs.page in
  match check_label cache drive fn label_buf with
  | Error e -> hint_failed e
  | Ok () -> decode_checked_label label_buf

let check_value_size value =
  if Array.length value <> Sector.value_words then
    invalid_arg "Page: value must be 256 words"

let write ?cache ?bio drive fn value =
  check_value_size value;
  on_pack drive fn @@ fun () ->
  Prof.span (Drive.clock drive) "page.write" @@ fun () ->
  let label_buf = Label.check_name fn.abs.fid ~page:fn.abs.page in
  (* Delayed write-back: when the sector's track is buffered and
     generation-live, the name check comes from the verified-label table
     and the value can sit in the buffer until the next coalesced flush,
     which checks the label this check filled in — no disk operation
     now. A check refusal here is a real refusal: the platter's label
     does not carry the asserted name. *)
  let absorbed =
    match bio with None -> None | Some b -> Bio.absorb b fn.addr ~label:label_buf value
  in
  match absorbed with
  | Some (Error e) -> hint_failed e
  | Some (Ok ()) ->
      Prof.note "page.bio_hit";
      decode_checked_label label_buf
  | None -> (
      match
        Reliable.run drive fn.addr
          { Drive.op_none with label = Some Drive.Check; value = Some Drive.Write }
          ~label:label_buf ~value ()
      with
      | Error e -> hint_failed e
      | Ok () ->
          note cache fn.addr label_buf;
          Option.iter (fun b -> Bio.install b fn.addr ~value) bio;
          decode_checked_label label_buf)

let rewrite_label ?cache ?bio drive fn ~new_label ~value =
  check_value_size value;
  on_pack drive fn @@ fun () ->
  Prof.span (Drive.clock drive) "page.rewrite_label" @@ fun () ->
  let label_buf = Label.check_name fn.abs.fid ~page:fn.abs.page in
  match check_label cache drive fn label_buf with
  | Error e -> hint_failed e
  | Ok () -> (
      let new_words = Label.to_words new_label in
      match
        Reliable.run drive fn.addr
          { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
          ~label:new_words ~value ()
      with
      | Error e -> hint_failed e
      | Ok () ->
          (* The write is its own verification; the generation captured
             now postdates the write's bump, so the entry is live. *)
          note cache fn.addr new_words;
          (* The label write killed the buffered generation; re-install
             the value (and supersede any delayed value write). *)
          Option.iter (fun b -> Bio.install b fn.addr ~value) bio;
          Ok ())

let read_raw drive addr =
  let header = Array.make Sector.header_words Word.zero in
  let label = Array.make Sector.label_words Word.zero in
  match
    Reliable.run drive addr
      { Drive.op_none with header = Some Drive.Read; label = Some Drive.Read }
      ~header ~label ()
  with
  | Error e -> Error e
  | Ok () -> Ok (header, label)

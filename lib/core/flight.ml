module Sim_clock = Alto_machine.Sim_clock
module Obs = Alto_obs.Obs
module Trace = Alto_obs.Trace
module Json = Alto_obs.Json

let file_name = "FlightRecorder.log"
let magic = "altos.flight/1"

(* A seal holds at most this many events, the newest. *)
let capacity = 256

let m_flushes = Obs.counter "fs.flight.flushes"
let m_adoptions = Obs.counter "fs.flight.adoptions"

(* The recorder is machine-wide, like the registry it snapshots. It
   stays disarmed until {!enable} so the raw library layers (and their
   tests) never grow a surprise catalogued file; booting the full
   machine arms it. *)
let armed = ref false
let last_adopted : string option ref = ref None

(* The first event a seal may hold: the next one numbered when the
   recorder was armed. The registry numbers events from 0 again after
   a reset, and forgets the ones before it. *)
let since = ref 0
let () = Obs.on_reset (fun () -> since := 0)

let enable () =
  if not !armed then begin
    armed := true;
    since := List.fold_left (fun _ (e : Obs.event) -> e.Obs.seq + 1) 0 (Obs.trace ())
  end

let disable () =
  armed := false;
  last_adopted := None

let field_json = function
  | Obs.I i -> Json.Int i
  | Obs.S s -> Json.String s
  | Obs.B b -> Json.Bool b

let event_json (e : Obs.event) =
  Json.Obj
    [
      ("seq", Json.Int e.Obs.seq);
      ("ts_us", Json.Int e.Obs.ts_us);
      ("name", Json.String e.Obs.name);
      ("fields", Json.Obj (List.map (fun (k, v) -> (k, field_json v)) e.Obs.fields));
    ]

(* The newest [capacity] events recorded since arming, oldest first.
   The registry's ring holds more than a seal, so it still holds them. *)
let window () =
  let rec newest n acc = function
    | (e : Obs.event) :: rest when n > 0 && e.Obs.seq >= !since ->
        newest (n - 1) (e :: acc) rest
    | _ -> acc
  in
  newest capacity [] (List.rev (Obs.trace ()))

(* Render before writing: the write itself records events. *)
let render ~reason fs =
  let events = List.map event_json (window ()) in
  Json.to_string
    (Json.Obj
       [
         ("magic", Json.String magic);
         ("sealed_at_us", Json.Int (Sim_clock.now_us (Fs.clock fs)));
         ("reason", Json.String reason);
         ("metrics", Obs.metrics_json ());
         ("events", Json.List events);
         (* The requests in flight (and the last few closed) at the
            moment of sealing: a crash shows {e which conversations}
            were cut short, not just which events preceded it. *)
         ("requests", Trace.flight_json ());
       ])

(* FNV-1a over the payload bytes, version-stable. *)
let fnv64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* The sealed record is length-prefixed and checksummed:
   ["altos.flight/1 <bytes> <fnv64hex>\n<json>"]. The seal is itself a
   burst of delayed-then-flushed writes, so a crash mid-seal can leave
   the file holding any page-level mix of the old record and the new —
   adoption must be able to refuse the mix, not parse it. *)
let seal_header payload =
  Printf.sprintf "%s %d %016Lx\n" magic (String.length payload) (fnv64 payload)

let validate_sealed content =
  let nl = String.index_opt content '\n' in
  match nl with
  | None -> None
  | Some nl -> (
      let header = String.sub content 0 nl in
      let payload = String.sub content (nl + 1) (String.length content - nl - 1) in
      match String.split_on_char ' ' header with
      | [ m; len; sum ]
        when m = magic
             && int_of_string_opt len = Some (String.length payload)
             && (try Scanf.sscanf sum "%Lx%!" (fun s -> s) = fnv64 payload
                 with Scanf.Scan_failure _ | Failure _ | End_of_file -> false) ->
          Some payload
      | _ -> None)

let find_file fs =
  match Directory.open_root fs with
  | Error _ -> None
  | Ok root -> (
      match Directory.lookup root file_name with
      | Error _ | Ok None -> None
      | Ok (Some entry) -> (
          match File.open_leader fs entry.Directory.entry_file with
          | Error _ -> None
          | Ok file -> Some file))

let create_file fs =
  match File.create fs ~name:file_name with
  | Error _ -> None
  | Ok file -> (
      match Directory.open_root fs with
      | Error _ -> None
      | Ok root -> (
          match Directory.add root ~name:file_name (File.leader_name file) with
          | Error _ -> None
          | Ok () -> Some file))

(* Best effort end to end: a machine going down must not be stopped by
   its own black box failing to write. *)
let flush ~reason fs =
  if !armed then begin
    let payload = render ~reason fs in
    let content = seal_header payload ^ payload in
    match (match find_file fs with Some f -> Some f | None -> create_file fs) with
    | None -> ()
    | Some file -> (
        match File.replace file content with
        | Error _ -> ()
        | Ok () ->
            (* The record's writes may sit delayed in the track buffers;
               a black box that only exists in core is no black box.
               Push them to the platter now. *)
            ignore (Bio.flush (Fs.bio fs));
            Obs.incr m_flushes;
            Obs.event ~clock:(Fs.clock fs)
              ~fields:[ ("reason", Obs.S reason); ("bytes", Obs.I (String.length content)) ]
              "fs.flight.flush")
  end

let adopt fs =
  match find_file fs with
  | None -> None
  | Some file -> (
      let len = File.byte_length file in
      if len <= 0 then None
      else
        match File.read_bytes file ~pos:0 ~len with
        | Error _ -> None
        | Ok bytes -> (
            let content = Bytes.to_string bytes in
            (* Only a whole record counts: the header's length and
               checksum must cover exactly the bytes that follow, so a
               record torn by a crash mid-seal — truncated, or a
               page-level mix of two seals — reads as "no flight
               record", never as garbage handed to a consumer. *)
            match validate_sealed content with
            | None -> None
            | Some payload ->
                last_adopted := Some payload;
                Obs.incr m_adoptions;
                Obs.event ~clock:(Fs.clock fs)
                  ~fields:[ ("bytes", Obs.I (String.length payload)) ]
                  "fs.flight.adopt";
                Some payload))

let adopted () = !last_adopted

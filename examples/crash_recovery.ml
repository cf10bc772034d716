(* The scavenger earning its keep (§3.5): a pack accumulates real files,
   then suffers a miserable afternoon — decayed labels, a scrambled
   directory, a destroyed disk descriptor. The volume no longer mounts.
   One scavenge later everything reachable is back, orphans have been
   re-catalogued under their leader names, and the data that survived is
   verified byte for byte.

   Run with: dune exec examples/crash_recovery.exe *)

module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger

let ok pp = function
  | Ok x -> x
  | Error e -> Format.kasprintf failwith "%a" pp e

let body name size = String.init size (fun i -> Char.chr (32 + ((i * 7) + String.length name) mod 95))

let () =
  let drive = Drive.create ~pack_id:5 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in

  (* A working disk: 24 files of assorted sizes, some in a subdirectory. *)
  let sub = ok Directory.pp_error (Directory.create fs ~name:"Projects.") in
  ok Directory.pp_error (Directory.add root ~name:"Projects." (File.leader_name sub));
  let manifest = ref [] in
  for i = 1 to 24 do
    let name = Printf.sprintf "Doc%02d.txt" i in
    let contents = body name (200 * i) in
    let file = ok File.pp_error (File.create fs ~name) in
    ok File.pp_error (File.write_bytes file ~pos:0 contents);
    ok File.pp_error (File.flush_leader file);
    let dir = if i mod 3 = 0 then sub else root in
    ok Directory.pp_error (Directory.add dir ~name (File.leader_name file));
    manifest := (name, contents) :: !manifest
  done;
  Format.printf "built %d files (%d pages in use)@.@." 24
    (Drive.sector_count drive - Fs.free_count fs);

  (* The miserable afternoon. *)
  let rng = Alto_machine.Splitmix.of_seed 20260706 in
  let victims = Fault.decay rng drive ~fraction:0.01 in
  Format.printf "media decay corrupted %d sector labels@." (List.length victims);
  let sub_page = ok File.pp_error (File.page_name sub 1) in
  Fault.corrupt_part rng drive sub_page.Page.addr Sector.Value;
  Format.printf "the Projects. directory's entries are scrambled@.";
  for i = 1 to 1 + Fs.descriptor_page_count fs do
    Fault.corrupt_part rng drive (Alto_disk.Disk_address.of_index i) Sector.Label
  done;
  Format.printf "the disk descriptor is gone@.@.";

  (match Fs.mount drive with
  | Ok _ -> failwith "that pack should not mount"
  | Error msg -> Format.printf "mount fails, as expected: %s@.@." msg);

  (* The cure. *)
  Format.printf "== scavenging ==@.";
  let fs, report =
    match Scavenger.scavenge drive with
    | Ok x -> x
    | Error msg -> failwith ("scavenge failed: " ^ msg)
  in
  Format.printf "%a@.@." Scavenger.pp_report report;

  (* Verify every surviving file byte for byte against the manifest.
     Files whose pages were hit by the decay may be truncated or lost;
     everything else must be intact. *)
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let find name =
    (* After scavenging, an orphan may live in the root even if it used
       to live in Projects. — search both. *)
    let in_dir dir =
      match Directory.lookup dir name with Ok (Some e) -> Some e | _ -> None
    in
    match in_dir root with
    | Some e -> Some e
    | None -> (
        match Directory.lookup root "Projects." with
        | Ok (Some p) -> (
            match File.open_leader fs p.Directory.entry_file with
            | Ok sub -> in_dir sub
            | Error _ -> None)
        | _ -> None)
  in
  let intact = ref 0 and truncated = ref 0 and missing = ref 0 in
  List.iter
    (fun (name, contents) ->
      match find name with
      | None -> incr missing
      | Some e -> (
          match File.open_leader fs e.Directory.entry_file with
          | Error _ -> incr missing
          | Ok f -> (
              let len = File.byte_length f in
              match File.read_bytes f ~pos:0 ~len with
              | Error _ -> incr missing
              | Ok bytes ->
                  let got = Bytes.to_string bytes in
                  if String.equal got contents then incr intact
                  else if
                    len < String.length contents
                    && String.equal got (String.sub contents 0 len)
                  then incr truncated
                  else failwith (name ^ " survived but with WRONG bytes"))))
    !manifest;
  Format.printf "verification: %d intact, %d truncated at the damage, %d lost@."
    !intact !truncated !missing;
  Format.printf "no file came back with wrong contents — damaged pages are lost,@.";
  Format.printf "never silently corrupted, which is the §3 design holding up.@.@.";
  (match Fs.mount drive with
  | Ok _ -> Format.printf "and the pack mounts normally again.@."
  | Error msg -> failwith ("remount failed: " ^ msg));
  Format.printf "total simulated time including the scavenge: %a@."
    Sim_clock.pp_duration
    (Sim_clock.now_us (Drive.clock drive))

(* Crash and recovery, §3.5's path: a 75%-full Model 31 pack takes a
   burst of the single user's operations and loses power at a seeded
   write — cleanly between sectors, or tearing the fatal sector's label
   or value, in rotation. Power returns: a dirty [System.boot] runs the
   bounded recovery, [Fsck.check] certifies the pack, and only when the
   checker or the content oracle objects does recovery escalate to a
   value-verifying [Scavenger.scavenge]. Every cycle ends with a full
   scavenge, so each one also times the paper's one-minute rebuild. *)

module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Fsck = Alto_fs.Fsck
module Flight = Alto_fs.Flight
module Leader = Alto_fs.Leader
module Scavenger = Alto_fs.Scavenger
module System = Alto_os.System

(* Share of the pack's sectors in use. *)
let fill = 0.75

(* The crash falls within this many writes of the burst. *)
let max_point = 80

(* [Fs.flush] every this many burst operations. *)
let flush_every = 8

(* Untouched files read back after each recovery; the run's last check
   reads them all. *)
let spot_checks = 16

(* A pack is retired after 50 cycles. This works around a defect in the
   system, and is not a setting. Torn sectors are quarantined for good,
   about 0.6 a cycle, and once the 64-entry bad-sector table overflows,
   boot writes the spill file ([Bad_sectors]) with a fresh file serial
   before recovery has re-derived the serial counter from the labels:
   after a crash that lost the counter's last update, that serial
   belongs to a file already on the platter, and the next scavenge
   merges the two. The content oracle catches it; retiring the pack
   keeps the workload on the path the system gets right. *)
let pack_cycles = 50

let prefix = "R"

(* Our files are named [R%05d.dat]; anything else in the root (the
   bad-sector spill file, a scavenger's synthesized name) is the
   system's. *)
let ours name =
  String.length name = 10 && name.[0] = 'R' && String.ends_with ~suffix:".dat" name

let build g =
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let t = Ops.create ~prefix fs in
  let total = Drive.sector_count drive in
  while float_of_int (total - Fs.free_count fs) < fill *. float_of_int total do
    Ops.exec t { (Ops.draw g ~population:0 ~lo:0 ~hi:0) with Ops.kind = Ops.Create }
  done;
  Ops.flush t;
  (match Fs.mark_clean fs with Ok () -> () | Error _ -> Ops.fail t "mark clean");
  (drive, t)

type cycle = {
  burst_ops : int;
  boot_us : int;
  recover_us : int;  (** Power-on until the pack is certified. *)
  scavenge_us : int;  (** The cycle's closing full scavenge. *)
  sectors_scanned : int;
  escalated : bool;
  violations : int;  (** Found by the first check after boot. *)
  boot_host_us : float;
  fsck_host_us : float;
  scavenge_host_us : float;
  host_us : float;  (** CPU µs of the whole cycle, less the oracle's own reading. *)
  kernel_us : float;  (** {!Host.calibrate} right after the cycle. *)
}

let tears = [| None; Some Drive.Torn_label; Some Drive.Torn_value |]

(* {2 The content oracle}

   As in the crash-point harness: a file the burst did not touch must
   read back byte-identical; a touched one may be missing only if the
   operation in flight created or deleted it, may stop short or at an
   unreadable page, but every page it does return must be that page of
   the old or the new version. *)

let page = 512

let read_all fs entry =
  match File.open_leader fs entry.Directory.entry_file with
  | Error _ -> None
  | Ok file -> (
      match File.read_bytes file ~pos:0 ~len:(File.byte_length file) with
      | Ok b -> Some (Bytes.to_string b)
      | Error _ -> None)

let check_touched fs name entry ~old ~next =
  let fits v pos got =
    match v with
    | Some v ->
        pos + String.length got <= String.length v
        && String.equal (String.sub v pos (String.length got)) got
    | None -> false
  in
  match File.open_leader fs entry.Directory.entry_file with
  | Error _ -> [ name ^ " unopenable after recovery" ]
  | Ok file ->
      let len = File.byte_length file in
      let rec pages pos =
        if pos >= len then []
        else
          match File.read_bytes file ~pos ~len:(min page (len - pos)) with
          | Error _ -> [] (* The write in flight tore it. *)
          | Ok b ->
              let got = Bytes.to_string b in
              if fits old pos got || fits next pos got then pages (pos + page)
              else [ Printf.sprintf "%s page %d is neither version" name (pos / page) ]
      in
      pages 0

let verify drive (t : Ops.t) touched ~untouched =
  match Fs.mount drive with
  | Error msg -> [ "remount failed: " ^ msg ]
  | Ok fs -> (
      match Directory.open_root fs with
      | Error _ -> [ "root directory unreadable" ]
      | Ok root ->
          let lookup name =
            match Directory.lookup root name with Ok e -> Ok e | Error _ -> Error ()
          in
          let problems = ref [] in
          let add p = problems := p @ !problems in
          Hashtbl.iter
            (fun name (old, next) ->
              match lookup name with
              | Error () -> add [ name ^ ": directory unreadable" ]
              | Ok None -> if old <> None && next <> None then add [ name ^ " vanished" ]
              | Ok (Some e) -> add (check_touched fs name e ~old ~next))
            touched;
          List.iter
            (fun name ->
              match lookup name with
              | Ok (Some e) -> (
                  match read_all fs e with
                  | Some got when String.equal got (Hashtbl.find t.Ops.model name) -> ()
                  | Some _ | None -> add [ name ^ " changed though untouched" ])
              | Ok None | Error () -> add [ name ^ " vanished though untouched" ])
            untouched;
          !problems)

(* After the closing scavenge: a fresh handle on the rebuilt volume whose
   model keeps every untouched file's known contents and adopts what
   recovery left of the touched ones.

   A torn leader write costs a file its leader name (the scavenger
   rebuilds the leader under a synthesized one) while its catalogue
   entry keeps it reachable; but a later loss of that entry would
   re-adopt it under the synthesized name. Such a file is discarded
   here, as a user discards a salvaged file, so every file the model
   names carries its name in its leader. *)
let resync (t : Ops.t) fs touched =
  let t' = Ops.create ~prefix fs in
  t'.Ops.serial <- t.Ops.serial;
  let adopt (e : Directory.entry) =
    let name = e.Directory.entry_name in
    match File.open_leader fs e.Directory.entry_file with
    | Error _ -> Ops.fail t' (name ^ " unopenable after the scavenge")
    | Ok file when not (String.equal (File.leader file).Leader.name name) -> (
        match (File.delete file, Directory.remove t'.Ops.root name) with
        | Ok (), Ok true -> ()
        | _ -> Ops.fail t' (name ^ ": a file that lost its leader name would not go"))
    | Ok file -> (
        match File.read_bytes file ~pos:0 ~len:(File.byte_length file) with
        | Ok b ->
            Ops.add_name t' name;
            Hashtbl.replace t'.Ops.model name (Bytes.to_string b)
        | Error _ -> Ops.fail t' (name ^ " unreadable after the scavenge"))
  in
  (match Directory.entries t'.Ops.root with
  | Error _ -> Ops.fail t' "root directory unreadable after the scavenge"
  | Ok entries ->
      List.iter
        (fun (e : Directory.entry) ->
          let name = e.Directory.entry_name in
          if ours name then
            match
              if Hashtbl.mem touched name then None else Hashtbl.find_opt t.Ops.model name
            with
            | Some contents ->
                Ops.add_name t' name;
                Hashtbl.replace t'.Ops.model name contents
            | None -> adopt e)
        entries);
  Ops.carry_failures ~from:t t';
  t'

let host_us f =
  let t0 = Host.cpu_us () in
  let x = f () in
  (x, Host.cpu_us () -. t0)

(* One crash-and-recover cycle on the volume [t] lives on. *)
let cycle g ~index drive (t : Ops.t) =
  let clock = Drive.clock drive in
  let h0 = Host.cpu_us () in
  let tear = tears.(index mod Array.length tears) in
  let touched = Hashtbl.create 16 in
  let before name next =
    if not (Hashtbl.mem touched name) then
      Hashtbl.replace touched name (Hashtbl.find_opt t.Ops.model name, next)
  in
  let skip name = Hashtbl.mem touched name in
  Fault.crash_after_writes ?tear drive (Gen.range g 0 max_point);
  let burst_ops = ref 0 in
  (try
     while Drive.crash_pending drive do
       Ops.exec ~skip ~before t (Ops.draw g ~population:t.Ops.count ~lo:0 ~hi:max_int);
       incr burst_ops;
       if !burst_ops mod flush_every = 0 then Ops.flush t
     done
   with Drive.Power_failure -> ());
  Fault.cancel_crash drive;
  let untouched =
    List.filter_map
      (fun _ ->
        let name = t.Ops.names.(Gen.int g t.Ops.count) in
        if Hashtbl.mem touched name then None else Some name)
      (List.init spot_checks Fun.id)
  in
  let oracle_us = ref 0.0 in
  let oracle f =
    let x, h = host_us f in
    oracle_us := !oracle_us +. h;
    x
  in
  (* Mains power: nothing survives but the platter. *)
  let t_on = Sim_clock.now_us clock in
  let sys, boot_host_us =
    host_us (fun () -> Span.record ~clock "boot" (fun () -> System.boot ~drive ()))
  in
  (* Boot arms the flight recorder, whose seal embeds the process-wide
     metric registry: left armed, the closing scavenge's write of it
     would make simulated time depend on whatever else ran in this
     process. The crash harness disarms it between trials too. *)
  Flight.disable ();
  (match Fs.flush (System.fs sys) with
  | Ok () -> ()
  | Error _ -> Ops.fail t "flush after boot");
  let boot_us = Sim_clock.now_us clock - t_on in
  let check () =
    let f0 = Sim_clock.now_us clock in
    let report, h =
      host_us (fun () -> Span.record ~clock "fsck" (fun () -> Fsck.check drive))
    in
    (report, Sim_clock.now_us clock - f0, h)
  in
  let report, fsck_us, fsck_host_us = check () in
  let violations = List.length report.Fsck.violations in
  let problems = oracle (fun () -> verify drive t touched ~untouched) in
  let escalated = violations > 0 || problems <> [] in
  let recover_us =
    if not escalated then boot_us + fsck_us
    else begin
      let e0 = Sim_clock.now_us clock in
      (match
         Span.record ~clock "scavenger.escalation" (fun () ->
             Scavenger.scavenge ~verify_values:true drive)
       with
      | Ok _ -> ()
      | Error msg -> Ops.fail t ("escalation scavenge failed: " ^ msg));
      let report, _, _ = check () in
      let spent = Sim_clock.now_us clock - e0 in
      List.iter
        (fun issue ->
          Ops.fail t (Format.asprintf "fsck after scavenge: %a" Fsck.pp_issue issue))
        report.Fsck.violations;
      List.iter (Ops.fail t) (oracle (fun () -> verify drive t touched ~untouched));
      boot_us + fsck_us + spent
    end
  in
  let scavenged, scavenge_host_us =
    host_us (fun () ->
        Span.record ~clock "scavenger" (fun () -> Scavenger.scavenge drive))
  in
  match scavenged with
  | Error msg ->
      Ops.fail t ("closing scavenge failed: " ^ msg);
      failwith ("recover: closing scavenge failed: " ^ msg)
  | Ok (fs, rep) ->
      let t' = oracle (fun () -> resync t fs touched) in
      let host_us = Host.cpu_us () -. h0 -. !oracle_us in
      let kernel_us = Host.calibrate () in
      ( t',
        {
          burst_ops = !burst_ops;
          boot_us;
          recover_us;
          scavenge_us = rep.Scavenger.duration_us;
          sectors_scanned = rep.Scavenger.sectors_scanned;
          escalated;
          violations;
          boot_host_us;
          fsck_host_us;
          scavenge_host_us;
          host_us;
          kernel_us;
        } )

(* The last pack's drive and volume, the cycles, and the simulated time
   the run took — replacement packs' formatting and filling included. *)
let run ~seed ~cycles (drive, t) =
  let g = Gen.make ~seed ~stream:22 and packs = Gen.make ~seed ~stream:23 in
  let live = ref (drive, t) in
  let now () = Sim_clock.now_us (Drive.clock (fst !live)) in
  let start = now () and elapsed = ref 0 in
  let cycles =
    List.init cycles (fun index ->
        if index > 0 && index mod pack_cycles = 0 then begin
          elapsed := !elapsed + now ();
          let drive, t = build packs in
          Ops.carry_failures ~from:(snd !live) t;
          live := (drive, t)
        end;
        let drive, t = !live in
        let t', c = cycle g ~index drive t in
        live := (drive, t');
        c)
  in
  (fst !live, snd !live, cycles, !elapsed + now () - start)

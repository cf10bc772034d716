module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Instr = Alto_machine.Instr
module Sector = Alto_disk.Sector
module Geometry = Alto_disk.Geometry
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Patrol = Alto_fs.Patrol
module Flight = Alto_fs.Flight
module Zone = Alto_zones.Zone
module Stream = Alto_streams.Stream
module Disk_stream = Alto_streams.Disk_stream
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module World = Alto_world.World

type handle_target = File_obj of File.t | Stream_obj of Stream.t

type recovery = Alto_fs.Recovery.outcome

let pp_recovery = Alto_fs.Recovery.pp_outcome

type t = {
  memory : Memory.t;
  cpu : Cpu.t;
  drive : Drive.t;
  recovery : recovery;
  mutable fs : Fs.t;
  mutable patrol : Patrol.t;
  keyboard : Keyboard.t;
  display : Display.t;
  mutable zone : Zone.t;
  objects : (int, handle_target) Hashtbl.t;
  mutable next_handle : int;
  mutable resident : int;
  mutable last_error : string option;
  mutable overlay_loader : (string -> (int, string) result) option;
  mutable server_tick : (unit -> int) option;
  mutable replica_tick : (unit -> int) option;
  mutable peer_report : (unit -> string list) option;
}

let user_base = 1024

let memory t = t.memory
let cpu t = t.cpu
let drive t = t.drive
let recovery t = t.recovery
let fs t = t.fs

let set_fs t fs =
  t.fs <- fs;
  (* The patrol's cumulative totals belong to the volume, not the
     machine: a new volume gets a fresh patrol resuming at the new
     descriptor's cursor. *)
  t.patrol <- Patrol.create fs

let patrol t = t.patrol
let patrol_tick t = Patrol.tick t.patrol
let keyboard t = t.keyboard
let display t = t.display
let system_zone t = t.zone
let resident_level t = t.resident
let user_boundary t = Level.boundary ~keep:t.resident
let last_error t = t.last_error
let set_overlay_loader t f = t.overlay_loader <- Some f
let set_server_tick t f = t.server_tick <- Some f
let server_tick t = t.server_tick
let set_replica_tick t f = t.replica_tick <- Some f
let replica_tick t = t.replica_tick
let set_peer_report t f = t.peer_report <- Some f
let peer_report t = t.peer_report

(* {2 Level installation} *)

let removed_word =
  match Instr.encode (Instr.Sys Level.removed_trap_code) with
  | [ w ] -> w
  | _ -> assert false

let install_level t (level : Level.t) =
  let base = Level.base level.Level.index in
  Memory.fill t.memory ~pos:base ~len:level.Level.size_words Word.zero;
  List.iteri
    (fun k service ->
      let words = Array.of_list (Level.stub_words service) in
      Memory.write_block t.memory ~pos:(base + (2 * k)) words)
    level.Level.services

let make_system_zone memory =
  let region_base = Level.base 13 in
  Zone.format ~name:"system free storage" memory ~pos:region_base
    ~len:(Level.find 13).Level.size_words

let install_all_levels t =
  List.iter (install_level t) Level.all;
  t.zone <- make_system_zone t.memory

let junta t ~keep =
  if keep < 1 || keep > Level.count then invalid_arg "System.junta: keep out of 1..13";
  if keep < t.resident then begin
    let top = Level.boundary ~keep in
    let bottom = Level.boundary ~keep:t.resident in
    Memory.fill t.memory ~pos:bottom ~len:(top - bottom) removed_word;
    (* Losing level 2 loses the type-ahead buffer. *)
    if keep < 2 then (Keyboard.stream t.keyboard).Alto_streams.Stream.reset ();
    t.resident <- keep
  end

let counter_junta t =
  install_all_levels t;
  t.resident <- Level.count

(* {2 Boot} *)

let boot ?(geometry = Geometry.diablo_31) ?drive () =
  let drive = match drive with Some d -> d | None -> Drive.create ~pack_id:1 geometry in
  (* Recovery runs before the recorder is armed: an armed one seals the
     process-wide metric registry into the pack. *)
  let fs, recovery = Alto_fs.Recovery.boot drive in
  (* The full machine arms the black box; raw library users never see
     the file appear on its own. *)
  Flight.enable ();
  let memory = Memory.create () in
  let t =
    {
      memory;
      cpu = Cpu.create memory;
      drive;
      recovery;
      fs;
      patrol = Patrol.create fs;
      keyboard = Keyboard.create ();
      display = Display.create ();
      zone = make_system_zone memory;
      objects = Hashtbl.create 16;
      next_handle = 1;
      resident = Level.count;
      last_error = None;
      overlay_loader = None;
      server_tick = None;
      replica_tick = None;
      peer_report = None;
    }
  in
  install_all_levels t;
  t

(* {2 Handles and VM strings} *)

let new_handle t target =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace t.objects h target;
  h

let register_file t file = new_handle t (File_obj file)

let file_of_handle t h =
  match Hashtbl.find_opt t.objects h with
  | Some (File_obj f) -> Some f
  | Some (Stream_obj _) | None -> None

let stream_of_handle t h =
  match Hashtbl.find_opt t.objects h with
  | Some (Stream_obj s) -> Some s
  | Some (File_obj _) | None -> None

let read_vm_string t addr =
  let len = Word.to_int (Memory.read t.memory addr) in
  Memory.read_string t.memory ~pos:(addr + 1) ~len

(* {2 The dispatcher} *)

let ok cpu = Cpu.set_ac cpu 3 Word.zero

let fail t cpu msg =
  t.last_error <- Some msg;
  Cpu.set_ac cpu 3 Word.one

let lookup_in_root t name =
  match Directory.open_root t.fs with
  | Error _ -> None
  | Ok root -> (
      match Directory.lookup root name with
      | Ok (Some e) -> Some (root, e)
      | Ok None | Error _ -> None)

let open_file_by_name t name =
  match lookup_in_root t name with
  | None -> None
  | Some (_, e) -> (
      match File.open_leader t.fs e.Directory.entry_file with
      | Ok f -> Some f
      | Error _ -> None)

let service_out_load t cpu =
  match file_of_handle t (Word.to_int (Cpu.ac cpu 0)) with
  | None -> fail t cpu "OutLoad: bad file handle"
  | Some file -> (
      (* The revived world must see AC0 = 0 ("written" false); the world
         that made the call continues with AC0 = 1. *)
      Cpu.set_ac cpu 0 Word.zero;
      Cpu.set_ac cpu 3 Word.zero;
      match World.out_load cpu file with
      | Ok () -> Cpu.set_ac cpu 0 Word.one
      | Error e -> fail t cpu (Format.asprintf "OutLoad: %a" World.pp_error e))

let service_in_load t cpu =
  match file_of_handle t (Word.to_int (Cpu.ac cpu 0)) with
  | None -> fail t cpu "InLoad: bad file handle"
  | Some file -> (
      let len =
        min World.max_message_words
          (Word.to_int (Memory.read t.memory (World.message_area - 1)))
      in
      let message = Memory.read_block t.memory ~pos:World.message_area ~len in
      match World.in_load cpu file ~message with
      | Ok () -> ()
      | Error e -> fail t cpu (Format.asprintf "InLoad: %a" World.pp_error e))

let service_disk_transfer t cpu ~write =
  let da = Word.to_int (Cpu.ac cpu 0) in
  let buffer = Word.to_int (Cpu.ac cpu 1) in
  if da >= Drive.sector_count t.drive then fail t cpu "Disk: address beyond disk"
  else begin
    let addr = Disk_address.of_index da in
    (* The raw transfer bypasses every cache: a read must see any
       delayed write the track buffers hold for the sector, and a raw
       value write (no label, so no generation bump) leaves a buffered
       copy stale. Flush-through before, shed the sector after. *)
    ignore (Alto_fs.Bio.flush (Fs.bio t.fs));
    (if write then Alto_fs.Bio.invalidate (Fs.bio t.fs) addr);
    let value =
      if write then Memory.read_block t.memory ~pos:buffer ~len:Sector.value_words
      else Array.make Sector.value_words Word.zero
    in
    let op =
      if write then { Drive.op_none with Drive.value = Some Drive.Write }
      else { Drive.op_none with Drive.value = Some Drive.Read }
    in
    match Alto_disk.Reliable.run t.drive addr op ~value () with
    | Ok () ->
        if not write then Memory.write_block t.memory ~pos:buffer value;
        ok cpu
    | Error e -> fail t cpu (Format.asprintf "Disk: %a" Drive.pp_error e)
  end

let service_allocate t cpu =
  if t.resident < 13 then fail t cpu "Allocate: system free storage was removed"
  else
    match Zone.allocate t.zone (Word.to_int (Cpu.ac cpu 0)) with
    | addr ->
        Cpu.set_ac cpu 0 (Word.of_int addr);
        ok cpu
    | exception Zone.Out_of_space _ -> fail t cpu "Allocate: out of space"
    | exception Zone.Corrupt msg -> fail t cpu ("Allocate: " ^ msg)

let service_free t cpu =
  if t.resident < 13 then fail t cpu "Free: system free storage was removed"
  else
    match Zone.release t.zone (Word.to_int (Cpu.ac cpu 0)) with
    | () -> ok cpu
    | exception Zone.Corrupt msg -> fail t cpu ("Free: " ^ msg)

let service_open_file t cpu =
  let name = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
  let mode =
    match Word.to_int (Cpu.ac cpu 1) with
    | 0 -> Disk_stream.Read_only
    | 1 -> Disk_stream.Write_only
    | _ -> Disk_stream.Read_write
  in
  match open_file_by_name t name with
  | None -> fail t cpu (Printf.sprintf "OpenFile: no file %S" name)
  | Some file ->
      let stream = Disk_stream.open_file ~mode file in
      Cpu.set_ac cpu 0 (Word.of_int (new_handle t (Stream_obj stream)));
      ok cpu

let with_stream t cpu f =
  match stream_of_handle t (Word.to_int (Cpu.ac cpu 0)) with
  | None -> fail t cpu "bad stream handle"
  | Some stream -> (
      match f stream with
      | () -> ok cpu
      | exception Stream.Not_supported { operation; _ } ->
          fail t cpu ("stream does not support " ^ operation)
      | exception Stream.Closed _ -> fail t cpu "stream is closed"
      | exception Disk_stream.Io msg -> fail t cpu msg
      | exception Invalid_argument msg -> fail t cpu msg)

let service_create_file t cpu =
  let name = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
  match Directory.open_root t.fs with
  | Error e -> fail t cpu (Format.asprintf "CreateFile: %a" Directory.pp_error e)
  | Ok root -> (
      match Directory.lookup root name with
      | Ok (Some _) -> ok cpu (* already there: creation is idempotent *)
      | Error e -> fail t cpu (Format.asprintf "CreateFile: %a" Directory.pp_error e)
      | Ok None -> (
          match File.create t.fs ~name with
          | Error e -> fail t cpu (Format.asprintf "CreateFile: %a" File.pp_error e)
          | Ok file -> (
              match Directory.add root ~name (File.leader_name file) with
              | Ok () -> ok cpu
              | Error e -> fail t cpu (Format.asprintf "CreateFile: %a" Directory.pp_error e))))

let service_delete_file t cpu =
  let name = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
  match lookup_in_root t name with
  | None -> fail t cpu (Printf.sprintf "DeleteFile: no file %S" name)
  | Some (root, e) -> (
      match File.open_leader t.fs e.Directory.entry_file with
      | Error err -> fail t cpu (Format.asprintf "DeleteFile: %a" File.pp_error err)
      | Ok file -> (
          match File.delete file with
          | Error err -> fail t cpu (Format.asprintf "DeleteFile: %a" File.pp_error err)
          | Ok () -> (
              match Directory.remove root name with
              | Ok _ -> ok cpu
              | Error err ->
                  fail t cpu (Format.asprintf "DeleteFile: %a" Directory.pp_error err))))

let dispatch t cpu code =
  match code with
  | 1 -> service_out_load t cpu
  | 2 -> service_in_load t cpu
  | 3 ->
      counter_junta t;
      ok cpu
  | 10 ->
      (* StackFrame: push AC0 words of frame, return its base. *)
      let fp = Word.to_int (Cpu.frame_pointer cpu) - Word.to_int (Cpu.ac cpu 0) in
      Cpu.set_frame_pointer cpu (Word.of_int fp);
      Cpu.set_ac cpu 0 (Word.of_int fp);
      ok cpu
  | 20 -> service_disk_transfer t cpu ~write:false
  | 21 -> service_disk_transfer t cpu ~write:true
  | 22 ->
      (* DiskPatrol: one verify slice during an idle moment; AC0 reports
         how many pages the tick moved to safety. *)
      let report = Patrol.tick t.patrol in
      Cpu.set_ac cpu 0 (Word.of_int report.Patrol.relocated);
      ok cpu
  | 23 -> (
      (* ServerTick: one turn of whatever request server is attached —
         admissions plus activity steps made, reported in AC0. *)
      match t.server_tick with
      | None -> fail t cpu "ServerTick: no server attached"
      | Some tick ->
          Cpu.set_ac cpu 0 (Word.of_int (tick ()));
          ok cpu)
  | 24 -> (
      (* ReplicaTick: one turn of the distributed audit, when this
         machine is enrolled in a replica fleet; AC0 reports progress
         units (packets handled + state-machine steps). *)
      match t.replica_tick with
      | None -> fail t cpu "ReplicaTick: no replica fleet attached"
      | Some tick ->
          Cpu.set_ac cpu 0 (Word.of_int (tick ()));
          ok cpu)
  | 30 -> service_allocate t cpu
  | 31 -> service_free t cpu
  | 40 -> service_open_file t cpu
  | 41 ->
      with_stream t cpu (fun s ->
          s.Stream.close ();
          Hashtbl.remove t.objects (Word.to_int (Cpu.ac cpu 0)))
  | 42 ->
      with_stream t cpu (fun s ->
          match s.Stream.get () with
          | Some item ->
              Cpu.set_ac cpu 0 (Word.of_int item);
              Cpu.set_ac cpu 1 Word.zero
          | None ->
              Cpu.set_ac cpu 0 Word.zero;
              Cpu.set_ac cpu 1 Word.one)
  | 43 -> with_stream t cpu (fun s -> s.Stream.put (Word.to_int (Cpu.ac cpu 1)))
  | 44 -> with_stream t cpu (fun s -> s.Stream.reset ())
  | 45 ->
      with_stream t cpu (fun s ->
          Cpu.set_ac cpu 0 (Word.of_int (s.Stream.control "position" 0)))
  | 46 ->
      with_stream t cpu (fun s ->
          ignore (s.Stream.control "set-position" (Word.to_int (Cpu.ac cpu 1))))
  | 47 ->
      with_stream t cpu (fun s ->
          Cpu.set_ac cpu 0 (Word.of_int (s.Stream.control "length" 0)))
  | 50 ->
      let name = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
      Cpu.set_ac cpu 0 (if lookup_in_root t name <> None then Word.one else Word.zero);
      ok cpu
  | 51 -> service_create_file t cpu
  | 52 -> service_delete_file t cpu
  | 60 -> (
      match (Keyboard.stream t.keyboard).Stream.get () with
      | Some c ->
          Cpu.set_ac cpu 0 (Word.of_int c);
          Cpu.set_ac cpu 1 Word.zero;
          ok cpu
      | None ->
          Cpu.set_ac cpu 0 Word.zero;
          Cpu.set_ac cpu 1 Word.one;
          ok cpu)
  | 61 ->
      Cpu.set_ac cpu 0 (Word.of_int (Keyboard.pending t.keyboard));
      ok cpu
  | 70 ->
      (Display.stream t.display).Stream.put (Word.to_int (Cpu.ac cpu 0));
      ok cpu
  | 71 ->
      let s = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
      Stream.put_string (Display.stream t.display) s;
      ok cpu
  | 82 -> (
      match t.overlay_loader with
      | None -> fail t cpu "LoadOverlay: no loader installed"
      | Some load -> (
          let name = read_vm_string t (Word.to_int (Cpu.ac cpu 0)) in
          match load name with
          | Ok entry ->
              Cpu.set_ac cpu 0 (Word.of_int_exn entry);
              ok cpu
          | Error msg -> fail t cpu ("LoadOverlay: " ^ msg)))
  | 80 ->
      let keep = Word.to_int (Cpu.ac cpu 0) in
      if keep < 1 || keep > Level.count then fail t cpu "Junta: keep out of 1..13"
      else begin
        junta t ~keep;
        ok cpu
      end
  | _ -> fail t cpu (Printf.sprintf "unknown service code %d" code)

let handler t : Vm.handler =
 fun cpu code ->
  if code = Level.removed_trap_code then Vm.Sys_stop Level.removed_trap_code
  else
    match Level.service_by_code code with
    | None ->
        t.last_error <- Some (Printf.sprintf "no such service: SYS %d" code);
        Vm.Sys_stop Level.removed_trap_code
    | Some (level, _service) ->
        if level.Level.index > t.resident then Vm.Sys_stop Level.removed_trap_code
        else if code = 81 then Vm.Sys_stop (Word.to_int (Cpu.ac cpu 0))
        else begin
          dispatch t cpu code;
          Vm.Sys_continue
        end

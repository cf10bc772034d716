(* Diskless operation (§5.2): "The display, keyboard, and
   storage-allocation packages have been assembled to form an operating
   system for use without a disk, used to support diagnostics or other
   programs that depend on network communications rather than on local
   disk storage."

   One machine has the pack and runs a file server. The other has no
   disk at all: it assembles its own tiny resident system from the
   standard packages (display, keyboard, zones — plus the Level table
   for the stub addresses), fetches files over the network, and runs a
   program that was linked on the server — same code-file format, same
   fixup convention, no disk anywhere near it.

   Run with: dune exec examples/diskless.exe *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module Geometry = Alto_disk.Geometry
module Zone = Alto_zones.Zone
module Stream = Alto_streams.Stream
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Level = Alto_os.Level
module System = Alto_os.System
module Loader = Alto_os.Loader

let ok pp = function
  | Ok x -> x
  | Error e -> Format.kasprintf failwith "%a" pp e

(* The program the diskless machine will run, linked on the server. *)
let greeting_program =
  [
    Asm.Label "start";
    Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "msg" ]);
    Asm.Op ("JSR", [ Asm.Ext "WriteString" ]);
    (* Prove the zone package works too: allocate, use, free. *)
    Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 8 ]);
    Asm.Op ("JSR", [ Asm.Ext "Allocate" ]);
    Asm.Op ("MOV", [ Asm.Reg 2; Asm.Reg 0 ]);
    Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 33 ]) (* '!' *);
    Asm.Op ("STX", [ Asm.Reg 1; Asm.Reg 2 ]);
    Asm.Op ("LDX", [ Asm.Reg 0; Asm.Reg 2 ]);
    Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
    Asm.Op ("MOV", [ Asm.Reg 0; Asm.Reg 2 ]);
    Asm.Op ("JSR", [ Asm.Ext "Free" ]);
    Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
    Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
    Asm.Label "msg";
    Asm.String_data "running with no disk at all";
  ]

let () =
  (* {2 The server machine: a pack, a volume, a file server} *)
  let server_system = System.boot ~geometry:Geometry.diablo_31 () in
  ignore
    (ok Loader.pp_error
       (Loader.save_program server_system ~name:"Greet.run"
          (Asm.assemble_exn ~origin:System.user_base greeting_program)));
  (* A message of the day, stored the ordinary way. *)
  let () =
    let fs = System.fs server_system in
    let root = ok Alto_fs.Directory.pp_error (Alto_fs.Directory.open_root fs) in
    let motd = ok Alto_fs.File.pp_error (Alto_fs.File.create fs ~name:"Motd.txt") in
    ok Alto_fs.Directory.pp_error
      (Alto_fs.Directory.add root ~name:"Motd.txt" (Alto_fs.File.leader_name motd));
    ok Alto_fs.File.pp_error
      (Alto_fs.File.write_bytes motd ~pos:0 "welcome to the machine room\n")
  in
  let net = Net.create () in
  let server_station = Net.attach net ~name:"fileserver" in
  let server = File_server.create (System.fs server_system) server_station in
  let pump () = ignore (File_server.tick server : int) in

  (* {2 The diskless machine: memory, processor, display, keyboard, zone} *)
  let memory = Memory.create () in
  let cpu = Cpu.create memory in
  let display = Display.create () in
  let keyboard = Keyboard.create () in
  let zone =
    (* The standard free-storage package over the level-13 region, just
       as the full system would have it. *)
    Zone.format ~name:"diskless free storage" memory ~pos:(Level.base 13)
      ~len:(Level.find 13).Level.size_words
  in
  (* Install only the stubs this configuration supports. *)
  let supported = [ "WriteChar"; "WriteString"; "ReadChar"; "Allocate"; "Free"; "Exit" ] in
  List.iter
    (fun (level : Level.t) ->
      List.iter
        (fun (service : Level.service) ->
          if List.mem service.Level.service_name supported then
            Memory.write_block memory
              ~pos:(Level.service_address service.Level.service_name)
              (Array.of_list (Level.stub_words service)))
        level.Level.services)
    Level.all;
  (* The resident "system" is this handler: display, keyboard, zone. *)
  let handler cpu code =
    match code with
    | 30 -> (
        match Zone.allocate zone (Word.to_int (Cpu.ac cpu 0)) with
        | addr ->
            Cpu.set_ac cpu 0 (Word.of_int addr);
            Cpu.set_ac cpu 3 Word.zero;
            Vm.Sys_continue
        | exception Zone.Out_of_space _ ->
            Cpu.set_ac cpu 3 Word.one;
            Vm.Sys_continue)
    | 31 ->
        Zone.release zone (Word.to_int (Cpu.ac cpu 0));
        Cpu.set_ac cpu 3 Word.zero;
        Vm.Sys_continue
    | 60 -> (
        match (Keyboard.stream keyboard).Stream.get () with
        | Some c ->
            Cpu.set_ac cpu 0 (Word.of_int c);
            Cpu.set_ac cpu 1 Word.zero;
            Vm.Sys_continue
        | None ->
            Cpu.set_ac cpu 1 Word.one;
            Vm.Sys_continue)
    | 70 ->
        (Display.stream display).Stream.put (Word.to_int (Cpu.ac cpu 0));
        Vm.Sys_continue
    | 71 ->
        let addr = Word.to_int (Cpu.ac cpu 0) in
        let len = Word.to_int (Memory.read memory addr) in
        Stream.put_string (Display.stream display)
          (Memory.read_string memory ~pos:(addr + 1) ~len);
        Vm.Sys_continue
    | 81 -> Vm.Sys_stop (Word.to_int (Cpu.ac cpu 0))
    | other -> Vm.Sys_stop other
  in

  (* {2 Fetch and run, over the wire} *)
  let client = Net.attach net ~name:"diskless" in
  Format.printf "diskless machine asks for the listing:@.";
  let names =
    ok File_server.Client.pp_error
      (File_server.Client.listing client ~server:"fileserver" ~pump)
  in
  List.iter (fun n -> Format.printf "  %s@." n) names;

  let motd =
    ok File_server.Client.pp_error
      (File_server.Client.fetch client ~server:"fileserver" ~name:"Motd.txt" ~pump)
  in
  Format.printf "@.Motd.txt over the network: %s@." (String.trim motd);

  let code_bytes =
    ok File_server.Client.pp_error
      (File_server.Client.fetch client ~server:"fileserver" ~name:"Greet.run" ~pump)
  in
  let words =
    Array.init
      (String.length code_bytes / 2)
      (fun i -> Word.of_char_pair code_bytes.[2 * i] code_bytes.[(2 * i) + 1])
  in
  let parsed = ok Loader.pp_error (Loader.parse_code words) in
  Memory.write_block memory ~pos:parsed.Loader.origin parsed.Loader.code;
  List.iter
    (fun (offset, name) ->
      Memory.write memory
        (parsed.Loader.origin + offset)
        (Word.of_int_exn (Level.service_address name)))
    parsed.Loader.fixups;
  Cpu.set_pc cpu (Word.of_int (parsed.Loader.origin + parsed.Loader.entry_offset));
  Cpu.set_frame_pointer cpu (Word.of_int (Level.base 13));
  (match Vm.run ~fuel:100_000 cpu ~handler with
  | Vm.Stopped 0 -> ()
  | stop -> Format.kasprintf failwith "program did not finish: %a" Vm.pp_stop stop);
  Format.printf "@.the fetched program printed: %S@." (Display.contents display);
  Format.printf "zone balance after it exited: %d live blocks@."
    (Zone.stats zone).Zone.live_blocks

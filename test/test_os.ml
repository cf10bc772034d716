(* The assembled system: levels, Junta/CounterJunta, the loader's fixup
   binding, system calls from loaded programs, the world-swap double
   return, and an executive session. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module World = Alto_world.World
module Checkpoint = Alto_world.Checkpoint
module Level = Alto_os.Level
module System = Alto_os.System
module Loader = Alto_os.Loader
module Executive = Alto_os.Executive

let small_geometry = { Geometry.diablo_31 with Geometry.model = "test"; cylinders = 40 }
let world_geometry = { Geometry.diablo_31 with Geometry.model = "test"; cylinders = 80 }

let boot ?(geometry = small_geometry) () = System.boot ~geometry ()

let loader_ok what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what Loader.pp_error e

let assemble items = Asm.assemble_exn ~origin:System.user_base items

let install system name items =
  loader_ok "save_program" (Loader.save_program system ~name (assemble items))

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  go 0

let screen system = Display.contents (System.display system)

(* {2 levels} *)

let test_level_layout () =
  (* Level 1 at the very top; levels contiguous going down; the boundary
     arithmetic consistent. *)
  Alcotest.(check int) "level 1 ends at top of memory" Memory.size (Level.limit 1);
  for i = 2 to Level.count do
    Alcotest.(check int)
      (Printf.sprintf "level %d sits directly below level %d" i (i - 1))
      (Level.base (i - 1))
      (Level.limit i)
  done;
  Alcotest.(check int) "boundary 13 = base of level 13" (Level.base 13)
    (Level.boundary ~keep:13);
  Alcotest.(check int) "keeping nothing owns nothing" 0 (Level.resident_words ~keep:0);
  Alcotest.(check bool) "resident words grow with keep" true
    (Level.resident_words ~keep:13 > Level.resident_words ~keep:1)

let test_service_addresses_fixed () =
  (* Services live at published, fixed addresses inside their levels. *)
  let addr = Level.service_address "OutLoad" in
  Alcotest.(check bool) "inside level 1" true (addr >= Level.base 1 && addr < Level.limit 1);
  let rc = Level.service_address "ReadChar" in
  Alcotest.(check bool) "inside level 10" true (rc >= Level.base 10 && rc < Level.limit 10);
  Alcotest.(check int) "ReadChar exports from level 10" 10 (Level.service_level "ReadChar");
  (match Level.service_by_code 60 with
  | Some (level, s) ->
      Alcotest.(check int) "code 60 is level 10" 10 level.Level.index;
      Alcotest.(check string) "name" "ReadChar" s.Level.service_name
  | None -> Alcotest.fail "code 60 unknown");
  match Level.service_address "NoSuchThing" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown service resolved"

(* {2 loader + system calls} *)

let hello_program =
  [
    Asm.Label "start";
    Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "msg" ]);
    Asm.Op ("JSR", [ Asm.Ext "WriteString" ]);
    Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
    Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
    Asm.Label "msg";
    Asm.String_data "hello from a loaded program";
  ]

let test_loader_runs_hello () =
  let system = boot () in
  let file = install system "Hello.run" hello_program in
  let stop = loader_ok "run" (Loader.run system file) in
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0);
  Alcotest.(check string) "output" "hello from a loaded program" (screen system)

let test_loader_run_by_name () =
  let system = boot () in
  ignore (install system "Hello.run" hello_program);
  let stop = loader_ok "run_by_name" (Loader.run_by_name system "Hello.run") in
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0)

let test_loader_rejects_garbage () =
  let system = boot () in
  let fs = System.fs system in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> Alcotest.fail "root"
  in
  let file =
    match File.create fs ~name:"NotCode." with Ok f -> f | Error _ -> Alcotest.fail "create"
  in
  (match Directory.add root ~name:"NotCode." (File.leader_name file) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "add");
  (match File.write_bytes file ~pos:0 "this is prose, not code" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  match Loader.run system file with
  | Error (Loader.Bad_format _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "prose loaded as code"

let test_loader_unknown_fixup () =
  let system = boot () in
  let file =
    install system "Bad.run"
      [ Asm.Label "start"; Asm.Op ("JSR", [ Asm.Ext "FrobArcana" ]); Asm.Op ("HALT", []) ]
  in
  match Loader.run system file with
  | Error (Loader.Unknown_service "FrobArcana") -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown fixup accepted"

let test_program_writes_and_reads_a_file () =
  (* A loaded program creates a file, writes through a stream, reopens it
     and echoes the contents to the display. *)
  let system = boot () in
  let program =
    [
      Asm.Label "start";
      (* CreateFile "Out.txt" *)
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
      Asm.Op ("JSR", [ Asm.Ext "CreateFile" ]);
      (* handle := OpenFile "Out.txt" write *)
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
      Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 1 ]);
      Asm.Op ("JSR", [ Asm.Ext "OpenFile" ]);
      Asm.Op ("STA", [ Asm.Reg 0; Asm.Lab "handle" ]);
      (* put 'H', 'I' *)
      Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 72 ]);
      Asm.Op ("JSR", [ Asm.Ext "StreamPut" ]);
      Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
      Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 73 ]);
      Asm.Op ("JSR", [ Asm.Ext "StreamPut" ]);
      Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
      Asm.Op ("JSR", [ Asm.Ext "CloseStream" ]);
      (* reopen for read, echo both bytes *)
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
      Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "OpenFile" ]);
      Asm.Op ("STA", [ Asm.Reg 0; Asm.Lab "handle" ]);
      Asm.Label "loop";
      Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
      Asm.Op ("JSR", [ Asm.Ext "StreamGet" ]);
      Asm.Op ("JNZ", [ Asm.Reg 1; Asm.Lab "done" ]);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      Asm.Op ("JMP", [ Asm.Lab "loop" ]);
      Asm.Label "done";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
      Asm.Label "handle";
      Asm.Word_data 0;
      Asm.Label "fname";
      Asm.String_data "Out.txt";
    ]
  in
  let file = install system "Writer.run" program in
  let stop = loader_ok "run" (Loader.run system file) in
  (match System.last_error system with
  | Some msg -> Alcotest.failf "service error: %s (stop %a)" msg Vm.pp_stop stop
  | None -> ());
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0);
  Alcotest.(check string) "echoed" "HI" (screen system);
  (* And the file really exists on disk. *)
  let root =
    match Directory.open_root (System.fs system) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "root"
  in
  match Directory.lookup root "Out.txt" with
  | Ok (Some _) -> ()
  | Ok None | Error _ -> Alcotest.fail "Out.txt not catalogued"

let test_program_allocates_from_system_zone () =
  let system = boot () in
  let program =
    [
      Asm.Label "start";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 16 ]);
      Asm.Op ("JSR", [ Asm.Ext "Allocate" ]);
      (* write into the block, read back, print as a char *)
      Asm.Op ("MOV", [ Asm.Reg 2; Asm.Reg 0 ]);
      Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 65 ]);
      Asm.Op ("STX", [ Asm.Reg 1; Asm.Reg 2 ]);
      Asm.Op ("LDX", [ Asm.Reg 0; Asm.Reg 2 ]);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      Asm.Op ("MOV", [ Asm.Reg 0; Asm.Reg 2 ]);
      Asm.Op ("JSR", [ Asm.Ext "Free" ]);
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
    ]
  in
  let file = install system "Alloc.run" program in
  let stop = loader_ok "run" (Loader.run system file) in
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0);
  Alcotest.(check string) "wrote through the zone" "A" (screen system);
  Alcotest.(check int) "no leak" 0
    Alto_zones.Zone.((stats (System.system_zone system)).live_blocks)

let test_overlays () =
  (* §5.2: programs short of memory are "organized in overlays". The
     main program loads a segment on demand through the LoadOverlay
     service and calls into it. *)
  let system = boot () in
  let overlay_base = System.user_base + 2048 in
  let overlay =
    Asm.assemble_exn ~origin:overlay_base
      [
        Asm.Label "start";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm (Char.code 'O') ]);
        Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
        Asm.Op ("RET", []);
      ]
  in
  ignore (loader_ok "save overlay" (Loader.save_program system ~name:"Seg.ovl" overlay));
  let main_program =
    [
      Asm.Label "start";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm (Char.code 'M') ]);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      (* Pull the overlay in and call it twice. *)
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "ovlname" ]);
      Asm.Op ("JSR", [ Asm.Ext "LoadOverlay" ]);
      Asm.Op ("STA", [ Asm.Reg 0; Asm.Lab "entry" ]);
      Asm.Op ("JSRI", [ Asm.Reg 0 ]);
      Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "entry" ]);
      Asm.Op ("JSRI", [ Asm.Reg 0 ]);
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
      Asm.Label "entry";
      Asm.Word_data 0;
      Asm.Label "ovlname";
      Asm.String_data "Seg.ovl";
    ]
  in
  let file = install system "Main.run" main_program in
  let stop = loader_ok "run" (Loader.run system file) in
  (match System.last_error system with
  | Some msg -> Alcotest.failf "service error: %s" msg
  | None -> ());
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0);
  Alcotest.(check string) "overlay ran twice" "MOO" (screen system);
  (* The overlay landed at its recorded origin, above the main code. *)
  Alcotest.(check int) "overlay at its origin"
    (Word.to_int (List.hd (Alto_machine.Instr.encode (Alto_machine.Instr.Ldi (0, 0)))))
    (Word.to_int (Memory.read (System.memory system) overlay_base))

(* {2 junta} *)

let test_junta_reclaims_and_traps () =
  let system = boot () in
  let boundary_before = System.user_boundary system in
  System.junta system ~keep:7;
  Alcotest.(check int) "resident level" 7 (System.resident_level system);
  Alcotest.(check bool) "more memory for the user" true
    (System.user_boundary system > boundary_before);
  (* The reclaimed region is filled with the removed-service trap. *)
  let probe = Level.base 11 in
  Alcotest.(check int) "trap word" 0x19FF
    (Word.to_int (Memory.read (System.memory system) probe));
  (* A program calling a removed service stops cleanly. *)
  let program =
    [ Asm.Label "start"; Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]); Asm.Op ("HALT", []) ]
  in
  let file = install system "Shout.run" program in
  let stop = loader_ok "run" (Loader.run system file) in
  Alcotest.(check bool) "removed-service stop" true
    (stop = Vm.Stopped Level.removed_trap_code);
  (* Zone services above the cut refuse too. *)
  let program2 =
    [
      Asm.Label "start";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 4 ]);
      Asm.Op ("JSR", [ Asm.Ext "Allocate" ]);
      Asm.Op ("HALT", []);
    ]
  in
  System.counter_junta system;
  System.junta system ~keep:12;
  let file2 = install system "Alloc2.run" program2 in
  let stop2 = loader_ok "run" (Loader.run system file2) in
  Alcotest.(check bool) "halted with error flag" true (stop2 = Vm.Halted);
  Alcotest.(check bool) "allocate refused without level 13" true
    (System.last_error system <> None)

let test_counter_junta_restores () =
  let system = boot () in
  Keyboard.feed (System.keyboard system) "typed ahead";
  System.junta system ~keep:1;
  Alcotest.(check int) "only level 1" 1 (System.resident_level system);
  (* Removing level 2 dropped the type-ahead. *)
  Alcotest.(check int) "type-ahead lost" 0 (Keyboard.pending (System.keyboard system));
  System.counter_junta system;
  Alcotest.(check int) "everything back" 13 (System.resident_level system);
  (* Services work again. *)
  let file = install system "Hello.run" hello_program in
  let stop = loader_ok "run" (Loader.run system file) in
  Alcotest.(check bool) "clean exit after restore" true (stop = Vm.Stopped 0)

let test_junta_keeps_typeahead_above_level_2 () =
  let system = boot () in
  Keyboard.feed (System.keyboard system) "precious";
  System.junta system ~keep:5;
  Alcotest.(check int) "type-ahead survives" 8 (Keyboard.pending (System.keyboard system))

let test_resident_memory_accounting () =
  (* E7's underlying numbers: memory resident after each junta level. *)
  let expected_full = Level.resident_words ~keep:13 in
  Alcotest.(check bool) "full system under 16K words" true (expected_full < 16384);
  let rec strictly_increasing k =
    k > 13
    || (Level.resident_words ~keep:k > Level.resident_words ~keep:(k - 1)
       && strictly_increasing (k + 1))
  in
  Alcotest.(check bool) "each level costs memory" true (strictly_increasing 2)

(* {2 world swap through the system: the double return} *)

let test_outload_double_return () =
  let system = boot ~geometry:world_geometry () in
  let fs = System.fs system in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> Alcotest.fail "root"
  in
  let state =
    match Checkpoint.state_file fs ~directory:root ~name:"Prog.state" with
    | Ok f -> f
    | Error e -> Alcotest.failf "state file: %a" Checkpoint.pp_error e
  in
  let handle = System.register_file system state in
  (* The program OutLoads; on the written return it prints W, on the
     revived return it prints R then the first message word as a char. *)
  let program =
    [
      Asm.Label "start";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm handle ]);
      Asm.Op ("JSR", [ Asm.Ext "OutLoad" ]);
      Asm.Op ("JZ", [ Asm.Reg 0; Asm.Lab "revived" ]);
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 87 ]) (* 'W' *);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
      Asm.Label "revived";
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 82 ]) (* 'R' *);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      (* AC1 points at the delivered message; print its first word. *)
      Asm.Op ("LDX", [ Asm.Reg 0; Asm.Reg 1 ]);
      Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
      Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
      Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
    ]
  in
  let file = install system "Swapper.run" program in
  let stop = loader_ok "first run" (Loader.run system file) in
  Alcotest.(check bool) "clean exit" true (stop = Vm.Stopped 0);
  Alcotest.(check string) "written path" "W" (screen system);
  (* Now revive the saved world with a message, host-side, and continue
     interpreting: OutLoad returns for the second time. *)
  (Display.stream (System.display system)).Alto_streams.Stream.reset ();
  (match World.in_load (System.cpu system) state ~message:[| Word.of_int 33 |] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in_load: %a" World.pp_error e);
  let stop2 =
    Vm.run ~fuel:100_000 (System.cpu system) ~handler:(System.handler system)
  in
  Alcotest.(check bool) "clean exit from revived world" true (stop2 = Vm.Stopped 0);
  Alcotest.(check string) "revived path, message delivered" "R!" (screen system)

(* {2 the executive} *)

let feed_commands system commands =
  Keyboard.feed (System.keyboard system) (String.concat "\n" commands ^ "\n")

let test_executive_session () =
  let system = boot () in
  feed_commands system
    [ "put Note.txt remember the milk"; "type Note.txt"; "ls"; "quit" ];
  let outcome = Executive.run system in
  Alcotest.(check int) "four commands" 4 outcome.Executive.commands_executed;
  Alcotest.(check bool) "quit" true outcome.Executive.quit;
  let text = screen system in
  let contains needle = contains_sub text needle in
  Alcotest.(check bool) "typed back" true (contains "remember the milk");
  Alcotest.(check bool) "listing shows the file" true (contains "Note.txt")

let test_executive_records_command_file () =
  let system = boot () in
  feed_commands system [ "put A.txt alpha"; "quit" ];
  ignore (Executive.run system);
  let fs = System.fs system in
  let root =
    match Directory.open_root fs with Ok r -> r | Error _ -> Alcotest.fail "root"
  in
  match Directory.lookup root Executive.command_file_name with
  | Ok (Some e) -> (
      match File.open_leader fs e.Directory.entry_file with
      | Error _ -> Alcotest.fail "open Com.cm"
      | Ok f -> (
          match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
          | Ok bytes ->
              (* The last command recorded was "quit". *)
              Alcotest.(check string) "command recorded" "quit" (Bytes.to_string bytes)
          | Error _ -> Alcotest.fail "read Com.cm"))
  | Ok None | Error _ -> Alcotest.fail "Com.cm missing"

let test_executive_runs_programs_and_typeahead () =
  let system = boot () in
  ignore (install system "Hello.run" hello_program);
  (* All input arrives before anything runs: the commands after the
     program invocation are type-ahead interpreted later (§5.2). *)
  feed_commands system [ "Hello.run"; "ls"; "quit" ];
  let outcome = Executive.run system in
  Alcotest.(check int) "three commands" 3 outcome.Executive.commands_executed;
  let text = screen system in
  let contains needle = contains_sub text needle in
  Alcotest.(check bool) "program ran" true (contains "hello from a loaded program");
  Alcotest.(check bool) "type-ahead command ran after" true (contains "Hello.run")

let test_executive_junta_command () =
  let system = boot () in
  feed_commands system [ "junta 7"; "levels"; "counterjunta"; "quit" ];
  ignore (Executive.run system);
  Alcotest.(check int) "restored" 13 (System.resident_level system);
  let contains needle = contains_sub (screen system) needle in
  Alcotest.(check bool) "levels listed removal" true (contains "removed");
  Alcotest.(check bool) "restore announced" true (contains "all levels restored")

let test_executive_copy_and_compile () =
  let system = boot () in
  feed_commands system
    [
      "put Src.bcpl let main() be { writestring(\"compiled at the exec\"); resultis 0; }";
      "compile Src.bcpl Out.run";
      "Out.run";
      "copy Src.bcpl Backup.bcpl";
      "type Backup.bcpl";
      "quit";
    ];
  ignore (Executive.run system);
  let text = screen system in
  let contains needle = contains_sub text needle in
  Alcotest.(check bool) "compiled" true (contains "compiled to Out.run");
  Alcotest.(check bool) "program output" true (contains "compiled at the exec");
  Alcotest.(check bool) "copy readable" true (contains "let main() be")

let test_program_reads_its_arguments_from_com_cm () =
  (* §4: "a command scanner may write the command string typed by the
     user on a file with a standard name, and may then invoke a program
     that will execute the command." The program reads its own command
     line back from Com.cm. *)
  let system = boot () in
  let echo_args =
    Asm.assemble_exn ~origin:System.user_base
      [
        Asm.Label "start";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "cmname" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 0 ]);
        Asm.Op ("JSR", [ Asm.Ext "OpenFile" ]);
        Asm.Op ("STA", [ Asm.Reg 0; Asm.Lab "handle" ]);
        Asm.Label "loop";
        Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "handle" ]);
        Asm.Op ("JSR", [ Asm.Ext "StreamGet" ]);
        Asm.Op ("JNZ", [ Asm.Reg 1; Asm.Lab "done" ]);
        Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]);
        Asm.Op ("JMP", [ Asm.Lab "loop" ]);
        Asm.Label "done";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
        Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
        Asm.Label "handle";
        Asm.Word_data 0;
        Asm.Label "cmname";
        Asm.String_data "Com.cm";
      ]
  in
  ignore (loader_ok "save" (Loader.save_program system ~name:"EchoArgs.run" echo_args));
  feed_commands system [ "run EchoArgs.run"; "quit" ];
  ignore (Executive.run system);
  (* The program saw its own invocation line. *)
  Alcotest.(check bool) "saw its command line" true
    (contains_sub (screen system) "run EchoArgs.run")

let test_executive_assemble_command () =
  let system = boot () in
  feed_commands system
    [
      "put Src.asm start: LDI AC0, msg\031 JSR @WriteString\031 LDI AC0, 0\031 JSR @Exit\031msg: .string \"from the assembler\"";
      "quit";
    ];
  ignore (Executive.run system);
  (* put is line-oriented; restore the newlines smuggled as \031. *)
  (let fs = System.fs system in
   match Directory.open_root fs with
   | Error _ -> Alcotest.fail "root"
   | Ok root -> (
       match Directory.lookup root "Src.asm" with
       | Ok (Some e) -> (
           match File.open_leader fs e.Directory.entry_file with
           | Ok f -> (
               match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
               | Ok b ->
                   let fixed =
                     String.map
                       (fun c -> if c = '\031' then '\n' else c)
                       (Bytes.to_string b)
                   in
                   ignore (File.write_bytes f ~pos:0 fixed)
               | Error _ -> Alcotest.fail "read")
           | Error _ -> Alcotest.fail "open")
       | Ok None | Error _ -> Alcotest.fail "missing"));
  feed_commands system [ "assemble Src.asm Out.run"; "Out.run"; "quit" ];
  ignore (Executive.run system);
  Alcotest.(check bool) "assembled and ran" true
    (contains_sub (screen system) "from the assembler")

let test_executive_dump_command () =
  let system = boot () in
  ignore (install system "Hello.run" hello_program);
  feed_commands system [ "dump Hello.run"; "quit" ];
  ignore (Executive.run system);
  let text = screen system in
  Alcotest.(check bool) "shows the entry" true (contains_sub text "<- entry");
  Alcotest.(check bool) "disassembles the call" true (contains_sub text "JSR");
  Alcotest.(check bool) "data words shown" true (contains_sub text ".word")

let test_executive_scavenge_command () =
  let system = boot () in
  feed_commands system [ "put Keep.txt data"; "scavenge"; "type Keep.txt"; "quit" ];
  ignore (Executive.run system);
  let contains needle = contains_sub (screen system) needle in
  Alcotest.(check bool) "scavenge reported" true (contains "scanned");
  Alcotest.(check bool) "file survived and reads" true (contains "data")

(* The cure [fsck] prescribes must work: a catalogued page whose data
   surface died is a violation, and one [scavenge] marks the sector bad
   and truncates the file, so the next check finds no broken promise.
   The dead page lies past the few slices the idle patrol verifies
   between commands, so the cure is the scavenge's own. *)
let test_executive_scavenge_cures_a_dead_surface () =
  let system = boot () in
  let fs = System.fs system in
  let root =
    match Directory.open_root fs with
    | Ok r -> r
    | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  in
  let file =
    match File.create fs ~name:"Dead.dat" with
    | Ok f -> f
    | Error e -> Alcotest.failf "create: %a" File.pp_error e
  in
  (match File.write_bytes file ~pos:0 (String.make (120 * 512) 'd') with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" File.pp_error e);
  (match Directory.add root ~name:"Dead.dat" (File.leader_name file) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %a" Directory.pp_error e);
  (match Fs.flush fs with Ok () -> () | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  let page =
    match File.page_name file 120 with
    | Ok fn -> fn.Alto_fs.Page.addr
    | Error e -> Alcotest.failf "page_name: %a" File.pp_error e
  in
  Alcotest.(check bool) "beyond four patrol slices" true
    (Alto_disk.Disk_address.to_index page > 4 * 24);
  Alto_disk.Drive.set_value_unreadable (System.drive system) page true;
  feed_commands system [ "fsck"; "scavenge"; "fsck"; "quit" ];
  ignore (Executive.run system);
  let verdicts =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | "fsck:" :: "verdict" :: verdict -> Some (String.concat " " verdict)
        | _ -> None)
      (String.split_on_char '\n' (screen system))
  in
  match verdicts with
  | [ before; after ] ->
      Alcotest.(check string) "the dead page is a violation" "damaged" before;
      if String.equal after "damaged" then
        Alcotest.failf "the scavenge left the violation:@.%s" (screen system)
  | _ -> Alcotest.failf "expected two verdicts:@.%s" (screen system)

let test_executive_trace_command () =
  let system = boot () in
  (* [scavenge] is guaranteed to leave events in the trace ring; [put]
     exercises the disk counters too. The window must be generous: the
     patrol slice that runs between commands may refresh a link hint,
     which stages a twin page and so adds a few disk events of its own. *)
  feed_commands system
    [ "put T.txt traced"; "scavenge"; "trace 12"; "trace zero"; "quit" ];
  ignore (Executive.run system);
  let contains needle = contains_sub (screen system) needle in
  Alcotest.(check bool) "events shown with timestamps" true (contains "us ");
  Alcotest.(check bool) "scavenger report event surfaced" true
    (contains "scavenger.");
  Alcotest.(check bool) "bad count rejected" true
    (contains "trace: expected a positive event count")

let () =
  Alcotest.run "alto_os"
    [
      ( "levels",
        [
          ("layout", `Quick, test_level_layout);
          ("service addresses", `Quick, test_service_addresses_fixed);
          ("resident memory accounting", `Quick, test_resident_memory_accounting);
        ] );
      ( "loader",
        [
          ("runs hello", `Quick, test_loader_runs_hello);
          ("run by name", `Quick, test_loader_run_by_name);
          ("rejects garbage", `Quick, test_loader_rejects_garbage);
          ("unknown fixup", `Quick, test_loader_unknown_fixup);
          ("overlays", `Quick, test_overlays);
        ] );
      ( "services",
        [
          ("file IO from a program", `Quick, test_program_writes_and_reads_a_file);
          ("zone allocation from a program", `Quick, test_program_allocates_from_system_zone);
        ] );
      ( "junta",
        [
          ("reclaims and traps", `Quick, test_junta_reclaims_and_traps);
          ("counter-junta restores", `Quick, test_counter_junta_restores);
          ("type-ahead kept above level 2", `Quick, test_junta_keeps_typeahead_above_level_2);
        ] );
      ("world", [ ("OutLoad double return", `Quick, test_outload_double_return) ]);
      ( "executive",
        [
          ("session", `Quick, test_executive_session);
          ("records Com.cm", `Quick, test_executive_records_command_file);
          ("runs programs, type-ahead", `Quick, test_executive_runs_programs_and_typeahead);
          ("junta command", `Quick, test_executive_junta_command);
          ("copy and compile commands", `Quick, test_executive_copy_and_compile);
          ("program reads Com.cm", `Quick, test_program_reads_its_arguments_from_com_cm);
          ("assemble command", `Quick, test_executive_assemble_command);
          ("dump command", `Quick, test_executive_dump_command);
          ("scavenge command", `Quick, test_executive_scavenge_command);
          ("scavenge cures a dead surface", `Quick, test_executive_scavenge_cures_a_dead_surface);
          ("trace command", `Quick, test_executive_trace_command);
        ] );
    ]

(* Machine substrate: words, memory, CPU, VM, assembler. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Instr = Alto_machine.Instr
module Asm = Alto_machine.Asm
module Sim_clock = Alto_machine.Sim_clock

(* {2 words} *)

let test_word_wrap () =
  Alcotest.(check int) "add wraps" 0 (Word.to_int (Word.add (Word.of_int 0xffff) Word.one));
  Alcotest.(check int) "sub wraps" 0xffff (Word.to_int (Word.sub Word.zero Word.one));
  Alcotest.(check int) "of_int truncates" 0x2345 (Word.to_int (Word.of_int 0x12345))

let test_word_signed () =
  Alcotest.(check int) "negative" (-1) (Word.to_signed (Word.of_int 0xffff));
  Alcotest.(check int) "min" (-32768) (Word.to_signed (Word.of_int 0x8000));
  Alcotest.(check int) "positive" 32767 (Word.to_signed (Word.of_int 0x7fff))

let test_word_bytes () =
  let w = Word.of_bytes ~high:0xAB ~low:0xCD in
  Alcotest.(check int) "high" 0xAB (Word.high_byte w);
  Alcotest.(check int) "low" 0xCD (Word.low_byte w);
  Alcotest.check_raises "range" (Invalid_argument "Word.of_bytes: byte out of range")
    (fun () -> ignore (Word.of_bytes ~high:256 ~low:0))

let test_string_roundtrip () =
  let check s =
    let ws = Word.words_of_string s in
    Alcotest.(check string) ("roundtrip " ^ s) s
      (Word.string_of_words ws ~len:(String.length s))
  in
  check "";
  check "a";
  check "ab";
  check "hello, alto!"

let prop_string_roundtrip =
  QCheck.Test.make ~name:"words_of_string roundtrips" ~count:200
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s ->
      String.equal s
        (Word.string_of_words (Word.words_of_string s) ~len:(String.length s)))

let prop_word_add_commutes =
  QCheck.Test.make ~name:"word add commutes" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (a, b) ->
      Word.equal (Word.add (Word.of_int a) (Word.of_int b))
        (Word.add (Word.of_int b) (Word.of_int a)))

(* {2 memory} *)

let test_memory_bounds () =
  let m = Memory.create () in
  Memory.write m 0 (Word.of_int 42);
  Memory.write m (Memory.size - 1) (Word.of_int 43);
  Alcotest.(check int) "first" 42 (Word.to_int (Memory.read m 0));
  Alcotest.(check int) "last" 43 (Word.to_int (Memory.read m (Memory.size - 1)));
  Alcotest.check_raises "past end" (Memory.Invalid_address Memory.size) (fun () ->
      ignore (Memory.read m Memory.size));
  Alcotest.check_raises "negative" (Memory.Invalid_address (-1)) (fun () ->
      ignore (Memory.read m (-1)))

let test_memory_blocks () =
  let m = Memory.create () in
  let block = Array.init 10 (fun i -> Word.of_int (i * i)) in
  Memory.write_block m ~pos:100 block;
  Alcotest.(check bool) "read back" true (Memory.read_block m ~pos:100 ~len:10 = block);
  Memory.fill m ~pos:100 ~len:5 (Word.of_int 7);
  Alcotest.(check int) "filled" 7 (Word.to_int (Memory.read m 102));
  Alcotest.(check int) "not filled" 25 (Word.to_int (Memory.read m 105))

let test_memory_snapshot () =
  let m = Memory.create () in
  Memory.write m 500 (Word.of_int 1);
  let snap = Memory.copy m in
  Memory.write m 500 (Word.of_int 2);
  Memory.write m 501 (Word.of_int 3);
  Alcotest.(check int) "diff count" 2 (Memory.words_differing m snap);
  Memory.restore m ~from:snap;
  Alcotest.(check bool) "restored" true (Memory.equal m snap)

let test_memory_strings () =
  let m = Memory.create () in
  Memory.write_string m ~pos:10 "alto os";
  Alcotest.(check string) "read_string" "alto os" (Memory.read_string m ~pos:10 ~len:7)

(* {2 sim clock} *)

let test_clock () =
  let c = Sim_clock.create () in
  Sim_clock.advance_us c 1500;
  Sim_clock.advance_us c 500;
  Alcotest.(check int) "now" 2000 (Sim_clock.now_us c);
  Alcotest.(check (float 1e-9)) "seconds" 0.002 (Sim_clock.now_seconds c);
  Alcotest.check_raises "negative" (Invalid_argument "Sim_clock.advance_us: negative duration")
    (fun () -> Sim_clock.advance_us c (-1));
  Sim_clock.reset c;
  Alcotest.(check int) "reset" 0 (Sim_clock.now_us c)

(* {2 instruction encode/decode} *)

let all_instrs =
  [
    Instr.Halt;
    Instr.Ldi (0, 1234);
    Instr.Lda (1, 4096);
    Instr.Sta (2, 65535);
    Instr.Ldx (3, 0);
    Instr.Stx (1, 2);
    Instr.Mov (0, 3);
    Instr.Add (1, 1);
    Instr.Sub (2, 0);
    Instr.And_ (3, 1);
    Instr.Or_ (0, 2);
    Instr.Xor_ (1, 3);
    Instr.Shl (2, 15);
    Instr.Shr (3, 1);
    Instr.Addi (0, 0xffff);
    Instr.Jmp 77;
    Instr.Jz (1, 0);
    Instr.Jnz (2, 500);
    Instr.Jlt (3, 600);
    Instr.Jsr 700;
    Instr.Jsri 2;
    Instr.Ret;
    Instr.Push 0;
    Instr.Pop 3;
    Instr.Sys 255;
  ]

let test_instr_roundtrip () =
  List.iter
    (fun instr ->
      let words = Array.of_list (Instr.encode instr) in
      match Instr.decode ~fetch:(fun i -> words.(i)) ~pc:0 with
      | Ok (decoded, next) ->
          Alcotest.(check bool)
            (Format.asprintf "roundtrip %a" Instr.pp instr)
            true (decoded = instr);
          Alcotest.(check int) "size" (Instr.size instr) next
      | Error msg -> Alcotest.fail msg)
    all_instrs

let test_instr_rejects_bad () =
  Alcotest.check_raises "bad register" (Invalid_argument "Instr: register must be 0-3")
    (fun () -> ignore (Instr.encode (Instr.Push 4)));
  (match Instr.decode ~fetch:(fun _ -> Word.of_int 0xFF00) ~pc:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded an invalid opcode")

(* {2 VM} *)

let no_sys _ _ = Vm.Sys_continue

let run_program ?(fuel = 10_000) ?(handler = no_sys) items =
  let program = Asm.assemble_exn ~origin:100 items in
  let memory = Memory.create () in
  Memory.write_block memory ~pos:100 program.Asm.code;
  let cpu = Cpu.create memory in
  Cpu.set_pc cpu (Word.of_int program.Asm.entry);
  Cpu.set_frame_pointer cpu (Word.of_int 0xF000);
  let stop = Vm.run ~fuel cpu ~handler in
  (cpu, stop)

let test_vm_arithmetic () =
  let cpu, stop =
    run_program
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 40 ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 2 ]);
        Asm.Op ("ADD", [ Asm.Reg 0; Asm.Reg 1 ]);
        Asm.Op ("HALT", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "sum" 42 (Word.to_int (Cpu.ac cpu 0))

let test_vm_loop () =
  (* Sum 1..10 with a countdown loop. *)
  let cpu, stop =
    run_program
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 10 ]);
        Asm.Label "loop";
        Asm.Op ("JZ", [ Asm.Reg 1; Asm.Lab "done" ]);
        Asm.Op ("ADD", [ Asm.Reg 0; Asm.Reg 1 ]);
        Asm.Op ("ADDI", [ Asm.Reg 1; Asm.Imm 0xffff ]);
        Asm.Op ("JMP", [ Asm.Lab "loop" ]);
        Asm.Label "done";
        Asm.Op ("HALT", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "sum 1..10" 55 (Word.to_int (Cpu.ac cpu 0))

let test_vm_subroutine () =
  (* Call a doubling subroutine through JSR/RET. *)
  let cpu, stop =
    run_program
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 21 ]);
        Asm.Op ("JSR", [ Asm.Lab "double" ]);
        Asm.Op ("HALT", []);
        Asm.Label "double";
        Asm.Op ("ADD", [ Asm.Reg 0; Asm.Reg 0 ]);
        Asm.Op ("RET", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "doubled" 42 (Word.to_int (Cpu.ac cpu 0))

let test_vm_memory_and_stack () =
  let cpu, stop =
    run_program
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 7 ]);
        Asm.Op ("STA", [ Asm.Reg 0; Asm.Imm 2000 ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 2000 ]);
        Asm.Op ("LDX", [ Asm.Reg 2; Asm.Reg 1 ]);
        Asm.Op ("PUSH", [ Asm.Reg 2 ]);
        Asm.Op ("LDI", [ Asm.Reg 2; Asm.Imm 0 ]);
        Asm.Op ("POP", [ Asm.Reg 3 ]);
        Asm.Op ("HALT", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "through memory and stack" 7 (Word.to_int (Cpu.ac cpu 3))

let test_vm_sys_trap () =
  let seen = ref [] in
  let handler cpu code =
    seen := code :: !seen;
    if code = 9 then Vm.Sys_stop 99
    else begin
      Cpu.set_ac cpu 0 (Word.of_int (code * 2));
      Vm.Sys_continue
    end
  in
  let cpu, stop =
    run_program ~handler
      [ Asm.Op ("SYS", [ Asm.Imm 5 ]); Asm.Op ("SYS", [ Asm.Imm 9 ]); Asm.Op ("HALT", []) ]
  in
  Alcotest.(check bool) "stopped by handler" true (stop = Vm.Stopped 99);
  Alcotest.(check (list int)) "traps seen" [ 9; 5 ] !seen;
  Alcotest.(check int) "handler wrote register" 10 (Word.to_int (Cpu.ac cpu 0))

let test_vm_fault_and_fuel () =
  let _, stop = run_program [ Asm.Word_data 0xFF00 ] in
  (match stop with Vm.Fault _ -> () | _ -> Alcotest.fail "expected a fault");
  let _, stop =
    run_program ~fuel:10 [ Asm.Label "spin"; Asm.Op ("JMP", [ Asm.Lab "spin" ]) ]
  in
  Alcotest.(check bool) "out of fuel" true (stop = Vm.Out_of_fuel)

(* {2 assembler} *)

let test_asm_labels_and_data () =
  let program =
    Asm.assemble_exn ~origin:10
      [
        Asm.Op ("JMP", [ Asm.Lab "start" ]);
        Asm.Label "datum";
        Asm.Word_data 1234;
        Asm.Label "start";
        Asm.Op ("LDA", [ Asm.Reg 0; Asm.Lab "datum" ]);
        Asm.Op ("HALT", []);
      ]
  in
  Alcotest.(check int) "entry at start label" 13 program.Asm.entry;
  Alcotest.(check int) "datum address" 12 (List.assoc "datum" program.Asm.symbols)

let test_asm_extern_fixups () =
  let program =
    Asm.assemble_exn
      [ Asm.Op ("JSR", [ Asm.Ext "WriteChar" ]); Asm.Op ("HALT", []) ]
  in
  Alcotest.(check (list (pair int string))) "fixup recorded"
    [ (1, "WriteChar") ]
    program.Asm.fixups;
  Alcotest.(check int) "hole is zero" 0 (Word.to_int program.Asm.code.(1))

let test_asm_errors () =
  let expect_error items =
    match Asm.assemble items with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "assembled a bad program"
  in
  expect_error [ Asm.Op ("FROB", []) ];
  expect_error [ Asm.Op ("JMP", [ Asm.Lab "nowhere" ]) ];
  expect_error [ Asm.Label "x"; Asm.Label "x" ];
  expect_error [ Asm.Op ("MOV", [ Asm.Reg 0 ]) ];
  expect_error [ Asm.Op ("MOV", [ Asm.Reg 0; Asm.Imm 3 ]) ]

let test_asm_string_data () =
  let program = Asm.assemble_exn [ Asm.String_data "hi!" ] in
  Alcotest.(check int) "length word" 3 (Word.to_int program.Asm.code.(0));
  Alcotest.(check int) "packed" (Word.to_int (Word.of_char_pair 'h' 'i'))
    (Word.to_int program.Asm.code.(1))

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let qcheck tests =
  List.map
    (fun t ->
      let rand = Random.State.make [| qcheck_seed |] in
      QCheck_alcotest.to_alcotest ~verbose:false ~rand t)
    tests

let () =
  Alcotest.run "alto_machine"
    [
      ( "word",
        [
          ("wraparound", `Quick, test_word_wrap);
          ("signed view", `Quick, test_word_signed);
          ("byte packing", `Quick, test_word_bytes);
          ("string packing", `Quick, test_string_roundtrip);
        ]
        @ qcheck [ prop_string_roundtrip; prop_word_add_commutes ] );
      ( "memory",
        [
          ("bounds", `Quick, test_memory_bounds);
          ("blocks", `Quick, test_memory_blocks);
          ("snapshot/restore", `Quick, test_memory_snapshot);
          ("strings", `Quick, test_memory_strings);
        ] );
      ("clock", [ ("advance/reset", `Quick, test_clock) ]);
      ( "instr",
        [
          ("roundtrip", `Quick, test_instr_roundtrip);
          ("rejects bad", `Quick, test_instr_rejects_bad);
        ] );
      ( "vm",
        [
          ("arithmetic", `Quick, test_vm_arithmetic);
          ("loop", `Quick, test_vm_loop);
          ("subroutine", `Quick, test_vm_subroutine);
          ("memory and stack", `Quick, test_vm_memory_and_stack);
          ("sys trap", `Quick, test_vm_sys_trap);
          ("fault and fuel", `Quick, test_vm_fault_and_fuel);
        ] );
      ( "asm",
        [
          ("labels and data", `Quick, test_asm_labels_and_data);
          ("extern fixups", `Quick, test_asm_extern_fixups);
          ("errors", `Quick, test_asm_errors);
          ("string data", `Quick, test_asm_string_data);
        ] );
    ]

(* Deeper machine-level coverage: the frame-pointer and arithmetic
   instructions added for the compiler, instruction-set properties, and
   the level table's structural invariants. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Instr = Alto_machine.Instr
module Asm = Alto_machine.Asm
module Level = Alto_os.Level

let no_sys _ _ = Vm.Sys_continue

let run_items ?(fuel = 100_000) items =
  let program = Asm.assemble_exn ~origin:100 items in
  let memory = Memory.create () in
  Memory.write_block memory ~pos:100 program.Asm.code;
  let cpu = Cpu.create memory in
  Cpu.set_pc cpu (Word.of_int program.Asm.entry);
  Cpu.set_frame_pointer cpu (Word.of_int 0xF000);
  (cpu, Vm.run ~fuel cpu ~handler:no_sys)

(* {2 the newer instructions} *)

let test_mfp_mtf () =
  let cpu, stop =
    run_items
      [
        Asm.Op ("MFP", [ Asm.Reg 0 ]);
        Asm.Op ("ADDI", [ Asm.Reg 0; Asm.Imm 0xfffe ]) (* FP - 2 *);
        Asm.Op ("MTF", [ Asm.Reg 0 ]);
        Asm.Op ("MFP", [ Asm.Reg 2 ]);
        Asm.Op ("HALT", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "frame moved" (0xF000 - 2) (Word.to_int (Cpu.ac cpu 2));
  Alcotest.(check int) "register agrees" (0xF000 - 2)
    (Word.to_int (Cpu.frame_pointer cpu))

let test_mul_div_rem () =
  let compute items = Word.to_int (Cpu.ac (fst (run_items items)) 0) in
  Alcotest.(check int) "7*6" 42
    (compute
       [
         Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 7 ]);
         Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 6 ]);
         Asm.Op ("MUL", [ Asm.Reg 0; Asm.Reg 1 ]);
         Asm.Op ("HALT", []);
       ]);
  Alcotest.(check int) "mul wraps" ((300 * 300) land 0xffff)
    (compute
       [
         Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 300 ]);
         Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 300 ]);
         Asm.Op ("MUL", [ Asm.Reg 0; Asm.Reg 1 ]);
         Asm.Op ("HALT", []);
       ]);
  Alcotest.(check int) "div" 6
    (compute
       [
         Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 45 ]);
         Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 7 ]);
         Asm.Op ("DIV", [ Asm.Reg 0; Asm.Reg 1 ]);
         Asm.Op ("HALT", []);
       ]);
  Alcotest.(check int) "rem" 3
    (compute
       [
         Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 45 ]);
         Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 7 ]);
         Asm.Op ("REM", [ Asm.Reg 0; Asm.Reg 1 ]);
         Asm.Op ("HALT", []);
       ])

let test_division_by_zero_faults () =
  let _, stop =
    run_items
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 1 ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 0 ]);
        Asm.Op ("DIV", [ Asm.Reg 0; Asm.Reg 1 ]);
        Asm.Op ("HALT", []);
      ]
  in
  match stop with
  | Vm.Fault _ -> ()
  | stop -> Alcotest.failf "expected a fault, got %a" Vm.pp_stop stop

let test_jsri_through_a_table () =
  (* Dispatch through a jump table in memory — what overlay calls do. *)
  let cpu, stop =
    run_items
      [
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "target" ]);
        Asm.Op ("STA", [ Asm.Reg 0; Asm.Imm 3000 ]);
        Asm.Op ("LDA", [ Asm.Reg 1; Asm.Imm 3000 ]);
        Asm.Op ("JSRI", [ Asm.Reg 1 ]);
        Asm.Op ("HALT", []);
        Asm.Label "target";
        Asm.Op ("LDI", [ Asm.Reg 3; Asm.Imm 77 ]);
        Asm.Op ("RET", []);
      ]
  in
  Alcotest.(check bool) "halted" true (stop = Vm.Halted);
  Alcotest.(check int) "subroutine ran" 77 (Word.to_int (Cpu.ac cpu 3))

(* {2 instruction-set properties} *)

let gen_instr =
  QCheck.Gen.(
    let reg = int_bound 3 in
    let imm16 = int_bound 0xffff in
    let count = int_bound 15 in
    let byte = int_bound 255 in
    oneof
      [
        return Instr.Halt;
        map2 (fun r v -> Instr.Ldi (r, v)) reg imm16;
        map2 (fun r v -> Instr.Lda (r, v)) reg imm16;
        map2 (fun r v -> Instr.Sta (r, v)) reg imm16;
        map2 (fun r r2 -> Instr.Ldx (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Stx (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Mov (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Add (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Sub (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.And_ (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Or_ (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Xor_ (r, r2)) reg reg;
        map2 (fun r n -> Instr.Shl (r, n)) reg count;
        map2 (fun r n -> Instr.Shr (r, n)) reg count;
        map2 (fun r v -> Instr.Addi (r, v)) reg imm16;
        map (fun v -> Instr.Jmp v) imm16;
        map2 (fun r v -> Instr.Jz (r, v)) reg imm16;
        map2 (fun r v -> Instr.Jnz (r, v)) reg imm16;
        map2 (fun r v -> Instr.Jlt (r, v)) reg imm16;
        map (fun v -> Instr.Jsr v) imm16;
        map (fun r -> Instr.Jsri r) reg;
        return Instr.Ret;
        map (fun r -> Instr.Mfp r) reg;
        map (fun r -> Instr.Mtf r) reg;
        map2 (fun r r2 -> Instr.Mul (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Div (r, r2)) reg reg;
        map2 (fun r r2 -> Instr.Rem (r, r2)) reg reg;
        map (fun r -> Instr.Push r) reg;
        map (fun r -> Instr.Pop r) reg;
        map (fun c -> Instr.Sys c) byte;
      ])

let prop_instr_roundtrip =
  QCheck.Test.make ~name:"every instruction encodes and decodes to itself" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Instr.pp) gen_instr)
    (fun instr ->
      let words = Array.of_list (Instr.encode instr) in
      match Instr.decode ~fetch:(fun i -> words.(i)) ~pc:0 with
      | Ok (decoded, next) -> decoded = instr && next = Instr.size instr
      | Error _ -> false)

let prop_memory_blit_is_sub =
  QCheck.Test.make ~name:"memory blit equals array copy" ~count:100
    QCheck.(triple (int_bound 200) (int_bound 200) (int_bound 100))
    (fun (src_pos, dst_pos, len) ->
      let m = Memory.create () in
      for i = 0 to 511 do
        Memory.write m i (Word.of_int ((i * 7) land 0xffff))
      done;
      let before = Memory.read_block m ~pos:src_pos ~len in
      Memory.blit ~src:m ~src_pos ~dst:m ~dst_pos ~len;
      Memory.read_block m ~pos:dst_pos ~len = before
      || (* overlapping regions: compare against the semantics of
            Array.blit on a copy *)
      src_pos + len > dst_pos
      && dst_pos + len > src_pos)

(* {2 the text assembler} *)

module Asm_text = Alto_machine.Asm_text

let test_asm_text_roundtrip () =
  (* The textual form assembles to the same words as the OCaml form. *)
  let text =
    "; a greeting\n\
     start:  LDI AC0, msg\n\
     \t JSR @WriteString\n\
     loop: LDI AC0, 0x0\n\
     \t JZ AC0, done   ; always\n\
     done: JSR @Exit\n\
     msg: .string \"hi; there\"\n\
     buf: .block 3\n\
     k:   .word 0o17\n"
  in
  let from_text =
    match Asm_text.assemble ~origin:200 text with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let from_items =
    Asm.assemble_exn ~origin:200
      [
        Asm.Label "start";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "msg" ]);
        Asm.Op ("JSR", [ Asm.Ext "WriteString" ]);
        Asm.Label "loop";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
        Asm.Op ("JZ", [ Asm.Reg 0; Asm.Lab "done" ]);
        Asm.Label "done";
        Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
        Asm.Label "msg";
        Asm.String_data "hi; there";
        Asm.Label "buf";
        Asm.Block 3;
        Asm.Label "k";
        Asm.Word_data 0o17;
      ]
  in
  Alcotest.(check bool) "same code" true (from_text.Asm.code = from_items.Asm.code);
  Alcotest.(check bool) "same fixups" true (from_text.Asm.fixups = from_items.Asm.fixups);
  Alcotest.(check int) "same entry" from_items.Asm.entry from_text.Asm.entry

let test_asm_text_literals () =
  let program src =
    match Asm_text.assemble ~origin:0 src with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let p = program "LDI AC1, 'A'\nLDI AC2, '\\n'\nLDI AC3, 0xff\n" in
  Alcotest.(check int) "char literal" 65 (Word.to_int p.Asm.code.(1));
  Alcotest.(check int) "escaped char" 10 (Word.to_int p.Asm.code.(3));
  Alcotest.(check int) "hex" 255 (Word.to_int p.Asm.code.(5))

let test_asm_text_errors () =
  let rejects src =
    match Asm_text.assemble src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "assembled: %s" src
  in
  rejects "FROB AC0";
  rejects "LDI AC9, 1";
  rejects ".word 99999";
  rejects ".string unquoted";
  rejects ".frobnicate 3";
  rejects "JMP nowhere"

(* {2 level-table invariants} *)

let test_levels_cover_top_of_memory_disjointly () =
  let regions =
    List.map (fun (l : Level.t) -> (Level.base l.Level.index, Level.limit l.Level.index)) Level.all
  in
  (* Contiguous, descending, disjoint, ending at the top. *)
  let sorted = List.sort compare regions in
  let rec contiguous = function
    | (_, a_limit) :: ((b_base, _) :: _ as rest) ->
        a_limit = b_base && contiguous rest
    | [ (_, last_limit) ] -> last_limit = Memory.size
    | [] -> false
  in
  Alcotest.(check bool) "contiguous to the top" true (contiguous sorted)

let test_service_stubs_fit_and_are_unique () =
  let all_services =
    List.concat_map (fun (l : Level.t) -> l.Level.services) Level.all
  in
  (* Codes unique. *)
  let codes = List.map (fun s -> s.Level.code) all_services in
  Alcotest.(check int) "codes unique" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  (* Names unique, addresses unique and inside their level. *)
  let names = List.map (fun s -> s.Level.service_name) all_services in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let addresses = List.map Level.service_address names in
  Alcotest.(check int) "addresses unique" (List.length addresses)
    (List.length (List.sort_uniq compare addresses));
  List.iter
    (fun (l : Level.t) ->
      List.iter
        (fun s ->
          let a = Level.service_address s.Level.service_name in
          Alcotest.(check bool)
            (s.Level.service_name ^ " stub inside its level")
            true
            (a >= Level.base l.Level.index && a + 1 < Level.limit l.Level.index))
        l.Level.services)
    Level.all

let test_stub_words_trap_correctly () =
  List.iter
    (fun (l : Level.t) ->
      List.iter
        (fun s ->
          match Level.stub_words s with
          | [ w1; w2 ] -> (
              let fetch = function 0 -> w1 | _ -> w2 in
              match Instr.decode ~fetch ~pc:0 with
              | Ok (Instr.Sys code, 1) ->
                  Alcotest.(check int) "stub traps its own code" s.Level.code code;
                  (match Instr.decode ~fetch ~pc:1 with
                  | Ok (Instr.Ret, _) -> ()
                  | _ -> Alcotest.fail "stub must end in RET")
              | _ -> Alcotest.fail "stub must start with SYS")
          | _ -> Alcotest.fail "stub must be two words")
        l.Level.services)
    Level.all

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let qcheck tests =
  List.map
    (fun t ->
      let rand = Random.State.make [| qcheck_seed |] in
      QCheck_alcotest.to_alcotest ~verbose:false ~rand t)
    tests

let () =
  Alcotest.run "alto_machine deeper"
    [
      ( "new instructions",
        [
          ("MFP/MTF", `Quick, test_mfp_mtf);
          ("MUL/DIV/REM", `Quick, test_mul_div_rem);
          ("division by zero faults", `Quick, test_division_by_zero_faults);
          ("JSRI through a table", `Quick, test_jsri_through_a_table);
        ] );
      ("properties", qcheck [ prop_instr_roundtrip; prop_memory_blit_is_sub ]);
      ( "text assembler",
        [
          ("roundtrip vs items", `Quick, test_asm_text_roundtrip);
          ("literals", `Quick, test_asm_text_literals);
          ("errors", `Quick, test_asm_text_errors);
        ] );
      ( "levels",
        [
          ("regions tile the top of memory", `Quick, test_levels_cover_top_of_memory_disjointly);
          ("stubs fit and are unique", `Quick, test_service_stubs_fit_and_are_unique);
          ("stub words trap correctly", `Quick, test_stub_words_trap_correctly);
        ] );
    ]

(* The BCPL-flavoured compiler: programs compiled to code files and run
   through the loader under the full system — the "second programming
   environment" sharing the disk format and loader conventions. *)

module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module Geometry = Alto_disk.Geometry
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display
module System = Alto_os.System
module Loader = Alto_os.Loader
module Bcpl = Alto_bcpl.Bcpl

let small_geometry = { Geometry.diablo_31 with Geometry.model = "test"; cylinders = 40 }

let compile source =
  match Bcpl.compile ~origin:System.user_base source with
  | Ok program -> program
  | Error e -> Alcotest.failf "compile: %a" Bcpl.pp_error e

let run ?keyboard source =
  let system = System.boot ~geometry:small_geometry () in
  (match keyboard with
  | Some text -> Keyboard.feed (System.keyboard system) text
  | None -> ());
  let program = compile source in
  let file =
    match Loader.save_program system ~name:"Prog.run" program with
    | Ok f -> f
    | Error e -> Alcotest.failf "save: %a" Loader.pp_error e
  in
  match Loader.run ~fuel:5_000_000 system file with
  | Ok stop -> (stop, Display.contents (System.display system), system)
  | Error e -> Alcotest.failf "run: %a" Loader.pp_error e

let exits code source =
  let stop, _, system = run source in
  match stop with
  | Vm.Stopped c when c = code -> ()
  | Vm.Stopped c ->
      Alcotest.failf "exited %d, wanted %d (last error: %s)" c code
        (Option.value (System.last_error system) ~default:"none")
  | stop -> Alcotest.failf "did not exit cleanly: %a" Vm.pp_stop stop

let prints expected source =
  let stop, text, _ = run source in
  (match stop with
  | Vm.Stopped 0 -> ()
  | stop -> Alcotest.failf "did not exit 0: %a" Vm.pp_stop stop);
  Alcotest.(check string) "display" expected text

let rejects source =
  match Bcpl.compile ~origin:System.user_base source with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "compiled a bad program: %s" source

(* {2 expressions} *)

let test_arith () =
  exits 14 "let main() = 2 + 3 * 4;";
  exits 5 "let main() = (2 + 3 * 4) - 9;";
  exits 7 "let main() = 22 / 3;";
  exits 1 "let main() = 22 rem 3;";
  exits 12 "let main() = 0x0c;";
  exits 10 "let main() = 0o12;";
  exits 65 "let main() = 'A';";
  (* 16-bit wraparound. *)
  exits 0xffff "let main() = 0 - 1;";
  exits 0 "let main() = 0xffff + 1;"

let test_comparisons () =
  exits 1 "let main() = 3 < 4;";
  exits 0 "let main() = 4 < 3;";
  exits 1 "let main() = 4 > 3;";
  exits 1 "let main() = 3 <= 3;";
  exits 1 "let main() = 3 >= 3;";
  exits 0 "let main() = 3 # 3;";
  exits 1 "let main() = 3 = 3;";
  (* signed view *)
  exits 1 "let main() = (0 - 5) < 3;";
  exits 1 "let main() = true & (2 < 3);";
  exits 1 "let main() = false | (1 = 1);";
  exits 0 "let main() = false & (1 = 1);"

let test_unary () =
  exits 0xfffb "let main() = -5;";
  exits 3 "let main() = - - 3;"

(* {2 statements} *)

let test_globals_and_locals () =
  exits 42 "global counter = 40;\nlet main() be { counter := counter + 2; resultis counter; }";
  exits 9 "let main() be { let a = 4; let b = 5; resultis a + b; }";
  (* shadowing in an inner block *)
  exits 7 "let main() be { let a = 7; { let a = 100; a := 1; } resultis a; }";
  (* block locals vanish on exit, stack stays balanced *)
  exits 30
    "let main() be { let total = 0; let i = 0;\n\
     while i < 10 do { let twice = i * 2; total := total + twice; i := i + 1; }\n\
     resultis total - 60; }"

let test_while_sum () =
  exits 55
    "let main() be { let sum = 0; let i = 1;\n\
     while i <= 10 do { sum := sum + i; i := i + 1; }\n\
     resultis sum; }"

let test_if_else () =
  exits 1 "let main() be { if 3 < 4 then resultis 1; resultis 2; }";
  exits 2 "let main() be { if 4 < 3 then resultis 1; else resultis 2; }";
  exits 3
    "let main() be { let x = 10;\n\
     if x < 5 then resultis 1;\n\
     else if x < 8 then resultis 2;\n\
     else resultis 3; }"

let test_functions_and_recursion () =
  exits 55 "let fib(n) be { if n < 2 then resultis n; resultis fib(n-1) + fib(n-2); }\nlet main() = fib(10);";
  exits 120
    "let fact(n) be { if n <= 1 then resultis 1; resultis n * fact(n - 1); }\n\
     let main() = fact(5);";
  (* several arguments, order matters *)
  exits 2 "let sub(a, b) = a - b;\nlet main() = sub(5, 3);";
  (* nested calls *)
  exits 17 "let add(a, b) = a + b;\nlet main() = add(add(2, 5), add(4, 6));";
  (* forward reference *)
  exits 9 "let main() = later(3);\nlet later(x) = x * 3;";
  (* mutual recursion *)
  exits 1
    "let even(n) be { if n = 0 then resultis 1; resultis odd(n - 1); }\n\
     let odd(n) be { if n = 0 then resultis 0; resultis even(n - 1); }\n\
     let main() = even(10);"

let test_vectors_and_memory () =
  exits 30
    "vec v 10;\n\
     let main() be { let i = 0;\n\
     while i < 10 do { v!i := i; i := i + 1; }\n\
     resultis v!4 + v!5 + v!6 + v!7 + v!8; }";
  (* !p and @g *)
  exits 99 "global g = 0;\nlet main() be { let p = @g; !p := 99; resultis g; }";
  (* pointer arithmetic into a vector *)
  exits 5 "vec v 4;\nlet main() be { let p = v + 2; !p := 5; resultis v!2; }"

let test_for_loops () =
  exits 55
    "let main() be { let sum = 0; for i = 1 to 10 do sum := sum + i; resultis sum; }";
  (* the limit is evaluated once *)
  exits 6
    "global limit = 3;\n\
     let main() be { let n = 0;\n\
     for i = 1 to limit do { n := n + i; limit := 100; }\n\
     resultis n; }";
  (* nested, with locals in the body *)
  exits 18
    "let main() be { let acc = 0;\n\
     for i = 1 to 3 do for j = 1 to 3 do { let p = i + j; acc := acc + p - 2; }\n\
     resultis acc; }";
  (* an empty range runs zero times *)
  exits 0 "let main() be { let n = 0; for i = 5 to 4 do n := n + 1; resultis n; }"

let test_getbyte_putbyte () =
  (* read characters out of a packed string *)
  exits 104 "let main() = getbyte(\"hi\", 0) + getbyte(\"hi\", 1) - 'i';";
  (* modify a string in place: uppercase by clearing bit 5 *)
  prints "HELLO"
    "let main() be {\n\
     let s = \"hello\";\n\
     for i = 0 to !s - 1 do putbyte(s, i, getbyte(s, i) - 32);\n\
     writestring(s);\n\
     resultis 0; }";
  (* odd and even positions both survive a write to the other *)
  exits 1
    "let main() be {\n\
     let s = \"abcd\";\n\
     putbyte(s, 1, 'X');\n\
     resultis (getbyte(s, 0) = 'a') & (getbyte(s, 1) = 'X') & (getbyte(s, 2) = 'c');\n\
     }"

let test_switchon () =
  exits 32
    "let classify(c) be {\n\
     switchon c into {\n\
       case 'a': case 'e': case 'i': case 'o': case 'u': resultis 1;\n\
       case ' ': resultis 2;\n\
       default: resultis 0;\n\
     }\n\
     }\n\
     let main() be {\n\
     let s = \"it is so\";\n\
     let vowels = 0; let spaces = 0;\n\
     for i = 0 to !s - 1 do {\n\
       switchon classify(getbyte(s, i)) into {\n\
         case 1: vowels := vowels + 1;\n\
         case 2: spaces := spaces + 1;\n\
       }\n\
     }\n\
     resultis vowels * 10 + spaces - 2 + 2;\n\
     }";
  (* no fall-through; empty default *)
  exits 5
    "let main() be {\n\
     let r = 0;\n\
     switchon 2 into { case 1: r := 1; case 2: r := 5; case 3: r := 9; }\n\
     resultis r; }";
  (* unmatched value, no default: nothing happens *)
  exits 7 "let main() be { let r = 7; switchon 99 into { case 1: r := 0; } resultis r; }"

let test_standard_library () =
  (* writenum/newline/writeln link in on demand. *)
  prints "1984" "let main() be { writenum(1984); resultis 0; }";
  prints "0" "let main() be { writenum(0); resultis 0; }";
  prints "a\nb" "let main() be { writeln(\"a\"); writestring(\"b\"); resultis 0; }";
  (* ...and a user definition replaces the system's (openness). *)
  prints "mine"
    "let writenum(n) be { writestring(\"mine\"); }\n\
     let main() be { writenum(42); resultis 0; }"

let test_return_defaults () =
  exits 0 "let main() be { let x = 3; x := x + 1; }";
  exits 0 "let helper() be { return; }\nlet main() be { helper(); }"

(* {2 talking to the system} *)

let test_writes_to_display () =
  prints "hello" "let main() be { writestring(\"hello\"); resultis 0; }";
  prints "AB"
    "let main() be { writechar('A'); writechar('B'); resultis 0; }";
  prints "xyxy"
    "let twice(s) be { writestring(s); writestring(s); }\n\
     let main() be { twice(\"xy\"); resultis 0; }"

let test_reads_keyboard () =
  let stop, text, _ =
    run ~keyboard:"ok"
      "let main() be {\n\
       let c = readchar();\n\
       while c # 0xffff do { writechar(c); c := readchar(); }\n\
       resultis 0; }"
  in
  (match stop with Vm.Stopped 0 -> () | s -> Alcotest.failf "%a" Vm.pp_stop s);
  Alcotest.(check string) "echoed" "ok" text

let test_allocates_from_zone () =
  exits 11
    "let main() be {\n\
     let p = allocate(3);\n\
     p!0 := 5; p!1 := 6;\n\
     let sum = p!0 + p!1;\n\
     free(p);\n\
     resultis sum; }"

let test_file_io_in_bcpl () =
  (* The midday program from the integration test, in the high-level
     language this time. *)
  let stop, text, system =
    run
      "let main() be {\n\
       createfile(\"Out.txt\");\n\
       let h = openfile(\"Out.txt\", 1);\n\
       streamput(h, 'H'); streamput(h, 'I');\n\
       closestream(h);\n\
       let r = openfile(\"Out.txt\", 0);\n\
       let c = streamget(r);\n\
       while c # 0xffff do { writechar(c); c := streamget(r); }\n\
       closestream(r);\n\
       resultis 0; }"
  in
  (match stop with
  | Vm.Stopped 0 -> ()
  | s ->
      Alcotest.failf "%a (last error %s)" Vm.pp_stop s
        (Option.value (System.last_error system) ~default:"none"));
  Alcotest.(check string) "echoed through the file system" "HI" text

let test_string_layout_matches_services () =
  (* A string's length-prefixed layout can be walked by hand: words of
     two packed bytes after the length word. *)
  prints "7"
    "let main() be {\n\
     let s = \"sevench\";\n\
     writechar('0' + !s);\n\
     resultis 0; }"

let test_world_swap_from_bcpl () =
  (* The OutLoad double return, §4.1's coroutine linkage — written in
     the high-level language. The first run takes the "written" branch;
     the host revives the saved world and the same call returns again
     with false. *)
  let system = System.boot ~geometry:{ Geometry.diablo_31 with Geometry.model = "w"; cylinders = 80 } () in
  let root =
    match Alto_fs.Directory.open_root (System.fs system) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "root"
  in
  let state =
    match
      Alto_world.Checkpoint.state_file (System.fs system) ~directory:root
        ~name:"B.state"
    with
    | Ok f -> f
    | Error e -> Alcotest.failf "state: %a" Alto_world.Checkpoint.pp_error e
  in
  let handle = System.register_file system state in
  let source =
    Printf.sprintf
      "let main() be {\n\
       let written = outload(%d);\n\
       if written then { writechar('W'); resultis 0; }\n\
       writechar('R');\n\
       resultis 0; }"
      handle
  in
  let program = compile source in
  let file =
    match Loader.save_program system ~name:"Swap.run" program with
    | Ok f -> f
    | Error e -> Alcotest.failf "save: %a" Loader.pp_error e
  in
  (match Loader.run system file with
  | Ok (Vm.Stopped 0) -> ()
  | Ok stop -> Alcotest.failf "first run: %a" Vm.pp_stop stop
  | Error e -> Alcotest.failf "first run: %a" Loader.pp_error e);
  Alcotest.(check string) "written branch" "W" (Display.contents (System.display system));
  (Display.stream (System.display system)).Alto_streams.Stream.reset ();
  (match Alto_world.World.in_load (System.cpu system) state ~message:[||] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in_load: %a" Alto_world.World.pp_error e);
  (match Alto_machine.Vm.run ~fuel:1_000_000 (System.cpu system) ~handler:(System.handler system) with
  | Vm.Stopped 0 -> ()
  | stop -> Alcotest.failf "revived run: %a" Vm.pp_stop stop);
  Alcotest.(check string) "revived branch" "R" (Display.contents (System.display system))

let test_junta_from_bcpl () =
  (* A program evicts the display level out from under itself; the next
     writechar lands in a reclaimed region and stops the machine with
     the removed-service code. CounterJunta (level 1, always resident)
     would have brought it back — but this program wanted the memory. *)
  let stop, text, _ =
    run
      "let main() be {\n\
       writestring(\"before\");\n\
       junta(7);\n\
       writechar('X');\n\
       resultis 0; }"
  in
  Alcotest.(check string) "output up to the junta" "before" text;
  match stop with
  | Vm.Stopped code ->
      Alcotest.(check int) "stopped by the removed-service trap"
        Alto_os.Level.removed_trap_code code
  | stop -> Alcotest.failf "unexpected stop: %a" Vm.pp_stop stop

let test_return_address_in_message () =
  (* §4.1: "Often the message contains a return address, that is, the
     full name of a file to restore upon return. In the example above, a
     return address can be provided by copying myStateFN into
     messageToPartner before the InLoad call." Here program A passes its
     own world handle to B through the message area; B returns control
     by InLoading whatever it was handed — it never knew A's name. *)
  let system = System.boot ~geometry:{ Geometry.diablo_31 with Geometry.model = "m"; cylinders = 100 } () in
  let root =
    match Alto_fs.Directory.open_root (System.fs system) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "root"
  in
  let state name =
    match Alto_world.Checkpoint.state_file (System.fs system) ~directory:root ~name with
    | Ok f -> f
    | Error e -> Alcotest.failf "state: %a" Alto_world.Checkpoint.pp_error e
  in
  let h_a = System.register_file system (state "A.state") in
  let h_b = System.register_file system (state "B.state") in
  let prog_b =
    (* Parks, then returns control to whoever is named in the message. *)
    Printf.sprintf
      "let main() be {\n\
       let w = outload(%d);\n\
       if w then exit(7);\n\
       let return_address = !16;\n\
       writestring(\"B:got-caller \");\n\
       inload(return_address);\n\
       }"
      h_b
  in
  let prog_a =
    Printf.sprintf
      "let main() be {\n\
       let w = outload(%d);\n\
       if w = 0 then { writestring(\"A:resumed\"); exit(0); }\n\
       !15 := 1;\n\
       !16 := %d;\n\
       writestring(\"A:calling \");\n\
       inload(%d);\n\
       }"
      h_a h_a h_b
  in
  let save name source =
    match Loader.save_program system ~name (compile source) with
    | Ok f -> f
    | Error e -> Alcotest.failf "save: %a" Loader.pp_error e
  in
  let file_b = save "B.run" prog_b in
  let file_a = save "A.run" prog_a in
  (match Loader.run system file_b with
  | Ok (Vm.Stopped 7) -> ()
  | Ok stop -> Alcotest.failf "park: %a" Vm.pp_stop stop
  | Error e -> Alcotest.failf "park: %a" Loader.pp_error e);
  (match Loader.run ~fuel:20_000_000 system file_a with
  | Ok (Vm.Stopped 0) -> ()
  | Ok stop ->
      Alcotest.failf "run: %a (last error %s)" Vm.pp_stop stop
        (Option.value (System.last_error system) ~default:"none")
  | Error e -> Alcotest.failf "run: %a" Loader.pp_error e);
  Alcotest.(check string) "control went A -> B -> A via the message"
    "A:calling B:got-caller A:resumed"
    (Display.contents (System.display system))

(* {2 the two environments share one disk} *)

let test_bcpl_and_asm_interoperate () =
  let system = System.boot ~geometry:small_geometry () in
  (* An assembler program writes a file... *)
  let asm_program =
    Asm.assemble_exn ~origin:System.user_base
      [
        Asm.Label "start";
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
        Asm.Op ("JSR", [ Asm.Ext "CreateFile" ]);
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Lab "fname" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 1 ]);
        Asm.Op ("JSR", [ Asm.Ext "OpenFile" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 33 ]);
        Asm.Op ("JSR", [ Asm.Ext "StreamPut" ]);
        Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 0 ]) (* close needs the handle back *);
        (* handle still in AC0 after StreamPut? StreamPut preserves AC0. *)
        Asm.Op ("JSR", [ Asm.Ext "CloseStream" ]);
        Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
        Asm.Op ("JSR", [ Asm.Ext "Exit" ]);
        Asm.Label "fname";
        Asm.String_data "Mail.txt";
      ]
  in
  (match Loader.save_program system ~name:"Writer.run" asm_program with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save asm: %a" Loader.pp_error e);
  (* ...and a BCPL program reads it back. Two compilers, one format. *)
  let bcpl_program =
    compile
      "let main() be {\n\
       let h = openfile(\"Mail.txt\", 0);\n\
       let c = streamget(h);\n\
       while c # 0xffff do { writechar(c); c := streamget(h); }\n\
       resultis 0; }"
  in
  (match Loader.save_program system ~name:"Reader.run" bcpl_program with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save bcpl: %a" Loader.pp_error e);
  (match Loader.run_by_name system "Writer.run" with
  | Ok (Vm.Stopped 0) -> ()
  | Ok stop -> Alcotest.failf "writer: %a" Vm.pp_stop stop
  | Error e -> Alcotest.failf "writer: %a" Loader.pp_error e);
  (match Loader.run_by_name system "Reader.run" with
  | Ok (Vm.Stopped 0) -> ()
  | Ok stop -> Alcotest.failf "reader: %a" Vm.pp_stop stop
  | Error e -> Alcotest.failf "reader: %a" Loader.pp_error e);
  Alcotest.(check string) "cross-language file" "!" (Display.contents (System.display system))

(* {2 differential property: random expressions vs a host evaluator} *)

type pexpr =
  | P_num of int
  | P_x
  | P_y
  | P_bin of string * pexpr * pexpr
  | P_neg of pexpr

let rec render = function
  | P_num n -> string_of_int n
  | P_x -> "x"
  | P_y -> "y"
  | P_bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (render a) op (render b)
  | P_neg a -> Printf.sprintf "(- %s)" (render a)

(* The reference semantics: everything mod 2^16; comparisons look at the
   sign bit of the 16-bit difference, exactly as the compiled code does. *)
let rec eval ~x ~y e =
  let m v = v land 0xffff in
  let negative v = v land 0x8000 <> 0 in
  match e with
  | P_num n -> m n
  | P_x -> m x
  | P_y -> m y
  | P_neg a -> m (-eval ~x ~y a)
  | P_bin (op, a, b) -> (
      let va = eval ~x ~y a and vb = eval ~x ~y b in
      match op with
      | "+" -> m (va + vb)
      | "-" -> m (va - vb)
      | "*" -> m (va * vb)
      | "/" -> if vb = 0 then 0 else va / vb
      | "rem" -> if vb = 0 then 0 else va mod vb
      | "&" -> va land vb
      | "|" -> va lor vb
      | "=" -> if va = vb then 1 else 0
      | "#" -> if va <> vb then 1 else 0
      | "<" -> if negative (m (va - vb)) then 1 else 0
      | ">" -> if negative (m (vb - va)) then 1 else 0
      | "<=" -> if negative (m (vb - va)) then 0 else 1
      | ">=" -> if negative (m (va - vb)) then 0 else 1
      | _ -> assert false)

(* Division by zero faults in the machine (correctly), so generated
   divisors are nonzero constants. *)
let gen_pexpr =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self size ->
            let leaf =
              oneof [ map (fun n -> P_num n) (int_bound 0xffff); return P_x; return P_y ]
            in
            if size <= 1 then leaf
            else
              frequency
                [
                  (1, leaf);
                  ( 6,
                    oneofl [ "+"; "-"; "*"; "&"; "|"; "="; "#"; "<"; ">"; "<="; ">=" ]
                    >>= fun op ->
                    map2 (fun a b -> P_bin (op, a, b)) (self (size / 2)) (self (size / 2)) );
                  ( 2,
                    oneofl [ "/"; "rem" ] >>= fun op ->
                    map2
                      (fun a d -> P_bin (op, a, P_num (1 + d)))
                      (self (size / 2))
                      (int_bound 0xfffe) );
                  (1, map (fun a -> P_neg a) (self (size - 1)));
                ])
          (min size 12)))

let prop_compiled_expressions_agree =
  QCheck.Test.make ~name:"compiled expressions match the reference semantics" ~count:60
    (QCheck.make
       ~print:(fun (e, x, y) -> Printf.sprintf "x=%d y=%d %s" x y (render e))
       QCheck.Gen.(triple gen_pexpr (int_bound 0xffff) (int_bound 0xffff)))
    (fun (e, x, y) ->
      let source =
        Printf.sprintf "let main() be { let x = %d; let y = %d; resultis %s; }" x y
          (render e)
      in
      let stop, _, _ = run source in
      match stop with
      | Vm.Stopped got -> got = eval ~x ~y e
      | _ -> false)

(* {2 rejected programs} *)

let test_rejections () =
  rejects "let main() = x;" (* unknown name *);
  rejects "let main() = f(1);" (* unknown function *);
  rejects "let f(a) = a;\nlet main() = f(1, 2);" (* arity *);
  rejects "let f() = 1;" (* no main *);
  rejects "global g = 1;\nglobal g = 2;\nlet main() = 0;" (* duplicate *);
  rejects "let main(x) = x;" (* main with arguments *);
  rejects "let main() = 1 +;" (* syntax *);
  rejects "let main() = 'unterminated;" (* lexical *);
  rejects "let main() be { 3 := 4; }" (* not an lvalue *);
  rejects "vec v 3;\nlet main() be { v := 1; }" (* vector not assignable *);
  rejects "let main() = 99999;" (* literal too wide *);
  rejects "let f() = f;\nlet main() = 0;" (* function as value *)

let test_deep_recursion_is_fine () =
  (* 200 frames: the stack discipline holds up. *)
  exits 200
    "let count(n) be { if n = 0 then resultis 0; resultis 1 + count(n - 1); }\n\
     let main() = count(200);"

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto_bcpl"
    [
      ( "expressions",
        [
          ("arithmetic", `Quick, test_arith);
          ("comparisons", `Quick, test_comparisons);
          ("unary", `Quick, test_unary);
        ] );
      ( "statements",
        [
          ("globals and locals", `Quick, test_globals_and_locals);
          ("while", `Quick, test_while_sum);
          ("if/else", `Quick, test_if_else);
          ("functions and recursion", `Quick, test_functions_and_recursion);
          ("vectors and memory", `Quick, test_vectors_and_memory);
          ("for loops", `Quick, test_for_loops);
          ("getbyte/putbyte", `Quick, test_getbyte_putbyte);
          ("switchon", `Quick, test_switchon);
          ("standard library", `Quick, test_standard_library);
          ("return defaults", `Quick, test_return_defaults);
          ("deep recursion", `Quick, test_deep_recursion_is_fine);
        ] );
      ( "system services",
        [
          ("display", `Quick, test_writes_to_display);
          ("keyboard", `Quick, test_reads_keyboard);
          ("zone allocation", `Quick, test_allocates_from_zone);
          ("file IO", `Quick, test_file_io_in_bcpl);
          ("string layout", `Quick, test_string_layout_matches_services);
        ] );
      ( "environments",
        [
          ("asm and BCPL share the disk", `Quick, test_bcpl_and_asm_interoperate);
          ("world swap from BCPL", `Quick, test_world_swap_from_bcpl);
          ("return address in the message", `Quick, test_return_address_in_message);
          ("junta from a program", `Quick, test_junta_from_bcpl);
        ] );
      ( "differential",
        [ property prop_compiled_expressions_agree ] );
      ("rejections", [ ("bad programs rejected", `Quick, test_rejections) ]);
    ]

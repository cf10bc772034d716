(** A small BCPL-flavoured systems language for the simulated Alto.

    §2 of the paper: the operating system "is written almost entirely in
    BCPL, and in fact this language is considered to be one of the
    standard ways of programming the machine", while other environments
    (Mesa, Lisp, Smalltalk) with entirely different compilers share the
    same disk format and the same loader conventions. This compiler is
    our second programming environment: a typeless word language in
    BCPL's image, compiled to the machine's instruction set through the
    ordinary assembler, emitting ordinary code files whose operating-
    system references are fixups bound by the ordinary loader. An
    assembler program and a BCPL program are indistinguishable on disk —
    which is the point.

    The language (every value is one 16-bit word):

    {v program     := { declaration }
       declaration := "global" NAME [ "=" NUM ] ";"
                    | "vec" NAME SIZE ";"
                    | "let" NAME "(" [ names ] ")" "=" expr ";"
                    | "let" NAME "(" [ names ] ")" "be" block
       block       := "{" { statement } "}"
       statement   := block
                    | "let" NAME "=" expr ";"            local
                    | lvalue ":=" expr ";"               assignment
                    | "if" expr "then" stmt ["else" stmt]
                    | "while" expr "do" stmt
                    | "for" NAME "=" expr "to" expr "do" stmt
                    | "switchon" expr "into" "{" cases "}"   (no fall-through)
                    | "resultis" expr ";" | "return" ";"
                    | expr ";"                           call for effect
       lvalue      := NAME | "!" expr | expr "!" expr
       expr        := usual precedence: | & comparisons + - * / rem
                      unary - !   postfix v!i   calls f(…)
                      literals: 123 0x7b 0o173 'c' "string" true false
                      @g takes a cell's address v}

    [v!i] is the word at address [v+i]; [!e] the word at [e]; a string
    literal's value is the address of a static length-prefixed string
    (exactly what the display service wants); [vec buf 64;] makes [buf]
    the address of 64 static words. Comparisons yield 1 or 0 and use the
    16-bit signed view. Built-in procedures bind to the system services
    (see {!Codegen}). Execution starts at [main()]; its result becomes
    the program's exit status.

    A tiny standard library — [writenum], [newline], [writeln], written
    in the language itself — links in automatically when called, unless
    the program defines its own version (the user may always replace the
    system's facilities). *)

module Asm = Alto_machine.Asm

type error =
  | Lex_error of Lexer.error
  | Parse_error of Lexer.error
  | Codegen_error of string
  | Asm_error of string

val pp_error : Format.formatter -> error -> unit

val compile : ?origin:int -> string -> (Asm.program, error) result
(** Source text to an assembled program, ready for
    {!Alto_os.Loader.save_program} (use [origin = Alto_os.System.user_base]). *)

(** A textual syntax for the assembler, so programs can be written,
    stored and assembled {e on the pack} (the executive's [assemble]
    command) rather than only constructed in the host.

    Line-oriented:
    {v ; a comment runs to end of line
       start:              ; a label (alone, or before an instruction)
           LDI AC0, msg    ; operands: AC0-AC3, literals (42, 0x2a,
           JSR @WriteString;   0o52, 'c'), labels, and @Extern names
           LDI AC0, 0      ;   bound by the loader's fixup table
           JSR @Exit
       msg: .string "hello"; directives: .word N  .string "…"  .block N v} *)

val assemble : ?origin:int -> string -> (Asm.program, string) result
(** Parse, then {!Asm.assemble}. Parse errors name the offending
    line. *)

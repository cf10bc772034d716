(** The program loader (§5.1).

    "Code for the program is read from a disk stream and loaded into low
    memory addresses. All references to operating system procedures are
    bound, using a fixup table contained in the code file. Finally, the
    program is invoked by calling a single entry routine."

    A code file is an ordinary file whose data is: a header (magic,
    version, code length, entry offset, fixup count), the fixup table —
    each entry an offset into the code plus the {e name} of the system
    procedure to bind there — and the code words, assembled for
    {!System.user_base}. Names, not addresses, keep code files valid
    across system releases; the stub addresses are resolved at load
    time from {!Level}. *)

module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module File = Alto_fs.File
module Directory = Alto_fs.Directory

type error =
  | File_error of File.error
  | Dir_error of Directory.error
  | Bad_format of string  (** Not a code file, or a truncated one. *)
  | Unknown_service of string  (** A fixup names no known system procedure. *)
  | Too_big of int  (** Code won't fit below the resident system. *)

val pp_error : Format.formatter -> error -> unit

type parsed = {
  code : Alto_machine.Word.t array;
  entry_offset : int;  (** Relative to the load address. *)
  origin : int;  (** The address the code was assembled for. *)
  fixups : (int * string) list;
}

val parse_code : Alto_machine.Word.t array -> (parsed, error) result
(** Decode a code file's words. Public so that other environments — a
    diskless system booting over the network, say — can consume the same
    code files without this loader. *)

val save_program : System.t -> name:string -> Asm.program -> (File.t, error) result
(** Serialize an assembled program into a catalogued code file — the
    linker's half of §4's bootstrapping story. Whole programs are
    assembled for {!System.user_base}; overlay segments for wherever in
    the user area they will live (§5.2: programs short of memory are
    "organized in overlays"). *)

val run : ?fuel:int -> System.t -> File.t -> (Vm.stop, error) result
(** Read a code file into memory at its recorded origin and bind its
    fixups, point the processor at the entry with a fresh stack just
    below the resident system, and interpret under {!System.handler}. *)

val run_by_name : ?fuel:int -> System.t -> string -> (Vm.stop, error) result
(** Look the code file up in the root directory first. *)

val disassemble : parsed -> string list
(** One line per instruction ("address: mnemonic"), data words shown as
    such — the executive's [dump] command, and a debugging aid for
    anyone writing a new environment against the code-file format. *)

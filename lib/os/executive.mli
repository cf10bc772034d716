(** The Executive (§5.1): "The Executive accepts user commands from the
    keyboard and executes them, often by calling the loader to invoke a
    program the user has requested."

    Commands are read from the system's keyboard stream (so type-ahead
    fed before a program switch is interpreted afterwards, per §5.2) and
    output goes to the display stream. Before invoking anything, the
    whole command line is written to the file [Com.cm] — §4's "most
    conservative solution": programs written in any environment read
    their arguments back from a disk file with a standard name.

    Built-in commands: [ls], [type f], [put f text…], [delete f],
    [rename old new], [copy src dst], [dump codefile], [scavenge], [compact], [levels], [junta n],
    [counterjunta], [cache] (label-cache, track-buffer-cache and
    elevator-scheduler statistics), [sync] (flush delayed track-buffer
    writes and report what was coalesced), [health] (patrol progress,
    bad-sector census and the
    volume's write-ahead map), [trace [n]], [run prog], [compile src dst] (the BCPL compiler,
    from a source file on the pack to a code file on the pack),
    [assemble src dst] (likewise for assembler source), and
    [quit]. A bare name that matches a catalogued code file is run,
    loader-style.

    Between commands the Executive donates the idle moment to the disk
    patrol (one {!Alto_fs.Patrol.tick} per command, when the disk code
    at level 5 is resident), and [quit] marks the volume clean so the
    next boot skips recovery. *)

type outcome = {
  commands_executed : int;
  quit : bool;  (** [quit] was typed (as opposed to type-ahead running dry). *)
}

val command_file_name : string
(** ["Com.cm"]. *)

val run : ?max_commands:int -> System.t -> outcome
(** Read and execute commands until the keyboard runs dry, [quit], or
    the command budget is exhausted. *)

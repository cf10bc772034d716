(** The display: an output stream onto a simulated character screen.

    The real Alto display was a bitmap driven by microcode; the system's
    display streams "simulate a teletype terminal" (§6), and that
    teletype view is all the OS layer needs, so that is what we build:
    put appends characters, newline starts a new line, form-feed clears
    the screen. *)

type t

val create : ?columns:int -> unit -> t
(** [columns] (default 80) wraps long lines, teletype-style. *)

val stream : t -> Stream.t
(** [put] writes a character; [reset] clears the screen;
    [control "lines"] reports the line count. *)

val contents : t -> string
(** Everything currently on the screen, lines separated by ['\n']. *)

val lines : t -> string list

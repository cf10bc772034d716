(** The instruction interpreter.

    Runs a {!Cpu} over its memory until the program halts, faults, traps
    to the system, or exhausts its fuel. System calls are delegated to a
    caller-supplied handler — the machine knows nothing about the
    operating system, which is how the paper's system gets to be optional:
    the handler is whatever set of packages is currently resident. *)

type sys_outcome =
  | Sys_continue  (** Resume execution after the trap. *)
  | Sys_stop of int  (** Stop the run, reporting this code. *)

type handler = Cpu.t -> int -> sys_outcome
(** Called on [SYS n] with the processor state (registers already
    updated past the trap instruction) and [n]. The handler may mutate
    registers and memory freely — including the PC, which is how the
    world-swapper arranges its double return. *)

type stop =
  | Halted  (** The program executed [HALT]. *)
  | Stopped of int  (** The handler requested a stop. *)
  | Out_of_fuel
  | Fault of string
      (** Undecodable instruction, bad register, or memory fault. On the
          real machine an errant program would simply careen onward; the
          simulator stops so that tests can observe the wreck. *)

val pp_stop : Format.formatter -> stop -> unit

val run : ?fuel:int -> Cpu.t -> handler:handler -> stop
(** Execute until something stops the machine; [fuel] (default 1_000_000)
    bounds the number of instructions. *)

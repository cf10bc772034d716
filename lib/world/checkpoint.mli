(** Control disciplines built on world files (§4): checkpointing and the
    coroutine linkage.

    "A coroutine structure is commonly used: a program first records its
    state on one disk file, and then restores the machine state from a
    second file. The original program resumes execution when the machine
    state is restored from the first file." *)

module Word = Alto_machine.Word
module Cpu = Alto_machine.Cpu
module Fs = Alto_fs.Fs
module File = Alto_fs.File

type error = World_error of World.error | Catalogue of Alto_fs.Install.error

val pp_error : Format.formatter -> error -> unit

val state_file : Fs.t -> directory:File.t -> name:string -> (File.t, error) result
(** Open, or create and catalogue, a state file of the right size. A
    pre-sized file makes every subsequent swap run at full track speed. *)

val save : Cpu.t -> File.t -> (unit, error) result
(** Checkpoint: record the world. "The computation may be resumed later
    by restoring the machine state from the checkpoint file." *)

val transfer :
  Cpu.t -> save_to:File.t -> restore_from:File.t -> message:Word.t array ->
  (unit, error) result
(** The coroutine switch: OutLoad to [save_to], then InLoad from
    [restore_from] passing [message]. After the call the processor holds
    the partner's world; the saved world will continue from {e its} last
    [transfer] when somebody restores it. *)

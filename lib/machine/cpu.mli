(** The Alto processor's programmer-visible state.

    The world-swap mechanism of the paper (§4) is defined by "a convention
    for restoring the entire state of the machine from a disk file"; the
    entire state is main memory plus this register file. We model the four
    BCPL-visible accumulators, the program counter, and the stack-frame
    pointer that the BCPL runtime keeps in a fixed register. *)

type t

val create : Memory.t -> t
(** A processor attached to the given memory, registers zeroed. *)

val memory : t -> Memory.t

val pc : t -> Word.t
val set_pc : t -> Word.t -> unit

val ac : t -> int -> Word.t
(** [ac cpu i] reads accumulator [i]; raises [Invalid_argument] unless
    [0 <= i < 4] (AC0–AC3). *)

val set_ac : t -> int -> Word.t -> unit

val frame_pointer : t -> Word.t
(** The BCPL stack-frame pointer. *)

val set_frame_pointer : t -> Word.t -> unit

val registers : t -> Word.t array
(** All registers in serialization order: PC, frame pointer, AC0–AC3.
    The array is fresh; mutating it does not affect the processor. *)

val register_count : int
(** Length of the {!registers} array (6). *)

val load_registers : t -> Word.t array -> unit
(** Inverse of {!registers}. Raises [Invalid_argument] on a wrong-length
    array. *)

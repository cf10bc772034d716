(** 16-bit machine words.

    The Alto is a 16-bit word-addressed machine and BCPL is typeless: every
    value — integer, pointer, character pair, procedure — is one word. All
    on-disk and in-memory representations in this system are defined in
    terms of these words, so the module enforces the 16-bit invariant at
    every construction. *)

type t = private int
(** A word. The representation invariant is [0 <= w <= 0xffff]. *)

val bits : int
(** Number of bits in a word (16). *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] truncates [n] to its low 16 bits (two's-complement wrap),
    matching Alto arithmetic. *)

val of_int_exn : int -> t
(** [of_int_exn n] is [of_int n] but raises [Invalid_argument] if [n] is
    not already in [0, 0xffff]. Use it where truncation would hide a bug. *)

val to_int : t -> int
(** [to_int w] is the unsigned value of [w], in [0, 0xffff]. *)

val to_signed : t -> int
(** [to_signed w] interprets [w] as a two's-complement 16-bit integer,
    in [-32768, 32767]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val succ : t -> t

val low_byte : t -> int
(** Low-order 8 bits, in [0, 255]. *)

val high_byte : t -> int
(** High-order 8 bits, in [0, 255]. *)

val of_bytes : high:int -> low:int -> t
(** [of_bytes ~high ~low] packs two bytes into a word; raises
    [Invalid_argument] if either is outside [0, 255]. *)

val of_char_pair : char -> char -> t
(** Pack two characters, first in the high byte, following the Alto/BCPL
    packed-string convention. *)

val words_of_string : string -> t array
(** [words_of_string s] packs [s] two characters per word, high byte
    first, padding the final word's low byte with 0 when the length is
    odd. The length is not stored; see {!string_of_words}. *)

val string_of_words : t array -> len:int -> string
(** [string_of_words ws ~len] unpacks the first [len] characters.
    Raises [Invalid_argument] if [len] exceeds [2 * Array.length ws] or is
    negative. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints as unsigned decimal. *)

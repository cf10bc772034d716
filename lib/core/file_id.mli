(** File identifiers.

    §3.1: a page's label carries "a file identifier — two words" and "a
    version number — one word"; the pair (written FV in the paper) names
    a file absolutely. §3.4: "we reserve a subset of the file identifiers
    for directory files" so the scavenger can find every directory — here
    the subset is the ids with the directory bit set.

    The two identifier words hold a 30-bit serial number, the directory
    bit, and a reserved bit that is always 0 in a valid id. The reserved
    bit is what keeps real labels distinguishable from the all-ones
    pattern of a free page and from the bad-page marker. Serial 0 and
    versions 0 and 0xffff are invalid for the same reason. *)

module Word = Alto_machine.Word

type t = private { serial : int; version : int; directory : bool }

val max_serial : int
(** [2^30 - 1]. *)

val make : ?directory:bool -> serial:int -> version:int -> unit -> t
(** Raises [Invalid_argument] on serial outside [1, max_serial] or
    version outside [1, 0xfffe]. *)

val descriptor : t
(** The disk descriptor file's well-known id (serial 1). *)

val root_directory : t
(** The root directory's well-known id (serial 2, a directory). *)

val first_user_serial : int
(** Serials below this are reserved for system files. *)

val is_directory : t -> bool

val next_version : t -> t
(** Same serial, version + 1 — the id a file gets when recreated under
    the same name. Raises [Invalid_argument] at the version ceiling. *)

val to_words : t -> Word.t * Word.t * Word.t
(** The two identifier words and the version word, in label order. *)

val of_words : Word.t -> Word.t -> Word.t -> (t, string) result

val check_words : Word.t -> Word.t -> Word.t -> (unit, string) result
(** The checks {!of_words} makes, in its order and with its messages,
    without building the id. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

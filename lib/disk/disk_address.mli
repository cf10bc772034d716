(** Disk addresses.

    An address "uniquely specifies a physical disk location" (§3.1) and is
    always a {e hint} when stored inside pages or directories. We use a
    flat sector index in [0, sector_count - 1]; the distinguished value
    {!nil} represents the absent link ("NIL if no such pages exist"). The
    16-bit on-disk encoding reserves 0xffff for nil. *)

type t = private int

val nil : t
val is_nil : t -> bool

val of_index : int -> t
(** [of_index i] for [i >= 0]. Raises [Invalid_argument] on negatives;
    validity against a particular geometry is the drive's concern. *)

val to_index : t -> int
(** Raises [Invalid_argument] on {!nil}: callers must test {!is_nil}
    first, which is exactly the discipline the paper's hint rules force. *)

val offset : t -> int -> t
(** [offset a k] is the address [k] sectors beyond [a] — the arithmetic a
    program uses when it "is free to assume that a file is consecutive"
    (§3.6). Raises [Invalid_argument] if [a] is nil or the result would be
    negative. *)

val to_word : t -> Alto_machine.Word.t
(** 16-bit encoding; nil encodes as 0xffff. *)

val of_word : Alto_machine.Word.t -> t

val chs : Geometry.t -> t -> int * int * int
(** [(cylinder, head, sector)] of an address under a geometry. Raises
    [Invalid_argument] if the address is nil or beyond the disk. *)

val of_chs : Geometry.t -> cylinder:int -> head:int -> sector:int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

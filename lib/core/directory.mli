(** Directories (§3.4).

    A directory is just a file "which contains a set of pairs (string,
    full name)". Nothing else is special about it: a file may appear in
    any number of directories, directories may form an arbitrary directed
    graph, and destroying one loses only the names it held, never the
    files. Directory files carry the reserved (directory-flagged) file
    ids so the scavenger can enumerate them.

    Entry encoding, in words:
    {v word 0   flags * 256 + entry length in words (flags: 1 live, 0 free)
       word 1-3 file id of the named file
       word 4   leader-page address (a hint, corrected on use)
       word 5   name length in bytes
       word 6.. name, packed two bytes per word v}
    A free slot keeps its length word so the scan can skip it; adding an
    entry reuses the first free slot that fits. *)

module Word = Alto_machine.Word
module Disk_address = Alto_disk.Disk_address

type entry = {
  entry_name : string;
  entry_file : Page.full_name;  (** Page 0 of the named file. *)
}

type error =
  | File_error of File.error
  | Malformed of string  (** The directory's contents do not scan. *)
  | Name_too_long of string

val pp_error : Format.formatter -> error -> unit

val max_name_length : int

val create : Fs.t -> name:string -> (File.t, error) result
(** A fresh, empty directory file (not itself entered anywhere). *)

val open_root : Fs.t -> (File.t, error) result
(** The root directory named by the disk descriptor. *)

val add : File.t -> name:string -> Page.full_name -> (unit, error) result
(** Add the pair. An existing live entry with the same name is an error
    ([Malformed "duplicate"]); names are compared exactly. *)

val lookup : File.t -> string -> (entry option, error) result
(** The first live entry with this name. Every slot is checked, those
    after the match too: a damaged slot anywhere makes the lookup
    [Malformed]. *)

val open_or_create : File.t -> name:string -> (File.t, error) result
(** The file this directory names [name], or else a new file created and
    entered under that name. A new file the directory refuses to enter
    is deleted again, so a refused name leaves nothing allocated. *)

val remove : File.t -> string -> (bool, error) result
(** [true] when an entry was removed. *)

val update_address : File.t -> string -> Disk_address.t -> (bool, error) result
(** Refresh the address hint of an entry in place — what a client does
    after climbing the recovery ladder, and what the scavenger does for
    every entry it verifies. *)

val entries : File.t -> (entry list, error) result
(** Live entries in file order. *)

val rewrite : File.t -> entry list -> (unit, error) result
(** Replace the directory's whole contents — the scavenger's way of
    dropping dangling entries wholesale. *)

val salvage : File.t -> entry list * bool
(** Read as many live entries as possible, stopping at the first slot
    that does not scan; the boolean reports whether anything was
    unreadable: what survives where {!entries} would refuse. *)

(** {2 Directories held in memory}

    The scavenger and the offline checker have already read every
    directory page in their sweep. These scan those values with the same
    scanner, and lay them out by {!File.word_pages_of}, so a short page
    gets the verdict a read of the file would give it. [pages.(i)] is
    data page [i + 1]'s value and label length. *)

val entries_of : (Word.t array * int) array -> (entry list, error) result
(** {!entries} over pages held in memory. *)

val salvage_of : (Word.t array * int) array -> entry list * bool
(** {!salvage} over pages held in memory. *)

val entry_words : string -> int
(** Size in words of an entry with this name. *)

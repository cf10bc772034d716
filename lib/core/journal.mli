(** Journaled directories — the extension §3.5 sketches and declines.

    "As we have noted, scavenging cannot fully reconstruct lost
    directories. This could be accomplished by writing a journal of all
    changes to directories and taking an occasional snapshot of all the
    directories. By applying the changes in the journal to the snapshot
    we would get back the current state. … For the reasons already
    mentioned, we do not consider our directories important enough to
    warrant such attentions. If the user disagrees, he is free to modify
    the system-provided procedures for managing directories, or to write
    his own."

    This module is that user, disagreeing. It wraps the standard
    directory package: every mutation is appended to a journal file
    before it is applied (write-ahead), and {!take_snapshot} copies the
    directory's current contents to a snapshot file and empties the
    journal. {!recover} rebuilds the directory from snapshot + journal
    after the directory file itself has been destroyed — restoring the
    {e names}, which is exactly what the scavenger alone cannot do (it
    re-adopts orphans under their leader names, losing any aliases and
    any entry whose name differed from the leader name).

    The package is built entirely from public operations of {!File} and
    {!Directory} — no private hooks — which is the open-system claim
    made good: a user package replacing a system facility wholesale. *)

module Disk_address = Alto_disk.Disk_address

type t
(** A directory with its journal and snapshot files. *)

type error =
  | Dir_error of Directory.error
  | File_error of File.error
  | Journal_corrupt of string

val pp_error : Format.formatter -> error -> unit

val create : Fs.t -> parent:File.t -> name:string -> (t, error) result
(** Make a fresh journaled directory called [name], cataloguing it and
    its journal and snapshot files in [parent]. *)

val open_existing : Fs.t -> parent:File.t -> name:string -> (t, error) result

val directory : t -> File.t
(** The underlying directory file — readable with the ordinary
    {!Directory} operations. *)

val add : t -> name:string -> Page.full_name -> (unit, error) result
val remove : t -> string -> (bool, error) result
val lookup : t -> string -> (Directory.entry option, error) result

val take_snapshot : t -> (unit, error) result
(** Copy the directory's current contents to the snapshot file and
    truncate the journal. *)

val journal_records : t -> (int, error) result
(** Mutations recorded since the last snapshot. *)

type recovery = {
  entries_restored : int;
  records_replayed : int;
}

val recover : t -> (recovery, error) result
(** Rebuild the directory's contents from snapshot + journal, replacing
    whatever (possibly nothing) the directory file currently holds. Use
    after the scavenger has put the volume back together but could not
    resurrect this directory's names. *)

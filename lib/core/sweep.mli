(** The scavenger's first pass: "reading all the labels on the disk"
    (§3.5), and the one way to read a run of sectors for verification.

    One read per sector, in one elevator batch — consecutive sectors on
    a track stream past in a single revolution, which is what makes a
    full sweep of a 2.5 MB pack take seconds rather than minutes. The
    result classifies every sector; interpreting the classes (chains,
    files, repairs) is the caller's job. The scavenger (a compaction
    included) and the offline checker ({!Fsck}) sweep the whole pack
    with {!run}; boot's recovery reads the cylinders its
    write-ahead map names with {!run_sectors}; the patrol's slices and
    the replica audit ({!Audit}) read a run of sectors with {!read}.

    Each read moves the sector's label and value in one operation. The
    drive charges one sector time whether an operation moves one part
    or two, so checking that every page's data reads back costs nothing
    beyond the label sweep itself, where a separate value batch would
    cost a second pass over the pack. The values are read into one
    shared probe buffer; the sweep keeps only the verdict, and a caller
    copies out the values it wants as each read completes. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Disk_address = Alto_disk.Disk_address

type sector_class =
  | Live of Label.t  (** A valid label: part of some file. *)
  | Free_sector  (** The all-ones free pattern. *)
  | Marked_bad  (** Carries the bad-page marker; never reuse. *)
  | Bad_media  (** The drive cannot read it at all. *)
  | Garbage of string  (** An unparseable label. *)

type value_read =
  | Read_back of int  (** The value read back after this many retries. *)
  | Unreadable
      (** The combined read failed: a torn value, a dead data surface, a
          retry ladder run dry, or a sector whose label would not read
          either ([Bad_media]). *)

type t = {
  classes : sector_class array;
  values : value_read array;
}
(** Entry [j] of each array is the [j]th sector read: sector [j] itself
    for {!run}. *)

val read :
  on_value:(int -> sector_class -> Word.t array -> Word.t array -> unit) ->
  Drive.t ->
  start:int ->
  k:int ->
  t
(** Read [k] sectors from [start], wrapping past the last sector, under
    {!Reliable.default_policy}: entry [j] is sector
    [(start + j) mod n]. [on_value j cls label value] fires for every
    entry whose read succeeded, while [label] and [value] still hold
    its data: the buffers are reused for the next sector, so a caller
    that keeps either must copy it. An entry whose read failed is
    classed [Bad_media] and [Unreadable]; nothing reads its label
    again. *)

val run :
  ?policy:Reliable.policy ->
  ?on_value:(int -> sector_class -> Word.t array -> Word.t array -> unit) ->
  Drive.t ->
  t
(** {!run_sectors} over the whole pack, so entry [i] is sector [i]. *)

val run_sectors :
  ?policy:Reliable.policy ->
  ?on_value:(int -> sector_class -> Word.t array -> Word.t array -> unit) ->
  Drive.t ->
  int array ->
  t
(** Read the given sectors in one elevator batch, under [policy]
    (default {!Reliable.default_policy}): entry [j] is sector
    [sectors.(j)], and [on_value] is handed the sector index. Where the
    combined read fails, the label is read again alone, after the pass,
    so the classes are exactly those of a label read per sector. Boot's
    recovery reads the cylinders of the write-ahead map this way. *)

val pp_class : Format.formatter -> sector_class -> unit

(** The scavenger's first pass: "reading all the labels on the disk"
    (§3.5).

    One read per sector, in one elevator batch — consecutive sectors on
    a track stream past in a single revolution, which is what makes a
    full sweep of a 2.5 MB pack take seconds rather than minutes. The
    result classifies every sector; interpreting the classes (chains,
    files, repairs) is {!Scavenger}'s job, and the compacting scavenger
    ({!Compactor}) and the offline checker ({!Fsck}) reuse the same pass.

    A sweep can also read every sector's value in the same operation.
    The drive charges one sector time whether an operation moves two
    parts or three, so checking that every page's data reads back costs
    nothing beyond the label sweep itself, where a separate value batch
    would cost a second pass over the pack. The values are read into one
    shared probe buffer; the sweep keeps only the verdict, and a caller
    copies out the few values it wants as each read completes. *)

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
  | Not_read
      (** A label-only sweep, or a sector whose label would not read
          either. *)
  | Read_back of int  (** The value read back after this many retries. *)
  | Unreadable
      (** The label read, the value would not: a torn value, a dead data
          surface, or a retry ladder run dry. *)

type t = {
  classes : sector_class array;  (** Indexed by sector number. *)
  headers_ok : bool array;
      (** Whether the sector's header named the right pack and address. *)
  values : value_read array;  (** Indexed by sector number. *)
  duration_us : int;
}

val run :
  ?read_values:bool ->
  ?policy:Reliable.policy ->
  ?on_value:(int -> Label.t -> Word.t array -> unit) ->
  Drive.t ->
  t
(** Sweep the whole pack under [policy] (default
    {!Reliable.default_policy}). With [read_values] (default off) each
    sector's header, label and value come back in one operation, and
    [on_value i label value] fires for every [Live] sector whose value
    read back, while [value] still holds sector [i]'s data: the buffer
    is reused for the next sector, so a caller that keeps a value must
    copy it. Where the combined read fails, header and label are read
    again alone, so the classes are exactly those of a label-only
    sweep. Raises [Invalid_argument] if [on_value] is given without
    [read_values]. *)

val live_count : t -> int
val pp_class : Format.formatter -> sector_class -> unit

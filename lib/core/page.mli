(** Pages and their names (§3.1), and the label-checked disk operations
    on them (§3.3).

    A page's {e absolute name} is (FV, n): file id, version, page number.
    Its {e hint name} is a disk address. The {e full name} is the pair;
    every disk access in the system quotes a full name, and the label
    check guarantees that "the hint (address) used to access a disk page
    actually leads to the page specified by the absolute part". *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type absolute = { fid : File_id.t; page : int }

type full_name = { abs : absolute; addr : Disk_address.t }

val full_name : File_id.t -> page:int -> addr:Disk_address.t -> full_name
val pp_full_name : Format.formatter -> full_name -> unit

type error =
  | Hint_failed of Drive.error
      (** The label check refuted the address hint, or the sector is
          bad. The caller should climb the recovery ladder of §3.6. An
          address outside the pack (nil included) names no sector: every
          operation below fails it as [Hint_failed Bad_sector] without
          touching the disk. *)
  | Bad_label of string
      (** The label read back does not parse — scavenger territory. *)

val pp_error : Format.formatter -> error -> unit

val read :
  ?cache:Label_cache.t ->
  ?bio:Bio.t ->
  Drive.t ->
  full_name ->
  (Label.t * Word.t array, error) result
(** One disk operation: check the label against the absolute name, read
    the value. The returned label is complete (length and links), learned
    through the check's wildcards. The value transfer means the label
    check rides free, so [cache] is only {e primed} here, never
    consulted — a hit could not save an operation. With [bio] the value
    {e can} come from memory: a buffered, generation-live track sector
    answers without touching the disk (the name check comes from the
    table, {!Label_cache.confirm}, mismatch verdicts included), and a
    miss fills the track from where the heads land through the sector
    ({!Bio.fill}) in one elevator batch before serving. *)

val read_label : ?cache:Label_cache.t -> Drive.t -> full_name -> (Label.t, error) result
(** As {!read} but without transferring the value. With [cache], a valid
    cached image answers without any disk operation at all — including
    reproducing a {!Drive.Check_mismatch} verdict when the cached label
    refutes the caller's absolute name; this is where the hint ladder's
    chain walks get cheap. The table is the only in-core copy of a
    label (track buffers keep values), and a label-only access never
    fills a track — a fill would cost more than the one operation it
    saves. *)

val write :
  ?cache:Label_cache.t ->
  ?bio:Bio.t ->
  Drive.t ->
  full_name ->
  Word.t array ->
  (Label.t, error) result
(** One disk operation: check the label, write the 256-word value. Does
    not change the label, so the page keeps its length; use
    {!rewrite_label} to change L or the links. The write primes [cache]
    (the value write leaves the label untouched, so the entry stays
    live). Raises [Invalid_argument] on a wrong-sized value. With [bio],
    a write whose sector is buffered and generation-live is
    {e absorbed}: the name check comes from the table and the value is
    delayed in the buffer until the next coalesced flush, which checks
    the label this check filled in — zero disk operations now, one
    amortized elevator write later. A write that cannot be absorbed
    goes through as before and refreshes the buffered copy. *)

val rewrite_label :
  ?cache:Label_cache.t ->
  ?bio:Bio.t ->
  Drive.t ->
  full_name ->
  new_label:Label.t ->
  value:Word.t array ->
  (unit, error) result
(** Two disk operations, §3.3's third label-write occasion: first check
    the old label (and read the current value into [value]'s zeroed
    buffer if desired), then write the new label and value. Costs about a
    revolution — the price the paper quotes for changing a file's
    length. A live [cache] entry answers the check instead
    ({!Label_cache.check}), halving that price; the new label is
    recorded after the write. A
    relink of a freshly allocated page finds its entry, since
    {!Fs.write_reserved} records the label it writes. With [bio], the
    written value is re-installed clean in the track buffer —
    superseding any delayed value write the buffer held for the
    sector. *)

val read_raw :
  Drive.t -> Disk_address.t -> (Word.t array * Word.t array, Drive.error) result
(** Header and label, no checking: one raw read of a sector's
    identity. *)

(** Every {e verified} label on the pack: one slot per sector.

    §3.6's hint ladder spends most of its budget re-reading labels it
    checked moments ago: a chain walk reads every link, opening a file
    confirms the leader's last-page hint, and a relink checks the label
    an allocation wrote moments before. This table remembers, for each
    sector, the label image a successful check, read or label write last
    verified, so the next label-only access costs nothing. It is sized
    from the drive — 8 words a sector (the 7-word image and its
    generation), about 0.3 MB on a Model 31 — so nothing is ever
    evicted, and lookup, note and invalidate are O(1).

    Safety is the whole design. An entry is valid only while the drive's
    {!Alto_disk.Drive.label_generation} for its sector still equals the
    generation captured at verification time; the drive bumps that
    counter on every label write (in-band or poke), on the sector being
    marked bad or degrading, and on every transient trip — the retry
    evidence {!Alto_disk.Reliable} acts on. A quarantined or suspect
    sector therefore can never be satisfied from a stale entry: the act
    that made it suspect also killed the entry. {!lookup} detects dead
    entries lazily and counts them as [fs.label_cache.invalidations].

    The table is consulted and primed by {!Page}, primed by {!Fs}'s
    allocation writes, {!Bio}'s track fills and {!File}'s batched
    transfers; one instance hangs off each {!Fs.t} handle. Counters:
    [fs.label_cache.{hits,misses,invalidations}]. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type t

val create : Drive.t -> t
(** An empty table with one slot for every sector of the drive. *)

val drive : t -> Drive.t

val lookup : t -> Disk_address.t -> Word.t array option
(** The verified label image for this sector, or [None] on a miss. An
    address outside the pack (nil included) is a miss. A stored entry
    whose generation has moved is removed, counted as an invalidation,
    and reported as a miss. The returned array is a copy — mutating it
    (as a check's wildcard fill does) cannot corrupt the table. *)

val note_verified : t -> Disk_address.t -> Word.t array -> unit
(** Remember a label image the caller has {e just} verified against the
    disk (a successful check, read-back, or completed label write). The
    generation is captured at call time, so any concurrent staleness
    evidence recorded during the verifying operation itself — a
    transient trip absorbed by a retry, say — is already folded in. An
    address outside the pack is ignored. *)

val invalidate : t -> Disk_address.t -> unit
(** Drop one sector's entry, counting an invalidation if present.
    Generation checking makes this redundant for anything the drive can
    see; it exists for layers above the drive (e.g. {!Fs.quarantine})
    that want the entry gone eagerly. *)

val clear : t -> unit
(** Drop everything — the cure when the world underneath may have been
    swapped wholesale (an inload restoring a saved world's disk state
    relative to which every in-core entry is unvouched-for). *)

val length : t -> int
(** The number of sectors holding an entry, live or not yet found
    dead. *)

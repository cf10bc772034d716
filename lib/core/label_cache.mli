(** Every {e verified} label on the pack: one slot per sector.

    §3.6's hint ladder spends most of its budget re-reading labels it
    checked moments ago: a chain walk reads every link, opening a file
    confirms the leader's last-page hint, and a relink checks the label
    an allocation wrote moments before, and allocating a page checks the
    free label its free wrote. This table remembers, for each
    sector, the label image a successful check, read or label write last
    verified, so the next label-only access costs nothing. It is sized
    from the drive — 8 words a sector (the 7-word image and its
    generation), about 0.3 MB on a Model 31 — so nothing is ever
    evicted, and check, note and invalidate are O(1).

    Safety is the whole design. An entry is valid only while the drive's
    {!Alto_disk.Drive.label_generation} for its sector still equals the
    generation captured at verification time; the drive bumps that
    counter on every label write (in-band or poke), on the sector being
    marked bad or degrading, and on every transient trip — the retry
    evidence {!Alto_disk.Reliable} acts on. A quarantined or suspect
    sector therefore can never be satisfied from a stale entry: the act
    that made it suspect also killed the entry. {!check} detects dead
    entries lazily and counts them as [fs.label_cache.invalidations].

    The table is the only in-core copy of a label. It answers the label
    checks of {!Page}'s label-only accesses, of {!Fs}'s allocations and
    frees (which send only its misses to the platter) and of {!Bio}'s
    buffered reads and absorbed writes; it is primed by {!Page}, by
    {!Fs}'s allocation and free writes, by {!Bio}'s fills and flushes
    and by {!File}'s batched transfers. One instance hangs off each
    {!Fs.t} handle. Counters: [fs.label_cache.{hits,misses,invalidations}]:
    a hit is a check the table answered, a miss one it sent to the
    platter. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type t

val create : Drive.t -> t
(** An empty table with one slot for every sector of the drive. *)

val check : t -> Disk_address.t -> Word.t array -> (unit, Drive.error) result option
(** [check t addr pattern] answers a label check from a live entry:
    [Some verdict], the controller's check action replayed against it (a
    zero pattern word learns the entry's word, a non-zero one must equal
    it, and the first difference is a label [Check_mismatch], as on the
    platter), counted as a hit, a refusal included. [None] when the table
    cannot answer, leaving [pattern] as it was and counting a miss. An
    address outside the pack (nil included) is a miss; a stored entry
    whose generation has moved is removed, counted as an invalidation,
    and reported as a miss. *)

val confirm : t -> Disk_address.t -> Word.t array -> (unit, Drive.error) result option
(** {!check} for a sector whose value {!Bio} holds: the same verdict
    from a live entry, counted as neither hit nor miss (the track
    buffer counts the access), and [None], with nothing counted or
    removed, when the entry is absent or dead. *)

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

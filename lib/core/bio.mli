(** The track buffer cache: whole-track buffers with delayed write-back.

    The verified-label cache (PR 3) proved that a cached copy whose
    staleness is policed by {!Drive.label_generation} pays for itself
    1:1 in saved disk operations. This module generalizes the idea from
    8-word labels to whole tracks, UNIX-v4-bio-style: a read that
    misses fills the sectors that pass under the heads on the way to
    it, in one elevator batch — from the slot where the heads land
    ({!Drive.catch_slot}) through the wanted sector, which costs no
    more than reading the wanted sector alone — and every later read of
    a buffered sector is answered from memory. A sequential reader's
    next miss finds the heads over its sector, so it waits for nothing.
    A track that comes back within one cache lifetime (evicted within
    the last [tracks] evictions, 2Q's admission rule) is read whole: a
    revolution from wherever the heads land buys every later read of
    it. Writes are absorbed into the buffer, marked dirty and
    {e delayed}; they reach the platter coalesced into contiguous track
    sweeps through the same elevator —
    on eviction, on {!Fs.flush}, on an explicit {!flush} (the
    executive's [sync], OutLoad, quit), or when the dirty count crosses
    the high-water mark.

    {2 Coherence}

    A buffered sector keeps only its value and the
    {!Drive.label_generation} observed when that value was read or
    written, and is dead the moment the generation moves — the exact
    discipline of {!Label_cache}, so quarantine, retry evidence and
    patrol relocation can never be masked by the cache. Its label is
    the verified-label table's: a fill records every label it reads
    there, and every name check against a buffered sector is answered
    from there. A delayed write keeps the check pattern it was absorbed
    under, and is flushed as label-[Check] + value-[Write] against it:
    if anything re-labelled the sector in the meantime (the table then
    names its next owner) the platter wins, the stale write is dropped
    and counted ([fs.bio.write_conflicts]).

    {2 Crash safety}

    A dirty buffer means acknowledged-but-unwritten values, so the
    owner ({!Fs}) is told on every clean-to-dirty transition, and before
    every flush sweep (the [on_write] hook), and maps the sectors' cylinders
    in its write-ahead map: a power failure with buffers pending boots
    dirty, and a flush sweep never stops mid-pass to write the map. Only
    {e values} of already-labelled pages are ever delayed — labels,
    allocation and the descriptor always write through — so a crash
    loses at most recent page contents, never structure.

    Readers of true pack state (audit digests, the patrol, the
    scavenger, raw transfers) must either bypass this cache after a
    {!flush}, or {!invalidate}/{!clear} what they overwrite. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address

type t

val create : label_cache:Label_cache.t -> Drive.t -> t
(** An empty cache of at most 16 whole-track buffers ({!set_tracks}
    resizes it). Half the cache's sector capacity is the dirty-sector
    count that triggers an automatic full flush. [label_cache] holds
    the labels of the buffered sectors: fills and flushes record them
    there, so a fill also warms the chain-walking paths. *)

val enabled : t -> bool

val set_tracks : t -> int -> unit
(** Resize (shrinking flushes and evicts; 0 flushes everything and
    disables the cache entirely — every probe misses and nothing is
    absorbed). The flush threshold and the count of recent evictions
    whose tracks a miss reads whole follow the new capacity. Raises
    [Invalid_argument] on a negative count. *)

val lookup :
  t ->
  Disk_address.t ->
  label:Word.t array ->
  value:Word.t array ->
  (unit, Drive.error) result option
(** When the sector is buffered and generation-live, [Some] verdict of
    [label]'s name check against the verified-label table
    ({!Label_cache.confirm}), with the value copied into [value] on
    [Ok]; counts a hit. A generation-dead dirty sector is flushed
    (platter arbitrates) and dropped before reporting a miss; misses are
    counted by {!fill}, so probe-then-fill reads count one miss each. *)

val fill : t -> Disk_address.t -> unit
(** Read, in one elevator batch, every unbuffered, non-dirty sector of
    the address's track from the slot where the heads will land
    ({!Drive.catch_slot}, after any eviction's flush) up to and
    including the address's own, or of the whole track when the track
    was evicted within the last [tracks] evictions; keep the survivors'
    values and record their labels in the table (sectors whose read
    hard-fails stay unbuffered — the caller's per-sector fallback path
    sees the true error). Counts one miss, and one fill when it reads
    anything. May evict (and so flush) the least-recently-used track.
    No-op when disabled. *)

val peek :
  t ->
  Disk_address.t ->
  label:Word.t array ->
  value:Word.t array ->
  (unit, Drive.error) result option
(** {!lookup} without touching the hit/miss counters or the LRU clock —
    for the second probe after a {!fill}. *)

val resident : t -> Disk_address.t -> bool
(** Whether the sector is buffered and generation-live; counts nothing. *)

val absorb :
  t -> Disk_address.t -> label:Word.t array -> Word.t array -> (unit, Drive.error) result option
(** A value write, delayed in the buffer when {!lookup} would serve the
    sector, and counted as its hit: on [Ok] the value is copied in, to
    be flushed against [label] as the name check filled it in (the
    buffer keeps the array), the [on_write] hook run first if the sector
    was clean. [None] means the caller must write through (and then
    {!install} or {!invalidate}). *)

val install : t -> Disk_address.t -> value:Word.t array -> unit
(** Record the outcome of a write-through or direct read as a clean
    buffered sector — only if its track is already resident (a write
    never allocates a buffer). The caller has just recorded the
    sector's label in the table. Supersedes any pending dirty content
    for that sector. *)

val invalidate : t -> Disk_address.t -> unit
(** Drop the sector's buffered content {e without} flushing — for
    callers that just overwrote or relocated the sector out-of-band
    (quarantine, patrol relocation, replica repair): whatever the
    buffer held, including a pending dirty value, is superseded. *)

val clear : t -> unit
(** Drop every buffer, dirty ones included, without flushing — for
    InLoad's wholesale world swap ({e after} an explicit {!flush}) and
    for tests. *)

type flush_report = { sectors : int; tracks : int; conflicts : int }

val flush : t -> flush_report
(** Write every dirty sector back through one elevator batch —
    label-[Check] + value-[Write], coalesced by the C-SCAN sweep into
    contiguous track runs. Conflicted sectors (the platter was
    re-labelled since the write was absorbed) are dropped and counted;
    a landed write records the label it re-verified in the table.
    Buffers stay resident and clean. *)

val set_on_write : t -> (Disk_address.t list -> unit) -> unit
(** Hook run {e before} the cache writes or delays a write: on every
    clean-to-dirty sector transition with that sector, and before every
    flush sweep with all the sectors it will write. {!Fs} wires this to
    its write-ahead cylinder map ({!Fs.announce}). *)

val cached_tracks : t -> int
val cached_sectors : t -> int
val dirty_sectors : t -> int

(** A mounted volume: the disk descriptor and the page allocator (§3.3).

    The disk descriptor lives in a file at a standard disk address and
    holds the allocation map (a {e hint} — "the absolute information
    about which pages are free is contained in the labels"), the disk
    shape (absolute), and the name of the root directory (a hint).

    Allocation follows the paper's protocol exactly. The map proposes a
    page; the first write checks the free pattern in its label and only
    then writes the real label — so "a page improperly marked free in the
    map results in a little extra one-time disk activity", and a page
    improperly marked busy is merely lost until the scavenger finds it.
    Freeing checks the page's full name, then writes ones through label
    and value. Both allocation and freeing therefore cost about one disk
    revolution; ordinary data writes check the label for free.

    [label_checking] can be turned off to measure what those checks cost
    and what they buy (experiment E3/E9 ablations). *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address

type allocation_policy =
  | Near_previous
      (** Scan onward from the last allocation — the default, which lays
          files out close to consecutively on a quiet disk. *)
  | Rotation_aware
      (** Near-previous track order with rotational position sensing:
          every free sector in a small window of upcoming tracks is
          charged its arrival cost — seek plus rotational wait to its
          slot ({!Drive.catch_slot}) — and the cheapest wins, so an
          allocation stream never waits most of a revolution for the
          linearly-next sector; a hostile-angle hole is left for a
          later pass that arrives at a different phase.
          Trades consecutive sector numbering (and so the leader's
          consecutive-layout hint) for lower first-write latency on
          fragmented tracks. *)
  | Scattered of Random.State.t
      (** Allocate uniformly at random — used by the experiments to
          manufacture fragmentation. *)

type error =
  | Disk_full
  | Page_error of Page.error
  | Corrupt of string
      (** The on-disk descriptor is unusable; the cure is the scavenger. *)

val pp_error : Format.formatter -> error -> unit

type t

val boot_address : Disk_address.t
(** DA 0: reserved for the first page of the boot file (§4). *)

val descriptor_leader_address : Disk_address.t
(** DA 1: the standard address of the disk descriptor file. *)

val format : ?disk_name:string -> Drive.t -> t
(** Make a virgin file system: every sector freed (ones through label and
    value), a fresh descriptor file at the standard address, an empty
    root directory, and the map flushed. Factory formatting writes the
    pack out-of-band, so it costs no simulated time. *)

val mount : Drive.t -> (t, string) result
(** Read the descriptor from the standard address. Any damage — to the
    descriptor's pages, its magic, or a shape that contradicts the
    drive — yields [Error]; the caller's recovery is {!Scavenger}. A
    dirty pack resumes its serial counter the {!fresh_fid} gap past the
    recorded value: a crash may have lost the record of serials already
    on the platter, but never of one that far ahead. *)

val drive : t -> Drive.t

val label_cache : t -> Label_cache.t
(** The volume's verified-label cache: one per handle, primed and
    consulted by every {!Page} access made on the volume's behalf.
    {!quarantine} evicts eagerly; everything else relies on the drive's
    generation counters. *)

val bio : t -> Bio.t
(** The volume's track buffer cache: one per handle, consulted and
    primed by {!Page} reads and writes made on the volume's behalf.
    {!flush} writes its delayed values back before the descriptor;
    {!quarantine} evicts eagerly. Readers that must see true pack state
    (audit digests, raw transfers) flush it first. *)

val geometry : t -> Geometry.t
val clock : t -> Alto_machine.Sim_clock.t
val now_seconds : t -> int

val root_dir : t -> Page.full_name option
(** Page 0 of the root directory file. *)

val set_root_dir : t -> Page.full_name -> unit

val fresh_fid : ?directory:bool -> t -> File_id.t
(** The next unused file id (serial counter; flushed with the map). The
    counter never runs more than a fixed gap ahead of the value the
    descriptor last recorded: the serial that would reach the gap is
    handed out only after a descriptor write ({!flush}, best effort). *)

val policy : t -> allocation_policy
val set_policy : t -> allocation_policy -> unit
val label_checking : t -> bool
val set_label_checking : t -> bool -> unit

(** {2 Allocation} *)

val allocate_page :
  t -> label:(Disk_address.t -> Label.t) -> value:Word.t array -> (Disk_address.t, error) result
(** Pick a free page, then perform the first write: check the free
    pattern, write [label addr] and [value]. Stale map entries and bad
    sectors are retried transparently (the map is corrected as a side
    effect). *)

val reserve : t -> (Disk_address.t, error) result
(** The map half of allocation only: pick a page and mark it busy. Used
    when several pages' labels must cross-link before any is written;
    each must still be written with {!write_first}. *)

val unreserve : t -> Disk_address.t -> unit

val write_first :
  t -> Disk_address.t -> Label.t -> Word.t array -> (unit, [ `Not_free | `Bad ]) result
(** The disk half: check-free then write label and value (two disk
    operations — the revolution the paper charges to allocation). *)

val free_page : t -> Page.full_name -> (unit, error) result
(** Check the page's name, write ones through label and value, clear the
    map bit. *)

val free_count : t -> int
val is_free_in_map : t -> Disk_address.t -> bool
val mark_busy : t -> Disk_address.t -> unit
(** Map-only marking; the scavenger and compactor use these while they
    rebuild the map from labels. *)

val mark_free : t -> Disk_address.t -> unit
(** Map-only freeing. A quarantined sector is left busy: the bad-sector
    table overrides the map so the allocator can never hand it out. *)

(** {2 The bad-sector table}

    Sectors whose retry ladder ran dry ({!Alto_disk.Reliable}) are
    quarantined: permanently marked busy in the map and recorded in a
    table that travels with the descriptor, so the verdict survives
    remounts. The table holds at most 64 entries; overflow is counted
    ([fs.quarantine_overflow]) and the extra sectors stay busy only for
    the current mount. *)

val quarantine : t -> Disk_address.t -> unit
(** Mark the sector busy forever and append it to the persistent
    bad-sector table (idempotent; flushed with the descriptor). When the
    table is full the sector spills instead: still busy, still refusing
    {!mark_free}, counted as [fs.quarantine_overflow] — and surviving
    remount only once {!Bad_sectors} writes the spill file. *)

val quarantined : t -> Disk_address.t -> bool
(** Membership in the descriptor table proper (spilled sectors answer
    [false] here; ask {!spilled}). *)

val bad_sector_table : t -> Disk_address.t list
(** The quarantined sectors, oldest first. *)

val spilled : t -> Disk_address.t -> bool

val spilled_table : t -> Disk_address.t list
(** Quarantine verdicts that overflowed the descriptor table, oldest
    first — what {!Bad_sectors} persists. *)

val adopt_spilled : t -> Disk_address.t -> unit
(** Re-enter one spill-file entry read back at mount: busy forever,
    label cache evicted, no overflow counted. *)

val flush : t -> (unit, error) result
(** Write map, serial counter, shape and root name back into the
    descriptor file. *)

(** {2 Unsafe-shutdown state}

    One descriptor word records whether the volume has mutated since its
    last consistency point. It is set (and written through) by the first
    {!reserve}, {!free_page} or {!quarantine} after the point, and
    cleared by a clean unmount ({!mark_clean}), an OutLoad, a format or
    a scavenge. A pack that {!mount}s with {!dirty} true crashed, and
    boot answers with {!Patrol.recover} — a bounded pass from the
    persisted patrol cursor — instead of a whole-pack scavenge. *)

val dirty : t -> bool

val mark_clean : t -> (unit, error) result
(** Declare a consistency point: clear the flag and flush. *)

val patrol_cursor : t -> int
(** The sector index where the verify sweep resumes; persisted with the
    descriptor so recovery is bounded by the sweep's unfinished tail. *)

val set_patrol_cursor : t -> int -> unit
(** In-core only; {!flush} (or the patrol's own persistence policy)
    writes it out. Raises [Invalid_argument] beyond the pack. *)

type counters = {
  allocations : int;
  frees : int;
  stale_map_hits : int;
      (** Allocation attempts refuted by the label's free check — the
          map hint being caught lying. *)
  bad_sectors_hit : int;
}

val counters : t -> counters
val reset_counters : t -> unit

(** {2 Reconstruction interface}

    Used by the scavenger to build a volume handle from swept labels
    rather than from a (possibly destroyed) descriptor. *)

val create_unmounted : Drive.t -> t
(** A handle with an all-busy map, no root, and the serial counter at
    the first user serial; the scavenger then corrects all three and
    calls {!rebuild_descriptor}. *)

val set_next_serial : t -> int -> unit
val next_serial : t -> int

val rebuild_descriptor : t -> (unit, error) result
(** Re-create the descriptor file's pages at the standard addresses
    (assumed free or already the descriptor's own) and flush. *)

val descriptor_page_count : t -> int
(** Number of data pages the descriptor file occupies on this geometry;
    together with the leader they sit at addresses 1..1+count. *)

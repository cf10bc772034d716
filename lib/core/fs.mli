(** A mounted volume: the disk descriptor and the page allocator (§3.3).

    The disk descriptor lives in a file at a standard disk address and
    holds the allocation map (a {e hint} — "the absolute information
    about which pages are free is contained in the labels"), the disk
    shape (absolute), and the name of the root directory (a hint).

    Allocation follows the paper's protocol exactly. The map proposes a
    page, the first free one after the last allocation; the first write checks the free pattern in its label and only
    then writes the real label — so "a page improperly marked free in the
    map results in a little extra one-time disk activity", and a page
    improperly marked busy is merely lost until the scavenger finds it.
    Freeing checks the page's full name, then writes ones through label
    and value. For one page checked on the platter, allocation and
    freeing therefore each cost about one disk revolution, as the paper
    says; ordinary data writes check the label for free. A check whose
    label the {!label_cache} holds is answered there instead (the hint
    rule of §3.6: a verified fact stands in for the platter), so a page
    whose label was written or read since costs only its write. A run of
    pages pays the check once: every check the table cannot answer rides
    one elevator pass, then the writes follow, so a page inside a run
    costs about a sector time instead of a revolution.

    [label_checking] can be turned off to measure what those checks cost
    and what they buy (experiment E3/E9 ablations).

    {2 The descriptor file}

    The leader sits at DA 1 and the data pages follow it at consecutive
    addresses: two record slots of equal size. A record holds the whole
    descriptor — magic, format version (4), disk shape, root directory
    name, serial counter, allocation map (16 sectors a word), a reserved
    word, the patrol cursor and the bad-sector table — followed by the
    write-ahead cylinder map (the cylinder count, then one bit per
    cylinder), and every page of it starts with the record's 32-bit
    sequence number. A record is sized as if the table held 64 entries,
    and the table then takes every word its pages leave, so a record
    fills its pages: two full pages on a Model 31. Every descriptor write
    after the leader is one whole record into the slot that does not hold
    the newest; a torn record write leaves the other slot whole. A mount
    reads the records alone: each page is label-checked as the
    descriptor's and the record carries the magic, version and shape, so
    a leader a crash tore does not keep the pack from mounting. A record
    of another format version is refused like any record that does not
    parse. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address

type allocation_policy =
  | Near_previous
      (** Scan onward from the last allocation — the allocator, which
          lays files out close to consecutively on a quiet disk. *)
  | Scattered of Alto_machine.Splitmix.t
      (** Allocate uniformly at random — the fixture the experiments and
          tests use to manufacture fragmentation. The same seed scatters
          the same way on every compiler. *)

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

val format : Drive.t -> t
(** Make a virgin file system: every sector freed (ones through label and
    value), a fresh descriptor file at the standard address, an empty
    root directory, and the map flushed. Factory formatting writes the
    pack out-of-band, so it costs no simulated time. *)

val mount : Drive.t -> (t, string) result
(** Read both record slots of the descriptor, and take the newest record whose pages all read back under one sequence number.
    [Error] when neither does, or when that record's content does not
    parse — bad magic or version, a shape that contradicts the drive; an
    older record never stands in for it, since only the newest map is
    sure to cover every write. The caller's recovery is {!Scavenger}. A
    dirty pack resumes its serial counter the {!fresh_fid} gap past the
    recorded value: a crash may have lost the record of serials already
    on the platter, but never of one that far ahead. *)

val drive : t -> Drive.t

val label_cache : t -> Label_cache.t
(** The volume's verified-label table: one per handle, one slot per
    sector, primed and consulted by every {!Page} access made on the
    volume's behalf and by the checks of {!reserve_pages} and
    {!free_pages}, and primed by {!write_reserved} and {!free_pages}.
    {!quarantine} invalidates eagerly; everything else relies on the
    drive's generation counters. *)

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

val set_policy : t -> allocation_policy -> unit
val set_label_checking : t -> bool -> unit

(** {2 Allocation} *)

val allocate_page :
  t -> label:(Disk_address.t -> Label.t) -> value:Word.t array -> (Disk_address.t, error) result
(** The one-page case of {!reserve_pages} and {!write_reserved}: pick a
    free page, check the free pattern in its label, then write
    [label addr] and [value]. Stale map entries and bad sectors are
    retried transparently (the map is corrected as a side effect). *)

val reserve_pages : t -> int -> (Disk_address.t list, error) result
(** [reserve_pages t n] picks [n] pages from the map, marks them busy,
    and checks every candidate's label free: from {!label_cache} where
    the sector's entry is live, the rest in one elevator pass. A
    candidate the check refutes stays busy (the map lied), a bad one is
    quarantined, and the pass repeats for that many re-picks. The pages
    come back in pick order, which is the order {!allocate_page} would
    have handed them out. Fewer than [n] come back only when the map runs
    out of free pages, and none is [Error Disk_full]. Each page must be
    written with {!write_reserved} or handed back with {!unreserve}.
    Raises [Invalid_argument] when [n < 1]. *)

val write_reserved :
  t -> Disk_address.t -> Label.t -> Word.t array -> (unit, [ `Quarantined ]) result
(** The first write of a page {!reserve_pages} checked free: label and
    value in one operation. The written label is recorded in
    {!label_cache}, so a later relink or free of the page checks it in
    core. A sector that refuses the write is quarantined, and the caller
    takes another page. *)

val unreserve : t -> Disk_address.t -> unit
(** Hand an unwritten reservation back to the map. *)

val free_pages : t -> Page.full_name list -> (unit, error) result
(** Free a run of pages. Every page's full name is checked: from
    {!label_cache} where the sector's entry is live, the rest in one
    elevator pass. If any is refused, nothing is written and the error
    is [Page_error (Hint_failed _)]. Otherwise a second pass writes ones
    through every page's label and value and clears their map bits, and
    each free label written is recorded in {!label_cache}, so allocating
    the page again checks it in core. A write that fails leaves its page
    busy and is reported after the rest of the pass; the pages written
    are free. *)

val free_page : t -> Page.full_name -> (unit, error) result
(** [free_pages] of one page. *)

val free_count : t -> int
val is_free_in_map : t -> Disk_address.t -> bool
val mark_busy : t -> Disk_address.t -> unit
(** Map-only marking; the scavenger uses these while it rebuilds the map
    from labels. *)

val mark_free : t -> Disk_address.t -> unit
(** Map-only freeing. A {!quarantined} sector is left busy: its verdict
    overrides the map so the allocator can never hand it out. *)

(** {2 The bad-sector table}

    Sectors whose retry ladder ran dry ({!Alto_disk.Reliable}) are
    quarantined: permanently marked busy in the map and recorded in a
    table that travels with the descriptor, so the verdict survives
    remounts. The table takes every word the record's pages leave
    ({!bad_sector_capacity}: 168 entries on a Model 31, 105 on a Model
    44). A verdict past it is counted ([fs.quarantine_overflow]) and
    holds for the current mount alone: the sector stays busy and
    {!mark_free} refuses it. Its bad marker stays on the surface, so
    the patrol's rejoin rule and every scavenge convict it again after
    a remount. *)

val quarantine : t -> Disk_address.t -> unit
(** Mark the sector busy forever and append it to the persistent
    bad-sector table (idempotent; flushed with the descriptor), or, with
    the table full, hold the verdict for this mount. *)

val quarantined : t -> Disk_address.t -> bool
(** The sector holds a quarantine verdict this mount, in the table or
    past it. *)

val bad_sector_table : t -> Disk_address.t list
(** The table as the descriptor holds it: the persistent verdicts,
    oldest first. *)

val bad_sector_capacity : t -> int
(** The table's room on this pack's geometry. *)

val flush : t -> (unit, error) result
(** Write the track cache's delayed writes back, then one descriptor
    record: allocation map, serial counter, shape, root name, bad-sector
    table and patrol cursor, with the write-ahead map as it stands. *)

(** {2 The write-ahead cylinder map}

    Where writes since the last consistency point may have landed: one
    bit per cylinder, set and persisted before any write reaches that
    cylinder. The drive's write fence ({!Drive.attach}), which
    every mounted volume installs, enforces it at the one point every
    platter write passes — a label write maps the cylinders its links
    name too, so a page that links to a damaged sector is mapped as well.
    Batch writers announce a whole pass first ({!announce}), so one
    record write covers it and the fence never fires inside an elevator
    sweep. An announcement writes a whole descriptor record, carrying the
    newest record's content forward with the new map; the descriptor's
    own pages are exempt from the fence, being the records.

    The map is the pack's, shared by every handle mounted on the same
    drive. {e Dirty} means the map is not empty. Only {!mark_clean}
    empties it: a clean unmount, an OutLoad, the end of a recovery or a
    scavenge. *)

val dirty : t -> bool
(** The map is not empty. *)

val mapped_cylinders : t -> int list
(** The mapped cylinders, ascending; every cylinder after a whole-pack
    announcement. *)

val announce : t -> Disk_address.t list -> unit
(** Map the cylinders of these sectors (nil and out-of-pack addresses
    are ignored), writing one record first if any was unmapped. Call it
    before a pass that will write the sectors. *)

val announce_whole : t -> unit
(** Map every cylinder: for passes that may write anywhere (a
    whole-pack scavenge, a compaction among them). *)

val mark_clean : t -> (unit, error) result
(** Declare a consistency point: write the track cache back, then one
    descriptor record, as {!flush} does, but with an empty map. The map
    in core empties only once that record is down. *)

val patrol_cursor : t -> int
(** The sector index where the verify sweep resumes, persisted with the
    descriptor so a remount carries on the patrol's lap where it
    stopped. *)

val set_patrol_cursor : t -> int -> unit
(** In-core only; {!flush} (or the patrol's own persistence policy)
    writes it out. Raises [Invalid_argument] beyond the pack. *)

(** {2 Reconstruction interface}

    Used by the scavenger to build a volume handle from swept labels
    rather than from a (possibly destroyed) descriptor. *)

val create_unmounted : Drive.t -> t
(** A handle with an all-busy map, no root, and the serial counter at
    the first user serial; the scavenger then corrects all three and
    calls {!rebuild_descriptor}. It shares the pack's write-ahead map
    like any handle; on a pack no handle has mounted or formatted, the
    first record write reads the newest record's sequence number and
    content from the platter, so it outranks that record and carries
    its content. *)

val set_next_serial : t -> int -> unit
val next_serial : t -> int

val rebuild_descriptor : t -> (unit, error) result
(** Re-create the descriptor file's labels and leader at the standard
    addresses (assumed free or already the descriptor's own), then
    {!flush}. A page that held its record keeps it; any other starts
    as an empty slot. *)

val descriptor_page_count : t -> int
(** Number of data pages the descriptor file occupies on this geometry,
    both record slots; together with the leader they sit at addresses
    1..1+count. *)

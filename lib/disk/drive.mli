(** A simulated disk drive with the Alto controller's transfer semantics.

    §3.3: "A single disk operation can perform read, check or write
    actions independently on each of these parts, with the restriction
    that once a write is begun, it must continue through the rest of the
    sector. A check action compares data on the disk with corresponding
    data taken from memory, word by word, and aborts the entire operation
    if they don't match. If a memory word is 0, however, it is replaced by
    the corresponding disk word, so that a check action is a simple kind
    of pattern match."

    Every operation is charged simulated time: a seek if the cylinder
    changes, a rotational wait until the target sector comes under the
    head, and one sector's transfer time. The paper's one-revolution cost
    for allocate/free falls out of this model: two successive operations
    on the same sector must wait almost a full revolution between them,
    while an operation on the next sector of the same track starts
    immediately.

    The drive keeps no books of its own: operations, seeks, motion time,
    words moved, check failures and soft errors are the registry's
    [disk.*] counters ({!Alto_obs.Obs}), summed over every drive. *)

module Word = Alto_machine.Word

type t

type action = Read | Check | Write

type op = {
  header : action option;
  label : action option;
  value : action option;
}
(** What to do to each part, processed in header, label, value order.
    [None] means the part is skipped. *)

val op_none : op
(** All parts skipped; combine with record update syntax. *)

type error =
  | Bad_sector  (** The sector is permanently unreadable. *)
  | Check_mismatch of {
      part : Sector.part;
      offset : int;
      memory : Word.t;
      disk : Word.t;
    }
      (** A check action found a non-wildcard memory word differing from
          the disk. Parts after the failing one were not performed. *)
  | Transient of Sector.part
      (** A soft error: the controller's checksum caught a misread of
          this part before any data moved. The buffers are untouched, no
          earlier part was undone, and a retry of the same operation may
          succeed — {!Reliable.run} is the layer that performs those
          retries. Only read and check actions can fail this way. *)

val pp_error : Format.formatter -> error -> unit

val create : ?clock:Alto_machine.Sim_clock.t -> pack_id:int -> Geometry.t -> t
(** A formatted pack: every sector's header holds the pack id and its own
    disk address; labels and values are zeroed. Raises [Invalid_argument]
    if the geometry fails {!Geometry.validate}. *)

val geometry : t -> Geometry.t
val clock : t -> Alto_machine.Sim_clock.t
val sector_count : t -> int

val has_sector : t -> Disk_address.t -> bool
(** Whether the address names a sector of this pack; nil names none. *)

val run :
  t ->
  Disk_address.t ->
  op ->
  ?header:Word.t array ->
  ?label:Word.t array ->
  ?value:Word.t array ->
  unit ->
  (unit, error) result
(** Execute one disk operation. Each part with an action must be given a
    buffer of exactly that part's size: [Read] fills the buffer from the
    disk, [Check] pattern-matches it against the disk (mutating wildcard
    zeros to the disk's words), [Write] stores it to the disk.

    Raises [Invalid_argument] — these are programming errors, not disk
    errors — if the address is nil or out of range, a buffer is missing
    or mis-sized, or the operation violates the write-continuation rule
    (a write on one part requires writes on all later parts). *)

type attachment = ..
(** State a layer above keeps with the pack itself rather than with any
    one handle on it — a mounted volume's write-ahead map. The drive
    only holds it. *)

val attach : t -> attachment -> fence:(Disk_address.t -> Word.t array option -> unit) -> unit
(** Hold [attachment] and install [fence] as the write-ahead point:
    {!run} calls the fence before every operation with a write action —
    before a crash point sees the operation — with the sector and, when the operation writes the label, the label
    words. Whatever the fence writes itself (its own {!run} calls reach
    it again) lands on the platter first, so a mounted volume can
    persist where a write may land before the write begins.
    Out-of-band {!poke}s pass no fence. Until the first [attach] the
    fence does nothing. *)

val attachment : t -> attachment option

val current_cylinder : t -> int
(** Where the heads are right now — the anchor from which {!Sched}
    starts its elevator pass. *)

val catch_slot : t -> cylinder:int -> int
(** Rotational position sensing. The sector slot (0 ..
    [sectors_per_track - 1]) that will be the first one catchable after
    seeking from the current cylinder to [cylinder]: the controller
    watches sector marks pass under the heads, so a scheduler can order
    a cylinder's requests to start where the surface will actually be
    instead of parking up to a full revolution waiting for slot 0.
    Purely observational — charges no time and moves nothing. *)

val label_generation : t -> Disk_address.t -> int
(** A per-sector counter that advances whenever the sector's label may
    have changed underneath a cached copy: any label write (in-band
    {!run} or out-of-band {!poke}), the sector being marked bad, a
    marginal sector degrading, and every transient trip (retry evidence —
    if the surface just misread, cached knowledge about it is suspect).
    {!Label_cache} entries store the generation at verify time and are
    dead the moment it moves. Raises [Invalid_argument] on an address
    beyond the pack. *)

val bump_label_generation : t -> Disk_address.t -> unit
(** Advance the sector's generation by hand. The in-band bumps cover
    every way the {e drive} can know a label changed; a layer that moves
    a page between sectors knows more — both ends of the move must shed
    any cached label even if some individual write was absorbed or
    elided — and declares it here. *)

val restore : t -> unit
(** Recalibrate: seek back to cylinder 0, charging the seek time. The
    retry layer escalates to this when immediate retries keep failing —
    the real controller's cure for a head that has drifted off track. *)

(** {2 The transient-fault model}

    Soft errors are the everyday failures the paper's recovery discipline
    exists for: a read that fails once and succeeds on retry. The model
    has two dials — a pack-wide base rate, and per-sector {e marginal}
    profiles whose rate climbs with every failure until the sector
    degrades into a permanent {!Bad_sector}. All draws come from a
    seeded, version-stable PRNG inside the drive, so a workload replayed
    with the same seed sees the identical error sequence on any OCaml
    version. *)

val set_soft_errors : t -> seed:int -> rate:float -> unit
(** Reseed the drive's soft-error stream and set the base probability
    that any single read/check part access fails transiently. [rate]
    0.0 (the default) disables base soft errors without disturbing
    marginal sectors. Raises [Invalid_argument] unless [0 <= rate <= 1]. *)

val set_marginal :
  t -> Disk_address.t -> rate:float -> growth:float -> degrade_after:int -> unit
(** Declare one sector marginal: its data surface is wearing out, so
    {e value} reads fail with its own [rate] (added to the base rate)
    while header and label accesses see only the base rate; each failure
    multiplies the rate by [growth] (≥ 1), and after [degrade_after]
    failures the sector turns permanently bad. *)

val is_marginal : t -> Disk_address.t -> bool

val soft_failures : t -> Disk_address.t -> int
(** How many soft errors this sector's marginal profile has recorded;
    0 for non-marginal sectors. *)

(** {2 The crash-point model}

    A crash point counts only operations that {e write}: a read changes
    nothing on the platter, so killing the machine at each write reaches
    every state a power failure can leave. It can also stop the fatal
    write partway through one part — the torn sector a real power
    failure can leave, which §3.3's label discipline never promises
    against at the sub-sector level. The controller models a per-part
    checksum: a torn part reads back as {!Bad_sector} until a full
    rewrite of that part restores it, so recovery can always {e detect}
    the tear even though the data is gone. Out-of-band access
    ({!peek}/{!poke}) is not counted — the microscope works even on a
    dead machine. *)

exception Power_failure
(** Raised by {!run} when an armed crash point fires — the machine stops
    mid-workload, leaving the pack exactly as the completed operations
    (and a torn one's transferred prefix) left it. The crash-consistency
    tests sweep the failure point across whole workloads. *)

type tear =
  | Torn_label
      (** The fatal operation's {e first} written part stops halfway:
          for a label+value write, the label is torn and the value never
          started. *)
  | Torn_value
      (** The fatal operation's {e last} written part stops halfway:
          for a label+value write, the label is committed and the value
          is half-transferred. *)

val set_crash_point : t -> ?tear:tear -> after_writes:int -> unit -> unit
(** Arm the countdown: [after_writes] more writing operations complete
    normally and the one after kills the machine with {!Power_failure}.
    Without [tear] the fatal operation never starts (the cut fell
    between sectors); with it, the operation's pre-write actions (the
    guarding label check) still run and then the chosen part is left
    torn — a prefix of the words transferred (seeded, version-stable
    cut point) and the part unreadable. Raises [Invalid_argument] on a
    negative countdown. *)

val clear_crash_point : t -> unit

val crash_pending : t -> bool
(** An armed crash point that has not fired yet — how the harness tells
    a workload that outran its enumerated points from one that died. *)

val write_ops : t -> int
(** Total operations with at least one write action since the drive was
    created — the coordinate system crash points are enumerated in. *)

val is_torn : t -> Disk_address.t -> bool
(** Some part of this sector was left mid-transfer by a torn crash and
    has not been rewritten since. *)

(** {2 Out-of-band access}

    These bypass the controller and the clock. They exist for tests,
    fault injection and the experiment harness — the moral equivalent of
    pulling the pack out of the drive and putting it under a microscope.
    Production code paths must use {!run}. *)

val peek : t -> Disk_address.t -> Sector.t
(** A copy of the sector's current contents. *)

val read_part : t -> Disk_address.t -> Sector.part -> Word.t array -> unit
(** [read_part t addr part buf] copies one part of the sector into [buf],
    which must be exactly that part's size, and allocates nothing: the
    way to read many sectors out of band without copying each whole.
    Raises [Invalid_argument] on a mis-sized buffer. *)

val poke : t -> Disk_address.t -> Sector.part -> Word.t array -> unit
(** Overwrite one part directly. Counts as out-of-band staleness
    evidence whatever the part: the sector's label generation is bumped
    so every in-core copy (cached label, buffered track sector) dies
    rather than mask what the "physics" changed. *)

val set_bad : t -> Disk_address.t -> bool -> unit
(** Mark or unmark a sector as permanently bad. *)

val is_bad : t -> Disk_address.t -> bool

val set_value_unreadable : t -> Disk_address.t -> bool -> unit
(** A subtler media failure: the data surface is damaged, so reading or
    checking the value part fails with {!Bad_sector}, but the label (and
    writes, which have no read-back) still work — the failure mode
    behind §3.5's "permanently bad pages are marked in the label with a
    special value so that they will never be used again". Toggling the
    flag bumps the sector's label generation — the surface died (or
    healed) under whatever was cached. *)

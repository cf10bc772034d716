(** The online patrol: an incremental verify sweep with proactive sector
    relocation and bounded unsafe-shutdown recovery (§3.5 extended).

    The scavenger of §3.5 is an offline program: it repairs a broken pack
    once the damage is done. The patrol is the same label discipline run
    {e before} the damage: during idle moments the system verifies a
    bounded slice of the pack — one cylinder of label+value reads
    through {!Sweep.read}, about one seek per tick — and uses the retry
    ladder's evidence ({!Alto_disk.Reliable}) to find sectors that still
    answer but are starting to fail. A live page on such a sector is
    {e relocated}: copied to a freshly allocated sector, its neighbours'
    link hints and its catalogue entry re-pointed, the old sector
    retired and quarantined, and the verified label cache told about
    both ends of the move. The data survives the sector's eventual
    death instead of being salvaged after it.

    The same sweep doubles as crash recovery. The sweep cursor is
    persisted in the disk descriptor, and the descriptor carries a dirty
    flag set on the first mutation after a consistency point; a pack that
    mounts dirty crashed, and {!recover} finishes the lap in flight —
    cursor to end of pack — instead of scavenging the whole pack. That
    restores {e safety} (every allocation-map lie in the unswept tail is
    found, every half-finished free reclaimed) at a cost bounded by the
    tail, not the pack. {e Completeness} — the head region behind the
    crashed cursor — is owed a {e makeup lap}: create the session's
    patrol with [~makeup_until:recovery.resumed_at] and {!tick} runs an
    extra ordinary slice per idle moment until the cursor crosses that
    region, so pages leaked behind the crash are found within one lap
    instead of lazily.

    What one tick does with each sector, by label classification:

    - {b valid, clean read}: confirm the map says busy (repair the hint
      if not — "map protection").
    - {b valid, suspect} (read back only after a retry): relocate,
      reusing the value the read already fetched.
    - {b valid, hard failure}: salvage-read label and value; relocate if
      legible, otherwise quarantine and count the page lost.
    - {b free, map busy}: a leaked allocation or half-finished free —
      reclaim the map bit (unless quarantined).
    - {b bad marker, not in table}: a crash separated the marker from
      the table entry — rejoin them.
    - {b garbage}: ownership unknown; left for the scavenger.

    Sectors at fixed addresses (the boot page, the descriptor file) are
    verified but never moved or map-"repaired": their address is their
    identity. Relocation never runs on the descriptor's own pages. *)

type t

val create : ?makeup_until:int -> Fs.t -> t
(** A patrol that verifies 24 sectors (one Diablo 31 cylinder) per tick
    and moves a live page whose sector needed a retry to read back —
    false positives cost one copy, false negatives risk the data.
    [makeup_until] (default 0 = none) marks the head region [[0, k)]
    a crash recovery skipped; ticks run at double rate until the cursor
    crosses it. Raises [Invalid_argument] when [makeup_until] is
    negative. *)

val fs : t -> Fs.t

val makeup_pending : t -> int
(** Sectors of the post-recovery makeup region the cursor has not
    reached yet; 0 once the completeness lap is done (or was never
    owed). *)

type report = {
  first_sector : int;
  scanned : int;
  suspects : int;  (** Live pages whose sector showed retry evidence. *)
  relocated : int;
  quarantined : int;
  pages_lost : int;  (** Hard failures whose value defeated salvage. *)
  map_repairs : int;
  links_repaired : int;
  wrapped : bool;  (** This tick completed a lap of the pack. *)
}

val tick : t -> report
(** Verify the next slice and heal what needs healing. Advances the
    cursor (wrapping); persists cursor, map and bad-sector spill when
    the tick changed anything or completed a lap — between those points
    the in-core cursor may run ahead of the disk's copy, which only
    makes a recovery rescan a few already-verified sectors. *)

(** {2 Cumulative instance totals (the [health] command's view)} *)

val laps : t -> int
val slices : t -> int
val suspects_found : t -> int
val relocated : t -> int
val quarantined : t -> int
val pages_lost : t -> int
val map_repairs : t -> int

(** {2 Unsafe-shutdown recovery} *)

type recovery = {
  resumed_at : int;  (** The persisted cursor the scan resumed from. *)
  sectors_scanned : int;
  r_suspects : int;
  r_relocated : int;
  r_quarantined : int;
  r_pages_lost : int;
  r_map_repairs : int;
  duration_us : int;  (** Simulated time the scan cost. *)
}

val recover : Fs.t -> recovery
(** Finish the lap a crash interrupted: scan from the persisted cursor
    to the end of the pack, then reset the cursor, flush the spill file
    and declare a consistency point ({!Fs.mark_clean}). Boot calls this
    when a pack mounts dirty; cost is proportional to the unswept tail,
    against the scavenger's multiple whole-pack passes. *)

val pp_report : Format.formatter -> report -> unit
val pp_recovery : Format.formatter -> recovery -> unit

(** The online patrol: an incremental verify sweep with proactive sector
    relocation (§3.5 extended).

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

    The patrol is not crash recovery: a pack that crashed is settled at
    boot through its write-ahead cylinder map ({!Recovery}), which
    applies these same slice rules ({!settle}) to the sectors it reads.

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

val create : Fs.t -> t
(** A patrol that verifies 24 sectors (one Diablo 31 cylinder) per tick
    and moves a live page whose sector needed a retry to read back —
    false positives cost one copy, false negatives risk the data. *)

val fs : t -> Fs.t

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
    cursor (wrapping); persists the descriptor (cursor, map and
    bad-sector table) when the tick changed anything or completed a lap
    — between those points the in-core cursor may run ahead of the
    disk's copy, which only restarts the lap a few sectors early. *)

(** {2 Cumulative instance totals (the [health] command's view)} *)

val laps : t -> int
val slices : t -> int
val suspects_found : t -> int
val relocated : t -> int
val quarantined : t -> int
val pages_lost : t -> int
val map_repairs : t -> int

val settle : t -> sectors:int array -> Sweep.t -> values:Alto_machine.Word.t array array -> report
(** The slice rules over sectors another pass already read: entry [j]
    of the sweep is sector [sectors.(j)], and [values.(j)] its value
    when it is a live page (a suspect moves without a second read).
    Nothing is persisted; the caller declares the consistency point. *)

(** The offline checker: the scavenger's diagnosis without its surgery.

    §3.5's scavenger rebuilds a broken pack; this module only {e reads}
    one and reports what the rebuild would find — over a raw pack image,
    with no live [System] and no working descriptor required. It is the
    oracle the crash-injection harness sweeps torn-write crash points
    with, and the library behind the executive's [fsck] command.

    The report separates two severities. {e Findings} are damage the
    label discipline already tolerates: map lies (caught by the label
    check), stale link and address hints (caught by the hint ladder),
    orphans and leaked fragments (adopted or reclaimed by the
    scavenger), duplicate claims from a crash mid-move (disambiguated by
    the chain). {e Violations} are broken promises — a descriptor that
    does not mount, a catalogued file with a missing or unreadable page,
    a dangling directory entry: states bounded recovery must never leave
    behind, where the cure is a full scavenge.

    Everything runs through ordinary timed operations, so a check's
    simulated cost is honest: one {!Sweep} reads every sector's header,
    label and value in a single pass over the pack, and the descriptor
    and catalogue pages are read on top. Nothing is ever written. Callers checking a {e live}
    volume must {!Bio.flush} it first so the platter holds every
    acknowledged write. *)

module Drive = Alto_disk.Drive

type issue = { i_class : string; i_addr : int option; i_detail : string }

type counts = {
  sectors : int;
  live : int;
  free : int;
  marked_bad : int;
  bad_media : int;
  garbage : int;
  files : int;  (** Distinct file ids holding a parseable leader page. *)
  catalogued : int;  (** Root entries that named a real file. *)
  orphans : int;
}

type report = {
  counts : counts;
  descriptor_ok : bool;
  dirty : bool;
      (** The unsafe-shutdown flag was set: acknowledged delayed writes
          may be lost and bounded recovery is due. Status, not a
          violation — a live volume mid-workload is legitimately
          dirty. *)
  findings : issue list;
  violations : issue list;
  duration_us : int;
}

val check : ?verify_values:bool -> Drive.t -> report
(** Sweep every label, mount the descriptor read-only, compare the map,
    walk the catalogue and every file chain, and ([verify_values],
    default on) judge whether every live page's data reads back — read
    in the sweep's own operations, not in a second pass. Counted in
    [fs.fsck.runs] / [fs.fsck.findings] / [fs.fsck.violations]. *)

val clean : report -> bool
(** Mountable, marked clean, and not a single finding or violation —
    the verdict a freshly settled volume must earn. *)

val pp_issue : Format.formatter -> issue -> unit
val pp_report : Format.formatter -> report -> unit

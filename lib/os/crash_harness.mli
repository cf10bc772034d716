(** The crash-point injection harness.

    §3.3 promises "recovery from crashes"; this module enumerates the
    crashes. Each trial builds a committed, sealed volume, arms
    {!Alto_disk.Fault.crash_after_writes} so the machine dies at the Nth
    writing operation of a real metadata-mutating workload — cleanly, or
    tearing the fatal sector's label or value — then boots recovery
    ({!System.boot}'s dirty path: flight-record adoption, then boot's
    verifying scavenge when the lap would owe the whole pack, else the
    bounded tail scan and the makeup lap) and interrogates the result
    with the offline checker ({!Alto_fs.Fsck}). A crash point boot
    recovery cannot answer for escalates to the full scavenger, after
    which the checker must be satisfied and every committed file must
    read back either byte-identical or as a page-exact mix of its two
    legitimate versions.

    Five workloads cover the machinery's writing paths: file
    overwrite/delete/create, the track buffers' coalesced flush sweep,
    the compactor's copy-and-retire moves, the patrol's marginal-page
    relocations, and a world OutLoad. Everything is seeded and
    simulated-clock driven, so a sweep is deterministic end to end. *)

type totals = {
  mutable trials : int;
  mutable crash_points : int;  (** Trials in which the crash fired. *)
  mutable torn_points : int;  (** Crashes that left a torn sector. *)
  mutable completed : int;  (** The countdown outran the workload. *)
  mutable dirty_boots : int;  (** Recoveries down the dirty path. *)
  mutable bounded_laps : int;  (** Dirty boots that ran the bounded lap. *)
  mutable boot_scavenges : int;
      (** Dirty boots that ran boot's verifying scavenge: the lap would
          have owed every sector, or the pack would not mount. *)
  mutable flight_adoptions : int;
  mutable settled_at_boot : int;
      (** Boot recovery alone satisfied both the checker and the content
          oracle — no scavenge needed. *)
  mutable scavenges : int;  (** Escalations to the full scavenger. *)
  mutable findings : int;  (** Advisory fsck findings after recovery. *)
  mutable violations : int;  (** Broken invariants — must stay zero. *)
  mutable violation_log : string list;  (** Newest first, for the report. *)
}

val pp_totals : Format.formatter -> totals -> unit

val run : ?points_per_workload:int -> unit -> totals
(** Sweep [points_per_workload] (default 15) evenly spaced crash points
    per workload (["files"], ["bio-flush"], ["compactor"], ["patrol"],
    ["outload"]), each in three variants: a clean between-sector crash,
    a torn label, a torn value. Leaves the flight recorder disarmed. *)

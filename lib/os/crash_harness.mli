(** The crash-point injection harness.

    §3.3 promises "recovery from crashes"; this module enumerates the
    crashes. Each trial builds a committed, sealed volume, arms
    {!Alto_disk.Fault.crash_after_writes} so the machine dies at the Nth
    writing operation of a real metadata-mutating workload — cleanly, or
    tearing the fatal sector's label or value — then boots recovery
    ({!System.boot}'s dirty path: flight-record adoption, then the
    repair through the write-ahead cylinder map, or the whole-pack
    verifying scavenge where the map cannot serve) and interrogates the result
    with the offline checker ({!Alto_fs.Fsck}). A crash point boot
    recovery cannot answer for escalates to the full scavenger, after
    which the checker must be satisfied and every committed file must
    read back either byte-identical or as a page-exact mix of its two
    legitimate versions.

    Five workloads cover the machinery's writing paths: file
    overwrite/delete/create, the track buffers' coalesced flush sweep,
    a compaction's placement (moves, swaps through a staged twin, and
    in-place rewrites), the patrol's marginal-page
    relocations, and a world OutLoad. Everything is seeded and
    simulated-clock driven, so a sweep is deterministic end to end. *)

type totals = {
  mutable trials : int;
  mutable crash_points : int;  (** Trials in which the crash fired. *)
  mutable torn_points : int;  (** Crashes that left a torn sector. *)
  mutable completed : int;  (** The countdown outran the workload. *)
  mutable dirty_boots : int;  (** Recoveries down the dirty path. *)
  mutable through_map : int;
      (** Dirty boots settled through the write-ahead cylinder map. *)
  mutable cylinders_read : int;  (** Mapped cylinders those boots read, summed. *)
  mutable fallbacks : int;
      (** Dirty boots that ran boot's whole-pack verifying scavenge: the
          map could not serve, or the pack would not mount. *)
  mutable flight_adoptions : int;
  mutable settled_at_boot : int;
      (** Boot recovery alone satisfied both the checker and the content
          oracle — no scavenge needed. *)
  mutable scavenges : int;  (** Escalations to the full scavenger. *)
  mutable findings : int;  (** Advisory fsck findings after recovery. *)
  mutable violations : int;  (** Broken invariants — must stay zero. *)
  mutable violation_log : string list;  (** Newest first, for the report. *)
}

val run : ?points_per_workload:int -> unit -> totals
(** Sweep [points_per_workload] (default 15) evenly spaced crash points
    per workload (["files"], ["bio-flush"], ["compactor"], ["patrol"],
    ["outload"]), each in three variants: a clean between-sector crash,
    a torn label, a torn value. Leaves the flight recorder disarmed. *)

val differential : ?points_per_workload:int -> unit -> int * string list
(** The same crash points as {!run}, each replayed twice — the workloads
    are deterministic. One replay boots through {!Alto_fs.Recovery.boot},
    the other is rebuilt by {!Alto_fs.Scavenger.scavenge} alone; both must
    leave the same root catalogue (name to file id) and the same readable
    bytes in every catalogued file. Returns the crash points compared and
    a line for each that disagreed. Leaves the flight recorder
    disarmed. *)

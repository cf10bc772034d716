(** The crash-point injection harness: the engine the crash sweeps run
    on.

    §3.3 promises "recovery from crashes"; this module enumerates the
    crashes. Each trial builds a committed volume, arms
    {!Alto_disk.Fault.crash_after_writes} so the machine dies at the Nth
    writing operation of a real workload — cleanly, or tearing the fatal
    sector's label or value — then boots recovery ({!System.boot}'s
    dirty path: flight-record adoption, then the repair through the
    write-ahead cylinder map, or the whole-pack verifying scavenge where
    the map cannot serve) and interrogates the result. Three oracles
    judge every trial:

    - the write-ahead rule ({!write_ahead_miss}), when the crash fired
      and the pack mounts. It reads the pack out of band, so it issues
      no drive operation;
    - the offline checker ({!Alto_fs.Fsck}) and the content oracle
      ({!verify_expect} on every {!expect}, then the workload's own
      invariant). When either objects after boot, the trial escalates to
      one full scavenge, after which neither may.

    Five default workloads cover the machinery's writing paths: file
    overwrite/delete/create, the track buffers' coalesced flush sweep,
    a compaction's placement (moves, swaps through a staged twin, and
    in-place rewrites), the patrol's marginal-page relocations, and a
    world OutLoad. Everything is seeded and simulated-clock driven, so
    a sweep is deterministic end to end. *)

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

(** {2 Workloads} *)

type expect = {
  e_name : string;  (** Catalogued in the root under this name. *)
  e_seed : int;  (** Its bytes are {!pattern} of this seed. *)
  e_len1 : int;  (** Committed bytes (version 1); 0 when the mutation creates it. *)
  e_len2 : int;  (** Bytes (version 2) if the mutation completes. *)
  e_touched : bool;
      (** The mutation writes this file: it may come back shorter, each
          page either version. An untouched one comes back byte-identical. *)
  e_may_vanish : bool;  (** A delete or a create was in flight. *)
}
(** What one file of the recovered volume must hold. *)

val pattern : seed:int -> version:int -> int -> string
(** [pattern ~seed ~version n]: the first [n] bytes of a file's
    [version] (1 committed, 2 written by the mutation). Two versions of
    one seed differ at every byte. *)

type workload = {
  w_name : string;
  w_build : unit -> Alto_disk.Drive.t * expect list;
      (** A committed pack and what its files must hold after any crash
          of the mutation. *)
  w_mutate : Alto_disk.Drive.t -> unit;
      (** A fresh incarnation mounts and runs the workload; it may die
          anywhere with {!Alto_disk.Drive.Power_failure}, and leaves the flight
          recorder disarmed when it returns. *)
  w_after_crash : Alto_disk.Drive.t -> unit;
      (** Mains power restored: undo injected drive faults that would
          otherwise fail recovery's own reads (marginal surfaces). *)
  w_extra : Alto_fs.Fs.t -> string option;
      (** Workload-specific invariant on the recovered volume. *)
}

val verify_expect : Alto_fs.Fs.t -> expect -> string list
(** What the content oracle objects to in one file of a mounted volume:
    it vanished though it may not, will not open, or holds a length or a
    page its expect does not allow. *)

(** {2 The write-ahead rule} *)

type image
(** Every sector's label and value, read out of band. *)

val image : Alto_disk.Drive.t -> image

val changed : image -> Alto_fs.Fs.t -> int list
(** [changed before fs]: the sectors, ascending, whose label or value
    differs from [before], the descriptor's pages (which hold the map)
    excepted. [fs] is a mount of the pack after the writes. *)

val write_ahead_miss : image -> Alto_fs.Fs.t -> string option
(** The first of {!changed} whose cylinder is not in the map [fs]
    mounted. A pack that mounts clean maps nothing: any change is a
    miss, unless a newer record, laid down after the writes, reads back
    whole (a consistency point). *)

(** {2 Sweeps} *)

val sweep : ?points_per_workload:int -> workload list -> totals
(** Sweep [points_per_workload] (default 15) evenly spaced crash points
    over each workload's writes, first and last included, each in three
    variants: a clean between-sector crash, a torn label, a torn value.
    A count at or above a workload's writes crashes it at every write.
    Leaves the flight recorder disarmed. *)

val run : ?points_per_workload:int -> unit -> totals
(** {!sweep} over the five default workloads (["files"], ["bio-flush"],
    ["compactor"], ["patrol"], ["outload"]). *)

val differential : ?points_per_workload:int -> unit -> int * string list
(** The same crash points as {!run}, each replayed twice — the workloads
    are deterministic. One replay boots through {!Alto_fs.Recovery.boot},
    the other is rebuilt by {!Alto_fs.Scavenger.scavenge} alone; both must
    leave the same root catalogue (name to file id) and the same readable
    bytes in every catalogued file. Returns the crash points compared and
    a line for each that disagreed. Leaves the flight recorder
    disarmed. *)

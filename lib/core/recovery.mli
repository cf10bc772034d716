(** Boot-time recovery: the one policy every boot follows (§3.5).

    A pack that mounts clean is trusted as it is. A pack that mounts
    dirty crashed: its flight record is adopted before anything writes,
    and then it is settled through its write-ahead cylinder map
    ({!Scavenger.repair}) — only the cylinders written since the last
    consistency point are read. The whole-pack verifying scavenge
    ({!Scavenger.scavenge}) remains the cure when the map cannot serve:
    the pack does not mount (neither descriptor record reads back, or
    the newest does not parse), the map covers the whole pack, or the
    repair reports that it cannot settle the pack
    (the root directory itself needs repair, a chain leaves the map at a
    page that does not answer, or an orphan may belong to another
    directory). A pack that neither mounts nor scavenges is formatted.

    Both {!Alto_os.System.boot} and {!Alto_world.Boot.boot} recover
    through here. *)

module Drive = Alto_disk.Drive

(** Why the pack was scavenged whole. *)
type cause =
  | Unmountable
      (** Neither descriptor record reads back, or the newest does not
          parse. *)
  | Whole_pack  (** The map covers every cylinder. *)
  | Unsettled of string  (** The repair through the map gave up: why. *)

type outcome =
  | Clean  (** Mounted clean: nothing to recover. *)
  | Through_map of int list * Scavenger.report
      (** Settled by reading these cylinders (ascending). *)
  | Scavenged of cause * Scavenger.report
  | Unrecovered of string
      (** Mounted dirty, and the scavenge failed (why): the volume is as
          the crash left it. *)
  | Formatted  (** Neither mount nor scavenge worked: a fresh volume. *)

val counter_of : cause -> Alto_obs.Obs.counter
(** The counter of whole-pack fallbacks for this cause, one of
    [fs.recovery.fallback.unmountable], [.whole_pack],
    [.root_needs_repair] (the repair refused because the root directory
    itself needs repair: {!Scavenger.root_needs_repair}) and [.refused]
    (every other refusal). Every fallback also counts in
    [fs.recovery.scavenges]. *)

val recover : Fs.t -> Fs.t * outcome
(** Recover a mounted volume; the handle returned is the one to use (a
    scavenge builds a new one). A clean volume is used as it mounted, so
    a clean boot costs only the mount's record reads. Never
    [Formatted]. *)

val boot : Drive.t -> Fs.t * outcome
(** Mount and {!recover}; a pack that does not mount is scavenged, and
    formatted only if the scavenge fails. *)

val pp_outcome : Format.formatter -> outcome -> unit

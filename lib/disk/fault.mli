(** Fault injection.

    §3.5's scavenger exists because packs decay, programs crash mid-write
    and directories get scrambled. This module manufactures those
    misfortunes deterministically (all randomness comes from a caller-
    supplied {!Alto_machine.Splitmix.t}, like every other simulated
    fault) so the robustness experiments (E9) and the scavenger tests
    replay the same damage on every compiler. *)

val corrupt_part :
  Alto_machine.Splitmix.t -> Drive.t -> Disk_address.t -> Sector.part -> unit
(** Replace every word of the part with random junk. *)

val zero_part : Drive.t -> Disk_address.t -> Sector.part -> unit

val flip_word :
  Alto_machine.Splitmix.t -> Drive.t -> Disk_address.t -> Sector.part -> unit
(** Flip one random bit in one random word — a single soft error. *)

val make_bad : Drive.t -> Disk_address.t -> unit
(** The sector becomes permanently unreadable. *)

val make_value_unreadable : Drive.t -> Disk_address.t -> unit
(** The sector's data surface fails: value reads error, label operations
    and writes still work. The scavenger's value-verification pass finds
    such sectors and marks them bad in the label. *)

val set_soft_errors : Drive.t -> seed:int -> rate:float -> unit
(** Turn on the drive's transient-error mode: every read/check part
    access fails with probability [rate], deterministically in [seed]
    (see {!Drive.set_soft_errors}). {!Reliable.run} absorbs these. *)

val make_marginal :
  ?rate:float ->
  ?growth:float ->
  ?degrade_after:int ->
  Drive.t ->
  Disk_address.t ->
  unit
(** A sector on its way out: value reads soft-fail at [rate] (default
    0.5), the rate multiplying by [growth] (default 1.25) on each
    failure, until [degrade_after] failures (default 16) turn it
    permanently bad. Label and header accesses stay clean (compare
    {!make_value_unreadable}), so the scavenger can still identify the
    page while its data decays. *)

val crash_after_writes : ?tear:Drive.tear -> Drive.t -> int -> unit
(** Arm {!Drive.set_crash_point}: [n] more writing operations complete,
    then the machine dies with {!Drive.Power_failure} — cleanly between
    sectors by default, or mid-transfer with [?tear], leaving the fatal
    sector torn and detectably unreadable. The crash-injection harness
    sweeps [n] across whole workloads. *)

val cancel_crash : Drive.t -> unit
(** Disarm a pending crash point (recovery runs on mains power). *)

val decay :
  Alto_machine.Splitmix.t -> Drive.t -> fraction:float -> Disk_address.t list
(** [decay rng drive ~fraction] corrupts the labels of roughly [fraction]
    of all sectors (each sector independently with that probability) and
    returns the victims. Raises [Invalid_argument] unless
    [0 <= fraction <= 1]. *)

(** Replicated Altos: a LOCKSS-style distributed audit-and-repair.

    PRs 2–5 made one Alto survive sector loss; this layer makes a fleet
    survive pack loss. M machines, each a full volume on its own
    fallible drive, hold byte-identical replicas of the pack and
    continuously audit each other over the (also fallible) network:

    - each node walks a cursor over the pack in elevator slices (the
      patrol's read, via {!Alto_fs.Audit}), digests each slice
      locally, and asks every peer for its digest of the same range;
    - self + responses are a majority vote. Agreement advances the
      cursor; losing the vote streams the slice's page images from the
      first peer holding the winning digest and installs them under
      read-back verification; no quorum is a tie, skipped and retried
      next lap;
    - every exchange is bounded by a timeout with doubling backoff and
      bounded resends, because the net drops, duplicates and delays
      (see {!Alto_net.Net.set_faults}); responders are stateless, so
      duplicate requests are harmless and resends always safe.

    A node whose pack is wholly lost calls {!rejoin}: the drive is
    reformatted and the audit restarted at sector 0 — every slice then
    loses 1-vs-rest and is rebuilt from the crowd while the survivors
    keep serving; the repaired descriptor is remounted at the lap
    boundary. Metrics: [repl.audits], [repl.votes], [repl.repairs],
    [repl.bytes_repaired], round-trip and repair latency histograms
    ([repl.rtt_us], [repl.repair_us], [repl.digest_us]), timeout /
    resend / tie counters. *)

module Sim_clock = Alto_machine.Sim_clock
module Net = Alto_net.Net
module Fs = Alto_fs.Fs

type node
type fleet

val create : clock:Sim_clock.t -> Net.t -> fleet
(** An empty fleet on [net]. Each exchange audits 24 sectors (one
    Diablo 31 cylinder, like the patrol; the repair mask is one
    doubleword, so a slice is at most 32). The first deadline is
    500 ms, doubled per retry up to 8 attempts; one {!tick} charges a
    50 µs quantum to the shared clock. *)

val join :
  fleet -> name:string -> ?on_new_fs:(Fs.t -> unit) -> Fs.t -> node
(** Attach a station named [name] and enrol the volume in the audit.
    [on_new_fs] fires whenever the node swaps its volume handle — after
    {!rejoin}'s reformat and after a rebuilt descriptor is remounted —
    typically [System.set_fs]. *)

val tick : node -> int
(** One turn of the audit activity: drain the station (answering peers'
    digest/page requests), then advance this node's own audit one step.
    Returns progress units (packets handled + state-machine steps);
    ticking an idle fleet still makes progress — the audit never
    finishes, it patrols. *)

val tick_fleet : fleet -> int
(** One {!tick} per node, in join order. *)

val run_until : fleet -> ?max_ticks:int -> (unit -> bool) -> bool
(** Tick the fleet until the predicate holds or the budget (default
    2M ticks) runs out; returns the predicate's final verdict. *)

val rejoin : node -> unit
(** The node lost its pack: reformat the drive as a virgin volume and
    restart the audit from sector 0. The fleet will vote every slice
    divergent and stream it back. *)

val report : fleet -> string list
(** The executive [peers] view: per node its cursor, lap, last vote
    outcome and repair traffic, plus the net fault census. *)

(** {2 Accessors} *)

val name : node -> string
val fs : node -> Fs.t
(** The node's current volume handle — replaced by {!rejoin}/remount,
    so callers should re-read it rather than cache it. *)

val cursor : node -> int
val laps : node -> int
val slices_audited : node -> int
val slices_repaired : node -> int
val pages_repaired : node -> int
val pages_served : node -> int
val pages_lost : node -> int
(** Pages a repair could not install: the winner couldn't read them, the
    local write failed, or read-back mismatched. The E19 gate holds this
    at exactly 0. *)

val last_vote : node -> string
val rebuilding : node -> bool
(** Descriptor sectors were repaired this lap and the volume awaits its
    lap-boundary remount. *)

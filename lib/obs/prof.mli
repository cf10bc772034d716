(** Causal span profiler.

    One process-wide tree of {e spans} — named, nested stretches of
    simulated time — plus a per-span breakdown of disk time into
    seek / rotational-wait / transfer / retry components reported by
    the drive layer. Where {!Obs} answers "how much, in aggregate",
    this module answers "on whose behalf": every scheduler batch, retry
    rung and patrol slice is charged to the innermost open span, so the
    tree reads as a causal profile of the machine.

    {!Obs.time} opens a span named after its histogram, so every
    existing span-timer site participates without change; {!span} is
    the direct entry point for structural spans that do not want a
    histogram of their own.

    Like the {!Obs} registry the tree is global and survives across
    operations; {!Obs.reset} resets it (and tests that need isolation
    call that). Repeated spans with the same name under the same parent
    accumulate into one node, so the tree is bounded by the number of
    distinct code paths, not by the number of operations. *)

module Sim_clock = Alto_machine.Sim_clock

(** {1 Recording} *)

val span : Sim_clock.t -> string -> (unit -> 'a) -> 'a
(** [span clock name f] runs [f ()] with [name] pushed as the innermost
    span; its simulated elapsed time accumulates into the node. The
    span closes (and the node is charged) even when [f] raises. *)

val note : string -> unit
(** Bump the call count of a zero-duration child of the current span —
    used for marks like cache hits that have a cause but no cost. *)

(** {1 Disk-time attribution}

    Called by the drive layer; not meant for general use. Charges go to
    the innermost open span (the root when none is open). *)

val charge_seek : int -> unit
val charge_rotation : int -> unit
val charge_transfer : int -> unit

val with_retry : (unit -> 'a) -> 'a
(** While [f] runs, any motion charged lands in the current span's
    {e retry} component instead of its own kind: the retry ladder
    brackets everything after the first failed attempt with this, so
    retry cost is separable from first-attempt cost. *)

(** {1 Queries} *)

type snapshot = {
  name : string;
  calls : int;
  total_us : int;  (** Simulated time spent inside this span. *)
  self_us : int;  (** [total_us] minus the children's [total_us]. *)
  seek_us : int;
  rotation_us : int;
  transfer_us : int;
  retry_us : int;
  children : snapshot list;  (** Sorted by name — deterministic. *)
}

val tree : unit -> snapshot
(** The whole tree under the implicit root. The root's [total_us] is
    the sum of its children; its own disk components hold charges made
    outside any span. *)

val flatten : snapshot -> snapshot list
(** Every node of the subtree, depth first. *)

val find : snapshot -> string -> snapshot option
(** First node with this name, depth first. *)

val disk_us : snapshot -> int
(** This node's four disk components summed (children excluded). *)

type disk_totals = {
  t_seek_us : int;
  t_rotation_us : int;
  t_transfer_us : int;
  t_retry_us : int;
}

val disk_totals : unit -> disk_totals
(** The four components summed over the whole tree. Equals the drive's
    [disk.seek_us] / [disk.rotational_wait_us] / [disk.transfer_us]
    counters split by attribution: every charged microsecond lands in
    exactly one node. *)

val to_json : unit -> Json.t

val reset : unit -> unit
(** Drop the tree and any open spans. Called by {!Obs.reset}. *)

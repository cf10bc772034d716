(** Request-scoped causal tracing.

    {!Prof} answers "where did the machine's time go" with one global
    span tree: every disk microsecond lands in the innermost span, and
    E17 proves the tree balances the drive's motion counters exactly.
    But once the standing elevator serves many conversations in one
    C-SCAN sweep, the innermost span belongs to the {e sweep}, not to
    any request — the aggregate view cannot say what one GET cost or
    where it waited. This module keeps the same 100%-attribution
    discipline per {e request}: a trace is minted when a client queues
    an operation, its context rides the activity across every
    [Yield]/[Await_disk] switch and over the network envelope, the
    drive's motion charges flow to whichever trace is current (or to an
    explicit untraced bucket), and the elevator pro-rates each shared
    cylinder-entry seek across the requests it served. The invariant,
    gated by E22 exactly as E17 gates the span tree:

    {v attributed + untraced = disk.seek_us + disk.rotational_wait_us
                               + disk.transfer_us v}

    Identifiers are minted from module-local sequence counters — no
    wall clock, no randomness — so a replayed simulation produces
    byte-identical exports. {!Obs.reset} rewinds everything here too
    (via {!Obs.on_reset}).

    A trace carries a timeline of {e marks} (queued → admitted →
    disk-parked → sweep-served → replied), per-trace disk component
    totals, and an exact queue-wait account: {!parked} stamps the
    moment a request's batch joins the standing queue, {!served} the
    moment the sweep first reaches it. Completed traces are retained in
    a ring of the newest 1,024 for the executive's [requests]
    command, the flight recorder, and the Chrome [trace_event] export;
    the attribution accumulators are exact regardless of eviction. *)

module Sim_clock = Alto_machine.Sim_clock

type context = { trace : int; span : int }
(** A point in some trace: which request, and which causal span within
    it. Contexts are small and immutable — cheap to save and restore at
    every activity switch, cheap to put in a packet envelope. *)

(** {1 Lifecycle} *)

val start : clock:Sim_clock.t -> origin:string -> name:string -> context
(** Mint a new trace with a fresh root span and a "queued" mark at the
    clock's now. [origin] names the requesting station (the key
    {!find_active} matches on); [name] describes the operation
    (["get a.txt"]). Counted in [trace.started]; every span opened
    (root included) counts in [trace.spans]. *)

val finish : context -> status:string -> unit
(** Close the trace: end every open span, absorb any un-served park
    time into the wait account, stamp the end time and a final mark
    named [status]. Idempotent — finishing a finished or unknown trace
    is a no-op, which is what lets duplicated or delayed replies land
    without double-counting. When [status] is ["replied"] or ["done"]
    the trace counts in [trace.completed] and its wait/service split is
    observed into [trace.wait_us] / [trace.service_us] (service =
    lifetime − wait). *)

val mark : context -> string -> unit
(** Add a named instant to the trace's timeline at its clock's now.
    No-op on a finished or unknown trace. *)

val find_active : origin:string -> context option
(** The newest open trace minted with this origin — how a client whose
    reply never came (so it holds no reply context) closes the trace it
    abandoned. *)

(** {1 The current context}

    One global slot, saved and restored by the activity scheduler at
    every switch — the simulation is single-threaded, so "current"
    means "the request the machine is working for right now". *)

val current : unit -> context option
val set_current : context option -> unit

val with_current : context option -> (unit -> 'a) -> 'a
(** Run with the slot set, restoring the previous value on the way out
    (exceptions included). *)

(** {1 Queue-wait accounting} *)

val parked : context -> unit
(** The request's batch joined the standing queue: stamp the park time
    and mark ["disk-parked"]. No-op if already parked or finished. *)

val served : context -> unit
(** A sweep reached the request: accrue now − park into the wait
    account, mark ["sweep-served"]. No-op unless parked — so when one
    trace has many waiters in a sweep, only the first serve closes the
    wait window. *)

(** {1 Motion charges}

    Called by the drive alongside the {!Prof} charges, with the same
    microsecond amounts: the two accountings see identical totals. *)

val charge_seek : int -> unit
val charge_rotation : int -> unit
val charge_transfer : int -> unit

val rebill_seek : from_:context option -> to_:context option -> int -> unit
(** Move seek microseconds between per-trace accounts ([None] is the
    untraced bucket) without changing the global total — the elevator's
    instrument for pro-rating a shared cylinder-entry seek across the
    requests of one run. *)

val attributed : unit -> int * int * int
(** (seek, rotation, transfer) microseconds charged under some context
    since the last reset — exact even after ring eviction. *)

val untraced : unit -> int * int * int
(** The same components charged while no context was current. *)

(** {1 The wire}

    Contexts cross the network as a plain id pair in the packet
    envelope; [(0, 0)] means "no context" (trace ids start at 1). The
    pair is just ids — a duplicated or delayed packet carries the same
    pair, and resolving it back through {!of_wire} plus the idempotent
    {!finish}/{!remote} machinery is what makes propagation safe under
    a lying wire. *)

val wire : unit -> int * int
(** The current context as an id pair, [(0, 0)] when none. *)

val of_wire : int * int -> context option

(** {1 Remote work} *)

val remote : context -> key:string -> name:string -> (unit -> 'a) -> 'a
(** [remote ctx ~key ~name f] runs [f] as a child span of [ctx] — the
    responder's side of a wire request. [key] identifies the logical
    request (sequence number + responder name): the first arrival bills
    the trace, and any duplicate or resent copy runs with {e no}
    context (its motion goes untraced, counted in [trace.remote_dups])
    so a lying wire cannot double-bill a trace. A finished or unknown
    trace also runs untraced. *)

(** {1 Inspection and export} *)

type info = {
  id : int;
  name : string;
  origin : string;
  status : string;  (** ["open"] until finished, then the final status. *)
  start_us : int;
  end_us : int;  (** -1 while open. *)
  wait_us : int;
  service_us : int;  (** Lifetime − wait; for open traces, so far. *)
  seek_us : int;
  rotation_us : int;
  transfer_us : int;
  marks : (string * int) list;  (** Oldest first. *)
}

val infos : unit -> info list
(** Every retained trace, ascending id (open and closed alike). *)

val active_count : unit -> int

val chrome_json : unit -> Json.t
(** Every retained trace as Chrome [trace_event] JSON: one thread per
    trace (named by a metadata event), an "X" complete event per span
    with the disk/wait decomposition in [args], an "i" instant per
    mark. Loads directly in Chrome's trace viewer. *)

val flight_json : ?limit:int -> unit -> Json.t
(** For the flight recorder: every open trace plus the most recent
    [limit] (default 8) closed ones, oldest first, as JSON objects. *)

(** The standing elevator queue: cylinder-batched transfers over
    {!Reliable}.

    A caller that knows a whole set of sectors it wants — the scavenger
    sweeping the pack or freeing the stale copies a compaction left, a
    level-4 world transfer streaming 257 pages — gains nothing from issuing them
    in logical order: every jump between cylinders is a seek, and
    [disk.seeks] shows those passes are seek-dominated. This module
    accepts whole request sets, orders each sweep with a C-SCAN elevator
    pass (cylinders ascending from the current head position, wrapping
    once), streams each cylinder track by track in rotational order, and
    completes every request through its caller's callback.

    The queue {e stands}: it outlives any one caller, so concurrent
    activities (the file server's client conversations, §4) each
    {!submit_batch} their requests and block, and a single {!sweep}
    then serves everything pending in one pass over the pack — the
    merging that turns N conversations' seeks into one elevator's.
    Requests for the same sector complete in arrival order (the global
    submission sequence is the sort's final key), so interleaving
    changes only the motion of the heads, never the data.

    {!run_batch} is the synchronous face kept for one-shot callers: it
    hands its array to the same elevator a {!sweep} runs and returns the
    outcomes in the caller's order. Batching changes only the order of
    operations, never their content; each request still goes through
    {!Reliable.run_counted}, so the retry ladder, quarantine evidence
    and every [disk.*] counter behave exactly as they do on the naive
    path. *)

module Word = Alto_machine.Word
module Trace = Alto_obs.Trace

type request

val request :
  ?header:Word.t array ->
  ?label:Word.t array ->
  ?value:Word.t array ->
  Disk_address.t ->
  Drive.op ->
  request
(** One sector operation with its buffers — the same contract as
    {!Drive.run}, reified. The address must not be nil. *)

type outcome = {
  result : (unit, Drive.error) result;
  retries : int;  (** Retries {!Reliable} spent on this request. *)
}

(** {2 The standing queue} *)

type t

val create : Drive.t -> t
(** An empty standing queue for this drive. The file server keeps one
    for the life of the volume. *)

val submit_batch :
  ?policy:Reliable.policy ->
  ?ctx:Trace.context ->
  t ->
  request array ->
  on_done:(int -> outcome -> unit) ->
  unit
(** Enqueue a batch. Nothing touches the disk until a {!sweep};
    [on_done i outcome] fires during some later sweep, once per request,
    with [i] the request's index {e within this batch}. An empty batch
    is a no-op.

    [ctx] is the request trace this batch's disk time belongs to;
    omitted, the batch inherits {!Trace.current} at submission — so
    synchronous callers running inside a traced conversation bill it
    without knowing about tracing. Each waiter is served under its
    context, and each cylinder run's shared entry seek is pro-rated
    evenly across the run's requests (⌊S/k⌋ each, remainder to the
    earliest-served; counted in [disk.sched.prorated_seek_us]), so
    per-request totals sum exactly to the drive's motion counters. *)

val queued : t -> int
(** Requests submitted and not yet swept. *)

val sweep : t -> int
(** Serve everything pending in one C-SCAN elevator pass, firing each
    waiter's [on_done] as its request completes (before the next request
    is issued — the window in which a caller sharing one buffer across
    requests must consume it). Requests submitted {e during} the sweep —
    by completion callbacks, including nested {!run_batch} calls — wait
    for the next sweep. Returns the number of requests served; 0 means
    the queue was empty.

    Raises [Invalid_argument] on a nil or out-of-range address, before
    any request is served, and (via {!Drive.run}) on missing buffers or
    write-continuation violations. *)

(** {2 The one-shot path} *)

val run_batch :
  ?policy:Reliable.policy ->
  ?on_done:(int -> outcome -> unit) ->
  Drive.t ->
  request array ->
  outcome array
(** Issue every request in one elevator pass, the one a {!sweep} runs,
    with no queue of its own. [outcomes.(i)] belongs to [requests.(i)]
    regardless of the order the disk saw them in; a request that
    succeeded at its first attempt shares one outcome value with every
    other such request. [on_done i outcome] fires immediately after
    request [i] completes, {e before} the next request is issued.

    Raises [Invalid_argument] as {!sweep} does. *)

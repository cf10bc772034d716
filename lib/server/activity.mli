(** Cooperative activities: §4's control structure, made explicit.

    The paper's servers are "a set of cooperating activities"
    multiplexing many conversations over one machine; the switching
    structure is cooperative — an activity runs until it must wait, then
    yields the processor. Here an activity is a step function: each call
    does a slice of synchronous work and says what comes next — another
    slice ({!Yield}), a disk wait ({!Await_disk}), or the end
    ({!Finished}). The scheduler round-robins every runnable activity
    through one step, and only when {e all} of them are parked on disk
    waits does it run one {!Alto_disk.Sched.sweep} of the shared
    standing queue — the moment the elevator serves every blocked
    conversation's sectors in a single C-SCAN pass.

    Time is simulated: each step charges 50 µs of processor time to
    the clock, and all disk time is charged by the drive during the
    shared sweeps. The table of activities is bounded ([max_active]);
    {!spawn} refuses above the bound, which is the mechanism the file
    server turns into admission-control NAKs. *)

module Sim_clock = Alto_machine.Sim_clock
module Sched = Alto_disk.Sched
module Trace = Alto_obs.Trace

type step =
  | Yield of (unit -> step)
      (** Give the other activities a turn, then continue here. *)
  | Await_disk of {
      requests : Sched.request array;
      resume : Sched.outcome array -> step;
    }
      (** Submit the batch to the shared standing queue and sleep until
          every outcome is in. [resume] receives outcomes in request
          order. An empty batch resumes on the next round. *)
  | Finished

type t

val create : max_active:int -> queue:Sched.t -> Sim_clock.t -> t
(** An empty table of at most [max_active] activities. Raises
    [Invalid_argument] on a non-positive bound. *)

val spawn : t -> name:string -> (unit -> step) -> bool
(** Enter a new activity, [false] when the table is full. [name] labels
    the [server.activity.spawn] trace event. The activity works for the
    request trace current at spawn ({!Trace.current}); the
    scheduler installs it as the current context around every step —
    saved and restored at each [Yield]/[Await_disk] switch like machine
    registers — and its disk batches park and bill against it. *)

val round : t -> int
(** One scheduling round: each activity runnable at the start of the
    round runs one step; then, if everyone is parked on disk waits, one
    shared elevator sweep completes them. Returns the progress made —
    steps run plus requests the sweep served — so a driver looping
    while the result is positive cannot stall on a sweep-only round.
    0 means nothing was runnable and nothing was parked. *)

val run_until_idle : t -> unit
(** Rounds until no activity is live. *)

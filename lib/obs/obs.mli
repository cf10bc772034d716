(** The observability layer.

    One process-wide registry of named metrics, a bounded event trace,
    and span timers driven by {!Alto_machine.Sim_clock} — the substrate
    behind every performance claim this repository makes. The hot layers
    (disk, file system, scavenger, zones, world swap, loader) record
    into it unconditionally; recording is a few machine instructions, so
    nothing needs a "metrics on/off" switch.

    Two metric kinds exist:

    - {b counters} — monotonically increasing integers ("disk.seeks").
      {!reset} rewinds them to zero; nothing else decreases one.
    - {b histograms} — streams of observed integer values
      ("scavenger.duration_us"), summarized as count/sum/min/max/mean.
      Peaks (e.g. zone occupancy) are read off a histogram's [max].

    Names are dotted paths, ["<subsystem>.<metric>"], lower-case. A name
    registers on first use and keeps its kind forever; registering the
    same name with the other kind raises [Invalid_argument].

    The event trace is a ring buffer holding the most recent 1,024
    events, numbered in order; a reader that wants only the events since
    some moment (the flight recorder's seal) filters {!trace} by that
    number.

    Everything here is deliberately global: the simulation is a
    single-user machine, and the registry plays the role of the
    machine's one pocket of instrumentation RAM. Tests that need
    isolation call {!reset} first. *)

module Sim_clock = Alto_machine.Sim_clock

(** {1 Counters} *)

type counter

val counter : string -> counter
(** The counter registered under this name, creating it at zero on first
    use. Raises [Invalid_argument] if the name is already a histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0]; counters are monotonic. *)

val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Histograms} *)

type histogram

type summary = {
  count : int;
  sum : int;
  min : int;  (** 0 when [count = 0]. *)
  max : int;  (** 0 when [count = 0]. *)
  mean : float;  (** 0.0 when [count = 0]. *)
  p50 : int;  (** See {!percentile}. 0 when [count = 0]. *)
  p90 : int;
  p99 : int;
}

val histogram : string -> histogram
(** The histogram registered under this name, creating it empty on first
    use. Raises [Invalid_argument] if the name is already a counter. *)

val observe : histogram -> int -> unit
val summary : histogram -> summary

val percentile : histogram -> float -> int
(** [percentile h p] with [p] in [[0, 1]]: the smallest recorded bucket
    whose cumulative count reaches [ceil (p * count)], clamped into
    [[min, max]]. Values are log-bucketed with 3 mantissa bits: exact
    below 16, within 12.5% (one bucket) of exact above. 0 when the
    histogram is empty. *)

(** {1 Spans}

    A span charges the elapsed {e simulated} time of a computation to a
    histogram, and brackets it with [<name>.begin] / [<name>.end] trace
    events. The wrapped exception-free result is returned unchanged; if
    the computation raises, the span is still closed and observed. *)

val time : Sim_clock.t -> string -> (unit -> 'a) -> 'a
(** [time clock name f] runs [f ()] and observes the simulated
    microseconds it took into the histogram [name]. The computation also
    runs inside a {!Prof.span} of the same name, so every timed site
    shows up in the causal span tree for free. *)

(** {1 Event trace} *)

type field_value = I of int | S of string | B of bool

type event = {
  seq : int;  (** Global sequence number, increasing from 0. *)
  ts_us : int;  (** Simulated time, or 0 when no clock was supplied. *)
  name : string;
  fields : (string * field_value) list;
}

val event : ?clock:Sim_clock.t -> ?fields:(string * field_value) list -> string -> unit
(** Record one event: append to the ring, evicting the oldest when
    full. *)

val trace : unit -> event list
(** The retained events, oldest first. *)

(** {1 The registry} *)

type metric = Counter of int | Histogram of summary

val snapshot : unit -> (string * metric) list
(** Every registered metric, sorted by name. *)

val find : string -> metric option

val reset : unit -> unit
(** Zero every counter, empty every histogram (buckets included), clear
    the trace, reset the event sequence to 0 and reset the {!Prof} span
    tree. Registrations survive. Finally runs every {!on_reset} hook. *)

val on_reset : (unit -> unit) -> unit
(** Register a hook run at the end of every {!reset}. Layers above this
    one (the request tracer) keep state tied to the registry's lifetime
    but cannot be reset from here without a dependency cycle; the hook
    is how they (and the flight recorder's window) ride along. Hooks are
    permanent, like registrations. *)

val metrics_json : unit -> Json.t
(** The snapshot as one JSON object keyed by metric name:
    [{"disk.seeks": {"type": "counter", "value": 12}, …}]; histograms
    carry their full summary. *)

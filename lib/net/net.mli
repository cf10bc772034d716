(** A simulated local network.

    The paper's machine room had an Ethernet: the printing server
    "accepts files from a local communications network and prints them"
    (§4), and a diskless configuration of the system ran on "network
    communications rather than … local disk storage" (§5.2). The packet
    representation is the standardized level here, just as the sector is
    for the disk: stations exchange word arrays; everything above that is
    convention.

    Delivery is reliable and in order (a queue per station) by default,
    with an optional per-packet latency charged to a simulated clock.
    That is deliberately simpler than a real Ethernet — most workloads
    exercise control structure, not loss recovery. Workloads that DO
    exercise loss recovery (the replication audit) turn on a seeded
    message-fault mode: packets are dropped, duplicated, or delayed
    (held and released once the clock passes a due time, so delayed
    packets genuinely arrive out of order) by a SplitMix64 stream —
    deterministic for a fixed seed, off by default. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock

type t
type station

type packet = { src : string; payload : Word.t array; trace : int * int }
(** [trace] is the sending request's {!Alto_obs.Trace} context as an id
    pair ([(0, 0)] = none), stamped automatically by {!send} from the
    current context — propagation every protocol above inherits without
    touching its payload format. A duplicated or delayed packet carries
    the same pair. *)

type error = Unknown_station of string | Payload_too_long

val pp_error : Format.formatter -> error -> unit

val create : ?clock:Sim_clock.t -> ?latency_us:int -> unit -> t
(** [latency_us] (default 500) is charged to [clock] per packet sent,
    when a clock is given. *)

val set_faults :
  t ->
  ?drop:float ->
  ?dup:float ->
  ?delay:float ->
  ?delay_us:int ->
  seed:int ->
  unit ->
  unit
(** Make the wire lie. Each probability is per packet (defaults 0);
    a delayed packet is held for 1..[delay_us] (default 2000) simulated
    microseconds past its send and only delivered once the clock gets
    there. Counted in [net.dropped] / [net.duped] / [net.delayed] and in
    the per-net census. Without a clock, delay degrades to in-order
    delivery (there is no time to be late against). *)

val faults_on : t -> bool

val fault_census : t -> int * int * int
(** (dropped, duplicated, delayed) on this net since creation. *)

val attach : t -> name:string -> station
(** Join the network. Raises [Invalid_argument] on a duplicate name. *)

val station_name : station -> string

val station_clock : station -> Sim_clock.t option
(** The network's simulated clock, when it has one — what a client
    mints request traces against. *)

val send : station -> to_:string -> Word.t array -> (unit, error) result
val receive : station -> packet option
val pending : station -> int

(** {2 File transfer}

    A minimal convention on top of raw packets: a header packet carrying
    the file's name, data packets of up to a page each, and a trailer.
    Enough to feed a print server. *)

val send_file : station -> to_:string -> name:string -> string -> (unit, error) result

val receive_file : station -> (string * string) option
(** Reassemble the next complete file from the queue, if its trailer has
    arrived; non-file packets ahead of it are delivered by {!receive}
    first (mixing conventions on one station is the caller's problem,
    as the paper would cheerfully note). *)

val receive_file_traced : station -> (string * string * (int * int)) option
(** Like {!receive_file}, also returning the header packet's envelope
    trace context — how a file reply finds the request it answers. *)

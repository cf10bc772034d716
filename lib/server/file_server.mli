(** A concurrent network file server and its client.

    §5.2 mentions both halves: a file server built from the standard
    packages over a non-standard disk, and a diskless configuration of
    the operating system that depends "on network communications rather
    than on local disk storage". This package supplies the protocol
    between them: named files fetched from, stored to, and listed on a
    machine that has a pack, by machines that may have none.

    The server is §4's "set of cooperating activities": each admitted
    request becomes an {!Activity} whose disk waits park it on the
    shared standing elevator queue, so many conversations' pages are
    served by common C-SCAN sweeps. The activity table is bounded;
    above the bound new requests are refused with a NAK packet — the
    client retries rather than the server queueing without bound.

    The protocol rides the network's packet and file-transfer framing.
    Requests are single packets ([GET name], [PUT name] followed by the
    file body, [LIST]); replies are file transfers (the content, or a
    listing under the reserved name [";listing"]), ACK/NAK packets, or
    error packets. The simulation is single-threaded, so the blocking
    client calls take a [pump] callback that gives the server its turn —
    the moral equivalent of waiting for the wire — while concurrent
    workloads use the split [send_*]/[poll_reply] interface. Either way
    the server takes its turns through {!tick}. *)

module Net = Alto_net.Net
module Fs = Alto_fs.Fs

type t

val create : ?max_active:int -> Fs.t -> Net.station -> t
(** Serve the given volume's root directory on the given station.
    [max_active] (default 16) bounds concurrently admitted requests;
    each activity step costs 50 µs of simulated processor time. *)

val tick : t -> int
(** One server turn: admit every pending request (spawning activities,
    NAKing above the bound), then run one activity scheduling round.
    Returns the amount of progress made (admissions plus steps run);
    0 means the server is idle. This is what the [ServerTick] level
    service calls.

    The server's books are the registry's, summed over every server:
    the counts of [server.get_us], [server.put_us] and [server.list_us]
    are the requests served, [server.naks] those refused at a full
    table, [server.errors] the error replies and [server.send_errors]
    the replies the network refused to carry. *)

(** {2 The client side} *)

module Client : sig
  type error =
    | Remote of string  (** The server refused, with its message. *)
    | Busy  (** The server NAKed: its activity table was full. *)
    | Timeout
        (** The bounded poll ran dry: no reply after [max_polls] pumps.
            Counted in [server.client_timeouts]; the station's open
            request trace is closed as abandoned (counted in
            [server.traces_abandoned]) rather than leaked. *)
    | Protocol of string
    | Net_error of Net.error

  val pp_error : Format.formatter -> error -> unit

  type reply = File of string * string  (** name, contents *) | Ack

  (** {3 Split interface for concurrent clients} *)

  val send_get : Net.station -> server:string -> name:string -> (unit, error) result
  val send_put :
    Net.station -> server:string -> name:string -> string -> (unit, error) result
  val send_list : Net.station -> server:string -> (unit, error) result

  val poll_reply : Net.station -> (reply, error) result option
  (** [None] until a complete reply (status packet or whole file
      transfer) is waiting; NAKs surface as [Error Busy]. *)

  (** {3 Blocking convenience interface}

      Each call sends, then alternates [pump ()] with a poll until a
      reply arrives or [max_polls] (default 1000) polls come up dry —
      a server that never answers yields [Error Timeout], never a hang. *)

  val fetch :
    ?max_polls:int ->
    Net.station -> server:string -> name:string -> pump:(unit -> unit) ->
    (string, error) result
  (** Fetch a named file's contents. *)

  val store :
    ?max_polls:int ->
    Net.station -> server:string -> name:string -> string -> pump:(unit -> unit) ->
    (unit, error) result
  (** Create or overwrite a named file on the server. *)

  val listing :
    ?max_polls:int ->
    Net.station -> server:string -> pump:(unit -> unit) ->
    (string list, error) result
end

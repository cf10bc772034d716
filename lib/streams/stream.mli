(** Streams, copied "wholesale from Stoy and Strachey's OS6 system" (§2).

    "A stream is an object that can produce or consume items. … There is
    a standard set of operations defined on every stream: Get, Put
    (normally only one of these is defined), Reset, Test for end of
    input, and a few others." A stream is represented by a record whose
    first components are the procedures implementing the standard
    operations — here, literally a record of closures, so any program can
    substitute its own implementation of any operation, which is the
    open-system point.

    Items are typeless machine quantities (bytes on disk streams, words
    on memory streams), exactly as in BCPL. Non-standard operations go
    through {!control}, named by string; a stream that does not implement
    an operation raises {!Not_supported} — "a program that uses a
    non-standard operation sacrifices compatibility". *)

type item = int
(** A typeless item: a byte or a 16-bit word, by stream convention. *)

exception Not_supported of { stream : string; operation : string }
exception Closed of string

type t = {
  stream_name : string;
  get : unit -> item option;  (** [None] at end of input. *)
  put : item -> unit;
  reset : unit -> unit;  (** Back to the stream's standard initial state. *)
  at_end : unit -> bool;
  close : unit -> unit;
  control : string -> int -> int;
      (** Non-standard operations, e.g. ["position"], ["set-position"],
          ["length"]. The int argument and result are operation-defined
          (pass 0 when meaningless). *)
}

val make :
  ?get:(unit -> item option) ->
  ?put:(item -> unit) ->
  ?reset:(unit -> unit) ->
  ?at_end:(unit -> bool) ->
  ?close:(unit -> unit) ->
  ?control:(string -> int -> int) ->
  string ->
  t
(** Build a stream from whichever operations it supports; the missing
    ones raise {!Not_supported}. [reset] and [close] default to no-ops,
    [at_end] to [false]. *)

(** {2 Helpers over the standard operations}

    These are ordinary procedures written against the abstract object —
    the "macro-operations … built up from the primitives" of §6. They
    work on any stream. *)

val put_string : t -> string -> unit
val put_line : t -> string -> unit

val get_string : t -> int -> string
(** Up to [n] items, as characters; shorter at end of input. *)

val get_line : t -> string option
(** Items up to (consuming, not including) a newline; [None] at end. *)

val get_all : t -> string
(** Everything until end of input. *)

val copy : src:t -> dst:t -> int
(** Pump items from [src] to [dst] until [src] ends; returns the count. *)

(** A minimal JSON tree and printer.

    The observability layer and the benchmark harness emit
    machine-readable snapshots (metric registries, experiment tables)
    without pulling a JSON dependency into the system. Only emission is
    provided — nothing in the repository parses JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. Strings are escaped per RFC 8259;
    non-finite floats render as [null]. *)

val to_channel : out_channel -> t -> unit
(** Indented rendering for humans (two-space indent) onto a channel,
    with a trailing newline. *)

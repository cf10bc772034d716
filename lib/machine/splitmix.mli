(** SplitMix64: the seeded generator behind every simulated fault (the
    drive's soft errors and torn writes, the network's drops,
    duplicates and delays). The stdlib's [Random] algorithm changed
    between OCaml 4.x and 5.x; this one yields the same stream on every
    version, so a seed replays to the same run on both CI legs. *)

type t

val of_seed : int -> t

val next : t -> int64
(** The next 64 bits of the stream. *)

val float : t -> float
(** A float in [[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is an integer in [[0, bound)]. Raises
    [Invalid_argument] unless [bound > 0]. *)

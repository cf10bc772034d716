(** Storage zones: the system's free-storage objects (§2, §5.2).

    "The storage allocator … will build zone objects to allocate any part
    of memory, whether in the system free storage region or not." A zone
    is created over an arbitrary region of the simulated 64K memory and
    hands out blocks from it. All allocator state (free list, block
    headers) lives {e inside} the region itself, so a zone survives a
    world swap: after [InLoad] the program re-attaches to the same base
    address and finds its heap intact — the paper's point that saved
    state usually remains valid.

    Like every abstract object in the system, a zone can also be passed
    around as a record of its operations ({!obj}), so a client such as the
    disk-stream package works with any allocator the user substitutes. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory

exception Out_of_space of { zone : string; requested : int }
(** Allocation failed: no free block is big enough. *)

exception Corrupt of string
(** The in-memory zone structure fails a sanity check — typically the
    result of a wild store by an errant program. *)

type t

val format : ?name:string -> Memory.t -> pos:int -> len:int -> t
(** [format memory ~pos ~len] initializes a fresh zone over
    [\[pos, pos + len)]. Raises [Invalid_argument] if the region does not
    lie inside memory or is smaller than 6 words (the 4-word descriptor
    and one minimum block). *)

val attach : ?name:string -> Memory.t -> pos:int -> t
(** Re-attach to a zone previously created by {!format} at [pos] — e.g.
    after a world swap restored the memory image. Raises {!Corrupt} if no
    valid zone descriptor is found there. *)

val allocate : t -> int -> int
(** [allocate z n] returns the address of a fresh block of [n >= 1] words.
    The block's contents are unspecified. Raises {!Out_of_space} or
    [Invalid_argument] on [n < 1]. *)

val release : t -> int -> unit
(** Return a block obtained from {!allocate}. Freed space is coalesced
    with adjacent free blocks. Raises {!Corrupt} if [addr] is not a live
    block of this zone. *)

val block_size : t -> int -> int
(** Size in words of the live block at [addr]. *)

type stats = {
  region_words : int;  (** Total words in the region, including overhead. *)
  free_words : int;  (** Words available to future allocations. *)
  live_blocks : int;
  free_blocks : int;
  largest_free : int;  (** Largest single allocation that would succeed. *)
}

val stats : t -> stats

val check : t -> unit
(** Walk the whole zone structure and raise {!Corrupt} on any
    inconsistency. Used by tests and by the robustness experiments. *)

type obj = {
  obj_allocate : int -> int;
  obj_release : int -> unit;
}
(** A zone as an abstract object: just its two operations, the shape in
    which packages accept user-substituted allocators. *)

val obj : t -> obj

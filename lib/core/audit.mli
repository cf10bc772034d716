(** Slice digests and repair application — the replica audit's view of
    the pack, one run of sectors at a time.

    The online patrol (§11, PR 4) verifies the pack one elevator slice
    at a time. Replication (DESIGN §14) reads the same slices for a
    different consumer: replicas exchange per-slice digests of
    label+value content, vote, and stream whole page images from a
    winner to a loser. Both read through {!Sweep.read}; this module
    copies out what the audit keeps of each slice, digests it in a
    version-stable way, and provides the write side — installing a
    peer's page image over a local sector under the same
    cache/generation discipline the patrol's relocations use.

    Digest stability: every slice read goes through {!Sweep.read} and
    therefore {!Alto_disk.Reliable}, so transient (seeded soft-error)
    faults are absorbed before the digest sees the data — two replicas
    with byte-identical packs digest identically even while both their
    drives are lying transiently. *)

module Word = Alto_machine.Word
module Drive = Alto_disk.Drive

val reserved_top : Fs.t -> int
(** Highest fixed-address sector (boot page + descriptor file): sectors
    at or below this index are never relocated by the patrol, though
    replication repairs them in place like any other. *)

type slice = {
  start : int;  (** First sector index of the slice. *)
  indexes : int array;  (** Absolute sector index per entry (wraps). *)
  labels : Word.t array array;  (** Entry [j]'s label, if {!sector_ok}. *)
  values : Word.t array array;  (** Entry [j]'s value, if {!sector_ok}. *)
  read : Sweep.t;  (** The read's verdicts, entry by entry. *)
}

val read_slice : Fs.t -> start:int -> k:int -> slice
(** Flush the track buffer cache, then read [k] sectors' labels and
    values starting at [start] (wrapping past the end of the pack)
    through {!Sweep.read}. *)

val sector_ok : slice -> int -> bool
(** Did entry [j]'s read succeed (possibly after retries)? *)

val digest : Fs.t -> start:int -> k:int -> int64
(** FNV-1a over sector index, label and value words; a hard-failed
    sector folds a sentinel instead of its (unknown) content. Counted
    in [fs.audit.digests] / [fs.audit.sectors_digested]. *)

type apply_result =
  | Applied
  | Apply_failed of Drive.error
  | Verify_mismatch  (** The read-back after the write didn't match. *)

val apply_page :
  Fs.t -> index:int -> label:Word.t array -> value:Word.t array -> apply_result
(** Overwrite sector [index] with a peer's label+value image, verify by
    read-back, bump the label generation and evict the cached label, and
    re-point the in-core map from the new label's classification. Never
    flushes the descriptor: on-disk map/quarantine state is itself
    replicated content and arrives with the descriptor sectors' own
    repair. Counted in [fs.audit.pages_applied] /
    [fs.audit.apply_failures]. *)

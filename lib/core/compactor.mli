(** The compacting scavenger (§3.5): "an in-place permutation of the file
    pages on the disk so that the pages of each file are in consecutive
    sectors. This arrangement typically increases the speed with which the
    files can be read sequentially by an order of magnitude over what is
    possible if the pages have become scattered."

    Files are laid out one after another starting just past the disk
    descriptor, each as one consecutive run (bad sectors are skipped,
    splitting the run but nothing else). The permutation is executed with
    ordinary timed disk operations and one in-memory sector buffer, so the
    compactor works on a completely full pack. Moved pages are written
    with their final links; a repair pass fixes the stragglers whose
    neighbours moved out from under them. Vacated sectors are freed, every
    leader's hints are refreshed (and its maybe-consecutive flag set), and
    directory entries are re-aimed at the new leader addresses. *)

type report = {
  pages_placed : int;  (** Pages now sitting in their planned slot. *)
  moves : int;  (** Physical sector copies performed. *)
  links_rewritten : int;
  sectors_freed : int;  (** Stale copies and garbage erased. *)
  leaders_updated : int;
  entries_fixed : int;  (** Directory entries re-aimed. *)
  files_consecutive : int;  (** Files whose pages ended fully consecutive. *)
  files_total : int;
  duration_us : int;
}

val pp_report : Format.formatter -> report -> unit

val compact : Fs.t -> (report, string) result
(** Compact a mounted, structurally sound volume (run {!Scavenger} first
    if in doubt). The whole pack is announced to the write-ahead map
    before the first move ({!Fs.announce_whole}), so a crash part way
    boots into a whole-pack scavenge. The volume handle's map is updated
    in place and the descriptor flushed; a volume that was clean when
    the compaction began is declared clean again ({!Fs.mark_clean}). *)

val consecutive_fraction : Fs.t -> File.t -> (float, File.error) result
(** Fraction of a file's page transitions that are physically adjacent —
    0.0 for fully scattered, 1.0 for fully consecutive. Experiments use
    this as the fragmentation measure. *)

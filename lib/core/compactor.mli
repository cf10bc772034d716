(** The compacting scavenger (§3.5): "an in-place permutation of the file
    pages on the disk so that the pages of each file are in consecutive
    sectors. This arrangement typically increases the speed with which the
    files can be read sequentially by an order of magnitude over what is
    possible if the pages have become scattered."

    A compaction is a scavenge ({!Scavenger.rebuild}) whose placement
    plan lays the files out one after another just past the disk
    descriptor, in file-id order, each as one consecutive run (bad,
    quarantined and marginal sectors are skipped, splitting the run but
    nothing else). The scavenge writes every page at its target with
    its final links, and every leader with its last-page hint and
    maybe-consecutive flag, then frees the old copies, re-aims the
    directory entries and rebuilds the descriptor. Before any sector
    holding a page's only copy is overwritten, a twin is staged on a
    free sector, so a crash part way boots into a scavenge that finds a
    whole copy of every page; only a pack with no free sector left holds
    a page in core alone across a swap. *)

val layout : Scavenger.plan
(** The back-to-back plan. The boot page at sector 0 stays. *)

val compact : Fs.t -> (Fs.t * Scavenger.report, string) result
(** Flush the volume's delayed writes and compact its pack. The result
    is the rebuilt volume, as {!Scavenger.scavenge} returns it: the
    handle passed in is stale once this returns. *)

(** The Scavenger (§3.5): "a scavenging procedure is provided to
    reconstruct the state of the file system from whatever fragmented
    state it may have fallen into."

    The scavenger trusts only the absolutes — the labels and the leader
    pages — and recomputes every hint from them: the page links, the
    allocation map, the directory address hints and the root directory
    itself. It needs no readable descriptor and no working volume handle;
    given nothing but a drive it returns a freshly mounted file system
    plus an account of everything it found and fixed.

    What it does, in order:
    + sweep every label on the disk ({!Sweep});
    + reassemble files by absolute name, discarding duplicate pages,
      headless page sets, and pages beyond a gap in the chain;
    + evacuate any foreign page squatting on the descriptor's standard
      addresses;
    + repair every incorrect next/previous link;
    + reclaim garbage-labelled sectors and quarantine bad ones;
    + verify every directory entry "points to page 0 of an existing
      file, fixing up the address if necessary and detecting entries
      which point elsewhere";
    + adopt every orphaned file into the root directory under its leader
      name — "this is the sole function of the leader name";
    + rebuild the disk descriptor.

    All disk work goes through ordinary timed operations, so the
    simulated duration of a scavenge is measured honestly (experiment
    E1: "it takes about a minute for a 2.5 megabyte disk"). The working
    table keeps a few words per live sector — within the paper's "48
    bits per sector" memory budget, so even the larger disk's table
    would have fit the machine that inspired it. *)

module Drive = Alto_disk.Drive

type report = {
  sectors_scanned : int;
  files_found : int;  (** Files alive when the dust settled. *)
  nameless_files : int;
      (** Files whose leader page no longer yields a legible leader
          name — they survive, but under a synthesized name if adopted. *)
  directories_found : int;
  orphans_adopted : int;
  links_repaired : int;
  labels_reclaimed : int;  (** Garbage labels rewritten as free. *)
  bad_sectors : int;  (** Unreadable or marked bad; quarantined. *)
  entries_fixed : int;  (** Directory address hints corrected. *)
  entries_removed : int;  (** Dangling directory entries dropped. *)
  incomplete_files : int;  (** Files truncated or discarded over gaps. *)
  pages_lost : int;  (** Live-looking pages freed as unreachable. *)
  duplicate_pages : int;  (** Two sectors claiming one absolute name. *)
  relocated_pages : int;
  marginal_relocated : int;
      (** Pages copied off marginal sectors — sectors whose data came
          back only after several retries during value verification. The
          old sector is quarantined; the data lives on elsewhere. *)
  pages_marked_bad : int;
      (** Live-looking pages whose data surface would not read back
          during value verification; their labels now carry the
          bad-page marker. *)
  duplicates_rescued : int;
      (** Pages whose chosen copy would not read back but whose twin —
          left by a crash between a move's copy and its retire — did.
          The twin takes over; the torn copy is quarantined. *)
  leaders_rebuilt : int;
      (** Headless files given a fresh, synthesized leader page: a torn
          leader write costs the file its dates and leader name, never
          its data. *)
  root_rebuilt : bool;  (** No root directory survived; a new one was made. *)
  duration_us : int;
}

val pp_report : Format.formatter -> report -> unit

val scavenge :
  ?verify_values:bool -> ?suspect_retries:int -> Drive.t -> (Fs.t * report, string) result
(** The only fatal error is a disk so broken that a fresh descriptor
    cannot be written. [verify_values] (default off) makes the sweep read
    every sector's value in the same operation as its label, under
    {!Alto_disk.Reliable.salvage_policy} — one pass over the pack, not
    two — and stamps the bad-page marker into the label of any live
    page whose surface has failed, so "they will never be used again"
    (§3.5). The leader values come out of that pass too, so the leaders
    pass re-reads only leaders moved or rebuilt after the sweep. A page
    whose sweep read succeeded only after [suspect_retries] or more
    retries (default 2) sits on a marginal sector: its data is copied to
    a fresh sector, links re-chained, and the old sector quarantined.
    Every sector known bad at the end of the run is recorded in the
    rebuilt volume's persistent bad-sector table
    ({!Fs.bad_sector_table}). Raises [Invalid_argument] if
    [suspect_retries < 1]. *)

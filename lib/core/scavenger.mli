(** The Scavenger (§3.5): "a scavenging procedure is provided to
    reconstruct the state of the file system from whatever fragmented
    state it may have fallen into."

    The scavenger trusts only the absolutes — the labels and the leader
    pages — and recomputes every hint from them: the page links, the
    allocation map, the directory address hints and the root directory
    itself. It needs no readable descriptor and no working volume handle;
    given nothing but a drive it returns a freshly mounted file system
    plus an account of everything it found and fixed.

    What it does, in order (the numbers are the steps in the code):
    + sweep every label and value on the disk ({!Sweep}), keeping the
      values of leaders and directory pages and putting every label
      read into the rebuilt volume's label cache;
    + (1) reassemble files by absolute name and mark bad every live page
      whose data will not read back; (2) discard duplicate pages and
      pages beyond a gap in the chain, and give a headless page set a
      fresh leader;
    + (3) offer the kept files and the sectors a page may end on to a
      placement plan ({!plan}); (4) write each page the plan names at
      its target with the image it ends with — its final links and, for
      a leader, its last-page hint and consecutive flag — parking a
      page in the way and staging a twin before any sector holding a
      page's only copy is overwritten. A scavenge's plan
      ({!evacuation}) moves the pages squatting on the descriptor's
      standard addresses or sitting on marginal sectors; a compaction's
      lays the files out back to back ({!Compactor});
    + (5-6) free stale copies, the staging twin and garbage-labelled
      sectors, and quarantine bad ones;
    + (7) repair every incorrect next/previous link;
    + (8) check that every leader is legible, reading again only the
      leaders rebuilt;
    + (9) set the serial counter beyond every serial seen;
    + (10) verify every directory entry "points to page 0 of an
      existing file, fixing up the address if necessary and detecting
      entries which point elsewhere" — from the values kept, so a
      directory is read only when it must be rewritten;
    + (11) choose the root directory, or build a fresh one;
    + (12) adopt every orphaned file into the root directory under its
      leader name — "this is the sole function of the leader name";
    + (13) rebuild the disk descriptor.

    All disk work goes through ordinary timed operations, so the
    simulated duration of a scavenge is measured honestly (experiment
    E1: "it takes about a minute for a 2.5 megabyte disk"). The working
    table keeps a few words per live sector — within the paper's "48
    bits per sector" memory budget, so even the larger disk's table
    would have fit the machine that inspired it. *)

module Drive = Alto_disk.Drive

type report = {
  sectors_scanned : int;
  files_found : int;
      (** Files alive when the dust settled; for {!repair}, the files it
          rebuilt. *)
  files_consecutive : int;
      (** Of those, the files whose pages stand in consecutive sectors. *)
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
          back only after several retries in the sweep. The old sector
          is quarantined; the data lives on elsewhere. *)
  pages_marked_bad : int;
      (** Live-looking pages whose data surface would not read back in
          the sweep; their labels now carry the bad-page marker. *)
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
(** For {!repair}, [sectors_scanned] counts the sectors it read (the
    mapped cylinders and the pages its walks reached), and the patrol's
    slice rules' relocations and quarantines are counted in. *)

val pp_report : Format.formatter -> report -> unit

(** {2 Placement plans} *)

type layout = {
  sectors : int;  (** Sectors on the pack. *)
  first : int;  (** The first sector past the descriptor's standard addresses. *)
  files : (File_id.t * int array) list;
      (** Every file the run keeps, in no particular order, with the
          sector each of its pages stands on, leader first. *)
  usable : int -> bool;
      (** A page may end on this sector: it is past the descriptor's,
          and neither bad, quarantined nor marginal. *)
  free : int -> bool;  (** Usable, and no page the run keeps stands on it. *)
}
(** What a plan sees after steps 1-2. *)

type plan = layout -> ((File_id.t * int) * int) list
(** Where pages end: ((file, page number), target sector). Every page
    the plan does not name stays where it stands. An entry naming a
    page the run did not keep or already named, or a target that is not
    [usable] or already taken, is ignored; a page in the way of a target
    is moved aside: a plan says where pages go, never which survive. *)

val evacuation : plan
(** A scavenge's plan: pages on the descriptor's standard addresses or
    on marginal sectors take the lowest free sectors; the boot page at
    sector 0 stays. *)

val rebuild : ?suspect_retries:int -> plan -> Drive.t -> (Fs.t * report, string) result
(** One whole-pack scavenge, placing pages by [plan]. The only fatal
    error is a disk so broken that a fresh descriptor cannot be written.
    The sweep reads every sector's value in the same operation as its
    label, under {!Alto_disk.Reliable.salvage_policy} — one pass over
    the pack, not two — and stamps the bad-page marker into the label of
    any live page whose surface has failed, so "they will never be used
    again" (§3.5). The values of leaders and directory pages come out of
    that pass too, so the leaders pass re-reads only rebuilt leaders,
    and a pack that needs no repair costs the directory and orphan
    passes no disk operation: a directory is read only to be rewritten,
    and the root only to take orphans. A page whose sweep read succeeded
    only after [suspect_retries] or more retries (default 2) sits on a
    marginal sector, where no page may end: once its page leaves, the
    sector is quarantined. Every sector known bad at the end of the run
    is recorded in the rebuilt volume's persistent bad-sector table
    ({!Fs.bad_sector_table}). Raises [Invalid_argument] if
    [suspect_retries < 1]. *)

val scavenge :
  ?verify_values:bool -> ?suspect_retries:int -> Drive.t -> (Fs.t * report, string) result
(** [rebuild evacuation]. [verify_values] is accepted and ignored:
    every scavenge verifies values. *)

val root_needs_repair : string
(** The reason {!repair} gives when the root directory itself is among
    the files the map shows damaged: the entries a repair might drop
    name files outside the map, so the pack must be scavenged whole. *)

val repair : Fs.t -> cylinders:int list -> (report, string) result
(** Settle a mounted dirty volume through its write-ahead map instead of
    the whole pack. [cylinders] (ascending) are the ones the map holds:
    writes since the last consistency point landed nowhere else, and
    every label written mapped the cylinders its links name, so a page
    outside them is as the consistency point left it.

    The mapped cylinders are read in one pass ({!Sweep.run_sectors}). A
    file is repaired when its pages there disagree — a page whose data
    will not read back, two claimants of one page, a link the page it
    names does not return. Its chain is walked out of the map by label
    checks, and steps 1, 1b, 2, 5 and 7 rebuild it as a whole-pack
    scavenge would. Every other swept sector gets the patrol's slice
    rules ({!Patrol.settle}): map repair, leak reclaim, bad-marker
    rejoin, relocation, quarantine. Steps 10 and 12 then settle the root
    entries that name a mapped leader, and adopt the mapped leaders no
    entry names. The run ends at {!Fs.mark_clean}.

    [Error reason] means the map cannot settle the pack and the caller
    must scavenge it whole: the root directory itself needs repair or
    does not read, a chain meets a page outside the map that does not
    answer, or an orphan might belong to a directory besides the root.
    Some repairs may have been written by then; the scavenge settles
    those too. *)

(** Files (§3.2): allocation-level objects built out of pages.

    "A file is a set of pages with absolute names (FV, 0) … (FV, n)." Page
    0 is the leader; data lives in pages 1..n; every page but the last is
    full. The basic operations are exactly the paper's: create an empty
    file, add pages at the end, delete pages from the end, delete the
    whole file — plus the byte-positioned reads and writes the stream
    package is built from.

    A file handle is a bag of hints: the leader address, a cached address
    per page number, the last page's number and length. Every disk access
    is label-checked, so a stale hint can never damage anything; when one
    fails the handle re-derives it by following links from the nearest
    page it still trusts ("it can follow links from that page, still
    avoiding the directory lookup", §3.6). Only when the file itself has
    moved or vanished does an operation give up with [Hint_failed] — at
    which point the caller climbs the rest of the recovery ladder
    ({!Hints}). *)

module Word = Alto_machine.Word
module Disk_address = Alto_disk.Disk_address

type t

type error =
  | Hint_failed
      (** The file could not be reached through any hint this handle
          holds; consult a directory or the scavenger. *)
  | No_such_page of int
      (** The page number is beyond the end of the file. *)
  | Fs_error of Fs.error
  | Structure of string
      (** The file's on-disk structure is inconsistent (scavenger bait). *)

val pp_error : Format.formatter -> error -> unit

val create : Fs.t -> name:string -> (t, error) result
(** A new file: a fresh id, a leader page carrying [name] as its leader
    name, and one empty data page, reserved as one run of two and
    written in that order, the leader already naming page 1; a pack
    with room for only one of them gets neither ([Disk_full]). The file
    is {e not} entered in any directory — "a separate mechanism exists
    for associating names with files" (§3.4). *)

val create_directory_file : Fs.t -> name:string -> (t, error) result
(** As {!create} but with a directory-flagged id, so the scavenger can
    tell the file holds directory entries. *)

val create_with_fid : Fs.t -> File_id.t -> name:string -> (t, error) result
(** As {!create} with a caller-chosen id — for system files with
    well-known ids (the scavenger rebuilding a root directory). *)

val open_leader : Fs.t -> Page.full_name -> (t, error) result
(** Open an existing file from the full name of its leader page (as found
    in a directory entry or an installed hint file). *)

val fs : t -> Fs.t
val fid : t -> File_id.t
val leader_name : t -> Page.full_name
val leader : t -> Leader.t
(** The in-core copy of the leader's properties. *)

val last_page : t -> int
val byte_length : t -> int

val page_name : t -> int -> (Page.full_name, error) result
(** Resolve a page number to a full name, through the hint cache or by
    chasing links. *)

val read_page : t -> int -> (Word.t array * int, error) result
(** Value and byte count of data page [pn >= 1]. *)

val read_bytes : t -> pos:int -> len:int -> (Bytes.t, error) result
(** Up to [len] bytes from byte position [pos]; shorter at end of file. *)

(** {2 Planned whole-file reads}

    {!read_bytes} split apart at the disk wait, for callers (the file
    server's activities) that want every data page as one request set on
    the standing elevator queue and the bytes assembled only when the
    shared sweep has completed them. Each planned request is
    label-checked; a refuted or failed page falls back to the ordinary
    one-page path during {!finish_read}. *)

type read_plan

val plan_read : t -> (read_plan option, error) result
(** The label-checked value reads for every data page of this file.
    [None] when the file is empty (nothing to read). *)

val plan_requests : read_plan -> Alto_disk.Sched.request array
(** The requests to submit — outcomes must come back in this order. *)

val finish_read : read_plan -> Alto_disk.Sched.outcome array -> (string, error) result
(** Adopt the outcomes (each verified label noted, each hint seeded and
    each page's links cached), fall back page-wise where a request failed,
    and assemble the file's whole contents. Raises [Invalid_argument]
    when the outcome count does not match the plan. *)

val write_bytes : ?through:bool -> t -> pos:int -> string -> (unit, error) result
(** Overwrite and/or extend. [pos] may not exceed the current length
    (files have no holes). Growing the last page pays the
    label-rewrite revolution the paper describes. A write that reaches
    past the last page first reserves every fresh page the remaining
    bytes need ({!Fs.reserve_pages}, one check pass); the old last
    page's one rewrite (or relink, when it was full) links it into the
    run, and each fresh page is written once, in file order, with its
    label already naming the next. A sector that refuses its write is
    quarantined and the run's next sector stands in, its predecessor
    relinked to it. A write that fails part way hands the unwritten
    reservations back. When the volume runs out, the file still takes
    every page there is before [Disk_full]. With
    [through] (default off) no value write waits in the track buffer
    cache: every data page written is on the platter when this
    returns. *)

val append_bytes : t -> string -> (unit, error) result

val truncate : t -> len:int -> (unit, error) result
(** Delete pages from the end until the file holds [len] bytes. The
    pages cut are freed as one run ({!Fs.free_pages}). *)

val delete : t -> (unit, error) result
(** Free the data pages as one run ({!Fs.free_pages}), then the leader
    alone, so a crash part way never leaves data pages without their
    leader. The handle is dead afterwards.
    Directory entries pointing at the file become dangling — their
    removal is, again, a separate mechanism. *)

val read_words : t -> pos:int -> len:int -> (Word.t array, error) result
(** Word-granularity IO used by the directory package; [pos] and [len]
    count words. Reads beyond end of file return a shorter array. *)

val read_word_pages : t -> (Word.t array array * int, error) result
(** The whole file as words, read as
    [read_words t ~pos:0 ~len:(byte_length t / 2)] reads it (the same
    pages, in the same order) but not copied: [(pages, n)] holds [n]
    words, word [i] being [pages.(i / 256).(i mod 256)]. When every page
    before the last is full, as in any file written through this
    module, the arrays are the page values as read. Callers must not
    mutate them. *)

val word_pages_of : (Word.t array * int) array -> (Word.t array array * int, error) result
(** {!read_word_pages} over data pages already in memory, with no disk
    operation: [pages.(i)] is data page [i + 1]'s value and label
    length, the last entry the file's last page. The rule is the one
    the disk read follows, so a page shorter than a full one before the
    last gets the same answer here as there. *)

val write_words : t -> pos:int -> Word.t array -> (unit, error) result

val flush_leader : t -> (unit, error) result
(** Write the in-core leader properties (dates, last-page hint) back to
    page 0. The system calls this when a stream is closed; a crash before
    then costs nothing but hint freshness. *)

val replace : ?through:bool -> t -> string -> (unit, error) result
(** Make the file hold exactly these bytes, then {!flush_leader}: a
    {!truncate} when the new contents are shorter, and a {!write_bytes}
    from position 0, so only the difference in page count is allocated
    or freed. [through] as for {!write_bytes}. A crash part way leaves
    every page that reads back holding its old or its new contents. *)

val replace_words : t -> Word.t array -> (unit, error) result
(** {!replace} with word contents. *)

val invalidate_hints : t -> unit
(** Forget every cached page address (the leader's stays). Tests and
    experiments use this to force the re-derivation paths. *)

val retain_hints : t -> every:int -> unit
(** Keep only every [k]-th page's address (and the leader's), dropping
    the rest — §3.6: "Hint addresses can also be kept for every k-th
    page of the file to reduce the number of links that must be
    followed." Experiment E4's sweep measures what each density buys.
    Raises [Invalid_argument] when [every < 1]. *)

val hinted_pages : t -> int
(** How many page addresses the handle currently holds — benchmarks
    report hint coverage. *)

val consecutive_fraction : t -> (float, error) result
(** The fraction of the file's page transitions, leader included, that
    land on the next sector: 0.0 for fully scattered, 1.0 for fully
    consecutive (and for a file of one page). The experiments' measure
    of fragmentation. *)

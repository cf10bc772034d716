(** Disk file streams: buffered byte streams over {!Alto_fs.File}.

    The stream keeps one page of the file buffered (working storage that
    can be placed in a caller-supplied zone, mirroring the paper's "a
    zone object which is used to acquire and release working storage for
    the stream"), reads and writes through the label-checked page
    operations, and extends the file transparently when written past the
    end.

    Standard operations: [get]/[put] move one byte at the shared
    position, [reset] rewinds to byte 0, [at_end] tests the position
    against the file length, [close] flushes the buffer and, if the
    stream changed the file (a put that reached it, or a truncate), the
    leader page; a stream that only read writes nothing. Non-standard
    operations (via [control]): ["position"], ["set-position"],
    ["length"], ["flush"], ["truncate"]. *)

module Memory = Alto_machine.Memory
module Zone = Alto_zones.Zone
module File = Alto_fs.File

exception Io of string
(** A disk operation failed underneath the stream (e.g. every hint for
    the file went stale); the message carries the file error. *)

type mode = Read_only | Write_only | Read_write

val open_file :
  ?workspace:Memory.t * Zone.obj -> mode:mode -> File.t -> Stream.t
(** When [workspace] is supplied, the page buffer is allocated from that
    zone inside the simulated memory (and released on [close]);
    otherwise host storage is used. A mode that excludes reading leaves
    [get] unsupported, and symmetrically for [put]. *)

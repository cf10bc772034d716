(** The assembled operating system (§5).

    "The operating system is a collection of commonly used subroutine
    packages that are normally present in memory for the convenience of
    user programs." Here the packages are the other libraries of this
    repository; what is "present in memory" are their service stubs, laid
    out in the thirteen levels of {!Level} at the top of the 64K image.
    The bodies behind the stubs run in the host — our writable microcode —
    through the VM's [SYS] trap, so a loaded program calls the system
    exactly the way the paper's programs did: an ordinary procedure call
    to a fixed resident address, bound by the loader's fixup table.

    {2 Junta}

    "A program that prefers not to use the standard procedures provided
    by the system, or that needs to use the memory space occupied by them,
    may request that some or all system procedures be deleted from
    memory." {!junta} reclaims every level above the kept one — their
    regions are filled with a trap word so a stale call stops cleanly —
    and {!counter_junta} "restores all levels that were removed, and
    reinitializes any data structures they contain."

    {2 Service conventions}

    Arguments and results travel in AC0–AC2; AC3 is the error register
    (0 on success). Strings in VM memory are a length word followed by
    characters packed two per word. Files and streams are word-sized
    handles — BCPL's "each object can be represented by a 16-bit machine
    word" — issued by the system's object table:

    {v code name          in                          out
        1   OutLoad       AC0 state-file handle       AC0 1 (or 0 when revived)
        2   InLoad        AC0 handle; msg at 16..     (never returns here)
        3   CounterJunta
       10   StackFrame    AC0 words                   AC0 frame address
       20   DiskRead      AC0 DA, AC1 buffer          256 words to buffer
       21   DiskWrite     AC0 DA, AC1 buffer
       22   DiskPatrol    (idle moment)               AC0 pages relocated
       23   ServerTick    (idle moment)               AC0 progress made
       24   ReplicaTick   (idle moment)               AC0 progress made
       30   Allocate      AC0 words                   AC0 address
       31   Free          AC0 address
       40   OpenFile      AC0 name, AC1 mode 0/1/2    AC0 stream handle
       41   CloseStream   AC0 handle
       42   StreamGet     AC0 handle                  AC0 item, AC1 eof flag
       43   StreamPut     AC0 handle, AC1 item
       44   StreamReset   AC0 handle
       45   GetPosition   AC0 handle                  AC0 position
       46   SetPosition   AC0 handle, AC1 position
       47   FileLength    AC0 handle                  AC0 bytes
       50   LookupFile    AC0 name                    AC0 1 if present
       51   CreateFile    AC0 name
       52   DeleteFile    AC0 name
       60   ReadChar                                  AC0 char, AC1 1 if none
       61   CharsPending                              AC0 count
       70   WriteChar     AC0 char
       71   WriteString   AC0 name
       80   Junta         AC0 keep-level
       81   Exit          AC0 status                  stops the run
       82   LoadOverlay   AC0 name of a code file     AC0 entry address v} *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Geometry = Alto_disk.Geometry
module Drive = Alto_disk.Drive
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Zone = Alto_zones.Zone
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display

type t

val user_base : int
(** 1024: where the loader places program code; below it live page zero,
    the message area, and the command-line words. *)

val boot : ?geometry:Geometry.t -> ?drive:Drive.t -> unit -> t
(** Bring the system up: mount the pack and recover it
    ({!Alto_fs.Recovery.boot}: a clean pack as it is, a crashed one
    through its write-ahead cylinder map, the whole-pack verifying
    scavenge where the map cannot serve or the pack does not mount, the
    formatter only if that fails), arm the flight recorder
    ({!Alto_fs.Flight.enable}), then lay the thirteen levels into the
    top of memory and initialize the system free-storage zone. Recovery
    runs before the recorder is armed. *)

type recovery = Alto_fs.Recovery.outcome
(** How {!boot} brought the pack back. *)

val pp_recovery : Format.formatter -> recovery -> unit

val recovery : t -> recovery
(** What this boot did to the pack it found (the [health] command prints
    it). *)

val memory : t -> Memory.t
val cpu : t -> Cpu.t
val drive : t -> Drive.t
val fs : t -> Fs.t

val set_fs : t -> Fs.t -> unit
(** Swap the mounted volume for the one a scavenge or a compaction
    rebuilt. The patrol is
    re-created for the new volume, resuming at its persisted cursor. *)

val patrol : t -> Alto_fs.Patrol.t
(** The volume's online patrol — level 5's DiskPatrol service and the
    executive's idle ticks both drive this instance, so its cumulative
    totals are what the [health] command reports. *)

val patrol_tick : t -> Alto_fs.Patrol.report
(** Run one verify slice now (what service code 22 does). *)

val keyboard : t -> Keyboard.t
val display : t -> Display.t
val system_zone : t -> Zone.t

val resident_level : t -> int
(** 13 when everything is resident. *)

val user_boundary : t -> int
(** One past the memory a program may use: rises as levels are removed. *)

val junta : t -> keep:int -> unit
(** Remove levels [keep+1 .. 13]. Removing the keyboard buffer level
    discards type-ahead, as losing that memory must. Raises
    [Invalid_argument] outside 1..13. *)

val counter_junta : t -> unit

val handler : t -> Vm.handler
(** The system-call dispatcher to run VM programs under. Calls to
    services whose level is not resident stop the run with
    {!Level.removed_trap_code}. *)

val last_error : t -> string option
(** Human-readable detail of the most recent service error (AC3 ≠ 0). *)

val set_overlay_loader : t -> (string -> (int, string) result) -> unit
(** Install the procedure behind the [LoadOverlay] service (the loader
    wires itself in; the indirection only breaks a module cycle). *)

val set_server_tick : t -> (unit -> int) -> unit
(** Install the procedure behind the [ServerTick] service — typically
    [fun () -> File_server.tick server]. The indirection keeps the OS
    level from depending on the server package; the executive's [serve]
    command and idle loops call the service, not the server directly. *)

val server_tick : t -> (unit -> int) option

val set_replica_tick : t -> (unit -> int) -> unit
(** Install the procedure behind the [ReplicaTick] service — typically
    [fun () -> Replica.tick node]. Same indirection discipline as
    {!set_server_tick}: the OS level never depends on the server
    package. *)

val replica_tick : t -> (unit -> int) option

val set_peer_report : t -> (unit -> string list) -> unit
(** Install the report behind the executive's [peers] command —
    typically [fun () -> Replica.report fleet]. *)

val peer_report : t -> (unit -> string list) option

(** {2 Object handles} *)

val register_file : t -> File.t -> int
(** Issue a word-sized handle for a file (e.g. a world file a program
    will OutLoad to). *)

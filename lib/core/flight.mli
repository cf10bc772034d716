(** The on-pack flight recorder: the machine's black box.

    At each consistency point ([quit], OutLoad, scavenge completion) the
    recorder seals the newest 256 events of the {!Alto_obs.Obs} trace
    recorded since it was armed — together with a full metrics snapshot
    — into a catalogued [FlightRecorder.log] file on the pack: a
    one-line header followed by one JSON object:

    {v
    altos.flight/1 <payload bytes> <fnv64 of payload, hex>
    { "magic": "altos.flight/1", "sealed_at_us": …, "reason": "quit",
      "metrics": { … }, "events": [ {"seq": …, "ts_us": …, …}, … ] }
    v}

    After an unsafe shutdown, boot {e adopts} the record before recovery
    overwrites anything: the operator (and [blackbox] in the Executive)
    can read the machine's last recorded moments even though the crash
    itself wrote nothing. A pack without the file mounts exactly as
    before — adoption simply finds nothing.

    The seal is itself a burst of delayed-then-flushed writes, so a
    crash {e during} a seal can leave the file holding any page-level
    mix of the old record and the new. The header's length and checksum
    must cover exactly the bytes that follow; a torn seal therefore
    reads as "no flight record", never as garbage handed to a consumer.

    The recorder is machine-wide and starts disarmed; {!enable} is
    called when the full machine boots. Library-level users of [Fs]
    never see the file appear on its own. Everything it writes derives
    from the simulated clock and the metric registry, so fixed-seed
    runs stay byte-deterministic with the recorder armed. *)

val file_name : string
(** ["FlightRecorder.log"], catalogued in the root directory. *)

val enable : unit -> unit
(** Arm the recorder (idempotent): from now on {!flush} may write, and
    a seal holds only events recorded since this moment. An
    {!Alto_obs.Obs.reset} restarts the window too, since it forgets
    every earlier event. *)

val disable : unit -> unit
(** Disarm, and forget any adopted record — the clean slate the crash
    harness resets each simulated incarnation to: the next {!enable}
    opens a fresh window. *)

val flush : reason:string -> Fs.t -> unit
(** Seal the window's events and the metrics into the pack, creating the
    file on first use. Best effort and a no-op while disarmed: a dying
    machine must not be stopped by its own black box. Call {e before}
    {!Fs.mark_clean} — the write dirties the volume. *)

val adopt : Fs.t -> string option
(** Read the record left by the previous incarnation, validate its seal,
    and remember the JSON payload for {!adopted}. Called at boot, before
    recovery runs. Returns [None] on packs without a record and on
    records whose header, length or checksum fail — a seal torn by the
    crash is indistinguishable from no record at all. *)

val adopted : unit -> string option
(** The record adopted at boot, if any — what [blackbox] prints. *)

(** Bootstrapping (§4): "A hardware bootstrap button causes the state of
    the machine to be restored from a disk file whose first page is kept
    at a fixed location on the disk."

    The fixed location is sector 0, which the allocator never hands out.
    {!install} writes a boot record there naming the boot state file (its
    full name — absolute name plus address hint); {!boot} plays the
    bootstrap button: it follows the record, label-checks the hint like
    any other, and InLoads the named world. A stale hint after the boot
    file moved is recovered through the usual ladder by the caller — the
    record's absolute name survives a compaction. *)

module Word = Alto_machine.Word
module Cpu = Alto_machine.Cpu
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page

type error =
  | No_boot_record
  | Boot_file_missing of Page.full_name
      (** The record is intact but its hint is stale; the full name is
          returned so the caller can climb the ladder. *)
  | World_error of World.error

val pp_error : Format.formatter -> error -> unit

val install : Fs.t -> File.t -> (unit, error) result
(** Make the given state file the boot world. *)

val boot : Fs.t -> Cpu.t -> (unit, error) result
(** Press the button: recover the volume as every boot does
    ({!Alto_fs.Recovery.recover}), then restore the machine from the boot
    world with an empty message. *)

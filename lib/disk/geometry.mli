(** Disk shapes.

    §3.3 of the paper: the disk descriptor records "the disk shape, i.e.,
    number of tracks, surfaces, and other information needed to
    parameterize the disk routines for a particular model of disk", and
    this shape is {e absolute} information. This module is that
    parameterization, including the timing constants the experiments
    depend on, plus its on-disk word encoding. *)

type t = {
  model : string;  (** Human-readable model name; not stored on disk. *)
  cylinders : int;
  heads : int;  (** Number of surfaces. *)
  sectors_per_track : int;
  rotation_us : int;  (** Time for one full revolution, in µs. *)
  seek_settle_us : int;  (** Fixed cost of any head movement (settle). *)
  seek_per_cylinder_us : int;  (** Additional cost per cylinder crossed. *)
}

val diablo_31 : t
(** The Alto's standard drive: a Diablo Model 31 — 203 cylinders, 2
    surfaces, 12 sectors per track, 256 data words per sector, for 2.496
    megabytes per removable pack; one revolution every 40 ms, giving the
    paper's "64k words in about one second" effective transfer rate. *)

val diablo_44 : t
(** The "another disk with about twice the size and performance" of §2:
    twice the cylinders and half the rotation time of the Model 31. *)

val sector_count : t -> int
(** Total sectors on one pack. *)

val capacity_bytes : t -> int

val sector_time_us : t -> int
(** Time for one sector to pass under the head. *)

val seek_time_us : t -> from_cylinder:int -> to_cylinder:int -> int
(** Head-movement time; zero when the cylinders are equal. *)

val validate : t -> (unit, string) result
(** Check that all dimensions are positive and the sector count fits the
    16-bit disk-address encoding. *)

val encoded_words : int
(** Length of the {!to_words} encoding. *)

val to_words : t -> Alto_machine.Word.t array
(** Encode the shape for storage in the disk descriptor. The model name
    is not stored; decoded shapes carry a generic name. *)

val of_words : Alto_machine.Word.t array -> (t, string) result

val equal : t -> t -> bool
(** Equality of every field except [model]. *)

val pp : Format.formatter -> t -> unit

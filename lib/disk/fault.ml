module Word = Alto_machine.Word
module Splitmix = Alto_machine.Splitmix

let random_words rng n = Array.init n (fun _ -> Word.of_int (Splitmix.int rng 0x10000))

let corrupt_part rng drive addr part =
  Drive.poke drive addr part (random_words rng (Sector.part_size part))

let zero_part drive addr part =
  Drive.poke drive addr part (Array.make (Sector.part_size part) Word.zero)

let flip_word rng drive addr part =
  let sector = Drive.peek drive addr in
  let words = Sector.part_of sector part in
  let i = Splitmix.int rng (Array.length words) in
  let bit = Splitmix.int rng Word.bits in
  words.(i) <- Word.logxor words.(i) (Word.shift_left Word.one bit);
  Drive.poke drive addr part words

let make_bad drive addr = Drive.set_bad drive addr true

let make_value_unreadable drive addr = Drive.set_value_unreadable drive addr true

let set_soft_errors drive ~seed ~rate = Drive.set_soft_errors drive ~seed ~rate

let make_marginal ?(rate = 0.5) ?(growth = 1.25) ?(degrade_after = 16) drive addr =
  Drive.set_marginal drive addr ~rate ~growth ~degrade_after

let crash_after_writes ?tear drive n = Drive.set_crash_point drive ?tear ~after_writes:n ()

let cancel_crash drive = Drive.clear_crash_point drive

let decay rng drive ~fraction =
  if fraction < 0. || fraction > 1. then invalid_arg "Fault.decay: fraction out of [0,1]"
  else begin
    let victims = ref [] in
    for i = Drive.sector_count drive - 1 downto 0 do
      if Splitmix.float rng < fraction then begin
        let addr = Disk_address.of_index i in
        corrupt_part rng drive addr Sector.Label;
        victims := addr :: !victims
      end
    done;
    !victims
  end

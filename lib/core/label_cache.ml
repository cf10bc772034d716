module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs

let m_hits = Obs.counter "fs.label_cache.hits"
let m_misses = Obs.counter "fs.label_cache.misses"
let m_invalidations = Obs.counter "fs.label_cache.invalidations"

let label_words = Sector.label_words

(* Drive generations start at 0 and only grow, so -1 marks a slot that
   holds nothing. *)
let empty = -1

type t = {
  drive : Drive.t;
  words : Word.t array;  (* Sector [i]'s verified image at [i * label_words]. *)
  gens : int array;  (* [Drive.label_generation] at verification time. *)
}

let create drive =
  let n = Drive.sector_count drive in
  { drive; words = Array.make (n * label_words) Word.zero; gens = Array.make n empty }

let length t = Array.fold_left (fun n g -> if g = empty then n else n + 1) 0 t.gens

(* The slot of a sector, or -1 when the address names none. *)
let slot t addr = if Drive.has_sector t.drive addr then Disk_address.to_index addr else -1

let drop t i =
  t.gens.(i) <- empty;
  Obs.incr m_invalidations

(* The controller's check action, replayed against the label image at
   [image.(at)]: a zero pattern word learns the image's word, a
   non-zero one must match it. *)
let replay pattern image ~at =
  let rec scan k =
    if k >= label_words then Ok ()
    else
      let w = image.(at + k) in
      if Word.equal pattern.(k) Word.zero then begin
        pattern.(k) <- w;
        scan (k + 1)
      end
      else if Word.equal pattern.(k) w then scan (k + 1)
      else
        Error
          (Drive.Check_mismatch
             { part = Sector.Label; offset = k; memory = pattern.(k); disk = w })
  in
  scan 0

let check t addr pattern =
  let i = slot t addr in
  if i < 0 || t.gens.(i) = empty then begin
    Obs.incr m_misses;
    None
  end
  else if t.gens.(i) = Drive.label_generation t.drive addr then begin
    Obs.incr m_hits;
    Some (replay pattern t.words ~at:(i * label_words))
  end
  else begin
    (* The drive saw a label write, a quarantine or retry evidence on
       this sector since we verified: the entry is dead. *)
    drop t i;
    Obs.incr m_misses;
    None
  end

let confirm t addr pattern =
  let i = slot t addr in
  if i >= 0 && t.gens.(i) = Drive.label_generation t.drive addr then
    Some (replay pattern t.words ~at:(i * label_words))
  else None

let note_verified t addr (words : Word.t array) =
  let i = slot t addr in
  if i >= 0 then begin
    (* A word at a time: [Array.blit] runs the write barrier on every
       element of a table in the major heap, where a store typed at
       [Word.t], an immediate, needs none. *)
    for k = 0 to label_words - 1 do
      t.words.((i * label_words) + k) <- words.(k)
    done;
    t.gens.(i) <- Drive.label_generation t.drive addr
  end

let invalidate t addr =
  let i = slot t addr in
  if i >= 0 && t.gens.(i) <> empty then drop t i

let clear t =
  let n = length t in
  if n > 0 then begin
    Array.fill t.gens 0 (Array.length t.gens) empty;
    Obs.add m_invalidations n
  end

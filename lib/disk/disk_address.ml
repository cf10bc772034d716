module Word = Alto_machine.Word

type t = int

let nil = -1
let is_nil a = a = nil

let of_index i =
  if i < 0 then invalid_arg "Disk_address.of_index: negative" else i

let to_index a =
  if a = nil then invalid_arg "Disk_address.to_index: nil address" else a

let offset a k =
  if a = nil then invalid_arg "Disk_address.offset: nil address"
  else if a + k < 0 then invalid_arg "Disk_address.offset: negative result"
  else a + k

let nil_word = Word.of_int 0xffff

let to_word a = if a = nil then nil_word else Word.of_int_exn a

let of_word w = if Word.equal w nil_word then nil else Word.to_int w

let chs g a =
  let i = to_index a in
  if i >= Geometry.sector_count g then
    invalid_arg "Disk_address.chs: address beyond disk"
  else
    let sectors = g.Geometry.sectors_per_track in
    let per_cylinder = g.Geometry.heads * sectors in
    (i / per_cylinder, i mod per_cylinder / sectors, i mod sectors)

let of_chs g ~cylinder ~head ~sector =
  if
    cylinder < 0
    || cylinder >= g.Geometry.cylinders
    || head < 0
    || head >= g.Geometry.heads
    || sector < 0
    || sector >= g.Geometry.sectors_per_track
  then invalid_arg "Disk_address.of_chs: out of range"
  else
    (cylinder * g.Geometry.heads * g.Geometry.sectors_per_track)
    + (head * g.Geometry.sectors_per_track)
    + sector

let equal (a : int) b = a = b

let pp fmt a =
  if a = nil then Format.pp_print_string fmt "NIL"
  else Format.fprintf fmt "DA%d" a

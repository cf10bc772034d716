type t = int

let bits = 16
let max_value = 0xffff
let zero = 0
let one = 1

let of_int n = n land max_value

let of_int_exn n =
  if n < 0 || n > max_value then
    invalid_arg (Printf.sprintf "Word.of_int_exn: %d out of range" n)
  else n

let to_int w = w

let to_signed w = if w land 0x8000 <> 0 then w - 0x10000 else w

let add a b = (a + b) land max_value
let sub a b = (a - b) land max_value
let mul a b = a * b land max_value
let logand a b = a land b
let logor a b = a lor b
let logxor a b = a lxor b
let shift_left a n = (a lsl n) land max_value
let shift_right a n = a lsr n

let succ a = add a 1

let low_byte w = w land 0xff
let high_byte w = (w lsr 8) land 0xff

let of_bytes ~high ~low =
  if high < 0 || high > 0xff || low < 0 || low > 0xff then
    invalid_arg "Word.of_bytes: byte out of range"
  else (high lsl 8) lor low

let of_char_pair c1 c2 = of_bytes ~high:(Char.code c1) ~low:(Char.code c2)

let words_of_string s =
  let n = String.length s in
  let nwords = (n + 1) / 2 in
  Array.init nwords (fun i ->
      let high = Char.code s.[2 * i] in
      let low = if (2 * i) + 1 < n then Char.code s.[(2 * i) + 1] else 0 in
      of_bytes ~high ~low)

let string_of_words ws ~len =
  if len < 0 || len > 2 * Array.length ws then
    invalid_arg "Word.string_of_words: bad length"
  else
    String.init len (fun i ->
        let w = ws.(i / 2) in
        Char.chr (if i mod 2 = 0 then high_byte w else low_byte w))

let equal (a : int) b = a = b
let pp fmt w = Format.pp_print_int fmt w

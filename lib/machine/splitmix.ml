type t = { mutable state : int64 }

let of_seed seed = { state = Int64.of_int seed }

let next p =
  p.state <- Int64.add p.state 0x9E3779B97F4A7C15L;
  let z = p.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The top 53 bits. *)
let float p = Int64.to_float (Int64.shift_right_logical (next p) 11) /. 9007199254740992.0

let int p bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  Int64.to_int (Int64.unsigned_rem (next p) (Int64.of_int bound))

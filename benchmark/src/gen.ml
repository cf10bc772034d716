(* Seeded input generation. Every input a workload feeds the system —
   arrival times, operation mix, file names, sizes and contents — is
   drawn here from the run's seed, so the same seed replays the same
   inputs and the system under test only ever sees generated requests. *)

type t = Random.State.t

(* One independent stream per (seed, purpose): adding draws to one
   stream never shifts another. *)
let make ~seed ~stream = Random.State.make [| 0x416c746f; seed; stream |]

let int t bound = Random.State.int t bound
let range t lo hi = lo + Random.State.int t (hi - lo + 1)
let percent t = Random.State.int t 100

(* Exponential inter-arrival gap of a Poisson process at [rate] per
   second, in whole microseconds. *)
let gap_us t ~rate =
  let u = Float.max 1e-12 (1.0 -. Random.State.float t 1.0) in
  int_of_float (Float.round (-.log u *. 1e6 /. rate))

(* Zipf popularity over [n] items with exponent [s], as a cumulative
   table; [zipf_draw] inverts it by binary search. *)
let zipf ~n ~s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf t =
  let u = Random.State.float t 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

(* Printable file contents. *)
let body t n = String.init n (fun _ -> Char.chr (32 + Random.State.int t 95))

(* The body a PUT with this seed carries: recomputable from the seed
   alone, so the oracle needs no copy of what was sent. *)
let put_body ~seed n = body (make ~seed ~stream:7) n

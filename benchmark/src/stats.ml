(* Order statistics over measured samples.

   Simulated latencies are sums of fixed quanta — packet times, activity
   steps, sector times — so large samples hold long runs of tied values,
   and an ordinary sample quantile sticks to one of them seed after seed.
   Quantiles here are mid-quantiles (Parzen): each distinct value sits at
   the middle of the cumulative share its ties cover, and a quantile
   interpolates linearly between neighbouring distinct values. Without
   ties this is the usual interpolated quantile; with them it moves with
   the tie proportions instead of jumping from quantum to quantum. *)

let sorted_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p] in [0, 1] over an already sorted array; nan when empty. An
   infinite sample (a request that never answered) makes every quantile
   that reaches it infinite. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    (* Distinct values with the mid-point of their cumulative share. *)
    let values = ref [] and mids = ref [] in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j < n && a.(!j) = a.(!i) do
        incr j
      done;
      values := a.(!i) :: !values;
      mids := (float_of_int (!i + !j) /. 2.0 /. float_of_int n) :: !mids;
      i := !j
    done;
    let values = Array.of_list (List.rev !values) in
    let mids = Array.of_list (List.rev !mids) in
    let k = Array.length values in
    if p <= mids.(0) then values.(0)
    else if p >= mids.(k - 1) then values.(k - 1)
    else begin
      let j = ref 0 in
      while mids.(!j + 1) < p do
        incr j
      done;
      let frac = (p -. mids.(!j)) /. (mids.(!j + 1) -. mids.(!j)) in
      if frac = 0.0 then values.(!j)
      else values.(!j) +. (frac *. (values.(!j + 1) -. values.(!j)))
    end
  end

let quantile a p = quantile_sorted (sorted_floats a) p
let median a = quantile a 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* The highest of p99 and p90 that leaves at least ten samples beyond
   it — the tail a sample of [n] supports. *)
let tail_percentile n = if float_of_int n *. 0.01 >= 10.0 then 0.99 else 0.90

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

module Sim_clock = Alto_machine.Sim_clock

(* {2 Counters and histograms} *)

type counter = { c_name : string; mutable c_value : int }

(* Log-bucketed value counts, HDR style with 3 mantissa bits: values
   below 16 get a bucket each (exact), larger values share an octave
   split into 8 sub-buckets, so a bucket is never wider than 12.5% of
   its lower bound. 480 buckets cover every non-negative OCaml int;
   negatives (histograms admit them) clamp into bucket 0 and the
   percentile answer is clamped back into [min, max]. *)
let bucket_count = 480

let bucket_index v =
  if v < 16 then if v < 0 then 0 else v
  else begin
    let rec msb acc v = if v > 1 then msb (acc + 1) (v lsr 1) else acc in
    let o = msb 0 v in
    16 + ((o - 4) * 8) + ((v lsr (o - 3)) land 7)
  end

let bucket_floor idx =
  if idx < 16 then idx
  else
    let o = 4 + ((idx - 16) / 8) in
    let sub = (idx - 16) mod 8 in
    (8 + sub) lsl (o - 3)

type hist_state = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

type histogram = hist_state

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
}

type registered = R_counter of counter | R_histogram of hist_state

(* The registry proper. Insertion order is irrelevant; snapshots sort. *)
let registry : (string, registered) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (R_counter c) -> c
  | Some (R_histogram _) ->
      invalid_arg (Printf.sprintf "Obs.counter: %S is registered as a histogram" name)
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add registry name (R_counter c);
      c

let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg (Printf.sprintf "Obs.add: counter %S is monotonic" c.c_name)
  else c.c_value <- c.c_value + n

let counter_value c = c.c_value
let counter_name c = c.c_name

let histogram name =
  match Hashtbl.find_opt registry name with
  | Some (R_histogram h) -> h
  | Some (R_counter _) ->
      invalid_arg (Printf.sprintf "Obs.histogram: %S is registered as a counter" name)
  | None ->
      let h =
        {
          h_name = name;
          h_count = 0;
          h_sum = 0;
          h_min = 0;
          h_max = 0;
          h_buckets = Array.make bucket_count 0;
        }
      in
      Hashtbl.add registry name (R_histogram h);
      h

let observe h v =
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let percentile h p =
  if h.h_count = 0 then 0
  else begin
    let rank = min h.h_count (max 1 (int_of_float (ceil (p *. float_of_int h.h_count)))) in
    let rec walk i seen =
      let seen = seen + h.h_buckets.(i) in
      if seen >= rank then bucket_floor i else walk (i + 1) seen
    in
    (* The bucket floor under-reads by at most one bucket width; clamping
       into [min, max] restores exactness for single-bucket tails and for
       the negative values the floor cannot represent. *)
    max h.h_min (min h.h_max (walk 0 0))
  end

let summary h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    mean = (if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count);
    p50 = percentile h 0.50;
    p90 = percentile h 0.90;
    p99 = percentile h 0.99;
  }

(* {2 Event trace: a ring buffer} *)

type field_value = I of int | S of string | B of bool

type event = {
  seq : int;
  ts_us : int;
  name : string;
  fields : (string * field_value) list;
}

type trace_state = {
  ring : event option array;  (* The newest 1,024 events. *)
  mutable head : int;  (* Next write position. *)
  mutable stored : int;
  mutable next_seq : int;
}

let tr = { ring = Array.make 1024 None; head = 0; stored = 0; next_seq = 0 }

let trace () =
  let cap = Array.length tr.ring in
  let oldest = (tr.head - tr.stored + cap) mod cap in
  List.init tr.stored (fun i ->
      match tr.ring.((oldest + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let event ?clock ?(fields = []) name =
  let ts_us = match clock with Some c -> Sim_clock.now_us c | None -> 0 in
  let e = { seq = tr.next_seq; ts_us; name; fields } in
  tr.next_seq <- tr.next_seq + 1;
  let cap = Array.length tr.ring in
  tr.ring.(tr.head) <- Some e;
  tr.head <- (tr.head + 1) mod cap;
  if tr.stored < cap then tr.stored <- tr.stored + 1

(* {2 Spans} *)

let time clock name f =
  let h = histogram name in
  let t0 = Sim_clock.now_us clock in
  event ~clock (name ^ ".begin");
  let close () =
    let elapsed = Sim_clock.now_us clock - t0 in
    observe h elapsed;
    event ~clock ~fields:[ ("elapsed_us", I elapsed) ] (name ^ ".end")
  in
  (* Every timed site doubles as a causal span, so the profiler sees the
     whole [Obs.time] surface without any call-site changes. *)
  match Prof.span clock name f with
  | x ->
      close ();
      x
  | exception exn ->
      close ();
      raise exn

(* {2 The registry} *)

type metric = Counter of int | Histogram of summary

let snapshot () =
  Hashtbl.fold
    (fun name r acc ->
      let m =
        match r with
        | R_counter c -> Counter c.c_value
        | R_histogram h -> Histogram (summary h)
      in
      (name, m) :: acc)
    registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  match Hashtbl.find_opt registry name with
  | None -> None
  | Some (R_counter c) -> Some (Counter c.c_value)
  | Some (R_histogram h) -> Some (Histogram (summary h))

(* Layers above this one (the request tracer) keep global state keyed to
   the registry's lifetime but cannot be called from here without a
   dependency cycle; they register a hook instead. Hooks run after the
   registry is zeroed, so a hook may re-register metrics. *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_reset f = reset_hooks := f :: !reset_hooks

let reset () =
  Hashtbl.iter
    (fun _ r ->
      match r with
      | R_counter c -> c.c_value <- 0
      | R_histogram h ->
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_min <- 0;
          h.h_max <- 0;
          Array.fill h.h_buckets 0 bucket_count 0)
    registry;
  Array.fill tr.ring 0 (Array.length tr.ring) None;
  tr.head <- 0;
  tr.stored <- 0;
  tr.next_seq <- 0;
  Prof.reset ();
  List.iter (fun f -> f ()) !reset_hooks

let summary_json s =
  Json.Obj
    [
      ("type", Json.String "histogram");
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("min", Json.Int s.min);
      ("max", Json.Int s.max);
      ("mean", Json.Float s.mean);
      ("p50", Json.Int s.p50);
      ("p90", Json.Int s.p90);
      ("p99", Json.Int s.p99);
    ]

let metrics_json () =
  Json.Obj
    (List.map
       (fun (name, m) ->
         ( name,
           match m with
           | Counter v -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int v) ]
           | Histogram s -> summary_json s ))
       (snapshot ()))

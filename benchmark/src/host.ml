(* What the program costs the host, measured so that a shared machine's
   moods cancel out.

   The end-to-end host metrics charge the process's CPU time (user +
   system, from getrusage), so time spent waiting for a processor is not
   billed to the program. That is not enough on a shared machine: other
   tenants slow the allocation- and memory-heavy work this program does
   by a fifth and more, in bursts of seconds and in spells of minutes.
   So every measured stretch is followed by a fixed calibration kernel,
   and its cost is scaled to a machine where the kernel takes
   [reference_kernel_us] — a 2-core x86-64 container at rest. A
   slowdown that hits program and kernel alike cancels; a change to the
   program does not. *)

let cpu_us () = Sys.time () *. 1e6

(* The kernel: allocation, a live table, hashing — the same kind of work
   the simulation does, in a fixed amount. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 9999 do
    let a = Array.make 48 i in
    a.(i land 31) <- !acc;
    Hashtbl.replace h (i land 1023) a;
    match Hashtbl.find_opt h ((i * 7) land 1023) with
    | Some b -> acc := !acc + b.(i land 31) + Array.length b
    | None -> ()
  done;
  Sys.opaque_identity !acc

let reference_kernel_us = 1500.0

(* The runtime work calibration itself caused, kept out of the [gc.*]
   metrics; {!reset} zeroes it at the start of a measured phase. *)
let calibration_minor_words = ref 0.0
let calibration_promoted_words = ref 0.0
let calibration_major_collections = ref 0

let reset () =
  calibration_minor_words := 0.0;
  calibration_promoted_words := 0.0;
  calibration_major_collections := 0

(* The kernel's CPU µs right now: the fastest of three runs. *)
let calibrate () =
  let g0 = Gc.quick_stat () in
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let t0 = cpu_us () in
    ignore (kernel () : int);
    best := Float.min !best (cpu_us () -. t0)
  done;
  let g1 = Gc.quick_stat () in
  calibration_minor_words := !calibration_minor_words +. g1.minor_words -. g0.minor_words;
  calibration_promoted_words :=
    !calibration_promoted_words +. g1.promoted_words -. g0.promoted_words;
  calibration_major_collections :=
    !calibration_major_collections + g1.major_collections - g0.major_collections;
  !best

let normalize us ~kernel_us = us *. reference_kernel_us /. kernel_us

(* {2 Meters}

   A meter splits a measured phase into segments, each closed with the
   operations it covered and calibrated on the spot. The calibration's
   own time is left out of the next segment. *)

type meter = {
  mutable since : float;
  mutable raw : float list;  (** CPU µs per operation, newest first. *)
  mutable kernels : float list;
}

let meter () = { since = cpu_us (); raw = []; kernels = [] }

let segment m ~ops =
  let t = cpu_us () in
  m.raw <- ((t -. m.since) /. float_of_int (max 1 ops)) :: m.raw;
  m.kernels <- calibrate () :: m.kernels;
  m.since <- cpu_us ()

let raw m = Array.of_list (List.rev m.raw)
let kernels m = Array.of_list (List.rev m.kernels)

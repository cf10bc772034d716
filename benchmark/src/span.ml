(* Bench-side spans: the host clock (and, where the caller names one,
   the simulated clock) around every call the benchmark makes into a
   layer of the system. Spans live in memory; a layer's self time is
   its span's duration minus the time its child spans cover.

   Tracing is off unless [enabled] is set, and then costs one branch per
   call — end-to-end numbers come from untraced runs, and the traced run
   reports its own overhead. *)

module Sim_clock = Alto_machine.Sim_clock
module Json = Alto_obs.Json

let enabled = ref false
(* Spans read the monotonic clock: the CPU time {!Host} charges comes
   from getrusage, too coarse for a call of a few microseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type agg = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable sim_us : int;
}

let table : (string, agg) Hashtbl.t = Hashtbl.create 32

(* Host time covered by the children of each open span, innermost
   first. *)
let open_children : int ref list ref = ref []

(* The first [sample_cap] spans of the traced phase, kept whole for the
   Chrome export: a contiguous window of the timeline. *)
type sample = {
  s_name : string;
  s_start_ns : int;
  s_dur_ns : int;
  s_sim_us : int;
  s_req : int;
}

let sample_cap = 4096
let samples : sample list ref = ref []
let sample_count = ref 0
let epoch_ns = ref 0

let reset () =
  Hashtbl.reset table;
  open_children := [];
  samples := [];
  sample_count := 0;
  epoch_ns := now_ns ()

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total_ns = 0; self_ns = 0; sim_us = 0 } in
      Hashtbl.add table name a;
      a

let record ?clock ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let children = ref 0 in
    open_children := children :: !open_children;
    let sim0 = match clock with Some c -> Sim_clock.now_us c | None -> 0 in
    let t0 = now_ns () in
    let close () =
      let dur = now_ns () - t0 in
      let sim = match clock with Some c -> Sim_clock.now_us c - sim0 | None -> 0 in
      (match !open_children with
      | _ :: (parent :: _ as rest) ->
          parent := !parent + dur;
          open_children := rest
      | _ :: [] | [] -> open_children := []);
      let a = agg name in
      a.calls <- a.calls + 1;
      a.total_ns <- a.total_ns + dur;
      a.self_ns <- a.self_ns + dur - !children;
      a.sim_us <- a.sim_us + sim;
      if !sample_count < sample_cap then begin
        incr sample_count;
        samples :=
          { s_name = name; s_start_ns = t0; s_dur_ns = dur; s_sim_us = sim; s_req = req }
          :: !samples
      end
    in
    Fun.protect ~finally:close f
  end

(* Run [f] unrecorded: the work after a measured phase (the ladder, the
   final oracles) stays out of the span table. *)
let paused f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let find name = Hashtbl.find_opt table name

let calls name = match find name with Some a -> a.calls | None -> 0

(* Mean host microseconds of self time per call. *)
let self_us name =
  match find name with
  | Some a when a.calls > 0 -> float_of_int a.self_ns /. 1e3 /. float_of_int a.calls
  | Some _ | None -> 0.0

(* Mean simulated milliseconds per call. *)
let sim_ms name =
  match find name with
  | Some a when a.calls > 0 -> float_of_int a.sim_us /. 1e3 /. float_of_int a.calls
  | Some _ | None -> 0.0

let table_json () =
  let rows = Hashtbl.fold (fun name a acc -> (name, a) :: acc) table [] in
  Json.Obj
    (List.map
       (fun (name, a) ->
         ( name,
           Json.Obj
             [
               ("calls", Json.Int a.calls);
               ("total_us", Json.Float (float_of_int a.total_ns /. 1e3));
               ("self_us", Json.Float (float_of_int a.self_ns /. 1e3));
               ("sim_us", Json.Int a.sim_us);
             ] ))
       (List.sort compare rows))

(* Chrome trace_event JSON: one complete ("X") event per sampled span
   on a single thread, nested by time containment. *)
let chrome_json () =
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.s_name);
                   ("ph", Json.String "X");
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("ts", us (s.s_start_ns - !epoch_ns));
                   ("dur", us s.s_dur_ns);
                   ( "args",
                     Json.Obj
                       [ ("sim_us", Json.Int s.s_sim_us); ("req", Json.Int s.s_req) ] );
                 ])
             !samples) );
    ]

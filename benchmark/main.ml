(* The benchmark's command line.

     dune exec --root . ./benchmark/main.exe -- --workload session --seed 1
     dune exec --root . ./benchmark/main.exe -- --seed 1 --json out.json

   With --workload, runs that one workload and prints, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"} — the
   end-to-end metrics, or with --trace 1 the per-layer ones. Without
   --workload, runs all four, each in a fresh child process, one after
   another. Exits 1 when an oracle trips, 2 on a usage error. *)

open Altos_benchmark
module Json = Alto_obs.Json

type options = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : bool;
  mutable json : string option;
  mutable trace_file : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload serve_hot|serve_cold|session|recover] [--seed N] \
     [--seconds S] [--trace 0|1] [--json FILE] [--trace-file FILE]";
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10;
      trace = false;
      json = None;
      trace_file = None;
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Workloads.names ->
        o.workload <- Some w;
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- int n;
        go rest
    | "--seconds" :: n :: rest ->
        o.seconds <- int n;
        if o.seconds < 1 then usage ();
        go rest
    | "--trace" :: (("0" | "1") as b) :: rest ->
        o.trace <- b = "1";
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--trace-file" :: f :: rest ->
        o.trace <- true;
        o.trace_file <- Some f;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let write_file file text =
  match open_out file with
  | exception Sys_error reason ->
      Printf.eprintf "cannot write %s: %s\n" file reason;
      exit 2
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let e2e_field name = List.find (fun (n, _, _) -> String.equal n name) Workloads.end_to_end
let e2e_unit name = match e2e_field name with _, u, _ -> u
let e2e_clock name = match e2e_field name with _, _, c -> c

let metric_json ?clock pairs units =
  let fields name v =
    [ ("value", Json.Float v); ("unit", Json.String (units name)) ]
    @ match clock with Some c -> [ ("clock", Json.String (c name)) ] | None -> []
  in
  Json.Obj (List.map (fun (name, v) -> (name, Json.Obj (fields name v))) pairs)

(* {2 One workload} *)

let print_metrics title pairs units =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %16.6g %s\n" name v (units name))
    pairs

let print_curve curve =
  if curve <> [] then begin
    print_endline "  ladder, one rung a line:";
    List.iter (fun rung -> Printf.printf "    %s\n" (Json.to_string rung)) curve
  end

let run_one o name =
  let once traced =
    Span.enabled := traced;
    let t0 = Unix.gettimeofday () in
    let r = Workloads.run name ~seed:o.seed ~seconds:o.seconds in
    Span.enabled := false;
    (r, Unix.gettimeofday () -. t0)
  in
  let r, wall = once false in
  let r, wall, replay, overhead =
    if not o.trace then (r, wall, [], None)
    else
      (* The traced run replays the untraced one's simulation; its host
         cost against the untraced run's is the tracing overhead. Its
         layers are reported, with the allocation counts of the untraced
         run, which the spans themselves would inflate. *)
      let t, twall = once true in
      let host x = List.assoc "host_us_per_op" x.Workloads.end_to_end in
      let overhead = 100.0 *. (host t -. host r) /. host r in
      let layers =
        List.map
          (fun (n, v) ->
            if n = "trace_overhead_pct" then (n, overhead)
            else if String.starts_with ~prefix:"gc." n then
              (n, List.assoc n r.Workloads.layers)
            else (n, v))
          t.Workloads.layers
      in
      let same = String.equal t.Workloads.sim r.Workloads.sim in
      let replay =
        if same && t.Workloads.failed = r.Workloads.failed then []
        else [ "the traced run's simulation differs from the untraced run's" ]
      in
      ({ r with Workloads.layers }, wall +. twall, replay, Some overhead)
  in
  let failures = r.Workloads.failures @ replay in
  let failed = r.Workloads.failed + List.length replay in
  let layers = if o.trace then r.Workloads.layers else [] in
  Printf.printf "== %s  seed %d  %d s  (%.1f s wall)\n" name o.seed o.seconds wall;
  print_metrics "  end to end" r.Workloads.end_to_end e2e_unit;
  print_curve r.Workloads.curve;
  if o.trace then print_metrics "  per layer (traced)" layers Layers.unit_of;
  Option.iter (Printf.printf "  trace overhead %.2f%%\n") overhead;
  List.iter (Printf.printf "  FAILED: %s\n") failures;
  let doc =
    Json.Obj
      [
        ("schema", Json.String "altos.benchmark/1");
        ("workload", Json.String name);
        ("seed", Json.Int o.seed);
        ("seconds", Json.Int o.seconds);
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int r.Workloads.attempted);
        ("failed", Json.Int failed);
        ("failures", Json.List (List.map (fun s -> Json.String s) failures));
        ("end_to_end", metric_json ~clock:e2e_clock r.Workloads.end_to_end e2e_unit);
        ("layers", metric_json layers Layers.unit_of);
        ("curve", Json.List r.Workloads.curve);
        ( "samples",
          Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) r.Workloads.samples) );
      ]
  in
  Option.iter (fun f -> write_file f (Json.to_string doc ^ "\n")) o.json;
  Option.iter
    (fun f ->
      let spans = [ ("spans", Span.table_json ()); ("chrome", Span.chrome_json ()) ] in
      write_file f (Json.to_string (Json.Obj spans) ^ "\n"))
    o.trace_file;
  let metrics =
    if o.trace then metric_json layers Layers.unit_of
    else metric_json r.Workloads.end_to_end e2e_unit
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int r.Workloads.attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics);
          ]));
  exit (if failed = 0 then 0 else 1)

(* {2 All four, each in its own process} *)

let run_all o =
  let self = Sys.executable_name in
  let part name f = f ^ "." ^ name in
  let child name =
    let args =
      [ self; "--workload"; name ]
      @ [ "--seed"; string_of_int o.seed; "--seconds"; string_of_int o.seconds ]
      @ (if o.trace then [ "--trace"; "1" ] else [])
      @ (match o.json with Some f -> [ "--json"; part name f ] | None -> [])
      @ match o.trace_file with Some f -> [ "--trace-file"; part name f ] | None -> []
    in
    let pid =
      Unix.create_process self (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false
  in
  let results = List.map (fun name -> (name, child name)) Workloads.names in
  (* One array of the four reports, in workload order. *)
  Option.iter
    (fun f ->
      let report name =
        match In_channel.with_open_bin (part name f) In_channel.input_all with
        | text ->
            Sys.remove (part name f);
            String.trim text
        | exception Sys_error _ -> "null"
      in
      write_file f ("[" ^ String.concat ",\n" (List.map report Workloads.names) ^ "]\n"))
    o.json;
  List.iter (fun (n, good) -> if not good then Printf.printf "%s: FAILED\n" n) results;
  exit (if List.for_all snd results then 0 else 1)

let () =
  let o = parse Sys.argv in
  match o.workload with Some name -> run_one o name | None -> run_all o

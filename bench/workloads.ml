(* Shared machinery for the experiment harness: workload builders,
   measurement helpers and table printing. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Json = Alto_obs.Json
module Obs = Alto_obs.Obs

let ok pp = function
  | Ok x -> x
  | Error e -> Format.kasprintf failwith "%a" pp e

let fresh ?(geometry = Geometry.diablo_31) ?(pack_id = 1) () =
  let drive = Drive.create ~pack_id geometry in
  let fs = Fs.format drive in
  (drive, fs)

let body seed n = String.init n (fun i -> Char.chr (32 + (((i * 11) + seed) mod 95)))

(* Quiesce: push delayed track-buffer writes to the platter, the way
   the Executive does before raw-pack work (scavenge, audits). *)
let settle fs = ignore (Alto_fs.Bio.flush (Fs.bio fs))

(* Drop what the caches hold, so the next access pays its disk cost:
   delayed writes settled, then the track buffers and the verified
   labels forgotten. *)
let go_cold fs =
  settle fs;
  Alto_fs.Bio.clear (Fs.bio fs);
  Alto_fs.Label_cache.clear (Fs.label_cache fs)

(* Create and catalogue one file with [n] bytes of content, settled to
   the platter so raw readers (scavenger, sweeps) see it whole. *)
let make_file fs root name n seed =
  let file = ok File.pp_error (File.create fs ~name) in
  if n > 0 then ok File.pp_error (File.write_bytes file ~pos:0 (body seed n));
  ok File.pp_error (File.flush_leader file);
  ok Directory.pp_error (Directory.add root ~name (File.leader_name file));
  settle fs;
  file

(* Fill the volume until roughly [fraction] of all pages are busy.
   Returns the created file names. *)
let fill_to fs root ~fraction ~file_bytes =
  let total = Drive.sector_count (Fs.drive fs) in
  let target_busy = int_of_float (fraction *. float_of_int total) in
  let rec go names i =
    if total - Fs.free_count fs >= target_busy then List.rev names
    else begin
      let name = Printf.sprintf "Fill%04d.dat" i in
      let (_ : File.t) = make_file fs root name file_bytes i in
      go (name :: names) (i + 1)
    end
  in
  go [] 0

let reopen fs name =
  let root = ok Directory.pp_error (Directory.open_root fs) in
  match ok Directory.pp_error (Directory.lookup root name) with
  | Some e -> ok File.pp_error (File.open_leader fs e.Directory.entry_file)
  | None -> failwith (name ^ " not catalogued")

(* A registry metric's count: a counter's value or a histogram's
   sample count, 0 when nothing registered the name. *)
let counter name =
  match Obs.find name with
  | Some (Obs.Counter n) -> n
  | Some (Obs.Histogram s) -> s.Obs.count
  | None -> 0

(* A registry histogram's 50th, 90th or 99th percentile, 0 when absent. *)
let hist_p name p =
  match Obs.find name with
  | Some (Obs.Histogram s) ->
      if p = 50 then s.Obs.p50 else if p = 90 then s.Obs.p90 else s.Obs.p99
  | Some (Obs.Counter _) | None -> 0

(* Simulated time of running [f]. *)
let timed clock f =
  let t0 = Sim_clock.now_us clock in
  let x = f () in
  (x, Sim_clock.now_us clock - t0)

let pp_us fmt us = Sim_clock.pp_duration fmt us

(* {2 Structured result recording}

   Every experiment already narrates itself through {!heading}, {!claim}
   and {!print_table}; the same calls feed a machine-readable record so
   that `--json` can dump exactly what was printed. The dispatcher
   brackets each experiment with {!begin_experiment} /
   {!finish_experiment}; outside a bracket the recorder is inert. *)

type recorded_table = { table_header : string list; table_rows : string list list }

type experiment_record = {
  exp_name : string;
  exp_baseline : (string * Alto_obs.Obs.metric) list;
      (* The registry at [begin_experiment] — subtracted at the end so
         each experiment reports only the metric movement it caused. *)
  mutable exp_headings : string list;
  mutable exp_claims : string list;
  mutable exp_tables : recorded_table list;  (* Newest first. *)
  mutable exp_deltas : (string * Alto_obs.Obs.metric) list;
}

let records : experiment_record list ref = ref []
let current : experiment_record option ref = ref None

let begin_experiment name =
  current :=
    Some
      {
        exp_name = name;
        exp_baseline = Alto_obs.Obs.snapshot ();
        exp_headings = [];
        exp_claims = [];
        exp_tables = [];
        exp_deltas = [];
      }

(* What each metric did during the experiment. Counters subtract;
   histograms subtract count and sum and recompute the window's mean
   (min/max stay cumulative — the registry doesn't keep per-window
   extremes, so we conservatively report the lifetime ones). *)
let metric_deltas baseline now =
  let module Obs = Alto_obs.Obs in
  List.filter_map
    (fun (name, metric) ->
      let before = List.assoc_opt name baseline in
      match (metric, before) with
      | Obs.Counter v, None -> if v > 0 then Some (name, Obs.Counter v) else None
      | Obs.Counter v, Some (Obs.Counter b) ->
          if v > b then Some (name, Obs.Counter (v - b)) else None
      | Obs.Histogram s, None ->
          if s.Obs.count > 0 then Some (name, Obs.Histogram s) else None
      | Obs.Histogram s, Some (Obs.Histogram b) ->
          let count = s.Obs.count - b.Obs.count in
          if count <= 0 then None
          else
            let sum = s.Obs.sum - b.Obs.sum in
            Some
              ( name,
                Obs.Histogram
                  {
                    Obs.count;
                    sum;
                    min = s.Obs.min;
                    max = s.Obs.max;
                    mean = float_of_int sum /. float_of_int count;
                    (* Percentiles, like min/max, stay cumulative: the
                       buckets are not windowed. *)
                    p50 = s.Obs.p50;
                    p90 = s.Obs.p90;
                    p99 = s.Obs.p99;
                  } )
      | Obs.Counter _, Some (Obs.Histogram _)
      | Obs.Histogram _, Some (Obs.Counter _) ->
          None)
    now

let finish_experiment () =
  match !current with
  | None -> ()
  | Some r ->
      r.exp_deltas <- metric_deltas r.exp_baseline (Alto_obs.Obs.snapshot ());
      records := r :: !records;
      current := None

let record_heading title =
  match !current with
  | None -> ()
  | Some r -> r.exp_headings <- title :: r.exp_headings

let record_claim text =
  match !current with
  | None -> ()
  | Some r -> r.exp_claims <- text :: r.exp_claims

let record_table header rows =
  match !current with
  | None -> ()
  | Some r ->
      r.exp_tables <- { table_header = header; table_rows = rows } :: r.exp_tables

let experiments_json () =
  let table_json t =
    Json.Obj
      [
        ("header", Json.List (List.map (fun c -> Json.String c) t.table_header));
        ( "rows",
          Json.List
            (List.map
               (fun row -> Json.List (List.map (fun c -> Json.String c) row))
               t.table_rows) );
      ]
  in
  let delta_json (name, metric) =
    let module Obs = Alto_obs.Obs in
    match metric with
    | Obs.Counter v -> (name, Json.Int v)
    | Obs.Histogram s ->
        ( name,
          Json.Obj
            [
              ("count", Json.Int s.Obs.count);
              ("sum", Json.Int s.Obs.sum);
              ("mean", Json.Float s.Obs.mean);
            ] )
  in
  Json.List
    (List.rev_map
       (fun r ->
         Json.Obj
           [
             ("name", Json.String r.exp_name);
             ("headings", Json.List (List.rev_map (fun h -> Json.String h) r.exp_headings));
             ("claims", Json.List (List.rev_map (fun c -> Json.String c) r.exp_claims));
             ("tables", Json.List (List.rev_map table_json r.exp_tables));
             ("metrics_delta", Json.Obj (List.map delta_json r.exp_deltas));
           ])
       !records)

(* {2 Table printing} *)

let heading title =
  record_heading title;
  Format.printf "@.== %s ==@." title

let print_row widths cells =
  let line =
    String.concat "  "
      (List.map2
         (fun w c -> (if String.length c >= w then c else c ^ String.make (w - String.length c) ' '))
         widths cells)
  in
  print_endline line

let print_table widths header rows =
  record_table header rows;
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows

let us_to_string us = Format.asprintf "%a" pp_us us

let claim text =
  record_claim text;
  Format.printf "paper: %s@." text

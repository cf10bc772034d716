(* The benchmark harness.

   Usage:
     dune exec bench/main.exe                 -- all experiments + micro-benchmarks
     dune exec bench/main.exe -- e1 e5        -- selected experiments
     dune exec bench/main.exe -- micro        -- host-time micro-benchmarks only
     dune exec bench/main.exe -- grid         -- the every-write crash grid, a gate
                                                (not in the default run)
     dune exec bench/main.exe -- --json F     -- additionally dump results and
                                                the metric registry to F
     dune exec bench/main.exe -- --trace F    -- additionally dump the run's
                                                request traces as Chrome
                                                trace_event JSON to F

   E1..E13 print simulated Alto time (the claims are about the paper's
   hardware); "micro" reports wall-clock cost of this implementation's
   primitives via Bechamel. With --json the same tables, plus a snapshot
   of every alto_obs metric the run touched, land in one JSON file —
   the artifact CI archives to track the performance trajectory. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Vm = Alto_machine.Vm
module Asm = Alto_machine.Asm
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Label = Alto_fs.Label
module Scavenger = Alto_fs.Scavenger
module Directory = Alto_fs.Directory
module Zone = Alto_zones.Zone

(* {2 Micro-benchmarks: host wall time of the primitives} *)

let sweep_probe = "sweep: whole Model 31 pack"

(* Each probe is a name and one run of the primitive. *)
let micro_tests () =
  (* Disk transfer. *)
  let bench_transfer =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let value = Array.make Sector.value_words Word.zero in
    let i = ref 0 in
    ( "drive: read one sector",
      fun () ->
        i := (!i + 1) mod 4000;
        match
          Drive.run drive (Disk_address.of_index !i)
            { Drive.op_none with Drive.value = Some Drive.Read }
            ~value ()
        with
        | Ok () -> ()
        | Error _ -> assert false)
  in
  (* Allocation. *)
  let bench_alloc =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let fs = Fs.format drive in
    let fid = Fs.fresh_fid fs in
    let value = Array.make Sector.value_words Word.zero in
    ( "fs: allocate + free one page",
      fun () ->
        let label _ =
          Label.make ~fid ~page:1 ~length:0 ~next:Disk_address.nil
            ~prev:Disk_address.nil
        in
        match Fs.allocate_page fs ~label ~value with
        | Ok addr -> (
            match
              Fs.free_page fs (Alto_fs.Page.full_name fid ~page:1 ~addr)
            with
            | Ok () -> ()
            | Error _ -> assert false)
        | Error _ -> assert false)
  in
  (* File byte IO. *)
  let bench_file_io =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let fs = Fs.format drive in
    let file =
      match File.create fs ~name:"Bench.dat" with Ok f -> f | Error _ -> assert false
    in
    (match File.write_bytes file ~pos:0 (String.make 4096 'x') with
    | Ok () -> ()
    | Error _ -> assert false);
    ( "file: read 4KB",
      fun () ->
        match File.read_bytes file ~pos:0 ~len:4096 with
        | Ok _ -> ()
        | Error _ -> assert false)
  in
  (* The two host-cost probes of the read path: a whole-directory scan
     and a multi-page read, both over pages already in the track
     buffer cache. *)
  let bench_dir_lookup =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let fs = Fs.format drive in
    let dir =
      match Directory.create fs ~name:"Bench.dir" with Ok d -> d | Error _ -> assert false
    in
    let file =
      match File.create fs ~name:"Target." with Ok f -> f | Error _ -> assert false
    in
    for i = 1 to 40 do
      match Directory.add dir ~name:(Printf.sprintf "Entry%02d.txt" i) (File.leader_name file) with
      | Ok () -> ()
      | Error _ -> assert false
    done;
    ( "directory: lookup in a 40-entry directory (warm)",
      fun () ->
        match Directory.lookup dir "Entry20.txt" with
        | Ok (Some _) -> ()
        | Ok None | Error _ -> assert false)
  in
  let bench_read_8000 =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let fs = Fs.format drive in
    let file =
      match File.create fs ~name:"Bench8000.dat" with Ok f -> f | Error _ -> assert false
    in
    (match File.write_bytes file ~pos:0 (String.make 8000 'x') with
    | Ok () -> ()
    | Error _ -> assert false);
    ( "file: read 8,000 bytes (warm)",
      fun () ->
        match File.read_bytes file ~pos:0 ~len:8000 with
        | Ok _ -> ()
        | Error _ -> assert false)
  in
  (* Zone allocator. *)
  let bench_zone =
    let memory = Memory.create () in
    let zone = Zone.format memory ~pos:1000 ~len:4000 in
    ( "zone: allocate + release 32 words",
      fun () ->
        let a = Zone.allocate zone 32 in
        Zone.release zone a)
  in
  (* VM interpretation. *)
  let bench_vm =
    let program =
      Asm.assemble_exn ~origin:100
        [
          Asm.Label "start";
          Asm.Op ("LDI", [ Asm.Reg 0; Asm.Imm 0 ]);
          Asm.Op ("LDI", [ Asm.Reg 1; Asm.Imm 100 ]);
          Asm.Label "loop";
          Asm.Op ("ADD", [ Asm.Reg 0; Asm.Reg 1 ]);
          Asm.Op ("ADDI", [ Asm.Reg 1; Asm.Imm 0xffff ]);
          Asm.Op ("JNZ", [ Asm.Reg 1; Asm.Lab "loop" ]);
          Asm.Op ("HALT", []);
        ]
    in
    let memory = Memory.create () in
    Memory.write_block memory ~pos:100 program.Asm.code;
    let cpu = Cpu.create memory in
    ( "vm: 300-instruction loop",
      fun () ->
        Cpu.set_pc cpu (Word.of_int program.Asm.entry);
        Cpu.set_frame_pointer cpu (Word.of_int 0xF000);
        match Vm.run ~fuel:10_000 cpu ~handler:(fun _ _ -> Vm.Sys_continue) with
        | Vm.Halted -> ()
        | _ -> assert false)
  in
  (* A whole scavenge of a small pack. *)
  let bench_scavenge =
    let geometry = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 10 } in
    ( "scavenger: 240-sector pack",
      fun () ->
        let drive = Drive.create ~pack_id:1 geometry in
        let fs = Fs.format drive in
        let root =
          match Directory.open_root fs with Ok r -> r | Error _ -> assert false
        in
        (match File.create fs ~name:"A." with
        | Ok f -> (
            ignore (File.write_bytes f ~pos:0 (String.make 2000 'a'));
            match Directory.add root ~name:"A." (File.leader_name f) with
            | Ok () -> ()
            | Error _ -> assert false)
        | Error _ -> assert false);
        match Scavenger.scavenge drive with
        | Ok _ -> ()
        | Error _ -> assert false)
  in
  (* The read every scavenge and fsck begins with: a whole-pack sweep of
     a Model 31 pack three quarters full. *)
  let bench_sweep =
    let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
    let fs = Fs.format drive in
    let total = Drive.sector_count drive in
    let serial = ref 0 in
    while 4 * (total - Fs.free_count fs) < 3 * total do
      incr serial;
      match File.create fs ~name:(Printf.sprintf "Fill%03d.dat" !serial) with
      | Ok f -> (
          match File.write_bytes f ~pos:0 (String.make (40 * Sector.bytes_per_page) 'f') with
          | Ok () -> ()
          | Error _ -> assert false)
      | Error _ -> assert false
    done;
    (sweep_probe, fun () -> ignore (Alto_fs.Sweep.run drive : Alto_fs.Sweep.t))
  in
  (* The compiler, source to code image. *)
  let bench_compile =
    let source =
      "let fib(n) be { if n < 2 then resultis n; resultis fib(n-1) + fib(n-2); }\n\
       let main() = fib(10);"
    in
    ( "bcpl: compile fib",
      fun () ->
        match Alto_bcpl.Bcpl.compile ~origin:1024 source with
        | Ok _ -> ()
        | Error _ -> assert false)
  in
  (* A compiled program through the whole system. *)
  let bench_compiled_run =
    let system = Alto_os.System.boot ~geometry:{ Geometry.diablo_31 with Geometry.model = "b"; cylinders = 20 } () in
    let program =
      match
        Alto_bcpl.Bcpl.compile ~origin:Alto_os.System.user_base
          "let main() be { let s = 0; for i = 1 to 100 do s := s + i; resultis 0; }"
      with
      | Ok p -> p
      | Error _ -> assert false
    in
    let file =
      match Alto_os.Loader.save_program system ~name:"B.run" program with
      | Ok f -> f
      | Error _ -> assert false
    in
    ( "os: load + run a compiled program",
      fun () ->
        match Alto_os.Loader.run system file with
        | Ok (Vm.Stopped 0) -> ()
        | Ok _ | Error _ -> assert false)
  in
  [
    bench_transfer; bench_alloc; bench_file_io; bench_dir_lookup; bench_read_8000;
    bench_zone; bench_vm; bench_scavenge; bench_sweep; bench_compile; bench_compiled_run;
  ]

let run_micro () =
  let open Bechamel in
  Workloads.heading "micro  host-time cost of the primitives (Bechamel)";
  let probes = micro_tests () in
  let tests =
    Test.make_grouped ~name:"altos"
      (List.map (fun (name, run) -> Test.make ~name (Staged.stage run)) probes)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  (* Minor-heap words per run, counted directly: Bechamel's allocation
     instance reads [Gc.quick_stat], which OCaml 5 only updates at a
     minor collection. *)
  let minor_words run =
    let runs = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to runs do
      run ()
    done;
    (Gc.minor_words () -. before) /. float_of_int runs
  in
  let measured =
    List.map
      (fun (name, run) ->
        let ns =
          match Option.bind (Hashtbl.find_opt results ("altos/" ^ name)) Analyze.OLS.estimates with
          | Some [ est ] -> Some est
          | Some _ | None -> None
        in
        (name, ns, minor_words run))
      probes
  in
  Workloads.print_table [ 56; 18; 21 ]
    [ "primitive"; "host cost"; "minor heap" ]
    (List.sort compare
       (List.map
          (fun (name, ns, words) ->
            [
              "altos/" ^ name;
              (match ns with
              | Some est -> Printf.sprintf "%12.1f ns/run" est
              | None -> "            n/a");
              Printf.sprintf "%12.1f words/run" words;
            ])
          measured));
  (* The sweep's cost a sector, the unit its allocation gate in
     [dune runtest] is stated in. *)
  let sectors = float_of_int (Geometry.sector_count Geometry.diablo_31) in
  List.iter
    (fun (name, ns, words) ->
      if String.equal name sweep_probe then
        Printf.printf "%s: %s µs and %.1f minor words a sector\n" name
          (match ns with Some est -> Printf.sprintf "%.3f" (est /. 1000. /. sectors) | None -> "n/a")
          (words /. sectors))
    measured

(* {2 Dispatch} *)

module Json = Alto_obs.Json
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

(* Percentiles of every histogram the run touched, keyed by name — the
   compact view the regression gate reads without digging into
   "metrics". *)
let latency_json () =
  Json.Obj
    (List.filter_map
       (fun (name, m) ->
         match m with
         | Obs.Histogram s when s.Obs.count > 0 ->
             Some
               ( name,
                 Json.Obj
                   [
                     ("p50", Json.Int s.Obs.p50);
                     ("p90", Json.Int s.Obs.p90);
                     ("p99", Json.Int s.Obs.p99);
                   ] )
         | Obs.Histogram _ | Obs.Counter _ -> None)
       (Obs.snapshot ()))

let write_json file selected =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "altos.bench/1");
        ("selection", Json.List (List.map (fun s -> Json.String s) selected));
        ("experiments", Workloads.experiments_json ());
        ("metrics", Obs.metrics_json ());
        ("latency", latency_json ());
        ("span_tree", Prof.to_json ());
      ]
  in
  match open_out file with
  | exception Sys_error reason ->
      Printf.eprintf "cannot write %s: %s\n" file reason;
      exit 1
  | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Json.to_channel oc doc);
      Printf.printf "\nwrote %s (%d metrics)\n" file (List.length (Obs.snapshot ()))

(* The causal view of the run: every retained request trace as Chrome
   trace_event JSON, loadable in about://tracing or Perfetto. Traces
   are minted from deterministic counters against the simulated clock,
   so a fixed selection produces this file byte-identically — CI diffs
   it like any other artifact. *)
let write_trace file =
  let doc = Alto_obs.Trace.chrome_json () in
  match open_out file with
  | exception Sys_error reason ->
      Printf.eprintf "cannot write %s: %s\n" file reason;
      exit 1
  | oc ->
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Json.to_channel oc doc);
      Printf.printf "wrote %s\n" file

let rec parse_args (selected, json, trace) = function
  | [] -> (List.rev selected, json, trace)
  | "--json" :: file :: rest -> parse_args (selected, Some file, trace) rest
  | [ "--json" ] ->
      prerr_endline "--json requires a file name";
      exit 1
  | "--trace" :: file :: rest -> parse_args (selected, json, Some file) rest
  | [ "--trace" ] ->
      prerr_endline "--trace requires a file name";
      exit 1
  | name :: rest -> parse_args (name :: selected, json, trace) rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let named, json_file, trace_file = parse_args ([], None, None) args in
  let runs = Experiments.all @ [ ("micro", run_micro); ("grid", Experiments.grid) ] in
  let known = List.map fst Experiments.all in
  let selected = if named = [] then known @ [ "micro" ] else named in
  List.iter
    (fun name ->
      match List.assoc_opt name runs with
      | Some f ->
          Workloads.begin_experiment name;
          f ();
          Workloads.finish_experiment ()
      | None ->
          Printf.eprintf "unknown experiment %S (have: %s)\n" name
            (String.concat " " (List.map fst runs));
          exit 1)
    selected;
  (match json_file with None -> () | Some file -> write_json file selected);
  match trace_file with None -> () | Some file -> write_trace file

(* The experiment harness: one experiment per quantitative claim in the
   paper's text. Absolute numbers are simulated Alto time; the shapes —
   who wins, by what factor, where the knees are — are what reproduce. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Sector = Alto_disk.Sector
module Disk_address = Alto_disk.Disk_address
module Fault = Alto_disk.Fault
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Fs = Alto_fs.Fs
module Bio = Alto_fs.Bio
module Label_cache = Alto_fs.Label_cache
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Compactor = Alto_fs.Compactor
module Patrol = Alto_fs.Patrol
module Recovery = Alto_fs.Recovery
module Hints = Alto_fs.Hints
module Install = Alto_fs.Install
module Stream = Alto_streams.Stream
module Disk_stream = Alto_streams.Disk_stream
module World = Alto_world.World
module Checkpoint = Alto_world.Checkpoint
module Level = Alto_os.Level
module System = Alto_os.System
module Crash_harness = Alto_os.Crash_harness
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Replica = Alto_server.Replica
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
open Workloads

(* E1 — §3.5: "This entire process is called scavenging, and it takes
   about a minute for a 2.5 megabyte disk." *)
let e1 () =
  heading "E1  scavenging time (§3.5)";
  claim "scavenging takes about a minute for a 2.5 megabyte disk";
  let run geometry fraction =
    let drive, fs = fresh ~geometry () in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let (_ : string list) = fill_to fs root ~fraction ~file_bytes:4000 in
    let used = Drive.sector_count drive - Fs.free_count fs in
    match Scavenger.scavenge drive with
    | Ok (_, r) -> (used, r.Scavenger.duration_us)
    | Error msg -> failwith msg
  in
  let disks =
    List.map
      (fun geometry ->
        ( geometry,
          List.map (fun fraction -> (fraction, run geometry fraction)) [ 0.25; 0.50; 0.75; 0.98 ]
        ))
      [ Geometry.diablo_31; Geometry.diablo_44 ]
  in
  let rows =
    List.concat_map
      (fun (geometry, levels) ->
        List.map
          (fun (fraction, (used, us)) ->
            [
              geometry.Geometry.model;
              Printf.sprintf "%.0f%%" (fraction *. 100.);
              string_of_int used;
              us_to_string us;
            ])
          levels)
      disks
  in
  print_table [ 16; 6; 12; 12 ] [ "disk"; "fill"; "busy pages"; "scavenge" ] rows;
  print_endline
    "shape: well under the paper's minute, nearly flat in the fill: the\n\
     sweep reads every value in the label's own operation (one sector\n\
     time moves header, label and value alike) and keeps the leader\n\
     values, so only moved or rebuilt leaders are read again. The\n\
     bigger, faster Model 44 pays for twice the sectors at half the\n\
     rotation.";
  List.iter
    (fun (geometry, levels) ->
      let times = List.map (fun (_, (_, us)) -> us) levels in
      let slowest = List.fold_left max 0 times and fastest = List.fold_left min max_int times in
      if slowest >= 60_000_000 then
        failwith
          (Printf.sprintf "E1: a %s scavenge took %s, not under a minute"
             geometry.Geometry.model (us_to_string slowest));
      if float_of_int (slowest - fastest) > 0.05 *. float_of_int fastest then
        failwith
          (Printf.sprintf "E1: %s scavenges span %s to %s over the fill levels, over 5%%"
             geometry.Geometry.model (us_to_string fastest) (us_to_string slowest)))
    disks

(* E2 — §3.5: the compacting scavenger "typically increases the speed
   with which the files can be read sequentially by an order of
   magnitude over what is possible if the pages have become scattered." *)
let e2 () =
  heading "E2  compaction vs sequential reads (§3.5)";
  claim "consecutive layout reads ~an order of magnitude faster than scattered";
  let files = 12 and file_bytes = 40_000 in
  let drive, fs = fresh () in
  Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 7));
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let names =
    List.init files (fun i ->
        let name = Printf.sprintf "Big%02d.dat" i in
        let (_ : File.t) = make_file fs root name file_bytes i in
        name)
  in
  let clock = Drive.clock drive in
  let read_all fs () =
    List.iteri
      (fun i name ->
        let file = reopen fs name in
        let s = Disk_stream.open_file ~mode:Disk_stream.Read_only file in
        let bytes = Stream.get_all s in
        s.Stream.close ();
        if bytes <> body i file_bytes then
          failwith (Printf.sprintf "E2: %s does not read back its bytes" name))
      names
  in
  let frag_before =
    ok File.pp_error (File.consecutive_fraction (reopen fs (List.hd names)))
  in
  let (), scattered_us = timed clock (read_all fs) in
  let (fs, report), compact_us =
    timed clock (fun () ->
        match Compactor.compact fs with Ok r -> r | Error msg -> failwith msg)
  in
  let written = counter "disk.words_written" in
  let (), consecutive_us = timed clock (read_all fs) in
  let reread_wrote = counter "disk.words_written" - written in
  print_table [ 34; 14 ]
    [ "configuration"; "read time" ]
    [
      [
        Printf.sprintf "scattered (%.0f%% adjacent)" (frag_before *. 100.);
        us_to_string scattered_us;
      ];
      [ "consecutive (after compaction)"; us_to_string consecutive_us ];
    ];
  let speedup = float_of_int scattered_us /. float_of_int consecutive_us in
  Printf.printf "speedup: %.1fx  (compaction itself: %s, %d moves, %d/%d files consecutive)\n"
    speedup (us_to_string compact_us) report.Scavenger.relocated_pages
    report.Scavenger.files_consecutive report.Scavenger.files_found;
  if speedup < 8. then
    failwith (Printf.sprintf "E2: the consecutive read is only %.1fx faster" speedup);
  if reread_wrote <> 0 then
    failwith (Printf.sprintf "E2: the read after compaction wrote %d words" reread_wrote)

(* E3 — §3.3: "This scheme costs a disk revolution each time a page is
   allocated or freed … On any other write the label is checked, at no
   cost in time." The paper's machine checks every label on the platter:
   measured cold, every cache dropped before each call, a page allocated
   or freed alone pays that revolution. The verified-label table answers
   the check of a label it holds — the free label a free wrote, a file
   page's label — so warm, a free costs nothing and an allocation less
   than cold. A run of pages checks its labels in one elevator pass, so
   each page inside it pays about a sector time. *)
let e3 () =
  heading "E3  what label checking costs (§3.3)";
  claim "one revolution per page allocated or freed alone; ordinary writes pay nothing";
  let pages = 120 in
  let page_bytes = Sector.bytes_per_page in
  let run ~checking =
    let drive, fs = fresh () in
    Fs.set_label_checking fs checking;
    let clock = Drive.clock drive in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let file = make_file fs root "Victim.dat" (pages * page_bytes) 1 in
    (* (a) ordinary full-page overwrites of existing pages *)
    let (), overwrite_us =
      timed clock (fun () ->
          ok File.pp_error (File.write_bytes file ~pos:0 (body 2 (pages * page_bytes))))
    in
    (* A file whose first data page is full, so that every page written
       past it is a fresh allocation. *)
    let one_page_file name =
      let f = ok File.pp_error (File.create fs ~name) in
      ok File.pp_error (File.write_bytes f ~pos:0 (body 3 page_bytes));
      f
    in
    (* (b) one page per call: append a page at a time, then cut one off
       at a time; [cold] drops every cache before each call, untimed *)
    let one_at_a_time ~cold name =
      let single = one_page_file name in
      let spent = ref 0 in
      let call f =
        if cold then go_cold fs;
        let (), us = timed clock f in
        spent := !spent + us
      in
      for k = 1 to pages do
        call (fun () ->
            ok File.pp_error (File.append_bytes single (body (3 + k) page_bytes)))
      done;
      let alloc_us = !spent in
      spent := 0;
      for k = pages - 1 downto 0 do
        call (fun () ->
            ok File.pp_error (File.truncate single ~len:((k + 1) * page_bytes)))
      done;
      (alloc_us, !spent)
    in
    let alloc_cold_us, free_cold_us = one_at_a_time ~cold:true "Cold.dat" in
    let alloc_warm_us, free_warm_us = one_at_a_time ~cold:false "Single.dat" in
    (* (c) a run: extend by every page in one write, cut them in one
       truncate *)
    let runs = one_page_file "Run.dat" in
    let (), alloc_run_us =
      timed clock (fun () ->
          ok File.pp_error (File.append_bytes runs (body 4 (pages * page_bytes))))
    in
    let (), free_run_us =
      timed clock (fun () -> ok File.pp_error (File.truncate runs ~len:page_bytes))
    in
    List.map
      (fun us -> us / pages)
      [
        overwrite_us;
        alloc_cold_us;
        free_cold_us;
        alloc_warm_us;
        free_warm_us;
        alloc_run_us;
        free_run_us;
      ]
  in
  let rev = Geometry.diablo_31.Geometry.rotation_us in
  let rows =
    List.map2
      (fun name (on, off) -> (name, on, off, float_of_int (on - off) /. float_of_int rev))
      [
        "ordinary overwrite";
        "allocate alone, cold";
        "free alone, cold";
        "allocate alone, warm";
        "free alone, warm";
        Printf.sprintf "allocate, %d-page run" pages;
        Printf.sprintf "free, %d-page run" pages;
      ]
      (List.combine (run ~checking:true) (run ~checking:false))
  in
  print_table [ 26; 12; 12; 12 ]
    [ "per page"; "with checks"; "without"; "check cost" ]
    (List.map
       (fun (name, on, off, c) ->
         [ name; us_to_string on; us_to_string off; Printf.sprintf "%+.2f rev" c ])
       rows);
  let cost = Array.of_list (List.map (fun (_, _, _, c) -> c) rows) in
  List.iter
    (fun (what, c) ->
      if c < 0.9 || c > 1.1 then
        failwith (Printf.sprintf "E3: %s costs %+.2f rev cold, not about one" what c))
    [ ("allocating one page", cost.(1)); ("freeing one page", cost.(2)) ];
  if cost.(3) >= cost.(1) then
    failwith
      (Printf.sprintf
         "E3: allocating one page warm costs %+.2f rev, not below its cold %+.2f" cost.(3)
         cost.(1));
  List.iter
    (fun (what, c) ->
      if c > 0.25 then failwith (Printf.sprintf "E3: %s costs %+.2f rev a page" what c))
    [
      ("freeing one page warm", cost.(4));
      ("allocating inside a run", cost.(5));
      ("freeing inside a run", cost.(6));
    ];
  print_endline
    "shape: ordinary writes identical with checks on or off; cold, a page\n\
     allocated or freed alone pays about one extra revolution for its check;\n\
     warm, the verified-label table answers a free's check and some of an\n\
     allocation's; a run checks every page in one elevator pass, so each page\n\
     inside it pays a fraction of one."

(* E4 — §3.6: the recovery ladder, each rung slower than the last. *)
let e4 () =
  heading "E4  the hint recovery ladder (§3.6)";
  claim "direct hint << links from leader << directory lookups << scavenge";
  let drive, fs = fresh () in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  (* Clutter makes directory scans honest. *)
  for i = 0 to 199 do
    let (_ : File.t) = make_file fs root (Printf.sprintf "Noise%03d." i) 300 i in
    ()
  done;
  let file = make_file fs root "Wanted.dat" 3000 7 in
  let fid = File.fid file in
  let page2 = ok File.pp_error (File.page_name file 2) in
  let leader_addr = (File.leader_name file).Page.addr in
  let bogus = Disk_address.of_index 4000 in
  let request ~page_hint ~leader_hint ~fid =
    {
      Hints.req_name = "Wanted.dat";
      req_fid = fid;
      req_page = 2;
      req_page_hint = page_hint;
      req_leader_hint = leader_hint;
    }
  in
  let scenario name req expect =
    (* Each rung's cost is measured cold: the track buffers are settled
       and dropped so a scenario pays its true disk cost instead of
       inheriting whatever the previous one left warm. *)
    ignore (Bio.flush (Fs.bio fs) : Bio.flush_report);
    Bio.clear (Fs.bio fs);
    match Hints.read_page fs ~directory:root req with
    | Error f -> failwith ("ladder failed in scenario " ^ name ^ ": " ^ f.Hints.reason)
    | Ok s ->
        let final = List.nth s.Hints.attempts (List.length s.Hints.attempts - 1) in
        if final.Hints.rung <> expect then
          Format.kasprintf failwith "E4 %s: won at rung %a, expected %a" name
            Hints.pp_rung final.Hints.rung Hints.pp_rung expect;
        [
          name;
          Format.asprintf "%a" Hints.pp_rung final.Hints.rung;
          us_to_string final.Hints.elapsed_us;
        ]
  in
  (* The scenarios run strictly top to bottom: the first four need the
     directory intact, the last removes the entry so only the scavenge
     rung can win. *)
  let s1 =
    scenario "hint valid"
      (request ~page_hint:(Some page2.Page.addr) ~leader_hint:(Some leader_addr)
         ~fid:(Some fid))
      Hints.Direct
  in
  let s2 =
    scenario "page hint stale"
      (request ~page_hint:(Some bogus) ~leader_hint:(Some leader_addr) ~fid:(Some fid))
      Hints.Leader_chain
  in
  let s3 =
    scenario "all hints stale"
      (request ~page_hint:(Some bogus) ~leader_hint:(Some bogus) ~fid:(Some fid))
      Hints.Directory_fid
  in
  let s4 =
    scenario "FV stale too"
      (request ~page_hint:None ~leader_hint:None
         ~fid:(Some (File_id.next_version fid)))
      Hints.Directory_name
  in
  let (_ : bool) = ok Directory.pp_error (Directory.remove root "Wanted.dat") in
  let s5 =
    scenario "entry lost as well"
      (request ~page_hint:(Some bogus) ~leader_hint:(Some bogus) ~fid:(Some fid))
      Hints.Scavenge
  in
  let rows = [ s1; s2; s3; s4; s5 ] in
  ignore drive;
  print_table [ 22; 28; 12 ] [ "scenario"; "winning rung"; "rung cost" ] rows;
  print_endline
    "shape: measured cold, each rung costs more than the one before;\n\
     the one exception is honest — a by-name retry right after a failed\n\
     by-FV scan rides that scan's track fills. Programs that keep hints\n\
     fresh live at the top line, and nothing below it loses data."

(* E5 — §4.1: OutLoad/InLoad "requires about a second". *)
let e5 () =
  heading "E5  world swap times (§4.1)";
  claim "OutLoad and InLoad each take about a second";
  let drive, fs = fresh () in
  let clock = Drive.clock drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let state = ok Checkpoint.pp_error (Checkpoint.state_file fs ~directory:root ~name:"W.state") in
  let memory = Memory.create () in
  let cpu = Cpu.create memory in
  (* First save pays for laying the file down; steady state streams. *)
  let (), first_us = timed clock (fun () -> ok World.pp_error (World.out_load cpu state)) in
  let (), out_us = timed clock (fun () -> ok World.pp_error (World.out_load cpu state)) in
  let (), in_us =
    timed clock (fun () -> ok World.pp_error (World.in_load cpu state ~message:[||]))
  in
  let (), roundtrip_us =
    timed clock (fun () ->
        ok Checkpoint.pp_error
          (Checkpoint.transfer cpu ~save_to:state ~restore_from:state ~message:[||]))
  in
  print_table [ 34; 14 ]
    [ "operation"; "simulated time" ]
    [
      [ "first OutLoad (file laid down)"; us_to_string first_us ];
      [ "OutLoad, steady state"; us_to_string out_us ];
      [ "InLoad"; us_to_string in_us ];
      [ "coroutine transfer (both)"; us_to_string roundtrip_us ];
    ];
  List.iter
    (fun (what, us) ->
      if us < 500_000 || us > 2_000_000 then
        failwith (Printf.sprintf "E5: %s takes %s, not about a second" what (us_to_string us)))
    [ ("a steady-state OutLoad", out_us); ("an InLoad", in_us) ];
  if first_us < out_us then
    failwith "E5: the first OutLoad, which lays the file down, costs less than a steady one";
  print_endline "shape: about a second each way once the state file exists."

(* E6 — §2: the drive "can store 2.5 megabytes … and can transfer 64k
   words in about one second". One sector at a time the claim is out of
   reach: after every seek the read waits for slot 0. Reading through
   the track buffer cache, a miss fills from the slot where the heads
   land through the wanted sector, so each later sector of the track is
   buffered already or under the heads when it is wanted: one
   revolution a track — the configuration the paper's rate describes. *)
let e6 () =
  heading "E6  raw disk rate and capacity (§2)";
  claim "2.5 MB per pack; 64K words transferred in about a second";
  let sectors = 65536 / Sector.value_words in
  let rate us = 65536.0 /. (float_of_int us /. 1e6) in
  let one_at_a_time geometry =
    let drive = Drive.create ~pack_id:1 geometry in
    let clock = Drive.clock drive in
    let value = Array.make Sector.value_words Word.zero in
    let (), us =
      timed clock (fun () ->
          for i = 0 to sectors - 1 do
            match
              Drive.run drive (Disk_address.of_index i)
                { Drive.op_none with Drive.value = Some Drive.Read }
                ~value ()
            with
            | Ok () -> ()
            | Error e -> Format.kasprintf failwith "%a" Drive.pp_error e
          done)
    in
    us
  in
  let through_track_cache geometry =
    let drive = Drive.create ~pack_id:1 geometry in
    let clock = Drive.clock drive in
    let bio = Bio.create ~label_cache:(Label_cache.create drive) drive in
    let value = Array.make Sector.value_words Word.zero in
    let (), us =
      timed clock (fun () ->
          for i = 0 to sectors - 1 do
            let addr = Disk_address.of_index i in
            (* An all-wildcard pattern: any label passes the check. *)
            let label = Array.make Sector.label_words Word.zero in
            match Bio.lookup bio addr ~label ~value with
            | Some _ -> ()
            | None -> (
                Bio.fill bio addr;
                match Bio.peek bio addr ~label ~value with
                | Some _ -> ()
                | None -> failwith "e6: track fill left the sector unbuffered")
          done)
    in
    us
  in
  let disks =
    List.map
      (fun geometry -> (geometry, one_at_a_time geometry, through_track_cache geometry))
      [ Geometry.diablo_31; Geometry.diablo_44 ]
  in
  let rows =
    List.mapi
      (fun i (geometry, direct_us, cached_us) ->
        (* The headline number — the gated metric is the Model 31, the
           pack the paper's "about one second" describes. *)
        if i = 0 then
          Obs.add (Obs.counter "e6.words_per_s") (int_of_float (rate cached_us));
        [
          geometry.Geometry.model;
          Printf.sprintf "%.2f MB" (float_of_int (Geometry.capacity_bytes geometry) /. 1_048_576.);
          us_to_string direct_us;
          Printf.sprintf "%.0fk w/s" (rate direct_us /. 1000.);
          us_to_string cached_us;
          Printf.sprintf "%.0fk w/s" (rate cached_us /. 1000.);
        ])
      disks
  in
  print_table [ 16; 10; 13; 9; 13; 9 ]
    [ "disk"; "capacity"; "sector reads"; "rate"; "track fills"; "rate" ]
    rows;
  print_endline
    "shape: sector-at-a-time reads stream along a cylinder but wait for\n\
     slot 0 after each seek, and fall short of the claim. Through the\n\
     track buffers a miss reads from where the heads land up to the\n\
     wanted sector, so every later sector of the track is buffered or\n\
     under the heads: one revolution a track, the paper's rate.";
  List.iter
    (fun ((geometry : Geometry.t), direct_us, cached_us) ->
      if direct_us <= cached_us then
        failwith
          (Printf.sprintf "E6: on a %s, sector reads (%s) are no slower than the buffers (%s)"
             geometry.model (us_to_string direct_us) (us_to_string cached_us)))
    disks;
  (* The first disk is the Model 31, the pack the claim describes. *)
  match disks with
  | (_, _, cached_us) :: _ when cached_us > 1_100_000 ->
      failwith
        (Printf.sprintf "E6: 64K words through the track buffers took %s, over 1.1 s"
           (us_to_string cached_us))
  | _ -> ()

(* E7 — §5.2: Junta gives precise control over resident memory. *)
let e7 () =
  heading "E7  resident memory per retained level (§5.2)";
  claim "a program selects exactly the levels it retains; the rest is its memory";
  let resident =
    List.map
      (fun (level : Level.t) -> (level, Level.resident_words ~keep:level.Level.index))
      Level.all
  in
  print_table [ 9; 36; 10; 12 ]
    [ "keep"; "highest retained level"; "resident"; "user words" ]
    (List.map
       (fun ((level : Level.t), words) ->
         let keep = level.Level.index in
         [
           Printf.sprintf "junta %2d" keep;
           level.Level.level_name;
           string_of_int words;
           Printf.sprintf "%d" (Level.boundary ~keep - System.user_base);
         ])
       resident);
  (* And the machinery actually works: remove, fail, restore, succeed. *)
  let system = System.boot () in
  let boundary_13 = System.user_boundary system in
  System.junta system ~keep:7;
  let boundary_7 = System.user_boundary system in
  System.counter_junta system;
  let restored = System.resident_level system in
  Printf.printf
    "verified live: junta 7 raises the user boundary from %d to %d words\n\
     and CounterJunta restores every level (resident level %d).\n"
    boundary_13 boundary_7 restored;
  let (_ : int) =
    List.fold_left
      (fun below ((level : Level.t), words) ->
        if words <= below then
          failwith
            (Printf.sprintf "E7: retaining level %d adds no resident words"
               level.Level.index);
        words)
      0 resident
  in
  if boundary_7 <= boundary_13 then
    failwith "E7: a live junta to level 7 did not raise the user boundary";
  if restored <> 13 then
    failwith (Printf.sprintf "E7: CounterJunta restored level %d, not 13" restored)

(* E8 — §3.6: consecutive-file address arithmetic. *)
let e8 () =
  heading "E8  arithmetic addressing of consecutive files (§3.6)";
  claim "a program may compute a(j) = a(i) + j - i; the label check makes misses harmless";
  let file_bytes = 20_000 and seed = 5 in
  let expected = body seed file_bytes in
  (* Read every data page at its computed address, falling back to the
     file machinery on a miss; every page read either way must hold the
     file's bytes. *)
  let arithmetic drive fs name =
    let file = reopen fs "Target.dat" in
    let base = ok File.pp_error (File.page_name file 1) in
    let last = File.last_page file in
    let check pn value plen =
      let at = (pn - 1) * Sector.bytes_per_page in
      if Word.string_of_words value ~len:plen <> String.sub expected at plen then
        failwith (Printf.sprintf "E8 %s: page %d does not hold the file's bytes" name pn)
    in
    let hits = ref 0 in
    let (), us =
      timed (Drive.clock drive) (fun () ->
          for pn = 1 to last do
            let guess = Disk_address.offset base.Page.addr (pn - 1) in
            match Page.read drive (Page.full_name (File.fid file) ~page:pn ~addr:guess) with
            | Ok (label, value) ->
                incr hits;
                check pn value label.Label.length
            | Error _ -> (
                (* Fall back to the file machinery. *)
                match File.read_page file pn with
                | Ok (value, plen) -> check pn value plen
                | Error e -> Format.kasprintf failwith "%a" File.pp_error e)
          done)
    in
    ( !hits,
      last,
      [ name; Printf.sprintf "%d/%d" !hits last; us_to_string us; us_to_string (us / last) ] )
  in
  let trial name ~prepare =
    let drive, fs = fresh () in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    prepare fs;
    let (_ : File.t) = make_file fs root "Target.dat" file_bytes seed in
    arithmetic drive fs name
  in
  (* The compacted case needs its own flow: the file must exist before
     the compactor runs. *)
  let compacted =
    let drive, fs = fresh () in
    Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 3));
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let (_ : File.t) = make_file fs root "Target.dat" file_bytes seed in
    let fs =
      match Compactor.compact fs with Ok (fs, _) -> fs | Error msg -> failwith msg
    in
    arithmetic drive fs "after compaction"
  in
  let fresh_quiet = trial "fresh quiet disk" ~prepare:(fun _ -> ()) in
  let scattered =
    trial "scattered allocation" ~prepare:(fun fs ->
        Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 3)))
  in
  let rows = List.map (fun (_, _, row) -> row) [ fresh_quiet; scattered; compacted ] in
  print_table [ 24; 10; 12; 12 ]
    [ "layout"; "hits"; "whole file"; "per page" ]
    rows;
  List.iter
    (fun (hits, pages, row) ->
      if hits <> pages then
        failwith
          (Printf.sprintf "E8 %s: %d/%d hits on a consecutive layout" (List.hd row) hits pages))
    [ fresh_quiet; compacted ];
  (let hits, pages, _ = scattered in
   if hits >= pages then
     failwith "E8: arithmetic addressing never missed on a scattered layout");
  print_endline
    "shape: arithmetic addressing hits everything on consecutive layouts,\n\
     collapses on scattered ones — and every miss is caught by the label\n\
     check and recovered, never silently wrong."

(* E9 — §3.3/§6: robustness. "The incidence of complaints about lost
   information is negligible." Plus the ablation: what the label check
   buys when the allocation map lies. *)
let e9 () =
  heading "E9  robustness under faults, and the no-check ablation (§3.3, §6)";
  claim "label checking confines damage; a stale map never overwrites data";
  (* (a) decay campaign: corrupt labels at random, scavenge, audit. A
     file counts as intact only when every byte reads back as written. *)
  let trials = 3 in
  let campaign fraction =
    let recovered = ref 0 and intact_total = ref 0 and files_total = ref 0 in
    for seed = 1 to trials do
      let drive, fs = fresh () in
      let root = ok Directory.pp_error (Directory.open_root fs) in
      let files =
        List.init 20 (fun i ->
            let name = Printf.sprintf "D%02d.dat" i in
            let n = 1000 + (300 * i) in
            let (_ : File.t) = make_file fs root name n (seed + i) in
            (name, body (seed + i) n))
      in
      let rng = Alto_machine.Splitmix.of_seed (seed * 97) in
      let (_ : Disk_address.t list) = Fault.decay rng drive ~fraction in
      match Scavenger.scavenge drive with
      | Error _ -> ()
      | Ok (fs', _) ->
          incr recovered;
          let root' = ok Directory.pp_error (Directory.open_root fs') in
          List.iter
            (fun (name, written) ->
              incr files_total;
              match Directory.lookup root' name with
              | Ok (Some e) -> (
                  match File.open_leader fs' e.Directory.entry_file with
                  | Ok f -> (
                      match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
                      | Ok got when String.equal (Bytes.to_string got) written ->
                          incr intact_total
                      | Ok _ | Error _ -> ())
                  | Error _ -> ())
              | Ok None | Error _ -> ())
            files
    done;
    ( !recovered,
      [
        Printf.sprintf "%.1f%%" (fraction *. 100.);
        Printf.sprintf "%d/%d" !recovered trials;
        Printf.sprintf "%d/%d" !intact_total !files_total;
      ] )
  in
  let campaigns = List.map campaign [ 0.002; 0.01; 0.03; 0.08 ] in
  print_table [ 10; 12; 14 ]
    [ "decay"; "recovered"; "files intact" ]
    (List.map snd campaigns);
  (* (b) the ablation: a stale allocation map plus fresh allocations. The
     disk is filled first, so the lying map entries are the only pages
     the allocator can propose. *)
  let stale_map_damage ~checking =
    let geometry = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 20 } in
    let drive, fs = fresh ~geometry () in
    Fs.set_label_checking fs checking;
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let precious = make_file fs root "Precious.dat" 8000 9 in
    let before =
      Bytes.to_string
        (ok File.pp_error (File.read_bytes precious ~pos:0 ~len:(File.byte_length precious)))
    in
    (* Fill everything else. *)
    let rec stuff i =
      match File.create fs ~name:(Printf.sprintf "Stuffing%04d." i) with
      | Ok f -> (
          match File.write_bytes f ~pos:0 (body i 1500) with
          | Ok () -> stuff (i + 1)
          | Error _ -> ())
      | Error _ -> ()
    in
    stuff 0;
    (* The crash: an allocation map from a stale checkpoint says the
       precious pages are free. *)
    for pn = 1 to File.last_page precious do
      let fn = ok File.pp_error (File.page_name precious pn) in
      Fs.mark_free fs fn.Page.addr
    done;
    (* An innocent program allocates new pages; with checks on it is told
       the disk is full, with checks off it tramples. *)
    (match File.create fs ~name:"Innocent.dat" with
    | Ok f -> ( match File.write_bytes f ~pos:0 (body 10 8000) with Ok () | Error _ -> ())
    | Error _ -> ());
    ignore drive;
    let after =
      match File.read_bytes precious ~pos:0 ~len:(String.length before) with
      | Ok b -> Bytes.to_string b
      | Error _ -> ""
    in
    let damaged_pages =
      let per_page = Sector.bytes_per_page in
      let n = (String.length before + per_page - 1) / per_page in
      let count = ref 0 in
      for p = 0 to n - 1 do
        let lo = p * per_page in
        let len = min per_page (String.length before - lo) in
        if
          String.length after < lo + len
          || not (String.equal (String.sub before lo len) (String.sub after lo len))
        then incr count
      done;
      !count
    in
    damaged_pages
  in
  let with_checks = stale_map_damage ~checking:true in
  let without = stale_map_damage ~checking:false in
  print_newline ();
  print_table [ 30; 18 ]
    [ "stale-map ablation"; "data pages destroyed" ]
    [
      [ "label checking on"; string_of_int with_checks ];
      [ "label checking off"; string_of_int without ];
    ];
  List.iter
    (fun (recovered, row) ->
      if recovered <> trials then
        failwith
          (Printf.sprintf "E9: %d/%d volumes recovered at %s decay" recovered trials
             (List.hd row)))
    campaigns;
  if with_checks <> 0 then
    failwith (Printf.sprintf "E9: the stale map destroyed %d pages with checks on" with_checks);
  if without = 0 then failwith "E9: the stale map destroyed nothing with checks off";
  print_endline
    "shape: with checks the lying map costs only retries; without them the\n\
     allocator writes straight through live files."

(* E10 — §3.6: installed hint files give maximum-speed startup. *)
let e10 () =
  heading "E10  installed hint files (§3.6)";
  claim "installed programs start at maximum disk speed; a failed hint forces reinstall";
  let names = [ "Ed.scratch1"; "Ed.scratch2"; "Ed.journal"; "Ed.messages" ] in
  let run clutter =
    let drive, fs = fresh () in
    let clock = Drive.clock drive in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    for i = 0 to clutter - 1 do
      let (_ : File.t) = make_file fs root (Printf.sprintf "Jumble%04d." i) 120 i in
      ()
    done;
    let state = ok Install.pp_error (Install.install fs ~directory:root ~names) in
    ok Install.pp_error (Install.save fs ~directory:root ~state_name:"Ed.state" state);
    (* The installed program remembers its state file's full name (it
       travels in the program's world image), so the fast path never
       consults a directory. *)
    let state_file = reopen fs "Ed.state" in
    go_cold fs;
    let (), cold_us =
      timed clock (fun () ->
          List.iter
            (fun name ->
              match ok Directory.pp_error (Directory.lookup root name) with
              | Some e ->
                  let (_ : File.t) =
                    ok File.pp_error (File.open_leader fs e.Directory.entry_file)
                  in
                  ()
              | None -> failwith name)
            names)
    in
    go_cold fs;
    let (), fast_us =
      timed clock (fun () ->
          let state = ok Install.pp_error (Install.load_from state_file) in
          match Install.fast_open fs state with
          | Ok _ -> ()
          | Error (`Reinstall_required msg) -> failwith msg)
    in
    (clutter, cold_us, fast_us)
  in
  let runs = List.map run [ 50; 200; 800 ] in
  print_table [ 18; 14; 14; 8 ]
    [ "directory entries"; "cold start"; "hinted start"; "speedup" ]
    (List.map
       (fun (clutter, cold_us, fast_us) ->
         [
           string_of_int clutter;
           us_to_string cold_us;
           us_to_string fast_us;
           Printf.sprintf "%.1fx" (float_of_int cold_us /. float_of_int fast_us);
         ])
       runs);
  let colds = List.map (fun (_, cold_us, _) -> cold_us) runs in
  if not (List.sort_uniq compare colds = colds) then
    failwith "E10: the cold start does not grow with the directory";
  List.iter
    (fun (clutter, cold_us, fast_us) ->
      if cold_us <= fast_us then
        Printf.ksprintf failwith
          "E10: with %d entries the cold start is no slower than the hinted" clutter)
    runs;
  print_endline
    "shape: cold startup degrades with directory size; hinted startup is\n\
     flat — the hints bypass the directory entirely."

(* E11 — ablation of the design decision §3.5 declines: "scavenging
   cannot fully reconstruct lost directories. This could be accomplished
   by writing a journal of all changes … we do not consider our
   directories important enough." How many names does the journal buy
   back when a directory is destroyed? *)
let e11 () =
  heading "E11  journaled directories vs the scavenger alone (§3.5 ablation)";
  claim "scavenging recovers files but not names; a journal + snapshot recovers both";
  let run ~aliases =
    let geometry = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 30 } in
    let drive, fs = fresh ~geometry () in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let jd = ok Alto_fs.Journal.pp_error (Alto_fs.Journal.create fs ~parent:root ~name:"Vault.") in
    let files = 16 in
    for i = 0 to files - 1 do
      let file =
        ok File.pp_error (File.create fs ~name:(Printf.sprintf "Inner%02d." i))
      in
      ok File.pp_error (File.write_bytes file ~pos:0 (body i 600));
      let entry_name =
        if aliases && i mod 2 = 0 then Printf.sprintf "Alias%02d." i
        else Printf.sprintf "Inner%02d." i
      in
      ok Alto_fs.Journal.pp_error
        (Alto_fs.Journal.add jd ~name:entry_name (File.leader_name file))
    done;
    ok Alto_fs.Journal.pp_error (Alto_fs.Journal.take_snapshot jd);
    let wanted =
      List.init files (fun i ->
          if aliases && i mod 2 = 0 then Printf.sprintf "Alias%02d." i
          else Printf.sprintf "Inner%02d." i)
    in
    (* Destroy the directory's data page. *)
    let rng = Alto_machine.Splitmix.of_seed 13 in
    let p1 = ok File.pp_error (File.page_name (Alto_fs.Journal.directory jd) 1) in
    Alto_disk.Fault.corrupt_part rng drive p1.Page.addr Sector.Value;
    let fs', _ = match Scavenger.scavenge drive with Ok x -> x | Error m -> failwith m in
    let root' = ok Directory.pp_error (Directory.open_root fs') in
    let count_recovered lookup =
      List.length (List.filter (fun name -> lookup name) wanted)
    in
    let scavenger_only =
      count_recovered (fun name ->
          match Directory.lookup root' name with Ok (Some _) -> true | Ok None | Error _ -> false)
    in
    let jd' =
      ok Alto_fs.Journal.pp_error
        (Alto_fs.Journal.open_existing fs' ~parent:root' ~name:"Vault.")
    in
    let (_ : Alto_fs.Journal.recovery) =
      ok Alto_fs.Journal.pp_error (Alto_fs.Journal.recover jd')
    in
    let with_journal =
      count_recovered (fun name ->
          match Alto_fs.Journal.lookup jd' name with
          | Ok (Some _) -> true
          | Ok None | Error _ -> false)
    in
    (files, scavenger_only, with_journal)
  in
  let results = List.map (fun aliases -> (aliases, run ~aliases)) [ false; true ] in
  print_table [ 30; 18; 18 ]
    [ "workload"; "scavenger alone*"; "journal+snapshot" ]
    (List.map
       (fun (aliases, (files, scav, journal)) ->
         [
           (if aliases then "half the entries are aliases" else "entry names = leader names");
           Printf.sprintf "%d/%d" scav files;
           Printf.sprintf "%d/%d" journal files;
         ])
       results);
  List.iter
    (fun (aliases, (files, scav, journal)) ->
      let row = if aliases then "aliases" else "leader names" in
      if journal <> files then
        failwith
          (Printf.sprintf "E11 %s: the journal recovered %d/%d names" row journal files);
      if aliases && scav >= files then
        failwith "E11: the scavenger alone recovered every alias";
      if (not aliases) && scav <> files then
        failwith
          (Printf.sprintf "E11: the scavenger alone recovered %d/%d leader names" scav
             files))
    results;
  print_endline
    "*names findable in the root after scavenging (orphans adopted under\n\
     leader names land there; aliases are simply gone). The journal\n\
     restores the directory itself, aliases included.";
  print_endline
    "shape: the paper is right that nothing is LOST without the journal —\n\
     and right that the names are; the journal is what buys them back."

(* E12 — §3.6: "Hint addresses can also be kept for every k-th page of
   the file to reduce the number of links that must be followed." *)
let e12 () =
  heading "E12  hint density: keeping every k-th page hint (§3.6)";
  claim "sparser hints trade memory for link-chasing on access";
  let drive, fs = fresh () in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let pages = 64 in
  let file = make_file fs root "Sparse.dat" (pages * Sector.bytes_per_page - 100) 3 in
  let clock = Drive.clock drive in
  (* A fixed pseudo-random access pattern, the same on every compiler. *)
  let accesses =
    let rng = Alto_machine.Splitmix.of_seed 42 in
    Array.init 48 (fun _ -> 1 + Alto_machine.Splitmix.int rng pages)
  in
  let trial density =
    (* Warm all hints, then thin. *)
    for pn = 1 to pages do
      ignore (ok File.pp_error (File.read_page file pn))
    done;
    (match density with
    | None -> File.invalidate_hints file
    | Some k -> File.retain_hints file ~every:k);
    let kept = File.hinted_pages file in
    (* Each access is cold: the links a chase follows come off the disk. *)
    let us =
      Array.fold_left
        (fun total pn ->
          go_cold fs;
          let (), us =
            timed clock (fun () ->
                ignore (ok File.pp_error (File.read_page file pn));
                (* Re-thin so later accesses cannot ride hints cached by
                   earlier ones: we are measuring the steady density. *)
                match density with
                | None -> File.invalidate_hints file
                | Some k -> File.retain_hints file ~every:k)
          in
          total + us)
        0 accesses
    in
    (density, kept, us / Array.length accesses)
  in
  let trials = List.map trial [ Some 1; Some 4; Some 8; Some 16; None ] in
  print_table [ 18; 14; 14 ]
    [ "hints kept"; "hint words"; "per access" ]
    (List.map
       (fun (density, kept, per_access) ->
         [
           (match density with
           | None -> "no page hints"
           | Some 1 -> "every page"
           | Some k -> Printf.sprintf "every %d pages" k);
           string_of_int kept;
           us_to_string per_access;
         ])
       trials);
  let per_access = List.map (fun (_, _, us) -> us) trials in
  if List.mem 0 per_access || not (List.sort_uniq compare per_access = per_access) then
    failwith "E12: the time per access does not rise as the hints thin";
  print_endline
    "shape: the knee is early — a few retained hints already bound the\n\
     chase; programs keep full hints for files they read hot."

(* E13 — the aging series behind §3.5's compacting scavenger: packs
   fragment under ordinary traffic; sequential reads decay; a periodic
   compaction holds the line. This is the "figure" the paper implies
   when it says scattered pages cost an order of magnitude. *)
let e13 () =
  heading "E13  how a pack ages, with and without periodic compaction (§3.5)";
  claim "fragmentation accumulates under create/delete traffic; compaction resets it";
  let rounds = 8 and files_per_round = 12 in
  let run ~compact_every =
    (* A small pack under pressure: the allocator must thread freed holes. *)
    let geometry = { Geometry.diablo_31 with Geometry.model = "aging"; cylinders = 26 } in
    let drive, fs = fresh ~geometry () in
    let clock = Drive.clock drive in
    (* A compaction hands back the rebuilt volume. *)
    let volume = ref (fs, ok Directory.pp_error (Directory.open_root fs)) in
    let rng = Alto_machine.Splitmix.of_seed 77 in
    let live = ref [] in
    let counter = ref 0 in
    let round r =
      let fs, root = !volume in
      (* Churn: delete a few files, create a few, append to some. *)
      let victims, keep =
        List.partition (fun _ -> Alto_machine.Splitmix.int rng 3 = 0) !live
      in
      List.iter
        (fun name ->
          match Directory.lookup root name with
          | Ok (Some e) -> (
              match File.open_leader fs e.Directory.entry_file with
              | Ok f ->
                  (match File.delete f with Ok () | Error _ -> ());
                  (match Directory.remove root name with Ok _ | Error _ -> ())
              | Error _ -> ())
          | Ok None | Error _ -> ())
        victims;
      live := keep;
      for _ = 1 to files_per_round do
        incr counter;
        let name = Printf.sprintf "Age%04d." !counter in
        let (_ : File.t) =
          make_file fs root name (1000 + Alto_machine.Splitmix.int rng 6000) !counter
        in
        live := name :: !live
      done;
      List.iteri
        (fun i name ->
          if i mod 4 = 0 then
            match Directory.lookup root name with
            | Ok (Some e) -> (
                match File.open_leader fs e.Directory.entry_file with
                | Ok f -> (
                    match File.append_bytes f (body r 700) with Ok () | Error _ -> ())
                | Error _ -> ())
            | Ok None | Error _ -> ())
        !live;
      if compact_every > 0 && r mod compact_every = 0 then
        match Compactor.compact fs with
        | Ok (fs, _) -> volume := (fs, ok Directory.pp_error (Directory.open_root fs))
        | Error _ -> ()
    in
    (* After each round: average adjacency and a sequential read probe. *)
    List.map
      (fun r ->
        round r;
        let fs, root = !volume in
        let fractions =
          List.filter_map
            (fun name ->
              match Directory.lookup root name with
              | Ok (Some e) -> (
                  match File.open_leader fs e.Directory.entry_file with
                  | Ok f -> (
                      match File.consecutive_fraction f with
                      | Ok x -> Some x
                      | Error _ -> None)
                  | Error _ -> None)
              | Ok None | Error _ -> None)
            !live
        in
        let avg =
          if fractions = [] then 1.0
          else List.fold_left ( +. ) 0.0 fractions /. float_of_int (List.length fractions)
        in
        (* Sequential-read probe over every live file, timed from the
           open: the leader read is where a scattered file's first seek
           lands. *)
        let read_us =
          let total_us = ref 0 and total_bytes = ref 0 in
          List.iter
            (fun name ->
              match Directory.lookup root name with
              | Ok (Some e) ->
                  let bytes, us =
                    timed clock (fun () ->
                        match File.open_leader fs e.Directory.entry_file with
                        | Ok f ->
                            ignore (File.read_bytes f ~pos:0 ~len:(File.byte_length f));
                            File.byte_length f
                        | Error _ -> 0)
                  in
                  total_us := !total_us + us;
                  total_bytes := !total_bytes + bytes
              | Ok None | Error _ -> ())
            !live;
          !total_us * 1000 / max 1 !total_bytes
        in
        (r, avg, read_us))
      (List.init rounds (fun r -> r + 1))
  in
  let without = run ~compact_every:0 in
  let with_compaction = run ~compact_every:3 in
  print_table [ 6; 22; 26 ]
    [ "round"; "adjacency (no compact)"; "adjacency (compact every 3)" ]
    (List.map2
       (fun (r, a, _) (_, a', _) ->
         [ string_of_int r; Printf.sprintf "%.0f%%" (a *. 100.); Printf.sprintf "%.0f%%" (a' *. 100.) ])
       without with_compaction);
  let last3 rows = List.filteri (fun i _ -> i >= rounds - 3) rows in
  let avg_cost rows =
    let costs = List.map (fun (_, _, c) -> c) (last3 rows) in
    List.fold_left ( + ) 0 costs / List.length costs
  in
  Printf.printf
    "steady-state sequential read cost: %d µs/KB untreated vs %d µs/KB compacted\n"
    (avg_cost without) (avg_cost with_compaction);
  let adjacency rows r = List.assoc r (List.map (fun (r, a, _) -> (r, a)) rows) in
  if adjacency without rounds >= adjacency without 1 then
    failwith "E13: the untreated pack's adjacency did not fall from round 1";
  List.iter
    (fun r ->
      if r mod 3 = 0 && adjacency with_compaction r < 0.99 then
        failwith (Printf.sprintf "E13: round %d's compaction left adjacency below 99%%" r))
    (List.init rounds (fun r -> r + 1));
  if avg_cost with_compaction >= avg_cost without then
    failwith "E13: compaction did not lower the steady-state read cost";
  print_endline
    "shape: adjacency decays steadily under churn (a real pack had months\n\
     of this — E2 shows where it ends up) and read costs climb with it; a\n\
     compacting scavenge every few rounds resets files to consecutive."

(* E14 — soft-error soak (the transient-fault model; ISSUE calls this
   the "E7 soft-error soak", renumbered because E7 was taken by the
   junta experiment). Below the marginal threshold every transient is
   absorbed by the bounded-retry ladder: zero data loss, zero
   exhaustion, just retries costing revolutions. *)
let e14 () =
  heading "E14  soft-error soak: bounded retry absorbs transients";
  claim "transient read errors are retried and recovered; no data is lost";
  (* (a) Sweep the soft-error rate. Each round: fresh volume, transient
     mode on, 20 files written and read back twice, every byte compared
     against what was written. *)
  let soak rate =
    let drive, fs = fresh () in
    let clock = Fs.clock fs in
    Fault.set_soft_errors drive ~seed:1234 ~rate;
    let soft0 = counter "disk.soft_errors"
    and retries0 = counter "disk.retries"
    and exhausted0 = counter "disk.retry_exhausted" in
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let files = 20 in
    let expected =
      List.init files (fun i ->
          let name = Printf.sprintf "Soak%02d.dat" i in
          let bytes = 1000 + (250 * i) in
          let (_ : File.t) = make_file fs root name bytes (100 + i) in
          (name, body (100 + i) bytes))
    in
    let intact = ref 0 in
    let (), us =
      timed clock (fun () ->
          for _pass = 1 to 2 do
            List.iter
              (fun (name, want) ->
                let f = reopen fs name in
                match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
                | Ok got when Bytes.to_string got = want -> incr intact
                | Ok _ | Error _ -> ())
              expected
          done)
    in
    let soft = counter "disk.soft_errors" - soft0
    and retries = counter "disk.retries" - retries0
    and exhausted = counter "disk.retry_exhausted" - exhausted0 in
    if !intact <> 2 * files then
      Format.kasprintf failwith
        "E14: data loss at rate %g: only %d/%d reads intact" rate !intact
        (2 * files);
    if exhausted <> 0 then
      Format.kasprintf failwith "E14: %d retry ladders ran dry at rate %g"
        exhausted rate;
    [
      Printf.sprintf "%g" rate;
      Printf.sprintf "%d/%d" !intact (2 * files);
      string_of_int soft;
      string_of_int retries;
      string_of_int exhausted;
      us_to_string us;
    ]
  in
  print_table [ 8; 10; 12; 9; 11; 12 ]
    [ "rate"; "intact"; "soft errors"; "retries"; "exhausted"; "read time" ]
    (List.map soak [ 0.; 0.0001; 0.001; 0.005; 0.02 ]);
  (* (b) Marginal sectors: a few sectors fail most reads and get worse
     each time. The scavenger's verify pass notices the retry effort,
     copies the pages to healthy sectors and quarantines the old ones in
     the volume's persistent bad-sector table. *)
  let drive, fs = fresh () in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let files = 12 in
  let expected =
    List.init files (fun i ->
        let name = Printf.sprintf "Marg%02d.dat" i in
        let bytes = 2000 + (300 * i) in
        let (_ : File.t) = make_file fs root name bytes (200 + i) in
        (name, body (200 + i) bytes))
  in
  let reserved_top = 1 + Fs.descriptor_page_count fs in
  let victims =
    let acc = ref [] in
    let i = ref (Drive.sector_count drive - 1) in
    while List.length !acc < 3 && !i > reserved_top do
      let addr = Disk_address.of_index !i in
      if not (Fs.is_free_in_map fs addr) then acc := addr :: !acc;
      decr i
    done;
    !acc
  in
  List.iter
    (fun addr -> Fault.make_marginal ~rate:0.7 ~growth:1.0 ~degrade_after:1000 drive addr)
    victims;
  let fs', report =
    ok Format.pp_print_string
      (Scavenger.scavenge ~suspect_retries:1 drive)
  in
  (* A marginal sector the single verify probe happened to catch on a
     good revolution stays in service, so a read can still need the
     ladder — and can still exhaust it. A patient user retries the whole
     operation, as the real one would. *)
  let intact =
    List.length
      (List.filter
         (fun (name, want) ->
           let rec attempt k =
             k > 0
             &&
             match
               try
                 let f = reopen fs' name in
                 match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
                 | Ok got -> Some (Bytes.to_string got = want)
                 | Error _ -> None
               with Failure _ -> None
             with
             | Some verdict -> verdict
             | None -> attempt (k - 1)
           in
           attempt 5)
         expected)
  in
  (* The quarantine verdicts survive a remount: the table rides in the
     rebuilt descriptor. *)
  let table_after_remount =
    match Fs.mount drive with
    | Ok fs'' -> List.length (Fs.bad_sector_table fs'')
    | Error _ -> -1
  in
  print_table [ 26; 10 ]
    [ "after scavenge"; "" ]
    [
      [ "marginal planted"; string_of_int (List.length victims) ];
      [ "pages rescued"; string_of_int report.Scavenger.marginal_relocated ];
      [ "sectors quarantined"; string_of_int (List.length (Fs.bad_sector_table fs')) ];
      [ "table after remount"; string_of_int table_after_remount ];
      [ "files intact"; Printf.sprintf "%d/%d" intact files ];
    ];
  if intact <> files then failwith "E14: data lost rescuing marginal sectors";
  if report.Scavenger.marginal_relocated < 2 then
    failwith "E14: the verify pass rescued fewer marginal pages than expected";
  if table_after_remount <> List.length (Fs.bad_sector_table fs') then
    failwith "E14: the bad-sector table did not survive the remount";
  print_endline
    "shape: below the marginal threshold the retry ladder hides every\n\
     transient (zero exhausted, zero loss); sectors that need visible\n\
     retry effort get their data moved and the sector retired for good."

(* E15 — PR 3's disk fast path: the same scattered request set issued
   naively, file by file in chain order, vs through the elevator. Both
   passes perform identical operations (label check + value read per
   page); only the order differs, so the whole gap is motion. *)
let e15 () =
  heading "E15  batched vs naive transfers (elevator scheduling)";
  claim "cylinder batching at least halves the seeks on a scattered pack";
  let drive, fs = fresh () in
  Fs.set_policy fs (Fs.Scattered (Alto_machine.Splitmix.of_seed 42));
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let names = fill_to fs root ~fraction:0.5 ~file_bytes:8000 in
  (* The request set a whole-pack reader (a backup pass, say) wants:
     every page of every file, its label verified on the way past.
     Collected up front so both passes issue exactly the same work. *)
  let wanted =
    List.concat_map
      (fun name ->
        let file = reopen fs name in
        let fid = File.fid file in
        List.init (File.last_page file + 1) (fun pn ->
            (fid, pn, (ok File.pp_error (File.page_name file pn)).Page.addr)))
      names
  in
  let clock = Drive.clock drive in
  let probe = Array.make Sector.value_words Word.zero in
  let op =
    { Drive.op_none with Drive.label = Some Drive.Check; value = Some Drive.Read }
  in
  let seeks = Obs.counter "disk.seeks" in
  let measure f =
    let seeks0 = Obs.counter_value seeks in
    let (), us = timed clock f in
    (Obs.counter_value seeks - seeks0, us)
  in
  let naive_seeks, naive_us =
    measure (fun () ->
        List.iter
          (fun (fid, pn, addr) ->
            match
              Reliable.run drive addr op
                ~label:(Label.check_name fid ~page:pn)
                ~value:probe ()
            with
            | Ok () -> ()
            | Error e ->
                Format.kasprintf failwith "E15 naive read: %a" Drive.pp_error e)
          wanted)
  in
  let requests =
    Array.of_list
      (List.map
         (fun (fid, pn, addr) ->
           Sched.request ~label:(Label.check_name fid ~page:pn) ~value:probe
             addr op)
         wanted)
  in
  let batched_seeks, batched_us =
    measure (fun () ->
        Array.iter
          (fun o ->
            match o.Sched.result with
            | Ok () -> ()
            | Error e ->
                Format.kasprintf failwith "E15 batched read: %a" Drive.pp_error e)
          (Sched.run_batch drive requests))
  in
  print_table [ 26; 8; 14 ]
    [ "pass over the same pages"; "seeks"; "time" ]
    [
      [ "naive (file order)"; string_of_int naive_seeks; us_to_string naive_us ];
      [ "elevator batch"; string_of_int batched_seeks; us_to_string batched_us ];
    ];
  Printf.printf "seek reduction: %.1fx  (%d pages over %d files)\n"
    (float_of_int naive_seeks /. float_of_int batched_seeks)
    (List.length wanted) (List.length names);
  if naive_seeks < 2 * batched_seeks then
    failwith "E15: batching saved fewer than half the seeks";
  print_endline
    "shape: the naive pass pays a seek per page on a scattered pack; the\n\
     elevator pays at most one pass over the cylinders, so the same reads\n\
     cost a fraction of the motion."

(* E16 — PR 4's online patrol. A live workload runs while the patrol
   sweeps during the idle moments between steps, exactly the executive's
   shape. Marginal sectors planted under live data pages must be found
   by retry evidence and their pages moved to safety before the sectors
   fail — zero loss, measured time-to-drain. Then the recovery half: an
   unsafe shutdown answered by the bounded patrol scan vs a full
   scavenge, both in simulated Alto time. *)
let e16 () =
  heading "E16  online patrol under load: relocation and recovery through the map";
  claim
    "marginal sectors are drained before they fail; crash recovery reads \
     the cylinders written since the last consistency point, not the pack";
  let drive, fs = fresh () in
  Fault.set_soft_errors drive ~seed:4242 ~rate:0.0;
  let clock = Fs.clock fs in
  let n = Drive.sector_count drive in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let files = 16 in
  let expected =
    List.init files (fun i ->
        let name = Printf.sprintf "Live%02d.dat" i in
        let bytes = 2200 + (270 * i) in
        let (_ : File.t) = make_file fs root name bytes (300 + i) in
        (name, body (300 + i) bytes))
  in
  (* Four live data pages get wearing-out sectors: a steady 0.7 failure
     rate (no compounding), far from the degradation cliff so the race
     is patrol-vs-decay, not a foregone loss. *)
  let victims =
    List.map
      (fun i ->
        let file = reopen fs (Printf.sprintf "Live%02d.dat" i) in
        (ok File.pp_error (File.page_name file 2)).Page.addr)
      [ 0; 5; 10; 15 ]
  in
  List.iter
    (fun a -> Fault.make_marginal ~rate:0.7 ~growth:1.0 ~degrade_after:250 drive a)
    victims;
  let patrol = Patrol.create fs in
  let drained () =
    List.for_all (Fs.quarantined fs) victims
  in
  (* The soak: one workload step (read a file; every sixth step write a
     scratch file), then one idle-moment patrol tick. *)
  let step = ref 0 in
  let soak_budget = 6 * ((n / 24) + 1) in
  let (), drain_us =
    timed clock (fun () ->
        while (not (drained ())) && !step < soak_budget do
          let name, want = List.nth expected (!step mod files) in
          let f = reopen fs name in
          (match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
          | Ok got when Bytes.to_string got = want -> ()
          | Ok _ -> failwith ("E16: " ^ name ^ " corrupted under load")
          | Error e -> Format.kasprintf failwith "E16: %s: %a" name File.pp_error e);
          if !step mod 6 = 5 then
            ignore
              (make_file fs root (Printf.sprintf "Scratch%03d.dat" !step) 600 !step);
          ignore (Patrol.tick patrol : Patrol.report);
          incr step
        done)
  in
  if not (drained ()) then failwith "E16: the patrol never drained a victim";
  List.iter
    (fun a ->
      if Drive.is_bad drive a then
        failwith "E16: a marginal sector went hard-bad before relocation")
    victims;
  if Patrol.pages_lost patrol > 0 then failwith "E16: the patrol lost pages";
  (* Every byte of every threatened file, via fresh handles. *)
  let intact =
    List.length
      (List.filter
         (fun (name, want) ->
           let f = reopen fs name in
           match File.read_bytes f ~pos:0 ~len:(File.byte_length f) with
           | Ok got -> Bytes.to_string got = want
           | Error _ -> false)
         expected)
  in
  if intact <> files then failwith "E16: data lost under the patrol's watch";
  print_table [ 30; 14 ]
    [ "patrol under load"; "" ]
    [
      [ "marginal sectors planted"; string_of_int (List.length victims) ];
      [ "workload steps to drain"; string_of_int !step ];
      [ "time to drain"; us_to_string drain_us ];
      [ "pages relocated"; string_of_int (Patrol.relocated patrol) ];
      [ "pages lost"; string_of_int (Patrol.pages_lost patrol) ];
      [ "files intact"; Printf.sprintf "%d/%d" intact files ];
    ];
  (* The recovery half. Dirty the volume (a mutation with no clean
     shutdown), then time both cures on the same dirty pack: the
     recovery a dirty boot runs through the write-ahead map, and — with
     the platter put back as the crash left it — the full scavenge it
     replaces. *)
  let (_ : File.t) = make_file fs root "Unsaved.dat" 900 999 in
  if not (Fs.dirty fs) then failwith "E16: the mutation left the volume clean";
  let crashed = ok Format.pp_print_string (Fs.mount drive) in
  let platter =
    Array.init n (fun i -> Drive.peek drive (Disk_address.of_index i))
  in
  let (recovered, outcome), recovery_us =
    timed clock (fun () -> Recovery.recover crashed)
  in
  let cylinders, report =
    match outcome with
    | Recovery.Through_map (cylinders, report) -> (cylinders, report)
    | o -> failwith (Format.asprintf "E16: recovered by %a" Recovery.pp_outcome o)
  in
  if Fs.dirty recovered then failwith "E16: recovery left the volume dirty";
  Array.iteri
    (fun i (sector : Sector.t) ->
      let a = Disk_address.of_index i in
      Drive.poke drive a Sector.Label sector.Sector.label;
      Drive.poke drive a Sector.Value sector.Sector.value)
    platter;
  let _, scavenge_us =
    timed clock (fun () ->
        ignore (ok Format.pp_print_string (Scavenger.scavenge drive)))
  in
  print_table [ 30; 14 ]
    [ "unsafe-shutdown recovery"; "" ]
    [
      [ "cylinders mapped"; Printf.sprintf "%d/%d" (List.length cylinders) (n / 24) ];
      [ "sectors read"; string_of_int report.Scavenger.sectors_scanned ];
      [ "recovery through the map"; us_to_string recovery_us ];
      [ "full scavenge"; us_to_string scavenge_us ];
      [ "advantage"; Printf.sprintf "%.1fx" (float_of_int scavenge_us /. float_of_int recovery_us) ];
    ];
  if 2 * recovery_us > scavenge_us then
    failwith "E16: recovery through the map was not measurably cheaper than a scavenge";
  print_endline
    "shape: the patrol turns media decay from a scavenger-sized event\n\
     into a per-slice tax nobody notices: every wearing-out sector is\n\
     drained within a lap or two, and a crash costs the cylinders\n\
     written since the last consistency point instead of a whole-pack\n\
     rebuild."

(* E17 — the span profiler's books balance: a scavenge's wall time
   decomposes into named passes, and the drive's motion counters
   reappear, microsecond for microsecond, split across the span tree. *)
let e17 () =
  heading "E17  span profiler attribution (alto_prof)";
  claim
    "the span tree attributes >=95% of a scavenge to named passes, and its \
     disk components sum to the disk.* motion counters within 1%";
  let drive, fs = fresh () in
  let clock = Fs.clock fs in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let (_ : string list) = fill_to fs root ~fraction:0.5 ~file_bytes:4000 in
  let report =
    Obs.time clock "e17.scavenge_us" (fun () ->
        match Scavenger.scavenge drive with
        | Ok (_, r) -> r
        | Error msg -> failwith msg)
  in
  let tree = Prof.tree () in
  let span =
    match Prof.find tree "e17.scavenge_us" with
    | Some s -> s
    | None -> failwith "E17: the scavenge span is missing from the tree"
  in
  if span.Prof.total_us = 0 then failwith "E17: the scavenge span cost nothing";
  let child_us = span.Prof.total_us - span.Prof.self_us in
  let coverage = float_of_int child_us /. float_of_int span.Prof.total_us in
  (* The whole-tree disk components against the drive's own counters.
     Both are cumulative over the process, so the comparison holds no
     matter which experiments ran before this one. *)
  let t = Prof.disk_totals () in
  let prof_disk_us =
    t.Prof.t_seek_us + t.Prof.t_rotation_us + t.Prof.t_transfer_us
    + t.Prof.t_retry_us
  in
  let drive_disk_us =
    counter "disk.seek_us" + counter "disk.rotational_wait_us"
    + counter "disk.transfer_us"
  in
  let drift =
    if drive_disk_us = 0 then 1.0
    else
      abs_float (float_of_int (prof_disk_us - drive_disk_us))
      /. float_of_int drive_disk_us
  in
  let passes =
    List.filter
      (fun (s : Prof.snapshot) -> s.Prof.total_us > 0)
      span.Prof.children
  in
  print_table [ 26; 14; 10 ]
    [ "scavenge pass"; "total"; "share" ]
    (List.map
       (fun (s : Prof.snapshot) ->
         [
           s.Prof.name;
           us_to_string s.Prof.total_us;
           Printf.sprintf "%5.1f%%"
             (100. *. float_of_int s.Prof.total_us
             /. float_of_int span.Prof.total_us);
         ])
       passes);
  print_table [ 26; 14 ]
    [ "attribution"; "" ]
    [
      [ "scavenge wall time"; us_to_string span.Prof.total_us ];
      [ "named child spans"; us_to_string child_us ];
      [ "coverage"; Printf.sprintf "%.2f%%" (100. *. coverage) ];
      [ "tree disk components"; us_to_string prof_disk_us ];
      [ "drive disk counters"; us_to_string drive_disk_us ];
      [ "drift"; Printf.sprintf "%.4f%%" (100. *. drift) ];
      [ "sectors scavenged"; string_of_int report.Scavenger.sectors_scanned ];
    ];
  if coverage < 0.95 then
    failwith "E17: less than 95% of the scavenge is attributed to passes";
  if drift > 0.01 then
    failwith "E17: span-tree disk time drifted from the disk.* counters";
  print_endline
    "shape: attribution is conservation of time: every microsecond the\n\
     drive charges lands in exactly one span, so the profile's books\n\
     balance against the aggregate counters instead of sampling them."

(* E18 — §4: a server is "a set of cooperating activities" multiplexing
   many conversations; §4's cooperative switching plus the elevator disk
   scheduler serve hundreds of clients from one machine. The workload is
   an overload test: 200 scripted clients all offering work every round
   against a 16-slot activity table, so admission control NAKs the
   excess and the standing queue merges the admitted conversations'
   pages into shared C-SCAN sweeps. *)
let e18 () =
  heading "E18  concurrent file service under overload (§4)";
  claim
    "a bounded activity table plus a standing elevator queue serves \
     hundreds of clients fairly: refused requests are NAKed and retried, \
     admitted ones share disk sweeps, and no client starves";
  let n_clients = 200 in
  let slots = 16 in
  let n_files = 40 in
  let file_bytes = 2000 in
  let _drive, fs = fresh () in
  let clock = Fs.clock fs in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  (* The served corpus: [n_files] catalogued files whose contents every
     client can recompute for verification. *)
  let fill_names = Array.init n_files (fun k -> Printf.sprintf "Srv%02d.dat" k) in
  let fill_bodies = Array.init n_files (fun k -> body k file_bytes) in
  Array.iteri
    (fun k name -> ignore (make_file fs root name file_bytes k : File.t))
    fill_names;
  let net = Net.create ~clock () in
  let server_name = "fs" in
  let server_station = Net.attach net ~name:server_name in
  let srv = File_server.create ~max_active:slots fs server_station in
  let stations =
    Array.init n_clients (fun i -> Net.attach net ~name:(Printf.sprintf "c%03d" i))
  in
  let put_body i = body (1000 + i) 400 in
  (* Client [i]'s [c]-th op: 6 GETs, 3 PUTs, 1 LIST per 10, phase-shifted
     per client so every round offers a mixed load. *)
  let op_of i c =
    match (i + c) mod 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> `Get (((i * 7) + (c * 3)) mod n_files)
    | 6 | 7 | 8 -> `Put
    | _ -> `List
  in
  let okc r = ok File_server.Client.pp_error r in
  let completed = Array.make n_clients 0 in
  let naks = Array.make n_clients 0 in
  let inflight = Array.make n_clients false in
  let sent_at = Array.make n_clients 0 in
  let h_wait = Obs.histogram "e18.client_wait_us" in
  let send_op i =
    let st = stations.(i) in
    (match op_of i completed.(i) with
    | `Get k -> okc (File_server.Client.send_get st ~server:server_name ~name:fill_names.(k))
    | `Put ->
        okc
          (File_server.Client.send_put st ~server:server_name
             ~name:(Printf.sprintf "Cl%03d.out" i)
             (put_body i))
    | `List -> okc (File_server.Client.send_list st ~server:server_name));
    sent_at.(i) <- Sim_clock.now_us clock;
    inflight.(i) <- true
  in
  let poll i =
    match File_server.Client.poll_reply stations.(i) with
    | None -> failwith "E18: a client is owed a reply the server never sent"
    | Some (Error File_server.Client.Busy) ->
        (* NAKed at admission: the op stays pending ([completed] did not
           move, so the same op is regenerated) and is resent next round. *)
        naks.(i) <- naks.(i) + 1;
        inflight.(i) <- false
    | Some (Error e) ->
        Format.kasprintf failwith "E18: client %d: %a" i File_server.Client.pp_error e
    | Some (Ok reply) ->
        (match (op_of i completed.(i), reply) with
        | `Get k, File_server.Client.File (name, contents) ->
            if not (String.equal name fill_names.(k)) then
              failwith "E18: GET returned the wrong file";
            if not (String.equal contents fill_bodies.(k)) then
              failwith "E18: GET returned corrupted contents"
        | `Put, File_server.Client.Ack -> ()
        | `List, File_server.Client.File (name, contents) ->
            if not (String.equal name ";listing") then
              failwith "E18: LIST reply under the wrong name";
            if
              not
                (List.mem fill_names.(0)
                   (String.split_on_char '\n' contents))
            then failwith "E18: listing is missing a served file"
        | _ -> failwith "E18: reply kind does not match the request");
        Obs.observe h_wait (Sim_clock.now_us clock - sent_at.(i));
        completed.(i) <- completed.(i) + 1;
        inflight.(i) <- false
  in
  (* The server's books are the registry's [server.*] metrics: this
     run's share is what they gain while it runs. *)
  let books0 =
    List.map
      (fun name -> (name, counter name))
      [ "server.get_us"; "server.put_us"; "server.list_us"; "server.naks"; "server.send_errors" ]
  in
  let gained name = counter name - List.assoc name books0 in
  let t0 = Sim_clock.now_us clock in
  (* One full rotation of the send order: every client leads the queue
     an equal number of rounds, so fairness is a property the admission
     discipline must deliver, not one the script smuggles in. *)
  let iterations = n_clients in
  for iter = 0 to iterations - 1 do
    for k = 0 to n_clients - 1 do
      let i = (iter + k) mod n_clients in
      if not inflight.(i) then send_op i
    done;
    while File_server.tick srv > 0 do
      ()
    done;
    Array.iteri (fun i f -> if f then poll i) inflight
  done;
  let elapsed = Sim_clock.now_us clock - t0 in
  let reqs = Array.fold_left ( + ) 0 completed in
  let total_naks = Array.fold_left ( + ) 0 naks in
  let c_min = Array.fold_left min max_int completed in
  let c_max = Array.fold_left max 0 completed in
  if c_min = 0 then failwith "E18: a client starved (zero completed requests)";
  let fairness = float_of_int c_max /. float_of_int c_min in
  (* Milli-requests per second: integer, but fine-grained enough that
     the regression gate's 15% band means something. *)
  let throughput_mrps =
    if elapsed = 0 then 0 else reqs * 1_000_000_000 / elapsed
  in
  (* The CI gate's handles: throughput (15% band) and fairness (absolute
     ceiling), recorded as counters so the JSON carries them. *)
  Obs.add (Obs.counter "e18.throughput_mrps") throughput_mrps;
  Obs.add (Obs.counter "e18.fairness_x100")
    (int_of_float (ceil (fairness *. 100.)));
  let gets = gained "server.get_us" and puts = gained "server.put_us" in
  let lists = gained "server.list_us" in
  if gets + puts + lists <> reqs then
    failwith "E18: the server's books disagree with the clients'";
  if gained "server.naks" <> total_naks then
    failwith "E18: NAK counts disagree between server and clients";
  print_table [ 30; 16 ]
    [ "measure"; "value" ]
    [
      [ "clients"; string_of_int n_clients ];
      [ "activity slots"; string_of_int slots ];
      [ "requests completed"; string_of_int reqs ];
      [ "  gets / puts / lists";
        Printf.sprintf "%d / %d / %d" gets puts lists ];
      [ "admission NAKs"; string_of_int total_naks ];
      [ "reply send errors"; string_of_int (gained "server.send_errors") ];
      [ "elapsed (sim)"; us_to_string elapsed ];
      [ "throughput"; Printf.sprintf "%.2f reqs/s" (float_of_int throughput_mrps /. 1000.) ];
      [ "per-client completed"; Printf.sprintf "min %d  max %d" c_min c_max ];
      [ "fairness (max/min)"; Printf.sprintf "%.2f" fairness ];
      [ "client wait p50"; us_to_string (hist_p "e18.client_wait_us" 50) ];
      [ "client wait p99"; us_to_string (hist_p "e18.client_wait_us" 99) ];
      [ "server req p99"; us_to_string (hist_p "server.req_us" 99) ];
      [ "disk.op_us p99 under load"; us_to_string (hist_p "disk.op_us" 99) ];
      [ "shared sweeps"; string_of_int (counter "server.activities.shared_sweeps") ];
      [ "merged batches"; string_of_int (counter "disk.sched.merged_batches") ];
    ];
  if n_clients < 200 then failwith "E18: the acceptance floor is 200 clients";
  if total_naks = 0 then
    failwith "E18: overload never tripped admission control (no NAKs)";
  if fairness > 2.0 then
    Format.kasprintf failwith
      "E18: fairness %.2f exceeds the 2.0 ceiling (min %d, max %d)" fairness
      c_min c_max;
  if counter "disk.sched.merged_batches" = 0 then
    failwith "E18: concurrent conversations never shared an elevator sweep";
  print_endline
    "shape: overload is refused at the door, not absorbed: the table\n\
     admits a bounded crew whose page requests merge into shared C-SCAN\n\
     sweeps, the rest hear NAK and retry, and one full rotation of the\n\
     send order completes every client within 2x of every other."

(* E19 — beyond the paper's single machine: M Altos, each a full volume
   on its own fallible drive, hold byte-identical replicas and audit
   each other over a lossy network (lib/server/replica.ml). The scenario
   is the worst day §3.5's recovery discipline can imagine: soft errors
   on every pack, a net that drops/duplicates/delays, and one node whose
   pack dies wholesale mid-audit — it must be rebuilt byte-identical
   from the crowd while a survivor keeps serving files. *)
let e19 () =
  heading "E19  replicated Altos survive whole-pack loss";
  claim
    "three replicas auditing each other over a lossy net rebuild a \
     wholly lost pack byte-identically while a survivor keeps serving, \
     with zero pages lost";
  let m = 3 in
  let geometry =
    { Geometry.diablo_31 with Geometry.model = "mid"; cylinders = 50 }
  in
  let clock = Sim_clock.create () in
  (* The audit rides this net, and this net lies. *)
  let net = Net.create ~clock () in
  let drives = Array.init m (fun _ -> Drive.create ~clock ~pack_id:1 geometry) in
  let sector_count = Drive.sector_count drives.(0) in
  let fs0 = Fs.format drives.(0) in
  let root = ok Directory.pp_error (Directory.open_root fs0) in
  let n_files = 64 in
  let file_bytes = 4000 in
  let fill_names = Array.init n_files (fun k -> Printf.sprintf "Repl%02d.dat" k) in
  let fill_bodies = Array.init n_files (fun k -> body k file_bytes) in
  Array.iteri
    (fun k name -> ignore (make_file fs0 root name file_bytes k : File.t))
    fill_names;
  (match Fs.flush fs0 with Ok () -> () | Error _ -> failwith "E19: flush");
  (* Provision the replicas the way real ones would be: clone the built
     pack sector-for-sector (replaying the ops would not be
     byte-identical — leader pages carry creation timestamps). *)
  for i = 1 to m - 1 do
    for s = 0 to sector_count - 1 do
      let sec = Drive.peek drives.(0) (Disk_address.of_index s) in
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Header
        (Sector.part_of sec Sector.Header);
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Label
        (Sector.part_of sec Sector.Label);
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Value
        (Sector.part_of sec Sector.Value)
    done
  done;
  (* Every pack is fallible: a base soft-error rate plus a few marginal
     sectors per drive (degrade_after is huge — wear, not death; whole-
     pack death is node C's job today). *)
  Array.iteri
    (fun i d ->
      Drive.set_soft_errors d ~seed:(101 + i) ~rate:0.002;
      List.iter
        (fun s ->
          Drive.set_marginal d (Disk_address.of_index s) ~rate:0.05
            ~growth:1.1 ~degrade_after:1_000_000)
        [ 37 + (i * 11); 205 + (i * 17); 611 + (i * 23) ])
    drives;
  (* And the net lies: seeded drop, duplication and delay. *)
  Net.set_faults net ~drop:0.05 ~dup:0.03 ~delay:0.10 ~delay_us:2_000
    ~seed:19 ();
  let fleet = Replica.create ~clock net in
  let node_names = [| "alto-a"; "alto-b"; "alto-c" |] in
  let nodes =
    Array.init m (fun i ->
        let fs =
          if i = 0 then fs0
          else
            match Fs.mount drives.(i) with
            | Ok fs -> fs
            | Error msg -> failwith ("E19: mount replica: " ^ msg)
        in
        Replica.join fleet ~name:node_names.(i) fs)
  in
  let a = nodes.(0) and c = nodes.(2) in
  (* Survivor A also runs the file service. The service LAN is a second,
     clean net on the same clock — the audit's lossy internet is between
     machines; the probe client sits next to the server. *)
  let service_net = Net.create ~clock () in
  let server_station = Net.attach service_net ~name:"fs" in
  let srv = File_server.create fs0 server_station in
  let probe = Net.attach service_net ~name:"probe" in
  let fetches = ref 0 in
  let probe_k = ref 0 in
  let fetch_one () =
    let k = !probe_k mod n_files in
    incr probe_k;
    match
      File_server.Client.fetch probe ~server:"fs" ~name:fill_names.(k)
        ~pump:(fun () ->
          ignore (File_server.tick srv : int);
          ignore (Replica.tick_fleet fleet : int))
    with
    | Ok contents ->
        if not (String.equal contents fill_bodies.(k)) then
          failwith "E19: GET during rebuild returned corrupted contents";
        incr fetches
    | Error e ->
        Format.kasprintf failwith "E19: GET during rebuild: %a"
          File_server.Client.pp_error e
  in
  (* One clean lap so every node has audited the whole pack once. *)
  let all_reached target =
    Array.for_all (fun n -> Replica.laps n >= target) nodes
  in
  if not (Replica.run_until fleet (fun () -> all_reached 1)) then
    failwith "E19: fleet stalled during the clean lap";
  (* Mid-audit, node C's pack dies wholesale. *)
  if not (Replica.run_until fleet (fun () -> Replica.cursor c >= sector_count / 2))
  then failwith "E19: fleet stalled approaching the kill point";
  let junk_label = Array.make Sector.label_words (Word.of_int 0xDEAD) in
  let junk_value = Array.make Sector.value_words (Word.of_int 0xDEAD) in
  for s = 0 to sector_count - 1 do
    Drive.poke drives.(2) (Disk_address.of_index s) Sector.Label junk_label;
    Drive.poke drives.(2) (Disk_address.of_index s) Sector.Value junk_value
  done;
  Replica.rejoin c;
  let t_rejoin = Sim_clock.now_us clock in
  let rebuilt_target = Replica.laps c + 1 in
  (* Drive the rebuild to completion, fetching files from A throughout:
     the fleet ticks between fetches and inside each fetch's pump, so
     serving and rebuilding interleave on the shared clock. *)
  let rebuild_us = ref 0 in
  let steps = ref 0 in
  let max_steps = 80_000_000 in
  while
    (!rebuild_us = 0 || not (all_reached (rebuilt_target + 1)))
    && !steps < max_steps
  do
    incr steps;
    ignore (Replica.tick_fleet fleet : int);
    if !steps mod 128 = 0 then fetch_one ();
    if
      !rebuild_us = 0
      && Replica.laps c >= rebuilt_target
      && not (Replica.rebuilding c)
    then rebuild_us := Sim_clock.now_us clock - t_rejoin
  done;
  if !rebuild_us = 0 then failwith "E19: the rebuild never completed";
  (* The verdicts. *)
  let reference =
    List.init sector_count (fun s ->
        let sec = Drive.peek drives.(0) (Disk_address.of_index s) in
        ( Array.to_list (Sector.part_of sec Sector.Header),
          Array.to_list (Sector.part_of sec Sector.Label),
          Array.to_list (Sector.part_of sec Sector.Value) ))
  in
  Array.iteri
    (fun i d ->
      if i > 0 then
        let image =
          List.init sector_count (fun s ->
              let sec = Drive.peek d (Disk_address.of_index s) in
              ( Array.to_list (Sector.part_of sec Sector.Header),
                Array.to_list (Sector.part_of sec Sector.Label),
                Array.to_list (Sector.part_of sec Sector.Value) ))
        in
        if image <> reference then
          Format.kasprintf failwith
            "E19: pack %d is not byte-identical to pack 0 after the rebuild" i)
    drives;
  let lost = Array.fold_left (fun acc n -> acc + Replica.pages_lost n) 0 nodes in
  let dropped, duped, delayed = Net.fault_census net in
  (* The CI gate's handles: rebuild time (15% band) and pages lost
     (absolute zero), recorded as counters so the JSON carries them. *)
  let rebuild_s = !rebuild_us / 1_000_000 in
  Obs.add (Obs.counter "e19.rebuild_s") rebuild_s;
  Obs.add (Obs.counter "e19.pages_lost") lost;
  Obs.add (Obs.counter "e19.fetches_during_rebuild") !fetches;
  print_table [ 30; 18 ]
    [ "measure"; "value" ]
    [
      [ "replicas"; string_of_int m ];
      [ "pack"; Printf.sprintf "%d sectors" sector_count ];
      [ "corpus"; Printf.sprintf "%d files x %d B" n_files file_bytes ];
      [ "net faults (drop/dup/delay)"; "5% / 3% / 10%" ];
      [ "  census";
        Printf.sprintf "%d / %d / %d" dropped duped delayed ];
      [ "slices audited"; string_of_int (counter "repl.audits") ];
      [ "divergent votes"; string_of_int (counter "repl.divergent") ];
      [ "slices repaired"; string_of_int (counter "repl.repairs") ];
      [ "pages repaired"; string_of_int (counter "repl.pages_repaired") ];
      [ "bytes repaired"; string_of_int (counter "repl.bytes_repaired") ];
      [ "request timeouts / resends";
        Printf.sprintf "%d / %d"
          (counter "repl.timeouts") (counter "repl.resends") ];
      [ "digest rtt p50 / p99";
        Printf.sprintf "%s / %s"
          (us_to_string (hist_p "repl.rtt_us" 50))
          (us_to_string (hist_p "repl.rtt_us" 99)) ];
      [ "slice repair p99"; us_to_string (hist_p "repl.repair_us" 99) ];
      [ "whole-pack rebuild"; us_to_string !rebuild_us ];
      [ "GETs served during rebuild"; string_of_int !fetches ];
      [ "pages lost"; string_of_int lost ];
    ];
  if counter "repl.repairs" = 0 then
    failwith "E19: the audit never repaired anything (gates watch silence)";
  if counter "repl.timeouts" = 0 then
    failwith "E19: the lossy net never tripped the request timeout";
  if !fetches = 0 then
    failwith "E19: the survivor served nothing during the rebuild";
  if Replica.pages_served a = 0 then
    failwith "E19: survivor A never served a repair page";
  if lost <> 0 then
    Format.kasprintf failwith "E19: %d pages lost (the gate holds this at 0)"
      lost;
  print_endline
    "shape: whole-pack death is one more fault class: the crowd votes\n\
     the reformatted node divergent slice by slice and streams it back\n\
     byte-identical through a lying net, the survivor keeps serving\n\
     files the whole time, and nothing is lost."

(* E20 — the write-back track cache at work, before/after on the
   workload it was built for. Record rewrites: a program updates a
   small record in the middle of every page of a database file — each
   update is a read-modify-write, the worst case for a write-through
   disk (two rotational waits per page). With the cache, the read side
   takes each page as it passes under the heads (a miss fills from
   where they land through the page wanted) and the write side is
   absorbed and delayed; the final flush coalesces a hundred page
   writes into a handful of contiguous track sweeps. *)
let e20 () =
  heading "E20  write coalescing";
  claim "delayed track write-back coalesces read-modify-write traffic";
  let page_bytes = 2 * Sector.value_words in
  (* Rewrite a 16-byte record in the middle of every page. *)
  let rewrite_records ~cached =
    let _drive, fs = fresh () in
    if not cached then Bio.set_tracks (Fs.bio fs) 0;
    let root = ok Directory.pp_error (Directory.open_root fs) in
    let pages = 100 in
    let file = make_file fs root "Records.dat" (pages * page_bytes) 3 in
    let clock = Drive.clock (Fs.drive fs) in
    let (), us =
      timed clock (fun () ->
          for k = 0 to pages - 1 do
            ok File.pp_error
              (File.write_bytes file ~pos:((k * page_bytes) + 200) (body (k + 7) 16))
          done;
          (* The delayed writes are part of the work: time the flush. *)
          settle fs)
    in
    (pages, us)
  in
  let pages, uncached_us = rewrite_records ~cached:false in
  let _, cached_us = rewrite_records ~cached:true in
  Obs.add (Obs.counter "e20.rmw_uncached_us") uncached_us;
  Obs.add (Obs.counter "e20.rmw_cached_us") cached_us;
  print_table [ 34; 14; 14; 9 ]
    [ "workload"; "before"; "after"; "speedup" ]
    [
      [ Printf.sprintf "record rewrite, %d pages" pages;
        us_to_string uncached_us; us_to_string cached_us;
        Printf.sprintf "%.1fx" (float_of_int uncached_us /. float_of_int cached_us) ];
    ];
  if cached_us >= uncached_us then
    failwith "E20: the track cache did not speed up record rewrites";
  print_endline
    "shape: read-modify-write traffic collapses once reads hit filled\n\
     tracks and writes leave coalesced."

(* The crash-point sweep behind E21 and the grid: [points] crash points
   per workload (each in three variants), then the same points replayed
   against a whole-pack scavenge. Prints the totals, with boot's
   whole-pack fallbacks split by cause, and each violation and
   disagreement. *)
let crash_sweep ~points ~trials =
  let causes =
    [
      ("unmountable", Recovery.Unmountable);
      ("the map covers the whole pack", Recovery.Whole_pack);
      ("the root directory needs repair", Recovery.Unsettled Scavenger.root_needs_repair);
      ("another repair refusal", Recovery.Unsettled "");
    ]
  in
  let fallbacks () =
    List.map (fun (_, cause) -> Obs.counter_value (Recovery.counter_of cause)) causes
  in
  let fallbacks0 = fallbacks () in
  let t = Crash_harness.run ~points_per_workload:points () in
  let by_cause = List.map2 ( - ) (fallbacks ()) fallbacks0 in
  let compared, disagreements = Crash_harness.differential ~points_per_workload:points () in
  let mean_cylinders =
    if t.Crash_harness.through_map = 0 then 0.0
    else
      float_of_int t.Crash_harness.cylinders_read
      /. float_of_int t.Crash_harness.through_map
  in
  print_table [ 36; 10 ]
    [ "crash-point sweep"; "count" ]
    ([
      [ trials; string_of_int t.Crash_harness.trials ];
      [ "crash points fired"; string_of_int t.Crash_harness.crash_points ];
      [ "  of which torn"; string_of_int t.Crash_harness.torn_points ];
      [ "dirty boots"; string_of_int t.Crash_harness.dirty_boots ];
      [ "  recovered through the map"; string_of_int t.Crash_harness.through_map ];
      [ "    mean cylinders read"; Printf.sprintf "%.1f" mean_cylinders ];
      [ "  fallbacks to a boot scavenge"; string_of_int t.Crash_harness.fallbacks ];
    ]
    @ List.map2 (fun (why, _) n -> [ "    " ^ why; string_of_int n ]) causes by_cause
    @ [
      [ "flight records adopted"; string_of_int t.Crash_harness.flight_adoptions ];
      [ "settled at boot"; string_of_int t.Crash_harness.settled_at_boot ];
      [ "escalations to scavenge"; string_of_int t.Crash_harness.scavenges ];
      [ "advisory fsck findings"; string_of_int t.Crash_harness.findings ];
      [ "invariant violations"; string_of_int t.Crash_harness.violations ];
      [ "agreeing with a scavenge";
        Printf.sprintf "%d/%d" (compared - List.length disagreements) compared ];
    ]);
  List.iter
    (fun v -> print_endline ("  VIOLATION " ^ v))
    t.Crash_harness.violation_log;
  List.iter (fun d -> print_endline ("  DISAGREES " ^ d)) disagreements;
  (t, compared, disagreements)

(* E21 — §3.3/§3.5: every crash point survivable. The harness kills the
   machine at every Nth writing operation of five metadata-mutating
   workloads — cleanly, or tearing the fatal sector's label or value —
   then boots recovery and interrogates the pack with the offline
   checker plus a byte-level read-back of every committed file. *)
let e21 () =
  heading "E21  crash-point injection: recovery from every torn write";
  claim
    "recovery (through the write-ahead map, or boot's whole-pack scavenge \
     where the map cannot serve) survives every enumerated crash point \
     with zero invariant violations and zero escalations, and agrees with \
     a whole-pack scavenge at every one";
  let t, compared, disagreements =
    crash_sweep ~points:15 ~trials:"trials (5 workloads x 15 x 3)"
  in
  Obs.add (Obs.counter "e21.trials") t.Crash_harness.trials;
  Obs.add (Obs.counter "e21.crash_points") t.Crash_harness.crash_points;
  Obs.add (Obs.counter "e21.torn_points") t.Crash_harness.torn_points;
  Obs.add (Obs.counter "e21.dirty_boots") t.Crash_harness.dirty_boots;
  Obs.add (Obs.counter "e21.through_map") t.Crash_harness.through_map;
  Obs.add (Obs.counter "e21.cylinders_read") t.Crash_harness.cylinders_read;
  Obs.add (Obs.counter "e21.fallbacks") t.Crash_harness.fallbacks;
  Obs.add (Obs.counter "e21.flight_adoptions") t.Crash_harness.flight_adoptions;
  Obs.add (Obs.counter "e21.settled_at_boot") t.Crash_harness.settled_at_boot;
  Obs.add (Obs.counter "e21.scavenges") t.Crash_harness.scavenges;
  Obs.add (Obs.counter "e21.fsck_findings") t.Crash_harness.findings;
  Obs.add (Obs.counter "e21.invariant_violations") t.Crash_harness.violations;
  Obs.add (Obs.counter "e21.differential_points") compared;
  Obs.add (Obs.counter "e21.differential_disagreements") (List.length disagreements);
  if t.Crash_harness.crash_points < 200 then
    failwith "E21: fewer than 200 crash points fired";
  if t.Crash_harness.torn_points = 0 then
    failwith "E21: no torn-sector variants fired";
  if t.Crash_harness.violations <> 0 then
    failwith "E21: a crash point broke a recovery invariant";
  if t.Crash_harness.scavenges <> 0 then
    failwith "E21: a crash point escalated to a scavenge after boot";
  if disagreements <> [] then
    failwith "E21: recovery through the map disagreed with a whole-pack scavenge";
  print_endline
    "shape: every crash leaves its pack dirty, compaction and world swap\n\
     included; boot reads only the cylinders the write-ahead map names\n\
     and the checker certifies the pack it leaves, with no escalation.\n\
     Where the map cannot serve (a compaction maps the whole pack, a\n\
     damaged root) boot scavenges whole; a torn descriptor page leaves\n\
     the other record slot to mount from.\n\
     Every recovery leaves the catalogue and the readable bytes a\n\
     whole-pack scavenge leaves."

(* The every-write crash grid: E21's sweep at 1,000 points per workload,
   more than any workload writes, so every write of every workload is a
   crash point, in each variant. Too slow for the smoke selection; run
   on its own as a gate. *)
let grid () =
  heading "grid  every-write crash grid (E21 at 1,000 points per workload)";
  let t, _, disagreements =
    crash_sweep ~points:1000 ~trials:"trials (every write x 3)"
  in
  if t.Crash_harness.violations <> 0 then
    failwith "grid: a crash point broke a recovery invariant";
  if t.Crash_harness.scavenges <> 0 then
    failwith "grid: a crash point escalated to a scavenge after boot";
  if t.Crash_harness.findings <> 0 then
    failwith "grid: fsck found something after a recovery";
  if disagreements <> [] then
    failwith "grid: recovery through the map disagreed with a whole-pack scavenge"

(* E22 — observability for everything E18 and E19 exercise: every
   request minted as a causal trace at the client, carried through
   admission, activity switches and shared elevator sweeps, and over the
   replica fleet's lying wire. The experiment's claim is an accounting
   identity: after an overloaded file service run and a fleet
   divergence repair, the sum of per-request disk attribution plus the
   untraced bucket equals the drive's own motion counters — shared
   sweeps pro-rated, duplicated packets billed once, abandoned requests
   still charged for the work done on their behalf. *)
let e22 () =
  heading "E22  request-scoped causal tracing under load and repair";
  claim
    "per-request disk attribution balances the drive's motion counters \
     within 1% (target 0%) across an overloaded file service and a \
     replica repair over a faulty net, and the traces decompose each \
     request's life into queue wait vs service";
  let module Trace = Alto_obs.Trace in
  let started0 = counter "trace.started" in
  let completed0 = counter "trace.completed" in
  let dups0 = counter "trace.remote_dups" in
  let prorated0 = counter "disk.sched.prorated_seek_us" in
  let repairs0 = counter "repl.repairs" in
  (* {3 Part A: E18's shape at reduced scale, traced end to end} *)
  let n_clients = 64 in
  let slots = 8 in
  let n_files = 16 in
  let file_bytes = 2000 in
  let _drive, fs = fresh () in
  let clock = Fs.clock fs in
  let root = ok Directory.pp_error (Directory.open_root fs) in
  let fill_names = Array.init n_files (fun k -> Printf.sprintf "Tr%02d.dat" k) in
  let fill_bodies = Array.init n_files (fun k -> body k file_bytes) in
  Array.iteri
    (fun k name -> ignore (make_file fs root name file_bytes k : File.t))
    fill_names;
  let net = Net.create ~clock () in
  let server_station = Net.attach net ~name:"fs" in
  let srv = File_server.create ~max_active:slots fs server_station in
  let stations =
    Array.init n_clients (fun i -> Net.attach net ~name:(Printf.sprintf "t%03d" i))
  in
  let op_of i c =
    match (i + c) mod 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> `Get (((i * 7) + (c * 3)) mod n_files)
    | 6 | 7 | 8 -> `Put
    | _ -> `List
  in
  let okc r = ok File_server.Client.pp_error r in
  let completed = Array.make n_clients 0 in
  let inflight = Array.make n_clients false in
  let send_op i =
    let st = stations.(i) in
    (match op_of i completed.(i) with
    | `Get k ->
        okc (File_server.Client.send_get st ~server:"fs" ~name:fill_names.(k))
    | `Put ->
        okc
          (File_server.Client.send_put st ~server:"fs"
             ~name:(Printf.sprintf "Tc%03d.out" i)
             (body (1000 + i) 400))
    | `List -> okc (File_server.Client.send_list st ~server:"fs"));
    inflight.(i) <- true
  in
  let poll i =
    match File_server.Client.poll_reply stations.(i) with
    | None -> failwith "E22: a client is owed a reply the server never sent"
    | Some (Error File_server.Client.Busy) -> inflight.(i) <- false
    | Some (Error e) ->
        Format.kasprintf failwith "E22: client %d: %a" i
          File_server.Client.pp_error e
    | Some (Ok reply) ->
        (match (op_of i completed.(i), reply) with
        | `Get k, File_server.Client.File (_, contents) ->
            if not (String.equal contents fill_bodies.(k)) then
              failwith "E22: GET returned corrupted contents"
        | `Put, File_server.Client.Ack -> ()
        | `List, File_server.Client.File (name, _) ->
            if not (String.equal name ";listing") then
              failwith "E22: LIST reply under the wrong name"
        | _ -> failwith "E22: reply kind does not match the request");
        completed.(i) <- completed.(i) + 1;
        inflight.(i) <- false
  in
  for iter = 0 to 47 do
    for k = 0 to n_clients - 1 do
      let i = (iter + k) mod n_clients in
      if not inflight.(i) then send_op i
    done;
    while File_server.tick srv > 0 do
      ()
    done;
    Array.iteri (fun i f -> if f then poll i) inflight
  done;
  let service_reqs = Array.fold_left ( + ) 0 completed in
  (* {3 Part B: a fleet divergence repair over a lying wire, traced} *)
  let m = 3 in
  let geometry =
    { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 10 }
  in
  let rclock = Sim_clock.create () in
  let rnet = Net.create ~clock:rclock () in
  let drives = Array.init m (fun _ -> Drive.create ~clock:rclock ~pack_id:1 geometry) in
  let sector_count = Drive.sector_count drives.(0) in
  let rfs0 = Fs.format drives.(0) in
  let rroot = ok Directory.pp_error (Directory.open_root rfs0) in
  for k = 0 to 7 do
    ignore
      (make_file rfs0 rroot (Printf.sprintf "Rp%02d.dat" k) 1500 k : File.t)
  done;
  (match Fs.flush rfs0 with Ok () -> () | Error _ -> failwith "E22: flush");
  for i = 1 to m - 1 do
    for s = 0 to sector_count - 1 do
      let sec = Drive.peek drives.(0) (Disk_address.of_index s) in
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Header
        (Sector.part_of sec Sector.Header);
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Label
        (Sector.part_of sec Sector.Label);
      Drive.poke drives.(i) (Disk_address.of_index s) Sector.Value
        (Sector.part_of sec Sector.Value)
    done
  done;
  (* Dup-heavy faults: resends and duplicated requests must be billed to
     their trace exactly once — the balance check below would expose a
     double charge as drift. *)
  Net.set_faults rnet ~drop:0.02 ~dup:0.05 ~delay:0.08 ~delay_us:2_000
    ~seed:22 ();
  let fleet = Replica.create ~clock:rclock rnet in
  let node_names = [| "tr-a"; "tr-b"; "tr-c" |] in
  let nodes =
    Array.init m (fun i ->
        let nfs =
          if i = 0 then rfs0
          else
            match Fs.mount drives.(i) with
            | Ok nfs -> nfs
            | Error msg -> failwith ("E22: mount replica: " ^ msg)
        in
        Replica.join fleet ~name:node_names.(i) nfs)
  in
  (* Diverge node C over a band of sectors, then let the audit vote it
     back: each repaired slice rides the auditing node's trace. *)
  let junk_value = Array.make Sector.value_words (Word.of_int 0xBEEF) in
  for s = sector_count / 4 to sector_count / 2 do
    Drive.poke drives.(2) (Disk_address.of_index s) Sector.Value junk_value
  done;
  let all_reached target =
    Array.for_all (fun n -> Replica.laps n >= target) nodes
  in
  if not (Replica.run_until fleet (fun () -> all_reached 2)) then
    failwith "E22: fleet stalled during the traced audit";
  (* {3 The balance sheet} *)
  let a_seek, a_rot, a_xfer = Trace.attributed () in
  let u_seek, u_rot, u_xfer = Trace.untraced () in
  let accounted = a_seek + a_rot + a_xfer + u_seek + u_rot + u_xfer in
  let drive_total =
    counter "disk.seek_us" + counter "disk.rotational_wait_us"
    + counter "disk.transfer_us"
  in
  let drift_pct =
    if drive_total = 0 then 0
    else
      int_of_float
        (ceil
           (float_of_int (abs (accounted - drive_total))
           *. 100.
           /. float_of_int drive_total))
  in
  let traced_started = counter "trace.started" - started0 in
  let traced_completed = counter "trace.completed" - completed0 in
  let remote_dups = counter "trace.remote_dups" - dups0 in
  let prorated_us = counter "disk.sched.prorated_seek_us" - prorated0 in
  let repairs = counter "repl.repairs" - repairs0 in
  Obs.add (Obs.counter "e22.attribution_drift_pct") drift_pct;
  Obs.add (Obs.counter "e22.traced_requests") traced_completed;
  Obs.add (Obs.counter "e22.queue_wait_p99_us") (hist_p "trace.wait_us" 99);
  Obs.add (Obs.counter "e22.service_p99_us") (hist_p "trace.service_us" 99);
  print_table [ 34; 18 ]
    [ "measure"; "value" ]
    [
      [ "service clients / slots"; Printf.sprintf "%d / %d" n_clients slots ];
      [ "service requests completed"; string_of_int service_reqs ];
      [ "fleet repairs (traced)"; string_of_int repairs ];
      [ "traces started / completed";
        Printf.sprintf "%d / %d" traced_started traced_completed ];
      [ "remote dups suppressed"; string_of_int remote_dups ];
      [ "attributed seek/rot/xfer";
        Printf.sprintf "%d / %d / %d us" a_seek a_rot a_xfer ];
      [ "untraced seek/rot/xfer";
        Printf.sprintf "%d / %d / %d us" u_seek u_rot u_xfer ];
      [ "pro-rated entry seeks"; Printf.sprintf "%d us" prorated_us ];
      [ "accounted vs drive";
        Printf.sprintf "%d vs %d us" accounted drive_total ];
      [ "attribution drift"; Printf.sprintf "%d%%" drift_pct ];
      [ "queue wait p50 / p99";
        Printf.sprintf "%s / %s"
          (us_to_string (hist_p "trace.wait_us" 50))
          (us_to_string (hist_p "trace.wait_us" 99)) ];
      [ "service p50 / p99";
        Printf.sprintf "%s / %s"
          (us_to_string (hist_p "trace.service_us" 50))
          (us_to_string (hist_p "trace.service_us" 99)) ];
    ];
  if traced_completed = 0 then
    failwith "E22: no request trace ever completed";
  if repairs = 0 then
    failwith "E22: the traced audit never repaired the divergence";
  if prorated_us = 0 then
    failwith "E22: no shared sweep entry seek was ever pro-rated";
  if counter "server.traces_abandoned" <> 0 then
    failwith "E22: a request trace was abandoned in a run with no timeouts";
  if drift_pct > 1 then
    Format.kasprintf failwith
      "E22: attribution drift %d%% exceeds the 1%% ceiling (%d vs %d us)"
      drift_pct accounted drive_total;
  print_endline
    "shape: causality survives multiplexing: every microsecond of head\n\
     motion lands on the request that caused it or in the untraced\n\
     bucket, shared sweeps split their entry seek pro-rata, a lying\n\
     wire's duplicates bill once, and the books balance to the\n\
     microsecond against the drive's own counters."

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
            ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
            ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
            ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
            ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22) ]

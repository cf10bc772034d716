module Word = Alto_machine.Word
module Vm = Alto_machine.Vm
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Scavenger = Alto_fs.Scavenger
module Compactor = Alto_fs.Compactor
module Patrol = Alto_fs.Patrol
module Flight = Alto_fs.Flight
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Stream = Alto_streams.Stream
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display

type outcome = { commands_executed : int; quit : bool }

let command_file_name = "Com.cm"

let say system fmt =
  Format.kasprintf
    (fun s -> Stream.put_line (Display.stream (System.display system)) s)
    fmt

let with_root system f =
  match Directory.open_root (System.fs system) with
  | Error e -> say system "cannot open the root directory: %a" Directory.pp_error e
  | Ok root -> f root

let open_by_name system root name =
  match Directory.lookup root name with
  | Error e ->
      say system "%s: %a" name Directory.pp_error e;
      None
  | Ok None ->
      say system "%s: not found" name;
      None
  | Ok (Some e) -> (
      match File.open_leader (System.fs system) e.Directory.entry_file with
      | Error err ->
          say system "%s: %a" name File.pp_error err;
          None
      | Ok file -> Some file)

(* Make [name] hold [text], creating and cataloguing it if it is new;
   failures are reported under the heading [cmd]. *)
let store system root ~cmd name text =
  match Directory.open_or_create root ~name with
  | Error e -> say system "%s: %a" cmd Directory.pp_error e
  | Ok file -> (
      match File.replace file text with
      | Ok () -> ()
      | Error err -> say system "%s: %a" cmd File.pp_error err)

(* §4: the command scanner records the command line in a file with a
   standard name before transferring control. *)
let record_command system line =
  with_root system (fun root ->
      store system root ~cmd:("warning: " ^ command_file_name) command_file_name line)

let cmd_ls system =
  with_root system (fun root ->
      match Directory.entries root with
      | Error e -> say system "ls: %a" Directory.pp_error e
      | Ok entries ->
          List.iter
            (fun (e : Directory.entry) ->
              match File.open_leader (System.fs system) e.Directory.entry_file with
              | Ok f -> say system "%-24s %6d bytes" e.Directory.entry_name (File.byte_length f)
              | Error _ -> say system "%-24s (unreadable)" e.Directory.entry_name)
            entries;
          say system "%d free pages" (Fs.free_count (System.fs system)))

let cmd_type system name =
  with_root system (fun root ->
      match open_by_name system root name with
      | None -> ()
      | Some file -> (
          match File.read_bytes file ~pos:0 ~len:(File.byte_length file) with
          | Error e -> say system "type: %a" File.pp_error e
          | Ok bytes -> say system "%s" (Bytes.to_string bytes)))

let cmd_put system name text = with_root system (fun root -> store system root ~cmd:"put" name text)

let cmd_delete system name =
  with_root system (fun root ->
      match open_by_name system root name with
      | None -> ()
      | Some file -> (
          match File.delete file with
          | Error e -> say system "delete: %a" File.pp_error e
          | Ok () -> (
              match Directory.remove root name with
              | Ok _ -> ()
              | Error e -> say system "delete: %a" Directory.pp_error e)))

let cmd_rename system old_name new_name =
  with_root system (fun root ->
      match Directory.lookup root old_name with
      | Error e -> say system "rename: %a" Directory.pp_error e
      | Ok None -> say system "rename: %s not found" old_name
      | Ok (Some e) -> (
          match Directory.add root ~name:new_name e.Directory.entry_file with
          | Error err -> say system "rename: %a" Directory.pp_error err
          | Ok () -> (
              match Directory.remove root old_name with
              | Ok _ -> ()
              | Error err -> say system "rename: %a" Directory.pp_error err)))

let cmd_scavenge system =
  (* The scavenger reads the raw pack; push delayed track-buffer writes
     to the platter first so the rebuild sees every acknowledged page. *)
  ignore (Alto_fs.Bio.flush (Fs.bio (System.fs system)));
  match Scavenger.scavenge (System.drive system) with
  | Error msg -> say system "scavenge failed: %s" msg
  | Ok (fs, report) ->
      System.set_fs system fs;
      say system "%a" Scavenger.pp_report report

(* The offline checker run against the live pack: flush the delayed
   writes so the platter is current, then read everything back and print
   the damage census. Read-only — the cure for a bad verdict is
   [scavenge], and the checker says so. *)
let cmd_fsck system =
  ignore (Alto_fs.Bio.flush (Fs.bio (System.fs system)));
  let report = Alto_fs.Fsck.check (System.drive system) in
  say system "%a" Alto_fs.Fsck.pp_report report

let cmd_compact system =
  match Compactor.compact (System.fs system) with
  | Error msg -> say system "compact failed: %s" msg
  | Ok (fs, report) ->
      System.set_fs system fs;
      say system "%a" Scavenger.pp_report report

let cmd_levels system =
  let resident = System.resident_level system in
  List.iter
    (fun (l : Level.t) ->
      say system "%2d %s %s (%d words)" l.Level.index
        (if l.Level.index <= resident then "resident" else "removed ")
        l.Level.level_name l.Level.size_words)
    Level.all;
  say system "user space: %d..%d" System.user_base (System.user_boundary system - 1)

let cmd_copy system src_name dst_name =
  with_root system (fun root ->
      match open_by_name system root src_name with
      | None -> ()
      | Some src -> (
          match File.read_bytes src ~pos:0 ~len:(File.byte_length src) with
          | Error e -> say system "copy: %a" File.pp_error e
          | Ok bytes -> store system root ~cmd:"copy" dst_name (Bytes.to_string bytes)))

let cmd_assemble system src_name dst_name =
  with_root system (fun root ->
      match open_by_name system root src_name with
      | None -> ()
      | Some src -> (
          match File.read_bytes src ~pos:0 ~len:(File.byte_length src) with
          | Error e -> say system "assemble: %a" File.pp_error e
          | Ok bytes -> (
              match
                Alto_machine.Asm_text.assemble ~origin:System.user_base
                  (Bytes.to_string bytes)
              with
              | Error msg -> say system "assemble: %s" msg
              | Ok program -> (
                  match Loader.save_program system ~name:dst_name program with
                  | Ok _ -> say system "%s assembled to %s" src_name dst_name
                  | Error e -> say system "assemble: %a" Loader.pp_error e))))

let cmd_compile system src_name dst_name =
  with_root system (fun root ->
      match open_by_name system root src_name with
      | None -> ()
      | Some src -> (
          match File.read_bytes src ~pos:0 ~len:(File.byte_length src) with
          | Error e -> say system "compile: %a" File.pp_error e
          | Ok bytes -> (
              match
                Alto_bcpl.Bcpl.compile ~origin:System.user_base (Bytes.to_string bytes)
              with
              | Error e -> say system "compile: %a" Alto_bcpl.Bcpl.pp_error e
              | Ok program -> (
                  match Loader.save_program system ~name:dst_name program with
                  | Ok _ -> say system "%s compiled to %s" src_name dst_name
                  | Error e -> say system "compile: %a" Loader.pp_error e))))

let cmd_dump system name =
  with_root system (fun root ->
      match open_by_name system root name with
      | None -> ()
      | Some file -> (
          match File.read_words file ~pos:0 ~len:(File.byte_length file / 2) with
          | Error e -> say system "dump: %a" File.pp_error e
          | Ok words -> (
              match Loader.parse_code words with
              | Error e -> say system "dump: %a" Loader.pp_error e
              | Ok parsed ->
                  List.iter (fun line -> say system "%s" line) (Loader.disassemble parsed))))

(* Show the tail of the observability event trace — the flight recorder
   for "what just happened", soft errors and retries included. *)
let cmd_trace system n =
  let module Obs = Alto_obs.Obs in
  let events = Obs.trace () in
  let total = List.length events in
  let tail = if total <= n then events else
    (* Drop all but the last n. *)
    List.filteri (fun i _ -> i >= total - n) events
  in
  if tail = [] then say system "trace: no events recorded"
  else
    List.iter
      (fun (e : Obs.event) ->
        let fields =
          String.concat " "
            (List.map
               (fun (k, v) ->
                 let v =
                   match v with
                   | Obs.I i -> string_of_int i
                   | Obs.S s -> s
                   | Obs.B b -> string_of_bool b
                 in
                 Printf.sprintf "%s=%s" k v)
               e.Obs.fields)
        in
        if fields = "" then
          say system "%8dus %s" e.Obs.ts_us e.Obs.name
        else say system "%8dus %s %s" e.Obs.ts_us e.Obs.name fields)
      tail

(* Show the disk fast path at a glance: the verified-label cache, the
   track buffer cache and the elevator scheduler, plus what the volume
   currently holds in core. *)
let cmd_cache system =
  let module Obs = Alto_obs.Obs in
  let value name =
    match Obs.find name with
    | Some (Obs.Counter n) -> n
    | Some (Obs.Histogram _) | None -> 0
  in
  List.iter
    (fun name -> say system "%-30s %d" name (value name))
    [
      "fs.label_cache.hits";
      "fs.label_cache.misses";
      "fs.label_cache.invalidations";
      "fs.bio.hits";
      "fs.bio.misses";
      "fs.bio.fills";
      "fs.bio.absorbed";
      "fs.bio.flushes";
      "fs.bio.flushed_sectors";
      "fs.bio.evictions";
      "fs.bio.write_conflicts";
      "disk.sched.batches";
      "disk.sched.requests";
      "disk.sched.cylinder_runs";
      "disk.sched.sweeps";
      "disk.sched.merged_batches";
    ];
  say system "%-30s %d" "cached labels"
    (Alto_fs.Label_cache.length (Fs.label_cache (System.fs system)));
  let bio = Fs.bio (System.fs system) in
  say system "%-30s %d" "buffered tracks" (Alto_fs.Bio.cached_tracks bio);
  say system "%-30s %d" "buffered sectors" (Alto_fs.Bio.cached_sectors bio);
  say system "%-30s %d" "dirty sectors" (Alto_fs.Bio.dirty_sectors bio)

(* Flush the track buffer cache's delayed writes on demand and show what
   the delay bought: how many sectors went out, coalesced into how many
   track sweeps, and whether the platter refused any as stale. *)
let cmd_sync system =
  let report = Alto_fs.Bio.flush (Fs.bio (System.fs system)) in
  if report.Alto_fs.Bio.sectors = 0 then say system "sync: nothing dirty"
  else begin
    say system "sync: %d sectors coalesced into %d track sweeps"
      report.Alto_fs.Bio.sectors report.Alto_fs.Bio.tracks;
    if report.Alto_fs.Bio.conflicts > 0 then
      say system "sync: %d delayed writes dropped (sectors re-labelled underneath)"
        report.Alto_fs.Bio.conflicts
  end

(* The volume's self-healing at a glance: how boot recovered the pack,
   whether it would mount clean, where the patrol sweep stands and what
   it has moved to safety, and how full the bad-sector table is. *)
let cmd_health system =
  let fs = System.fs system in
  let patrol = System.patrol system in
  let sectors = Alto_disk.Drive.sector_count (System.drive system) in
  say system "boot:    %a" System.pp_recovery (System.recovery system);
  say system "volume:  %s"
    (match Fs.mapped_cylinders fs with
    | [] -> "clean"
    | [ _ ] -> "dirty - 1 cylinder to recover at next boot"
    | cylinders ->
        Printf.sprintf "dirty - %d cylinders to recover at next boot" (List.length cylinders));
  say system "patrol:  cursor %d/%d, %d laps, %d slices this session"
    (Fs.patrol_cursor fs) sectors (Patrol.laps patrol) (Patrol.slices patrol);
  say system "         %d suspect, %d relocated, %d quarantined, %d lost, %d map repairs"
    (Patrol.suspects_found patrol) (Patrol.relocated patrol)
    (Patrol.quarantined patrol) (Patrol.pages_lost patrol)
    (Patrol.map_repairs patrol);
  say system "bad:     %d of %d bad-sector table entries"
    (List.length (Fs.bad_sector_table fs))
    (Fs.bad_sector_capacity fs)

(* Where the simulated time went, charged to the operation that caused
   it: the causal span tree, then the hottest spans by self time. *)
let cmd_profile system n =
  let root = Prof.tree () in
  if root.Prof.children = [] then say system "profile: no spans recorded"
  else begin
    let line depth (s : Prof.snapshot) =
      let indent = String.make (2 * depth) ' ' in
      let width = max 1 (32 - (2 * depth)) in
      if Prof.disk_us s = 0 then
        say system "%s%-*s %6dx total %9dus self %9dus" indent width s.Prof.name
          s.Prof.calls s.Prof.total_us s.Prof.self_us
      else
        say system
          "%s%-*s %6dx total %9dus self %9dus  disk seek %d rot %d xfer %d retry %d"
          indent width s.Prof.name s.Prof.calls s.Prof.total_us s.Prof.self_us
          s.Prof.seek_us s.Prof.rotation_us s.Prof.transfer_us s.Prof.retry_us
    in
    let rec walk depth s =
      line depth s;
      List.iter (walk (depth + 1)) s.Prof.children
    in
    List.iter (walk 0) root.Prof.children;
    let hot =
      Prof.flatten root
      |> List.filter (fun (s : Prof.snapshot) -> s.Prof.name <> "root")
      |> List.sort (fun (a : Prof.snapshot) b -> compare b.Prof.self_us a.Prof.self_us)
      |> List.filteri (fun i _ -> i < n)
    in
    say system "top %d by self time:" (List.length hot);
    List.iter
      (fun (s : Prof.snapshot) ->
        say system "%-32s %9dus self (%d calls)" s.Prof.name s.Prof.self_us
          s.Prof.calls)
      hot
  end

(* The hottest histograms: every operation's latency distribution at a
   glance, heaviest total time first. *)
let cmd_top system n =
  let hists =
    List.filter_map
      (fun (name, m) ->
        match m with
        | Obs.Histogram s when s.Obs.count > 0 -> Some (name, s)
        | Obs.Histogram _ | Obs.Counter _ -> None)
      (Obs.snapshot ())
    |> List.sort (fun (_, (a : Obs.summary)) (_, b) -> compare b.Obs.sum a.Obs.sum)
    |> List.filteri (fun i _ -> i < n)
  in
  if hists = [] then say system "top: no histograms recorded"
  else begin
    say system "%-28s %8s %12s %8s %8s %8s" "histogram" "count" "mean" "p50"
      "p90" "p99";
    List.iter
      (fun (name, (s : Obs.summary)) ->
        say system "%-28s %8d %12.1f %8d %8d %8d" name s.Obs.count s.Obs.mean
          s.Obs.p50 s.Obs.p90 s.Obs.p99)
      hists
  end

(* The machine's conversations, not its operations: every request trace
   still open plus the last few closed, each with its queue wait, its
   service time and where the service went on the platter. This is the
   causal view the event trace and the profile tree can't give — a
   request's whole life across admission, parking and sweeps. *)
let cmd_requests system n =
  let module Trace = Alto_obs.Trace in
  let infos = Trace.infos () in
  let open_, closed = List.partition (fun i -> i.Trace.status = "open") infos in
  let drop = List.length closed - n in
  let closed = List.filteri (fun i _ -> i >= drop) closed in
  if open_ = [] && closed = [] then say system "requests: none recorded"
  else begin
    let line (i : Trace.info) =
      say system
        "#%-4d %-10s %-24s %-9s wait %8dus service %8dus  disk seek %d rot %d xfer %d"
        i.Trace.id i.Trace.origin i.Trace.name i.Trace.status i.Trace.wait_us
        i.Trace.service_us i.Trace.seek_us i.Trace.rotation_us i.Trace.transfer_us;
      List.iter
        (fun (m, ts) -> say system "      %8dus %s" ts m)
        i.Trace.marks
    in
    if open_ <> [] then begin
      say system "open (%d):" (List.length open_);
      List.iter line open_
    end;
    if closed <> [] then begin
      say system "recently closed (last %d):" (List.length closed);
      List.iter line closed
    end
  end

(* Dump the flight record adopted at boot: what the previous incarnation
   sealed on its way down. *)
let cmd_blackbox system =
  match Flight.adopted () with
  | None -> say system "blackbox: no flight record adopted this boot"
  | Some record -> say system "%s" record

(* Give the attached request server its turn: ticks of the ServerTick
   service until it reports no progress (or the round budget runs out).
   The service lives in level 5 with the rest of the disk code. *)
let cmd_serve system rounds =
  match System.server_tick system with
  | None -> say system "serve: no server attached to this system"
  | Some tick ->
      let rec go done_ remaining =
        if remaining = 0 then done_
        else
          let progress = tick () in
          if progress = 0 then done_ else go (done_ + progress) (remaining - 1)
      in
      let progress = go 0 rounds in
      let module Obs = Alto_obs.Obs in
      let value name =
        match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0
      in
      say system "serve: %d units of progress; %d requests, %d naks so far" progress
        (value "server.reqs") (value "server.naks")

(* The replica fleet's view of itself: per peer the audit cursor, last
   vote outcome and repair traffic, plus the net fault census. The
   report callback keeps the OS from depending on the server package,
   like the ServerTick indirection. *)
let cmd_peers system =
  match System.peer_report system with
  | None -> say system "peers: this machine is not enrolled in a replica fleet"
  | Some render -> List.iter (fun line -> say system "%s" line) (render ())

let cmd_run system name =
  match Loader.run_by_name system name with
  | Error e -> say system "run: %a" Loader.pp_error e
  | Ok stop -> (
      match stop with
      | Vm.Stopped 0 -> ()
      | stop -> say system "%s: %a" name Vm.pp_stop stop)

let looks_like_code_file system name =
  match Directory.open_root (System.fs system) with
  | Error _ -> false
  | Ok root -> (
      match Directory.lookup root name with
      | Ok (Some e) -> (
          match File.open_leader (System.fs system) e.Directory.entry_file with
          | Ok f -> (
              match File.read_words f ~pos:0 ~len:1 with
              | Ok [| w |] -> Word.to_int w = 0xC0DE
              | Ok _ | Error _ -> false)
          | Error _ -> false)
      | Ok None | Error _ -> false)

let split_words line =
  List.filter (fun s -> String.length s > 0) (String.split_on_char ' ' line)

let execute system line =
  record_command system line;
  let words = split_words line in
  (* Every command is a span of its own: its simulated cost lands in an
     exec.<cmd>_us histogram, and everything it causes — batches, rungs,
     patrol slices — hangs under it in the profile tree. *)
  let cmd = match words with w :: _ -> w | [] -> "empty" in
  Obs.time (Fs.clock (System.fs system)) ("exec." ^ cmd ^ "_us") @@ fun () ->
  match words with
  | [] -> `Continue
  | [ "quit" ] ->
      (* A deliberate exit is a clean shutdown: seal a flight record
         (before the clean flag — the write dirties the volume), then
         declare the consistency point so the next boot skips recovery. *)
      Flight.flush ~reason:"quit" (System.fs system);
      (match Fs.mark_clean (System.fs system) with Ok () | Error _ -> ());
      `Quit
  | [ "ls" ] ->
      cmd_ls system;
      `Continue
  | [ "type"; name ] ->
      cmd_type system name;
      `Continue
  | "put" :: name :: rest ->
      cmd_put system name (String.concat " " rest);
      `Continue
  | [ "delete"; name ] ->
      cmd_delete system name;
      `Continue
  | [ "rename"; old_name; new_name ] ->
      cmd_rename system old_name new_name;
      `Continue
  | [ "fsck" ] ->
      cmd_fsck system;
      `Continue
  | [ "scavenge" ] ->
      cmd_scavenge system;
      `Continue
  | [ "compact" ] ->
      cmd_compact system;
      `Continue
  | [ "levels" ] ->
      cmd_levels system;
      `Continue
  | [ "junta"; n ] -> (
      match int_of_string_opt n with
      | Some keep when keep >= 1 && keep <= Level.count ->
          System.junta system ~keep;
          say system "resident through level %d; user space now ends at %d" keep
            (System.user_boundary system - 1);
          `Continue
      | Some _ | None ->
          say system "junta: expected a level 1..13";
          `Continue)
  | [ "counterjunta" ] ->
      System.counter_junta system;
      say system "all levels restored";
      `Continue
  | [ "cache" ] ->
      cmd_cache system;
      `Continue
  | [ "sync" ] ->
      cmd_sync system;
      `Continue
  | [ "health" ] ->
      cmd_health system;
      `Continue
  | [ "trace" ] ->
      cmd_trace system 20;
      `Continue
  | [ "trace"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          cmd_trace system n;
          `Continue
      | Some _ | None ->
          say system "trace: expected a positive event count";
          `Continue)
  | [ "profile" ] ->
      cmd_profile system 5;
      `Continue
  | [ "profile"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          cmd_profile system n;
          `Continue
      | Some _ | None ->
          say system "profile: expected a positive span count";
          `Continue)
  | [ "top" ] ->
      cmd_top system 10;
      `Continue
  | [ "top"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          cmd_top system n;
          `Continue
      | Some _ | None ->
          say system "top: expected a positive histogram count";
          `Continue)
  | [ "requests" ] ->
      cmd_requests system 10;
      `Continue
  | [ "requests"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          cmd_requests system n;
          `Continue
      | Some _ | None ->
          say system "requests: expected a positive trace count";
          `Continue)
  | [ "blackbox" ] ->
      cmd_blackbox system;
      `Continue
  | [ "peers" ] ->
      cmd_peers system;
      `Continue
  | [ "serve" ] ->
      cmd_serve system 1000;
      `Continue
  | [ "serve"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
          cmd_serve system n;
          `Continue
      | Some _ | None ->
          say system "serve: expected a positive round count";
          `Continue)
  | [ "run"; name ] ->
      cmd_run system name;
      `Continue
  | [ "compile"; src; dst ] ->
      cmd_compile system src dst;
      `Continue
  | [ "assemble"; src; dst ] ->
      cmd_assemble system src dst;
      `Continue
  | [ "copy"; src; dst ] ->
      cmd_copy system src dst;
      `Continue
  | [ "dump"; name ] ->
      cmd_dump system name;
      `Continue
  | [ name ] when looks_like_code_file system name ->
      cmd_run system name;
      `Continue
  | cmd :: _ ->
      say system "%s: unknown command" cmd;
      `Continue

let run ?(max_commands = 1000) system =
  let input = Keyboard.stream (System.keyboard system) in
  let rec loop executed =
    if executed >= max_commands then { commands_executed = executed; quit = false }
    else begin
      Stream.put_string (Display.stream (System.display system)) "> ";
      match Stream.get_line input with
      | None -> { commands_executed = executed; quit = false }
      | Some line -> (
          Stream.put_line (Display.stream (System.display system)) line;
          match execute system line with
          | `Quit -> { commands_executed = executed + 1; quit = true }
          | `Continue ->
              (* The pause between commands is the single-user machine's
                 idle time: spend it verifying one slice of the pack.
                 The patrol lives in level 5's disk code; a junta that
                 removed the disk code removed the patrol with it. *)
              if System.resident_level system >= 5 then begin
                ignore (System.patrol_tick system : Alto_fs.Patrol.report);
                (* The distributed audit shares the idle moment: one
                   ReplicaTick per command keeps this machine answering
                   its peers even while its user types. *)
                match System.replica_tick system with
                | Some tick -> ignore (tick () : int)
                | None -> ()
              end;
              loop (executed + 1))
    end
  in
  loop 0

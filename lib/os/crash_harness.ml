(* The crash-point injection harness, the engine the crash sweeps run
   on: kill the machine at the Nth disk write of a real workload —
   optionally tearing the fatal sector — and prove that every write it
   made lay in a cylinder the write-ahead map named, and that boot
   recovery plus, when needed, one scavenge restores a volume the
   offline checker certifies, with data loss confined to the writes that
   were still in flight. Sweeping N across whole workloads turns §3.3's
   "recovery from crashes" from a claim into an enumerated proof. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Geometry = Alto_disk.Geometry
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Page = Alto_fs.Page
module File_id = Alto_fs.File_id
module Directory = Alto_fs.Directory
module Compactor = Alto_fs.Compactor
module Scavenger = Alto_fs.Scavenger
module Recovery = Alto_fs.Recovery
module Patrol = Alto_fs.Patrol
module Flight = Alto_fs.Flight
module Fsck = Alto_fs.Fsck
module Checkpoint = Alto_world.Checkpoint
module World = Alto_world.World

type totals = {
  mutable trials : int;
  mutable crash_points : int;  (** Trials in which the crash fired. *)
  mutable torn_points : int;  (** Crashes that left a torn sector. *)
  mutable completed : int;  (** The countdown outran the workload. *)
  mutable dirty_boots : int;  (** Recoveries down the dirty path. *)
  mutable through_map : int;  (** Dirty boots settled through the map. *)
  mutable cylinders_read : int;  (** Mapped cylinders those boots read. *)
  mutable fallbacks : int;  (** Dirty boots that ran boot's whole-pack scavenge. *)
  mutable flight_adoptions : int;
  mutable settled_at_boot : int;
      (** Boot recovery alone satisfied both oracles. *)
  mutable scavenges : int;  (** Escalations to the full scavenger. *)
  mutable findings : int;  (** Advisory fsck findings after recovery. *)
  mutable violations : int;  (** Broken invariants — must stay zero. *)
  mutable violation_log : string list;  (** Newest first, for the report. *)
}

(* {2 Expectations}

   Every workload commits a set of files before the crash window opens.
   An untouched file must come back byte-identical; a touched file may
   be shorter (the write in flight, and with it the contiguity rule's
   casualties), but every page that does read back must match the old or
   the new version of that page exactly — never torn, never alien. *)

type expect = {
  e_name : string;
  e_seed : int;
  e_len1 : int;  (* committed bytes; 0 when the mutation creates it *)
  e_len2 : int;  (* bytes if the mutation completes *)
  e_touched : bool;  (* the mutation writes this file's pages *)
  e_may_vanish : bool;  (* a delete or a create was in flight *)
}

let pattern ~seed ~version n =
  String.init n (fun i ->
      Char.chr (32 + (((i / 17) + (seed * 31) + (version * 47)) mod 90)))

(* The files [base] as committed, [len1] bytes each, that the mutation
   leaves alone or ([touched]) may rewrite at the same length. *)
let committed ~touched base len1 =
  List.map
    (fun (name, seed) ->
      {
        e_name = name;
        e_seed = seed;
        e_len1 = len1 seed;
        e_len2 = len1 seed;
        e_touched = touched;
        e_may_vanish = false;
      })
    base

let geometry ~cylinders =
  { Geometry.diablo_31 with Geometry.model = "crashpt"; cylinders }

type workload = {
  w_name : string;
  w_build : unit -> Drive.t * expect list;  (* a committed pack *)
  w_mutate : Drive.t -> unit;  (* may die with [Drive.Power_failure] *)
  w_after_crash : Drive.t -> unit;  (* undoes injected drive faults *)
  w_extra : Fs.t -> string option;  (* the workload's own invariant *)
}

let ok_exn what = function Ok v -> v | Error _ -> failwith ("crash harness: " ^ what)

let mount_exn drive =
  match Fs.mount drive with
  | Ok fs -> fs
  | Error msg -> failwith ("crash harness: mount: " ^ msg)

(* Total: the verify path runs it against packs a crash may have left
   with an unreadable catalogue, and damage there must surface as a
   verdict, not an exception. *)
let open_by_name fs name =
  match Directory.open_root fs with
  | Error _ -> `Damaged
  | Ok root -> (
      match Directory.lookup root name with
      | Error _ -> `Damaged
      | Ok None -> `Absent
      | Ok (Some e) -> (
          match File.open_leader fs e.Directory.entry_file with
          | Ok file -> `File file
          | Error _ -> `Damaged))

(* Build one committed file and catalogue it. *)
let plant fs root ~name ~seed ~len =
  let file = ok_exn "create" (File.create fs ~name) in
  ok_exn "write" (File.write_bytes file ~pos:0 (pattern ~seed ~version:1 len));
  ok_exn "flush leader" (File.flush_leader file);
  ok_exn "catalogue" (Directory.add root ~name (File.leader_name file));
  file

(* A fresh pack holding the files [base], [len1] bytes each. *)
let planted ~pack ~cylinders base len1 =
  let drive = Drive.create ~pack_id:pack (geometry ~cylinders) in
  let fs = Fs.format drive in
  let root = ok_exn "root" (Directory.open_root fs) in
  let files =
    List.map (fun (name, seed) -> (plant fs root ~name ~seed ~len:(len1 seed), seed)) base
  in
  (drive, fs, files)

(* Seal a flight record (so a dirty boot has something to adopt), push
   every delayed write to the platter, and declare a consistency point.
   The seal holds the events since this arming, but embeds the process's
   metric registry, so the sealed bytes depend on everything the process
   ran before this trial, not only on this build. The recorder is
   disarmed again before the mutation, which must not seal. *)
let commit fs =
  Flight.enable ();
  Flight.flush ~reason:"harness" fs;
  (match Fs.flush fs with Ok () | Error _ -> ());
  (match Fs.mark_clean fs with Ok () | Error _ -> ());
  (match Fs.flush fs with Ok () | Error _ -> ());
  Flight.disable ()

(* {2 The workloads} *)

(* 1. Files: overwrite, delete, create — the §3.3 staple. *)
let files_workload =
  let base = List.init 8 (fun seed -> (Printf.sprintf "C%02d.dat" seed, seed)) in
  let len1 seed = 700 + (seed * 260) in
  let len2 seed = len1 seed + (if seed mod 2 = 0 then 600 else -260) in
  {
    w_name = "files";
    w_build =
      (fun () ->
        let drive, fs, _ = planted ~pack:31 ~cylinders:25 base len1 in
        commit fs;
        let expects =
          List.map
            (fun e ->
              if e.e_seed mod 4 = 3 then { e with e_len2 = 0; e_may_vanish = true }
              else { e with e_len2 = len2 e.e_seed })
            (committed ~touched:true base len1)
          @ List.map
              (fun seed ->
                {
                  e_name = Printf.sprintf "N%02d.dat" seed;
                  e_seed = seed;
                  e_len1 = 0;
                  e_len2 = 1200;
                  e_touched = true;
                  e_may_vanish = true;
                })
              [ 90; 91 ]
        in
        (drive, expects));
    w_mutate =
      (fun drive ->
        let fs = mount_exn drive in
        let root = ok_exn "root" (Directory.open_root fs) in
        List.iter
          (fun (name, seed) ->
            match open_by_name fs name with
            | `Absent | `Damaged -> ()
            | `File file ->
                if seed mod 4 = 3 then begin
                  (match File.delete file with Ok () | Error _ -> ());
                  match Directory.remove root name with Ok _ | Error _ -> ()
                end
                else begin
                  (match File.truncate file ~len:0 with Ok () | Error _ -> ());
                  (match
                     File.write_bytes file ~pos:0
                       (pattern ~seed ~version:2 (len2 seed))
                   with
                  | Ok () | Error _ -> ());
                  match File.flush_leader file with Ok () | Error _ -> ()
                end)
          base;
        List.iter
          (fun seed ->
            let name = Printf.sprintf "N%02d.dat" seed in
            match File.create fs ~name with
            | Error _ -> ()
            | Ok f -> (
                (match
                   File.write_bytes f ~pos:0 (pattern ~seed ~version:2 1200)
                 with
                | Ok () | Error _ -> ());
                match Directory.add root ~name (File.leader_name f) with
                | Ok () | Error _ -> ()))
          [ 90; 91 ];
        ignore (Fs.flush fs));
    w_after_crash = (fun _ -> ());
    w_extra = (fun _ -> None);
  }

(* 2. Bio flush: page-aligned patches absorbed by the track buffers,
   then the coalesced sweep — crash points land inside {!Bio.flush}. *)
let bio_workload =
  let base = List.init 6 (fun j -> (Printf.sprintf "B%02d.dat" (10 + j), 10 + j)) in
  let len1 seed = 2048 + (512 * (seed mod 3)) in
  let patch_pages seed len =
    let last = (len - 1) / 512 in
    List.sort_uniq compare [ 1; last; (seed mod last) ]
  in
  {
    w_name = "bio-flush";
    w_build =
      (fun () ->
        let drive, fs, _ = planted ~pack:32 ~cylinders:25 base len1 in
        commit fs;
        (drive, committed ~touched:true base len1));
    w_mutate =
      (fun drive ->
        let fs = mount_exn drive in
        List.iter
          (fun (name, seed) ->
            match open_by_name fs name with
            | `Absent | `Damaged -> ()
            | `File file ->
                let len = len1 seed in
                let v2 = pattern ~seed ~version:2 len in
                List.iter
                  (fun p ->
                    let pos = p * 512 in
                    let n = min 512 (len - pos) in
                    if n > 0 then
                      match
                        File.write_bytes file ~pos (String.sub v2 pos n)
                      with
                      | Ok () | Error _ -> ())
                  (patch_pages seed len))
          base;
        (* The delayed writes hit the platter here, as one sweep. *)
        ignore (Fs.flush fs));
    w_after_crash = (fun _ -> ());
    w_extra = (fun _ -> None);
  }

(* 3. Compactor: an in-place permutation of committed pages — crash
   points land between a move's copy and the free of its old sector,
   inside a swap's staged twin, and in a page rewritten where it stands.
   Content must come back byte-identical: compaction never changes a
   file. *)
let compactor_workload =
  let base = List.init 6 (fun j -> (Printf.sprintf "K%02d.dat" (20 + j), 20 + j)) in
  let rounds seed = 3 + (seed mod 3) in
  let len1 seed = 512 * rounds seed in
  {
    w_name = "compactor";
    w_build =
      (fun () ->
        let drive = Drive.create ~pack_id:33 (geometry ~cylinders:25) in
        let fs = Fs.format drive in
        let root = ok_exn "root" (Directory.open_root fs) in
        (* Interleave the extensions so every file ends up scattered. *)
        let files =
          List.map
            (fun (name, seed) ->
              let file = ok_exn "create" (File.create fs ~name) in
              ok_exn "catalogue" (Directory.add root ~name (File.leader_name file));
              (file, seed))
            base
        in
        for r = 0 to 5 do
          List.iter
            (fun (file, seed) ->
              if r < rounds seed then
                let v1 = pattern ~seed ~version:1 (len1 seed) in
                ok_exn "extend"
                  (File.write_bytes file ~pos:(r * 512)
                     (String.sub v1 (r * 512) 512)))
            files
        done;
        List.iter (fun (file, _) -> ok_exn "flush leader" (File.flush_leader file)) files;
        commit fs;
        (drive, committed ~touched:false base len1));
    w_mutate =
      (fun drive ->
        let fs = mount_exn drive in
        match Compactor.compact fs with Ok _ | Error _ -> ());
    w_after_crash = (fun _ -> ());
    w_extra = (fun _ -> None);
  }

(* 4. Patrol relocation: marginal surfaces force the patrol to copy
   pages off mid-lap — crash points land between copy and quarantine.
   After the crash the surfaces read cleanly again (the fault injection
   is cancelled), so what recovery faces is the interrupted move, not
   the decay. *)
let patrol_workload =
  let base = List.init 5 (fun j -> (Printf.sprintf "P%02d.dat" (30 + j), 30 + j)) in
  let len1 seed = 1024 + (512 * (seed mod 2)) in
  let marginals = ref [] in
  {
    w_name = "patrol";
    w_build =
      (fun () ->
        let drive, fs, files = planted ~pack:34 ~cylinders:25 base len1 in
        commit fs;
        marginals := [];
        List.iter
          (fun (file, seed) ->
            if seed mod 2 = 0 then begin
              let addr = (ok_exn "page" (File.page_name file 1)).Page.addr in
              Fault.make_marginal ~rate:0.7 ~growth:1.0 ~degrade_after:1000 drive
                addr;
              marginals := addr :: !marginals
            end)
          files;
        (drive, committed ~touched:false base len1));
    w_mutate =
      (fun drive ->
        let fs = mount_exn drive in
        let patrol = Patrol.create fs in
        let ticks = ref 0 in
        while Patrol.laps patrol < 1 && !ticks < 200 do
          ignore (Patrol.tick patrol);
          incr ticks
        done;
        ignore (Fs.flush fs));
    w_after_crash =
      (fun drive ->
        List.iter
          (fun addr ->
            Drive.set_marginal drive addr ~rate:0.0 ~growth:1.0 ~degrade_after:1000)
          !marginals);
    w_extra = (fun _ -> None);
  }

(* 5. World swap: OutLoad is hundreds of sequential writes into a
   pre-sized state file; a crash mid-swap must leave a page-level mix of
   the two worlds, never a torn word. *)
let outload_workload =
  let base = List.init 3 (fun j -> (Printf.sprintf "W%02d.dat" (40 + j), 40 + j)) in
  let len1 seed = 900 + (128 * (seed mod 3)) in
  let probe_addr = 1234 in
  let swap fs word =
    let root = ok_exn "root" (Directory.open_root fs) in
    let state = ok_exn "state file" (Checkpoint.state_file fs ~directory:root ~name:"W.state") in
    let memory = Memory.create () in
    let cpu = Cpu.create memory in
    Memory.write memory probe_addr (Word.of_int word);
    match World.out_load cpu state with Ok () | Error _ -> ()
  in
  {
    w_name = "outload";
    w_build =
      (fun () ->
        let drive, fs, _ = planted ~pack:35 ~cylinders:60 base len1 in
        swap fs 0xAAAA;
        commit fs;
        (drive, committed ~touched:false base len1));
    w_mutate =
      (fun drive ->
        let fs = mount_exn drive in
        swap fs 0xBBBB;
        ignore (Fs.flush fs));
    w_after_crash = (fun _ -> ());
    w_extra =
      (fun fs ->
        match open_by_name fs "W.state" with
        | `Absent -> Some "W.state lost entirely"
        | `Damaged -> Some "W.state unopenable"
        | `File f -> (
            match World.read_saved_memory f ~pos:probe_addr ~len:1 with
            | Ok [| w |] ->
                let v = Word.to_int w in
                if v = 0xAAAA || v = 0xBBBB then None
                else Some (Printf.sprintf "W.state probe word torn: %04x" v)
            | Ok _ | Error _ ->
                (* A crash very early, or the scavenger truncating at
                   the torn page, can leave less than a whole image;
                   failing cleanly is the accepted loss. *)
                None));
  }

let workloads =
  [
    files_workload;
    bio_workload;
    compactor_workload;
    patrol_workload;
    outload_workload;
  ]

(* {2 Verification} *)

let verify_expect fs e =
  let big = max e.e_len1 e.e_len2 + 4096 in
  let v1 = pattern ~seed:e.e_seed ~version:1 big in
  let v2 = pattern ~seed:e.e_seed ~version:2 big in
  match open_by_name fs e.e_name with
  | `Absent -> if e.e_may_vanish then [] else [ e.e_name ^ " vanished" ]
  | `Damaged -> [ e.e_name ^ " unopenable after recovery" ]
  | `File file ->
      let len = File.byte_length file in
      if (not e.e_touched) && len <> e.e_len1 then
        [ Printf.sprintf "%s length %d, committed %d" e.e_name len e.e_len1 ]
      else begin
        let bad = ref [] in
        let pages = (len + 511) / 512 in
        (try
           for p = 0 to pages - 1 do
             let pos = p * 512 in
             let n = min 512 (len - pos) in
             match File.read_bytes file ~pos ~len:n with
             | Error _ ->
                 (* A page the crash tore: tolerable on a touched file
                    (the write in flight), an invariant break otherwise. *)
                 if not e.e_touched then
                   bad :=
                     Printf.sprintf "%s page %d unreadable" e.e_name p :: !bad;
                 raise Exit
             | Ok bytes ->
                 let got = Bytes.to_string bytes in
                 let matches v = String.equal got (String.sub v pos n) in
                 if not (matches v1 || (e.e_touched && matches v2)) then begin
                   bad :=
                     Printf.sprintf "%s page %d holds torn or alien bytes"
                       e.e_name p
                     :: !bad;
                   raise Exit
                 end
           done
         with Exit -> ());
        !bad
      end

(* {2 The write-ahead rule}

   Every write lands in a cylinder the platter's map names before the
   write begins (§19). Checked out of band: the pack's image before the
   writes, against the platter after them. An image holds every sector's
   label then value, a word to an element, out of the heap: one a trial
   keeps across its workload costs the collector nothing. *)

type image = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let sector_words = Sector.label_words + Sector.value_words

(* Unchecked: an image is sized from its drive, and [differs] refuses
   one of another pack, so [base + k] stays inside it. *)
let store (image : image) base (words : Word.t array) =
  for k = 0 to Array.length words - 1 do
    Bigarray.Array1.unsafe_set image (base + k) (Array.unsafe_get words k :> int)
  done

let rec same (image : image) base (words : Word.t array) k =
  k = Array.length words
  || Bigarray.Array1.unsafe_get image (base + k) = (Array.unsafe_get words k :> int)
     && same image base words (k + 1)

(* Buffers for one sector's label and value. *)
let parts () = (Array.make Sector.label_words Word.zero, Array.make Sector.value_words Word.zero)

let image drive =
  let n = Drive.sector_count drive in
  let image = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout (n * sector_words) in
  let label, value = parts () in
  for i = 0 to n - 1 do
    let addr = Disk_address.of_index i in
    Drive.read_part drive addr Sector.Label label;
    Drive.read_part drive addr Sector.Value value;
    store image (i * sector_words) label;
    store image ((i * sector_words) + Sector.label_words) value
  done;
  image

(* Whether sector [i] differs from [before], read through [parts]. *)
let differs (before : image) drive (label, value) i =
  if Bigarray.Array1.dim before <> Drive.sector_count drive * sector_words then
    invalid_arg "Crash_harness: an image of another pack";
  let addr = Disk_address.of_index i and base = i * sector_words in
  Drive.read_part drive addr Sector.Label label;
  (not (same before base label 0))
  || begin
       Drive.read_part drive addr Sector.Value value;
       not (same before (base + Sector.label_words) value 0)
     end

(* The sectors outside the descriptor's pages (they hold the map), in
   the cylinders [keep] admits, whose label or value differs from
   [before]. *)
let differing ~keep before fs =
  let drive = Fs.drive fs in
  let g = Drive.geometry drive in
  let per_cylinder = g.Geometry.heads * g.Geometry.sectors_per_track in
  let top = 1 + Fs.descriptor_page_count fs in
  let buffers = parts () in
  let found = ref [] in
  for i = Drive.sector_count drive - 1 downto 0 do
    if (i = 0 || i > top) && keep (i / per_cylinder) && differs before drive buffers i then
      found := i :: !found
  done;
  !found

let changed before fs = differing ~keep:(fun _ -> true) before fs

(* A record written since [before] reads back whole: every page of one
   record slot changed, none torn. *)
let recorded before fs =
  let drive = Fs.drive fs in
  let pages = Fs.descriptor_page_count fs / 2 in
  let buffers = parts () in
  let landed i =
    differs before drive buffers i && not (Drive.is_torn drive (Disk_address.of_index i))
  in
  List.exists (fun k -> List.for_all landed (List.init pages (fun j -> 2 + (k * pages) + j))) [ 0; 1 ]

(* A clean mount maps nothing; a newer whole record is a consistency
   point after the writes. *)
let write_ahead_miss before fs =
  if (not (Fs.dirty fs)) && recorded before fs then None
  else
    let mapped = Fs.mapped_cylinders fs in
    match differing ~keep:(fun c -> not (List.mem c mapped)) before fs with
    | [] -> None
    | i :: _ -> Some (Printf.sprintf "sector %d changed outside the write-ahead map" i)

(* {2 One trial} *)

let tears = [ None; Some Drive.Torn_label; Some Drive.Torn_value ]

let tear_tag = function
  | None -> ""
  | Some Drive.Torn_label -> "/torn-label"
  | Some Drive.Torn_value -> "/torn-value"

(* Arm the countdown on a built pack and run the mutation until it ends
   or the power fails at write [point]; then mains power is restored.
   Whether the crash fired. *)
let crash (w : workload) drive ~point ~tear =
  Fault.crash_after_writes ?tear drive point;
  let fired =
    match w.w_mutate drive with
    | () -> false
    | exception Drive.Power_failure -> true
  in
  Fault.cancel_crash drive;
  w.w_after_crash drive;
  fired

let run_trial t (w : workload) ~point ~tear =
  t.trials <- t.trials + 1;
  let drive, expects = w.w_build () in
  let before = image drive in
  let crashed = crash w drive ~point ~tear in
  if crashed then begin
    t.crash_points <- t.crash_points + 1;
    if tear <> None then t.torn_points <- t.torn_points + 1
  end
  else t.completed <- t.completed + 1;
  let log_violation msg =
    t.violations <- t.violations + 1;
    t.violation_log <-
      Printf.sprintf "%s@%d%s: %s" w.w_name point (tear_tag tear) msg :: t.violation_log
  in
  (* The machine is gone: every in-core handle, the allocation map, the
     track buffers. Recovery starts from the platter alone. A pack that
     does not mount owes the whole pack. *)
  let was_dirty =
    match Fs.mount drive with
    | Ok fs ->
        if crashed then Option.iter log_violation (write_ahead_miss before fs);
        Fs.dirty fs
    | Error _ -> true
  in
  if was_dirty then t.dirty_boots <- t.dirty_boots + 1;
  let sys = System.boot ~drive () in
  (match System.recovery sys with
  | Recovery.Scavenged _ -> t.fallbacks <- t.fallbacks + 1
  | Recovery.Through_map (cylinders, _) ->
      t.through_map <- t.through_map + 1;
      t.cylinders_read <- t.cylinders_read + List.length cylinders
  | Recovery.Clean | Recovery.Unrecovered _ | Recovery.Formatted -> ());
  if Flight.adopted () <> None then t.flight_adoptions <- t.flight_adoptions + 1;
  Flight.disable ();
  (match Fs.mark_clean (System.fs sys) with Ok () | Error _ -> ());
  (match Fs.flush (System.fs sys) with Ok () | Error _ -> ());
  (* The oracle: the checker, then a fresh mount reading every committed
     file against its two legitimate versions. Boot recovery answers
     for most crash points; when the checker still sees a broken promise
     — a torn catalogued page, a dangling entry — or a file will not
     read back (a hint ladder exhausted by a mid-move crash), the cure
     is §3.5's full scavenge, after which both oracles must be
     satisfied. *)
  let interrogate () =
    let report = Fsck.check drive in
    let content =
      match Fs.mount drive with
      | Error msg -> [ Printf.sprintf "remount failed: %s" msg ]
      | Ok fs -> (
          let msgs = List.concat_map (fun e -> verify_expect fs e) expects in
          match w.w_extra fs with None -> msgs | Some m -> msgs @ [ m ])
    in
    (report, content)
  in
  let report, content = interrogate () in
  let report, content =
    if report.Fsck.violations = [] && content = [] then begin
      t.settled_at_boot <- t.settled_at_boot + 1;
      (report, content)
    end
    else begin
      t.scavenges <- t.scavenges + 1;
      match Scavenger.scavenge drive with
      | Error msg ->
          log_violation (Printf.sprintf "scavenge failed: %s" msg);
          (report, content)
      | Ok (_, _) -> interrogate ()
    end
  in
  t.findings <- t.findings + List.length report.Fsck.findings;
  List.iter
    (fun issue -> log_violation (Format.asprintf "fsck: %a" Fsck.pp_issue issue))
    report.Fsck.violations;
  List.iter log_violation content

(* {2 The sweep} *)

(* How many writing operations the uninterrupted mutation performs. *)
let measure (w : workload) =
  let drive, _ = w.w_build () in
  let before = Drive.write_ops drive in
  w.w_mutate drive;
  Drive.write_ops drive - before

(* Every crash point of the sweep, in order: evenly spaced over each
   workload's whole write stream, first and last included (the
   countdown is armed after the build, so point 0 kills the very first
   mutating write), three variants each. *)
let crash_points ~points_per_workload workloads =
  List.concat_map
    (fun w ->
      let writes = measure w in
      let k = min points_per_workload (max 1 writes) in
      let point j = if k = 1 then 0 else j * (writes - 1) / (k - 1) in
      List.concat_map
        (fun j -> List.map (fun tear -> (w, point j, tear)) tears)
        (List.init k Fun.id))
    workloads

let sweep ?(points_per_workload = 15) workloads =
  let t =
    {
      trials = 0;
      crash_points = 0;
      torn_points = 0;
      completed = 0;
      dirty_boots = 0;
      through_map = 0;
      cylinders_read = 0;
      fallbacks = 0;
      flight_adoptions = 0;
      settled_at_boot = 0;
      scavenges = 0;
      findings = 0;
      violations = 0;
      violation_log = [];
    }
  in
  Flight.disable ();
  List.iter
    (fun (w, point, tear) -> run_trial t w ~point ~tear)
    (crash_points ~points_per_workload workloads);
  t

let run ?points_per_workload () = sweep ?points_per_workload workloads

(* {2 The differential proof} *)

(* What a recovered pack promises a reader: every root entry, by name,
   with its file id and the bytes that read back, page by page, up to
   the first page that will not. The flight record's bytes are left out:
   its seal embeds the process's metric registry as it stood when the
   build sealed it, so two builds never seal the same bytes. *)
let catalogue drive =
  match Fs.mount drive with
  | Error msg -> [ ("(unmountable)", msg) ]
  | Ok fs -> (
      match Result.bind (Directory.open_root fs) Directory.entries with
      | Error e -> [ ("(root)", Format.asprintf "%a" Directory.pp_error e) ]
      | Ok entries ->
          List.sort compare
            (List.map
               (fun (e : Directory.entry) ->
                 let fn = e.Directory.entry_file in
                 let bytes =
                   match File.open_leader fs fn with
                   | _ when String.equal e.Directory.entry_name Flight.file_name -> ""
                   | Error _ -> "(unopenable)"
                   | Ok file ->
                       let len = File.byte_length file in
                       let b = Buffer.create len in
                       let rec pages pos =
                         if pos < len then
                           match File.read_bytes file ~pos ~len:(min 512 (len - pos)) with
                           | Ok got ->
                               Buffer.add_bytes b got;
                               pages (pos + 512)
                           | Error _ -> ()
                       in
                       pages 0;
                       Buffer.contents b
                 in
                 ( e.Directory.entry_name,
                   Format.asprintf "%a %s" File_id.pp fn.Page.abs.Page.fid
                     (Digest.to_hex (Digest.string bytes)) ))
               entries))

let crashed (w : workload) ~point ~tear =
  let drive, _ = w.w_build () in
  ignore (crash w drive ~point ~tear : bool);
  drive

let differential ?(points_per_workload = 15) () =
  Flight.disable ();
  let points = crash_points ~points_per_workload workloads in
  let disagreements =
    List.filter_map
      (fun (w, point, tear) ->
        let booted = crashed w ~point ~tear in
        ignore (Recovery.boot booted : Fs.t * Recovery.outcome);
        let scavenged = crashed w ~point ~tear in
        ignore (Scavenger.scavenge scavenged : (Fs.t * Scavenger.report, string) result);
        let a = catalogue booted and b = catalogue scavenged in
        if a = b then None
        else
          Some
            (Printf.sprintf "%s@%d%s: boot %s; scavenge %s" w.w_name point (tear_tag tear)
               (String.concat ", " (List.map (fun (n, v) -> n ^ "=" ^ v) a))
               (String.concat ", " (List.map (fun (n, v) -> n ^ "=" ^ v) b))))
      points
  in
  (List.length points, disagreements)

(* The verified-label cache and the elevator scheduler: cache entries
   die on label writes, quarantine and retry evidence; a world restore
   drops everything; the overflow guard on the bad-sector table refuses
   gracefully; and caching changes which operations run, never what
   lands on the pack. *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Cpu = Alto_machine.Cpu
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Fault = Alto_disk.Fault
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module File_id = Alto_fs.File_id
module Label = Alto_fs.Label
module Label_cache = Alto_fs.Label_cache
module Page = Alto_fs.Page
module Directory = Alto_fs.Directory
module World = Alto_world.World
module Checkpoint = Alto_world.Checkpoint
module Obs = Alto_obs.Obs

let tiny = { Geometry.diablo_31 with Geometry.model = "tiny"; cylinders = 3 }

let make_drive ?(geometry = tiny) ?(pack_id = 3) () = Drive.create ~pack_id geometry

let addr i = Disk_address.of_index i

let label_buf () = Array.make Sector.label_words Word.zero
let value_buf () = Array.make Sector.value_words Word.zero

(* The table's image of a sector: an all-wildcard check learns every
   word of a live entry and can never be refused. *)
let lookup cache a =
  let pattern = label_buf () in
  match Label_cache.check cache a pattern with
  | Some (Ok ()) -> Some pattern
  | Some (Error _) | None -> None

let counter name =
  match Obs.find name with
  | Some (Obs.Counter v) -> v
  | Some (Obs.Histogram _) | None -> 0

let write_sector drive a ~label ~value =
  match
    Drive.run drive a
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label ~value ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Drive.pp_error e

(* {2 invalidation} *)

let test_label_write_evicts () =
  let drive = make_drive () in
  let cache = Label_cache.create drive in
  let words = Array.init Sector.label_words (fun i -> Word.of_int (i + 1)) in
  write_sector drive (addr 5) ~label:words ~value:(value_buf ());
  Label_cache.note_verified cache (addr 5) words;
  (match lookup cache (addr 5) with
  | Some got -> Alcotest.(check bool) "cached words intact" true (got = words)
  | None -> Alcotest.fail "entry vanished immediately");
  let invalidations0 = counter "fs.label_cache.invalidations" in
  (* Any label write stales the copy, even one writing identical bits. *)
  write_sector drive (addr 5) ~label:words ~value:(value_buf ());
  (match lookup cache (addr 5) with
  | None -> ()
  | Some _ -> Alcotest.fail "a label write left the cached copy alive");
  Alcotest.(check int) "invalidation counted" (invalidations0 + 1)
    (counter "fs.label_cache.invalidations")

let test_retry_evidence_evicts () =
  let drive = make_drive () in
  let cache = Label_cache.create drive in
  let words = label_buf () in
  write_sector drive (addr 7) ~label:words ~value:(value_buf ());
  Label_cache.note_verified cache (addr 7) words;
  (* Make the surface misread, then read through the ladder until a soft
     error actually trips: that retry evidence must kill the entry even
     though no label was written. *)
  Fault.set_soft_errors drive ~seed:21 ~rate:0.9;
  let soft0 = counter "disk.soft_errors" in
  let tripped = ref false in
  for _ = 1 to 20 do
    if not !tripped then begin
      (match
         Reliable.run ~policy:Reliable.salvage_policy drive (addr 7)
           { Drive.op_none with value = Some Drive.Read }
           ~value:(value_buf ()) ()
       with
      | Ok () | Error _ -> ());
      if counter "disk.soft_errors" > soft0 then tripped := true
    end
  done;
  Alcotest.(check bool) "a soft error tripped" true !tripped;
  match lookup cache (addr 7) with
  | None -> ()
  | Some _ -> Alcotest.fail "retry evidence left the cached copy alive"

let test_quarantine_evicts () =
  let drive = make_drive () in
  let fs = Fs.format drive in
  let cache = Fs.label_cache fs in
  let file =
    match File.create fs ~name:"Victim.dat" with
    | Ok f -> f
    | Error e -> Alcotest.failf "create: %a" File.pp_error e
  in
  (match File.write_bytes file ~pos:0 (String.make 600 'x') with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" File.pp_error e);
  let fn =
    match File.page_name file 1 with
    | Ok n -> n
    | Error e -> Alcotest.failf "page_name: %a" File.pp_error e
  in
  (* The write primed the entry; confirm, then quarantine the sector. *)
  (match lookup cache fn.Page.addr with
  | Some _ -> ()
  | None -> Alcotest.fail "the page's label was not primed");
  Fs.quarantine fs fn.Page.addr;
  match lookup cache fn.Page.addr with
  | None -> ()
  | Some _ -> Alcotest.fail "a quarantined sector's label survived in core"

(* A cached label must never mask a sector that has since gone bad: the
   generation bump on [set_bad] forces the miss, and the disk then tells
   the truth. *)
let test_no_stale_masking () =
  let drive = make_drive () in
  let fid = File_id.make ~serial:200 ~version:1 () in
  let label =
    Label.make ~fid ~page:0 ~length:12 ~next:Disk_address.nil
      ~prev:Disk_address.nil
  in
  write_sector drive (addr 11) ~label:(Label.to_words label) ~value:(value_buf ());
  let cache = Label_cache.create drive in
  let fn = Page.full_name fid ~page:0 ~addr:(addr 11) in
  (match Page.read_label ~cache drive fn with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prime: %a" Page.pp_error e);
  Fault.make_bad drive (addr 11);
  match Page.read_label ~cache drive fn with
  | Error (Page.Hint_failed Drive.Bad_sector) -> ()
  | Ok _ -> Alcotest.fail "a cached label masked a bad sector"
  | Error e -> Alcotest.failf "unexpected: %a" Page.pp_error e

(* The patrol moves a page between sectors with operations a drive-level
   bump does not always cover (the old sector's retirement write may be
   absorbed or fail). The explicit generation bumps on both ends must
   guarantee that no cached label can resurrect the page at its old
   address, nor mask the fresh label at the new one. *)
let test_relocation_bumps_both_generations () =
  let drive = make_drive () in
  let fs = Fs.format drive in
  Fault.set_soft_errors drive ~seed:11 ~rate:0.0;
  let cache = Fs.label_cache fs in
  let file =
    match File.create fs ~name:"Moving.dat" with
    | Ok f -> f
    | Error e -> Alcotest.failf "create: %a" File.pp_error e
  in
  (match File.write_bytes file ~pos:0 (String.make 700 'm') with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" File.pp_error e);
  let fn =
    match File.page_name file 1 with
    | Ok n -> n
    | Error e -> Alcotest.failf "page_name: %a" File.pp_error e
  in
  let src = fn.Page.addr in
  (* Prime the cache with the page's label at its old home. *)
  (match Page.read_label ~cache drive fn with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "prime: %a" Page.pp_error e);
  Alcotest.(check bool) "primed" true (lookup cache src <> None);
  let gens_before =
    Array.init (Drive.sector_count drive) (fun i ->
        Drive.label_generation drive (addr i))
  in
  Fault.make_marginal drive src ~rate:0.8 ~growth:1.0 ~degrade_after:50;
  let patrol = Alto_fs.Patrol.create fs in
  let budget = ref 60 in
  while Alto_fs.Patrol.relocated patrol < 1 && !budget > 0 do
    ignore (Alto_fs.Patrol.tick patrol : Alto_fs.Patrol.report);
    decr budget
  done;
  Alcotest.(check bool) "the page was relocated" true
    (Alto_fs.Patrol.relocated patrol >= 1);
  File.invalidate_hints file;
  let dst =
    match File.page_name file 1 with
    | Ok n -> n.Page.addr
    | Error e -> Alcotest.failf "page_name after move: %a" File.pp_error e
  in
  Alcotest.(check bool) "the page moved" true (not (Disk_address.equal src dst));
  Alcotest.(check bool) "source generation advanced" true
    (Drive.label_generation drive src
    > gens_before.(Disk_address.to_index src));
  Alcotest.(check bool) "destination generation advanced" true
    (Drive.label_generation drive dst
    > gens_before.(Disk_address.to_index dst));
  Alcotest.(check bool) "no cached label survives at the source" true
    (lookup cache src = None);
  (* The resurrection attempt: the stale full name must be refuted by
     the disk, never answered from a cached copy. *)
  match Page.read_label ~cache drive fn with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a relocated page answered at its old address"

let test_world_restore_evicts () =
  let geometry =
    { Geometry.diablo_31 with Geometry.model = "world"; cylinders = 80 }
  in
  let drive = Drive.create ~pack_id:9 geometry in
  let fs = Fs.format drive in
  let root =
    match Directory.open_root fs with
    | Ok r -> r
    | Error e -> Alcotest.failf "root: %a" Directory.pp_error e
  in
  let file =
    match Checkpoint.state_file fs ~directory:root ~name:"World.state" with
    | Ok f -> f
    | Error e -> Alcotest.failf "state_file: %a" Checkpoint.pp_error e
  in
  let cpu = Cpu.create (Memory.create ()) in
  (match World.out_load cpu file with
  | Ok () -> ()
  | Error e -> Alcotest.failf "out_load: %a" World.pp_error e);
  Alcotest.(check bool) "the save primed entries" true
    (Label_cache.length (Fs.label_cache fs) > 0);
  (match World.in_load cpu file ~message:[||] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in_load: %a" World.pp_error e);
  Alcotest.(check int) "the restore dropped every entry" 0
    (Label_cache.length (Fs.label_cache fs))

(* {2 residency} *)

(* Extending a file relinks the old last page; its label is one the
   table holds, so that check is answered in core. Of the 24 fresh
   sectors, the 4 on the track the first write filled are answered from
   the free labels the fill recorded; each of the other 20 allocation
   probes misses and reads the platter, and nothing else misses or
   reads a label. *)
let test_relinks_check_in_core () =
  let drive = make_drive ~geometry:{ tiny with Geometry.cylinders = 20 } () in
  let fs = Fs.format drive in
  let file =
    match File.create fs ~name:"Grows.dat" with
    | Ok f -> f
    | Error e -> Alcotest.failf "create: %a" File.pp_error e
  in
  (match File.write_bytes file ~pos:0 (String.make Sector.bytes_per_page 'g') with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" File.pp_error e);
  ignore (Alto_fs.Bio.flush (Fs.bio fs));
  let misses0 = counter "fs.label_cache.misses" in
  let reads () = counter "disk.operations" - Drive.write_ops drive in
  let reads0 = reads () in
  (match File.append_bytes file (String.make (24 * Sector.bytes_per_page) 'h') with
  | Ok () -> ()
  | Error e -> Alcotest.failf "extend: %a" File.pp_error e);
  Alcotest.(check int) "only the allocation probes missed" (misses0 + 20)
    (counter "fs.label_cache.misses");
  Alcotest.(check int) "only the free checks read the disk" 20 (reads () - reads0)

(* Nothing is evicted: every label verified stays a hit until the drive
   says otherwise, however many sectors came between. *)
let test_every_label_kept () =
  let drive = make_drive ~geometry:Geometry.diablo_31 () in
  let cache = Label_cache.create drive in
  let fid = File_id.make ~serial:300 ~version:1 () in
  let n = 300 in
  let fn i = Page.full_name fid ~page:i ~addr:(addr (i * 16)) in
  for i = 0 to n - 1 do
    Drive.poke drive (fn i).Page.addr Sector.Label
      (Label.to_words
         (Label.make ~fid ~page:i ~length:0 ~next:Disk_address.nil
            ~prev:Disk_address.nil))
  done;
  let read_all () =
    for i = 0 to n - 1 do
      match Page.read_label ~cache drive (fn i) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "label %d: %a" i Page.pp_error e
    done
  in
  read_all ();
  let hits0 = counter "fs.label_cache.hits" in
  let ops0 = counter "disk.operations" in
  read_all ();
  Alcotest.(check int) "every label a hit" (hits0 + n) (counter "fs.label_cache.hits");
  Alcotest.(check int) "no disk operation" ops0 (counter "disk.operations")

let test_outside_pack_misses () =
  let drive = make_drive () in
  let cache = Label_cache.create drive in
  let beyond = addr (Drive.sector_count drive) in
  Label_cache.note_verified cache beyond (label_buf ());
  let misses0 = counter "fs.label_cache.misses" in
  List.iter
    (fun a ->
      match lookup cache a with
      | None -> ()
      | Some _ -> Alcotest.fail "an address outside the pack hit")
    [ beyond; Disk_address.nil ];
  Alcotest.(check int) "both counted as misses" (misses0 + 2)
    (counter "fs.label_cache.misses")

(* {2 the overflow guard} *)

(* A verdict one past the table's capacity is counted and holds for the
   mount: the sector stays busy and [mark_free] refuses it. A remount
   forgets it; its bad marker on the surface convicts it again. *)
let test_quarantine_overflow () =
  let drive = make_drive ~geometry:Geometry.diablo_31 () in
  let fs = Fs.format drive in
  let capacity = Fs.bad_sector_capacity fs in
  let victims =
    List.filteri
      (fun k _ -> k <= capacity)
      (List.filter
         (fun i -> Fs.is_free_in_map fs (addr i))
         (List.init (Drive.sector_count drive) Fun.id))
  in
  let overflow0 = counter "fs.quarantine_overflow" in
  List.iter (fun i -> Fs.quarantine fs (addr i)) victims;
  Alcotest.(check int) "the table stops at its capacity" capacity
    (List.length (Fs.bad_sector_table fs));
  Alcotest.(check int) "the verdict past it was counted as overflow" (overflow0 + 1)
    (counter "fs.quarantine_overflow");
  let past = addr (List.nth victims capacity) in
  Alcotest.(check bool) "quarantined for this mount" true (Fs.quarantined fs past);
  Alcotest.(check bool) "busy in the map" false (Fs.is_free_in_map fs past);
  Fs.mark_free fs past;
  Alcotest.(check bool) "mark_free refuses it" false (Fs.is_free_in_map fs past);
  (match Fs.flush fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %a" Fs.pp_error e);
  match Fs.mount drive with
  | Error msg -> Alcotest.failf "remount: %s" msg
  | Ok fs2 ->
      Alcotest.(check int) "the table came back whole" capacity
        (List.length (Fs.bad_sector_table fs2));
      Alcotest.(check bool) "the verdict past it held for the mount alone" false
        (Fs.quarantined fs2 past)

(* {2 determinism} *)

(* The same Page-level op sequence, with and without the cache, must
   leave bit-identical packs: a hit saves motion and time, never changes
   what is read or written. *)
let test_cached_run_matches_uncached () =
  let fid = File_id.make ~serial:500 ~version:1 () in
  let pages = 8 in
  let base = 10 in
  let page_addr pn = addr (base + pn) in
  let link pn = if pn < 0 || pn >= pages then Disk_address.nil else page_addr pn in
  let page_label pn =
    Label.make ~fid ~page:pn ~length:Sector.bytes_per_page ~next:(link (pn + 1))
      ~prev:(link (pn - 1))
  in
  let page_value seed pn =
    Array.init Sector.value_words (fun i -> Word.of_int ((seed + (pn * 31) + i) land 0xFFFF))
  in
  let fn pn = Page.full_name fid ~page:pn ~addr:(page_addr pn) in
  let page_ok what = function
    | Ok x -> x
    | Error e -> Alcotest.failf "%s: %a" what Page.pp_error e
  in
  let run ~with_cache () =
    let drive = make_drive () in
    let cache = if with_cache then Some (Label_cache.create drive) else None in
    for pn = 0 to pages - 1 do
      write_sector drive (page_addr pn)
        ~label:(Label.to_words (page_label pn))
        ~value:(page_value 0 pn)
    done;
    let ops0 = counter "disk.operations" in
    (* Three chain walks (the read_label path the hint ladder uses)... *)
    for _pass = 1 to 3 do
      for pn = 0 to pages - 1 do
        let got = page_ok "read_label" (Page.read_label ?cache drive (fn pn)) in
        Alcotest.(check int) "linked length" Sector.bytes_per_page
          got.Label.length
      done
    done;
    (* ...then reads, overwrites, and a length change. *)
    for pn = 0 to pages - 1 do
      let _, value = page_ok "read" (Page.read ?cache drive (fn pn)) in
      Alcotest.(check bool) "value intact" true (value = page_value 0 pn)
    done;
    for pn = 0 to pages - 1 do
      let (_ : Label.t) =
        page_ok "write" (Page.write ?cache drive (fn pn) (page_value 7 pn))
      in
      ()
    done;
    page_ok "rewrite_label"
      (Page.rewrite_label ?cache drive
         (fn (pages - 1))
         ~new_label:
           (Label.make ~fid ~page:(pages - 1) ~length:100
              ~next:Disk_address.nil
              ~prev:(link (pages - 2)))
         ~value:(value_buf ()));
    let image =
      List.init (Drive.sector_count drive) (fun i ->
          let s = Drive.peek drive (addr i) in
          ( Array.to_list (Sector.part_of s Sector.Header),
            Array.to_list (Sector.part_of s Sector.Label),
            Array.to_list (Sector.part_of s Sector.Value) ))
    in
    (image, counter "disk.operations" - ops0)
  in
  let uncached_image, uncached_ops = run ~with_cache:false () in
  let hits0 = counter "fs.label_cache.hits" in
  let cached_image, cached_ops = run ~with_cache:true () in
  Alcotest.(check bool) "the cache was actually hit" true
    (counter "fs.label_cache.hits" > hits0);
  Alcotest.(check bool) "hits saved disk operations" true
    (cached_ops < uncached_ops);
  Alcotest.(check bool) "identical pack images" true
    (uncached_image = cached_image)

(* {2 the elevator} *)

(* Outcomes come back in the caller's order however the elevator
   reorders the disk's work. *)
let test_batch_outcome_order () =
  let drive = make_drive () in
  let n = Drive.sector_count drive in
  let marks =
    Array.init n (fun i ->
        let label = label_buf () in
        label.(0) <- Word.of_int (i + 1);
        write_sector drive (addr i) ~label ~value:(value_buf ());
        label.(0))
  in
  (* Request the pack back to front: the elevator will visit it front to
     back, and every outcome must still land in the caller's slot. *)
  let buffers = Array.init n (fun _ -> label_buf ()) in
  let requests =
    Array.init n (fun j ->
        Sched.request ~label:buffers.(j)
          (addr (n - 1 - j))
          { Drive.op_none with label = Some Drive.Read })
  in
  let outcomes = Sched.run_batch drive requests in
  Array.iteri
    (fun j outcome ->
      (match outcome.Sched.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch read %d: %a" j Drive.pp_error e);
      Alcotest.(check int)
        (Printf.sprintf "slot %d" j)
        (Word.to_int marks.(n - 1 - j))
        (Word.to_int buffers.(j).(0)))
    outcomes

let () =
  Alcotest.run "alto label cache"
    [
      ( "invalidation",
        [
          ("label write evicts", `Quick, test_label_write_evicts);
          ("retry evidence evicts", `Quick, test_retry_evidence_evicts);
          ("quarantine evicts", `Quick, test_quarantine_evicts);
          ("no stale masking", `Quick, test_no_stale_masking);
          ( "relocation bumps both generations",
            `Quick,
            test_relocation_bumps_both_generations );
          ("world restore evicts", `Quick, test_world_restore_evicts);
        ] );
      ( "residency",
        [
          ("relinks check labels in core", `Quick, test_relinks_check_in_core);
          ("300 labels all kept", `Quick, test_every_label_kept);
          ("outside the pack misses", `Quick, test_outside_pack_misses);
        ] );
      ("overflow", [ ("a verdict past capacity", `Quick, test_quarantine_overflow) ]);
      ( "determinism",
        [ ("cached equals uncached", `Quick, test_cached_run_matches_uncached) ] );
      ("elevator", [ ("outcomes in caller order", `Quick, test_batch_outcome_order) ]);
    ]

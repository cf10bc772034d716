module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs

let m_slices = Obs.counter "fs.patrol.slices"
let m_verified = Obs.counter "fs.patrol.sectors_verified"
let m_marginal = Obs.counter "fs.patrol.marginal_found"
let m_relocations = Obs.counter "fs.patrol.relocations"
let m_quarantined = Obs.counter "fs.patrol.quarantined"
let m_pages_lost = Obs.counter "fs.patrol.pages_lost"
let m_map_repairs = Obs.counter "fs.patrol.map_repairs"
let m_links_repaired = Obs.counter "fs.patrol.links_repaired"
let m_laps = Obs.counter "fs.patrol.laps"

(* One cylinder of the Diablo 31 (2 tracks x 12 sectors): a slice the
   elevator turns into one seek plus streaming reads. *)
let slice = 24

(* The retry count at which a live page's sector is considered marginal
   and the page moved: false positives cost one copy, false negatives
   risk the data. *)
let suspect_retries = 1

type report = {
  first_sector : int;
  scanned : int;
  suspects : int;
  relocated : int;
  quarantined : int;
  pages_lost : int;
  map_repairs : int;
  links_repaired : int;
  wrapped : bool;
}

type t = {
  fs : Fs.t;
  mutable laps : int;
  mutable slices : int;
  mutable total_suspects : int;
  mutable total_relocated : int;
  mutable total_quarantined : int;
  mutable total_lost : int;
  mutable total_map_repairs : int;
}

let create fs =
  {
    fs;
    laps = 0;
    slices = 0;
    total_suspects = 0;
    total_relocated = 0;
    total_quarantined = 0;
    total_lost = 0;
    total_map_repairs = 0;
  }

let fs t = t.fs
let laps t = t.laps
let slices t = t.slices
let suspects_found t = t.total_suspects
let relocated t = t.total_relocated
let quarantined t = t.total_quarantined
let pages_lost t = t.total_lost
let map_repairs t = t.total_map_repairs

(* Per-slice tallies, folded into the instance totals and the report. *)
type tally = {
  mutable c_suspects : int;
  mutable c_relocated : int;
  mutable c_quarantined : int;
  mutable c_lost : int;
  mutable c_map : int;
  mutable c_links : int;
  mutable c_changed : bool;
}

let fresh_tally () =
  {
    c_suspects = 0;
    c_relocated = 0;
    c_quarantined = 0;
    c_lost = 0;
    c_map = 0;
    c_links = 0;
    c_changed = false;
  }

(* Write the bad marker through a dying sector, best effort: the value
   surface accepts writes blind, and a sector too far gone to take even
   the marker is quarantined by the table alone. *)
let retire drive addr =
  match
    Reliable.run drive addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:(Label.bad_words ()) ~value:(Label.free_value ()) ()
  with
  | Ok () | Error _ -> ()

let salvage_value drive addr =
  let value = Array.make Sector.value_words Word.zero in
  match
    Reliable.run ~policy:Reliable.salvage_policy drive addr
      { Drive.op_none with value = Some Drive.Read }
      ~value ()
  with
  | Ok () -> Some value
  | Error _ -> None

(* Point one neighbour's link hint at the page's new home. The labels at
   both ends of the move are already correct, so a failed fix-up merely
   leaves a stale hint for the §3.6 ladder to survive — never damage.
   A {e torn} fix-up is another matter: the rewrite overwrites a healthy
   page's only copy in place, and a crash mid-write would turn a hint
   refresh into data loss. So a complete patched twin is staged on a
   free sector first; on success it is freed again, and after a tear the
   scavenger's duplicate rescue adopts it. *)
let fix_neighbour t tally ~fid ~page ~addr ~patch =
  if Disk_address.is_nil addr || page < 0 then ()
  else
    let drive = Fs.drive t.fs and cache = Fs.label_cache t.fs in
    let fn = Page.full_name fid ~page ~addr in
    match Page.read ~cache drive fn with
    | Error _ -> ()
    | Ok (lab, value) ->
        let patched = patch lab in
        let staged =
          match Fs.allocate_page t.fs ~label:(fun _ -> patched) ~value with
          | Ok a -> Some a
          | Error _ -> None
        in
        (match Page.rewrite_label ~cache drive fn ~new_label:patched ~value with
        | Ok () ->
            tally.c_links <- tally.c_links + 1;
            Obs.incr m_links_repaired
        | Error _ -> ());
        (match staged with
        | None -> ()
        | Some a -> ignore (Fs.free_page t.fs (Page.full_name fid ~page ~addr:a)))

(* A relocated leader page: every root entry naming the file gets its
   address hint refreshed, and the descriptor's root pointer too when
   the root directory's own leader moved. *)
let fix_catalogue t dst fid =
  (match Fs.root_dir t.fs with
  | Some fn when File_id.equal fn.Page.abs.Page.fid fid ->
      Fs.set_root_dir t.fs (Page.full_name fid ~page:0 ~addr:dst)
  | Some _ | None -> ());
  match Directory.open_root t.fs with
  | Error _ -> ()
  | Ok root -> (
      match Directory.entries root with
      | Error _ -> ()
      | Ok entries ->
          List.iter
            (fun (e : Directory.entry) ->
              if
                File_id.equal e.Directory.entry_file.Page.abs.Page.fid fid
                && not (Disk_address.equal e.Directory.entry_file.Page.addr dst)
              then ignore (Directory.update_address root e.Directory.entry_name dst))
            entries)

(* Copy a page off a dying sector: first write to a fresh sector through
   the ordinary allocation path (so the free check and the map behave
   exactly as for any allocation), re-point the neighbours and the
   catalogue, then retire and quarantine the old sector. Returns the new
   address, or [None] when the disk is full and the page must limp on. *)
let relocate t tally ~src ~(lab : Label.t) ~value =
  let drive = Fs.drive t.fs and cache = Fs.label_cache t.fs in
  (* The move rewrites the page's neighbours and retires its old sector:
     map them all before the copy lands, so a crash mid-move leaves both
     claimants of the page in the map. *)
  Fs.announce t.fs [ src; lab.Label.prev; lab.Label.next ];
  match Fs.allocate_page t.fs ~label:(fun _ -> lab) ~value with
  | Error _ -> None
  | Ok dst ->
      let fid = lab.Label.fid in
      fix_neighbour t tally ~fid ~page:(lab.Label.page - 1) ~addr:lab.Label.prev
        ~patch:(fun (l : Label.t) -> { l with Label.next = dst });
      fix_neighbour t tally ~fid ~page:(lab.Label.page + 1) ~addr:lab.Label.next
        ~patch:(fun (l : Label.t) -> { l with Label.prev = dst });
      if lab.Label.page = 0 then fix_catalogue t dst fid;
      retire drive src;
      Fs.quarantine t.fs src;
      (* Both ends of the move shed any cached label, explicitly: a
         cached image must never resurrect the page at its old address,
         nor mask the fresh label at the new one. *)
      Drive.bump_label_generation drive src;
      Drive.bump_label_generation drive dst;
      Label_cache.invalidate cache src;
      Label_cache.invalidate cache dst;
      (* The track buffer cache holds whole-sector images under the same
         generation discipline; shed both ends eagerly too (a delayed
         write to the old address must not be flushed over the retired
         sector, and the fresh page must be re-read, not remembered). *)
      Bio.invalidate (Fs.bio t.fs) src;
      Bio.invalidate (Fs.bio t.fs) dst;
      tally.c_relocated <- tally.c_relocated + 1;
      tally.c_changed <- true;
      Obs.incr m_relocations;
      Obs.event ~clock:(Drive.clock drive)
        ~fields:
          [
            ("src", Obs.I (Disk_address.to_index src));
            ("dst", Obs.I (Disk_address.to_index dst));
            ("serial", Obs.I fid.File_id.serial);
            ("page", Obs.I lab.Label.page);
          ]
        "fs.patrol.relocate";
      Some dst

let note_quarantined t tally addr ~lost =
  retire (Fs.drive t.fs) addr;
  Fs.quarantine t.fs addr;
  tally.c_quarantined <- tally.c_quarantined + 1;
  tally.c_changed <- true;
  Obs.incr m_quarantined;
  if lost then begin
    tally.c_lost <- tally.c_lost + 1;
    Obs.incr m_pages_lost
  end

(* The batch read hard-failed: the ordinary retry ladder is dry. Learn
   what the sector held under the salvage policy; a still-legible live
   page moves, anything else is quarantined where it stands. *)
let handle_hard_failure t tally addr =
  let drive = Fs.drive t.fs in
  let already = Fs.quarantined t.fs addr in
  let label_buf = Array.make Sector.label_words Word.zero in
  let salvage_label () =
    Reliable.run ~policy:Reliable.salvage_policy drive addr
      { Drive.op_none with label = Some Drive.Read }
      ~label:label_buf ()
  in
  match salvage_label () with
  | Error _ -> if not already then note_quarantined t tally addr ~lost:false
  | Ok () -> (
      match Label.classify label_buf with
      | Label.Valid lab -> (
          tally.c_suspects <- tally.c_suspects + 1;
          Obs.incr m_marginal;
          match salvage_value drive addr with
          | Some value -> ignore (relocate t tally ~src:addr ~lab ~value)
          | None ->
              (* The label survived but the data is gone: the page is
                 lost, and saying so beats serving garbage. Its
                 neighbours still link to it, so they join the map
                 before the marker goes down. *)
              if not already then begin
                Fs.announce t.fs [ lab.Label.prev; lab.Label.next ];
                note_quarantined t tally addr ~lost:true
              end)
      | Label.Free | Label.Bad | Label.Garbage _ ->
          if not already then note_quarantined t tally addr ~lost:false)

(* The slice rules, over sectors already read: entry [j] of [read] and
   [values] is sector [sectors.(j)], [values.(j)] a live page's value.
   Each sector is judged against its retry evidence and the allocation
   map, and healed where it needs healing. *)
let settle_sectors t tally ~sectors (read : Sweep.t) ~values =
  (* Sectors 0..reserved_top are verified like the rest but never moved
     — their address is their identity, and the cure for a dying one is
     the scavenger's full rebuild (or a peer's repair, DESIGN §14). *)
  let reserved_top = Audit.reserved_top t.fs in
  Array.iteri
    (fun j i ->
      let addr = Disk_address.of_index i in
      let reserved = i <= reserved_top in
      match (read.Sweep.values.(j), read.Sweep.classes.(j)) with
      | Sweep.Read_back retries, Sweep.Live lab ->
          (* Map protection: a live page whose map bit reads free would
             cost a stale-map hit (never data) at the next allocation;
             fix the hint now. *)
          if (not reserved) && Fs.is_free_in_map t.fs addr then begin
            Fs.mark_busy t.fs addr;
            tally.c_map <- tally.c_map + 1;
            tally.c_changed <- true;
            Obs.incr m_map_repairs
          end;
          if
            retries >= suspect_retries && (not reserved)
            && not (File_id.equal lab.Label.fid File_id.descriptor)
          then begin
            tally.c_suspects <- tally.c_suspects + 1;
            Obs.incr m_marginal;
            (* The read already fetched the data; reuse it. *)
            ignore (relocate t tally ~src:addr ~lab ~value:values.(j))
          end
      | Sweep.Read_back _, Sweep.Free_sector ->
          (* Map reclamation: a freed page whose map bit stayed busy (a
             crash between the free's label write and the next
             descriptor flush) is merely leaked; reclaim it. A soft trip
             on a free sector is only counted — quarantine needs data at
             risk or a dry ladder, not one retry of noise. *)
          if
            (not reserved)
            && (not (Fs.is_free_in_map t.fs addr))
            && not (Fs.quarantined t.fs addr)
          then begin
            Fs.mark_free t.fs addr;
            tally.c_map <- tally.c_map + 1;
            tally.c_changed <- true;
            Obs.incr m_map_repairs
          end
      | Sweep.Read_back _, Sweep.Marked_bad ->
          (* A marker without a table entry: a crash separated the two
             verdicts. Rejoin them. *)
          if not (Fs.quarantined t.fs addr) then begin
            Fs.quarantine t.fs addr;
            tally.c_quarantined <- tally.c_quarantined + 1;
            tally.c_changed <- true;
            Obs.incr m_quarantined
          end
      | Sweep.Read_back _, (Sweep.Garbage _ | Sweep.Bad_media) ->
          (* A scrambled label is ownership unknown — scavenger
             territory, not the patrol's. (A read that succeeded is
             never [Bad_media].) *)
          ()
      | Sweep.Unreadable, _ -> if not reserved then handle_hard_failure t tally addr)
    sectors

(* Verify one slice of [k] sectors starting at [start] (wrapping past
   the end of the pack). The read is {!Sweep.read}, the one the
   replication audit digests too. *)
let scan_slice t tally ~start ~k =
  let drive = Fs.drive t.fs in
  let n = Drive.sector_count drive in
  (* A patrol verdict must judge the platter, not bits whose newest
     values sit delayed in the track buffer cache: flush first. *)
  ignore (Bio.flush (Fs.bio t.fs));
  (* Live pages' values, kept so a suspect moves without a second
     read. *)
  let values = Array.make k [||] in
  let read =
    Sweep.read drive ~start ~k ~on_value:(fun j cls _ value ->
        match cls with
        | Sweep.Live _ -> values.(j) <- Array.copy value
        | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> ())
  in
  Obs.incr m_slices;
  Obs.add m_verified k;
  t.slices <- t.slices + 1;
  settle_sectors t tally ~sectors:(Array.init k (fun j -> (start + j) mod n)) read ~values

let finish_tally t tally =
  t.total_suspects <- t.total_suspects + tally.c_suspects;
  t.total_relocated <- t.total_relocated + tally.c_relocated;
  t.total_quarantined <- t.total_quarantined + tally.c_quarantined;
  t.total_lost <- t.total_lost + tally.c_lost;
  t.total_map_repairs <- t.total_map_repairs + tally.c_map

let report_of tally ~first_sector ~scanned ~wrapped =
  {
    first_sector;
    scanned;
    suspects = tally.c_suspects;
    relocated = tally.c_relocated;
    quarantined = tally.c_quarantined;
    pages_lost = tally.c_lost;
    map_repairs = tally.c_map;
    links_repaired = tally.c_links;
    wrapped;
  }

(* Persist the descriptor, best effort: a failed flush costs freshness,
   never consistency — the labels already carry the truth. *)
let persist t tally ~wrapped =
  if tally.c_changed || wrapped then match Fs.flush t.fs with Ok () | Error _ -> ()

let tick t =
  let n = Drive.sector_count (Fs.drive t.fs) in
  let start = Fs.patrol_cursor t.fs in
  let k = min slice n in
  let tally = fresh_tally () in
  Obs.time (Fs.clock t.fs) "fs.patrol.slice_us" (fun () ->
      scan_slice t tally ~start ~k);
  Fs.set_patrol_cursor t.fs ((start + k) mod n);
  let wrapped = start + k >= n in
  if wrapped then begin
    t.laps <- t.laps + 1;
    Obs.incr m_laps
  end;
  finish_tally t tally;
  (* The cursor is persisted on change and at each lap boundary; in
     between it may run ahead of the disk copy, which only restarts the
     lap a few sectors early. *)
  persist t tally ~wrapped;
  report_of tally ~first_sector:start ~scanned:k ~wrapped

let settle t ~sectors read ~values =
  let tally = fresh_tally () in
  settle_sectors t tally ~sectors read ~values;
  finish_tally t tally;
  report_of tally ~first_sector:(if sectors = [||] then 0 else sectors.(0))
    ~scanned:(Array.length sectors) ~wrapped:false


module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_runs = Obs.counter "scavenger.runs"
let m_failed_runs = Obs.counter "scavenger.failed_runs"
let m_sectors_scanned = Obs.counter "scavenger.sectors_scanned"
let m_files_found = Obs.counter "scavenger.files_found"
let m_orphans_adopted = Obs.counter "scavenger.orphans_adopted"
let m_links_repaired = Obs.counter "scavenger.links_repaired"
let m_labels_reclaimed = Obs.counter "scavenger.labels_reclaimed"
let m_pages_lost = Obs.counter "scavenger.pages_lost"
let m_pages_quarantined = Obs.counter "scavenger.pages_quarantined"
let m_relocated_pages = Obs.counter "scavenger.relocated_pages"
let m_entries_fixed = Obs.counter "scavenger.entries_fixed"
let m_entries_removed = Obs.counter "scavenger.entries_removed"
let m_roots_rebuilt = Obs.counter "scavenger.roots_rebuilt"
let m_marginal_relocated = Obs.counter "scavenger.marginal_relocated"
let m_duplicates_rescued = Obs.counter "scavenger.duplicates_rescued"
let m_leaders_rebuilt = Obs.counter "scavenger.leaders_rebuilt"

(* The span histogram "scavenger.duration_us" is owned by the
   [Obs.time] wrapper in {!scavenge}. *)

type report = {
  sectors_scanned : int;
  files_found : int;
  files_consecutive : int;
  nameless_files : int;
  directories_found : int;
  orphans_adopted : int;
  links_repaired : int;
  labels_reclaimed : int;
  bad_sectors : int;
  entries_fixed : int;
  entries_removed : int;
  incomplete_files : int;
  pages_lost : int;
  duplicate_pages : int;
  relocated_pages : int;
  marginal_relocated : int;
  pages_marked_bad : int;
  duplicates_rescued : int;
  leaders_rebuilt : int;
  root_rebuilt : bool;
  duration_us : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>scanned %d sectors in %a@,\
     files %d (dirs %d, %d consecutive), orphans adopted %d@,\
     links repaired %d, labels reclaimed %d, bad sectors %d@,\
     entries fixed %d, removed %d; incomplete files %d, pages lost %d@,\
     duplicates %d, relocated %d%s%s%s%s%s@]"
    r.sectors_scanned Sim_clock.pp_duration r.duration_us r.files_found
    r.directories_found r.files_consecutive r.orphans_adopted r.links_repaired
    r.labels_reclaimed r.bad_sectors r.entries_fixed r.entries_removed r.incomplete_files
    r.pages_lost r.duplicate_pages r.relocated_pages
    (if r.marginal_relocated > 0 then
       Printf.sprintf ", %d marginal pages rescued" r.marginal_relocated
     else "")
    (if r.pages_marked_bad > 0 then
       Printf.sprintf ", %d pages marked bad" r.pages_marked_bad
     else "")
    (if r.duplicates_rescued > 0 then
       Printf.sprintf ", %d pages rescued from twins" r.duplicates_rescued
     else "")
    (if r.leaders_rebuilt > 0 then
       Printf.sprintf ", %d leaders rebuilt" r.leaders_rebuilt
     else "")
    (if r.root_rebuilt then ", root rebuilt" else "")


(* Mutable per-file assembly: page number -> (sector index, label). *)
type file_pages = (int, int * Label.t) Hashtbl.t

(* What one run knows and has found. A whole-pack scavenge judges every
   sector from its sweep; a repair through the write-ahead map judges
   the mapped cylinders and the pages its walks reach, and the sweep's
   entries for any other sector mean nothing. *)
type state = {
  drive : Drive.t;
  sweep : Sweep.t;  (** Indexed by sector. *)
  values : (int, Word.t array) Hashtbl.t;
      (** Values kept from the sweep, by sector: leaders and directory
          pages at least. *)
  files : (File_id.t, file_pages) Hashtbl.t;
  spares : (File_id.t * int, (int * Label.t) list) Hashtbl.t;
      (** Losing claimants of a page, kept for the twin rescue. *)
  quarantined : (int, unit) Hashtbl.t;
  suspects : (int, unit) Hashtbl.t;
  final : (File_id.t, (int * Label.t) array) Hashtbl.t;
  take_free : unit -> int option;  (** A free sector for a rebuilt leader. *)
  mutable duplicate_pages : int;
  mutable duplicates_rescued : int;
  mutable leaders_rebuilt : int;
  mutable pages_lost : int;
  mutable incomplete_files : int;
  mutable links_repaired : int;
  mutable labels_reclaimed : int;
  mutable relocated_pages : int;
  mutable marginal_relocated : int;
  mutable entries_fixed : int;
  mutable entries_removed : int;
  mutable orphans_adopted : int;
}

let make_state drive sweep values ~take_free =
  {
    drive;
    sweep;
    values;
    files = Hashtbl.create 64;
    spares = Hashtbl.create 8;
    quarantined = Hashtbl.create 8;
    suspects = Hashtbl.create 8;
    final = Hashtbl.create 64;
    take_free;
    duplicate_pages = 0;
    duplicates_rescued = 0;
    leaders_rebuilt = 0;
    pages_lost = 0;
    incomplete_files = 0;
    links_repaired = 0;
    labels_reclaimed = 0;
    relocated_pages = 0;
    marginal_relocated = 0;
    entries_fixed = 0;
    entries_removed = 0;
    orphans_adopted = 0;
  }

let write_labelled drive i ~label ~value =
  Reliable.run drive (Disk_address.of_index i)
    { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
    ~label ~value ()

(* Rewrite a page's label with corrected links (reads the value first —
   the write-continuation rule means a label write must carry the value
   along — then writes both back). The read runs under the salvage
   policy: the page being re-chained may sit on a marginal sector, and a
   failed repair here strands the rest of the file behind a dangling
   link. *)
let repair_label st ~fid ~pn ~addr_index ~length ~next ~prev =
  let addr = Disk_address.of_index addr_index in
  let value = Array.make Sector.value_words Word.zero in
  match
    Reliable.run ~policy:Reliable.salvage_policy st.drive addr
      { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read }
      ~label:(Label.check_name fid ~page:pn) ~value ()
  with
  | Error _ -> false
  | Ok () -> (
      let new_label = Label.make ~fid ~page:pn ~length ~next ~prev in
      match write_labelled st.drive addr_index ~label:(Label.to_words new_label) ~value with
      | Ok () ->
          st.links_repaired <- st.links_repaired + 1;
          true
      | Error _ -> false)

(* {2 The steps}

   Numbered as in the interface. A whole-pack scavenge runs them all; a
   repair through the write-ahead map runs 1, 1b, 2, 5, 7, 10 and 12 over
   the files and entries the map shows a crash can have touched. *)

(* 1. Group the live pages of [sectors] (ascending) by file id; detect
   duplicate absolute names. The first claimant wins, but the losers
   are kept aside: a crash mid-move (compaction, relocation) leaves two
   sectors claiming one page, and if the chosen copy turns out torn the
   twin may still hold the data. *)
let group st sectors =
  Array.iter
    (fun i ->
      match st.sweep.Sweep.classes.(i) with
      | Sweep.Live label ->
          let fid = label.Label.fid in
          (* The descriptor is rebuilt from scratch, so its old pages are
             simply not collected. *)
          if not (File_id.equal fid File_id.descriptor) then begin
            let pages =
              match Hashtbl.find_opt st.files fid with
              | Some p -> p
              | None ->
                  let p = Hashtbl.create 8 in
                  Hashtbl.add st.files fid p;
                  p
            in
            match Hashtbl.find_opt pages label.Label.page with
            | Some _ ->
                st.duplicate_pages <- st.duplicate_pages + 1;
                let key = (fid, label.Label.page) in
                let prior = Option.value ~default:[] (Hashtbl.find_opt st.spares key) in
                Hashtbl.replace st.spares key ((i, label) :: prior)
            | None -> Hashtbl.add pages label.Label.page (i, label)
          end
      | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> ())
    sectors

(* 1b. Value verification, from the sweep's verdicts. A sector
   whose label works but whose data surface is gone gets the bad
   marker written into its label — §3.5's "marked in the label with a
   special value so that they will never be used again" — and its page
   drops out of its file. A sector that read back only after
   [suspect_retries] or more retries is *marginal*: still readable
   today, unlikely to be tomorrow. Its page survives, but the sector
   joins the suspect list, where no page may end: step 4's plan moves
   the page to a fresh sector. *)
let verify st ~suspect_retries =
  let live =
    Hashtbl.fold
      (fun fid (pages : file_pages) acc ->
        Hashtbl.fold (fun pn (i, _) acc -> (i, pn, fid, pages) :: acc) pages acc)
      st.files []
  in
  let live = Array.of_list live in
  Array.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) live;
  Array.iter
    (fun (i, pn, fid, pages) ->
      match st.sweep.Sweep.values.(i) with
      | Sweep.Read_back retries ->
          if retries >= suspect_retries then Hashtbl.replace st.suspects i ()
      | Sweep.Unreadable ->
          (* Write the marker; the data surface accepts writes blind. *)
          (match
             write_labelled st.drive i ~label:(Label.bad_words ()) ~value:(Label.free_value ())
           with
          | Ok () | Error _ -> ());
          Hashtbl.replace st.quarantined i ();
          (* Before declaring the page lost, try its twins: a crash
             between a move's copy and its retire leaves a duplicate,
             and the torn copy must not take the data down with it if
             the twin read back in the sweep. *)
          match
            List.find_opt
              (fun (si, _) ->
                match st.sweep.Sweep.values.(si) with
                | Sweep.Read_back _ -> true
                | Sweep.Unreadable -> false)
              (Option.value ~default:[] (Hashtbl.find_opt st.spares (fid, pn)))
          with
          | Some twin ->
              Hashtbl.replace pages pn twin;
              st.duplicates_rescued <- st.duplicates_rescued + 1
          | None ->
              Hashtbl.remove pages pn;
              st.pages_lost <- st.pages_lost + 1)
    live

(* 2. Per-file contiguity: keep the longest prefix 0..k; everything
   beyond a gap is lost. A headless file — its leader sector torn by a
   crash or decayed — still has every data page on the platter, each
   label naming its (file, page): §3.2 keeps "all the properties of
   the file other than its length and its data" in the leader, so a
   fresh leader on a free sector is the only thing reconstruction
   needs to write. The file keeps its directory name if catalogued
   (entries bind the file id, not the leader sector) and gets a
   Scavenged name otherwise. *)
let rebuild_leader st fid (pages : file_pages) =
  match Hashtbl.find_opt pages 1 with
  | None -> false
  | Some (p1_i, _) -> (
      let rec last k = if Hashtbl.mem pages (k + 1) then last (k + 1) else k in
      let k = last 1 in
      let last_i, _ = Hashtbl.find pages k in
      let leader =
        Leader.make
          ~name:(Printf.sprintf "Scavenged.%d!%d" fid.File_id.serial fid.File_id.version)
          ~last_page:k
          ~last_addr:(Disk_address.of_index last_i)
          ~maybe_consecutive:false ()
      in
      let label =
        Label.make ~fid ~page:0 ~length:Sector.bytes_per_page
          ~next:(Disk_address.of_index p1_i) ~prev:Disk_address.nil
      in
      match st.take_free () with
      | None -> false
      | Some dst -> (
          match
            write_labelled st.drive dst ~label:(Label.to_words label)
              ~value:(Leader.to_value leader)
          with
          | Ok () ->
              Hashtbl.replace pages 0 (dst, label);
              st.leaders_rebuilt <- st.leaders_rebuilt + 1;
              true
          | Error _ -> false))

let assemble st =
  Hashtbl.iter
    (fun fid (pages : file_pages) ->
      if Hashtbl.length pages = 0 then ()
      else if not (Hashtbl.mem pages 0 || rebuild_leader st fid pages) then begin
        st.incomplete_files <- st.incomplete_files + 1;
        st.pages_lost <- st.pages_lost + Hashtbl.length pages
      end
      else begin
        let rec prefix k = if Hashtbl.mem pages (k + 1) then prefix (k + 1) else k in
        let k = prefix 0 in
        let total = Hashtbl.length pages in
        if total > k + 1 then begin
          st.incomplete_files <- st.incomplete_files + 1;
          Hashtbl.iter
            (fun pn (_, _) -> if pn > k then st.pages_lost <- st.pages_lost + 1)
            pages
        end;
        Hashtbl.replace st.final fid (Array.init (k + 1) (fun pn -> Hashtbl.find pages pn))
      end)
    st.files

(* 4. Placement. *)

type layout = {
  sectors : int;
  first : int;
  files : (File_id.t * int array) list;
  usable : int -> bool;
  free : int -> bool;
}

type plan = layout -> ((File_id.t * int) * int) list

(* Pages on the descriptor's sectors or on marginal ones (the boot page
   at sector 0 stays) take the lowest free sectors. *)
let evacuation l =
  let next = ref 0 and plan = ref [] in
  let rec free_from i =
    if i < l.sectors && not (l.free i) then free_from (i + 1) else i
  in
  List.iter
    (fun (fid, sectors) ->
      Array.iteri
        (fun pn i ->
          if i > 0 && not (l.usable i) then begin
            let t = free_from !next in
            next := t + 1;
            if t < l.sectors then plan := ((fid, pn), t) :: !plan
          end)
        sectors)
    l.files;
  List.rev !plan

(* Targets are filled in ascending order, each with the image its page
   ends with, so step 7 finds nothing to repair in a placed page. The
   platter holds a whole copy of every page throughout: before a sector
   holding a page's only copy is overwritten — a page in the way, or a
   page rewritten where it stands — that image is staged on the lowest
   free sector above every target, and a torn write leaves the twin
   that step 1b's rescue adopts. A page in the way is parked where the
   incoming page stood, or stays on the staging sector when that is
   marginal or the descriptor's (the next free sector up stages from
   then on). Only a pack with no such sector holds a parked page in
   core alone across the swap. A page that leaves a marginal sector
   retires it to the quarantine. Returns the sectors written. *)
let place st ~cache ~usable plan =
  let n = Array.length st.sweep.Sweep.classes in
  let pages_of fid = Hashtbl.find st.final fid in
  let at (fid, pn) = fst (pages_of fid).(pn) in
  let occupant = Array.make n None in
  Hashtbl.iter
    (fun fid pages -> Array.iteri (fun pn (i, _) -> occupant.(i) <- Some (fid, pn)) pages)
    st.final;
  (* An entry naming a page the run did not keep, a sector no page may
     end on, or a sector already named, is ignored. *)
  let target = Hashtbl.create 64 and origin = Hashtbl.create 64 in
  let incoming = Array.make n None in
  List.iter
    (fun (((fid, pn) as id), t) ->
      if
        (match Hashtbl.find_opt st.final fid with
        | Some pages -> pn >= 0 && pn < Array.length pages
        | None -> false)
        && t >= 0 && t < n && usable t
        && Option.is_none incoming.(t)
        && not (Hashtbl.mem target id)
      then begin
        Hashtbl.replace target id t;
        Hashtbl.replace origin id (at id);
        incoming.(t) <- Some id
      end)
    plan;
  let final_at id = Option.value (Hashtbl.find_opt target id) ~default:(at id) in
  let final_label (fid, pn) =
    let pages = pages_of fid in
    let link k =
      if k < 0 || k >= Array.length pages then Disk_address.nil
      else Disk_address.of_index (final_at (fid, k))
    in
    Label.make ~fid ~page:pn ~length:(snd pages.(pn)).Label.length
      ~next:(link (pn + 1)) ~prev:(link (pn - 1))
  in
  let final_value (fid, pn) value =
    match Leader.of_value value with
    | Ok leader when pn = 0 ->
        let last = Array.length (pages_of fid) - 1 in
        let rec consecutive k =
          k > last
          || (final_at (fid, k) = final_at (fid, k - 1) + 1 && consecutive (k + 1))
        in
        Leader.to_value
          (Leader.with_consecutive
             (Leader.with_last leader ~last_page:last
                ~last_addr:(Disk_address.of_index (final_at (fid, last))))
             (consecutive 1))
    | Ok _ | Error _ -> value
  in
  (* A page's value: kept from the sweep, or read under the salvage
     policy — this may be the last copy of somebody's data. *)
  let value_at i =
    match Hashtbl.find_opt st.values i with
    | Some value -> Some value
    | None -> (
        let value = Array.make Sector.value_words Word.zero in
        match
          Reliable.run ~policy:Reliable.salvage_policy st.drive
            (Disk_address.of_index i)
            { Drive.op_none with value = Some Drive.Read }
            ~value ()
        with
        | Ok () -> Some value
        | Error _ -> None)
  in
  let image id =
    Option.map (fun v -> (final_label id, final_value id v)) (value_at (at id))
  in
  let written = Hashtbl.create 8 in
  let write i (label, value) =
    Hashtbl.replace written i ();
    let words = Label.to_words label in
    match write_labelled st.drive i ~label:words ~value with
    | Ok () ->
        Label_cache.note_verified cache (Disk_address.of_index i) words;
        true
    | Error _ -> false
  in
  let settle ((fid, pn) as id) i ((label, value) : Label.t * Word.t array) =
    let pages = pages_of fid in
    (match occupant.(fst pages.(pn)) with
    | Some (f, p) when File_id.equal f fid && p = pn -> occupant.(fst pages.(pn)) <- None
    | Some _ | None -> ());
    occupant.(i) <- Some id;
    pages.(pn) <- (i, label);
    if pn = 0 || File_id.is_directory fid then Hashtbl.replace st.values i value
    else Hashtbl.remove st.values i
  in
  (* The staging sector: the lowest free one above every target, close
     to the pages being placed. *)
  let spare = ref (Hashtbl.fold (fun _ t m -> max t m) target 0) in
  let rec next_spare () =
    incr spare;
    if !spare >= n then None
    else if usable !spare && Option.is_none occupant.(!spare) then Some !spare
    else next_spare ()
  in
  let staging = ref (next_spare ()) in
  let stage img = Option.iter (fun s -> ignore (write s img)) !staging in
  (* The staged twin becomes the page's home. *)
  let keep_staged id img =
    Option.iter
      (fun s ->
        settle id s img;
        staging := next_spare ())
      !staging
  in
  let unchanged ((fid, pn) as id) =
    Label.equal (final_label id) (snd (pages_of fid).(pn))
    && (pn > 0
       ||
       match value_at (at id) with
       | Some v -> Array.for_all2 Word.equal v (final_value id v)
       | None -> true)
  in
  let leave src =
    if Hashtbl.mem st.suspects src then begin
      (* The bad marker: the old sector reads as quarantined ever after,
         never as a duplicate of the page that moved. *)
      (match
         write_labelled st.drive src ~label:(Label.bad_words ())
           ~value:(Label.free_value ())
       with
      | Ok () | Error _ -> ());
      Hashtbl.replace st.quarantined src ();
      st.marginal_relocated <- st.marginal_relocated + 1
    end
  in
  Array.iteri
    (fun t -> function
      | None -> ()
      | Some id -> (
          let src = at id in
          (* A page that cannot be placed stays where it stands. *)
          let abandon () = Hashtbl.remove target id in
          if src = t then begin
            if not (unchanged id) then
              match image id with
              | None -> abandon ()
              | Some img ->
                  stage img;
                  if write t img then settle id t img
                  else begin
                    abandon ();
                    keep_staged id img
                  end
          end
          else
            match occupant.(t) with
            | None -> (
                match image id with
                | Some img when write t img ->
                    settle id t img;
                    leave src
                | Some _ | None -> abandon ())
            | Some q -> (
                match (image q, image id) with
                | Some qimg, Some img when usable src || Option.is_some !staging ->
                    stage qimg;
                    if write t img then begin
                      settle id t img;
                      if usable src && write src qimg then settle q src qimg
                      else keep_staged q qimg;
                      leave src
                    end
                    else begin
                      abandon ();
                      keep_staged q qimg
                    end
                | (Some _ | None), _ -> abandon ())))
    incoming;
  Hashtbl.iter
    (fun id i -> if at id <> i then st.relocated_pages <- st.relocated_pages + 1)
    origin;
  written

(* 5's write pass: free the sectors in one elevator batch of label+value
   writes. Writes never mutate their buffers, so every request shares the
   two free patterns. *)
let free_batch st sectors =
  let free_label = Label.free_words () and free_value = Label.free_value () in
  let outcomes =
    Sched.run_batch st.drive
      (Array.map
         (fun i ->
           Sched.request ~label:free_label ~value:free_value (Disk_address.of_index i)
             { Drive.op_none with Drive.label = Some Drive.Write; value = Some Drive.Write })
         sectors)
  in
  Array.iteri
    (fun j outcome ->
      match (outcome.Sched.result, st.sweep.Sweep.classes.(sectors.(j))) with
      | Ok (), Sweep.Garbage _ -> st.labels_reclaimed <- st.labels_reclaimed + 1
      | Ok (), (Sweep.Live _ | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media)
      | Error _, _ ->
          ())
    outcomes;
  outcomes

(* 7. Repair links (and force the last page's next link to NIL). *)
let relink st =
  Hashtbl.iter
    (fun fid pages ->
      let last = Array.length pages - 1 in
      let addr_of pn =
        if pn < 0 || pn > last then Disk_address.nil
        else Disk_address.of_index (fst pages.(pn))
      in
      Array.iteri
        (fun pn (i, label) ->
          let next = addr_of (pn + 1) and prev = addr_of (pn - 1) in
          if
            (not (Disk_address.equal label.Label.next next))
            || not (Disk_address.equal label.Label.prev prev)
          then begin
            if
              repair_label st ~fid ~pn ~addr_index:i ~length:label.Label.length ~next
                ~prev
            then
              pages.(pn) <-
                (i, Label.make ~fid ~page:pn ~length:label.Label.length ~next ~prev)
          end)
        pages)
    st.final

(* 10, for one directory's entries: keep an entry whose file's leader
   is where it says, fix its address where the leader is elsewhere
   ([leader_of]), drop it where the file is gone. Returns the survivors
   and whether anything changed; every file kept is [referenced]. *)
let settle_entries st ~referenced ~leader_of entries =
  let changed = ref false in
  let surviving =
    List.filter_map
      (fun (e : Directory.entry) ->
        let efid = e.Directory.entry_file.Page.abs.Page.fid in
        match leader_of e with
        | None ->
            st.entries_removed <- st.entries_removed + 1;
            changed := true;
            None
        | Some real ->
            Hashtbl.replace referenced efid ();
            if Disk_address.equal e.Directory.entry_file.Page.addr real then Some e
            else begin
              st.entries_fixed <- st.entries_fixed + 1;
              changed := true;
              Some { e with Directory.entry_file = Page.full_name efid ~page:0 ~addr:real }
            end)
      entries
  in
  (surviving, !changed)

(* 12. Adopt orphans — (file, leader sector), in order — into the root
   under their leader names, read from the values kept. [names] holds
   the root's names while they are known; the root itself is asked only
   once they are not. *)
let adopt_orphans st ~open_root ~names orphans =
  let taken root candidate =
    match !names with
    | Some names -> Hashtbl.mem names candidate
    | None -> (
        match Directory.lookup root candidate with
        | Ok found -> found <> None
        | Error _ -> false)
  in
  let unique_name root base =
    let rec go candidate k =
      if taken root candidate then go (Printf.sprintf "%s~%d" base k) (k + 1) else candidate
    in
    go base 1
  in
  List.iter
    (fun (fid, i) ->
      match open_root () with
      | Error _ -> ()
      | Ok root -> (
          let fn = Page.full_name fid ~page:0 ~addr:(Disk_address.of_index i) in
          let base =
            match Option.map Leader.of_value (Hashtbl.find_opt st.values i) with
            | Some (Ok leader) when String.length leader.Leader.name > 0 -> leader.Leader.name
            | Some (Ok _ | Error _) | None ->
                Printf.sprintf "Scavenged.%d!%d" fid.File_id.serial fid.File_id.version
          in
          let name = unique_name root base in
          match Directory.add root ~name fn with
          | Ok () ->
              Option.iter (fun names -> Hashtbl.replace names name ()) !names;
              st.orphans_adopted <- st.orphans_adopted + 1
          | Error _ -> names := None))
    orphans

let names_of entries =
  let names = Hashtbl.create 64 in
  List.iter (fun (e : Directory.entry) -> Hashtbl.replace names e.Directory.entry_name ()) entries;
  names

let report_of st ~sectors_scanned ~nameless_files ~directories_found ~bad_sectors
    ~root_rebuilt ~duration_us =
  {
    sectors_scanned;
    files_found = Hashtbl.length st.final;
    files_consecutive =
      Hashtbl.fold
        (fun _ pages k ->
          let rec run pn =
            pn >= Array.length pages
            || (fst pages.(pn) = fst pages.(pn - 1) + 1 && run (pn + 1))
          in
          if run 1 then k + 1 else k)
        st.final 0;
    nameless_files;
    directories_found;
    orphans_adopted = st.orphans_adopted;
    links_repaired = st.links_repaired;
    labels_reclaimed = st.labels_reclaimed;
    bad_sectors;
    entries_fixed = st.entries_fixed;
    entries_removed = st.entries_removed;
    incomplete_files = st.incomplete_files;
    pages_lost = st.pages_lost;
    duplicate_pages = st.duplicate_pages;
    relocated_pages = st.relocated_pages;
    marginal_relocated = st.marginal_relocated;
    pages_marked_bad = Hashtbl.length st.quarantined;
    duplicates_rescued = st.duplicates_rescued;
    leaders_rebuilt = st.leaders_rebuilt;
    root_rebuilt;
    duration_us;
  }

let scavenge_run ~suspect_retries plan drive =
  let clock = Drive.clock drive in
  let started = Sim_clock.now_us clock in
  (* Each pass that touches the disk runs under a named span, so the
     profile splits the minute the paper quotes into its real parts. *)
  let pass name f = Prof.span clock ("scavenger." ^ name) f in
  let fs = Fs.create_unmounted drive in
  (* A scavenge may write anywhere: the whole pack is mapped before it
     begins, so a crash part way boots into another. *)
  Fs.announce_whole fs;
  (* The sweep reads every value in its own operations, under the
     salvage policy: this may be the last copy of somebody's data, and
     the retry effort each sector needed is the evidence that its surface
     is marginal. The values of leaders and directory pages come out of
     the same pass and are kept, by sector, so steps 8 and 10-12 judge
     the leaders and the catalogue without reading them again; the rest
     are judged and dropped. Every label read goes into the rebuilt
     volume's label cache, as a label check would put it there, so a
     directory the run must still rewrite opens without reading its
     chain again. *)
  let values : (int, Word.t array) Hashtbl.t = Hashtbl.create 64 in
  let sweep =
    pass "sweep" (fun () ->
        Sweep.run ~policy:Reliable.salvage_policy
          ~on_value:(fun i cls label value ->
            Label_cache.note_verified (Fs.label_cache fs) (Disk_address.of_index i) label;
            match cls with
            | Sweep.Live l when l.Label.page = 0 || File_id.is_directory l.Label.fid ->
                Hashtbl.replace values i (Array.copy value)
            | Sweep.Live _ | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media
            | Sweep.Garbage _ ->
                ())
          drive)
  in
  let n = Array.length sweep.Sweep.classes in
  (* A rebuilt leader takes the highest free sector the sweep saw. *)
  let spare_free = ref (n - 1) in
  let take_free () =
    while
      !spare_free >= 0
      &&
      match sweep.Sweep.classes.(!spare_free) with
      | Sweep.Free_sector -> false
      | Sweep.Live _ | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> true
    do
      decr spare_free
    done;
    if !spare_free < 0 then None
    else begin
      let i = !spare_free in
      decr spare_free;
      Some i
    end
  in
  let st = make_state drive sweep values ~take_free in
  group st (Array.init n Fun.id);
  pass "verify" (fun () -> verify st ~suspect_retries);
  assemble st;

  (* 3. Where a page may end: past the descriptor's standard addresses,
     on a sector neither bad, quarantined nor marginal. *)
  let reserved_top = 1 + Fs.descriptor_page_count fs in
  let bad i =
    match sweep.Sweep.classes.(i) with
    | Sweep.Marked_bad | Sweep.Bad_media -> true
    | Sweep.Live _ | Sweep.Free_sector | Sweep.Garbage _ -> false
  in
  let usable i =
    i > reserved_top
    && not (bad i || Hashtbl.mem st.quarantined i || Hashtbl.mem st.suspects i)
  in
  let files =
    Hashtbl.fold (fun fid pages l -> (fid, Array.map fst pages) :: l) st.final []
  in
  let kept =
    lazy
      (let kept = Array.make n false in
       List.iter (fun (_, at) -> Array.iter (fun i -> kept.(i) <- true) at) files;
       kept)
  in
  let layout =
    {
      sectors = n;
      first = reserved_top + 1;
      files;
      usable;
      free = (fun i -> usable i && not (Lazy.force kept).(i));
    }
  in

  (* 4. Place pages where the plan says. *)
  let written =
    pass "place" (fun () ->
        match plan layout with
        | [] -> Hashtbl.create 1
        | entries -> place st ~cache:(Fs.label_cache fs) ~usable entries)
  in

  (* 5. Occupancy: the boot page, the reserved range, bad and
     quarantined sectors, and every kept page — one left on the
     reserved range is lost to the descriptor. Free every other sector
     the sweep did not find free or placement wrote. *)
  let busy = Array.make n false in
  let bad_sectors = ref 0 in
  for i = 0 to n - 1 do
    if i <= reserved_top || Hashtbl.mem st.quarantined i then busy.(i) <- true;
    if bad i then begin
      busy.(i) <- true;
      incr bad_sectors
    end
  done;
  Hashtbl.iter
    (fun _ pages ->
      Array.iter
        (fun (i, _) ->
          if i >= 1 && i <= reserved_top then st.pages_lost <- st.pages_lost + 1;
          busy.(i) <- true)
        pages)
    st.final;
  let to_free = ref [] in
  for i = n - 1 downto 0 do
    if not busy.(i) then
      match sweep.Sweep.classes.(i) with
      | Sweep.Free_sector -> if Hashtbl.mem written i then to_free := i :: !to_free
      | Sweep.Garbage _ | Sweep.Live _ -> to_free := i :: !to_free
      | Sweep.Marked_bad | Sweep.Bad_media -> assert false
  done;
  let to_free = Array.of_list !to_free in
  let free_outcomes = pass "free" (fun () -> free_batch st to_free) in
  Array.iteri
    (fun j outcome ->
      match outcome.Sched.result with
      | Ok () -> ()
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          busy.(to_free.(j)) <- true;
          incr bad_sectors)
    free_outcomes;

  (* 6. Install the rebuilt allocation map, and record every sector
     known bad — marked in the label, unreadable media, or quarantined
     during this run — in the volume's persistent bad-sector table so
     the verdict survives remounts. *)
  for i = 0 to n - 1 do
    let addr = Disk_address.of_index i in
    if busy.(i) then Fs.mark_busy fs addr else Fs.mark_free fs addr;
    let known_bad =
      match sweep.Sweep.classes.(i) with
      | Sweep.Marked_bad | Sweep.Bad_media -> true
      | Sweep.Live _ | Sweep.Free_sector | Sweep.Garbage _ -> Hashtbl.mem st.quarantined i
    in
    if known_bad then Fs.quarantine fs addr
  done;

  pass "links" (fun () -> relink st);

  (* 8. Read every leader page: the leader name is the file's survival
     kit, so the scavenger verifies each one is legible. This pass is a
     large share of the minute the paper quotes — one scattered read per
     file — so the whole set goes through the elevator as one batch. The
     sweep already holds every leader it read back, placement keeps the
     image it wrote, and the link repairs write the value they read, so
     only leaders rebuilt since are read again, and what they read is
     kept with the rest. *)
  let nameless_files = ref 0 in
  let legible value =
    match Leader.of_value value with
    | Ok _ -> ()
    | Error _ -> incr nameless_files
  in
  let leaders =
    Array.of_list
      (Hashtbl.fold
         (fun fid pages acc ->
           let i = fst pages.(0) in
           match Hashtbl.find_opt values i with
           | Some value ->
               legible value;
               acc
           | None -> (fid, i) :: acc)
         st.final [])
  in
  let leader_values =
    Array.init (Array.length leaders) (fun _ ->
        Array.make Sector.value_words Word.zero)
  in
  let leader_outcomes =
    pass "leaders" (fun () ->
        Sched.run_batch drive
          (Array.mapi
             (fun j (fid, i) ->
               Sched.request
                 ~label:(Label.check_name fid ~page:0)
                 ~value:leader_values.(j)
                 (Disk_address.of_index i)
                 { Drive.op_none with
                   Drive.label = Some Drive.Check;
                   value = Some Drive.Read
                 })
             leaders))
  in
  Array.iteri
    (fun j outcome ->
      match outcome.Sched.result with
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          incr nameless_files
      | Ok () ->
          legible leader_values.(j);
          Hashtbl.replace values (snd leaders.(j)) leader_values.(j))
    leader_outcomes;

  (* 9. Serial counter: beyond every serial seen. *)
  let max_serial =
    Hashtbl.fold (fun fid _ m -> max m fid.File_id.serial) st.final 0
  in
  Fs.set_next_serial fs (max (max_serial + 1) File_id.first_user_serial);

  (* 10. Directories: verify entries, fix addresses, drop dangling ones —
     from the values kept, which hold every page of every directory in
     [final] as the sweep read it (or as placement carried it). A
     directory opens as [File.open_leader] would open it, if its leader
     is legible; it is read through [File] only if it must be
     rewritten. *)
  let leader_name_of fid =
    Page.full_name fid ~page:0
      ~addr:(Disk_address.of_index (fst (Hashtbl.find st.final fid).(0)))
  in
  let directories =
    Hashtbl.fold
      (fun fid pages acc ->
        if not (File_id.is_directory fid) then acc
        else
          match Option.map Leader.of_value (Hashtbl.find_opt values (fst pages.(0))) with
          | Some (Ok leader) -> (fid, leader, pages) :: acc
          | Some (Error _) | None -> acc)
      st.final []
  in
  let handles : (File_id.t, File.t) Hashtbl.t = Hashtbl.create 4 in
  let open_directory fid =
    match Hashtbl.find_opt handles fid with
    | Some file -> Ok file
    | None ->
        Result.map
          (fun file ->
            Hashtbl.replace handles fid file;
            file)
          (File.open_leader fs (leader_name_of fid))
  in
  let referenced : (File_id.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let leader_of (e : Directory.entry) =
    Option.map
      (fun pages -> Disk_address.of_index (fst pages.(0)))
      (Hashtbl.find_opt st.final e.Directory.entry_file.Page.abs.Page.fid)
  in
  (* Each directory's live entries once verified, or [None] where the
     rewrite failed and only the disk knows what it holds. *)
  let verified =
    pass "directories" (fun () ->
        List.map
          (fun (fid, leader, pages) ->
            let entries, damaged =
              Directory.salvage_of
                (Array.init
                   (Array.length pages - 1)
                   (fun j ->
                     let i, label = pages.(j + 1) in
                     (Hashtbl.find values i, label.Label.length)))
            in
            let surviving, changed = settle_entries st ~referenced ~leader_of entries in
            let rewritten =
              (not (damaged || changed))
              ||
              match open_directory fid with
              | Ok file -> Result.is_ok (Directory.rewrite file surviving)
              | Error _ -> false
            in
            (fid, leader, if rewritten then Some surviving else None))
          directories)
  in

  (* 11. Choose or rebuild the root directory. *)
  let find_root () =
    match
      List.find_opt (fun (fid, _, _) -> File_id.equal fid File_id.root_directory) verified
    with
    | Some found -> Some found
    | None ->
        List.find_opt
          (fun (_, leader, _) -> String.equal leader.Leader.name "SysDir.")
          verified
  in
  let root_rebuilt = ref false in
  let root_result =
    pass "root" (fun () ->
        match find_root () with
        | Some (fid, _, entries) -> Ok (fid, entries)
        | None ->
            root_rebuilt := true;
            let fid =
              if Hashtbl.mem st.final File_id.root_directory then
                Fs.fresh_fid ~directory:true fs
              else File_id.root_directory
            in
            Result.map
              (fun file ->
                Hashtbl.replace handles fid file;
                (fid, Some []))
              (File.create_with_id fs fid ~name:"SysDir."))
  in
  match root_result with
  | Error e -> Error (Format.asprintf "cannot rebuild a root directory: %a" File.pp_error e)
  | Ok (root_fid, root_entries) -> (
      let root_name =
        match Hashtbl.find_opt handles root_fid with
        | Some file -> File.leader_name file
        | None -> leader_name_of root_fid
      in
      Fs.set_root_dir fs root_name;
      Hashtbl.replace referenced root_fid ();

      (* 12. Adopt orphans under their leader names, read from the
         leaders kept. The root is opened for the first orphan only. *)
      let orphans = ref [] in
      Hashtbl.iter
        (fun fid pages ->
          if not (Hashtbl.mem referenced fid) then orphans := (fid, fst pages.(0)) :: !orphans)
        st.final;
      pass "orphans" (fun () ->
          adopt_orphans st
            ~open_root:(fun () -> open_directory root_fid)
            ~names:(ref (Option.map names_of root_entries))
            (List.rev !orphans));

      (* 13. A fresh descriptor at the standard address. *)
      match pass "rebuild" (fun () -> Fs.rebuild_descriptor fs) with
      | Error e -> Error (Format.asprintf "cannot write a fresh descriptor: %a" Fs.pp_error e)
      | Ok () ->
          (* The rebuilt volume is a consistency point: persist any
             quarantine verdicts that overflowed the descriptor table,
             seal a flight record, and empty the write-ahead map. Best
             effort — failure costs only a redundant recovery at the next
             boot. *)
          pass "rebuild" (fun () ->
              if Fs.spilled_table fs <> [] then
                (match Bad_sectors.flush fs with Ok _ | Error _ -> ());
              Flight.flush ~reason:"scavenge" fs;
              match Fs.mark_clean fs with Ok () | Error _ -> ());
          Ok
            ( fs,
              report_of st ~sectors_scanned:n ~nameless_files:!nameless_files
                ~directories_found:(List.length verified) ~bad_sectors:!bad_sectors
                ~root_rebuilt:!root_rebuilt
                ~duration_us:(Sim_clock.now_us clock - started) ))

(* {2 Repair through the write-ahead map}

   Writes since the last consistency point landed only in the mapped
   cylinders, and every label written there mapped the cylinders its
   links name. So a page outside the map is as the consistency point
   left it, and so is a link out of the map; a link into the map must be
   answered by the page it names. The repair reads the mapped cylinders,
   finds the files whose pages there do not agree — a page that will not
   read back, two claimants of one page, a link the page it names does
   not return — walks their chains out of the map by label checks, and
   rebuilds just those files with the steps above. The map says only
   where damage can be; the labels still say what it is. *)

let root_needs_repair = "the root directory needs repair"

let repair fs ~cylinders =
  let ( let* ) = Result.bind in
  let drive = Fs.drive fs in
  let clock = Drive.clock drive in
  let started = Sim_clock.now_us clock in
  let pass name f = Prof.span clock ("recovery." ^ name) f in
  let n = Drive.sector_count drive in
  let g = Drive.geometry drive in
  let per_cylinder = g.Geometry.heads * g.Geometry.sectors_per_track in
  let mapped =
    Array.of_list
      (List.concat_map
         (fun c -> List.init per_cylinder (fun k -> (c * per_cylinder) + k))
         cylinders)
  in
  let addr = Disk_address.of_index in
  (* What the repair knows, by sector: the sweep's verdict on the mapped
     cylinders and the walks' on the pages they reach. *)
  let judged = Array.make n false in
  let sweep = { Sweep.classes = Array.make n Sweep.Bad_media; values = Array.make n Sweep.Unreadable } in
  let values : (int, Word.t array) Hashtbl.t = Hashtbl.create 64 in
  ignore (Bio.flush (Fs.bio fs));
  let read =
    pass "sweep" (fun () ->
        Sweep.run_sectors drive mapped ~on_value:(fun i cls label value ->
            Label_cache.note_verified (Fs.label_cache fs) (addr i) label;
            match cls with
            | Sweep.Live _ -> Hashtbl.replace values i (Array.copy value)
            | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> ()))
  in
  Array.iteri
    (fun j i ->
      judged.(i) <- true;
      sweep.Sweep.classes.(i) <- read.Sweep.classes.(j);
      sweep.Sweep.values.(i) <- read.Sweep.values.(j))
    mapped;
  let live i =
    match sweep.Sweep.classes.(i) with
    | Sweep.Live l when judged.(i) -> Some l
    | Sweep.Live _ | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ ->
        None
  in
  (* The files whose pages in the map disagree. *)
  let affected : (File_id.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let claims = Hashtbl.create 64 in
  Array.iter
    (fun i ->
      match live i with
      | Some l when not (File_id.equal l.Label.fid File_id.descriptor) ->
          let answered target ~page ~back =
            Disk_address.is_nil target
            || Drive.has_sector drive target
               &&
               let t = Disk_address.to_index target in
               (not judged.(t))
               ||
               match live t with
               | Some m ->
                   File_id.equal m.Label.fid l.Label.fid
                   && m.Label.page = page
                   && Disk_address.equal (back m) (addr i)
               | None -> false
          in
          let agrees =
            sweep.Sweep.values.(i) <> Sweep.Unreadable
            && (not (Hashtbl.mem claims (l.Label.fid, l.Label.page)))
            && answered l.Label.next ~page:(l.Label.page + 1) ~back:(fun m -> m.Label.prev)
            &&
            if l.Label.page = 0 then Disk_address.is_nil l.Label.prev
            else answered l.Label.prev ~page:(l.Label.page - 1) ~back:(fun m -> m.Label.next)
          in
          Hashtbl.replace claims (l.Label.fid, l.Label.page) ();
          if not agrees then Hashtbl.replace affected l.Label.fid ()
      | Some _ | None -> ())
    mapped;
  let* root_fid =
    match Fs.root_dir fs with
    | Some fn -> Ok fn.Page.abs.Page.fid
    | None -> Error "the descriptor names no root directory"
  in
  (* Entries lost from a damaged root would name files outside the map. *)
  let* () = if Hashtbl.mem affected root_fid then Error root_needs_repair else Ok () in
  (* Walk each affected file's chain out of the map: every page there is
     as the consistency point left it, linked where its neighbours say. *)
  let walked = ref [] in
  let walk fid =
    let queue = Queue.create () in
    Array.iter
      (fun i ->
        match live i with
        | Some l when File_id.equal l.Label.fid fid -> Queue.add l queue
        | Some _ | None -> ())
      mapped;
    let rec go () =
      match Queue.take_opt queue with
      | None -> Ok ()
      | Some (l : Label.t) ->
          let* () = visit l.Label.next (l.Label.page + 1) in
          let* () = if l.Label.page > 0 then visit l.Label.prev (l.Label.page - 1) else Ok () in
          go ()
    and visit target page =
      if
        Disk_address.is_nil target
        || (not (Drive.has_sector drive target))
        || judged.(Disk_address.to_index target)
      then Ok ()
      else
        let t = Disk_address.to_index target in
        let label = Label.check_name fid ~page in
        let value = Array.make Sector.value_words Word.zero in
        match
          Reliable.run drive target
            { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read }
            ~label ~value ()
        with
        | Ok () -> (
            match Label.of_words label with
            | Ok m when m.Label.page = page ->
                Label_cache.note_verified (Fs.label_cache fs) target label;
                judged.(t) <- true;
                sweep.Sweep.classes.(t) <- Sweep.Live m;
                sweep.Sweep.values.(t) <- Sweep.Read_back 0;
                Hashtbl.replace values t value;
                walked := t :: !walked;
                Queue.add m queue;
                Ok ()
            | Ok _ | Error _ -> Error "a chain leaves the map at the wrong page")
        | Error _ ->
            Error
              (Format.asprintf "%a page %d does not answer at sector %d, outside the map"
                 File_id.pp fid page t)
    in
    go ()
  in
  let fids = Hashtbl.fold (fun fid () acc -> fid :: acc) affected [] in
  let* () =
    pass "walk" (fun () ->
        List.fold_left (fun acc fid -> Result.bind acc (fun () -> walk fid)) (Ok ()) fids)
  in
  let owned i =
    match live i with Some l -> Hashtbl.mem affected l.Label.fid | None -> false
  in
  (* Every other swept sector: the patrol's slice rules — map repair,
     leak reclaim, bad-marker rejoin, relocation, quarantine. *)
  let others = Array.of_list (List.filter (fun i -> not (owned i)) (Array.to_list mapped)) in
  let settled =
    pass "settle" (fun () ->
        Patrol.settle (Patrol.create fs) ~sectors:others
          {
            Sweep.classes = Array.map (fun i -> sweep.Sweep.classes.(i)) others;
            values = Array.map (fun i -> sweep.Sweep.values.(i)) others;
          }
          ~values:(Array.map (fun i -> Option.value ~default:[||] (Hashtbl.find_opt values i)) others))
  in
  (* The affected files: steps 1, 1b, 2, 5 and 7 over their pages. *)
  let take_free () =
    match Fs.reserve_pages fs 1 with
    | Ok (a :: _) -> Some (Disk_address.to_index a)
    | Ok [] | Error _ -> None
  in
  let st = make_state drive sweep values ~take_free in
  let pages = Array.of_list (List.sort compare (List.filter owned (Array.to_list mapped) @ !walked)) in
  group st pages;
  pass "verify" (fun () -> verify st ~suspect_retries:max_int);
  assemble st;
  let kept = Hashtbl.create 64 in
  Hashtbl.iter (fun _ pages -> Array.iter (fun (i, _) -> Hashtbl.replace kept i ()) pages) st.final;
  let lost =
    Array.of_list
      (List.filter
         (fun i -> not (Hashtbl.mem kept i || Hashtbl.mem st.quarantined i))
         (Array.to_list pages))
  in
  let freed = pass "free" (fun () -> free_batch st lost) in
  Array.iteri
    (fun j outcome -> if Result.is_ok outcome.Sched.result then Fs.mark_free fs (addr lost.(j)))
    freed;
  Hashtbl.iter (fun i () -> Fs.quarantine fs (addr i)) st.quarantined;
  Hashtbl.iter (fun i () -> Fs.mark_busy fs (addr i)) kept;
  pass "links" (fun () -> relink st);
  (* The catalogue: steps 10 and 12 for the entries and leaders the map
     shows. An entry naming a leader outside the map names one the crash
     could not touch. *)
  let is_leader fid i =
    match Page.read_label ~cache:(Fs.label_cache fs) drive (Page.full_name fid ~page:0 ~addr:(addr i)) with
    | Ok l -> l.Label.page = 0
    | Error _ -> false
  in
  let mapped_leader fid =
    Array.find_opt
      (fun i ->
        match live i with
        | Some l -> File_id.equal l.Label.fid fid && l.Label.page = 0 && is_leader fid i
        | None -> false)
      mapped
  in
  let leader_of (e : Directory.entry) =
    let fn = e.Directory.entry_file in
    let fid = fn.Page.abs.Page.fid in
    if Drive.has_sector drive fn.Page.addr && not judged.(Disk_address.to_index fn.Page.addr)
    then Some fn.Page.addr
    else
      match Hashtbl.find_opt st.final fid with
      | Some pages -> Some (addr (fst pages.(0)))
      | None ->
          if Drive.has_sector drive fn.Page.addr && is_leader fid (Disk_address.to_index fn.Page.addr)
          then Some fn.Page.addr
          else Option.map addr (mapped_leader fid)
  in
  let* root =
    Result.map_error
      (Format.asprintf "the root directory does not open: %a" Directory.pp_error)
      (Directory.open_root fs)
  in
  let* entries =
    Result.map_error
      (Format.asprintf "the root directory does not read: %a" Directory.pp_error)
      (Directory.entries root)
  in
  let named = Hashtbl.create 64 in
  List.iter
    (fun (e : Directory.entry) -> Hashtbl.replace named e.Directory.entry_file.Page.abs.Page.fid ())
    entries;
  Hashtbl.replace named root_fid ();
  let leaders =
    List.filter_map
      (fun i ->
        match live i with
        | Some l when l.Label.page = 0 && not (Hashtbl.mem affected l.Label.fid) -> Some (l.Label.fid, i)
        | Some _ | None -> None)
      (Array.to_list mapped)
    @ Hashtbl.fold (fun fid pages acc -> (fid, fst pages.(0)) :: acc) st.final []
  in
  let orphans =
    List.filter
      (fun (fid, i) ->
        (not (File_id.equal fid File_id.descriptor))
        && (not (Hashtbl.mem named fid))
        && is_leader fid i)
      leaders
  in
  (* Only the root is read: a file another directory names would look
     orphaned here. *)
  let* () =
    if
      orphans <> []
      && List.exists
           (fun (e : Directory.entry) ->
             let fid = e.Directory.entry_file.Page.abs.Page.fid in
             File_id.is_directory fid && not (File_id.equal fid root_fid))
           entries
    then Error "a directory besides the root may catalogue what the map shows"
    else Ok ()
  in
  let referenced = Hashtbl.create 64 in
  let surviving, changed = settle_entries st ~referenced ~leader_of entries in
  let* () =
    if not changed then Ok ()
    else
      Result.map_error
        (Format.asprintf "the root directory will not rewrite: %a" Directory.pp_error)
        (Directory.rewrite root surviving)
  in
  pass "orphans" (fun () ->
      adopt_orphans st ~open_root:(fun () -> Ok root) ~names:(ref (Some (names_of surviving)))
        orphans);
  if Fs.spilled_table fs <> [] then (match Bad_sectors.flush fs with Ok _ | Error _ -> ());
  let* () =
    Result.map_error
      (Format.asprintf "cannot declare the consistency point: %a" Fs.pp_error)
      (Fs.mark_clean fs)
  in
  let report =
    report_of st
      ~sectors_scanned:(Array.length mapped + List.length !walked)
      ~nameless_files:0 ~directories_found:1
      ~bad_sectors:(Hashtbl.length st.quarantined + settled.Patrol.quarantined)
      ~root_rebuilt:false
      ~duration_us:(Sim_clock.now_us clock - started)
  in
  Ok
    {
      report with
      links_repaired = report.links_repaired + settled.Patrol.links_repaired;
      relocated_pages = settled.Patrol.relocated;
      marginal_relocated = settled.Patrol.relocated;
      pages_lost = report.pages_lost + settled.Patrol.pages_lost;
    }

(* Publish one run's report into the registry: the scavenger's findings
   become structured metrics, not just the ad-hoc record. *)
let record_report r =
  Obs.add m_sectors_scanned r.sectors_scanned;
  Obs.add m_files_found r.files_found;
  Obs.add m_orphans_adopted r.orphans_adopted;
  Obs.add m_links_repaired r.links_repaired;
  Obs.add m_labels_reclaimed r.labels_reclaimed;
  Obs.add m_pages_lost r.pages_lost;
  Obs.add m_pages_quarantined r.pages_marked_bad;
  Obs.add m_relocated_pages r.relocated_pages;
  Obs.add m_marginal_relocated r.marginal_relocated;
  Obs.add m_duplicates_rescued r.duplicates_rescued;
  Obs.add m_leaders_rebuilt r.leaders_rebuilt;
  Obs.add m_entries_fixed r.entries_fixed;
  Obs.add m_entries_removed r.entries_removed;
  if r.root_rebuilt then Obs.incr m_roots_rebuilt

let rebuild ?(suspect_retries = 2) plan drive =
  if suspect_retries < 1 then invalid_arg "Scavenger: suspect_retries below 1";
  let clock = Drive.clock drive in
  Obs.incr m_runs;
  let result =
    Obs.time clock "scavenger.duration_us" (fun () ->
        scavenge_run ~suspect_retries plan drive)
  in
  (match result with
  | Ok (_, report) ->
      record_report report;
      Obs.event ~clock
        ~fields:
          [
            ("sectors", Obs.I report.sectors_scanned);
            ("files", Obs.I report.files_found);
            ("pages_lost", Obs.I report.pages_lost);
            ("duration_us", Obs.I report.duration_us);
          ]
        "scavenger.report"
  | Error _ -> Obs.incr m_failed_runs);
  result

let scavenge ?verify_values:(_ : bool option) ?suspect_retries drive =
  rebuild ?suspect_retries evacuation drive

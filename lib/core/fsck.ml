module Word = Alto_machine.Word
module Drive = Alto_disk.Drive
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_runs = Obs.counter "fs.fsck.runs"
let m_findings = Obs.counter "fs.fsck.findings"
let m_violations = Obs.counter "fs.fsck.violations"

(* A finding is advisory damage: something the self-healing machinery
   (label checks, the hint ladder, the patrol, the scavenger) repairs or
   tolerates without data loss. A violation is a broken promise: state
   recovery claims cannot exist — a catalogued file that does not read,
   a descriptor that does not mount. The crash harness gates violations
   at zero; findings it merely reports. *)
type issue = { i_class : string; i_addr : int option; i_detail : string }

type counts = {
  sectors : int;
  live : int;
  free : int;
  marked_bad : int;
  bad_media : int;
  garbage : int;
  files : int;  (** Distinct file ids holding a parseable leader. *)
  catalogued : int;  (** Root entries that named a real file. *)
  orphans : int;
}

type report = {
  counts : counts;
  descriptor_ok : bool;
  dirty : bool;
      (** The write-ahead map is not empty: acknowledged delayed writes
          may not have reached the platter, and boot's recovery is
          due. Reported, not a violation — a live volume mid-workload
          is legitimately dirty. *)
  findings : issue list;
  violations : issue list;
  duration_us : int;
}

let clean r =
  r.descriptor_ok && (not r.dirty) && r.findings = [] && r.violations = []

(* The root directory's entries as [Directory.open_root] and
   [Directory.entries] would read them through [File], but from the
   sweep: [label_at] holds the label a check of each sector would see,
   [values] the directory values that read back. The open trusts the
   leader's last-page hint where the label there confirms it and walks
   the chain otherwise; the read follows the chain's links. *)
let read_root drive ~label_at ~values (root : Page.full_name) =
  let ( let* ) = Result.bind in
  let fid = root.Page.abs.Page.fid in
  let label addr pn =
    if not (Drive.has_sector drive addr) then None
    else
      match label_at.(Disk_address.to_index addr) with
      | Some l when File_id.equal l.Label.fid fid && l.Label.page = pn -> Some l
      | Some _ | None -> None
  in
  let page addr pn =
    match label addr pn with
    | None -> Error (Directory.File_error File.Hint_failed)
    | Some l -> (
        match Hashtbl.find_opt values (Disk_address.to_index addr) with
        | None -> Error (Directory.File_error File.Hint_failed)
        | Some value -> Ok (l, value))
  in
  let opened =
    let* leader_label, value = page root.Page.addr 0 in
    let* leader =
      Result.map_error
        (fun msg -> Directory.File_error (File.Structure msg))
        (Leader.of_value value)
    in
    let rec walk pn (l : Label.t) =
      if Disk_address.is_nil l.Label.next then Ok pn
      else
        match label l.Label.next (pn + 1) with
        | Some next -> walk (pn + 1) next
        | None -> Error (Directory.File_error File.Hint_failed)
    in
    let* last =
      match label leader.Leader.last_addr leader.Leader.last_page with
      | Some l when leader.Leader.last_page >= 1 && Disk_address.is_nil l.Label.next ->
          Ok leader.Leader.last_page
      | Some _ | None -> walk 0 leader_label
    in
    Ok (leader_label, last)
  in
  let rec chain last pn (prev : Label.t) acc =
    if pn > last then Ok (Array.of_list (List.rev acc))
    else if Disk_address.is_nil prev.Label.next then
      Error
        (Directory.File_error
           (File.Structure
              (Printf.sprintf "chain ends at page %d before page %d" (pn - 1) pn)))
    else
      let* l, value = page prev.Label.next pn in
      chain last (pn + 1) l ((value, l.Label.length) :: acc)
  in
  match opened with
  | Error e -> Error (`Open e)
  | Ok (leader_label, last) ->
      Result.map_error
        (fun e -> `Read e)
        (Result.bind (chain last 1 leader_label []) Directory.entries_of)

(* {2 The passes}

   All reads are ordinary timed operations: one {!Sweep} over the whole
   pack, which reads every value back in the label's own operation, and
   the descriptor's pages; nothing here writes. The catalogue is read
   from the sweep's own labels and values.
   The checker needs no live [System] and no readable descriptor: given
   wreckage it still sweeps the labels and reports on the wreck — the
   descriptor-dependent passes (map, catalogue) just report the mount
   failure and stand down. *)

let check drive =
  Prof.span (Drive.clock drive) "fsck.check" @@ fun () ->
  Obs.incr m_runs;
  let t0 = Alto_machine.Sim_clock.now_us (Drive.clock drive) in
  let n = Drive.sector_count drive in
  let findings = ref [] in
  let violations = ref [] in
  let finding ?addr cls fmt = Format.kasprintf
      (fun d -> findings := { i_class = cls; i_addr = addr; i_detail = d } :: !findings)
      fmt
  in
  let violation ?addr cls fmt = Format.kasprintf
      (fun d -> violations := { i_class = cls; i_addr = addr; i_detail = d } :: !violations)
      fmt
  in
  (* Pass 1: sweep every label (§3.5's first move, reused verbatim),
     reading each sector's value in the same operation for pass 7, and
     keeping the directory pages' values for pass 5. *)
  let directory_values : (int, Word.t array) Hashtbl.t = Hashtbl.create 16 in
  let sweep =
    Sweep.run
      ~on_value:(fun i cls _ value ->
        match cls with
        | Sweep.Live label when File_id.is_directory label.Label.fid ->
            Hashtbl.replace directory_values i (Array.copy value)
        | Sweep.Live _ | Sweep.Free_sector | Sweep.Marked_bad | Sweep.Bad_media
        | Sweep.Garbage _ ->
            ())
      drive
  in
  let live = ref 0 and free = ref 0 and marked_bad = ref 0 in
  let bad_media = ref 0 and garbage = ref 0 in
  Array.iteri
    (fun i cls ->
      match cls with
      | Sweep.Live _ -> incr live
      | Sweep.Free_sector -> incr free
      | Sweep.Marked_bad -> incr marked_bad
      | Sweep.Bad_media -> incr bad_media
      | Sweep.Garbage msg ->
          incr garbage;
          (* DA 0 is the boot sector: [format] reserves it without a
             label, and a booted system parks a boot image there, so an
             unparseable label at 0 is the healthy state, not damage. *)
          if i <> 0 then finding ~addr:i "garbage-label" "unparseable label (%s)" msg)
    sweep.Sweep.classes;
  (* Pass 2: index the live labels by absolute name. Two sectors both
     claiming one (file, page) is a crash caught mid-move (relocation or
     compaction died between copy and retire); the chain links
     disambiguate the real one, the other is a leak for the scavenger. *)
  let pages : (File_id.t, (int, int list) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let label_at : Label.t option array = Array.make n None in
  Array.iteri
    (fun i cls ->
      match cls with
      | Sweep.Live label ->
          label_at.(i) <- Some label;
          let per_file =
            match Hashtbl.find_opt pages label.Label.fid with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 8 in
                Hashtbl.add pages label.Label.fid h;
                h
          in
          let prior = Option.value ~default:[] (Hashtbl.find_opt per_file label.Label.page) in
          if prior <> [] then
            finding ~addr:i "cross-linked" "duplicate claim on (%a, %d)" File_id.pp
              label.Label.fid label.Label.page;
          Hashtbl.replace per_file label.Label.page (i :: prior)
      | _ -> ())
    sweep.Sweep.classes;
  (* Pass 3: mount the descriptor read-only. Mount failure is a
     violation — recovery always ends with a mountable pack — but the
     label-level passes above have already run, so the report still
     describes the wreck. *)
  let mounted = match Fs.mount drive with Ok fs -> Some fs | Error _ -> None in
  let descriptor_ok = mounted <> None in
  if not descriptor_ok then
    violation "descriptor" "the disk descriptor does not mount; scavenge required";
  let dirty = match mounted with Some fs -> Fs.dirty fs | None -> false in
  (* Pass 4: the allocation map against the labels. Both lie classes are
     findings, not violations: a free-in-map live page is caught by the
     label check before any damage ("a little extra one-time disk
     activity"), and a busy-in-map free page is merely lost until swept. *)
  (match mounted with
  | None -> ()
  | Some fs ->
      (* From 1: DA 0 is the boot sector, reserved by [format] and held
         busy in the map without ever carrying a label. *)
      for i = 1 to n - 1 do
        let addr = Disk_address.of_index i in
        let map_free = Fs.is_free_in_map fs addr in
        let quarantined = Fs.quarantined fs addr in
        match sweep.Sweep.classes.(i) with
        | Sweep.Live _ when map_free ->
            finding ~addr:i "map-lie-busy" "live page marked free in the map"
        | Sweep.Free_sector when (not map_free) && not quarantined ->
            finding ~addr:i "map-lie-free" "free page marked busy in the map"
        | (Sweep.Marked_bad | Sweep.Bad_media) when map_free ->
            finding ~addr:i "bad-not-protected"
              "bad sector free in the map (allocator may probe it)"
        | _ -> ()
      done);
  (* Pass 5: the catalogue, read from the sweep. Every root entry must
     name a file whose page 0 exists; a dangling entry is a promise ls
     makes and open breaks. *)
  let catalogued : (File_id.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let catalogued_count = ref 0 in
  (match mounted with
  | None -> ()
  | Some fs -> (
      match Fs.root_dir fs with
      | None -> violation "root" "the descriptor names no root directory"
      | Some root -> (
          match read_root drive ~label_at ~values:directory_values root with
          | Error (`Open e) ->
              violation "root" "the root directory does not open: %a" Directory.pp_error e
          | Error (`Read e) ->
              violation "root" "the root directory does not read: %a"
                Directory.pp_error e
          | Ok entries ->
              (* The descriptor's root, whatever its id: a scavenger
                 that had to rebuild the root gave it a fresh one. *)
              Hashtbl.replace catalogued root.Page.abs.Page.fid ();
              List.iter
                (fun (e : Directory.entry) ->
                  let fn = e.Directory.entry_file in
                  let fid = fn.Page.abs.Page.fid in
                  match Hashtbl.find_opt pages fid with
                  | None ->
                      violation "dangling-entry" "%S names a file with no pages"
                        e.Directory.entry_name
                  | Some per_file -> (
                      incr catalogued_count;
                      Hashtbl.replace catalogued fid ();
                      match Hashtbl.find_opt per_file 0 with
                      | None | Some [] ->
                          violation "dangling-entry" "%S names a headless file"
                            e.Directory.entry_name
                      | Some addrs ->
                          if
                            Disk_address.is_nil fn.Page.addr
                            || not
                                 (List.mem
                                    (Disk_address.to_index fn.Page.addr)
                                    addrs)
                          then
                            finding "stale-entry-address"
                              "%S hints a wrong leader address"
                              e.Directory.entry_name))
                entries)));
  Hashtbl.replace catalogued File_id.descriptor ();
  (* Pass 6: file structure. A catalogued file must be whole — leader
     parseable, pages 0..last contiguous; the same damage on an
     uncatalogued file is only a leaked fragment awaiting adoption. *)
  let files = ref 0 in
  let orphans = ref 0 in
  let is_catalogued fid = Hashtbl.mem catalogued fid in
  let sev fid = if is_catalogued fid then violation else finding in
  Hashtbl.iter
    (fun fid per_file ->
      let max_page = Hashtbl.fold (fun p _ acc -> max p acc) per_file (-1) in
      let headless = not (Hashtbl.mem per_file 0) in
      if headless then begin
        (sev fid) "headless-file" "%a has pages but no leader" File_id.pp fid;
        if not (is_catalogued fid) then incr orphans
      end
      else begin
        incr files;
        if (not (is_catalogued fid)) && mounted <> None then begin
          incr orphans;
          finding "orphan" "%a is catalogued nowhere (scavenger will adopt it)"
            File_id.pp fid
        end;
        for p = 0 to max_page do
          match Hashtbl.find_opt per_file p with
          | None | Some [] ->
              (sev fid) "broken-chain" "%a is missing page %d of %d" File_id.pp fid p
                max_page
          | Some (_ :: _ as addrs) -> (
              (* Link hints between consecutive single-claim pages; a
                 wrong hint costs a ladder climb, not data. *)
              let single = function [ a ] -> Some a | _ -> None in
              match
                ( single addrs,
                  Option.bind (Hashtbl.find_opt per_file (p + 1)) single )
              with
              | Some a, Some next_addr -> (
                  match label_at.(a) with
                  | Some l
                    when Disk_address.is_nil l.Label.next
                         || Disk_address.to_index l.Label.next <> next_addr ->
                      finding ~addr:a "stale-link" "%a page %d next-hint is wrong"
                        File_id.pp fid p
                  | _ -> ())
              | _ -> ())
        done
      end)
    pages;
  (* Pass 7: the data itself, as the sweep read it back. Any live page
     that would not — torn by a crash, or decayed — is data loss if a
     catalogued file owns it, a leaked fragment otherwise. A descriptor
     record page that will not read back is neither: the mount took the
     other slot's record (pass 3 reports a pack where neither reads
     back), and the next descriptor write rewrites it. *)
  Array.iteri
    (fun index -> function
      | Some label
        when sweep.Sweep.values.(index) = Sweep.Unreadable
             && File_id.equal label.Label.fid File_id.descriptor && label.Label.page > 0 ->
          finding ~addr:index "record-unreadable"
            "descriptor record page %d will not read back" label.Label.page
      | Some label when sweep.Sweep.values.(index) = Sweep.Unreadable ->
          (sev label.Label.fid)
            ~addr:index
            (if Drive.is_torn drive (Disk_address.of_index index) then "torn-page"
             else "unreadable-page")
            "%a page %d will not read back" File_id.pp label.Label.fid
            label.Label.page
      | Some _ | None -> ())
    label_at;
  let report =
    {
      counts =
        {
          sectors = n;
          live = !live;
          free = !free;
          marked_bad = !marked_bad;
          bad_media = !bad_media;
          garbage = !garbage;
          files = !files;
          catalogued = !catalogued_count;
          orphans = !orphans;
        };
      descriptor_ok;
      dirty;
      findings = List.rev !findings;
      violations = List.rev !violations;
      duration_us = Alto_machine.Sim_clock.now_us (Drive.clock drive) - t0;
    }
  in
  Obs.add m_findings (List.length report.findings);
  Obs.add m_violations (List.length report.violations);
  report

let pp_issue fmt i =
  match i.i_addr with
  | Some a -> Format.fprintf fmt "%s @@ %d: %s" i.i_class a i.i_detail
  | None -> Format.fprintf fmt "%s: %s" i.i_class i.i_detail

let pp_report fmt r =
  let c = r.counts in
  Format.fprintf fmt
    "@[<v>fsck: %d sectors: %d live, %d free, %d marked bad, %d bad media, %d garbage"
    c.sectors c.live c.free c.marked_bad c.bad_media c.garbage;
  Format.fprintf fmt "@,fsck: %d files (%d catalogued, %d orphaned), descriptor %s%s"
    c.files c.catalogued c.orphans
    (if r.descriptor_ok then "ok" else "UNMOUNTABLE")
    (if r.dirty then ", volume dirty (delayed writes may be lost; recovery due)"
     else "");
  List.iter (fun i -> Format.fprintf fmt "@,fsck: violation: %a" pp_issue i) r.violations;
  List.iter (fun i -> Format.fprintf fmt "@,fsck: finding: %a" pp_issue i) r.findings;
  Format.fprintf fmt "@,fsck: verdict %s@]"
    (if r.violations <> [] then "damaged"
     else if clean r then "clean"
     else "consistent with findings")

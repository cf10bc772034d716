module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address

type report = {
  pages_placed : int;
  moves : int;
  links_rewritten : int;
  sectors_freed : int;
  leaders_updated : int;
  entries_fixed : int;
  files_consecutive : int;
  files_total : int;
  duration_us : int;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>placed %d pages with %d moves in %a@,\
     links rewritten %d, sectors freed %d, leaders updated %d, entries fixed %d@,\
     %d of %d files fully consecutive@]"
    r.pages_placed r.moves Sim_clock.pp_duration r.duration_us r.links_rewritten
    r.sectors_freed r.leaders_updated r.entries_fixed r.files_consecutive
    r.files_total

(* A page is identified by (fid, pn) throughout. *)
type page_id = File_id.t * int

let read_sector drive index =
  let label = Array.make Sector.label_words Word.zero in
  let value = Array.make Sector.value_words Word.zero in
  match
    Reliable.run drive (Disk_address.of_index index)
      { Drive.op_none with label = Some Drive.Read; value = Some Drive.Read }
      ~label ~value ()
  with
  | Ok () -> Some (label, value)
  | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) -> None

let write_sector drive index ~label ~value =
  match
    Reliable.run drive (Disk_address.of_index index)
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label ~value ()
  with
  | Ok () -> true
  | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) -> false

let compact fs =
  let drive = Fs.drive fs in
  let clock = Drive.clock drive in
  let started = Sim_clock.now_us clock in
  (* The sweep reads raw sectors; delayed writes parked in the track
     buffer cache must reach the platter first or the compactor would
     move stale values. (The moves themselves rewrite labels, whose
     generation bumps retire any buffered image of a moved sector.) *)
  ignore (Bio.flush (Fs.bio fs));
  (* The moves and raw writes land anywhere: the whole pack is mapped
     first, so a crash part way boots dirty into a scavenge. A pack that
     was clean before is clean again once the permutation is done. *)
  let was_clean = not (Fs.dirty fs) in
  Fs.announce_whole fs;
  let sweep = Sweep.run drive in
  let n = Array.length sweep.Sweep.classes in
  let reserved_top = 1 + Fs.descriptor_page_count fs in

  (* Current position of every live page (the descriptor stays put). *)
  let cur : (page_id, int) Hashtbl.t = Hashtbl.create 256 in
  let occupant = Array.make n None in
  let bad = Array.make n false in
  for i = 0 to n - 1 do
    match sweep.Sweep.classes.(i) with
    | Sweep.Live label ->
        if not (File_id.equal label.Label.fid File_id.descriptor) then begin
          let id = (label.Label.fid, label.Label.page) in
          if Hashtbl.mem cur id then
            (* A duplicate absolute name: scavenger territory, not ours. *)
            ()
          else begin
            Hashtbl.replace cur id i;
            occupant.(i) <- Some (id, label)
          end
        end
    | Sweep.Marked_bad | Sweep.Bad_media -> bad.(i) <- true
    | Sweep.Free_sector | Sweep.Garbage _ -> ()
  done;

  (* Assemble files: fid -> highest page number (pages are contiguous on
     a sound volume). *)
  let files : (File_id.t, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (fid, pn) _ ->
      let prev = Option.value (Hashtbl.find_opt files fid) ~default:(-1) in
      if pn > prev then Hashtbl.replace files fid pn)
    cur;
  let ordered_files =
    List.sort (fun (a, _) (b, _) -> File_id.compare a b)
      (Hashtbl.fold (fun fid last acc -> (fid, last) :: acc) files [])
  in

  (* Target layout: files back to back just past the descriptor, skipping
     bad sectors. *)
  let target : (page_id, int) Hashtbl.t = Hashtbl.create 256 in
  let incoming = Array.make n None in
  let slot = ref (reserved_top + 1) in
  let place id =
    while !slot < n && (bad.(!slot) || !slot <= reserved_top) do
      incr slot
    done;
    if !slot < n then begin
      Hashtbl.replace target id !slot;
      incoming.(!slot) <- Some id;
      incr slot
    end
  in
  List.iter
    (fun (fid, last) ->
      for pn = 0 to last do
        if Hashtbl.mem cur (fid, pn) then place (fid, pn)
      done)
    ordered_files;

  (* Final label for a page under the target layout. *)
  let final_label (fid, pn) (old : Label.t) =
    let link id =
      match Hashtbl.find_opt target id with
      | Some i -> Disk_address.of_index i
      | None -> Disk_address.nil
    in
    Label.make ~fid ~page:pn ~length:old.Label.length ~next:(link (fid, pn + 1))
      ~prev:(link (fid, pn - 1))
  in

  (* Permute by swapping pages into place, one in-memory buffer deep.

     A parked page must never exist {e only} in that buffer: a crash
     between overwriting its sector and writing it back would lose the
     page outright. One free sector — outside every planned target —
     stages each parked page on the platter first, so at every instant
     every page has a complete on-disk copy (possibly two; the scavenger
     disambiguates identical twins for free). Only a completely full
     pack has no spare, and then the in-memory window returns. *)
  let staging =
    let s = ref (n - 1) in
    while
      !s > reserved_top
      && not (occupant.(!s) = None && incoming.(!s) = None && not bad.(!s))
    do
      decr s
    done;
    if !s > reserved_top then Some !s else None
  in
  let staging_used = ref false in
  let moves = ref 0 and links_rewritten = ref 0 in
  let move_to id label dst =
    let src = Hashtbl.find cur id in
    match read_sector drive src with
    | None -> false
    | Some (_, value) ->
        if write_sector drive dst ~label:(Label.to_words (final_label id label)) ~value
        then begin
          incr moves;
          incr links_rewritten;
          Hashtbl.replace cur id dst;
          occupant.(src) <- None;
          occupant.(dst) <- Some (id, label);
          true
        end
        else false
  in
  for t = 0 to n - 1 do
    match incoming.(t) with
    | None -> ()
    | Some id ->
        let (fid, pn) = id in
        ignore fid;
        ignore pn;
        let src = Hashtbl.find cur id in
        if src <> t then begin
          (* Park any current occupant of [t] in the slot [id] vacates. *)
          let parked =
            match occupant.(t) with
            | None -> None
            | Some (qid, qlabel) -> (
                match read_sector drive t with
                | None -> None
                | Some (_, qvalue) -> Some (qid, qlabel, qvalue))
          in
          let label =
            match occupant.(src) with
            | Some (_, l) -> l
            | None -> assert false
          in
          (match (parked, staging) with
          | Some (qid, qlabel, qvalue), Some s ->
              if
                write_sector drive s
                  ~label:(Label.to_words (final_label qid qlabel))
                  ~value:qvalue
              then staging_used := true
          | _, _ -> ());
          if move_to id label t then
            match parked with
            | None -> ()
            | Some (qid, qlabel, qvalue) ->
                if
                  write_sector drive src
                    ~label:(Label.to_words (final_label qid qlabel))
                    ~value:qvalue
                then begin
                  incr moves;
                  incr links_rewritten;
                  Hashtbl.replace cur qid src;
                  occupant.(src) <- Some (qid, qlabel)
                end
        end
  done;
  (* Retire the staging sector's last stale copy. *)
  (match staging with
  | Some s when !staging_used ->
      ignore
        (write_sector drive s ~label:(Label.free_words ())
           ~value:(Label.free_value ()))
  | Some _ | None -> ());

  (* Straggler links: unmoved pages whose stored links no longer match
     the final layout. One elevator batch re-reads every candidate; a
     second rewrites just the mismatches, carrying along the value each
     read brought back (the write-continuation rule means a label write
     must rewrite the value too). An unreadable sector has nothing worth
     rewriting and is skipped, as before. *)
  let stragglers =
    Array.of_list
      (Hashtbl.fold
         (fun id src acc ->
           match occupant.(src) with
           | None -> acc
           | Some (_, old_label) -> (src, final_label id old_label) :: acc)
         cur [])
  in
  let straggler_labels =
    Array.init (Array.length stragglers) (fun _ ->
        Array.make Sector.label_words Word.zero)
  in
  let straggler_values =
    Array.init (Array.length stragglers) (fun _ ->
        Array.make Sector.value_words Word.zero)
  in
  let straggler_reads =
    Sched.run_batch drive
      (Array.mapi
         (fun j (src, _) ->
           Sched.request ~label:straggler_labels.(j) ~value:straggler_values.(j)
             (Disk_address.of_index src)
             { Drive.op_none with
               Drive.label = Some Drive.Read;
               value = Some Drive.Read
             })
         stragglers)
  in
  let rewrites = ref [] in
  Array.iteri
    (fun j outcome ->
      let src, wanted = stragglers.(j) in
      match outcome.Sched.result with
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          ()
      | Ok () ->
          let matches =
            match Label.of_words straggler_labels.(j) with
            | Ok l -> Label.equal l wanted
            | Error _ -> false
          in
          if not matches then
            rewrites := (src, wanted, straggler_values.(j)) :: !rewrites)
    straggler_reads;
  Array.iter
    (fun outcome ->
      match outcome.Sched.result with
      | Ok () -> incr links_rewritten
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          ())
    (Sched.run_batch drive
       (Array.map
          (fun (src, wanted, value) ->
            Sched.request ~label:(Label.to_words wanted) ~value
              (Disk_address.of_index src)
              { Drive.op_none with
                Drive.label = Some Drive.Write;
                value = Some Drive.Write
              })
          (Array.of_list !rewrites)));

  (* Free everything that is neither reserved, bad, nor a final page. *)
  let sectors_freed = ref 0 in
  let final_occupied = Array.make n false in
  final_occupied.(0) <- true;
  for i = 0 to reserved_top do
    final_occupied.(i) <- true
  done;
  Hashtbl.iter (fun _ i -> final_occupied.(i) <- true) cur;
  let to_free = ref [] in
  for i = n - 1 downto 0 do
    if not (final_occupied.(i) || bad.(i)) then begin
      let already_free =
        match sweep.Sweep.classes.(i) with
        | Sweep.Free_sector -> occupant.(i) = None && incoming.(i) = None
        | Sweep.Live _ | Sweep.Marked_bad | Sweep.Bad_media | Sweep.Garbage _ -> false
      in
      if not already_free then to_free := i :: !to_free
    end
  done;
  (* One batch of frees; writes never mutate their buffers, so every
     request shares the two free patterns. *)
  let free_label = Label.free_words () and free_value = Label.free_value () in
  Array.iter
    (fun outcome ->
      match outcome.Sched.result with
      | Ok () -> incr sectors_freed
      | Error (Drive.Bad_sector | Drive.Check_mismatch _ | Drive.Transient _) ->
          ())
    (Sched.run_batch drive
       (Array.map
          (fun i ->
            Sched.request ~label:free_label ~value:free_value
              (Disk_address.of_index i)
              { Drive.op_none with
                Drive.label = Some Drive.Write;
                value = Some Drive.Write
              })
          (Array.of_list !to_free)));

  (* Rebuild the allocation map in the handle. *)
  for i = 0 to n - 1 do
    let addr = Disk_address.of_index i in
    if final_occupied.(i) || bad.(i) then Fs.mark_busy fs addr else Fs.mark_free fs addr
  done;

  (* Refresh leaders: last-page hint and the maybe-consecutive flag. *)
  let leaders_updated = ref 0 and files_consecutive = ref 0 in
  List.iter
    (fun (fid, last) ->
      match Hashtbl.find_opt cur (fid, 0) with
      | None -> ()
      | Some leader_index -> (
          let consecutive =
            let rec check pn =
              if pn > last then true
              else
                match (Hashtbl.find_opt cur (fid, pn - 1), Hashtbl.find_opt cur (fid, pn)) with
                | Some a, Some b when b = a + 1 -> check (pn + 1)
                | _ -> false
            in
            check 1
          in
          if consecutive then incr files_consecutive;
          let fn = Page.full_name fid ~page:0 ~addr:(Disk_address.of_index leader_index) in
          match Page.read ~cache:(Fs.label_cache fs) drive fn with
          | Error _ -> ()
          | Ok (_, value) -> (
              match Leader.of_value value with
              | Error _ -> ()
              | Ok leader ->
                  let last_addr =
                    match Hashtbl.find_opt cur (fid, last) with
                    | Some i -> Disk_address.of_index i
                    | None -> Disk_address.nil
                  in
                  let leader =
                    Leader.with_consecutive
                      (Leader.with_last leader ~last_page:last ~last_addr)
                      consecutive
                  in
                  let value = Leader.to_value leader in
                  match Page.write ~cache:(Fs.label_cache fs) drive fn value with
                  | Ok label ->
                      (* A value write leaves the label generation alone,
                         so a resident track would keep the old leader. *)
                      Bio.install (Fs.bio fs) fn.Page.addr ~label:(Label.to_words label)
                        ~value;
                      incr leaders_updated
                  | Error _ -> ())))
    ordered_files;

  (* Re-aim directory entries at the new leader addresses. *)
  let entries_fixed = ref 0 in
  List.iter
    (fun (fid, _) ->
      if File_id.is_directory fid then
        match Hashtbl.find_opt cur (fid, 0) with
        | None -> ()
        | Some leader_index -> (
            let fn = Page.full_name fid ~page:0 ~addr:(Disk_address.of_index leader_index) in
            match File.open_leader fs fn with
            | Error _ -> ()
            | Ok dir_file -> (
                let entries, damaged = Directory.salvage dir_file in
                let changed = ref damaged in
                let fixed =
                  List.map
                    (fun (e : Directory.entry) ->
                      let efid = e.Directory.entry_file.Page.abs.Page.fid in
                      match Hashtbl.find_opt cur (efid, 0) with
                      | Some i
                        when not
                               (Disk_address.equal e.Directory.entry_file.Page.addr
                                  (Disk_address.of_index i)) ->
                          incr entries_fixed;
                          changed := true;
                          {
                            e with
                            Directory.entry_file =
                              Page.full_name efid ~page:0 ~addr:(Disk_address.of_index i);
                          }
                      | Some _ | None -> e)
                    entries
                in
                if !changed then
                  match Directory.rewrite dir_file fixed with Ok () | Error _ -> ())))
    ordered_files;

  (* The root directory's leader may itself have moved. *)
  (match Fs.root_dir fs with
  | None -> ()
  | Some fn -> (
      match Hashtbl.find_opt cur (fn.Page.abs.Page.fid, 0) with
      | Some i ->
          Fs.set_root_dir fs
            (Page.full_name fn.Page.abs.Page.fid ~page:0 ~addr:(Disk_address.of_index i))
      | None -> ()));

  match if was_clean then Fs.mark_clean fs else Fs.flush fs with
  | Error e -> Error (Format.asprintf "cannot flush the descriptor: %a" Fs.pp_error e)
  | Ok () ->
      Ok
        {
          pages_placed = Hashtbl.length target;
          moves = !moves;
          links_rewritten = !links_rewritten;
          sectors_freed = !sectors_freed;
          leaders_updated = !leaders_updated;
          entries_fixed = !entries_fixed;
          files_consecutive = !files_consecutive;
          files_total = List.length ordered_files;
          duration_us = Sim_clock.now_us clock - started;
        }

let consecutive_fraction _fs file =
  let ( let* ) = Result.bind in
  let last = File.last_page file in
  if last < 1 then Ok 1.0
  else begin
    let* names =
      let rec collect acc pn =
        if pn > last then Ok (List.rev acc)
        else
          let* fn = File.page_name file pn in
          collect (fn :: acc) (pn + 1)
      in
      collect [] 0
    in
    let rec count adjacent total = function
      | a :: (b :: _ as rest) ->
          let adj =
            Disk_address.to_index b.Page.addr = Disk_address.to_index a.Page.addr + 1
          in
          count (if adj then adjacent + 1 else adjacent) (total + 1) rest
      | [ _ ] | [] -> (adjacent, total)
    in
    let adjacent, total = count 0 0 names in
    if total = 0 then Ok 1.0 else Ok (float_of_int adjacent /. float_of_int total)
  end

module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Geometry = Alto_disk.Geometry
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_hits = Obs.counter "fs.bio.hits"
let m_misses = Obs.counter "fs.bio.misses"
let m_fills = Obs.counter "fs.bio.fills"
let m_fill_sectors = Obs.counter "fs.bio.fill_sectors"
let m_absorbed = Obs.counter "fs.bio.absorbed"
let m_flushes = Obs.counter "fs.bio.flushes"
let m_flushed_sectors = Obs.counter "fs.bio.flushed_sectors"
let m_evictions = Obs.counter "fs.bio.evictions"
let m_invalidations = Obs.counter "fs.bio.invalidations"
let m_write_conflicts = Obs.counter "fs.bio.write_conflicts"

(* Drive generations start at 0 and only grow, so -1 marks a sector
   the buffer holds nothing for. *)
let empty = -1

(* One whole-track buffer. Per relative sector: the value observed at
   fill/install time, the label generation that polices its staleness
   (the label is the verified-label table's), and the check pattern a
   waiting delayed write was absorbed under. *)
type slot = {
  base : int;  (* flat index of the track's sector 0 *)
  values : Word.t array array;
  gens : int array;
  pending : Word.t array option array;
  mutable used : int;  (* LRU tick of the last hit *)
}

type t = {
  drive : Drive.t;
  label_cache : Label_cache.t;
  spt : int;
  mutable tracks : int;  (* capacity in whole-track buffers; 0 disables *)
  mutable high_water : int;  (* dirty sectors that trigger a full flush *)
  slots : (int, slot) Hashtbl.t;  (* keyed by track number *)
  ghosts : int Queue.t;  (* the last [tracks] evictions' tracks, oldest first *)
  mutable tick : int;
  mutable dirty_count : int;
  mutable on_write : Disk_address.t list -> unit;
}

(* Half the cache's sector capacity. *)
let high_water_of ~tracks ~spt = max 1 (tracks * spt / 2)

let create ~label_cache drive =
  let tracks = 16 in
  let spt = (Drive.geometry drive).Geometry.sectors_per_track in
  {
    drive;
    label_cache;
    spt;
    tracks;
    high_water = high_water_of ~tracks ~spt;
    slots = Hashtbl.create tracks;
    ghosts = Queue.create ();
    tick = 0;
    dirty_count = 0;
    on_write = ignore;
  }

let enabled t = t.tracks > 0
let set_on_write t f = t.on_write <- f
let cached_tracks t = Hashtbl.length t.slots
let dirty_sectors t = t.dirty_count

let cached_sectors t =
  Hashtbl.fold
    (fun _ s acc -> acc + Array.fold_left (fun n g -> if g = empty then n else n + 1) 0 s.gens)
    t.slots 0

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let track_of t index = index / t.spt
let rel_of t index = index mod t.spt

(* {2 Write-back}

   Dirty sectors reach the platter as label-[Check] + value-[Write]
   against the pattern each write was absorbed under, which was
   platter truth then; if the check fails the sector was re-labelled
   underneath the delayed write (freed, relocated, repaired) and the
   platter's version of events wins — the write is dropped and
   counted, exactly as a stale hint would have been refused in-band.
   The table's current label would not do: it may already name the
   sector's next owner. *)

type flush_report = { sectors : int; tracks : int; conflicts : int }

let flush_sectors t targets =
  match targets with
  | [] -> { sectors = 0; tracks = 0; conflicts = 0 }
  | _ ->
      let targets = Array.of_list targets in
      t.on_write
        (Array.to_list
           (Array.map (fun (slot, rel, _) -> Disk_address.of_index (slot.base + rel)) targets));
      let requests =
        Array.map
          (fun (slot, rel, pattern) ->
            Sched.request ~label:pattern ~value:slot.values.(rel)
              (Disk_address.of_index (slot.base + rel))
              { Drive.op_none with
                Drive.label = Some Drive.Check;
                value = Some Drive.Write;
              })
          targets
      in
      let conflicts = ref 0 in
      Prof.span (Drive.clock t.drive) "bio.flush" (fun () ->
          let outcomes = Sched.run_batch t.drive requests in
          Array.iteri
            (fun i (slot, rel, pattern) ->
              (match outcomes.(i).Sched.result with
              | Ok () ->
                  (* The check re-verified the label against the platter
                     an instant ago; capture the generation after the op
                     so retry trips during the flush itself kill the
                     entry rather than hide behind it, and record the
                     label at that generation too. *)
                  let here = Disk_address.of_index (slot.base + rel) in
                  slot.gens.(rel) <- Drive.label_generation t.drive here;
                  Label_cache.note_verified t.label_cache here pattern
              | Error _ ->
                  incr conflicts;
                  Obs.incr m_write_conflicts;
                  slot.gens.(rel) <- empty);
              slot.pending.(rel) <- None;
              t.dirty_count <- t.dirty_count - 1)
            targets);
      let tracks =
        let seen = Hashtbl.create 8 in
        Array.iter (fun (slot, _, _) -> Hashtbl.replace seen slot.base ()) targets;
        Hashtbl.length seen
      in
      Obs.incr m_flushes;
      Obs.add m_flushed_sectors (Array.length targets);
      { sectors = Array.length targets; tracks; conflicts = !conflicts }

(* Ascending sector order so the elevator sees each flush as contiguous
   track runs and the outcome order is deterministic. *)
let dirty_targets_of t pred =
  Hashtbl.fold
    (fun _ slot acc ->
      let run = ref acc in
      for rel = t.spt - 1 downto 0 do
        match slot.pending.(rel) with
        | Some pattern when pred slot -> run := (slot, rel, pattern) :: !run
        | Some _ | None -> ()
      done;
      !run)
    t.slots []
  |> List.sort (fun ((a : slot), ra, _) (b, rb, _) -> compare (a.base + ra) (b.base + rb))

let flush t = flush_sectors t (dirty_targets_of t (fun _ -> true))

let flush_slot t slot =
  ignore (flush_sectors t (dirty_targets_of t (fun s -> s.base = slot.base)))

(* {2 Residency} *)

let drop_sector t slot rel =
  if slot.gens.(rel) <> empty then begin
    slot.gens.(rel) <- empty;
    if Option.is_some slot.pending.(rel) then begin
      slot.pending.(rel) <- None;
      t.dirty_count <- t.dirty_count - 1
    end;
    Obs.incr m_invalidations
  end

(* Generation-live check; a dead dirty sector is flushed first (the
   platter arbitrates whether the delayed write still applies) so a
   legitimate pending write survives a mere retry trip on the sector. *)
let live t slot rel =
  let gen = slot.gens.(rel) in
  gen <> empty
  && (gen = Drive.label_generation t.drive (Disk_address.of_index (slot.base + rel))
     || begin
          if Option.is_some slot.pending.(rel) then flush_slot t slot;
          drop_sector t slot rel;
          false
        end)

let trim_ghosts t =
  while Queue.length t.ghosts > t.tracks do
    ignore (Queue.pop t.ghosts)
  done

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun track slot acc ->
        match acc with
        | Some (_, best) when best.used <= slot.used -> acc
        | Some _ | None -> Some (track, slot))
      t.slots None
  in
  match victim with
  | None -> ()
  | Some (track, slot) ->
      flush_slot t slot;
      Hashtbl.remove t.slots track;
      Queue.push track t.ghosts;
      trim_ghosts t;
      Obs.incr m_evictions

let fresh_slot t track =
  {
    base = track * t.spt;
    values = Array.init t.spt (fun _ -> Array.make Sector.value_words Word.zero);
    gens = Array.make t.spt empty;
    pending = Array.make t.spt None;
    used = next_tick t;
  }

let slot_for t track =
  match Hashtbl.find_opt t.slots track with
  | Some slot -> slot
  | None ->
      while Hashtbl.length t.slots >= t.tracks do
        evict_lru t
      done;
      let slot = fresh_slot t track in
      Hashtbl.add t.slots track slot;
      slot

(* {2 The read side} *)

(* The slot holding [addr]'s sector buffered and generation-live. *)
let live_slot t addr =
  if not (enabled t) then None
  else
    let index = Disk_address.to_index addr in
    match Hashtbl.find_opt t.slots (track_of t index) with
    | Some slot as found when live t slot (rel_of t index) -> found
    | Some _ | None -> None

let resident t addr = Option.is_some (live_slot t addr)

let probe ~count t addr ~label ~value =
  match live_slot t addr with
  | None -> None
  | Some slot -> (
      match Label_cache.confirm t.label_cache addr label with
      | None -> None
      | Some verdict as answer ->
          if count then begin
            slot.used <- next_tick t;
            Obs.incr m_hits
          end;
          let rel = rel_of t (Disk_address.to_index addr) in
          if Result.is_ok verdict then Array.blit slot.values.(rel) 0 value 0 Sector.value_words;
          answer)

let lookup t addr ~label ~value = probe ~count:true t addr ~label ~value
let peek t addr ~label ~value = probe ~count:false t addr ~label ~value

(* How much a miss reads. The heads land at [Drive.catch_slot], and
   every sector from there up to the wanted one passes under them before
   it does, so reading that prefix costs no more than the wanted sector
   alone: the fill ends when the wanted sector's slot does, either way.
   A track evicted within the last [tracks] evictions has come back
   within one cache lifetime, so it is worth a revolution and is read
   whole (2Q's admission rule, with the ghosts as its A1out queue).
   The heads are sensed after [slot_for], whose eviction may flush. *)
let fill_range t index =
  let track = track_of t index in
  let returning =
    (not (Hashtbl.mem t.slots track))
    && Queue.fold (fun seen g -> seen || g = track) false t.ghosts
  in
  let slot = slot_for t track in
  if returning then (slot, 0, t.spt)
  else
    let cylinder, _, _ =
      Disk_address.chs (Drive.geometry t.drive) (Disk_address.of_index index)
    in
    let first = Drive.catch_slot t.drive ~cylinder in
    (slot, first, ((rel_of t index - first + t.spt) mod t.spt) + 1)

let fill t addr =
  if enabled t then begin
    Obs.incr m_misses;
    let slot, first, count = fill_range t (Disk_address.to_index addr) in
    slot.used <- next_tick t;
    let wanted = ref [] in
    for k = count - 1 downto 0 do
      let rel = (first + k) mod t.spt in
      (* Dirty sectors hold content newer than the platter; live clean
         sectors are already right. Everything else is (re)read. *)
      if Option.is_none slot.pending.(rel) && not (live t slot rel) then
        wanted := rel :: !wanted
    done;
    match !wanted with
    | [] -> ()
    | wanted ->
        let wanted = Array.of_list wanted in
        let labels = Array.map (fun _ -> Array.make Sector.label_words Word.zero) wanted in
        let requests =
          Array.mapi
            (fun i rel ->
              Sched.request ~label:labels.(i) ~value:slot.values.(rel)
                (Disk_address.of_index (slot.base + rel))
                { Drive.op_none with
                  Drive.label = Some Drive.Read;
                  value = Some Drive.Read;
                })
            wanted
        in
        Obs.incr m_fills;
        Obs.add m_fill_sectors (Array.length wanted);
        Prof.span (Drive.clock t.drive) "bio.fill" (fun () ->
            let outcomes = Sched.run_batch t.drive requests in
            Array.iteri
              (fun i rel ->
                match outcomes.(i).Sched.result with
                | Ok () ->
                    let here = Disk_address.of_index (slot.base + rel) in
                    (* Post-op generation: retries that tripped during
                       the fill already bumped it, so the entry is live
                       from here until the next piece of evidence. The
                       label goes to the table, which answers every name
                       check against the buffered value. *)
                    slot.gens.(rel) <- Drive.label_generation t.drive here;
                    Label_cache.note_verified t.label_cache here labels.(i)
                | Error _ -> slot.gens.(rel) <- empty)
              wanted)
  end

(* {2 The write side} *)

let absorb t addr ~label value =
  match live_slot t addr with
  | None -> None
  | Some slot -> (
      match Label_cache.confirm t.label_cache addr label with
      | None -> None
      | Some verdict as answer ->
          slot.used <- next_tick t;
          Obs.incr m_hits;
          if Result.is_ok verdict then begin
            let rel = rel_of t (Disk_address.to_index addr) in
            if Option.is_none slot.pending.(rel) then begin
              (* The hook runs before the write is recorded: the owner's
                 map must hold the sector before the volume holds
                 acknowledged-but-unwritten state there. *)
              t.on_write [ addr ];
              slot.pending.(rel) <- Some label;
              t.dirty_count <- t.dirty_count + 1
            end;
            Array.blit value 0 slot.values.(rel) 0 (Array.length value);
            Obs.incr m_absorbed;
            if t.dirty_count >= t.high_water then ignore (flush t)
          end;
          answer)

let install t addr ~value =
  if enabled t then
    let index = Disk_address.to_index addr in
    match Hashtbl.find_opt t.slots (track_of t index) with
    | None -> ()
    | Some slot ->
        let rel = rel_of t index in
        if Option.is_some slot.pending.(rel) then begin
          (* The caller just wrote through: the platter is current and
             whatever delayed write was pending is superseded. *)
          slot.pending.(rel) <- None;
          t.dirty_count <- t.dirty_count - 1;
          Obs.incr m_invalidations
        end;
        Array.blit value 0 slot.values.(rel) 0 (Array.length value);
        slot.gens.(rel) <- Drive.label_generation t.drive addr;
        slot.used <- next_tick t

let invalidate t addr =
  let index = Disk_address.to_index addr in
  match Hashtbl.find_opt t.slots (track_of t index) with
  | None -> ()
  | Some slot -> drop_sector t slot (rel_of t index)

let clear t =
  let sectors = cached_sectors t in
  if sectors > 0 then Obs.add m_invalidations sectors;
  t.dirty_count <- 0;
  Hashtbl.reset t.slots

let set_tracks (t : t) n =
  if n < 0 then invalid_arg "Bio.set_tracks: negative track count";
  if n < t.tracks then begin
    ignore (flush t);
    if n = 0 then clear t
    else
      while Hashtbl.length t.slots > n do
        evict_lru t
      done
  end;
  t.tracks <- n;
  trim_ghosts t;
  t.high_water <- high_water_of ~tracks:n ~spt:t.spt

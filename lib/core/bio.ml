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

(* One whole-track buffer. Per relative sector: the label image and
   value observed at fill/install time, the label generation that
   polices their staleness, and the dirty bit for delayed writes. *)
type slot = {
  base : int;  (* flat index of the track's sector 0 *)
  labels : Word.t array array;
  values : Word.t array array;
  gens : int array;
  valid : bool array;
  dirty : bool array;
  mutable used : int;  (* LRU tick of the last hit *)
}

type t = {
  drive : Drive.t;
  label_cache : Label_cache.t;
  spt : int;
  mutable tracks : int;  (* capacity in whole-track buffers; 0 disables *)
  mutable high_water : int;  (* dirty sectors that trigger a full flush *)
  slots : (int, slot) Hashtbl.t;  (* keyed by track number *)
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
    tick = 0;
    dirty_count = 0;
    on_write = ignore;
  }

let drive t = t.drive
let enabled t = t.tracks > 0
let set_on_write t f = t.on_write <- f
let cached_tracks t = Hashtbl.length t.slots
let dirty_sectors t = t.dirty_count

let cached_sectors t =
  Hashtbl.fold
    (fun _ s acc -> acc + Array.fold_left (fun n v -> if v then n + 1 else n) 0 s.valid)
    t.slots 0

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let track_of t index = index / t.spt
let rel_of t index = index mod t.spt

(* {2 Write-back}

   Dirty sectors reach the platter as label-[Check] + value-[Write]:
   the stored label image was platter truth when the write was
   absorbed, so if the check fails the sector was re-labelled
   underneath the delayed write (freed, relocated, repaired) and the
   platter's version of events wins — the write is dropped and
   counted, exactly as a stale hint would have been refused in-band. *)

type flush_report = { sectors : int; tracks : int; conflicts : int }

let flush_sectors t targets =
  match targets with
  | [] -> { sectors = 0; tracks = 0; conflicts = 0 }
  | _ ->
      let targets = Array.of_list targets in
      t.on_write
        (Array.to_list
           (Array.map (fun (slot, rel) -> Disk_address.of_index (slot.base + rel)) targets));
      let requests =
        Array.map
          (fun (slot, rel) ->
            Sched.request
              ~label:slot.labels.(rel) ~value:slot.values.(rel)
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
            (fun i (slot, rel) ->
              (match outcomes.(i).Sched.result with
              | Ok () ->
                  (* The check re-verified the label against the platter
                     an instant ago; capture the generation after the op
                     so retry trips during the flush itself kill the
                     entry rather than hide behind it. *)
                  slot.gens.(rel) <-
                    Drive.label_generation t.drive
                      (Disk_address.of_index (slot.base + rel))
              | Error _ ->
                  incr conflicts;
                  Obs.incr m_write_conflicts;
                  slot.valid.(rel) <- false);
              if slot.dirty.(rel) then begin
                slot.dirty.(rel) <- false;
                t.dirty_count <- t.dirty_count - 1
              end)
            targets);
      let tracks =
        let seen = Hashtbl.create 8 in
        Array.iter (fun (slot, _) -> Hashtbl.replace seen slot.base ()) targets;
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
        if slot.dirty.(rel) && pred slot then run := (slot, rel) :: !run
      done;
      !run)
    t.slots []
  |> List.sort (fun ((a : slot), ra) (b, rb) -> compare (a.base + ra) (b.base + rb))

let flush t = flush_sectors t (dirty_targets_of t (fun _ -> true))

let flush_slot t slot =
  ignore (flush_sectors t (dirty_targets_of t (fun s -> s.base = slot.base)))

(* {2 Residency} *)

let drop_sector t slot rel =
  if slot.valid.(rel) || slot.dirty.(rel) then begin
    slot.valid.(rel) <- false;
    if slot.dirty.(rel) then begin
      slot.dirty.(rel) <- false;
      t.dirty_count <- t.dirty_count - 1
    end;
    Obs.incr m_invalidations
  end

(* Generation-live check; a dead dirty sector is flushed first (the
   platter arbitrates whether the delayed write still applies) so a
   legitimate pending write survives a mere retry trip on the sector. *)
let live t slot rel =
  slot.valid.(rel)
  && begin
       let here = Disk_address.of_index (slot.base + rel) in
       if slot.gens.(rel) = Drive.label_generation t.drive here then true
       else begin
         if slot.dirty.(rel) then flush_slot t slot;
         drop_sector t slot rel;
         false
       end
     end

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
      Obs.incr m_evictions

let fresh_slot t track =
  {
    base = track * t.spt;
    labels = Array.init t.spt (fun _ -> Array.make Sector.label_words Word.zero);
    values = Array.init t.spt (fun _ -> Array.make Sector.value_words Word.zero);
    gens = Array.make t.spt 0;
    valid = Array.make t.spt false;
    dirty = Array.make t.spt false;
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

let probe ~count t addr =
  if not (enabled t) then None
  else
    let index = Disk_address.to_index addr in
    match Hashtbl.find_opt t.slots (track_of t index) with
    | None -> None
    | Some slot ->
        let rel = rel_of t index in
        if live t slot rel then begin
          if count then begin
            slot.used <- next_tick t;
            Obs.incr m_hits
          end;
          Some (slot.labels.(rel), slot.values.(rel))
        end
        else None

let lookup t addr = probe ~count:true t addr
let peek t addr = probe ~count:false t addr

let fill t addr =
  if enabled t then begin
    Obs.incr m_misses;
    let index = Disk_address.to_index addr in
    let slot = slot_for t (track_of t index) in
    slot.used <- next_tick t;
    let wanted = ref [] in
    for rel = t.spt - 1 downto 0 do
      (* Dirty sectors hold content newer than the platter; live clean
         sectors are already right. Everything else is (re)read. *)
      if not (slot.dirty.(rel) || live t slot rel) then wanted := rel :: !wanted
    done;
    match !wanted with
    | [] -> ()
    | wanted ->
        let wanted = Array.of_list wanted in
        let requests =
          Array.map
            (fun rel ->
              Sched.request ~label:slot.labels.(rel) ~value:slot.values.(rel)
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
                       from here until the next piece of evidence. *)
                    slot.gens.(rel) <- Drive.label_generation t.drive here;
                    slot.valid.(rel) <- true;
                    (* A fill reads labels anyway — share them with the
                       chain-walking paths. *)
                    Label_cache.note_verified t.label_cache here slot.labels.(rel)
                | Error _ -> slot.valid.(rel) <- false)
              wanted)
  end

(* {2 The write side} *)

let absorb t addr value =
  if not (enabled t) then false
  else
    let index = Disk_address.to_index addr in
    match Hashtbl.find_opt t.slots (track_of t index) with
    | None -> false
    | Some slot ->
        let rel = rel_of t index in
        if not (live t slot rel) then false
        else begin
          if not slot.dirty.(rel) then begin
            (* The hook runs before the write is recorded: the owner's
               map must hold the sector before the volume holds
               acknowledged-but-unwritten state there. *)
            t.on_write [ addr ];
            slot.dirty.(rel) <- true;
            t.dirty_count <- t.dirty_count + 1
          end;
          Array.blit value 0 slot.values.(rel) 0 (Array.length value);
          slot.used <- next_tick t;
          Obs.incr m_absorbed;
          if t.dirty_count >= t.high_water then ignore (flush t);
          true
        end

let install t addr ~label ~value =
  if enabled t then
    let index = Disk_address.to_index addr in
    match Hashtbl.find_opt t.slots (track_of t index) with
    | None -> ()
    | Some slot ->
        let rel = rel_of t index in
        if slot.dirty.(rel) then begin
          (* The caller just wrote through: the platter is current and
             whatever delayed write was pending is superseded. *)
          slot.dirty.(rel) <- false;
          t.dirty_count <- t.dirty_count - 1;
          Obs.incr m_invalidations
        end;
        Array.blit label 0 slot.labels.(rel) 0 (Array.length label);
        Array.blit value 0 slot.values.(rel) 0 (Array.length value);
        slot.gens.(rel) <- Drive.label_generation t.drive addr;
        slot.valid.(rel) <- true;
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
  t.high_water <- high_water_of ~tracks:n ~spt:t.spt

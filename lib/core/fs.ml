module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_allocations = Obs.counter "fs.page_allocations"
let m_frees = Obs.counter "fs.page_frees"
let m_stale_map_hits = Obs.counter "fs.stale_map_hits"
let m_bad_sectors_hit = Obs.counter "fs.bad_sectors_hit"
let m_descriptor_flushes = Obs.counter "fs.descriptor_flushes"
let m_quarantined = Obs.counter "fs.sectors_quarantined"
let m_quarantine_overflow = Obs.counter "fs.quarantine_overflow"

type allocation_policy =
  | Near_previous
  | Rotation_aware
  | Scattered of Random.State.t

type error = Disk_full | Page_error of Page.error | Corrupt of string

let pp_error fmt = function
  | Disk_full -> Format.pp_print_string fmt "disk full"
  | Page_error e -> Page.pp_error fmt e
  | Corrupt msg -> Format.fprintf fmt "descriptor corrupt: %s" msg

type counters = {
  allocations : int;
  frees : int;
  stale_map_hits : int;
  bad_sectors_hit : int;
}

let zero_counters =
  { allocations = 0; frees = 0; stale_map_hits = 0; bad_sectors_hit = 0 }

type t = {
  drive : Drive.t;
  shape : Geometry.t;
  busy : bool array;  (** The allocation map, in core. true = busy. *)
  mutable next_serial : int;
  mutable recorded_serial : int;
      (** The serial counter as the descriptor last recorded it. *)
  mutable root : Page.full_name option;
  mutable last_allocated : int;
  mutable policy : allocation_policy;
  mutable label_checking : bool;
  mutable descriptor_pages : Disk_address.t array;  (** Data pages, pn 1.. *)
  mutable counters : counters;
  mutable bad_table : int list;
      (** Quarantined sector indexes, oldest first — the persistent
          bad-sector table, flushed with the descriptor. *)
  mutable spill : int list;
      (** Quarantined sectors beyond the descriptor table's 64 entries,
          oldest first. They stay busy and refuse {!mark_free} exactly
          like table members, but persistence is {!Bad_sectors}' job —
          the descriptor has no room for them. *)
  mutable dirty : bool;
      (** Set (and persisted) on the first structural mutation since the
          last consistency point; cleared by a clean unmount, an OutLoad,
          or a completed recovery. A pack that mounts dirty crashed. *)
  mutable patrol_cursor : int;
      (** Where the verify sweep will resume, persisted with the
          descriptor so a crash recovers from the sweep's frontier
          instead of rescanning the whole pack. *)
  cache : Label_cache.t;  (** Verified labels, shared by every layer above. *)
  bio : Bio.t;  (** The track buffer cache, shared by every layer above. *)
}

let boot_address = Disk_address.of_index 0
let descriptor_leader_address = Disk_address.of_index 1

(* Descriptor content layout (word offsets within the file's data):
     0      magic            10      (end of shape)
     1      format version   11-13   root directory file id
     2-10   disk shape       14     root directory leader address
     15-16  next serial (hi/lo)
     17     allocation-map word count W
     18     bad-sector table entry count B (0 on packs written before
            the table existed — the word was reserved-as-zero)
     19..   allocation map, 16 sectors per word, MSB first
     19+W.. bad-sector table: B quarantined disk addresses, in room
            reserved for [max_bad_sectors] of them
     19+W+64    state flags (bit 0: dirty — mutated since the last
            consistency point). Packs written before the word existed
            read it as zero padding, i.e. clean.
     19+W+65    patrol cursor: the sector index where the verify sweep
            resumes. Zero on old packs, which is also the sweep's start. *)
let desc_magic = 0xA170
let desc_version = 1
let map_offset = 19

let max_bad_sectors = 64

(* How far the in-core serial counter may run ahead of the one the
   descriptor last recorded. A crash can lose every create since that
   record, and their labels are on the platter, so a dirty mount resumes
   this far past the record instead of at it. Well above the creates any
   workload makes between two descriptor writes, so the write it forces
   is rare. *)
let serial_gap = 4096

let drive t = t.drive
let label_cache t = t.cache
let bio t = t.bio
let geometry t = t.shape
let clock t = Drive.clock t.drive
let now_seconds t = int_of_float (Sim_clock.now_seconds (clock t))
let root_dir t = t.root
let set_root_dir t fn = t.root <- Some fn

let policy t = t.policy
let set_policy t p = t.policy <- p
let label_checking t = t.label_checking
let set_label_checking t flag = t.label_checking <- flag
let counters t = t.counters
let reset_counters t = t.counters <- zero_counters
let next_serial t = t.next_serial
let set_next_serial t n = t.next_serial <- n

let sector_count t = Array.length t.busy

let free_count t =
  Array.fold_left (fun n busy -> if busy then n else n + 1) 0 t.busy

let is_free_in_map t addr = not t.busy.(Disk_address.to_index addr)
let mark_busy t addr = t.busy.(Disk_address.to_index addr) <- true

let quarantined t addr = List.mem (Disk_address.to_index addr) t.bad_table

let mark_free t addr =
  (* A quarantined sector never rejoins the free pool — whether its
     verdict sits in the descriptor table or spilled beyond it. *)
  let i = Disk_address.to_index addr in
  if not (List.mem i t.bad_table) && not (List.mem i t.spill) then
    t.busy.(i) <- false

(* The dirty flag must reach the disk before the mutation it announces,
   and persisting it needs [flush], defined below — hence the knot. *)
let flush_ref : (t -> (unit, error) result) ref = ref (fun _ -> Ok ())

let note_mutation t =
  if not t.dirty then begin
    t.dirty <- true;
    (* Best effort, and only once a descriptor exists to write into:
       the scavenger mutates through an unplaced handle, and a failed
       flush here leaves the flag set in core for the next one. *)
    if Array.length t.descriptor_pages > 0 then
      match !flush_ref t with Ok () | Error _ -> ()
  end

(* Write the descriptor (best effort, once one exists) before handing
   out a serial [serial_gap] or more past the recorded counter, so every
   serial in use stays below where a dirty mount resumes. *)
let fresh_fid ?directory t =
  let serial = t.next_serial in
  if serial >= t.recorded_serial + serial_gap && Array.length t.descriptor_pages > 0
  then (match !flush_ref t with Ok () | Error _ -> ());
  t.next_serial <- serial + 1;
  File_id.make ?directory ~serial ~version:1 ()

let dirty t = t.dirty
let patrol_cursor t = t.patrol_cursor

let set_patrol_cursor t i =
  if i < 0 || i >= Array.length t.busy then
    invalid_arg "Fs.set_patrol_cursor: sector index beyond the pack";
  t.patrol_cursor <- i

let quarantine t addr =
  let i = Disk_address.to_index addr in
  note_mutation t;
  t.busy.(i) <- true;
  (* Eager, though generation checking would catch it lazily: a
     quarantined sector's label must never be served from core — and
     neither may a buffered track image of it, dirty or not (flushing a
     delayed write to a sector just declared bad would be absurd). *)
  Label_cache.invalidate t.cache addr;
  Bio.invalidate t.bio addr;
  if not (List.mem i t.bad_table) then begin
    if List.length t.bad_table >= max_bad_sectors then begin
      (* The descriptor table is full: spill. The sector refuses the
         free pool exactly like a table member; persistence across
         remounts is {!Bad_sectors}' job (a catalogued file), since the
         descriptor has no room left. *)
      if not (List.mem i t.spill) then begin
        t.spill <- t.spill @ [ i ];
        Obs.incr m_quarantine_overflow
      end
    end
    else begin
      t.bad_table <- t.bad_table @ [ i ];
      Obs.incr m_quarantined;
      Obs.event ~clock:(Drive.clock t.drive)
        ~fields:[ ("addr", Obs.I i) ]
        "fs.sector_quarantined"
    end
  end

let bad_sector_table t = List.map Disk_address.of_index t.bad_table
let spilled t addr = List.mem (Disk_address.to_index addr) t.spill
let spilled_table t = List.map Disk_address.of_index t.spill

let adopt_spilled t addr =
  (* A spill-file entry read back at mount: the verdict predates this
     handle, so it enters the spill list without re-counting. *)
  let i = Disk_address.to_index addr in
  t.busy.(i) <- true;
  Label_cache.invalidate t.cache addr;
  Bio.invalidate t.bio addr;
  if not (List.mem i t.bad_table) && not (List.mem i t.spill) then
    t.spill <- t.spill @ [ i ]

(* {2 Allocation} *)

let pick_candidate t =
  let n = sector_count t in
  let linear_from start =
    let rec scan k i =
      if k >= n then Error Disk_full
      else if not t.busy.(i) then Ok i
      else scan (k + 1) ((i + 1) mod n)
    in
    scan 0 start
  in
  match t.policy with
  | Near_previous -> linear_from ((t.last_allocated + 1) mod n)
  | Rotation_aware ->
      (* Near-previous with rotational position sensing: charge every
         free sector in a small window of upcoming tracks its true
         arrival cost — the seek plus the rotational wait to its slot
         ([Drive.catch_slot] knows where the surface will be when the
         heads settle) — and take the cheapest. The lookahead is the
         point: within one track, picking holes in slot order instead
         of address order merely permutes the same waits (the slot
         angles of the track's holes are what they are), but a window
         of a few tracks almost always contains a hole the head can
         catch within a slot or two, and a hostile-angle hole is simply
         left for a later pass that arrives at a different phase. Track
         order is still near-previous, so locality (and the read side's
         track buffers) keep their clustering. *)
      let spt = t.shape.Geometry.sectors_per_track in
      let sector_us = Geometry.sector_time_us t.shape in
      let tracks = n / spt in
      let start_track = (t.last_allocated + 1) mod n / spt in
      let best_in_window = ref None in
      let lookahead = min 4 tracks in
      for k = 0 to lookahead - 1 do
        let track = (start_track + k) mod tracks in
        let base = track * spt in
        let cylinder, _, _ =
          Disk_address.chs t.shape (Disk_address.of_index base)
        in
        let seek_us =
          Geometry.seek_time_us t.shape
            ~from_cylinder:(Drive.current_cylinder t.drive)
            ~to_cylinder:cylinder
        in
        let catch = Drive.catch_slot t.drive ~cylinder in
        for rel = 0 to spt - 1 do
          if not t.busy.(base + rel) then begin
            let cost = seek_us + (((rel - catch + spt) mod spt) * sector_us) in
            match !best_in_window with
            | Some (_, best_cost) when best_cost <= cost -> ()
            | Some _ | None -> best_in_window := Some (base + rel, cost)
          end
        done
      done;
      (match !best_in_window with
      | Some (i, _) -> Ok i
      | None ->
          (* The window is solid: march onward to the first track with
             any hole and take its soonest-catchable sector. *)
          let rec scan_track k track =
            if k >= tracks then Error Disk_full
            else begin
              let base = track * spt in
              let cylinder, _, _ =
                Disk_address.chs t.shape (Disk_address.of_index base)
              in
              let catch = Drive.catch_slot t.drive ~cylinder in
              let best = ref None in
              for rel = 0 to spt - 1 do
                if not t.busy.(base + rel) then begin
                  let wait = (rel - catch + spt) mod spt in
                  match !best with
                  | Some (_, best_wait) when best_wait <= wait -> ()
                  | Some _ | None -> best := Some (base + rel, wait)
                end
              done;
              match !best with
              | Some (i, _) -> Ok i
              | None -> scan_track (k + 1) ((track + 1) mod tracks)
            end
          in
          scan_track 0 ((start_track + lookahead) mod tracks))
  | Scattered rng ->
      let rec probe k =
        if k = 0 then linear_from (Random.State.int rng n)
        else
          let i = Random.State.int rng n in
          if not t.busy.(i) then Ok i else probe (k - 1)
      in
      probe 32

let reserve t =
  match pick_candidate t with
  | Error e -> Error e
  | Ok i ->
      note_mutation t;
      t.busy.(i) <- true;
      t.last_allocated <- i;
      Ok (Disk_address.of_index i)

let unreserve t addr = mark_free t addr

let write_first t addr label value =
  let write_op () =
    Reliable.run t.drive addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:(Label.to_words label) ~value ()
  in
  if t.label_checking then
    match
      Reliable.run t.drive addr
        { Drive.op_none with label = Some Drive.Check }
        ~label:(Label.check_free ()) ()
    with
    | Error (Drive.Check_mismatch _) -> Error `Not_free
    | Error (Drive.Bad_sector | Drive.Transient _) ->
        (* A transient here means the retry ladder already ran dry. *)
        Error `Bad
    | Ok () -> (
        match write_op () with
        | Ok () -> Ok ()
        | Error Drive.Bad_sector -> Error `Bad
        | Error (Drive.Check_mismatch _ | Drive.Transient _) ->
            assert false (* write-only ops: no checks, no soft reads *))
  else
    match write_op () with
    | Ok () -> Ok ()
    | Error Drive.Bad_sector -> Error `Bad
    | Error (Drive.Check_mismatch _ | Drive.Transient _) -> assert false

let allocate_page t ~label ~value =
  Prof.span (Drive.clock t.drive) "fs.allocate_page" @@ fun () ->
  let rec attempt () =
    match reserve t with
    | Error e -> Error e
    | Ok addr -> (
        match write_first t addr (label addr) value with
        | Ok () ->
            t.counters <- { t.counters with allocations = t.counters.allocations + 1 };
            Obs.incr m_allocations;
            Ok addr
        | Error `Not_free ->
            (* The map lied: the page was busy all along. It stays marked
               busy and we go around again — the paper's "little extra
               one-time disk activity". *)
            t.counters <- { t.counters with stale_map_hits = t.counters.stale_map_hits + 1 };
            Obs.incr m_stale_map_hits;
            Obs.event ~clock:(Drive.clock t.drive)
              ~fields:[ ("addr", Obs.I (Disk_address.to_index addr)) ]
              "fs.stale_map_hit";
            attempt ()
        | Error `Bad ->
            t.counters <-
              { t.counters with bad_sectors_hit = t.counters.bad_sectors_hit + 1 };
            Obs.incr m_bad_sectors_hit;
            (* Record the dud so no future mount hands it out again. *)
            quarantine t addr;
            attempt ())
  in
  attempt ()

let free_page t (fn : Page.full_name) =
  Prof.span (Drive.clock t.drive) "fs.free_page" @@ fun () ->
  note_mutation t;
  let write_free () =
    Reliable.run t.drive fn.Page.addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:(Label.free_words ()) ~value:(Label.free_value ()) ()
  in
  let finish () =
    match write_free () with
    | Error e -> Error (Page_error (Page.Hint_failed e))
    | Ok () ->
        mark_free t fn.Page.addr;
        t.counters <- { t.counters with frees = t.counters.frees + 1 };
        Obs.incr m_frees;
        Ok ()
  in
  if t.label_checking then
    match
      Reliable.run t.drive fn.Page.addr
        { Drive.op_none with label = Some Drive.Check }
        ~label:(Label.check_name fn.Page.abs.Page.fid ~page:fn.Page.abs.Page.page)
        ()
    with
    | Error e -> Error (Page_error (Page.Hint_failed e))
    | Ok () -> finish ()
  else finish ()

(* {2 Descriptor encoding} *)

let map_word_count t = (sector_count t + 15) / 16

(* Two tail words past the bad table: state flags and the patrol
   cursor. They come last so every earlier offset is what older packs
   used; a descriptor without them parses with both defaulted to 0. *)
let descriptor_content_words t = map_offset + map_word_count t + max_bad_sectors + 2

let descriptor_data_pages t =
  (descriptor_content_words t + Sector.value_words - 1) / Sector.value_words

let assemble_descriptor t =
  let total = descriptor_content_words t in
  let words = Array.make total Word.zero in
  words.(0) <- Word.of_int desc_magic;
  words.(1) <- Word.of_int desc_version;
  Array.blit (Geometry.to_words t.shape) 0 words 2 Geometry.encoded_words;
  (match t.root with
  | None -> ()
  | Some fn ->
      let w0, w1, v = File_id.to_words fn.Page.abs.Page.fid in
      words.(11) <- w0;
      words.(12) <- w1;
      words.(13) <- v;
      words.(14) <- Disk_address.to_word fn.Page.addr);
  words.(15) <- Word.of_int (t.next_serial lsr 16);
  words.(16) <- Word.of_int t.next_serial;
  let map_words = map_word_count t in
  words.(17) <- Word.of_int_exn map_words;
  words.(18) <- Word.of_int_exn (List.length t.bad_table);
  for j = 0 to map_words - 1 do
    let w = ref 0 in
    for k = 0 to 15 do
      let i = (j * 16) + k in
      if i < sector_count t && t.busy.(i) then w := !w lor (1 lsl (15 - k))
    done;
    words.(map_offset + j) <- Word.of_int !w
  done;
  List.iteri
    (fun j i ->
      words.(map_offset + map_words + j) <-
        Disk_address.to_word (Disk_address.of_index i))
    t.bad_table;
  let tail = map_offset + map_words + max_bad_sectors in
  words.(tail) <- Word.of_int (if t.dirty then 1 else 0);
  words.(tail + 1) <- Word.of_int_exn t.patrol_cursor;
  words

let parse_descriptor t words =
  let ( let* ) = Result.bind in
  if Array.length words < map_offset then Error "descriptor too short"
  else if Word.to_int words.(0) <> desc_magic then Error "bad descriptor magic"
  else if Word.to_int words.(1) <> desc_version then Error "unknown descriptor version"
  else
    let* shape = Geometry.of_words (Array.sub words 2 Geometry.encoded_words) in
    if not (Geometry.equal shape (Drive.geometry t.drive)) then
      Error "descriptor shape contradicts the drive"
    else begin
      (match File_id.of_words words.(11) words.(12) words.(13) with
      | Ok fid ->
          t.root <-
            Some (Page.full_name fid ~page:0 ~addr:(Disk_address.of_word words.(14)))
      | Error _ -> t.root <- None);
      t.recorded_serial <- (Word.to_int words.(15) lsl 16) lor Word.to_int words.(16);
      let map_words = Word.to_int words.(17) in
      if Array.length words < map_offset + map_words then
        Error "descriptor map truncated"
      else begin
        for j = 0 to map_words - 1 do
          let w = Word.to_int words.(map_offset + j) in
          for k = 0 to 15 do
            let i = (j * 16) + k in
            if i < sector_count t then t.busy.(i) <- w land (1 lsl (15 - k)) <> 0
          done
        done;
        (* The bad-sector table. Clamp the count against what's actually
           present so packs written before the table existed (word 18
           reserved-as-zero, no entries appended) parse cleanly. *)
        let declared = Word.to_int words.(18) in
        let available = max 0 (Array.length words - (map_offset + map_words)) in
        let count = min declared (min available max_bad_sectors) in
        t.bad_table <- [];
        for j = count - 1 downto 0 do
          let addr = Disk_address.of_word words.(map_offset + map_words + j) in
          let i = Disk_address.to_index addr in
          if i < sector_count t then begin
            t.busy.(i) <- true;
            t.bad_table <- i :: t.bad_table
          end
        done;
        (* The tail words. Packs written before they existed end at the
           bad table; the concatenated pages pad with zeros, which read
           back exactly as the defaults: clean, sweep from sector 0. *)
        let tail = map_offset + map_words + max_bad_sectors in
        if Array.length words > tail + 1 then begin
          t.dirty <- Word.to_int words.(tail) land 1 <> 0;
          let cursor = Word.to_int words.(tail + 1) in
          t.patrol_cursor <- (if cursor < sector_count t then cursor else 0)
        end
        else begin
          t.dirty <- false;
          t.patrol_cursor <- 0
        end;
        t.next_serial <-
          (if t.dirty then t.recorded_serial + serial_gap else t.recorded_serial);
        Ok ()
      end
    end

(* {2 Writing the descriptor file} *)

let descriptor_page_name t pn =
  if pn = 0 then
    Page.full_name File_id.descriptor ~page:0 ~addr:descriptor_leader_address
  else Page.full_name File_id.descriptor ~page:pn ~addr:t.descriptor_pages.(pn - 1)

let flush t =
  Prof.span (Drive.clock t.drive) "fs.flush" @@ fun () ->
  (* Delayed page writes first: a flush is the volume saying "the
     platter now agrees with everything acknowledged", and that claim
     must cover the buffer cache before the descriptor asserts it. *)
  ignore (Bio.flush t.bio);
  Obs.incr m_descriptor_flushes;
  let serial = t.next_serial in
  let words = assemble_descriptor t in
  let pages = descriptor_data_pages t in
  let rec write pn =
    if pn > pages then Ok ()
    else
      let value = Array.make Sector.value_words Word.zero in
      let offset = (pn - 1) * Sector.value_words in
      let len = min Sector.value_words (Array.length words - offset) in
      Array.blit words offset value 0 len;
      let fn = descriptor_page_name t pn in
      match Page.write ~cache:t.cache t.drive fn value with
      | Error e -> Error (Page_error e)
      | Ok _ ->
          (* The descriptor writes through (its durability is the whole
             point); any buffered track image of the sector is stale. *)
          Bio.invalidate t.bio fn.Page.addr;
          write (pn + 1)
  in
  let written = write 1 in
  if Result.is_ok written then t.recorded_serial <- serial;
  written

let () = flush_ref := flush

let mark_clean t =
  (* A consistency point: clear the flag and write the whole descriptor
     (map, serial, cursor) so the next boot trusts the pack as-is. *)
  t.dirty <- false;
  flush t

(* Lay down fresh labels and leader for the descriptor file at the
   standard addresses. Used at format and by the scavenger's rebuild. *)
let place_descriptor_file t =
  let pages = descriptor_data_pages t in
  let content = descriptor_content_words t in
  let addr pn = Disk_address.of_index (1 + pn) in
  t.descriptor_pages <- Array.init pages (fun i -> addr (i + 1));
  mark_busy t boot_address;
  for pn = 0 to pages do
    mark_busy t (addr pn)
  done;
  let label pn =
    let length =
      if pn = 0 then Sector.bytes_per_page
      else if pn < pages then Sector.bytes_per_page
      else (2 * content) - (Sector.bytes_per_page * (pages - 1))
    in
    let next = if pn = pages then Disk_address.nil else addr (pn + 1) in
    let prev = if pn = 0 then Disk_address.nil else addr (pn - 1) in
    Label.make ~fid:File_id.descriptor ~page:pn ~length ~next ~prev
  in
  for pn = 0 to pages do
    Alto_disk.Drive.poke t.drive (addr pn) Sector.Label (Label.to_words (label pn))
  done;
  let leader =
    Leader.make ~created_s:(now_seconds t) ~name:"DiskDescriptor."
      ~last_page:pages ~last_addr:(addr pages) ~maybe_consecutive:true ()
  in
  match
    Page.write ~cache:t.cache t.drive (descriptor_page_name t 0)
      (Leader.to_value leader)
  with
  | Error e -> Error (Page_error e)
  | Ok _ -> flush t

let make_handle drive =
  let cache = Label_cache.create drive in
  let bio = Bio.create ~label_cache:cache drive in
  let t =
    {
      drive;
      cache;
      bio;
      shape = Drive.geometry drive;
      busy = Array.make (Drive.sector_count drive) false;
      next_serial = File_id.first_user_serial;
      recorded_serial = File_id.first_user_serial;
      root = None;
      last_allocated = 0;
      policy = Near_previous;
      label_checking = true;
      descriptor_pages = [||];
      counters = zero_counters;
      bad_table = [];
      spill = [];
      dirty = false;
      patrol_cursor = 0;
    }
  in
  (* A dirty track buffer is an acknowledged write the platter hasn't
     seen; the descriptor's dirty flag must announce it before the delay
     begins, so a crash boots into the bounded recovery scan. *)
  Bio.set_on_dirty bio (fun () -> note_mutation t);
  t

let create_unmounted drive =
  let t = make_handle drive in
  Array.fill t.busy 0 (Array.length t.busy) true;
  t

let rebuild_descriptor t =
  (* A rebuilt pack is a consistency point by construction, whatever
     quarantines the run recorded through this handle along the way. *)
  t.dirty <- false;
  match place_descriptor_file t with Ok () -> Ok () | Error e -> Error e

let descriptor_page_count = descriptor_data_pages

(* Create the root directory: a leader page and one empty data page,
   written through the ordinary allocation path. *)
let create_root_directory t =
  let ( let* ) = Result.bind in
  let* leader_addr = reserve t in
  let* page1_addr = reserve t in
  let leader_label =
    Label.make ~fid:File_id.root_directory ~page:0 ~length:Sector.bytes_per_page
      ~next:page1_addr ~prev:Disk_address.nil
  in
  let page1_label =
    Label.make ~fid:File_id.root_directory ~page:1 ~length:0 ~next:Disk_address.nil
      ~prev:leader_addr
  in
  let leader =
    Leader.make ~created_s:(now_seconds t) ~name:"SysDir." ~last_page:1
      ~last_addr:page1_addr ~maybe_consecutive:true ()
  in
  let fail = Error (Corrupt "fresh page refused first write") in
  let* () =
    match write_first t leader_addr leader_label (Leader.to_value leader) with
    | Ok () -> Ok ()
    | Error (`Not_free | `Bad) -> fail
  in
  let* () =
    match
      write_first t page1_addr page1_label (Array.make Sector.value_words Word.zero)
    with
    | Ok () -> Ok ()
    | Error (`Not_free | `Bad) -> fail
  in
  t.root <- Some (Page.full_name File_id.root_directory ~page:0 ~addr:leader_addr);
  Ok ()

let format ?disk_name:_ drive =
  let t = make_handle drive in
  (* Factory formatting: free every sector out-of-band. *)
  let free_label = Label.free_words () and free_value = Label.free_value () in
  for i = 0 to Drive.sector_count drive - 1 do
    let addr = Disk_address.of_index i in
    Alto_disk.Drive.poke drive addr Sector.Label free_label;
    Alto_disk.Drive.poke drive addr Sector.Value free_value
  done;
  mark_busy t boot_address;
  (match place_descriptor_file t with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Fs.format: %a" pp_error e));
  (match create_root_directory t with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Fs.format: %a" pp_error e));
  (* Formatting's own allocations set the flag; a virgin pack is clean. *)
  t.dirty <- false;
  (match flush t with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Fs.format: %a" pp_error e));
  t

let mount drive =
  let ( let* ) = Result.bind in
  let t = make_handle drive in
  let* leader_label, leader_value =
    Result.map_error
      (fun e -> Format.asprintf "descriptor leader unreadable: %a" Page.pp_error e)
      (Page.read ~cache:t.cache drive (descriptor_page_name t 0))
  in
  let* leader = Leader.of_value leader_value in
  let pages = leader.Leader.last_page in
  let rec chase acc fn label pn =
    if pn > pages then Ok (List.rev acc)
    else
      match Page.next_name fn label with
      | None -> Error "descriptor file ends early"
      | Some next_fn -> (
          match Page.read ~cache:t.cache drive next_fn with
          | Error e ->
              Error (Format.asprintf "descriptor page %d unreadable: %a" pn Page.pp_error e)
          | Ok (next_label, value) ->
              chase ((next_fn, value) :: acc) next_fn next_label (pn + 1))
  in
  let* data = chase [] (descriptor_page_name t 0) leader_label 1 in
  let words = Array.concat (List.map snd data) in
  let* () = parse_descriptor t words in
  t.descriptor_pages <- Array.of_list (List.map (fun (fn, _) -> fn.Page.addr) data);
  Ok t

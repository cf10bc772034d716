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

let m_allocations = Obs.counter "fs.page_allocations"
let m_frees = Obs.counter "fs.page_frees"
let m_stale_map_hits = Obs.counter "fs.stale_map_hits"
let m_bad_sectors_hit = Obs.counter "fs.bad_sectors_hit"
let m_descriptor_flushes = Obs.counter "fs.descriptor_flushes"
let m_quarantined = Obs.counter "fs.sectors_quarantined"
let m_quarantine_overflow = Obs.counter "fs.quarantine_overflow"
let m_map_writes = Obs.counter "fs.map_writes"

type allocation_policy =
  | Near_previous
  | Rotation_aware
  | Scattered of Random.State.t

type error = Disk_full | Page_error of Page.error | Corrupt of string

let pp_error fmt = function
  | Disk_full -> Format.pp_print_string fmt "disk full"
  | Page_error e -> Page.pp_error fmt e
  | Corrupt msg -> Format.fprintf fmt "descriptor corrupt: %s" msg

(* The write-ahead cylinder map of one pack: one bit per cylinder, set
   before any write lands there and cleared only at a consistency point.
   It is the pack's, not a handle's: every handle mounted on the drive
   shares it (and the drive's write fence reads it), so a remount, a
   read-only checker's mount or the scavenger's unplaced handle all see
   and extend the one map the platter's records hold. *)
type intent = {
  mapped : bool array;  (** Per cylinder, as the newest record holds it. *)
  per_cylinder : int;  (** Sectors per cylinder. *)
  mutable read_back : bool;
      (** A record read back at the last mount (or has been written
          since). When none did, the map cannot say where writes landed
          and the pack owes the whole of it. *)
  mutable seq : int;  (** Sequence number of the newest record. *)
  mutable newest : int;  (** The record slot (0 or 1) that holds it. *)
  mutable known : bool;  (** [seq] was learned from the platter. *)
}

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
  mutable bad_table : int list;
      (** Quarantined sector indexes, oldest first — the persistent
          bad-sector table, flushed with the descriptor. *)
  mutable spill : int list;
      (** Quarantined sectors beyond the descriptor table's 64 entries,
          oldest first. They stay busy and refuse {!mark_free} exactly
          like table members, but persistence is {!Bad_sectors}' job —
          the descriptor has no room for them. *)
  intent : intent;  (** The pack's write-ahead cylinder map. *)
  mutable patrol_cursor : int;
      (** Where the verify sweep will resume, persisted with the
          descriptor. *)
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
     19+W+64    reserved, written zero (version 1 kept a dirty flag here)
     19+W+65    patrol cursor: the sector index where the verify sweep
            resumes. Zero on old packs, which is also the sweep's start.
   The content fills the file's first data pages; its last two pages are
   the write-ahead map records, outside the content (see below). *)
let desc_magic = 0xA170
let desc_version = 2

(* Version 1 descriptors predate the map records. *)
let legacy_version = 1
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

(* The descriptor's size is fixed by the pack's: content pages first,
   then the two map records. The content words are laid out above. *)
let content_words n = map_offset + ((n + 15) / 16) + max_bad_sectors + 2
let content_pages n = (content_words n + Sector.value_words - 1) / Sector.value_words
let record_pages = 2

(* {2 The write-ahead cylinder map}

   Two records, each one page of the descriptor file after its content,
   written alternately under a sequence number:

     0      magic 0xA1C0
     1-2    sequence number (hi/lo)
     3      cylinder count C
     4..    C bits, 16 cylinders per word, MSB first

   A bit is set, and its record written, before any write reaches that
   cylinder; only a consistency point clears the map. A torn record
   write leaves the other record, and by the write-ahead rule it already
   covers every write that reached the platter. *)

let map_magic = 0xA1C0

let record_address n slot = Disk_address.of_index (2 + content_pages n + slot)

let map_records drive =
  let n = Drive.sector_count drive in
  [ record_address n 0; record_address n 1 ]

(* One label-checked transfer of a record's value: the check keeps a
   record write off any sector that is not the record's own page. *)
let record_op drive slot action value =
  let n = Drive.sector_count drive in
  Reliable.run drive (record_address n slot)
    { Drive.op_none with label = Some Drive.Check; value = Some action }
    ~label:(Label.check_name File_id.descriptor ~page:(content_pages n + 1 + slot))
    ~value ()

let encode_record mapped seq =
  let v = Array.make Sector.value_words Word.zero in
  v.(0) <- Word.of_int map_magic;
  v.(1) <- Word.of_int (seq lsr 16);
  v.(2) <- Word.of_int seq;
  v.(3) <- Word.of_int_exn (Array.length mapped);
  Array.iteri
    (fun c set ->
      if set then
        let j = 4 + (c / 16) in
        v.(j) <- Word.of_int (Word.to_int v.(j) lor (1 lsl (15 - (c mod 16)))))
    mapped;
  v

let decode_record ~cylinders v =
  if Word.to_int v.(0) <> map_magic || Word.to_int v.(3) <> cylinders then None
  else
    let seq = (Word.to_int v.(1) lsl 16) lor Word.to_int v.(2) in
    Some
      ( seq,
        Array.init cylinders (fun c ->
            Word.to_int v.(4 + (c / 16)) land (1 lsl (15 - (c mod 16))) <> 0) )

(* The records that read back, newest first. *)
let read_records drive i =
  let found =
    List.filter_map
      (fun slot ->
        let v = Array.make Sector.value_words Word.zero in
        match record_op drive slot Drive.Read v with
        | Error _ -> None
        | Ok () ->
            Option.map
              (fun (seq, bits) -> (slot, seq, bits))
              (decode_record ~cylinders:(Array.length i.mapped) v))
      [ 0; 1 ]
  in
  List.sort (fun (_, a, _) (_, b, _) -> compare b a) found

let newest_of i = function
  | (slot, seq, _) :: _ ->
      i.seq <- seq;
      i.newest <- slot
  | [] ->
      i.seq <- 0;
      i.newest <- 1

(* Write the in-core map as the next record: the slot not holding the
   newest, or the other one if that write fails. Best effort — with
   neither written, the bits stay set in core and the next write tries
   again. *)
let persist drive i =
  if not i.known then begin
    (* An unplaced handle's first record: learn the sequence number the
       platter already holds, so the new record outranks it. *)
    newest_of i (read_records drive i);
    i.known <- true
  end;
  let seq = i.seq + 1 in
  let value = encode_record i.mapped seq in
  let write slot = Result.is_ok (record_op drive slot Drive.Write value) in
  let target = 1 - i.newest in
  let landed =
    if write target then Some target else if write i.newest then Some i.newest else None
  in
  Option.iter
    (fun slot ->
      Obs.incr m_map_writes;
      i.seq <- seq;
      i.newest <- slot;
      i.read_back <- true)
    landed

let announce_cylinders drive i cylinders =
  if List.exists (fun c -> not i.mapped.(c)) cylinders then begin
    List.iter (fun c -> i.mapped.(c) <- true) cylinders;
    persist drive i
  end

(* The drive's write fence: every write's cylinder, and for a label
   write the cylinders its links name, is mapped before the write
   begins. The descriptor's own pages (1 to [top]) pass: the records are
   the map's own writes, and a torn content page leaves a pack that does
   not mount, which boot scavenges whole. *)
let fence drive i =
  let n = Drive.sector_count drive in
  let top = 1 + content_pages n + record_pages in
  let cylinder addr =
    if Disk_address.is_nil addr then None
    else
      let index = Disk_address.to_index addr in
      if index >= n then None else Some (index / i.per_cylinder)
  in
  fun addr label ->
    match cylinder addr with
    | Some c when Disk_address.to_index addr < 1 || Disk_address.to_index addr > top -> (
        match Option.map Label.of_words label with
        | Some (Ok l) ->
            announce_cylinders drive i
              (c :: List.filter_map cylinder [ l.Label.next; l.Label.prev ])
        | Some (Error _) | None -> if not i.mapped.(c) then announce_cylinders drive i [ c ])
    | Some _ | None -> ()

(* The map travels with the pack: every handle on the drive finds it
   there. *)
type Drive.attachment += Intent of intent

let intent_of drive =
  match Drive.attachment drive with
  | Some (Intent i) -> i
  | Some _ | None ->
      let g = Drive.geometry drive in
      let i =
        {
          mapped = Array.make g.Geometry.cylinders false;
          per_cylinder = g.Geometry.heads * g.Geometry.sectors_per_track;
          read_back = true;
          seq = 0;
          newest = 1;
          known = false;
        }
      in
      Drive.attach drive (Intent i) ~fence:(fence drive i);
      i

let cylinder_of t addr = Disk_address.to_index addr / t.intent.per_cylinder

let announce t addrs =
  let unmapped a = Drive.has_sector t.drive a && not t.intent.mapped.(cylinder_of t a) in
  if List.exists unmapped addrs then
    announce_cylinders t.drive t.intent
      (List.map (cylinder_of t) (List.filter (Drive.has_sector t.drive) addrs))

let announce_whole t =
  announce_cylinders t.drive t.intent
    (List.init (Array.length t.intent.mapped) Fun.id)

let dirty t = (not t.intent.read_back) || Array.exists Fun.id t.intent.mapped

let mapped_cylinders t =
  if not t.intent.read_back then None
  else
    Some
      (List.filter (fun c -> t.intent.mapped.(c)) (List.init (Array.length t.intent.mapped) Fun.id))

(* The descriptor is written (best effort) before a serial runs too far
   ahead of its record; that write needs [flush], defined below. *)
let flush_ref : (t -> (unit, error) result) ref = ref (fun _ -> Ok ())

(* Write the descriptor (best effort, once one exists) before handing
   out a serial [serial_gap] or more past the recorded counter, so every
   serial in use stays below where a dirty mount resumes. *)
let fresh_fid ?directory t =
  let serial = t.next_serial in
  if serial >= t.recorded_serial + serial_gap && Array.length t.descriptor_pages > 0
  then (match !flush_ref t with Ok () | Error _ -> ());
  t.next_serial <- serial + 1;
  File_id.make ?directory ~serial ~version:1 ()

let patrol_cursor t = t.patrol_cursor

let set_patrol_cursor t i =
  if i < 0 || i >= Array.length t.busy then
    invalid_arg "Fs.set_patrol_cursor: sector index beyond the pack";
  t.patrol_cursor <- i

let quarantine t addr =
  let i = Disk_address.to_index addr in
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
      t.busy.(i) <- true;
      t.last_allocated <- i;
      Ok (Disk_address.of_index i)

let unreserve t addr = mark_free t addr

(* One pass of [op] over a list of (address, label buffer) requests,
   results in the caller's order. A run goes to the elevator; a single
   page is one operation with nothing to order, so it goes straight to
   the drive. *)
let pass t op ?value requests =
  match requests with
  | [ (addr, label) ] -> [ Reliable.run t.drive addr op ~label ?value () ]
  | _ ->
      Array.to_list
        (Array.map
           (fun o -> o.Sched.result)
           (Sched.run_batch t.drive
              (Array.of_list
                 (List.map (fun (addr, label) -> Sched.request ~label ?value addr op) requests))))

let first_error results = List.find_map (function Error e -> Some e | Ok () -> None) results

let count_stale_map_hit t addr =
  Obs.incr m_stale_map_hits;
  Obs.event ~clock:(Drive.clock t.drive)
    ~fields:[ ("addr", Obs.I (Disk_address.to_index addr)) ]
    "fs.stale_map_hit"

let count_bad_sector t addr =
  Obs.incr m_bad_sectors_hit;
  (* Record the dud so no future mount hands it out again. *)
  quarantine t addr

(* Up to [n] pages, picked from the map and checked free in one pass per
   round. A refuted candidate stays busy — the map lied, the paper's
   "little extra one-time disk activity" — a bad one is quarantined, and
   the next round re-picks that many. Fewer than [n] only when the map
   runs dry; none is [Disk_full]. *)
let reserve_run t n =
  let rec round acc n =
    let rec pick k picked =
      if k = 0 then List.rev picked
      else match reserve t with Ok a -> pick (k - 1) (a :: picked) | Error _ -> List.rev picked
    in
    let picked = pick n [] in
    (* One map write covers the run: its first writes follow. *)
    announce t picked;
    match picked with
    | [] -> if acc = [] then Error Disk_full else Ok (List.rev acc)
    | picked when not t.label_checking -> Ok (List.rev_append acc picked)
    | picked ->
        let checked =
          pass t { Drive.op_none with label = Some Drive.Check }
            (List.map (fun addr -> (addr, Label.check_free ())) picked)
        in
        let acc, refused =
          List.fold_left2
            (fun (acc, refused) addr result ->
              match result with
              | Ok () -> (addr :: acc, refused)
              | Error (Drive.Check_mismatch _) ->
                  count_stale_map_hit t addr;
                  (acc, refused + 1)
              | Error (Drive.Bad_sector | Drive.Transient _) ->
                  (* A transient here means the retry ladder already ran dry. *)
                  count_bad_sector t addr;
                  (acc, refused + 1))
            (acc, 0) picked checked
        in
        if refused = 0 then Ok (List.rev acc) else round acc refused
  in
  round [] n

let reserve_pages t n =
  if n < 1 then invalid_arg "Fs.reserve_pages: a run needs at least one page";
  Prof.span (Drive.clock t.drive) "fs.allocate_page" @@ fun () -> reserve_run t n

let write_reserved t addr label value =
  let words = Label.to_words label in
  match
    Reliable.run t.drive addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:words ~value ()
  with
  | Ok () ->
      (* A completed label write is its own verification: the relink
         that follows checks this label in core, not on the platter. *)
      Label_cache.note_verified t.cache addr words;
      Obs.incr m_allocations;
      Ok ()
  | Error Drive.Bad_sector ->
      count_bad_sector t addr;
      Error `Quarantined
  | Error (Drive.Check_mismatch _ | Drive.Transient _) ->
      assert false (* a write-only op: no checks, no soft reads *)

let allocate_page t ~label ~value =
  Prof.span (Drive.clock t.drive) "fs.allocate_page" @@ fun () ->
  let rec attempt () =
    match reserve_run t 1 with
    | Error e -> Error e
    | Ok [] -> Error Disk_full
    | Ok (addr :: _) -> (
        match write_reserved t addr (label addr) value with
        | Ok () -> Ok addr
        | Error `Quarantined -> attempt ())
  in
  attempt ()

let free_pages t (names : Page.full_name list) =
  if names = [] then Ok ()
  else
    Prof.span (Drive.clock t.drive) "fs.free_page" @@ fun () ->
    let checks =
      List.map
        (fun (fn : Page.full_name) ->
          (fn.Page.addr, Label.check_name fn.Page.abs.Page.fid ~page:fn.Page.abs.Page.page))
        names
    in
    let refused =
      if not t.label_checking then None
      else first_error (pass t { Drive.op_none with label = Some Drive.Check } checks)
    in
    (* The pass writes each page's label, so the map takes the pages and
       what their labels linked to — the check filled the links in — so
       a page still linking to a freed one is in the map too. *)
    announce t
      (List.concat_map
         (fun (addr, words) ->
           match Label.of_words words with
           | Ok l when t.label_checking -> [ addr; l.Label.next; l.Label.prev ]
           | Ok _ | Error _ -> [ addr ])
         checks);
    match refused with
    | Some e -> Error (Page_error (Page.Hint_failed e))
    | None -> (
        (* Writes only read their buffers, so the whole run shares one. *)
        let free_label = Label.free_words () in
        let written =
          pass t
            { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
            ~value:(Label.free_value ())
            (List.map (fun (fn : Page.full_name) -> (fn.Page.addr, free_label)) names)
        in
        List.iter2
          (fun (fn : Page.full_name) result ->
            if Result.is_ok result then begin
              mark_free t fn.Page.addr;
              Obs.incr m_frees
            end)
          names written;
        match first_error written with
        | Some e -> Error (Page_error (Page.Hint_failed e))
        | None -> Ok ())

let free_page t fn = free_pages t [ fn ]

(* {2 Descriptor encoding} *)

let map_word_count t = (sector_count t + 15) / 16
let descriptor_content_words t = content_words (sector_count t)
let descriptor_content_pages t = content_pages (sector_count t)
let descriptor_data_pages t = descriptor_content_pages t + record_pages

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
  words.(tail + 1) <- Word.of_int_exn t.patrol_cursor;
  words

let parse_descriptor t words =
  let ( let* ) = Result.bind in
  if Array.length words < map_offset then Error "descriptor too short"
  else if Word.to_int words.(0) <> desc_magic then Error "bad descriptor magic"
  else if not (List.mem (Word.to_int words.(1)) [ desc_version; legacy_version ]) then
    Error "unknown descriptor version"
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
        (* The patrol cursor. Packs written before it existed end at the
           bad table; the concatenated pages pad with zeros, which read
           back as the default: sweep from sector 0. *)
        let tail = map_offset + map_words + max_bad_sectors in
        t.patrol_cursor <-
          (if Array.length words > tail + 1 && Word.to_int words.(tail + 1) < sector_count t
           then Word.to_int words.(tail + 1)
           else 0);
        Ok (Word.to_int words.(1))
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
  let pages = descriptor_content_pages t in
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

let clear_map t =
  Array.fill t.intent.mapped 0 (Array.length t.intent.mapped) false;
  persist t.drive t.intent

let mark_clean t =
  (* A consistency point: everything acknowledged reaches the platter
     and the descriptor, then an empty map says no write since needs
     recovery. *)
  let flushed = flush t in
  if Result.is_ok flushed && dirty t then clear_map t;
  flushed

(* Lay down fresh labels and leader for the descriptor file at the
   standard addresses, a map record holding the map as it stands, and
   the content. The other record slot keeps whatever it held: an older
   record, or nothing that reads back. Used at format and by the
   scavenger's rebuild. *)
let place_descriptor_file t =
  let content = descriptor_content_pages t in
  let pages = content + record_pages in
  let words = descriptor_content_words t in
  let addr pn = Disk_address.of_index (1 + pn) in
  t.descriptor_pages <- Array.init content (fun i -> addr (i + 1));
  mark_busy t boot_address;
  for pn = 0 to pages do
    mark_busy t (addr pn)
  done;
  let label pn =
    let length =
      if pn = content then (2 * words) - (Sector.bytes_per_page * (content - 1))
      else Sector.bytes_per_page
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
  | Ok _ ->
      persist t.drive t.intent;
      flush t

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
      bad_table = [];
      spill = [];
      intent = intent_of drive;
      patrol_cursor = 0;
    }
  in
  (* A dirty track buffer is an acknowledged write the platter hasn't
     seen, and its flush sweep writes wherever the buffers say: both are
     announced to the map before they happen. *)
  Bio.set_on_write bio (announce t);
  t

let create_unmounted drive =
  let t = make_handle drive in
  Array.fill t.busy 0 (Array.length t.busy) true;
  t

let rebuild_descriptor t = place_descriptor_file t

let descriptor_page_count = descriptor_data_pages
(* Create the root directory: a leader page and one empty data page,
   written through the ordinary allocation path. *)
let create_root_directory t =
  let ( let* ) = Result.bind in
  let* leader_addr, page1_addr =
    match reserve_run t 2 with
    | Ok [ leader_addr; page1_addr ] -> Ok (leader_addr, page1_addr)
    | Ok _ -> Error Disk_full
    | Error e -> Error e
  in
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
  let write addr label value =
    match write_reserved t addr label value with
    | Ok () -> Ok ()
    | Error `Quarantined -> Error (Corrupt "fresh page refused first write")
  in
  let* () = write leader_addr leader_label (Leader.to_value leader) in
  let* () = write page1_addr page1_label (Array.make Sector.value_words Word.zero) in
  t.root <- Some (Page.full_name File_id.root_directory ~page:0 ~addr:leader_addr);
  Ok ()

let format drive =
  let t = make_handle drive in
  let i = t.intent in
  (* The platter's old records go with everything else. *)
  Array.fill i.mapped 0 (Array.length i.mapped) false;
  i.read_back <- true;
  i.known <- true;
  newest_of i [];
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
  (* Formatting's own allocations mapped a cylinder; a virgin pack is
     clean. *)
  clear_map t;
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
  let* (_ : Leader.t) = Leader.of_value leader_value in
  let pages = descriptor_content_pages t in
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
  let* version = parse_descriptor t words in
  t.descriptor_pages <- Array.of_list (List.map (fun (fn, _) -> fn.Page.addr) data);
  (* The map, as the platter holds it: a mount starts a new incarnation,
     so whatever a handle before it kept in core gives way. *)
  let i = t.intent in
  i.known <- true;
  (match if version = legacy_version then [] else read_records drive i with
  | (_, _, bits) :: _ as found ->
      Array.blit bits 0 i.mapped 0 (Array.length bits);
      i.read_back <- true;
      newest_of i found
  | [] ->
      (* No record read back, or a pack from before the map, which has
         none: nothing says where writes landed, so the whole pack is
         owed. *)
      Array.fill i.mapped 0 (Array.length i.mapped) true;
      i.read_back <- version = legacy_version;
      newest_of i []);
  t.next_serial <-
    (if dirty t then t.recorded_serial + serial_gap else t.recorded_serial);
  Ok t

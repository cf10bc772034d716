module Word = Alto_machine.Word
module Splitmix = Alto_machine.Splitmix
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

type allocation_policy = Near_previous | Scattered of Splitmix.t

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
   and extend the one map the platter's records hold. With it goes the
   newest record's content, which a map write carries forward: the fence
   has no handle to assemble one from. *)
type intent = {
  mapped : bool array;  (** Per cylinder, as the newest record holds it. *)
  per_cylinder : int;  (** Sectors per cylinder. *)
  mutable content : Word.t array;  (** The newest record's content. *)
  mutable seq : int;  (** Sequence number of the newest record. *)
  mutable newest : int;  (** The record slot (0 or 1) that holds it. *)
  mutable known : bool;  (** [seq] and [content] were learned from the platter. *)
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
  mutable placed : bool;
      (** The descriptor file stands: mounted, formatted or rebuilt. The
          scavenger's handle is unplaced until its rebuild. *)
  mutable bad : int list;
      (** Every quarantine verdict of this mount, oldest first. The
          first [bad_capacity] are the persistent bad-sector table,
          flushed with the descriptor; the rest hold for the mount. *)
  intent : intent;  (** The pack's write-ahead cylinder map. *)
  mutable patrol_cursor : int;
      (** Where the verify sweep will resume, persisted with the
          descriptor. *)
  cache : Label_cache.t;  (** Verified labels, shared by every layer above. *)
  bio : Bio.t;  (** The track buffer cache, shared by every layer above. *)
}

let boot_address = Disk_address.of_index 0
let descriptor_leader_address = Disk_address.of_index 1

(* Descriptor content layout (word offsets):
     0      magic            10      (end of shape)
     1      format version   11-13   root directory file id
     2-10   disk shape       14     root directory leader address
     15-16  next serial (hi/lo)
     17     allocation-map word count W
     18     bad-sector table entry count B
     19..   allocation map, 16 sectors per word, MSB first
     19+W   reserved, written zero
     20+W   patrol cursor: the sector index where the verify sweep
            resumes
     21+W.. bad-sector table: B quarantined disk addresses, in every
            word the record's pages leave beside the rest
   The content travels in every descriptor record, followed by the
   write-ahead map (see below). *)
let desc_magic = 0xA170
let desc_version = 4
let map_offset = 19

(* A record is sized to hold this many table entries beside the rest of
   its words; the table then takes every word its pages leave. *)
let min_bad_sectors = 64

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

let set_policy t p = t.policy <- p
let set_label_checking t flag = t.label_checking <- flag
let next_serial t = t.next_serial
let set_next_serial t n = t.next_serial <- n

let sector_count t = Array.length t.busy

let free_count t =
  Array.fold_left (fun n busy -> if busy then n else n + 1) 0 t.busy

let is_free_in_map t addr = not t.busy.(Disk_address.to_index addr)
let mark_busy t addr = t.busy.(Disk_address.to_index addr) <- true

let quarantined t addr = List.mem (Disk_address.to_index addr) t.bad

let mark_free t addr =
  (* A quarantined sector never rejoins the free pool, whether or not
     its verdict fits the descriptor's table. *)
  let i = Disk_address.to_index addr in
  if not (List.mem i t.bad) then t.busy.(i) <- false

(* Bitmaps (the allocation map, the cylinder map) pack 16 bits a word,
   MSB first. *)
let bitmap_words bits = (bits + 15) / 16

let bit i = 1 lsl (15 - (i mod 16))

let pack_bits bits =
  let words = Array.make ((Array.length bits + 15) / 16) 0 in
  Array.iteri (fun i set -> if set then words.(i / 16) <- words.(i / 16) lor bit i) bits;
  Array.map Word.of_int words

let unpack_bit words ~at i = Word.to_int words.(at + (i / 16)) land bit i <> 0

(* {2 The descriptor records}

   The descriptor file's data pages are two record slots, written
   alternately under a sequence number. Every descriptor write is one
   whole record into the slot that does not hold the newest. Each page
   of a record starts with its sequence number (hi/lo); the rest of the
   slot's pages carry, in order:

     the content, laid out above
     cylinder count C
     C bits, 16 cylinders per word, MSB first: the write-ahead map

   A map bit is set, and its record written, before any write reaches
   that cylinder; only a consistency point clears the map. A torn record
   write leaves the other slot whole, and by the write-ahead rule its
   map already covers every write that reached the platter. *)

let page_payload = Sector.value_words - 2

(* The content's words ahead of the bad-sector table. *)
let head_words drive = map_offset + bitmap_words (Drive.sector_count drive) + 2

(* The write-ahead map's words: the cylinder count, then its bits. *)
let intent_words drive = 1 + bitmap_words (Drive.geometry drive).Geometry.cylinders

let record_pages drive =
  (head_words drive + min_bad_sectors + intent_words drive + page_payload - 1)
  / page_payload

(* The table takes every word the record's pages leave. *)
let bad_capacity drive =
  (record_pages drive * page_payload) - head_words drive - intent_words drive

let content_words drive = head_words drive + bad_capacity drive

let descriptor_pages drive = 2 * record_pages drive

(* One label-checked transfer of a record page's value: the check keeps
   a record write off any sector that is not that page of the file. *)
let record_op drive slot k action value =
  let pn = 1 + (slot * record_pages drive) + k in
  Reliable.run drive
    (Disk_address.of_index (1 + pn))
    { Drive.op_none with label = Some Drive.Check; value = Some action }
    ~label:(Label.check_name File_id.descriptor ~page:pn)
    ~value ()

(* A slot's sequence number and payload, if every page reads back under
   one sequence number. *)
let read_record drive slot =
  let page k =
    let v = Array.make Sector.value_words Word.zero in
    match record_op drive slot k Drive.Read v with
    | Error _ -> None
    | Ok () ->
        Some ((Word.to_int v.(0) lsl 16) lor Word.to_int v.(1), Array.sub v 2 page_payload)
  in
  match List.init (record_pages drive) page with
  | Some (seq, _) :: _ as pages
    when List.for_all (function Some (s, _) -> s = seq | None -> false) pages ->
      Some (seq, Array.concat (List.filter_map (Option.map snd) pages))
  | _ -> None

(* Take the platter's newest whole record as the pack's: its sequence
   number, its slot and its content. The payload, if one read back. *)
let learn drive i =
  let found =
    List.filter_map
      (fun slot -> Option.map (fun (seq, words) -> (slot, seq, words)) (read_record drive slot))
      [ 0; 1 ]
  in
  i.known <- true;
  match List.sort (fun (_, a, _) (_, b, _) -> compare b a) found with
  | (slot, seq, payload) :: _ ->
      i.seq <- seq;
      i.newest <- slot;
      i.content <- Array.sub payload 0 (Array.length i.content);
      Some payload
  | [] ->
      i.seq <- 0;
      i.newest <- 1;
      None

(* Write [content] and [mapped] as the next record: into the slot not
   holding the newest, or into that one if the write fails. *)
let write_record drive i content mapped =
  if not i.known then
    (* An unplaced handle's first write: learn what the platter holds,
       so the new record outranks it and carries its content. *)
    ignore (learn drive i : Word.t array option);
  let seq = i.seq + 1 in
  let payload =
    Array.concat
      [
        Option.value content ~default:i.content;
        [| Word.of_int_exn (Array.length mapped) |];
        pack_bits mapped;
      ]
  in
  let rec write slot k =
    if k * page_payload >= Array.length payload then Ok ()
    else
      let v = Array.make Sector.value_words Word.zero in
      v.(0) <- Word.of_int (seq lsr 16);
      v.(1) <- Word.of_int seq;
      Array.blit payload (k * page_payload) v 2
        (min page_payload (Array.length payload - (k * page_payload)));
      Result.bind (record_op drive slot k Drive.Write v) (fun () -> write slot (k + 1))
  in
  let landed slot =
    i.seq <- seq;
    i.newest <- slot;
    Option.iter (fun c -> i.content <- c) content
  in
  let target = 1 - i.newest in
  match write target 0 with
  | Ok () -> Ok (landed target)
  | Error _ -> Result.map (fun () -> landed i.newest) (write i.newest 0)

let announce_cylinders drive i cylinders =
  if List.exists (fun c -> not i.mapped.(c)) cylinders then
    Prof.span (Drive.clock drive) "fs.map_write" (fun () ->
        List.iter (fun c -> i.mapped.(c) <- true) cylinders;
        (* Best effort: with neither slot written, the bits stay set in
           core and the next write tries again. *)
        if Result.is_ok (write_record drive i None i.mapped) then Obs.incr m_map_writes)

(* The drive's write fence: every write's cylinder, and for a label
   write the cylinders its links name, is mapped before the write
   begins. The descriptor file's own pages pass: they are the records. *)
let fence drive i =
  let n = Drive.sector_count drive in
  let top = 1 + descriptor_pages drive in
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
          content = Array.make (content_words drive) Word.zero;
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

let dirty t = Array.exists Fun.id t.intent.mapped

let mapped_cylinders t =
  List.filter (fun c -> t.intent.mapped.(c)) (List.init (Array.length t.intent.mapped) Fun.id)

(* The descriptor is written (best effort) before a serial runs too far
   ahead of its record; that write needs [flush], defined below. *)
let flush_ref : (t -> (unit, error) result) ref = ref (fun _ -> Ok ())

(* Write the descriptor (best effort, once one exists) before handing
   out a serial [serial_gap] or more past the recorded counter, so every
   serial in use stays below where a dirty mount resumes. *)
let fresh_fid ?directory t =
  let serial = t.next_serial in
  if serial >= t.recorded_serial + serial_gap && t.placed then
    (match !flush_ref t with Ok () | Error _ -> ());
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
  if not (List.mem i t.bad) then begin
    (* Past the table's capacity the verdict holds for this mount alone;
       the sector's bad marker convicts it again after a remount. *)
    if List.length t.bad >= bad_capacity t.drive then Obs.incr m_quarantine_overflow
    else begin
      Obs.incr m_quarantined;
      Obs.event ~clock:(Drive.clock t.drive)
        ~fields:[ ("addr", Obs.I i) ]
        "fs.sector_quarantined"
    end;
    t.bad <- t.bad @ [ i ]
  end

let bad_sector_capacity t = bad_capacity t.drive

let bad_sector_table t =
  let capacity = bad_capacity t.drive in
  List.filteri (fun k _ -> k < capacity) (List.map Disk_address.of_index t.bad)

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
  | Scattered rng ->
      let rec probe k =
        if k = 0 then linear_from (Splitmix.int rng n)
        else
          let i = Splitmix.int rng n in
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

(* One pass of [op] over an array of (address, label buffer) requests,
   results in the caller's order. A run goes to the elevator; a single
   page is one operation with nothing to order, so it goes straight to
   the drive. *)
let pass t op ?value requests =
  match requests with
  | [||] -> [||]
  | [| (addr, label) |] -> [| Reliable.run t.drive addr op ~label ?value () |]
  | _ ->
      let batch =
        Array.map (fun (addr, label) -> Sched.request ~label ?value addr op) requests
      in
      Array.map (fun o -> o.Sched.result) (Sched.run_batch t.drive batch)

(* Label checks of (address, pattern) requests, verdicts in the caller's
   order: the table answers every sector whose entry is live, and the
   rest go to the platter in one pass. *)
let check_labels t requests =
  let verdicts =
    Array.map (fun (addr, pattern) -> Label_cache.check t.cache addr pattern) requests
  in
  let misses =
    Array.of_list
      (List.filter
         (fun j -> Option.is_none verdicts.(j))
         (List.init (Array.length requests) Fun.id))
  in
  let read =
    pass t
      { Drive.op_none with label = Some Drive.Check }
      (Array.map (Array.get requests) misses)
  in
  Array.iteri (fun k j -> verdicts.(j) <- Some read.(k)) misses;
  Array.map Option.get verdicts

let first_error results =
  Array.find_map (function Error e -> Some e | Ok () -> None) results

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
          check_labels t
            (Array.of_list (List.map (fun addr -> (addr, Label.check_free ())) picked))
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
            (acc, 0) picked (Array.to_list checked)
        in
        if refused = 0 then Ok (List.rev acc) else round acc refused
  in
  round [] n

let reserve_pages t n =
  if n < 1 then invalid_arg "Fs.reserve_pages: a run needs at least one page";
  Prof.span (Drive.clock t.drive) "fs.allocate_page" @@ fun () -> reserve_run t n

let write_reserved t addr label value =
  Prof.span (Drive.clock t.drive) "fs.write_reserved" @@ fun () ->
  let words = Label.to_words label in
  match
    Reliable.run t.drive addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label:words ~value ()
  with
  | Ok () ->
      (* A completed label write is its own verification: a relink of
         this page checks the label in core, not on the platter. *)
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

let free_pages t names =
  if names = [] then Ok ()
  else
    Prof.span (Drive.clock t.drive) "fs.free_page" @@ fun () ->
    let names = Array.of_list names in
    let checks =
      Array.map
        (fun (fn : Page.full_name) ->
          (fn.Page.addr, Label.check_name fn.Page.abs.Page.fid ~page:fn.Page.abs.Page.page))
        names
    in
    let refused =
      if not t.label_checking then None else first_error (check_labels t checks)
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
         (Array.to_list checks));
    match refused with
    | Some e -> Error (Page_error (Page.Hint_failed e))
    | None -> (
        (* Writes only read their buffers, so the whole run shares one. *)
        let free_label = Label.free_words () in
        let written =
          pass t
            { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
            ~value:(Label.free_value ())
            (Array.map (fun (fn : Page.full_name) -> (fn.Page.addr, free_label)) names)
        in
        Array.iteri
          (fun j result ->
            if Result.is_ok result then begin
              let addr = names.(j).Page.addr in
              mark_free t addr;
              (* The written label is verified: allocating the page
                 takes its check from the table. *)
              Label_cache.note_verified t.cache addr free_label;
              Obs.incr m_frees
            end)
          written;
        match first_error written with
        | Some e -> Error (Page_error (Page.Hint_failed e))
        | None -> Ok ())

let free_page t fn = free_pages t [ fn ]

(* {2 Descriptor encoding} *)

let map_word_count t = bitmap_words (sector_count t)
let descriptor_page_count t = descriptor_pages t.drive

let assemble_descriptor t =
  let words = Array.make (content_words t.drive) Word.zero in
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
  let table = bad_sector_table t in
  words.(18) <- Word.of_int_exn (List.length table);
  Array.blit (pack_bits t.busy) 0 words map_offset map_words;
  words.(map_offset + map_words + 1) <- Word.of_int_exn t.patrol_cursor;
  let at = head_words t.drive in
  List.iteri (fun j addr -> words.(at + j) <- Disk_address.to_word addr) table;
  words

(* Read a record's payload into the handle, and return its map. *)
let parse_descriptor t payload =
  let ( let* ) = Result.bind in
  let map_words = map_word_count t in
  let cylinders = Array.length t.intent.mapped in
  let at_map = content_words t.drive in
  if Word.to_int payload.(0) <> desc_magic then Error "bad descriptor magic"
  else if Word.to_int payload.(1) <> desc_version then Error "unknown descriptor version"
  else
    let* shape = Geometry.of_words (Array.sub payload 2 Geometry.encoded_words) in
    if not (Geometry.equal shape (Drive.geometry t.drive)) then
      Error "descriptor shape contradicts the drive"
    else if
      Word.to_int payload.(17) <> map_words || Word.to_int payload.(at_map) <> cylinders
    then Error "descriptor maps contradict the drive"
    else begin
      (match File_id.of_words payload.(11) payload.(12) payload.(13) with
      | Ok fid ->
          t.root <-
            Some (Page.full_name fid ~page:0 ~addr:(Disk_address.of_word payload.(14)))
      | Error _ -> t.root <- None);
      t.recorded_serial <- (Word.to_int payload.(15) lsl 16) lor Word.to_int payload.(16);
      Array.iteri (fun i _ -> t.busy.(i) <- unpack_bit payload ~at:map_offset i) t.busy;
      let cursor = Word.to_int payload.(map_offset + map_words + 1) in
      t.patrol_cursor <- (if cursor < sector_count t then cursor else 0);
      t.bad <- [];
      for j = min (Word.to_int payload.(18)) (bad_capacity t.drive) - 1 downto 0 do
        let addr = Disk_address.of_word payload.(head_words t.drive + j) in
        let i = Disk_address.to_index addr in
        if i < sector_count t then begin
          t.busy.(i) <- true;
          t.bad <- i :: t.bad
        end
      done;
      Ok (Array.init cylinders (unpack_bit payload ~at:(at_map + 1)))
    end

(* {2 Writing the descriptor} *)

let leader_name =
  Page.full_name File_id.descriptor ~page:0 ~addr:descriptor_leader_address

(* One record holding the content as it stands and [mapped]. Delayed page
   writes go first: a descriptor write is the volume saying "the platter
   now agrees with everything acknowledged", and that claim must cover the
   buffer cache before the descriptor asserts it. *)
let write_descriptor t mapped =
  Prof.span (Drive.clock t.drive) "fs.flush" @@ fun () ->
  ignore (Bio.flush t.bio);
  Obs.incr m_descriptor_flushes;
  let serial = t.next_serial in
  match write_record t.drive t.intent (Some (assemble_descriptor t)) (mapped ()) with
  | Ok () ->
      t.recorded_serial <- serial;
      Ok ()
  | Error e -> Error (Page_error (Page.Hint_failed e))

let flush t = write_descriptor t (fun () -> t.intent.mapped)

let () = flush_ref := flush

let mark_clean t =
  (* A consistency point: everything acknowledged reaches the platter,
     then one record whose empty map says no write since needs recovery.
     The map in core empties only once that record is down. *)
  let cylinders = Array.length t.intent.mapped in
  let cleared = write_descriptor t (fun () -> Array.make cylinders false) in
  if Result.is_ok cleared then Array.fill t.intent.mapped 0 cylinders false;
  cleared

(* Lay down fresh labels and a leader for the descriptor file at the
   standard addresses, then write a record. A record page keeps its
   record, so a crash before the new one lands leaves the older. Any
   other sector starts empty, at sequence number 0: under the fresh
   label, what it held (a freed page's ones) could read back as the
   newest record. Used at format and by the scavenger's rebuild. *)
let place_descriptor_file t =
  let pages = descriptor_page_count t in
  let addr pn = Disk_address.of_index (1 + pn) in
  mark_busy t boot_address;
  for pn = 0 to pages do
    mark_busy t (addr pn);
    let next = if pn = pages then Disk_address.nil else addr (pn + 1) in
    let prev = if pn = 0 then Disk_address.nil else addr (pn - 1) in
    let label =
      Label.make ~fid:File_id.descriptor ~page:pn ~length:Sector.bytes_per_page ~next ~prev
    in
    let words = Label.to_words label in
    if pn > 0 && (Drive.peek t.drive (addr pn)).Sector.label <> words then
      Drive.poke t.drive (addr pn) Sector.Value (Array.make Sector.value_words Word.zero);
    Drive.poke t.drive (addr pn) Sector.Label words
  done;
  let leader =
    Leader.make ~created_s:(now_seconds t) ~name:"DiskDescriptor."
      ~last_page:pages ~last_addr:(addr pages) ~maybe_consecutive:true ()
  in
  match Page.write ~cache:t.cache t.drive leader_name (Leader.to_value leader) with
  | Error e -> Error (Page_error e)
  | Ok _ ->
      t.placed <- true;
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
      placed = false;
      bad = [];
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
  i.known <- true;
  i.seq <- 0;
  i.newest <- 1;
  (* Factory formatting: free every sector out-of-band. *)
  let free_label = Label.free_words () and free_value = Label.free_value () in
  for i = 0 to Drive.sector_count drive - 1 do
    let addr = Disk_address.of_index i in
    Drive.poke drive addr Sector.Label free_label;
    Drive.poke drive addr Sector.Value free_value
  done;
  let ( let* ) = Result.bind in
  (* Formatting's own allocations map a cylinder; a virgin pack is
     clean. *)
  match
    let* () = place_descriptor_file t in
    let* () = create_root_directory t in
    mark_clean t
  with
  | Ok () -> t
  | Error e -> invalid_arg (Format.asprintf "Fs.format: %a" pp_error e)

let mount drive =
  Prof.span (Drive.clock drive) "fs.mount" @@ fun () ->
  let ( let* ) = Result.bind in
  let t = make_handle drive in
  (* The newest record that reads back whole, as the platter holds it: a
     mount starts a new incarnation, so whatever a handle before it kept
     in core gives way. Never an older record in place of a newest whose
     content does not parse: only the newest map is sure to cover every
     write. *)
  let i = t.intent in
  let* payload =
    Option.to_result ~none:"neither descriptor record reads back" (learn drive i)
  in
  let* mapped = parse_descriptor t payload in
  Array.blit mapped 0 i.mapped 0 (Array.length mapped);
  t.placed <- true;
  t.next_serial <-
    (if dirty t then t.recorded_serial + serial_gap else t.recorded_serial);
  Ok t

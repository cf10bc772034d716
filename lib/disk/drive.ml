module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Splitmix = Alto_machine.Splitmix
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Trace = Alto_obs.Trace

(* The drive's books: process-wide metrics, aggregated across every
   drive. *)
let m_operations = Obs.counter "disk.operations"
let m_seeks = Obs.counter "disk.seeks"
let m_seek_us = Obs.counter "disk.seek_us"
let m_rotational_wait_us = Obs.counter "disk.rotational_wait_us"
let m_transfer_us = Obs.counter "disk.transfer_us"
let m_words_read = Obs.counter "disk.words_read"
let m_words_written = Obs.counter "disk.words_written"
let m_check_failures = Obs.counter "disk.check_failures"
let m_bad_sector_errors = Obs.counter "disk.bad_sector_errors"
let m_soft_errors = Obs.counter "disk.soft_errors"
let m_degraded_sectors = Obs.counter "disk.degraded_sectors"
let m_restores = Obs.counter "disk.restores"
let m_seek_distance = Obs.histogram "disk.seek_distance_cylinders"

(* Per-operation motion latency (seek + rotational wait + transfer), the
   distribution behind the disk.op.p99 regression gate. *)
let m_op_us = Obs.histogram "disk.op_us"

type action = Read | Check | Write

type op = {
  header : action option;
  label : action option;
  value : action option;
}

let op_none = { header = None; label = None; value = None }

type error =
  | Bad_sector
  | Check_mismatch of {
      part : Sector.part;
      offset : int;
      memory : Word.t;
      disk : Word.t;
    }
  | Transient of Sector.part

let pp_error fmt = function
  | Bad_sector -> Format.pp_print_string fmt "bad sector"
  | Check_mismatch { part; offset; memory; disk } ->
      Format.fprintf fmt "check mismatch in %a word %d: memory %a, disk %a"
        Sector.pp_part part offset Word.pp memory Word.pp disk
  | Transient part ->
      Format.fprintf fmt "transient error reading %a (retry may succeed)"
        Sector.pp_part part

exception Power_failure

type tear = Torn_label | Torn_value

(* The crash-point countdown: [cp_left] more operations that write are
   allowed to complete; the next one kills the machine. Without a tear
   the fatal operation never starts (the power died between sectors);
   with one it stops partway through a part's transfer. *)
type crash_point = { mutable cp_left : int; cp_tear : tear option }

(* A sector whose surface is going: its own soft-error rate climbs with
   every failure until, after [m_degrade_after] of them, the sector
   degrades into a permanent {!Bad_sector}. *)
type marginal = {
  mutable m_rate : float;
  m_growth : float;
  m_degrade_after : int;
  mutable m_failures : int;
}

type t = {
  geometry : Geometry.t;
  pack_id : int;
  clock : Sim_clock.t;
  sectors : Sector.t array;
  bad : bool array;
  mutable current_cylinder : int;
  mutable crash_point : crash_point option;
  mutable write_ops : int;
  (* Torn parts: a crash stopped a write partway through this part, so
     the controller's checksum no longer covers it — reads and checks
     fail hard until a full rewrite of the part restores it. One bit
     per part, indexed by sector. *)
  torn : int array;
  value_unreadable : bool array;
  mutable soft_rng : Splitmix.t;
  mutable soft_rate : float;
  marginals : (int, marginal) Hashtbl.t;
  (* Per-sector label generation: bumped by anything that could make a
     previously verified copy of the label stale — a label write (in-band
     or poke), the sector turning bad, or any soft-error trip (retry
     evidence: the surface is suspect, cached knowledge about it is
     not). The label cache upstairs validates its entries against this
     counter, so invalidation needs no callback plumbing. *)
  label_gen : int array;
  (* Called before every operation that writes, with the sector and the
     label being written (if any): the mounted volume's write-ahead
     point, installed with its state by {!attach}. *)
  mutable fence : Disk_address.t -> Word.t array option -> unit;
  mutable attachment : attachment option;
}

and attachment = ..

let format_header t index =
  let s = t.sectors.(index) in
  s.Sector.header.(0) <- Word.of_int t.pack_id;
  s.Sector.header.(1) <- Disk_address.to_word (Disk_address.of_index index)

let create ?clock ~pack_id geometry =
  (match Geometry.validate geometry with
  | Ok () -> ()
  | Error e -> invalid_arg ("Drive.create: " ^ e));
  let n = Geometry.sector_count geometry in
  let clock = match clock with Some c -> c | None -> Sim_clock.create () in
  let t =
    {
      geometry;
      pack_id;
      clock;
      sectors = Array.init n (fun _ -> Sector.create ());
      bad = Array.make n false;
      current_cylinder = 0;
      crash_point = None;
      write_ops = 0;
      torn = Array.make n 0;
      value_unreadable = Array.make n false;
      soft_rng = Splitmix.of_seed pack_id;
      soft_rate = 0.;
      marginals = Hashtbl.create 8;
      label_gen = Array.make n 0;
      fence = (fun _ _ -> ());
      attachment = None;
    }
  in
  for i = 0 to n - 1 do
    format_header t i
  done;
  t

let geometry t = t.geometry
let clock t = t.clock
let sector_count t = Array.length t.sectors

let has_sector t addr =
  (not (Disk_address.is_nil addr)) && Disk_address.to_index addr < sector_count t

let check_address t addr =
  let i = Disk_address.to_index addr in
  if i >= sector_count t then
    invalid_arg (Printf.sprintf "Drive: address %d beyond disk (%d sectors)" i (sector_count t))
  else i

(* Write-continuation rule: a write on a part forces writes on every
   later part of the sector. *)
let validate_continuation op =
  let is_write = function Some Write -> true | Some Read | Some Check | None -> false in
  let violation =
    (is_write op.header && not (is_write op.label && is_write op.value))
    || (is_write op.label && not (is_write op.value))
  in
  if violation then
    invalid_arg "Drive.run: once a write is begun it must continue through the rest of the sector"

let validate_buffer part action buf =
  match (action, buf) with
  | None, _ -> ()
  | Some _, None ->
      invalid_arg
        (Format.asprintf "Drive.run: %a action requires a buffer" Sector.pp_part part)
  | Some _, Some b ->
      if Array.length b <> Sector.part_size part then
        invalid_arg
          (Format.asprintf "Drive.run: %a buffer must have %d words" Sector.pp_part
             part (Sector.part_size part))

(* One motion component, booked once: the clock advances and the
   [disk.*] counter, the span profiler and the request tracer are charged
   the same amount at the same site, so the three books balance. *)
let book t counter prof trace us =
  Sim_clock.advance_us t.clock us;
  Obs.add counter us;
  prof us;
  trace us

(* Move the heads to [cylinder]; returns the seek time. *)
let seek t cylinder =
  let us =
    Geometry.seek_time_us t.geometry ~from_cylinder:t.current_cylinder
      ~to_cylinder:cylinder
  in
  book t m_seek_us Prof.charge_seek Trace.charge_seek us;
  if us > 0 then begin
    Obs.incr m_seeks;
    Obs.observe m_seek_distance (abs (cylinder - t.current_cylinder))
  end;
  t.current_cylinder <- cylinder;
  us

let charge_motion t index =
  let g = t.geometry in
  let cylinder = index / (g.Geometry.heads * g.Geometry.sectors_per_track) in
  let sector = index mod g.Geometry.sectors_per_track in
  let from = t.current_cylinder in
  let seek_us = seek t cylinder in
  if seek_us > 0 then
    Obs.event ~clock:t.clock
      ~fields:
        [
          ("pack", Obs.I t.pack_id);
          ("from", Obs.I from);
          ("to", Obs.I cylinder);
          ("us", Obs.I seek_us);
        ]
      "disk.seek";
  let rotation = t.geometry.Geometry.rotation_us in
  let sector_time = Geometry.sector_time_us t.geometry in
  let angle = Sim_clock.now_us t.clock mod rotation in
  let slot_start = sector * sector_time in
  let wait = (slot_start - angle + rotation) mod rotation in
  book t m_rotational_wait_us Prof.charge_rotation Trace.charge_rotation wait;
  book t m_transfer_us Prof.charge_transfer Trace.charge_transfer sector_time;
  Obs.observe m_op_us (seek_us + wait + sector_time)

(* Perform one part's action; [Error _] aborts the rest of the sector.
   Reads and writes copy a word at a time: [Array.blit] runs the write
   barrier on every element of a buffer in the major heap, where a store
   typed at [Word.t], an immediate, needs none. [validate_buffer] has
   checked that [buf] is as long as the part. *)
let perform t part action (disk_words : Word.t array) (buf : Word.t array) =
  let n = Array.length disk_words in
  match action with
  | Read ->
      for i = 0 to n - 1 do
        Array.unsafe_set buf i (Array.unsafe_get disk_words i)
      done;
      Obs.add m_words_read n;
      Ok ()
  | Write ->
      for i = 0 to n - 1 do
        Array.unsafe_set disk_words i (Array.unsafe_get buf i)
      done;
      Obs.add m_words_written n;
      Ok ()
  | Check ->
      let rec scan i =
        if i >= n then Ok ()
        else if Word.equal buf.(i) Word.zero then begin
          buf.(i) <- disk_words.(i);
          scan (i + 1)
        end
        else if Word.equal buf.(i) disk_words.(i) then scan (i + 1)
        else begin
          Obs.incr m_check_failures;
          Obs.event ~clock:t.clock
            ~fields:
              [
                ("pack", Obs.I t.pack_id);
                ("part", Obs.S (Format.asprintf "%a" Sector.pp_part part));
                ("offset", Obs.I i);
              ]
            "disk.check_failure";
          Error (Check_mismatch { part; offset = i; memory = buf.(i); disk = disk_words.(i) })
        end
      in
      scan 0

(* {2 The crash-point model} *)

let part_bit = function Sector.Header -> 1 | Sector.Label -> 2 | Sector.Value -> 4

let set_crash_point t ?tear ~after_writes () =
  if after_writes < 0 then invalid_arg "Drive.set_crash_point: negative countdown"
  else t.crash_point <- Some { cp_left = after_writes; cp_tear = tear }

let clear_crash_point t = t.crash_point <- None
let crash_pending t = t.crash_point <> None
let write_ops t = t.write_ops

let is_torn t addr = t.torn.(check_address t addr) <> 0

(* The fatal operation of a torn crash: power dies while the heads are
   writing. Actions before the first write (the label check guarding a
   data write) still ran — an aborted check means nothing was written —
   then each written part is transferred in order until the torn one,
   which stops partway through: a prefix of the caller's words reaches
   the platter and the part's checksum is left invalid, so every later
   read of it fails hard until a full rewrite. Either way the machine
   is dead when this returns, so it never returns: {!Power_failure}. *)
let crash_torn t index op ?header ?label ?value tear =
  charge_motion t index;
  Obs.incr m_operations;
  if not t.bad.(index) then begin
    let sector = t.sectors.(index) in
    let parts =
      [
        (Sector.Header, op.header, header);
        (Sector.Label, op.label, label);
        (Sector.Value, op.value, value);
      ]
    in
    let written =
      List.filter_map
        (fun (part, action, buf) ->
          match action with Some Write -> Some (part, Option.get buf) | _ -> None)
        parts
    in
    (* Which written part stops halfway: the first for [Torn_label], the
       last for [Torn_value] — for a label+value write these are exactly
       the two sub-sector failure modes §3.3's atomicity assumption
       hides: label torn with the value untouched, or label committed
       with the value half-transferred. *)
    let target =
      match (tear, written) with
      | _, [] -> None
      | Torn_label, (part, _) :: _ -> Some part
      | Torn_value, ws -> Some (fst (List.nth ws (List.length ws - 1)))
    in
    let pre_writes_ok =
      List.for_all
        (fun (part, action, buf) ->
          match action with
          | Some ((Read | Check) as a) ->
              perform t part a (Sector.part_of sector part) (Option.get buf) = Ok ()
          | Some Write | None -> true)
        parts
    in
    if pre_writes_ok then
      List.iter
        (fun (part, buf) ->
          let disk_words = Sector.part_of sector part in
          if part = Sector.Label then t.label_gen.(index) <- t.label_gen.(index) + 1;
          if target = Some part then begin
            let n = Array.length disk_words in
            let cut =
              1
              + Int64.to_int
                  (Int64.rem
                     (Int64.shift_right_logical (Splitmix.next t.soft_rng) 1)
                     (Int64.of_int (max 1 (n - 1))))
            in
            Array.blit buf 0 disk_words 0 cut;
            t.torn.(index) <- t.torn.(index) lor part_bit part;
            t.label_gen.(index) <- t.label_gen.(index) + 1;
            Obs.event ~clock:t.clock
              ~fields:
                [
                  ("pack", Obs.I t.pack_id);
                  ("addr", Obs.I index);
                  ("part", Obs.S (Format.asprintf "%a" Sector.pp_part part));
                  ("words", Obs.I cut);
                ]
              "disk.torn_write";
            raise Power_failure
          end
          else Array.blit buf 0 disk_words 0 (Array.length disk_words))
        written
  end;
  raise Power_failure

let has_write_action op =
  let w = function Some Write -> true | Some Read | Some Check | None -> false in
  w op.header || w op.label || w op.value

(* One soft-error draw per part access that reads the surface. Returns
   true when this access fails transiently; a marginal sector's failure
   also feeds its degradation. *)
let soft_error_trips t index part =
  (* Marginal decay is a data-surface disease (like value_unreadable):
     it afflicts only the Value part, so the sector's label stays
     sweepable while its data grows ever harder to read. The base rate
     models electrical noise and hits every part. *)
  let marginal =
    if part = Sector.Value then Hashtbl.find_opt t.marginals index else None
  in
  let rate =
    t.soft_rate +. (match marginal with Some m -> m.m_rate | None -> 0.)
  in
  rate > 0.
  && Splitmix.float t.soft_rng < rate
  && begin
       t.label_gen.(index) <- t.label_gen.(index) + 1;
       Obs.incr m_soft_errors;
       Obs.event ~clock:t.clock
         ~fields:
           [
             ("pack", Obs.I t.pack_id);
             ("addr", Obs.I index);
             ("part", Obs.S (Format.asprintf "%a" Sector.pp_part part));
           ]
         "disk.soft_error";
       (match marginal with
       | None -> ()
       | Some m ->
           m.m_failures <- m.m_failures + 1;
           m.m_rate <- Float.min 1.0 (m.m_rate *. m.m_growth);
           if m.m_failures >= m.m_degrade_after && not t.bad.(index) then begin
             t.bad.(index) <- true;
             Obs.incr m_degraded_sectors;
             Obs.event ~clock:t.clock
               ~fields:[ ("pack", Obs.I t.pack_id); ("addr", Obs.I index) ]
               "disk.sector_degraded"
           end);
       true
     end

let attach t a ~fence =
  t.attachment <- Some a;
  t.fence <- fence

let attachment t = t.attachment

(* One part of an operation on a sector that is not bad; [Error _]
   aborts the rest of the sector. *)
let transfer t index sector part action buf =
  match action with
  | None -> Ok ()
  | Some action ->
      let reads = action = Read || action = Check in
      if reads && t.torn.(index) land part_bit part <> 0 then begin
        (* A torn part: the crash left its checksum invalid, so the
           controller rejects the transfer without moving data. A full
           rewrite of the part (below) heals it. *)
        Obs.incr m_bad_sector_errors;
        Error Bad_sector
      end
      else if reads && part = Sector.Value && t.value_unreadable.(index) then begin
        Obs.incr m_bad_sector_errors;
        Error Bad_sector
      end
      else if reads && soft_error_trips t index part then
        (* The controller's checksum caught a misread before any data
           moved: the buffers are untouched and a retry may well succeed.
           Degradation may just have made the sector permanently bad, in
           which case the retry reports that. *)
        Error (Transient part)
      else begin
        let buf = Option.get buf in
        if action = Write && t.torn.(index) land part_bit part <> 0 then
          t.torn.(index) <- t.torn.(index) land lnot (part_bit part);
        if part = Sector.Label && action = Write then
          t.label_gen.(index) <- t.label_gen.(index) + 1;
        perform t part action (Sector.part_of sector part) buf
      end

let run t addr op ?header ?label ?value () =
  (* The fence runs first, as an operation of its own would: whatever it
     writes reaches the platter before this operation begins. *)
  if has_write_action op then
    t.fence addr (match op.label with Some Write -> label | Some (Read | Check) | None -> None);
  let index = check_address t addr in
  validate_continuation op;
  validate_buffer Sector.Header op.header header;
  validate_buffer Sector.Label op.label label;
  validate_buffer Sector.Value op.value value;
  if has_write_action op then begin
    t.write_ops <- t.write_ops + 1;
    match t.crash_point with
    | Some cp when cp.cp_left = 0 -> (
        t.crash_point <- None;
        match cp.cp_tear with
        | None -> raise Power_failure
        | Some tear -> crash_torn t index op ?header ?label ?value tear)
    | Some cp -> cp.cp_left <- cp.cp_left - 1
    | None -> ()
  end;
  charge_motion t index;
  Obs.incr m_operations;
  if t.bad.(index) then begin
    Obs.incr m_bad_sector_errors;
    Error Bad_sector
  end
  else
    let sector = t.sectors.(index) in
    match transfer t index sector Sector.Header op.header header with
    | Error _ as e -> e
    | Ok () -> (
        match transfer t index sector Sector.Label op.label label with
        | Error _ as e -> e
        | Ok () -> transfer t index sector Sector.Value op.value value)

let current_cylinder t = t.current_cylinder

(* Rotational position sensing: the controller watches the sector marks
   pass under the heads, so a scheduler can know — before committing to
   a seek — which sector slot will be the first one catchable once the
   heads settle on [cylinder]. Mirrors [charge_motion]'s arithmetic
   exactly: a sector is catchable iff its slot boundary is at or after
   the arrival angle. *)
let catch_slot t ~cylinder =
  let seek_us =
    Geometry.seek_time_us t.geometry ~from_cylinder:t.current_cylinder
      ~to_cylinder:cylinder
  in
  let rotation = t.geometry.Geometry.rotation_us in
  let sector_time = Geometry.sector_time_us t.geometry in
  let arrival = (Sim_clock.now_us t.clock + seek_us) mod rotation in
  (arrival + sector_time - 1) / sector_time mod t.geometry.Geometry.sectors_per_track

let label_generation t addr = t.label_gen.(check_address t addr)

let bump_label_generation t addr =
  let index = check_address t addr in
  t.label_gen.(index) <- t.label_gen.(index) + 1

let peek t addr =
  let index = check_address t addr in
  Sector.copy t.sectors.(index)

let read_part t addr part (buf : Word.t array) =
  let words = Sector.part_of t.sectors.(check_address t addr) part in
  let n = Array.length words in
  if Array.length buf <> n then invalid_arg "Drive.read_part: wrong part size";
  for i = 0 to n - 1 do
    Array.unsafe_set buf i (Array.unsafe_get words i)
  done

let poke t addr part words =
  let index = check_address t addr in
  let target = Sector.part_of t.sectors.(index) part in
  if Array.length words <> Array.length target then
    invalid_arg "Drive.poke: wrong part size"
  else begin
    (* Any out-of-band mutation of the platter — whichever part — is
       staleness evidence: every in-core copy of the sector must die,
       or a cache would keep serving bits the "physics" changed. *)
    t.label_gen.(index) <- t.label_gen.(index) + 1;
    t.torn.(index) <- t.torn.(index) land lnot (part_bit part);
    Array.blit words 0 target 0 (Array.length target)
  end

let set_bad t addr flag =
  let index = check_address t addr in
  if flag then t.label_gen.(index) <- t.label_gen.(index) + 1;
  t.bad.(index) <- flag

let is_bad t addr =
  let index = check_address t addr in
  t.bad.(index)

let set_value_unreadable t addr flag =
  let index = check_address t addr in
  (* The surface just died (or healed) under whatever is cached. *)
  if flag <> t.value_unreadable.(index) then
    t.label_gen.(index) <- t.label_gen.(index) + 1;
  t.value_unreadable.(index) <- flag

(* {2 The transient-fault model} *)

let set_soft_errors t ~seed ~rate =
  if rate < 0. || rate > 1. then
    invalid_arg "Drive.set_soft_errors: rate out of [0,1]"
  else begin
    t.soft_rng <- Splitmix.of_seed seed;
    t.soft_rate <- rate
  end

let set_marginal t addr ~rate ~growth ~degrade_after =
  let index = check_address t addr in
  if rate < 0. || rate > 1. then invalid_arg "Drive.set_marginal: rate out of [0,1]"
  else if growth < 1.0 then invalid_arg "Drive.set_marginal: growth below 1"
  else if degrade_after < 1 then invalid_arg "Drive.set_marginal: degrade_after below 1"
  else
    Hashtbl.replace t.marginals index
      { m_rate = rate; m_growth = growth; m_degrade_after = degrade_after; m_failures = 0 }

let is_marginal t addr = Hashtbl.mem t.marginals (check_address t addr)

let soft_failures t addr =
  match Hashtbl.find_opt t.marginals (check_address t addr) with
  | None -> 0
  | Some m -> m.m_failures

let restore t =
  let (_ : int) = seek t 0 in
  Obs.incr m_restores;
  Obs.event ~clock:t.clock ~fields:[ ("pack", Obs.I t.pack_id) ] "disk.restore"

module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Reliable = Alto_disk.Reliable
module Disk_address = Alto_disk.Disk_address
module Obs = Alto_obs.Obs

let m_digests = Obs.counter "fs.audit.digests"
let m_sectors = Obs.counter "fs.audit.sectors_digested"
let m_applied = Obs.counter "fs.audit.pages_applied"
let m_apply_failures = Obs.counter "fs.audit.apply_failures"

(* Sectors 0..reserved_top live at fixed addresses (boot page,
   descriptor file): they are digested and repaired like the rest but
   never relocated — their address is their identity. *)
let reserved_top fs = 1 + Fs.descriptor_page_count fs

type slice = {
  start : int;
  indexes : int array;
  labels : Word.t array array;
  values : Word.t array array;
  read : Sweep.t;
}

let read_slice fs ~start ~k =
  let drive = Fs.drive fs in
  (* Audit reads must see true pack state: a digest over sectors whose
     newest values sit delayed in the track buffer cache would disagree
     with a replica that has flushed. Flush first, then read the
     platter. *)
  ignore (Bio.flush (Fs.bio fs));
  let n = Drive.sector_count drive in
  let labels = Array.init k (fun _ -> Array.make Sector.label_words Word.zero) in
  let values = Array.init k (fun _ -> Array.make Sector.value_words Word.zero) in
  let read =
    Sweep.read drive ~start ~k ~on_value:(fun j _ label value ->
        Array.blit label 0 labels.(j) 0 Sector.label_words;
        Array.blit value 0 values.(j) 0 Sector.value_words)
  in
  { start; indexes = Array.init k (fun j -> (start + j) mod n); labels; values; read }

let sector_ok slice j = slice.read.Sweep.values.(j) <> Sweep.Unreadable

(* FNV-1a over the sector index, then the label and value words, so the
   digest pins both content and position. A sector whose read
   hard-failed (the retry ladder dry) folds a sentinel instead: two
   replicas only agree on a slice if they agree on which sectors are
   legible AND what the legible ones say. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L
let hard_fail_sentinel = 0xDEADL

let fold_word h w = Int64.mul (Int64.logxor h (Int64.of_int w)) fnv_prime

let digest_of_slice slice =
  let h = ref fnv_basis in
  Array.iteri
    (fun j i ->
      h := fold_word !h i;
      if sector_ok slice j then begin
        Array.iter (fun w -> h := fold_word !h (Word.to_int w)) slice.labels.(j);
        Array.iter (fun w -> h := fold_word !h (Word.to_int w)) slice.values.(j)
      end
      else h := fold_word !h (Int64.to_int hard_fail_sentinel))
    slice.indexes;
  !h

let digest fs ~start ~k =
  let slice = read_slice fs ~start ~k in
  Obs.incr m_digests;
  Obs.add m_sectors k;
  digest_of_slice slice

type apply_result =
  | Applied
  | Apply_failed of Drive.error
  | Verify_mismatch

(* Install a peer's page image over a local sector: write label and
   value together (blind — the local label is by assumption wrong or
   garbage), read back and compare, then shed every cached belief about
   the sector so nothing can resurrect the old contents. The in-core
   allocation map is re-pointed from the new label; the on-disk map
   arrives with the descriptor sectors themselves when they are repaired
   in turn, so a repair never writes through [Fs.flush]. *)
let apply_page fs ~index ~label ~value =
  let drive = Fs.drive fs in
  let cache = Fs.label_cache fs in
  let addr = Disk_address.of_index index in
  let write () =
    Reliable.run drive addr
      { Drive.op_none with label = Some Drive.Write; value = Some Drive.Write }
      ~label ~value ()
  in
  let verify () =
    let rl = Array.make Sector.label_words Word.zero in
    let rv = Array.make Sector.value_words Word.zero in
    match
      Reliable.run drive addr
        { Drive.op_none with label = Some Drive.Read; value = Some Drive.Read }
        ~label:rl ~value:rv ()
    with
    | Error e -> Apply_failed e
    | Ok () -> if rl = label && rv = value then Applied else Verify_mismatch
  in
  let outcome = match write () with Error e -> Apply_failed e | Ok () -> verify () in
  (match outcome with
  | Applied ->
      Drive.bump_label_generation drive addr;
      Label_cache.invalidate cache addr;
      Bio.invalidate (Fs.bio fs) addr;
      (* Map hints follow the label's verdict. Quarantine verdicts are
         NOT taken here — the bad-sector table is descriptor content and
         arrives with the descriptor's own repair; marking busy merely
         protects the sector from allocation until then. *)
      (match Label.classify label with
      | Label.Valid _ | Label.Bad | Label.Garbage _ ->
          if Fs.is_free_in_map fs addr then Fs.mark_busy fs addr
      | Label.Free ->
          if (not (Fs.is_free_in_map fs addr)) && not (Fs.quarantined fs addr) then
            Fs.mark_free fs addr);
      Obs.incr m_applied
  | Apply_failed _ | Verify_mismatch -> Obs.incr m_apply_failures);
  outcome

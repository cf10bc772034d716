module Word = Alto_machine.Word
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Trace = Alto_obs.Trace

(* Process-wide scheduler metrics; a caller reads a batch's figures as
   deltas of these and of the drive's [disk.*] counters. *)
let m_batches = Obs.counter "disk.sched.batches"
let m_requests = Obs.counter "disk.sched.requests"
let m_cylinder_runs = Obs.counter "disk.sched.cylinder_runs"
let m_sweeps = Obs.counter "disk.sched.sweeps"
let m_merged = Obs.counter "disk.sched.merged_batches"
let m_prorated = Obs.counter "disk.sched.prorated_seek_us"

type request = {
  addr : Disk_address.t;
  op : Drive.op;
  header : Word.t array option;
  label : Word.t array option;
  value : Word.t array option;
}

let request ?header ?label ?value addr op = { addr; op; header; label; value }

type outcome = { result : (unit, Drive.error) result; retries : int }

(* A first-attempt success, the one outcome every such request shares. *)
let first_time = { result = Ok (); retries = 0 }

let perform ?policy drive r =
  match
    Reliable.run_counted ?policy drive r.addr r.op ?header:r.header ?label:r.label
      ?value:r.value ()
  with
  | Ok (), 0 -> first_time
  | result, retries -> { result; retries }

(* {2 The elevator}

   C-SCAN: visit cylinders in ascending order starting from wherever the
   heads are, wrapping past the last cylinder back to the lowest — every
   request set costs at most one pass over the pack. Within a cylinder,
   requests stream track by track in rotational order: a head switch is
   free, and a full track read this way never waits, because the next
   track's first sector follows the previous track's last one angularly.
   (Sorting by slot across heads instead would park a whole revolution
   at every duplicate slot on a dense cylinder.) The submission number is
   the final key, so duplicate addresses complete in arrival order even
   when they came from different callers.

   The order is one int per request. A sector index is cylinder-major,
   so the index counted from the first sector of the heads' cylinder,
   wrapping, orders by cylinder rank, then head, then slot; times the
   request count, plus the submission number, it is a key no two
   requests share, and the number reads back as [key mod n].

   This static order fixes which cylinder comes when. Just before
   committing to each cylinder we know exactly where the surface will be
   when the heads settle ([Drive.catch_slot]), so each track's requests,
   already in slot order, are rotated to start at the first catchable
   slot and wrap — a full track costs one revolution from wherever the
   head lands, instead of parking for slot 0. That is the order (head,
   slot counted from the catch slot, submission number), so duplicate
   addresses still complete in arrival order. *)

(* Sort [keys] over [lo, hi): a merge sort that skips the merge of two
   halves already in order, so the ascending runs a batch usually
   arrives in cost about one pass; short ranges take an insertion sort.
   [scratch] is as long as [keys] unless the range is short. *)
let rec sort (keys : int array) (scratch : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let k = keys.(i) in
      let j = ref (i - 1) in
      while !j >= lo && keys.(!j) > k do
        keys.(!j + 1) <- keys.(!j);
        decr j
      done;
      keys.(!j + 1) <- k
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort keys scratch lo mid;
    sort keys scratch mid hi;
    if keys.(mid - 1) > keys.(mid) then begin
      for i = lo to mid - 1 do
        scratch.(i) <- keys.(i)
      done;
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid do
        if !j < hi && keys.(!j) < scratch.(!i) then begin
          keys.(!k) <- keys.(!j);
          incr j
        end
        else begin
          keys.(!k) <- scratch.(!i);
          incr i
        end;
        incr k
      done
    end
  end

(* Reverse [keys] over [lo, hi). *)
let reverse (keys : int array) lo hi =
  let lo = ref lo and hi = ref (hi - 1) in
  while !lo < !hi do
    let k = keys.(!lo) in
    keys.(!lo) <- keys.(!hi);
    keys.(!hi) <- k;
    incr lo;
    decr hi
  done

(* The one sweep core. Serve requests [0 .. n-1], numbered in submission
   order: [addr i] is request [i]'s sector, [ctx i] the trace it bills,
   and [serve i] performs it and delivers its outcome, before the next
   request is issued. *)
let elevator drive n ~addr ~ctx ~serve =
  Obs.incr m_sweeps;
  Prof.span (Drive.clock drive) "disk.sched.sweep" @@ fun () ->
  let geometry = Drive.geometry drive in
  let spt = geometry.Geometry.sectors_per_track in
  let per_cylinder = geometry.Geometry.heads * spt in
  let sectors = Geometry.sector_count geometry in
  let origin = Drive.current_cylinder drive * per_cylinder in
  let keys =
    Array.init n (fun i ->
        let a = Disk_address.to_index (addr i) in
        if a >= sectors then invalid_arg "Sched: address beyond disk";
        (((a - origin + sectors) mod sectors) * n) + i)
  in
  sort keys (if n > 16 then Array.make n 0 else [||]) 0 n;
  let request j = keys.(j) mod n in
  let counted j = keys.(j) / n in
  let serve_in i =
    let c = ctx i in
    (* The first serve after a park closes that trace's wait window; the
       drive's motion charges for this sector then flow to the trace the
       request belongs to. *)
    (match c with Some c -> Trace.served c | None -> ());
    if Trace.current () == c then serve i else Trace.with_current c (fun () -> serve i)
  in
  let pos = ref 0 in
  while !pos < n do
    let rank = counted !pos / per_cylinder in
    let stop = ref (!pos + 1) in
    while !stop < n && counted !stop / per_cylinder = rank do
      incr stop
    done;
    Obs.incr m_cylinder_runs;
    let cylinder = Disk_address.to_index (addr (request !pos)) / per_cylinder in
    let catch = Drive.catch_slot drive ~cylinder in
    (* The run's entry seek is shared motion: the heads travel here once
       for every request on this cylinder. The drive will charge the
       whole move to whichever request is served first, so predict it
       with the drive's own arithmetic and pro-rate it evenly across the
       run after serving — per request ⌊S/k⌋, the remainder to the
       earliest-served — so per-request totals still sum exactly to the
       drive's counters. Seeks a retry ladder adds mid-run (restore and
       return) stay on the request that needed them. *)
    let entry_seek =
      Geometry.seek_time_us geometry
        ~from_cylinder:(Drive.current_cylinder drive)
        ~to_cylinder:cylinder
    in
    let first = ref !pos in
    while !first < !stop do
      let track = counted !first / spt in
      let last = ref (!first + 1) in
      while !last < !stop && counted !last / spt = track do
        incr last
      done;
      let split = ref !first in
      while !split < !last && counted !split mod spt < catch do
        incr split
      done;
      reverse keys !first !split;
      reverse keys !split !last;
      reverse keys !first !last;
      first := !last
    done;
    for j = !pos to !stop - 1 do
      serve_in (request j)
    done;
    let k = !stop - !pos in
    if entry_seek > 0 && k > 1 then begin
      let payer = ctx (request !pos) in
      let share = entry_seek / k and rem = entry_seek mod k in
      for j = 1 to k - 1 do
        let amount = share + if j < rem then 1 else 0 in
        Trace.rebill_seek ~from_:payer ~to_:(ctx (request (!pos + j))) amount;
        Obs.add m_prorated amount
      done
    end;
    pos := !stop
  done

let count_batch n =
  Obs.incr m_batches;
  Obs.add m_requests n

(* {2 The standing queue}

   One queue outlives many callers: concurrent activities each submit
   their batch and block; whoever drives the queue then runs a single
   elevator sweep over everything pending, so requests that arrived from
   different conversations share one pass over the pack. *)

type waiter = {
  w_req : request;
  w_policy : Reliable.policy option;
  w_index : int;  (* position within the submitting batch *)
  w_notify : int -> outcome -> unit;
  w_ctx : Trace.context option;  (* the request this sector is for *)
}

type t = {
  drive : Drive.t;
  mutable pending : waiter list;  (* newest first *)
  mutable batches : int;  (* submitted since the last sweep began *)
}

let create drive = { drive; pending = []; batches = 0 }
let queued t = List.length t.pending

let submit_batch ?policy ?ctx t requests ~on_done =
  let n = Array.length requests in
  if n > 0 then begin
    count_batch n;
    (* A batch submitted without an explicit context inherits whichever
       request the machine is working for right now — so the synchronous
       callers (File's auto-batch inside a conversation's step, the Bio
       fills it triggers) bill the conversation without knowing about
       tracing at all. *)
    let ctx = match ctx with Some _ as c -> c | None -> Trace.current () in
    t.batches <- t.batches + 1;
    Array.iteri
      (fun i r ->
        t.pending <-
          { w_req = r; w_policy = policy; w_index = i; w_notify = on_done; w_ctx = ctx }
          :: t.pending)
      requests
  end

let sweep t =
  match t.pending with
  | [] -> 0
  | pending ->
      (* Snapshot-and-clear before touching the disk: a completion
         callback is free to submit more work (or even run a nested
         batch); whatever arrives during this sweep rides the next one. *)
      t.pending <- [];
      if t.batches > 1 then Obs.add m_merged (t.batches - 1);
      t.batches <- 0;
      let waiters = Array.of_list (List.rev pending) in
      elevator t.drive (Array.length waiters)
        ~addr:(fun i -> waiters.(i).w_req.addr)
        ~ctx:(fun i -> waiters.(i).w_ctx)
        ~serve:(fun i ->
          let w = waiters.(i) in
          w.w_notify w.w_index (perform ?policy:w.w_policy t.drive w.w_req));
      Array.length waiters

(* {2 The one-shot path}

   Every synchronous caller — the scavenger's passes, world transfers,
   [File]'s auto-batch — hands its array straight to the elevator: the
   order, the retry ladder and the metrics are the standing queue's; only
   the merging opportunity is absent, because a synchronous caller cannot
   wait for company. *)

let run_batch ?policy ?on_done drive requests =
  let n = Array.length requests in
  let outcomes = Array.make n first_time in
  if n > 0 then begin
    count_batch n;
    let ctx = Trace.current () in
    elevator drive n
      ~addr:(fun i -> requests.(i).addr)
      ~ctx:(fun _ -> ctx)
      ~serve:(fun i ->
        let outcome = perform ?policy drive requests.(i) in
        outcomes.(i) <- outcome;
        match on_done with None -> () | Some f -> f i outcome)
  end;
  outcomes

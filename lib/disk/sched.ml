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

(* C-SCAN: visit cylinders in ascending order starting from wherever the
   heads are, wrapping past the last cylinder back to the lowest — every
   request set costs at most one pass over the pack. Within a cylinder,
   requests stream track by track in rotational order: a head switch is
   free, and a full track read this way never waits, because the next
   track's first sector follows the previous track's last one angularly.
   (Sorting by slot across heads instead would park a whole revolution
   at every duplicate slot on a dense cylinder.) The submission sequence
   number is the final key, so duplicate addresses complete in arrival
   order even when they came from different callers.

   This static order fixes which cylinder comes when; [sweep] then
   rotates each cylinder's sector order to start at the slot the heads
   will actually catch ([Drive.catch_slot]), which the static sort
   cannot know because it depends on when the sweep reaches that
   cylinder. *)
let schedule geometry ~start keyed =
  let cylinders = geometry.Geometry.cylinders in
  let n = Array.length keyed in
  let order =
    Array.init n (fun i ->
        let addr, seq = keyed.(i) in
        let cylinder, head, sector = Disk_address.chs geometry addr in
        ((cylinder - start + cylinders) mod cylinders, head, sector, seq, i))
  in
  Array.sort compare order;
  order

(* {2 The standing queue}

   One queue outlives many callers: concurrent activities each submit
   their batch and block; whoever drives the queue then runs a single
   elevator sweep over everything pending, so requests that arrived from
   different conversations share one pass over the pack. A synchronous
   caller ([run_batch]) is simply a batch that submits and immediately
   sweeps. *)

type waiter = {
  w_req : request;
  w_seq : int;
  w_batch : int;
  w_policy : Reliable.policy option;
  w_index : int;  (* position within the submitting batch *)
  w_notify : int -> outcome -> unit;
  w_ctx : Trace.context option;  (* the request this sector is for *)
}

type t = {
  drive : Drive.t;
  mutable pending : waiter list;  (* newest first *)
  mutable next_seq : int;
  mutable next_batch : int;
}

let create drive = { drive; pending = []; next_seq = 0; next_batch = 0 }
let queued t = List.length t.pending

let submit_batch ?policy ?ctx t requests ~on_done =
  let n = Array.length requests in
  if n > 0 then begin
    Obs.incr m_batches;
    Obs.add m_requests n;
    (* A batch submitted without an explicit context inherits whichever
       request the machine is working for right now — so the synchronous
       callers (File's auto-batch inside a conversation's step, the Bio
       fills it triggers) bill the conversation without knowing about
       tracing at all. *)
    let ctx = match ctx with Some _ as c -> c | None -> Trace.current () in
    let batch = t.next_batch in
    t.next_batch <- batch + 1;
    Array.iteri
      (fun i r ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        t.pending <-
          {
            w_req = r;
            w_seq = seq;
            w_batch = batch;
            w_policy = policy;
            w_index = i;
            w_notify = on_done;
            w_ctx = ctx;
          }
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
      let waiters = Array.of_list (List.rev pending) in
      let n = Array.length waiters in
      Obs.incr m_sweeps;
      let batches =
        let seen = Hashtbl.create 8 in
        Array.iter (fun w -> Hashtbl.replace seen w.w_batch ()) waiters;
        Hashtbl.length seen
      in
      if batches > 1 then Obs.add m_merged (batches - 1);
      Prof.span (Drive.clock t.drive) "disk.sched.sweep" (fun () ->
          let geometry = Drive.geometry t.drive in
          let spt = geometry.Geometry.sectors_per_track in
          let order =
            schedule geometry
              ~start:(Drive.current_cylinder t.drive)
              (Array.map (fun w -> (w.w_req.addr, w.w_seq)) waiters)
          in
          let serve i =
            let w = waiters.(i) in
            (* The first serve after a park closes that trace's wait
               window; the drive's motion charges for this sector then
               flow to the trace the request belongs to. *)
            (match w.w_ctx with Some c -> Trace.served c | None -> ());
            Trace.with_current w.w_ctx (fun () ->
                let r = w.w_req in
                let result, retries =
                  Reliable.run_counted ?policy:w.w_policy t.drive r.addr r.op
                    ?header:r.header ?label:r.label ?value:r.value ()
                in
                w.w_notify w.w_index { result; retries })
          in
          (* Execute one cylinder run at a time. Just before committing
             to each cylinder we know exactly where the surface will be
             when the heads settle ([Drive.catch_slot]), so each track's
             requests are rotated to start at the first catchable slot
             and wrap — a full track costs one revolution from wherever
             the head lands, instead of parking for slot 0. The head
             order and the seq tiebreak are untouched, so duplicate
             addresses still complete in arrival order. *)
          let total = Array.length order in
          let pos = ref 0 in
          while !pos < total do
            let run, _, _, _, first = order.(!pos) in
            let stop = ref !pos in
            while
              !stop < total
              && (let r, _, _, _, _ = order.(!stop) in r = run)
            do
              incr stop
            done;
            Obs.incr m_cylinder_runs;
            let cylinder, _, _ =
              Disk_address.chs geometry waiters.(first).w_req.addr
            in
            let catch = Drive.catch_slot t.drive ~cylinder in
            (* The run's entry seek is shared motion: the heads travel
               here once for every request on this cylinder. The drive
               will charge the whole move to whichever request is served
               first, so predict it with the drive's own arithmetic and
               pro-rate it evenly across the run after serving — per
               request ⌊S/k⌋, the remainder to the earliest-served — so
               per-request totals still sum exactly to the drive's
               counters. Seeks a retry ladder adds mid-run (restore and
               return) stay on the request that needed them. *)
            let entry_seek =
              Geometry.seek_time_us geometry
                ~from_cylinder:(Drive.current_cylinder t.drive)
                ~to_cylinder:cylinder
            in
            let slice = Array.sub order !pos (!stop - !pos) in
            Array.sort
              (fun (_, h1, s1, q1, _) (_, h2, s2, q2, _) ->
                compare
                  (h1, (s1 - catch + spt) mod spt, q1)
                  (h2, (s2 - catch + spt) mod spt, q2))
              slice;
            Array.iter (fun (_, _, _, _, i) -> serve i) slice;
            let k = Array.length slice in
            if entry_seek > 0 && k > 1 then begin
              let payer =
                let _, _, _, _, i = slice.(0) in
                waiters.(i).w_ctx
              in
              let share = entry_seek / k and rem = entry_seek mod k in
              Array.iteri
                (fun j (_, _, _, _, i) ->
                  if j > 0 then begin
                    let amount = share + if j < rem then 1 else 0 in
                    Trace.rebill_seek ~from_:payer ~to_:waiters.(i).w_ctx amount;
                    Obs.add m_prorated amount
                  end)
                slice
            end;
            pos := !stop
          done);
      n

(* {2 The one-shot compatibility path}

   Every pre-existing caller — the scavenger's passes, world transfers,
   [File]'s auto-batch — goes through here: a private standing queue
   that lives for exactly one batch. The elevator order,
   the retry ladder and the metrics are the standing queue's; only the
   merging opportunity is absent, because a synchronous caller cannot
   wait for company. *)

let run_batch ?policy ?on_done drive requests =
  let n = Array.length requests in
  let outcomes = Array.make n { result = Ok (); retries = 0 } in
  if n > 0 then begin
    let q = create drive in
    let remaining = ref n in
    submit_batch ?policy q requests ~on_done:(fun i outcome ->
        outcomes.(i) <- outcome;
        (match on_done with None -> () | Some f -> f i outcome);
        decr remaining);
    while !remaining > 0 do
      if sweep q = 0 then
        (* Submitted work can only be waiting in this queue; an empty
           sweep with completions outstanding is a scheduler bug. *)
        invalid_arg "Sched.run_batch: outstanding requests vanished"
    done
  end;
  outcomes

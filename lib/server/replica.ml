module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Net = Alto_net.Net
module Fs = Alto_fs.Fs
module Audit = Alto_fs.Audit
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Trace = Alto_obs.Trace

(* Packet opcodes (word 0). Disjoint from the file-server request/reply
   space (10..12, 20..22) and the file-transfer framing (1..3), so a
   station could in principle speak both protocols. *)
let op_digest_req = 30
let op_digest_resp = 31
let op_pages_req = 32
let op_page = 33
let op_pages_done = 34

(* Process-wide replication metrics — what the CI gate watches. *)
let m_audits = Obs.counter "repl.audits"
let m_votes = Obs.counter "repl.votes"
let m_agreements = Obs.counter "repl.agreements"
let m_divergent = Obs.counter "repl.divergent"
let m_repairs = Obs.counter "repl.repairs"
let m_pages_repaired = Obs.counter "repl.pages_repaired"
let m_bytes_repaired = Obs.counter "repl.bytes_repaired"
let m_pages_served = Obs.counter "repl.pages_served"
let m_repair_failures = Obs.counter "repl.repair_failures"
let m_timeouts = Obs.counter "repl.timeouts"
let m_resends = Obs.counter "repl.resends"
let m_inconclusive = Obs.counter "repl.inconclusive"
let m_send_errors = Obs.counter "repl.send_errors"
let m_rejoins = Obs.counter "repl.rejoins"
let m_remounts = Obs.counter "repl.remounts"
let h_rtt_us = Obs.histogram "repl.rtt_us"
let h_repair_us = Obs.histogram "repl.repair_us"

(* {2 Wire encoding}

   Sequence numbers travel as two words (32 bits); digests as four.
   Sector indexes and slice lengths fit one word on every supported
   geometry. *)

let word16 v = Word.of_int (v land 0xFFFF)

let seq_words seq = [| word16 seq; word16 (seq lsr 16) |]
let seq_of p off = Word.to_int p.(off) lor (Word.to_int p.(off + 1) lsl 16)

let digest_words d =
  Array.init 4 (fun i ->
      word16 (Int64.to_int (Int64.shift_right_logical d (16 * i))))

let digest_of p off =
  let w i = Int64.of_int (Word.to_int p.(off + i)) in
  Int64.logor (w 0)
    (Int64.logor
       (Int64.shift_left (w 1) 16)
       (Int64.logor (Int64.shift_left (w 2) 32) (Int64.shift_left (w 3) 48)))

(* A page image is 7 label + 256 value words — too big for one packet,
   so each repaired sector travels as two: part 0 carries the label and
   the first half of the value, part 1 the second half. *)
let half_value = Sector.value_words / 2

type await_digests = {
  ad_seq : int;
  ad_start : int;
  ad_k : int;
  ad_local : int64;
  mutable ad_votes : (string * int64) list;  (* responders, arrival order *)
  mutable ad_sent_at : int;
  mutable ad_deadline : int;
  mutable ad_attempts : int;
}

type await_pages = {
  ap_seq : int;
  ap_start : int;
  ap_k : int;
  ap_from : string;
  ap_want : int64;
  ap_labels : Word.t array array;
  ap_values : Word.t array array;
  ap_have : bool array array;  (* k x 2: which halves have arrived *)
  mutable ap_mask : int option;  (* which sectors the winner served *)
  mutable ap_sent_at : int;
  mutable ap_deadline : int;
  mutable ap_attempts : int;
}

type phase = Idle | Await_digests of await_digests | Await_pages of await_pages

type node = {
  name : string;
  station : Net.station;
  fleet : fleet;
  mutable fs : Fs.t;
  on_new_fs : Fs.t -> unit;
  mutable cursor : int;
  mutable phase : phase;
  mutable seq : int;
  mutable laps : int;
  mutable slices_audited : int;
  mutable slices_repaired : int;
  mutable pages_in : int;
  mutable pages_out : int;
  mutable pages_lost : int;
  mutable ties : int;
  mutable last_vote : string;
  mutable needs_remount : bool;
  (* The request trace of the audit slice in flight: minted when the
     digests go out, finished when the cursor advances past the slice —
     however many resends, votes and repair rounds that took. *)
  mutable audit_ctx : Trace.context option;
}

and fleet = {
  net : Net.t;
  clock : Sim_clock.t;
  mutable nodes : node list;  (* join order *)
}

(* One Diablo 31 cylinder, like the patrol; at most 32, because the
   repair mask is 32 bits. *)
let audit_slice = 24

(* The first deadline of an exchange, doubled per resend up to
   [max_attempts] rounds. *)
let timeout_us = 500_000
let max_attempts = 8

(* The quantum one [tick] charges to the shared clock. *)
let step_us = 50

let create ~clock net = { net; clock; nodes = [] }

let join fleet ~name ?(on_new_fs = fun _ -> ()) fs =
  let station = Net.attach fleet.net ~name in
  let node =
    {
      name;
      station;
      fleet;
      fs;
      on_new_fs;
      cursor = 0;
      phase = Idle;
      seq = 0;
      laps = 0;
      slices_audited = 0;
      slices_repaired = 0;
      pages_in = 0;
      pages_out = 0;
      pages_lost = 0;
      ties = 0;
      last_vote = "never voted";
      needs_remount = false;
      audit_ctx = None;
    }
  in
  fleet.nodes <- fleet.nodes @ [ node ];
  node

let name t = t.name
let fs t = t.fs
let cursor t = t.cursor
let laps t = t.laps
let slices_audited t = t.slices_audited
let slices_repaired t = t.slices_repaired
let pages_repaired t = t.pages_in
let pages_served t = t.pages_out
let pages_lost t = t.pages_lost
let last_vote t = t.last_vote
let rebuilding t = t.needs_remount
let peers t = List.filter (fun n -> n.name <> t.name) t.fleet.nodes
let quorum fleet = (List.length fleet.nodes / 2) + 1
let now t = Sim_clock.now_us t.fleet.clock

let send t ~to_ payload =
  match Net.send t.station ~to_ payload with
  | Ok () -> ()
  | Error _ -> Obs.incr m_send_errors

(* {2 The responder side}

   Stateless and idempotent: a duplicated request costs a duplicated
   (identical) answer, a dropped one costs the requester a resend. The
   disk work is real — a digest request reads a whole slice — which is
   exactly the audit's cost model. *)

(* The requester's context arrives in the packet envelope; responder
   work joins the audit's trace as a child span. The dedup key is the
   logical request — kind, sequence number, responder — so the first
   arrival bills the trace, while a duplicated or already-served resent
   copy does its (identical) work untraced: the wire can lie all it
   wants without double-billing anyone. *)
let with_remote t ~wire ~kind ~seq f =
  match Trace.of_wire wire with
  | Some ctx ->
      Trace.remote ctx
        ~key:(Printf.sprintf "%s:%d:%s" kind seq t.name)
        ~name:(Printf.sprintf "%s@%s" kind t.name)
        f
  | None -> f ()

let serve_digest t ~src ~wire p =
  let seq = seq_of p 1 and start = Word.to_int p.(3) and k = Word.to_int p.(4) in
  let n = Drive.sector_count (Fs.drive t.fs) in
  if k >= 1 && k <= 32 && start < n then
    with_remote t ~wire ~kind:"repl.digest" ~seq (fun () ->
        let d =
          Obs.time t.fleet.clock "repl.digest_us" (fun () ->
              Audit.digest t.fs ~start ~k)
        in
        send t ~to_:src
          (Array.concat
             [ [| word16 op_digest_resp |]; seq_words seq;
               [| word16 start; word16 k |]; digest_words d ]))

let serve_pages t ~src ~wire p =
  let seq = seq_of p 1 and start = Word.to_int p.(3) and k = Word.to_int p.(4) in
  let n = Drive.sector_count (Fs.drive t.fs) in
  if k >= 1 && k <= 32 && start < n then
    with_remote t ~wire ~kind:"repl.pages" ~seq (fun () ->
    let slice = Audit.read_slice t.fs ~start ~k in
    let mask = ref 0 in
    for j = 0 to k - 1 do
      if Audit.sector_ok slice j then begin
        mask := !mask lor (1 lsl j);
        let head part =
          Array.concat
            [ [| word16 op_page |]; seq_words seq;
              [| word16 j; word16 part; word16 slice.Audit.indexes.(j) |] ]
        in
        send t ~to_:src
          (Array.concat
             [ head 0; slice.Audit.labels.(j);
               Array.sub slice.Audit.values.(j) 0 half_value ]);
        send t ~to_:src
          (Array.concat
             [ head 1; Array.sub slice.Audit.values.(j) half_value half_value ]);
        t.pages_out <- t.pages_out + 1;
        Obs.incr m_pages_served
      end
    done;
    send t ~to_:src
      (Array.concat
         [ [| word16 op_pages_done |]; seq_words seq;
           [| word16 start; word16 k;
              word16 !mask; word16 (!mask lsr 16) |] ]))

(* {2 The requester side} *)

(* Both request kinds — first sends and timeout resends alike — go out
   under the audit's context, so their envelopes carry it to the
   responders. *)
let send_digest_reqs t ad targets =
  Trace.with_current t.audit_ctx (fun () ->
      let p =
        Array.concat
          [ [| word16 op_digest_req |]; seq_words ad.ad_seq;
            [| word16 ad.ad_start; word16 ad.ad_k |] ]
      in
      List.iter (fun peer -> send t ~to_:peer.name p) targets)

let send_pages_req t ap =
  Trace.with_current t.audit_ctx (fun () ->
      send t ~to_:ap.ap_from
        (Array.concat
           [ [| word16 op_pages_req |]; seq_words ap.ap_seq;
             [| word16 ap.ap_start; word16 ap.ap_k |] ]))

let remount t =
  match Fs.mount (Fs.drive t.fs) with
  | Ok fs ->
      t.fs <- fs;
      t.needs_remount <- false;
      t.on_new_fs fs;
      Obs.incr m_remounts;
      Obs.event ~clock:t.fleet.clock
        ~fields:[ ("node", Obs.S t.name) ]
        "repl.remount"
  | Error _ ->
      (* The pack is still partly foreign mid-rebuild; the flag stays
         up and the next lap boundary tries again. *)
      ()

let advance t k =
  let n = Drive.sector_count (Fs.drive t.fs) in
  (match t.audit_ctx with Some c -> Trace.finish c ~status:"done" | None -> ());
  t.audit_ctx <- None;
  t.cursor <- t.cursor + k;
  t.phase <- Idle;
  if t.cursor >= n then begin
    t.cursor <- 0;
    t.laps <- t.laps + 1;
    (* Descriptor sectors were overwritten wholesale during this lap:
       the in-core volume is a stale belief about the pack. Re-mount
       from the repaired truth at the lap boundary, when no audit
       exchange is in flight against the old image. *)
    if t.needs_remount then remount t
  end

let start_audit t =
  let n = Drive.sector_count (Fs.drive t.fs) in
  let k = min audit_slice (n - t.cursor) in
  t.slices_audited <- t.slices_audited + 1;
  Obs.incr m_audits;
  match peers t with
  | [] ->
      t.last_vote <- "solo (no peers)";
      advance t k
  | ps ->
      let ctx =
        Trace.start ~clock:t.fleet.clock ~origin:t.name
          ~name:(Printf.sprintf "audit %d+%d" t.cursor k)
      in
      t.audit_ctx <- Some ctx;
      let local =
        Trace.with_current (Some ctx) (fun () ->
            Obs.time t.fleet.clock "repl.digest_us" (fun () ->
                Audit.digest t.fs ~start:t.cursor ~k))
      in
      t.seq <- t.seq + 1;
      let ad =
        {
          ad_seq = t.seq;
          ad_start = t.cursor;
          ad_k = k;
          ad_local = local;
          ad_votes = [];
          ad_sent_at = now t;
          ad_deadline = now t + timeout_us;
          ad_attempts = 1;
        }
      in
      send_digest_reqs t ad ps;
      t.phase <- Await_digests ad

(* Majority vote over self + responders. With quorum > half the fleet
   there is at most one winning digest; no quorum is a tie — counted,
   skipped, retried next lap (LOCKSS polls that fail to reach agreement
   are rerun, not forced). *)
let vote t ad =
  Obs.incr m_votes;
  let votes = (t.name, ad.ad_local) :: List.rev ad.ad_votes in
  let total = List.length t.fleet.nodes in
  let q = quorum t.fleet in
  let count d =
    List.length (List.filter (fun (_, d') -> Int64.equal d d') votes)
  in
  let winner =
    List.find_opt (fun (_, d) -> count d >= q) votes
    |> Option.map (fun (_, d) -> d)
  in
  let mark m = match t.audit_ctx with Some c -> Trace.mark c m | None -> () in
  match winner with
  | Some d when Int64.equal d ad.ad_local ->
      Obs.incr m_agreements;
      mark "agree";
      t.last_vote <-
        Printf.sprintf "agree %d/%d on slice %d+%d" (count d) total ad.ad_start
          ad.ad_k;
      advance t ad.ad_k
  | Some d ->
      (* The crowd outvoted us: stream the slice from the first peer
         that answered with the winning digest. *)
      Obs.incr m_divergent;
      mark "divergent";
      let from =
        match List.find_opt (fun (_, d') -> Int64.equal d d') (List.rev ad.ad_votes) with
        | Some (peer, _) -> peer
        | None -> assert false (* the winner had >= 2 votes, so a peer holds it *)
      in
      t.last_vote <-
        Printf.sprintf "divergent on slice %d+%d, repairing from %s" ad.ad_start
          ad.ad_k from;
      t.seq <- t.seq + 1;
      let ap =
        {
          ap_seq = t.seq;
          ap_start = ad.ad_start;
          ap_k = ad.ad_k;
          ap_from = from;
          ap_want = d;
          ap_labels =
            Array.init ad.ad_k (fun _ -> Array.make Sector.label_words Word.zero);
          ap_values =
            Array.init ad.ad_k (fun _ -> Array.make Sector.value_words Word.zero);
          ap_have = Array.init ad.ad_k (fun _ -> Array.make 2 false);
          ap_mask = None;
          ap_sent_at = now t;
          ap_deadline = now t + timeout_us;
          ap_attempts = 1;
        }
      in
      send_pages_req t ap;
      t.phase <- Await_pages ap
  | None ->
      Obs.incr m_inconclusive;
      mark "no-quorum";
      t.ties <- t.ties + 1;
      t.last_vote <-
        Printf.sprintf "no quorum on slice %d+%d (%d voters)" ad.ad_start ad.ad_k
          (List.length votes);
      advance t ad.ad_k

let pages_complete ap =
  match ap.ap_mask with
  | None -> false
  | Some mask ->
      let ok = ref true in
      for j = 0 to ap.ap_k - 1 do
        if mask land (1 lsl j) <> 0 then
          if not (ap.ap_have.(j).(0) && ap.ap_have.(j).(1)) then ok := false
      done;
      !ok

let apply_repair t ap =
  let mask = Option.get ap.ap_mask in
  let t0 = now t in
  let reserved_top = Audit.reserved_top t.fs in
  Trace.with_current t.audit_ctx (fun () ->
  Prof.span t.fleet.clock "repl.apply" (fun () ->
      for j = 0 to ap.ap_k - 1 do
        let index = ap.ap_start + j in
        if mask land (1 lsl j) <> 0 then (
          match
            Audit.apply_page t.fs ~index ~label:ap.ap_labels.(j)
              ~value:ap.ap_values.(j)
          with
          | Audit.Applied ->
              t.pages_in <- t.pages_in + 1;
              Obs.incr m_pages_repaired;
              Obs.add m_bytes_repaired (2 * (Sector.label_words + Sector.value_words));
              if index <= reserved_top then t.needs_remount <- true
          | Audit.Apply_failed _ | Audit.Verify_mismatch ->
              t.pages_lost <- t.pages_lost + 1;
              Obs.incr m_repair_failures)
        else begin
          (* The winner could not read this sector either: nothing to
             install, and saying so beats pretending. *)
          t.pages_lost <- t.pages_lost + 1;
          Obs.incr m_repair_failures
        end
      done));
  (* Settle the argument: the repaired slice must now digest to the
     winning value, or the slice stays divergent for the next lap. *)
  let d =
    Trace.with_current t.audit_ctx (fun () ->
        Audit.digest t.fs ~start:ap.ap_start ~k:ap.ap_k)
  in
  let mark m = match t.audit_ctx with Some c -> Trace.mark c m | None -> () in
  if Int64.equal d ap.ap_want then begin
    t.slices_repaired <- t.slices_repaired + 1;
    Obs.incr m_repairs;
    mark "repaired";
    Obs.observe h_repair_us (now t - t0);
    t.last_vote <-
      Printf.sprintf "repaired slice %d+%d from %s" ap.ap_start ap.ap_k ap.ap_from
  end
  else begin
    Obs.incr m_repair_failures;
    mark "repair-failed";
    t.last_vote <-
      Printf.sprintf "repair of slice %d+%d from %s did not converge" ap.ap_start
        ap.ap_k ap.ap_from
  end;
  Obs.event ~clock:t.fleet.clock
    ~fields:
      [
        ("node", Obs.S t.name);
        ("from", Obs.S ap.ap_from);
        ("start", Obs.I ap.ap_start);
        ("k", Obs.I ap.ap_k);
        ("converged", Obs.I (if Int64.equal d ap.ap_want then 1 else 0));
      ]
    "repl.repair";
  advance t ap.ap_k

(* {2 Incoming packets} *)

let on_digest_resp t ~src p =
  match t.phase with
  | Await_digests ad
    when seq_of p 1 = ad.ad_seq
         && Word.to_int p.(3) = ad.ad_start
         && Word.to_int p.(4) = ad.ad_k
         && not (List.mem_assoc src ad.ad_votes) ->
      ad.ad_votes <- (src, digest_of p 5) :: ad.ad_votes;
      (* One mark per accepted vote: a duplicated response falls to the
         mem_assoc guard above, so the timeline cannot double-count. *)
      (match t.audit_ctx with
      | Some c -> Trace.mark c ("digest:" ^ src)
      | None -> ());
      Obs.observe h_rtt_us (now t - ad.ad_sent_at)
  | _ -> () (* stale, duplicate, or foreign: ignored *)

let on_page t p =
  match t.phase with
  | Await_pages ap when seq_of p 1 = ap.ap_seq ->
      let j = Word.to_int p.(3) and part = Word.to_int p.(4) in
      let index = Word.to_int p.(5) in
      if j < ap.ap_k && part < 2 && index = ap.ap_start + j then begin
        let data = Array.sub p 6 (Array.length p - 6) in
        (if part = 0 then begin
           if Array.length data = Sector.label_words + half_value then begin
             Array.blit data 0 ap.ap_labels.(j) 0 Sector.label_words;
             Array.blit data Sector.label_words ap.ap_values.(j) 0 half_value;
             ap.ap_have.(j).(0) <- true
           end
         end
         else if Array.length data = half_value then begin
           Array.blit data 0 ap.ap_values.(j) half_value half_value;
           ap.ap_have.(j).(1) <- true
         end)
      end
  | _ -> ()

let on_pages_done t p =
  match t.phase with
  | Await_pages ap
    when seq_of p 1 = ap.ap_seq
         && Word.to_int p.(3) = ap.ap_start
         && Word.to_int p.(4) = ap.ap_k ->
      ap.ap_mask <- Some (Word.to_int p.(5) lor (Word.to_int p.(6) lsl 16))
  | _ -> ()

let handle t { Net.src; payload = p; trace = wire } =
  if Array.length p >= 1 then begin
    let op = Word.to_int p.(0) in
    if op = op_digest_req && Array.length p >= 5 then serve_digest t ~src ~wire p
    else if op = op_digest_resp && Array.length p >= 9 then on_digest_resp t ~src p
    else if op = op_pages_req && Array.length p >= 5 then serve_pages t ~src ~wire p
    else if op = op_page && Array.length p >= 6 then on_page t p
    else if op = op_pages_done && Array.length p >= 7 then on_pages_done t p
    (* anything else: not ours, dropped on the floor *)
  end

(* {2 Timeouts and backoff}

   Every exchange is guarded: when the deadline passes, resend (to the
   peers still silent) with the deadline doubled; after [max_attempts]
   rounds, act on what arrived — a short vote, or an abandoned repair
   retried next lap. Resending is safe throughout because the responder
   is stateless and application happens only once, on completion. *)

let backoff attempts = timeout_us * (1 lsl min attempts 6)

let check_digest_deadline t ad =
  if now t >= ad.ad_deadline then begin
    Obs.incr m_timeouts;
    if ad.ad_attempts >= max_attempts then vote t ad
    else begin
      let silent =
        List.filter (fun p -> not (List.mem_assoc p.name ad.ad_votes)) (peers t)
      in
      ad.ad_attempts <- ad.ad_attempts + 1;
      ad.ad_deadline <- now t + backoff ad.ad_attempts;
      Obs.add m_resends (List.length silent);
      send_digest_reqs t ad silent
    end
  end

let check_pages_deadline t ap =
  if now t >= ap.ap_deadline then begin
    Obs.incr m_timeouts;
    if ap.ap_attempts >= max_attempts then begin
      (* The winner went quiet; the slice stays divergent and the next
         lap holds a fresh vote (possibly electing a different peer). *)
      Obs.incr m_repair_failures;
      (match t.audit_ctx with
      | Some c -> Trace.mark c "repair-timeout"
      | None -> ());
      t.last_vote <-
        Printf.sprintf "repair of slice %d+%d from %s timed out" ap.ap_start
          ap.ap_k ap.ap_from;
      advance t ap.ap_k
    end
    else begin
      ap.ap_attempts <- ap.ap_attempts + 1;
      ap.ap_deadline <- now t + backoff ap.ap_attempts;
      Obs.incr m_resends;
      (* Parts already received stay: the retry only has to fill the
         holes the net chewed, so attempts converge geometrically. *)
      send_pages_req t ap
    end
  end

(* {2 Driving a node}

   One tick = one turn of the cooperative audit activity: charge a
   scheduling quantum, drain the station, then move the state machine
   one step. Returns progress units so executives and drain loops can
   tell work from idleness. *)

let tick t =
  Sim_clock.advance_us t.fleet.clock step_us;
  let work = ref 0 in
  let rec drain () =
    match Net.receive t.station with
    | None -> ()
    | Some pkt ->
        incr work;
        handle t pkt;
        drain ()
  in
  drain ();
  (match t.phase with
  | Idle ->
      start_audit t;
      incr work
  | Await_digests ad ->
      if List.length ad.ad_votes = List.length (peers t) then begin
        vote t ad;
        incr work
      end
      else check_digest_deadline t ad
  | Await_pages ap ->
      if pages_complete ap then begin
        apply_repair t ap;
        incr work
      end
      else check_pages_deadline t ap);
  !work

let tick_fleet fleet = List.fold_left (fun acc n -> acc + tick n) 0 fleet.nodes

let run_until fleet ?(max_ticks = 2_000_000) pred =
  let ticks = ref 0 in
  while (not (pred ())) && !ticks < max_ticks do
    ignore (tick_fleet fleet : int);
    incr ticks
  done;
  pred ()

(* {2 Whole-pack loss}

   A node that lost its pack (or its mind) re-joins: reformat the drive
   as a virgin volume and restart the audit from sector 0. Every slice
   then loses its vote 1-vs-rest and is streamed back from the crowd;
   the lap boundary remounts the rebuilt descriptor. *)

let rejoin t =
  let fs = Fs.format (Fs.drive t.fs) in
  t.fs <- fs;
  t.on_new_fs fs;
  t.cursor <- 0;
  (* Whatever audit was in flight died with the pack. *)
  (match t.audit_ctx with Some c -> Trace.finish c ~status:"abandoned" | None -> ());
  t.audit_ctx <- None;
  t.phase <- Idle;
  t.needs_remount <- false;
  Obs.incr m_rejoins;
  Obs.event ~clock:t.fleet.clock ~fields:[ ("node", Obs.S t.name) ] "repl.rejoin"

(* {2 The peers report} *)

let report fleet =
  let lines =
    List.concat_map
      (fun n ->
        let sectors = Drive.sector_count (Fs.drive n.fs) in
        [
          Printf.sprintf "%-8s cursor %d/%d, lap %d, %d slices audited, %d ties%s"
            n.name n.cursor sectors n.laps n.slices_audited n.ties
            (if n.needs_remount then " (rebuilding)" else "");
          Printf.sprintf
            "         repairs: %d slices / %d pages in, %d pages served, %d lost"
            n.slices_repaired n.pages_in n.pages_out n.pages_lost;
          Printf.sprintf "         last vote: %s" n.last_vote;
        ])
      fleet.nodes
  in
  let dropped, duped, delayed = Net.fault_census fleet.net in
  lines
  @ [
      Printf.sprintf "net:     %s; dropped %d, duplicated %d, delayed %d"
        (if Net.faults_on fleet.net then "seeded faults ON" else "clean")
        dropped duped delayed;
    ]

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof

let m_retries = Obs.counter "disk.retries"
let m_recovered = Obs.counter "disk.retry_recovered"
let m_retry_exhausted = Obs.counter "disk.retry_exhausted"
let h_retry_latency = Obs.histogram "disk.retry_latency_us"

type policy = { max_retries : int; restore_after : int }

let default_policy = { max_retries = 3; restore_after = 2 }
let salvage_policy = { max_retries = 12; restore_after = 3 }

let validate_policy p =
  if p.max_retries < 0 then invalid_arg "Reliable: negative max_retries"
  else if p.restore_after < 1 then invalid_arg "Reliable: restore_after below 1"

(* The escalation ladder after a first attempt failed transiently. *)
let retry_ladder policy drive addr op ?header ?label ?value first =
  let clock = Drive.clock drive in
  let t0 = Sim_clock.now_us clock in
  let finish result retries =
    Obs.observe h_retry_latency (Sim_clock.now_us clock - t0);
    (result, retries)
  in
  let rec retry r last =
    if r > policy.max_retries then begin
      Obs.incr m_retry_exhausted;
      Obs.event ~clock
        ~fields:
          [
            ("addr", Obs.I (Disk_address.to_index addr));
            ("retries", Obs.I policy.max_retries);
          ]
        "disk.retry_exhausted";
      finish last policy.max_retries
    end
    else begin
      (* The escalation ladder: immediate re-reads first; once those
         have failed [restore_after] times, recalibrate the heads
         before every further attempt. *)
      if r > policy.restore_after then Drive.restore drive;
      Obs.incr m_retries;
      match Drive.run drive addr op ?header ?label ?value () with
      | Ok () ->
          Obs.incr m_recovered;
          Obs.event ~clock
            ~fields:
              [
                ("addr", Obs.I (Disk_address.to_index addr));
                ("retries", Obs.I r);
              ]
            "disk.retry_recovered";
          finish (Ok ()) r
      | Error (Drive.Transient _) as e -> retry (r + 1) e
      | Error (Drive.Bad_sector | Drive.Check_mismatch _) as hard ->
          (* The fault hardened mid-retry (a marginal sector just
             degraded) or the transient was masking a real mismatch:
             report the truth, retries are pointless now. *)
          finish hard r
    end
  in
  (* Everything past the first failed attempt is the cost of the
     fault, not of the operation: the profiler files its motion
     (restores included) under the retry component. *)
  Prof.with_retry (fun () -> retry 1 first)

let run_counted ?(policy = default_policy) drive addr op ?header ?label ?value () =
  validate_policy policy;
  match Drive.run drive addr op ?header ?label ?value () with
  | Ok () -> (Ok (), 0)
  | Error (Drive.Bad_sector | Drive.Check_mismatch _) as hard ->
      (* Deterministic failures: a bad surface or a label that genuinely
         disagrees. Retrying would cost a revolution and change
         nothing — escalation belongs to the caller (hint ladder,
         scavenger). *)
      (hard, 0)
  | Error (Drive.Transient _) as first ->
      retry_ladder policy drive addr op ?header ?label ?value first

let run ?policy drive addr op ?header ?label ?value () =
  fst (run_counted ?policy drive addr op ?header ?label ?value ())

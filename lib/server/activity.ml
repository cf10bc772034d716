module Sim_clock = Alto_machine.Sim_clock
module Sched = Alto_disk.Sched
module Obs = Alto_obs.Obs
module Trace = Alto_obs.Trace

let m_spawned = Obs.counter "server.activities.spawned"
let m_steps = Obs.counter "server.activities.steps"
let m_sweeps = Obs.counter "server.activities.shared_sweeps"

type step =
  | Yield of (unit -> step)
  | Await_disk of {
      requests : Sched.request array;
      resume : Sched.outcome array -> step;
    }
  | Finished

type activity = {
  act_id : int;
  act_name : string;
  (* The request trace this conversation works for. Saved and restored
     around every step, so switching activities switches the current
     context the way a context switch swaps machine registers. *)
  mutable act_ctx : Trace.context option;
}

type t = {
  clock : Sim_clock.t;
  queue : Sched.t;
  max_active : int;
  runnable : (activity * (unit -> step)) Queue.t;
  mutable live : int;
  mutable blocked : int;
  mutable next_id : int;
}

(* The simulated processor cost of one activity step. *)
let step_us = 50

let create ~max_active ~queue clock =
  if max_active < 1 then invalid_arg "Activity.create: max_active must be >= 1";
  {
    clock;
    queue;
    max_active;
    runnable = Queue.create ();
    live = 0;
    blocked = 0;
    next_id = 0;
  }

let idle t = t.live = 0

let spawn t ~name body =
  if t.live >= t.max_active then false
  else begin
    let act = { act_id = t.next_id; act_name = name; act_ctx = Trace.current () } in
    t.next_id <- t.next_id + 1;
    t.live <- t.live + 1;
    Obs.incr m_spawned;
    Obs.event ~clock:t.clock
      ~fields:[ ("name", Obs.S act.act_name); ("id", Obs.I act.act_id) ]
      "server.activity.spawn";
    Queue.push (act, body) t.runnable;
    true
  end

(* Park an activity on its disk requests: the batch goes to the standing
   queue, and the activity reappears on the run queue when its last
   outcome arrives — during whichever sweep that is. *)
let park t act requests resume =
  let n = Array.length requests in
  if n = 0 then Queue.push (act, fun () -> resume [||]) t.runnable
  else begin
    t.blocked <- t.blocked + 1;
    (match act.act_ctx with Some c -> Trace.parked c | None -> ());
    let outcomes = Array.make n { Sched.result = Ok (); retries = 0 } in
    let remaining = ref n in
    Sched.submit_batch ?ctx:act.act_ctx t.queue requests ~on_done:(fun i outcome ->
        outcomes.(i) <- outcome;
        decr remaining;
        if !remaining = 0 then begin
          t.blocked <- t.blocked - 1;
          Queue.push (act, fun () -> resume outcomes) t.runnable
        end)
  end

let round t =
  (* Every activity runnable at the start of the round gets exactly one
     step; an activity that yields rejoins behind the others (round
     robin), so no conversation can starve the table. *)
  let steps = Queue.length t.runnable in
  for _ = 1 to steps do
    match Queue.take_opt t.runnable with
    | None -> ()
    | Some (act, run) -> (
        Obs.incr m_steps;
        Sim_clock.advance_us t.clock step_us;
        let prior = Trace.current () in
        Trace.set_current act.act_ctx;
        let next =
          match run () with
          | next -> next
          | exception exn ->
              Trace.set_current prior;
              raise exn
        in
        (* The body may have moved within (or out of) its trace; the
           activity keeps whatever was current when it switched away. *)
        act.act_ctx <- Trace.current ();
        Trace.set_current prior;
        match next with
        | Yield k -> Queue.push (act, k) t.runnable
        | Await_disk { requests; resume } -> park t act requests resume
        | Finished -> t.live <- t.live - 1)
  done;
  (* Only when every conversation has yielded to a disk wait does the
     elevator move: that is the window in which requests from different
     activities have piled up, and one C-SCAN pass serves them all. *)
  let swept =
    if Queue.is_empty t.runnable && t.blocked > 0 then begin
      Obs.incr m_sweeps;
      Sched.sweep t.queue
    end
    else 0
  in
  steps + swept

let run_until_idle t =
  while not (idle t) do
    if round t = 0 && Queue.is_empty t.runnable && t.blocked = 0 then
      (* live > 0 but nothing runnable and nothing parked: an activity
         was lost, which is a scheduler bug, not a workload state. *)
      invalid_arg "Activity.run_until_idle: live activities are unreachable"
  done

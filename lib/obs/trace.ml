module Sim_clock = Alto_machine.Sim_clock

type context = { trace : int; span : int }

type span = {
  sp_id : int;
  sp_name : string;
  sp_start_us : int;
  mutable sp_end_us : int;  (* -1 while open *)
}

type trace = {
  tr_id : int;
  tr_name : string;
  tr_origin : string;
  tr_clock : Sim_clock.t;
  tr_start_us : int;
  mutable tr_end_us : int;  (* -1 while open *)
  mutable tr_status : string;  (* "" while open *)
  mutable tr_marks : (string * int) list;  (* newest first *)
  mutable tr_spans : span list;  (* newest first; the root is last *)
  mutable tr_seek_us : int;
  mutable tr_rot_us : int;
  mutable tr_xfer_us : int;
  mutable tr_park_at : int;  (* -1 when not parked *)
  mutable tr_wait_us : int;
  mutable tr_seen : string list;  (* remote keys already billed *)
}

let m_started = Obs.counter "trace.started"
let m_spans = Obs.counter "trace.spans"
let m_completed = Obs.counter "trace.completed"
let m_remote_dups = Obs.counter "trace.remote_dups"
let h_wait = Obs.histogram "trace.wait_us"
let h_service = Obs.histogram "trace.service_us"

(* Ids come from these counters alone — no wall clock, no randomness —
   so a replayed simulation mints the same ids and the export is
   byte-identical. *)
let next_trace = ref 1
let next_span = ref 1

let traces : (int, trace) Hashtbl.t = Hashtbl.create 64
let finished : int Queue.t = Queue.create ()  (* closed ids, oldest first *)
let retention = 1024  (* finished traces kept, newest first *)
let cur : context option ref = ref None

(* The balance sheet: component microseconds charged under some context
   vs. none. Maintained at charge time, so it stays exact after the
   ring evicts old traces. Index 0 seek, 1 rotation, 2 transfer. *)
let att = [| 0; 0; 0 |]
let unt = [| 0; 0; 0 |]

let reset_state () =
  next_trace := 1;
  next_span := 1;
  Hashtbl.reset traces;
  Queue.clear finished;
  cur := None;
  Array.fill att 0 3 0;
  Array.fill unt 0 3 0

(* Every executable that traces also links this module, so the hook is
   registered before any workload can reset. *)
let () = Obs.on_reset reset_state

let find ctx = Hashtbl.find_opt traces ctx.trace
let is_open tr = String.equal tr.tr_status ""
let now tr = Sim_clock.now_us tr.tr_clock
let root_span tr = match List.rev tr.tr_spans with r :: _ -> r.sp_id | [] -> 0

let current () = !cur
let set_current c = cur := c

let with_current c f =
  let prior = !cur in
  cur := c;
  match f () with
  | x ->
      cur := prior;
      x
  | exception exn ->
      cur := prior;
      raise exn

let start ~clock ~origin ~name =
  let id = !next_trace in
  next_trace := id + 1;
  let sid = !next_span in
  next_span := sid + 1;
  let t0 = Sim_clock.now_us clock in
  let root = { sp_id = sid; sp_name = name; sp_start_us = t0; sp_end_us = -1 } in
  Hashtbl.replace traces id
    {
      tr_id = id;
      tr_name = name;
      tr_origin = origin;
      tr_clock = clock;
      tr_start_us = t0;
      tr_end_us = -1;
      tr_status = "";
      tr_marks = [ ("queued", t0) ];
      tr_spans = [ root ];
      tr_seek_us = 0;
      tr_rot_us = 0;
      tr_xfer_us = 0;
      tr_park_at = -1;
      tr_wait_us = 0;
      tr_seen = [];
    };
  Obs.incr m_started;
  Obs.incr m_spans;
  { trace = id; span = sid }

let mark ctx name =
  match find ctx with
  | Some tr when is_open tr -> tr.tr_marks <- (name, now tr) :: tr.tr_marks
  | _ -> ()

let finish ctx ~status =
  match find ctx with
  | Some tr when is_open tr ->
      let t1 = now tr in
      List.iter (fun sp -> if sp.sp_end_us < 0 then sp.sp_end_us <- t1) tr.tr_spans;
      (* An abandoned request that dies parked still waited: close the
         window at the moment of death. *)
      if tr.tr_park_at >= 0 then begin
        tr.tr_wait_us <- tr.tr_wait_us + (t1 - tr.tr_park_at);
        tr.tr_park_at <- -1
      end;
      tr.tr_end_us <- t1;
      tr.tr_status <- status;
      tr.tr_marks <- (status, t1) :: tr.tr_marks;
      if String.equal status "replied" || String.equal status "done" then begin
        Obs.incr m_completed;
        Obs.observe h_wait tr.tr_wait_us;
        Obs.observe h_service (max 0 (t1 - tr.tr_start_us - tr.tr_wait_us))
      end;
      Queue.push tr.tr_id finished;
      while Queue.length finished > retention do
        Hashtbl.remove traces (Queue.pop finished)
      done
  | _ -> ()

let find_active ~origin =
  Hashtbl.fold
    (fun _ tr best ->
      if is_open tr && String.equal tr.tr_origin origin then
        match best with
        | Some b when b.tr_id >= tr.tr_id -> best
        | _ -> Some tr
      else best)
    traces None
  |> Option.map (fun tr -> { trace = tr.tr_id; span = root_span tr })

let parked ctx =
  match find ctx with
  | Some tr when is_open tr && tr.tr_park_at < 0 ->
      tr.tr_park_at <- now tr;
      tr.tr_marks <- (("disk-parked", tr.tr_park_at)) :: tr.tr_marks
  | _ -> ()

let served ctx =
  match find ctx with
  | Some tr when is_open tr && tr.tr_park_at >= 0 ->
      let t = now tr in
      tr.tr_wait_us <- tr.tr_wait_us + (t - tr.tr_park_at);
      tr.tr_park_at <- -1;
      tr.tr_marks <- ("sweep-served", t) :: tr.tr_marks
  | _ -> ()

(* Charges flow to the current trace if it is still retained, else to
   the untraced bucket: either way the global balance holds. A trace
   already finished (a timeout-abandoned request whose batch the sweep
   serves later) keeps absorbing its own motion — the work was done for
   that request, whether or not anyone is still waiting for it. *)
let charge k us =
  if us > 0 then
    match (match !cur with Some ctx -> find ctx | None -> None) with
    | Some tr ->
        (match k with
        | 0 -> tr.tr_seek_us <- tr.tr_seek_us + us
        | 1 -> tr.tr_rot_us <- tr.tr_rot_us + us
        | _ -> tr.tr_xfer_us <- tr.tr_xfer_us + us);
        att.(k) <- att.(k) + us
    | None -> unt.(k) <- unt.(k) + us

let charge_seek us = charge 0 us
let charge_rotation us = charge 1 us
let charge_transfer us = charge 2 us

let rebill_seek ~from_ ~to_ us =
  if us > 0 && from_ <> to_ then begin
    (match (match from_ with Some c -> find c | None -> None) with
    | Some tr ->
        tr.tr_seek_us <- tr.tr_seek_us - us;
        att.(0) <- att.(0) - us
    | None -> unt.(0) <- unt.(0) - us);
    match (match to_ with Some c -> find c | None -> None) with
    | Some tr ->
        tr.tr_seek_us <- tr.tr_seek_us + us;
        att.(0) <- att.(0) + us
    | None -> unt.(0) <- unt.(0) + us
  end

let attributed () = (att.(0), att.(1), att.(2))
let untraced () = (unt.(0), unt.(1), unt.(2))

let wire () = match !cur with Some c -> (c.trace, c.span) | None -> (0, 0)
let of_wire (t, s) = if t <= 0 then None else Some { trace = t; span = s }

let remote ctx ~key ~name f =
  match find ctx with
  | Some tr when is_open tr && not (List.mem key tr.tr_seen) ->
      tr.tr_seen <- key :: tr.tr_seen;
      let sid = !next_span in
      next_span := sid + 1;
      let sp = { sp_id = sid; sp_name = name; sp_start_us = now tr; sp_end_us = -1 } in
      tr.tr_spans <- sp :: tr.tr_spans;
      Obs.incr m_spans;
      (match with_current (Some { trace = ctx.trace; span = sid }) f with
      | x ->
          sp.sp_end_us <- now tr;
          x
      | exception exn ->
          sp.sp_end_us <- now tr;
          raise exn)
  | Some _ ->
      (* A duplicate, a resend already served, or a trace already
         closed: do the work, bill no one. *)
      Obs.incr m_remote_dups;
      with_current None f
  | None -> with_current None f

(* {2 Inspection and export} *)

type info = {
  id : int;
  name : string;
  origin : string;
  status : string;
  start_us : int;
  end_us : int;
  wait_us : int;
  service_us : int;
  seek_us : int;
  rotation_us : int;
  transfer_us : int;
  marks : (string * int) list;
}

let info_of tr =
  let open_ = is_open tr in
  let until = if open_ then now tr else tr.tr_end_us in
  let wait =
    tr.tr_wait_us + (if open_ && tr.tr_park_at >= 0 then until - tr.tr_park_at else 0)
  in
  {
    id = tr.tr_id;
    name = tr.tr_name;
    origin = tr.tr_origin;
    status = (if open_ then "open" else tr.tr_status);
    start_us = tr.tr_start_us;
    end_us = tr.tr_end_us;
    wait_us = wait;
    service_us = max 0 (until - tr.tr_start_us - wait);
    seek_us = tr.tr_seek_us;
    rotation_us = tr.tr_rot_us;
    transfer_us = tr.tr_xfer_us;
    marks = List.rev tr.tr_marks;
  }

let sorted_traces () =
  Hashtbl.fold (fun _ tr acc -> tr :: acc) traces []
  |> List.sort (fun a b -> compare a.tr_id b.tr_id)

let infos () = List.map info_of (sorted_traces ())

let active_count () =
  Hashtbl.fold (fun _ tr n -> if is_open tr then n + 1 else n) traces 0

let info_json i =
  Json.Obj
    [
      ("id", Json.Int i.id);
      ("name", Json.String i.name);
      ("origin", Json.String i.origin);
      ("status", Json.String i.status);
      ("start_us", Json.Int i.start_us);
      ("end_us", Json.Int i.end_us);
      ("wait_us", Json.Int i.wait_us);
      ("service_us", Json.Int i.service_us);
      ("seek_us", Json.Int i.seek_us);
      ("rotation_us", Json.Int i.rotation_us);
      ("transfer_us", Json.Int i.transfer_us);
      ( "marks",
        Json.List
          (List.map
             (fun (m, t) -> Json.Obj [ ("mark", Json.String m); ("at_us", Json.Int t) ])
             i.marks) );
    ]

let flight_json ?(limit = 8) () =
  let all = infos () in
  let opened = List.filter (fun i -> String.equal i.status "open") all in
  let closed = List.filter (fun i -> not (String.equal i.status "open")) all in
  let drop = List.length closed - limit in
  let closed = List.filteri (fun k _ -> k >= drop) closed in
  Json.List (List.map info_json (opened @ closed))

(* Chrome's trace_event format: ts/dur in microseconds, one pid for the
   machine, one tid per trace, "M" metadata naming the thread, "X"
   complete events for spans, "i" instants for marks. *)
let chrome_json () =
  let events =
    List.concat_map
      (fun tr ->
        let i = info_of tr in
        let until = if is_open tr then now tr else tr.tr_end_us in
        let meta =
          Json.Obj
            [
              ("name", Json.String "thread_name");
              ("ph", Json.String "M");
              ("pid", Json.Int 1);
              ("tid", Json.Int tr.tr_id);
              ( "args",
                Json.Obj
                  [
                    ( "name",
                      Json.String (Printf.sprintf "%s: %s #%d" tr.tr_origin tr.tr_name tr.tr_id)
                    );
                  ] );
            ]
        in
        let span_event sp =
          let fin = if sp.sp_end_us < 0 then until else sp.sp_end_us in
          let args =
            if sp.sp_id = root_span tr then
              [
                ("origin", Json.String tr.tr_origin);
                ("status", Json.String i.status);
                ("wait_us", Json.Int i.wait_us);
                ("service_us", Json.Int i.service_us);
                ("seek_us", Json.Int i.seek_us);
                ("rotation_us", Json.Int i.rotation_us);
                ("transfer_us", Json.Int i.transfer_us);
              ]
            else [ ("span", Json.Int sp.sp_id) ]
          in
          Json.Obj
            [
              ("name", Json.String sp.sp_name);
              ("cat", Json.String "request");
              ("ph", Json.String "X");
              ("ts", Json.Int sp.sp_start_us);
              ("dur", Json.Int (max 0 (fin - sp.sp_start_us)));
              ("pid", Json.Int 1);
              ("tid", Json.Int tr.tr_id);
              ("args", Json.Obj args);
            ]
        in
        let mark_event (m, t) =
          Json.Obj
            [
              ("name", Json.String m);
              ("cat", Json.String "request");
              ("ph", Json.String "i");
              ("ts", Json.Int t);
              ("pid", Json.Int 1);
              ("tid", Json.Int tr.tr_id);
              ("s", Json.String "t");
            ]
        in
        (meta :: List.map span_event (List.rev tr.tr_spans))
        @ List.map mark_event i.marks)
      (sorted_traces ())
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

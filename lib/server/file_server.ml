module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Net = Alto_net.Net
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Sched = Alto_disk.Sched
module Obs = Alto_obs.Obs
module Prof = Alto_obs.Prof
module Trace = Alto_obs.Trace

(* Request opcodes (packet word 0). *)
let op_get = 10
let op_put = 11
let op_list = 12

(* Reply opcodes. File contents travel as file transfers, not packets. *)
let op_ack = 20
let op_error = 21
let op_nak = 22

let listing_name = ";listing"

(* Process-wide server metrics — the counters the CI gate watches. *)
let m_reqs = Obs.counter "server.reqs"
let m_client_timeouts = Obs.counter "server.client_timeouts"
let m_traces_abandoned = Obs.counter "server.traces_abandoned"
let m_naks = Obs.counter "server.naks"
let m_errors = Obs.counter "server.errors"
let m_send_errors = Obs.counter "server.send_errors"
let h_req_us = Obs.histogram "server.req_us"
let h_get_us = Obs.histogram "server.get_us"
let h_put_us = Obs.histogram "server.put_us"
let h_list_us = Obs.histogram "server.list_us"

type t = {
  fs : Fs.t;
  station : Net.station;
  clock : Sim_clock.t;
  acts : Activity.t;
}

let create ?(max_active = 16) fs station =
  let clock = Fs.clock fs in
  {
    fs;
    station;
    clock;
    acts = Activity.create ~max_active ~queue:(Sched.create (Fs.drive fs)) clock;
  }

let packet_string payload ~at =
  if Array.length payload <= at then None
  else
    let len = Word.to_int payload.(at) in
    let nwords = (len + 1) / 2 in
    if Array.length payload < at + 1 + nwords then None
    else Some (Word.string_of_words (Array.sub payload (at + 1) nwords) ~len)

let string_packet op s =
  Array.concat
    [ [| Word.of_int_exn op; Word.of_int_exn (String.length s) |]; Word.words_of_string s ]

(* A reply that cannot be delivered is not silently nothing: the station
   may have detached, the payload may be oversized — either way the
   failure is counted where the regression gate can see it. *)
let net_send t ~to_ payload =
  match Net.send t.station ~to_ payload with
  | Ok () -> ()
  | Error _ -> Obs.incr m_send_errors

let net_send_file t ~to_ ~name contents =
  match Net.send_file t.station ~to_ ~name contents with
  | Ok () -> true
  | Error _ ->
      Obs.incr m_send_errors;
      false

let send_error t ~to_ msg =
  Obs.incr m_errors;
  net_send t ~to_ (string_packet op_error msg)

let send_nak t ~to_ =
  Obs.incr m_naks;
  net_send t ~to_ [| Word.of_int op_nak |]

(* Every admitted conversation ends exactly once: through [conclude] on
   success (observing the op's own histogram, whose count is the op's
   count) or through [conclude_failed] after an error reply. *)
let conclude t ~t0 kind =
  let dt = Sim_clock.now_us t.clock - t0 in
  Obs.incr m_reqs;
  Obs.observe h_req_us dt;
  Obs.observe (match kind with `Get -> h_get_us | `Put -> h_put_us | `List -> h_list_us) dt

let conclude_failed t ~t0 =
  Obs.incr m_reqs;
  Obs.observe h_req_us (Sim_clock.now_us t.clock - t0)

(* {2 The three conversations}

   Each request is an activity: slices of synchronous work separated by
   the waits the paper's §4 activities switch at. A GET parks its whole
   request set on the standing elevator queue and sleeps; the scheduler
   serves every sleeping conversation's pages in one shared sweep. *)

let get_body t ~src ~t0 name () =
  Prof.span t.clock "server.get" (fun () ->
      let refuse msg =
        send_error t ~to_:src msg;
        conclude_failed t ~t0;
        Activity.Finished
      in
      match Directory.open_root t.fs with
      | Error e -> refuse (Format.asprintf "server volume sick: %a" Directory.pp_error e)
      | Ok root -> (
          match Directory.lookup root name with
          | Error e -> refuse (Format.asprintf "%a" Directory.pp_error e)
          | Ok None -> refuse (Printf.sprintf "no file %S" name)
          | Ok (Some entry) -> (
              match File.open_leader t.fs entry.Directory.entry_file with
              | Error e -> refuse (Format.asprintf "%s: %a" name File.pp_error e)
              | Ok file -> (
                  let deliver contents =
                    if net_send_file t ~to_:src ~name contents then
                      conclude t ~t0 `Get
                    else conclude_failed t ~t0;
                    Activity.Finished
                  in
                  match File.plan_read file with
                  | Error e -> refuse (Format.asprintf "%s: %a" name File.pp_error e)
                  | Ok None -> deliver ""
                  | Ok (Some plan) ->
                      Activity.Await_disk
                        {
                          requests = File.plan_requests plan;
                          resume =
                            (fun outcomes ->
                              Prof.span t.clock "server.get" (fun () ->
                                  match File.finish_read plan outcomes with
                                  | Ok contents -> deliver contents
                                  | Error e ->
                                      refuse
                                        (Format.asprintf "%s: %a" name File.pp_error e)));
                        }))))

let put_body t ~src ~t0 name contents () =
  Prof.span t.clock "server.put" (fun () ->
      let refuse msg =
        send_error t ~to_:src msg;
        conclude_failed t ~t0;
        Activity.Finished
      in
      match Directory.open_root t.fs with
      | Error e -> refuse (Format.asprintf "server volume sick: %a" Directory.pp_error e)
      | Ok root -> (
          let ( let* ) = Result.bind in
          let file_err r = Result.map_error (Format.asprintf "%a" File.pp_error) r in
          let dir_err r = Result.map_error (Format.asprintf "%a" Directory.pp_error) r in
          let stored =
            let* file = dir_err (Directory.open_or_create root ~name) in
            (* The ack promises the body is on the platter. *)
            file_err (File.replace ~through:true file contents)
          in
          match stored with
          | Ok () ->
              net_send t ~to_:src [| Word.of_int op_ack |];
              conclude t ~t0 `Put;
              Activity.Finished
          | Error msg -> refuse msg))

let list_body t ~src ~t0 () =
  Prof.span t.clock "server.list" (fun () ->
      let refuse msg =
        send_error t ~to_:src msg;
        conclude_failed t ~t0;
        Activity.Finished
      in
      match Directory.open_root t.fs with
      | Error e -> refuse (Format.asprintf "server volume sick: %a" Directory.pp_error e)
      | Ok root -> (
          match Directory.entries root with
          | Error e -> refuse (Format.asprintf "%a" Directory.pp_error e)
          | Ok entries ->
              let text =
                String.concat "\n"
                  (List.map
                     (fun (e : Directory.entry) -> e.Directory.entry_name)
                     entries)
              in
              if net_send_file t ~to_:src ~name:listing_name text then
                conclude t ~t0 `List
              else conclude_failed t ~t0;
              Activity.Finished))

(* {2 Admission}

   One request packet becomes one activity — or, when the table is
   full, a NAK: the client is told to come back rather than queued
   without bound. A refused PUT still consumes its file transfer, so a
   rejected conversation cannot poison the queue for the next one. *)

let admit_one t =
  match Net.receive t.station with
  | None -> false
  | Some { Net.src; payload; trace } ->
      let t0 = Sim_clock.now_us t.clock in
      let ctx = Trace.of_wire trace in
      let admitted () = match ctx with Some c -> Trace.mark c "admitted" | None -> () in
      (* The whole admission runs under the request's context: the
         spawned activity inherits it (and carries it through every
         switch), and every reply — ACK, NAK, error, the file transfer
         itself — goes out with the context in its envelope, which is
         how the client finds the trace its reply answers. *)
      Trace.with_current ctx (fun () ->
          if Array.length payload = 0 then send_error t ~to_:src "empty request"
          else
            let op = Word.to_int payload.(0) in
            if op = op_get then
              match packet_string payload ~at:1 with
              | Some name ->
                  if
                    Activity.spawn t.acts ~name:("get " ^ name)
                      (get_body t ~src ~t0 name)
                  then admitted ()
                  else send_nak t ~to_:src
              | None -> send_error t ~to_:src "malformed GET"
            else if op = op_put then
              match packet_string payload ~at:1 with
              | Some name -> (
                  match Net.receive_file t.station with
                  | None -> send_error t ~to_:src "PUT without a following file transfer"
                  | Some (sent_name, contents) ->
                      if not (String.equal sent_name name) then
                        send_error t ~to_:src "PUT name does not match the transferred file"
                      else if
                        Activity.spawn t.acts ~name:("put " ^ name)
                          (put_body t ~src ~t0 name contents)
                      then admitted ()
                      else send_nak t ~to_:src)
              | None -> send_error t ~to_:src "malformed PUT"
            else if op = op_list then begin
              if Activity.spawn t.acts ~name:"list" (list_body t ~src ~t0) then
                admitted ()
              else send_nak t ~to_:src
            end
            else send_error t ~to_:src (Printf.sprintf "unknown request %d" op));
      true

(* {2 Driving the server} *)

let tick t =
  let admitted = ref 0 in
  while Net.pending t.station > 0 do
    if admit_one t then incr admitted
  done;
  !admitted + Activity.round t.acts

module Client = struct
  type error =
    | Remote of string
    | Busy
    | Timeout
    | Protocol of string
    | Net_error of Net.error

  let pp_error fmt = function
    | Remote msg -> Format.fprintf fmt "server says: %s" msg
    | Busy -> Format.pp_print_string fmt "server is full, try again"
    | Timeout -> Format.pp_print_string fmt "timed out waiting for a reply"
    | Protocol msg -> Format.fprintf fmt "protocol trouble: %s" msg
    | Net_error e -> Net.pp_error fmt e

  type reply = File of string * string | Ack

  let net r = Result.map_error (fun e -> Net_error e) r

  (* Each send mints the request's trace (when the wire has a clock to
     mint against) and runs under it, so the request packets carry the
     context to the server in their envelopes. A send the network
     refuses closes the trace on the spot — nobody will ever reply to
     it. *)
  let traced_send station ~op f =
    let ctx =
      match Net.station_clock station with
      | Some clock ->
          Some (Trace.start ~clock ~origin:(Net.station_name station) ~name:op)
      | None -> None
    in
    match Trace.with_current ctx f with
    | Ok () as ok -> ok
    | Error _ as err ->
        (match ctx with Some c -> Trace.finish c ~status:"error" | None -> ());
        err

  let send_get station ~server ~name =
    traced_send station ~op:("get " ^ name) (fun () ->
        net (Net.send station ~to_:server (string_packet op_get name)))

  let send_put station ~server ~name contents =
    traced_send station ~op:("put " ^ name) (fun () ->
        let ( let* ) = Result.bind in
        let* () = net (Net.send station ~to_:server (string_packet op_put name)) in
        net (Net.send_file station ~to_:server ~name contents))

  let send_list station ~server =
    traced_send station ~op:"list" (fun () ->
        net (Net.send station ~to_:server [| Word.of_int op_list |]))

  (* A reply is either a file transfer or a single status packet; [None]
     until one has fully arrived. Status packets and file framing use
     disjoint opcode spaces, so peeking is unambiguous. *)
  (* The reply's envelope context names the trace it answers, so the
     close lands on the right request no matter how late or duplicated
     the reply is — [Trace.finish] on an already-closed trace is a
     no-op, which is exactly the don't-double-count semantics a lying
     wire needs. *)
  let close_trace trace ~status =
    match Trace.of_wire trace with
    | Some c -> Trace.finish c ~status
    | None -> ()

  let poll_reply station =
    match Net.receive_file_traced station with
    | Some (name, contents, trace) ->
        close_trace trace ~status:"replied";
        Some (Ok (File (name, contents)))
    | None -> (
        match Net.receive station with
        | None -> None
        | Some { Net.payload; trace; _ } ->
            Some
              (if Array.length payload = 0 then begin
                 close_trace trace ~status:"error";
                 Error (Protocol "empty reply")
               end
               else
                 let op = Word.to_int payload.(0) in
                 if op = op_ack then begin
                   close_trace trace ~status:"replied";
                   Ok Ack
                 end
                 else if op = op_nak then begin
                   close_trace trace ~status:"nak";
                   Error Busy
                 end
                 else if op = op_error then begin
                   close_trace trace ~status:"error";
                   match packet_string payload ~at:1 with
                   | Some msg -> Error (Remote msg)
                   | None -> Error (Protocol "malformed error packet")
                 end
                 else begin
                   close_trace trace ~status:"error";
                   Error (Protocol (Printf.sprintf "unexpected reply %d" op))
                 end))

  let default_max_polls = 1_000

  (* The blocking calls used to demand a reply after one pump and could
     be driven into a forever-loop by callers polling a dead server in a
     wrapper; now the wait itself is bounded — pump, poll, and after
     [max_polls] dry polls give up with an explicit [Timeout]. *)
  let await ?(max_polls = default_max_polls) station ~pump =
    let rec go n =
      match poll_reply station with
      | Some r -> r
      | None ->
          if n <= 0 then begin
            Obs.incr m_client_timeouts;
            (* The conversation is over even though no reply named the
               trace: close this station's open request so an abandoned
               conversation cannot leak an open context. *)
            (match Trace.find_active ~origin:(Net.station_name station) with
            | Some c ->
                Obs.incr m_traces_abandoned;
                Trace.finish c ~status:"abandoned"
            | None -> ());
            Error Timeout
          end
          else begin
            pump ();
            go (n - 1)
          end
    in
    go max_polls

  let fetch ?max_polls station ~server ~name ~pump =
    let ( let* ) = Result.bind in
    let* () = send_get station ~server ~name in
    match await ?max_polls station ~pump with
    | Ok (File (got, contents)) ->
        if String.equal got name then Ok contents
        else Error (Protocol (Printf.sprintf "asked for %S, got %S" name got))
    | Ok Ack -> Error (Protocol "bare acknowledgement to a GET")
    | Error e -> Error e

  let store ?max_polls station ~server ~name contents ~pump =
    let ( let* ) = Result.bind in
    let* () = send_put station ~server ~name contents in
    match await ?max_polls station ~pump with
    | Ok Ack -> Ok ()
    | Ok (File _) -> Error (Protocol "unexpected file in reply to PUT")
    | Error e -> Error e

  let listing ?max_polls station ~server ~pump =
    let ( let* ) = Result.bind in
    let* () = send_list station ~server in
    match await ?max_polls station ~pump with
    | Ok (File (name, contents)) when String.equal name listing_name ->
        Ok (List.filter (fun l -> l <> "") (String.split_on_char '\n' contents))
    | Ok (File _) -> Error (Protocol "unexpected file in reply to LIST")
    | Ok Ack -> Error (Protocol "bare acknowledgement to a LIST")
    | Error e -> Error e
end

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Splitmix = Alto_machine.Splitmix
module Obs = Alto_obs.Obs
module Trace = Alto_obs.Trace

let m_dropped = Obs.counter "net.dropped"
let m_duped = Obs.counter "net.duped"
let m_delayed = Obs.counter "net.delayed"

type faults = {
  f_rng : Splitmix.t;
  f_drop : float;
  f_dup : float;
  f_delay : float;
  f_delay_us : int;
}

(* [trace] is the sending request's context, stamped automatically by
   [send] — the envelope field every protocol above inherits without
   changing its payload format. (0, 0) is "no context". A fault's
   duplicate carries the same pair, like a real retransmitted frame. *)
type packet = { src : string; payload : Word.t array; trace : int * int }

type station = {
  name : string;
  queue : packet Queue.t;
  net : t;
  (* Packets a fault hold-down has pushed into the future: (due-time,
     tiebreak sequence, packet). Promoted into [queue] once the clock
     passes the due time, so a delayed packet really is overtaken by
     later traffic. *)
  mutable held : (int * int * packet) list;
}

and t = {
  stations : (string, station) Hashtbl.t;
  clock : Sim_clock.t option;
  latency_us : int;
  mutable faults : faults option;
  mutable hold_seq : int;
  mutable n_dropped : int;
  mutable n_duped : int;
  mutable n_delayed : int;
}

type error = Unknown_station of string | Payload_too_long

let pp_error fmt = function
  | Unknown_station name -> Format.fprintf fmt "no station named %S" name
  | Payload_too_long -> Format.pp_print_string fmt "payload exceeds one page"

let max_payload_words = 256

let create ?clock ?(latency_us = 500) () =
  {
    stations = Hashtbl.create 8;
    clock;
    latency_us;
    faults = None;
    hold_seq = 0;
    n_dropped = 0;
    n_duped = 0;
    n_delayed = 0;
  }

let set_faults net ?(drop = 0.0) ?(dup = 0.0) ?(delay = 0.0) ?(delay_us = 2_000)
    ~seed () =
  net.faults <-
    Some
      {
        f_rng = Splitmix.of_seed seed;
        f_drop = drop;
        f_dup = dup;
        f_delay = delay;
        f_delay_us = max 1 delay_us;
      }

let faults_on net = net.faults <> None
let fault_census net = (net.n_dropped, net.n_duped, net.n_delayed)

let attach net ~name =
  if Hashtbl.mem net.stations name then
    invalid_arg (Printf.sprintf "Net.attach: station %S already attached" name);
  let station = { name; queue = Queue.create (); net; held = [] } in
  Hashtbl.replace net.stations name station;
  station

let station_name s = s.name
let station_clock s = s.net.clock

let now net = match net.clock with Some c -> Sim_clock.now_us c | None -> 0

(* Promote held packets whose due time has passed, oldest due first. *)
let promote s =
  match s.held with
  | [] -> ()
  | held ->
      let t = now s.net in
      let due, still =
        List.partition (fun (due_at, _, _) -> due_at <= t) held
      in
      List.iter
        (fun (_, _, pkt) -> Queue.push pkt s.queue)
        (List.sort compare due);
      s.held <- still

(* Deliver one copy of [pkt] to [dst], applying the delay fault. *)
let deliver net dst pkt =
  match net.faults with
  | Some f when f.f_delay > 0.0 && Splitmix.float f.f_rng < f.f_delay ->
      let extra = 1 + Int64.to_int (Int64.rem (Int64.logand (Splitmix.next f.f_rng) Int64.max_int) (Int64.of_int f.f_delay_us)) in
      net.n_delayed <- net.n_delayed + 1;
      Obs.incr m_delayed;
      net.hold_seq <- net.hold_seq + 1;
      dst.held <- (now net + extra, net.hold_seq, pkt) :: dst.held
  | _ -> Queue.push pkt dst.queue

let send s ~to_ payload =
  if Array.length payload > max_payload_words then Error Payload_too_long
  else
    match Hashtbl.find_opt s.net.stations to_ with
    | None -> Error (Unknown_station to_)
    | Some dst ->
        let net = s.net in
        (match net.clock with
        | Some clock -> Sim_clock.advance_us clock net.latency_us
        | None -> ());
        let pkt = { src = s.name; payload = Array.copy payload; trace = Trace.wire () } in
        (match net.faults with
        | None -> Queue.push pkt dst.queue
        | Some f ->
            if f.f_drop > 0.0 && Splitmix.float f.f_rng < f.f_drop then begin
              net.n_dropped <- net.n_dropped + 1;
              Obs.incr m_dropped
            end
            else begin
              deliver net dst pkt;
              if f.f_dup > 0.0 && Splitmix.float f.f_rng < f.f_dup then begin
                net.n_duped <- net.n_duped + 1;
                Obs.incr m_duped;
                deliver net dst { pkt with payload = Array.copy pkt.payload }
              end
            end);
        Ok ()

let receive s =
  promote s;
  Queue.take_opt s.queue

let pending s =
  promote s;
  Queue.length s.queue

(* File transfer framing: word 0 is the kind — 1 header (name follows:
   length word + packed string), 2 data (chunk), 3 trailer. *)
let kind_header = 1
let kind_data = 2
let kind_trailer = 3

let chunk_bytes = (max_payload_words - 2) * 2

let send_file s ~to_ ~name data =
  let ( let* ) = Result.bind in
  let header =
    Array.concat
      [
        [| Word.of_int kind_header; Word.of_int_exn (String.length name) |];
        Word.words_of_string name;
      ]
  in
  let* () = send s ~to_ header in
  let total = String.length data in
  let rec chunks pos =
    if pos >= total then Ok ()
    else begin
      let len = min chunk_bytes (total - pos) in
      let words = Word.words_of_string (String.sub data pos len) in
      let* () =
        send s ~to_
          (Array.concat [ [| Word.of_int kind_data; Word.of_int_exn len |]; words ])
      in
      chunks (pos + len)
    end
  in
  (* Data packets carry a byte count so odd-length chunks survive. *)
  let* () =
    match chunks 0 with
    | Ok () -> Ok ()
    | Error e -> Error e
  in
  send s ~to_ [| Word.of_int kind_trailer |]

let receive_file_traced s =
  promote s;
  (* Peek: only consume if a complete file heads the queue. The header
     packet's envelope context speaks for the whole transfer. *)
  let items = List.of_seq (Queue.to_seq s.queue) in
  let parse = function
    | { payload; trace; _ } :: rest
      when Array.length payload >= 2 && Word.to_int payload.(0) = kind_header ->
        let name_len = Word.to_int payload.(1) in
        let name =
          Word.string_of_words (Array.sub payload 2 (Array.length payload - 2)) ~len:name_len
        in
        let buffer = Buffer.create 512 in
        let rec data consumed = function
          | { payload; _ } :: rest
            when Array.length payload >= 2 && Word.to_int payload.(0) = kind_data ->
              let len = Word.to_int payload.(1) in
              let words = Array.sub payload 2 (Array.length payload - 2) in
              Buffer.add_string buffer (Word.string_of_words words ~len);
              data (consumed + 1) rest
          | { payload; _ } :: _
            when Array.length payload >= 1 && Word.to_int payload.(0) = kind_trailer ->
              Some (name, Buffer.contents buffer, consumed + 2, trace)
          | _ -> None
        in
        data 0 rest
    | _ -> None
  in
  match parse items with
  | None -> None
  | Some (name, contents, packets, trace) ->
      for _ = 1 to packets do
        ignore (Queue.pop s.queue)
      done;
      Some (name, contents, trace)

let receive_file s =
  match receive_file_traced s with
  | None -> None
  | Some (name, contents, _) -> Some (name, contents)

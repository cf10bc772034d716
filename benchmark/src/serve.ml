(* The two file-service workloads: an open-loop Poisson stream of
   GET/PUT/LIST requests into a [File_server] over [Net], from a fixed
   crew of client stations.

   Open loop means arrivals are due on a schedule that ignores the
   system: a request waits in the generator's backlog while every
   station is busy, and its latency is timed from when it was due, so a
   stall is charged to every request it delays. A NAKed attempt is
   resent by its station. A request fails when it draws an error reply
   or wrong bytes; it misses the latency limit when it fails, answers
   late, or is still unanswered when its phase ends. *)

module Sim_clock = Alto_machine.Sim_clock
module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Client = File_server.Client

type op = Get of int | List | Put of { slot : int; len : int; seed : int }
type arrival = { due_us : int; op : op }

type config = {
  name : string;
  files : int;
  zipf : float option;  (** Popularity exponent; [None] is uniform. *)
  get_pct : int;
  put_pct : int;  (** The rest are LISTs. *)
  put_names : int;
  put_min : int;
  put_max : int;
  stations : int;
  limit_us : int;  (** The p99 latency limit. *)
  r0 : float;  (** The ladder's first rate. *)
  step : float;
  rung_arrivals : int;
  max_rungs : int;
  ref_rate : float;  (** The reference phase's rate. *)
  warmup : int;  (** Arrivals at [ref_rate] before anything is measured. *)
}

let hot =
  {
    name = "serve_hot";
    files = 48;
    zipf = Some 0.99;
    get_pct = 90;
    put_pct = 0;
    put_names = 1;
    put_min = 0;
    put_max = 0;
    stations = 64;
    limit_us = 2_000_000;
    r0 = 16.0;
    step = 1.1;
    rung_arrivals = 2000;
    max_rungs = 40;
    ref_rate = 20.0;
    warmup = 1000;
  }

let cold =
  {
    hot with
    name = "serve_cold";
    files = 256;
    zipf = None;
    get_pct = 75;
    put_pct = 20;
    put_names = 64;
    put_min = 512;
    put_max = 2048;
    r0 = 0.25;
    ref_rate = 0.5;
  }

(* The size of every corpus file. *)
let file_bytes = 2000

let server_name = "fs"
let corpus_name k = Printf.sprintf "S%03d.dat" k
let put_name slot = Printf.sprintf "P%02d.dat" slot

(* {2 Arrival streams} *)

let arrivals cfg ~seed ~stream ~start_us ~rate ~n =
  let g = Gen.make ~seed ~stream in
  let cdf = Option.map (fun s -> Gen.zipf ~n:cfg.files ~s) cfg.zipf in
  let t = ref start_us in
  Array.init n (fun _ ->
      t := !t + Gen.gap_us g ~rate;
      let roll = Gen.percent g in
      let op =
        if roll < cfg.get_pct then
          Get (match cdf with Some c -> Gen.zipf_draw c g | None -> Gen.int g cfg.files)
        else if roll < cfg.get_pct + cfg.put_pct then
          Put
            {
              slot = Gen.int g cfg.put_names;
              len = Gen.range g cfg.put_min cfg.put_max;
              seed = Gen.int g 0x3fffffff;
            }
        else List
      in
      { due_us = !t; op })

(* {2 The world under test} *)

type station = {
  st : Net.station;
  mutable cur : int;  (** Arrival index in flight, -1 when free. *)
  mutable resend : bool;  (** NAKed: send the same request again. *)
  mutable slot : int;  (** The PUT name this request holds. *)
  mutable body : string;  (** The PUT body in flight. *)
}

type world = {
  cfg : config;
  fs : Fs.t;
  clock : Sim_clock.t;
  srv : File_server.t;
  stations : station array;
  bodies : string array;  (** What each corpus GET must return. *)
  acked : string option array;  (** Last acknowledged body per PUT name. *)
  slot_busy : bool array;  (** A PUT to this name is in flight. *)
  mutable failed : int;
  mutable failures : string list;  (** The first few, for the report. *)
}

let fail w msg =
  w.failed <- w.failed + 1;
  if List.length w.failures < 8 then w.failures <- msg :: w.failures

let ok what = function
  | Ok x -> x
  | Error _ -> failwith ("serve set-up: " ^ what)

(* Format a Model 31 pack, write the corpus, and attach the server and
   its clients. *)
let build cfg ~seed =
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let clock = Fs.clock fs in
  let root = ok "root" (Directory.open_root fs) in
  let g = Gen.make ~seed ~stream:1 in
  let bodies = Array.init cfg.files (fun _ -> Gen.body g file_bytes) in
  Array.iteri
    (fun k body ->
      let name = corpus_name k in
      let file = ok "create" (File.create fs ~name) in
      ok "write" (File.write_bytes file ~pos:0 body);
      ok "leader" (File.flush_leader file);
      ok "catalogue" (Directory.add root ~name (File.leader_name file)))
    bodies;
  ok "flush" (Fs.flush fs);
  let net = Net.create ~clock () in
  let srv = File_server.create fs (Net.attach net ~name:server_name) in
  let stations =
    Array.init cfg.stations (fun i ->
        {
          st = Net.attach net ~name:(Printf.sprintf "c%02d" i);
          cur = -1;
          resend = false;
          slot = -1;
          body = "";
        })
  in
  {
    cfg;
    fs;
    clock;
    srv;
    stations;
    bodies;
    acked = Array.make cfg.put_names None;
    slot_busy = Array.make cfg.put_names false;
    failed = 0;
    failures = [];
  }

(* {2 One phase of open-loop load} *)

type phase = {
  offered : int;
  latency_us : int array;  (** Per arrival; -1 when it missed outright. *)
  late_us : int array;  (** Due-to-first-send per sent arrival. *)
  answered : int;
  misses : int;  (** Failed, late or unanswered. *)
  naks : int;
  sends : int;
  polls : int;
  useful_polls : int;
  backlog_max : int;
  stopped_early : bool;
  start_us : int;
  end_us : int;
  idle_us : int;  (** Simulated time with nothing in flight and nothing due. *)
}

(* The fewest of [n] samples above the limit that put the p99 above it,
   however the samples tie: the lowest value above the limit then has
   the mid-point of its share ({!Stats}) at 0.99 or below. *)
let certain_misses n = (n + 49) / 50

(* Misses read as +inf, so a percentile that reaches one is infinite. *)
let latencies_ms (p : phase) =
  Array.map
    (fun us -> if us < 0 then Float.infinity else float_of_int us /. 1e3)
    p.latency_us

(* The p99 the curve reports, and the rule a rung passes by. *)
let p99_ms (p : phase) = Stats.quantile (latencies_ms p) 0.99
let meets_limit cfg (p : phase) = p99_ms p <= float_of_int cfg.limit_us /. 1e3

let check_listing w text =
  let names = Hashtbl.create 512 in
  List.iter (fun l -> Hashtbl.replace names l ()) (String.split_on_char '\n' text);
  let rec all k =
    k = Array.length w.bodies || (Hashtbl.mem names (corpus_name k) && all (k + 1))
  in
  all 0

(* [meter], when given, gets one host-cost segment per twentieth of the
   phase's answers. *)
let run_phase ?(early_stop = false) ?meter w (arrivals : arrival array) =
  let cfg = w.cfg in
  let n = Array.length arrivals in
  let clock = w.clock in
  let latency_us = Array.make n (-1) in
  let late = ref [] in
  let next = ref 0 (* arrivals[bhead, next) are due and waiting *) in
  let bhead = ref 0 in
  let overdue = ref 0 (* backlog arrivals before this index are past the limit *) in
  let free = Stack.create () in
  for i = Array.length w.stations - 1 downto 0 do
    Stack.push i free
  done;
  let inflight = ref 0 in
  let answered = ref 0 and missed = ref 0 in
  let naks = ref 0 and sends = ref 0 and polls = ref 0 and useful = ref 0 in
  let backlog_max = ref 0 in
  let stopping = ref false in
  let start_us = Sim_clock.now_us clock in
  let idle = ref 0 in
  let segments = 20 in
  let seg_next = ref 1 in
  let seg_done = ref 0 in
  let certain = certain_misses n in
  let send s =
    let a = arrivals.(s.cur) in
    let r =
      Span.record ~req:s.cur "net.send" (fun () ->
          match a.op with
          | Get k -> Client.send_get s.st ~server:server_name ~name:(corpus_name k)
          | List -> Client.send_list s.st ~server:server_name
          | Put _ ->
              Client.send_put s.st ~server:server_name ~name:(put_name s.slot) s.body)
    in
    incr sends;
    s.resend <- false;
    match r with Ok () -> () | Error _ -> failwith "serve: the network refused a request"
  in
  let free_station i =
    let s = w.stations.(i) in
    if s.slot >= 0 then w.slot_busy.(s.slot) <- false;
    s.slot <- -1;
    s.cur <- -1;
    s.resend <- false;
    decr inflight;
    Stack.push i free
  in
  let start i idx =
    let s = w.stations.(i) in
    s.cur <- idx;
    (match arrivals.(idx).op with
    | Put { slot; len; seed } ->
        (* Never two PUTs in flight on one name: take the first free
           name from the drawn one on. *)
        let k = ref slot in
        while w.slot_busy.(!k) do
          k := (!k + 1) mod cfg.put_names
        done;
        w.slot_busy.(!k) <- true;
        s.slot <- !k;
        s.body <- Gen.put_body ~seed len
    | Get _ | List -> ());
    incr inflight;
    late := (Sim_clock.now_us clock - arrivals.(idx).due_us) :: !late;
    send s
  in
  let settle idx ok =
    let lat = Sim_clock.now_us clock - arrivals.(idx).due_us in
    incr answered;
    if ok then begin
      latency_us.(idx) <- lat;
      if lat > cfg.limit_us then incr missed
    end
    else incr missed
  in
  let handle i reply =
    let s = w.stations.(i) in
    let idx = s.cur in
    match (arrivals.(idx).op, reply) with
    | _, Error Client.Busy ->
        incr naks;
        if !stopping then begin
          incr missed;
          free_station i
        end
        else s.resend <- true
    | Get k, Ok (Client.File (name, contents)) ->
        let good =
          String.equal name (corpus_name k) && String.equal contents w.bodies.(k)
        in
        if not good then fail w ("GET " ^ corpus_name k ^ " returned wrong bytes");
        settle idx good;
        free_station i
    | List, Ok (Client.File (name, text)) ->
        let good = String.equal name ";listing" && check_listing w text in
        if not good then fail w "LIST did not name every corpus file";
        settle idx good;
        free_station i
    | Put _, Ok Client.Ack ->
        w.acked.(s.slot) <- Some s.body;
        settle idx true;
        free_station i
    | _, Ok _ ->
        fail w "reply kind does not match the request";
        settle idx false;
        free_station i
    | _, Error e ->
        fail w (Format.asprintf "request %d: %a" idx Client.pp_error e);
        settle idx false;
        free_station i
  in
  let finished = ref false in
  while not !finished do
    let now = Sim_clock.now_us clock in
    if not !stopping then begin
      while !next < n && arrivals.(!next).due_us <= now do
        incr next
      done;
      backlog_max := max !backlog_max (!next - !bhead)
    end;
    let acted = ref false in
    Array.iter
      (fun s ->
        if s.cur >= 0 && s.resend then begin
          acted := true;
          send s
        end)
      w.stations;
    while (not !stopping) && !bhead < !next && not (Stack.is_empty free) do
      acted := true;
      start (Stack.pop free) !bhead;
      incr bhead
    done;
    let progress = Span.record "server.tick" (fun () -> File_server.tick w.srv) in
    Array.iteri
      (fun i s ->
        if s.cur >= 0 && not s.resend then begin
          incr polls;
          match Span.record ~req:s.cur "net.poll" (fun () -> Client.poll_reply s.st) with
          | None -> ()
          | Some reply ->
              incr useful;
              acted := true;
              handle i reply
        end)
      w.stations;
    (* One twentieth of the phase answered: close a host-time segment. *)
    if !seg_next <= segments && !answered >= !seg_next * n / segments then begin
      Option.iter (Host.segment ~ops:(!answered - !seg_done)) meter;
      seg_done := !answered;
      incr seg_next
    end;
    if !inflight = 0 && (!stopping || !bhead = !next) then begin
      if (not !stopping) && !next < n then begin
        let gap = max 0 (arrivals.(!next).due_us - now) in
        idle := !idle + gap;
        Sim_clock.advance_us clock gap
      end
      else finished := true
    end
    else if progress = 0 && not !acted then
      failwith "serve: requests in flight but the server has nothing to do";
    (* Early stop: once enough requests are certain to miss that the
       p99 must exceed the limit, the phase cannot pass. *)
    if early_stop && not !stopping then begin
      let now = Sim_clock.now_us clock in
      let cutoff = now - cfg.limit_us in
      overdue := max !overdue !bhead;
      while !overdue < !next && arrivals.(!overdue).due_us < cutoff do
        incr overdue
      done;
      let stale = ref 0 in
      Array.iter
        (fun s -> if s.cur >= 0 && arrivals.(s.cur).due_us < cutoff then incr stale)
        w.stations;
      if !missed + !stale + (!overdue - !bhead) >= certain then stopping := true
    end
  done;
  let unsent = n - !bhead in
  {
    offered = n;
    latency_us;
    late_us = Array.of_list (List.rev !late);
    answered = !answered;
    misses = !missed + unsent;
    naks = !naks;
    sends = !sends;
    polls = !polls;
    useful_polls = !useful;
    backlog_max = !backlog_max;
    stopped_early = !stopping;
    start_us;
    end_us = Sim_clock.now_us clock;
    idle_us = !idle;
  }

(* {2 The ladder}

   Rates r0, r0·step, r0·step², … each offered [rung_arrivals] arrivals;
   a rung passes when its p99 meets the limit (failures and unanswered
   requests read as +inf), and the ladder stops at the first failing
   rung. *)

type rung = { rate : float; phase : phase; bio_hit_ratio : float; pass : bool }

let now_us w = Sim_clock.now_us w.clock

let rung w ~seed ~stream ~rate =
  let counter = Layers.counter in
  let hits = counter "fs.bio.hits" and misses = counter "fs.bio.misses" in
  let n = w.cfg.rung_arrivals in
  let a = arrivals w.cfg ~seed ~stream ~start_us:(now_us w) ~rate ~n in
  let phase = run_phase ~early_stop:true w a in
  let dh = counter "fs.bio.hits" - hits and dm = counter "fs.bio.misses" - misses in
  {
    rate;
    phase;
    bio_hit_ratio = Stats.ratio dh (dh + dm);
    pass = meets_limit w.cfg phase;
  }

(* The rungs run, and the highest rate that met the limit (0 if none). *)
let ladder w ~seed =
  let cfg = w.cfg in
  let rec climb k best acc =
    let rate = cfg.r0 *. (cfg.step ** float_of_int k) in
    let r = rung w ~seed ~stream:(100 + k) ~rate in
    let acc = r :: acc in
    if r.pass && k + 1 < cfg.max_rungs then climb (k + 1) r.rate acc
    else (List.rev acc, if r.pass then r.rate else best)
  in
  climb 0 0.0 []

let per_second count us =
  if us <= 0 then 0.0 else float_of_int count *. 1e6 /. float_of_int us

let completed_rps (p : phase) = per_second p.answered (p.end_us - p.start_us)

(* Requests answered per simulated second the server had work: the rate
   the open loop could sustain if the server were never idle. *)
let busy_rps (p : phase) = per_second p.answered (p.end_us - p.start_us - p.idle_us)

(* {2 Oracles after the run} *)

(* Every PUT name must read back, locally, as its last acknowledged
   body. *)
let check_puts w =
  match Directory.open_root w.fs with
  | Error _ -> fail w "root directory unreadable after the run"
  | Ok root ->
      Array.iteri
        (fun slot acked ->
          match acked with
          | None -> ()
          | Some body -> (
              let name = put_name slot in
              match Directory.lookup root name with
              | Ok (Some e) -> (
                  match File.open_leader w.fs e.Directory.entry_file with
                  | Ok file -> (
                      match File.read_bytes file ~pos:0 ~len:(File.byte_length file) with
                      | Ok b when String.equal (Bytes.to_string b) body -> ()
                      | Ok _ | Error _ ->
                          fail w (name ^ " does not hold its last acknowledged body"))
                  | Error _ -> fail w (name ^ " unopenable"))
              | Ok None | Error _ ->
                  fail w (name ^ " was acknowledged but is not catalogued")))
        w.acked

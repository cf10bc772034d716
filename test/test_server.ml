(* The concurrent file server and the standing elevator queue: admission
   control NAKs above the bounded activity table, concurrent scripted
   clients interleave deterministically (identical pack images run to
   run), no client starves under a skewed mix, the standing queue is
   byte-for-byte equivalent to the one-shot batch path, and reply send
   failures are counted instead of swallowed. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory
module Net = Alto_net.Net
module File_server = Alto_server.File_server
module Activity = Alto_server.Activity
module Obs = Alto_obs.Obs

let small = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 10 }

let addr i = Disk_address.of_index i

let check_ok pp what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %a" what pp e

let client_ok what r = check_ok File_server.Client.pp_error what r

let body seed n = String.init n (fun i -> Char.chr (32 + (((i * 11) + seed) mod 95)))

let make_file fs root name n seed =
  let file = check_ok File.pp_error "create" (File.create fs ~name) in
  if n > 0 then check_ok File.pp_error "write" (File.write_bytes file ~pos:0 (body seed n));
  check_ok File.pp_error "flush" (File.flush_leader file);
  check_ok Directory.pp_error "add" (Directory.add root ~name (File.leader_name file))

(* A registry metric's count: a counter's value, or how many values a
   histogram observed. The server's books are there, summed over every
   server, so a test reads what they gain while it runs. *)
let count name =
  match Obs.find name with
  | Some (Obs.Counter v) -> v
  | Some (Obs.Histogram s) -> s.Obs.count
  | None -> 0

let served () = count "server.get_us" + count "server.put_us" + count "server.list_us"

let pack_image drive =
  List.init (Drive.sector_count drive) (fun i ->
      let s = Drive.peek drive (addr i) in
      ( Array.to_list (Sector.part_of s Sector.Header),
        Array.to_list (Sector.part_of s Sector.Label),
        Array.to_list (Sector.part_of s Sector.Value) ))

(* {2 The standing queue vs the one-shot path}

   The same batches, issued one run_batch at a time on one pack and all
   merged into a single standing-queue sweep on an identical twin, must
   produce byte-identical packs, byte-identical read buffers and
   identical outcomes — interleaving may change only head motion. *)

let value_for i = Array.init Sector.value_words (fun k -> Word.of_int (((i * 131) + k) land 0xFFFF))

let write_direct drive i v =
  match
    Drive.run drive (addr i) { Drive.op_none with Drive.value = Some Drive.Write } ~value:v ()
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "prep write: %a" Drive.pp_error e

(* Four batches over scattered sectors; sector 17 is written by two
   different batches and read by a third, so arrival order per sector is
   part of what must match. *)
let make_batches () =
  let read_buffers = ref [] in
  let read i =
    let buf = Array.make Sector.value_words Word.zero in
    read_buffers := buf :: !read_buffers;
    Sched.request ~value:buf (addr i) { Drive.op_none with Drive.value = Some Drive.Read }
  in
  let write i seed =
    Sched.request ~value:(value_for seed) (addr i)
      { Drive.op_none with Drive.value = Some Drive.Write }
  in
  let batches =
    [|
      [| read 3; write 40 1040; read 55; write 17 1017 |];
      [| write 17 2017; read 9; write 61 1061 |];
      [| read 40; write 17 3017; read 25 |];
      [| read 17; read 61; write 5 1005 |];
    |]
  in
  (batches, fun () -> List.rev_map Array.to_list !read_buffers)

let prep_drive () =
  let drive = Drive.create ~pack_id:11 small in
  List.iter (fun i -> write_direct drive i (value_for i)) [ 3; 5; 9; 17; 25; 40; 55; 61 ];
  drive

let test_standing_matches_oneshot () =
  (* Path A: each batch is its own one-shot elevator pass. *)
  let drive_a = prep_drive () in
  let batches_a, buffers_a = make_batches () in
  let outcomes_a =
    Array.map (fun batch -> Sched.run_batch drive_a batch) batches_a
  in
  (* Path B: all four batches pend on one standing queue; one sweep. *)
  let drive_b = prep_drive () in
  let batches_b, buffers_b = make_batches () in
  let queue = Sched.create drive_b in
  let outcomes_b =
    Array.map
      (fun batch ->
        let out = Array.make (Array.length batch) { Sched.result = Ok (); retries = 0 } in
        Sched.submit_batch queue batch ~on_done:(fun i o -> out.(i) <- o);
        out)
      batches_b
  in
  Alcotest.(check int) "all requests pend before the sweep" 13 (Sched.queued queue);
  Alcotest.(check int) "one sweep serves everything" 13 (Sched.sweep queue);
  Alcotest.(check int) "queue drained" 0 (Sched.queued queue);
  let flat o = Array.to_list (Array.concat (Array.to_list o)) in
  List.iter2
    (fun (a : Sched.outcome) (b : Sched.outcome) ->
      (match (a.Sched.result, b.Sched.result) with
      | Ok (), Ok () -> ()
      | _ -> Alcotest.fail "an outcome differs between the two paths");
      Alcotest.(check int) "same retries" a.Sched.retries b.Sched.retries)
    (flat outcomes_a) (flat outcomes_b);
  Alcotest.(check bool) "identical read buffers" true (buffers_a () = buffers_b ());
  Alcotest.(check bool) "identical pack images" true
    (pack_image drive_a = pack_image drive_b)

(* {2 A scripted multi-client workload}

   The miniature of bench E18: [clients] scripted stations against a
   [slots]-bounded server, send order rotated one position per round so
   every client leads equally often. Returns everything determinism and
   fairness can be judged on. *)

type script_result = {
  r_completed : int array;
  r_naks : int array;
  r_image : (Word.t list * Word.t list * Word.t list) list;
  r_end_us : int;
}

let corpus = Array.init 6 (fun k -> (Printf.sprintf "Srv%d.dat" k, 1200, k))

let run_script ~clients ~slots ~rounds ~op_of () =
  let drive = Drive.create ~pack_id:5 small in
  let fs = Fs.format drive in
  let clock = Fs.clock fs in
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs) in
  Array.iter (fun (name, n, seed) -> make_file fs root name n seed) corpus;
  let net = Net.create ~clock () in
  let server_station = Net.attach net ~name:"fs" in
  let srv = File_server.create ~max_active:slots fs server_station in
  let served0 = served () and naks0 = count "server.naks" in
  let stations =
    Array.init clients (fun i -> Net.attach net ~name:(Printf.sprintf "c%02d" i))
  in
  let completed = Array.make clients 0 in
  let naks = Array.make clients 0 in
  let inflight = Array.make clients false in
  let send i =
    (match op_of i completed.(i) with
    | `Get k ->
        let name, _, _ = corpus.(k) in
        client_ok "send_get" (File_server.Client.send_get stations.(i) ~server:"fs" ~name)
    | `Put ->
        client_ok "send_put"
          (File_server.Client.send_put stations.(i) ~server:"fs"
             ~name:(Printf.sprintf "Cl%02d.out" i)
             (body (500 + i) 300))
    | `List -> client_ok "send_list" (File_server.Client.send_list stations.(i) ~server:"fs"));
    inflight.(i) <- true
  in
  let poll i =
    match File_server.Client.poll_reply stations.(i) with
    | None -> Alcotest.fail "a client is owed a reply"
    | Some (Error File_server.Client.Busy) ->
        naks.(i) <- naks.(i) + 1;
        inflight.(i) <- false
    | Some (Error e) -> Alcotest.failf "client %d: %a" i File_server.Client.pp_error e
    | Some (Ok reply) ->
        (match (op_of i completed.(i), reply) with
        | `Get k, File_server.Client.File (name, contents) ->
            let want_name, n, seed = corpus.(k) in
            Alcotest.(check string) "GET name" want_name name;
            Alcotest.(check string) "GET contents" (body seed n) contents
        | `Put, File_server.Client.Ack -> ()
        | `List, File_server.Client.File (name, _) ->
            Alcotest.(check string) "listing name" ";listing" name
        | _ -> Alcotest.fail "reply kind does not match the request");
        completed.(i) <- completed.(i) + 1;
        inflight.(i) <- false
  in
  for round = 0 to rounds - 1 do
    for k = 0 to clients - 1 do
      let i = (round + k) mod clients in
      if not inflight.(i) then send i
    done;
    while File_server.tick srv > 0 do
      ()
    done;
    Array.iteri (fun i f -> if f then poll i) inflight
  done;
  Alcotest.(check int) "server and clients agree on completions"
    (Array.fold_left ( + ) 0 completed)
    (served () - served0);
  Alcotest.(check int) "server and clients agree on naks"
    (Array.fold_left ( + ) 0 naks)
    (count "server.naks" - naks0);
  {
    r_completed = completed;
    r_naks = naks;
    r_image = pack_image drive;
    r_end_us = Sim_clock.now_us clock;
  }

let mixed_op i c =
  match (i + c) mod 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> `Get (((i * 7) + (c * 3)) mod Array.length corpus)
  | 6 | 7 | 8 -> `Put
  | _ -> `List

let test_interleaving_deterministic () =
  let run () = run_script ~clients:24 ~slots:6 ~rounds:12 ~op_of:mixed_op () in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check bool) "overload actually tripped" true
    (Array.fold_left ( + ) 0 r1.r_naks > 0);
  Alcotest.(check (array int)) "identical completions" r1.r_completed r2.r_completed;
  Alcotest.(check (array int)) "identical nak counts" r1.r_naks r2.r_naks;
  Alcotest.(check int) "identical simulated end time" r1.r_end_us r2.r_end_us;
  Alcotest.(check bool) "identical pack images" true (r1.r_image = r2.r_image)

(* A deliberately skewed mix — a third of the clients hammer GETs of one
   file, the rest mix — must still complete every client within 2x of
   every other over a full rotation of the send order. *)
let test_fairness_skewed () =
  let skewed i c = if i mod 3 = 0 then `Get 0 else mixed_op i c in
  let r = run_script ~clients:40 ~slots:8 ~rounds:40 ~op_of:skewed () in
  let c_min = Array.fold_left min max_int r.r_completed in
  let c_max = Array.fold_left max 0 r.r_completed in
  Alcotest.(check bool) "no client starved" true (c_min > 0);
  Alcotest.(check bool) "admission refused some requests" true
    (Array.fold_left ( + ) 0 r.r_naks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fairness within 2x (min %d, max %d)" c_min c_max)
    true
    (float_of_int c_max /. float_of_int c_min <= 2.0)

(* {2 Admission control} *)

let nak_setup () =
  let drive = Drive.create ~pack_id:6 small in
  let fs = Fs.format drive in
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs) in
  make_file fs root "A.dat" 800 1;
  let net = Net.create ~clock:(Fs.clock fs) () in
  let station = Net.attach net ~name:"fs" in
  (fs, net, station)

let test_naks_when_table_full () =
  let fs, net, station = nak_setup () in
  let srv = File_server.create ~max_active:2 fs station in
  let naks0 = count "server.naks" and gets0 = count "server.get_us" in
  let clients = Array.init 5 (fun i -> Net.attach net ~name:(Printf.sprintf "c%d" i)) in
  Array.iter
    (fun st -> client_ok "send" (File_server.Client.send_get st ~server:"fs" ~name:"A.dat"))
    clients;
  (* One tick admits everything pending: two spawn, three are refused at
     the door — before any of the admitted conversations completes. *)
  ignore (File_server.tick srv : int);
  Alcotest.(check int) "three naks" 3 (count "server.naks" - naks0);
  Alcotest.(check int) "nothing completed yet" 0 (count "server.get_us" - gets0);
  let busy, files =
    Array.fold_left
      (fun (busy, files) st ->
        match File_server.Client.poll_reply st with
        | Some (Error File_server.Client.Busy) -> (busy + 1, files)
        | Some (Ok (File_server.Client.File _)) -> (busy, files + 1)
        | _ -> (busy, files))
      (0, 0) clients
  in
  Alcotest.(check int) "three clients hear busy immediately" 3 busy;
  Alcotest.(check int) "no file has been served yet" 0 files;
  while File_server.tick srv > 0 do
    ()
  done;
  let served =
    Array.fold_left
      (fun n st ->
        match File_server.Client.poll_reply st with
        | Some (Ok (File_server.Client.File (_, contents))) ->
            Alcotest.(check string) "contents" (body 1 800) contents;
            n + 1
        | _ -> n)
      0 clients
  in
  Alcotest.(check int) "the two admitted conversations complete" 2 served;
  Alcotest.(check int) "two gets" 2 (count "server.get_us" - gets0)

(* {2 The send-error counter}

   A reply the network refuses to carry must land in [server.send_errors],
   not vanish. A GET for a 500-character name fits in a request packet,
   but the server's "no file" error reply does not — the send fails, and
   the failure is counted. *)

let test_send_failures_counted () =
  let fs, net, station = nak_setup () in
  let srv = File_server.create fs station in
  let client = Net.attach net ~name:"long" in
  let before = count "server.send_errors" and errors0 = count "server.errors" in
  let name = String.make 500 'x' in
  client_ok "send" (File_server.Client.send_get client ~server:"fs" ~name);
  while File_server.tick srv > 0 do
    ()
  done;
  Alcotest.(check int) "the error reply failed to send" (before + 1)
    (count "server.send_errors");
  Alcotest.(check int) "the request still counts as an error" (errors0 + 1)
    (count "server.errors");
  (match File_server.Client.poll_reply client with
  | None -> ()
  | Some _ -> Alcotest.fail "no reply should have made it onto the wire");
  (* The server is healthy afterwards: a sane request still works. *)
  let got =
    client_ok "fetch"
      (File_server.Client.fetch client ~server:"fs" ~name:"A.dat"
         ~pump:(fun () -> ignore (File_server.tick srv : int)))
  in
  Alcotest.(check string) "subsequent service intact" (body 1 800) got

(* {2 Timeout closes the request trace}

   A client whose bounded poll runs dry must not leak an open trace: the
   await path closes the station's active trace as abandoned and counts
   it, so `requests` and the flight record show a finished conversation
   with a verdict, not a zombie. *)

module Trace = Alto_obs.Trace

let test_timeout_abandons_trace () =
  Alto_obs.Obs.reset ();
  let fs, net, station = nak_setup () in
  (* The server exists but is never pumped: the fetch can only time out. *)
  let srv = File_server.create fs station in
  let client = Net.attach net ~name:"patient" in
  (match
     File_server.Client.fetch ~max_polls:5 client ~server:"fs" ~name:"A.dat"
       ~pump:(fun () -> ())
   with
  | Error File_server.Client.Timeout -> ()
  | Ok _ -> Alcotest.fail "an unpumped server cannot have answered"
  | Error e -> Alcotest.failf "expected Timeout, got %a" File_server.Client.pp_error e);
  Alcotest.(check int) "abandonment counted" 1 (count "server.traces_abandoned");
  Alcotest.(check int) "timeout counted" 1 (count "server.client_timeouts");
  Alcotest.(check bool) "no open trace left behind" true
    (Trace.find_active ~origin:"patient" = None);
  (match Trace.infos () with
  | [ i ] ->
      Alcotest.(check string) "closed as abandoned" "abandoned" i.Trace.status;
      Alcotest.(check string) "it was the fetch" "get A.dat" i.Trace.name
  | infos -> Alcotest.failf "expected exactly one trace, got %d" (List.length infos));
  (* The request is still pending on the server; serving it now sends a
     reply stamped with the abandoned trace — consuming it must not
     resurrect or double-count the closed conversation. *)
  while File_server.tick srv > 0 do
    ()
  done;
  (match File_server.Client.poll_reply client with
  | Some (Ok (File_server.Client.File (_, contents))) ->
      Alcotest.(check string) "late reply still correct" (body 1 800) contents
  | _ -> Alcotest.fail "the late reply never surfaced");
  Alcotest.(check int) "late reply resurrects nothing" 0 (Trace.active_count ());
  Alcotest.(check int) "abandoned, not completed" 0 (count "trace.completed");
  (* A later request on the same station gets a fresh trace and a clean
     completion. *)
  let got =
    client_ok "fetch after timeout"
      (File_server.Client.fetch client ~server:"fs" ~name:"A.dat"
         ~pump:(fun () -> ignore (File_server.tick srv : int)))
  in
  Alcotest.(check string) "service intact" (body 1 800) got;
  Alcotest.(check int) "the fresh conversation completed" 1
    (count "trace.completed");
  Alcotest.(check int) "still exactly one abandonment" 1
    (count "server.traces_abandoned")

(* {2 PUT}

   A PUT whose name the catalogue refuses draws an error reply and
   leaves no file behind; an acknowledged PUT's body is on the platter,
   not waiting in the track buffers. *)

let test_put_bad_name_leaks_nothing () =
  let fs, net, station = nak_setup () in
  let srv = File_server.create fs station in
  let client = Net.attach net ~name:"cli" in
  let free0 = Fs.free_count fs and errors0 = count "server.errors" in
  (match
     File_server.Client.store client ~server:"fs" ~name:"" "doomed"
       ~pump:(fun () -> ignore (File_server.tick srv : int))
   with
  | Error (File_server.Client.Remote _) -> ()
  | Ok () -> Alcotest.fail "a PUT named \"\" must be refused"
  | Error e -> Alcotest.failf "expected an error reply, got %a" File_server.Client.pp_error e);
  Alcotest.(check int) "no pages leaked" free0 (Fs.free_count fs);
  Alcotest.(check int) "counted as an error" (errors0 + 1) (count "server.errors")

let test_put_durable_at_ack () =
  let fs, net, station = nak_setup () in
  let srv = File_server.create fs station in
  let client = Net.attach net ~name:"cli" in
  let root = check_ok Directory.pp_error "root" (Directory.open_root fs) in
  let read name =
    Option.map
      (fun e ->
        let file = check_ok File.pp_error "open" (File.open_leader fs e.Directory.entry_file) in
        let n = File.byte_length file in
        Bytes.to_string (check_ok File.pp_error "read" (File.read_bytes file ~pos:0 ~len:n)))
      (check_ok Directory.pp_error "lookup" (Directory.lookup root name))
  in
  let put name n seed =
    (* A local read first buffers the file's track, where an absorbable
       write would wait for a flush. *)
    ignore (read name);
    client_ok "store"
      (File_server.Client.store client ~server:"fs" ~name (body seed n)
         ~pump:(fun () -> ignore (File_server.tick srv : int)))
  in
  put "A.dat" 800 2;
  put "B.dat" 1300 4;
  put "B.dat" 1000 6;
  (* Power fails: whatever only the track buffers held is gone. *)
  Alto_fs.Bio.clear (Fs.bio fs);
  Alcotest.(check (option string)) "A.dat as acknowledged" (Some (body 2 800)) (read "A.dat");
  Alcotest.(check (option string)) "B.dat as acknowledged" (Some (body 6 1000)) (read "B.dat")

(* {2 OS wiring: the ServerTick service and the executive's serve command} *)

module System = Alto_os.System
module Executive = Alto_os.Executive
module Keyboard = Alto_streams.Keyboard
module Display = Alto_streams.Display

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.equal (String.sub haystack i n) needle || go (i + 1)) in
  go 0

(* A PUT arrives over the wire before the executive runs; `serve` pumps
   the attached server through level-5 service 23, and the stored file
   is then visible to ordinary commands on the same volume. *)

let test_serve_command_pumps_server () =
  let system = System.boot ~geometry:small () in
  let fs = System.fs system in
  let net = Net.create ~clock:(Fs.clock fs) () in
  let srv = File_server.create fs (Net.attach net ~name:"fs") in
  System.set_server_tick system (fun () -> File_server.tick srv);
  let client = Net.attach net ~name:"cli" in
  let puts0 = count "server.put_us" in
  client_ok "send_put"
    (File_server.Client.send_put client ~server:"fs" ~name:"Remote.txt" "from the wire");
  Keyboard.feed (System.keyboard system) "serve\nls\ntype Remote.txt\nquit\n";
  let outcome = Executive.run system in
  Alcotest.(check bool) "clean quit" true outcome.Executive.quit;
  (match File_server.Client.poll_reply client with
  | Some (Ok File_server.Client.Ack) -> ()
  | Some (Ok _) -> Alcotest.fail "expected an Ack"
  | Some (Error e) -> Alcotest.failf "put failed: %a" File_server.Client.pp_error e
  | None -> Alcotest.fail "serve left the PUT unanswered");
  let text = Display.contents (System.display system) in
  Alcotest.(check bool) "serve reported progress" true (contains_sub text "units of progress");
  Alcotest.(check bool) "ls shows the stored file" true (contains_sub text "Remote.txt");
  Alcotest.(check bool) "type reads it back" true (contains_sub text "from the wire");
  Alcotest.(check int) "one put served" (puts0 + 1) (count "server.put_us")

let () =
  Alcotest.run "alto server"
    [
      ( "standing queue",
        [ ("matches one-shot run_batch", `Quick, test_standing_matches_oneshot) ] );
      ( "determinism",
        [ ("interleaving replays exactly", `Quick, test_interleaving_deterministic) ] );
      ("fairness", [ ("skewed mix within 2x", `Quick, test_fairness_skewed) ]);
      ("admission", [ ("naks when table full", `Quick, test_naks_when_table_full) ]);
      ( "send errors",
        [ ("undeliverable replies counted", `Quick, test_send_failures_counted) ] );
      ( "timeouts",
        [ ("timeout abandons the trace", `Quick, test_timeout_abandons_trace) ] );
      ( "put",
        [
          ("a refused name leaks no file", `Quick, test_put_bad_name_leaks_nothing);
          ("the body is on the platter at the ack", `Quick, test_put_durable_at_ack);
        ] );
      ( "os wiring",
        [ ("serve command pumps the server", `Quick, test_serve_command_pumps_server) ] );
    ]

(* Request-scoped causal tracing: deterministic ids, context save and
   restore across activity switches, exact disk attribution through
   shared elevator sweeps (per-sector exact, entry seek pro-rated), the
   remote-span dedup that keeps a lying wire from double-billing, and
   the Chrome trace_event export — schema-checked and byte-identical
   across replays of the same seeded workload. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Activity = Alto_server.Activity
module Obs = Alto_obs.Obs
module Trace = Alto_obs.Trace
module Json = Alto_obs.Json

let small = { Geometry.diablo_31 with Geometry.model = "small"; cylinders = 10 }

let addr i = Disk_address.of_index i

let counter name =
  match Obs.find name with
  | Some (Obs.Counter v) -> v
  | Some (Obs.Histogram _) | None -> 0

let motion_total () =
  counter "disk.seek_us" + counter "disk.rotational_wait_us"
  + counter "disk.transfer_us"

let accounted_total () =
  let a_s, a_r, a_x = Trace.attributed () in
  let u_s, u_r, u_x = Trace.untraced () in
  a_s + a_r + a_x + u_s + u_r + u_x

(* {2 Lifecycle} *)

let test_lifecycle () =
  Obs.reset ();
  let clock = Sim_clock.create () in
  let ctx = Trace.start ~clock ~origin:"cli" ~name:"get A." in
  Trace.mark ctx "admitted";
  Sim_clock.advance_us clock 100;
  Trace.finish ctx ~status:"replied";
  (* A second finish — a duplicate reply, a late timeout — is a no-op. *)
  Sim_clock.advance_us clock 50;
  Trace.finish ctx ~status:"error";
  (match Trace.infos () with
  | [ i ] ->
      Alcotest.(check int) "id minted from the sequence" 1 i.Trace.id;
      Alcotest.(check string) "status" "replied" i.Trace.status;
      Alcotest.(check int) "closed at first finish" 100 i.Trace.end_us;
      Alcotest.(check (list string)) "timeline"
        [ "queued"; "admitted"; "replied" ]
        (List.map fst i.Trace.marks)
  | infos -> Alcotest.failf "expected one trace, got %d" (List.length infos));
  Alcotest.(check int) "started" 1 (counter "trace.started");
  Alcotest.(check int) "completed once" 1 (counter "trace.completed");
  Alcotest.(check int) "one span" 1 (counter "trace.spans");
  Alcotest.(check int) "nothing open" 0 (Trace.active_count ())

let test_ids_replay_after_reset () =
  Obs.reset ();
  let clock = Sim_clock.create () in
  let a = Trace.start ~clock ~origin:"x" ~name:"first" in
  let b = Trace.start ~clock ~origin:"x" ~name:"second" in
  Obs.reset ();
  let a' = Trace.start ~clock ~origin:"x" ~name:"first" in
  let b' = Trace.start ~clock ~origin:"x" ~name:"second" in
  Alcotest.(check bool) "same ids on replay" true (a = a' && b = b')

let test_find_active () =
  Obs.reset ();
  let clock = Sim_clock.create () in
  let old_ = Trace.start ~clock ~origin:"cli" ~name:"old" in
  let young = Trace.start ~clock ~origin:"cli" ~name:"young" in
  let _other = Trace.start ~clock ~origin:"other" ~name:"x" in
  (match Trace.find_active ~origin:"cli" with
  | Some c -> Alcotest.(check int) "newest open wins" young.Trace.trace c.Trace.trace
  | None -> Alcotest.fail "no active trace found");
  Trace.finish young ~status:"replied";
  (match Trace.find_active ~origin:"cli" with
  | Some c -> Alcotest.(check int) "closed ones excluded" old_.Trace.trace c.Trace.trace
  | None -> Alcotest.fail "the older trace is still open");
  Trace.finish old_ ~status:"replied";
  Alcotest.(check bool) "none left" true (Trace.find_active ~origin:"cli" = None)

(* {2 The wire representation and remote spans} *)

let test_wire_roundtrip () =
  Obs.reset ();
  let clock = Sim_clock.create () in
  Alcotest.(check bool) "no context, null pair" true (Trace.wire () = (0, 0));
  Alcotest.(check bool) "null pair, no context" true (Trace.of_wire (0, 0) = None);
  let ctx = Trace.start ~clock ~origin:"a" ~name:"op" in
  Trace.with_current (Some ctx) (fun () ->
      Alcotest.(check bool) "stamped from current" true
        (Trace.wire () = (ctx.Trace.trace, ctx.Trace.span)));
  Alcotest.(check bool) "round trip" true (Trace.of_wire (ctx.Trace.trace, ctx.Trace.span) = Some ctx)

let test_remote_dedup () =
  Obs.reset ();
  let clock = Sim_clock.create () in
  let ctx = Trace.start ~clock ~origin:"a" ~name:"audit" in
  let ran_under = ref None in
  Trace.remote ctx ~key:"digest:1:b" ~name:"digest@b" (fun () ->
      ran_under := Trace.current ());
  (match !ran_under with
  | Some c ->
      Alcotest.(check int) "child span joins the trace" ctx.Trace.trace c.Trace.trace;
      Alcotest.(check bool) "under a fresh span" true (c.Trace.span <> ctx.Trace.span)
  | None -> Alcotest.fail "remote body ran without a context");
  Alcotest.(check int) "two spans now" 2 (counter "trace.spans");
  (* The same key again — a duplicated packet — runs unbilled. *)
  Trace.remote ctx ~key:"digest:1:b" ~name:"digest@b" (fun () ->
      Alcotest.(check bool) "duplicate runs with no context" true
        (Trace.current () = None));
  Alcotest.(check int) "dup counted" 1 (counter "trace.remote_dups");
  Alcotest.(check int) "no third span" 2 (counter "trace.spans");
  (* A different responder answering the same sequence is new work. *)
  Trace.remote ctx ~key:"digest:1:c" ~name:"digest@c" (fun () -> ());
  Alcotest.(check int) "distinct key billed" 3 (counter "trace.spans")

(* {2 Attribution through the scheduler} *)

let read_req i =
  let buf = Array.make Sector.value_words Word.zero in
  Sched.request ~value:buf (addr i) { Drive.op_none with Drive.value = Some Drive.Read }

(* Two requests' batches land on the same far cylinder: the sweep's one
   entry seek is pro-rated across all four sectors' waiters, per-sector
   rotation and transfer stay exact, and the books balance against the
   drive's own motion counters to the microsecond. *)
let test_sweep_apportions_exactly () =
  Obs.reset ();
  let drive = Drive.create ~pack_id:2 small in
  let clock = Drive.clock drive in
  let queue = Sched.create drive in
  let ctx1 = Trace.start ~clock ~origin:"c1" ~name:"read far" in
  let ctx2 = Trace.start ~clock ~origin:"c2" ~name:"read far too" in
  let submit ctx sectors =
    Trace.with_current (Some ctx) (fun () ->
        Sched.submit_batch queue
          (Array.of_list (List.map read_req sectors))
          ~on_done:(fun _ _ -> ()))
  in
  (* Cylinder 5 of a 24-sector cylinder: indices 120..123. *)
  submit ctx1 [ 120; 121 ];
  submit ctx2 [ 122; 123 ];
  Alcotest.(check int) "one sweep serves all four" 4 (Sched.sweep queue);
  Trace.finish ctx1 ~status:"done";
  Trace.finish ctx2 ~status:"done";
  Alcotest.(check bool) "the entry seek was shared" true
    (counter "disk.sched.prorated_seek_us" > 0);
  let infos = Trace.infos () in
  let info id = List.find (fun i -> i.Trace.id = id) infos in
  let i1 = info ctx1.Trace.trace and i2 = info ctx2.Trace.trace in
  Alcotest.(check bool) "both billed for seek" true
    (i1.Trace.seek_us > 0 && i2.Trace.seek_us > 0);
  Alcotest.(check bool) "both billed for transfer" true
    (i1.Trace.transfer_us > 0 && i2.Trace.transfer_us > 0);
  Alcotest.(check int) "books balance to the microsecond" (motion_total ())
    (accounted_total ());
  Alcotest.(check int) "attributed is per-trace exactly"
    (let a_s, a_r, a_x = Trace.attributed () in
     a_s + a_r + a_x)
    (i1.Trace.seek_us + i1.Trace.rotation_us + i1.Trace.transfer_us
    + i2.Trace.seek_us + i2.Trace.rotation_us + i2.Trace.transfer_us)

(* Motion with no current context must land in the untraced bucket, not
   vanish: the balance holds whether or not anyone is tracing. *)
let test_untraced_motion_balances () =
  Obs.reset ();
  let drive = Drive.create ~pack_id:4 small in
  let value = Array.make Sector.value_words Word.zero in
  (match
     Drive.run drive (addr 200)
       { Drive.op_none with Drive.value = Some Drive.Read }
       ~value ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "read: %a" Drive.pp_error e);
  let u_s, u_r, u_x = Trace.untraced () in
  Alcotest.(check bool) "motion happened" true (motion_total () > 0);
  Alcotest.(check int) "all of it untraced" (motion_total ()) (u_s + u_r + u_x);
  Alcotest.(check bool) "nothing attributed" true (Trace.attributed () = (0, 0, 0))

(* {2 Context flows through activity switches} *)

let run_two_activities () =
  let drive = Drive.create ~pack_id:3 small in
  let clock = Drive.clock drive in
  let queue = Sched.create drive in
  let acts = Activity.create ~max_active:16 ~queue clock in
  let ctx_a = Trace.start ~clock ~origin:"a" ~name:"conv a" in
  let ctx_b = Trace.start ~clock ~origin:"b" ~name:"conv b" in
  let spawn ctx name sectors =
    if
      not
        (Trace.with_current (Some ctx) (fun () ->
             Activity.spawn acts ~name (fun () ->
                 Activity.Yield
                   (fun () ->
                     Activity.Await_disk
                       {
                         requests = Array.of_list (List.map read_req sectors);
                         resume = (fun _ -> Activity.Finished);
                       }))))
    then Alcotest.fail "spawn refused"
  in
  spawn ctx_a "a" [ 120; 121 ];
  spawn ctx_b "b" [ 122; 50 ];
  Activity.run_until_idle acts;
  Trace.finish ctx_a ~status:"done";
  Trace.finish ctx_b ~status:"done";
  (ctx_a, ctx_b)

let test_activity_context_isolation () =
  Obs.reset ();
  let ctx_a, ctx_b = run_two_activities () in
  Alcotest.(check bool) "no context leaks out of the scheduler" true
    (Trace.current () = None);
  let infos = Trace.infos () in
  let info id = List.find (fun i -> i.Trace.id = id) infos in
  List.iter
    (fun ctx ->
      let i = info ctx.Trace.trace in
      Alcotest.(check bool)
        (i.Trace.name ^ " parked on the standing queue")
        true
        (List.mem_assoc "disk-parked" i.Trace.marks);
      Alcotest.(check bool)
        (i.Trace.name ^ " served by the shared sweep")
        true
        (List.mem_assoc "sweep-served" i.Trace.marks);
      Alcotest.(check bool) (i.Trace.name ^ " billed for its pages") true
        (i.Trace.transfer_us > 0))
    [ ctx_a; ctx_b ];
  (* The C-SCAN sweep reaches b's cylinder-2 sector first; a's cylinder-5
     pages are served only after that service time, so a demonstrably
     waited in the queue. (b's wait may be zero: the sweep starts the
     instant it parks.) *)
  Alcotest.(check bool) "the later-served conversation waited" true
    ((info ctx_a.Trace.trace).Trace.wait_us > 0);
  Alcotest.(check int) "books balance across the interleaving"
    (motion_total ()) (accounted_total ())

(* {2 The Chrome export} *)

let member name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_chrome_schema () =
  Obs.reset ();
  let _ = run_two_activities () in
  let doc = Trace.chrome_json () in
  (match member "displayTimeUnit" doc with
  | Some (Json.String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit must be \"ms\"");
  let events =
    match member "traceEvents" doc with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "traceEvents must be a list"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  let phases = ref [] in
  List.iter
    (fun e ->
      (match member "pid" e with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail "every event carries pid 1");
      (match member "tid" e with
      | Some (Json.Int tid) when tid > 0 -> ()
      | _ -> Alcotest.fail "every event carries a positive tid");
      match member "ph" e with
      | Some (Json.String "M") -> (
          phases := "M" :: !phases;
          match member "args" e with
          | Some (Json.Obj [ ("name", Json.String _) ]) -> ()
          | _ -> Alcotest.fail "metadata events name their thread")
      | Some (Json.String "X") -> (
          phases := "X" :: !phases;
          (match (member "ts" e, member "dur" e) with
          | Some (Json.Int ts), Some (Json.Int dur) when ts >= 0 && dur >= 0 -> ()
          | _ -> Alcotest.fail "complete events carry non-negative ts and dur");
          match member "name" e with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.fail "complete events are named")
      | Some (Json.String "i") -> (
          phases := "i" :: !phases;
          match member "ts" e with
          | Some (Json.Int ts) when ts >= 0 -> ()
          | _ -> Alcotest.fail "instants carry a non-negative ts")
      | _ -> Alcotest.fail "unknown phase")
    events;
  List.iter
    (fun ph ->
      Alcotest.(check bool) ("a " ^ ph ^ " event exists") true
        (List.mem ph !phases))
    [ "M"; "X"; "i" ];
  (* The root span of some trace must expose the decomposition. *)
  let has_decomposition =
    List.exists
      (fun e ->
        match member "args" e with
        | Some args ->
            member "wait_us" args <> None
            && member "service_us" args <> None
            && member "seek_us" args <> None
        | None -> false)
      events
  in
  Alcotest.(check bool) "a root span carries wait/service/disk args" true
    has_decomposition

let test_export_byte_identical () =
  let run () =
    Obs.reset ();
    let _ = run_two_activities () in
    Json.to_string (Trace.chrome_json ())
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check string) "replay exports the same bytes" r1 r2

let () =
  Alcotest.run "alto trace"
    [
      ( "lifecycle",
        [
          ("start, mark, finish, idempotent", `Quick, test_lifecycle);
          ("ids replay after reset", `Quick, test_ids_replay_after_reset);
          ("find_active picks the newest open", `Quick, test_find_active);
        ] );
      ( "wire",
        [
          ("wire round trip", `Quick, test_wire_roundtrip);
          ("remote spans dedup by key", `Quick, test_remote_dedup);
        ] );
      ( "attribution",
        [
          ("shared sweep apportions exactly", `Quick, test_sweep_apportions_exactly);
          ("untraced motion balances", `Quick, test_untraced_motion_balances);
        ] );
      ( "activities",
        [ ("context isolated per activity", `Quick, test_activity_context_isolation) ] );
      ( "export",
        [
          ("chrome trace_event schema", `Quick, test_chrome_schema);
          ("byte-identical replay", `Quick, test_export_byte_identical);
        ] );
    ]

(* The sweep path's machinery: the elevator's order, pinned against the
   tuple sort it was first written as, and what a whole-pack sweep
   allocates. *)

module Word = Alto_machine.Word
module Sim_clock = Alto_machine.Sim_clock
module Geometry = Alto_disk.Geometry
module Disk_address = Alto_disk.Disk_address
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Sweep = Alto_fs.Sweep

(* {2 The elevator's order against a reference}

   The reference is the elevator as a tuple sort: (cylinder rank from
   the heads' cylinder, head, slot, submission number) for the pass, then
   within each cylinder (head, slot counted from [Drive.catch_slot],
   submission number), compared with [compare]. It serves the same
   requests on a twin drive, one [Drive.run] each. *)

let read_op = { Drive.op_none with Drive.value = Some Drive.Read }

(* Serve [addrs], numbered in submission order, on [drive] in the
   reference order; [served i] after each. *)
let reference drive addrs served =
  let g = Drive.geometry drive in
  let spt = g.Geometry.sectors_per_track in
  let cylinders = g.Geometry.cylinders in
  let start = Drive.current_cylinder drive in
  let order =
    Array.mapi
      (fun i a ->
        let c, h, s = Disk_address.chs g a in
        ((c - start + cylinders) mod cylinders, h, s, i))
      addrs
  in
  Array.sort compare order;
  let value = Array.make Sector.value_words Word.zero in
  let pos = ref 0 in
  while !pos < Array.length order do
    let rank, _, _, first = order.(!pos) in
    let stop = ref !pos in
    while
      !stop < Array.length order
      && (let r, _, _, _ = order.(!stop) in r = rank)
    do
      incr stop
    done;
    let cylinder, _, _ = Disk_address.chs g addrs.(first) in
    let catch = Drive.catch_slot drive ~cylinder in
    let run = Array.sub order !pos (!stop - !pos) in
    Array.sort
      (fun (_, h1, s1, q1) (_, h2, s2, q2) ->
        compare (h1, (s1 - catch + spt) mod spt, q1) (h2, (s2 - catch + spt) mod spt, q2))
      run;
    Array.iter
      (fun (_, _, _, i) ->
        match Drive.run drive addrs.(i) read_op ~value () with
        | Ok () -> served i
        | Error e -> Alcotest.failf "reference read: %a" Drive.pp_error e)
      run;
    pos := !stop
  done

type case = {
  model_44 : bool;
  heads_at : int;  (* the heads' cylinder when the sweep begins *)
  phase : int;  (* µs into a revolution *)
  one_shot : bool;  (* a single [run_batch] of every batch, in order *)
  batches : (int * int * int) list list;  (* (cylinder, head, slot) *)
}

let geometry c = if c.model_44 then Geometry.diablo_44 else Geometry.diablo_31

(* Few cylinders and a small pool of addresses, so cylinder runs hold
   several requests and addresses repeat within and across batches. *)
let gen_case =
  let open QCheck.Gen in
  let* model_44 = bool in
  let cylinders = (if model_44 then Geometry.diablo_44 else Geometry.diablo_31).Geometry.cylinders in
  let* heads_at = int_bound (cylinders - 1) in
  let* phase = int_bound 39_999 in
  let* one_shot = bool in
  let* pool_cylinders = list_size (int_range 1 5) (int_bound (cylinders - 1)) in
  let* pool =
    list_size (int_range 1 30)
      (triple (oneofl pool_cylinders) (int_bound 1) (int_bound 11))
  in
  let* batches = list_size (int_range 1 5) (list_size (int_range 1 12) (oneofl pool)) in
  return { model_44; heads_at; phase; one_shot; batches }

let print_case c =
  Printf.sprintf "%s heads at %d, phase %d µs, %s: %s"
    (if c.model_44 then "Model 44" else "Model 31")
    c.heads_at c.phase
    (if c.one_shot then "one run_batch" else "standing queue")
    (String.concat " | "
       (List.map
          (fun b -> String.concat " " (List.map (fun (c, h, s) -> Printf.sprintf "%d/%d/%d" c h s) b))
          c.batches))

(* One drive per model for the real scheduler and one for the
   reference, reused across cases: a case starts both at the same
   instant with the heads on the same cylinder. *)
let drives =
  let make g = (Drive.create ~pack_id:1 g, Drive.create ~pack_id:1 g) in
  let d31 = lazy (make Geometry.diablo_31) and d44 = lazy (make Geometry.diablo_44) in
  fun c -> Lazy.force (if c.model_44 then d44 else d31)

let start c drive =
  let g = Drive.geometry drive in
  let park = Disk_address.of_chs g ~cylinder:c.heads_at ~head:0 ~sector:0 in
  (match Drive.run drive park read_op ~value:(Array.make Sector.value_words Word.zero) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parking the heads: %a" Drive.pp_error e);
  Sim_clock.reset (Drive.clock drive);
  Sim_clock.advance_us (Drive.clock drive) c.phase

let same_order_as_reference c =
  let g = geometry c in
  let real, twin = drives c in
  start c real;
  start c twin;
  let batches =
    List.map
      (fun b ->
        Array.of_list
          (List.map
             (fun (cylinder, head, sector) -> Disk_address.of_chs g ~cylinder ~head ~sector)
             b))
      c.batches
  in
  let request a = Sched.request ~value:(Array.make Sector.value_words Word.zero) a read_op in
  (* Completions as (batch, index within the batch), in the order they
     happen. *)
  let got = ref [] in
  let record b i (o : Sched.outcome) =
    match o.Sched.result with
    | Ok () -> got := (b, i) :: !got
    | Error e -> Alcotest.failf "scheduled read: %a" Drive.pp_error e
  in
  (if c.one_shot then
     ignore
       (Sched.run_batch real ~on_done:(record 0) (Array.map request (Array.concat batches))
         : Sched.outcome array)
   else
     let q = Sched.create real in
     List.iteri
       (fun b addrs -> Sched.submit_batch q (Array.map request addrs) ~on_done:(record b))
       batches;
     ignore (Sched.sweep q : int));
  let owner =
    if c.one_shot then Array.mapi (fun i _ -> (0, i)) (Array.concat batches)
    else Array.concat (List.mapi (fun b addrs -> Array.mapi (fun i _ -> (b, i)) addrs) batches)
  in
  let expected = ref [] in
  reference twin (Array.concat batches) (fun i -> expected := owner.(i) :: !expected);
  List.rev !got = List.rev !expected
  && Sim_clock.now_us (Drive.clock real) = Sim_clock.now_us (Drive.clock twin)

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 36

let prop_order =
  QCheck.Test.make ~name:"the elevator serves in the reference tuple order" ~count:300
    (QCheck.make ~print:print_case gen_case)
    same_order_as_reference

(* {2 What a whole-pack sweep allocates}

   A sweep keeps a verdict per sector: its class and whether the value
   read back. The requests share one op and the probe buffers, a
   first-attempt success shares one outcome, and the elevator sorts
   ints. *)

let filled_pack () =
  let drive = Drive.create ~pack_id:36 Geometry.diablo_31 in
  let fs = Fs.format drive in
  let total = Drive.sector_count drive in
  let serial = ref 0 in
  while 4 * (total - Fs.free_count fs) < 3 * total do
    incr serial;
    let file =
      match File.create fs ~name:(Printf.sprintf "Fill%03d.dat" !serial) with
      | Ok f -> f
      | Error e -> Alcotest.failf "create: %a" File.pp_error e
    in
    match File.write_bytes file ~pos:0 (String.make (40 * Sector.bytes_per_page) 'f') with
    | Ok () -> ()
    | Error e -> Alcotest.failf "write: %a" File.pp_error e
  done;
  (match Fs.flush fs with Ok () -> () | Error _ -> Alcotest.fail "flush");
  drive

let test_sweep_allocation () =
  let drive = filled_pack () in
  let sectors = Drive.sector_count drive in
  ignore (Sweep.run drive : Sweep.t);
  let before = Gc.minor_words () in
  let sweep = Sweep.run drive in
  let words = Gc.minor_words () -. before in
  let live =
    Array.fold_left
      (fun n cls -> match cls with Sweep.Live _ -> n + 1 | _ -> n)
      0 sweep.Sweep.classes
  in
  Alcotest.(check bool) "three quarters of the pack is live" true (4 * live >= 3 * sectors - 24);
  let per_sector = words /. float_of_int sectors in
  if per_sector > 64. then
    Alcotest.failf "a whole-pack sweep allocated %.1f minor words a sector (at most 64)"
      per_sector

let () =
  Alcotest.run "alto sweep"
    [
      ( "elevator",
        [
          QCheck_alcotest.to_alcotest ~verbose:false
            ~rand:(Random.State.make [| qcheck_seed |])
            prop_order;
        ] );
      ( "allocation",
        [ Alcotest.test_case "a whole-pack sweep: at most 64 words a sector" `Quick test_sweep_allocation ] );
    ]

(* Zones: the free-storage objects, including survival across a memory
   image snapshot/restore (the world-swap property). *)

module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Zone = Alto_zones.Zone

let make_zone ?(pos = 1000) ?(len = 500) () =
  let memory = Memory.create () in
  (memory, Zone.format ~name:"test" memory ~pos ~len)

let test_allocate_release () =
  let _m, z = make_zone () in
  let a = Zone.allocate z 10 in
  let b = Zone.allocate z 20 in
  Alcotest.(check bool) "disjoint" true (b >= a + 10 || a >= b + 20);
  Alcotest.(check int) "block size" 10 (Zone.block_size z a);
  Zone.release z a;
  Zone.release z b;
  let s = Zone.stats z in
  Alcotest.(check int) "no live blocks" 0 s.Zone.live_blocks;
  Alcotest.(check int) "coalesced back to one block" 1 s.Zone.free_blocks

let test_contents_are_usable_memory () =
  let m, z = make_zone () in
  let a = Zone.allocate z 4 in
  Memory.write m a (Word.of_int 111);
  Memory.write m (a + 3) (Word.of_int 222);
  Alcotest.(check int) "word 0" 111 (Word.to_int (Memory.read m a));
  Alcotest.(check int) "word 3" 222 (Word.to_int (Memory.read m (a + 3)))

let test_out_of_space () =
  let _m, z = make_zone ~len:50 () in
  match Zone.allocate z 100 with
  | exception Zone.Out_of_space _ -> ()
  | _ -> Alcotest.fail "allocated beyond the region"

let test_exhaust_then_recover () =
  let _m, z = make_zone ~len:100 () in
  let rec grab acc =
    match Zone.allocate z 8 with
    | a -> grab (a :: acc)
    | exception Zone.Out_of_space _ -> acc
  in
  let blocks = grab [] in
  Alcotest.(check bool) "several blocks" true (List.length blocks >= 8);
  List.iter (Zone.release z) blocks;
  let s = Zone.stats z in
  Alcotest.(check int) "all free again" 1 s.Zone.free_blocks;
  (* The whole region minus descriptor minus one block header is again
     allocatable. *)
  let big = Zone.allocate z s.Zone.largest_free in
  Alcotest.(check bool) "largest_free honest" true (big > 0)

let test_coalescing_order_independent () =
  let _m, z = make_zone () in
  let a = Zone.allocate z 10 in
  let b = Zone.allocate z 10 in
  let c = Zone.allocate z 10 in
  (* Release middle, then ends: must coalesce into one block. *)
  Zone.release z b;
  Zone.release z a;
  Zone.release z c;
  Alcotest.(check int) "one free block" 1 (Zone.stats z).Zone.free_blocks

let test_double_free_detected () =
  let _m, z = make_zone () in
  let a = Zone.allocate z 10 in
  Zone.release z a;
  match Zone.release z a with
  | exception Zone.Corrupt _ -> ()
  | () -> Alcotest.fail "double free accepted"

let test_attach_after_restore () =
  (* A zone lives entirely inside the memory image, so it survives a
     snapshot/restore — the InLoad/OutLoad property. *)
  let m, z = make_zone () in
  let a = Zone.allocate z 12 in
  Memory.write m a (Word.of_int 77);
  let snapshot = Memory.copy m in
  (* Wreck the live memory, then restore the snapshot. *)
  Memory.fill m ~pos:1000 ~len:500 (Word.of_int 0xDEAD);
  Memory.restore m ~from:snapshot;
  let z' = Zone.attach m ~pos:1000 in
  Alcotest.(check int) "heap intact" 77 (Word.to_int (Memory.read m a));
  Alcotest.(check int) "live blocks remembered" 1 (Zone.stats z').Zone.live_blocks;
  Zone.release z' a;
  Alcotest.(check int) "release works after re-attach" 0 (Zone.stats z').Zone.live_blocks

let test_attach_rejects_garbage () =
  let m = Memory.create () in
  match Zone.attach m ~pos:3000 with
  | exception Zone.Corrupt _ -> ()
  | _ -> Alcotest.fail "attached to garbage"

let test_corruption_detected_by_check () =
  let m, z = make_zone () in
  let _a = Zone.allocate z 10 in
  (* An errant program tramples the descriptor. *)
  Memory.write m 1000 (Word.of_int 0);
  match Zone.check z with
  | exception Zone.Corrupt _ -> ()
  | () -> Alcotest.fail "trampled descriptor passed check"

let test_obj_interface () =
  let _m, z = make_zone () in
  let obj = Zone.obj z in
  let a = obj.Zone.obj_allocate 5 in
  obj.Zone.obj_release a;
  Alcotest.(check int) "through the object" 0 (Zone.stats z).Zone.live_blocks

let test_invalid_sizes () =
  let _m, z = make_zone () in
  Alcotest.check_raises "zero words" (Invalid_argument "Zone.allocate: size must be >= 1")
    (fun () -> ignore (Zone.allocate z 0))

(* Property: random allocate/release sequences never corrupt the zone,
   and free space is conserved. *)
let prop_random_traffic =
  QCheck.Test.make ~name:"random allocate/release traffic" ~count:50
    QCheck.(list_of_size Gen.(1 -- 200) (int_range 1 30))
    (fun sizes ->
      let memory = Memory.create () in
      let z = Zone.format memory ~pos:100 ~len:2000 in
      let initial_free = (Zone.stats z).Zone.free_words in
      let live = ref [] in
      List.iteri
        (fun i size ->
          if i mod 3 = 2 then (
            match !live with
            | a :: rest ->
                Zone.release z a;
                live := rest
            | [] -> ())
          else
            match Zone.allocate z size with
            | a -> live := !live @ [ a ]
            | exception Zone.Out_of_space _ -> ())
        sizes;
      Zone.check z;
      List.iter (Zone.release z) !live;
      Zone.check z;
      (Zone.stats z).Zone.free_words = initial_free
      && (Zone.stats z).Zone.live_blocks = 0)

(* The seed every property draws from, so that a run replays. *)
let qcheck_seed = 1

let property t =
  QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| qcheck_seed |]) t

let () =
  Alcotest.run "alto_zones"
    [
      ( "zone",
        [
          ("allocate/release", `Quick, test_allocate_release);
          ("usable memory", `Quick, test_contents_are_usable_memory);
          ("out of space", `Quick, test_out_of_space);
          ("exhaust then recover", `Quick, test_exhaust_then_recover);
          ("coalescing", `Quick, test_coalescing_order_independent);
          ("double free detected", `Quick, test_double_free_detected);
          ("attach after restore", `Quick, test_attach_after_restore);
          ("attach rejects garbage", `Quick, test_attach_rejects_garbage);
          ("check finds corruption", `Quick, test_corruption_detected_by_check);
          ("object interface", `Quick, test_obj_interface);
          ("invalid sizes", `Quick, test_invalid_sizes);
          property prop_random_traffic;
        ] );
    ]

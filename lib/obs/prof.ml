module Sim_clock = Alto_machine.Sim_clock

(* {2 The span tree}

   One global tree of nodes, one explicit stack of open spans. Opening a
   span finds (or creates) the child of the current node with that name,
   so repeated calls through the same code path accumulate into one node
   instead of growing the tree without bound. The root is implicit and
   never timed: it absorbs disk charges made outside any span. *)

type disk_charges = {
  mutable d_seek_us : int;
  mutable d_rotation_us : int;
  mutable d_transfer_us : int;
  mutable d_retry_us : int;
}

type node = {
  n_name : string;
  mutable n_calls : int;
  mutable n_total_us : int;
  n_disk : disk_charges;
  n_children : (string, node) Hashtbl.t;
  mutable n_kids : node list;  (* the same children, newest first *)
}

let make_node name =
  {
    n_name = name;
    n_calls = 0;
    n_total_us = 0;
    n_disk = { d_seek_us = 0; d_rotation_us = 0; d_transfer_us = 0; d_retry_us = 0 };
    n_children = Hashtbl.create 4;
    n_kids = [];
  }

let root = ref (make_node "root")
let stack : node list ref = ref []
let retry_depth = ref 0

let current () = match !stack with n :: _ -> n | [] -> !root

(* A span's name is nearly always a literal, so each entry through one
   call site passes the same string: look the child up by the string's
   address first, and hash the name only when that fails. *)
let rec child_in parent name = function
  | n :: rest -> if n.n_name == name then n else child_in parent name rest
  | [] -> (
      match Hashtbl.find_opt parent.n_children name with
      | Some n -> n
      | None ->
          let n = make_node name in
          Hashtbl.add parent.n_children name n;
          parent.n_kids <- n :: parent.n_kids;
          n)

let child parent name = child_in parent name parent.n_kids

let reset () =
  root := make_node "root";
  stack := [];
  retry_depth := 0

let close node clock t0 =
  (* Pop only our own frame: if the span's body called {!reset}, the
     stack is already gone and the node is detached — charging it is
     harmless. *)
  (match !stack with n :: rest when n == node -> stack := rest | _ -> ());
  node.n_total_us <- node.n_total_us + (Sim_clock.now_us clock - t0)

let span clock name f =
  let node = child (current ()) name in
  node.n_calls <- node.n_calls + 1;
  let t0 = Sim_clock.now_us clock in
  stack := node :: !stack;
  match f () with
  | x ->
      close node clock t0;
      x
  | exception exn ->
      close node clock t0;
      raise exn

let note name =
  let node = child (current ()) name in
  node.n_calls <- node.n_calls + 1

(* {2 Disk-time attribution}

   [Drive] reports every microsecond of charged motion here, split into
   seek / rotational wait / transfer. While a retry ladder is running
   (bracketed by {!with_retry}) the whole charge is filed under the
   retry component instead: the first attempt's motion is the cost of
   the operation, everything after it is the cost of the fault. Summing
   the four components over the whole tree therefore reproduces the
   [disk.*] motion counters exactly. *)

let charge component us =
  if us > 0 then begin
    let d = (current ()).n_disk in
    if !retry_depth > 0 then d.d_retry_us <- d.d_retry_us + us
    else
      match component with
      | `Seek -> d.d_seek_us <- d.d_seek_us + us
      | `Rotation -> d.d_rotation_us <- d.d_rotation_us + us
      | `Transfer -> d.d_transfer_us <- d.d_transfer_us + us
  end

let charge_seek us = charge `Seek us
let charge_rotation us = charge `Rotation us
let charge_transfer us = charge `Transfer us

let with_retry f =
  incr retry_depth;
  match f () with
  | x ->
      decr retry_depth;
      x
  | exception exn ->
      decr retry_depth;
      raise exn

(* {2 Queries} *)

type snapshot = {
  name : string;
  calls : int;
  total_us : int;
  self_us : int;
  seek_us : int;
  rotation_us : int;
  transfer_us : int;
  retry_us : int;
  children : snapshot list;
}

let rec snap ~is_root n =
  let children =
    Hashtbl.fold (fun _ c acc -> snap ~is_root:false c :: acc) n.n_children []
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  let child_total = List.fold_left (fun acc c -> acc + c.total_us) 0 children in
  let total_us = if is_root then child_total else n.n_total_us in
  {
    name = n.n_name;
    calls = n.n_calls;
    total_us;
    self_us = max 0 (total_us - child_total);
    seek_us = n.n_disk.d_seek_us;
    rotation_us = n.n_disk.d_rotation_us;
    transfer_us = n.n_disk.d_transfer_us;
    retry_us = n.n_disk.d_retry_us;
    children;
  }

let tree () = snap ~is_root:true !root
let disk_us s = s.seek_us + s.rotation_us + s.transfer_us + s.retry_us

let rec flatten s = s :: List.concat_map flatten s.children

let find s name =
  List.find_opt (fun n -> n.name = name) (flatten s)

type disk_totals = { t_seek_us : int; t_rotation_us : int; t_transfer_us : int; t_retry_us : int }

let disk_totals () =
  List.fold_left
    (fun acc s ->
      {
        t_seek_us = acc.t_seek_us + s.seek_us;
        t_rotation_us = acc.t_rotation_us + s.rotation_us;
        t_transfer_us = acc.t_transfer_us + s.transfer_us;
        t_retry_us = acc.t_retry_us + s.retry_us;
      })
    { t_seek_us = 0; t_rotation_us = 0; t_transfer_us = 0; t_retry_us = 0 }
    (flatten (tree ()))

let rec node_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("calls", Json.Int s.calls);
      ("total_us", Json.Int s.total_us);
      ("self_us", Json.Int s.self_us);
      ( "disk",
        Json.Obj
          [
            ("seek_us", Json.Int s.seek_us);
            ("rotation_us", Json.Int s.rotation_us);
            ("transfer_us", Json.Int s.transfer_us);
            ("retry_us", Json.Int s.retry_us);
          ] );
      ("children", Json.List (List.map node_json s.children));
    ]

let to_json () = node_json (tree ())

(* The single user: a closed loop of file operations on a local volume,
   one after another, each timed on the simulated clock. No server, no
   network and no elevator merging — this is the write-back cache,
   allocation and directory path the paper's user sat on. *)

module Drive = Alto_disk.Drive
module Geometry = Alto_disk.Geometry
module Fs = Alto_fs.Fs
module Sim_clock = Alto_machine.Sim_clock

(* Files created at set-up. *)
let initial = 96

(* Population floor and ceiling: below [lo] a delete turns into a
   create, above [hi] a create into a delete. *)
let lo = 48
let hi = 160

(* [Fs.flush] after this many operations. *)
let flush_every = 50

let build ~seed =
  let drive = Drive.create ~pack_id:1 Geometry.diablo_31 in
  let t = Ops.create (Fs.format drive) in
  let g = Gen.make ~seed ~stream:11 in
  for _ = 1 to initial do
    Ops.exec t { (Ops.draw g ~population:0 ~lo:0 ~hi:0) with Ops.kind = Ops.Create }
  done;
  Ops.flush t;
  t

type run = {
  latency_us : int array;  (** Per operation, [Fs.flush] included where it ran. *)
  sim_us : int;
  host : Host.meter;  (** One segment per twentieth of the run. *)
}

(* [ops] operations measured. *)
let run ~seed ~ops (t : Ops.t) =
  let g = Gen.make ~seed ~stream:12 in
  let latency_us = Array.make ops 0 in
  let segments = 20 in
  let per_segment = max 1 (ops / segments) in
  let host = Host.meter () in
  let start = Sim_clock.now_us t.Ops.clock in
  for i = 0 to ops - 1 do
    let t0 = Sim_clock.now_us t.Ops.clock in
    Ops.exec t (Ops.draw g ~population:t.Ops.count ~lo ~hi);
    if (i + 1) mod flush_every = 0 then Ops.flush t;
    latency_us.(i) <- Sim_clock.now_us t.Ops.clock - t0;
    if (i + 1) mod per_segment = 0 then Host.segment host ~ops:per_segment
  done;
  {
    latency_us;
    sim_us = Sim_clock.now_us t.Ops.clock - start;
    host;
  }

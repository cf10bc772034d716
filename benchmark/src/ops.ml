(* One user's file operations on a local volume, against a shadow model.

   The single user of §1 works through the directory and file packages
   directly: every operation looks its file up in the root directory
   first, then creates, reads, rewrites a record in, appends to or
   deletes it. The model holds what every catalogued file must contain;
   each read is compared with it, and each mutation updates it once the
   call returns. *)

module Sim_clock = Alto_machine.Sim_clock
module Fs = Alto_fs.Fs
module File = Alto_fs.File
module Directory = Alto_fs.Directory

type kind = Read | Rewrite | Append | Create | Delete

type op = { kind : kind; pick : int; size : int; seed : int }

type t = {
  fs : Fs.t;
  clock : Sim_clock.t;
  root : File.t;
  prefix : string;
  mutable names : string array;  (** Catalogued files, [0, count). *)
  mutable count : int;
  model : (string, string) Hashtbl.t;
  mutable serial : int;
  mutable failed : int;
  mutable failures : string list;
  mutable words_read : int;
  mutable read_us : int;  (** Simulated time inside [File.read_bytes]. *)
}

let create ?(prefix = "U") fs =
  match Directory.open_root fs with
  | Error _ -> failwith "ops: no root directory"
  | Ok root ->
      {
        fs;
        clock = Fs.clock fs;
        root;
        prefix;
        names = Array.make 64 "";
        count = 0;
        model = Hashtbl.create 1024;
        serial = 0;
        failed = 0;
        failures = [];
        words_read = 0;
        read_us = 0;
      }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 8 then t.failures <- msg :: t.failures

(* A handle that replaces [from] on a rebuilt or new volume keeps the
   failures [from] recorded. *)
let carry_failures ~from t =
  t.failed <- from.failed + t.failed;
  t.failures <- t.failures @ from.failures

let add_name t name =
  if t.count = Array.length t.names then
    t.names <- Array.append t.names (Array.make t.count "");
  t.names.(t.count) <- name;
  t.count <- t.count + 1

let remove_name t name =
  let rec find i = if String.equal t.names.(i) name then i else find (i + 1) in
  let i = find 0 in
  t.count <- t.count - 1;
  t.names.(i) <- t.names.(t.count)

(* {2 Drawing operations} *)

(* The mix: reads 35%, record rewrites 25%, appends 10%, creates 15%,
   deletes 15%, with the population held between [lo] and [hi]. *)
let draw g ~population ~lo ~hi =
  let roll = Gen.percent g in
  let kind =
    if roll < 35 then Read
    else if roll < 60 then Rewrite
    else if roll < 70 then Append
    else if roll < 85 then Create
    else Delete
  in
  let kind =
    match kind with
    | Delete when population <= lo -> Create
    | Create when population >= hi -> Delete
    | (Read | Rewrite | Append) when population = 0 -> Create
    | k -> k
  in
  let size =
    match kind with
    | Create -> Gen.range g 1024 8192
    | Append -> Gen.range g 16 1024
    | Rewrite -> 16
    | Read | Delete -> 0
  in
  { kind; pick = Gen.int g 0x3fffffff; size; seed = Gen.int g 0x3fffffff }

(* {2 Executing them} *)

(* Appends stop growing a file here; past it they rewrite a record mid-file. *)
let max_bytes = 16_384

let lookup t name =
  Span.record ~clock:t.clock "directory.lookup" (fun () -> Directory.lookup t.root name)

let open_named t name =
  match lookup t name with
  | Ok (Some e) -> (
      match
        Span.record ~clock:t.clock "file.open" (fun () ->
            File.open_leader t.fs e.Directory.entry_file)
      with
      | Ok file -> Some file
      | Error e ->
          fail t (Format.asprintf "open %s: %a" name File.pp_error e);
          None)
  | Ok None ->
      fail t (name ^ " is not catalogued");
      None
  | Error e ->
      fail t (Format.asprintf "lookup %s: %a" name Directory.pp_error e);
      None

let checked t what = function
  | Ok () -> true
  | Error e ->
      fail t (Format.asprintf "%s: %a" what File.pp_error e);
      false

let read_file t name file =
  let len = File.byte_length file in
  let t0 = Sim_clock.now_us t.clock in
  let r =
    Span.record ~clock:t.clock "file.read" (fun () -> File.read_bytes file ~pos:0 ~len)
  in
  t.read_us <- t.read_us + Sim_clock.now_us t.clock - t0;
  match r with
  | Ok bytes ->
      t.words_read <- t.words_read + ((Bytes.length bytes + 1) / 2);
      Some (Bytes.to_string bytes)
  | Error e ->
      fail t (Format.asprintf "read %s: %a" name File.pp_error e);
      None

(* [s] with [r] written over it from [pos], extending it if need be. *)
let splice s pos r =
  let n = String.length r and len = String.length s in
  let tail = if pos + n < len then String.sub s (pos + n) (len - pos - n) else "" in
  String.sub s 0 pos ^ r ^ tail

let write t file ~pos data =
  Span.record ~clock:t.clock "file.write" (fun () ->
      match File.write_bytes file ~pos data with
      | Ok () -> File.flush_leader file
      | Error _ as e -> e)

(* The [k]-th catalogued file from [pick] on that [skip] allows. *)
let target ?(skip = fun _ -> false) t pick =
  let rec go k =
    if k >= t.count then None
    else
      let name = t.names.((pick + k) mod t.count) in
      if skip name then go (k + 1) else Some name
  in
  if t.count = 0 then None else go 0

(* Run one operation. [before name next] runs ahead of any change to a
   file, with the contents the file will hold once the operation returns
   ([None]: gone) — the crash workload records both versions there. *)
let exec ?skip ?(before = fun _ _ -> ()) t op =
  let data n = Gen.put_body ~seed:op.seed n in
  match op.kind with
  | Create -> (
      let name = Printf.sprintf "%s%05d.dat" t.prefix t.serial in
      t.serial <- t.serial + 1;
      (match lookup t name with
      | Ok None -> ()
      | Ok (Some _) | Error _ -> fail t (name ^ ": a fresh name was already catalogued"));
      let body = data op.size in
      before name (Some body);
      let created =
        Span.record ~clock:t.clock "file.create" (fun () -> File.create t.fs ~name)
      in
      match created with
      | Error e -> fail t (Format.asprintf "create %s: %a" name File.pp_error e)
      | Ok file -> (
          if checked t ("write " ^ name) (write t file ~pos:0 body) then
            match
              Span.record ~clock:t.clock "directory.add" (fun () ->
                  Directory.add t.root ~name (File.leader_name file))
            with
            | Ok () ->
                add_name t name;
                Hashtbl.replace t.model name body
            | Error e ->
                fail t (Format.asprintf "catalogue %s: %a" name Directory.pp_error e)))
  | Read | Rewrite | Append | Delete -> (
      let chosen =
        Option.bind (target ?skip t op.pick) (fun name ->
            Option.map (fun file -> (name, file)) (open_named t name))
      in
      match chosen with
      | None -> ()
      | Some (name, file) -> (
          let expected = Hashtbl.find t.model name in
          let len = String.length expected in
          match op.kind with
          | Read -> (
              match read_file t name file with
              | Some got when String.equal got expected -> ()
              | Some _ -> fail t (name ^ " read back wrong bytes")
              | None -> ())
          | Rewrite | Append ->
              (* A record rewrite lands mid-file; an append at the end,
                 unless the file is at its size cap. *)
              let pos =
                if op.kind = Rewrite || len + op.size > max_bytes then
                  max 0 ((len - op.size) / 2)
                else len
              in
              let record = data op.size in
              let next = splice expected pos record in
              before name (Some next);
              if checked t ("write " ^ name) (write t file ~pos record) then
                Hashtbl.replace t.model name next
          | Delete ->
              before name None;
              if
                checked t ("delete " ^ name)
                  (Span.record ~clock:t.clock "file.delete" (fun () -> File.delete file))
              then begin
                (match
                   Span.record ~clock:t.clock "directory.remove" (fun () ->
                       Directory.remove t.root name)
                 with
                | Ok true -> ()
                | Ok false -> fail t (name ^ " vanished from the directory")
                | Error e ->
                    fail t
                      (Format.asprintf "uncatalogue %s: %a" name Directory.pp_error e));
                remove_name t name;
                Hashtbl.remove t.model name
              end
          | Create -> ()))

let flush t =
  match Span.record ~clock:t.clock "fs.flush" (fun () -> Fs.flush t.fs) with
  | Ok () -> ()
  | Error e -> fail t (Format.asprintf "flush: %a" Fs.pp_error e)

(* Read every catalogued file back and compare it with the model. *)
let verify_all t =
  for i = 0 to t.count - 1 do
    let name = t.names.(i) in
    match open_named t name with
    | None -> ()
    | Some file -> (
        match read_file t name file with
        | Some got when String.equal got (Hashtbl.find t.model name) -> ()
        | Some _ -> fail t (name ^ " read back wrong bytes at the final check")
        | None -> ())
  done

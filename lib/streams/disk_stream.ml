module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Sector = Alto_disk.Sector
module Zone = Alto_zones.Zone
module File = Alto_fs.File

exception Io of string

type mode = Read_only | Write_only | Read_write

let page_bytes = Sector.bytes_per_page

type buffer = {
  get_byte : int -> int;
  set_byte : int -> int -> unit;
  release : unit -> unit;
}

let host_buffer () =
  let bytes = Bytes.make page_bytes '\000' in
  {
    get_byte = (fun off -> Char.code (Bytes.get bytes off));
    set_byte = (fun off b -> Bytes.set bytes off (Char.chr b));
    release = ignore;
  }

(* A page buffer living in the simulated memory, acquired from a zone —
   the stream's working storage in the paper's sense. Two bytes live in
   each word, high byte first. *)
let zone_buffer memory (zone : Zone.obj) =
  let base = zone.Zone.obj_allocate Sector.value_words in
  {
    get_byte =
      (fun off ->
        let w = Word.to_int (Memory.read memory (base + (off / 2))) in
        if off mod 2 = 0 then (w lsr 8) land 0xff else w land 0xff);
    set_byte =
      (fun off b ->
        let a = base + (off / 2) in
        let w = Word.to_int (Memory.read memory a) in
        let w' = if off mod 2 = 0 then (w land 0x00ff) lor (b lsl 8) else (w land 0xff00) lor b in
        Memory.write memory a (Word.of_int w'));
    release = (fun () -> zone.Zone.obj_release base);
  }

type state = {
  file : File.t;
  buffer : buffer;
  mutable pos : int;
  mutable buf_page : int;  (* 0 = nothing buffered *)
  mutable buf_len : int;
  mutable dirty : bool;
  mutable wrote : bool;  (* a put reached the file, or a truncate *)
  mutable closed : bool;
}

let io_fail e = raise (Io (Format.asprintf "%a" File.pp_error e))

let check_open s = if s.closed then raise (Stream.Closed "disk stream")

let logical_length s =
  let on_disk = File.byte_length s.file in
  if s.dirty && s.buf_page > 0 then
    max on_disk (((s.buf_page - 1) * page_bytes) + s.buf_len)
  else on_disk

let flush s =
  if s.dirty then begin
    let start = (s.buf_page - 1) * page_bytes in
    let data = String.init s.buf_len (fun off -> Char.chr (s.buffer.get_byte off)) in
    (match File.write_bytes s.file ~pos:start data with
    | Ok () -> ()
    | Error e -> io_fail e);
    s.dirty <- false;
    s.wrote <- true
  end

let load s pn =
  flush s;
  if pn <= File.last_page s.file then begin
    match File.read_page s.file pn with
    | Error e -> io_fail e
    | Ok (value, len) ->
        for off = 0 to page_bytes - 1 do
          let w = Word.to_int value.(off / 2) in
          s.buffer.set_byte off (if off mod 2 = 0 then (w lsr 8) land 0xff else w land 0xff)
        done;
        s.buf_page <- pn;
        s.buf_len <- len
  end
  else begin
    (* A fresh page, reachable only by appending at the boundary. *)
    for off = 0 to page_bytes - 1 do
      s.buffer.set_byte off 0
    done;
    s.buf_page <- pn;
    s.buf_len <- 0
  end

let ensure s pn = if s.buf_page <> pn then load s pn

let get s () =
  check_open s;
  if s.pos >= logical_length s then None
  else begin
    ensure s (1 + (s.pos / page_bytes));
    let b = s.buffer.get_byte (s.pos mod page_bytes) in
    s.pos <- s.pos + 1;
    Some b
  end

let put s item =
  check_open s;
  if s.pos > logical_length s then
    invalid_arg "Disk_stream.put: position beyond end of file"
  else begin
    ensure s (1 + (s.pos / page_bytes));
    let off = s.pos mod page_bytes in
    s.buffer.set_byte off (item land 0xff);
    s.buf_len <- max s.buf_len (off + 1);
    s.dirty <- true;
    s.pos <- s.pos + 1
  end

(* Only a stream that changed the file rewrites its leader: a reader
   leaves the pack as it found it. *)
let close s () =
  if not s.closed then begin
    flush s;
    if s.wrote then
      (match File.flush_leader s.file with Ok () -> () | Error e -> io_fail e);
    s.buffer.release ();
    s.closed <- true
  end

let control s op arg =
  check_open s;
  match op with
  | "position" -> s.pos
  | "set-position" ->
      if arg < 0 || arg > logical_length s then
        invalid_arg "Disk_stream: set-position beyond end of file"
      else begin
        s.pos <- arg;
        arg
      end
  | "length" -> logical_length s
  | "flush" ->
      flush s;
      0
  | "truncate" ->
      flush s;
      if arg < 0 || arg > File.byte_length s.file then
        invalid_arg "Disk_stream: truncate length out of range"
      else begin
        (match File.truncate s.file ~len:arg with Ok () -> () | Error e -> io_fail e);
        s.wrote <- true;
        s.buf_page <- 0;
        s.buf_len <- 0;
        s.pos <- min s.pos arg;
        arg
      end
  | _ -> raise (Stream.Not_supported { stream = "disk stream"; operation = op })

let open_file ?workspace ~mode file =
  let buffer =
    match workspace with
    | None -> host_buffer ()
    | Some (memory, zone) -> zone_buffer memory zone
  in
  let s =
    {
      file;
      buffer;
      pos = 0;
      buf_page = 0;
      buf_len = 0;
      dirty = false;
      wrote = false;
      closed = false;
    }
  in
  let name = Printf.sprintf "disk stream on %S" (File.leader file).Alto_fs.Leader.name in
  let readable = match mode with Read_only | Read_write -> true | Write_only -> false in
  let writable = match mode with Write_only | Read_write -> true | Read_only -> false in
  Stream.make name
    ?get:(if readable then Some (get s) else None)
    ?put:(if writable then Some (put s) else None)
    ~reset:(fun () ->
      check_open s;
      flush s;
      s.pos <- 0)
    ~at_end:(fun () ->
      check_open s;
      s.pos >= logical_length s)
    ~close:(close s)
    ~control:(control s)

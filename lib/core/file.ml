module Word = Alto_machine.Word
module Sector = Alto_disk.Sector
module Drive = Alto_disk.Drive
module Sched = Alto_disk.Sched
module Disk_address = Alto_disk.Disk_address

type t = {
  fs : Fs.t;
  fid : File_id.t;
  mutable leader_addr : Disk_address.t;
  mutable leader : Leader.t;
  mutable hints : Disk_address.t array;  (* index = page number; nil = unknown *)
  mutable last_page : int;
  mutable last_length : int;
}

type error =
  | Hint_failed
  | No_such_page of int
  | Fs_error of Fs.error
  | Structure of string

let pp_error fmt = function
  | Hint_failed -> Format.pp_print_string fmt "hint failed, consult a directory or the scavenger"
  | No_such_page pn -> Format.fprintf fmt "no page %d in this file" pn
  | Fs_error e -> Fs.pp_error fmt e
  | Structure msg -> Format.fprintf fmt "file structure damaged: %s" msg

let fs t = t.fs
let fid t = t.fid
let leader t = t.leader
let last_page t = t.last_page

let leader_name t = Page.full_name t.fid ~page:0 ~addr:t.leader_addr

(* A file's length: every data page before [last_page] counts as full. *)
let length_of ~last_page ~last_length =
  if last_page = 0 then 0 else (Sector.bytes_per_page * (last_page - 1)) + last_length

let byte_length t = length_of ~last_page:t.last_page ~last_length:t.last_length

(* {2 Hint cache} *)

let ensure_hints t pn =
  let n = Array.length t.hints in
  if pn >= n then begin
    let bigger = Array.make (max (pn + 1) (2 * n)) Disk_address.nil in
    Array.blit t.hints 0 bigger 0 n;
    t.hints <- bigger
  end

let set_hint t pn addr =
  if pn >= 0 && not (Disk_address.is_nil addr) then begin
    ensure_hints t pn;
    t.hints.(pn) <- addr
  end

let hint t pn = if pn < Array.length t.hints then t.hints.(pn) else Disk_address.nil

let clear_hint t pn = if pn >= 1 && pn < Array.length t.hints then t.hints.(pn) <- Disk_address.nil

let invalidate_hints t =
  for pn = 1 to Array.length t.hints - 1 do
    t.hints.(pn) <- Disk_address.nil
  done

let retain_hints t ~every =
  if every < 1 then invalid_arg "File.retain_hints: every must be >= 1";
  for pn = 1 to Array.length t.hints - 1 do
    if pn mod every <> 0 then t.hints.(pn) <- Disk_address.nil
  done

let hinted_pages t =
  let n = ref 0 in
  for pn = 1 to min t.last_page (Array.length t.hints - 1) do
    if not (Disk_address.is_nil t.hints.(pn)) then incr n
  done;
  !n

let cache_links t pn (label : Label.t) =
  set_hint t (pn + 1) label.Label.next;
  if pn > 0 then set_hint t (pn - 1) label.Label.prev

(* {2 Resolving page numbers to full names} *)

let drive t = Fs.drive t.fs
let cache t = Fs.label_cache t.fs
let bio t = Fs.bio t.fs

(* Walk the link chain from the highest trusted hint at or below
   [target]. A stale in-chain hint triggers one restart from the leader
   with the intermediate hints cleared; if the leader itself fails the
   check, the whole handle is stale. *)
let chase t ~target =
  let rec start restarted =
    let rec highest k =
      if k <= 0 then 0
      else if Disk_address.is_nil (hint t k) then highest (k - 1)
      else k
    in
    let rec step k addr =
      if k = target then Ok addr
      else
        let fn = Page.full_name t.fid ~page:k ~addr in
        match Page.read_label ~cache:(cache t) (drive t) fn with
        | Ok label -> (
            cache_links t k label;
            match label.Label.next with
            | a when Disk_address.is_nil a ->
                Error (Structure (Printf.sprintf "chain ends at page %d before page %d" k target))
            | a -> step (k + 1) a)
        | Error (Page.Hint_failed _) ->
            if k = 0 || restarted then Error Hint_failed
            else begin
              invalidate_hints t;
              start true
            end
        | Error (Page.Bad_label msg) -> Error (Structure msg)
    in
    let k = highest target in
    if k = 0 then step 0 t.leader_addr else step k (hint t k)
  in
  start false

let page_name t pn =
  if pn < 0 then invalid_arg "File.page_name: negative page number"
  else if pn > t.last_page then Error (No_such_page pn)
  else if pn = 0 then Ok (leader_name t)
  else
    let h = hint t pn in
    if not (Disk_address.is_nil h) then Ok (Page.full_name t.fid ~page:pn ~addr:h)
    else
      match chase t ~target:pn with
      | Ok addr ->
          set_hint t pn addr;
          Ok (Page.full_name t.fid ~page:pn ~addr)
      | Error e -> Error e

(* Run a page operation, re-deriving the address once if its hint turns
   out stale. *)
let with_page t pn f =
  let ( let* ) = Result.bind in
  let* fn = page_name t pn in
  match f fn with
  | Ok x -> Ok x
  | Error (Page.Bad_label msg) -> Error (Structure msg)
  | Error (Page.Hint_failed _) -> (
      clear_hint t pn;
      let* fn = page_name t pn in
      match f fn with
      | Ok x -> Ok x
      | Error (Page.Bad_label msg) -> Error (Structure msg)
      | Error (Page.Hint_failed _) -> Error Hint_failed)

(* {2 Batched transfers}

   When the addresses of a whole run of pages are already known in core —
   from hints, extended by consecutive-allocation arithmetic where the
   leader vouches for it ("a program … is free to assume that a file is
   consecutive", §3.6) — the run can go to the disk as one elevator
   batch instead of page-at-a-time. Every batched request still checks
   the label against the page's absolute name, so a wrong guess costs
   one refuted request, repaired through the ordinary hint-ladder path. *)

let batch_threshold = 4

(* Page [pn]'s successor as the verified-label table names it, when the
   table holds page [pn]'s label live at [addr]: a relocation rewrites
   the predecessor's link without clearing the leader's consecutive
   flag, so the link outranks the arithmetic. Counts nothing. *)
let linked_next t pn addr =
  if Disk_address.is_nil addr then None
  else
    let label = Label.check_name t.fid ~page:pn in
    match Label_cache.confirm (cache t) addr label with
    | Some (Ok ()) -> (
        match Label.of_words label with
        | Ok l when not (Disk_address.is_nil l.Label.next) -> Some l.Label.next
        | Ok _ | Error _ -> None)
    | Some (Error _) | None -> None

let known_addresses t ~first ~last =
  let sectors = Drive.sector_count (drive t) in
  let addrs = Array.make (last - first + 1) Disk_address.nil in
  let all_known = ref true in
  let consecutive = t.leader.Leader.maybe_consecutive in
  for pn = first to last do
    let a = hint t pn in
    let a =
      if not (Disk_address.is_nil a) then a
      else if consecutive then
        let before = if pn > first then addrs.(pn - 1 - first) else hint t (pn - 1) in
        match linked_next t (pn - 1) before with
        | Some next -> next
        | None ->
            (* Extrapolate from the nearest hinted page below; page 0
               (the leader) is always hinted, so the scan terminates. *)
            let rec from k =
              if k < 0 then Disk_address.nil
              else
                let h = hint t k in
                if Disk_address.is_nil h then from (k - 1)
                else
                  let i = Disk_address.to_index h + (pn - k) in
                  if i < sectors then Disk_address.of_index i else Disk_address.nil
            in
            from (pn - 1)
      else Disk_address.nil
    in
    if Disk_address.is_nil a then all_known := false else addrs.(pn - first) <- a
  done;
  if !all_known then Some addrs else None

(* {2 Opening} *)

let now t = Fs.now_seconds t.fs

let open_leader fs (fn : Page.full_name) =
  let ( let* ) = Result.bind in
  if fn.Page.abs.Page.page <> 0 then
    invalid_arg "File.open_leader: not the name of a leader page";
  let* label, value =
    match Page.read ~cache:(Fs.label_cache fs) ~bio:(Fs.bio fs) (Fs.drive fs) fn with
    | Ok x -> Ok x
    | Error (Page.Hint_failed _) -> Error Hint_failed
    | Error (Page.Bad_label msg) -> Error (Structure msg)
  in
  let* leader =
    match Leader.of_value value with Ok l -> Ok l | Error msg -> Error (Structure msg)
  in
  let t =
    {
      fs;
      fid = fn.Page.abs.Page.fid;
      leader_addr = fn.Page.addr;
      leader;
      hints = Array.make 8 Disk_address.nil;
      last_page = 0;
      last_length = 0;
    }
  in
  set_hint t 0 fn.Page.addr;
  cache_links t 0 label;
  (* Trust the leader's last-page hint if the label there confirms it;
     otherwise count the chain the slow way. *)
  let confirm_last pn addr =
    if pn < 1 || Disk_address.is_nil addr then None
    else
      match Page.read_label ~cache:(cache t) (drive t) (Page.full_name t.fid ~page:pn ~addr) with
      | Ok label when Disk_address.is_nil label.Label.next ->
          Some (pn, label.Label.length)
      | Ok _ | Error _ -> None
  in
  let* last_pn, last_len =
    match confirm_last leader.Leader.last_page leader.Leader.last_addr with
    | Some (pn, len) ->
        set_hint t pn leader.Leader.last_addr;
        Ok (pn, len)
    | None ->
        (* Chain walk from the leader to the end. *)
        let rec walk pn addr =
          match Page.read_label ~cache:(cache t) (drive t) (Page.full_name t.fid ~page:pn ~addr) with
          | Error (Page.Hint_failed _) -> Error Hint_failed
          | Error (Page.Bad_label msg) -> Error (Structure msg)
          | Ok label -> (
              cache_links t pn label;
              match label.Label.next with
              | a when Disk_address.is_nil a ->
                  if pn = 0 then Ok (0, 0) else Ok (pn, label.Label.length)
              | a -> walk (pn + 1) a)
        in
        walk 0 t.leader_addr
  in
  t.last_page <- last_pn;
  t.last_length <- last_len;
  Ok t

(* {2 Fresh pages}

   Every fresh page a file takes — a new file's leader and first page,
   or the pages a write adds past the last — comes from one run,
   reserved and checked free in one pass (E3), and is written once, in
   file order, with its final label: its full length, and a next link
   naming the run's following page, nil only on the last page written.
   A label may name a page that is not yet written. A link is a hint
   (§3.3): the drive's fence maps the cylinder a label names before the
   label goes down, and recovery ends the file at the last page written.
   A page whose label names a successor goes into the track buffer
   cache when its track's buffer is resident (a write never allocates
   one); the last page does not. Installing the last page too would
   change what a file server's GETs find buffered, a move the serve
   benchmark's ladder test does not yet allow. *)

(* Rewrite page [pn]'s label, preserving its links, with a new length
   and/or next link. *)
let rewrite_page t pn ~length ~next value =
  with_page t pn (fun fn ->
      let ( let* ) = Result.bind in
      let* old = Page.read_label ~cache:(cache t) (drive t) fn in
      let new_label =
        Label.make ~fid:t.fid ~page:pn ~length
          ~next:(Option.value next ~default:old.Label.next)
          ~prev:old.Label.prev
      in
      Page.rewrite_label ~cache:(cache t) ~bio:(bio t) (drive t) fn ~new_label ~value)

(* The page a fresh page follows: the sector its label names now, and
   its length and value should it need relinking. *)
type before = {
  names : Disk_address.t;
  length : int;
  value : unit -> (Word.t array, error) result;
}

(* Write [pages], each a byte length and a value, as pages [first ..]
   at the sectors reserved in [run], taken from its head. [prev] is the
   sector of page [first - 1] and [before] that page ([None] before a
   leader). Once a page is down, a predecessor whose label does not name
   its sector is relinked to it: the page before the run when nothing
   linked it in advance, and the predecessor of a sector that refused
   its write (quarantined; the run's next sector stands in). When the map
   runs dry the pages that fit are written, the last with a nil link,
   and the write fails [Disk_full]. *)
let write_run t ~first ~prev ~before run pages =
  let ( let* ) = Result.bind in
  let relink pn b addr =
    let* value = b.value () in
    rewrite_page t pn ~length:b.length ~next:(Some addr) value
  in
  let rec place pn prev before pages =
    match pages with
    | [] -> Ok ()
    | (length, value) :: rest -> (
        (* This page's sector and, when a page follows, the sector its
           label names. *)
        if List.compare_length_with !run (if rest = [] then 1 else 2) < 0 then
          Result.iter
            (fun more -> run := !run @ more)
            (Fs.reserve_pages t.fs (List.length pages - List.length !run));
        match !run with
        | [] ->
            (* No sector for this page: its predecessor ends the file. *)
            let* () =
              match before with
              | Some b when not (Disk_address.is_nil b.names) ->
                  relink (pn - 1) b Disk_address.nil
              | Some _ | None -> Ok ()
            in
            Error (Fs_error Fs.Disk_full)
        | addr :: after -> (
            run := after;
            let next =
              match (rest, after) with _ :: _, a :: _ -> a | _ -> Disk_address.nil
            in
            let label = Label.make ~fid:t.fid ~page:pn ~length ~next ~prev in
            match Fs.write_reserved t.fs addr label value with
            | Error `Quarantined -> place pn prev before pages
            | Ok () ->
                if not (Disk_address.is_nil next) then Bio.install (bio t) addr ~value;
                let* () =
                  match before with
                  | Some b when not (Disk_address.equal b.names addr) -> relink (pn - 1) b addr
                  | Some _ | None -> Ok ()
                in
                set_hint t pn addr;
                if pn = 0 then t.leader_addr <- addr
                else begin
                  t.last_page <- pn;
                  t.last_length <- length
                end;
                if Disk_address.is_nil next && rest <> [] then Error (Fs_error Fs.Disk_full)
                else
                  place (pn + 1) addr
                    (Some { names = next; length; value = (fun () -> Ok value) })
                    rest))
  in
  place first prev before pages

(* {2 Creating} *)

let create_with_fid fs fid ~name =
  let ( let* ) = Result.bind in
  let created_s = int_of_float (Alto_machine.Sim_clock.now_seconds (Fs.clock fs)) in
  let t =
    {
      fs;
      fid;
      leader_addr = Disk_address.nil;
      leader =
        Leader.make ~created_s ~written_s:created_s ~name ~last_page:1
          ~last_addr:Disk_address.nil ~maybe_consecutive:true ();
      hints = Array.make 8 Disk_address.nil;
      last_page = 0;
      last_length = 0;
    }
  in
  (* The leader and the empty first page are one run of two, written in
     file order: the leader goes down naming page 1, in its label and in
     its last-page hint, before page 1 is written. A crash between leaves
     a leader whose link names a free page; the link is a hint, and
     recovery keeps the leader as a file with no data page. A pack with
     room for only one of them gets neither. *)
  let run = ref [] in
  let written =
    let* reserved = Result.map_error (fun e -> Fs_error e) (Fs.reserve_pages fs 2) in
    run := reserved;
    match reserved with
    | [ _; page1 ] ->
        t.leader <- Leader.with_last t.leader ~last_page:1 ~last_addr:page1;
        write_run t ~first:0 ~prev:Disk_address.nil ~before:None run
          [
            (Sector.bytes_per_page, Leader.to_value t.leader);
            (0, Array.make Sector.value_words Word.zero);
          ]
    | _ -> Error (Fs_error Fs.Disk_full)
  in
  List.iter (Fs.unreserve fs) !run;
  let* () = written in
  (* Page 1 where it landed, should a refused sector have moved it. *)
  t.leader <- Leader.with_last t.leader ~last_page:1 ~last_addr:(hint t 1);
  Ok t

let create fs ~name = create_with_fid fs (Fs.fresh_fid fs) ~name

let create_directory_file fs ~name =
  create_with_fid fs (Fs.fresh_fid ~directory:true fs) ~name

(* {2 Reading} *)

let read_page t pn =
  if pn < 1 then invalid_arg "File.read_page: data pages are numbered from 1"
  else
    let ( let* ) = Result.bind in
    let* label, value = with_page t pn (fun fn -> Page.read ~cache:(cache t) ~bio:(bio t) (drive t) fn) in
    cache_links t pn label;
    if pn = t.last_page then t.last_length <- label.Label.length;
    Ok (value, label.Label.length)

(* Byte [b] of a page value: the high byte of its word first. *)
let page_byte value b =
  let w = (value.(b / 2) : Word.t :> int) in
  if b land 1 = 0 then w lsr 8 else w land 0xff

(* Store [byte] as byte [b] of a word array, keeping the other half of
   its word; a byte past the array's end is dropped. *)
let poke_byte words b byte =
  let i = b / 2 in
  if i < Array.length words then
    let w = (words.(i) : Word.t :> int) in
    words.(i) <-
      Word.of_int
        (if b land 1 = 0 then (w land 0x00ff) lor (byte lsl 8) else (w land 0xff00) lor byte)

(* Copy bytes [page_off, page_off + len) of a page value to [dst] at
   [dst_off], a word at a time once the page side is word-aligned. *)
let bytes_of_page value ~page_off ~len ~dst ~dst_off =
  let lead = if page_off land 1 = 1 then min len 1 else 0 in
  if lead = 1 then Bytes.set dst dst_off (Char.chr (page_byte value page_off));
  let pairs = (len - lead) / 2 in
  for k = 0 to pairs - 1 do
    let j = lead + (2 * k) in
    Bytes.set_uint16_be dst (dst_off + j) (value.((page_off + j) / 2) : Word.t :> int)
  done;
  let tail = lead + (2 * pairs) in
  if tail < len then Bytes.set dst (dst_off + tail) (Char.chr (page_byte value (page_off + tail)))

(* Copy the same span into a word array at byte offset [dst_off]: a
   blit when both sides are word-aligned, byte by byte otherwise. *)
let words_of_page value ~page_off ~len ~dst ~dst_off =
  if page_off land 1 = 0 && dst_off land 1 = 0 then begin
    Array.blit value (page_off / 2) dst (dst_off / 2) (len / 2);
    if len land 1 = 1 then
      poke_byte dst (dst_off + len - 1) (page_byte value (page_off + len - 1))
  end
  else
    for j = 0 to len - 1 do
      poke_byte dst (dst_off + j) (page_byte value (page_off + j))
    done

let touch_written t =
  t.leader <- Leader.with_times t.leader ~written_s:(now t) ()

let touch_read t =
  t.leader <- Leader.with_times t.leader ~read_s:(now t) ()

(* Adopt batched label-checked value reads of pages [first ..] at
   [addrs], into [labels] and [values]: a page whose read succeeded and
   whose label decodes is taken, its label noted, its hint set and its
   links cached. Any other page falls back to the one-page path for that
   page alone — a refuted label costs one ordinary retry. [None] marks a
   page no request covered (the plan served it from the track buffer
   cache), read by the one-page path at its known address. *)
let adopt_batched t ~first ~addrs ~labels ~values results =
  let ( let* ) = Result.bind in
  let rec collect i acc =
    if i >= Array.length addrs then Ok (Array.of_list (List.rev acc))
    else
      let pn = first + i in
      let fallback () =
        let* v, plen = read_page t pn in
        collect (i + 1) ((v, plen) :: acc)
      in
      match results.(i) with
      | None ->
          set_hint t pn addrs.(i);
          fallback ()
      | Some (Error _) -> fallback ()
      | Some (Ok ()) -> (
          match Label.of_words labels.(i) with
          | Error _ -> fallback ()
          | Ok label ->
              Label_cache.note_verified (cache t) addrs.(i) labels.(i);
              set_hint t pn addrs.(i);
              cache_links t pn label;
              if pn = t.last_page then t.last_length <- label.Label.length;
              collect (i + 1) ((values.(i), label.Label.length) :: acc))
  in
  collect 0 []

(* How many of [len] bytes from [pos] the file holds. *)
let span_length t ~pos ~len = max 0 (min len (byte_length t - pos))

(* File's rule for laying bytes over pages: hand [f value ~page_off ~len
   ~dst_off] each page covering bytes [pos, pos + n), as [page pn] gives
   its value and label length, with the part of it in range and that
   part's offset in the span. A page holds only its label's length, so
   a short page before the last moves the rest of the span to later
   pages, and a page that holds none of it is [Structure]. *)
let walk_span ~page ~pos ~n f =
  let ( let* ) = Result.bind in
  let rec loop pn page_off dst_off =
    if dst_off >= n then Ok ()
    else
      let* value, plen = page pn in
      let here = min (plen - page_off) (n - dst_off) in
      if here <= 0 then
        Error
          (Structure (Printf.sprintf "page %d shorter than the file length implies" pn))
      else begin
        f value ~page_off ~len:here ~dst_off;
        loop (pn + 1) 0 (dst_off + here)
      end
  in
  loop (1 + (pos / Sector.bytes_per_page)) (pos mod Sector.bytes_per_page) 0

(* The page walk under every read: resolve and read the pages covering
   bytes [pos, pos + n), page by page, and walk them. When the addresses
   of four or more are known, each page's hint is seeded first, so no
   page spends operations chasing its address; the batching is the track
   buffer cache's, whose fills read from where the heads land through
   the page wanted, so the next page is buffered or under the heads.
   [n] is a {!span_length}. *)
let read_span t ~pos ~n f =
  if n = 0 then Ok ()
  else begin
    let first = 1 + (pos / Sector.bytes_per_page) in
    let last = 1 + ((pos + n - 1) / Sector.bytes_per_page) in
    (if last - first + 1 >= batch_threshold then
       match known_addresses t ~first ~last with
       | Some addrs -> Array.iteri (fun i a -> set_hint t (first + i) a) addrs
       | None -> ());
    let result = walk_span ~page:(read_page t) ~pos ~n f in
    if Result.is_ok result then touch_read t;
    result
  end

let read_bytes t ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "File.read_bytes: negative position or length";
  let n = span_length t ~pos ~len in
  let dst = Bytes.create n in
  Result.map
    (fun () -> dst)
    (read_span t ~pos ~n (fun value ~page_off ~len ~dst_off ->
         bytes_of_page value ~page_off ~len ~dst ~dst_off))

(* {2 Planned whole-file reads}

   A server activity wants the whole file but must not hold the machine
   while the disk turns: it asks for a plan (the label-checked value
   reads for every data page, as one request set), parks the requests on
   the standing elevator queue alongside every other conversation's, and
   assembles the bytes when the shared sweep has completed them. *)

type read_plan = {
  plan_file : t;
  plan_total : int;
  plan_labels : Word.t array array;
  plan_values : Word.t array array;
  plan_addrs : Disk_address.t array;
  plan_requests : Sched.request array;
  plan_slots : int array;
      (* [plan_requests.(j)] covers page index [plan_slots.(j)]: pages
         buffered in the track cache at plan time park no request and
         are served from core at assembly time instead. *)
}

let plan_requests p = p.plan_requests

let plan_read t =
  let total = byte_length t in
  if total = 0 then Ok None
  else begin
    let last = t.last_page in
    (* Addresses from hints (extrapolated where the leader vouches for
       consecutive allocation), completed by chasing links — the chase
       is synchronous metadata work charged to this conversation's turn;
       the data pages themselves all travel in the shared sweep. *)
    let addrs =
      match known_addresses t ~first:1 ~last with
      | Some addrs -> Ok addrs
      | None ->
          let ( let* ) = Result.bind in
          let rec collect pn acc =
            if pn > last then Ok (Array.of_list (List.rev acc))
            else
              let* fn = page_name t pn in
              collect (pn + 1) (fn.Page.addr :: acc)
          in
          collect 1 []
    in
    match addrs with
    | Error e -> Error e
    | Ok addrs ->
        let n = Array.length addrs in
        let values = Array.init n (fun _ -> Array.make Sector.value_words Word.zero) in
        let labels = Array.init n (fun i -> Label.check_name t.fid ~page:(1 + i)) in
        (* Pages whose sectors sit in the track buffer cache right now
           need no disk request at all; only the misses park on the
           elevator. A buffer that dies between plan and assembly costs
           that page one ordinary synchronous read — the same fallback a
           refuted request pays. *)
        let slots =
          let b = bio t in
          let acc = ref [] in
          for i = n - 1 downto 0 do
            if not (Bio.resident b addrs.(i)) then acc := i :: !acc
          done;
          Array.of_list !acc
        in
        let requests =
          Array.map
            (fun i ->
              Sched.request ~label:labels.(i) ~value:values.(i) addrs.(i)
                { Drive.op_none with label = Some Drive.Check; value = Some Drive.Read })
            slots
        in
        Ok
          (Some
             {
               plan_file = t;
               plan_total = total;
               plan_labels = labels;
               plan_values = values;
               plan_addrs = addrs;
               plan_requests = requests;
               plan_slots = slots;
             })
  end

let finish_read p outcomes =
  let t = p.plan_file in
  let n = Array.length p.plan_addrs in
  if Array.length outcomes <> Array.length p.plan_requests then
    invalid_arg "File.finish_read: outcome count does not match the plan";
  let ( let* ) = Result.bind in
  (* Re-index the outcomes by page: pages the plan served from the track
     buffer cache have no request, and read through the cache now. *)
  let outcome = Array.make n None in
  Array.iteri
    (fun j i -> outcome.(i) <- Some outcomes.(j).Sched.result)
    p.plan_slots;
  let* pages =
    adopt_batched t ~first:1 ~addrs:p.plan_addrs ~labels:p.plan_labels
      ~values:p.plan_values outcome
  in
  let dst = Bytes.create p.plan_total in
  let page pn =
    if pn <= n then Ok pages.(pn - 1)
    else Error (Structure "file shorter than its leader implies")
  in
  let* () =
    walk_span ~page ~pos:0 ~n:p.plan_total (fun value ~page_off ~len ~dst_off ->
        bytes_of_page value ~page_off ~len ~dst ~dst_off)
  in
  touch_read t;
  Ok (Bytes.to_string dst)

(* {2 Writing} *)

(* Store [len] bytes of [s] from [s_off] into a page value at byte
   [page_off], a word at a time once the page side is word-aligned. *)
let patch_page value ~page_off s ~s_off ~len =
  let lead = if page_off land 1 = 1 then min len 1 else 0 in
  if lead = 1 then poke_byte value page_off (Char.code s.[s_off]);
  let pairs = (len - lead) / 2 in
  for k = 0 to pairs - 1 do
    let j = lead + (2 * k) in
    value.((page_off + j) / 2) <- Word.of_int (String.get_uint16_be s (s_off + j))
  done;
  let tail = lead + (2 * pairs) in
  if tail < len then poke_byte value (page_off + tail) (Char.code s.[s_off + tail])

let update_leader_last t =
  t.leader <- Leader.with_last t.leader ~last_page:t.last_page ~last_addr:(hint t t.last_page)

(* One label-checked value write of page [pn]. [through] refuses the
   track buffer cache's absorption: the value reaches the platter now,
   and a buffered copy of the sector is brought up to date. *)
let write_value ?(through = false) t pn value =
  Result.map
    (fun (_ : Label.t) -> ())
    (with_page t pn (fun fn ->
         if not through then Page.write ~cache:(cache t) ~bio:(bio t) (drive t) fn value
         else
           let written = Page.write ~cache:(cache t) (drive t) fn value in
           Result.iter (fun _ -> Bio.install (bio t) fn.Page.addr ~value) written;
           written))

(* One elevator pass of label-checked full-page value writes; a refuted
   or failed request falls back to the one-page path for that page,
   written [through] the track buffer cache if asked. *)
let write_pages_batched ?through t ~first addrs values =
  let n = Array.length addrs in
  let labels = Array.init n (fun i -> Label.check_name t.fid ~page:(first + i)) in
  let requests =
    Array.init n (fun i ->
        Sched.request ~label:labels.(i) ~value:values.(i) addrs.(i)
          { Drive.op_none with label = Some Drive.Check; value = Some Drive.Write })
  in
  (* One map write covers the pass, before the elevator takes it. *)
  Fs.announce t.fs (Array.to_list addrs);
  let outcomes = Sched.run_batch (drive t) requests in
  let ( let* ) = Result.bind in
  let rec finish i =
    if i >= n then Ok ()
    else
      match outcomes.(i).Sched.result with
      | Ok () ->
          Label_cache.note_verified (cache t) addrs.(i) labels.(i);
          (* A value write moves no label generation, so a buffered copy
             of this sector would survive it stale — record the written
             value (supersedes any delayed write the buffer held). *)
          Bio.install (bio t) addrs.(i) ~value:values.(i);
          set_hint t (first + i) addrs.(i);
          finish (i + 1)
      | Error _ ->
          let* () = write_value ?through t (first + i) values.(i) in
          finish (i + 1)
  in
  finish 0

let write_bytes ?through t ~pos s =
  let total = byte_length t in
  if pos < 0 || pos > total then
    invalid_arg "File.write_bytes: position beyond end of file";
  let ( let* ) = Result.bind in
  let len = String.length s in
  (* [cached] avoids re-reading a page we just wrote when the loop
     immediately appends its successor. *)
  let cached = ref None in
  (* Fresh pages reserved and checked free, not yet written. *)
  let run = ref [] in
  (* The bytes from [s_off] as fresh pages after the last page, reserved
     as one run before any is written. With [rewrite], the last page's
     new length and value (it holds the write's first bytes), its one
     rewrite links it into the run before the run's first page goes
     down. Otherwise the last page (full, or the leader of a file with
     no data page) is relinked once that page is down. *)
  let extend ?rewrite s_off =
    let last = t.last_page in
    let* prev = page_name t last in
    let count = (len - s_off + Sector.bytes_per_page - 1) / Sector.bytes_per_page in
    let* first =
      match Fs.reserve_pages t.fs count with
      | Ok (first :: _ as reserved) ->
          run := reserved;
          Ok first
      | Ok [] -> Error (Fs_error Fs.Disk_full)
      | Error e -> Error (Fs_error e)
    in
    let* before =
      match rewrite with
      | Some (length, value) ->
          let* () = rewrite_page t last ~length ~next:(Some first) value in
          t.last_length <- length;
          Ok { names = first; length; value = (fun () -> Ok value) }
      | None ->
          Ok
            {
              names = Disk_address.nil;
              length = Sector.bytes_per_page;
              value =
                (fun () ->
                  match !cached with
                  | Some (p, v) when p = last -> Ok v
                  | Some _ | None ->
                      Result.map snd
                        (with_page t last (fun fn ->
                             Page.read ~cache:(cache t) ~bio:(bio t) (drive t) fn)));
            }
    in
    let pages =
      List.init count (fun k ->
          let off = s_off + (k * Sector.bytes_per_page) in
          let here = min Sector.bytes_per_page (len - off) in
          let value = Array.make Sector.value_words Word.zero in
          patch_page value ~page_off:0 s ~s_off:off ~len:here;
          (here, value))
    in
    let written =
      write_run t ~first:(last + 1) ~prev:prev.Page.addr ~before:(Some before) run pages
    in
    let rec judge pn prev =
      if pn <= t.last_page then begin
        let addr = hint t pn in
        if not (Disk_address.equal addr (Disk_address.offset prev 1)) then
          t.leader <- Leader.with_consecutive t.leader false;
        judge (pn + 1) addr
      end
    in
    judge (last + 1) prev.Page.addr;
    written
  in
  (* A long run of whole-page overwrites of existing pages — the shape
     of a world swap's outload — goes to the disk as one elevator batch
     before the page-at-a-time loop takes over for the remainder. *)
  let batched_prefix () =
    if pos mod Sector.bytes_per_page <> 0 then Ok (1 + (pos / Sector.bytes_per_page), 0)
    else begin
      let start_pn = 1 + (pos / Sector.bytes_per_page) in
      let rec extent pn s_off =
        if
          len - s_off >= Sector.bytes_per_page
          && (pn < t.last_page
             || (pn = t.last_page && t.last_length = Sector.bytes_per_page))
        then extent (pn + 1) (s_off + Sector.bytes_per_page)
        else pn
      in
      let stop = extent start_pn 0 in
      let count = stop - start_pn in
      if count < batch_threshold then Ok (start_pn, 0)
      else
        match known_addresses t ~first:start_pn ~last:(stop - 1) with
        | None -> Ok (start_pn, 0)
        | Some addrs ->
            let values =
              Array.init count (fun i ->
                  let v = Array.make Sector.value_words Word.zero in
                  patch_page v ~page_off:0 s ~s_off:(i * Sector.bytes_per_page)
                    ~len:Sector.bytes_per_page;
                  v)
            in
            let* () = write_pages_batched ?through t ~first:start_pn addrs values in
            cached := Some (stop - 1, values.(count - 1));
            Ok (stop, count * Sector.bytes_per_page)
    end
  in
  let rec put pn page_off s_off =
    if s_off >= len then Ok ()
    else
      let here = min (Sector.bytes_per_page - page_off) (len - s_off) in
      let full_page_overwrite =
        page_off = 0
        && here = Sector.bytes_per_page
        && (pn < t.last_page || (pn = t.last_page && t.last_length = Sector.bytes_per_page))
      in
      if full_page_overwrite then begin
        (* The whole page is replaced and its length is unchanged: one
           label-checked value write, no read — this is what lets a world
           swap stream 64K words at full track speed. *)
        let value = Array.make Sector.value_words Word.zero in
        patch_page value ~page_off:0 s ~s_off ~len:here;
        let* () = write_value ?through t pn value in
        cached := Some (pn, value);
        put (pn + 1) 0 (s_off + here)
      end
      else if pn <= t.last_page then begin
        let* value, plen = read_page t pn in
        patch_page value ~page_off s ~s_off ~len:here;
        let new_plen = max plen (page_off + here) in
        if pn = t.last_page && s_off + here < len then
          (* The write runs past the last page: its bytes go down with
             the link into the run, before any page after it. *)
          extend ~rewrite:(new_plen, value) (s_off + here)
        else begin
          let* () =
            if pn < t.last_page || new_plen = plen then write_value ?through t pn value
            else begin
              let* () = rewrite_page t pn ~length:new_plen ~next:None value in
              t.last_length <- new_plen;
              Ok ()
            end
          in
          cached := Some (pn, value);
          put (pn + 1) 0 (s_off + here)
        end
      end
      else
        (* The write starts where a full last page ends. *)
        extend s_off
  in
  let written =
    let* start_pn, start_s_off = batched_prefix () in
    let page_off = if start_s_off = 0 then pos mod Sector.bytes_per_page else 0 in
    put start_pn page_off start_s_off
  in
  (* A write refused partway leaves its run's unwritten pages reserved;
     they go back to the map. *)
  List.iter (Fs.unreserve t.fs) !run;
  let* () = written in
  touch_written t;
  update_leader_last t;
  Ok ()

let append_bytes t s = write_bytes t ~pos:(byte_length t) s

(* {2 Shrinking} *)

let truncate t ~len =
  if len < 0 || len > byte_length t then
    invalid_arg "File.truncate: length out of range";
  let ( let* ) = Result.bind in
  let new_last = if len = 0 then 1 else 1 + ((len - 1) / Sector.bytes_per_page) in
  (* The pages cut go as one run: every name is checked before any is
     freed. *)
  let rec resolve pn acc =
    if pn <= new_last then Ok acc
    else
      let* fn = page_name t pn in
      resolve (pn - 1) (fn :: acc)
  in
  let* cut = resolve t.last_page [] in
  let* () = Result.map_error (fun e -> Fs_error e) (Fs.free_pages t.fs cut) in
  List.iter (fun (fn : Page.full_name) -> clear_hint t fn.Page.abs.Page.page) cut;
  t.last_page <- new_last;
  let new_plen = len - (Sector.bytes_per_page * (new_last - 1)) in
  let* value, _ = read_page t new_last in
  (* Force the next link to NIL: new_plen describes the new last page. *)
  let* () = rewrite_page t new_last ~length:new_plen ~next:(Some Disk_address.nil) value in
  t.last_length <- new_plen;
  touch_written t;
  update_leader_last t;
  Ok ()

let delete t =
  let ( let* ) = Result.bind in
  (* Resolve every page before freeing anything, so a chase never has to
     walk through a page we already freed. *)
  let rec resolve acc pn =
    if pn > t.last_page then Ok (List.rev acc)
    else
      let* fn = page_name t pn in
      resolve (fn :: acc) (pn + 1)
  in
  let* data = resolve [] 1 in
  let free names = Result.map_error (fun e -> Fs_error e) (Fs.free_pages t.fs names) in
  (* The data pages go as one run, the leader last and on its own: a
     crash in between leaves the file with its leader, never headless
     pages for the scavenger to name. *)
  let* () = free data in
  let* () = free [ leader_name t ] in
  t.last_page <- 0;
  t.last_length <- 0;
  invalidate_hints t;
  Ok ()

(* {2 Word-granularity IO (for directories)} *)

let read_words t ~pos ~len =
  if pos < 0 || len < 0 then invalid_arg "File.read_words: negative position or length";
  let n = span_length t ~pos:(2 * pos) ~len:(2 * len) in
  let dst = Array.make (n / 2) Word.zero in
  Result.map
    (fun () -> dst)
    (read_span t ~pos:(2 * pos) ~n (fun value ~page_off ~len ~dst_off ->
         words_of_page value ~page_off ~len ~dst ~dst_off))

(* The first [n] bytes of a file as words, from [walk], which hands over
   each page's part as {!walk_span} does. *)
let word_pages ~n walk =
  let spans = ref [] in
  let ( let* ) = Result.bind in
  let* () =
    walk (fun value ~page_off ~len ~dst_off ->
        spans := (value, page_off, len, dst_off) :: !spans)
  in
  let spans = List.rev !spans in
  if List.for_all (fun (_, _, _, dst_off) -> dst_off mod Sector.bytes_per_page = 0) spans
  then Ok (Array.of_list (List.map (fun (value, _, _, _) -> value) spans), n / 2)
  else begin
    (* A page shorter than a full one before the last: the words do not
       lie page-aligned, so assemble them into fresh pages. *)
    let flat = Array.make (n / 2) Word.zero in
    List.iter
      (fun (value, page_off, len, dst_off) ->
        words_of_page value ~page_off ~len ~dst:flat ~dst_off)
      spans;
    let pages = (n / 2 + Sector.value_words - 1) / Sector.value_words in
    Ok
      ( Array.init pages (fun k ->
            let at = k * Sector.value_words in
            Array.sub flat at (min Sector.value_words ((n / 2) - at))),
        n / 2 )
  end

let read_word_pages t =
  let n = 2 * (byte_length t / 2) in
  word_pages ~n (read_span t ~pos:0 ~n)

let word_pages_of pages =
  let last = Array.length pages in
  let n =
    if last = 0 then 0
    else 2 * (length_of ~last_page:last ~last_length:(snd pages.(last - 1)) / 2)
  in
  word_pages ~n
    (walk_span ~pos:0 ~n ~page:(fun pn ->
         if pn <= last then Ok pages.(pn - 1) else Error (No_such_page pn)))

let write_words t ~pos ws =
  write_bytes t ~pos:(2 * pos) (Word.string_of_words ws ~len:(2 * Array.length ws))

(* {2 Leader maintenance} *)

let flush_leader t =
  update_leader_last t;
  write_value t 0 (Leader.to_value t.leader)

(* {2 Replacing the whole contents} *)

let replace ?through t s =
  let ( let* ) = Result.bind in
  let len = String.length s in
  let* () = if len < byte_length t then truncate t ~len else Ok () in
  let* () = write_bytes ?through t ~pos:0 s in
  flush_leader t

let replace_words t ws = replace t (Word.string_of_words ws ~len:(2 * Array.length ws))

(* {2 Layout} *)

let consecutive_fraction t =
  let ( let* ) = Result.bind in
  let last = last_page t in
  let rec count pn prev adjacent =
    if pn > last then Ok adjacent
    else
      let* fn = page_name t pn in
      let here = Disk_address.to_index fn.Page.addr in
      count (pn + 1) here (if here = prev + 1 then adjacent + 1 else adjacent)
  in
  if last < 1 then Ok 1.0
  else
    let* leader = page_name t 0 in
    let* adjacent = count 1 (Disk_address.to_index leader.Page.addr) 0 in
    Ok (float_of_int adjacent /. float_of_int last)

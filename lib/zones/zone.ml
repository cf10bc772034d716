module Word = Alto_machine.Word
module Memory = Alto_machine.Memory
module Obs = Alto_obs.Obs

let m_allocates = Obs.counter "zone.allocates"
let m_releases = Obs.counter "zone.releases"
let m_splits = Obs.counter "zone.splits"
let m_coalesces = Obs.counter "zone.coalesces"
let m_out_of_space = Obs.counter "zone.out_of_space"
let h_request_words = Obs.histogram "zone.request_words"

(* Occupancy observed after every allocate; the histogram's [max] is the
   peak number of simultaneously live blocks across all zones. *)
let h_live_blocks = Obs.histogram "zone.live_blocks"

exception Out_of_space of { zone : string; requested : int }
exception Corrupt of string

(* In-memory layout. Descriptor at [base]:
     base+0  magic
     base+1  region length in words
     base+2  free-list head (address; 0 = nil)
     base+3  live block count
   Every block starts with one header word holding its total size
   (header included). A free block's second word is the next-free
   pointer; the free list is kept sorted by address so that coalescing
   on release is a simple neighbour check. *)

let magic = 0x5A4F (* "ZO" *)
let overhead_words = 4
let block_overhead_words = 1
let min_block = 2
let min_region_words = overhead_words + min_block
let nil = 0

type t = { name : string; memory : Memory.t; base : int }

let rd z a = Word.to_int (Memory.read z.memory a)
let wr z a v = Memory.write z.memory a (Word.of_int_exn v)

let region_len z = rd z (z.base + 1)
let head z = rd z (z.base + 2)
let set_head z p = wr z (z.base + 2) p
let live_count z = rd z (z.base + 3)
let set_live_count z n = wr z (z.base + 3) n
let region_end z = z.base + region_len z

let corrupt z what = raise (Corrupt (Printf.sprintf "zone %s: %s" z.name what))

let format ?(name = "zone") memory ~pos ~len =
  if pos < 1 || len > 0xffff || pos + len > Memory.size then
    invalid_arg "Zone.format: region outside memory (pos must be >= 1)"
  else if len < min_region_words then invalid_arg "Zone.format: region too small"
  else begin
    let z = { name; memory; base = pos } in
    wr z pos magic;
    wr z (pos + 1) len;
    let first = pos + overhead_words in
    wr z (pos + 2) first;
    wr z (pos + 3) 0;
    wr z first (len - overhead_words);
    wr z (first + 1) nil;
    z
  end

let attach ?(name = "zone") memory ~pos =
  let z = { name; memory; base = pos } in
  if pos < 1 || pos >= Memory.size then corrupt z "base address outside memory";
  if rd z pos <> magic then corrupt z "no zone descriptor at base";
  let len = region_len z in
  if len < min_region_words || pos + len > Memory.size then corrupt z "bad region length";
  z


let block_end z a = a + rd z a

let validate_free_block z a =
  if a < z.base + overhead_words || a + min_block > region_end z then
    corrupt z "free-list pointer outside region";
  if block_end z a > region_end z then corrupt z "free block overruns region"

let allocate z n =
  if n < 1 then invalid_arg "Zone.allocate: size must be >= 1";
  let need = n + block_overhead_words in
  let rec search prev cur =
    if cur = nil then begin
      Obs.incr m_out_of_space;
      Obs.event
        ~fields:[ ("zone", Obs.S z.name); ("requested", Obs.I n) ]
        "zone.out_of_space";
      raise (Out_of_space { zone = z.name; requested = n })
    end
    else begin
      validate_free_block z cur;
      let size = rd z cur in
      let next = rd z (cur + 1) in
      if size >= need then begin
        let link p =
          if prev = nil then set_head z p else wr z (prev + 1) p
        in
        if size - need >= min_block then begin
          (* Split: keep the tail as a free block. *)
          let rest = cur + need in
          wr z rest (size - need);
          wr z (rest + 1) next;
          wr z cur need;
          link rest;
          Obs.incr m_splits
        end
        else link next;
        set_live_count z (live_count z + 1);
        Obs.incr m_allocates;
        Obs.observe h_request_words n;
        Obs.observe h_live_blocks (live_count z);
        cur + block_overhead_words
      end
      else search cur next
    end
  in
  search nil (head z)

let validate_live_block z user_addr =
  let a = user_addr - block_overhead_words in
  if a < z.base + overhead_words || a >= region_end z then
    corrupt z "release of address outside region";
  let size = rd z a in
  if size < min_block || a + size > region_end z then
    corrupt z "release of address that is not a block";
  a

let block_size z user_addr =
  let a = validate_live_block z user_addr in
  rd z a - block_overhead_words

let release z user_addr =
  let a = validate_live_block z user_addr in
  let size = rd z a in
  (* Find the free-list position keeping it address-sorted. *)
  let rec find prev cur =
    if cur = nil || cur > a then (prev, cur) else find cur (rd z (cur + 1))
  in
  let prev, next = find nil (head z) in
  if (prev <> nil && block_end z prev > a) || (next <> nil && a + size > next) then
    corrupt z "release of a block overlapping the free list (double free?)";
  (* Insert, then coalesce with next and previous neighbours. *)
  wr z (a + 1) next;
  if prev = nil then set_head z a else wr z (prev + 1) a;
  if next <> nil && block_end z a = next then begin
    wr z a (size + rd z next);
    wr z (a + 1) (rd z (next + 1));
    Obs.incr m_coalesces
  end;
  if prev <> nil && block_end z prev = a then begin
    wr z prev (rd z prev + rd z a);
    wr z (prev + 1) (rd z (a + 1));
    Obs.incr m_coalesces
  end;
  if live_count z = 0 then corrupt z "release with no live blocks"
  else begin
    set_live_count z (live_count z - 1);
    Obs.incr m_releases
  end

type stats = {
  region_words : int;
  free_words : int;
  live_blocks : int;
  free_blocks : int;
  largest_free : int;
}

let fold_free z f init =
  let rec walk acc cur guard =
    if cur = nil then acc
    else if guard = 0 then corrupt z "free list does not terminate"
    else begin
      validate_free_block z cur;
      walk (f acc cur (rd z cur)) (rd z (cur + 1)) (guard - 1)
    end
  in
  walk init (head z) (Memory.size / min_block)

let stats z =
  let free_words, free_blocks, largest_free =
    fold_free z
      (fun (words, blocks, largest) _addr size ->
        (words + size, blocks + 1, max largest size))
      (0, 0, 0)
  in
  {
    region_words = region_len z;
    free_words = (if free_words = 0 then 0 else free_words - block_overhead_words * free_blocks);
    live_blocks = live_count z;
    free_blocks;
    largest_free = (if largest_free = 0 then 0 else largest_free - block_overhead_words);
  }

let check z =
  if rd z z.base <> magic then corrupt z "descriptor magic destroyed";
  let last =
    fold_free z
      (fun last addr size ->
        if addr <= last then corrupt z "free list not address-sorted";
        if size < min_block then corrupt z "undersized free block";
        block_end z addr - 1)
      0
  in
  ignore last

type obj = { obj_allocate : int -> int; obj_release : int -> unit }

let obj z = { obj_allocate = allocate z; obj_release = release z }

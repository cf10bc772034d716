(* Files back to back past the descriptor, in file-id order, each page
   on the next sector a page may end on. The boot page at sector 0
   stays where it is. *)
let layout { Scavenger.sectors; first; files; usable; free = _ } =
  let next = ref first and plan = ref [] in
  let rec usable_from i =
    if i < sectors && not (usable i) then usable_from (i + 1) else i
  in
  List.iter
    (fun (fid, at) ->
      Array.iteri
        (fun pn i ->
          if i > 0 then begin
            let t = usable_from !next in
            next := t + 1;
            if t < sectors then plan := ((fid, pn), t) :: !plan
          end)
        at)
    (List.sort (fun (a, _) (b, _) -> File_id.compare a b) files);
  List.rev !plan

let compact fs =
  (* The scavenge reads the raw pack: delayed writes parked in the track
     buffer cache must reach the platter first. *)
  ignore (Bio.flush (Fs.bio fs));
  Scavenger.rebuild layout (Fs.drive fs)

type sys_outcome = Sys_continue | Sys_stop of int

type handler = Cpu.t -> int -> sys_outcome

type stop = Halted | Stopped of int | Out_of_fuel | Fault of string

let pp_stop fmt = function
  | Halted -> Format.pp_print_string fmt "halted"
  | Stopped code -> Format.fprintf fmt "stopped by system (code %d)" code
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"
  | Fault msg -> Format.fprintf fmt "fault: %s" msg

let push cpu w =
  let fp = Word.to_int (Cpu.frame_pointer cpu) in
  let fp' = (fp - 1) land 0xffff in
  Memory.write (Cpu.memory cpu) fp' w;
  Cpu.set_frame_pointer cpu (Word.of_int fp')

let pop cpu =
  let fp = Word.to_int (Cpu.frame_pointer cpu) in
  let w = Memory.read (Cpu.memory cpu) fp in
  Cpu.set_frame_pointer cpu (Word.of_int (fp + 1));
  w

let step cpu ~handler =
  let memory = Cpu.memory cpu in
  let pc = Word.to_int (Cpu.pc cpu) in
  match Instr.decode ~fetch:(Memory.read memory) ~pc with
  | Error msg -> Error (Fault msg)
  | Ok (instr, next_pc) -> (
      Cpu.set_pc cpu (Word.of_int next_pc);
      let ac = Cpu.ac cpu and set = Cpu.set_ac cpu in
      let jump target = Cpu.set_pc cpu (Word.of_int target) in
      try
        match instr with
        | Instr.Halt -> Error Halted
        | Instr.Ldi (r, v) ->
            set r (Word.of_int v);
            Ok ()
        | Instr.Lda (r, a) ->
            set r (Memory.read memory a);
            Ok ()
        | Instr.Sta (r, a) ->
            Memory.write memory a (ac r);
            Ok ()
        | Instr.Ldx (r, r2) ->
            set r (Memory.read memory (Word.to_int (ac r2)));
            Ok ()
        | Instr.Stx (r, r2) ->
            Memory.write memory (Word.to_int (ac r2)) (ac r);
            Ok ()
        | Instr.Mov (r, r2) ->
            set r (ac r2);
            Ok ()
        | Instr.Add (r, r2) ->
            set r (Word.add (ac r) (ac r2));
            Ok ()
        | Instr.Sub (r, r2) ->
            set r (Word.sub (ac r) (ac r2));
            Ok ()
        | Instr.And_ (r, r2) ->
            set r (Word.logand (ac r) (ac r2));
            Ok ()
        | Instr.Or_ (r, r2) ->
            set r (Word.logor (ac r) (ac r2));
            Ok ()
        | Instr.Xor_ (r, r2) ->
            set r (Word.logxor (ac r) (ac r2));
            Ok ()
        | Instr.Shl (r, n) ->
            set r (Word.shift_left (ac r) n);
            Ok ()
        | Instr.Shr (r, n) ->
            set r (Word.shift_right (ac r) n);
            Ok ()
        | Instr.Addi (r, v) ->
            set r (Word.add (ac r) (Word.of_int v));
            Ok ()
        | Instr.Jmp a ->
            jump a;
            Ok ()
        | Instr.Jz (r, a) ->
            if Word.equal (ac r) Word.zero then jump a;
            Ok ()
        | Instr.Jnz (r, a) ->
            if not (Word.equal (ac r) Word.zero) then jump a;
            Ok ()
        | Instr.Jlt (r, a) ->
            if Word.to_signed (ac r) < 0 then jump a;
            Ok ()
        | Instr.Jsr a ->
            push cpu (Cpu.pc cpu);
            jump a;
            Ok ()
        | Instr.Jsri r ->
            let target = Word.to_int (ac r) in
            push cpu (Cpu.pc cpu);
            jump target;
            Ok ()
        | Instr.Ret ->
            jump (Word.to_int (pop cpu));
            Ok ()
        | Instr.Mfp r ->
            set r (Cpu.frame_pointer cpu);
            Ok ()
        | Instr.Mtf r ->
            Cpu.set_frame_pointer cpu (ac r);
            Ok ()
        | Instr.Mul (r, r2) ->
            set r (Word.mul (ac r) (ac r2));
            Ok ()
        | Instr.Div (r, r2) ->
            if Word.equal (ac r2) Word.zero then
              Error (Fault (Printf.sprintf "division by zero at pc %d" pc))
            else begin
              set r (Word.of_int (Word.to_int (ac r) / Word.to_int (ac r2)));
              Ok ()
            end
        | Instr.Rem (r, r2) ->
            if Word.equal (ac r2) Word.zero then
              Error (Fault (Printf.sprintf "division by zero at pc %d" pc))
            else begin
              set r (Word.of_int (Word.to_int (ac r) mod Word.to_int (ac r2)));
              Ok ()
            end
        | Instr.Push r ->
            push cpu (ac r);
            Ok ()
        | Instr.Pop r ->
            set r (pop cpu);
            Ok ()
        | Instr.Sys code -> (
            match handler cpu code with
            | Sys_continue -> Ok ()
            | Sys_stop stop_code -> Error (Stopped stop_code))
      with Memory.Invalid_address a ->
        Error (Fault (Printf.sprintf "memory fault at address %d (pc %d)" a pc)))

let run ?(fuel = 1_000_000) cpu ~handler =
  let rec go fuel =
    if fuel <= 0 then Out_of_fuel
    else
      match step cpu ~handler with Ok () -> go (fuel - 1) | Error stop -> stop
  in
  go fuel

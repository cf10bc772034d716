type t = {
  memory : Memory.t;
  mutable pc : Word.t;
  mutable frame_pointer : Word.t;
  ac : Word.t array;
}

let accumulator_count = 4
let register_count = 2 + accumulator_count

let create memory =
  {
    memory;
    pc = Word.zero;
    frame_pointer = Word.zero;
    ac = Array.make accumulator_count Word.zero;
  }

let memory cpu = cpu.memory
let pc cpu = cpu.pc
let set_pc cpu w = cpu.pc <- w

let check_ac i =
  if i < 0 || i >= accumulator_count then
    invalid_arg (Printf.sprintf "Cpu.ac: no accumulator %d" i)

let ac cpu i =
  check_ac i;
  cpu.ac.(i)

let set_ac cpu i w =
  check_ac i;
  cpu.ac.(i) <- w

let frame_pointer cpu = cpu.frame_pointer
let set_frame_pointer cpu w = cpu.frame_pointer <- w

let registers cpu = Array.append [| cpu.pc; cpu.frame_pointer |] (Array.copy cpu.ac)

let load_registers cpu ws =
  if Array.length ws <> register_count then
    invalid_arg "Cpu.load_registers: wrong register count"
  else begin
    cpu.pc <- ws.(0);
    cpu.frame_pointer <- ws.(1);
    Array.blit ws 2 cpu.ac 0 accumulator_count
  end

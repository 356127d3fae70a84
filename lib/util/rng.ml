type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

(* splitmix64: fast, full 64-bit period increments, excellent avalanche. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

(* The state lives in a local reference while the loop runs, so no
   [int64] is boxed per byte; each byte is [int t 256]'s value:
   [(z lsr 1) mod 256] is bits 1-8 of [z]. *)
let bytes t len =
  let b = Bytes.create len in
  let state = ref t.state in
  for i = 0 to len - 1 do
    state := Int64.add !state gamma;
    let z = mix !state in
    Bytes.unsafe_set b i
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical z 1) land 0xFF))
  done;
  t.state <- !state;
  b

let float t bound =
  let mantissa = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = { state = next_int64 t }

(* Sample buffers and order statistics. *)

(* A growable buffer of ints that only allocates when it doubles, so
   pushing a sample between two timed calls costs no words in either. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
end

(* Nearest-rank percentile of [xs] (q in (0, 1]); 0 for no samples. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then 0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median = function
  | [] -> nan
  | xs ->
      let s = Array.of_list xs in
      Array.sort compare s;
      let n = Array.length s in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den

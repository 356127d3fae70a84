(* Slicing-by-8 over native ints: [tables.(k * 256 + n)] is the CRC of
   byte [n] followed by [k] zero bytes, so eight input bytes fold into
   the running CRC with eight table lookups.  The value is the classic
   byte-at-a-time CRC-32; segment flushes checksum every payload byte, so
   this is on the log's write path. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let digest_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes";
  let t = Lazy.force tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let a = !crc lxor u32 b !i and c = u32 b (!i + 4) in
    crc :=
      t.((7 * 256) + (a land 0xFF))
      lxor t.((6 * 256) + ((a lsr 8) land 0xFF))
      lxor t.((5 * 256) + ((a lsr 16) land 0xFF))
      lxor t.((4 * 256) + (a lsr 24))
      lxor t.((3 * 256) + (c land 0xFF))
      lxor t.((2 * 256) + ((c lsr 8) land 0xFF))
      lxor t.(256 + ((c lsr 16) land 0xFF))
      lxor t.(c lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    crc := t.((!crc lxor Char.code (Bytes.get b j)) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

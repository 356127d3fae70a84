module Codec = Lfs_util.Codec

let entry_bytes name = 4 + 2 + String.length name

let parse block =
  let d = Codec.decoder block in
  let n = Codec.read_u16 d in
  List.init n (fun _ ->
      let inum = Codec.read_u32 d in
      let name = Codec.read_string_u16 d in
      (name, inum))

let encode ~block_size entries =
  let e = Codec.encoder ~capacity:block_size () in
  Codec.u16 e (List.length entries);
  List.iter
    (fun (name, inum) ->
      Codec.u32 e inum;
      Codec.string_u16 e name)
    entries;
  Codec.pad_to e block_size;
  Codec.to_bytes e

(* ---- in-place access to an encoded block ----

   Every walk checks each entry against the block bounds before reading
   it, so a count that overruns the block or a truncated name raises
   [Codec.Error] exactly where {!parse} would. *)

let fail what = raise (Codec.Error ("Dir_block: " ^ what))

let count block =
  if Bytes.length block < 2 then fail "short block";
  Bytes.get_uint16_le block 0

(* End offset of the entry at [off], after checking it lies inside the
   block. *)
let entry_end block off =
  if off + 6 > Bytes.length block then fail "entry overruns block";
  let next = off + 6 + Bytes.get_uint16_le block (off + 4) in
  if next > Bytes.length block then fail "name overruns block";
  next

(* The walks below are top-level recursive functions taking every value
   they use as an argument: a local closure would be allocated on each
   call, and [same_name] runs once per entry scanned. *)
let rec same_name block off name i len =
  i = len
  || Bytes.get block (off + i) = String.get name i
     && same_name block off name (i + 1) len

let rec find_from block name n i off found =
  if i = n then found
  else
    let next = entry_end block off in
    let found =
      if
        found < 0
        && next - off - 6 = String.length name
        && same_name block (off + 6) name 0 (String.length name)
      then off
      else found
    in
    find_from block name n (i + 1) next found

(* Offset of the first entry named [name] (-1 if none), after checking
   the whole block. *)
let find_off block name = find_from block name (count block) 0 2 (-1)

let rec used_from block n i off =
  if i = n then off else used_from block n (i + 1) (entry_end block off)

(* Bytes the entries occupy, header included. *)
let used block = used_from block (count block) 0 2

let find block name =
  let off = find_off block name in
  if off < 0 then None
  else Some (Int32.to_int (Bytes.get_int32_le block off) land 0xFFFFFFFF)

let fits block name = used block + entry_bytes name <= Bytes.length block

let insert_front block name inum =
  let len = String.length name in
  if len > 0xFFFF then fail "name too long";
  if inum < 0 || inum > 0xFFFFFFFF then fail "inum out of range";
  let n = count block in
  if n = 0xFFFF then fail "entry count overflow";
  let used = used block in
  let size = entry_bytes name in
  if used + size > Bytes.length block then fail "block full";
  Bytes.blit block 2 block (2 + size) (used - 2);
  Bytes.set_int32_le block 2 (Int32.of_int inum);
  Bytes.set_uint16_le block 6 len;
  Bytes.blit_string name 0 block 8 len;
  Bytes.set_uint16_le block 0 (n + 1);
  (* [encode] pads with zeros: so does every edit. *)
  Bytes.fill block (used + size) (Bytes.length block - used - size) '\000'

let remove block name =
  let off = find_off block name in
  off >= 0
  &&
  let used = used block in
  let next = entry_end block off in
  let size = next - off in
  Bytes.blit block next block off (used - next);
  Bytes.set_uint16_le block 0 (count block - 1);
  Bytes.fill block (used - size) (Bytes.length block - used + size) '\000';
  true

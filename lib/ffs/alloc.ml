module Bitset = Lfs_util.Bitset

type t = {
  layout : Layout.t;
  block_maps : Bitset.t array;  (* per group, group-relative block bits *)
  inode_maps : Bitset.t array;  (* per group, group-relative inode bits *)
  dirty : bool array;
}

let layout t = t.layout

let meta_blocks (l : Layout.t) = l.bb_blocks + l.ib_blocks + l.it_blocks

let create (l : Layout.t) =
  let t =
    {
      layout = l;
      block_maps = Array.init l.ngroups (fun _ -> Bitset.create l.group_blocks);
      inode_maps =
        Array.init l.ngroups (fun _ -> Bitset.create l.inodes_per_group);
      dirty = Array.make l.ngroups true;
    }
  in
  (* Bitmap, inode-bitmap and inode-table blocks are never data blocks. *)
  Array.iter
    (fun m ->
      for i = 0 to meta_blocks l - 1 do
        Bitset.set m i
      done)
    t.block_maps;
  (* inum 0 is the null inum. *)
  Bitset.set t.inode_maps.(0) 0;
  t

(* Crash repair: fsck rebuilds both bitmaps from scratch, re-marking what
   the inode table and the reachable block pointers prove allocated. *)

let reset t =
  let l = t.layout in
  for g = 0 to l.Layout.ngroups - 1 do
    t.block_maps.(g) <- Bitset.create l.Layout.group_blocks;
    t.inode_maps.(g) <- Bitset.create l.Layout.inodes_per_group;
    for i = 0 to meta_blocks l - 1 do
      Bitset.set t.block_maps.(g) i
    done;
    t.dirty.(g) <- true
  done;
  Bitset.set t.inode_maps.(0) 0

let mark_inode t inum =
  let g = Layout.group_of_inum t.layout inum in
  Bitset.set t.inode_maps.(g) (inum mod t.layout.Layout.inodes_per_group);
  t.dirty.(g) <- true

let mark_block t addr =
  let g = Layout.group_of_block t.layout addr in
  Bitset.set t.block_maps.(g) (addr - Layout.group_first_block t.layout g);
  t.dirty.(g) <- true

(* Inodes *)

let inode_allocated t inum =
  let g = Layout.group_of_inum t.layout inum in
  Bitset.mem t.inode_maps.(g) (inum mod t.layout.Layout.inodes_per_group)

let free_in_group t g =
  Bitset.length t.inode_maps.(g) - Bitset.cardinal t.inode_maps.(g)

let alloc_inode t ~group ~spread =
  let l = t.layout in
  let order =
    if spread then
      List.sort
        (fun a b -> compare (free_in_group t b) (free_in_group t a))
        (List.init l.Layout.ngroups Fun.id)
    else List.init l.Layout.ngroups (fun i -> (group + i) mod l.Layout.ngroups)
  in
  let rec go = function
    | [] -> None
    | g :: rest -> (
        match Bitset.find_first_clear t.inode_maps.(g) with
        | Some idx ->
            Bitset.set t.inode_maps.(g) idx;
            t.dirty.(g) <- true;
            Some ((g * l.Layout.inodes_per_group) + idx)
        | None -> go rest)
  in
  go order

let free_inode t inum =
  let g = Layout.group_of_inum t.layout inum in
  Bitset.clear t.inode_maps.(g) (inum mod t.layout.Layout.inodes_per_group);
  t.dirty.(g) <- true

(* Blocks *)

let block_allocated t addr =
  let g = Layout.group_of_block t.layout addr in
  Bitset.mem t.block_maps.(g) (addr - Layout.group_first_block t.layout g)

let alloc_in_group t g ~start =
  match Bitset.find_first_clear ~start t.block_maps.(g) with
  | Some idx ->
      Bitset.set t.block_maps.(g) idx;
      t.dirty.(g) <- true;
      Some (Layout.group_first_block t.layout g + idx)
  | None -> None

let alloc_block t ~near =
  let l = t.layout in
  let g0, start =
    if near >= 1 && near < 1 + (l.Layout.ngroups * l.Layout.group_blocks) then begin
      let g = Layout.group_of_block l near in
      (g, near - Layout.group_first_block l g + 1)
    end
    else (0, meta_blocks l)
  in
  let rec go i =
    if i >= l.Layout.ngroups then None
    else begin
      let g = (g0 + i) mod l.Layout.ngroups in
      let start = if i = 0 then start mod l.Layout.group_blocks else meta_blocks l in
      match alloc_in_group t g ~start with
      | Some addr -> Some addr
      | None -> go (i + 1)
    end
  in
  go 0

let free_block t addr =
  let g = Layout.group_of_block t.layout addr in
  let idx = addr - Layout.group_first_block t.layout g in
  if idx < meta_blocks t.layout then
    invalid_arg "Alloc.free_block: metadata block";
  Bitset.clear t.block_maps.(g) idx;
  t.dirty.(g) <- true

let free_block_count t =
  Array.fold_left (fun acc m -> acc + Bitset.length m - Bitset.cardinal m) 0
    t.block_maps

(* Persistence: block bitmap blocks then inode bitmap blocks, packed. *)

let dirty_groups t =
  List.filter (fun g -> t.dirty.(g)) (List.init t.layout.Layout.ngroups Fun.id)

let clear_dirty t = Array.fill t.dirty 0 (Array.length t.dirty) false

let slice_blocks (l : Layout.t) packed nblocks =
  List.init nblocks (fun i ->
      let b = Bytes.make l.Layout.block_size '\000' in
      let off = i * l.Layout.block_size in
      let len = min l.Layout.block_size (Bytes.length packed - off) in
      if len > 0 then Bytes.blit packed off b 0 len;
      b)

let encode_group t g =
  let l = t.layout in
  let bb = slice_blocks l (Bitset.to_bytes t.block_maps.(g)) l.Layout.bb_blocks in
  let ib = slice_blocks l (Bitset.to_bytes t.inode_maps.(g)) l.Layout.ib_blocks in
  List.mapi (fun i b -> (Layout.block_bitmap_block l ~group:g ~idx:i, b)) bb
  @ List.mapi (fun i b -> (Layout.inode_bitmap_block l ~group:g ~idx:i, b)) ib

let load_group t g ~read =
  let l = t.layout in
  let gather n addr_of =
    let buf = Bytes.create (n * l.Layout.block_size) in
    List.iteri
      (fun i addr ->
        Bytes.blit (read addr) 0 buf (i * l.Layout.block_size)
          l.Layout.block_size)
      (List.init n addr_of);
    buf
  in
  let bb = gather l.Layout.bb_blocks (fun i -> Layout.block_bitmap_block l ~group:g ~idx:i) in
  let ib = gather l.Layout.ib_blocks (fun i -> Layout.inode_bitmap_block l ~group:g ~idx:i) in
  t.block_maps.(g) <- Bitset.of_bytes ~length:l.Layout.group_blocks bb;
  t.inode_maps.(g) <- Bitset.of_bytes ~length:l.Layout.inodes_per_group ib;
  t.dirty.(g) <- false

module Dir_block = Lfs_vfs.Dir_block
module Errors = Lfs_vfs.Errors
module Io = Lfs_disk.Io
module Path = Lfs_vfs.Path

let dir_entry (st : State.t) inum =
  let e = Inode_store.find st inum in
  if e.ino.Inode.kind <> Lfs_vfs.Fs_intf.Directory then
    Errors.raise_ (Errors.Enotdir (Printf.sprintf "inum %d" inum));
  e

let nblocks (st : State.t) (e : State.itable_entry) =
  Inode.nblocks ~block_size:st.layout.Layout.block_size e.ino

(* A directory block's bytes: the cache's own buffer, fetched (and
   cached clean) on a miss, or [None] for a hole.  Lookups scan it and
   updates edit it in place before re-inserting it dirty. *)
let dir_block (st : State.t) (e : State.itable_entry) blkidx =
  let inum = e.ino.Inode.inum in
  match Lfs_cache.Block_cache.find st.cache (Block_io.key_data ~inum ~blkno:blkidx) with
  | Some _ as hit -> hit
  | None ->
      let addr = Inode_store.bmap_read st e blkidx in
      if addr = Layout.null_addr then None
      else Some (Block_io.read_file_block st ~inum ~blkno:blkidx ~addr)

let read_block st e blkidx =
  match dir_block st e blkidx with
  | Some block -> Dir_block.parse block
  | None -> []

let write_block (st : State.t) (e : State.itable_entry) blkidx block =
  let inum = e.ino.Inode.inum in
  let bs = st.layout.Layout.block_size in
  Lfs_cache.Block_cache.insert st.cache
    (Block_io.key_data ~inum ~blkno:blkidx)
    ~dirty:true block;
  if (blkidx + 1) * bs > e.ino.Inode.size then
    e.ino.Inode.size <- (blkidx + 1) * bs;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty e

let empty_block (st : State.t) = Bytes.make st.layout.Layout.block_size '\000'

let lookup (st : State.t) ~dir name =
  let e = dir_entry st dir in
  let n = nblocks st e in
  let rec scan blk =
    if blk >= n then None
    else begin
      Io.charge_lookup st.io;
      let found =
        match dir_block st e blk with
        | Some block -> Dir_block.find block name
        | None -> None
      in
      if Option.is_some found then found else scan (blk + 1)
    end
  in
  scan 0

let add (st : State.t) ~dir name inum =
  if not (Path.valid_name name) then
    Errors.raise_ (Errors.Einval (Printf.sprintf "bad name %S" name));
  let e = dir_entry st dir in
  let n = nblocks st e in
  let rec place blk =
    if blk >= n then begin
      let block = empty_block st in
      Dir_block.insert_front block name inum;
      write_block st e n block
    end
    else begin
      Io.charge_lookup st.io;
      let block =
        match dir_block st e blk with Some b -> b | None -> empty_block st
      in
      if Dir_block.fits block name then begin
        Dir_block.insert_front block name inum;
        write_block st e blk block
      end
      else place (blk + 1)
    end
  in
  place 0

let remove (st : State.t) ~dir name =
  let e = dir_entry st dir in
  let n = nblocks st e in
  let rec hunt blk =
    if blk >= n then Errors.raise_ (Errors.Enoent name)
    else begin
      Io.charge_lookup st.io;
      match dir_block st e blk with
      | Some block when Dir_block.remove block name -> write_block st e blk block
      | Some _ | None -> hunt (blk + 1)
    end
  in
  hunt 0

let entries (st : State.t) ~dir =
  let e = dir_entry st dir in
  let n = nblocks st e in
  List.concat (List.init n (fun blk ->
      Io.charge_lookup st.io;
      read_block st e blk))

let is_empty st ~dir = entries st ~dir = []

let resolve (st : State.t) components =
  List.fold_left
    (fun cur name ->
      match lookup st ~dir:cur name with
      | Some inum -> inum
      | None -> Errors.raise_ (Errors.Enoent name))
    State.root_inum components

let resolve_dir st components =
  let inum = resolve st components in
  ignore (dir_entry st inum);
  inum

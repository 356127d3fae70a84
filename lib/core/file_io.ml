module Cache = Lfs_cache.Block_cache
module Io = Lfs_disk.Io

let read (st : State.t) (e : State.itable_entry) ~off ~len =
  let data = Block_file.read st e ~off ~len in
  Imap.set_atime_us st.imap e.ino.Inode.inum (Io.now_us st.io);
  data

let write (st : State.t) (e : State.itable_entry) ~off data =
  let inum = e.ino.Inode.inum in
  let bs = st.layout.Layout.block_size in
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blkno = abs / bs in
    let in_block = abs mod bs in
    let chunk = min (len - !pos) (bs - in_block) in
    let key = Block_io.key_data ~inum ~blkno in
    if chunk = bs then begin
      (* Whole-block overwrite: no read needed. *)
      let block = Cache.take st.cache bs in
      Bytes.blit data !pos block 0 bs;
      Cache.insert st.cache key ~dirty:true block
    end
    else begin
      match Cache.find st.cache key with
      | Some block ->
          Bytes.blit data !pos block in_block chunk;
          Cache.mark_dirty st.cache key
      | None ->
          let addr = Inode_store.bmap_read st e blkno in
          if addr <> Layout.null_addr then begin
            (* Read-modify-write: the fill caches the block clean (an
               insert never evicts the block it adds), and it is edited
               and dirtied before the next cache update. *)
            let block = Block_file.read_block st e ~blkno ~addr in
            Bytes.blit data !pos block in_block chunk;
            Cache.mark_dirty st.cache key
          end
          else begin
            let block = Cache.take_zeroed st.cache bs in
            Bytes.blit data !pos block in_block chunk;
            Cache.insert st.cache key ~dirty:true block
          end
    end;
    pos := !pos + chunk
  done;
  if off + len > e.ino.Inode.size then e.ino.Inode.size <- off + len;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty e;
  Io.charge_copy st.io ~bytes:len

let release (st : State.t) addr ~bytes =
  if addr <> Layout.null_addr then
    Seg_usage.sub_live st.usage (Layout.segment_of_block st.layout addr) ~bytes

let truncate (st : State.t) (e : State.itable_entry) ~size =
  let inum = e.ino.Inode.inum in
  let bs = st.layout.Layout.block_size in
  let old_size = e.ino.Inode.size in
  if size < old_size then begin
    let keep_blocks = (size + bs - 1) / bs in
    let old_blocks = (old_size + bs - 1) / bs in
    for blkno = keep_blocks to old_blocks - 1 do
      let old = Inode_store.bmap_write st e blkno Layout.null_addr in
      release st old ~bytes:bs;
      Cache.remove st.cache (Block_io.key_data ~inum ~blkno)
    done;
    Block_file.zero_tail st e ~size;
    if size = 0 then begin
      (* §4.2.1: truncation to zero bumps the version, so the cleaner can
         dismiss this file's old blocks from the summary alone. *)
      Imap.bump_version st.imap inum;
      release st e.ino.Inode.indirect ~bytes:bs;
      Cache.remove st.cache (Block_io.key_raw e.ino.Inode.indirect);
      e.ino.Inode.indirect <- Layout.null_addr;
      e.ind_map <- None;
      e.ind_dirty <- false;
      (match e.dind_top with
      | Some top ->
          Array.iter
            (fun child ->
              release st child ~bytes:bs;
              Cache.remove st.cache (Block_io.key_raw child))
            top
      | None ->
          if e.ino.Inode.dindirect <> Layout.null_addr then
            (* Top map never loaded: load it to release the children.
               The loaded map, not the cache's buffer, is read: the
               removals below may recycle that buffer. *)
            for i = 0 to Layout.ptrs_per_block st.layout - 1 do
              let child = Inode_store.dind_child_addr st e i in
              release st child ~bytes:bs;
              Cache.remove st.cache (Block_io.key_raw child)
            done);
      release st e.ino.Inode.dindirect ~bytes:bs;
      Cache.remove st.cache (Block_io.key_raw e.ino.Inode.dindirect);
      e.ino.Inode.dindirect <- Layout.null_addr;
      e.dind_top <- None;
      e.dind_top_dirty <- false;
      e.dind_children <- [||];
      e.dind_child_dirty <- Lfs_util.Bitset.create 0
    end
  end;
  e.ino.Inode.size <- size;
  e.ino.Inode.mtime_us <- Io.now_us st.io;
  Inode_store.mark_dirty e

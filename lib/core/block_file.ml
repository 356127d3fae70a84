include Lfs_vfs.Block_file.Make (struct
  type t = State.t
  type file = State.itable_entry

  let io (st : t) = st.io
  let cache (st : t) = st.cache
  let readahead (st : t) = st.readahead
  let block_size (st : t) = st.layout.Layout.block_size
  let read_clustering (st : t) = st.config.Config.read_clustering
  let root = State.root_inum
  let null_addr = Layout.null_addr
  let find = Inode_store.find
  let inum (e : file) = e.ino.Inode.inum
  let size (e : file) = e.ino.Inode.size
  let kind (e : file) = e.ino.Inode.kind
  let bmap = Inode_store.bmap_read
  let read_disk_into = Block_io.read_disk_into
  let fetch_into = Block_io.fetch_into

  (* Blocks of the segment still being assembled are not on the disk. *)
  let clusterable st addr = not (Block_io.in_active_segment st addr)

  (* A directory update is an ordinary cached write: it reaches the disk
     inside a segment write, never synchronously (§4.1). *)
  let write_dir_block (st : t) (e : file) blkidx block =
    let bs = st.layout.Layout.block_size in
    Lfs_cache.Block_cache.insert st.cache
      (Block_io.key_data ~inum:e.ino.Inode.inum ~blkno:blkidx)
      ~dirty:true block;
    if (blkidx + 1) * bs > e.ino.Inode.size then
      e.ino.Inode.size <- (blkidx + 1) * bs;
    e.ino.Inode.mtime_us <- Lfs_disk.Io.now_us st.io;
    Inode_store.mark_dirty e

  let max_files (st : t) = Imap.max_files st.imap
  let allocated (st : t) inum = Imap.is_allocated st.imap inum
  let nlink (e : file) = e.ino.Inode.nlink
  let indirect (e : file) = e.ino.Inode.indirect
  let dindirect (e : file) = e.ino.Inode.dindirect
  let ptrs_per_block (st : t) = Layout.ptrs_per_block st.layout
  let dind_child = Inode_store.dind_child_addr

  let data_address (st : t) addr = Layout.in_segment_area st.layout addr
end)

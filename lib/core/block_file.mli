(** LFS's instance of the block-file layer shared with FFS
    ({!Lfs_vfs.Block_file}): reads, read-ahead, directories and path
    resolution over the inode map's inodes.

    Blocks of the segment still being assembled in memory are copied
    from it, never clustered or prefetched.  Directory updates are
    ordinary cached file writes that reach the disk inside segment
    writes (§4.1).  For the structural checker, any block of a segment
    may hold a file block. *)

include
  Lfs_vfs.Block_file.S
    with type t := State.t
     and type file := State.itable_entry

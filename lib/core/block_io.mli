(** Block access below the file cache.

    A block recently appended to the log may still sit in the segment
    being assembled in memory rather than on the disk, so a fetch first
    consults the active segment and only then the disk.  Disk reads are
    synchronous — the reader waits.  File blocks go through the shared
    block-file layer ({!Block_file}); this module serves it and the
    by-address metadata blocks. *)

val key_data : inum:int -> blkno:int -> Lfs_cache.Block_cache.key
(** Cache key for a logical file block. *)

val key_raw : int -> Lfs_cache.Block_cache.key
(** Cache key for a by-address block (inode block, indirect block). *)

val in_active_segment : State.t -> int -> bool
(** Whether a block address falls inside the segment currently being
    assembled in memory. *)

val read_disk : State.t -> int -> n:int -> bytes
(** [read_disk st addr ~n]: the [n] blocks at [addr..addr + n - 1] in one
    disk request. *)

val fetch : State.t -> int -> bytes
(** One block, as fresh bytes: copied from the active segment if it is
    there, read from the disk otherwise.  Does not touch the cache. *)

val read_raw : State.t -> int -> bytes
(** Read the block at a disk address through the cache, caching it clean
    under {!key_raw} on a miss.  @raise Invalid_argument on the null
    address. *)

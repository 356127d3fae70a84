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

val read_disk_into : State.t -> int -> n:int -> bytes -> unit
(** [read_disk_into st addr ~n buf]: the [n] blocks at
    [addr..addr + n - 1], read into the start of [buf] in one disk
    request. *)

val fetch_into : State.t -> int -> bytes -> unit
(** [fetch_into st addr buf] fills the first block of [buf] with the
    block at [addr]: copied from the active segment if it is there, read
    from the disk otherwise.  Does not touch the cache. *)

val read_raw : State.t -> int -> bytes
(** Read the block at a disk address through the cache, caching it clean
    under {!key_raw} in a recycled buffer on a miss.  The result is the
    cache's buffer, valid until the next cache insert, remove or drop.
    @raise Invalid_argument on the null address. *)

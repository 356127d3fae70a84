(** The block-file layer both file systems share.

    LFS keeps the classic UNIX inode and directory format (§4.2), so once
    a file's inode is found its blocks are read exactly as in FFS.  This
    functor holds that common machinery once: the cached read path with
    clustered fills and read-ahead, the directory scan/insert/remove over
    {!Dir_block}, path resolution, and truncate's partial-tail zeroing.

    A file system supplies only what really differs: its block map, how
    a block that missed in the cache is fetched (LFS copies blocks of the
    segment still being assembled from memory) and whether an address
    may join a multi-block disk request, and how an edited directory
    block is written back (LFS leaves it dirty in the cache; FFS writes
    it synchronously in place).  Syscall wrappers, CPU charges, atime and
    the write loop stay with each file system. *)

module type FS = sig
  type t
  type file  (** an in-memory inode *)

  val io : t -> Lfs_disk.Io.t
  val cache : t -> Lfs_cache.Block_cache.t
  val readahead : t -> Lfs_cache.Readahead.t
  val block_size : t -> int

  val read_clustering : t -> bool
  (** Fill a read miss with one request for the physically contiguous
      uncached blocks that follow it. *)

  val root : int
  (** Inode number of the root directory. *)

  val null_addr : int
  (** The block address of a hole. *)

  val find : t -> int -> file
  (** Load an inode.  @raise Errors.Error [Enoent] if it is not
      allocated. *)

  val inum : file -> int
  val size : file -> int
  val kind : file -> Fs_intf.file_kind

  val bmap : t -> file -> int -> int
  (** Address of a logical block, {!null_addr} for a hole. *)

  val read_disk_into : t -> int -> n:int -> bytes -> unit
  (** [read_disk_into t addr ~n buf] reads the [n] blocks at
      [addr..addr + n - 1] into the start of [buf] in one synchronous
      device request. *)

  val fetch_into : t -> int -> bytes -> unit
  (** [fetch_into t addr buf] fills the first block of [buf] with the
      block at [addr], which missed in the cache.  [buf] comes from
      {!Lfs_cache.Block_cache.take}. *)

  val clusterable : t -> int -> bool
  (** Whether the block at an address is on the device, so it may be
      read as part of a multi-block request or prefetched. *)

  val write_dir_block : t -> file -> int -> bytes -> unit
  (** [write_dir_block t dir blk block] writes back directory block
      [blk] after an in-place edit, growing the directory's size to
      cover it and updating its mtime. *)
end

module type S = sig
  type t
  type file

  (** {1 File blocks} *)

  val cached_block : t -> file -> int -> bytes option
  (** The cache's own buffer for a logical block, fetched and cached
      clean on a miss (one cache lookup either way), or [None] for a
      hole.  Callers may edit it in place and then mark it dirty or
      re-insert it.  Like every buffer {!Lfs_cache.Block_cache.find}
      returns, it is valid only until the next cache insert, remove or
      drop. *)

  val read_block : t -> file -> blkno:int -> addr:int -> bytes
  (** The block stored at [addr], from the cache or fetched and cached
      clean.  The result is the cache's buffer, valid only until the next
      cache insert, remove or drop: an edit in place must be followed by
      {!Lfs_cache.Block_cache.mark_dirty}. *)

  val read : t -> file -> off:int -> len:int -> bytes
  (** Read up to [len] bytes at [off] (short at end of file; holes read
      as zeros).  Misses fill from the device, clustered when enabled;
      a sequential stream triggers read-ahead.  Charges the copy; the
      caller has checked the arguments and maintains atime. *)

  val zero_tail : t -> file -> size:int -> unit
  (** Truncation support: zero the bytes past [size] in the block that
      holds offset [size], so a later extension reads zeros there.
      Nothing to do when [size] is block-aligned or falls in a hole. *)

  (** {1 Directories}

      Each directory block examined charges one CPU lookup, modelling
      the namei scan. *)

  val lookup : t -> dir:int -> string -> int option
  (** @raise Errors.Error [Enotdir] if [dir] is not a directory. *)

  val add : t -> dir:int -> string -> int -> unit
  (** Add an entry in the first block with room (a new block at the end
      otherwise); the caller has checked for duplicates.
      @raise Errors.Error [Einval] on an invalid name. *)

  val remove : t -> dir:int -> string -> unit
  (** @raise Errors.Error [Enoent] if absent. *)

  val entries : t -> dir:int -> (string * int) list
  (** All entries, unsorted. *)

  (** {1 Paths} *)

  val resolve : t -> string list -> int
  (** Walk components from the root.
      @raise Errors.Error [Enoent]/[Enotdir] as appropriate. *)

  val resolve_dir : t -> string list -> int
  (** {!resolve}, and the result must be a directory. *)

  val resolve_path : t -> string -> int

  val regular : t -> string -> file
  (** The regular file at a path.  @raise Errors.Error [Eisdir] on a
      directory. *)
end

module Make (F : FS) : S with type t = F.t and type file = F.file

(** {1 Argument checks}

    Both file systems run these before resolving the path, so a bad
    argument fails the same way whatever the path names. *)

val check_read : off:int -> len:int -> unit
(** @raise Errors.Error [Einval] on a negative offset or length. *)

val check_write : off:int -> len:int -> max_size:int -> unit
(** @raise Errors.Error [Einval] on a negative offset, [Efbig] past
    [max_size]. *)

val check_truncate : size:int -> max_size:int -> unit
(** @raise Errors.Error [Einval] on a negative size, [Efbig] past
    [max_size]. *)

(** The block-file layer both file systems share.

    LFS keeps the classic UNIX inode and directory format (§4.2), so once
    a file's inode is found its blocks are read exactly as in FFS.  This
    functor holds that common machinery once: the cached read path with
    clustered fills and read-ahead, the directory scan/insert/remove over
    {!Dir_block}, path resolution, truncate's partial-tail zeroing, and
    the structural checker ({!S.fsck}): the block-ownership map, the
    per-file block walk and the namespace walk.

    A file system supplies only what really differs: its block map, how
    a block that missed in the cache is fetched (LFS copies blocks of the
    segment still being assembled from memory) and whether an address
    may join a multi-block disk request, and how an edited directory
    block is written back (LFS leaves it dirty in the cache; FFS writes
    it synchronously in place).  For the checker it also supplies its
    inode allocation test, its pointer blocks and which addresses may
    hold file blocks.  Syscall wrappers, CPU charges, atime, the write
    loop and each system's own structural checks stay with each file
    system. *)

(** What a block of a file is to it, in {!S.iter_blocks}. *)
type block_role =
  | Data  (** a data block; its index is the logical block number *)
  | Indirect
  | Dindirect  (** the double-indirect block *)
  | Dind_child
      (** a child of the double-indirect block; its index is its slot *)

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

  (** {2 Structural checks} *)

  val max_files : t -> int
  (** Inode numbers run from 1 to [max_files - 1]. *)

  val allocated : t -> int -> bool
  (** Whether an inode number in that range is allocated. *)

  val nlink : file -> int
  val indirect : file -> int
  val dindirect : file -> int
  val ptrs_per_block : t -> int

  val dind_child : t -> file -> int -> int
  (** [dind_child t f child] is slot [child] of [f]'s double-indirect
      block, which is not {!null_addr}. *)

  val data_address : t -> int -> bool
  (** Whether a block address (not {!null_addr}) lies where a file's
      data or pointer blocks may: on the disk, past the superblock and
      the system's fixed metadata. *)
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

  (** {1 Structural checks} *)

  val load : t -> int -> (file, string) result
  (** Load an inode, or say why it does not load: not allocated, its
      slot empty or undecodable, its inode block clobbered. *)

  val iter_blocks : t -> file -> (block_role -> int -> int -> unit) -> unit
  (** [iter_blocks t f visit] calls [visit role index addr] for every
      block slot of [f], holes ({!FS.null_addr}) included: each data
      block up to the size, then the indirect block, then — when there
      is one — the double-indirect block and each of its children. *)

  val fsck :
    ?extra_owners:((owner:string -> int -> unit) -> unit) ->
    ?cross_check:((int -> string option) -> (Issue.t -> unit) -> unit) ->
    t ->
    Issue.t list
  (** Full structural verification.  An empty list means the file
      system is structurally sound.  In order:

      + every allocated inode, in inum order, is loaded ({!Issue.Unreadable}
        if it does not) and its blocks entered in the block-ownership
        map, tagged ["inum N block B"], ["inum N indirect"] and so on;
        an address outside {!FS.data_address} is
        {!Issue.Address_out_of_range};
      + [extra_owners reference] enters the system's own blocks;
      + every block with more than one owner is a
        {!Issue.Double_reference};
      + [cross_check owner report] runs the system's own checks against
        the map: [owner addr] is the last owner entered for [addr];
      + the namespace walk from the root: every entry must name an
        allocated inode ({!Issue.Bad_dir_entry}), every link count must
        match its entries ({!Issue.Bad_nlink}), every allocated inode
        must be reachable ({!Issue.Orphan_inode}).  Each directory is
        entered once, so a cyclic tree is reported, not walked
        forever. *)
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

(** The FFS-style baseline file system (SunOS's BSD fast file system as
    characterized in §3 of the paper).

    Same interface as {!Lfs_core.Fs} (both satisfy
    {!Lfs_vfs.Fs_intf.S}), but with update-in-place semantics:

    - inodes live at fixed addresses; creating or deleting a file writes
      the inode-table block and the directory block {e synchronously}
      (Figure 1's four synchronous writes for two files);
    - data blocks are allocated near their file at write time and written
      back in place (delayed, asynchronous) — small files land wherever
      their cylinder group has room, so write-back is random I/O;
    - no log, no cleaner, no checkpoints.  Crash recovery would be fsck's
      full-disk scan; it is not modelled. *)

type t

val name : string
val io : t -> Lfs_disk.Io.t

val format : Lfs_disk.Io.t -> Config.t -> (unit, string) result
val mount : ?config:Config.t -> Lfs_disk.Io.t -> (t, string) result
val unmount : t -> unit

val create : t -> string -> (unit, Lfs_vfs.Errors.t) result
val mkdir : t -> string -> (unit, Lfs_vfs.Errors.t) result
val delete : t -> string -> (unit, Lfs_vfs.Errors.t) result
val rename : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val link : t -> string -> string -> (unit, Lfs_vfs.Errors.t) result
val readdir : t -> string -> (string list, Lfs_vfs.Errors.t) result
val stat : t -> string -> (Lfs_vfs.Fs_intf.stat, Lfs_vfs.Errors.t) result
val exists : t -> string -> bool
val write : t -> string -> off:int -> bytes -> (unit, Lfs_vfs.Errors.t) result
val read : t -> string -> off:int -> len:int -> (bytes, Lfs_vfs.Errors.t) result
val truncate : t -> string -> size:int -> (unit, Lfs_vfs.Errors.t) result
val sync : t -> unit
val fsync : t -> string -> (unit, Lfs_vfs.Errors.t) result
val flush_caches : t -> unit

(** {1 Introspection} *)

val config : t -> Config.t
val layout : t -> Layout.t
val free_blocks : t -> int

(** {1 Structural verification} *)

val fsck : t -> Lfs_vfs.Issue.t list
(** Full structural verification of the live (cache-coherent) state:
    the checker both systems share ({!Lfs_vfs.Block_file.S.fsck}), plus
    the cylinder-group bitmap cross-check.  An empty list means the file
    system is structurally sound.

    Invariants checked (all update-in-place hazards the paper's §3
    baseline lives with):

    - every block reachable from an allocated inode (direct, indirect,
      double-indirect) is owned by exactly one structure and lies in a
      data region, not the superblock or a bitmap/inode-table area;
    - the cylinder-group block bitmaps agree with reachability: group
      metadata is permanently allocated, and a data block is marked
      used iff something references it ({!Lfs_vfs.Issue.Leaked_block},
      {!Lfs_vfs.Issue.Lost_block});
    - the namespace is sound: every directory entry resolves to an
      allocated inode, link counts match entry counts, and every
      allocated inode is reachable from the root. *)

val integrity : t -> string list
(** {!fsck} rendered with {!Lfs_vfs.Issue.pp} — the
    {!Lfs_vfs.Fs_intf.S} sanitizer hook. *)

val repair : t -> string list
(** fsck-style crash repair, to run right after {!mount}ing a disk that
    was not cleanly unmounted: decode every inode-table slot, rebuild
    both cylinder-group bitmaps from the survivors, walk the namespace
    salvaging torn directory blocks and pruning dangling entries, fix
    link counts, release orphans, clear bogus block pointers, then sync.
    Returns one line per repair made; after it, {!fsck} is clean.

    This is the full-disk scan the paper contrasts with LFS's bounded
    roll-forward — its cost grows with the disk, not with the log tail.
    @raise Failure if the root inode itself did not survive. *)

(** {1 Checker/test support} *)

val root_inum : int

val alloc : t -> Alloc.t
(** The live allocator, exposed so corruption-injection tests can
    fabricate bitmap inconsistencies.  Not for normal use. *)

val inode_of : t -> int -> Inode.t
(** The in-memory inode for [inum] (loading it if needed); raises
    [Lfs_vfs.Errors.Error Enoent] if unallocated.  Test support. *)

module Block_file : Lfs_vfs.Block_file.S with type t := t
(** FFS's instance of the shared block-file layer, exposed so tests can
    edit directories below the syscall layer.  Not for normal use. *)

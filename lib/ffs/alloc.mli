(** Block and inode allocation for the FFS baseline.

    Approximates BSD's cylinder-group policy: a file's inode is placed in
    its directory's group, a directory's inode in the least-loaded group,
    and data blocks as close as possible to the previous block of the same
    file — which is why sequentially written FFS files read fast, and why
    small scattered allocations cause seeks. *)

type t

val create : Layout.t -> t
(** Fresh bitmaps with every group's metadata blocks marked used. *)

val layout : t -> Layout.t

(** {1 Crash repair}

    After an unclean shutdown the on-disk bitmaps are whatever the last
    sync left behind; fsck-style repair rebuilds them from ground truth:
    [reset] back to the freshly-created state (metadata blocks + the null
    inum), then [mark_inode]/[mark_block] for everything the full-disk
    scan proves live. *)

val reset : t -> unit
val mark_inode : t -> int -> unit
val mark_block : t -> int -> unit

(** {1 Inodes} *)

val alloc_inode : t -> group:int -> spread:bool -> int option
(** [spread:true] (directories) picks the group with the most free
    inodes; otherwise allocation starts at [group]. *)

val free_inode : t -> int -> unit
val inode_allocated : t -> int -> bool

(** {1 Blocks} *)

val alloc_block : t -> near:int -> int option
(** Allocate a data block as close after [near] as possible ([near] may
    be any block address; pass the file's previous block, or the group's
    first data block).  Spills to other groups when full. *)

val free_block : t -> int -> unit
val block_allocated : t -> int -> bool
val free_block_count : t -> int

(** {1 Persistence} *)

val dirty_groups : t -> int list
val clear_dirty : t -> unit
val encode_group : t -> int -> (int * bytes) list
(** [(block address, contents)] of every bitmap block of one group. *)

val load_group : t -> int -> read:(int -> bytes) -> unit
(** Rebuild a group's bitmaps by reading its bitmap blocks. *)

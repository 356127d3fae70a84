(** Byte-granularity file data operations over the cache and block maps.

    Writes only touch the cache (dirty blocks); they reach the log when
    the write path flushes.  Reads go through the shared block-file layer
    ({!Block_file}).  Access times are maintained in the inode map, not
    the inode (paper, footnote 2).  Callers check the arguments
    ({!Lfs_vfs.Block_file.check_read} and friends). *)

val read : State.t -> State.itable_entry -> off:int -> len:int -> bytes
(** Read up to [len] bytes at [off] (short at end of file; holes read as
    zeros).  Updates the file's atime. *)

val write : State.t -> State.itable_entry -> off:int -> bytes -> unit
(** Write, extending the file as needed. *)

val truncate : State.t -> State.itable_entry -> size:int -> unit
(** Shrink or (sparsely) extend to [size].  Truncating to zero bumps the
    file's inode-map version, instantly invalidating its old log blocks
    for the cleaner (§4.2.1). *)

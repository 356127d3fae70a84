(** The gather/write path (§4.1) and checkpointing (§4.4.1).

    [flush_data] drains the write buffer: every dirty data block, pointer
    block and inode is appended to the log in large sequential segment
    writes.  [checkpoint] additionally writes the dirty inode-map and
    segment-usage blocks, forces the partial segment out, waits for the
    device, and commits an alternating checkpoint region.

    Per-file ordering within a flush is data blocks, then double-indirect
    children, then the double-indirect top, then the single-indirect
    block — each write feeding the next structure's pointers — and
    finally the file's inode, packed with other dirty inodes into shared
    inode blocks whose addresses go to the inode map.

    Space discipline: a [`User] flush refuses to consume the reserve
    segments (raising [Enospc] so the caller can run the cleaner and
    retry); the cleaner's own bounded writes use [`System]. *)

val flush_data : State.t -> privilege:State.privilege -> unit
(** Drain dirty data and inodes into the log.  Leaves the active segment
    open (a partial segment is not forced).
    @raise Errors.Error [Enospc] if the log runs out of clean segments at
    this privilege. *)

val flush_file : State.t -> privilege:State.privilege -> int -> unit
(** Push one file's dirty data, pointer blocks and inode to the log
    (fsync's narrow flush); other files' dirty data stays buffered. *)

val flush_metadata : State.t -> privilege:State.privilege -> unit
(** Write only dirty pointer blocks and inodes — the bounded flush the
    cleaner uses to make its evacuations durable without dragging the
    whole data backlog along ({!flush_meta_blocks} writes the inode-map
    and usage blocks). *)

val flush_meta_blocks : State.t -> privilege:State.privilege -> unit
(** Write dirty inode-map and segment-usage blocks to the log, recording
    their new addresses for the next checkpoint. *)

val sync : State.t -> privilege:State.privilege -> unit
(** [flush_data], force the partial segment out, and wait for the
    device. *)

val checkpoint : ?privilege:State.privilege -> State.t -> unit
(** Full checkpoint (§4.4.1): flush everything including inode-map and
    usage blocks, then write the next checkpoint region synchronously.
    [privilege] (default [`System]) governs the data flush; the small
    metadata writes always run at [`System]. *)

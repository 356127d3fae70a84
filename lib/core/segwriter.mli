(** Segment assembly and log append (§4.1, §4.3.5).

    Blocks are appended to an in-memory segment buffer; when the segment
    fills (or a sync/checkpoint forces a partial segment) the summary
    block and payload go to disk in a single large asynchronous write.
    Reads of not-yet-flushed blocks are served from the buffer by
    {!Block_io}.

    [`User] appends refuse to consume the reserve segments so the cleaner
    can always regenerate free space; the cleaner and checkpoint use
    [`System]. *)

val append :
  ?off:int ->
  State.t ->
  privilege:State.privilege ->
  entry:Summary.entry ->
  live_bytes:int ->
  bytes ->
  int
(** Append one block — the [block_size] bytes of [data] at [off]
    (default 0) — to the log; returns its disk block address.  The block
    is copied into the segment buffer, so the caller keeps [data] and may
    pass a cache buffer or a slice of a larger read without copying it
    first.  Accounts [live_bytes] of live data to the segment.  Flushes
    the active segment and claims a clean one as needed.
    @raise Errors.Error [Enospc] when no segment is available at this
    privilege.
    @raise Invalid_argument if [data] holds no whole block at [off]. *)

val flush_active : State.t -> unit
(** Write out the active segment (possibly partial) and close it; no-op
    when the buffer is empty.  The write is asynchronous: the segment
    buffer itself goes to {!Lfs_disk.Io.async_write} with the written
    prefix's length, and is reused for the next segment once the call
    returns (a queued lane copies the prefix it needs). *)

val active_blocks : State.t -> int
(** Payload blocks currently buffered. *)

val room : State.t -> int
(** Payload blocks still free in the active segment (0 when none is
    active). *)

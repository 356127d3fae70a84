(** The file cache.

    Both file systems keep their blocks here.  For LFS the cache is the
    heart of the design: it is the write buffer that absorbs bursts of
    small writes and turns them into segment-sized transfers (§4.1), and
    its dirty-block population drives the three segment-write triggers of
    §4.3.5 (cache full, age threshold, sync).

    Blocks are keyed by [(owner, blkno)] where [owner] is a file's inode
    number or a file-system-reserved pseudo-file (LFS uses negative owners
    for the inode map and segment usage array).  Entries hold the block
    bytes directly; callers mutate them in place and then call
    {!mark_dirty}.

    Like the kernel's fixed pool of cache buffers, the cache recycles
    its buffers.  A buffer handed to {!insert} belongs to the cache.
    When its entry leaves — a clean eviction, {!remove}, {!drop_clean},
    or an {!insert} of a different buffer under the same key — the
    buffer goes on a spare list of at most [capacity_blocks] buffers,
    and {!take} hands it out again for the next block.  So a buffer
    returned by {!find} is valid only until the next {!insert},
    {!remove} or {!drop_clean}: a reference held past one of them may
    be overwritten with another block's bytes.

    Dirty entries are never evicted — the file system must write them back
    (and {!mark_clean} them) first.  [insert] therefore only reclaims clean
    entries; when the cache overflows with dirty data, {!over_capacity}
    turns true and the file system is expected to flush.

    Besides the LRU order, dirty entries sit in a second order: by the
    time they became dirty (an [insert ~dirty:true], or a {!mark_dirty}
    of a clean entry).  The simulated clock never runs backwards, so the
    longest-dirty entry is always at the end of that order, and the
    write-back age check every operation makes ({!oldest_dirty_age_us})
    costs O(1) whatever the cache size. *)

type t

type key = { owner : int; blkno : int }

val create :
  ?capacity_blocks:int ->
  ?metrics:Lfs_obs.Metrics.t ->
  ?bus:Lfs_obs.Bus.t ->
  Lfs_disk.Clock.t ->
  t
(** [create ~capacity_blocks clock] — default capacity: 4096 blocks
    (16 MB of 4 KB blocks, matching the ~15 MB cache in the paper's
    tests).

    [metrics] registers the [cache.*] counters and gauges there (a
    private registry otherwise); [bus] publishes
    [Cache_{hit,miss,evict,writeback}] trace events (silent
    otherwise). *)

val capacity_blocks : t -> int
val length : t -> int
val dirty_count : t -> int

val spare_count : t -> int
(** Buffers on the spare list; never more than [capacity_blocks]. *)

val find : t -> key -> bytes option
(** Lookup, promoting the entry to most recently used.  The returned bytes
    are the cache's own buffer: mutate then {!mark_dirty} (or re-insert
    them), and do not hold the reference across an {!insert}, {!remove}
    or {!drop_clean}, any of which may recycle the buffer. *)

val take : t -> int -> bytes
(** [take t len] is a buffer of [len] bytes for a block about to be
    inserted: the most recently recycled spare when it has that length,
    a fresh [Bytes.create len] otherwise.  Its contents are unspecified,
    so the caller must overwrite all [len] bytes.  The buffer is the
    caller's until it is handed to {!insert}; a spare is never the
    buffer of an entry still in the cache. *)

val take_zeroed : t -> int -> bytes
(** {!take}, filled with zeros: a new block past a hole or the end. *)

val mem : t -> key -> bool
val dirty : t -> key -> bool

val insert : t -> key -> dirty:bool -> bytes -> unit
(** Insert or replace a block, then reclaim clean LRU entries while over
    capacity.  The just-inserted block is never chosen as a victim, even
    when every other entry is dirty.

    The cache keeps [data] itself, not a copy: the caller hands the
    buffer over and must not change it later without re-inserting it or
    calling {!mark_dirty}.  Re-inserting the buffer {!find} returned —
    after editing it in place, as directory updates do — is allowed and
    recycles nothing; inserting a different buffer recycles the one it
    replaces, and so do the clean evictions the insert makes.  [data]
    must not be the buffer of another entry, nor one that already left
    the cache.
    [~dirty:true] restarts the entry's dirty age even if it was already
    dirty; [~dirty:false] makes it clean without counting a
    write-back. *)

val mark_dirty : t -> key -> unit
(** Start the entry's dirty age unless it is already dirty.
    @raise Not_found if the key is absent. *)

val mark_clean : t -> key -> unit
(** Called by write-back once the block is on disk (or queued to a
    segment).  No-op if absent. *)

val remove : t -> key -> unit
(** Drop an entry regardless of dirtiness (file deletion/truncation),
    recycling its buffer. *)

val fold_dirty : (key -> bytes -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over dirty entries in least-recently-used-first order, so
    write-back naturally drains the oldest data. *)

val dirty_keys : t -> key list
(** Dirty keys, least recently used first. *)

val oldest_dirty_age_us : t -> int option
(** Age of the longest-dirty entry, for the 30-second write-back
    trigger; [None] when nothing is dirty.  O(1): read off the end of
    the dirty order, without walking the cache. *)

val over_capacity : t -> bool
(** True when dirty blocks alone keep the cache above capacity. *)

val drop_clean : t -> unit
(** Drop every clean entry — the paper's "file cache was flushed" between
    benchmark phases, without touching unwritten data — recycling their
    buffers. *)

val clear : t -> unit

val stats_hits : t -> int
val stats_misses : t -> int
(** [find] hit/miss counters (a miss is a [find] returning [None]). *)

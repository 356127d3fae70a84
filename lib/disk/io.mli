(** The I/O scheduler: joins a {!Volume} of member {!Disk}s, a {!Clock}
    and a {!Cpu_model} and decides who pays for each request.

    - [sync_read_into]/[sync_write] make the caller wait: the clock advances
      past any queued device work, then by the request's service time.
      These model the synchronous metadata writes that cripple FFS.
    - [async_write] queues work on the device: the device busy horizon
      advances but the caller does not wait — unless the backlog exceeds
      [max_backlog_us], in which case the caller is throttled (the file
      cache is full and the application must wait for the disk).  This is
      how LFS's segment writes overlap with computation, and why its
      sustained bandwidth is still bounded by the disk.
    - [drain] waits for the device to go idle ([sync]/[fsync], and phase
      boundaries in benchmarks).

    {b One request path.}  Every request enters its member's request
    queue ({!Sched}) and is dispatched from there.  The queue's bound
    says how many requests an asynchronous write may leave pending.  By
    default the bound is 0 and the discipline FCFS: each request is
    dispatched inside the call that enqueued it, which is issue-order
    service (the single-caller model).  {!set_scheduler} installs a
    discipline with a positive bound: asynchronous writes then pool in
    the queue and are dispatched in discipline order — head position and
    queue depth determine positioning cost, so reordering (SCAN/C-SCAN)
    is a measurable optimisation.  Synchronous requests join the same
    queue and wait for their turn, which models the convoy a synchronous
    caller suffers behind a deep queue.  Overlapping requests never
    reorder (see {!Sched}), so data semantics are unchanged.

    Every request is published on the instance's {!Lfs_obs.Bus} as a
    [Disk_request] event, its queue activity as [Disk_queue] events, and
    observed in the [io.*] registry histograms.  The Figure 1/2
    experiment attaches a [Disk_request] sink to show FFS's eight small
    random writes versus LFS's single large sequential one; device
    counters are the registry's [disk.*] counters ({!metrics}).

    {b Always a volume.}  The device behind the scheduler is a {!Volume}
    of N member disks ({!of_volume}); a plain disk is the one-member
    volume whose map is the identity ({!of_geometry}).  Each member has
    its own busy horizon and request queue, all sharing the clock.
    Requests are split by the volume's address map into at most one
    contiguous run per member, the runs issued together, and a
    synchronous caller resumes when the slowest member finishes: an
    N-member striped segment write completes in roughly [1/N] of the
    single-disk media time.  A run that covers
    the whole request is passed through without copying, so a one-member
    volume costs what a bare disk did.  Mirror reads pick the replica
    with the shallowest queue / earliest horizon / closest head and fail
    over transparently (counted in [io.degraded_reads]).  Logical
    requests on multi-member volumes are additionally published as
    [Volume_op] events; the per-member requests appear as the usual
    [Disk_request]s (with member-local sectors). *)

type t

exception Read_failed of { sector : int; attempts : int }
(** A read kept failing ({!Disk.Read_fault}) until the retry budget ran
    out: the typed surface of an unrecoverable media error.  [attempts]
    counts every try, including the first. *)

val of_volume :
  ?max_backlog_us:int ->
  ?read_attempts:int ->
  ?retry_backoff_us:int ->
  Volume.t ->
  Clock.t ->
  Cpu_model.t ->
  t
(** Mount a {!Volume} behind the scheduler.  Every member gets its own
    busy horizon and its own queue; options apply to all members.

    Default backlog: 2 s of queued device time (roughly two segment
    writes ahead on the paper's disk).

    [read_attempts] (default 4) bounds how often {!sync_read_into} tries a
    request that fails with {!Disk.Read_fault}; each retry first waits
    [retry_backoff_us] (default 1 ms) doubled per attempt on the
    simulated clock, accounted in [io.retries]/[io.backoff_us], and is
    serviced no earlier than the end of that wait. *)

val of_geometry :
  ?max_backlog_us:int ->
  ?read_attempts:int ->
  ?retry_backoff_us:int ->
  Geometry.t ->
  Clock.t ->
  Cpu_model.t ->
  t
(** A plain disk of geometry [g]: {!of_volume} over a one-member
    [Stripe] volume whose chunk is the whole member, so the logical
    geometry is [g] itself. *)

val volume : t -> Volume.t
(** The volume behind this stack (one member for a plain disk). *)

val members : t -> int
(** Number of member devices (1 for a plain disk). *)

val member_disk : t -> int -> Disk.t
(** Member [i]'s device — [member_disk t 0] is a plain disk's device,
    for tests that arm crashes on it.
    @raise Invalid_argument if out of range. *)

val geometry : t -> Geometry.t
(** The logical geometry the file system should format:
    {!Volume.geometry} — a plain disk's own geometry. *)

val clock : t -> Clock.t
val cpu : t -> Cpu_model.t
val now_us : t -> int

val bus : t -> Lfs_obs.Bus.t
(** The trace bus for this I/O stack.  Quiet (and nearly free) until a
    sink or subscriber is attached. *)

val metrics : t -> Lfs_obs.Metrics.t
(** The registry shared by the whole stack: {!Volume.metrics}, shared
    by every member. *)

(** {1 CPU accounting} *)

val charge_cpu : t -> int -> unit
val charge_syscall : t -> unit
val charge_copy : t -> bytes:int -> unit
val charge_lookup : t -> unit

(** {1 Disk requests} *)

val sync_read_into : t -> sector:int -> count:int -> bytes -> unit
(** [sync_read_into t ~sector ~count buf] reads [count] sectors into the
    first [count * sector_size] bytes of [buf], waiting for them like
    every synchronous request; the rest of [buf] is left alone.  This is
    the one read path.  A request that maps to a single member run (a
    plain disk, a request inside one stripe chunk) and every mirror read
    land in [buf] directly, with no intermediate copy; a striped request
    spanning several runs reads each run into its own buffer and
    scatters it into [buf].  A failed mirror replica never writes into
    [buf] before the fail-over.  Callers may reuse [buf] across requests:
    nothing keeps a reference to it after the call returns.
    @raise Invalid_argument if [buf] is shorter than the request or the
    request lies outside the volume.
    @raise Read_failed when the request still fails after the configured
    number of attempts (see {!of_volume}). *)

val sync_read : t -> sector:int -> count:int -> bytes
(** A fresh buffer filled by {!sync_read_into}.
    @raise Read_failed as {!sync_read_into}. *)

val sync_write : t -> sector:int -> bytes -> unit
(** @raise Invalid_argument unless the data is a positive multiple of the
    sector size and lies inside the volume. *)

val async_write : ?len:int -> t -> sector:int -> bytes -> unit
(** [async_write ?len t ~sector data] writes the first [len] bytes of
    [data] (default: all of it; a positive multiple of the sector size).
    The caller keeps ownership of [data] and may reuse the buffer as soon
    as the call returns: a bound-0 lane (the default) dispatches the
    request before returning, and a lane with a positive bound copies
    exactly the [len]-byte prefix it needs, because the queue must own
    a payload that may stay pending.
    @raise Invalid_argument if [len] is not a positive multiple of the
    sector size, exceeds [data], or the request lies outside the
    volume. *)

val drain : t -> unit
(** Dispatch any queued requests and advance the clock until the device
    is idle. *)

(** {1 Request scheduling} *)

val set_scheduler : ?max_queue:int -> t -> Sched.discipline option -> unit
(** Install a request-scheduling discipline with a queue bound of
    [max_queue] requests (default 32), or revert to issue-order service
    with [None]: FCFS with bound 0.  Any requests pending under the
    previous policy are dispatched first, so a policy change can never
    reorder requests issued before it.

    [async_write] enqueues; while the queue holds more than its bound the
    caller dispatches, then the [max_backlog_us] throttle applies.
    [sync_read_into] / [sync_write] enqueue themselves and dispatch in
    discipline order until serviced.  Queue activity is published as
    [Disk_queue] bus events and observed in [io.queue.depth] /
    [io.queue.wait_us], whatever the bound. *)

val scheduler : t -> Sched.discipline option
(** The installed discipline; [None] for the default bound-0 lanes. *)

val queue_depth : t -> int
(** Number of requests currently pending across all member queues (always
    0 between calls on bound-0 lanes). *)

val member_stats : t -> int -> Disk.stats
(** Member [i]'s device counters — the per-spindle view ([disk.<i>.*])
    without naming [Disk].  The volume totals are the registry's
    aggregate [disk.*] counters. *)

val snapshot_media : t -> bytes
(** Copy of the underlying media — member media concatenated in member
    order ({!Volume.snapshot}), so crash sweeps and replays are
    deterministic and byte-comparable.  Queued writes on every member are dispatched first
    (without advancing the clock) so the snapshot reflects everything
    issued. *)

val restore_media : t -> bytes -> unit
(** Overwrite the media from a {!snapshot_media} image; every member's
    head state is reset and any queued requests are discarded.
    @raise Invalid_argument if the image size does not match the
    volume. *)

val note_clustered_read : t -> blocks:int -> unit
(** Account one multi-block read request that replaced [blocks]
    single-block requests: bumps [io.clustered_reads] and adds [blocks]
    to [io.clustered_read_blocks].  Called by the file systems when they
    coalesce contiguous blocks into one {!sync_read}. *)

val note_clustered_write : t -> blocks:int -> unit
(** Same accounting for coalesced write-back requests
    ([io.clustered_writes] / [io.clustered_write_blocks]). *)

val backlog_us : t -> int
(** Queued device time not yet reached by the clock. *)
